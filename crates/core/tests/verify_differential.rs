//! Differential and mutation tests for the linear-time routed-circuit
//! checker: [`check_equivalence`] must give the same verdict — and fail
//! for the same reason — as the all-pairs [`check_equivalence_reference`]
//! on every routed suite job, on random Clifford+T circuits, and on
//! deliberately broken routings (reordered, dropped, duplicated or
//! retargeted gates, moved SWAPs, corrupted SWAP bookkeeping).
//!
//! The default run covers suite entries up to 600 gates on q16, q20 and
//! q5; the full 8-device sweep is `#[ignore]`d:
//! `cargo test --release -p codar-router --test verify_differential -- --ignored`.

use codar_arch::Device;
use codar_benchmarks::{full_suite, generators};
use codar_circuit::{Circuit, Gate, GateKind};
use codar_router::verify::{check_equivalence, check_equivalence_reference};
use codar_router::{CodarRouter, GreedyRouter, RouteError, RoutedCircuit, SabreRouter};
use proptest::prelude::*;

/// The failure classes both checkers report.
const CATEGORIES: [&str; 6] = [
    "does not point at a SWAP",
    "unoccupied",
    "gate count mismatch",
    "does not occur",
    "occurs more often",
    "reordered",
];

/// `None` for acceptance, otherwise the matched failure class.
fn verdict(result: &Result<(), RouteError>) -> Option<&'static str> {
    let err = result.as_ref().err()?.to_string();
    Some(
        CATEGORIES
            .into_iter()
            .find(|c| err.contains(c))
            .unwrap_or_else(|| panic!("unclassified verification error: {err}")),
    )
}

/// Asserts both checkers agree on `routed`; returns whether it passed.
fn assert_agree(original: &Circuit, routed: &RoutedCircuit, context: &str) -> bool {
    let fast = check_equivalence(original, routed);
    let reference = check_equivalence_reference(original, routed);
    assert_eq!(
        verdict(&fast),
        verdict(&reference),
        "{context}: fast {fast:?} vs reference {reference:?}"
    );
    fast.is_ok()
}

/// Routes `circuit` with each of the three routers on `device`.
fn route_all(circuit: &Circuit, device: &Device) -> Vec<(&'static str, RoutedCircuit)> {
    vec![
        ("codar", CodarRouter::new(device).route(circuit)),
        ("sabre", SabreRouter::new(device).route(circuit)),
        ("greedy", GreedyRouter::new(device).route(circuit)),
    ]
    .into_iter()
    .map(|(name, routed)| (name, routed.expect("circuit fits the device")))
    .collect()
}

/// SplitMix64: a seeded, dependency-free position picker.
struct Picker(u64);

impl Picker {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// A routed circuit as an editable list of (gate, router-inserted?).
fn editable(routed: &RoutedCircuit) -> Vec<(Gate, bool)> {
    routed
        .circuit
        .gates()
        .iter()
        .enumerate()
        .map(|(i, g)| (g.clone(), routed.inserted_swap_indices.contains(&i)))
        .collect()
}

/// Rebuilds a routed circuit from an edited list; the SWAP bookkeeping
/// follows the flags.
fn rebuild(routed: &RoutedCircuit, gates: Vec<(Gate, bool)>) -> RoutedCircuit {
    let mut circuit = Circuit::with_bits(routed.circuit.num_qubits(), routed.circuit.num_bits());
    let mut inserted = Vec::new();
    for (i, (gate, flag)) in gates.into_iter().enumerate() {
        if flag {
            inserted.push(i);
        }
        circuit.push(gate);
    }
    RoutedCircuit {
        circuit,
        inserted_swap_indices: inserted,
        ..routed.clone()
    }
}

/// The mutation kinds, each a seeded edit of one routed circuit (`None`
/// when the circuit offers no site for it).
const MUTATIONS: [&str; 7] = [
    "swap adjacent gates",
    "pull an overlapping gate forward",
    "drop a gate",
    "duplicate a gate",
    "retarget a qubit",
    "move an inserted SWAP",
    "corrupt inserted_swap_indices",
];

fn mutate(routed: &RoutedCircuit, kind: &str, pick: &mut Picker) -> Option<RoutedCircuit> {
    let mut gates = editable(routed);
    let len = gates.len();
    if len < 2 {
        return None;
    }
    match kind {
        "swap adjacent gates" => {
            let i = pick.below(len - 1);
            gates.swap(i, i + 1);
        }
        "pull an overlapping gate forward" => {
            let i = pick.below(len - 1);
            let j = (i + 1..len).find(|&j| gates[j].0.overlaps(&gates[i].0))?;
            let moved = gates.remove(j);
            gates.insert(i, moved);
        }
        "drop a gate" => {
            gates.remove(pick.below(len));
        }
        "duplicate a gate" => {
            let i = pick.below(len);
            gates.insert(i + 1, gates[i].clone());
        }
        "retarget a qubit" => {
            let physical = routed.circuit.num_qubits();
            let i = pick.below(len);
            let gate = &mut gates[i].0;
            if gate.kind == GateKind::Barrier || gate.qubits.len() >= physical {
                return None;
            }
            let slot = pick.below(gate.qubits.len());
            let free: Vec<usize> = (0..physical).filter(|q| !gate.acts_on(*q)).collect();
            gate.qubits[slot] = free[pick.below(free.len())];
        }
        "move an inserted SWAP" => {
            let swaps: Vec<usize> = (0..len).filter(|&i| gates[i].1).collect();
            if swaps.is_empty() {
                return None;
            }
            let from = swaps[pick.below(swaps.len())];
            let moved = gates.remove(from);
            let offset = 1 + pick.below(3);
            let to = if pick.below(2) == 0 {
                from.saturating_sub(offset)
            } else {
                (from + offset).min(len - 1)
            };
            gates.insert(to, moved);
        }
        "corrupt inserted_swap_indices" => {
            let mut mutant = routed.clone();
            let indices = &mut mutant.inserted_swap_indices;
            match pick.below(4) {
                // Forget one SWAP: it becomes a program gate.
                0 if !indices.is_empty() => {
                    indices.remove(pick.below(indices.len()));
                }
                // Point one entry one gate later.
                1 if !indices.is_empty() => {
                    let k = pick.below(indices.len());
                    indices[k] += 1;
                }
                // Claim a program gate was router-inserted.
                2 => {
                    let i = pick.below(len);
                    if let Err(at) = indices.binary_search(&i) {
                        indices.insert(at, i);
                    }
                }
                // Break the ascending order.
                _ if indices.len() >= 2 => {
                    let k = pick.below(indices.len() - 1);
                    indices.swap(k, k + 1);
                }
                _ => return None,
            }
            return Some(mutant);
        }
        other => unreachable!("unknown mutation {other}"),
    }
    Some(rebuild(routed, gates))
}

/// Tallies of mutant verdicts, so a test can insist both outcomes occur.
#[derive(Default)]
struct Tally {
    accepted: usize,
    rejected: usize,
}

/// Checks `routed` and `rounds` mutants of each kind with both checkers.
fn differential(
    original: &Circuit,
    routed: &RoutedCircuit,
    rounds: usize,
    pick: &mut Picker,
    context: &str,
    tally: &mut Tally,
) {
    assert!(
        assert_agree(original, routed, context),
        "{context}: router output fails verification"
    );
    for kind in MUTATIONS {
        for round in 0..rounds {
            let Some(mutant) = mutate(routed, kind, pick) else {
                continue;
            };
            if assert_agree(original, &mutant, &format!("{context}, {kind} #{round}")) {
                tally.accepted += 1;
            } else {
                tally.rejected += 1;
            }
        }
    }
}

/// Every fitting suite entry up to `max_gates`, routed by all three
/// routers on each device, plus `rounds` mutants per kind per job.
fn sweep(devices: &[Device], max_gates: usize, rounds: usize) -> Tally {
    let suite = full_suite();
    let mut tally = Tally::default();
    let mut pick = Picker(7);
    for device in devices {
        for entry in suite
            .iter()
            .filter(|e| e.num_qubits <= device.num_qubits() && e.circuit.len() <= max_gates)
        {
            for (router, routed) in route_all(&entry.circuit, device) {
                let context = format!("{} on {} by {router}", entry.name, device.name());
                differential(
                    &entry.circuit,
                    &routed,
                    rounds,
                    &mut pick,
                    &context,
                    &mut tally,
                );
            }
        }
    }
    tally
}

#[test]
fn suite_jobs_and_their_mutants_agree() {
    let devices = ["q16", "q20", "q5"].map(|n| Device::by_name(n).expect("preset"));
    let tally = sweep(&devices, 600, 2);
    assert!(tally.accepted > 0, "no mutant was accepted");
    assert!(tally.rejected > 0, "no mutant was rejected");
}

#[test]
#[ignore = "full 8-device sweep; run in release with --ignored"]
fn full_catalog_sweep_agrees() {
    let devices: Vec<Device> = Device::presets().into_iter().map(|(_, d)| d).collect();
    let tally = sweep(&devices, usize::MAX, 2);
    assert!(tally.accepted > 0 && tally.rejected > 0);
}

/// A program with every structure the run rules special-case:
/// barriers, identities, identical neighbours and signed zeros.
#[test]
fn special_cases_and_their_mutants_agree() {
    let mut original = Circuit::new(4);
    original.h(0);
    original.h(0);
    original.add(GateKind::Id, vec![1], vec![]);
    original.cx(0, 1);
    original.barrier(vec![1, 2]);
    original.add(GateKind::Id, vec![1], vec![]);
    original.add(GateKind::U3, vec![2], vec![0.0, 0.5, 0.5]);
    original.add(GateKind::U3, vec![2], vec![-0.0, 0.5, 0.5]);
    original.cx(1, 3);
    original.t(0);
    original.cz(0, 1);
    original.swap(2, 3);
    original.swap(2, 3);
    original.measure(0, 0);
    original.measure(1, 0);
    let device = Device::by_name("q5").expect("preset");
    let mut tally = Tally::default();
    let mut pick = Picker(3);
    for (router, routed) in route_all(&original, &device) {
        differential(&original, &routed, 40, &mut pick, router, &mut tally);
    }
    assert!(tally.accepted > 0 && tally.rejected > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random Clifford+T circuits, routed and mutated.
    #[test]
    fn random_circuits_agree(seed in 0u64..10_000) {
        let n = 3 + (seed % 3) as usize;
        let circuit = generators::random_clifford_t(n, 20 + (seed % 60) as usize, seed);
        let mut pick = Picker(seed);
        let mut tally = Tally::default();
        for name in ["q5", "q20"] {
            let device = Device::by_name(name).expect("preset");
            for (router, routed) in route_all(&circuit, &device) {
                let context = format!("seed {seed} on {name} by {router}");
                differential(&circuit, &routed, 3, &mut pick, &context, &mut tally);
            }
        }
    }
}
