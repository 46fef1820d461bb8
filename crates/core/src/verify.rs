//! Validity and equivalence checks for routed circuits.
//!
//! Routing must (a) respect the coupling graph and (b) preserve the
//! program's semantics up to the tracked qubit permutation. Both checks
//! run on every engine job and every service cache miss, so both are
//! linear in gate count.
//!
//! # Why a per-wire check suffices
//!
//! [`commutes`] is decided wire by wire: gates on disjoint qubits always
//! commute, and overlapping gates commute unless some shared wire sees a
//! conflict — a barrier, or two [`QubitAction`] classes that do not
//! commute — with one whole-gate exception, two identical unitary gates.
//! So "every non-commuting pair keeps its order" holds iff it holds on
//! each wire separately. On one wire, split the gates (in original
//! order) into *runs*: a Z-, X- or Y-class gate extends the current run
//! when it repeats the run's class, a unitary gate `==` to the previous
//! non-identity gate on the wire joins that gate's run, and anything else —
//! `Arbitrary` actions, barriers, class changes — opens a new run.
//! Gates inside a run commute pairwise, while every gate of one run
//! conflicts with every gate of the next, so the conflicting pairs keep
//! their order iff run ids never decrease along the wire in routed
//! order. Identity actions join no run: they only have to stay between
//! the same two barriers, which a per-wire barrier *epoch* enforces.
//! [`check_equivalence_reference`] is the direct all-pairs sweep the
//! linear checker must agree with; the tests keep the two in lockstep.

use crate::error::RouteError;
use crate::mapping::Mapping;
use crate::result::RoutedCircuit;
use codar_arch::Device;
use codar_circuit::commute::action_at;
use codar_circuit::{commutes, Circuit, Gate, GateKind, QubitAction};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Checks that every two-qubit gate of `circuit` acts on a coupled pair.
///
/// # Errors
///
/// Returns [`RouteError::Verification`] naming the first offending gate.
pub fn check_coupling(circuit: &Circuit, device: &Device) -> Result<(), RouteError> {
    for (i, gate) in circuit.gates().iter().enumerate() {
        if gate.qubits.len() == 2
            && gate.kind != GateKind::Barrier
            && !device.graph().are_adjacent(gate.qubits[0], gate.qubits[1])
        {
            return Err(RouteError::Verification(format!(
                "gate #{i} ({gate}) acts on uncoupled physical qubits"
            )));
        }
    }
    Ok(())
}

/// Walks the physical circuit, tracking the physical→logical
/// correspondence through the router-inserted SWAPs (output indices in
/// `inserted`, ascending), and hands every other gate to `visit` with
/// its operands re-expressed on logical qubits. Barriers drop operands
/// on unoccupied physical qubits; any other gate touching one fails.
fn walk_logical<'a>(
    routed: &'a Circuit,
    initial: &Mapping,
    inserted: &[usize],
    mut visit: impl FnMut(&'a Gate, &[usize]),
) -> Result<(), RouteError> {
    let mut pi = initial.clone();
    let mut logical = Vec::new();
    let mut inserted_iter = inserted.iter().peekable();
    for (i, gate) in routed.gates().iter().enumerate() {
        if inserted_iter.peek() == Some(&&i) {
            inserted_iter.next();
            if gate.kind != GateKind::Swap {
                return Err(RouteError::Verification(format!(
                    "inserted-swap index {i} does not point at a SWAP (found {gate})"
                )));
            }
            pi.apply_swap(gate.qubits[0], gate.qubits[1]);
            continue;
        }
        logical.clear();
        for &p in &gate.qubits {
            match pi.logical_of(p) {
                Some(l) => logical.push(l),
                // Barriers may legitimately cover unoccupied qubits.
                None if gate.kind == GateKind::Barrier => {}
                None => {
                    return Err(RouteError::Verification(format!(
                        "gate {gate} touches an unoccupied physical qubit"
                    )))
                }
            }
        }
        visit(gate, &logical);
    }
    Ok(())
}

/// Undoes the routing: walks the physical circuit, tracking the
/// physical→logical correspondence through the *router-inserted* SWAPs
/// (given by output index in `inserted`, ascending), and returns the
/// circuit re-expressed on logical qubits with those SWAPs removed.
/// SWAP gates that came from the input program are kept as gates.
///
/// # Errors
///
/// Returns [`RouteError::Verification`] if a non-SWAP gate touches a
/// physical qubit that holds no logical qubit.
pub fn reconstruct_logical(
    routed: &Circuit,
    initial: &Mapping,
    logical_qubits: usize,
    inserted: &[usize],
) -> Result<Circuit, RouteError> {
    let mut out = Circuit::with_bits(logical_qubits, routed.num_bits());
    walk_logical(routed, initial, inserted, |gate, logical| {
        out.push(with_qubits(gate, logical));
    })?;
    Ok(out)
}

/// `gate` with its operands replaced by `qubits`.
fn with_qubits(gate: &Gate, qubits: &[usize]) -> Gate {
    Gate {
        kind: gate.kind,
        qubits: qubits.to_vec(),
        params: gate.params.clone(),
        classical_bit: gate.classical_bit,
    }
}

/// "No gate" / "no further occurrence" marker in the checker's tables.
const NONE: u32 = u32::MAX;

/// The occurrence-matching key of a gate — kind, qubits, parameter
/// bits and classical bit — with the qubits borrowed separately, so a
/// reconstructed gate needs no copy. Hashed with the map's default
/// keyed hasher: circuits arrive from clients.
#[derive(Clone, Copy)]
struct Key<'a> {
    gate: &'a Gate,
    qubits: &'a [usize],
}

impl<'a> Key<'a> {
    fn of(gate: &'a Gate) -> Self {
        Key {
            gate,
            qubits: &gate.qubits,
        }
    }
}

impl PartialEq for Key<'_> {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.gate, other.gate);
        a.kind == b.kind
            && self.qubits == other.qubits
            && a.classical_bit == b.classical_bit
            && a.params.len() == b.params.len()
            && a.params
                .iter()
                .zip(&b.params)
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }
}

impl Eq for Key<'_> {}

impl Hash for Key<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.gate.kind.hash(state);
        self.qubits.hash(state);
        for p in &self.gate.params {
            p.to_bits().hash(state);
        }
        self.gate.classical_bit.hash(state);
    }
}

/// One wire's run bookkeeping while walking the original circuit.
#[derive(Clone)]
struct WireRuns {
    /// Id of the current run (runs start at 1; 0 means "no run").
    run: u32,
    /// Action class the current run extends on, if any.
    class: Option<QubitAction>,
    /// Last non-identity gate on the wire (original index), or [`NONE`].
    prev: u32,
    /// Barrier epoch: `2k` after the k-th barrier, which itself is `2k−1`.
    epoch: u32,
}

impl WireRuns {
    /// Assigns `(epoch, run)` to operand `pos` of `gates[i]`.
    fn assign(&mut self, gates: &[Gate], i: usize, pos: usize) -> (u32, u32) {
        let gate = &gates[i];
        if gate.kind == GateKind::Barrier {
            // A barrier is a run and an epoch of its own: nothing moves
            // across it, identities included.
            self.epoch += 2;
            self.run += 1;
            self.class = None;
            self.prev = i as u32;
            return (self.epoch - 1, self.run);
        }
        let action = action_at(gate, pos);
        if action == QubitAction::Identity {
            return (self.epoch, 0);
        }
        let extends = action != QubitAction::Arbitrary && self.class == Some(action);
        // `commutes()` lets identical unitary gates pass each other.
        let identical =
            || self.prev != NONE && gate.kind.is_unitary() && *gate == gates[self.prev as usize];
        if !(extends || identical()) {
            self.run += 1;
            self.class = Some(action);
        }
        self.prev = i as u32;
        (self.epoch, self.run)
    }
}

/// Checks that `routed` implements `original` exactly, up to
/// commutation-safe reordering and the tracked qubit movement.
///
/// The check undoes the routing (as [`reconstruct_logical`] does, into
/// flat buffers), matches each reconstructed gate to its k-th identical
/// original occurrence (FIFO, keyed by kind, qubits, parameter bits and
/// classical bit), then walks the reconstructed order once per operand.
/// Each operand slot carries its wire's run id and barrier epoch from
/// the original order (see the module docs), and both must be
/// non-decreasing along every wire. That is exactly the condition
/// [`check_equivalence_reference`] tests pairwise — every non-commuting
/// pair keeps its relative order — in O(n·arity) plus hashing. Two
/// identical unitary gates `==` each other (so `u3(0,…)` and
/// `u3(-0,…)` do) join one run, mirroring [`commutes`].
///
/// # Errors
///
/// Returns [`RouteError::Verification`] describing the first mismatch,
/// with the same error precedence as the reference.
pub fn check_equivalence(original: &Circuit, routed: &RoutedCircuit) -> Result<(), RouteError> {
    let gates = original.gates();
    // Reconstructed gates as (physical gate, operand range in `qubits`).
    let mut qubits = Vec::with_capacity(2 * gates.len());
    let mut logical = Vec::with_capacity(gates.len());
    walk_logical(
        &routed.circuit,
        &routed.initial_mapping,
        &routed.inserted_swap_indices,
        |gate, operands| {
            let start = qubits.len();
            qubits.extend_from_slice(operands);
            logical.push((gate, start..qubits.len()));
        },
    )?;
    if logical.len() != gates.len() {
        return Err(RouteError::Verification(format!(
            "gate count mismatch: original {} vs reconstructed {}",
            gates.len(),
            logical.len()
        )));
    }

    // FIFO occurrence match: per key, the next unmatched original
    // index, with `next` chaining each index to the following one.
    let mut heads: HashMap<Key, u32> = HashMap::with_capacity(gates.len());
    let mut next = vec![NONE; gates.len()];
    for (i, g) in gates.iter().enumerate().rev() {
        let head = heads.entry(Key::of(g)).or_insert(NONE);
        next[i] = *head;
        *head = i as u32;
    }
    let mut matched = Vec::with_capacity(gates.len());
    for (gate, range) in &logical {
        let key = Key {
            gate,
            qubits: &qubits[range.clone()],
        };
        let head = match heads.get_mut(&key) {
            Some(head) if *head != NONE => head,
            found => {
                let g = with_qubits(gate, key.qubits);
                return Err(RouteError::Verification(if found.is_some() {
                    format!("gate {g} occurs more often in the routed circuit")
                } else {
                    format!("reconstructed gate {g} does not occur in the original circuit")
                }));
            }
        };
        let i = *head as usize;
        *head = next[i];
        matched.push(i);
    }

    // Per-operand (epoch, run) in original order; `slot_start[i]` is
    // gate i's first slot.
    let mut wires = vec![
        WireRuns {
            run: 0,
            class: None,
            prev: NONE,
            epoch: 0,
        };
        original.num_qubits()
    ];
    let mut slot_start = Vec::with_capacity(gates.len() + 1);
    let mut slots = Vec::with_capacity(qubits.len());
    for (i, g) in gates.iter().enumerate() {
        slot_start.push(slots.len());
        for (pos, &w) in g.qubits.iter().enumerate() {
            slots.push(wires[w].assign(gates, i, pos));
        }
    }

    // Routed order: epochs and run ids never decrease along a wire.
    // Per wire: (epoch, gate that set it, run, gate that set it).
    let mut seen = vec![(0u32, NONE, 0u32, NONE); original.num_qubits()];
    for &i in &matched {
        for (pos, &w) in gates[i].qubits.iter().enumerate() {
            let (epoch, run) = slots[slot_start[i] + pos];
            let (last_epoch, epoch_gate, last_run, run_gate) = &mut seen[w];
            let earlier = if epoch < *last_epoch {
                *epoch_gate
            } else if run != 0 && run < *last_run {
                *run_gate
            } else {
                *last_epoch = epoch;
                *epoch_gate = i as u32;
                if run != 0 {
                    *last_run = run;
                    *run_gate = i as u32;
                }
                continue;
            };
            let later = earlier as usize;
            return Err(RouteError::Verification(format!(
                "gates reordered across a non-commuting run on q{w}: {} (orig #{later}) \
                 now precedes {} (orig #{i})",
                gates[later], gates[i]
            )));
        }
    }
    Ok(())
}

/// The all-pairs reference for [`check_equivalence`]: reconstructs the
/// logical circuit, matches each reconstructed gate to its k-th
/// identical original occurrence, and verifies that every
/// *non-commuting* pair of gates appears in the same relative order —
/// which implies the two circuits denote the same operator. O(n²) in
/// gate count; kept as the test oracle the linear checker must agree
/// with on every input.
///
/// # Errors
///
/// Returns [`RouteError::Verification`] describing the first mismatch.
pub fn check_equivalence_reference(
    original: &Circuit,
    routed: &RoutedCircuit,
) -> Result<(), RouteError> {
    let logical = reconstruct_logical(
        &routed.circuit,
        &routed.initial_mapping,
        original.num_qubits(),
        &routed.inserted_swap_indices,
    )?;
    if logical.len() != original.len() {
        return Err(RouteError::Verification(format!(
            "gate count mismatch: original {} vs reconstructed {}",
            original.len(),
            logical.len()
        )));
    }
    // Match each reconstructed gate to an original occurrence.
    let key = |g: &Gate| {
        (
            g.kind,
            g.qubits.clone(),
            g.params.iter().map(|p| p.to_bits()).collect::<Vec<u64>>(),
            g.classical_bit,
        )
    };
    let mut occurrence: std::collections::HashMap<_, std::collections::VecDeque<usize>> =
        std::collections::HashMap::new();
    for (i, g) in original.gates().iter().enumerate() {
        occurrence.entry(key(g)).or_default().push_back(i);
    }
    // position_in_original[j] = index of the original gate that the j-th
    // reconstructed gate realizes.
    let mut position_in_original = Vec::with_capacity(logical.len());
    for g in logical.gates() {
        let Some(queue) = occurrence.get_mut(&key(g)) else {
            return Err(RouteError::Verification(format!(
                "reconstructed gate {g} does not occur in the original circuit"
            )));
        };
        let Some(idx) = queue.pop_front() else {
            return Err(RouteError::Verification(format!(
                "gate {g} occurs more often in the routed circuit"
            )));
        };
        position_in_original.push(idx);
    }
    // Every non-commuting pair must keep its original relative order.
    for j in 0..logical.len() {
        for k in j + 1..logical.len() {
            let a = &logical.gates()[j];
            let b = &logical.gates()[k];
            if !commutes(a, b) && position_in_original[j] > position_in_original[k] {
                return Err(RouteError::Verification(format!(
                    "non-commuting gates reordered: {a} (orig #{}) now precedes {b} (orig #{})",
                    position_in_original[j], position_in_original[k]
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use codar_circuit::schedule::Time;

    fn wrap(original: &Circuit, physical: Circuit, initial: Mapping) -> RoutedCircuit {
        let _ = original;
        // In these hand-built fixtures every SWAP is router-inserted.
        let inserted: Vec<usize> = physical
            .gates()
            .iter()
            .enumerate()
            .filter(|(_, g)| g.kind == GateKind::Swap)
            .map(|(i, _)| i)
            .collect();
        RoutedCircuit {
            start_times: vec![0; physical.len()],
            weighted_depth: 0 as Time,
            swaps_inserted: inserted.len(),
            inserted_swap_indices: inserted,
            initial_mapping: initial.clone(),
            final_mapping: initial,
            circuit: physical,
            router: "test",
        }
    }

    #[test]
    fn coupling_check_flags_bad_gate() {
        let device = Device::linear(3);
        let mut c = Circuit::new(3);
        c.cx(0, 2);
        let err = check_coupling(&c, &device).unwrap_err();
        assert!(err.to_string().contains("uncoupled"));
        let mut ok = Circuit::new(3);
        ok.cx(0, 1);
        check_coupling(&ok, &device).unwrap();
    }

    #[test]
    fn reconstruction_inverts_a_swap() {
        // Physical: swap(1,2); cx(0,1)  with identity init
        // Logical q2 moves to phys 1, so cx(0,1) realizes cx(0,2).
        let mut phys = Circuit::new(3);
        phys.swap(1, 2);
        phys.cx(0, 1);
        let logical = reconstruct_logical(&phys, &Mapping::identity(3, 3), 3, &[0]).unwrap();
        assert_eq!(logical.len(), 1);
        assert_eq!(logical.gates()[0].qubits, vec![0, 2]);
    }

    #[test]
    fn user_swaps_survive_reconstruction() {
        // The same physical circuit, but the SWAP belongs to the input
        // program: it must stay a gate and the CX maps back unchanged.
        let mut phys = Circuit::new(3);
        phys.swap(1, 2);
        phys.cx(0, 1);
        let logical = reconstruct_logical(&phys, &Mapping::identity(3, 3), 3, &[]).unwrap();
        assert_eq!(logical.len(), 2);
        assert_eq!(logical.gates()[0].kind, GateKind::Swap);
        assert_eq!(logical.gates()[1].qubits, vec![0, 1]);
    }

    #[test]
    fn equivalence_accepts_faithful_routing() {
        let mut original = Circuit::new(3);
        original.cx(0, 2);
        original.h(0);
        let mut phys = Circuit::new(3);
        phys.swap(1, 2);
        phys.cx(0, 1);
        phys.h(0);
        let routed = wrap(&original, phys, Mapping::identity(3, 3));
        check_equivalence(&original, &routed).unwrap();
    }

    #[test]
    fn equivalence_accepts_commuting_reorder() {
        // Original: cx(1,0); cx(2,0)  (share target: commute)
        let mut original = Circuit::new(3);
        original.cx(1, 0);
        original.cx(2, 0);
        let mut phys = Circuit::new(3);
        phys.cx(2, 0); // reordered — allowed
        phys.cx(1, 0);
        let routed = wrap(&original, phys, Mapping::identity(3, 3));
        check_equivalence(&original, &routed).unwrap();
    }

    #[test]
    fn equivalence_rejects_noncommuting_reorder() {
        let mut original = Circuit::new(2);
        original.h(0);
        original.t(0);
        let mut phys = Circuit::new(2);
        phys.t(0);
        phys.h(0);
        let routed = wrap(&original, phys, Mapping::identity(2, 2));
        let err = check_equivalence(&original, &routed).unwrap_err();
        assert!(err.to_string().contains("reordered"));
    }

    #[test]
    fn equivalence_rejects_missing_gate() {
        let mut original = Circuit::new(2);
        original.h(0);
        original.t(0);
        let mut phys = Circuit::new(2);
        phys.h(0);
        let routed = wrap(&original, phys, Mapping::identity(2, 2));
        assert!(check_equivalence(&original, &routed).is_err());
    }

    #[test]
    fn equivalence_rejects_wrong_qubit() {
        let mut original = Circuit::new(2);
        original.h(0);
        let mut phys = Circuit::new(2);
        phys.h(1);
        let routed = wrap(&original, phys, Mapping::identity(2, 2));
        assert!(check_equivalence(&original, &routed).is_err());
    }

    /// Runs both checkers on a hand-built reordering (identity mapping,
    /// no SWAPs), asserts they agree, and returns the fast verdict.
    fn agree(original: &Circuit, reordered: Circuit) -> Result<(), RouteError> {
        let n = original.num_qubits();
        let routed = wrap(original, reordered, Mapping::identity(n, n));
        let fast = check_equivalence(original, &routed);
        let reference = check_equivalence_reference(original, &routed);
        assert_eq!(fast.is_ok(), reference.is_ok(), "{fast:?} vs {reference:?}");
        fast
    }

    /// `gates` of `c` in the order given by `order`.
    fn permuted(c: &Circuit, order: &[usize]) -> Circuit {
        let mut out = Circuit::with_bits(c.num_qubits(), c.num_bits());
        for &i in order {
            out.push(c.gates()[i].clone());
        }
        out
    }

    #[test]
    fn identity_cannot_cross_a_barrier() {
        let mut original = Circuit::new(2);
        original.add(GateKind::Id, vec![0], vec![]);
        original.barrier(vec![0, 1]);
        original.add(GateKind::Id, vec![0], vec![]);
        let err = agree(&original, permuted(&original, &[1, 0, 2])).unwrap_err();
        assert!(err.to_string().contains("reordered"));
        agree(&original, permuted(&original, &[0, 2, 1])).unwrap_err();
        // The two identities are the same key: FIFO matching pins them.
        agree(&original, permuted(&original, &[2, 1, 0])).unwrap();
    }

    #[test]
    fn identity_crosses_non_barrier_gates() {
        let mut original = Circuit::new(2);
        original.add(GateKind::Id, vec![0], vec![]);
        original.h(0);
        original.cx(0, 1);
        agree(&original, permuted(&original, &[1, 2, 0])).unwrap();
        agree(&original, permuted(&original, &[1, 0, 2])).unwrap();
    }

    #[test]
    fn z_runs_split_by_an_x_stay_apart() {
        // Z-run {t, z} / X-run {x} / Z-run {s}.
        let mut original = Circuit::new(1);
        original.t(0);
        original.z(0);
        original.x(0);
        original.s(0);
        agree(&original, permuted(&original, &[1, 0, 2, 3])).unwrap();
        let err = agree(&original, permuted(&original, &[0, 3, 2, 1])).unwrap_err();
        assert!(err.to_string().contains("reordered"));
        agree(&original, permuted(&original, &[3, 0, 1, 2])).unwrap_err();
    }

    #[test]
    fn signed_zero_parameters_are_identical_gates() {
        // `0.0 == -0.0`, so `commutes()` treats these as identical even
        // though occurrence matching keys them apart by bit pattern.
        let mut original = Circuit::new(1);
        original.add(GateKind::U3, vec![0], vec![0.0, 0.1, 0.2]);
        original.add(GateKind::U3, vec![0], vec![-0.0, 0.1, 0.2]);
        agree(&original, permuted(&original, &[0, 1])).unwrap();
        agree(&original, permuted(&original, &[1, 0])).unwrap();
        // A different angle breaks identity: the swap is rejected.
        let mut distinct = Circuit::new(1);
        distinct.add(GateKind::U3, vec![0], vec![0.0, 0.1, 0.2]);
        distinct.add(GateKind::U3, vec![0], vec![0.3, 0.1, 0.2]);
        agree(&distinct, permuted(&distinct, &[1, 0])).unwrap_err();
    }

    #[test]
    fn measures_into_one_bit_on_different_qubits_reorder() {
        let mut original = Circuit::new(2);
        original.measure(0, 0);
        original.measure(1, 0);
        agree(&original, permuted(&original, &[1, 0])).unwrap();
    }

    #[test]
    fn toffoli_control_run_reorders() {
        // Both controls are Z-diagonal in all three gates.
        let mut original = Circuit::new(4);
        original.ccx(0, 1, 2);
        original.ccx(0, 1, 3);
        original.cz(0, 1);
        agree(&original, permuted(&original, &[2, 1, 0])).unwrap();
        agree(&original, permuted(&original, &[1, 2, 0])).unwrap();
        // A target becoming a control breaks the run.
        let mut chained = Circuit::new(4);
        chained.ccx(0, 1, 2);
        chained.ccx(2, 1, 3);
        agree(&chained, permuted(&chained, &[1, 0])).unwrap_err();
    }

    #[test]
    fn identical_gates_join_a_run_across_identities_only() {
        // Occurrence matching pins bit-identical copies in order, so
        // signed zeros are what exercise the identical-gate rule.
        let u3 = |c: &mut Circuit, theta: f64| c.add(GateKind::U3, vec![0], vec![theta, 0.1, 0.2]);
        let mut original = Circuit::new(1);
        u3(&mut original, 0.0);
        original.add(GateKind::Id, vec![0], vec![]);
        u3(&mut original, -0.0);
        agree(&original, permuted(&original, &[2, 1, 0])).unwrap();
        // A T between them is not skipped: neither copy may cross it.
        let mut blocked = Circuit::new(1);
        u3(&mut blocked, 0.0);
        blocked.t(0);
        u3(&mut blocked, -0.0);
        agree(&blocked, permuted(&blocked, &[2, 1, 0])).unwrap_err();
    }

    #[test]
    fn unoccupied_qubit_in_gate_is_error() {
        // 1 logical on 2 physical; gate on phys 1 (empty) is invalid.
        let mut phys = Circuit::new(2);
        phys.h(1);
        let err = reconstruct_logical(&phys, &Mapping::identity(1, 2), 1, &[]).unwrap_err();
        assert!(err.to_string().contains("unoccupied"));
    }

    #[test]
    fn barrier_over_unoccupied_qubits_is_tolerated() {
        let mut phys = Circuit::new(3);
        phys.barrier(vec![0, 2]); // phys 2 unoccupied
        let logical = reconstruct_logical(&phys, &Mapping::identity(1, 3), 1, &[]).unwrap();
        assert_eq!(logical.gates()[0].qubits, vec![0]);
    }
}
