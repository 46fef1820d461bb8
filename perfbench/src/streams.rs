//! Seeded request streams of the service workloads.
//!
//! Every stream is a pure function of its seed: request `i` of a given
//! seed is the same bytes in every run, so a run can be replayed
//! in-process by building the stream again and taking as many lines as
//! the run sent.

use codar_benchmarks::generators::random_clifford_t;
use codar_benchmarks::mix::{service_pool, CircuitMix};
use codar_circuit::from_qasm::circuit_to_qasm;
use codar_service::json::escape;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Pool bound and repeat ratio of the hot stream (loadgen's defaults).
const HOT_MAX_QUBITS: usize = 10;
const HOT_REPEAT_RATIO: f64 = 0.95;

/// Size ranges of the miss stream's random circuits.
const MISS_QUBITS: (usize, usize) = (6, 20);
const MISS_GATES: (usize, usize) = (64, 512);

/// One route request line for `device`/`router`, in loadgen's exact
/// byte layout.
pub fn route_line(device: &str, router: &str, qasm: &str) -> String {
    format!(
        "{{\"type\":\"route\",\"device\":{},\"router\":{},\"circuit\":{}}}",
        escape(device),
        escape(router),
        escape(qasm)
    )
}

/// Which request stream a service workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// A seeded [`CircuitMix`] over `service_pool(10)` at repeat ratio
    /// 0.95: nearly every request repeats a circuit already cached.
    Hot,
    /// Every request a distinct seeded `random_clifford_t` circuit.
    Miss,
}

/// An infinite, seeded stream of route request lines on q20 / codar.
pub enum Stream {
    /// See [`StreamKind::Hot`]. Pool lines are serialized once.
    Hot { mix: CircuitMix, lines: Vec<String> },
    /// See [`StreamKind::Miss`].
    Miss { seed: u64, next: u64 },
}

impl Stream {
    /// The stream of `kind` for `seed`.
    pub fn new(kind: StreamKind, seed: u64) -> Stream {
        match kind {
            StreamKind::Hot => {
                let mix = CircuitMix::with_pool(
                    service_pool(HOT_MAX_QUBITS),
                    CircuitMix::DEFAULT_HOT,
                    seed,
                    HOT_REPEAT_RATIO,
                );
                let lines = mix
                    .pool()
                    .iter()
                    .map(|entry| {
                        let qasm =
                            circuit_to_qasm(&entry.circuit).expect("suite circuits serialize");
                        route_line("q20", "codar", &qasm)
                    })
                    .collect();
                Stream::Hot { mix, lines }
            }
            StreamKind::Miss => Stream::Miss { seed, next: 0 },
        }
    }
}

/// The circuit size of miss request `i`. Sizes sweep both ranges on
/// coprime cycles (15 qubit counts, 449 gate counts), so every prefix
/// of a few hundred requests covers them evenly whatever the seed; the
/// seed only chooses the gates.
pub fn miss_size(i: u64) -> (usize, usize) {
    let qubit_span = (MISS_QUBITS.1 - MISS_QUBITS.0 + 1) as u64;
    let gate_span = (MISS_GATES.1 - MISS_GATES.0 + 1) as u64;
    let qubits = MISS_QUBITS.0 + (i % qubit_span) as usize;
    let gates = MISS_GATES.0 + (i.wrapping_mul(211) % gate_span) as usize;
    (qubits, gates)
}

impl Iterator for Stream {
    type Item = String;

    /// Never `None`.
    fn next(&mut self) -> Option<String> {
        match self {
            Stream::Hot { mix, lines } => Some(lines[mix.next_index()].clone()),
            Stream::Miss { seed, next } => {
                let i = *next;
                *next += 1;
                let (qubits, gates) = miss_size(i);
                let circuit_seed =
                    StdRng::seed_from_u64(*seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                        .gen::<u64>();
                let circuit = random_clifford_t(qubits, gates, circuit_seed);
                let qasm = circuit_to_qasm(&circuit).expect("generated circuits serialize");
                Some(route_line("q20", "codar", &qasm))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codar_circuit::decompose::decompose_three_qubit_gates;
    use codar_circuit::from_qasm::circuit_from_flat;
    use codar_service::protocol::Request;
    use codar_service::{Service, ServiceConfig};
    use std::collections::HashSet;

    fn take(kind: StreamKind, seed: u64, n: usize) -> Vec<String> {
        Stream::new(kind, seed).take(n).collect()
    }

    /// The daemon's canonical form of a route line's circuit.
    fn canonical(line: &str) -> String {
        let Ok(Request::Route { qasm, .. }) = Request::parse_line(line) else {
            panic!("not a route line: {line}");
        };
        let flat = codar_qasm::parse_and_flatten(&qasm).expect("stream QASM parses");
        circuit_to_qasm(&decompose_three_qubit_gates(&circuit_from_flat(&flat)))
            .expect("canonical form serializes")
    }

    #[test]
    fn same_seed_gives_identical_bytes() {
        for kind in [StreamKind::Hot, StreamKind::Miss] {
            assert_eq!(take(kind, 5, 300), take(kind, 5, 300), "{kind:?}");
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        for kind in [StreamKind::Hot, StreamKind::Miss] {
            assert_ne!(take(kind, 5, 300), take(kind, 6, 300), "{kind:?}");
        }
    }

    #[test]
    fn miss_stream_never_repeats_a_canonical_circuit() {
        let lines = take(StreamKind::Miss, 11, 2000);
        let mut seen = HashSet::new();
        for (i, line) in lines.iter().enumerate() {
            assert!(
                seen.insert(canonical(line)),
                "request {i} repeats a circuit"
            );
        }
    }

    #[test]
    fn miss_sizes_stay_in_range() {
        for i in 0..5000 {
            let (qubits, gates) = miss_size(i);
            assert!((MISS_QUBITS.0..=MISS_QUBITS.1).contains(&qubits));
            assert!((MISS_GATES.0..=MISS_GATES.1).contains(&gates));
        }
    }

    #[test]
    fn hot_stream_reaches_its_hit_rate_on_a_fresh_service() {
        let service = Service::start(ServiceConfig::default());
        for line in take(StreamKind::Hot, 3, 4000) {
            let reply = service.handle_line(&line);
            assert!(reply.contains("\"verified\":true"), "{reply}");
        }
        let stats = service.cache_stats();
        assert!(stats.hit_rate() >= 0.98, "hit rate {}", stats.hit_rate());
    }
}
