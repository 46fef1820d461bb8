//! Seeded soak runs: long mixed traffic under the fuzz invariants.
//!
//! Where [`crate::loadgen`] measures one burst of route traffic, a
//! soak run (`loadgen --soak`) exercises the daemon the way a day of
//! production does — a seeded *mix* of hot-set route requests,
//! periodic calibration reloads (each one bumps the snapshot version
//! and invalidates the route cache) and `stats` probes — while holding
//! every reply to the same contract the fuzzer enforces
//! ([`crate::fuzz::InvariantChecker`]): single-line well-formed JSON,
//! exact id echo, monotone counters, bounded cache occupancy. Soak
//! traffic is entirely valid, so the contract tightens: any non-`ok`
//! reply is a violation too.
//!
//! Traffic is organized in **rounds** — `requests_per_round` routes,
//! an optional reload, one stats probe — so the stream is a pure
//! function of `(config, round count)`. A `--rounds N` run is
//! byte-reproducible: reruns at equal seeds produce byte-identical
//! reply streams ([`SoakReport::reply_fnv`]), which CI diffs. A
//! `--duration` run issues rounds until the wall clock expires — same
//! per-round bytes, nondeterministic round count.
//!
//! With concurrent TCP clients ([`run_soak_tcp_clients`]) the global
//! reply interleaving is scheduler-dependent, so determinism narrows
//! to what cache-transparency actually guarantees: each client's
//! *route* replies ([`SoakReport::route_fnv`]) are byte-identical to a
//! solo run of the same per-client seed. Reloads are disabled in that
//! mode — a version bump racing another client's route would make the
//! winner timing-dependent.

use crate::cache::{fnv1a_extend, FNV_OFFSET};
use crate::fuzz::{InvariantChecker, ReplyTally};
use crate::json::{escape, Json};
use crate::loadgen::{TcpTransport, Transport};
use codar_benchmarks::mix::{service_pool, CircuitMix};
use codar_circuit::from_qasm::circuit_to_qasm;
use std::time::{Duration, Instant};

/// Soak traffic shape. The request stream is a pure function of this
/// struct plus the number of rounds actually issued.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Mix seed; every request in the stream derives from it.
    pub seed: u64,
    /// Rounds to issue. 0 = run on wall clock (`duration`) instead.
    pub rounds: usize,
    /// Wall-clock budget when `rounds` is 0: no new round starts after
    /// this much time has passed (the round in flight completes).
    pub duration: Duration,
    /// Route requests per round.
    pub requests_per_round: usize,
    /// Reload calibration every N rounds (synthetic snapshot, version
    /// strictly increasing). 0 = never. Forced to 0 under concurrent
    /// clients — see the module docs.
    pub reload_every: usize,
    /// Target device name.
    pub device: String,
    /// Router to request.
    pub router: String,
    /// Pool bound: only suite circuits with ≤ this many qubits.
    pub max_qubits: usize,
    /// Hot-set size (first N pool entries).
    pub hot: usize,
    /// Probability a request replays the hot set (clamped to [0, 1]).
    pub repeat_ratio: f64,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            seed: 7,
            rounds: 50,
            duration: Duration::from_secs(30),
            requests_per_round: 20,
            reload_every: 10,
            device: "q20".to_string(),
            router: "codar".to_string(),
            max_qubits: CircuitMix::DEFAULT_MAX_QUBITS,
            hot: CircuitMix::DEFAULT_HOT,
            repeat_ratio: 0.95,
        }
    }
}

/// Why a soak run stopped early.
#[derive(Debug)]
pub enum SoakError {
    /// The transport failed (daemon died, connection dropped).
    Io(std::io::Error),
    /// A reply broke the contract.
    Violation {
        /// The request line that got the bad reply.
        input: String,
        /// The offending reply.
        reply: String,
        /// Which invariant broke.
        message: String,
    },
}

impl std::fmt::Display for SoakError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SoakError::Io(e) => write!(f, "transport failed: {e}"),
            SoakError::Violation {
                input,
                reply,
                message,
            } => {
                write!(
                    f,
                    "invariant violation: {message}\n  input: {input}\n  reply: {reply}"
                )
            }
        }
    }
}

impl From<std::io::Error> for SoakError {
    fn from(e: std::io::Error) -> Self {
        SoakError::Io(e)
    }
}

/// What a completed soak run did and observed.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Rounds actually issued.
    pub rounds: usize,
    /// Total requests sent (routes + reloads + stats probes).
    pub requests: usize,
    /// FNV-1a over *every* reply (+`\n`): byte-identity for solo runs.
    pub reply_fnv: u64,
    /// FNV-1a over route replies only: byte-identity that survives
    /// concurrent clients (cache-transparency).
    pub route_fnv: u64,
    /// Per-status reply counts (all `ok` on a clean soak).
    pub tally: ReplyTally,
    /// The device's snapshot version after the final reload (0 when
    /// reloads are disabled and nothing was active).
    pub snapshot_version: u64,
}

impl SoakReport {
    /// The deterministic summary line CI diffs between reruns.
    pub fn summary_line(&self, config: &SoakConfig) -> String {
        format!(
            "soak seed={} rounds={} requests={} replies fnv=0x{:016x} \
             routes fnv=0x{:016x} ok={} snapshot_version={}",
            config.seed,
            self.rounds,
            self.requests,
            self.reply_fnv,
            self.route_fnv,
            self.tally.ok,
            self.snapshot_version,
        )
    }
}

/// The seeded request stream, materialized lazily round by round.
struct SoakStream {
    mix: CircuitMix,
    pool_qasm: Vec<String>,
    config: SoakConfig,
    round: usize,
}

impl SoakStream {
    fn new(config: &SoakConfig) -> std::io::Result<SoakStream> {
        let pool = service_pool(config.max_qubits);
        if pool.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "--max-qubits {} leaves no benchmark circuits in the pool",
                    config.max_qubits
                ),
            ));
        }
        let mix = CircuitMix::with_pool(pool, config.hot, config.seed, config.repeat_ratio);
        let pool_qasm = mix
            .pool()
            .iter()
            .map(|entry| circuit_to_qasm(&entry.circuit).expect("suite circuits serialize"))
            .collect();
        Ok(SoakStream {
            mix,
            pool_qasm,
            config: config.clone(),
            round: 0,
        })
    }

    /// The next round's request lines, paired with whether each is a
    /// route (route replies feed `route_fnv`).
    fn next_round(&mut self) -> Vec<(String, bool)> {
        let round = self.round;
        self.round += 1;
        let mut lines = Vec::with_capacity(self.config.requests_per_round + 2);
        if self.config.reload_every > 0 && round % self.config.reload_every == 0 {
            // Synthetic server-side snapshot: the daemon stamps version
            // high-water + 1, so versions climb deterministically.
            lines.push((
                format!(
                    "{{\"id\":{},\"type\":\"calibration\",\"action\":\"set\",\
                     \"device\":{},\"synthetic\":{{\"seed\":{},\"drift\":{}}}}}",
                    round,
                    escape(&self.config.device),
                    self.config.seed.wrapping_add(round as u64),
                    round % 3,
                ),
                false,
            ));
        }
        let device = escape(&self.config.device);
        let router = escape(&self.config.router);
        for _ in 0..self.config.requests_per_round {
            let index = self.mix.next_index();
            lines.push((
                format!(
                    "{{\"type\":\"route\",\"device\":{device},\"router\":{router},\
                     \"circuit\":{}}}",
                    escape(&self.pool_qasm[index])
                ),
                true,
            ));
        }
        lines.push((format!("{{\"id\":{round},\"type\":\"stats\"}}"), false));
        lines
    }
}

/// Runs a soak against one transport. Rounds come from `config.rounds`
/// when nonzero, from the wall clock otherwise.
///
/// # Errors
///
/// [`SoakError::Io`] when the transport fails, [`SoakError::Violation`]
/// on the first reply that breaks the contract (including any
/// non-`ok` status — soak traffic is valid by construction).
pub fn run_soak(
    config: &SoakConfig,
    transport: &mut dyn Transport,
) -> Result<SoakReport, SoakError> {
    let mut stream = SoakStream::new(config)?;
    let mut checker = InvariantChecker::new();
    let mut report = SoakReport {
        rounds: 0,
        requests: 0,
        reply_fnv: FNV_OFFSET,
        route_fnv: FNV_OFFSET,
        tally: ReplyTally::default(),
        snapshot_version: 0,
    };
    let started = Instant::now();
    loop {
        let done = if config.rounds > 0 {
            report.rounds >= config.rounds
        } else {
            started.elapsed() >= config.duration
        };
        if done {
            break;
        }
        for (line, is_route) in stream.next_round() {
            let reply = transport.call(&line)?;
            report.requests += 1;
            report.reply_fnv = fnv1a_extend(report.reply_fnv, reply.as_bytes());
            report.reply_fnv = fnv1a_extend(report.reply_fnv, b"\n");
            if is_route {
                report.route_fnv = fnv1a_extend(report.route_fnv, reply.as_bytes());
                report.route_fnv = fnv1a_extend(report.route_fnv, b"\n");
            }
            let violation = |message: String| SoakError::Violation {
                input: line.clone(),
                reply: reply.clone(),
                message,
            };
            checker.check(&line, &reply).map_err(violation)?;
            if !reply.contains("\"status\":\"ok\"") {
                return Err(violation("soak traffic is valid; non-ok reply".to_string()));
            }
        }
        report.rounds += 1;
    }
    report.tally = checker.tally;
    // The active snapshot version closes the loop on the reload
    // schedule: `--rounds` reruns must agree on it exactly.
    let cal_line = transport.call(&format!(
        "{{\"type\":\"calibration\",\"action\":\"get\",\"device\":{}}}",
        escape(&config.device)
    ))?;
    if let Ok(cal) = Json::parse(&cal_line) {
        report.snapshot_version = cal.get("version").and_then(Json::as_u64).unwrap_or(0);
    }
    Ok(report)
}

/// Runs `clients` concurrent soaks against a TCP daemon at `addr`,
/// client `i` seeded with `config.seed + i`. Reloads are forced off
/// (see the module docs); set calibration before calling if the run
/// should route against one. Returns per-client reports, client order.
///
/// # Errors
///
/// The first client failure, by client order ([`SoakError::Io`] or
/// [`SoakError::Violation`]); surviving clients finish first.
pub fn run_soak_tcp_clients(
    addr: &str,
    clients: usize,
    config: &SoakConfig,
) -> Result<Vec<SoakReport>, SoakError> {
    let handles: Vec<_> = (0..clients.max(1))
        .map(|i| {
            let config = SoakConfig {
                seed: config.seed + i as u64,
                reload_every: 0,
                ..config.clone()
            };
            let addr = addr.to_string();
            std::thread::spawn(move || -> Result<SoakReport, SoakError> {
                let mut transport = TcpTransport::connect(&addr)?;
                run_soak(&config, &mut transport)
            })
        })
        .collect();
    let mut reports = Vec::with_capacity(handles.len());
    let mut first_error = None;
    for handle in handles {
        match handle.join().expect("soak client panicked") {
            Ok(report) => reports.push(report),
            Err(e) => {
                if first_error.is_none() {
                    first_error = Some(e);
                }
            }
        }
    }
    match first_error {
        None => Ok(reports),
        Some(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Service, ServiceConfig};

    fn small_config() -> SoakConfig {
        SoakConfig {
            rounds: 6,
            requests_per_round: 5,
            reload_every: 2,
            max_qubits: 5,
            ..SoakConfig::default()
        }
    }

    #[test]
    fn soak_reruns_are_byte_identical() {
        let run = || {
            let mut service = Service::start(ServiceConfig::default());
            run_soak(&small_config(), &mut service).expect("clean soak")
        };
        let (a, b) = (run(), run());
        assert_eq!(a.reply_fnv, b.reply_fnv, "full reply stream must be stable");
        assert_eq!(a.route_fnv, b.route_fnv);
        assert_eq!(a.requests, b.requests);
        assert_eq!(
            a.summary_line(&small_config()),
            b.summary_line(&small_config())
        );
        // 3 reloads at rounds 0, 2, 4 → the snapshot is at version 3.
        assert_eq!(a.snapshot_version, 3);
        assert_eq!(a.tally.error, 0);
        assert_eq!(a.tally.ok as usize, a.requests);
    }

    #[test]
    fn reloads_change_the_stream_and_seeds_change_routes() {
        let mut service = Service::start(ServiceConfig::default());
        let with_reloads = run_soak(&small_config(), &mut service).expect("clean");
        let mut service = Service::start(ServiceConfig::default());
        let without = run_soak(
            &SoakConfig {
                reload_every: 0,
                ..small_config()
            },
            &mut service,
        )
        .expect("clean");
        assert_eq!(without.snapshot_version, 0);
        assert_ne!(with_reloads.reply_fnv, without.reply_fnv);
        let mut service = Service::start(ServiceConfig::default());
        let other_seed = run_soak(
            &SoakConfig {
                seed: 8,
                ..small_config()
            },
            &mut service,
        )
        .expect("clean");
        assert_ne!(with_reloads.route_fnv, other_seed.route_fnv);
    }

    #[test]
    fn duration_mode_issues_at_least_one_round() {
        let mut service = Service::start(ServiceConfig::default());
        let config = SoakConfig {
            rounds: 0,
            duration: Duration::from_millis(1),
            ..small_config()
        };
        let report = run_soak(&config, &mut service).expect("clean");
        assert!(report.rounds >= 1);
        assert_eq!(report.tally.error, 0);
    }

    #[test]
    fn concurrent_tcp_clients_keep_route_streams_deterministic() {
        let service = Service::start(ServiceConfig::default());
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = {
            let service = service.clone();
            std::thread::spawn(move || {
                crate::wire::serve_tcp(&service, listener, crate::wire::DEFAULT_DRAIN)
            })
        };
        let config = SoakConfig {
            rounds: 3,
            requests_per_round: 4,
            max_qubits: 5,
            ..SoakConfig::default()
        };
        let reports = run_soak_tcp_clients(&addr, 3, &config).expect("clean soak");
        assert_eq!(reports.len(), 3);
        // Each client's route stream must match a solo in-process run
        // at the same per-client seed: cache-transparency at work.
        for (i, report) in reports.iter().enumerate() {
            let mut solo = Service::start(ServiceConfig::default());
            let solo_config = SoakConfig {
                seed: config.seed + i as u64,
                reload_every: 0,
                ..config.clone()
            };
            let solo_report = run_soak(&solo_config, &mut solo).expect("clean");
            assert_eq!(report.route_fnv, solo_report.route_fnv, "client {i}");
            assert_eq!(report.tally.error, 0);
        }
        service.handle_line("{\"type\":\"shutdown\"}");
        // Wake the accept loop so serve_tcp notices the flag.
        let _ = std::net::TcpStream::connect(&addr);
        server.join().expect("server thread").expect("serve_tcp");
    }
}
