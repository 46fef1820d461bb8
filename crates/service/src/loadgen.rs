//! Deterministic load generation against a daemon.
//!
//! `loadgen` replays a seeded [`CircuitMix`] of benchmark circuits —
//! with a configurable repeat ratio, modeling the heavy input reuse of
//! real compilation services — against either an **in-process**
//! [`Service`] (the closed-loop benchmark and determinism gate; no
//! ports involved) or a TCP daemon. It records one latency sample per
//! request and splits its output the same way the engine splits
//! `Summary` from `RunStats`:
//!
//! * [`LoadgenReport::summary_json`] — deterministic for a given
//!   `(config, daemon config)`: request counts, cache hit rate, depth
//!   and swap totals, and an FNV checksum of the concatenated response
//!   stream. CI diffs two runs of this byte-for-byte.
//! * [`LoadgenReport::latency`] — p50/p90/p99 microseconds, explicitly
//!   nondeterministic, printed to stderr; `--latency-json` writes
//!   [`LoadgenReport::latency_json`], the percentiles plus the run
//!   context (daemon cache capacity/shards, active calibration
//!   snapshot version) needed to compare two latency files.
//!
//! Two issue disciplines:
//!
//! * **Closed loop** (default, [`run`]) — send, wait for the reply,
//!   send the next. Measures service time; throughput adapts to the
//!   daemon.
//! * **Open loop** ([`run_open_loop`], `--arrival-us`) — requests
//!   depart on a seeded exponential arrival schedule regardless of
//!   outstanding replies (a writer thread paces sends, the reader
//!   drains in order). Latency is measured from the *scheduled*
//!   arrival, so a stalled daemon shows up as queueing delay instead
//!   of being silently absorbed — no coordinated omission.
//!
//! Both disciplines speak to `coded` or `codar-proxy` alike; the
//! trailing probes detect a proxy (`"proxy":true` stats) and record
//! its retry/failover counters instead of cache geometry.

use crate::cache::{fnv1a_extend, FNV_OFFSET};
use crate::json::{escape, Json};
use crate::metrics::{Histogram, LatencySummary, PHASE_NAMES};
use crate::server::Service;
use crate::wire::Conn;
use crate::LOADGEN_SUMMARY_VERSION;
use codar_benchmarks::mix::{service_pool, CircuitMix};
use codar_circuit::from_qasm::circuit_to_qasm;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Load-generation parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Route requests to send.
    pub requests: usize,
    /// Mix seed (same seed + config → same request stream).
    pub seed: u64,
    /// Probability a request replays the hot set (clamped to [0, 1]).
    pub repeat_ratio: f64,
    /// Target device name.
    pub device: String,
    /// Router to request.
    pub router: String,
    /// Pool bound: only suite circuits with ≤ this many qubits.
    pub max_qubits: usize,
    /// Hot-set size (first N pool entries).
    pub hot: usize,
    /// `Some(mean)` switches to open-loop issue: seeded exponential
    /// inter-arrival gaps with this mean, in microseconds (see
    /// [`run_open_loop`]). `None` is the classic closed loop.
    pub arrival_us: Option<u64>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            requests: 200,
            seed: 7,
            repeat_ratio: 0.95,
            device: "q20".to_string(),
            router: "codar".to_string(),
            max_qubits: CircuitMix::DEFAULT_MAX_QUBITS,
            hot: CircuitMix::DEFAULT_HOT,
            arrival_us: None,
        }
    }
}

/// Where requests go.
pub trait Transport {
    /// Sends one request line, returns the one response line.
    fn call(&mut self, line: &str) -> std::io::Result<String>;
}

/// In-process transport: requests go straight into
/// [`Service::handle_line`] — the closed-loop benchmark needs no port.
impl Transport for Service {
    fn call(&mut self, line: &str) -> std::io::Result<String> {
        Ok(self.handle_line(line))
    }
}

/// NDJSON-over-TCP transport to a running `coded` or `codar-proxy`
/// (a [`Conn`] without timeouts).
pub struct TcpTransport(Conn);

impl TcpTransport {
    /// Connects to `addr` (e.g. `127.0.0.1:7878`).
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(addr: &str) -> std::io::Result<TcpTransport> {
        Conn::connect(addr, None, None).map(TcpTransport)
    }
}

impl Transport for TcpTransport {
    fn call(&mut self, line: &str) -> std::io::Result<String> {
        self.0.call(line)
    }
}

/// One daemon-side phase's histogram totals, scraped from the target's
/// `{"type":"metrics","hist":true}` reply at the end of a run. `name`
/// is the field stem (`queue_wait`, `phase_route`, ...).
#[derive(Debug, Clone)]
pub struct PhaseTotals {
    /// Metrics field stem the totals were scraped from.
    pub name: String,
    /// Samples recorded.
    pub total: u64,
    /// Summed duration, microseconds.
    pub sum_us: u64,
}

/// Everything one loadgen run measured.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// The configuration the run used.
    pub config: LoadgenConfig,
    /// `ok` route responses.
    pub ok: usize,
    /// Error / overloaded responses.
    pub errors: usize,
    /// Responses carrying `"verified":true`.
    pub verified: usize,
    /// Daemon-side cache hits over the run (from `stats`).
    pub cache_hits: u64,
    /// Daemon-side cache misses over the run (from `stats`).
    pub cache_misses: u64,
    /// Daemon-side cache capacity (from `stats`; identifies the daemon
    /// configuration two latency files must share to be comparable).
    pub daemon_cache_capacity: u64,
    /// Daemon-side cache shard count (from `stats`).
    pub daemon_cache_shards: u64,
    /// Version of the target device's active calibration snapshot at
    /// the end of the run (from `calibration get`; 0 = none) — routing
    /// work differs between snapshots, so latency comparisons must
    /// match on it.
    pub snapshot_version: u64,
    /// Sum of reported SWAP insertions.
    pub total_swaps: u64,
    /// Sum of reported weighted depths.
    pub total_weighted_depth: u64,
    /// FNV-1a over the concatenated response lines (each + `\n`) —
    /// byte-level fingerprint of the whole response stream.
    pub stream_fnv: u64,
    /// Whether the target answered its `stats` probe with
    /// `"proxy":true` — i.e. the run went through `codar-proxy` and
    /// the cache fields above are absent (scrape backends directly).
    pub proxy: bool,
    /// Failed forwarding attempts the proxy retried over the run
    /// (proxy targets only; 0 against a bare daemon).
    pub proxy_retries: u64,
    /// Retries that moved to a different backend shard (proxy targets
    /// only) — the failover events the latency JSON reports.
    pub proxy_failovers: u64,
    /// Per-request latencies, microseconds, request order.
    pub latencies_us: Vec<u64>,
    /// Daemon-side phase profile at the end of the run (queue wait +
    /// the worker phases), scraped via `{"type":"metrics","hist":true}`.
    /// All zeros through a proxy (it has no phase fields; scrape the
    /// backends directly).
    pub daemon_phases: Vec<PhaseTotals>,
}

impl LoadgenReport {
    /// Cache hit rate over the run's probes (0 when nothing probed).
    pub fn cache_hit_rate(&self) -> f64 {
        let probes = self.cache_hits + self.cache_misses;
        if probes == 0 {
            0.0
        } else {
            self.cache_hits as f64 / probes as f64
        }
    }

    /// The deterministic summary (no timing!). Two runs with the same
    /// loadgen config against identically configured daemons emit
    /// byte-identical summaries — the CI determinism check.
    pub fn summary_json(&self) -> String {
        format!(
            "{{\n  \"version\": {LOADGEN_SUMMARY_VERSION},\n  \"requests\": {},\n  \
             \"seed\": {},\n  \"repeat_ratio\": {:.6},\n  \"max_qubits\": {},\n  \
             \"hot\": {},\n  \"device\": {},\n  \
             \"router\": {},\n  \"ok\": {},\n  \"errors\": {},\n  \"verified\": {},\n  \
             \"cache_hits\": {},\n  \"cache_misses\": {},\n  \"cache_hit_rate\": {:.6},\n  \
             \"total_swaps\": {},\n  \"total_weighted_depth\": {},\n  \
             \"response_stream_fnv\": \"{:016x}\"\n}}\n",
            self.config.requests,
            self.config.seed,
            // Printed as applied: the mix clamps to [0, 1]. `hot` is
            // already the applied (pool-clamped) value — see `run`.
            self.config.repeat_ratio.clamp(0.0, 1.0),
            self.config.max_qubits,
            self.config.hot,
            escape(&self.config.device),
            escape(&self.config.router),
            self.ok,
            self.errors,
            self.verified,
            self.cache_hits,
            self.cache_misses,
            self.cache_hit_rate(),
            self.total_swaps,
            self.total_weighted_depth,
            self.stream_fnv,
        )
    }

    /// Percentile summary of the recorded latencies.
    pub fn latency(&self) -> LatencySummary {
        LatencySummary::from_micros(&self.latencies_us)
    }

    /// The versioned `--latency-json` payload: the percentiles plus
    /// the run context (request count, seed, device/router, issue
    /// mode, daemon cache capacity/shards, active snapshot version,
    /// and — through a proxy — the retry/failover counts) needed to
    /// tell whether two latency files measured comparable runs. Since
    /// schema 4 it also embeds the full client-side latency histogram
    /// (the same fixed log2 buckets the daemon's `metrics` histograms
    /// use, so the two distributions line up bucket for bucket) and
    /// the daemon's end-of-run phase profile — where the measured time
    /// went. See [`crate::LATENCY_SCHEMA_VERSION`].
    pub fn latency_json(&self) -> String {
        use crate::metrics::LATENCY_SCHEMA_VERSION;
        let client = Histogram::new();
        for &us in &self.latencies_us {
            client.record(us);
        }
        let mut json = format!(
            "{{\n  \"version\": {LATENCY_SCHEMA_VERSION},\n{},\n  \
             \"requests\": {},\n  \"seed\": {},\n  \"repeat_ratio\": {:.6},\n  \
             \"device\": {},\n  \"router\": {},\n  \
             \"mode\": {},\n  \"arrival_us\": {},\n  \"proxy\": {},\n  \
             \"retries\": {},\n  \"failovers\": {},\n  \"cache_capacity\": {},\n  \
             \"cache_shards\": {},\n  \"snapshot_version\": {}",
            self.latency().json_fields(),
            self.config.requests,
            self.config.seed,
            self.config.repeat_ratio.clamp(0.0, 1.0),
            escape(&self.config.device),
            escape(&self.config.router),
            if self.config.arrival_us.is_some() {
                "\"open\""
            } else {
                "\"closed\""
            },
            self.config.arrival_us.unwrap_or(0),
            self.proxy,
            self.proxy_retries,
            self.proxy_failovers,
            self.daemon_cache_capacity,
            self.daemon_cache_shards,
            self.snapshot_version,
        );
        let _ = write!(
            json,
            ",\n  \"hist_client_total\": {},\n  \"hist_client_sum_us\": {},\n  \
             \"hist_client_buckets\": \"{}\"",
            client.total(),
            client.sum_us(),
            client.render_buckets(),
        );
        for phase in &self.daemon_phases {
            let _ = write!(
                json,
                ",\n  \"daemon_{0}_total\": {1},\n  \"daemon_{0}_sum_us\": {2}",
                phase.name, phase.total, phase.sum_us,
            );
        }
        json.push_str("\n}\n");
        json
    }
}

/// The deterministic request stream of a run: every route line, in
/// order, plus the report skeleton recording the applied config.
fn prepare(config: &LoadgenConfig) -> std::io::Result<(Vec<String>, LoadgenReport)> {
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
    let mut mix = CircuitMix::with_pool(pool, config.hot, config.seed, config.repeat_ratio);
    // The report records the hot-set size as applied (the mix clamps
    // to [1, pool size]), so identical behavior prints an identical
    // summary even when the requested --hot was out of range.
    let applied_hot = mix.hot();
    // Serialize each pool entry once; requests reuse the strings.
    let pool_qasm: Vec<String> = mix
        .pool()
        .iter()
        .map(|entry| circuit_to_qasm(&entry.circuit).expect("suite circuits serialize"))
        .collect();
    let device = escape(&config.device);
    let router = escape(&config.router);
    let lines = (0..config.requests)
        .map(|_| {
            let index = mix.next_index();
            format!(
                "{{\"type\":\"route\",\"device\":{device},\"router\":{router},\"circuit\":{}}}",
                escape(&pool_qasm[index])
            )
        })
        .collect();
    let report = LoadgenReport {
        config: LoadgenConfig {
            hot: applied_hot,
            ..config.clone()
        },
        ok: 0,
        errors: 0,
        verified: 0,
        cache_hits: 0,
        cache_misses: 0,
        daemon_cache_capacity: 0,
        daemon_cache_shards: 0,
        snapshot_version: 0,
        total_swaps: 0,
        total_weighted_depth: 0,
        stream_fnv: FNV_OFFSET,
        proxy: false,
        proxy_retries: 0,
        proxy_failovers: 0,
        latencies_us: Vec::with_capacity(config.requests),
        // The full stem list up front, zeroed, so the latency JSON
        // schema is stable even when the scrape finds no fields.
        daemon_phases: std::iter::once("queue_wait".to_string())
            .chain(PHASE_NAMES.iter().map(|name| format!("phase_{name}")))
            .map(|name| PhaseTotals {
                name,
                total: 0,
                sum_us: 0,
            })
            .collect(),
    };
    Ok((lines, report))
}

/// Folds one response line into the report (stream checksum + counts).
fn observe(report: &mut LoadgenReport, response: &str) {
    report.stream_fnv = fnv1a_extend(report.stream_fnv, response.as_bytes());
    report.stream_fnv = fnv1a_extend(report.stream_fnv, b"\n");
    match Json::parse(response) {
        Ok(parsed) => {
            if parsed.get("status").and_then(Json::as_str) == Some("ok") {
                report.ok += 1;
                if parsed.get("verified").and_then(Json::as_bool) == Some(true) {
                    report.verified += 1;
                }
                report.total_swaps += parsed.get("swaps").and_then(Json::as_u64).unwrap_or(0);
                report.total_weighted_depth += parsed
                    .get("weighted_depth")
                    .and_then(Json::as_u64)
                    .unwrap_or(0);
            } else {
                report.errors += 1;
            }
        }
        Err(_) => report.errors += 1,
    }
}

/// The trailing context probes: one `stats` (cache counters on a
/// daemon, retry/failover counters on a proxy — `"proxy":true`
/// disambiguates), one `metrics` with `hist:true` for the daemon's
/// phase profile, and one `calibration get` for the active snapshot
/// version (forwarded transparently through a proxy).
fn probe_target(
    config: &LoadgenConfig,
    transport: &mut dyn Transport,
    report: &mut LoadgenReport,
) -> std::io::Result<()> {
    // The daemon's cache counters cover our probes (on a fresh daemon,
    // exactly our probes; on a shared daemon, everyone's).
    let stats_line = transport.call("{\"type\":\"stats\"}")?;
    if let Ok(stats) = Json::parse(&stats_line) {
        if stats.get("proxy").and_then(Json::as_bool) == Some(true) {
            report.proxy = true;
            report.proxy_retries = stats.get("retries").and_then(Json::as_u64).unwrap_or(0);
            report.proxy_failovers = stats.get("failovers").and_then(Json::as_u64).unwrap_or(0);
        }
        if let Some(cache) = stats.get("cache") {
            report.cache_hits = cache.get("hits").and_then(Json::as_u64).unwrap_or(0);
            report.cache_misses = cache.get("misses").and_then(Json::as_u64).unwrap_or(0);
            report.daemon_cache_capacity =
                cache.get("capacity").and_then(Json::as_u64).unwrap_or(0);
            report.daemon_cache_shards = cache.get("shards").and_then(Json::as_u64).unwrap_or(0);
        }
    }
    // The daemon's phase profile (histogram totals per worker phase):
    // where the run's time went, recorded next to the client-side
    // percentiles it explains.
    let metrics_line = transport.call("{\"type\":\"metrics\",\"hist\":true}")?;
    if let Ok(metrics) = Json::parse(&metrics_line) {
        for phase in &mut report.daemon_phases {
            phase.total = metrics
                .get(&format!("hist_{}_total", phase.name))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            phase.sum_us = metrics
                .get(&format!("hist_{}_sum_us", phase.name))
                .and_then(Json::as_u64)
                .unwrap_or(0);
        }
    }
    // The active snapshot version of the target device: latency runs
    // against different calibrations do different routing work, so the
    // latency JSON records which one was live.
    let cal_line = transport.call(&format!(
        "{{\"type\":\"calibration\",\"action\":\"get\",\"device\":{}}}",
        escape(&config.device)
    ))?;
    if let Ok(cal) = Json::parse(&cal_line) {
        report.snapshot_version = cal.get("version").and_then(Json::as_u64).unwrap_or(0);
    }
    Ok(())
}

/// Runs the closed loop: `config.requests` route requests drawn from
/// the mix, each waiting for its reply, then the context probes.
///
/// # Errors
///
/// Propagates transport I/O errors; protocol-level errors (error
/// responses) are counted in the report instead.
///
pub fn run(
    config: &LoadgenConfig,
    transport: &mut dyn Transport,
) -> std::io::Result<LoadgenReport> {
    let (lines, mut report) = prepare(config)?;
    for line in &lines {
        let started = Instant::now();
        let response = transport.call(line)?;
        report
            .latencies_us
            .push(started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        observe(&mut report, &response);
    }
    probe_target(config, transport, &mut report)?;
    Ok(report)
}

/// Runs the open loop over TCP: a writer thread issues the same
/// deterministic request stream on a seeded exponential arrival
/// schedule (mean `config.arrival_us`, independent of outstanding
/// replies), while this thread drains responses in order. Latency is
/// measured from each request's **scheduled** departure, so daemon
/// stalls surface as queueing delay — the closed loop would silently
/// slow its own arrivals instead (coordinated omission).
///
/// The responses — and therefore the summary JSON — are byte-identical
/// to a closed-loop run with the same config: only the timing
/// discipline differs.
///
/// # Errors
///
/// Propagates connect/transport I/O errors from either side of the
/// stream; the writer's error wins when both fail.
pub fn run_open_loop(config: &LoadgenConfig, addr: &str) -> std::io::Result<LoadgenReport> {
    let mean = config.arrival_us.unwrap_or(1_000).max(1);
    let (lines, mut report) = prepare(config)?;
    // The arrival schedule is part of the experiment definition:
    // seeded exponential gaps, fixed before the first byte moves.
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x0A11_0A11_0A11_0A11);
    let mut offsets = Vec::with_capacity(lines.len());
    let mut at = 0.0f64;
    for _ in 0..lines.len() {
        let u: f64 = rng.gen();
        at += -(mean as f64) * (1.0 - u).ln();
        offsets.push(Duration::from_micros(at as u64));
    }

    let mut conn = Conn::connect(addr, None, None)?;
    let mut sender = conn.try_clone()?;
    let start = Instant::now();
    let send_offsets = offsets.clone();
    let sender = std::thread::Builder::new()
        .name("loadgen-open-loop".to_string())
        .spawn(move || -> std::io::Result<()> {
            for (line, offset) in lines.iter().zip(&send_offsets) {
                let deadline = start + *offset;
                let now = Instant::now();
                if deadline > now {
                    std::thread::sleep(deadline - now);
                }
                sender.send(line)?;
            }
            Ok(())
        })
        .expect("spawn open-loop writer");

    let read: std::io::Result<()> = offsets.iter().try_for_each(|offset| {
        let response = conn.recv()?;
        // Latency from the scheduled arrival, not the actual send.
        report.latencies_us.push(
            start
                .elapsed()
                .saturating_sub(*offset)
                .as_micros()
                .min(u128::from(u64::MAX)) as u64,
        );
        observe(&mut report, &response);
        Ok(())
    });
    sender.join().expect("open-loop writer joins")?;
    read?;
    probe_target(config, &mut TcpTransport(conn), &mut report)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServiceConfig;

    #[test]
    fn small_run_reports_hits_and_verifies() {
        let mut service = Service::start(ServiceConfig::default());
        let config = LoadgenConfig {
            requests: 30,
            seed: 11,
            repeat_ratio: 0.9,
            max_qubits: 5,
            ..LoadgenConfig::default()
        };
        let report = run(&config, &mut service).unwrap();
        assert_eq!(report.ok, 30);
        assert_eq!(report.errors, 0);
        assert_eq!(report.verified, 30);
        assert_eq!(report.cache_hits + report.cache_misses, 30);
        assert!(report.cache_hits > 0, "repeats must hit the cache");
        assert_eq!(report.latencies_us.len(), 30);
        let json = report.summary_json();
        assert!(json.contains("\"version\": 1"));
        assert!(json.contains("\"ok\": 30"));
    }

    #[test]
    fn summary_reports_hot_as_applied() {
        // An out-of-range --hot is clamped by the mix; the summary
        // must print the clamped value so identical behavior always
        // prints an identical summary.
        let run_with_hot = |hot: usize| {
            let mut service = Service::start(ServiceConfig::default());
            let config = LoadgenConfig {
                requests: 5,
                max_qubits: 4,
                hot,
                ..LoadgenConfig::default()
            };
            run(&config, &mut service).unwrap()
        };
        let oversized = run_with_hot(10_000);
        let pool_size = service_pool(4).len();
        assert_eq!(oversized.config.hot, pool_size);
        assert!(oversized
            .summary_json()
            .contains(&format!("\"hot\": {pool_size}")));
        let zero = run_with_hot(0);
        assert_eq!(zero.config.hot, 1);
    }

    #[test]
    fn latency_json_carries_version_and_run_context() {
        let mut service = Service::start(ServiceConfig::default());
        // Activate a snapshot so the context has a non-zero version.
        let ack = service.handle_line(
            "{\"type\":\"calibration\",\"action\":\"set\",\"device\":\"q20\",\
             \"synthetic\":{\"seed\":3}}",
        );
        assert!(ack.contains("\"version\":1"), "{ack}");
        let config = LoadgenConfig {
            requests: 5,
            max_qubits: 4,
            ..LoadgenConfig::default()
        };
        let report = run(&config, &mut service).unwrap();
        let json = report.latency_json();
        assert!(json.contains(&format!(
            "\"version\": {}",
            crate::metrics::LATENCY_SCHEMA_VERSION
        )));
        assert!(json.contains("\"p99_us\":"));
        assert!(json.contains("\"requests\": 5"));
        assert!(json.contains("\"device\": \"q20\""));
        assert!(json.contains("\"cache_capacity\": 1024"));
        assert!(json.contains("\"cache_shards\": 8"));
        assert!(json.contains("\"snapshot_version\": 1"), "{json}");
        // Schema 4: the client-side latency histogram (all 5 samples
        // bucketed) and the daemon's scraped phase profile ride along.
        assert!(json.contains("\"hist_client_total\": 5"), "{json}");
        assert!(json.contains("\"hist_client_buckets\": \""), "{json}");
        assert!(json.contains("\"daemon_queue_wait_total\":"), "{json}");
        assert!(json.contains("\"daemon_phase_route_total\":"), "{json}");
        let route_total: u64 = json
            .split("\"daemon_phase_route_total\": ")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|digits| digits.trim().parse().ok())
            .unwrap();
        assert!(route_total >= 1, "cache misses must route: {json}");
        // Without a snapshot the version reads 0.
        let mut bare = Service::start(ServiceConfig::default());
        let bare_report = run(&config, &mut bare).unwrap();
        assert_eq!(bare_report.snapshot_version, 0);
    }

    #[test]
    fn open_loop_matches_closed_loop_bytes() {
        // The issue discipline is timing-only: a seeded open-loop run
        // over TCP answers with exactly the bytes the closed loop gets
        // in-process, and its latency JSON says which mode measured.
        let config = LoadgenConfig {
            requests: 12,
            max_qubits: 4,
            arrival_us: Some(200),
            ..LoadgenConfig::default()
        };
        let mut closed_service = Service::start(ServiceConfig::default());
        let closed = run(
            &LoadgenConfig {
                arrival_us: None,
                ..config.clone()
            },
            &mut closed_service,
        )
        .unwrap();

        let service = Service::start(ServiceConfig::default());
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = {
            let service = service.clone();
            std::thread::spawn(move || {
                crate::wire::serve_tcp(&service, listener, crate::wire::DEFAULT_DRAIN)
            })
        };
        let open = run_open_loop(&config, &addr).unwrap();
        let mut shutdown = TcpTransport::connect(&addr).unwrap();
        shutdown.call("{\"type\":\"shutdown\"}").unwrap();
        server.join().unwrap().unwrap();

        assert_eq!(open.ok, 12);
        assert_eq!(open.errors, 0);
        assert_eq!(open.latencies_us.len(), 12);
        assert_eq!(
            open.stream_fnv, closed.stream_fnv,
            "open vs closed loop must not change response bytes"
        );
        let json = open.latency_json();
        assert!(json.contains("\"mode\": \"open\""), "{json}");
        assert!(json.contains("\"arrival_us\": 200"), "{json}");
        assert!(json.contains("\"proxy\": false"), "{json}");
        assert!(json.contains("\"failovers\": 0"), "{json}");
        let closed_json = closed.latency_json();
        assert!(
            closed_json.contains("\"mode\": \"closed\""),
            "{closed_json}"
        );
        assert!(closed_json.contains("\"arrival_us\": 0"), "{closed_json}");
    }

    #[test]
    fn tcp_transport_rejects_a_torn_reply() {
        use std::io::{BufRead as _, BufReader, Write as _};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // Read the request first: closing on unread bytes would
            // reset the connection instead of ending the stream.
            let mut request = String::new();
            BufReader::new(stream.try_clone().unwrap())
                .read_line(&mut request)
                .unwrap();
            stream.write_all(b"{\"type\":\"stats\",\"sta").unwrap();
        });
        let mut transport = TcpTransport::connect(&addr).unwrap();
        let torn = transport.call("{\"type\":\"stats\"}").unwrap_err();
        assert_eq!(torn.kind(), std::io::ErrorKind::InvalidData, "{torn}");
        peer.join().unwrap();
    }

    #[test]
    fn summary_json_excludes_latency() {
        let mut service = Service::start(ServiceConfig::default());
        let config = LoadgenConfig {
            requests: 5,
            max_qubits: 4,
            ..LoadgenConfig::default()
        };
        let report = run(&config, &mut service).unwrap();
        let json = report.summary_json();
        assert!(!json.contains("_us"), "latency leaked into summary: {json}");
    }
}
