//! The service workloads: `service_hot`, `service_miss` and
//! `proxy_hot`. One benchmark process drives a fresh `coded` (or
//! `codar-proxy` in front of two `coded` shards) over one TCP
//! connection in a closed loop: each request waits for its reply.

use crate::daemon::{Bins, Tier};
use crate::layers::{ServiceMirror, SERVICE_LAYERS};
use crate::report::{
    fold_reply, geomean, median_s, percentile_us, windowed_percentile_us, windowed_rate, RunResult,
};
use crate::spans::Recorder;
use crate::streams::{Stream, StreamKind};
use crate::{layer_metrics, LayerTimes, SETUP_REPEATS};
use codar_arch::Device;
use codar_circuit::decompose::decompose_three_qubit_gates;
use codar_circuit::from_qasm::circuit_from_flat;
use codar_engine::{RouteWorker, RouterKind, RouterVariant};
use codar_service::cache::FNV_OFFSET;
use codar_service::json::Json;
use codar_service::loadgen::{TcpTransport, Transport};
use codar_service::protocol::Request;
use codar_service::{Service, ServiceConfig};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// Lines generated ahead of the timed loop at a time, so that request
/// generation stays off the measured clock.
const BATCH: usize = 64;
/// Distinct circuits the SABRE comparison routes at most.
const MAX_COMPARED: usize = 400;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Hot,
    Miss,
    Proxy,
}

impl Workload {
    fn stream(self) -> StreamKind {
        match self {
            Workload::Hot | Workload::Proxy => StreamKind::Hot,
            Workload::Miss => StreamKind::Miss,
        }
    }

    fn shards(self) -> usize {
        match self {
            Workload::Proxy => 2,
            Workload::Hot | Workload::Miss => 0,
        }
    }

    /// Requests every timed run completes at least (its quality metrics
    /// cover exactly these). `service_miss` needs more than the
    /// daemon's 1024 cache entries so that the cache evicts.
    fn min_requests(self) -> usize {
        match self {
            Workload::Hot | Workload::Proxy => 20_000,
            Workload::Miss => 1_200,
        }
    }

    /// Requests of a traced run's fixed stream.
    fn traced_requests(self) -> usize {
        match self {
            Workload::Hot | Workload::Proxy => 10_000,
            Workload::Miss => 600,
        }
    }

    /// Share of in-process `handle_line` time the layer spans must
    /// account for.
    fn min_coverage(self) -> f64 {
        match self {
            Workload::Hot | Workload::Proxy => 0.85,
            Workload::Miss => 0.90,
        }
    }
}

/// The fields of a successful route reply that the metrics use, read
/// from the reply's header (everything before the routed QASM).
/// `None` unless the reply is `status:ok` with `verified:true`.
fn reply_quality(reply: &str) -> Option<(u64, u64)> {
    let header = &reply[..reply.find(",\"qasm\":")?];
    if !header.starts_with("{\"type\":\"route\",\"status\":\"ok\"")
        || !header.contains(",\"verified\":true")
    {
        return None;
    }
    let field = |name: &str| -> Option<u64> {
        let start = header.find(name)? + name.len();
        let digits: String = header[start..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().ok()
    };
    Some((field("\"weighted_depth\":")?, field("\"swaps\":")?))
}

/// What one closed-loop pass over a tier measured.
struct Pass {
    latencies_ns: Vec<u64>,
    /// Completion time of each request on the measuring clock (which
    /// stops while request lines are generated).
    completed_ns: Vec<u64>,
    measured: Duration,
    stream_fnv: u64,
    failed: u64,
    /// Weighted depth and swaps of each of the first `min_requests`
    /// replies (`None` for a failed one).
    quality: Vec<Option<(u64, u64)>>,
}

/// Sends the stream until at least `min_requests` replies have come
/// back and `seconds` of request time have passed (`seconds` zero:
/// exactly `min_requests`).
fn closed_loop(
    addr: &str,
    stream: &mut Stream,
    min_requests: usize,
    seconds: Duration,
) -> Result<Pass, String> {
    let mut client =
        TcpTransport::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut pass = Pass {
        latencies_ns: Vec::with_capacity(min_requests * 2),
        completed_ns: Vec::with_capacity(min_requests * 2),
        measured: Duration::ZERO,
        stream_fnv: FNV_OFFSET,
        failed: 0,
        quality: Vec::with_capacity(min_requests),
    };
    let done = |pass: &Pass, elapsed: Duration| {
        pass.latencies_ns.len() >= min_requests && (seconds.is_zero() || elapsed >= seconds)
    };
    while !done(&pass, pass.measured) {
        let batch: Vec<String> = stream.by_ref().take(BATCH).collect();
        let started = Instant::now();
        for line in &batch {
            let sent = Instant::now();
            let reply = client
                .call(line)
                .map_err(|e| format!("request {} failed: {e}", pass.latencies_ns.len()))?;
            pass.latencies_ns.push(sent.elapsed().as_nanos() as u64);
            pass.completed_ns
                .push((pass.measured + started.elapsed()).as_nanos() as u64);
            pass.stream_fnv = fold_reply(pass.stream_fnv, &reply);
            let quality = reply_quality(&reply);
            if quality.is_none() {
                pass.failed += 1;
            }
            if pass.quality.len() < min_requests {
                pass.quality.push(quality);
            }
            if done(&pass, pass.measured + started.elapsed()) {
                break;
            }
        }
        pass.measured += started.elapsed();
    }
    Ok(pass)
}

/// The response-stream checksum an in-process `Service` gives the
/// first `n` lines. Its cache is off, so every reply is routed afresh;
/// each distinct line is handled once and its reply reused for repeats
/// (route replies do not depend on cache state). An independent oracle:
/// a daemon that served one circuit's cached reply for another fails it.
fn in_process_fnv(workload: Workload, seed: u64, n: usize) -> u64 {
    let service = Service::start(ServiceConfig {
        cache_capacity: 0,
        ..ServiceConfig::default()
    });
    let mut replies: HashMap<String, String> = HashMap::new();
    let mut hash = FNV_OFFSET;
    for line in Stream::new(workload.stream(), seed).take(n) {
        let reply = match replies.get(&line) {
            Some(reply) => reply,
            None => {
                let reply = service.handle_line(&line);
                replies.entry(line).or_insert(reply)
            }
        };
        hash = fold_reply(hash, reply);
    }
    hash
}

/// Output quality over the distinct circuits of the quality prefix.
struct Quality {
    circuits: u64,
    depth_total: u64,
    swaps_total: u64,
    /// Geometric mean of SABRE over CODAR weighted depth.
    speedup: f64,
    compared: u64,
}

/// Sums weighted depth and swaps over the distinct circuits answered
/// in the quality prefix (each once: quality is a property of the
/// generated code, not of how often a circuit is requested), and
/// compares up to `MAX_COMPARED` of them against SABRE routed
/// in-process from the daemon's initial mapping. Also checks that an
/// in-process CODAR route reproduces each compared reply's depth.
fn quality(
    workload: Workload,
    seed: u64,
    pass: &Pass,
    out: &mut RunResult,
) -> Result<Quality, String> {
    let device = Device::by_name("q20").expect("q20 is a preset");
    let mut worker = RouteWorker::new();
    let codar = RouterVariant::of_kind(RouterKind::Codar);
    let sabre = RouterVariant::of_kind(RouterKind::Sabre);
    let mut seen = HashSet::new();
    let mut totals = (0, 0, 0);
    let mut ratios = Vec::new();
    let mut mismatches = 0;
    for (line, answer) in Stream::new(workload.stream(), seed).zip(&pass.quality) {
        let Some((reply_depth, reply_swaps)) = *answer else {
            continue;
        };
        if !seen.insert(line.clone()) {
            continue;
        }
        totals = (totals.0 + 1, totals.1 + reply_depth, totals.2 + reply_swaps);
        if ratios.len() == MAX_COMPARED {
            continue;
        }
        let Ok(Request::Route { qasm, .. }) = Request::parse_line(&line) else {
            return Err(format!("stream line is not a route request: {line}"));
        };
        let flat = codar_qasm::parse_and_flatten(&qasm).map_err(|e| format!("stream QASM: {e}"))?;
        let circuit = decompose_three_qubit_gates(&circuit_from_flat(&flat));
        let initial = worker.initial_mapping(&circuit, &device, 0);
        let mut route = |variant: &RouterVariant| {
            worker
                .route(&circuit, &device, variant, Some(initial.clone()), None)
                .map(|routed| routed.weighted_depth)
                .map_err(|e| format!("in-process routing failed: {e}"))
        };
        let codar_depth = route(&codar)?;
        let sabre_depth = route(&sabre)?;
        if codar_depth != reply_depth {
            mismatches += 1;
        }
        ratios.push(sabre_depth as f64 / codar_depth.max(1) as f64);
    }
    out.check(
        mismatches == 0,
        format!("{} distinct replies: in-process CODAR reproduces every weighted depth ({mismatches} differ)", ratios.len()),
    );
    if ratios.is_empty() {
        return Err("no successful reply to compare against SABRE".to_string());
    }
    Ok(Quality {
        circuits: totals.0,
        depth_total: totals.1,
        swaps_total: totals.2,
        speedup: geomean(&ratios),
        compared: ratios.len() as u64,
    })
}

pub fn timed(
    workload: Workload,
    seed: u64,
    seconds: Duration,
    bins: &Bins,
) -> Result<RunResult, String> {
    let mut out = RunResult::default();
    // Set-up: spawn to first ready health reply, repeated; the last
    // tier serves the run.
    let mut setups = Vec::new();
    let mut tier = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = tier.take() {
            Tier::stop(previous)?;
        }
        let (started, setup) = Tier::start(bins, workload.shards())?;
        setups.push(setup);
        tier = Some(started);
    }
    let tier = tier.expect("at least one set-up");
    let mut stream = Stream::new(workload.stream(), seed);
    let pass = closed_loop(tier.addr(), &mut stream, workload.min_requests(), seconds)?;
    let (hits, misses) = tier.cache_counters()?;
    let retries = tier.proxy_retries()?;
    let rss_kb = tier.peak_rss_kb()?;
    tier.stop()?;

    let n = pass.latencies_ns.len();
    out.attempted = n as u64;
    out.failed = pass.failed;
    let replayed = in_process_fnv(workload, seed, n);
    out.check(
        replayed == pass.stream_fnv,
        format!(
            "response stream fnv {:016x} over {n} replies equals the in-process handle_line replay's {replayed:016x}",
            pass.stream_fnv
        ),
    );
    out.check(retries == 0, format!("proxy retries {retries} == 0"));
    let quality = quality(workload, seed, &pass, &mut out)?;
    out.metric(
        "latency_p50_us",
        "us",
        percentile_us(&pass.latencies_ns, 0.50),
        n as u64,
    );
    out.metric(
        "latency_p99_us",
        "us",
        windowed_percentile_us(&pass.latencies_ns, 0.99),
        n as u64,
    );
    out.metric(
        "requests_per_s",
        "1/s",
        windowed_rate(&pass.completed_ns),
        n as u64,
    );
    out.metric("setup_s", "s", median_s(&setups), setups.len() as u64);
    out.metric(
        "peak_rss_mb",
        "MB",
        rss_kb as f64 / 1024.0,
        1 + workload.shards() as u64,
    );
    out.metric(
        "weighted_depth_total",
        "cycles",
        quality.depth_total as f64,
        quality.circuits,
    );
    out.metric(
        "swaps_total",
        "count",
        quality.swaps_total as f64,
        quality.circuits,
    );
    out.metric("speedup_vs_sabre", "x", quality.speedup, quality.compared);
    out.notes.push(format!(
        "{n} requests in {:.3} s; daemon cache hits {hits}, misses {misses} (hit rate {:.4})",
        pass.measured.as_secs_f64(),
        hits as f64 / (hits + misses).max(1) as f64
    ));
    Ok(out)
}

pub fn traced(
    workload: Workload,
    seed: u64,
    seconds: Duration,
    bins: &Bins,
    span_file: &std::path::Path,
) -> Result<RunResult, String> {
    let mut out = RunResult::default();
    let started = Instant::now();
    let n = workload.traced_requests();
    let proxy = workload == Workload::Proxy;

    // The fixed stream over TCP once, on a fresh tier: client mean
    // against the daemons' own handle_line time, cache and retry
    // counters.
    let (tier, _) = Tier::start(bins, workload.shards())?;
    let pass = closed_loop(
        tier.addr(),
        &mut Stream::new(workload.stream(), seed),
        n,
        Duration::ZERO,
    )?;
    let (hits, misses) = tier.cache_counters()?;
    let (routes, route_us) = tier.route_time()?;
    let retries = tier.proxy_retries()?;
    tier.stop()?;
    out.attempted = n as u64;
    out.failed = pass.failed;
    out.check(retries == 0, format!("proxy retries {retries} == 0"));
    out.check(
        routes == n as u64,
        format!("daemons timed {routes} of {n} route requests"),
    );
    let client_mean_us = pass.latencies_ns.iter().sum::<u64>() as f64 / n as f64 / 1e3;
    let transport_us = client_mean_us - route_us as f64 / routes.max(1) as f64;

    // Replay passes until the time is used. Every request runs through
    // the real handle_line, through the layer mirror traced, and through
    // a second mirror untraced (the tracing overhead is the difference),
    // back to back, with the order rotating per request: slow drift of
    // the host's speed and the warm caches of going second then fall on
    // all three alike.
    let mut rec = Recorder::new(true);
    let mut off = Recorder::new(false);
    let mut passes = 0u64;
    let mut traced_wall = Duration::ZERO;
    let mut untraced_wall = Duration::ZERO;
    let mut queue_wait_us = 0;
    let mut counts = Default::default();
    let lines: Vec<String> = Stream::new(workload.stream(), seed).take(n).collect();
    while passes == 0 || started.elapsed() < seconds {
        let first = passes * n as u64;
        let service = Service::start(ServiceConfig::default());
        let mut mirror = ServiceMirror::new(proxy);
        let mut untraced = ServiceMirror::new(proxy);
        let mut fnv = [FNV_OFFSET; 3];
        for (i, line) in lines.iter().enumerate() {
            let request = first + i as u64;
            for step in 0..3 {
                let which = (i + step) % 3;
                let t = Instant::now();
                let reply = match which {
                    0 => rec.request("service.handle_line", request, |_| {
                        service.handle_line(line)
                    }),
                    1 => rec.request("replay.request", request, |rec| mirror.handle(rec, line))?,
                    _ => untraced.handle(&mut off, line)?,
                };
                match which {
                    1 => traced_wall += t.elapsed(),
                    2 => untraced_wall += t.elapsed(),
                    _ => {}
                }
                fnv[which] = fold_reply(fnv[which], &reply);
            }
        }
        queue_wait_us += Json::parse(&service.metrics_body_hist())
            .ok()
            .and_then(|m| m.get("hist_queue_wait_sum_us").and_then(Json::as_u64))
            .ok_or("daemon metrics without hist_queue_wait_sum_us")?;
        counts = mirror.counts;
        out.check(
            fnv[0] == pass.stream_fnv,
            format!(
                "pass {passes}: TCP response stream fnv equals the in-process handle_line replay's"
            ),
        );
        out.check(
            fnv[1] == fnv[0] && fnv[2] == fnv[0],
            format!("pass {passes}: layer replays reproduce every handle_line reply byte for byte"),
        );
        passes += 1;
    }
    let totals = rec.totals();
    let requests = passes * n as u64;
    let reference_us = totals
        .get("service.handle_line")
        .map_or(0.0, |t| t.self_ns as f64 / requests as f64 / 1e3);
    let times = LayerTimes {
        totals: &totals,
        passes,
        requests,
        layers: &SERVICE_LAYERS,
        reference_us,
        reference_name: "Service::handle_line",
        min_coverage: workload.min_coverage(),
        queue_wait_us: queue_wait_us as f64 / requests as f64,
        transport_us,
        traced_wall,
        untraced_wall,
    };
    layer_metrics(&times, &mut out);
    let per_request = |total: u64| total as f64 / counts.requests as f64;
    out.metric(
        "qasm.bytes",
        "B/req",
        per_request(counts.qasm_bytes),
        counts.requests,
    );
    out.metric(
        "qasm.tokens",
        "tok/req",
        per_request(counts.qasm_tokens),
        counts.requests,
    );
    out.metric(
        "circuit.gates",
        "gates/req",
        per_request(counts.circuit_gates),
        counts.requests,
    );
    out.metric(
        "cache.hit_rate",
        "ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        hits + misses,
    );
    out.metric("proxy.retries", "count", retries as f64, n as u64);
    rec.write_ndjson(span_file)
        .map_err(|e| format!("cannot write {}: {e}", span_file.display()))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_quality_reads_ok_verified_replies_only() {
        let ok = "{\"type\":\"route\",\"status\":\"ok\",\"device\":\"ibm_q20_tokyo\",\"router\":\"codar\",\
                  \"qubits\":3,\"input_gates\":2,\"weighted_depth\":17,\"depth\":3,\"swaps\":1,\
                  \"output_gates\":5,\"verified\":true,\"qasm\":\"x\"}";
        assert_eq!(reply_quality(ok), Some((17, 1)));
        assert_eq!(
            reply_quality(&ok.replace("\"verified\":true", "\"verified\":false")),
            None
        );
        assert_eq!(
            reply_quality("{\"type\":\"error\",\"status\":\"error\",\"message\":\"no\"}"),
            None
        );
    }
}
