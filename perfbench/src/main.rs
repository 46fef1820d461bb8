//! The repository benchmark: one workload per invocation.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --bin-dir DIR --out-dir DIR
//! ```
//!
//! Workloads: `engine_suite`, `service_hot`, `service_miss`, `proxy_hot`
//! (see README.md). `--trace 0` measures the end-to-end metrics with
//! tracing off; `--trace 1` replays the workload's stream through each
//! layer with spans on and reports the per-layer metrics. The last line
//! of standard output is the JSON result; the exit code is non-zero
//! when a correctness gate fails or the run cannot complete.

mod daemon;
mod engine_suite;
mod layers;
mod report;
mod service;
mod spans;
mod streams;

use crate::layers::{OTHER_SPANS, SERVICE_LAYERS};
use crate::report::RunResult;
use crate::spans::SpanTotals;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Set-ups per timed run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    bin_dir: PathBuf,
    out_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        bin_dir: PathBuf::from("target/release"),
        out_dir: PathBuf::from("target/perfbench-out"),
    };
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|e| format!("bad --seconds: {e}"))?
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--bin-dir" => parsed.bin_dir = PathBuf::from(value),
            "--out-dir" => parsed.out_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 2;
    }
    if parsed.seconds == 0 || parsed.seconds > 60 {
        return Err("--seconds must be between 1 and 60".to_string());
    }
    Ok(parsed)
}

/// The per-layer view of a traced run.
pub struct LayerTimes<'a> {
    pub totals: &'a BTreeMap<&'static str, SpanTotals>,
    /// Replay passes over the fixed stream.
    pub passes: u64,
    /// Requests (jobs) over all passes.
    pub requests: u64,
    /// The leaf layers that must add up to the reference.
    pub layers: &'a [&'static str],
    /// Mean µs per request of what the layers must account for.
    pub reference_us: f64,
    pub reference_name: &'static str,
    pub min_coverage: f64,
    /// Mean µs per request jobs waited in the daemon's queue for a
    /// routing worker (the daemon's own `queue_wait` histogram; 0 for
    /// the engine). It counts toward the layer sum.
    pub queue_wait_us: f64,
    pub transport_us: f64,
    pub traced_wall: Duration,
    pub untraced_wall: Duration,
}

/// Reports every span's mean µs per request and calls per pass, the
/// layer accounting against the reference, and the tracing overhead;
/// fails the run when the layers cover less than `min_coverage`.
pub fn layer_metrics(t: &LayerTimes, out: &mut RunResult) {
    let us_per_request = |name: &str| {
        t.totals
            .get(name)
            .map_or(0.0, |s| s.self_ns as f64 / t.requests as f64 / 1e3)
    };
    // Every span of every workload, so all workloads report one set.
    for name in SERVICE_LAYERS.iter().chain(&OTHER_SPANS) {
        let calls = t.totals.get(name).map_or(0, |s| s.calls);
        out.metric(
            &format!("{name}.us"),
            "us/req",
            us_per_request(name),
            t.requests,
        );
        out.metric(
            &format!("{name}.calls"),
            "count",
            calls as f64 / t.passes as f64,
            t.passes,
        );
    }
    let sum_us: f64 = t
        .layers
        .iter()
        .map(|name| us_per_request(name))
        .sum::<f64>()
        + t.queue_wait_us;
    let coverage = sum_us / t.reference_us;
    out.metric("queue.wait_us", "us/req", t.queue_wait_us, t.requests);
    out.metric("layers.reference_us", "us/req", t.reference_us, t.requests);
    out.metric("layers.sum_us", "us/req", sum_us, t.requests);
    out.metric("layers.coverage_pct", "%", 100.0 * coverage, t.requests);
    out.metric(
        "service.unattributed_us",
        "us/req",
        t.reference_us - sum_us,
        t.requests,
    );
    out.metric("service.transport_us", "us/req", t.transport_us, t.requests);
    let untraced = t.untraced_wall.as_secs_f64();
    out.metric(
        "trace.overhead_pct",
        "%",
        100.0 * (t.traced_wall.as_secs_f64() - untraced) / untraced,
        t.passes,
    );
    let rows = t.layers.iter().map(|name| (*name, us_per_request(name)));
    for (name, us) in rows.chain([("queue.wait", t.queue_wait_us)]) {
        out.notes.push(format!(
            "layer {name:<26} {us:>12.3} us/req {:>6.2}% of {}",
            100.0 * us / t.reference_us,
            t.reference_name
        ));
    }
    out.check(
        coverage >= t.min_coverage,
        format!(
            "layer sum {sum_us:.3} us/req covers {:.2}% of {} {:.3} us/req (need >= {:.0}%; unattributed {:.3} us/req)",
            100.0 * coverage,
            t.reference_name,
            t.reference_us,
            100.0 * t.min_coverage,
            t.reference_us - sum_us
        ),
    );
}

fn run(args: &Args) -> Result<RunResult, String> {
    let seconds = Duration::from_secs(args.seconds);
    let bins = daemon::Bins::in_dir(&args.bin_dir);
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let span_file = args.out_dir.join(format!("spans-{}.ndjson", args.workload));
    let service_workload = match args.workload.as_str() {
        "engine_suite" => {
            return if args.trace {
                engine_suite::traced(args.seed, seconds, &span_file)
            } else {
                engine_suite::timed(args.seed, seconds)
            }
        }
        "service_hot" => service::Workload::Hot,
        "service_miss" => service::Workload::Miss,
        "proxy_hot" => service::Workload::Proxy,
        other => return Err(format!("unknown workload `{other}`")),
    };
    for bin in [&bins.coded, &bins.proxy] {
        if !bin.is_file() {
            return Err(format!("{} is not built", bin.display()));
        }
    }
    if args.trace {
        service::traced(service_workload, args.seed, seconds, &bins, &span_file)
    } else {
        service::timed(service_workload, args.seed, seconds, &bins)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            let header = format!(
                "perfbench {} seed={} seconds={} trace={}",
                args.workload, args.seed, args.seconds, args.trace as u8
            );
            print!("{}", result.render(&header));
            if result.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(message) => {
            eprintln!("perfbench: {} failed: {message}", args.workload);
            ExitCode::from(2)
        }
    }
}
