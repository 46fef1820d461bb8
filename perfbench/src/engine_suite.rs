//! `engine_suite`: the paper's experiment as a batch user runs it — the
//! in-process `SuiteRunner` at 1 thread over `full_suite()` × {q16, q20}
//! × {codar, sabre}, verification on, repeated pass after pass.
//!
//! The corpus is fixed (the paper's suite; routing seed 0), so output
//! quality repeats exactly for every seed; the seed orders the suite
//! entries, i.e. the order the runner walks its jobs.

use crate::daemon::vm_hwm_kb;
use crate::layers::{replay_engine, EngineInputs, ENGINE_LAYERS};
use crate::report::{geomean, median, median_s, percentile_us, windowed_percentile_us, RunResult};
use crate::spans::Recorder;
use crate::{layer_metrics, LayerTimes, SETUP_REPEATS};
use codar_arch::Device;
use codar_benchmarks::suite::full_suite;
use codar_engine::{EngineConfig, SuiteResult, SuiteRunner, Summary};
use codar_service::cache::{fnv1a_extend, FNV_OFFSET};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Passes a timed run makes at least: 4 × 250 jobs leaves 10 jobs
/// beyond the p99.
const MIN_PASSES: usize = 4;

/// Share of the per-job wall (`RouteReport.wall`) the layer spans must
/// account for.
pub const MIN_COVERAGE: f64 = 0.95;

fn inputs(seed: u64) -> EngineInputs {
    let mut entries = full_suite();
    entries.shuffle(&mut StdRng::seed_from_u64(seed));
    EngineInputs {
        entries,
        devices: vec![
            Arc::new(Device::ibm_q16_melbourne()),
            Arc::new(Device::ibm_q20_tokyo()),
        ],
    }
}

fn runner(inputs: &EngineInputs) -> SuiteRunner {
    SuiteRunner::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    })
    .devices(inputs.devices.iter().map(|d| Device::clone(d)))
    .entries(inputs.entries.clone())
}

/// The summary's checksum, printed by timed and traced runs alike so the
/// two can be compared across processes.
fn summary_note(json: &str) -> String {
    format!(
        "suite summary json fnv {:016x}",
        fnv1a_extend(FNV_OFFSET, json.as_bytes())
    )
}

/// Checks a pass: no failed job, every row verified, and the summary
/// equal to `reference` (the first pass's, once there is one).
fn check_pass(result: &SuiteResult, reference: Option<&str>, out: &mut RunResult) -> String {
    let json = result.summary.to_json();
    let unverified = result
        .summary
        .rows
        .iter()
        .filter(|row| row.verified != Some(true))
        .count();
    out.failed += (result.failures.len() + unverified) as u64;
    for failure in &result.failures {
        out.gate_failures.push(format!(
            "job {} ({} on {}) failed: {}",
            failure.job.id, failure.circuit, failure.device, failure.error
        ));
    }
    if let Some(reference) = reference {
        if reference != json {
            out.gate_failures
                .push("suite summary JSON differs between passes".to_string());
        }
    }
    json
}

pub fn timed(seed: u64, seconds: Duration) -> Result<RunResult, String> {
    let mut out = RunResult::default();
    // Set-up: suite and device construction, repeated; the last copy runs.
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let inputs = inputs(seed);
        let runner = runner(&inputs);
        setups.push(started.elapsed());
        built = Some(runner);
    }
    let runner = built.expect("at least one set-up");

    let mut walls_ns: Vec<u64> = Vec::new();
    let mut first: Option<(Summary, String)> = None;
    let mut passes = 0;
    let mut measured = Duration::ZERO;
    let mut pass_rates = Vec::new();
    while passes < MIN_PASSES || measured < seconds {
        let started = Instant::now();
        let result = runner.run();
        let elapsed = started.elapsed();
        measured += elapsed;
        pass_rates.push(result.stats.jobs as f64 / elapsed.as_secs_f64());
        passes += 1;
        out.attempted += result.stats.jobs as u64;
        walls_ns.extend(
            result
                .summary
                .rows
                .iter()
                .map(|row| row.wall.as_nanos() as u64),
        );
        let json = check_pass(
            &result,
            first.as_ref().map(|(_, json)| json.as_str()),
            &mut out,
        );
        if first.is_none() {
            first = Some((result.summary, json));
        }
    }
    let (summary, json) = first.expect("at least one pass");
    out.notes.push(summary_note(&json));
    let speedups: Vec<f64> = summary.comparisons.iter().map(|c| c.speedup()).collect();
    let jobs = summary.rows.len() as u64;
    let n = walls_ns.len() as u64;
    out.metric("latency_p50_us", "us", percentile_us(&walls_ns, 0.50), n);
    out.metric(
        "latency_p99_us",
        "us",
        windowed_percentile_us(&walls_ns, 0.99),
        n,
    );
    out.metric("requests_per_s", "1/s", median(&pass_rates), n);
    out.metric("setup_s", "s", median_s(&setups), setups.len() as u64);
    out.metric(
        "peak_rss_mb",
        "MB",
        vm_hwm_kb("/proc/self/status")? as f64 / 1024.0,
        1,
    );
    out.metric(
        "weighted_depth_total",
        "cycles",
        summary.rows.iter().map(|r| r.weighted_depth as f64).sum(),
        jobs,
    );
    out.metric(
        "swaps_total",
        "count",
        summary.rows.iter().map(|r| r.swaps as f64).sum(),
        jobs,
    );
    out.metric(
        "speedup_vs_sabre",
        "x",
        geomean(&speedups),
        speedups.len() as u64,
    );
    out.notes.push(format!(
        "{passes} suite passes of {jobs} jobs in {:.3} s",
        measured.as_secs_f64()
    ));
    if out.gate_failures.is_empty() {
        out.notes.push(format!(
            "ok: {passes} suite summaries byte-identical, every job verified"
        ));
    }
    Ok(out)
}

/// The suite split into its (circuit, device) cells, in job order:
/// each cell's inputs and a runner over just that cell.
fn cells(inputs: &EngineInputs) -> Vec<(EngineInputs, SuiteRunner)> {
    let mut cells = Vec::new();
    for device in &inputs.devices {
        for entry in inputs
            .entries
            .iter()
            .filter(|e| e.num_qubits <= device.num_qubits())
        {
            let cell = EngineInputs {
                entries: vec![entry.clone()],
                devices: vec![Arc::clone(device)],
            };
            let runner = runner(&cell);
            cells.push((cell, runner));
        }
    }
    cells
}

pub fn traced(
    seed: u64,
    seconds: Duration,
    span_file: &std::path::Path,
) -> Result<RunResult, String> {
    let mut out = RunResult::default();
    let started = Instant::now();
    let inputs = inputs(seed);
    // The whole suite through the runner once: the summary every
    // replay must reproduce.
    let reference = runner(&inputs).run();
    let summary = check_pass(&reference, None, &mut out);
    out.notes.push(summary_note(&summary));
    let jobs_per_pass = reference.stats.jobs as u64;

    // Replay passes until the time is used. Cell by cell, the runner
    // (its RouteReport.wall is what the layers must account for), the
    // traced replay and an untraced replay run back to back, the order
    // rotating per cell.
    let cells = cells(&inputs);
    let mut rec = Recorder::new(true);
    let mut off = Recorder::new(false);
    let mut passes = 0u64;
    let mut reference_wall = Duration::ZERO;
    let mut traced_wall = Duration::ZERO;
    let mut untraced_wall = Duration::ZERO;
    while passes == 0 || started.elapsed() < seconds {
        let mut runner_rows = Vec::new();
        let mut replay_rows = Vec::new();
        let mut first = passes * jobs_per_pass;
        for (c, (cell, cell_runner)) in cells.iter().enumerate() {
            for step in 0..3 {
                match (c + step) % 3 {
                    0 => {
                        let result = cell_runner.run();
                        check_pass(&result, None, &mut out);
                        reference_wall += result
                            .summary
                            .rows
                            .iter()
                            .map(|row| row.wall)
                            .sum::<Duration>();
                        runner_rows.extend(result.summary.rows);
                    }
                    1 => {
                        let (rows, wall) = replay_engine(cell, &mut rec, first)?;
                        traced_wall += wall;
                        replay_rows.extend(rows);
                    }
                    _ => untraced_wall += replay_engine(cell, &mut off, first)?.1,
                }
            }
            first += 2;
        }
        out.check(
            Summary::from_reports(0, runner_rows).to_json() == summary,
            format!(
                "pass {passes}: per-cell runner summary byte-identical to the whole-suite run's"
            ),
        );
        out.check(
            Summary::from_reports(0, replay_rows).to_json() == summary,
            format!("pass {passes}: traced replay summary byte-identical to the whole-suite run's"),
        );
        passes += 1;
    }
    let jobs = passes * jobs_per_pass;
    out.attempted = jobs + jobs_per_pass;
    let totals = rec.totals();
    let gates: u64 = reference
        .summary
        .rows
        .iter()
        .map(|row| row.input_gates as u64)
        .sum();
    let times = LayerTimes {
        totals: &totals,
        passes,
        requests: jobs,
        layers: &ENGINE_LAYERS,
        reference_us: reference_wall.as_secs_f64() * 1e6 / jobs as f64,
        reference_name: "RouteReport.wall",
        min_coverage: MIN_COVERAGE,
        queue_wait_us: 0.0,
        transport_us: 0.0,
        traced_wall,
        untraced_wall,
    };
    layer_metrics(&times, &mut out);
    out.metric("qasm.bytes", "B/req", 0.0, jobs);
    out.metric("qasm.tokens", "tok/req", 0.0, jobs);
    out.metric(
        "circuit.gates",
        "gates/req",
        gates as f64 / jobs_per_pass as f64,
        jobs_per_pass,
    );
    out.metric("cache.hit_rate", "ratio", 0.0, 0);
    out.metric("proxy.retries", "count", 0.0, 0);
    rec.write_ndjson(span_file)
        .map_err(|e| format!("cannot write {}: {e}", span_file.display()))?;
    Ok(out)
}
