//! `coded` — the CODAR routing daemon.
//!
//! ```text
//! coded [--stdin | --listen ADDR] [--workers N] [--cache-capacity N]
//!       [--cache-shards N] [--queue-capacity N] [--seed S]
//!       [--drain-ms N] [--fault-plan PLAN] [--trace-log FILE]
//! ```
//!
//! Speaks the line-delimited JSON protocol of `codar_service::protocol`:
//! `route` / `stats` / `devices` / `shutdown` requests, one response
//! line per request, in order. `--stdin` serves a single NDJSON stream
//! on stdin/stdout (no port; what tests and CI drive); the default
//! serves TCP on `--listen` (default `127.0.0.1:7878`), one thread per
//! connection over a shared worker pool and result cache.
//!
//! `--cache-capacity 0` disables the result cache — responses stay
//! byte-identical, only slower (the determinism gate diffs the two).
//!
//! On `shutdown` the TCP accept loop stops and **drains**: tracked
//! per-connection threads are joined so in-flight responses complete;
//! `--drain-ms` bounds how long readers parked on idle connections can
//! hold up the exit (default 5000).
//!
//! `--trace-log FILE` attaches the structured trace sink: one NDJSON
//! span line per request-tree node is appended to FILE (see
//! `codar_service::trace`; `codar-trace` merges and profiles the
//! logs). Without the flag, tracing stays id-echo-only and mints
//! nothing.
//!
//! `--fault-plan` arms deterministic transport-fault injection (see
//! `codar_service::faults` for the grammar, e.g.
//! `delay:50@3;close:17@9;kill@40`): the plan's `kill` events call
//! `process::exit(9)` so a supervisor — or the CI proxy smoke's
//! restart wrapper — observes a real crash. Strictly a test/chaos
//! facility; production daemons run without it.

use codar_service::faults::FaultPlan;
use codar_service::wire;
use codar_service::{Service, ServiceConfig};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    config: ServiceConfig,
    stdin: bool,
    listen: String,
    drain: Duration,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        config: ServiceConfig::default(),
        stdin: false,
        listen: "127.0.0.1:7878".to_string(),
        drain: wire::DEFAULT_DRAIN,
    };
    let value = |args: &[String], i: usize, flag: &str| -> Result<String, String> {
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let parse_num = |text: String, flag: &str| -> Result<usize, String> {
        text.parse().map_err(|e| format!("bad {flag} value: {e}"))
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--stdin" => {
                parsed.stdin = true;
                i += 1;
            }
            "--listen" => {
                parsed.listen = value(args, i, "--listen")?;
                i += 2;
            }
            "--workers" => {
                parsed.config.workers = parse_num(value(args, i, "--workers")?, "--workers")?;
                i += 2;
            }
            "--cache-capacity" => {
                parsed.config.cache_capacity =
                    parse_num(value(args, i, "--cache-capacity")?, "--cache-capacity")?;
                i += 2;
            }
            "--cache-shards" => {
                parsed.config.cache_shards =
                    parse_num(value(args, i, "--cache-shards")?, "--cache-shards")?;
                i += 2;
            }
            "--queue-capacity" => {
                parsed.config.queue_capacity =
                    parse_num(value(args, i, "--queue-capacity")?, "--queue-capacity")?;
                i += 2;
            }
            "--seed" => {
                parsed.config.seed = value(args, i, "--seed")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
                i += 2;
            }
            "--drain-ms" => {
                parsed.drain = Duration::from_millis(
                    value(args, i, "--drain-ms")?
                        .parse()
                        .map_err(|e| format!("bad --drain-ms value: {e}"))?,
                );
                i += 2;
            }
            "--fault-plan" => {
                parsed.config.fault_plan = Some(
                    FaultPlan::parse(&value(args, i, "--fault-plan")?)
                        .map_err(|e| format!("bad --fault-plan value: {e}"))?,
                );
                // In the real bin a planned kill is a real crash.
                parsed.config.fault_exit = true;
                i += 2;
            }
            "--trace-log" => {
                parsed.config.trace_log = Some(value(args, i, "--trace-log")?);
                i += 2;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(parsed)
}

fn run(args: &Args) -> Result<(), String> {
    let service = Service::start(args.config.clone());
    if args.stdin {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        wire::serve_stream(&service, stdin.lock(), stdout.lock())
            .map_err(|e| format!("stdin stream failed: {e}"))
    } else {
        let listener = std::net::TcpListener::bind(&args.listen)
            .map_err(|e| format!("cannot listen on {}: {e}", args.listen))?;
        eprintln!(
            "coded: listening on {} ({} workers, cache capacity {})",
            listener
                .local_addr()
                .map_or(args.listen.clone(), |a| a.to_string()),
            args.config.workers.max(1),
            args.config.cache_capacity,
        );
        wire::serve_tcp(&service, listener, args.drain)
            .map_err(|e| format!("accept loop failed: {e}"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
