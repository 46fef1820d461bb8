//! The traced replays: the daemon's route path and the engine's job
//! loop, re-driven from outside through each layer's public function,
//! one span per call.
//!
//! [`ServiceMirror`] follows `Service::handle_line` for a fixed-router
//! route request: envelope parse, the three QASM front-end steps,
//! circuit building, decomposition and canonical re-serialization, the
//! cache key and probe, and — only on a cache miss — initial mapping,
//! routing, both verifications, routed serialization, the reply body
//! and the cache fill. Its cache is a `ShardedCache` of the daemon's
//! default geometry, so hits, misses and evictions match the daemon's. [`replay_engine`] follows
//! `SuiteRunner`: one initial mapping per (circuit, device) cell, then
//! route and verify per job. Both must reproduce the program's output
//! bytes; the callers check that.

use crate::spans::Recorder;
use codar_arch::Device;
use codar_benchmarks::suite::SuiteEntry;
use codar_circuit::decompose::decompose_three_qubit_gates;
use codar_circuit::from_qasm::{circuit_from_flat, circuit_to_qasm};
use codar_engine::job::build_matrix;
use codar_engine::{RouteReport, RouteWorker, RouterKind, RouterVariant};
use codar_qasm::{lexer, parser, semantic};
use codar_router::verify::{check_coupling, check_equivalence};
use codar_router::Mapping;
use codar_service::cache::{fnv1a_extend, key_material, ShardedCache, FNV_OFFSET};
use codar_service::protocol::{Request, RouteOutcome};
use codar_service::proxy::shard_key;
use codar_service::server::DEFAULT_CAL_ALPHA;
use codar_service::ServiceConfig;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// The daemon-side layer spans of a route request, in call order.
pub const SERVICE_LAYERS: [&str; 16] = [
    "protocol.parse",
    "qasm.lex",
    "qasm.parse",
    "qasm.flatten",
    "circuit.from_flat",
    "circuit.decompose",
    "circuit.write",
    "cache.key",
    "cache.lookup",
    "engine.initial_mapping",
    "engine.route",
    "core.verify_coupling",
    "core.verify_equivalence",
    "circuit.write_routed",
    "protocol.reply",
    "cache.insert",
];

/// The layer spans of an engine job.
pub const ENGINE_LAYERS: [&str; 4] = [
    "engine.initial_mapping",
    "engine.route",
    "core.verify_coupling",
    "core.verify_equivalence",
];

/// The spans outside the daemon-side layer sum: the proxy's key, paid
/// in the proxy, and the real `handle_line` the layers are checked
/// against.
pub const OTHER_SPANS: [&str; 2] = ["proxy.shard_key", "service.handle_line"];

/// Per-request input sizes seen by the service replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct InputCounts {
    pub requests: u64,
    pub qasm_bytes: u64,
    pub qasm_tokens: u64,
    pub circuit_gates: u64,
}

/// The daemon's route path for `codar`-style fixed routers with the
/// daemon's default configuration (seed 0, no calibration, no `sim`).
pub struct ServiceMirror {
    /// Whether requests first pass a proxy (adds `proxy.shard_key`).
    via_proxy: bool,
    device: Arc<Device>,
    worker: RouteWorker,
    cache: ShardedCache,
    pub counts: InputCounts,
}

impl ServiceMirror {
    pub fn new(via_proxy: bool) -> ServiceMirror {
        let config = ServiceConfig::default();
        ServiceMirror {
            via_proxy,
            device: Arc::new(Device::by_name("q20").expect("q20 is a preset")),
            worker: RouteWorker::new(),
            cache: ShardedCache::new(config.cache_capacity, config.cache_shards),
            counts: InputCounts::default(),
        }
    }

    /// Handles one route line and returns the reply the daemon sends.
    pub fn handle(&mut self, rec: &mut Recorder, line: &str) -> Result<String, String> {
        if self.via_proxy {
            std::hint::black_box(rec.span("proxy.shard_key", || shard_key(line)));
        }
        let envelope = rec
            .span("protocol.parse", || Request::parse_envelope(line))
            .map_err(|e| format!("request rejected: {}", e.message))?;
        let Request::Route {
            device,
            router,
            alpha: None,
            sim: None,
            qasm,
            ..
        } = envelope.request
        else {
            return Err(format!("not a plain route request: {line}"));
        };
        if !device.eq_ignore_ascii_case("q20") || router != RouterKind::Codar {
            return Err(format!("replay covers q20/codar only: {line}"));
        }
        let device = Arc::clone(&self.device);
        let tokens = rec
            .span("qasm.lex", || lexer::lex(&qasm))
            .map_err(|e| format!("QASM error: {e}"))?;
        let program = rec
            .span("qasm.parse", || parser::parse_tokens(&tokens))
            .map_err(|e| format!("QASM error: {e}"))?;
        let flat = rec
            .span("qasm.flatten", || semantic::flatten(&program))
            .map_err(|e| format!("QASM error: {e}"))?;
        let built = rec.span("circuit.from_flat", || circuit_from_flat(&flat));
        let circuit = rec.span("circuit.decompose", || decompose_three_qubit_gates(&built));
        let canonical = rec
            .span("circuit.write", || circuit_to_qasm(&circuit))
            .map_err(|e| format!("cannot canonicalize circuit: {e}"))?;
        self.counts.requests += 1;
        self.counts.qasm_bytes += qasm.len() as u64;
        self.counts.qasm_tokens += tokens.len() as u64;
        self.counts.circuit_gates += circuit.len() as u64;
        let (key, material) = rec.span("cache.key", || {
            let material = key_material(&[&canonical, device.name(), router.name(), "0", "0", ""]);
            (fnv1a_extend(FNV_OFFSET, material.as_bytes()), material)
        });
        let cache = &self.cache;
        let cached = rec.span("cache.lookup", || {
            cache
                .get(key, &material)
                .map(|body| body.as_ref().to_string())
        });
        if let Some(body) = cached {
            return Ok(body);
        }
        let worker = &mut self.worker;
        let initial = rec.span("engine.initial_mapping", || {
            worker.initial_mapping(&circuit, &device, 0)
        });
        let mut variant = RouterVariant::of_kind(router);
        variant.codar.cal_alpha = DEFAULT_CAL_ALPHA;
        let routed = rec
            .span("engine.route", || {
                worker.route(&circuit, &device, &variant, Some(initial), None)
            })
            .map_err(|e| format!("routing failed: {e}"))?;
        rec.span("core.verify_coupling", || {
            check_coupling(&routed.circuit, &device)
        })
        .map_err(|e| format!("verification failed (coupling): {e}"))?;
        rec.span("core.verify_equivalence", || {
            check_equivalence(&circuit, &routed)
        })
        .map_err(|e| format!("verification failed (equivalence): {e}"))?;
        let routed_qasm = rec
            .span("circuit.write_routed", || circuit_to_qasm(&routed.circuit))
            .map_err(|e| format!("cannot serialize routed circuit: {e}"))?;
        let body = rec.span("protocol.reply", || {
            RouteOutcome {
                device: device.name().to_string(),
                router,
                qubits: circuit.num_qubits(),
                input_gates: circuit.len(),
                weighted_depth: routed.weighted_depth,
                depth: routed.depth(),
                swaps: routed.swaps_inserted,
                output_gates: routed.gate_count(),
                calibration: None,
                sim: None,
                chosen: None,
                qasm: routed_qasm,
            }
            .body()
        });
        rec.span("cache.insert", || {
            cache.insert(key, material, Arc::from(body.as_str()))
        });
        Ok(body)
    }
}

/// The engine suite's inputs: entries in job order and the devices.
pub struct EngineInputs {
    pub entries: Vec<SuiteEntry>,
    pub devices: Vec<Arc<Device>>,
}

/// The router variants of `engine_suite`, as `SuiteRunner` builds them
/// from the default config.
pub fn engine_variants() -> Vec<RouterVariant> {
    vec![
        RouterVariant::of_kind(RouterKind::Codar),
        RouterVariant::of_kind(RouterKind::Sabre),
    ]
}

/// Replays the jobs of `inputs` one by one (one root span per job,
/// request ids from `first`) and returns their reports, which must
/// equal `SuiteRunner`'s, plus the summed per-job wall of the replay.
pub fn replay_engine(
    inputs: &EngineInputs,
    rec: &mut Recorder,
    first: u64,
) -> Result<(Vec<RouteReport>, Duration), String> {
    let variants = engine_variants();
    let jobs = build_matrix(&inputs.entries, &inputs.devices, &variants, 0);
    let mut mappings: HashMap<(usize, usize), Mapping> = HashMap::new();
    let mut worker = RouteWorker::new();
    let mut reports = Vec::with_capacity(jobs.len());
    let mut wall = Duration::ZERO;
    for job in jobs {
        let entry = &inputs.entries[job.entry];
        let device = &inputs.devices[job.device];
        let variant = &variants[job.variant];
        let started = std::time::Instant::now();
        let routed = rec.request("engine.job", first + job.id as u64, |rec| {
            let initial = match mappings.get(&(job.device, job.entry)) {
                Some(mapping) => mapping.clone(),
                None => {
                    let mapping = rec.span("engine.initial_mapping", || {
                        worker.initial_mapping(&entry.circuit, device, 0)
                    });
                    mappings.insert((job.device, job.entry), mapping.clone());
                    mapping
                }
            };
            let routed = rec
                .span("engine.route", || {
                    worker.route(&entry.circuit, device, variant, Some(initial), None)
                })
                .map_err(|e| format!("{} on {}: {e}", entry.name, device.name()))?;
            // Same short circuit as the runner: equivalence is checked
            // only for coupling-compliant circuits.
            let verified = rec.span("core.verify_coupling", || {
                check_coupling(&routed.circuit, device).is_ok()
            }) && rec.span("core.verify_equivalence", || {
                check_equivalence(&entry.circuit, &routed).is_ok()
            });
            Ok::<_, String>((routed, verified))
        });
        wall += started.elapsed();
        let (routed, verified) = routed?;
        reports.push(RouteReport {
            job_id: job.id,
            circuit: entry.name.clone(),
            device: device.name().to_string(),
            num_qubits: entry.num_qubits,
            input_gates: entry.circuit.len(),
            router: variant.kind,
            variant: variant.label.clone(),
            noise: None,
            cal: None,
            eps: None,
            sim: None,
            chosen: None,
            weighted_depth: routed.weighted_depth,
            depth: routed.depth(),
            swaps: routed.swaps_inserted,
            output_gates: routed.gate_count(),
            verified: Some(verified),
            fidelity: None,
            routed: None,
            wall: Duration::ZERO,
        });
    }
    Ok((reports, wall))
}
