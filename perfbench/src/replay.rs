//! Replays a pass's work through each layer's public entry point —
//! `Compiler::compile`, `qram_verify::verify_query`, `FaultSampler::new`,
//! `QueryCircuit::query_classical`, `run_shots_stats`, `Router::route` —
//! under the bench's spans, and checks every replayed answer against the
//! served one bit for bit.

use std::hint::black_box;

use qram_noise::{derive_stream_seed, FaultSampler};
use qram_service::{
    CompiledQuery, Compiler, QramService, QuerySpec, ServiceConfig, TelemetryRecorder, VerifyLevel,
};
use qram_sim::{run_shots_stats, Amplitude, FidelityEstimate, ShotConfig, ShotStats};
use qram_telemetry::SpanStage;
use qram_verify::verify_query;

use crate::check::Violations;
use crate::serve::Served;
use crate::trace::Tracer;
use crate::workload::{Inputs, Target};

/// What a replay found.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Cache-miss compiles the program recorded, as `(shard, spec)`.
    pub misses: Vec<(usize, QuerySpec)>,
    /// Batches the program recorded firing.
    pub batches: u64,
    /// Requests in those batches.
    pub batched_requests: u64,
    /// Shot-engine work counters summed over the replayed requests.
    pub shots: ShotStats,
    /// Replayed answers that differ from the served ones.
    pub violations: Violations,
}

struct Artifact {
    shard: usize,
    compiled: CompiledQuery,
    sampler: Option<FaultSampler>,
}

/// Re-runs one request's Monte-Carlo estimate exactly as the executor
/// serves it: the basis state at its address, its fault stream keyed by
/// `(shard seed, request id)`.
pub fn replay_shots(
    compiled: &CompiledQuery,
    sampler: &FaultSampler,
    config: &ServiceConfig,
    id: u64,
    address: u64,
) -> (FidelityEstimate, ShotStats) {
    let circuit = &compiled.circuit;
    let keep = circuit.output_qubits();
    let mut amps = vec![Amplitude::ZERO; address as usize + 1];
    amps[address as usize] = Amplitude::ONE;
    let input = circuit.input_state(Some(&amps));
    let master = derive_stream_seed(config.seed, id);
    let shot_config = ShotConfig {
        shots: config.shots,
        seed: master,
        threads: config.shot_threads,
        path_chunks: config.path_chunks,
    };
    run_shots_stats(
        circuit.circuit().gates(),
        &input,
        Some(&keep),
        &shot_config,
        &|shot| sampler.sample_shot_from(master, shot),
    )
    .expect("compiled query circuits are always simulable")
}

/// Reads the misses and fired batches out of the program's own
/// virtual-time telemetry.
fn scan(inputs: &Inputs, shards: &[QramService<TelemetryRecorder>], out: &mut Replay) {
    for (sid, shard) in shards.iter().enumerate() {
        for event in shard.recorder().tracer().events() {
            match &event.stage {
                SpanStage::Compile {
                    group,
                    cache_hit: false,
                    ..
                } => match inputs.specs.iter().find(|s| s.arch.to_string() == *group) {
                    Some(&spec) => out.misses.push((sid, spec)),
                    None => out
                        .violations
                        .push(format!("shard {sid} compiled unknown spec {group}")),
                },
                SpanStage::BatchForm { size, .. } => {
                    out.batches += 1;
                    out.batched_requests += size;
                }
                _ => {}
            }
        }
    }
}

/// Replays `served` (a pass's results, or a prefix of them) after the
/// misses `target` recorded, inside a `replay` span of `tracer`.
pub fn replay(
    inputs: &Inputs,
    target: &Target<TelemetryRecorder>,
    served: &[Served],
    tracer: &mut Tracer,
) -> Replay {
    let mut out = Replay::default();
    scan(inputs, target.shards(), &mut out);
    let root = tracer.open("replay", None);
    let mut artifacts: Vec<Artifact> = Vec::new();
    for &(sid, spec) in &out.misses {
        let config = inputs.shard_config(sid);
        let compiled = tracer.time("compiler.compile", None, || {
            Compiler::new(config.cost, config.shots).compile(spec, &inputs.memory)
        });
        let level = if config.deep_verify {
            VerifyLevel::Deep
        } else {
            VerifyLevel::Structural
        };
        let verdict = tracer.time("verify.verify", None, || {
            verify_query(
                spec.arch.family(),
                &compiled.circuit,
                &compiled.resources,
                level,
            )
        });
        if let Err(e) = verdict {
            out.violations
                .push(format!("{spec:?} fails verification: {e}"));
        }
        let sampler = (config.shots > 0).then(|| {
            tracer.time("noise.sampler_build", None, || {
                FaultSampler::new(compiled.circuit.circuit(), config.noise, config.seed)
            })
        });
        artifacts.retain(|a| !(a.shard == sid && a.compiled.spec == spec));
        artifacts.push(Artifact {
            shard: sid,
            compiled,
            sampler,
        });
    }
    if let Target::Fleet(fleet) = target {
        for r in served {
            black_box(tracer.time("fleet.route", Some(r.seq), || {
                fleet.router().route(&r.spec, fleet.shards())
            }));
        }
    }
    // Replay in the order the executor ran the requests (virtual start
    // instant), so consecutive replays share a circuit as they did live.
    let mut order: Vec<&Served> = served.iter().collect();
    order.sort_by_key(|r| (r.completed - r.latency.execute, r.shard, r.id));
    for r in order {
        let Some(a) = artifacts
            .iter()
            .find(|a| a.shard == r.shard && a.compiled.spec == r.spec)
        else {
            out.violations
                .push(format!("offer {} served without a recorded compile", r.seq));
            continue;
        };
        let value = tracer.time("sim.readout", Some(r.seq), || {
            a.compiled.circuit.query_classical(r.address)
        });
        if value.ok() != Some(r.value) {
            out.violations
                .push(format!("offer {}: replayed readout differs", r.seq));
        }
        if let Some(sampler) = &a.sampler {
            let config = inputs.shard_config(r.shard);
            let (estimate, stats) = tracer.time("sim.shots", Some(r.seq), || {
                replay_shots(&a.compiled, sampler, &config, r.id, r.address)
            });
            if estimate.mean.to_bits() != r.fidelity.mean.to_bits()
                || estimate.std_error.to_bits() != r.fidelity.std_error.to_bits()
            {
                out.violations
                    .push(format!("offer {}: replayed fidelity differs", r.seq));
            }
            out.shots.merge_from(&stats);
        }
    }
    tracer.close(root);
    out
}
