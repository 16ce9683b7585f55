//! Criterion benches: Feynman-path simulator throughput.
//!
//! The paper's simulator claim (Sec. 6.2): noisy QRAM circuits simulate
//! in memory *constant in circuit depth* because the gate family is
//! classical-reversible — the interesting cost is time per (gate × path).
//! These benches measure full-query simulation and one Monte-Carlo shot
//! across QRAM widths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qram_bench::experiment_memory;
use qram_core::{QueryArchitecture, VirtualQram};
use qram_noise::{FaultSampler, NoiseModel, PauliChannel};
use qram_sim::{run, run_shots_stats, run_with_faults, ShotConfig};

fn bench_noiseless_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("noiseless_query");
    for m in [2usize, 4, 6] {
        let memory = experiment_memory(m, 1);
        let query = VirtualQram::new(0, m).build(&memory);
        let input = query.input_state(None);
        group.bench_with_input(BenchmarkId::new("virtual_k0", m), &m, |b, _| {
            b.iter(|| {
                let mut state = input.clone();
                run(query.circuit().gates(), &mut state).unwrap();
                state.num_paths()
            })
        });
    }
    group.finish();
}

fn bench_noisy_shot(c: &mut Criterion) {
    let mut group = c.benchmark_group("noisy_shot");
    for m in [2usize, 4, 6] {
        let memory = experiment_memory(m, 2);
        let query = VirtualQram::new(0, m).build(&memory);
        let input = query.input_state(None);
        let model = NoiseModel::per_gate(PauliChannel::depolarizing(1e-3));
        group.bench_with_input(BenchmarkId::new("virtual_k0", m), &m, |b, _| {
            let sampler = FaultSampler::new(query.circuit(), model, 3);
            let mut shot = 0u64;
            b.iter(|| {
                let plan = sampler.sample_shot(shot);
                shot += 1;
                let mut state = input.clone();
                run_with_faults(query.circuit().gates(), &mut state, &plan, 1).unwrap();
                state.num_paths()
            })
        });
    }
    group.finish();
}

fn bench_fault_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_sampling");
    let memory = experiment_memory(6, 3);
    let query = VirtualQram::new(0, 6).build(&memory);
    for (name, model) in [
        (
            "per_gate",
            NoiseModel::per_gate(PauliChannel::depolarizing(1e-3)),
        ),
        (
            "qubit_per_step",
            NoiseModel::qubit_per_step(PauliChannel::depolarizing(1e-3)),
        ),
    ] {
        group.bench_function(name, |b| {
            let sampler = FaultSampler::new(query.circuit(), model, 4);
            let mut shot = 0u64;
            b.iter(|| {
                shot += 1;
                sampler.sample_shot(shot).len()
            })
        });
    }
    group.finish();
}

/// The headline serial-vs-sharded comparison the CI regression gate and
/// `BENCH_2.json` track: one full Monte-Carlo fidelity estimate per
/// iteration, identical workload and seed, only the thread count varies.
/// Determinism across thread counts means the two paths compute the very
/// same estimate — the ratio is pure engine throughput.
fn bench_shot_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("shot_engine");
    let m = 5;
    let shots = 96;
    let memory = experiment_memory(m, 8);
    let query = VirtualQram::new(0, m).build(&memory);
    let input = query.input_state(None);
    let model = NoiseModel::per_gate(PauliChannel::depolarizing(2e-3));
    let sampler = FaultSampler::new(query.circuit(), model, 9);
    for (label, threads) in [("serial", 1usize), ("sharded", 0)] {
        let config = ShotConfig::new(shots).with_seed(9).with_threads(threads);
        group.bench_function(label, |b| {
            b.iter(|| {
                let sample = |shot| sampler.sample_shot(shot);
                let (est, _) =
                    run_shots_stats(query.circuit().gates(), &input, None, &config, &sample)
                        .unwrap();
                est.mean
            })
        });
    }
    group.finish();
}

/// The path-parallel comparison the CI `path_speedup` gate tracks: a
/// wide (`m = 10`, 1024-path) query where shots are few but each shot is
/// expensive, so the win comes from splitting the *path slab*, not from
/// sharding shots. `serial` pins `path_chunks = 1`; `chunked` uses
/// `path_chunks = 0` (auto: one chunk per available core). Shot threads
/// stay at 1 in both so the ratio isolates path parallelism. On a
/// single-core runner auto resolves to 1 chunk and the ratio is ~1.0 —
/// the report gate detects and skips that case.
fn bench_path_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("path_engine");
    let m = 10;
    let shots = 4;
    let memory = experiment_memory(m, 8);
    let query = VirtualQram::new(0, m).build(&memory);
    let input = query.input_state(None);
    let model = NoiseModel::per_gate(PauliChannel::depolarizing(2e-3));
    let sampler = FaultSampler::new(query.circuit(), model, 9);
    for (label, chunks) in [("serial", 1usize), ("chunked", 0)] {
        let config = ShotConfig::new(shots)
            .with_seed(9)
            .with_threads(1)
            .with_path_chunks(chunks);
        group.bench_function(label, |b| {
            b.iter(|| {
                let sample = |shot| sampler.sample_shot(shot);
                let (est, _) =
                    run_shots_stats(query.circuit().gates(), &input, None, &config, &sample)
                        .unwrap();
                est.mean
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_noiseless_query,
    bench_noisy_shot,
    bench_fault_sampling,
    bench_shot_engine,
    bench_path_engine
);
criterion_main!(benches);
