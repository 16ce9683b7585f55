//! Golden bit-identity pins for the simulator's numerical output.
//!
//! Every other determinism check compares two knob settings of the same
//! build (threads, path chunks, workers), so a kernel change that shifted
//! every fidelity the same way would pass them all. These tests pin
//! absolute values instead: the results digest of a noisy closed-mode
//! service run, and the exact `f64` bits of a few Monte-Carlo estimates,
//! full and reduced, on a single-path (basis-state) input and on a
//! 64-path (uniform) input. The constants were captured from the
//! per-gate executor; any change to them is a change to the numbers the
//! reproduction reports.

use qram::core::{QueryArchitecture, QueryCircuit, VirtualQram};
use qram::noise::{FaultSampler, NoiseModel, PauliChannel};
use qram::plan::{planned_families, UNLIMITED_BUDGET};
use qram::service::{
    assign_specs_with, QramService, QueryResult, QuerySpec, ServiceConfig, SpecMix, Workload,
};
use qram::sim::{run_shots_stats, Amplitude, PathState, ShotConfig, ShotStats};
use qram::telemetry::fnv1a_64;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every deterministic field of a result set, as `serve_bench` digests
/// it: ids, addresses, families, values, virtual timestamps, latency
/// breakdowns and the fidelity estimates bit for bit.
fn results_digest(results: &[QueryResult]) -> u64 {
    let mut bytes: Vec<u8> = Vec::new();
    for r in results {
        bytes.extend(r.id.to_le_bytes());
        bytes.extend(r.address.to_le_bytes());
        bytes.extend(r.spec.arch.family().as_bytes());
        bytes.push(r.value as u8);
        bytes.extend(r.arrival.to_le_bytes());
        bytes.extend(r.completed.to_le_bytes());
        bytes.extend(r.latency.queue_wait.to_le_bytes());
        bytes.extend(r.latency.compile.to_le_bytes());
        bytes.extend(r.latency.execute.to_le_bytes());
        bytes.extend(r.fidelity.mean.to_le_bytes());
        bytes.extend((r.fidelity.shots as u64).to_le_bytes());
    }
    fnv1a_64(bytes)
}

/// A noisy closed-mode run over the planner's five-family mix: 240
/// requests at width 5, 16 shots each, submitted at t = 0 and drained.
fn noisy_closed_run(shot_threads: usize, path_chunks: usize) -> Vec<QueryResult> {
    const WIDTH: usize = 5;
    let specs: Vec<QuerySpec> = planned_families(WIDTH, UNLIMITED_BUDGET)
        .into_iter()
        .map(QuerySpec::of)
        .collect();
    assert_eq!(specs.len(), 5, "one planned representative per family");
    let memory = qram::core::Memory::random(WIDTH, &mut StdRng::seed_from_u64(2023));
    let config = ServiceConfig::default()
        .with_shots(16)
        .with_seed(7)
        .with_workers(1)
        .with_shot_threads(shot_threads)
        .with_path_chunks(path_chunks)
        .with_cache_capacity(8);
    let addresses = Workload::Zipfian {
        address_width: WIDTH,
        theta: 0.99,
        seed: 7,
    };
    let mut service = QramService::new(memory, config);
    let submitted = service.submit_all(assign_specs_with(
        &addresses,
        &specs,
        SpecMix::RoundRobin,
        240,
    ));
    assert_eq!(submitted, 240);
    service.drain().results
}

#[test]
fn noisy_service_results_digest_is_pinned() {
    let results = noisy_closed_run(1, 1);
    assert_eq!(results.len(), 240);
    assert!(results.iter().all(|r| r.fidelity.shots == 16));
    assert_eq!(results_digest(&results), 0xf219_64d1_cb2c_64ec);
    // The pin holds on the parallel engine too.
    assert_eq!(
        results_digest(&noisy_closed_run(2, 3)),
        results_digest(&results)
    );
}

/// The golden query: a width-6 virtual QRAM (`k = 1`, `m = 5`, 604
/// gates) over a fixed memory image.
fn golden_query() -> QueryCircuit {
    VirtualQram::new(1, 5).build(&qram::core::Memory::random(
        6,
        &mut StdRng::seed_from_u64(5),
    ))
}

/// The `(mean, std_error)` bits of the full and the reduced estimate of
/// `query` on `input`: 48 shots of a depolarizing channel strong enough
/// that most shots replay, on the serial and the chunked engine (which
/// must agree bit for bit).
fn estimates(query: &QueryCircuit, input: &PathState) -> [(u64, u64); 2] {
    let sampler = FaultSampler::new(
        query.circuit(),
        NoiseModel::per_gate(PauliChannel::depolarizing(1e-3)),
        11,
    );
    let sample = |shot| sampler.sample_shot(shot);
    let keep = query.output_qubits();
    [None, Some(keep.as_slice())].map(|keep| {
        let run = |config: &ShotConfig| {
            run_shots_stats(query.circuit().gates(), input, keep, config, &sample).unwrap()
        };
        let (est, stats) = run(&ShotConfig::serial(48));
        let parallel = run(&ShotConfig::new(48).with_threads(2).with_path_chunks(3));
        assert_eq!((est, stats), parallel, "reduced={}", keep.is_some());
        let work = ShotStats {
            shots: 48,
            replayed: 33,
            faults: 63,
            gate_applications: 33 * 604,
        };
        assert_eq!(stats, work);
        (est.mean.to_bits(), est.std_error.to_bits())
    })
}

#[test]
fn single_path_estimates_are_pinned() {
    let query = golden_query();
    let address = 45usize;
    let mut amps = vec![Amplitude::ZERO; address + 1];
    amps[address] = Amplitude::ONE;
    let input = query.input_state(Some(&amps));
    assert_eq!(input.num_paths(), 1);
    let full = (0x3fda_aaaa_aaaa_aaab, 0x3fb2_68da_0bb9_d8a2);
    let reduced = (0x3fe6_0000_0000_0000, 0x3fb1_4ee7_7bf3_34b2);
    assert_eq!(estimates(&query, &input), [full, reduced]);
}

#[test]
fn sixty_four_path_estimates_are_pinned() {
    let query = golden_query();
    let input = query.input_state(None);
    assert_eq!(input.num_paths(), 64);
    let full = (0x3fd8_81aa_aaaa_aaab, 0x3fb1_c2e9_41c8_1ead);
    let reduced = (0x3fe0_638a_aaaa_aaab, 0x3faf_95e0_57d4_f2ce);
    assert_eq!(estimates(&query, &input), [full, reduced]);
}
