//! Golden bit-identity pins for the simulator's numerical output and
//! the bytes of the JSON reports.
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
//!
//! The report pins (fnv1a-64 digest and byte length of the capacity
//! planner's frontier, a span-log and metrics export, the bench summary
//! and the serving sweep and per-architecture rows) were captured from
//! the per-site hand-written emitters, before they moved onto the shared
//! `qram_telemetry::json` writer; any change to them is a change to the
//! bytes a report consumer reads.

use qram::core::{QueryArchitecture, QueryCircuit, VirtualQram};
use qram::noise::{FaultSampler, NoiseModel, PauliChannel};
use qram::plan::{planned_families, UNLIMITED_BUDGET};
use qram::service::{
    assign_specs_with, CostModel, QramService, QueryResult, QuerySpec, ServiceConfig, SpecMix,
    Workload,
};
use qram::sim::{run_shots_stats, Amplitude, PathState, ShotConfig, ShotStats};
use qram::telemetry::json;
use qram::telemetry::{fnv1a_64, TelemetryRecorder};
use qram_bench::report::{
    speedup_summary, summary_json, BenchRecord, ServeArchPoint, ServeLoadPoint,
};
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

/// The pin of one emitted JSON report: its fnv1a-64 digest and byte
/// length.
fn pin(json: &str) -> (u64, usize) {
    (fnv1a_64(json.bytes()), json.len())
}

/// The frontier report `plan_report --width 4 --qubit-budget 64
/// --shots 2` prints.
#[test]
fn frontier_report_bytes_are_pinned() {
    let json = qram::plan::frontier_json(4, 64, CostModel::default(), 2);
    assert_eq!(pin(&json), (0x3ca2_875d_916b_134e, 497));
}

/// A small traced closed-mode run: 48 zipfian requests over two
/// virtual-QRAM specs at width 4, 4 shots each.
fn traced_closed_run() -> QramService<TelemetryRecorder> {
    let memory = qram::core::Memory::random(4, &mut StdRng::seed_from_u64(3));
    let config = ServiceConfig::default()
        .with_shots(4)
        .with_seed(7)
        .with_workers(1)
        .with_cache_capacity(1);
    let specs = [QuerySpec::new(1, 3), QuerySpec::new(2, 2)];
    let addresses = Workload::Zipfian {
        address_width: 4,
        theta: 0.99,
        seed: 7,
    };
    let mut service = QramService::with_recorder(memory, config, TelemetryRecorder::new());
    service.submit_all(assign_specs_with(
        &addresses,
        &specs,
        SpecMix::RoundRobin,
        48,
    ));
    service.drain();
    service
}

#[test]
fn trace_and_metrics_export_bytes_are_pinned() {
    let service = traced_closed_run();
    let recorder = service.recorder();
    assert_eq!(
        pin(&recorder.tracer().to_json("")),
        (0xd6bf_0a74_3a98_9bb8, 14892)
    );
    assert_eq!(
        pin(&recorder.tracer().to_json("      ")),
        (0x6127_439b_f57c_1088, 15792)
    );
    assert_eq!(
        pin(&recorder.metrics().to_json("  ")),
        (0x2db2_3020_386c_5223, 633)
    );
}

/// Fixed bench records: both speedup pairs plus a label carrying a `"`
/// and a `\`, which the summary must escape.
fn bench_records() -> Vec<BenchRecord> {
    let record = |name: &str, mean_ns, iters| BenchRecord {
        name: name.into(),
        mean_ns,
        iters,
    };
    vec![
        record("path_engine/chunked", 2_000.25, 10),
        record("path_engine/serial", 6_000.5, 10),
        record("quote\"and\\slash", 7.0, 3),
        record("shot_engine/serial", 4_000.0, 12),
        record("shot_engine/sharded", 1_234.567, 12),
    ]
}

#[test]
fn bench_summary_bytes_are_pinned() {
    let records = bench_records();
    let shot = speedup_summary(&records, "shot_engine/serial", "shot_engine/sharded").unwrap();
    let path = speedup_summary(&records, "path_engine/serial", "path_engine/chunked").unwrap();
    let with = summary_json(&records, Some(&shot), Some(&path), 8);
    assert_eq!(pin(&with), (0x6032_c834_1109_0645, 589));
    let without = summary_json(&records, None, None, 1);
    assert_eq!(pin(&without), (0xcc3b_9aa9_d44f_269e, 475));
}

#[test]
fn serve_sweep_and_arch_rows_bytes_are_pinned() {
    let load = |load_factor: f64| ServeLoadPoint {
        offered_rps: 1_000.0 * load_factor,
        load_factor,
        offered: 512,
        completed: 400,
        shed: 112,
        achieved_rps: 500.55,
        latency_ns: [1_000.4, 2_000.5, 9_000.6, 12_000.0],
        mean_queue_wait_ns: 700.25,
        mean_compile_ns: 12.5,
        mean_execute_ns: 300.0,
        cache_hit_rate: 0.93755,
    };
    let sweep = json::rows(
        [load(0.5), load(2.0)].iter().map(ServeLoadPoint::to_json),
        "  ",
    );
    assert_eq!(pin(&sweep), (0xf2bf_e021_5a96_46f3, 583));
    let arch = |arch: &str, batches| ServeArchPoint {
        arch: arch.into(),
        requests: 128,
        virtual_rps: 2_500.0,
        latency_ns: [1_000.0, 2_000.0, 4_000.0, 5_000.0],
        mean_execute_ns: 750.5,
        batches,
        compiled: 2,
    };
    let per_arch = [arch("bucket_brigade", 8), arch("virtual", 3)];
    let per_arch = json::rows(per_arch.iter().map(ServeArchPoint::to_json), "  ");
    assert_eq!(pin(&per_arch), (0x05e4_5c7e_318a_3156, 439));
}
