//! The two kinds of run: an untraced run that yields the end-to-end
//! metrics, and a traced run that yields the per-layer metrics.

use std::hint::black_box;

use qram_bench::report::percentile;
use qram_service::{NoopRecorder, Recorder, TelemetryRecorder};
use qram_telemetry::{host_wall, key};

use crate::check::{check_pass, Violations};
use crate::replay::replay;
use crate::serve::{run_pass, CallKind, Pass};
use crate::trace::Tracer;
use crate::workload::{Inputs, Target};

/// Fewest passes a run measures, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Served requests an untraced run replays for its bit-identity check.
const SPOT_CHECK: usize = 64;

/// One named measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Requests offered over every pass of the run.
    pub attempted: u64,
    /// Everything the correctness gate found.
    pub violations: Violations,
    /// The metrics the run's mode reports.
    pub metrics: Vec<Metric>,
    /// Context lines printed above the metrics.
    pub notes: Vec<String>,
    /// The first results digest of each traffic sample the run served.
    pub digests: Vec<Option<u64>>,
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// A run's host figure from its per-pass figures: the slower tenth of
/// passes (10th percentile of rates, 90th of latencies). On a host
/// shared with other tenants the passes fall into a busy baseline and
/// intermittent faster bursts whose share varies from run to run; the
/// slower decile sits inside the baseline and so repeats across runs
/// (IQR/median over ten runs ≤ 0.10, against ≤ 0.28 for the median).
fn sustained_rate(rates: &[f64]) -> f64 {
    percentile(rates, 10.0)
}

fn sustained_latency(latencies: &[f64]) -> f64 {
    percentile(latencies, 90.0)
}

/// Builds a fresh program with `workers` executor threads, serves one
/// untraced pass, and gates it.
fn measured_pass<R: Recorder>(
    inputs: &Inputs,
    workers: usize,
    mk: impl FnMut(usize) -> R,
    report: &mut Report,
) -> (Pass, Target<R>) {
    let mut target = inputs.target(workers, mk);
    let pass = run_pass(inputs, &mut target, host_wall(), false);
    report.attempted += pass.offered;
    report.violations.extend(check_pass(inputs, &pass));
    (pass, target)
}

/// The first results digest seen for each traffic sample; every later
/// pass over the same sample must reproduce it.
struct Digests(Vec<Option<u64>>);

impl Digests {
    fn new(samples: usize) -> Self {
        Digests(vec![None; samples])
    }

    /// Records or compares `pass`'s digest; true when it is the first.
    fn note(&mut self, report: &mut Report, sample: usize, pass: &Pass, what: &str) -> bool {
        match self.0[sample] {
            None => {
                self.0[sample] = Some(pass.digest);
                true
            }
            Some(reference) => {
                if pass.digest != reference {
                    report.violations.push(format!(
                        "results digest {:016x} of a {what} over sample {sample} differs from {reference:016x}",
                        pass.digest
                    ));
                }
                false
            }
        }
    }
}

/// Modeled (virtual-clock) door-to-done figures, pooled over the
/// first pass of every traffic sample.
#[derive(Debug, Default)]
struct VirtualPool {
    totals: Vec<f64>,
    offered: u64,
    served: u64,
    shed: u64,
    met: u64,
    span_ns: u64,
}

impl VirtualPool {
    fn add(&mut self, inputs: &Inputs, pass: &Pass) {
        let limit = inputs.kind.slo_limit();
        let first = inputs.offers.first().map_or(0, |o| o.arrival);
        let last = pass
            .served
            .iter()
            .map(|r| r.completed)
            .max()
            .unwrap_or(first);
        self.totals
            .extend(pass.served.iter().map(|r| r.total() as f64));
        self.offered += pass.offered;
        self.served += pass.served.len() as u64;
        self.shed += pass.shed;
        self.met += pass.served.iter().filter(|r| r.total() <= limit).count() as u64;
        self.span_ns += last - first;
    }

    fn frac(&self, count: u64) -> f64 {
        count as f64 / self.offered.max(1) as f64
    }
}

/// Peak resident set of this process (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The untraced run: fresh-program passes cycling over the traffic
/// samples until `seconds` have passed (at least one pass per sample),
/// every pass gated and digest-compared. Before each pass, `setup`
/// times one more set-up round, so the set-up figure samples the whole
/// run as the passes do; `setup_s` is the median of those rounds and
/// `first_setup_s`. Host figures are the slower decile of passes;
/// virtual figures pool every sample. Reports the end-to-end metrics.
pub fn untraced(
    samples: &[Inputs],
    seconds: f64,
    first_setup_s: f64,
    mut setup: impl FnMut() -> f64,
) -> Report {
    let mut report = Report::default();
    let start = host_wall();
    let (mut rps, mut call_p50, mut call_p99) = (Vec::new(), Vec::new(), Vec::new());
    let mut digests = Digests::new(samples.len());
    let mut pool = VirtualPool::default();
    let mut setups = vec![first_setup_s];
    while rps.len() < samples.len().max(MIN_PASSES) || start.elapsed().as_secs_f64() < seconds {
        setups.push(setup());
        let sample = rps.len() % samples.len();
        let inputs = &samples[sample];
        let (pass, target) = measured_pass(inputs, 1, |_| TelemetryRecorder::new(), &mut report);
        rps.push(pass.host_rps());
        let calls: Vec<f64> = pass.calls.iter().map(|c| c.ns() as f64).collect();
        call_p50.push(percentile(&calls, 50.0));
        call_p99.push(percentile(&calls, 99.0));
        if digests.note(&mut report, sample, &pass, "pass") {
            pool.add(inputs, &pass);
            if sample == 0 {
                // A bit-identity spot check of the first answers, off the record.
                let prefix = &pass.served[..SPOT_CHECK.min(pass.served.len())];
                let spot = replay(inputs, &target, prefix, &mut Tracer::new());
                report.violations.extend(spot.violations);
            }
        }
    }
    report.digests = digests.0;
    report.notes.push(format!(
        "{} passes over {} traffic samples x {} offers; limit {} virtual ns",
        rps.len(),
        samples.len(),
        samples[0].offers.len(),
        samples[0].kind.slo_limit()
    ));
    for (name, values, scale) in [
        ("host_rps", &rps, 1.0),
        ("host_call_p50_us", &call_p50, 1e-3),
        ("host_call_p99_us", &call_p99, 1e-3),
    ] {
        let q: Vec<String> = [10.0, 25.0, 50.0, 75.0, 90.0]
            .iter()
            .map(|&p| format!("p{p} {}", percentile(values, p) * scale))
            .collect();
        report
            .notes
            .push(format!("per-pass {name} {}", q.join(" ")));
    }
    report.notes.push(format!(
        "shed_frac {} ratio; error_frac {} ratio",
        pool.frac(pool.shed),
        report.violations.count as f64 / report.attempted.max(1) as f64,
    ));
    let m = |name, value, unit| Metric { name, value, unit };
    report.metrics = vec![
        m("host_rps", sustained_rate(&rps), "1/s"),
        m("host_call_p50_us", sustained_latency(&call_p50) / 1e3, "us"),
        m("host_call_p99_us", sustained_latency(&call_p99) / 1e3, "us"),
        m(
            "virtual_rps",
            pool.served as f64 * 1e9 / pool.span_ns.max(1) as f64,
            "1/s",
        ),
        m("virtual_p50_us", percentile(&pool.totals, 50.0) / 1e3, "us"),
        m("virtual_p99_us", percentile(&pool.totals, 99.0) / 1e3, "us"),
        m("slo_met_frac", pool.frac(pool.met), "ratio"),
        m("served_frac", pool.frac(pool.served), "ratio"),
        m("setup_s", median(&setups), "s"),
        m("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    report
}

/// Host ns the program's telemetry takes to export what it recorded:
/// every recorder's span log and metrics as JSON, plus their digests.
fn export_ns(recorders: &[&TelemetryRecorder]) -> u64 {
    let start = host_wall();
    for r in recorders {
        black_box(r.tracer().to_json(""));
        black_box(r.trace_digest());
        black_box(r.metrics().to_json(""));
        black_box(r.metrics_digest());
    }
    start.elapsed().as_nanos() as u64
}

/// The traced run: rounds of four passes over one traffic sample —
/// telemetry on, telemetry off, two executor workers, and probed (fire
/// detection between calls) — until `seconds` have passed, each
/// comparison taken as the median of its per-round ratios or
/// differences. The first round's probed pass is the traced pass: its
/// calls become spans and its work is replayed layer by layer. Reports
/// the per-layer metrics.
pub fn traced(samples: &[Inputs], seconds: f64, trace_out: &std::path::Path) -> Report {
    let mut report = Report::default();
    let start = host_wall();
    let per_req = |p: &Pass| p.window_ns() as f64 / p.served.len().max(1) as f64;
    let mut digests = Digests::new(samples.len());
    let mut tracer = Tracer::new();
    let mut traced = None;
    let (mut telemetry_ns, mut speedup, mut trace_cost) = (Vec::new(), Vec::new(), Vec::new());
    while trace_cost.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let round = trace_cost.len();
        let sample = round % samples.len();
        let inputs = &samples[sample];
        let (on, _) = measured_pass(inputs, 1, |_| TelemetryRecorder::new(), &mut report);
        digests.note(&mut report, sample, &on, "pass");
        let (off, _) = measured_pass(inputs, 1, |_| NoopRecorder, &mut report);
        digests.note(&mut report, sample, &off, "telemetry-off pass");
        let (two, _) = measured_pass(inputs, 2, |_| TelemetryRecorder::new(), &mut report);
        digests.note(&mut report, sample, &two, "two-worker pass");
        let mut target = inputs.target(1, |_| TelemetryRecorder::new());
        let clock = if round == 0 {
            tracer.origin()
        } else {
            host_wall()
        };
        let probed = run_pass(inputs, &mut target, clock, true);
        report.attempted += probed.offered;
        report.violations.extend(check_pass(inputs, &probed));
        digests.note(&mut report, sample, &probed, "traced pass");
        telemetry_ns.push(per_req(&on) - per_req(&off));
        speedup.push(two.host_rps() / on.host_rps());
        trace_cost.push(1.0 - probed.host_rps() / on.host_rps());
        if round == 0 {
            traced = Some((probed, target));
        }
    }
    report.digests = digests.0;
    let (pass, target) = traced.expect("at least one round ran");
    let inputs = &samples[0];

    // The traced pass's calls as spans under a `pass` root, then its
    // work replayed layer by layer under a `replay` root.
    let first = pass.calls.first().map_or(0, |c| c.start_ns);
    let last = pass.calls.last().map_or(0, |c| c.end_ns);
    let root = tracer.record("pass", None, None, (first, last));
    for call in &pass.calls {
        let name = match call.kind {
            CallKind::Submit => "call.submit",
            CallKind::Drain => "call.drain",
        };
        tracer.record(name, Some(root), call.seq, (call.start_ns, call.end_ns));
    }
    let replayed = replay(inputs, &target, &pass.served, &mut tracer);
    report.violations.extend(replayed.violations.clone());

    let mut recorders: Vec<&TelemetryRecorder> =
        target.shards().iter().map(|s| s.recorder()).collect();
    if let Target::Fleet(fleet) = &target {
        recorders.push(fleet.recorder());
    }
    let export = export_ns(&recorders);
    let program_spans: usize = recorders.iter().map(|r| r.tracer().len()).sum();

    if let Err(e) = std::fs::create_dir_all(trace_out.parent().unwrap_or(trace_out))
        .and_then(|_| std::fs::write(trace_out, tracer.to_json_lines()))
    {
        report.notes.push(format!("trace not written: {e}"));
    } else {
        report.notes.push(format!(
            "{} bench spans written to {}",
            tracer.spans().len(),
            trace_out.display()
        ));
    }
    report.notes.push(format!(
        "traced pass over sample 0: {} offered, {} served, results_digest {:016x}",
        pass.offered,
        pass.served.len(),
        pass.digest
    ));

    report.metrics = layer_metrics(&LayerInputs {
        inputs,
        pass: &pass,
        target: &target,
        tracer: &tracer,
        replayed: &replayed,
        telemetry_ns_per_req: median(&telemetry_ns),
        parallel_speedup: median(&speedup),
        trace_overhead: median(&trace_cost),
        export_ns: export,
        program_spans,
    });
    report
}

struct LayerInputs<'a> {
    inputs: &'a Inputs,
    pass: &'a Pass,
    target: &'a Target<TelemetryRecorder>,
    tracer: &'a Tracer,
    replayed: &'a crate::replay::Replay,
    telemetry_ns_per_req: f64,
    parallel_speedup: f64,
    trace_overhead: f64,
    export_ns: u64,
    program_spans: usize,
}

/// Per-layer figures of the traced pass. Replayed layers are measured
/// directly; the service's admission share, the executor's firing
/// overhead and the fleet's control plane are what the timed calls
/// spent beyond the replayed work.
fn layer_metrics(l: &LayerInputs<'_>) -> Vec<Metric> {
    let pass = l.pass;
    let completed = pass.served.len().max(1) as f64;
    let totals = l.tracer.totals();
    let layer = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per_req = |name: &str| layer(name).self_ns as f64 / completed;
    let per_call = |name: &str| {
        let t = layer(name);
        t.self_ns as f64 / t.count.max(1) as f64
    };
    let replay_ns: u64 = [
        "compiler.compile",
        "verify.verify",
        "noise.sampler_build",
        "sim.readout",
        "sim.shots",
    ]
    .iter()
    .map(|n| layer(n).self_ns)
    .sum();
    let route_ns = layer("fleet.route").self_ns;

    let call_ns = |kind: CallKind| -> u64 {
        pass.calls
            .iter()
            .filter(|c| c.kind == kind)
            .map(|c| c.ns())
            .sum()
    };
    let all_calls_ns = call_ns(CallKind::Submit) + call_ns(CallKind::Drain);
    let quiet: Vec<u64> = pass
        .calls
        .iter()
        .filter(|c| !c.fired)
        .map(|c| c.ns())
        .collect();
    let quiet_mean = quiet.iter().sum::<u64>() as f64 / quiet.len().max(1) as f64;
    let firing: Vec<u64> = pass
        .calls
        .iter()
        .filter(|c| c.fired)
        .map(|c| c.ns())
        .collect();

    let fleet = match l.target {
        Target::Fleet(fleet) => Some(fleet),
        Target::Service(_) => None,
    };
    // Telemetry is charged to firing calls, where the program records
    // nearly all of it (batch, compile, queue-wait and execute spans).
    let telemetry_total = l.telemetry_ns_per_req * completed;
    let (executor_per_fire, admission_ns, control_ns) = match fleet {
        // Firing-call time beyond the replayed work, the telemetry, and
        // the admission cost every call pays.
        None => {
            let residual = firing.iter().sum::<u64>() as f64
                - replay_ns as f64
                - telemetry_total
                - firing.len() as f64 * quiet_mean;
            (
                residual / firing.len().max(1) as f64,
                pass.calls.len() as f64 * quiet_mean,
                0.0,
            )
        }
        // Fleet time beyond the replayed shard work, routing and telemetry.
        Some(_) => (
            0.0,
            0.0,
            all_calls_ns as f64 - replay_ns as f64 - route_ns as f64 - telemetry_total,
        ),
    };
    let layer_sum = replay_ns as f64
        + route_ns as f64
        + telemetry_total
        + admission_ns
        + executor_per_fire * firing.len() as f64
        + control_ns;
    let window = pass.window_ns() as f64;

    let shards = l.target.shards();
    let (hits, lookups, evictions) = shards.iter().fold((0, 0, 0), |(h, n, e), s| {
        let c = s.cache_stats();
        (h + c.hits, n + c.lookups, e + c.evictions)
    });
    let queue_waits: Vec<f64> = pass
        .served
        .iter()
        .map(|r| r.latency.queue_wait as f64)
        .collect();
    let front_waits: Vec<f64> = pass.served.iter().map(|r| r.front_wait as f64).collect();
    let gates = l.replayed.shots.gate_applications;
    let fleet_only = |v: f64| if fleet.is_some() { v } else { 0.0 };

    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("sim.shots_ns_per_req", per_req("sim.shots"), "ns"),
        m(
            "sim.ns_per_gate_application",
            layer("sim.shots").self_ns as f64 / gates.max(1) as f64,
            "ns",
        ),
        m(
            "sim.gate_applications_per_req",
            gates as f64 / completed,
            "count",
        ),
        m("sim.readout_ns_per_req", per_req("sim.readout"), "ns"),
        m(
            "noise.sampler_build_ns",
            per_call("noise.sampler_build"),
            "ns",
        ),
        m(
            "noise.sampler_builds",
            layer("noise.sampler_build").count as f64,
            "count",
        ),
        m("compiler.misses", l.replayed.misses.len() as f64, "count"),
        m("compiler.compile_ns", per_call("compiler.compile"), "ns"),
        m(
            "compiler.compile_ns_per_req",
            per_req("compiler.compile"),
            "ns",
        ),
        m("verify.verify_ns", per_call("verify.verify"), "ns"),
        m("verify.verify_ns_per_req", per_req("verify.verify"), "ns"),
        m(
            "cache.hit_rate",
            hits as f64 / lookups.max(1) as f64,
            "ratio",
        ),
        m("cache.evictions", evictions as f64, "count"),
        m(
            "service.submit_ns_per_req",
            call_ns(CallKind::Submit) as f64 / completed,
            "ns",
        ),
        m(
            "service.drain_ns_per_req",
            call_ns(CallKind::Drain) as f64 / completed,
            "ns",
        ),
        m("service.nonfiring_call_ns", quiet_mean, "ns"),
        m(
            "scheduler.batches_fired",
            l.replayed.batches as f64,
            "count",
        ),
        m(
            "scheduler.batch_size_mean",
            l.replayed.batched_requests as f64 / l.replayed.batches.max(1) as f64,
            "count",
        ),
        m(
            "scheduler.queue_wait_p99_us",
            percentile(&queue_waits, 99.0) / 1e3,
            "us",
        ),
        m("executor.overhead_ns_per_fire", executor_per_fire, "ns"),
        m("executor.parallel_speedup", l.parallel_speedup, "ratio"),
        m(
            "fleet.submit_ns_per_req",
            fleet_only(call_ns(CallKind::Submit) as f64 / completed),
            "ns",
        ),
        m("fleet.route_ns", per_call("fleet.route"), "ns"),
        m("fleet.control_ns_per_req", control_ns / completed, "ns"),
        m(
            "fleet.replica_cache_wins",
            fleet.map_or(0.0, |f| {
                f.metrics_snapshot().counter(key::FLEET_REPLICA_CACHE_WINS) as f64
            }),
            "count",
        ),
        m(
            "fleet.front_wait_p99_us",
            fleet_only(percentile(&front_waits, 99.0) / 1e3),
            "us",
        ),
        m(
            "telemetry.overhead_ns_per_req",
            l.telemetry_ns_per_req,
            "ns",
        ),
        m(
            "telemetry.spans_per_req",
            l.program_spans as f64 / completed,
            "count",
        ),
        m("telemetry.export_ns", l.export_ns as f64, "ns"),
        m(
            "workload.gen_ns_per_req",
            l.inputs.gen_ns as f64 / pass.offered.max(1) as f64,
            "ns",
        ),
        m("plan.planned_families_ns", l.inputs.plan_ns as f64, "ns"),
        m("bench.traced_ns_per_req", window / completed, "ns"),
        m(
            "bench.unaccounted_frac",
            1.0 - layer_sum / window.max(1.0),
            "ratio",
        ),
        m("bench.trace_overhead_frac", l.trace_overhead, "ratio"),
    ]
}
