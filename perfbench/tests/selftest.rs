//! Self-tests of the benchmark: determinism of what it reports, the
//! host window it times, and the correctness gate it applies.

use perfbench::check::check_pass;
use perfbench::replay::replay;
use perfbench::run::untraced;
use perfbench::serve::{run_pass, Pass};
use perfbench::trace::Tracer;
use perfbench::workload::{Inputs, Kind, Target};
use qram_service::{NoopRecorder, TelemetryRecorder};
use qram_telemetry::host_wall;

/// Small passes keep the suite fast in unoptimized builds.
fn small(kind: Kind) -> usize {
    match kind {
        Kind::NoisyBatch => 40,
        _ => 600,
    }
}

fn pass(inputs: &Inputs, probe: bool) -> (Pass, Target<TelemetryRecorder>) {
    let mut target = inputs.target(1, |_| TelemetryRecorder::new());
    let pass = run_pass(inputs, &mut target, host_wall(), probe);
    (pass, target)
}

const VIRTUAL: [&str; 5] = [
    "virtual_rps",
    "virtual_p50_us",
    "virtual_p99_us",
    "slo_met_frac",
    "served_frac",
];

#[test]
fn same_seed_runs_report_identical_virtual_metrics_and_digests() {
    for kind in Kind::ALL {
        let run = || {
            let samples = Inputs::samples(kind, 11, small(kind));
            untraced(&samples, 0.0, 0.0, || 0.0)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.violations.count, 0, "{kind:?}: {:?}", a.violations.first);
        assert!(a.digests.iter().all(Option::is_some), "{kind:?}");
        assert_eq!(a.digests, b.digests, "{kind:?}");
        for name in VIRTUAL {
            let value = |r: &perfbench::run::Report| {
                r.metrics.iter().find(|m| m.name == name).expect(name).value
            };
            assert_eq!(value(&a).to_bits(), value(&b).to_bits(), "{kind:?} {name}");
        }
        // Another seed is another traffic sample.
        let other = untraced(&Inputs::samples(kind, 12, small(kind)), 0.0, 0.0, || 0.0);
        assert_ne!(a.digests, other.digests, "{kind:?}");
    }
}

#[test]
fn host_window_contains_every_timed_call() {
    for kind in Kind::ALL {
        let inputs = Inputs::generate(kind, 3, small(kind));
        let (pass, _) = pass(&inputs, false);
        let calls: u64 = pass.calls.iter().map(|c| c.ns()).sum();
        assert!(
            pass.window_ns() >= calls,
            "{kind:?}: window {} < calls {calls}",
            pass.window_ns()
        );
        // Calls are sequential: none overlaps the one before it, and the
        // window ends with the call that returned the last results.
        for pair in pass.calls.windows(2) {
            assert!(pair[1].start_ns >= pair[0].end_ns, "{kind:?}");
        }
        assert_eq!(pass.calls.len(), inputs.offers.len() + 1, "{kind:?}");
    }
}

#[test]
fn probing_and_telemetry_do_not_perturb_results() {
    for kind in Kind::ALL {
        let inputs = Inputs::generate(kind, 5, small(kind));
        let (plain, _) = pass(&inputs, false);
        let (probed, _) = pass(&inputs, true);
        let mut target = inputs.target(1, |_| NoopRecorder);
        let quiet = run_pass(&inputs, &mut target, host_wall(), false);
        let mut target = inputs.target(2, |_| TelemetryRecorder::new());
        let two = run_pass(&inputs, &mut target, host_wall(), false);
        assert_eq!(plain.digest, probed.digest, "{kind:?}");
        assert_eq!(plain.digest, quiet.digest, "{kind:?}");
        assert_eq!(plain.digest, two.digest, "{kind:?}");
        assert!(probed.calls.iter().any(|c| c.fired), "{kind:?}");
    }
}

#[test]
fn replay_reproduces_every_served_answer() {
    for kind in Kind::ALL {
        let inputs = Inputs::generate(kind, 9, small(kind));
        let (pass, target) = pass(&inputs, true);
        let mut tracer = Tracer::new();
        let replayed = replay(&inputs, &target, &pass.served, &mut tracer);
        assert_eq!(
            replayed.violations.count, 0,
            "{kind:?}: {:?}",
            replayed.violations.first
        );
        assert!(!replayed.misses.is_empty(), "{kind:?}");
        let readouts = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "sim.readout")
            .count();
        assert_eq!(readouts, pass.served.len(), "{kind:?}");
        if kind == Kind::NoisyBatch {
            assert!(replayed.shots.gate_applications > 0);
        }
    }
}

#[test]
fn gate_flags_wrong_values_broken_latency_and_lost_requests() {
    let inputs = Inputs::generate(Kind::ChurnOpen, 4, small(Kind::ChurnOpen));
    let (good, _) = pass(&inputs, false);
    assert_eq!(check_pass(&inputs, &good).count, 0);

    let mut wrong = good.clone();
    wrong.served[0].value = !wrong.served[0].value;
    assert_eq!(check_pass(&inputs, &wrong).count, 1);

    let mut late = good.clone();
    late.served[1].completed += 1;
    assert_eq!(check_pass(&inputs, &late).count, 1);

    let mut lost = good.clone();
    lost.served.pop();
    // Conservation breaks and the request is missing.
    assert_eq!(check_pass(&inputs, &lost).count, 2);

    let mut twice = good;
    let again = twice.served[2].clone();
    twice.served.push(again);
    assert!(check_pass(&inputs, &twice).count >= 1);
}
