//! `perfbench --workload NAME|all --seed N --seconds N --trace 0|1`
//!
//! Runs one workload (or each in its own process with `all`), prints the
//! run's stamp, notes and every metric as `name value unit` lines, and
//! ends with one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer ones. Exits non-zero when any answer fails the
//! correctness gate.

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use perfbench::run::{self, Report};
use perfbench::workload::{Inputs, Kind};
use qram_service::TelemetryRecorder;
use qram_telemetry::{fnv1a_64, host_wall};

const USAGE: &str =
    "usage: perfbench --workload noisy-batch|churn-open|fleet-overload|all [--seed N] [--seconds N] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?,
            "--seed" => parsed.seed = number(value()?)?,
            "--seconds" => parsed.seconds = number(value()?)?,
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.workload != "all" && Kind::parse(&parsed.workload).is_none() {
        return Err(format!("unknown workload `{}`", parsed.workload));
    }
    Ok(parsed)
}

/// One-minute load average when the run started.
fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The commit the benchmark was built from, when it sits in a git
/// checkout.
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |c| c.trim().to_string())
}

/// Runs every workload in a process of its own, so each reports its own
/// peak RSS.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for kind in Kind::ALL {
        let status = Command::new(&exe)
            .args(["--workload", kind.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.violations.count == 0,
        report.attempted,
        report.violations.count,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let process_start = host_wall();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let kind = Kind::parse(&args.workload).expect("validated by parse_args");
    let load = loadavg();

    // Set-up: plan the spec mix, generate every traffic sample, build the
    // program. The first round counts from process start; untraced runs
    // time further rounds between their passes.
    let setup = |start: Instant| {
        let samples = Inputs::samples(kind, args.seed, kind.requests());
        let target = samples[0].target(1, |_| TelemetryRecorder::new());
        let seconds = start.elapsed().as_secs_f64();
        drop(target);
        (samples, seconds)
    };
    let (samples, first_setup_s) = setup(process_start);

    let seconds = args.seconds as f64;
    let report = if args.trace {
        let out = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}.jsonl", kind.name()));
        run::traced(&samples, seconds, &out)
    } else {
        run::untraced(&samples, seconds, first_setup_s, || setup(host_wall()).1)
    };

    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# stamp nproc={} loadavg_start={load} executor_workers=1 rustc=\"{}\" commit={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env!("PERFBENCH_RUSTC"),
        commit()
    );
    // Sample 0's digest is comparable between untraced and traced runs
    // (the traced pass serves it); `all` covers every sample when the
    // run served them all.
    let digest = |d: &Option<u64>| d.map_or("-".to_string(), |d| format!("{d:016x}"));
    let all = report.digests.iter().all(Option::is_some).then(|| {
        fnv1a_64(
            report
                .digests
                .iter()
                .flat_map(|d| d.unwrap_or(0).to_le_bytes()),
        )
    });
    println!(
        "# results_digest sample0={} all={}",
        digest(report.digests.first().unwrap_or(&None)),
        digest(&all)
    );
    for note in &report.notes {
        println!("# {note}");
    }
    for violation in &report.violations.first {
        println!("# VIOLATION {violation}");
    }
    for m in &report.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(&report));
    if report.violations.count == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
