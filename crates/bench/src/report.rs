//! Machine-readable bench results: loading, summarising and regression
//! gating.
//!
//! The vendored `criterion` stub writes one JSON file per benchmark to
//! `<target>/bench/` (fields `name`, `mean_ns`, `iters`). This module
//! loads those files, condenses them into the repo-level `BENCH_2.json`
//! summary, and implements the CI regression gate for the shot and path
//! engines: each measured serial/parallel speedup must not regress more
//! than a tolerance against the checked-in baseline
//! (`.github/bench-baseline.json`). The gate is *ratio*-based on purpose —
//! absolute ns vary wildly across runners, the parallel speedup does not.
//!
//! See the `bench_report` binary for the CLI wrapping this module.

use std::path::{Path, PathBuf};

use qram_telemetry::json::{self, quote};
use qram_telemetry::members;

/// One benchmark's result as written by the criterion stub.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Full benchmark label, e.g. `shot_engine/serial`.
    pub name: String,
    /// Mean wall-clock time per iteration in nanoseconds.
    pub mean_ns: f64,
    /// Iterations measured.
    pub iters: u64,
}

/// Extracts a string field from a single-level JSON object. Handles the
/// `\"` and `\\` escapes the criterion stub emits; not a general parser.
fn json_str_field(json: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\"");
    let rest = &json[json.find(&marker)? + marker.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => out.push(chars.next()?),
            '"' => return Some(out),
            c => out.push(c),
        }
    }
    None
}

/// Extracts a numeric field from a single-level JSON object.
fn json_num_field(json: &str, key: &str) -> Option<f64> {
    let marker = format!("\"{key}\"");
    let rest = &json[json.find(&marker)? + marker.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| {
            c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' && !c.is_ascii_digit()
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses one criterion-stub result file.
pub fn parse_record(json: &str) -> Option<BenchRecord> {
    Some(BenchRecord {
        name: json_str_field(json, "name")?,
        mean_ns: json_num_field(json, "mean_ns")?,
        iters: json_num_field(json, "iters")? as u64,
    })
}

/// Walks up from `start` to the first directory containing `Cargo.lock`
/// (the workspace root).
pub fn find_repo_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.lock").exists() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// The directory the criterion stub writes results to:
/// `$CARGO_TARGET_DIR/bench` or `<repo root>/target/bench`.
pub fn bench_results_dir() -> Option<PathBuf> {
    let target = match std::env::var("CARGO_TARGET_DIR") {
        Ok(dir) => PathBuf::from(dir),
        Err(_) => find_repo_root(&std::env::current_dir().ok()?)?.join("target"),
    };
    Some(target.join("bench"))
}

/// Loads every result file in `dir`, sorted by benchmark name.
pub fn load_records(dir: &Path) -> Vec<BenchRecord> {
    let mut records: Vec<BenchRecord> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .filter_map(|e| std::fs::read_to_string(e.path()).ok())
        .filter_map(|json| parse_record(&json))
        .collect();
    records.sort_by(|a, b| a.name.cmp(&b.name));
    records
}

/// The headline numbers of a serial/parallel bench pair: the shot engine
/// (`shot_engine/serial` vs `shot_engine/sharded`, threads = 1 vs all
/// cores), or the path engine's wide-address (`m = 10`) workload
/// (`path_engine/serial` vs `path_engine/chunked`, one path chunk vs one
/// chunk per core, shot threads pinned to 1 in both).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupSummary {
    /// Mean ns/iter of the serial arm.
    pub serial_ns: f64,
    /// Mean ns/iter of the parallel arm.
    pub parallel_ns: f64,
    /// Throughput ratio `serial_ns / parallel_ns`.
    pub speedup: f64,
}

/// Extracts the pair labelled `serial` and `parallel` from `records`;
/// `None` unless both are present with a positive mean.
pub fn speedup_summary(
    records: &[BenchRecord],
    serial: &str,
    parallel: &str,
) -> Option<SpeedupSummary> {
    let mean = |name: &str| {
        records
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.mean_ns)
            .filter(|&ns| ns > 0.0)
    };
    let serial_ns = mean(serial)?;
    let parallel_ns = mean(parallel)?;
    Some(SpeedupSummary {
        serial_ns,
        parallel_ns,
        speedup: serial_ns / parallel_ns,
    })
}

/// Renders the `BENCH_2.json` summary document.
///
/// Both speedup sections (`shot_engine`, `path_speedup`) are only
/// authoritative when `threads_available ≥ 2` — on a single-core machine
/// the parallel arm degenerates to the serial one and the ratios hover
/// near 1.0. CI's multi-core bench runner is the source of truth.
pub fn summary_json(
    records: &[BenchRecord],
    shot_engine: Option<&SpeedupSummary>,
    path_engine: Option<&SpeedupSummary>,
    threads_available: usize,
) -> String {
    // The parallel arm's key names its knob: `sharded_ns`, `chunked_ns`.
    let section = |summary: Option<&SpeedupSummary>, parallel_key| {
        summary.map_or("null".into(), |s| {
            let mut section = members!["serial_ns" => format!("{:.1}", s.serial_ns)];
            section.push(parallel_key, format!("{:.1}", s.parallel_ns));
            section
                .push("speedup", format!("{:.3}", s.speedup))
                .inline()
        })
    };
    let benches = records.iter().map(|r| {
        let mean_ns = format!("{:.1}", r.mean_ns);
        members!["name" => quote(&r.name), "mean_ns" => mean_ns, "iters" => r.iters].inline()
    });
    let summary = members![
        "schema" => quote("qram-bench/bench-summary/v3"),
        "threads_available" => threads_available,
        "shot_engine" => section(shot_engine, "sharded_ns"),
        "path_speedup" => section(path_engine, "chunked_ns"),
        "benches" => json::rows(benches, "  "),
    ];
    format!("{}\n", summary.block(""))
}

/// The `q`-th percentile (`0 ≤ q ≤ 100`) of `values`, by nearest rank on
/// a sorted copy; 0 for empty input. Used for the serving-latency
/// percentiles of `serve_bench`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| {
        a.partial_cmp(b)
            .expect("percentile input must not contain NaN")
    });
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One operating point of the open-loop serving sweep: the service
/// driven at a fixed offered load, measured on the virtual clock.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeLoadPoint {
    /// Offered arrival rate in requests per virtual second.
    pub offered_rps: f64,
    /// `offered_rps / modeled capacity` (1.0 = critically loaded).
    pub load_factor: f64,
    /// Requests offered to admission.
    pub offered: usize,
    /// Requests served to completion.
    pub completed: usize,
    /// Requests shed by back-pressure (bounded queue full).
    pub shed: u64,
    /// Achieved completion rate in requests per virtual second.
    pub achieved_rps: f64,
    /// Virtual-clock end-to-end latency percentiles (ns): p50, p90,
    /// p99, max.
    pub latency_ns: [f64; 4],
    /// Mean virtual ns per request spent queueing (admission wait +
    /// execution-unit stall).
    pub mean_queue_wait_ns: f64,
    /// Mean virtual ns per request spent compiling (0 on cache hits).
    pub mean_compile_ns: f64,
    /// Mean virtual ns per request executing.
    pub mean_execute_ns: f64,
    /// Circuit-cache hit rate at this point.
    pub cache_hit_rate: f64,
}

/// Latency percentiles `[p50, p90, p99, max]` in ns as a one-line JSON
/// object, each rounded to a whole ns.
pub fn latency_json(latency_ns: &[f64; 4]) -> String {
    let [p50, p90, p99, max] = latency_ns.map(|ns| format!("{ns:.0}"));
    members!["p50" => p50, "p90" => p90, "p99" => p99, "max" => max].inline()
}

impl ServeLoadPoint {
    /// Renders the point as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let breakdown = members![
            "queue_wait" => format!("{:.1}", self.mean_queue_wait_ns),
            "compile" => format!("{:.1}", self.mean_compile_ns),
            "execute" => format!("{:.1}", self.mean_execute_ns),
        ];
        members![
            "offered_rps" => format!("{:.1}", self.offered_rps),
            "load_factor" => format!("{:.3}", self.load_factor),
            "offered" => self.offered,
            "completed" => self.completed,
            "shed" => self.shed,
            "achieved_rps" => format!("{:.1}", self.achieved_rps),
            "latency_ns" => latency_json(&self.latency_ns),
            "breakdown_ns" => breakdown.inline(),
            "cache_hit_rate" => format!("{:.4}", self.cache_hit_rate),
        ]
        .inline()
    }
}

/// Per-architecture slice of a serving run: the schema-v3 breakdown
/// `serve_bench` reports for every architecture family a (possibly
/// mixed) workload touched.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArchPoint {
    /// Architecture family tag (`qram_core::ArchSpec::family`).
    pub arch: String,
    /// Requests this family served.
    pub requests: usize,
    /// Completion rate in requests per virtual second over the run's
    /// span.
    pub virtual_rps: f64,
    /// Virtual end-to-end latency percentiles (ns): p50, p90, p99, max.
    pub latency_ns: [f64; 4],
    /// Mean virtual ns executing one request of this family (the
    /// resource-calibrated cost signature).
    pub mean_execute_ns: f64,
    /// Batches fired for this family.
    pub batches: usize,
    /// Batches that paid a compile (circuit-cache misses).
    pub compiled: usize,
}

impl ServeArchPoint {
    /// Batch-level cache hit rate for the family (0 when no batch
    /// fired).
    pub fn batch_hit_rate(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            (self.batches - self.compiled) as f64 / self.batches as f64
        }
    }

    /// Renders the breakdown as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        members![
            "arch" => quote(&self.arch),
            "requests" => self.requests,
            "virtual_rps" => format!("{:.1}", self.virtual_rps),
            "latency_ns" => latency_json(&self.latency_ns),
            "mean_execute_ns" => format!("{:.1}", self.mean_execute_ns),
            "batches" => self.batches,
            "compiled" => self.compiled,
            "batch_hit_rate" => format!("{:.4}", self.batch_hit_rate()),
        ]
        .inline()
    }
}

/// The only `BENCH_SERVE.json` schema the headline readers accept.
pub const SERVE_SCHEMA: &str = "qram-bench/serve-summary/v6";

/// `json` when it is a current serve summary, `None` otherwise.
fn serve_summary(json: &str) -> Option<&str> {
    (json_str_field(json, "schema")? == SERVE_SCHEMA).then_some(json)
}

/// The headline of a `BENCH_SERVE.json` summary: schema, mode,
/// architecture and request count. Returns `None` when the document is
/// not a [`SERVE_SCHEMA`] summary.
pub fn serve_summary_headline(json: &str) -> Option<String> {
    let json = serve_summary(json)?;
    let mode = json_str_field(json, "mode")?;
    let arch = json_str_field(json, "arch")?;
    // Per-point first: an open-mode summary's only top-level count is
    // `requests_per_point` (a bare `"requests"` match would find the
    // per-architecture breakdown's field instead).
    let requests =
        json_num_field(json, "requests_per_point").or_else(|| json_num_field(json, "requests"))?;
    Some(format!(
        "{SERVE_SCHEMA}: mode={mode} arch={arch} requests={requests:.0}"
    ))
}

/// The stage-breakdown headline of a serve summary's `telemetry`
/// section.
pub fn serve_telemetry_headline(json: &str) -> Option<String> {
    let json = serve_summary(json)?;
    let queue_wait = json_num_field(json, "stage_queue_wait_p50_ns")?;
    let compile = json_num_field(json, "stage_compile_p50_ns")?;
    let execute = json_num_field(json, "stage_execute_p50_ns")?;
    let total_p99 = json_num_field(json, "stage_total_p99_ns")?;
    let high_water = json_num_field(json, "queue_depth_high_water")?;
    let trace_digest = json_str_field(json, "trace_digest")?;
    Some(format!(
        "stages p50 queue_wait {:.1} us / compile {:.1} us / execute {:.1} us, \
         total p99 {:.1} us, queue high-water {high_water:.0}, trace {trace_digest}",
        queue_wait / 1e3,
        compile / 1e3,
        execute / 1e3,
        total_p99 / 1e3,
    ))
}

/// The scheduling-policy headline of a serve summary: the release
/// policy the run served under, the planner's qubit budget when one was
/// set, and — for bare open-mode summaries — the head-to-head
/// `policy_compare` deltas at the capacity operating point.
pub fn serve_policy_headline(json: &str) -> Option<String> {
    let json = serve_summary(json)?;
    let policy = json_str_field(json, "release_policy")?;
    let budget = json_num_field(json, "qubit_budget")?;
    let mut line = format!("release policy {policy}");
    if budget > 0.0 {
        line.push_str(&format!(", qubit budget {budget:.0}"));
    }
    if let (Some(p50_oldest), Some(p50_affine), Some(compile_oldest), Some(compile_affine)) = (
        json_num_field(json, "p50_oldest_first_ns"),
        json_num_field(json, "p50_cache_affine_ns"),
        json_num_field(json, "mean_compile_oldest_first_ns"),
        json_num_field(json, "mean_compile_cache_affine_ns"),
    ) {
        line.push_str(&format!(
            "; head-to-head at capacity: p50 {:.1} -> {:.1} us, mean compile {:.2} -> {:.2} us",
            p50_oldest / 1e3,
            p50_affine / 1e3,
            compile_oldest / 1e3,
            compile_affine / 1e3,
        ));
    }
    Some(line)
}

/// The fleet headline of a serve summary: shard count, front-door
/// shed policy, the door-to-completion latency percentiles (front-door
/// wait included), and the interactive p99 under each shed policy at
/// the overload point. Returns `None` for bare (non-fleet) runs, which
/// carry no `fleet_*` keys — the caller just omits the line.
pub fn serve_fleet_headline(json: &str) -> Option<String> {
    let json = serve_summary(json)?;
    let shards = json_num_field(json, "fleet_shards")?;
    let p50 = json_num_field(json, "fleet_p50_ns")?;
    let p99 = json_num_field(json, "fleet_p99_ns")?;
    let policy = json_str_field(json, "fleet_shed_policy")?;
    let tenants = json_num_field(json, "fleet_tenants")?;
    let dp = json_num_field(json, "interactive_p99_deadline_priority_ns")?;
    let td = json_num_field(json, "interactive_p99_tail_drop_ns")?;
    Some(format!(
        "{shards:.0} shards x {tenants:.0} tenants, shed policy {policy}, \
         door-to-done p50 {:.1} us / p99 {:.1} us; \
         interactive p99 at overload: deadline-priority {:.1} vs tail-drop {:.1} us",
        p50 / 1e3,
        p99 / 1e3,
        dp / 1e3,
        td / 1e3,
    ))
}

/// One benchmark whose mean regressed against a saved baseline snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct AbsRegression {
    /// Benchmark label.
    pub name: String,
    /// Current mean ns/iter.
    pub current_ns: f64,
    /// Baseline mean ns/iter.
    pub baseline_ns: f64,
    /// `current_ns / baseline_ns` (always above `1 + tolerance`).
    pub ratio: f64,
}

/// Compares `current` records against a `--save-baseline` snapshot and
/// returns every bench whose mean regressed beyond `tolerance`
/// (`current > baseline · (1 + tolerance)`), sorted worst first.
///
/// Benches present on only one side are ignored — added or removed
/// benchmarks are not regressions. Unlike the ratio gate of
/// [`apply_gate`], this comparison is *absolute* (ns vs ns), so it is
/// only meaningful against a snapshot taken on comparable hardware —
/// which is exactly what CI's cached per-runner baselines are.
pub fn compare_against_baseline(
    current: &[BenchRecord],
    baseline: &[BenchRecord],
    tolerance: f64,
) -> Vec<AbsRegression> {
    let mut regressions: Vec<AbsRegression> = current
        .iter()
        .filter_map(|record| {
            let base = baseline
                .iter()
                .find(|b| b.name == record.name)
                .filter(|b| b.mean_ns > 0.0)?;
            let ratio = record.mean_ns / base.mean_ns;
            (ratio > 1.0 + tolerance).then(|| AbsRegression {
                name: record.name.clone(),
                current_ns: record.mean_ns,
                baseline_ns: base.mean_ns,
                ratio,
            })
        })
        .collect();
    regressions.sort_by(|a, b| b.ratio.partial_cmp(&a.ratio).expect("finite ratios"));
    regressions
}

/// The directory the criterion stub saves `--save-baseline` snapshots
/// under: `<results dir>/baselines/<name>`.
pub fn baseline_snapshot_dir(name: &str) -> Option<PathBuf> {
    Some(bench_results_dir()?.join("baselines").join(name))
}

/// Min-ratchet merge for refreshing an absolute baseline: per bench,
/// keep the *faster* of the current mean and the stored baseline mean.
/// A plain copy-forward would let gradual regressions — each within
/// tolerance — walk the baseline upward run over run and never trip the
/// gate; ratcheting on the minimum pins the best mean ever observed.
/// Benches absent from `current` are dropped (removed benchmarks are
/// not regressions); new benches enter at their measured mean.
pub fn merge_baseline_records(
    current: &[BenchRecord],
    baseline: &[BenchRecord],
) -> Vec<BenchRecord> {
    current
        .iter()
        .map(|record| {
            match baseline
                .iter()
                .find(|b| b.name == record.name)
                .filter(|b| b.mean_ns > 0.0 && b.mean_ns < record.mean_ns)
            {
                Some(faster) => BenchRecord {
                    name: record.name.clone(),
                    mean_ns: faster.mean_ns,
                    iters: faster.iters,
                },
                None => record.clone(),
            }
        })
        .collect()
}

/// Makes a benchmark label safe as a file stem (mirrors the criterion
/// stub's result-file naming, so refreshed snapshots overwrite the
/// stub's own `--save-baseline` files).
fn sanitize_label(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Replaces the snapshot at `dir` with `records`, one result file per
/// bench in the criterion stub's format (readable by [`load_records`]).
///
/// # Errors
///
/// Propagates the first filesystem error.
pub fn write_baseline_snapshot(dir: &Path, records: &[BenchRecord]) -> std::io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    for r in records {
        // The stub's own compact layout, not an inline object.
        let json = format!(
            "{{\"name\":{},\"mean_ns\":{:.3},\"iters\":{}}}\n",
            quote(&r.name),
            r.mean_ns,
            r.iters
        );
        std::fs::write(dir.join(format!("{}.json", sanitize_label(&r.name))), json)?;
    }
    Ok(())
}

/// The checked-in regression baseline for the shot engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Baseline {
    /// Reference serial/sharded speedup on a multi-core runner.
    pub shot_engine_speedup: f64,
    /// Reference serial/chunked path-parallel speedup on a multi-core
    /// runner.
    pub path_speedup: f64,
    /// Allowed relative regression (0.25 = fail below 75% of reference).
    pub tolerance: f64,
}

/// Parses `.github/bench-baseline.json`.
pub fn parse_baseline(json: &str) -> Option<Baseline> {
    Some(Baseline {
        shot_engine_speedup: json_num_field(json, "shot_engine_speedup")?,
        path_speedup: json_num_field(json, "path_speedup")?,
        tolerance: json_num_field(json, "tolerance").unwrap_or(0.25),
    })
}

/// The regression-gate verdict for a run.
#[derive(Debug, Clone, PartialEq)]
pub enum GateOutcome {
    /// Speedup is within tolerance of the baseline.
    Pass {
        /// Measured speedup.
        speedup: f64,
        /// Minimum accepted speedup (`baseline · (1 − tolerance)`).
        floor: f64,
    },
    /// Speedup regressed below the tolerance floor.
    Fail {
        /// Measured speedup.
        speedup: f64,
        /// Minimum accepted speedup (`baseline · (1 − tolerance)`).
        floor: f64,
    },
    /// The gate could not run and is skipped gracefully (no baseline, no
    /// bench results, or a single-core machine where the parallel speedup
    /// is physically unobservable).
    Skip(String),
}

/// Applies the ratio-based regression gate to a serial/parallel pair:
/// its speedup must stay within the baseline's tolerance of
/// `reference(baseline)`, i.e. at least `reference · (1 − tolerance)`.
/// Skips gracefully when there is no baseline, no results for the pair
/// (`pair` names them in the reason), or only one core, where the
/// parallel arm degenerates to the serial one.
pub fn apply_gate(
    pair: &str,
    summary: Option<&SpeedupSummary>,
    baseline: Option<&Baseline>,
    reference: fn(&Baseline) -> f64,
    threads_available: usize,
) -> GateOutcome {
    let Some(baseline) = baseline else {
        return GateOutcome::Skip("no checked-in baseline".into());
    };
    let Some(summary) = summary else {
        return GateOutcome::Skip(format!("no {pair} results"));
    };
    if threads_available < 2 {
        return GateOutcome::Skip(format!(
            "single-core machine ({threads_available} thread available): parallel speedup not observable"
        ));
    }
    let speedup = summary.speedup;
    let floor = reference(baseline) * (1.0 - baseline.tolerance);
    if speedup >= floor {
        GateOutcome::Pass { speedup, floor }
    } else {
        GateOutcome::Fail { speedup, floor }
    }
}

/// Applies the fleet SLO gate over a serve summary's `slo_compare`
/// head-to-head: deadline-priority shedding must not lose to tail-drop
/// on interactive p99 at the overload point — the whole reason the
/// front door exists. The reported "speedup" is
/// `tail_drop_p99 / deadline_priority_p99` against a floor of 1.0, so
/// equality (e.g. a sweep that never shed) passes. Skips gracefully on
/// bare (non-fleet) runs, documents that are not [`SERVE_SCHEMA`]
/// summaries, and sweeps that completed no interactive requests.
pub fn apply_fleet_slo_gate(summary_json: Option<&str>) -> GateOutcome {
    let Some(json) = summary_json else {
        return GateOutcome::Skip("no BENCH_SERVE.json".into());
    };
    if serve_summary(json).is_none() {
        return GateOutcome::Skip("not a recognized serve summary".into());
    }
    let (Some(dp), Some(td)) = (
        json_num_field(json, "interactive_p99_deadline_priority_ns"),
        json_num_field(json, "interactive_p99_tail_drop_ns"),
    ) else {
        return GateOutcome::Skip(
            "summary has no fleet slo_compare section (bare serve run)".into(),
        );
    };
    if dp <= 0.0 || td <= 0.0 {
        return GateOutcome::Skip("slo_compare completed no interactive requests".into());
    }
    let speedup = td / dp;
    let floor = 1.0;
    if speedup >= floor {
        GateOutcome::Pass { speedup, floor }
    } else {
        GateOutcome::Fail { speedup, floor }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stub_record() {
        let json = "{\"name\":\"shot_engine/serial\",\"mean_ns\":1234.500,\"iters\":42}\n";
        let r = parse_record(json).unwrap();
        assert_eq!(r.name, "shot_engine/serial");
        assert_eq!(r.mean_ns, 1234.5);
        assert_eq!(r.iters, 42);
    }

    #[test]
    fn parses_escaped_names_and_whitespace() {
        let json = "{ \"name\" : \"a\\\"b\", \"mean_ns\" : 1e3, \"iters\" : 7 }";
        let r = parse_record(json).unwrap();
        assert_eq!(r.name, "a\"b");
        assert_eq!(r.mean_ns, 1000.0);
    }

    #[test]
    fn rejects_incomplete_records() {
        assert!(parse_record("{\"name\":\"x\"}").is_none());
        assert!(parse_record("{}").is_none());
    }

    fn records() -> Vec<BenchRecord> {
        vec![
            BenchRecord {
                name: "shot_engine/serial".into(),
                mean_ns: 4000.0,
                iters: 10,
            },
            BenchRecord {
                name: "shot_engine/sharded".into(),
                mean_ns: 1000.0,
                iters: 10,
            },
            BenchRecord {
                name: "path_engine/serial".into(),
                mean_ns: 6000.0,
                iters: 10,
            },
            BenchRecord {
                name: "path_engine/chunked".into(),
                mean_ns: 2000.0,
                iters: 10,
            },
        ]
    }

    /// The shot-engine pair, as `bench_report` extracts it.
    fn shot_engine_summary(records: &[BenchRecord]) -> Option<SpeedupSummary> {
        speedup_summary(records, "shot_engine/serial", "shot_engine/sharded")
    }

    /// The path-engine pair, as `bench_report` extracts it.
    fn path_engine_summary(records: &[BenchRecord]) -> Option<SpeedupSummary> {
        speedup_summary(records, "path_engine/serial", "path_engine/chunked")
    }

    /// The shot-engine gate, as `bench_report` applies it.
    fn shot_gate(
        summary: Option<&SpeedupSummary>,
        baseline: Option<&Baseline>,
        threads: usize,
    ) -> GateOutcome {
        let reference = |b: &Baseline| b.shot_engine_speedup;
        apply_gate(
            "shot_engine serial/sharded",
            summary,
            baseline,
            reference,
            threads,
        )
    }

    /// The path-engine gate, as `bench_report` applies it.
    fn path_gate(
        summary: Option<&SpeedupSummary>,
        baseline: Option<&Baseline>,
        threads: usize,
    ) -> GateOutcome {
        let reference = |b: &Baseline| b.path_speedup;
        apply_gate(
            "path_engine serial/chunked",
            summary,
            baseline,
            reference,
            threads,
        )
    }

    #[test]
    fn shot_engine_speedup_is_serial_over_sharded() {
        let s = shot_engine_summary(&records()).unwrap();
        assert_eq!(s.speedup, 4.0);
        assert_eq!((s.serial_ns, s.parallel_ns), (4000.0, 1000.0));
        assert!(shot_engine_summary(&records()[..1]).is_none());
    }

    #[test]
    fn path_engine_speedup_is_serial_over_chunked() {
        let p = path_engine_summary(&records()).unwrap();
        assert_eq!(p.speedup, 3.0);
        // Shot-engine records alone don't produce a path summary.
        assert!(path_engine_summary(&records()[..2]).is_none());
    }

    #[test]
    fn summary_json_is_parseable_by_own_helpers() {
        let recs = records();
        let s = shot_engine_summary(&recs);
        let p = path_engine_summary(&recs);
        let json = summary_json(&recs, s.as_ref(), p.as_ref(), 8);
        assert_eq!(json_num_field(&json, "threads_available"), Some(8.0));
        assert_eq!(json_num_field(&json, "speedup"), Some(4.0));
        assert!(json.contains("\"shot_engine\": {\"serial_ns\": 4000.0, \"sharded_ns\": 1000.0"));
        assert!(json.contains("\"path_speedup\": {\"serial_ns\": 6000.0, \"chunked_ns\": 2000.0"));
        assert!(json.contains("\"name\": \"shot_engine/serial\""));
        // Absent sections render as explicit nulls.
        let empty = summary_json(&[], None, None, 1);
        assert!(empty.contains("\"shot_engine\": null"));
        assert!(empty.contains("\"path_speedup\": null"));
    }

    #[test]
    fn baseline_parses_with_default_tolerance() {
        let b = parse_baseline("{\"shot_engine_speedup\": 2.0, \"path_speedup\": 1.6}").unwrap();
        assert_eq!(b.shot_engine_speedup, 2.0);
        assert_eq!(b.path_speedup, 1.6);
        assert_eq!(b.tolerance, 0.25);
        let b = parse_baseline(
            "{\"shot_engine_speedup\": 3.0, \"path_speedup\": 1.2, \"tolerance\": 0.1}",
        )
        .unwrap();
        assert_eq!(b.path_speedup, 1.2);
        assert_eq!(b.tolerance, 0.1);
        // Both references are required.
        assert!(parse_baseline("{\"shot_engine_speedup\": 2.0}").is_none());
        assert!(parse_baseline("{}").is_none());
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_below() {
        let recs = records();
        let summary = shot_engine_summary(&recs);
        let baseline = Baseline {
            shot_engine_speedup: 2.0,
            path_speedup: 1.6,
            tolerance: 0.25,
        };
        match shot_gate(summary.as_ref(), Some(&baseline), 8) {
            GateOutcome::Pass { speedup, floor } => {
                assert_eq!(speedup, 4.0);
                assert_eq!(floor, 1.5);
            }
            other => panic!("expected pass, got {other:?}"),
        }
        let tight = Baseline {
            shot_engine_speedup: 8.0,
            path_speedup: 1.6,
            tolerance: 0.25,
        };
        assert!(matches!(
            shot_gate(summary.as_ref(), Some(&tight), 8),
            GateOutcome::Fail { .. }
        ));
    }

    #[test]
    fn path_gate_mirrors_the_shot_gate() {
        let recs = records();
        let summary = path_engine_summary(&recs);
        let baseline = Baseline {
            shot_engine_speedup: 2.0,
            path_speedup: 1.6,
            tolerance: 0.25,
        };
        match path_gate(summary.as_ref(), Some(&baseline), 8) {
            GateOutcome::Pass { speedup, floor } => {
                assert_eq!(speedup, 3.0);
                assert!((floor - 1.2).abs() < 1e-12);
            }
            other => panic!("expected pass, got {other:?}"),
        }
        let tight = Baseline {
            path_speedup: 8.0,
            ..baseline
        };
        assert!(matches!(
            path_gate(summary.as_ref(), Some(&tight), 8),
            GateOutcome::Fail { .. }
        ));
        // Skips: no results, single core, no baseline.
        assert_eq!(
            path_gate(None, Some(&baseline), 8),
            GateOutcome::Skip("no path_engine serial/chunked results".into())
        );
        assert!(matches!(
            path_gate(summary.as_ref(), Some(&baseline), 1),
            GateOutcome::Skip(_)
        ));
        assert!(matches!(
            path_gate(summary.as_ref(), None, 8),
            GateOutcome::Skip(_)
        ));
    }

    #[test]
    fn percentile_nearest_rank() {
        let values = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&values, 50.0), 3.0);
        assert_eq!(percentile(&values, 99.0), 5.0);
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.5], 90.0), 7.5);
    }

    #[test]
    fn serve_sweep_json_is_parseable_by_own_helpers() {
        let point = ServeLoadPoint {
            offered_rps: 1000.0,
            load_factor: 2.0,
            offered: 512,
            completed: 400,
            shed: 112,
            achieved_rps: 500.5,
            latency_ns: [1_000.0, 2_000.0, 9_000.0, 12_000.0],
            mean_queue_wait_ns: 700.25,
            mean_compile_ns: 12.5,
            mean_execute_ns: 300.0,
            cache_hit_rate: 0.9375,
        };
        let json = json::rows(
            [point.clone(), point].iter().map(ServeLoadPoint::to_json),
            "  ",
        );
        assert_eq!(json_num_field(&json, "load_factor"), Some(2.0));
        assert_eq!(json_num_field(&json, "shed"), Some(112.0));
        assert_eq!(json_num_field(&json, "p99"), Some(9_000.0));
        assert_eq!(json_num_field(&json, "queue_wait"), Some(700.2));
        assert_eq!(json.matches("achieved_rps").count(), 2);
    }

    #[test]
    fn serve_arch_json_round_trips_and_hit_rate_is_batch_level() {
        let point = ServeArchPoint {
            arch: "bucket_brigade".into(),
            requests: 128,
            virtual_rps: 2_500.0,
            latency_ns: [1_000.0, 2_000.0, 4_000.0, 5_000.0],
            mean_execute_ns: 750.5,
            batches: 8,
            compiled: 2,
        };
        assert!((point.batch_hit_rate() - 0.75).abs() < 1e-12);
        let json = point.to_json();
        assert_eq!(
            json_str_field(&json, "arch").as_deref(),
            Some("bucket_brigade")
        );
        assert_eq!(json_num_field(&json, "requests"), Some(128.0));
        assert_eq!(json_num_field(&json, "batch_hit_rate"), Some(0.75));
        // No batches → defined hit rate of 0, not NaN.
        let idle = ServeArchPoint {
            batches: 0,
            compiled: 0,
            ..point
        };
        assert_eq!(idle.batch_hit_rate(), 0.0);
    }

    #[test]
    fn serve_summary_headline_reads_only_the_current_schema() {
        let closed = "{\"schema\": \"qram-bench/serve-summary/v6\", \"mode\": \"closed\", \
                      \"arch\": \"virtual\", \"requests\": 256}";
        assert_eq!(
            serve_summary_headline(closed).unwrap(),
            "qram-bench/serve-summary/v6: mode=closed arch=virtual requests=256"
        );
        // Open mode counts per point.
        let open = "{\"schema\": \"qram-bench/serve-summary/v6\", \"mode\": \"open\", \
                    \"arch\": \"mix\", \"requests_per_point\": 64}";
        assert_eq!(
            serve_summary_headline(open).unwrap(),
            "qram-bench/serve-summary/v6: mode=open arch=mix requests=64"
        );
        // Older generations and foreign documents are not read.
        let v5 = closed.replace("/v6", "/v5");
        assert!(serve_summary_headline(&v5).is_none());
        assert!(serve_telemetry_headline(&v5).is_none());
        assert!(serve_summary_headline("{\"schema\": \"qram-bench/bench-summary/v2\"}").is_none());
        assert!(serve_summary_headline("{}").is_none());
    }

    #[test]
    fn serve_policy_headline_reads_closed_and_open_summaries() {
        // Closed: policy alone (no compare block, unlimited budget).
        let closed = "{\"schema\": \"qram-bench/serve-summary/v6\", \"mode\": \"closed\", \
                      \"release_policy\": \"oldest-first\", \"qubit_budget\": 0}";
        assert_eq!(
            serve_policy_headline(closed).unwrap(),
            "release policy oldest-first"
        );

        // Open: budget plus the head-to-head deltas.
        let open = "{\"schema\": \"qram-bench/serve-summary/v6\", \"mode\": \"open\", \
                    \"release_policy\": \"cache-affine\", \"qubit_budget\": 64, \
                    \"policy_compare\": {\"compare_load\": 1.00, \
                    \"p50_oldest_first_ns\": 34303, \"p99_oldest_first_ns\": 60000, \
                    \"mean_compile_oldest_first_ns\": 4336.5, \
                    \"p50_cache_affine_ns\": 33150, \"p99_cache_affine_ns\": 59000, \
                    \"mean_compile_cache_affine_ns\": 4090.2}}";
        assert_eq!(
            serve_policy_headline(open).unwrap(),
            "release policy cache-affine, qubit budget 64; head-to-head at capacity: \
             p50 34.3 -> 33.1 us, mean compile 4.34 -> 4.09 us"
        );

        // A v5 summary is not read, nor is a foreign document.
        assert!(serve_policy_headline(&closed.replace("/v6", "/v5")).is_none());
        assert!(serve_policy_headline("{\"schema\": \"qram-bench/bench-summary/v2\"}").is_none());
    }

    #[test]
    fn serve_fleet_headline_tolerates_bare_and_fleet_summaries() {
        // Bare (non-fleet) v6 open run: no fleet_* keys, no fleet line.
        let bare = "{\"schema\": \"qram-bench/serve-summary/v6\", \"mode\": \"open\", \
                    \"arch\": \"virtual\", \"requests_per_point\": 256, \
                    \"release_policy\": \"oldest-first\"}";
        assert!(serve_fleet_headline(bare).is_none());
        assert!(serve_summary_headline(bare).is_some());

        // Fleet v6 run with the slo_compare head-to-head.
        let fleet = "{\"schema\": \"qram-bench/serve-summary/v6\", \"mode\": \"open\", \
                     \"fleet\": {\"fleet_shards\": 4, \"fleet_tenants\": 3, \
                     \"fleet_shed_policy\": \"deadline-priority\", \
                     \"fleet_p50_ns\": 11400, \"fleet_p99_ns\": 140700}, \
                     \"slo_compare\": {\"interactive_p99_deadline_priority_ns\": 206400, \
                     \"interactive_p99_tail_drop_ns\": 258900}}";
        assert_eq!(
            serve_fleet_headline(fleet).unwrap(),
            "4 shards x 3 tenants, shed policy deadline-priority, \
             door-to-done p50 11.4 us / p99 140.7 us; \
             interactive p99 at overload: deadline-priority 206.4 vs tail-drop 258.9 us"
        );

        // Not a serve summary at all.
        assert!(serve_fleet_headline("{\"schema\": \"qram-bench/bench-summary/v2\"}").is_none());
    }

    #[test]
    fn fleet_slo_gate_passes_ties_fails_regressions_and_skips_bare_runs() {
        // Deadline-priority wins: pass, ratio above 1.
        let win = "{\"schema\": \"qram-bench/serve-summary/v6\", \"mode\": \"open\", \
                   \"interactive_p99_deadline_priority_ns\": 200000, \
                   \"interactive_p99_tail_drop_ns\": 250000}";
        match apply_fleet_slo_gate(Some(win)) {
            GateOutcome::Pass { speedup, floor } => {
                assert!(speedup > 1.2 && speedup < 1.3);
                assert_eq!(floor, 1.0);
            }
            other => panic!("expected pass, got {other:?}"),
        }

        // A tie (nothing shed at the compare point) still passes.
        let tie = "{\"schema\": \"qram-bench/serve-summary/v6\", \"mode\": \"open\", \
                   \"interactive_p99_deadline_priority_ns\": 151467, \
                   \"interactive_p99_tail_drop_ns\": 151467}";
        assert!(matches!(
            apply_fleet_slo_gate(Some(tie)),
            GateOutcome::Pass { .. }
        ));

        // Deadline-priority losing to tail-drop is a regression.
        let lose = "{\"schema\": \"qram-bench/serve-summary/v6\", \"mode\": \"open\", \
                    \"interactive_p99_deadline_priority_ns\": 260000, \
                    \"interactive_p99_tail_drop_ns\": 250000}";
        assert!(matches!(
            apply_fleet_slo_gate(Some(lose)),
            GateOutcome::Fail { .. }
        ));

        // Bare runs, foreign documents, and a missing summary all skip.
        let bare = "{\"schema\": \"qram-bench/serve-summary/v6\", \"mode\": \"open\"}";
        assert!(matches!(
            apply_fleet_slo_gate(Some(bare)),
            GateOutcome::Skip(_)
        ));
        assert!(matches!(
            apply_fleet_slo_gate(Some("{\"schema\": \"qram-bench/bench-summary/v2\"}")),
            GateOutcome::Skip(_)
        ));
        assert!(matches!(apply_fleet_slo_gate(None), GateOutcome::Skip(_)));
    }

    #[test]
    fn absolute_comparison_flags_only_regressions_beyond_tolerance() {
        let current = vec![
            BenchRecord {
                name: "a".into(),
                mean_ns: 1600.0,
                iters: 1,
            },
            BenchRecord {
                name: "b".into(),
                mean_ns: 1100.0,
                iters: 1,
            },
            BenchRecord {
                name: "new_bench".into(),
                mean_ns: 9999.0,
                iters: 1,
            },
        ];
        let baseline = vec![
            BenchRecord {
                name: "a".into(),
                mean_ns: 1000.0,
                iters: 1,
            },
            BenchRecord {
                name: "b".into(),
                mean_ns: 1000.0,
                iters: 1,
            },
            BenchRecord {
                name: "removed".into(),
                mean_ns: 1.0,
                iters: 1,
            },
        ];
        let regs = compare_against_baseline(&current, &baseline, 0.5);
        // `a` regressed 1.6x > 1.5x; `b` (1.1x) is within tolerance;
        // benches on only one side are ignored.
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].name, "a");
        assert!((regs[0].ratio - 1.6).abs() < 1e-12);
        // Everything within a looser tolerance passes.
        assert!(compare_against_baseline(&current, &baseline, 0.7).is_empty());
    }

    #[test]
    fn absolute_comparison_sorts_worst_first_and_skips_zero_baselines() {
        let current = vec![
            BenchRecord {
                name: "x".into(),
                mean_ns: 2000.0,
                iters: 1,
            },
            BenchRecord {
                name: "y".into(),
                mean_ns: 3000.0,
                iters: 1,
            },
            BenchRecord {
                name: "z".into(),
                mean_ns: 5000.0,
                iters: 1,
            },
        ];
        let baseline = vec![
            BenchRecord {
                name: "x".into(),
                mean_ns: 1000.0,
                iters: 1,
            },
            BenchRecord {
                name: "y".into(),
                mean_ns: 1000.0,
                iters: 1,
            },
            BenchRecord {
                name: "z".into(),
                mean_ns: 0.0,
                iters: 1,
            },
        ];
        let regs = compare_against_baseline(&current, &baseline, 0.25);
        assert_eq!(
            regs.iter().map(|r| r.name.as_str()).collect::<Vec<_>>(),
            vec!["y", "x"]
        );
    }

    #[test]
    fn baseline_merge_ratchets_on_the_minimum() {
        let current = vec![
            BenchRecord {
                name: "drifted".into(),
                mean_ns: 140.0,
                iters: 5,
            },
            BenchRecord {
                name: "improved".into(),
                mean_ns: 80.0,
                iters: 5,
            },
            BenchRecord {
                name: "brand_new".into(),
                mean_ns: 500.0,
                iters: 5,
            },
        ];
        let baseline = vec![
            BenchRecord {
                name: "drifted".into(),
                mean_ns: 100.0,
                iters: 9,
            },
            BenchRecord {
                name: "improved".into(),
                mean_ns: 100.0,
                iters: 9,
            },
            BenchRecord {
                name: "removed".into(),
                mean_ns: 1.0,
                iters: 9,
            },
        ];
        let merged = merge_baseline_records(&current, &baseline);
        let mean = |name: &str| merged.iter().find(|r| r.name == name).map(|r| r.mean_ns);
        // A within-tolerance drift must NOT advance the baseline…
        assert_eq!(mean("drifted"), Some(100.0));
        // …an improvement must.
        assert_eq!(mean("improved"), Some(80.0));
        // New benches enter at their mean; removed ones are dropped.
        assert_eq!(mean("brand_new"), Some(500.0));
        assert_eq!(mean("removed"), None);
    }

    #[test]
    fn snapshot_round_trips_through_load_records() {
        let dir =
            std::env::temp_dir().join(format!("qram-bench-snapshot-test-{}", std::process::id()));
        let records = vec![
            BenchRecord {
                name: "group/bench m=4".into(),
                mean_ns: 1234.5,
                iters: 42,
            },
            BenchRecord {
                name: "plain".into(),
                mean_ns: 7.0,
                iters: 1,
            },
        ];
        write_baseline_snapshot(&dir, &records).unwrap();
        // Overwriting replaces stale files rather than accumulating.
        write_baseline_snapshot(&dir, &records[..1]).unwrap();
        let loaded = load_records(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0], records[0]);
    }

    #[test]
    fn gate_skips_gracefully() {
        let recs = records();
        let summary = shot_engine_summary(&recs);
        let baseline = Baseline {
            shot_engine_speedup: 2.0,
            path_speedup: 1.6,
            tolerance: 0.25,
        };
        // No baseline checked in.
        assert_eq!(
            shot_gate(summary.as_ref(), None, 8),
            GateOutcome::Skip("no checked-in baseline".into())
        );
        // No shot-engine results.
        assert_eq!(
            shot_gate(None, Some(&baseline), 8),
            GateOutcome::Skip("no shot_engine serial/sharded results".into())
        );
        // Single-core machine: speedup physically unobservable.
        assert!(matches!(
            shot_gate(summary.as_ref(), Some(&baseline), 1),
            GateOutcome::Skip(_)
        ));
    }
}
