//! `serve_bench` — drives the `qram-service` event-driven serving
//! pipeline with a generated workload and reports throughput and
//! virtual-clock latency percentiles into the repo's `BENCH_*.json`
//! pipeline.
//!
//! ```text
//! # closed loop: submit everything, drain, report
//! cargo run --release -p qram-bench --bin serve_bench -- \
//!     --workload zipfian --requests 1000 --shots 8 --seed 7 --threads 2
//! # open loop: Poisson arrivals swept over offered-load multipliers
//! cargo run --release -p qram-bench --bin serve_bench -- \
//!     --mode open --arrivals poisson --load 0.5,1.0,2.0 --threads 2
//! ```
//!
//! Every mode runs through one driver: [`run_point`] serves one
//! operating point through a [`Target`] — a bare service, or a fleet
//! controller under `--fleet` — and one sweep loop calls it once per
//! `--load` multiplier (a closed run is a single point that admits
//! every request through `submit` and finishes with `drain`). One
//! summary writer emits the shared header fields, then each mode's own
//! sections. Batch counts come off each point's span logs: every fired
//! batch records exactly one `Compile` span, whose group names the spec
//! and whose width is the compile charge (above 0 on a cache miss). The
//! run fails unless the `per_arch` counts sum to
//! `telemetry.batches_fired`.
//!
//! Flags (shared flags match the other experiment binaries):
//!
//! * `--full` — paper-scale run (larger memory and request count);
//! * `--arch NAME` — architecture(s) to serve: `virtual` (default),
//!   `sqc`, `fanout`, `bb` (bucket-brigade), `ss` (select-swap), or
//!   `mix` (one spec per family — a mixed-architecture workload through
//!   one service instance, each family at the `(k, m)` split the
//!   offline `qram-plan` capacity planner picks under
//!   `--qubit-budget`). The summary carries a per-architecture
//!   throughput/latency/cache breakdown;
//! * `--shots N` — Monte-Carlo shots per request (0 = noiseless serving);
//! * `--seed N` — service master seed (per-request streams derive from it);
//! * `--threads N` — real executor workers (`0` = all cores; noiseless
//!   serving always runs on one). A pure throughput knob: results —
//!   latency breakdowns included — are bit-identical for any value (the
//!   printed `results_digest` proves it);
//! * `--shot-threads N` — threads the shot engine uses *inside* one
//!   request (default 1). The knobs never multiply: nested parallel
//!   regions run inline on the worker that opened them, so these threads
//!   start only when a firing runs on one executor thread (`--threads 1`
//!   or a single fired request);
//! * `--path-chunks N` — path-slab chunks the simulator splits each
//!   shot's path set into (default 1; `0` = auto). Every served input is
//!   a one-path basis state and chunks are capped by the path count, so
//!   in the service this starts no thread. Like the thread knobs it is a
//!   pure throughput knob — results are bit-identical for any value;
//! * `--mode closed|open` — closed-loop drain (default) or open-loop
//!   arrival-process sweep;
//! * `--workload NAME` — `uniform`, `zipfian` (default), `scan`, `grover`;
//! * `--arrivals NAME` — open-loop arrival process: `poisson` (default)
//!   or `bursty` (MMPP-2 at the same average load);
//! * `--load LIST` — open-loop offered-load multipliers of the modeled
//!   capacity (default `0.5,1.0,2.0`; >1 = overload);
//! * `--spec-skew X` — assign specs zipf(θ = X)-skewed instead of
//!   round-robin (0 = round-robin), stressing LRU eviction;
//! * `--requests N` — requests to serve (default 256, `--full` 1024);
//! * `--width N` — memory address width `n` (default 4, `--full` 6);
//! * `--theta X` — zipf exponent of the *address* stream (default 0.99);
//! * `--batch N` — scheduler batch limit (default 32);
//! * `--cache N` — compiled-circuit cache capacity (default 8). Set it
//!   below the hot-spec count to stress eviction — where the release
//!   policies actually diverge;
//! * `--queue N` — bounded-queue capacity for open-loop admission
//!   (default 64; offers beyond it are shed);
//! * `--deadline T` — batching deadline slack in virtual ns (default
//!   20000);
//! * `--release-policy NAME` — which pending group a freed execution
//!   unit serves: `oldest-first` (default, strict FIFO) or
//!   `cache-affine` (prefer the oldest *cache-resident* group — zero
//!   compile ticks — bounded by the policy's age cap so no group
//!   starves). A scheduling knob on the virtual clock: results remain
//!   bit-identical across `--threads`/`--shot-threads`/`--path-chunks`
//!   for either policy. Open mode additionally emits a
//!   `policy_compare` block running *both* policies head-to-head on
//!   identical arrivals at the swept load nearest the modeled capacity
//!   (schema v6);
//! * `--qubit-budget Q` — physical qubit budget handed to the capacity
//!   planner for `--arch mix` (0 = unconstrained, the default);
//! * `--fleet N` — open-loop only: serve through a
//!   [`qram_fleet::FleetController`] over `N` shards instead of one
//!   bare service (0 = bare, the default). Arrivals are tagged with
//!   deterministic tenants and SLO classes, routed by consistent
//!   hashing with cache-affine replica tie-breaking, and shed at the
//!   front door by `--shed-policy`. The summary grows `fleet`,
//!   `per_shard`, `per_tenant`, `per_slo`, and `slo_compare` sections
//!   (schema v6), the latter running deadline-priority vs tail-drop on
//!   byte-identical arrivals at the highest swept load;
//! * `--tenants T` — fleet tenants to spread arrivals over (default 3);
//! * `--front-capacity N` — fleet front-door queue bound (default 1024);
//! * `--shed-policy NAME` — front-door overflow policy: `tail-drop` or
//!   `deadline-priority` (default — trim zombies, then batch, then
//!   best-effort, keep live interactive work last);
//! * `--replication N` — rendezvous replica candidates per unpinned
//!   spec (default 2, clamped to the fleet size);
//! * `--pin-planned` — pin the capacity planner's family split to
//!   dedicated shards round-robin (uses `--qubit-budget`);
//! * `--slo-deadline T` — interactive-class deadline in virtual ns
//!   (default 60000);
//! * `--out FILE` — summary path (default `<repo root>/BENCH_SERVE.json`);
//! * `--trace-out FILE` — also export the full telemetry trace (the
//!   canonically-ordered span log plus the metrics registry) as JSON.
//!
//! Latency is measured on the service's **virtual clock** (one tick =
//! one modeled ns), so percentiles include queueing delay, decompose
//! into `queue_wait`/`compile`/`execute`, and are bit-identical across
//! `--threads` values. The host throughput `wall_rps` (closed mode) is
//! timed from the first `submit` to the return of `drain`. Every run records through a
//! `qram_telemetry::TelemetryRecorder`; the printed `trace_digest` and
//! `telemetry_digest` lines are bit-identical across `--threads`,
//! `--shot-threads` and `--path-chunks` (CI diffs them).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use qram_bench::report::{
    find_repo_root, latency_json, percentile, ServeArchPoint, ServeLoadPoint, SERVE_SCHEMA,
};
use qram_bench::{experiment_memory, print_row};
use qram_core::{ArchSpec, DataEncoding, Memory, Optimizations};
use qram_fleet::{
    ClassStats, FleetConfig, FleetController, FleetResult, FleetStats, ShedPolicy, TenantStats,
};
use qram_plan::{planned_families, UNLIMITED_BUDGET};
use qram_service::{
    assign_specs_with, Admission, ArrivalProcess, CacheStats, QramService, QueryResult, QuerySpec,
    ReleasePolicy, ServiceConfig, SloClass, SpecMix, TenantId, Ticks, Workload,
};
use qram_telemetry::json::{self, hex, quote, Members};
use qram_telemetry::members;
use qram_telemetry::{fnv1a_64, host_wall, key, MetricsRegistry, SpanStage, TelemetryRecorder};

struct Args {
    full: bool,
    arch: String,
    shots: Option<usize>,
    seed: u64,
    threads: usize,
    shot_threads: usize,
    path_chunks: usize,
    mode: String,
    workload: String,
    arrivals: String,
    loads: Vec<f64>,
    spec_skew: f64,
    requests: Option<usize>,
    width: Option<usize>,
    theta: f64,
    batch: usize,
    cache: usize,
    queue: usize,
    deadline: Ticks,
    release_policy: String,
    qubit_budget: usize,
    fleet: usize,
    tenants: u32,
    front_capacity: usize,
    shed_policy: String,
    replication: usize,
    pin_planned: bool,
    slo_deadline: Ticks,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        full: false,
        arch: "virtual".into(),
        shots: None,
        seed: 2023,
        threads: 0,
        shot_threads: 1,
        path_chunks: 1,
        mode: "closed".into(),
        workload: "zipfian".into(),
        arrivals: "poisson".into(),
        loads: vec![0.5, 1.0, 2.0],
        spec_skew: 0.0,
        requests: None,
        width: None,
        theta: 0.99,
        batch: 32,
        cache: 8,
        queue: 64,
        deadline: 20_000,
        release_policy: "oldest-first".into(),
        qubit_budget: UNLIMITED_BUDGET,
        fleet: 0,
        tenants: 3,
        front_capacity: 1024,
        shed_policy: "deadline-priority".into(),
        replication: 2,
        pin_planned: false,
        slo_deadline: 60_000,
        out: None,
        trace_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        match flag {
            "--full" => parsed.full = true,
            "--arch" => parsed.arch = text(flag, args.next()),
            "--shots" => parsed.shots = Some(num(flag, args.next())),
            "--seed" => parsed.seed = num(flag, args.next()),
            "--threads" => parsed.threads = num(flag, args.next()),
            "--shot-threads" => parsed.shot_threads = num(flag, args.next()),
            "--path-chunks" => parsed.path_chunks = num(flag, args.next()),
            "--mode" => parsed.mode = text(flag, args.next()),
            "--workload" => parsed.workload = text(flag, args.next()),
            "--arrivals" => parsed.arrivals = text(flag, args.next()),
            "--load" => {
                parsed.loads = text(flag, args.next())
                    .split(',')
                    .map(|x| x.trim().parse().expect("--load"))
                    .collect();
                assert!(!parsed.loads.is_empty(), "--load needs at least one value");
            }
            "--spec-skew" => parsed.spec_skew = num(flag, args.next()),
            "--requests" => parsed.requests = Some(num(flag, args.next())),
            "--width" => parsed.width = Some(num(flag, args.next())),
            "--theta" => parsed.theta = num(flag, args.next()),
            "--batch" => parsed.batch = num(flag, args.next()),
            "--cache" => parsed.cache = num(flag, args.next()),
            "--queue" => parsed.queue = num(flag, args.next()),
            "--deadline" => parsed.deadline = num(flag, args.next()),
            "--release-policy" => parsed.release_policy = text(flag, args.next()),
            "--qubit-budget" => {
                let budget: usize = num(flag, args.next());
                parsed.qubit_budget = if budget == 0 {
                    UNLIMITED_BUDGET
                } else {
                    budget
                };
            }
            "--fleet" => parsed.fleet = num(flag, args.next()),
            "--tenants" => {
                parsed.tenants = num(flag, args.next());
                assert!(parsed.tenants > 0, "--tenants needs at least one tenant");
            }
            "--front-capacity" => parsed.front_capacity = num(flag, args.next()),
            "--shed-policy" => parsed.shed_policy = text(flag, args.next()),
            "--replication" => parsed.replication = num(flag, args.next()),
            "--pin-planned" => parsed.pin_planned = true,
            "--slo-deadline" => parsed.slo_deadline = num(flag, args.next()),
            "--out" => parsed.out = Some(PathBuf::from(text(flag, args.next()))),
            "--trace-out" => parsed.trace_out = Some(PathBuf::from(text(flag, args.next()))),
            other => panic!(
                "unknown flag `{other}` (expected --full, --arch NAME, --shots N, --seed N, \
                 --threads N, --shot-threads N, --path-chunks N, --mode closed|open, \
                 --workload NAME, \
                 --arrivals NAME, --load LIST, --spec-skew X, --requests N, --width N, \
                 --theta X, --batch N, --cache N, --queue N, --deadline T, \
                 --release-policy oldest-first|cache-affine, --qubit-budget Q, \
                 --fleet N, --tenants T, --front-capacity N, \
                 --shed-policy tail-drop|deadline-priority, --replication N, --pin-planned, \
                 --slo-deadline T, --out FILE, --trace-out FILE)"
            ),
        }
    }
    parsed
}

/// The value following `flag` on the command line.
fn text(flag: &str, value: Option<String>) -> String {
    value.unwrap_or_else(|| panic!("{flag} requires a value"))
}

/// The value following `flag`, parsed.
fn num<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T
where
    T::Err: std::fmt::Debug,
{
    text(flag, value).parse().expect(flag)
}

/// The hot circuit shapes the workload cycles over for the selected
/// `--arch`: a realistic deployment serves a handful of compiled
/// configurations, and `mix` serves one per architecture family through
/// the same pipeline — the *planned* representative from the offline
/// `(k, m)` capacity planner under `--qubit-budget`, not the legacy
/// `k = 1` hard-coding, so the cross-family comparison is a fair fight.
fn hot_specs(arch: &str, n: usize, qubit_budget: usize) -> Vec<QuerySpec> {
    match arch {
        "virtual" => {
            let mut specs = vec![QuerySpec::new(1, n - 1)];
            if n >= 3 {
                specs.push(QuerySpec::new(2, n - 2));
                specs.push(
                    QuerySpec::new(1, n - 1)
                        .try_with_encoding(DataEncoding::FusedBit)
                        .expect("FusedBit applies to the virtual family"),
                );
                specs.push(
                    QuerySpec::new(2, n - 2)
                        .try_with_optimizations(Optimizations::OPT2)
                        .expect("OPT2 applies to the virtual family"),
                );
            }
            specs
        }
        "sqc" => vec![QuerySpec::of(ArchSpec::Sqc { n })],
        "fanout" => vec![QuerySpec::of(ArchSpec::Fanout { m: n })],
        "bb" => {
            let mut specs = vec![QuerySpec::of(ArchSpec::BucketBrigade { k: 1, m: n - 1 })];
            if n >= 3 {
                specs.push(QuerySpec::of(ArchSpec::BucketBrigade { k: 2, m: n - 2 }));
            }
            specs
        }
        "ss" => {
            let mut specs = vec![QuerySpec::of(ArchSpec::SelectSwap { k: 1, m: n - 1 })];
            if n >= 3 {
                specs.push(QuerySpec::of(ArchSpec::SelectSwap { k: 2, m: n - 2 }));
            }
            specs
        }
        "mix" => {
            let planned = planned_families(n, qubit_budget);
            assert!(
                !planned.is_empty(),
                "--qubit-budget {qubit_budget} fits no family at n = {n}; raise the budget"
            );
            planned.into_iter().map(QuerySpec::of).collect()
        }
        other => panic!("unknown --arch `{other}` (expected virtual, sqc, fanout, bb, ss, mix)"),
    }
}

fn build_workload(args: &Args, n: usize) -> Workload {
    match args.workload.as_str() {
        "uniform" => Workload::Uniform {
            address_width: n,
            seed: args.seed,
        },
        "zipfian" => Workload::Zipfian {
            address_width: n,
            theta: args.theta,
            seed: args.seed,
        },
        "scan" => Workload::SequentialScan { address_width: n },
        "grover" => Workload::GroverTrace {
            address_width: n,
            target: (1 << n) / 2,
        },
        other => panic!("unknown workload `{other}` (expected uniform, zipfian, scan, grover)"),
    }
}

/// The arrival process at a mean inter-arrival gap of `mean_gap` virtual
/// ns. `bursty` blends a 4x-fast burst state with a matching slow state
/// so the *average* load equals the Poisson stream's.
fn build_arrivals(args: &Args, mean_gap: f64) -> ArrivalProcess {
    match args.arrivals.as_str() {
        "poisson" => ArrivalProcess::Poisson {
            mean_gap,
            seed: args.seed ^ 0x5eed,
        },
        "bursty" => ArrivalProcess::Bursty {
            mean_fast_gap: mean_gap / 4.0,
            mean_slow_gap: mean_gap * 7.0 / 4.0,
            mean_dwell: 32.0,
            seed: args.seed ^ 0x5eed,
        },
        other => panic!("unknown arrival process `{other}` (expected poisson, bursty)"),
    }
}

fn spec_mix(args: &Args) -> SpecMix {
    if args.spec_skew > 0.0 {
        SpecMix::Zipfian {
            theta: args.spec_skew,
            seed: args.seed ^ 0x51ce,
        }
    } else {
        SpecMix::RoundRobin
    }
}

fn release_policy(args: &Args) -> ReleasePolicy {
    match args.release_policy.as_str() {
        "oldest-first" => ReleasePolicy::OldestFirst,
        "cache-affine" => ReleasePolicy::cache_affine(),
        other => panic!("unknown --release-policy `{other}` (expected oldest-first, cache-affine)"),
    }
}

/// The age cap a policy enforces (0 for strict FIFO, which needs none).
fn policy_age_cap(policy: ReleasePolicy) -> Ticks {
    match policy {
        ReleasePolicy::OldestFirst => 0,
        ReleasePolicy::CacheAffine { age_cap } => age_cap,
    }
}

fn service_config(args: &Args, shots: usize) -> ServiceConfig {
    ServiceConfig::default()
        .with_workers(args.threads)
        .with_shots(shots)
        .with_seed(args.seed)
        .with_batch_limit(args.batch)
        .with_shot_threads(args.shot_threads)
        .with_path_chunks(args.path_chunks)
        .with_cache_capacity(args.cache)
        .with_queue_capacity(args.queue)
        .with_deadline(args.deadline)
        .with_release_policy(release_policy(args))
}

/// The front-door overflow policy selected by `--shed-policy`.
fn shed_policy(args: &Args) -> ShedPolicy {
    match args.shed_policy.as_str() {
        "tail-drop" => ShedPolicy::TailDrop,
        "deadline-priority" => ShedPolicy::DeadlinePriority,
        other => panic!("unknown --shed-policy `{other}` (expected tail-drop, deadline-priority)"),
    }
}

/// The fleet topology selected by the flags: `--fleet` shards each
/// running `base`, fronted by a `--front-capacity` door under
/// `--shed-policy`.
fn fleet_config(args: &Args, base: ServiceConfig) -> FleetConfig {
    let mut config = FleetConfig::default()
        .with_shards(args.fleet)
        .with_shard_base(base)
        .with_front_capacity(args.front_capacity)
        .with_shed_policy(shed_policy(args))
        .with_replication(args.replication);
    if args.pin_planned {
        config = config.with_planned_pins(args.qubit_budget);
    }
    config
}

/// Deterministic tenant for the `index`-th offer: an FNV mix of the
/// index and the master seed, so the tenant stream is reproducible but
/// decorrelated from the round-robin SLO-class cycle below.
fn tenant_for(index: u64, tenants: u32, seed: u64) -> TenantId {
    let mut bytes = index.to_le_bytes().to_vec();
    bytes.extend_from_slice(&seed.to_le_bytes());
    TenantId((fnv1a_64(bytes) % tenants as u64) as u32)
}

/// Deterministic SLO class for the `index`-th offer: 25% interactive
/// (under the `--slo-deadline` budget), 50% batch, 25% best-effort.
fn slo_for(index: u64, deadline: Ticks) -> SloClass {
    match index % 4 {
        0 => SloClass::Interactive { deadline },
        3 => SloClass::BestEffort,
        _ => SloClass::Batch,
    }
}

/// Digest of everything deterministic about a result set: ids,
/// addresses, serving architectures, values, virtual timestamps,
/// latency breakdowns, and the fidelity estimates bit by bit. Equal
/// digests across `--threads` values certify the executor's
/// bit-identity — including for mixed-architecture workloads.
fn results_digest<'a>(results: impl Iterator<Item = &'a QueryResult>) -> u64 {
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

/// Digest of everything deterministic about a fleet result set: the
/// fleet-level placement and queueing context on top of each
/// shard-level result's own deterministic fields.
fn fleet_results_digest(results: &[FleetResult]) -> u64 {
    let mut bytes: Vec<u8> = Vec::with_capacity(results.len() * 96);
    for r in results {
        bytes.extend(r.seq.to_le_bytes());
        bytes.extend((r.shard as u64).to_le_bytes());
        bytes.extend(r.tenant.0.to_le_bytes());
        bytes.extend(r.slo.label().as_bytes());
        bytes.extend(r.front_wait.to_le_bytes());
        bytes.extend(r.result.address.to_le_bytes());
        bytes.extend(r.result.spec.arch.family().as_bytes());
        bytes.push(r.result.value as u8);
        bytes.extend(r.result.completed.to_le_bytes());
        bytes.extend(r.result.latency.queue_wait.to_le_bytes());
        bytes.extend(r.result.latency.compile.to_le_bytes());
        bytes.extend(r.result.latency.execute.to_le_bytes());
    }
    fnv1a_64(bytes)
}

/// Latency percentiles `[p50, p90, p99, max]` in virtual ns.
fn latency_percentiles(totals: &[f64]) -> [f64; 4] {
    let max = totals.iter().copied().fold(0.0f64, f64::max);
    [
        percentile(totals, 50.0),
        percentile(totals, 90.0),
        percentile(totals, 99.0),
        max,
    ]
}

fn mean(values: impl Iterator<Item = f64>, count: usize) -> f64 {
    if count == 0 {
        return 0.0;
    }
    values.sum::<f64>() / count as f64
}

/// The system an operating point serves through.
enum Target {
    /// One bare service (closed loop, or open loop without `--fleet`).
    Service(QramService<TelemetryRecorder>),
    /// A fleet controller over `--fleet` shards (open loop only).
    Fleet(FleetController<TelemetryRecorder>),
}

impl Target {
    fn shards(&self) -> &[QramService<TelemetryRecorder>] {
        match self {
            Target::Service(service) => std::slice::from_ref(service),
            Target::Fleet(fleet) => fleet.shards(),
        }
    }

    /// The recorder a trace section exports: the service's own, or the
    /// fleet front door's.
    fn recorder(&self) -> &TelemetryRecorder {
        match self {
            Target::Service(service) => service.recorder(),
            Target::Fleet(fleet) => fleet.recorder(),
        }
    }

    fn trace_digest(&self) -> u64 {
        match self {
            Target::Service(service) => service.recorder().trace_digest(),
            Target::Fleet(fleet) => fleet.trace_digest(),
        }
    }

    fn fleet_stats(&self) -> &FleetStats {
        match self {
            Target::Fleet(fleet) => fleet.stats(),
            Target::Service(_) => unreachable!("fleet sections only read fleet points"),
        }
    }

    /// The always-on counters merged with every recorder's metrics.
    fn telemetry(&self) -> MetricsRegistry {
        let mut merged = match self {
            Target::Service(service) => service.metrics_snapshot(),
            Target::Fleet(fleet) => fleet.metrics_snapshot(),
        };
        for shard in self.shards() {
            merged.merge_from(shard.recorder().metrics());
        }
        if let Target::Fleet(fleet) = self {
            merged.merge_from(fleet.recorder().metrics());
        }
        merged
    }

    /// Cache counters summed over the shards.
    fn cache_stats(&self) -> CacheStats {
        let mut sum = CacheStats::default();
        for c in self.shards().iter().map(QramService::cache_stats) {
            sum.lookups += c.lookups;
            sum.hits += c.hits;
            sum.misses += c.misses;
            sum.evictions += c.evictions;
        }
        sum
    }
}

/// The fixed context of a run: everything but the operating point and
/// the policies under test.
struct Sweep<'a> {
    args: &'a Args,
    memory: &'a Memory,
    workload: &'a Workload,
    specs: &'a [QuerySpec],
    shots: usize,
    requests: usize,
    capacity_rps: f64,
}

/// One operating point's full output. A bare service's results carry
/// the trivial fleet context (shard 0, default tenant and SLO class,
/// no front-door wait), so every mode condenses through the same code.
struct PointRun {
    /// `closed`, or `load=<factor>` for an open-loop point.
    label: String,
    target: Target,
    /// Results in the mode's order: request-id order from a closed
    /// `drain`, completion order from an open run.
    results: Vec<FleetResult>,
    /// The condensed point (a closed point has load 0 and its whole
    /// workload arriving at t = 0).
    point: ServeLoadPoint,
    /// Executor workers the closed-loop drain resolved (0 when open).
    workers: usize,
    /// Host time from the first admission to the end of the drain.
    wall: Duration,
}

impl PointRun {
    fn results_digest(&self) -> u64 {
        match self.target {
            Target::Service(_) => results_digest(self.results.iter().map(|r| &r.result)),
            Target::Fleet(_) => fleet_results_digest(&self.results),
        }
    }

    /// Every batch the point fired, as `(spec group, compile ticks)`,
    /// read off the shards' span logs: each fire records exactly one
    /// `Compile` span, spanning the compile charge (0 on a cache hit).
    fn batches(&self) -> impl Iterator<Item = (&str, Ticks)> {
        self.target
            .shards()
            .iter()
            .flat_map(|shard| shard.recorder().tracer().events())
            .filter_map(|span| match &span.stage {
                SpanStage::Compile { group, .. } => Some((group.as_str(), span.end - span.start)),
                _ => None,
            })
    }
}

/// Runs one operating point through a fresh target under the given
/// policies. `load` is an open-loop offered-load multiplier; `None` is
/// the closed loop, which admits every request through `submit` at
/// t = 0 and finishes with `drain`. The arrival stream, spec
/// assignment and tenant/SLO tagging depend only on `(args, load)`, so
/// two policies at the same point serve byte-identical offers — the
/// `policy_compare` and `slo_compare` blocks rely on this.
fn run_point(
    sweep: &Sweep<'_>,
    load: Option<f64>,
    release: ReleasePolicy,
    shed: ShedPolicy,
) -> PointRun {
    let args = sweep.args;
    let memory = sweep.memory.clone();
    let config = service_config(args, sweep.shots).with_release_policy(release);
    let mut target = if args.fleet > 0 {
        let config = fleet_config(args, config).with_shed_policy(shed);
        Target::Fleet(FleetController::with_telemetry(memory, config))
    } else {
        Target::Service(QramService::with_recorder(
            memory,
            config,
            TelemetryRecorder::new(),
        ))
    };
    let offered_rps = sweep.capacity_rps * load.unwrap_or(0.0);
    let arrivals = match load {
        Some(_) => build_arrivals(args, 1e9 / offered_rps).arrivals(sweep.requests),
        None => Vec::new(),
    };
    let mix = spec_mix(args);
    let submissions = assign_specs_with(sweep.workload, sweep.specs, mix, sweep.requests);

    let start = host_wall();
    for (i, &(address, spec)) in submissions.iter().enumerate() {
        match (&mut target, arrivals.get(i)) {
            (Target::Service(service), None) => {
                service.submit(address, spec);
            }
            (Target::Service(service), Some(&arrival)) => {
                if let Admission::Rejected(reason) = service.try_submit_at(address, spec, arrival) {
                    panic!("generated workload rejected: {reason}");
                }
            }
            (Target::Fleet(fleet), arrival) => {
                let arrival = *arrival.expect("fleet points are open-loop");
                let tenant = tenant_for(i as u64, args.tenants, args.seed);
                let slo = slo_for(i as u64, args.slo_deadline);
                fleet.submit_at(address, spec, arrival, tenant, slo);
            }
        }
    }
    let bare = |result: QueryResult| FleetResult {
        seq: result.id,
        shard: 0,
        tenant: TenantId::default(),
        slo: SloClass::default(),
        front_wait: 0,
        result,
    };
    let (results, workers): (Vec<FleetResult>, usize) = match &mut target {
        Target::Service(service) if load.is_none() => {
            let report = service.drain();
            let results = report.results.into_iter().map(bare).collect();
            (results, report.workers)
        }
        Target::Service(service) => (service.run_until_idle().into_iter().map(bare).collect(), 0),
        Target::Fleet(fleet) => (fleet.run_until_idle(), 0),
    };
    let wall = start.elapsed();

    let first_arrival = arrivals.first().copied().unwrap_or(0);
    let last_completed = results.iter().map(|r| r.result.completed).max();
    let span = last_completed.unwrap_or(0).saturating_sub(first_arrival);
    let completed = results.len();
    let avg =
        |ticks: fn(&FleetResult) -> Ticks| mean(results.iter().map(|r| ticks(r) as f64), completed);
    let totals: Vec<f64> = results.iter().map(|r| r.total_latency() as f64).collect();
    let point = ServeLoadPoint {
        offered_rps,
        load_factor: load.unwrap_or(0.0),
        offered: sweep.requests,
        completed,
        shed: match &target {
            Target::Service(service) => service.admission_stats().shed,
            Target::Fleet(fleet) => fleet.stats().shed,
        },
        achieved_rps: completed as f64 * 1e9 / span.max(1) as f64,
        latency_ns: latency_percentiles(&totals),
        mean_queue_wait_ns: avg(|r| r.front_wait + r.result.latency.queue_wait),
        mean_compile_ns: avg(|r| r.result.latency.compile),
        mean_execute_ns: avg(|r| r.result.latency.execute),
        cache_hit_rate: target.cache_stats().hit_rate(),
    };
    PointRun {
        label: load.map_or_else(|| "closed".into(), |load| format!("load={load:.2}")),
        target,
        results,
        point,
        workers,
        wall,
    }
}

/// Slices a sweep per architecture family: requests, throughput and
/// latency from the results, batch-level cache behavior from the span
/// logs (a batch that charged compile ticks was a cache miss). `specs`
/// maps each span's spec group to its family.
///
/// Each point is an independent run with its own virtual clock, so
/// throughput sums each point's span rather than overlapping their
/// clocks — the union's `max(completed) − min(arrival)` would divide
/// every point's requests by roughly one point's window and report
/// impossible rates.
fn arch_breakdown(runs: &[PointRun], specs: &[QuerySpec]) -> Vec<ServeArchPoint> {
    let groups: Vec<(String, &'static str)> = specs
        .iter()
        .map(|s| (s.arch.to_string(), s.arch.family()))
        .collect();
    // (batches, compiled) per family, over every point.
    let mut fired: BTreeMap<&'static str, (usize, usize)> = BTreeMap::new();
    for (group, compile) in runs.iter().flat_map(PointRun::batches) {
        let family = groups
            .iter()
            .find(|(name, _)| name == group)
            .unwrap_or_else(|| panic!("batch fired for unserved spec {group}"))
            .1;
        let entry = fired.entry(family).or_default();
        entry.0 += 1;
        entry.1 += usize::from(compile > 0);
    }
    let mut families: Vec<&'static str> = Vec::new();
    for r in runs.iter().flat_map(|run| &run.results) {
        let family = r.result.spec.arch.family();
        if !families.contains(&family) {
            families.push(family);
        }
    }
    families
        .into_iter()
        .map(|family| {
            let mut span = 0u64;
            let mut totals: Vec<f64> = Vec::new();
            let mut executes: Vec<f64> = Vec::new();
            for run in runs {
                let slice: Vec<&QueryResult> = run
                    .results
                    .iter()
                    .map(|r| &r.result)
                    .filter(|r| r.spec.arch.family() == family)
                    .collect();
                if !slice.is_empty() {
                    let first_arrival = slice.iter().map(|r| r.arrival).min().unwrap_or(0);
                    let last_completed = slice.iter().map(|r| r.completed).max().unwrap_or(0);
                    span += last_completed.saturating_sub(first_arrival).max(1);
                }
                totals.extend(slice.iter().map(|r| r.latency.total() as f64));
                executes.extend(slice.iter().map(|r| r.latency.execute as f64));
            }
            let (batches, compiled) = fired.get(family).copied().unwrap_or_default();
            ServeArchPoint {
                arch: family.into(),
                requests: totals.len(),
                virtual_rps: totals.len() as f64 * 1e9 / span.max(1) as f64,
                latency_ns: latency_percentiles(&totals),
                mean_execute_ns: mean(executes.iter().copied(), executes.len()),
                batches,
                compiled,
            }
        })
        .collect()
}

/// The flat `telemetry` section of the summary: stage-histogram
/// percentiles, admission flow conservation, release-policy counters,
/// and the trace/metrics digests. Every key is globally unique within
/// the summary so the first-occurrence field parser in
/// `qram_bench::report` reads them without structural JSON parsing.
fn telemetry_json(telemetry: &MetricsRegistry, trace_digest: u64) -> String {
    let p = |name: &str, q: f64| telemetry.histogram(name).map_or(0, |h| h.percentile(q));
    let c = |name: &str| telemetry.counter(name);
    members![
        "trace_digest" => hex(trace_digest),
        "telemetry_digest" => hex(telemetry.digest()),
        "arrivals" => c(key::ADMISSION_ACCEPTED) + c(key::ADMISSION_SHED) + c(key::ADMISSION_REJECTED),
        "accepted" => c(key::ADMISSION_ACCEPTED),
        "shed" => c(key::ADMISSION_SHED),
        "rejected" => c(key::ADMISSION_REJECTED),
        "completed" => c(key::SERVICE_COMPLETED),
        "batches_fired" => c(key::BATCHES_FIRED),
        "queue_depth_high_water" => telemetry.gauge(key::QUEUE_DEPTH_HIGH_WATER),
        "stage_queue_wait_p50_ns" => p(key::STAGE_QUEUE_WAIT, 50.0),
        "stage_queue_wait_p99_ns" => p(key::STAGE_QUEUE_WAIT, 99.0),
        "stage_compile_p50_ns" => p(key::STAGE_COMPILE, 50.0),
        "stage_compile_p99_ns" => p(key::STAGE_COMPILE, 99.0),
        "stage_execute_p50_ns" => p(key::STAGE_EXECUTE, 50.0),
        "stage_execute_p99_ns" => p(key::STAGE_EXECUTE, 99.0),
        "stage_total_p50_ns" => p(key::STAGE_TOTAL, 50.0),
        "stage_total_p90_ns" => p(key::STAGE_TOTAL, 90.0),
        "stage_total_p99_ns" => p(key::STAGE_TOTAL, 99.0),
        "batch_size_p50" => p(key::BATCH_SIZE, 50.0),
        "policy_cache_affine_fires" => c(key::POLICY_CACHE_AFFINE_FIRES),
        "policy_age_cap_forced" => c(key::POLICY_AGE_CAP_FORCED),
        "sim_shots" => c(key::SIM_SHOTS),
        "sim_gate_applications" => c(key::SIM_GATES),
    ]
    .block("  ")
}

/// Prints the human-readable stage breakdown plus the digest lines CI
/// diffs across parallelism settings.
fn print_telemetry(telemetry: &MetricsRegistry, trace_digest: u64) {
    let p = |name: &str, q: f64| telemetry.histogram(name).map_or(0, |h| h.percentile(q)) as f64;
    for (label, name) in [
        ("stage_queue_wait_us", key::STAGE_QUEUE_WAIT),
        ("stage_compile_us", key::STAGE_COMPILE),
        ("stage_execute_us", key::STAGE_EXECUTE),
    ] {
        let (p50, p99) = (p(name, 50.0) / 1e3, p(name, 99.0) / 1e3);
        print_row(&[label.into(), format!("p50 {p50:.1}, p99 {p99:.1}")]);
    }
    let high_water = telemetry.gauge(key::QUEUE_DEPTH_HIGH_WATER);
    print_row(&["queue_depth_high_water".into(), high_water.to_string()]);
    println!("# trace_digest: {trace_digest:016x}");
    println!("# telemetry_digest: {:016x}", telemetry.digest());
}

/// Writes `contents` to `path`, exiting with status 2 on failure.
fn write_file(path: &Path, what: &str, contents: &str) {
    match std::fs::write(path, contents) {
        Ok(()) => println!("# {what} written to {}", path.display()),
        Err(e) => {
            eprintln!("serve_bench: cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
    }
}

/// Writes the full trace export: one canonical span log per point plus
/// the merged metrics registry.
fn write_trace(path: &Path, mode: &str, runs: &[PointRun], merged: &MetricsRegistry, digest: u64) {
    // `spans` and `metrics` are laid out on the lines below their keys.
    let sections = runs.iter().map(|run| {
        let recorder = run.target.recorder();
        members![
            "label" => quote(&run.label),
            "trace_digest" => hex(recorder.trace_digest()),
            "spans" => format!("\n{}", recorder.tracer().to_json("      ")),
        ]
        .block("    ")
    });
    let trace = members![
        "schema" => quote("qram-bench/trace/v1"),
        "mode" => quote(mode),
        "trace_digest" => hex(digest),
        "telemetry_digest" => hex(merged.digest()),
        "sections" => json::rows(sections, "  "),
        "metrics" => format!("\n{}", merged.to_json("  ")),
    ];
    write_file(path, "trace", &format!("{}\n", trace.block("")));
}

fn main() {
    let args = parse_args();
    let n = args.width.unwrap_or(if args.full { 6 } else { 4 });
    let requests = args.requests.unwrap_or(if args.full { 1024 } else { 256 });
    let shots = args.shots.unwrap_or(if args.full { 32 } else { 8 });
    let closed = match args.mode.as_str() {
        "closed" => true,
        "open" => false,
        other => panic!("unknown mode `{other}` (expected closed, open)"),
    };
    assert!(
        !closed || args.fleet == 0,
        "--fleet requires --mode open (the fleet controller is an open-loop front door)"
    );

    let memory = experiment_memory(n, args.seed);
    let workload = build_workload(&args, n);
    let specs = hot_specs(&args.arch, n, args.qubit_budget);
    // The modeled capacity: virtual execution units over the mean
    // per-request execute cost of the hot specs, each priced from its
    // architecture's measured resources, times the shard count.
    let cost = service_config(&args, shots).cost;
    let mean_execute = specs
        .iter()
        .map(|spec| cost.execute_cost(&spec.arch.instantiate().resources(&memory), shots))
        .sum::<u64>() as f64
        / specs.len() as f64;
    let capacity_rps = cost.capacity_rps(mean_execute.round() as u64) * args.fleet.max(1) as f64;
    let sweep = Sweep {
        args: &args,
        memory: &memory,
        workload: &workload,
        specs: &specs,
        shots,
        requests,
        capacity_rps,
    };

    let loads: Vec<Option<f64>> = if closed {
        vec![None]
    } else {
        args.loads.iter().copied().map(Some).collect()
    };
    let (release, shed) = (release_policy(&args), shed_policy(&args));
    let runs: Vec<PointRun> = loads
        .into_iter()
        .map(|load| run_point(&sweep, load, release, shed))
        .collect();
    let mut telemetry = MetricsRegistry::new();
    for run in &runs {
        telemetry.merge_from(&run.target.telemetry());
    }
    // Each open-loop point runs its own service (its own virtual clock),
    // so a sweep's digests chain the per-point digests in sweep order
    // rather than merging incomparable clocks.
    let (digest, trace_digest) = match &runs[..] {
        [run] if closed => (run.results_digest(), run.target.trace_digest()),
        _ => (
            fnv1a_64(runs.iter().flat_map(|r| r.results_digest().to_le_bytes())),
            fnv1a_64(
                runs.iter()
                    .flat_map(|r| r.target.trace_digest().to_le_bytes()),
            ),
        ),
    };
    let per_arch = arch_breakdown(&runs, &specs);
    let arch_batches: usize = per_arch.iter().map(|a| a.batches).sum();
    assert_eq!(
        arch_batches as u64,
        telemetry.counter(key::BATCHES_FIRED),
        "per_arch batches must account for every batch fired"
    );

    // The header every summary shares. The mode-only members sit where
    // the schema places them, so every mode's summary keeps its layout.
    let mut fields = members![
        "schema" => quote(SERVE_SCHEMA),
        "mode" => quote(&args.mode),
        "arch" => quote(&args.arch),
        "workload" => quote(workload.name()),
    ];
    if !closed {
        fields.push("arrivals", quote(&args.arrivals));
    }
    fields.append(members!["spec_mix" => quote(&mix_name(&args)), "address_width" => n]);
    if closed {
        fields.append(members![
            "requests" => runs[0].results.len(),
            "batches" => runs[0].batches().count(),
        ]);
    } else {
        fields.push("requests_per_point", requests);
    }
    fields.append(members![
        "specs" => specs.len(),
        "shots" => shots,
        "seed" => args.seed,
        "shot_threads" => args.shot_threads,
        "path_chunks" => args.path_chunks,
    ]);
    if !closed {
        fields.append(members![
            "queue_capacity" => args.queue,
            "deadline_ns" => args.deadline,
            "batch_limit" => args.batch,
        ]);
    }
    fields.append(members![
        "release_policy" => quote(release.label()),
        "age_cap_ns" => policy_age_cap(release),
        "qubit_budget" => budget_field(&args),
    ]);
    if !closed {
        fields.push("capacity_rps", format!("{capacity_rps:.1}"));
    }
    fields.push("results_digest", hex(digest));

    let telemetry_section = || telemetry_json(&telemetry, trace_digest);
    if closed {
        closed_sections(&sweep, &runs[0], &per_arch, &mut fields);
        fields.push("telemetry", telemetry_section());
    } else {
        print_sweep_header(&sweep);
        for run in &runs {
            print_load_row(&run.point);
        }
    }
    print_telemetry(&telemetry, trace_digest);
    println!("# results_digest: {digest:016x}");
    if args.fleet > 0 {
        fleet_sections(&sweep, &runs, &telemetry, &mut fields, telemetry_section());
    } else if !closed {
        policy_sections(&sweep, &runs, &mut fields, telemetry_section());
    }
    let per_arch = per_arch.iter().map(ServeArchPoint::to_json);
    fields.push("per_arch", json::rows(per_arch, "  "));

    let out = args.out.clone().unwrap_or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| find_repo_root(&d))
            .unwrap_or_else(|| PathBuf::from("."))
            .join("BENCH_SERVE.json")
    });
    write_file(&out, "summary", &format!("{}\n", fields.block("")));
    if let Some(path) = &args.trace_out {
        write_trace(path, &args.mode, &runs, &telemetry, trace_digest);
    }
}

/// Prints the closed-loop metric table and adds the closed-mode
/// summary members: host and virtual throughput, latency, cache and
/// fidelity.
fn closed_sections(
    sweep: &Sweep<'_>,
    run: &PointRun,
    per_arch: &[ServeArchPoint],
    fields: &mut Members,
) {
    let args = sweep.args;
    let point = &run.point;
    let count = run.results.len();
    let [p50, p90, p99, _] = point.latency_ns;
    let wall_rps = count as f64 / run.wall.as_secs_f64().max(1e-9);
    let mean_fidelity = mean(run.results.iter().map(|r| r.result.fidelity.mean), count);
    let cache = run.target.cache_stats();
    println!(
        "# serve_bench closed: {} x {} over n={} (arch {}, {} hot specs, batch <= {}, {} shots, {} workers x {} shot-threads)",
        count,
        sweep.workload.name(),
        sweep.memory.address_width(),
        args.arch,
        sweep.specs.len(),
        args.batch,
        sweep.shots,
        run.workers,
        args.shot_threads,
    );
    let queue_wait_us = point.mean_queue_wait_ns / 1e3;
    let rows = [
        ("metric", "value".to_string()),
        ("requests", count.to_string()),
        ("batches", run.batches().count().to_string()),
        ("release_policy", release_policy(args).label().to_string()),
        ("virtual_rps", format!("{:.1}", point.achieved_rps)),
        ("wall_rps", format!("{wall_rps:.1}")),
        ("latency_p50_us", format!("{:.1}", p50 / 1e3)),
        ("latency_p90_us", format!("{:.1}", p90 / 1e3)),
        ("latency_p99_us", format!("{:.1}", p99 / 1e3)),
        ("mean_queue_wait_us", format!("{queue_wait_us:.1}")),
        ("cache_hits", cache.hits.to_string()),
        ("cache_misses", cache.misses.to_string()),
        ("cache_evictions", cache.evictions.to_string()),
        ("cache_hit_rate", format!("{:.3}", cache.hit_rate())),
        ("mean_fidelity", format!("{mean_fidelity:.4}")),
    ];
    for (metric, value) in rows {
        print_row(&[metric.into(), value]);
    }
    for a in per_arch {
        print_row(&[
            format!("arch[{}]", a.arch),
            format!(
                "{} reqs, p50 {:.1} us, exec {:.1} us, batch hit {:.2}",
                a.requests,
                a.latency_ns[0] / 1e3,
                a.mean_execute_ns / 1e3,
                a.batch_hit_rate()
            ),
        ]);
    }
    let cache_json = members![
        "hits" => cache.hits, "misses" => cache.misses, "evictions" => cache.evictions,
        "hit_rate" => format!("{:.4}", cache.hit_rate()),
    ];
    fields.append(members![
        "virtual_rps" => format!("{:.1}", point.achieved_rps),
        "wall_rps" => format!("{wall_rps:.1}"),
        "latency_ns" => latency_json(&point.latency_ns),
        "mean_queue_wait_ns" => format!("{:.1}", point.mean_queue_wait_ns),
        "cache" => cache_json.inline(),
        "mean_fidelity" => format!("{mean_fidelity:.6}"),
    ]);
}

/// The open-loop banner and load-table header.
fn print_sweep_header(sweep: &Sweep<'_>) {
    let (args, n, shots) = (sweep.args, sweep.memory.address_width(), sweep.shots);
    let (arch, specs) = (&args.arch, sweep.specs.len());
    if args.fleet > 0 {
        println!(
            "# serve_bench fleet: {} shards x {} requests/point, {} tenants, shed {}, replication {}, n={n} (arch {arch}, {specs} hot specs, {shots} shots, front {}, capacity {:.0} rps)",
            args.fleet,
            sweep.requests,
            args.tenants,
            args.shed_policy,
            args.replication,
            args.front_capacity,
            sweep.capacity_rps,
        );
    } else {
        println!(
            "# serve_bench open: {} x {} + {} arrivals over n={n} (arch {arch}, {specs} hot specs, {shots} shots, queue {}, deadline {} ns, capacity {:.0} rps)",
            sweep.requests,
            sweep.workload.name(),
            args.arrivals,
            args.queue,
            args.deadline,
            sweep.capacity_rps,
        );
    }
    let header = "load offered completed shed rps p50_us p99_us qwait_us hit_rate";
    print_row(&header.split(' ').map(String::from).collect::<Vec<_>>());
}

fn print_load_row(point: &ServeLoadPoint) {
    print_row(&[
        format!("{:.2}", point.load_factor),
        point.offered.to_string(),
        point.completed.to_string(),
        point.shed.to_string(),
        format!("{:.0}", point.achieved_rps),
        format!("{:.1}", point.latency_ns[0] / 1e3),
        format!("{:.1}", point.latency_ns[2] / 1e3),
        format!("{:.1}", point.mean_queue_wait_ns / 1e3),
        format!("{:.3}", point.cache_hit_rate),
    ]);
}

/// The bare open-loop members: telemetry, then a head-to-head
/// release-policy comparison at the swept load nearest the modeled
/// capacity (load 1.0) — below it queues barely form, far above it
/// every pending group ages past the cap and cache-affine correctly
/// degenerates to FIFO — then the sweep itself.
fn policy_sections(
    sweep: &Sweep<'_>,
    runs: &[PointRun],
    fields: &mut Members,
    telemetry_section: String,
) {
    let args = sweep.args;
    let distance = |load: &f64| (load - 1.0).abs();
    let compare_load = args
        .loads
        .iter()
        .copied()
        .min_by(|a, b| distance(a).total_cmp(&distance(b)));
    let (at, shed) = (compare_load, shed_policy(args));
    let compare_load = compare_load.expect("--load is non-empty");
    let oldest = run_point(sweep, at, ReleasePolicy::OldestFirst, shed);
    let affine = run_point(sweep, at, ReleasePolicy::cache_affine(), shed);
    let (o, a) = (&oldest.point, &affine.point);
    let (o_p50, a_p50) = (o.latency_ns[0] / 1e3, a.latency_ns[0] / 1e3);
    let (o_compile, a_compile) = (o.mean_compile_ns / 1e3, a.mean_compile_ns / 1e3);
    print_row(&[
        "policy_p50_us".into(),
        format!("oldest-first {o_p50:.1} vs cache-affine {a_p50:.1} @ load {compare_load:.2}"),
    ]);
    print_row(&[
        "policy_mean_compile_us".into(),
        format!("oldest-first {o_compile:.1} vs cache-affine {a_compile:.1}"),
    ]);
    let affine_telemetry = affine.target.telemetry();
    let compare = members![
        "compare_load" => format!("{compare_load:.2}"),
        "p50_oldest_first_ns" => format!("{:.0}", o.latency_ns[0]),
        "p99_oldest_first_ns" => format!("{:.0}", o.latency_ns[2]),
        "mean_compile_oldest_first_ns" => format!("{:.1}", o.mean_compile_ns),
        "mean_queue_wait_oldest_first_ns" => format!("{:.1}", o.mean_queue_wait_ns),
        "digest_oldest_first" => hex(oldest.results_digest()),
        "p50_cache_affine_ns" => format!("{:.0}", a.latency_ns[0]),
        "p99_cache_affine_ns" => format!("{:.0}", a.latency_ns[2]),
        "mean_compile_cache_affine_ns" => format!("{:.1}", a.mean_compile_ns),
        "mean_queue_wait_cache_affine_ns" => format!("{:.1}", a.mean_queue_wait_ns),
        "digest_cache_affine" => hex(affine.results_digest()),
        "compare_cache_affine_fires" => affine_telemetry.counter(key::POLICY_CACHE_AFFINE_FIRES),
        "compare_age_cap_forced" => affine_telemetry.counter(key::POLICY_AGE_CAP_FORCED),
    ];
    fields.append(members![
        "telemetry" => telemetry_section,
        "policy_compare" => compare.block("  "),
        "sweep" => json::rows(runs.iter().map(|run| run.point.to_json()), "  "),
    ]);
}

/// The fleet members: the fleet section, telemetry, a deadline-priority
/// vs tail-drop head-to-head at the *highest* swept load — overload is
/// where the shed policies diverge — then the sweep and the per-shard,
/// per-tenant and per-SLO tallies over every point.
fn fleet_sections(
    sweep: &Sweep<'_>,
    runs: &[PointRun],
    telemetry: &MetricsRegistry,
    fields: &mut Members,
    telemetry_section: String,
) {
    let args = sweep.args;
    let totals: Vec<f64> = runs
        .iter()
        .flat_map(|run| &run.results)
        .map(|r| r.total_latency() as f64)
        .collect();
    let (p50, p99) = (percentile(&totals, 50.0), percentile(&totals, 99.0));
    let mut tenants: BTreeMap<TenantId, TenantStats> = BTreeMap::new();
    let mut classes: BTreeMap<&'static str, ClassStats> = BTreeMap::new();
    let mut shards = vec![(0, CacheStats::default()); args.fleet];
    for run in runs {
        let stats = run.target.fleet_stats();
        for (&tenant, s) in &stats.per_tenant {
            let t = tenants.entry(tenant).or_default();
            t.completed += s.completed;
            t.shed += s.shed;
        }
        for (&label, s) in &stats.per_class {
            let c = classes.entry(label).or_default();
            c.completed += s.completed;
            c.shed += s.shed;
            c.deadline_met += s.deadline_met;
            c.deadline_missed += s.deadline_missed;
        }
        for (sid, shard) in run.target.shards().iter().enumerate() {
            let (completed, cache) = &mut shards[sid];
            *completed += run.results.iter().filter(|r| r.shard == sid).count();
            cache.hits += shard.cache_stats().hits;
            cache.misses += shard.cache_stats().misses;
        }
    }
    let door = format!("p50 {:.1}, p99 {:.1}", p50 / 1e3, p99 / 1e3);
    print_row(&["fleet_door_to_done_us".into(), door]);
    for (tenant, s) in &tenants {
        let row = format!("{} completed, {} shed", s.completed, s.shed);
        print_row(&[format!("tenant[{}]", tenant.0), row]);
    }
    for (label, s) in &classes {
        let (met, all) = (s.deadline_met, s.deadline_met + s.deadline_missed);
        let row = format!(
            "{} completed, {} shed, deadline {met}/{all}",
            s.completed, s.shed
        );
        print_row(&[format!("slo[{label}]"), row]);
    }

    let compare_load = args.loads.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let (at, release) = (Some(compare_load), release_policy(args));
    let dp = run_point(sweep, at, release, ShedPolicy::DeadlinePriority);
    let td = run_point(sweep, at, release, ShedPolicy::TailDrop);
    // Door-to-completion p99 of the interactive class (0 when the point
    // completed no interactive requests).
    let interactive_p99 = |run: &PointRun| {
        let totals: Vec<f64> = run
            .results
            .iter()
            .filter(|r| matches!(r.slo, SloClass::Interactive { .. }))
            .map(|r| r.total_latency() as f64)
            .collect();
        percentile(&totals, 99.0)
    };
    let (dp_p99, td_p99) = (interactive_p99(&dp), interactive_p99(&td));
    print_row(&[
        "slo_interactive_p99_us".into(),
        format!(
            "deadline-priority {:.1} vs tail-drop {:.1} @ load {compare_load:.2}",
            dp_p99 / 1e3,
            td_p99 / 1e3
        ),
    ]);
    let class_shed = |run: &PointRun, label| {
        let stats = run.target.fleet_stats();
        stats.per_class.get(label).map_or(0, |s| s.shed)
    };
    let slo_compare = members![
        "slo_compare_load" => format!("{compare_load:.2}"),
        "interactive_p99_deadline_priority_ns" => format!("{dp_p99:.0}"),
        "interactive_p99_tail_drop_ns" => format!("{td_p99:.0}"),
        "interactive_shed_deadline_priority" => class_shed(&dp, "interactive"),
        "interactive_shed_tail_drop" => class_shed(&td, "interactive"),
        "batch_shed_deadline_priority" => class_shed(&dp, "batch"),
        "batch_shed_tail_drop" => class_shed(&td, "batch"),
        "best_effort_shed_deadline_priority" => class_shed(&dp, "best_effort"),
        "best_effort_shed_tail_drop" => class_shed(&td, "best_effort"),
        "digest_deadline_priority" => hex(dp.results_digest()),
        "digest_tail_drop" => hex(td.results_digest()),
    ];

    let fleet = members![
        "fleet_shards" => args.fleet,
        "fleet_tenants" => args.tenants,
        "fleet_front_capacity" => args.front_capacity,
        "fleet_shed_policy" => quote(shed_policy(args).label()),
        "fleet_replication" => args.replication,
        "fleet_pin_planned" => args.pin_planned,
        "fleet_slo_deadline_ns" => args.slo_deadline,
        "fleet_offered" => runs.iter().map(|r| r.point.offered).sum::<usize>(),
        "fleet_completed" => totals.len(),
        "fleet_shed" => runs.iter().map(|r| r.point.shed).sum::<u64>(),
        "fleet_routed" => telemetry.counter(key::FLEET_ROUTED),
        "fleet_pinned_routes" => telemetry.counter(key::FLEET_PINNED_ROUTES),
        "fleet_replica_cache_wins" => telemetry.counter(key::FLEET_REPLICA_CACHE_WINS),
        "fleet_front_depth_high_water" => telemetry.gauge(key::FLEET_FRONT_DEPTH_HIGH_WATER),
        "fleet_p50_ns" => format!("{p50:.0}"),
        "fleet_p99_ns" => format!("{p99:.0}"),
    ];
    let per_shard = shards.iter().enumerate().map(|(sid, (completed, c))| {
        members![
            "shard" => sid, "completed" => completed,
            "cache_hits" => c.hits, "cache_misses" => c.misses,
        ]
        .inline()
    });
    let per_tenant = tenants.iter().map(|(t, s)| {
        members!["tenant" => t.0, "completed" => s.completed, "shed" => s.shed].inline()
    });
    let per_slo = classes.iter().map(|(label, s)| {
        members![
            "slo" => quote(label),
            "completed" => s.completed,
            "shed" => s.shed,
            "deadline_met" => s.deadline_met,
            "deadline_missed" => s.deadline_missed,
        ]
        .inline()
    });
    fields.append(members![
        "fleet" => fleet.block("  "),
        "telemetry" => telemetry_section,
        "slo_compare" => slo_compare.block("  "),
        "sweep" => json::rows(runs.iter().map(|run| run.point.to_json()), "  "),
        "per_shard" => json::rows(per_shard, "  "),
        "per_tenant" => json::rows(per_tenant, "  "),
        "per_slo" => json::rows(per_slo, "  "),
    ]);
}

/// The `qubit_budget` summary field: the CLI's "0 means unlimited"
/// convention, round-tripped.
fn budget_field(args: &Args) -> usize {
    if args.qubit_budget == UNLIMITED_BUDGET {
        0
    } else {
        args.qubit_budget
    }
}

fn mix_name(args: &Args) -> String {
    if args.spec_skew > 0.0 {
        format!("zipfian({:.2})", args.spec_skew)
    } else {
        "round_robin".into()
    }
}
