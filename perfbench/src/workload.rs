//! The benchmark's three workloads and their seeded inputs.
//!
//! Every input the program sees is generated here from the workload and
//! the `--seed`: the address stream, the spec picks, the arrival
//! instants, the tenant/SLO tags and the service's fault-stream seed,
//! over the workload's fixed memory image and planned spec mix. The same
//! seed always yields byte-identical inputs.

use qram_bench::experiment_memory;
use qram_core::Memory;
use qram_fleet::{FleetConfig, FleetController, ShedPolicy};
use qram_plan::{planned_families, UNLIMITED_BUDGET};
use qram_service::{
    assign_specs_with, ArrivalProcess, QramService, QuerySpec, Recorder, ServiceConfig, SloClass,
    SpecMix, TenantId, Ticks, Workload,
};
use qram_telemetry::{fnv1a_64, host_wall};

/// Seed of the served memory image. The image is part of a workload's
/// definition, like a dataset: its contents set every circuit's size and
/// so the modeled capacity, and a seed-dependent image would turn one
/// workload into many. `--seed` varies the traffic instead: addresses,
/// spec picks, arrivals, tenants and fault streams.
const MEMORY_SEED: u64 = 2023;
/// Bounded in-system queue of every open-loop shard.
const QUEUE: usize = 64;
/// Shards behind the fleet front door.
const FLEET_SHARDS: usize = 4;
/// Tenants the fleet traffic is spread over.
const TENANTS: u32 = 3;
/// The interactive class's deadline budget (virtual ns), as in
/// `serve_bench --slo-deadline`'s default.
const INTERACTIVE_DEADLINE: Ticks = 60_000;

/// One of the benchmark's fixed workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Offline fidelity study: width 6, 32 shots, every request
    /// `submit`ted at virtual t=0 and then `drain`ed. Shot simulation
    /// dominates; compile and cache are bypassed (cache 8 ≥ 5 specs).
    NoisyBatch,
    /// Open-loop noiseless serving at 1.0× modeled capacity through
    /// `try_submit_at` / `run_until_idle`: width 4, 0 shots, cache 2 < 5
    /// specs, so it is compile-bound and bypasses the shot engine.
    ChurnOpen,
    /// The same traffic shape at 2.0× capacity into a 4-shard
    /// `FleetController` with 3 tenants and SLO classes: the admission
    /// path the other way round, shedding about two fifths of the offers.
    FleetOverload,
}

impl Kind {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Kind; 3] = [Kind::NoisyBatch, Kind::ChurnOpen, Kind::FleetOverload];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::NoisyBatch => "noisy-batch",
            Kind::ChurnOpen => "churn-open",
            Kind::FleetOverload => "fleet-overload",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Requests offered per measured pass.
    pub fn requests(self) -> usize {
        match self {
            Kind::NoisyBatch => 1_000,
            Kind::ChurnOpen => 30_000,
            Kind::FleetOverload => 30_000,
        }
    }

    /// The fixed virtual door-to-done latency limit `slo_met_frac` is
    /// measured against (virtual ns).
    pub fn slo_limit(self) -> Ticks {
        match self {
            Kind::NoisyBatch => 100_000_000,
            Kind::ChurnOpen => 100_000,
            Kind::FleetOverload => 150_000,
        }
    }

    fn width(self) -> usize {
        match self {
            Kind::NoisyBatch => 6,
            _ => 4,
        }
    }

    fn shots(self) -> usize {
        match self {
            Kind::NoisyBatch => 32,
            _ => 0,
        }
    }

    fn cache(self) -> usize {
        match self {
            Kind::NoisyBatch => 8,
            _ => 2,
        }
    }

    /// Offered load as a multiple of modeled capacity (open loops only).
    fn load(self) -> f64 {
        match self {
            Kind::FleetOverload => 2.0,
            _ => 1.0,
        }
    }
}

/// One offered request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Offer {
    /// Memory address queried.
    pub address: u64,
    /// Compilation profile that serves it.
    pub spec: QuerySpec,
    /// Arrival instant on the virtual clock.
    pub arrival: Ticks,
    /// Tenant tag (fleet only; the default tenant elsewhere).
    pub tenant: TenantId,
    /// SLO class tag (fleet only; the default class elsewhere).
    pub slo: SloClass,
}

/// Everything a pass needs, generated from `(kind, seed)`.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload.
    pub kind: Kind,
    /// The served memory image.
    pub memory: Memory,
    /// The planner's five-family spec mix.
    pub specs: Vec<QuerySpec>,
    /// The offered requests, in arrival order.
    pub offers: Vec<Offer>,
    /// The bare service configuration (the fleet's per-shard base).
    pub service: ServiceConfig,
    /// The fleet topology (`FleetOverload` only).
    pub fleet: Option<FleetConfig>,
    /// Host ns spent in `planned_families`.
    pub plan_ns: u64,
    /// Host ns spent generating the memory and the offered stream.
    pub gen_ns: u64,
}

/// The program under test, freshly built for one pass.
#[derive(Debug)]
pub enum Target<R: Recorder> {
    /// A bare service (`NoisyBatch`, `ChurnOpen`).
    Service(QramService<R>),
    /// A sharded fleet (`FleetOverload`).
    Fleet(FleetController<R>),
}

impl<R: Recorder> Target<R> {
    /// The serving shards: the bare service alone, or every fleet shard.
    pub fn shards(&self) -> &[QramService<R>] {
        match self {
            Target::Service(service) => std::slice::from_ref(service),
            Target::Fleet(fleet) => fleet.shards(),
        }
    }
}

/// Deterministic tenant of the `index`-th offer, assigned as
/// `serve_bench` assigns it: an FNV mix of the index and the seed.
fn tenant_for(index: u64, tenants: u32, seed: u64) -> TenantId {
    let mut bytes = index.to_le_bytes().to_vec();
    bytes.extend_from_slice(&seed.to_le_bytes());
    TenantId((fnv1a_64(bytes) % tenants as u64) as u32)
}

/// Deterministic SLO class of the `index`-th offer, as in
/// `serve_bench`: 25% interactive, 50% batch, 25% best-effort.
fn slo_for(index: u64, deadline: Ticks) -> SloClass {
    match index % 4 {
        0 => SloClass::Interactive { deadline },
        3 => SloClass::BestEffort,
        _ => SloClass::Batch,
    }
}

fn elapsed_ns(start: std::time::Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Independent traffic samples a run cycles through: pooling them
/// steadies the virtual figures, which a single sample at 1.0× or 2.0×
/// load leaves at the mercy of one queueing sample path.
pub const SAMPLES: usize = 8;

impl Inputs {
    /// The [`SAMPLES`] traffic samples of workload `kind` for `seed`,
    /// `requests` offers each.
    pub fn samples(kind: Kind, seed: u64, requests: usize) -> Vec<Inputs> {
        (0..SAMPLES as u64)
            .map(|j| {
                let bytes = seed.to_le_bytes().into_iter().chain(j.to_le_bytes());
                Inputs::generate(kind, fnv1a_64(bytes), requests)
            })
            .collect()
    }

    /// Generates `requests` offers of workload `kind` from `seed`.
    pub fn generate(kind: Kind, seed: u64, requests: usize) -> Inputs {
        let plan_start = host_wall();
        let specs: Vec<QuerySpec> = planned_families(kind.width(), UNLIMITED_BUDGET)
            .into_iter()
            .map(QuerySpec::of)
            .collect();
        let plan_ns = elapsed_ns(plan_start);

        let gen_start = host_wall();
        let memory = experiment_memory(kind.width(), MEMORY_SEED);
        let service = ServiceConfig::default()
            .with_workers(1)
            .with_shots(kind.shots())
            .with_seed(seed)
            .with_cache_capacity(kind.cache())
            .with_queue_capacity(QUEUE);
        let addresses = Workload::Zipfian {
            address_width: kind.width(),
            theta: 0.99,
            seed,
        };
        let submissions = match kind {
            // Equal work per sample: every spec the same number of times,
            // in a seed-rotated order.
            Kind::NoisyBatch => {
                let mut order = specs.clone();
                order.rotate_left((seed % specs.len() as u64) as usize);
                assign_specs_with(&addresses, &order, SpecMix::RoundRobin, requests)
            }
            _ => {
                let mix = SpecMix::Zipfian {
                    theta: 0.9,
                    seed: seed ^ 0x51ce,
                };
                assign_specs_with(&addresses, &specs, mix, requests)
            }
        };
        let arrivals = match kind {
            Kind::NoisyBatch => vec![0; requests],
            _ => {
                // Modeled capacity: execution units over the specs' mean
                // execute cost, times the shard count for the fleet.
                let cost = service.cost;
                let mean_execute = specs
                    .iter()
                    .map(|s| cost.execute_cost(&s.arch.instantiate().resources(&memory), 0))
                    .sum::<u64>() as f64
                    / specs.len() as f64;
                let shards = if kind == Kind::FleetOverload {
                    FLEET_SHARDS as f64
                } else {
                    1.0
                };
                let capacity = cost.capacity_rps(mean_execute.round() as u64) * shards;
                ArrivalProcess::Poisson {
                    mean_gap: 1e9 / (capacity * kind.load()),
                    seed: seed ^ 0x5eed,
                }
                .arrivals(requests)
            }
        };
        let fleet_tags = kind == Kind::FleetOverload;
        let offers = submissions
            .into_iter()
            .zip(arrivals)
            .enumerate()
            .map(|(i, ((address, spec), arrival))| Offer {
                address,
                spec,
                arrival,
                tenant: if fleet_tags {
                    tenant_for(i as u64, TENANTS, seed)
                } else {
                    TenantId::default()
                },
                slo: if fleet_tags {
                    slo_for(i as u64, INTERACTIVE_DEADLINE)
                } else {
                    SloClass::default()
                },
            })
            .collect();
        let fleet = fleet_tags.then(|| {
            FleetConfig::default()
                .with_shards(FLEET_SHARDS)
                .with_shard_base(service)
                .with_front_capacity(QUEUE)
                .with_shed_policy(ShedPolicy::DeadlinePriority)
                .with_replication(2)
        });
        Inputs {
            kind,
            memory,
            specs,
            offers,
            service,
            fleet,
            plan_ns,
            gen_ns: elapsed_ns(gen_start),
        }
    }

    /// Shots each request is served with.
    pub fn shots(&self) -> usize {
        self.service.shots
    }

    /// The service configuration shard `sid` runs (the bare service is
    /// shard 0). Fleet shards are re-seeded with `seed + sid`.
    pub fn shard_config(&self, sid: usize) -> ServiceConfig {
        match &self.fleet {
            Some(fleet) => fleet.shard_config(sid),
            None => self.service,
        }
    }

    /// A fresh program to serve one pass: executor `workers`, one
    /// recorder per shard (and one for the fleet front door) from `mk`.
    pub fn target<R: Recorder>(&self, workers: usize, mut mk: impl FnMut(usize) -> R) -> Target<R> {
        match &self.fleet {
            Some(fleet) => {
                let config = fleet
                    .clone()
                    .with_shard_base(fleet.shard_base.with_workers(workers));
                Target::Fleet(FleetController::with_recorders(
                    self.memory.clone(),
                    config,
                    mk,
                ))
            }
            None => Target::Service(QramService::with_recorder(
                self.memory.clone(),
                self.service.with_workers(workers),
                mk(0),
            )),
        }
    }
}
