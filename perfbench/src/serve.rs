//! One measured pass: every offer driven through the program's public
//! API, each call timed on the host clock, every answer checked.

use std::time::Instant;

use qram_fleet::FleetResult;
use qram_service::{Admission, Latency, QramService, QueryResult, QuerySpec, Recorder, Ticks};
use qram_sim::FidelityEstimate;
use qram_telemetry::fnv1a_64;

use crate::workload::{Inputs, Kind, Target};

/// Which API entry point a call went to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `submit` / `try_submit_at` / `FleetController::submit_at`.
    Submit,
    /// `drain` / `run_until_idle`.
    Drain,
}

/// One timed call into the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Call {
    /// Entry point.
    pub kind: CallKind,
    /// Offer index for submit calls.
    pub seq: Option<u64>,
    /// Host ns since the pass clock's origin.
    pub start_ns: u64,
    /// Host ns since the pass clock's origin.
    pub end_ns: u64,
    /// Whether a batch fired inside the call (probed passes only).
    pub fired: bool,
}

impl Call {
    /// Host ns the call took.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One completed request, the same shape for service and fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    /// Offer index.
    pub seq: u64,
    /// Shard that served it (0 for the bare service).
    pub shard: usize,
    /// Shard-local request id (its fault-stream key).
    pub id: u64,
    /// Address queried.
    pub address: u64,
    /// Spec it was served under.
    pub spec: QuerySpec,
    /// The served readout.
    pub value: bool,
    /// The served fidelity estimate.
    pub fidelity: FidelityEstimate,
    /// Arrival at the program's door (fleet front door or service).
    pub door_arrival: Ticks,
    /// Virtual completion instant.
    pub completed: Ticks,
    /// Virtual wait at the fleet front door (0 for the bare service).
    pub front_wait: Ticks,
    /// Shard-level virtual latency breakdown.
    pub latency: Latency,
}

impl Served {
    /// Door-to-done virtual latency.
    pub fn total(&self) -> Ticks {
        self.front_wait + self.latency.total()
    }
}

/// Everything one pass produced.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Every call into the program, in order.
    pub calls: Vec<Call>,
    /// Completed requests, in the order the program returned them.
    pub served: Vec<Served>,
    /// Requests offered.
    pub offered: u64,
    /// Offers shed by back-pressure, as the bench saw them.
    pub shed: u64,
    /// Offers rejected as invalid.
    pub rejected: u64,
    /// Sheds as the program counted them.
    pub program_shed: u64,
    /// Offer indices of the shed requests.
    pub shed_seqs: Vec<u64>,
    /// `serve_bench`-compatible digest of the result set.
    pub digest: u64,
}

impl Pass {
    /// Host window: first offered request to the last result returned.
    pub fn window_ns(&self) -> u64 {
        match (self.calls.first(), self.calls.last()) {
            (Some(first), Some(last)) => last.end_ns - first.start_ns,
            _ => 0,
        }
    }

    /// Completed requests per host second.
    pub fn host_rps(&self) -> f64 {
        self.served.len() as f64 * 1e9 / self.window_ns().max(1) as f64
    }
}

/// Digest of a bare-service result set, field for field as
/// `serve_bench` prints its `results_digest`.
pub fn results_digest(results: &[QueryResult]) -> u64 {
    let mut bytes: Vec<u8> = Vec::with_capacity(results.len() * 96);
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

/// Digest of a fleet result set, as `serve_bench --fleet` prints it.
pub fn fleet_results_digest(results: &[FleetResult]) -> u64 {
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

/// Requests that have left the batcher for execution, over all shards;
/// it moves exactly when a batch fires.
fn executed<R: Recorder>(shards: &[QramService<R>]) -> u64 {
    shards
        .iter()
        .map(|s| s.admission_stats().accepted - s.pending() as u64)
        .sum()
}

fn served_from_result(seq: u64, shard: usize, r: &QueryResult, front_wait: Ticks) -> Served {
    Served {
        seq,
        shard,
        id: r.id,
        address: r.address,
        spec: r.spec,
        value: r.value,
        fidelity: r.fidelity,
        door_arrival: r.arrival - front_wait,
        completed: r.completed,
        front_wait,
        latency: r.latency,
    }
}

/// Drives every offer of `inputs` through `target`, timing each call
/// against `clock`. With `probe` set, each call also records whether a
/// batch fired inside it (a few counter reads between calls, outside
/// the timed span).
pub fn run_pass<R: Recorder>(
    inputs: &Inputs,
    target: &mut Target<R>,
    clock: Instant,
    probe: bool,
) -> Pass {
    let now = || clock.elapsed().as_nanos() as u64;
    let mut pass = Pass {
        offered: inputs.offers.len() as u64,
        calls: Vec::with_capacity(inputs.offers.len() + 1),
        ..Pass::default()
    };
    let mut before = if probe { executed(target.shards()) } else { 0 };
    let mut fired = |shards: &[QramService<R>]| {
        probe && {
            let after = executed(shards);
            let moved = after != before;
            before = after;
            moved
        }
    };
    let closed = inputs.kind == Kind::NoisyBatch;
    match target {
        Target::Service(service) => {
            // Request ids are dense over accepted offers.
            let mut seq_of_id: Vec<u64> = Vec::with_capacity(inputs.offers.len());
            for (seq, offer) in inputs.offers.iter().enumerate() {
                let start_ns = now();
                let admission = if closed {
                    Admission::Accepted(service.submit(offer.address, offer.spec))
                } else {
                    service.try_submit_at(offer.address, offer.spec, offer.arrival)
                };
                let end_ns = now();
                pass.calls.push(Call {
                    kind: CallKind::Submit,
                    seq: Some(seq as u64),
                    start_ns,
                    end_ns,
                    fired: fired(std::slice::from_ref(service)),
                });
                match admission {
                    Admission::Accepted(_) => seq_of_id.push(seq as u64),
                    Admission::Shed { .. } => {
                        pass.shed += 1;
                        pass.shed_seqs.push(seq as u64);
                    }
                    Admission::Rejected(_) => pass.rejected += 1,
                }
            }
            let start_ns = now();
            let results = if closed {
                service.drain().results
            } else {
                service.run_until_idle()
            };
            let end_ns = now();
            pass.calls.push(Call {
                kind: CallKind::Drain,
                seq: None,
                start_ns,
                end_ns,
                fired: fired(std::slice::from_ref(service)),
            });
            pass.program_shed = service.admission_stats().shed;
            pass.digest = results_digest(&results);
            pass.served = results
                .iter()
                .map(|r| {
                    let seq = seq_of_id.get(r.id as usize).copied().unwrap_or(u64::MAX);
                    served_from_result(seq, 0, r, 0)
                })
                .collect();
        }
        Target::Fleet(fleet) => {
            for (seq, offer) in inputs.offers.iter().enumerate() {
                let start_ns = now();
                let admission = fleet.submit_at(
                    offer.address,
                    offer.spec,
                    offer.arrival,
                    offer.tenant,
                    offer.slo,
                );
                let end_ns = now();
                pass.calls.push(Call {
                    kind: CallKind::Submit,
                    seq: Some(seq as u64),
                    start_ns,
                    end_ns,
                    fired: fired(fleet.shards()),
                });
                if let Some(drop) = admission.shed {
                    pass.shed += 1;
                    pass.shed_seqs.push(drop.seq);
                }
            }
            let start_ns = now();
            let results = fleet.run_until_idle();
            let end_ns = now();
            pass.calls.push(Call {
                kind: CallKind::Drain,
                seq: None,
                start_ns,
                end_ns,
                fired: fired(fleet.shards()),
            });
            pass.program_shed = fleet.stats().shed;
            pass.digest = fleet_results_digest(&results);
            pass.served = results
                .iter()
                .map(|r| served_from_result(r.seq, r.shard, &r.result, r.front_wait))
                .collect();
        }
    }
    pass
}
