//! The deadline-aware batching scheduler: admitted requests → fired
//! batches.
//!
//! Requests are batch-compatible when their [`QuerySpec`]s are equal
//! (same architecture shape, address width, optimization set and data
//! encoding): one compiled circuit serves every request of the batch, so
//! the compile cost — and one circuit-cache lookup — is amortized over
//! the whole batch.
//!
//! Batching trades latency for that amortization, and the
//! [`DeadlineBatcher`] makes the trade explicit: a pending group fires
//! when it reaches the batch limit (amortization won) **or** when its
//! oldest member's deadline slack is exhausted (latency bound hit) —
//! whichever comes first. A work-conserving service additionally calls
//! [`DeadlineBatcher::fire_oldest`] whenever the modeled device has a
//! free execution unit: with capacity idle, waiting out a deadline buys
//! no amortization. Grouping is stable: specs hold first-arrival
//! order and requests keep their admission order within a spec, which
//! makes the firing sequence (and therefore cache accounting) a pure
//! function of the admitted request sequence and the clock instants at
//! which the pipeline is advanced.

use crate::{QueryRequest, QuerySpec, Ticks};

/// Which pending group a work-conserving release hands a freed
/// execution unit.
///
/// The policy consults only virtual-time state — pending-group arrival
/// order and compiled-circuit cache residency — never host scheduling,
/// so every choice (and therefore every result, trace and digest) stays
/// bit-identical across worker/shot-thread/path-chunk counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ReleasePolicy {
    /// Strict FIFO over groups: always the group whose current members
    /// arrived first (the historical behavior, and the default).
    #[default]
    OldestFirst,
    /// Cost-based: prefer the *oldest cache-resident* group — its
    /// compiled circuit is already in the [`crate::CircuitCache`], so
    /// releasing it charges zero compile ticks on the critical path —
    /// over strict FIFO, unless the oldest group has already waited
    /// `age_cap` ticks, in which case it is released regardless of
    /// residency (the non-starvation bound).
    CacheAffine {
        /// Maximum ticks the oldest pending group may be passed over
        /// before it becomes the forced pick. Bounds any group's extra
        /// queue wait under sustained cache-hot load; the batching
        /// deadline still applies independently.
        age_cap: Ticks,
    },
}

impl ReleasePolicy {
    /// Default age cap of [`ReleasePolicy::cache_affine`]: half the
    /// default batching deadline, so the policy's starvation bound is
    /// strictly tighter than the deadline path it rides alongside.
    pub const DEFAULT_AGE_CAP: Ticks = 10_000;

    /// The cache-affine policy at the default age cap.
    pub fn cache_affine() -> Self {
        ReleasePolicy::CacheAffine {
            age_cap: ReleasePolicy::DEFAULT_AGE_CAP,
        }
    }

    /// Stable label for reports (`"oldest-first"` / `"cache-affine"`).
    pub fn label(&self) -> &'static str {
        match self {
            ReleasePolicy::OldestFirst => "oldest-first",
            ReleasePolicy::CacheAffine { .. } => "cache-affine",
        }
    }
}

/// A fired batch: a run of batch-compatible requests released for
/// execution together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryBatch {
    /// The shared compilation profile.
    pub spec: QuerySpec,
    /// The batched requests, in admission order.
    pub requests: Vec<QueryRequest>,
}

impl QueryBatch {
    /// Number of requests in the batch.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the batch is empty (never produced by the scheduler).
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Arrival of the batch's oldest member.
    pub fn oldest_arrival(&self) -> Ticks {
        self.requests.first().map_or(0, |r| r.arrival)
    }

    /// The batch's telemetry group key: the architecture name of the
    /// spec the batcher grouped these requests under (specs are the
    /// grouping key, so the name identifies the group uniquely).
    pub fn group_key(&self) -> String {
        self.spec.arch.to_string()
    }

    /// Id of the batch's oldest member (0 for an empty batch) — the
    /// request id batch-level telemetry spans anchor on.
    pub fn lead_id(&self) -> u64 {
        self.requests.first().map_or(0, |r| r.id)
    }
}

/// The deadline-aware batcher: one pending group per in-flight spec.
///
/// * [`push`](DeadlineBatcher::push) admits a request and fires its
///   group the instant it reaches `batch_limit`;
/// * [`next_deadline`](DeadlineBatcher::next_deadline) is the earliest
///   instant at which some group must fire for its oldest member to stay
///   within the slack — the pipeline's next scheduled event;
/// * [`fire_due`](DeadlineBatcher::fire_due) releases every group whose
///   deadline has passed;
/// * [`flush`](DeadlineBatcher::flush) releases everything (closed-loop
///   drain).
#[derive(Debug, Clone)]
pub struct DeadlineBatcher {
    batch_limit: usize,
    deadline: Ticks,
    /// Pending groups in first-arrival order of their current members.
    groups: Vec<(QuerySpec, Vec<QueryRequest>)>,
}

impl DeadlineBatcher {
    /// A batcher firing at `batch_limit` requests or `deadline` ticks of
    /// oldest-member slack, whichever is exhausted first.
    ///
    /// # Panics
    ///
    /// Panics if `batch_limit == 0`.
    pub fn new(batch_limit: usize, deadline: Ticks) -> Self {
        assert!(batch_limit > 0, "batch limit must be positive");
        DeadlineBatcher {
            batch_limit,
            deadline,
            groups: Vec::new(),
        }
    }

    /// Pending (admitted, not yet fired) requests.
    pub fn pending(&self) -> usize {
        self.groups.iter().map(|(_, members)| members.len()).sum()
    }

    /// Admits one request; returns the request's batch if this admission
    /// filled its group to the batch limit.
    pub fn push(&mut self, request: QueryRequest) -> Option<QueryBatch> {
        let pos = match self
            .groups
            .iter_mut()
            .position(|(spec, _)| *spec == request.spec)
        {
            Some(pos) => {
                self.groups[pos].1.push(request);
                pos
            }
            None => {
                self.groups.push((request.spec, vec![request]));
                self.groups.len() - 1
            }
        };
        if self.groups[pos].1.len() >= self.batch_limit {
            let (spec, requests) = self.groups.remove(pos);
            return Some(QueryBatch { spec, requests });
        }
        None
    }

    /// The earliest instant a pending group's oldest member exhausts its
    /// slack (`None` when nothing is pending). Saturating: a slack of
    /// [`Ticks::MAX`] means "never fire on deadline" regardless of
    /// arrival time.
    pub fn next_deadline(&self) -> Option<Ticks> {
        self.groups
            .iter()
            .map(|(_, members)| members[0].arrival.saturating_add(self.deadline))
            .min()
    }

    /// Fires every group whose deadline is at or before `now`, in
    /// first-arrival order.
    pub fn fire_due(&mut self, now: Ticks) -> Vec<QueryBatch> {
        let mut fired = Vec::new();
        let mut kept = Vec::new();
        for (spec, members) in self.groups.drain(..) {
            if members[0].arrival.saturating_add(self.deadline) <= now {
                fired.push(QueryBatch {
                    spec,
                    requests: members,
                });
            } else {
                kept.push((spec, members));
            }
        }
        self.groups = kept;
        fired
    }

    /// Fires the single pending group whose current members arrived
    /// first, regardless of deadline (`None` when nothing is pending) —
    /// the **work-conserving** path: when the modeled device has a free
    /// execution unit, waiting out a deadline buys no amortization, so
    /// the service releases the oldest pending work immediately.
    pub fn fire_oldest(&mut self) -> Option<QueryBatch> {
        self.fire_nth(0)
    }

    /// Fires the pending group at `index` in first-arrival order
    /// (`None` when out of range) — the policy-driven release path:
    /// a [`ReleasePolicy`] picks the index, this method releases it.
    pub fn fire_nth(&mut self, index: usize) -> Option<QueryBatch> {
        if index >= self.groups.len() {
            return None;
        }
        let (spec, requests) = self.groups.remove(index);
        Some(QueryBatch { spec, requests })
    }

    /// `(spec, oldest member arrival)` of every pending group, in
    /// first-arrival order — the read-only view a [`ReleasePolicy`]
    /// selects over.
    pub fn group_heads(&self) -> Vec<(QuerySpec, Ticks)> {
        self.groups
            .iter()
            .map(|(spec, members)| (*spec, members[0].arrival))
            .collect()
    }

    /// Fires every pending group regardless of deadline, in
    /// first-arrival order (the closed-loop drain path).
    pub fn flush(&mut self) -> Vec<QueryBatch> {
        self.groups
            .drain(..)
            .map(|(spec, requests)| QueryBatch { spec, requests })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(id: u64, spec: QuerySpec) -> QueryRequest {
        at(id, spec, 0)
    }

    fn at(id: u64, spec: QuerySpec, arrival: Ticks) -> QueryRequest {
        QueryRequest {
            id,
            address: id % (1 << spec.address_width()) as u64,
            spec,
            arrival,
            tenant: crate::TenantId::default(),
            slo: crate::SloClass::default(),
        }
    }

    #[test]
    fn groups_by_spec_in_first_arrival_order() {
        let a = QuerySpec::new(0, 2);
        let b = QuerySpec::new(1, 1);
        let mut batcher = DeadlineBatcher::new(16, Ticks::MAX);
        for (id, spec) in [(0, a), (1, b), (2, a), (3, b), (4, a)] {
            assert!(batcher.push(request(id, spec)).is_none());
        }
        let batches = batcher.flush();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].spec, a);
        assert_eq!(batches[1].spec, b);
        // Admission order within a spec.
        assert_eq!(
            batches[0].requests.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![0, 2, 4]
        );
        assert_eq!(
            batches[1].requests.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![1, 3]
        );
    }

    #[test]
    fn batch_limit_splits_large_groups() {
        let spec = QuerySpec::new(0, 2);
        let mut batcher = DeadlineBatcher::new(4, Ticks::MAX);
        let mut batches: Vec<QueryBatch> = (0..10)
            .filter_map(|i| batcher.push(request(i, spec)))
            .collect();
        batches.extend(batcher.flush());
        assert_eq!(
            batches.iter().map(QueryBatch::len).collect::<Vec<_>>(),
            vec![4, 4, 2]
        );
        assert!(batches.iter().all(|b| b.spec == spec && !b.is_empty()));
    }

    #[test]
    fn empty_queue_plans_no_batches() {
        assert!(DeadlineBatcher::new(8, Ticks::MAX).flush().is_empty());
    }

    #[test]
    #[should_panic(expected = "batch limit must be positive")]
    fn zero_batch_limit_is_rejected() {
        let _ = DeadlineBatcher::new(0, Ticks::MAX);
    }

    #[test]
    fn batch_limit_one_fires_every_push() {
        // The degenerate no-batching configuration: a fresh group must
        // fire immediately, not linger until its deadline.
        let spec = QuerySpec::new(0, 2);
        let mut batcher = DeadlineBatcher::new(1, 1_000);
        for id in 0..3 {
            let fired = batcher.push(request(id, spec)).expect("fires at once");
            assert_eq!(fired.len(), 1);
            assert_eq!(batcher.pending(), 0);
        }
    }

    #[test]
    fn push_fires_exactly_at_the_limit() {
        let spec = QuerySpec::new(0, 2);
        let mut batcher = DeadlineBatcher::new(3, 1_000);
        assert!(batcher.push(request(0, spec)).is_none());
        assert!(batcher.push(request(1, spec)).is_none());
        let fired = batcher.push(request(2, spec)).expect("fires at limit");
        assert_eq!(fired.len(), 3);
        assert_eq!(batcher.pending(), 0);
        // The group resets: the next request starts a fresh one.
        assert!(batcher.push(request(3, spec)).is_none());
        assert_eq!(batcher.pending(), 1);
    }

    #[test]
    fn deadline_is_the_oldest_members_slack() {
        let a = QuerySpec::new(0, 2);
        let b = QuerySpec::new(1, 1);
        let mut batcher = DeadlineBatcher::new(16, 100);
        assert_eq!(batcher.next_deadline(), None);
        batcher.push(at(0, a, 40));
        batcher.push(at(1, b, 10));
        batcher.push(at(2, a, 90)); // does not move a's deadline
        assert_eq!(batcher.next_deadline(), Some(110));

        // At t = 109 nothing is due; at t = 110 only b fires.
        assert!(batcher.fire_due(109).is_empty());
        let fired = batcher.fire_due(110);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].spec, b);
        assert_eq!(fired[0].oldest_arrival(), 10);
        // a remains pending with its own deadline.
        assert_eq!(batcher.next_deadline(), Some(140));
        assert_eq!(batcher.pending(), 2);

        let rest = batcher.flush();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].requests.len(), 2);
        assert_eq!(batcher.pending(), 0);
    }

    #[test]
    fn fire_oldest_releases_groups_in_first_arrival_order() {
        let a = QuerySpec::new(0, 2);
        let b = QuerySpec::new(1, 1);
        let mut batcher = DeadlineBatcher::new(16, 1_000);
        assert!(batcher.fire_oldest().is_none());
        batcher.push(at(0, a, 5));
        batcher.push(at(1, b, 7));
        batcher.push(at(2, a, 9));
        let first = batcher.fire_oldest().expect("a pends");
        assert_eq!(first.spec, a);
        assert_eq!(first.len(), 2);
        let second = batcher.fire_oldest().expect("b pends");
        assert_eq!(second.spec, b);
        assert_eq!(batcher.pending(), 0);
    }

    #[test]
    fn fire_nth_releases_an_arbitrary_group_and_keeps_order() {
        let a = QuerySpec::new(0, 2);
        let b = QuerySpec::new(1, 1);
        let c = QuerySpec::new(2, 1);
        let mut batcher = DeadlineBatcher::new(16, 1_000);
        batcher.push(at(0, a, 5));
        batcher.push(at(1, b, 7));
        batcher.push(at(2, c, 9));
        batcher.push(at(3, b, 11));
        assert_eq!(
            batcher.group_heads(),
            vec![(a, 5), (b, 7), (c, 9)],
            "heads carry the oldest member's arrival in first-arrival order"
        );
        // Fire the middle group; the survivors keep their order.
        let fired = batcher.fire_nth(1).expect("b pends");
        assert_eq!(fired.spec, b);
        assert_eq!(fired.len(), 2);
        assert_eq!(batcher.group_heads(), vec![(a, 5), (c, 9)]);
        assert!(batcher.fire_nth(2).is_none(), "out of range");
        assert_eq!(batcher.fire_oldest().expect("a pends").spec, a);
    }

    #[test]
    fn release_policy_labels_and_default() {
        assert_eq!(ReleasePolicy::default(), ReleasePolicy::OldestFirst);
        assert_eq!(ReleasePolicy::OldestFirst.label(), "oldest-first");
        assert_eq!(ReleasePolicy::cache_affine().label(), "cache-affine");
        assert_eq!(
            ReleasePolicy::cache_affine(),
            ReleasePolicy::CacheAffine {
                age_cap: ReleasePolicy::DEFAULT_AGE_CAP
            }
        );
    }

    #[test]
    fn max_slack_disables_deadline_firing_without_overflow() {
        // Ticks::MAX is the "fire on batch limit only" sentinel; it
        // must saturate, not wrap, for nonzero arrival times.
        let spec = QuerySpec::new(0, 2);
        let mut batcher = DeadlineBatcher::new(4, Ticks::MAX);
        batcher.push(at(0, spec, 1_000));
        assert_eq!(batcher.next_deadline(), Some(Ticks::MAX));
        assert!(batcher.fire_due(Ticks::MAX - 1).is_empty());
        assert_eq!(batcher.pending(), 1);
    }
}
