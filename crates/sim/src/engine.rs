//! Sharded, deterministic parallel Monte-Carlo shot engine with
//! two-level parallelism: threads across *shots*, chunks across *paths*.
//!
//! The engine splits a run of `shots` trajectories into per-thread
//! *shards* executed under [`std::thread::scope`] — no work stealing, no
//! external dependencies. Determinism across thread counts is structural,
//! not accidental:
//!
//! * the sampler contract is `Fn(shot) -> FaultPlan`: every shot's fault
//!   pattern is a pure function of the shot index (samplers derive an
//!   independent RNG stream per shot), so the pattern a shot receives
//!   cannot depend on which shard runs it;
//! * every shot writes its fidelity into `samples[shot]`, and the final
//!   [`FidelityEstimate`] folds that vector in index order — the same
//!   floating-point reduction regardless of sharding;
//! * within a shot, the path-parallel executor
//!   ([`crate::run_with_faults`]) is bit-identical to the serial
//!   one because paths never interact during gate application — chunking
//!   changes which thread transforms a path, never the operations applied
//!   to it, and the overlap reductions always run serially over the
//!   reassembled slab in global path order.
//!
//! Together these make the estimate **bit-identical** for any
//! `(threads, path_chunks)` pair, which is what lets `--threads` and
//! `--path-chunks` be pure throughput knobs in the reproduction binaries.
//!
//! The two levels compose without oversubscription: when either knob is
//! `0` (auto), the resolution divides the machine's available parallelism
//! by the other knob, so `threads × path_chunks` never exceeds the core
//! count unless both are pinned explicitly. Spend threads on shots
//! (cheap, embarrassingly parallel) when `shots ≥ cores`; spend them on
//! paths when individual shots are wide (`m ≥ 8`, thousands of paths) and
//! shots are few.
//!
//! Each shard additionally reuses one scratch [`PathState`], resetting it
//! from the input via the allocation-reusing [`Clone::clone_from`] instead
//! of cloning a fresh state per shot — the per-shot allocation the serial
//! harness used to pay.

use std::num::NonZeroUsize;
use std::thread;

use qram_circuit::{Gate, Qubit};

use crate::executor::{execute, validate_faults};
use crate::{run_with_faults, FaultPlan, FidelityEstimate, PathState, SimError};

fn available_cores() -> usize {
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Configuration of one Monte-Carlo fidelity run.
///
/// `seed` is not consumed by the engine itself — shot randomness lives in
/// the sampler closure — but rides along so one value can be threaded
/// from a CLI flag through sampler construction and into the engine
/// (see `qram-bench`).
///
/// ```
/// use qram_sim::ShotConfig;
/// let config = ShotConfig::new(1024).with_seed(7).with_threads(4);
/// assert_eq!(config.shots, 1024);
/// assert_eq!(config.resolved_threads(), 4);
/// // Path chunking defaults to 1 (serial within a shot).
/// assert_eq!(config.resolved_path_chunks(), 1);
/// // threads = 0 resolves to the machine's available parallelism.
/// assert!(ShotConfig::new(8).resolved_threads() >= 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShotConfig {
    /// Number of Monte-Carlo shots.
    pub shots: usize,
    /// Master RNG seed for the fault sampler (not used by the engine).
    pub seed: u64,
    /// Worker threads across shots; `0` means auto (available cores
    /// divided by the path-chunk count).
    pub threads: usize,
    /// Parallel path chunks within each shot; `1` (the default) keeps the
    /// per-shot gate loop serial, `0` means auto (available cores divided
    /// by the thread count). Results are bit-identical for any value.
    pub path_chunks: usize,
}

impl ShotConfig {
    /// The default master seed (the paper's venue year).
    pub const DEFAULT_SEED: u64 = 2023;

    /// A config with the default seed, automatic thread count, and serial
    /// per-shot execution (`path_chunks = 1`).
    pub fn new(shots: usize) -> Self {
        ShotConfig {
            shots,
            seed: Self::DEFAULT_SEED,
            threads: 0,
            path_chunks: 1,
        }
    }

    /// A single-threaded config (the serial reference path).
    pub fn serial(shots: usize) -> Self {
        ShotConfig::new(shots).with_threads(1)
    }

    /// Overrides the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the thread count (`0` = auto).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Overrides the per-shot path-chunk count (`0` = auto, `1` =
    /// serial). Results are bit-identical for any value.
    pub fn with_path_chunks(mut self, path_chunks: usize) -> Self {
        self.path_chunks = path_chunks;
        self
    }

    /// The effective worker count: `threads`, or — when `threads == 0` —
    /// the machine's available parallelism divided by the pinned
    /// path-chunk count, so the two levels compose without
    /// oversubscribing the cores.
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            (available_cores() / self.path_chunks.max(1)).max(1)
        }
    }

    /// The effective per-shot path-chunk count: `path_chunks`, or — when
    /// `path_chunks == 0` — the machine's available parallelism divided
    /// by the resolved thread count.
    pub fn resolved_path_chunks(&self) -> usize {
        if self.path_chunks > 0 {
            self.path_chunks
        } else {
            (available_cores() / self.resolved_threads()).max(1)
        }
    }
}

impl Default for ShotConfig {
    fn default() -> Self {
        ShotConfig::new(0)
    }
}

/// Work counters accumulated by a shot run, summed over all shards.
///
/// Every field is **knob-invariant**: fault plans are pure functions of
/// the shot index, so which shots replay (and how many faults/gates
/// they touch) cannot depend on `(threads, path_chunks)` — the stats,
/// like the estimate, are bit-identical across the whole parallelism
/// matrix. Being plain `u64` sums, shard-local stats merge exactly in
/// any order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShotStats {
    /// Shots sampled.
    pub shots: u64,
    /// Shots whose fault plan was non-empty and replayed the circuit.
    pub replayed: u64,
    /// Total faults injected across all replayed shots.
    pub faults: u64,
    /// Gate applications performed by replayed shots
    /// (`replayed shots × circuit length`).
    pub gate_applications: u64,
}

impl ShotStats {
    /// Adds another shard's counters into this one.
    pub fn merge_from(&mut self, other: &ShotStats) {
        self.shots += other.shots;
        self.replayed += other.replayed;
        self.faults += other.faults;
        self.gate_applications += other.gate_applications;
    }

    /// Feeds the counters into a telemetry [`Recorder`].
    ///
    /// [`Recorder`]: qram_telemetry::Recorder
    pub fn record_into(&self, recorder: &mut impl qram_telemetry::Recorder) {
        recorder.add(qram_telemetry::key::SIM_SHOTS, self.shots);
        recorder.add(qram_telemetry::key::SIM_REPLAYED, self.replayed);
        recorder.add(qram_telemetry::key::SIM_FAULTS, self.faults);
        recorder.add(qram_telemetry::key::SIM_GATES, self.gate_applications);
    }
}

/// Runs `config.shots` noisy trajectories of `gates` on `input` and
/// estimates the fidelity against the noise-free run — over the full
/// state, or reduced to `keep` when given (see
/// [`PathState::reduced_fidelity`]) — together with the [`ShotStats`]
/// summed over all shards.
///
/// `sample_plan` is called exactly once per shot with the shot index and
/// must return that shot's fault pattern; it must be a pure function of
/// the index (up to its own captured seed) for the determinism guarantee
/// to hold. Shots whose plan is empty short-circuit to fidelity 1 without
/// replaying the circuit.
///
/// The estimate and the stats are bit-identical for every
/// `(threads, path_chunks)` combination: shot sharding only re-partitions
/// which thread runs a shot, and path chunking only re-partitions which
/// thread transforms a path (see [`crate::run_with_faults`]).
///
/// ```
/// use qram_circuit::{Circuit, Gate, Qubit};
/// use qram_sim::{run_shots_stats, FaultPlan, PathState, ShotConfig};
///
/// # fn main() -> Result<(), qram_sim::SimError> {
/// let mut c = Circuit::new(2);
/// c.push(Gate::cx(Qubit(0), Qubit(1)));
/// let input = PathState::uniform_over(2, &[Qubit(0)]);
/// // Noise-free sampler: fidelity is exactly 1 and no shot replays.
/// let config = ShotConfig::new(16);
/// let (est, stats) = run_shots_stats(c.gates(), &input, None, &config, &|_| FaultPlan::new())?;
/// assert!((est.mean - 1.0).abs() < 1e-12);
/// assert_eq!(stats.replayed, 0);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// The gate list is validated once, by the ideal run; each replayed shot
/// then checks only its own faults. Returns the ideal run's error, else
/// the first shot error by lowest shard (all shards run to completion or
/// error independently).
pub fn run_shots_stats(
    gates: &[Gate],
    input: &PathState,
    keep: Option<&[Qubit]>,
    config: &ShotConfig,
    sample_plan: &(impl Fn(u64) -> FaultPlan + Sync),
) -> Result<(FidelityEstimate, ShotStats), SimError> {
    let path_chunks = config.resolved_path_chunks();
    let mut ideal = input.clone();
    run_with_faults(gates, &mut ideal, &FaultPlan::new(), path_chunks)?;

    let shots = config.shots;
    if shots == 0 {
        return Ok((FidelityEstimate::from_samples(&[]), ShotStats::default()));
    }
    let threads = config.resolved_threads().min(shots).max(1);
    let mut samples = vec![0.0f64; shots];
    let mut stats = ShotStats::default();

    if threads == 1 {
        stats = run_shard(
            gates,
            input,
            &ideal,
            keep,
            0,
            path_chunks,
            &mut samples,
            sample_plan,
        )?;
    } else {
        // Contiguous sharding: shard `i` owns shots [i·chunk, (i+1)·chunk).
        // Shot indices are global, so the shard boundaries never influence
        // which plan a shot receives.
        let chunk = shots.div_ceil(threads);
        let ideal_ref = &ideal;
        let results: Vec<Result<ShotStats, SimError>> = thread::scope(|scope| {
            let handles: Vec<_> = samples
                .chunks_mut(chunk)
                .enumerate()
                .map(|(i, out)| {
                    scope.spawn(move || {
                        run_shard(
                            gates,
                            input,
                            ideal_ref,
                            keep,
                            (i * chunk) as u64,
                            path_chunks,
                            out,
                            sample_plan,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shot shard panicked"))
                .collect()
        });
        for result in results {
            stats.merge_from(&result?);
        }
    }
    Ok((FidelityEstimate::from_samples(&samples), stats))
}

/// Runs one shard's contiguous shot range, writing fidelities into `out`.
///
/// Each noisy shot checks its faults against the (already validated)
/// circuit, then replays it over `path_chunks` parallel path ranges of
/// the scratch slab; the overlap reduction then runs serially over the
/// whole slab, so the sample value is bit-identical to the serial
/// engine's.
#[allow(clippy::too_many_arguments)]
fn run_shard(
    gates: &[Gate],
    input: &PathState,
    ideal: &PathState,
    keep: Option<&[Qubit]>,
    first_shot: u64,
    path_chunks: usize,
    out: &mut [f64],
    sample_plan: &(impl Fn(u64) -> FaultPlan + Sync),
) -> Result<ShotStats, SimError> {
    // One scratch state per shard, reset (not reallocated) per shot.
    let mut scratch = PathState::zero_vector(input.num_qubits());
    let mut stats = ShotStats::default();
    for (i, slot) in out.iter_mut().enumerate() {
        let plan = sample_plan(first_shot + i as u64);
        stats.shots += 1;
        if plan.is_empty() {
            // Fault-free shot: fidelity is exactly 1; skip the replay.
            *slot = 1.0;
            continue;
        }
        stats.replayed += 1;
        stats.faults += plan.len() as u64;
        stats.gate_applications += gates.len() as u64;
        let faults = plan.sorted();
        validate_faults(&faults, gates.len(), input.num_qubits())?;
        scratch.clone_from(input);
        execute(gates, &mut scratch, &faults, path_chunks);
        *slot = match keep {
            None => ideal.fidelity(&scratch),
            Some(keep) => ideal.reduced_fidelity(&scratch, keep),
        };
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fault, Pauli};
    use qram_circuit::Circuit;

    /// A cheap deterministic per-shot sampler: X-faults qubit 0 on shots
    /// whose mixed index hashes odd, Z-faults every third shot.
    fn pseudo_random_plan(shot: u64) -> FaultPlan {
        let mut plan = FaultPlan::new();
        let h = shot.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        if h % 2 == 1 {
            plan.push(Fault::new(0, Qubit(0), Pauli::X));
        }
        if shot.is_multiple_of(3) {
            plan.push(Fault::new(1, Qubit(1), Pauli::Z));
        }
        plan
    }

    /// The estimate half of [`run_shots_stats`].
    fn estimate(
        gates: &[Gate],
        input: &PathState,
        keep: Option<&[Qubit]>,
        config: &ShotConfig,
        sample_plan: &(impl Fn(u64) -> FaultPlan + Sync),
    ) -> Result<FidelityEstimate, SimError> {
        run_shots_stats(gates, input, keep, config, sample_plan).map(|(est, _)| est)
    }

    fn test_circuit() -> (Circuit, PathState) {
        let mut c = Circuit::new(3);
        c.push(qram_circuit::Gate::cx(Qubit(0), Qubit(1)));
        c.push(qram_circuit::Gate::cx(Qubit(1), Qubit(2)));
        let input = PathState::uniform_over(3, &[Qubit(0)]);
        (c, input)
    }

    #[test]
    fn identical_estimates_across_thread_counts() {
        let (c, input) = test_circuit();
        let mut estimates = Vec::new();
        for threads in [1usize, 2, 3, 4, 7] {
            let config = ShotConfig::new(64).with_threads(threads);
            let est = estimate(c.gates(), &input, None, &config, &pseudo_random_plan).unwrap();
            estimates.push(est);
        }
        for est in &estimates[1..] {
            // Bit-identical, not approximately equal.
            assert_eq!(est, &estimates[0]);
        }
    }

    #[test]
    fn reduced_estimates_identical_across_thread_counts() {
        // Compute–uncompute via the ancilla (qubit 2) so the ideal output
        // leaves it clean — reduced fidelity needs a clean reference.
        let mut c = Circuit::new(3);
        c.push(qram_circuit::Gate::cx(Qubit(0), Qubit(2)));
        c.push(qram_circuit::Gate::cx(Qubit(2), Qubit(1)));
        c.push(qram_circuit::Gate::cx(Qubit(0), Qubit(2)));
        let input = PathState::uniform_over(3, &[Qubit(0)]);
        let keep = [Qubit(0), Qubit(1)];
        let one = estimate(
            c.gates(),
            &input,
            Some(&keep),
            &ShotConfig::serial(48),
            &pseudo_random_plan,
        )
        .unwrap();
        let four = estimate(
            c.gates(),
            &input,
            Some(&keep),
            &ShotConfig::new(48).with_threads(4),
            &pseudo_random_plan,
        )
        .unwrap();
        assert_eq!(one, four);
    }

    #[test]
    fn identical_estimates_across_thread_and_chunk_matrix() {
        let (c, input) = test_circuit();
        let reference = estimate(
            c.gates(),
            &input,
            None,
            &ShotConfig::new(64).with_threads(1).with_path_chunks(1),
            &pseudo_random_plan,
        )
        .unwrap();
        for threads in [1usize, 2, 4] {
            for chunks in [0usize, 1, 2, 4] {
                let config = ShotConfig::new(64)
                    .with_threads(threads)
                    .with_path_chunks(chunks);
                let est = estimate(c.gates(), &input, None, &config, &pseudo_random_plan).unwrap();
                // Bit-identical, not approximately equal.
                assert_eq!(est, reference, "threads={threads} chunks={chunks}");
            }
        }
    }

    #[test]
    fn reduced_estimates_identical_across_chunk_counts() {
        let mut c = Circuit::new(3);
        c.push(qram_circuit::Gate::cx(Qubit(0), Qubit(2)));
        c.push(qram_circuit::Gate::cx(Qubit(2), Qubit(1)));
        c.push(qram_circuit::Gate::cx(Qubit(0), Qubit(2)));
        let input = PathState::uniform_over(3, &[Qubit(0)]);
        let keep = [Qubit(0), Qubit(1)];
        let serial = estimate(
            c.gates(),
            &input,
            Some(&keep),
            &ShotConfig::serial(48),
            &pseudo_random_plan,
        )
        .unwrap();
        let chunked = estimate(
            c.gates(),
            &input,
            Some(&keep),
            &ShotConfig::new(48).with_threads(2).with_path_chunks(2),
            &pseudo_random_plan,
        )
        .unwrap();
        assert_eq!(serial, chunked);
    }

    #[test]
    fn auto_resolution_never_oversubscribes() {
        // Pinning one knob and leaving the other on auto must keep
        // threads × chunks within the core count.
        let cores = super::available_cores();
        let auto_chunks = ShotConfig::new(8).with_threads(2).with_path_chunks(0);
        assert!(auto_chunks.resolved_path_chunks() * 2 <= cores.max(2));
        let auto_threads = ShotConfig::new(8).with_threads(0).with_path_chunks(2);
        assert!(auto_threads.resolved_threads() * 2 <= cores.max(2));
        // Both auto: threads fill the machine, chunks stay serial.
        let both = ShotConfig::new(8).with_threads(0).with_path_chunks(0);
        assert_eq!(both.resolved_threads(), cores);
        assert_eq!(both.resolved_path_chunks(), 1);
    }

    #[test]
    fn errors_propagate_from_chunked_shots() {
        let (c, input) = test_circuit();
        let bad_plan =
            |_: u64| -> FaultPlan { [Fault::new(0, Qubit(40), Pauli::X)].into_iter().collect() };
        let err = estimate(
            c.gates(),
            &input,
            None,
            &ShotConfig::new(8).with_threads(2).with_path_chunks(2),
            &bad_plan,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::QubitOutOfRange { .. }));
    }

    #[test]
    fn zero_shots_yields_empty_estimate() {
        let (c, input) = test_circuit();
        let est = estimate(
            c.gates(),
            &input,
            None,
            &ShotConfig::new(0),
            &pseudo_random_plan,
        )
        .unwrap();
        assert_eq!(est.shots, 0);
    }

    #[test]
    fn more_threads_than_shots_is_fine() {
        let (c, input) = test_circuit();
        let est = estimate(
            c.gates(),
            &input,
            None,
            &ShotConfig::new(3).with_threads(16),
            &pseudo_random_plan,
        )
        .unwrap();
        assert_eq!(est.shots, 3);
    }

    #[test]
    fn errors_propagate_from_worker_shards() {
        let (c, input) = test_circuit();
        // Fault on a qubit beyond the state: every noisy shot errors.
        let bad_plan =
            |_: u64| -> FaultPlan { [Fault::new(0, Qubit(40), Pauli::X)].into_iter().collect() };
        let err = estimate(
            c.gates(),
            &input,
            None,
            &ShotConfig::new(16).with_threads(4),
            &bad_plan,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::QubitOutOfRange { .. }));
    }

    #[test]
    fn shot_stats_identical_across_thread_and_chunk_matrix() {
        let (c, input) = test_circuit();
        let (_, reference) = run_shots_stats(
            c.gates(),
            &input,
            None,
            &ShotConfig::serial(64),
            &pseudo_random_plan,
        )
        .unwrap();
        assert_eq!(reference.shots, 64);
        assert!(reference.replayed > 0);
        assert!(reference.faults >= reference.replayed);
        assert_eq!(
            reference.gate_applications,
            reference.replayed * c.gates().len() as u64
        );
        for threads in [2usize, 4, 7] {
            for chunks in [1usize, 2, 4] {
                let config = ShotConfig::new(64)
                    .with_threads(threads)
                    .with_path_chunks(chunks);
                let (_, stats) =
                    run_shots_stats(c.gates(), &input, None, &config, &pseudo_random_plan).unwrap();
                assert_eq!(stats, reference, "threads={threads} chunks={chunks}");
            }
        }
    }

    #[test]
    fn recorded_run_feeds_counters() {
        let (c, input) = test_circuit();
        let mut recorder = qram_telemetry::TelemetryRecorder::new();
        let config = ShotConfig::new(32).with_threads(2);
        // The service's path: run, then record the merged stats.
        let (est, stats) =
            run_shots_stats(c.gates(), &input, None, &config, &pseudo_random_plan).unwrap();
        stats.record_into(&mut recorder);
        assert_eq!(est.shots, 32);
        let metrics = recorder.metrics();
        assert_eq!(metrics.counter(qram_telemetry::key::SIM_SHOTS), 32);
        assert!(metrics.counter(qram_telemetry::key::SIM_REPLAYED) > 0);
        assert!(
            metrics.counter(qram_telemetry::key::SIM_FAULTS)
                >= metrics.counter(qram_telemetry::key::SIM_REPLAYED)
        );
    }

    #[test]
    fn serial_config_constructor() {
        let config = ShotConfig::serial(10);
        assert_eq!(config.threads, 1);
        assert_eq!(config.resolved_threads(), 1);
        assert_eq!(config.seed, ShotConfig::DEFAULT_SEED);
    }
}
