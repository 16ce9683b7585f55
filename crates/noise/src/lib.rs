//! Pauli noise channels, Monte-Carlo error models and synthetic device
//! models for QRAM simulation (paper Secs. 5, 6.3 and Appendix A).
//!
//! The crate separates three concerns:
//!
//! * **What errors look like** — [`PauliChannel`]: a single-qubit Pauli
//!   channel `ρ → (1−p)ρ + pₓXρX + p_yYρY + p_zZρZ`, with the paper's
//!   phase-flip, bit-flip and depolarizing specializations.
//! * **Where errors strike** — [`NoiseModel`]: qubit-per-step (the
//!   Sec. 5.1 analysis model: every qubit suffers the channel at every
//!   schedule layer) or per-gate (the Sec. 6.3 evaluation model: the
//!   channel strikes the support of each executed gate).
//! * **How strong errors are** — [`ErrorReductionFactor`]: Appendix A's
//!   `εr = current/future` knob, scaling a base error rate of `10⁻³`.
//!
//! [`FaultSampler`] turns a circuit + model + master seed into the
//! `FaultPlan` of one Monte-Carlo shot, ready for
//! `qram_sim::run_with_faults`, and its `sample_shot` method is the
//! per-shot sampler `qram_sim::run_shots_stats` takes. Each shot's plan
//! is a pure function of `(seed, shot index)` — the contract the sharded
//! parallel shot engine needs for thread-count-independent estimates.
//! [`DeviceModel`] adds coupling-map-aware device descriptions standing in
//! for the IBMQ backends of Appendix A (see the DESIGN.md substitution
//! table: we encode the published topologies with uniform error rates
//! because the proprietary calibration snapshots are not available
//! offline).
//!
//! # Example
//!
//! ```
//! use qram_circuit::{Circuit, Gate, Qubit};
//! use qram_noise::{FaultSampler, NoiseModel, PauliChannel};
//! use qram_sim::{run_shots_stats, PathState, ShotConfig};
//!
//! # fn main() -> Result<(), qram_sim::SimError> {
//! let mut c = Circuit::new(2);
//! c.push(Gate::cx(Qubit(0), Qubit(1)));
//!
//! let model = NoiseModel::per_gate(PauliChannel::phase_flip(1e-3));
//! let sampler = FaultSampler::new(&c, model, 7);
//! let input = PathState::uniform_over(2, &[Qubit(0)]);
//! let sample = |shot| sampler.sample_shot(shot);
//! let (est, _) = run_shots_stats(c.gates(), &input, None, &ShotConfig::new(256), &sample)?;
//! assert!(est.mean > 0.95);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
mod device;
mod model;
mod sampler;

pub use channel::PauliChannel;
pub use device::{ibm_perth, ibmq_guadalupe, DeviceModel};
pub use model::{ErrorReductionFactor, NoiseModel, NoisePlacement, BASE_ERROR_RATE};
pub use sampler::{derive_stream_seed, FaultSampler};
