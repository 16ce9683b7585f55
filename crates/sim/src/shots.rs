//! Monte-Carlo fidelity estimates (paper Sec. 6.3).
//!
//! One *shot* = one sampled Pauli fault pattern; the noisy circuit runs as
//! a pure trajectory and its overlap with the ideal output is the shot's
//! query fidelity `|⟨ψ_ideal|ψ_shot⟩|²`. Averaging over shots estimates the
//! channel fidelity — exact in expectation for Pauli channels, which is why
//! the paper's simulator can quote fidelities without density matrices.

/// A Monte-Carlo fidelity estimate: mean over shots with a standard error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FidelityEstimate {
    /// Mean fidelity over the shots.
    pub mean: f64,
    /// Standard error of the mean (`σ/√shots`); 0 for a single shot.
    pub std_error: f64,
    /// Number of shots taken.
    pub shots: usize,
}

impl FidelityEstimate {
    /// Folds a sequence of per-shot fidelities into an estimate.
    pub fn from_samples(samples: &[f64]) -> FidelityEstimate {
        let shots = samples.len();
        if shots == 0 {
            return FidelityEstimate {
                mean: 0.0,
                std_error: 0.0,
                shots: 0,
            };
        }
        let mean = samples.iter().sum::<f64>() / shots as f64;
        let var = if shots > 1 {
            samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (shots - 1) as f64
        } else {
            0.0
        };
        FidelityEstimate {
            mean,
            std_error: (var / shots as f64).sqrt(),
            shots,
        }
    }
}

impl std::fmt::Display for FidelityEstimate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.4} ± {:.4} ({} shots)",
            self.mean, self.std_error, self.shots
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_shots_stats, Fault, FaultPlan, PathState, Pauli, ShotConfig};
    use qram_circuit::{Circuit, Qubit};

    #[test]
    fn estimate_statistics() {
        let est = FidelityEstimate::from_samples(&[1.0, 0.0, 1.0, 0.0]);
        assert!((est.mean - 0.5).abs() < 1e-12);
        assert!(est.std_error > 0.0);
        assert_eq!(est.shots, 4);

        let empty = FidelityEstimate::from_samples(&[]);
        assert_eq!(empty.shots, 0);

        let single = FidelityEstimate::from_samples(&[0.7]);
        assert_eq!(single.std_error, 0.0);
    }

    #[test]
    fn deterministic_x_fault_kills_fidelity() {
        // X on the single qubit of an empty circuit: ⟨0|1⟩ = 0.
        let c = Circuit::new(1);
        let input = PathState::computational_basis(1);
        let plan = |_| [Fault::new(0, Qubit(0), Pauli::X)].into_iter().collect();
        let (est, _) =
            run_shots_stats(c.gates(), &input, None, &ShotConfig::new(8), &plan).unwrap();
        assert!(est.mean < 1e-12);
    }

    #[test]
    fn alternating_faults_average() {
        let c = Circuit::new(1);
        let input = PathState::computational_basis(1);
        let plan = |shot: u64| {
            if shot.is_multiple_of(2) {
                FaultPlan::new()
            } else {
                [Fault::new(0, Qubit(0), Pauli::X)].into_iter().collect()
            }
        };
        let config = ShotConfig::new(10);
        let (est, _) = run_shots_stats(c.gates(), &input, None, &config, &plan).unwrap();
        assert!((est.mean - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_shots() {
        let est = FidelityEstimate::from_samples(&[1.0, 1.0]);
        assert!(est.to_string().contains("2 shots"));
    }
}
