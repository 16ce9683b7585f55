//! How good must hardware get? Reproduce the Appendix A question: sweep
//! the error-reduction factor εr and find where a small virtual QRAM
//! clears useful fidelity thresholds, then compare against the Sec. 5.1
//! analytic floors and the Sec. 5.2 surface-code prescription.
//!
//! ```sh
//! cargo run --release --example noise_budget
//! ```

use qram::core::{Memory, QueryArchitecture, VirtualQram};
use qram::noise::{ErrorReductionFactor, FaultSampler, NoiseModel, PauliChannel, BASE_ERROR_RATE};
use qram::qec::{balanced_code, virtual_z_fidelity_bound, TYPICAL_THRESHOLD};
use qram::sim::{run_shots_stats, ShotConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let (k, m) = (1, 3);
    let memory = Memory::random(k + m, &mut StdRng::seed_from_u64(11));
    let arch = VirtualQram::new(k, m);
    let query = arch.build(&memory);
    let input = query.input_state(None);
    println!(
        "architecture : {} ({} qubits)",
        arch.name(),
        query.num_qubits()
    );
    println!("noise        : per-gate phase-flip, ε = {BASE_ERROR_RATE}/εr\n");

    println!(
        "{:>8} {:>10} {:>10} {:>10}",
        "εr", "ε", "F(sim)", "F(bound)"
    );
    let mut budget_for_098 = None;
    for er in ErrorReductionFactor::sweep(0, 3, 1) {
        let model = NoiseModel::per_gate(PauliChannel::phase_flip(BASE_ERROR_RATE)).reduced_by(er);
        let sampler = FaultSampler::new(query.circuit(), model, 5);
        let sample = |shot| sampler.sample_shot(shot);
        let (est, _) = run_shots_stats(
            query.circuit().gates(),
            &input,
            None,
            &ShotConfig::new(400),
            &sample,
        )
        .expect("simulable");
        let bound = virtual_z_fidelity_bound(er.error_rate(), m, k);
        println!(
            "{:>8} {:>10.1e} {:>10.4} {:>10.4}",
            er.0,
            er.error_rate(),
            est.mean,
            bound
        );
        assert!(
            est.mean >= bound - 3.0 * est.std_error - 1e-9,
            "simulation must respect the analytic lower bound"
        );
        if budget_for_098.is_none() && est.mean >= 0.98 {
            budget_for_098 = Some(er.0);
        }
    }
    if let Some(er) = budget_for_098 {
        println!("\n→ εr ≈ {er} reaches F ≥ 0.98 (the paper's App. A headline).");
    }

    // Fault tolerance instead of better hardware: the Sec. 5.2 recipe.
    let p = BASE_ERROR_RATE;
    println!("\nSurface-code route at physical p = {p}:");
    for dz in [3usize, 5, 7] {
        let code = balanced_code(k, m, p, TYPICAL_THRESHOLD, dz);
        let f = virtual_z_fidelity_bound(code.logical_z_rate(p, TYPICAL_THRESHOLD), m, k);
        println!(
            "  {code}: {} physical qubits/patch, F_Z floor = {f:.6}",
            code.physical_qubits()
        );
    }
}
