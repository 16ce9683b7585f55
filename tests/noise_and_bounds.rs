//! Integration: noisy simulation respects the Sec. 5.1 analytic fidelity
//! bounds, and deterministic fault injection reproduces the error-
//! propagation claims of Fig. 7.

use qram::circuit::Gate;
use qram::core::{Memory, QueryArchitecture, VirtualQram};
use qram::noise::{FaultSampler, NoiseModel, PauliChannel};
use qram::qec::{virtual_z_fidelity_bound, z_fidelity_bound};
use qram::sim::{
    run, run_shots_stats, run_with_faults, Fault, FaultPlan, FidelityEstimate, PathState, Pauli,
    ShotConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn memory(n: usize, seed: u64) -> Memory {
    Memory::random(n, &mut StdRng::seed_from_u64(seed))
}

/// Full-state Monte-Carlo fidelity of `gates` on `input` over `shots`
/// shots sampled by `sampler`.
fn fidelity(
    gates: &[Gate],
    input: &PathState,
    shots: usize,
    sampler: &FaultSampler,
) -> FidelityEstimate {
    let sample = |shot| sampler.sample_shot(shot);
    run_shots_stats(gates, input, None, &ShotConfig::new(shots), &sample)
        .unwrap()
        .0
}

/// Eq. (3)-style check: per-qubit-once Z noise, measured fidelity must
/// sit at or above the closed-form floor.
#[test]
fn z_fidelity_respects_eq3_bound() {
    for (m, eps) in [(2usize, 1e-2), (3, 1e-2), (4, 3e-3)] {
        let mem = memory(m, m as u64);
        let query = VirtualQram::new(0, m).build(&mem);
        let input = query.input_state(None);
        let model = NoiseModel::per_qubit_once(PauliChannel::phase_flip(eps));
        let sampler = FaultSampler::new(query.circuit(), model, 77);
        let est = fidelity(query.circuit().gates(), &input, 600, &sampler);
        let bound = z_fidelity_bound(eps, m);
        assert!(
            est.mean >= bound - 3.0 * est.std_error,
            "m={m} eps={eps}: measured {} < bound {bound}",
            est.mean
        );
    }
}

/// Eq. (5): the virtual-QRAM Z bound holds across (m, k) shapes.
#[test]
fn virtual_z_bound_holds_across_shapes() {
    for (k, m) in [(1usize, 2usize), (2, 2), (1, 3)] {
        let eps = 3e-3;
        let mem = memory(k + m, (k * 5 + m) as u64);
        let query = VirtualQram::new(k, m).build(&mem);
        let input = query.input_state(None);
        let model = NoiseModel::per_qubit_once(PauliChannel::phase_flip(eps));
        let sampler = FaultSampler::new(query.circuit(), model, 78);
        let est = fidelity(query.circuit().gates(), &input, 600, &sampler);
        let bound = virtual_z_fidelity_bound(eps, m, k);
        assert!(
            est.mean >= bound - 3.0 * est.std_error,
            "k={k} m={m}: measured {} < bound {bound}",
            est.mean
        );
    }
}

/// Fig. 7's Z-locality claim, by construction: a single Z error on a
/// router corrupts only the branches routed through that router's
/// subtree; all other branches keep their exact amplitudes.
#[test]
fn z_fault_on_router_corrupts_only_its_subtree() {
    let m = 3;
    let mem = memory(m, 3);
    let query = VirtualQram::new(0, m).build(&mem);
    let input = query.input_state(None);
    let mut ideal = input.clone();
    run(query.circuit().gates(), &mut ideal).unwrap();

    // Find the "routers" register and fault its level-1 node (heap 2),
    // which owns addresses 0..2^(m-1) (the left half).
    let routers = query
        .registers()
        .iter()
        .find(|r| r.name() == "routers")
        .expect("router register")
        .clone();
    let victim = routers.get(1); // heap node 2

    // Inject mid-circuit: right after address loading (first third).
    let location = query.circuit().len() / 3;
    let plan: FaultPlan = [Fault::new(location, victim, Pauli::Z)]
        .into_iter()
        .collect();
    let mut noisy = input.clone();
    run_with_faults(query.circuit().gates(), &mut noisy, &plan, 1).unwrap();

    // Branch-by-branch: overlap per address must be exactly ±1, and
    // every right-half address (not through heap 2) must be untouched.
    let addr_qs: Vec<_> = query.address().iter().collect();
    let n_qubits = query.num_qubits();
    for address in 0..(1u64 << m) {
        let mut branch_in = PathState::computational_basis(n_qubits);
        for (i, q) in addr_qs.iter().enumerate() {
            if (address >> (m - 1 - i)) & 1 == 1 {
                branch_in.apply_x(*q);
            }
        }
        let mut branch_ideal = branch_in.clone();
        run(query.circuit().gates(), &mut branch_ideal).unwrap();
        let mut branch_noisy = branch_in.clone();
        run_with_faults(query.circuit().gates(), &mut branch_noisy, &plan, 1).unwrap();
        let overlap = branch_ideal.fidelity(&branch_noisy);
        if address >= (1 << (m - 1)) {
            // Right subtree: router heap 2 is not on the path; Z there is
            // invisible (it acts on |0⟩ or commutes clean through).
            assert!(
                (overlap - 1.0).abs() < 1e-9,
                "address {address} (off-subtree) damaged: {overlap}"
            );
        } else {
            // On-subtree branches may flip sign but stay basis-aligned.
            assert!(
                overlap < 1e-9 || (overlap - 1.0).abs() < 1e-9,
                "address {address}: partial overlap {overlap}"
            );
        }
    }
}

/// The X-channel contrast of Sec. 5.1: a single X on a compression rail
/// mid-retrieval destroys the (full-state) query fidelity.
#[test]
fn x_fault_on_rail_is_fatal_for_full_state_fidelity() {
    let m = 3;
    let mem = Memory::ones(m);
    let query = VirtualQram::new(0, m).build(&mem);
    let input = query.input_state(None);
    let mut ideal = input.clone();
    run(query.circuit().gates(), &mut ideal).unwrap();

    let flags = query
        .registers()
        .iter()
        .find(|r| r.name() == "flags")
        .expect("flag register")
        .clone();
    // Strike the middle of the circuit (inside retrieval).
    let plan: FaultPlan = [Fault::new(
        query.circuit().len() / 2,
        flags.get(0),
        Pauli::X,
    )]
    .into_iter()
    .collect();
    let mut noisy = input.clone();
    run_with_faults(query.circuit().gates(), &mut noisy, &plan, 1).unwrap();
    assert!(
        ideal.fidelity(&noisy) < 0.6,
        "X mid-circuit should not be survivable at full-state fidelity"
    );
}

/// Phase flips reduce fidelity strictly less than bit flips of the same
/// strength on the same architecture — the Z-bias of Fig. 10.
#[test]
fn phase_noise_beats_bit_noise_at_equal_strength() {
    let m = 4;
    let mem = memory(m, 9);
    let query = VirtualQram::new(0, m).build(&mem);
    let input = query.input_state(None);
    let eps = 2e-3;
    let mut fid = [0.0f64; 2];
    for (i, channel) in [PauliChannel::phase_flip(eps), PauliChannel::bit_flip(eps)]
        .into_iter()
        .enumerate()
    {
        let model = NoiseModel::per_gate(channel);
        let sampler = FaultSampler::new(query.circuit(), model, 123);
        fid[i] = fidelity(query.circuit().gates(), &input, 400, &sampler).mean;
    }
    assert!(
        fid[0] > fid[1] + 0.02,
        "phase-flip {} should beat bit-flip {}",
        fid[0],
        fid[1]
    );
}

/// Fidelity is monotone in the error-reduction factor.
#[test]
fn fidelity_is_monotone_in_error_reduction() {
    use qram::noise::ErrorReductionFactor;
    let mem = memory(3, 4);
    let query = VirtualQram::new(1, 2).build(&mem);
    let input = query.input_state(None);
    let base = NoiseModel::per_gate(PauliChannel::depolarizing(5e-3));
    let mut last = 0.0;
    for er in [1.0, 10.0, 100.0] {
        let model = base.reduced_by(ErrorReductionFactor(er));
        let sampler = FaultSampler::new(query.circuit(), model, 321);
        let est = fidelity(query.circuit().gates(), &input, 500, &sampler);
        assert!(
            est.mean >= last - 0.02,
            "fidelity not monotone: {} after {last} at εr={er}",
            est.mean
        );
        last = est.mean;
    }
    assert!(
        last > 0.99,
        "εr = 100 should be nearly noise-free, got {last}"
    );
}

/// The GHZ-fragility contrast of Sec. 2.3.2, made deterministic: a Z on
/// any level-2 router right after address loading. In fanout QRAM every
/// level-2 router carries a GHZ copy of the address bit, so the fault
/// dephases the *whole* superposition (fidelity 0); in bucket brigade the
/// same fault touches only branches routed through that node and holding
/// a 1 there (1/8 of them → overlap 3/4 → fidelity 9/16).
#[test]
fn fanout_router_faults_dephase_globally_bb_faults_locally() {
    use qram::circuit::Gate;
    use qram::core::{BucketBrigadeQram, FanoutQram};

    let m = 3;
    let mem = Memory::ones(m);
    let archs: [(Box<dyn QueryArchitecture>, f64); 2] = [
        (Box::new(FanoutQram::new(m)), 0.0),
        (Box::new(BucketBrigadeQram::new(0, m)), 9.0 / 16.0),
    ];
    for (arch, expected) in archs {
        let query = arch.build(&mem);
        let input = query.input_state(None);
        let mut ideal = input.clone();
        run(query.circuit().gates(), &mut ideal).unwrap();

        let routers = query
            .registers()
            .iter()
            .find(|r| r.name() == "routers")
            .expect("router register")
            .clone();
        // Both architectures inject their retrieval ball with the first X
        // gate — loading/broadcast ends exactly there.
        let after_loading = query
            .circuit()
            .gates()
            .iter()
            .position(|g| matches!(g, Gate::X(_)))
            .expect("ball injection X");
        for heap in 4..8 {
            let plan: FaultPlan = [Fault::new(after_loading, routers.get(heap - 1), Pauli::Z)]
                .into_iter()
                .collect();
            let mut noisy = input.clone();
            run_with_faults(query.circuit().gates(), &mut noisy, &plan, 1).unwrap();
            let fidelity = ideal.fidelity(&noisy);
            assert!(
                (fidelity - expected).abs() < 1e-9,
                "{} heap {heap}: fidelity {fidelity}, expected {expected}",
                arch.name()
            );
        }
    }
}
