//! Circuit execution over path states, with Pauli fault injection.
//!
//! A *fault* is a Pauli error attached to a circuit location: either before
//! any gate executes (`gate_index == 0`) or immediately **after** the gate
//! at `gate_index − 1`. A [`FaultPlan`] is the complete fault pattern of one
//! Monte-Carlo shot; running the same circuit under different plans gives
//! the trajectory samples the paper averages in its fidelity plots
//! (Sec. 6.3).
//!
//! Because every gate in the classical-reversible + Pauli family maps each
//! path independently (paths never interact during execution, only in the
//! final overlap reductions), a whole run factorizes over disjoint path
//! ranges: [`run_with_faults`] splits the state's slab into contiguous
//! chunks and executes the full gate/fault sequence on each chunk in
//! parallel under [`std::thread::scope`]. The result is *bit-identical*
//! to the serial run — each path's bit and amplitude operations are the
//! same instruction sequence regardless of which chunk it lands in, and
//! the slab order is preserved.
//!
//! Every run is validated before it executes: one state-free pass in
//! serial execution order reports the first out-of-range qubit or
//! non-reversible gate, and only a valid run touches the slab, so gate
//! application itself carries no error checks.

use std::thread;

use qram_circuit::{Control, Gate, Qubit};

use crate::state::{PathBits, PathsMut};
use crate::{PathState, SimError};

/// A single-qubit Pauli error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pauli {
    /// Bit flip.
    X,
    /// Bit and phase flip.
    Y,
    /// Phase flip.
    Z,
}

impl Pauli {
    /// All three Paulis, in `X, Y, Z` order.
    pub const ALL: [Pauli; 3] = [Pauli::X, Pauli::Y, Pauli::Z];

    /// Applies this Pauli to `qubit` of `state`.
    pub fn apply(self, state: &mut PathState, qubit: Qubit) {
        match self {
            Pauli::X => state.apply_x(qubit),
            Pauli::Y => state.apply_y(qubit),
            Pauli::Z => state.apply_z(qubit),
        }
    }
}

impl std::fmt::Display for Pauli {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Pauli::X => write!(f, "X"),
            Pauli::Y => write!(f, "Y"),
            Pauli::Z => write!(f, "Z"),
        }
    }
}

/// A Pauli error at a circuit location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fault {
    /// The fault fires after `gate_index` gates have executed
    /// (0 = before the first gate).
    pub gate_index: usize,
    /// The afflicted qubit.
    pub qubit: Qubit,
    /// Which Pauli error occurs.
    pub pauli: Pauli,
}

impl Fault {
    /// Convenience constructor.
    pub fn new(gate_index: usize, qubit: Qubit, pauli: Pauli) -> Self {
        Fault {
            gate_index,
            qubit,
            pauli,
        }
    }
}

/// The complete fault pattern of one noisy shot: a list of [`Fault`]s,
/// sorted by location at execution time.
///
/// ```
/// use qram_sim::{Fault, FaultPlan, Pauli};
/// use qram_circuit::Qubit;
///
/// let mut plan = FaultPlan::new();
/// plan.push(Fault::new(2, Qubit(0), Pauli::Z));
/// assert_eq!(plan.len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty (noise-free) plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fault.
    pub fn push(&mut self, fault: Fault) {
        self.faults.push(fault);
    }

    /// Number of faults in the plan.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan has no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The faults in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// The faults grouped by `gate_index`, sorted ascending.
    pub(crate) fn sorted(&self) -> Vec<Fault> {
        let mut sorted = self.faults.clone();
        sorted.sort_by_key(|f| f.gate_index);
        sorted
    }
}

impl FromIterator<Fault> for FaultPlan {
    fn from_iter<I: IntoIterator<Item = Fault>>(iter: I) -> Self {
        FaultPlan {
            faults: iter.into_iter().collect(),
        }
    }
}

impl Extend<Fault> for FaultPlan {
    fn extend<I: IntoIterator<Item = Fault>>(&mut self, iter: I) {
        self.faults.extend(iter);
    }
}

/// Runs `gates` over `state` without noise, serially.
///
/// # Errors
///
/// Returns [`SimError::NonReversibleGate`] on `H` and
/// [`SimError::QubitOutOfRange`] if any gate references a qubit past the
/// state's qubit count.
pub fn run(gates: &[Gate], state: &mut PathState) -> Result<(), SimError> {
    run_with_faults(gates, state, &FaultPlan::new(), 1)
}

/// Runs `gates` over `state`, injecting the faults of `plan` at their
/// locations (fault at `gate_index = i` fires after `i` gates executed),
/// over `chunks` disjoint path ranges. `chunks` is clamped to the path
/// count; `chunks <= 1` runs inline on the calling thread, more chunks
/// run in parallel under scoped threads.
///
/// The result is **bit-identical** for every chunk count: paths never
/// interact during execution, so each path undergoes the exact same
/// floating-point operation sequence whichever chunk it lands in, and the
/// slab order is preserved.
///
/// Barriers are scheduling pseudo-gates: they occupy a gate index (so fault
/// locations stay aligned with generator output) but perform no action.
///
/// # Errors
///
/// Same conditions as [`run`], plus [`SimError::QubitOutOfRange`] for a
/// fault that fires on a qubit past the state's qubit count. The first
/// error in serial execution order is reported before any path is
/// touched, so a failing run leaves `state` unchanged.
pub fn run_with_faults(
    gates: &[Gate],
    state: &mut PathState,
    plan: &FaultPlan,
    chunks: usize,
) -> Result<(), SimError> {
    let faults = plan.sorted();
    validate(gates, &faults, state.num_qubits())?;
    execute(gates, state, &faults, chunks);
    Ok(())
}

/// Executes an already validated run (see [`validate`]): inline over the
/// whole slab when `chunks` clamps to 1, otherwise one scoped thread per
/// chunk view.
pub(crate) fn execute(gates: &[Gate], state: &mut PathState, faults: &[Fault], chunks: usize) {
    if chunks.min(state.num_paths()) <= 1 {
        run_plan_on(gates, &mut state.as_paths_mut(), faults);
    } else {
        thread::scope(|scope| {
            for mut view in state.chunk_views(chunks) {
                scope.spawn(move || run_plan_on(gates, &mut view, faults));
            }
        });
    }
}

/// Executes the full gate/fault sequence over one slab view. `faults`
/// must already be location-sorted ([`FaultPlan::sorted`]).
fn run_plan_on(gates: &[Gate], view: &mut PathsMut<'_>, faults: &[Fault]) {
    let mut pending = faults.iter().peekable();
    let mut fire = |idx: usize, view: &mut PathsMut<'_>| {
        while let Some(f) = pending.next_if(|f| f.gate_index <= idx) {
            match f.pauli {
                Pauli::X => view.apply_x(f.qubit.index()),
                Pauli::Y => view.apply_y(f.qubit.index()),
                Pauli::Z => view.apply_z(f.qubit.index()),
            }
        }
    };
    for (i, gate) in gates.iter().enumerate() {
        fire(i, view);
        apply_gate_on(gate, view);
    }
    fire(gates.len(), view);
}

/// State-free validation of a run in serial execution order (a fault
/// fires before the gate at its index, the final fire after the last
/// gate): reports the first out-of-range qubit or non-reversible gate
/// exactly where a checking executor would meet it. `faults` must be
/// location-sorted.
fn validate(gates: &[Gate], faults: &[Fault], num_qubits: usize) -> Result<(), SimError> {
    let bad_gate = gates
        .iter()
        .enumerate()
        .find_map(|(i, gate)| validate_gate(gate, num_qubits).err().map(|e| (i, e)));
    // Faults at index ≤ i fire before gate i, so they come first.
    validate_faults(
        faults,
        bad_gate.as_ref().map_or(gates.len(), |(i, _)| *i),
        num_qubits,
    )?;
    bad_gate.map_or(Ok(()), |(_, e)| Err(e))
}

/// Checks the qubit bounds of the location-sorted `faults` that fire
/// within the first `horizon` gates (`gate_index <= horizon`). Faults
/// located past the end of the circuit never fire and are deliberately
/// not validated.
pub(crate) fn validate_faults(
    faults: &[Fault],
    horizon: usize,
    num_qubits: usize,
) -> Result<(), SimError> {
    match faults
        .iter()
        .take_while(|f| f.gate_index <= horizon)
        .find(|f| f.qubit.index() >= num_qubits)
    {
        Some(f) => Err(SimError::QubitOutOfRange {
            index: f.qubit.index(),
            num_qubits,
        }),
        None => Ok(()),
    }
}

/// The error checks of one gate: qubit bounds first, then gate-family
/// legality.
fn validate_gate(gate: &Gate, num_qubits: usize) -> Result<(), SimError> {
    if let Some(q) = gate.qubits().into_iter().find(|q| q.index() >= num_qubits) {
        return Err(SimError::QubitOutOfRange {
            index: q.index(),
            num_qubits,
        });
    }
    if matches!(gate, Gate::H(_)) {
        return Err(SimError::NonReversibleGate { gate: "h" });
    }
    Ok(())
}

/// Applies one gate to a slab view. The gate must have passed
/// [`validate_gate`]: no bounds or family check happens here.
fn apply_gate_on(gate: &Gate, view: &mut PathsMut<'_>) {
    #[inline]
    fn ctrl_active(bits: &PathBits<'_>, c: &Control) -> bool {
        bits.get(c.qubit.index()) == c.value
    }
    match gate {
        Gate::Barrier => {}
        Gate::H(_) => unreachable!("`H` is rejected by validation"),
        Gate::X(q) | Gate::ClX(q) => view.apply_x(q.index()),
        Gate::Y(q) => view.apply_y(q.index()),
        Gate::Z(q) => view.apply_z(q.index()),
        Gate::Cx { control, target } | Gate::ClCx { control, target } => {
            let (c, t) = (*control, target.index());
            view.permute_paths(|bits| {
                if ctrl_active(bits, &c) {
                    bits.flip(t);
                }
            });
        }
        Gate::Ccx { controls, target } => {
            let (cs, t) = (*controls, target.index());
            view.permute_paths(|bits| {
                if ctrl_active(bits, &cs[0]) && ctrl_active(bits, &cs[1]) {
                    bits.flip(t);
                }
            });
        }
        Gate::Mcx { controls, target } => {
            let t = target.index();
            view.permute_paths(|bits| {
                if controls.iter().all(|c| ctrl_active(bits, c)) {
                    bits.flip(t);
                }
            });
        }
        Gate::Swap(a, b) | Gate::ClSwap(a, b) => {
            let (a, b) = (a.index(), b.index());
            view.permute_paths(|bits| bits.swap_bits(a, b));
        }
        Gate::Cswap { control, a, b } => {
            let (c, a, b) = (*control, a.index(), b.index());
            view.permute_paths(|bits| {
                if ctrl_active(bits, &c) {
                    bits.swap_bits(a, b);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qram_circuit::Circuit;

    fn basis(value: u64, n: usize) -> PathState {
        PathState::basis_state(crate::BitString::from_u64(value, n))
    }

    #[test]
    fn cx_truth_table() {
        for (input, expected) in [(0b00, 0b00), (0b01, 0b11), (0b10, 0b10), (0b11, 0b01)] {
            // qubit 0 is the low bit of `input`.
            let mut s = basis(input, 2);
            run(&[Gate::cx(Qubit(0), Qubit(1))], &mut s).unwrap();
            let want = basis(expected, 2);
            assert!(
                (s.fidelity(&want) - 1.0).abs() < 1e-12,
                "input {input:#04b}"
            );
        }
    }

    #[test]
    fn zero_controlled_cx_fires_on_zero() {
        let mut s = basis(0b00, 2);
        run(&[Gate::cx0(Qubit(0), Qubit(1))], &mut s).unwrap();
        assert!((s.fidelity(&basis(0b10, 2)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ccx_truth_table() {
        for input in 0u64..8 {
            let mut s = basis(input, 3);
            run(&[Gate::ccx(Qubit(0), Qubit(1), Qubit(2))], &mut s).unwrap();
            let expected = if input & 0b11 == 0b11 {
                input ^ 0b100
            } else {
                input
            };
            assert!(
                (s.fidelity(&basis(expected, 3)) - 1.0).abs() < 1e-12,
                "input {input:#05b}"
            );
        }
    }

    #[test]
    fn cswap_routes_conditionally() {
        // control = qubit 0; swap qubits 1,2.
        for input in 0u64..8 {
            let mut s = basis(input, 3);
            run(&[Gate::cswap(Qubit(0), Qubit(1), Qubit(2))], &mut s).unwrap();
            let expected = if input & 1 == 1 {
                let b1 = (input >> 1) & 1;
                let b2 = (input >> 2) & 1;
                (input & 1) | (b2 << 1) | (b1 << 2)
            } else {
                input
            };
            assert!(
                (s.fidelity(&basis(expected, 3)) - 1.0).abs() < 1e-12,
                "input {input:#05b}"
            );
        }
    }

    #[test]
    fn mcx_pattern_selects_one_address() {
        // 2-bit address register (MSB = q0), target = q2. The pattern gate
        // for address 0b10 must flip the target only for that branch.
        let addr = [Qubit(0), Qubit(1)];
        let gate = Gate::mcx_pattern(&addr, 0b10, Qubit(2));
        let mut s = PathState::uniform_over(3, &addr);
        run(&[gate], &mut s).unwrap();
        for (bits, _) in s.iter() {
            let a = bits.read_msb_first(&[0, 1]);
            let t = bits.get(2);
            assert_eq!(t, a == 0b10, "address {a:#04b}");
        }
    }

    #[test]
    fn h_is_rejected() {
        let mut s = PathState::computational_basis(1);
        let err = run(&[Gate::H(Qubit(0))], &mut s).unwrap_err();
        assert_eq!(err, SimError::NonReversibleGate { gate: "h" });
    }

    #[test]
    fn out_of_range_qubit_is_rejected() {
        let mut s = PathState::computational_basis(1);
        let err = run(&[Gate::x(Qubit(3))], &mut s).unwrap_err();
        assert!(matches!(err, SimError::QubitOutOfRange { index: 3, .. }));
    }

    #[test]
    fn faults_fire_at_their_location() {
        // X fault before the CX control changes the CX outcome; after, it
        // does not.
        let gates = [Gate::cx(Qubit(0), Qubit(1))];

        let mut before = PathState::computational_basis(2);
        let plan: FaultPlan = [Fault::new(0, Qubit(0), Pauli::X)].into_iter().collect();
        run_with_faults(&gates, &mut before, &plan, 1).unwrap();
        // Fault flips control to 1 → CX fires → |11⟩.
        assert!((before.fidelity(&basis(0b11, 2)) - 1.0).abs() < 1e-12);

        let mut after = PathState::computational_basis(2);
        let plan: FaultPlan = [Fault::new(1, Qubit(0), Pauli::X)].into_iter().collect();
        run_with_faults(&gates, &mut after, &plan, 1).unwrap();
        // CX saw control 0 → only the fault's flip remains → |01⟩... i.e. bit0 = 1.
        assert!((after.fidelity(&basis(0b01, 2)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn z_fault_on_zero_branch_is_harmless() {
        // Z on a qubit in |0⟩ is the identity: fidelity stays 1.
        let gates = [Gate::cx(Qubit(0), Qubit(1))];
        let mut ideal = PathState::computational_basis(2);
        run(&gates, &mut ideal).unwrap();

        let mut noisy = PathState::computational_basis(2);
        let plan: FaultPlan = [Fault::new(0, Qubit(1), Pauli::Z)].into_iter().collect();
        run_with_faults(&gates, &mut noisy, &plan, 1).unwrap();
        assert!((noisy.fidelity(&ideal) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn barrier_is_inert_but_occupies_an_index() {
        let mut c = Circuit::new(1);
        c.barrier();
        c.push(Gate::x(Qubit(0)));
        // A fault at index 1 fires after the barrier, before the X.
        let plan: FaultPlan = [Fault::new(1, Qubit(0), Pauli::X)].into_iter().collect();
        let mut s = PathState::computational_basis(1);
        run_with_faults(c.gates(), &mut s, &plan, 1).unwrap();
        // X fault + X gate = identity.
        assert!((s.fidelity(&PathState::computational_basis(1)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn path_count_is_preserved_by_reversible_gates() {
        let addr = [Qubit(0), Qubit(1), Qubit(2)];
        let mut s = PathState::uniform_over(5, &addr);
        let gates = [
            Gate::cx(Qubit(0), Qubit(3)),
            Gate::ccx(Qubit(1), Qubit(2), Qubit(4)),
            Gate::cswap(Qubit(0), Qubit(3), Qubit(4)),
            Gate::swap(Qubit(3), Qubit(4)),
            Gate::x(Qubit(3)),
        ];
        run(&gates, &mut s).unwrap();
        assert_eq!(s.num_paths(), 8);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chunked_run_matches_serial_bit_for_bit() {
        let addr = [Qubit(0), Qubit(1), Qubit(2)];
        let gates = [
            Gate::cx(Qubit(0), Qubit(3)),
            Gate::ccx(Qubit(1), Qubit(2), Qubit(4)),
            Gate::cswap(Qubit(0), Qubit(3), Qubit(4)),
            Gate::swap(Qubit(3), Qubit(4)),
            Gate::x(Qubit(3)),
        ];
        let noisy: FaultPlan = [
            Fault::new(1, Qubit(2), Pauli::Y),
            Fault::new(3, Qubit(0), Pauli::Z),
            Fault::new(5, Qubit(4), Pauli::X),
        ]
        .into_iter()
        .collect();
        let input = PathState::uniform_over(5, &addr);
        // The empty plan is the noiseless run, `run` its serial reference.
        for plan in [FaultPlan::new(), noisy] {
            let mut serial = input.clone();
            if plan.is_empty() {
                run(&gates, &mut serial).unwrap();
            } else {
                run_with_faults(&gates, &mut serial, &plan, 1).unwrap();
            }
            for chunks in [1usize, 2, 3, 4, 7, 16] {
                let mut chunked = input.clone();
                run_with_faults(&gates, &mut chunked, &plan, chunks).unwrap();
                // Bit-identical including slab order, not merely equal as sets.
                let a: Vec<_> = chunked.iter().collect();
                let b: Vec<_> = serial.iter().collect();
                assert_eq!(a, b, "faults={} chunks={chunks}", plan.len());
            }
        }
    }

    #[test]
    fn chunked_error_semantics_match_serial() {
        let input = PathState::uniform_over(3, &[Qubit(0), Qubit(1)]);
        // (gates, plan) cases that each fail at a different point of the
        // serial execution order.
        let h_gate = vec![Gate::cx(Qubit(0), Qubit(1)), Gate::H(Qubit(2))];
        let bad_gate = vec![Gate::x(Qubit(7))];
        let bad_fault_gates = vec![Gate::cx(Qubit(0), Qubit(1))];
        let bad_fault: FaultPlan = [Fault::new(1, Qubit(9), Pauli::X)].into_iter().collect();
        // A bad gate and a bad fault: whichever comes first in serial
        // order is reported.
        let fault_first: FaultPlan = [Fault::new(0, Qubit(8), Pauli::Z)].into_iter().collect();
        let gate_first: FaultPlan = [Fault::new(1, Qubit(8), Pauli::Z)].into_iter().collect();
        let h = SimError::NonReversibleGate { gate: "h" };
        let out_of_range = |index| SimError::QubitOutOfRange {
            index,
            num_qubits: 3,
        };
        let cases: Vec<(&[Gate], FaultPlan, SimError)> = vec![
            (&h_gate, FaultPlan::new(), h),
            (&bad_gate, FaultPlan::new(), out_of_range(7)),
            (&bad_fault_gates, bad_fault, out_of_range(9)),
            (&bad_gate, fault_first, out_of_range(8)),
            (&bad_gate, gate_first, out_of_range(7)),
        ];
        for (gates, plan, want) in cases {
            for chunks in [1usize, 3] {
                let mut state = input.clone();
                let err = run_with_faults(gates, &mut state, &plan, chunks).unwrap_err();
                assert_eq!(err, want, "chunks={chunks}");
            }
        }
    }

    #[test]
    fn failing_run_leaves_state_untouched() {
        let input = PathState::uniform_over(3, &[Qubit(0), Qubit(1)]);
        let gates = [Gate::cx(Qubit(0), Qubit(1)), Gate::H(Qubit(2))];
        for chunks in [1usize, 3] {
            let mut state = input.clone();
            let err = run_with_faults(&gates, &mut state, &FaultPlan::new(), chunks).unwrap_err();
            assert_eq!(err, SimError::NonReversibleGate { gate: "h" });
            let after: Vec<_> = state.iter().collect();
            let before: Vec<_> = input.iter().collect();
            assert_eq!(after, before, "chunks={chunks}");
        }
    }

    #[test]
    fn faults_past_circuit_end_never_fire_nor_validate() {
        // A fault located beyond the final fire point (gate_index >
        // gates.len()) is dead: it is never validated, on any chunk
        // count and in the shot engine's per-shot check alike.
        let gates = [Gate::x(Qubit(0))];
        let plan: FaultPlan = [Fault::new(2, Qubit(40), Pauli::X)].into_iter().collect();
        let mut serial = PathState::computational_basis(1);
        run_with_faults(&gates, &mut serial, &plan, 1).unwrap();
        let input = PathState::uniform_over(1, &[Qubit(0)]);
        run_with_faults(&gates, &mut input.clone(), &plan, 2).unwrap();
        for threads in [1usize, 3] {
            for path_chunks in [1usize, 2] {
                let config = crate::ShotConfig::new(6)
                    .with_threads(threads)
                    .with_path_chunks(path_chunks);
                let (est, _) =
                    crate::run_shots_stats(&gates, &input, None, &config, &|_| plan.clone())
                        .unwrap();
                let at = format!("threads={threads} path_chunks={path_chunks}");
                assert!((est.mean - 1.0).abs() < 1e-12, "{at}");
            }
        }
    }

    #[test]
    fn run_chunked_noiseless_matches_run() {
        let addr = [Qubit(0), Qubit(1)];
        let gates = [
            Gate::cx(Qubit(0), Qubit(2)),
            Gate::cswap(Qubit(1), Qubit(2), Qubit(3)),
        ];
        let input = PathState::uniform_over(4, &addr);
        let mut serial = input.clone();
        run(&gates, &mut serial).unwrap();
        // A chunked run with the empty plan is the noiseless chunked run.
        let mut chunked = input.clone();
        run_with_faults(&gates, &mut chunked, &FaultPlan::new(), 4).unwrap();
        let a: Vec<_> = chunked.iter().collect();
        let b: Vec<_> = serial.iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn uncompute_by_inversion_restores_input() {
        let mut c = Circuit::new(4);
        c.push(Gate::cx(Qubit(0), Qubit(2)));
        c.push(Gate::cswap(Qubit(1), Qubit(2), Qubit(3)));
        c.push(Gate::ccx(Qubit(0), Qubit(1), Qubit(3)));

        let input = PathState::uniform_over(4, &[Qubit(0), Qubit(1)]);
        let mut s = input.clone();
        run(c.gates(), &mut s).unwrap();
        run(c.inverted().gates(), &mut s).unwrap();
        assert!((s.fidelity(&input) - 1.0).abs() < 1e-12);
    }
}
