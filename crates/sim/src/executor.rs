//! Circuit execution over path states, with Pauli fault injection.
//!
//! A *fault* is a Pauli error attached to a circuit location: either before
//! any gate executes (`gate_index == 0`) or immediately **after** the gate
//! at `gate_index − 1`. A [`FaultPlan`] is the complete fault pattern of one
//! Monte-Carlo shot; running the same circuit under different plans gives
//! the trajectory samples the paper averages in its fidelity plots
//! (Sec. 6.3).
//!
//! Every run executes on a lowered op tape. The gate list is lowered once
//! per run into a flat tape of [`Op`]s, one per gate, so fault locations
//! index the tape exactly as they index the gate list. Lowering resolves
//! every operand to a word index plus a one-bit mask, folds each
//! control's polarity into an expected-value mask (controls that share a
//! word become a single masked compare), and keeps the controls of `Mcx`
//! gates that span more than two words in a side table. Executing an op
//! is then a few word loads, compares and xors per path; no qubit-range
//! assertion, polarity branch or per-gate closure remains in the loop.
//!
//! Lowering also validates the run, in serial execution order: it stops
//! at the first gate with an out-of-range qubit or outside the
//! classical-reversible family, the faults that fire before that point
//! are checked against it, and only a valid run touches the slab.
//!
//! The tape runs under the nesting the view's path count calls for. A
//! single path (the basis-state input the serving layer simulates) streams
//! the whole tape while its words stay in L1 (*path-major*). With more
//! paths each op sweeps the whole view before the next (*op-major*), so
//! its dispatch is paid once per view rather than once per path. Both
//! nestings call the same [`Tape::apply`] kernel.
//!
//! Because every gate in the classical-reversible + Pauli family maps each
//! path independently (paths never interact during execution, only in the
//! final overlap reductions), a whole run factorizes over disjoint path
//! ranges: [`run_with_faults`] splits the state's slab into contiguous
//! chunks and runs the tape, faults spliced in, on each chunk in parallel
//! over [`crate::par::par_map`]. The result is *bit-identical* to the
//! serial run — each path's bit and amplitude operations are the same
//! instruction sequence regardless of which chunk it lands in, and the
//! slab order is preserved.

use qram_circuit::{Control, Gate, Qubit};

use crate::par::par_map;
use crate::state::PathsMut;
use crate::{Amplitude, PathState, SimError};

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
/// run in parallel on the fork-join layer ([`crate::par`]), inline when
/// called from one of its workers.
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
    let tape = lower_checked(gates, &faults, state.num_qubits())?;
    execute(&tape, state, &faults, chunks);
    Ok(())
}

/// Lowers `gates` and validates the run in serial execution order (a
/// fault fires before the gate at its index, the final fire after the
/// last gate): reports the first out-of-range qubit or non-reversible
/// gate exactly where a checking executor would meet it. `faults` must
/// be location-sorted.
pub(crate) fn lower_checked(
    gates: &[Gate],
    faults: &[Fault],
    num_qubits: usize,
) -> Result<Tape, SimError> {
    let lowered = Tape::lower(gates, num_qubits);
    // Faults at index ≤ i fire before gate i, so they come first.
    let horizon = lowered.as_ref().map_or_else(|(i, _)| *i, Tape::len);
    validate_faults(faults, horizon, num_qubits)?;
    lowered.map_err(|(_, e)| e)
}

/// Executes a validated run (see [`lower_checked`]) over `chunks` views
/// of the slab, one fork-join unit per view.
pub(crate) fn execute(tape: &Tape, state: &mut PathState, faults: &[Fault], chunks: usize) {
    par_map(
        state.chunk_views(chunks),
        chunks,
        || (),
        |(), view| tape.run_on(view, faults),
    );
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

/// Views with at most this many paths run path-major, larger ones
/// op-major. Path-major dispatches every op once per path; measured on
/// width-2 to width-6 virtual QRAM queries it was no faster than
/// op-major at 4 paths and about 1.5× slower at 16, but about 1.7×
/// faster at one.
const PATH_MAJOR_MAX_PATHS: usize = 1;

/// One operand qubit: the word it lives in and its bit within that word.
#[derive(Debug, Clone, Copy)]
struct Bit {
    word: usize,
    mask: u64,
}

impl Bit {
    fn of(qubit: Qubit) -> Bit {
        let i = qubit.index();
        Bit {
            word: i / 64,
            mask: 1 << (i % 64),
        }
    }

    /// The operand of `qubit`, or the run's range error.
    fn checked(qubit: Qubit, num_qubits: usize) -> Result<Bit, SimError> {
        if qubit.index() < num_qubits {
            Ok(Bit::of(qubit))
        } else {
            Err(SimError::QubitOutOfRange {
                index: qubit.index(),
                num_qubits,
            })
        }
    }

    #[inline(always)]
    fn get(self, words: &[u64]) -> bool {
        words[self.word] & self.mask != 0
    }

    #[inline(always)]
    fn flip(self, words: &mut [u64]) {
        words[self.word] ^= self.mask;
    }
}

/// The controls of one gate that live in one word: the gate may fire
/// only if `words[word] & mask == expect`.
#[derive(Debug, Clone, Copy)]
struct Test {
    word: usize,
    mask: u64,
    expect: u64,
}

impl Test {
    /// The test of one control, or the run's range error.
    fn checked(control: &Control, num_qubits: usize) -> Result<Test, SimError> {
        let c = Bit::checked(control.qubit, num_qubits)?;
        Ok(Test {
            word: c.word,
            mask: c.mask,
            expect: if control.value { c.mask } else { 0 },
        })
    }

    #[inline(always)]
    fn holds(self, words: &[u64]) -> bool {
        words[self.word] & self.mask == self.expect
    }
}

/// One lowered gate (or fault).
#[derive(Debug, Clone, Copy)]
enum Op {
    /// A barrier, or a controlled gate whose controls contradict each
    /// other and so never fires.
    Nop,
    X(Bit),
    Y(Bit),
    Z(Bit),
    /// X on the target when the one control test holds.
    Cx(Test, Bit),
    /// X on the target when both control tests hold.
    Ccx(Test, Test, Bit),
    /// X on the target when every test in the side table's
    /// `tests[first..end]` holds.
    Mcx {
        first: usize,
        end: usize,
        target: Bit,
    },
    Swap(Bit, Bit),
    Cswap(Test, Bit, Bit),
}

impl Op {
    /// The op of a validated fault.
    fn pauli(fault: &Fault) -> Op {
        let bit = Bit::of(fault.qubit);
        match fault.pauli {
            Pauli::X => Op::X(bit),
            Pauli::Y => Op::Y(bit),
            Pauli::Z => Op::Z(bit),
        }
    }
}

/// A gate list lowered for one qubit count: one [`Op`] per gate plus the
/// side table of `Mcx` control tests.
#[derive(Debug)]
pub(crate) struct Tape {
    ops: Vec<Op>,
    tests: Vec<Test>,
}

impl Tape {
    /// Lowers `gates` for a `num_qubits`-qubit state. Fails at the first
    /// gate, in order, that references a qubit out of range (checked in
    /// [`Gate::qubits`] order) or is not classical-reversible, returning
    /// that gate's index with the error.
    pub(crate) fn lower(gates: &[Gate], num_qubits: usize) -> Result<Tape, (usize, SimError)> {
        let mut tape = Tape {
            ops: Vec::with_capacity(gates.len()),
            tests: Vec::new(),
        };
        for (i, gate) in gates.iter().enumerate() {
            let op = tape.lower_gate(gate, num_qubits).map_err(|e| (i, e))?;
            tape.ops.push(op);
        }
        Ok(tape)
    }

    /// Number of ops, which is the number of gates lowered.
    pub(crate) fn len(&self) -> usize {
        self.ops.len()
    }

    fn lower_gate(&mut self, gate: &Gate, num_qubits: usize) -> Result<Op, SimError> {
        let bit = |q: &Qubit| Bit::checked(*q, num_qubits);
        Ok(match gate {
            Gate::Barrier => Op::Nop,
            Gate::H(q) => {
                bit(q)?;
                return Err(SimError::NonReversibleGate { gate: "h" });
            }
            Gate::X(q) | Gate::ClX(q) => Op::X(bit(q)?),
            Gate::Y(q) => Op::Y(bit(q)?),
            Gate::Z(q) => Op::Z(bit(q)?),
            Gate::Cx { control, target } | Gate::ClCx { control, target } => {
                Op::Cx(Test::checked(control, num_qubits)?, bit(target)?)
            }
            Gate::Ccx { controls, target } => self.controlled_x(controls, target, num_qubits)?,
            Gate::Mcx { controls, target } => self.controlled_x(controls, target, num_qubits)?,
            Gate::Swap(a, b) | Gate::ClSwap(a, b) => Op::Swap(bit(a)?, bit(b)?),
            Gate::Cswap { control, a, b } => {
                Op::Cswap(Test::checked(control, num_qubits)?, bit(a)?, bit(b)?)
            }
        })
    }

    /// Lowers a `Ccx` or `Mcx`: the controls fold into one [`Test`] per
    /// word they touch, built at the end of the side table and moved
    /// inline when there are at most two.
    fn controlled_x(
        &mut self,
        controls: &[Control],
        target: &Qubit,
        num_qubits: usize,
    ) -> Result<Op, SimError> {
        let first = self.tests.len();
        let mut satisfiable = true;
        for control in controls {
            let c = Test::checked(control, num_qubits)?;
            match self.tests[first..].iter_mut().find(|t| t.word == c.word) {
                Some(t) => {
                    // Two controls on one qubit that demand opposite values.
                    satisfiable &= (t.expect ^ c.expect) & t.mask & c.mask == 0;
                    t.mask |= c.mask;
                    t.expect |= c.expect;
                }
                None => self.tests.push(c),
            }
        }
        let target = Bit::checked(*target, num_qubits)?;
        let op = match self.tests[first..] {
            _ if !satisfiable => Op::Nop,
            [] => Op::X(target),
            [c] => Op::Cx(c, target),
            [c0, c1] => Op::Ccx(c0, c1, target),
            _ => {
                return Ok(Op::Mcx {
                    first,
                    end: self.tests.len(),
                    target,
                })
            }
        };
        self.tests.truncate(first);
        Ok(op)
    }

    /// Applies one op to one path. Operands were range-checked when the
    /// tape was lowered, so no qubit-range or gate-family check happens
    /// here.
    #[inline(always)]
    fn apply(&self, op: &Op, words: &mut [u64], amp: &mut Amplitude) {
        #[inline(always)]
        fn swap(words: &mut [u64], a: Bit, b: Bit) {
            if a.get(words) != b.get(words) {
                a.flip(words);
                b.flip(words);
            }
        }
        match *op {
            Op::Nop => {}
            Op::X(t) => t.flip(words),
            Op::Y(t) => {
                let was_one = t.get(words);
                t.flip(words);
                *amp = if was_one {
                    amp.mul_neg_i()
                } else {
                    amp.mul_i()
                };
            }
            Op::Z(t) => {
                if t.get(words) {
                    *amp = -*amp;
                }
            }
            Op::Cx(c, t) => {
                if c.holds(words) {
                    t.flip(words);
                }
            }
            Op::Ccx(c0, c1, t) => {
                if c0.holds(words) && c1.holds(words) {
                    t.flip(words);
                }
            }
            Op::Mcx { first, end, target } => {
                if self.tests[first..end].iter().all(|c| c.holds(words)) {
                    target.flip(words);
                }
            }
            Op::Swap(a, b) => swap(words, a, b),
            Op::Cswap(c, a, b) => {
                if c.holds(words) {
                    swap(words, a, b);
                }
            }
        }
    }

    /// Calls `f` on the ops of one run in execution order, a slice at a
    /// time: the tape split at the location-sorted `faults`, with each
    /// fault's op as a slice of its own between the pieces (a fault at
    /// `gate_index = i` fires after `i` tape ops). Faults located past
    /// the end of the tape never fire. Handing out slices keeps the
    /// per-op loop inside `f`, where [`Tape::apply`] inlines.
    #[inline(always)]
    fn walk(&self, faults: &[Fault], mut f: impl FnMut(&[Op])) {
        let mut done = 0;
        for fault in faults.iter().take_while(|f| f.gate_index <= self.ops.len()) {
            f(&self.ops[done..fault.gate_index]);
            f(&[Op::pauli(fault)]);
            done = fault.gate_index;
        }
        f(&self.ops[done..]);
    }

    /// Runs the tape over one slab view, with the validated,
    /// location-sorted `faults` spliced in.
    pub(crate) fn run_on(&self, mut view: PathsMut<'_>, faults: &[Fault]) {
        if view.num_paths() <= PATH_MAJOR_MAX_PATHS {
            for (words, amp) in view.paths() {
                self.walk(faults, |ops| {
                    for op in ops {
                        self.apply(op, words, amp);
                    }
                });
            }
        } else {
            self.walk(faults, |ops| {
                for op in ops {
                    match *op {
                        Op::Nop => {}
                        op @ Op::X(_) => self.sweep(op, &mut view),
                        op @ Op::Y(_) => self.sweep(op, &mut view),
                        op @ Op::Z(_) => self.sweep(op, &mut view),
                        op @ Op::Cx(..) => self.sweep(op, &mut view),
                        op @ Op::Ccx(..) => self.sweep(op, &mut view),
                        op @ Op::Mcx { .. } => self.sweep(op, &mut view),
                        op @ Op::Swap(..) => self.sweep(op, &mut view),
                        op @ Op::Cswap(..) => self.sweep(op, &mut view),
                    }
                }
            });
        }
    }

    /// Applies `op` to every path of `view`. Op-major runs match on the
    /// op *before* calling this, one arm per kind: inlined into an arm
    /// whose kind is known, [`Tape::apply`]'s own match folds away and
    /// the path loop runs that kind's kernel alone.
    #[inline(always)]
    fn sweep(&self, op: Op, view: &mut PathsMut<'_>) {
        for (words, amp) in view.paths() {
            self.apply(&op, words, amp);
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

    fn lowered(gate: Gate, num_qubits: usize) -> (Op, Vec<Test>) {
        let tape = Tape::lower(&[gate], num_qubits).unwrap();
        (tape.ops[0], tape.tests)
    }

    #[test]
    fn controls_sharing_a_word_fold_into_one_test() {
        let (op, tests) = lowered(Gate::ccx(Qubit(3), Qubit(70), Qubit(5)), 130);
        assert!(matches!(op, Op::Ccx(..)));
        assert!(tests.is_empty());
        // qubits 0, 2 (word 0) and 64 (word 1), one of them 0-controlled.
        let gate = Gate::mcx_pattern(&[Qubit(0), Qubit(64), Qubit(2)], 0b101, Qubit(9));
        let (op, tests) = lowered(gate, 130);
        let Op::Ccx(c0, c1, _) = op else {
            panic!("expected two word tests, got {op:?}")
        };
        assert_eq!((c0.word, c0.mask, c0.expect), (0, 0b101, 0b101));
        assert_eq!((c1.word, c1.mask, c1.expect), (1, 1, 0));
        assert!(tests.is_empty());
    }

    #[test]
    fn wide_mcx_keeps_its_tests_in_the_side_table() {
        let gate = Gate::mcx([Qubit(1), Qubit(65), Qubit(129)], Qubit(0));
        let (op, tests) = lowered(gate, 130);
        assert!(matches!(
            op,
            Op::Mcx {
                first: 0,
                end: 3,
                ..
            }
        ));
        assert_eq!(tests.len(), 3);
        // Zero controls lower to a plain X.
        let (op, _) = lowered(Gate::mcx([], Qubit(0)), 1);
        assert!(matches!(op, Op::X(_)));
    }

    #[test]
    fn contradictory_controls_never_fire() {
        let gate = Gate::Ccx {
            controls: [Control::on(Qubit(1)), Control::off(Qubit(1))],
            target: Qubit(0),
        };
        let (op, tests) = lowered(gate, 2);
        assert!(matches!(op, Op::Nop));
        assert!(tests.is_empty());
    }

    #[test]
    fn lowering_reports_the_first_bad_gate_in_operand_order() {
        let gates = [
            Gate::x(Qubit(0)),
            Gate::cswap(Qubit(9), Qubit(8), Qubit(0)),
            Gate::H(Qubit(0)),
        ];
        let (at, err) = Tape::lower(&gates, 4).unwrap_err();
        assert_eq!(at, 1);
        assert_eq!(
            err,
            SimError::QubitOutOfRange {
                index: 9,
                num_qubits: 4
            }
        );
        let (at, err) = Tape::lower(&gates[2..], 4).unwrap_err();
        assert_eq!(at, 0);
        assert_eq!(err, SimError::NonReversibleGate { gate: "h" });
    }
}
