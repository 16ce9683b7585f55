//! The circuit analyzer: structural verification of compiled queries.
//!
//! Four check families, each returning plain [`Finding`]s so callers can
//! aggregate across passes:
//!
//! * [`check_gates`] — per-gate well-formedness (index bounds, operand
//!   overlap) at the raw gate-slice level. [`qram_circuit::Circuit`]
//!   validates pushes with `debug_assert!` only, so a malformed gate can
//!   reach a release-build artifact; this pass is the release-mode gate.
//! * [`check_gate_set`] — family legality: every generator emits a fixed
//!   gate vocabulary (the SQC QROM is nothing but MCX units, the fanout
//!   tree never routes with plain SWAPs, …), so a gate outside the
//!   family's set means the artifact was not produced by its claimed
//!   generator.
//! * [`check_ancillas`] — the ancilla-hygiene invariant of the
//!   bucket-brigade line of work: every non-output qubit must leave the
//!   circuit exactly as it entered. Statically, writes to an ancilla
//!   must cancel in compute/uncompute pairs — all QRAM gates are
//!   self-inverse, so an uncomputation replays the computing gate, and a
//!   commutation-aware LIFO match of structurally-equal write pairs
//!   reduces a correctly uncomputed ancilla's write word to nothing. A
//!   non-empty residue is an [`Finding::AncillaLeak`]; a routing swap
//!   controlled by an ancilla that nothing has loaded yet is a
//!   [`Finding::UseAfterRelease`].
//! * [`certify_resources`] — re-derives the full
//!   [`ResourceCount`] from the circuit with an independent
//!   implementation ([`recount`]: own constants table, own critical-path
//!   walk) and diffs it field by field against what the compiler claims.
//!
//! [`verify_query`] combines them at two [`VerifyLevel`]s: `Structural`
//! (bounds + overlap + gate set — cheap, always on in the serving path)
//! and `Deep` (adds ancilla lifecycle and resource certification).

use std::collections::BTreeMap;

use qram_circuit::resources::ResourceCount;
use qram_circuit::{Circuit, Gate, Qubit};
use qram_core::QueryCircuit;

/// How much of the analyzer to run on a compiled query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyLevel {
    /// Per-gate well-formedness and gate-set legality — cheap (one walk
    /// over the gate list), always on in the serving path.
    Structural,
    /// Structural checks plus ancilla lifecycle analysis and resource
    /// certification.
    Deep,
}

/// One verification diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Finding {
    /// A gate names a qubit outside the circuit's qubit range.
    QubitOutOfRange {
        /// Index of the offending gate in the gate list.
        gate_index: usize,
        /// Rendered gate.
        gate: String,
        /// The out-of-range qubit index.
        qubit: u32,
        /// The circuit's qubit count.
        num_qubits: usize,
    },
    /// A gate names the same qubit as two of its operands.
    OverlappingOperands {
        /// Index of the offending gate in the gate list.
        gate_index: usize,
        /// Rendered gate.
        gate: String,
        /// The duplicated qubit index.
        qubit: u32,
    },
    /// A gate outside the architecture family's legal vocabulary.
    IllegalGate {
        /// Index of the offending gate in the gate list.
        gate_index: usize,
        /// Rendered gate.
        gate: String,
        /// The family whose gate set was violated.
        family: String,
    },
    /// An ancilla's structural writes do not cancel: the qubit is left
    /// computed (not uncomputed) at circuit end.
    AncillaLeak {
        /// The leaked qubit index.
        qubit: u32,
        /// Register the qubit belongs to.
        register: String,
        /// Unmatched write gates remaining on the qubit's write stack.
        pending: usize,
    },
    /// A routing swap is controlled by an ancilla still in its released,
    /// idle state — nothing has loaded it yet.
    UseAfterRelease {
        /// Index of the reading gate in the gate list.
        gate_index: usize,
        /// Rendered gate.
        gate: String,
        /// The released qubit index.
        qubit: u32,
        /// Register the qubit belongs to.
        register: String,
    },
    /// A claimed [`ResourceCount`] field disagrees with the independent
    /// recount of the circuit.
    ResourceMismatch {
        /// The differing field (census entries as `census[name]`).
        field: String,
        /// What the compiler claimed.
        claimed: usize,
        /// What the recount measured.
        recounted: usize,
    },
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Finding::QubitOutOfRange {
                gate_index,
                gate,
                qubit,
                num_qubits,
            } => write!(
                f,
                "gate {gate_index} `{gate}`: qubit q{qubit} out of range (circuit has {num_qubits} qubits)"
            ),
            Finding::OverlappingOperands {
                gate_index,
                gate,
                qubit,
            } => write!(
                f,
                "gate {gate_index} `{gate}`: qubit q{qubit} appears as two operands"
            ),
            Finding::IllegalGate {
                gate_index,
                gate,
                family,
            } => write!(
                f,
                "gate {gate_index} `{gate}`: not in the `{family}` family's gate set"
            ),
            Finding::AncillaLeak {
                qubit,
                register,
                pending,
            } => write!(
                f,
                "ancilla q{qubit} ({register}): {pending} write(s) never uncomputed"
            ),
            Finding::UseAfterRelease {
                gate_index,
                gate,
                qubit,
                register,
            } => write!(
                f,
                "gate {gate_index} `{gate}`: routes on ancilla q{qubit} ({register}) before anything loads it"
            ),
            Finding::ResourceMismatch {
                field,
                claimed,
                recounted,
            } => write!(
                f,
                "resource certification: {field} claimed {claimed}, recounted {recounted}"
            ),
        }
    }
}

/// A failed verification: the non-empty list of findings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Everything the analyzer flagged, in gate order per pass.
    pub findings: Vec<Finding>,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "circuit verification failed ({} finding(s))",
            self.findings.len()
        )?;
        for finding in &self.findings {
            write!(f, "\n  - {finding}")?;
        }
        Ok(())
    }
}

impl std::error::Error for VerifyError {}

/// Bounds and overlap checks over a raw gate slice.
///
/// Operates below [`Circuit`] on purpose: `Circuit::push` only
/// `debug_assert!`s validity, so release-compiled artifacts (and tests
/// seeding defects) need a checker that accepts arbitrary gate lists.
///
/// ```
/// use qram_circuit::{Gate, Qubit};
/// use qram_verify::check_gates;
/// // cx q0, q5 in a 2-qubit circuit: out of range.
/// let findings = check_gates(2, &[Gate::cx(Qubit(0), Qubit(5))]);
/// assert_eq!(findings.len(), 1);
/// ```
pub fn check_gates(num_qubits: usize, gates: &[Gate]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (gate_index, gate) in gates.iter().enumerate() {
        let qs = gate.qubits();
        for q in &qs {
            if q.index() >= num_qubits {
                findings.push(Finding::QubitOutOfRange {
                    gate_index,
                    gate: gate.to_string(),
                    qubit: q.0,
                    num_qubits,
                });
            }
        }
        for (i, a) in qs.iter().enumerate() {
            if qs[..i].contains(a) {
                findings.push(Finding::OverlappingOperands {
                    gate_index,
                    gate: gate.to_string(),
                    qubit: a.0,
                });
            }
        }
    }
    findings
}

/// The legal gate vocabulary of an architecture family, by mnemonic
/// (barriers are scheduling metadata and always legal). `None` means the
/// family is unknown and no legality is enforced.
pub fn allowed_gates(family: &str) -> Option<&'static [&'static str]> {
    match family {
        // The QROM is one MCX unit per 1-cell, nothing else.
        "sqc" => Some(&["mcx"]),
        // CX broadcast/compression, X + CSWAP flag ball, ClCx writes.
        "fanout" => Some(&["x", "cx", "cswap", "clcx"]),
        // SWAP address (un)loading, CSWAP routing, ClSwap dual-rail
        // writes, MCX/CX page select.
        "bucket_brigade" => Some(&["x", "cx", "swap", "cswap", "clswap", "mcx"]),
        // MCX/ClX select, CX fanout trees, CSWAP swap network.
        "select_swap" => Some(&["clx", "cx", "cswap", "mcx"]),
        // The paged design composes the tree vocabulary with per-page
        // selection and both data-write encodings.
        "virtual" => Some(&["x", "cx", "swap", "cswap", "clcx", "clswap", "mcx"]),
        _ => None,
    }
}

/// Flags every gate outside `family`'s vocabulary (see
/// [`allowed_gates`]). Unknown families produce no findings.
pub fn check_gate_set(family: &str, gates: &[Gate]) -> Vec<Finding> {
    let Some(allowed) = allowed_gates(family) else {
        return Vec::new();
    };
    gates
        .iter()
        .enumerate()
        .filter(|(_, gate)| !gate.is_barrier() && !allowed.contains(&gate.name()))
        .map(|(gate_index, gate)| Finding::IllegalGate {
            gate_index,
            gate: gate.to_string(),
            family: family.to_string(),
        })
        .collect()
}

/// Qubits a gate mutates (targets and swap operands). Controls are
/// read-only and excluded.
fn write_targets(gate: &Gate) -> Vec<Qubit> {
    match gate {
        Gate::X(q) | Gate::Y(q) | Gate::Z(q) | Gate::H(q) | Gate::ClX(q) => vec![*q],
        Gate::Cx { target, .. }
        | Gate::ClCx { target, .. }
        | Gate::Ccx { target, .. }
        | Gate::Mcx { target, .. } => vec![*target],
        Gate::Swap(a, b) | Gate::ClSwap(a, b) => vec![*a, *b],
        Gate::Cswap { a, b, .. } => vec![*a, *b],
        Gate::Barrier => Vec::new(),
    }
}

/// Qubits a gate reads as controls.
fn read_controls(gate: &Gate) -> Vec<Qubit> {
    match gate {
        Gate::Cx { control, .. } | Gate::ClCx { control, .. } | Gate::Cswap { control, .. } => {
            vec![control.qubit]
        }
        Gate::Ccx { controls, .. } => controls.iter().map(|c| c.qubit).collect(),
        Gate::Mcx { controls, .. } => controls.iter().map(|c| c.qubit).collect(),
        _ => Vec::new(),
    }
}

/// Whether a write XORs into its target (all X-type writes on a common
/// target commute with one another, whatever their controls), as
/// opposed to swapping it (order-sensitive against everything).
fn is_xor_write(gate: &Gate) -> bool {
    !matches!(gate, Gate::Swap(..) | Gate::ClSwap(..) | Gate::Cswap { .. })
}

/// Pushes `gate` onto an ancilla's write stack, cancelling the
/// compute/uncompute pair it closes if one is reachable.
///
/// Plain LIFO (pop when the incoming write structurally equals the top)
/// handles nested and repeated-identical words; additionally, an
/// incoming XOR-type write may cancel a matching entry *below* other
/// XOR-type entries, because XOR writes on a common target commute —
/// the fused encoding writes two leaves' data through the same parent
/// rail and uncomputes them in the same (not reversed) order, which is
/// only identity up to that commutation. Swap-type writes are
/// reorderable with nothing and act as barriers.
fn push_write<'a>(stack: &mut Vec<&'a Gate>, gate: &'a Gate) {
    if is_xor_write(gate) {
        for i in (0..stack.len()).rev() {
            if stack[i] == gate {
                stack.remove(i);
                return;
            }
            if !is_xor_write(stack[i]) {
                break;
            }
        }
        stack.push(gate);
    } else if stack.last() == Some(&gate) {
        stack.pop();
    } else {
        stack.push(gate);
    }
}

/// Ancilla lifecycle analysis over a compiled query.
///
/// Every qubit outside the address and bus registers is an ancilla the
/// Eq. 2 contract requires restored to `|0⟩`. Two structural invariants
/// are checked per ancilla:
///
/// * **Leak** — writes must cancel in compute/uncompute pairs. All QRAM
///   gates are self-inverse, so uncomputation replays the computing
///   gate; `push_write`'s commutation-aware LIFO reduction takes a
///   correctly uncomputed ancilla's write word to nothing, and a
///   non-empty residue at circuit end is a leak.
/// * **Use after release** — a routing swap (Cswap) whose quantum
///   control is an ancilla *no gate has written yet* routes data off a
///   wire still in its released, idle `|0⟩` state: the router was never
///   loaded, so the swap silently sends the query down a fixed arm.
///   XOR-type reads of idle ancillae are *not* flagged — the generators
///   deliberately read unwritten rails with plain CX to keep circuit
///   shape uniform when the classical memory bit is 0, and those reads
///   are exact no-ops.
pub fn check_ancillas(query: &QueryCircuit) -> Vec<Finding> {
    let n = query.num_qubits();
    let mut is_output = vec![false; n];
    for q in query.output_qubits() {
        is_output[q.index()] = true;
    }
    let register_of = |q: Qubit| -> String {
        query
            .registers()
            .iter()
            .find(|r| r.contains(q))
            .map_or_else(|| "?".to_string(), |r| r.name().to_string())
    };
    let gates = query.circuit().gates();

    let mut findings = Vec::new();
    let mut written = vec![false; n];
    let mut stacks: Vec<Vec<&Gate>> = vec![Vec::new(); n];
    for (i, gate) in gates.iter().enumerate() {
        for q in read_controls(gate) {
            if q.index() >= n || is_output[q.index()] || is_xor_write(gate) {
                continue;
            }
            if !written[q.index()] {
                findings.push(Finding::UseAfterRelease {
                    gate_index: i,
                    gate: gate.to_string(),
                    qubit: q.0,
                    register: register_of(q),
                });
            }
        }
        for q in write_targets(gate) {
            if q.index() >= n || is_output[q.index()] {
                continue;
            }
            written[q.index()] = true;
            push_write(&mut stacks[q.index()], gate);
        }
    }
    for (qubit, stack) in stacks.iter().enumerate() {
        if !stack.is_empty() {
            findings.push(Finding::AncillaLeak {
                qubit: qubit as u32,
                register: register_of(Qubit(qubit as u32)),
                pending: stack.len(),
            });
        }
    }
    findings
}

/// Per-gate decomposition weights — the certifier's own constants table,
/// deliberately duplicated from `qram-circuit` (paper Sec. 2.2.1 /
/// Amy–Maslov–Mosca CCX, V-chain MCX) so a drift in either copy shows up
/// as a [`Finding::ResourceMismatch`].
struct Weights {
    t_count: usize,
    t_depth: usize,
    clifford_depth: usize,
    full_depth: usize,
    ancillas: usize,
}

fn weights_of(gate: &Gate) -> Weights {
    let clifford = |depth: usize| Weights {
        t_count: 0,
        t_depth: 0,
        clifford_depth: depth,
        full_depth: depth,
        ancillas: 0,
    };
    let toffoli_chain = |toffolis: usize, ancillas: usize| Weights {
        t_count: 7 * toffolis,
        t_depth: 3 * toffolis,
        clifford_depth: 7 * toffolis,
        full_depth: 10 * toffolis,
        ancillas,
    };
    match gate {
        Gate::Barrier => clifford(0),
        Gate::X(_) | Gate::Y(_) | Gate::Z(_) | Gate::H(_) | Gate::ClX(_) => clifford(1),
        Gate::Cx { .. } | Gate::ClCx { .. } => clifford(1),
        Gate::Swap(..) | Gate::ClSwap(..) => clifford(3),
        Gate::Ccx { .. } => toffoli_chain(1, 0),
        // Fredkin: CX · CCX · CX.
        Gate::Cswap { .. } => Weights {
            t_count: 7,
            t_depth: 3,
            clifford_depth: 9,
            full_depth: 12,
            ancillas: 0,
        },
        Gate::Mcx { controls, .. } => match controls.len() {
            0 | 1 => clifford(1),
            2 => toffoli_chain(1, 0),
            c => toffoli_chain(2 * c - 3, c - 2),
        },
    }
}

/// Weighted ASAP critical path with barrier floors — the certifier's own
/// walk, one pass per metric (unlike the production counter's shared
/// pass).
fn weighted_depth(circuit: &Circuit, weight: impl Fn(&Gate) -> usize) -> usize {
    let mut ready = vec![0usize; circuit.num_qubits()];
    let mut floor = 0usize;
    for gate in circuit.gates() {
        if gate.is_barrier() {
            floor = ready.iter().copied().fold(floor, usize::max);
            continue;
        }
        let qs = gate.qubits();
        let start = qs.iter().map(|q| ready[q.index()]).fold(floor, usize::max);
        let end = start + weight(gate);
        for q in &qs {
            ready[q.index()] = end;
        }
    }
    ready.into_iter().fold(floor, usize::max)
}

/// Independently re-derives the full [`ResourceCount`] of `circuit`.
///
/// Same semantics as the production counter, different implementation
/// and constants copy — the point of [`certify_resources`] is that two
/// codepaths must agree on every artifact.
pub fn recount(circuit: &Circuit) -> ResourceCount {
    let mut num_gates = 0usize;
    let mut t_count = 0usize;
    let mut classically_controlled = 0usize;
    let mut mcx_ancillas = 0usize;
    let mut census: BTreeMap<&'static str, usize> = BTreeMap::new();
    for gate in circuit.gates() {
        if gate.is_barrier() {
            continue;
        }
        let w = weights_of(gate);
        num_gates += 1;
        t_count += w.t_count;
        if gate.is_classically_controlled() {
            classically_controlled += 1;
        }
        mcx_ancillas = mcx_ancillas.max(w.ancillas);
        *census.entry(gate.name()).or_insert(0) += 1;
    }
    ResourceCount {
        num_qubits: circuit.num_qubits(),
        num_gates,
        depth: weighted_depth(circuit, |_| 1),
        t_count,
        t_depth: weighted_depth(circuit, |g| weights_of(g).t_depth),
        clifford_depth: weighted_depth(circuit, |g| weights_of(g).clifford_depth),
        lowered_depth: weighted_depth(circuit, |g| weights_of(g).full_depth),
        classically_controlled,
        mcx_ancillas,
        census,
    }
}

/// Diffs a claimed [`ResourceCount`] against the independent
/// [`recount`] of `circuit`, one [`Finding::ResourceMismatch`] per
/// disagreeing field (census entries included).
pub fn certify_resources(circuit: &Circuit, claimed: &ResourceCount) -> Vec<Finding> {
    let measured = recount(circuit);
    let mut findings = Vec::new();
    let mut diff = |field: &str, claimed: usize, recounted: usize| {
        if claimed != recounted {
            findings.push(Finding::ResourceMismatch {
                field: field.to_string(),
                claimed,
                recounted,
            });
        }
    };
    diff("num_qubits", claimed.num_qubits, measured.num_qubits);
    diff("num_gates", claimed.num_gates, measured.num_gates);
    diff("depth", claimed.depth, measured.depth);
    diff("t_count", claimed.t_count, measured.t_count);
    diff("t_depth", claimed.t_depth, measured.t_depth);
    diff(
        "clifford_depth",
        claimed.clifford_depth,
        measured.clifford_depth,
    );
    diff(
        "lowered_depth",
        claimed.lowered_depth,
        measured.lowered_depth,
    );
    diff(
        "classically_controlled",
        claimed.classically_controlled,
        measured.classically_controlled,
    );
    diff("mcx_ancillas", claimed.mcx_ancillas, measured.mcx_ancillas);
    let names: std::collections::BTreeSet<&&str> = claimed
        .census
        .keys()
        .chain(measured.census.keys())
        .collect();
    for name in names {
        diff(
            &format!("census[{name}]"),
            claimed.census.get(*name).copied().unwrap_or(0),
            measured.census.get(*name).copied().unwrap_or(0),
        );
    }
    findings
}

/// Verifies one compiled query against its claimed resources.
///
/// `Structural` runs [`check_gates`] and [`check_gate_set`];
/// `Deep` adds [`check_ancillas`] and [`certify_resources`].
///
/// # Errors
///
/// Returns every finding of the selected passes.
///
/// ```
/// use qram_core::{ArchSpec, Memory};
/// use qram_verify::{verify_query, VerifyLevel};
///
/// let memory = Memory::from_bits((0..8).map(|i| i % 3 == 0));
/// let spec = ArchSpec::BucketBrigade { k: 1, m: 2 };
/// let query = spec.instantiate().build(&memory);
/// let resources = query.resources();
/// verify_query(spec.family(), &query, &resources, VerifyLevel::Deep)?;
/// # Ok::<(), qram_verify::VerifyError>(())
/// ```
pub fn verify_query(
    family: &str,
    query: &QueryCircuit,
    claimed: &ResourceCount,
    level: VerifyLevel,
) -> Result<(), VerifyError> {
    let circuit = query.circuit();
    let mut findings = check_gates(circuit.num_qubits(), circuit.gates());
    findings.extend(check_gate_set(family, circuit.gates()));
    if level == VerifyLevel::Deep {
        findings.extend(check_ancillas(query));
        findings.extend(certify_resources(circuit, claimed));
    }
    if findings.is_empty() {
        Ok(())
    } else {
        Err(VerifyError { findings })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qram_circuit::{Circuit, Gate, Qubit};

    #[test]
    fn clean_gates_produce_no_findings() {
        let gates = [
            Gate::cx(Qubit(0), Qubit(1)),
            Gate::cswap(Qubit(0), Qubit(1), Qubit(2)),
            Gate::Barrier,
        ];
        assert!(check_gates(3, &gates).is_empty());
    }

    #[test]
    fn recount_matches_production_counter_on_a_mixed_circuit() {
        let mut c = Circuit::new(6);
        c.push(Gate::cswap(Qubit(0), Qubit(1), Qubit(2)));
        c.push(Gate::mcx(
            [Qubit(0), Qubit(1), Qubit(2), Qubit(3)],
            Qubit(4),
        ));
        c.barrier();
        c.push(Gate::ClX(Qubit(5)));
        c.push(Gate::swap(Qubit(4), Qubit(5)));
        assert_eq!(recount(&c), ResourceCount::of(&c));
        assert!(certify_resources(&c, &ResourceCount::of(&c)).is_empty());
    }

    #[test]
    fn certifier_diffs_every_tampered_field() {
        let mut c = Circuit::new(3);
        c.push(Gate::ccx(Qubit(0), Qubit(1), Qubit(2)));
        let mut claimed = ResourceCount::of(&c);
        claimed.t_count += 1;
        claimed.census.insert("swap", 9);
        let findings = certify_resources(&c, &claimed);
        assert_eq!(findings.len(), 2, "{findings:?}");
    }
}
