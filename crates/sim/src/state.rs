//! Sparse superpositions over computational basis states, stored as a
//! flat data-oriented slab.

use std::collections::{BTreeMap, HashMap};

use qram_circuit::Qubit;

use crate::{Amplitude, BitString};

/// Amplitudes below this squared-modulus threshold are pruned.
const PRUNE_EPS: f64 = 1e-14;

/// Reads bit `i` from a packed word slice.
#[inline]
fn word_get(words: &[u64], i: usize) -> bool {
    (words[i / 64] >> (i % 64)) & 1 == 1
}

/// Writes bit `i` of a packed word slice.
#[inline]
fn word_set(words: &mut [u64], i: usize, v: bool) {
    let mask = 1u64 << (i % 64);
    if v {
        words[i / 64] |= mask;
    } else {
        words[i / 64] &= !mask;
    }
}

/// Flips bit `i` of a packed word slice.
#[inline]
fn word_flip(words: &mut [u64], i: usize) {
    words[i / 64] ^= 1u64 << (i % 64);
}

/// Packs the bits of `words` selected by `idx` (in order) into a fresh
/// word vector: the kept-substring key of the reduced fidelity.
fn extract_bits(words: &[u64], idx: &[usize]) -> Vec<u64> {
    let mut out = vec![0u64; idx.len().div_ceil(64)];
    for (k, &i) in idx.iter().enumerate() {
        if word_get(words, i) {
            out[k / 64] |= 1u64 << (k % 64);
        }
    }
    out
}

/// A mutable view of one path's packed bits inside a [`PathState`] slab.
///
/// This is the argument type of [`PathState::permute_paths`] closures: it
/// exposes the same bit-level operations as [`BitString`] (`get`, `set`,
/// `flip`, `swap_bits`, MSB-first register reads/writes) but borrows the
/// path's words in place, so a permutation touches no heap.
#[derive(Debug)]
pub struct PathBits<'a> {
    words: &'a mut [u64],
    len: usize,
}

impl PathBits<'_> {
    /// Number of qubits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the path has zero qubits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        word_get(self.words, i)
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        word_set(self.words, i, v);
    }

    /// Flips bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn flip(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        word_flip(self.words, i);
    }

    /// Swaps bits `i` and `j`.
    #[inline]
    pub fn swap_bits(&mut self, i: usize, j: usize) {
        let (bi, bj) = (self.get(i), self.get(j));
        if bi != bj {
            self.flip(i);
            self.flip(j);
        }
    }

    /// Interprets `qubits` as an unsigned integer with `qubits[0]` as the
    /// **most significant** bit (the address-register convention).
    ///
    /// # Panics
    ///
    /// Panics if more than 64 qubits are requested or any index is out of
    /// range.
    pub fn read_msb_first(&self, qubits: &[usize]) -> u64 {
        assert!(
            qubits.len() <= 64,
            "cannot read more than 64 bits into a u64"
        );
        let mut v = 0u64;
        for &q in qubits {
            v = (v << 1) | self.get(q) as u64;
        }
        v
    }

    /// Writes the unsigned integer `value` into `qubits` with `qubits[0]`
    /// as the most significant bit.
    pub fn write_msb_first(&mut self, qubits: &[usize], value: u64) {
        let n = qubits.len();
        assert!(n <= 64);
        for (i, &q) in qubits.iter().enumerate() {
            self.set(q, (value >> (n - 1 - i)) & 1 == 1);
        }
    }
}

/// A mutable view over a contiguous range of paths in a [`PathState`]
/// slab — the unit of work of the path-parallel executor. Views of
/// disjoint path ranges borrow disjoint slices, so chunked execution
/// needs no locking and no `unsafe`.
#[derive(Debug)]
pub(crate) struct PathsMut<'a> {
    words: &'a mut [u64],
    amps: &'a mut [Amplitude],
    stride: usize,
}

impl PathsMut<'_> {
    /// Number of paths in the view.
    pub(crate) fn num_paths(&self) -> usize {
        self.amps.len()
    }

    /// The hot iteration idiom: each path's words and amplitude, in slab
    /// order. `chunks_exact_mut` walks the word slab one path at a time
    /// without per-path index arithmetic or bounds checks. A zero-qubit
    /// state has `stride == 0` and no words at all; then there is no bit
    /// any operation could legally touch, and the traversal is empty.
    #[inline]
    pub(crate) fn paths(&mut self) -> impl Iterator<Item = (&mut [u64], &mut Amplitude)> + '_ {
        self.words
            .chunks_exact_mut(self.stride.max(1))
            .zip(self.amps.iter_mut())
    }
}

/// A sparse quantum state: a set of basis states ("Feynman paths") with
/// complex amplitudes, stored structure-of-arrays.
///
/// Path `i` lives at `words[i·stride .. (i+1)·stride]` (its packed basis
/// state) and `amps[i]` (its amplitude) — two contiguous slabs instead of
/// per-path heap objects, so gate application streams linearly through
/// memory and the slab can be split into disjoint per-chunk views for the
/// path-parallel executor (`run_with_faults`).
///
/// Classical reversible gates permute basis states in place; Pauli `Z`
/// errors flip amplitude signs; `X` errors flip bits. No operation in the
/// QRAM gate family increases the number of paths, which is the storage
/// property the paper's simulator exploits (Sec. 6.2): memory is
/// `O(paths · qubits)`, independent of circuit depth.
///
/// ```
/// use qram_sim::PathState;
/// use qram_circuit::Qubit;
///
/// // Uniform superposition over a 2-bit address register (qubits 0-1),
/// // with 2 more work qubits.
/// let state = PathState::uniform_over(4, &[Qubit(0), Qubit(1)]);
/// assert_eq!(state.num_paths(), 4);
/// assert!((state.norm_sqr() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug)]
pub struct PathState {
    /// Packed basis states, `stride` words per path. Uniqueness of paths
    /// is an invariant: constructors deduplicate, and every mutation in
    /// the classical-reversible + Pauli family is injective on basis
    /// states.
    words: Vec<u64>,
    /// One amplitude per path; `amps.len()` is the path count.
    amps: Vec<Amplitude>,
    /// Words per path: `num_qubits.div_ceil(64)`.
    stride: usize,
    num_qubits: usize,
}

fn stride_for(num_qubits: usize) -> usize {
    num_qubits.div_ceil(64)
}

impl PathState {
    /// The all-zeros computational basis state |0…0⟩ on `num_qubits` qubits.
    pub fn computational_basis(num_qubits: usize) -> Self {
        let stride = stride_for(num_qubits);
        PathState {
            words: vec![0; stride],
            amps: vec![Amplitude::ONE],
            stride,
            num_qubits,
        }
    }

    /// A single basis state given by `bits`.
    pub fn basis_state(bits: BitString) -> Self {
        let num_qubits = bits.len();
        let stride = stride_for(num_qubits);
        PathState {
            words: bits.words()[..stride].to_vec(),
            amps: vec![Amplitude::ONE],
            stride,
            num_qubits,
        }
    }

    /// An empty (zero-vector) state; useful as an accumulator.
    pub fn zero_vector(num_qubits: usize) -> Self {
        PathState {
            words: Vec::new(),
            amps: Vec::new(),
            stride: stride_for(num_qubits),
            num_qubits,
        }
    }

    /// Builds a state from explicit `(basis state, amplitude)` pairs.
    /// Duplicate basis states accumulate; negligible amplitudes are
    /// dropped. The amplitudes are used as given (not normalized). Paths
    /// are stored in sorted basis-state order, so the construction is
    /// fully deterministic.
    ///
    /// # Panics
    ///
    /// Panics if any basis state's length differs from `num_qubits`.
    pub fn from_parts(
        num_qubits: usize,
        entries: impl IntoIterator<Item = (BitString, Amplitude)>,
    ) -> Self {
        let stride = stride_for(num_qubits);
        // An ordered map keyed by the packed words: accumulation and the
        // resulting path order are independent of input order up to
        // floating-point addition order of true duplicates.
        let mut map: BTreeMap<Vec<u64>, Amplitude> = BTreeMap::new();
        for (bits, amp) in entries {
            assert_eq!(bits.len(), num_qubits, "basis state width mismatch");
            *map.entry(bits.words()[..stride].to_vec())
                .or_insert(Amplitude::ZERO) += amp;
        }
        let mut state = PathState::zero_vector(num_qubits);
        for (key, amp) in map {
            if amp.is_negligible(PRUNE_EPS) {
                continue;
            }
            state.words.extend_from_slice(&key);
            state.amps.push(amp);
        }
        state
    }

    /// A uniform superposition over all values of `register` (MSB-first),
    /// with all other qubits in |0⟩. This is the canonical QRAM query input
    /// `Σᵢ |i⟩/√N`.
    ///
    /// # Panics
    ///
    /// Panics if the register is longer than 32 qubits (2³² paths would not
    /// fit in memory) or any qubit is out of range.
    pub fn uniform_over(num_qubits: usize, register: &[Qubit]) -> Self {
        assert!(
            register.len() <= 32,
            "refusing to enumerate 2^{} paths",
            register.len()
        );
        let indices: Vec<usize> = register.iter().map(|q| q.index()).collect();
        for &i in &indices {
            assert!(i < num_qubits, "qubit {i} out of range");
        }
        let n = 1u64 << register.len();
        let amp = Amplitude::real(1.0 / (n as f64).sqrt());
        let stride = stride_for(num_qubits);
        let mut state = PathState {
            words: vec![0u64; stride * n as usize],
            amps: vec![amp; n as usize],
            stride,
            num_qubits,
        };
        for v in 0..n {
            let p = v as usize;
            let mut bits = PathBits {
                words: &mut state.words[p * stride..(p + 1) * stride],
                len: num_qubits,
            };
            bits.write_msb_first(&indices, v);
        }
        state
    }

    /// A weighted superposition over values of `register` (MSB-first):
    /// `Σᵥ amplitudes[v] |v⟩`, other qubits |0⟩. Amplitudes are used as
    /// given (not normalized); entries with negligible amplitude are
    /// dropped.
    ///
    /// # Panics
    ///
    /// Panics if `amplitudes.len() > 2^register.len()`.
    pub fn superposition_over(
        num_qubits: usize,
        register: &[Qubit],
        amplitudes: &[Amplitude],
    ) -> Self {
        assert!(
            (amplitudes.len() as u128) <= 1u128 << register.len(),
            "{} amplitudes do not fit in a {}-qubit register",
            amplitudes.len(),
            register.len()
        );
        let indices: Vec<usize> = register.iter().map(|q| q.index()).collect();
        let stride = stride_for(num_qubits);
        let mut state = PathState::zero_vector(num_qubits);
        for (v, &amp) in amplitudes.iter().enumerate() {
            if amp.is_negligible(PRUNE_EPS) {
                continue;
            }
            let start = state.words.len();
            state.words.resize(start + stride, 0);
            let mut bits = PathBits {
                words: &mut state.words[start..],
                len: num_qubits,
            };
            bits.write_msb_first(&indices, v as u64);
            state.amps.push(amp);
        }
        state
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of live paths (basis states with non-negligible amplitude).
    pub fn num_paths(&self) -> usize {
        self.amps.len()
    }

    /// The packed words of path `p`.
    #[inline]
    fn path_words(&self, p: usize) -> &[u64] {
        &self.words[p * self.stride..(p + 1) * self.stride]
    }

    /// A mutable view over the whole slab.
    pub(crate) fn as_paths_mut(&mut self) -> PathsMut<'_> {
        PathsMut {
            words: &mut self.words,
            amps: &mut self.amps,
            stride: self.stride,
        }
    }

    /// Splits the slab into `chunks` disjoint contiguous views of
    /// near-equal path count (the last view may be smaller; empty
    /// trailing views are dropped). Used by the path-parallel executor.
    pub(crate) fn chunk_views(&mut self, chunks: usize) -> Vec<PathsMut<'_>> {
        let paths = self.amps.len();
        let chunks = chunks.clamp(1, paths.max(1));
        let per = paths.div_ceil(chunks).max(1);
        let mut views = Vec::with_capacity(chunks);
        let stride = self.stride;
        let mut words_rest: &mut [u64] = &mut self.words;
        let mut amps_rest: &mut [Amplitude] = &mut self.amps;
        while !amps_rest.is_empty() {
            let take = per.min(amps_rest.len());
            let (w, wr) = words_rest.split_at_mut(take * stride);
            let (a, ar) = amps_rest.split_at_mut(take);
            words_rest = wr;
            amps_rest = ar;
            views.push(PathsMut {
                words: w,
                amps: a,
                stride,
            });
        }
        views
    }

    /// Iterator over `(basis state, amplitude)` pairs in slab order.
    /// Basis states are materialized per item — intended for inspection
    /// and tests, not hot loops.
    pub fn iter(&self) -> impl Iterator<Item = (BitString, Amplitude)> + '_ {
        (0..self.num_paths()).map(|p| {
            (
                BitString::from_words(self.path_words(p), self.num_qubits),
                self.amps[p],
            )
        })
    }

    /// The amplitude of `bits` (zero if absent). O(paths) — intended for
    /// tests and small inspections; bulk overlaps use
    /// [`PathState::inner_product`].
    pub fn amplitude(&self, bits: &BitString) -> Amplitude {
        if bits.len() != self.num_qubits {
            return Amplitude::ZERO;
        }
        let key = &bits.words()[..self.stride];
        (0..self.num_paths())
            .find(|&p| self.path_words(p) == key)
            .map(|p| self.amps[p])
            .unwrap_or(Amplitude::ZERO)
    }

    /// Squared norm `Σ|α|²` (1.0 for any state produced by unitary
    /// evolution of a normalized input).
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Inner product `⟨self|other⟩`. States over different qubit counts
    /// are orthogonal by convention (zero overlap).
    pub fn inner_product(&self, other: &PathState) -> Amplitude {
        if self.num_qubits != other.num_qubits {
            return Amplitude::ZERO;
        }
        // Accumulate in the smaller state's slab order.
        if self.num_paths() <= other.num_paths() {
            PathIndex::new(self).overlap(other, true)
        } else {
            PathIndex::new(other).overlap(self, false)
        }
    }

    /// Query fidelity `|⟨self|other⟩|²` (paper Sec. 5 definition).
    pub fn fidelity(&self, other: &PathState) -> f64 {
        self.inner_product(other).norm_sqr()
    }

    /// Query fidelity of `other` against `self` after tracing out every
    /// qubit not in `keep`: `F = ⟨self_keep| Tr_rest(|other⟩⟨other|) |self_keep⟩`.
    ///
    /// QRAM query fidelity is a property of the address and bus registers;
    /// the router tree is an ancilla. A noisy shot can leave the tree in a
    /// corrupted-but-*unentangled* configuration that costs no query
    /// fidelity (the mechanism behind bucket-brigade's resilience), which
    /// full-state overlap misses. `self` plays the role of the ideal
    /// output, whose non-kept qubits must be a basis state on every path
    /// (true for any uncomputed query circuit); group-by-ancilla overlap
    /// then computes the reduced fidelity exactly:
    /// `F = Σ_z |⟨self_keep| ⊗ ⟨z| other⟩|²`.
    ///
    /// # Panics
    ///
    /// Panics if the two states have different qubit counts, a kept qubit
    /// index is out of range, or `self`'s non-kept qubits are not in a
    /// constant basis state across its paths (i.e. `self` has dirty or
    /// entangled ancillas — the reduction is only defined against a
    /// clean reference).
    pub fn reduced_fidelity(&self, other: &PathState, keep: &[Qubit]) -> f64 {
        assert_eq!(self.num_qubits, other.num_qubits, "qubit counts differ");
        self.reduced_reference(keep).fidelity(other)
    }

    /// The reference side of [`PathState::reduced_fidelity`] against
    /// `self`, prepared once for any number of evaluations. Panics as
    /// `reduced_fidelity` does on a bad `keep` or an unclean `self`.
    pub(crate) fn reduced_reference(&self, keep: &[Qubit]) -> ReducedReference {
        let keep_idx: Vec<usize> = keep.iter().map(|q| q.index()).collect();
        for &i in &keep_idx {
            assert!(i < self.num_qubits, "kept qubit {i} out of range");
        }
        let rest = Traced::new(self.num_qubits, &keep_idx);

        // Ideal amplitudes keyed by the kept-qubit substring; the rest
        // substring must be constant or the reduction is ill-defined.
        // The map is lookup-only after construction.
        let mut ideal: HashMap<Vec<u64>, Amplitude> = HashMap::with_capacity(self.num_paths());
        let mut ideal_rest: Option<Vec<u64>> = None;
        for p in 0..self.num_paths() {
            let words = self.path_words(p);
            let rest = rest.extract(words);
            match &ideal_rest {
                None => ideal_rest = Some(rest),
                Some(expected) => assert_eq!(
                    expected, &rest,
                    "reference state has entangled non-kept qubits"
                ),
            }
            *ideal
                .entry(extract_bits(words, &keep_idx))
                .or_insert(Amplitude::ZERO) += self.amps[p];
        }
        ReducedReference {
            keep_idx,
            rest,
            ideal,
        }
    }

    /// Probability that measuring `qubit` yields 1.
    pub fn probability_of_one(&self, qubit: Qubit) -> f64 {
        let i = qubit.index();
        (0..self.num_paths())
            .filter(|&p| word_get(self.path_words(p), i))
            .map(|p| self.amps[p].norm_sqr())
            .sum()
    }

    /// Applies `X` on `qubit`: flips the bit in every path.
    pub fn apply_x(&mut self, qubit: Qubit) {
        let i = qubit.index();
        for (words, _) in self.as_paths_mut().paths() {
            word_flip(words, i);
        }
    }

    /// Applies `Z` on `qubit`: negates the amplitude of every path with the
    /// bit set.
    pub fn apply_z(&mut self, qubit: Qubit) {
        let i = qubit.index();
        for (words, amp) in self.as_paths_mut().paths() {
            if word_get(words, i) {
                *amp = -*amp;
            }
        }
    }

    /// Applies `Y = iXZ` on `qubit`: flips the bit and multiplies by
    /// `+i` (|0⟩→|1⟩) or `−i` (|1⟩→|0⟩).
    pub fn apply_y(&mut self, qubit: Qubit) {
        let i = qubit.index();
        for (words, amp) in self.as_paths_mut().paths() {
            let was_one = word_get(words, i);
            word_flip(words, i);
            *amp = if was_one {
                amp.mul_neg_i()
            } else {
                amp.mul_i()
            };
        }
    }

    /// Applies a bit-level permutation `f` to every path **in place**:
    /// no hashing, no allocation.
    ///
    /// `f` must be injective on the live paths (true for every reversible
    /// gate; checked in debug builds). For non-injective maps use
    /// [`PathState::from_parts`] to rebuild with accumulation.
    pub fn permute_paths(&mut self, mut f: impl FnMut(&mut PathBits<'_>)) {
        let len = self.num_qubits;
        for (words, _) in self.as_paths_mut().paths() {
            f(&mut PathBits { words, len });
        }
        #[cfg(debug_assertions)]
        {
            let mut seen = std::collections::HashSet::with_capacity(self.num_paths());
            for p in 0..self.num_paths() {
                debug_assert!(
                    seen.insert(self.path_words(p)),
                    "permute_paths closure merged paths"
                );
            }
        }
    }

    /// Scales every amplitude by `1/norm` so the state is normalized.
    /// No-op on the zero vector.
    pub fn normalize(&mut self) {
        let n = self.norm_sqr().sqrt();
        if n > 0.0 {
            let s = 1.0 / n;
            for amp in &mut self.amps {
                *amp = amp.scale(s);
            }
        }
    }

    /// Whether every path holds |0⟩ on all of `qubits` (e.g. ancillas
    /// cleanly returned after uncomputation). Unlike
    /// [`PathState::classical_value`] this has no 64-qubit limit.
    ///
    /// # Panics
    ///
    /// Panics if any qubit index is out of range.
    pub fn is_zero_on(&self, qubits: &[Qubit]) -> bool {
        (0..self.num_paths()).all(|p| {
            let words = self.path_words(p);
            qubits.iter().all(|q| !word_get(words, q.index()))
        })
    }

    /// Reads the value of `register` (MSB-first) on every path; returns
    /// `Some(value)` only if all paths agree (i.e. the register is
    /// classical/unentangled in the computational basis).
    pub fn classical_value(&self, register: &[Qubit]) -> Option<u64> {
        let indices: Vec<usize> = register.iter().map(|q| q.index()).collect();
        let mut value = None;
        for p in 0..self.num_paths() {
            let words = self.path_words(p);
            let mut v = 0u64;
            for &i in &indices {
                v = (v << 1) | word_get(words, i) as u64;
            }
            match value {
                None => value = Some(v),
                Some(prev) if prev != v => return None,
                _ => {}
            }
        }
        value
    }
}

/// A state's paths indexed by their packed bits: the prepared side of
/// an overlap, reusable against any number of other states.
#[derive(Debug)]
pub(crate) struct PathIndex<'a> {
    state: &'a PathState,
    slot: HashMap<&'a [u64], usize>,
}

impl<'a> PathIndex<'a> {
    pub(crate) fn new(state: &'a PathState) -> Self {
        let slot = (0..state.num_paths())
            .map(|p| (state.path_words(p), p))
            .collect();
        PathIndex { state, slot }
    }

    /// `⟨indexed|other⟩` when `indexed_is_bra`, else `⟨other|indexed⟩`,
    /// accumulated term by term in the indexed state's slab order (a
    /// path `other` lacks contributes a zero amplitude). Only lookups
    /// touch the hash map — no hash iteration.
    pub(crate) fn overlap(&self, other: &PathState, indexed_is_bra: bool) -> Amplitude {
        let mut matched = vec![Amplitude::ZERO; self.state.num_paths()];
        for q in 0..other.num_paths() {
            if let Some(&p) = self.slot.get(other.path_words(q)) {
                matched[p] = other.amps[q];
            }
        }
        let mut acc = Amplitude::ZERO;
        for (&mine, &theirs) in self.state.amps.iter().zip(&matched) {
            if indexed_is_bra {
                acc += mine.conj() * theirs;
            } else {
                acc += theirs.conj() * mine;
            }
        }
        acc
    }
}

/// The traced-out qubits of a reduced fidelity: every qubit not kept, in
/// ascending order. [`Traced::extract`] packs them as `extract_bits`
/// would, but visits only the set bits under a per-word mask, and on
/// clean ancillas those are few.
#[derive(Debug)]
struct Traced {
    /// Per word of a path, the bits of traced-out qubits.
    mask: Vec<u64>,
    /// For each traced-out qubit, its position in the packed substring.
    rank: Vec<usize>,
    len: usize,
}

impl Traced {
    fn new(num_qubits: usize, keep_idx: &[usize]) -> Self {
        let mut mask = vec![0u64; stride_for(num_qubits)];
        for i in 0..num_qubits {
            word_set(&mut mask, i, true);
        }
        for &i in keep_idx {
            word_set(&mut mask, i, false);
        }
        let mut rank = vec![0; num_qubits];
        let mut len = 0;
        for (i, r) in rank.iter_mut().enumerate() {
            if word_get(&mask, i) {
                *r = len;
                len += 1;
            }
        }
        Traced { mask, rank, len }
    }

    fn extract(&self, words: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; self.len.div_ceil(64)];
        for (w, (&word, &mask)) in words.iter().zip(&self.mask).enumerate() {
            let mut bits = word & mask;
            while bits != 0 {
                let k = self.rank[w * 64 + bits.trailing_zeros() as usize];
                out[k / 64] |= 1u64 << (k % 64);
                bits &= bits - 1;
            }
        }
        out
    }
}

/// The ideal side of [`PathState::reduced_fidelity`]: the kept/traced
/// qubit split and the ideal amplitudes keyed by kept substring.
#[derive(Debug)]
pub(crate) struct ReducedReference {
    keep_idx: Vec<usize>,
    rest: Traced,
    ideal: HashMap<Vec<u64>, Amplitude>,
}

impl ReducedReference {
    /// The reduced fidelity of `other` against the prepared reference.
    pub(crate) fn fidelity(&self, other: &PathState) -> f64 {
        // Group the noisy paths by their traced-out substring and overlap
        // each group with the ideal kept-state. An ordered map keeps the
        // accumulation and final sum in deterministic (sorted) order.
        let mut groups: BTreeMap<Vec<u64>, Amplitude> = BTreeMap::new();
        for p in 0..other.num_paths() {
            let words = other.path_words(p);
            let kept = extract_bits(words, &self.keep_idx);
            if let Some(ideal_amp) = self.ideal.get(&kept) {
                let z = self.rest.extract(words);
                *groups.entry(z).or_insert(Amplitude::ZERO) += ideal_amp.conj() * other.amps[p];
            }
        }
        groups.values().map(|a| a.norm_sqr()).sum()
    }
}

impl Clone for PathState {
    fn clone(&self) -> Self {
        PathState {
            words: self.words.clone(),
            amps: self.amps.clone(),
            stride: self.stride,
            num_qubits: self.num_qubits,
        }
    }

    /// Allocation-reusing overwrite: the word and amplitude slabs are
    /// rewritten in place when their capacity suffices. This is the
    /// per-shot reset of the Monte-Carlo shot engine, which would
    /// otherwise clone the input state afresh for every shot.
    fn clone_from(&mut self, source: &Self) {
        self.num_qubits = source.num_qubits;
        self.stride = source.stride;
        self.words.clear();
        self.words.extend_from_slice(&source.words);
        self.amps.clear();
        self.amps.extend_from_slice(&source.amps);
    }
}

impl PartialEq for PathState {
    /// Exact structural equality (same path set, bit-identical
    /// amplitudes, order-insensitive). For tolerance-based comparison use
    /// [`PathState::fidelity`].
    fn eq(&self, other: &Self) -> bool {
        if self.num_qubits != other.num_qubits || self.num_paths() != other.num_paths() {
            return false;
        }
        let index: HashMap<&[u64], Amplitude> = (0..other.num_paths())
            .map(|p| (other.path_words(p), other.amps[p]))
            .collect();
        (0..self.num_paths()).all(|p| index.get(self.path_words(p)) == Some(&self.amps[p]))
    }
}

impl std::fmt::Display for PathState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut entries: Vec<(BitString, Amplitude)> = self.iter().collect();
        entries.sort_by_key(|(b, _)| b.to_string());
        write!(f, "{} paths over {} qubits", entries.len(), self.num_qubits)?;
        for (bits, amp) in entries.iter().take(8) {
            write!(f, "\n  {amp} {bits}")?;
        }
        if entries.len() > 8 {
            write!(f, "\n  … {} more", entries.len() - 8)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_superposition_is_normalized() {
        let s = PathState::uniform_over(5, &[Qubit(0), Qubit(1), Qubit(2)]);
        assert_eq!(s.num_paths(), 8);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn x_then_x_is_identity() {
        let mut s = PathState::uniform_over(3, &[Qubit(0), Qubit(1)]);
        let orig = s.clone();
        s.apply_x(Qubit(2));
        s.apply_x(Qubit(2));
        assert!((s.fidelity(&orig) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn z_flips_sign_on_set_paths() {
        let mut s = PathState::uniform_over(1, &[Qubit(0)]);
        s.apply_z(Qubit(0));
        let plus = PathState::uniform_over(1, &[Qubit(0)]);
        // ⟨+|−⟩ = 0.
        assert!(s.fidelity(&plus) < 1e-12);
    }

    #[test]
    fn y_is_ixz() {
        // Y|0⟩ = i|1⟩; Y|1⟩ = −i|0⟩.
        let mut s0 = PathState::computational_basis(1);
        s0.apply_y(Qubit(0));
        assert_eq!(s0.amplitude(&BitString::from_u64(1, 1)), Amplitude::I);

        let mut s1 = PathState::basis_state(BitString::from_u64(1, 1));
        s1.apply_y(Qubit(0));
        assert_eq!(
            s1.amplitude(&BitString::from_u64(0, 1)),
            Amplitude::new(0.0, -1.0)
        );
    }

    #[test]
    fn y_twice_is_identity() {
        let mut s = PathState::uniform_over(2, &[Qubit(0)]);
        let orig = s.clone();
        s.apply_y(Qubit(1));
        s.apply_y(Qubit(1));
        assert!((s.fidelity(&orig) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inner_product_is_conjugate_symmetric() {
        let a = PathState::uniform_over(2, &[Qubit(0), Qubit(1)]);
        let mut b = a.clone();
        b.apply_z(Qubit(0));
        b.apply_y(Qubit(1));
        let ab = a.inner_product(&b);
        let ba = b.inner_product(&a);
        assert!((ab.re - ba.re).abs() < 1e-12);
        assert!((ab.im + ba.im).abs() < 1e-12);
    }

    #[test]
    fn classical_value_detects_agreement() {
        let s = PathState::computational_basis(4);
        assert_eq!(s.classical_value(&[Qubit(0), Qubit(1)]), Some(0));
        let sup = PathState::uniform_over(4, &[Qubit(0)]);
        assert_eq!(sup.classical_value(&[Qubit(0)]), None);
        assert_eq!(sup.classical_value(&[Qubit(2), Qubit(3)]), Some(0));
    }

    #[test]
    fn probability_of_one() {
        let mut s = PathState::uniform_over(2, &[Qubit(0)]);
        assert!((s.probability_of_one(Qubit(0)) - 0.5).abs() < 1e-12);
        s.apply_x(Qubit(1));
        assert!((s.probability_of_one(Qubit(1)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_parts_prunes_cancellations() {
        // Two entries with opposite amplitudes on the same string cancel
        // and are pruned at construction.
        let s = PathState::from_parts(
            1,
            [
                (BitString::from_u64(0, 1), Amplitude::real(0.5)),
                (BitString::from_u64(0, 1), Amplitude::real(-0.5)),
            ],
        );
        assert_eq!(s.num_paths(), 0);
    }

    #[test]
    fn from_parts_orders_paths_deterministically() {
        // Identical path sets given in different input orders produce the
        // same slab order (sorted by packed words).
        let entries = |rev: bool| {
            let mut v = vec![
                (BitString::from_u64(2, 3), Amplitude::real(0.5)),
                (BitString::from_u64(5, 3), Amplitude::real(0.5)),
                (BitString::from_u64(1, 3), Amplitude::real(0.5)),
            ];
            if rev {
                v.reverse();
            }
            v
        };
        let a = PathState::from_parts(3, entries(false));
        let b = PathState::from_parts(3, entries(true));
        let pairs_a: Vec<_> = a.iter().collect();
        let pairs_b: Vec<_> = b.iter().collect();
        assert_eq!(pairs_a, pairs_b);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "merged paths")]
    fn permute_paths_rejects_non_injective_maps() {
        let mut s = PathState::uniform_over(1, &[Qubit(0)]);
        s.permute_paths(|bits| bits.set(0, false));
    }

    #[test]
    fn superposition_over_skips_zero_amplitudes() {
        let amps = [
            Amplitude::real(1.0),
            Amplitude::ZERO,
            Amplitude::ZERO,
            Amplitude::ZERO,
        ];
        let s = PathState::superposition_over(2, &[Qubit(0), Qubit(1)], &amps);
        assert_eq!(s.num_paths(), 1);
    }

    #[test]
    fn normalize_restores_unit_norm() {
        let amps = [Amplitude::real(3.0), Amplitude::real(4.0)];
        let mut s = PathState::superposition_over(1, &[Qubit(0)], &amps);
        s.normalize();
        assert!((s.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn traced_extraction_packs_like_extract_bits() {
        // 150 qubits (three words), kept qubits on both sides of each
        // word boundary and out of order.
        let keep = [64usize, 3, 127, 128, 0, 149];
        let rest_idx: Vec<usize> = (0..150).filter(|i| !keep.contains(i)).collect();
        let traced = Traced::new(150, &keep);
        for seed in [0u64, 1, 0x9E37_79B9_7F4A_7C15, u64::MAX] {
            let words = [
                seed,
                seed.rotate_left(17) ^ 0xF0F0,
                seed.wrapping_mul(3) >> 42,
            ];
            assert_eq!(
                traced.extract(&words),
                extract_bits(&words, &rest_idx),
                "seed {seed:#x}"
            );
        }
    }

    #[test]
    fn reduced_fidelity_matches_full_when_ancillas_clean() {
        // Kept = all qubits → reduced fidelity equals full fidelity.
        let ideal = PathState::uniform_over(3, &[Qubit(0), Qubit(1)]);
        let mut noisy = ideal.clone();
        noisy.apply_z(Qubit(0));
        let all = [Qubit(0), Qubit(1), Qubit(2)];
        let full = ideal.fidelity(&noisy);
        let reduced = ideal.reduced_fidelity(&noisy, &all);
        assert!((full - reduced).abs() < 1e-12);
    }

    #[test]
    fn unentangled_ancilla_flip_costs_nothing_reduced() {
        // An X on a traced-out ancilla leaves the kept state intact.
        let ideal = PathState::uniform_over(3, &[Qubit(0), Qubit(1)]);
        let mut noisy = ideal.clone();
        noisy.apply_x(Qubit(2));
        assert!(ideal.fidelity(&noisy) < 1e-12); // full overlap destroyed
        let reduced = ideal.reduced_fidelity(&noisy, &[Qubit(0), Qubit(1)]);
        assert!((reduced - 1.0).abs() < 1e-12); // reduced state untouched
    }

    #[test]
    fn entangled_ancilla_decoheres_reduced_state() {
        // Flip the ancilla on half the branches: the kept register
        // decoheres into an even mixture → fidelity 1/2... specifically
        // |⟨+|0⟩|² + |⟨+|1⟩|² branch overlap = 0.25 + 0.25.
        let ideal = PathState::uniform_over(2, &[Qubit(0)]);
        let mut noisy = ideal.clone();
        // CX-like corruption: ancilla 1 on the |1⟩ branch only.
        noisy.permute_paths(|bits| {
            if bits.get(0) {
                bits.flip(1);
            }
        });
        let reduced = ideal.reduced_fidelity(&noisy, &[Qubit(0)]);
        assert!((reduced - 0.5).abs() < 1e-12);
    }

    #[test]
    fn clone_from_reuses_allocations_and_matches_clone() {
        let src = PathState::uniform_over(70, &[Qubit(0), Qubit(1), Qubit(69)]);
        let mut dst = PathState::zero_vector(70);
        // Warm the buffers once, then reset from a mutated copy.
        dst.clone_from(&src);
        let words_cap = dst.words.capacity();
        let amps_cap = dst.amps.capacity();
        let mut mutated = src.clone();
        mutated.apply_y(Qubit(5));
        dst.clone_from(&mutated);
        assert_eq!(dst, mutated);
        assert_eq!(dst.words.capacity(), words_cap);
        assert_eq!(dst.amps.capacity(), amps_cap);
    }

    #[test]
    fn chunk_views_cover_all_paths_disjointly() {
        let mut s = PathState::uniform_over(4, &[Qubit(0), Qubit(1), Qubit(2)]);
        for chunks in [1usize, 2, 3, 5, 8, 13] {
            let views = s.chunk_views(chunks);
            let total: usize = views.iter().map(|v| v.amps.len()).sum();
            assert_eq!(total, 8, "chunks={chunks}");
            assert!(views.len() <= chunks.max(1));
            assert!(views.iter().all(|v| !v.amps.is_empty()));
        }
    }

    #[test]
    fn chunked_views_apply_gates_like_the_whole_slab() {
        let mut chunked = PathState::uniform_over(5, &[Qubit(0), Qubit(1), Qubit(2)]);
        let mut serial = chunked.clone();
        serial.apply_y(Qubit(1));
        serial.permute_paths(|bits| {
            if bits.get(0) {
                bits.flip(3);
            }
        });
        // The same two gates as a tape, run view by view.
        let gates = [
            qram_circuit::Gate::y(Qubit(1)),
            qram_circuit::Gate::cx(Qubit(0), Qubit(3)),
        ];
        let tape = crate::executor::Tape::lower(&gates, 5).unwrap();
        for view in chunked.chunk_views(3) {
            tape.run_on(view, &[]);
        }
        // Bit-identical, including slab order.
        let a: Vec<_> = chunked.iter().collect();
        let b: Vec<_> = serial.iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_qubit_state_is_well_formed() {
        let s = PathState::computational_basis(0);
        assert_eq!(s.num_paths(), 1);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-12);
        assert_eq!(s.classical_value(&[]), Some(0));
    }

    #[test]
    fn display_truncates() {
        let s = PathState::uniform_over(4, &[Qubit(0), Qubit(1), Qubit(2), Qubit(3)]);
        let text = s.to_string();
        assert!(text.contains("16 paths"));
        assert!(text.contains("more"));
    }
}
