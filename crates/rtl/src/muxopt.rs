//! Multiplexer input packing (paper §5.6).
//!
//! "MFSA uses a constructive algorithm which reads the set of operations
//! assigned to a specific ALU and their corresponding inputs and
//! constructs two lists of input signals L1 and L2 such that |L1| + |L2|
//! is minimum. Briefly, the algorithm first assigns the non-commutative
//! operations to the appropriate MUX's of an ALU and then checks two
//! possibilities for arranging input signals for each commutative
//! operation in L1 and L2."
//!
//! One packing core, [`PackScratch`], runs the construction over dense
//! `u32` line ids. The algorithm only ever asks whether two sources are
//! *equal* — never how they order or hash — so any one-to-one
//! relabelling of sources to ids commits the same orientations and the
//! same `(|L1|, |L2|)`. The generic entry points ([`pack`],
//! [`pack_seed`], [`pack_with_seed`], [`pack_cost`]) relabel their
//! sources once per call (sorted distinct sources, id = position); the
//! MFSA pricing loop encodes its sources as ids up front and prices
//! candidates through one reused scratch without allocating.

use std::collections::BTreeSet;

/// One operation's operand sources as seen by the ALU's two input ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MuxOp<S> {
    /// First operand's source.
    pub left: S,
    /// Second operand's source (`None` for unary operations, which only
    /// use port 1).
    pub right: Option<S>,
    /// Whether the operand order may be swapped.
    pub commutative: bool,
}

impl<S> MuxOp<S> {
    /// Whether the orientation is fixed: non-commutative and unary ops
    /// bind their operands to ports 1/2 verbatim (pass 1).
    fn is_fixed(&self) -> bool {
        !self.commutative || self.right.is_none()
    }
}

/// The packing produced by [`pack`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MuxPacking<S> {
    /// Sources multiplexed onto ALU input port 1.
    pub l1: BTreeSet<S>,
    /// Sources multiplexed onto ALU input port 2.
    pub l2: BTreeSet<S>,
    /// Chosen orientation per input op: `true` = swapped.
    pub swapped: Vec<bool>,
}

impl<S: Ord> MuxPacking<S> {
    /// `|L1| + |L2|` — the quantity the packing minimises.
    pub fn total_inputs(&self) -> usize {
        self.l1.len() + self.l2.len()
    }
}

/// Packs the operand sources of an ALU's operations onto its two input
/// ports, following the paper's constructive algorithm: non-commutative
/// operations bind their operands to ports 1/2 verbatim; commutative
/// operations then greedily pick the orientation adding the fewest new
/// sources (preferring the unswapped order on ties, and re-examined in a
/// second pass once all sources are known).
///
/// ```
/// use hls_rtl::muxopt::{pack, MuxOp};
///
/// // sub(a,b) fixes a→L1, b→L2; add(b,a) can swap to reuse both lines.
/// let ops = [
///     MuxOp { left: "a", right: Some("b"), commutative: false },
///     MuxOp { left: "b", right: Some("a"), commutative: true },
/// ];
/// let packing = pack(&ops);
/// assert_eq!(packing.total_inputs(), 2);
/// assert!(packing.swapped[1]);
/// ```
pub fn pack<S: Ord + Clone>(ops: &[MuxOp<S>]) -> MuxPacking<S> {
    let (keys, ids) = relabel(ops);
    let mut scratch = PackScratch::new();
    scratch.pack(&ids, &[]);
    scratch.packing(&keys)
}

/// `(|L1|, |L2|)` of the packing [`pack`] would produce, without
/// materialising the sorted source lists.
pub fn pack_cost<S: Ord + Clone>(ops: &[MuxOp<S>]) -> (usize, usize) {
    PackScratch::new().cost(&relabel(ops).1, None)
}

/// Relabels `ops` onto dense ids: the sorted distinct sources, and each
/// op with every source replaced by its position in that list.
fn relabel<S: Ord + Clone>(ops: &[MuxOp<S>]) -> (Vec<S>, Vec<MuxOp<u32>>) {
    let mut keys: Vec<S> = ops
        .iter()
        .flat_map(|op| std::iter::once(&op.left).chain(&op.right))
        .cloned()
        .collect();
    keys.sort();
    keys.dedup();
    let ids = ops
        .iter()
        .map(|op| key_ids(&keys, op).expect("every source was collected"))
        .collect();
    (keys, ids)
}

/// `op` with its sources replaced by their positions in the sorted
/// `keys`, or `None` when a source is not among them.
fn key_ids<S: Ord>(keys: &[S], op: &MuxOp<S>) -> Option<MuxOp<u32>> {
    let id = |s: &S| keys.binary_search(s).ok().map(|k| k as u32);
    Some(MuxOp {
        left: id(&op.left)?,
        right: match &op.right {
            Some(r) => Some(id(r)?),
            None => None,
        },
        commutative: op.commutative,
    })
}

/// The packing core: per-port contribution counts over dense line ids,
/// plus the chosen orientations. Every op contributes exactly one line
/// to port 1 and (when binary) one to port 2 under its current
/// orientation; `|L1|` and `|L2|` are the ids with a non-zero count.
/// Keeping contribution *counts* instead of plain sets is what lets the
/// refinement pass price a flip in O(1) instead of re-packing all `k`
/// operations.
///
/// The scratch is caller-owned and reusable: a pack resets only the ids
/// the previous pack touched, so pricing a candidate through one
/// long-lived scratch costs O(k) with no hashing and no allocation once
/// the count table has grown to the largest id.
///
/// ```
/// use hls_rtl::muxopt::{pack_cost, MuxOp, PackScratch};
///
/// let before = [MuxOp { left: 0u32, right: Some(1), commutative: false }];
/// let candidate = MuxOp { left: 1, right: Some(0), commutative: true };
/// let mut scratch = PackScratch::new();
/// // The commutative candidate swaps onto the lines `before` carries.
/// assert_eq!(scratch.cost(&before, Some(&candidate)), (1, 1));
/// assert_eq!(scratch.cost(&before, Some(&candidate)), pack_cost(&[before[0], candidate]));
/// ```
#[derive(Debug, Clone, Default)]
pub struct PackScratch {
    /// Contribution count per line id, `[port 1, port 2]`.
    count: Vec<[u32; 2]>,
    /// Ids with a non-zero count per port: `[|L1|, |L2|]`.
    lines: [usize; 2],
    /// Ids whose count left zero since the last reset (duplicates
    /// allowed), so a reset costs O(touched), not O(largest id).
    touched: Vec<u32>,
    /// Chosen orientation per op of the current pack: `true` = swapped.
    swapped: Vec<bool>,
}

impl PackScratch {
    /// An empty scratch; the count table grows to the largest id seen.
    pub fn new() -> PackScratch {
        PackScratch::default()
    }

    /// `(|L1|, |L2|)` of the packing of `before` followed by
    /// `candidate` — the same pair [`pack_cost`] returns for the
    /// concatenated list, without building it.
    pub fn cost(
        &mut self,
        before: &[MuxOp<u32>],
        candidate: Option<&MuxOp<u32>>,
    ) -> (usize, usize) {
        self.pack(before, candidate.map_or(&[], std::slice::from_ref));
        (self.lines[0], self.lines[1])
    }

    /// The three passes over the list `head ++ tail`. Returns whether
    /// the refinement pass was a no-op.
    fn pack(&mut self, head: &[MuxOp<u32>], tail: &[MuxOp<u32>]) -> bool {
        self.reset(head.len() + tail.len());
        self.place_fixed(head, tail);
        self.place_commutative(head, tail);
        !self.refine(head, tail)
    }

    fn reset(&mut self, ops: usize) {
        for &id in &self.touched {
            self.count[id as usize] = [0, 0];
        }
        self.touched.clear();
        self.lines = [0, 0];
        self.swapped.clear();
        self.swapped.resize(ops, false);
    }

    fn has(&self, port: usize, id: u32) -> bool {
        self.count.get(id as usize).is_some_and(|c| c[port] > 0)
    }

    fn add(&mut self, port: usize, id: u32) {
        let i = id as usize;
        if i >= self.count.len() {
            self.count.resize(i + 1, [0, 0]);
        }
        let c = &mut self.count[i][port];
        if *c == 0 {
            self.lines[port] += 1;
            self.touched.push(id);
        }
        *c += 1;
    }

    fn remove(&mut self, port: usize, id: u32) {
        let c = &mut self.count[id as usize][port];
        assert!(*c > 0, "removed a source that was never added");
        *c -= 1;
        if *c == 0 {
            self.lines[port] -= 1;
        }
    }

    /// Pass 1: fixed (non-commutative and unary) operations.
    fn place_fixed(&mut self, head: &[MuxOp<u32>], tail: &[MuxOp<u32>]) {
        for op in head.iter().chain(tail) {
            if op.is_fixed() {
                self.add(0, op.left);
                if let Some(r) = op.right {
                    self.add(1, r);
                }
            }
        }
    }

    /// Pass 2: commutative operations, greedy orientation. Each op only
    /// sees the lines the fixed ops and *earlier* commutative ops have
    /// claimed.
    fn place_commutative(&mut self, head: &[MuxOp<u32>], tail: &[MuxOp<u32>]) {
        for (i, op) in head.iter().chain(tail).enumerate() {
            if op.is_fixed() {
                continue;
            }
            let (l, r) = (op.left, op.right.expect("commutative ops are binary"));
            let cost_plain = usize::from(!self.has(0, l)) + usize::from(!self.has(1, r));
            let cost_swap = usize::from(!self.has(0, r)) + usize::from(!self.has(1, l));
            let (a, b) = if cost_swap < cost_plain {
                self.swapped[i] = true;
                (r, l)
            } else {
                (l, r)
            };
            self.add(0, a);
            self.add(1, b);
        }
    }

    /// Pass 3, the refinement shared by the cold pack and
    /// [`pack_with_seed`]: re-examine orientations now that all sources
    /// are known — an early greedy choice may have inserted a source a
    /// later op made redundant. A flip is taken only when it strictly
    /// reduces the total, so the pass terminates from any valid count
    /// state. Dropping an op's current sources frees a line only when
    /// it was the sole contributor, and its swapped sources cost a line
    /// only when nobody else supplies them. Returns whether any flip was
    /// taken — `false` means the input state already was the committed
    /// fixpoint, the stability [`PackSeed::try_insert`] requires.
    fn refine(&mut self, head: &[MuxOp<u32>], tail: &[MuxOp<u32>]) -> bool {
        let mut any = false;
        let mut changed = true;
        while changed {
            changed = false;
            for (i, op) in head.iter().chain(tail).enumerate() {
                if op.is_fixed() {
                    continue;
                }
                let r = op.right.expect("commutative ops are binary");
                let (a, b) = if self.swapped[i] {
                    (r, op.left)
                } else {
                    (op.left, r)
                };
                // Port 1 carries `a` from this op; flipping replaces
                // that contribution with `b` (and symmetrically on port
                // 2). A self-pair changes nothing.
                if a == b {
                    continue;
                }
                let delta1 = i64::from(!self.has(0, b)) - i64::from(self.count[a as usize][0] == 1);
                let delta2 = i64::from(!self.has(1, a)) - i64::from(self.count[b as usize][1] == 1);
                if delta1 + delta2 < 0 {
                    self.swapped[i] = !self.swapped[i];
                    self.remove(0, a);
                    self.add(0, b);
                    self.remove(1, b);
                    self.add(1, a);
                    changed = true;
                    any = true;
                }
            }
        }
        any
    }

    /// The committed packing with ids mapped back to `keys`.
    fn packing<S: Ord + Clone>(&self, keys: &[S]) -> MuxPacking<S> {
        let port = |p: usize| {
            keys.iter()
                .enumerate()
                .filter(|&(id, _)| self.has(p, id as u32))
                .map(|(_, s)| s.clone())
                .collect()
        };
        MuxPacking {
            l1: port(0),
            l2: port(1),
            swapped: self.swapped.clone(),
        }
    }
}

/// The committed count state of a packed instance: per-port
/// contribution counts plus the chosen orientations. This is the state
/// the MFSA inner loop keeps alive between candidate evaluations —
/// [`pack_with_seed`] restarts from it instead of replaying the three
/// cold passes, and [`PackSeed::try_insert`] extends it by one op when
/// that is provably cost-neutral.
#[derive(Debug, Clone)]
pub struct PackSeed<S> {
    /// The sorted distinct sources; a source's id is its position.
    keys: Vec<S>,
    /// The committed counts and orientations over those ids.
    state: PackScratch,
    /// Per id, whether the fixed (pass-1) operations alone claim it on
    /// `[port 1, port 2]` — the coverage a fixed insertion must have to
    /// leave passes 1–2 undisturbed.
    fixed: Vec<[bool; 2]>,
    /// Whether the refinement pass was a no-op, i.e. the greedy pass-2
    /// state *is* the committed fixpoint. Only then is an insertion's
    /// replay of the cold construction predictable, so only then does
    /// [`PackSeed::try_insert`] accept.
    stable: bool,
}

impl<S> PackSeed<S> {
    /// Number of operations the seed covers.
    pub fn len(&self) -> usize {
        self.state.swapped.len()
    }

    /// Whether the seed covers no operations.
    pub fn is_empty(&self) -> bool {
        self.state.swapped.is_empty()
    }

    /// `(|L1|, |L2|)` of the committed packing.
    pub fn cost(&self) -> (usize, usize) {
        (self.state.lines[0], self.state.lines[1])
    }
}

impl<S: Ord + Clone> PackSeed<S> {
    /// The safe one-op insertion rule: decides whether appending `op`
    /// to the packed instance is **provably cost-neutral** — the cold
    /// three-pass pack of `ops ∪ {op}` commits the exact same source
    /// lists (and orientations) as the seed, so the mux cost delta is
    /// zero and no repack is needed. Returns the orientation the cold
    /// pack would choose (`Some(swapped)`), or `None` when neutrality
    /// cannot be established and the caller must fall back to a full
    /// repack.
    ///
    /// The proof obligations behind the `Some` cases:
    ///
    /// * the seed must be refinement-**stable** (pass 3 changed
    ///   nothing), so the greedy pass-2 state equals the committed
    ///   fixpoint and the cold replay below reasons about the same
    ///   state the seed stores;
    /// * a **commutative** candidate is appended last, so cold passes
    ///   1–2 replay the seed's decisions verbatim; if either
    ///   orientation finds both sources already on the respective
    ///   ports, greedy adds no lines (preferring unswapped on the
    ///   0-vs-0 tie, mirrored here);
    /// * a **fixed** (non-commutative or unary) candidate joins pass 1,
    ///   so its keys must already be claimed by the *fixed* ops —
    ///   then every line query pass 2 makes is unchanged and the
    ///   earlier greedy decisions replay verbatim;
    /// * refinement stays a no-op afterwards: a covered insertion only
    ///   increments counts on existing lines, which can only turn
    ///   sole-contributor lines into shared ones — every flip delta
    ///   weakly increases, and the candidate's own flip cannot profit
    ///   because both its lines are shared (count ≥ 2).
    pub fn neutral_insertion(&self, op: &MuxOp<S>) -> Option<bool> {
        if !self.stable {
            return None;
        }
        // A source the seed has never seen is on neither port.
        let op = key_ids(&self.keys, op)?;
        if op.is_fixed() {
            let claimed = |port: usize, id: u32| self.fixed[id as usize][port];
            let right_ok = op.right.is_none_or(|r| claimed(1, r));
            return (claimed(0, op.left) && right_ok).then_some(false);
        }
        let (l, r) = (op.left, op.right.expect("commutative ops are binary"));
        if self.state.has(0, l) && self.state.has(1, r) {
            Some(false)
        } else if self.state.has(0, r) && self.state.has(1, l) {
            Some(true)
        } else {
            None
        }
    }

    /// Applies [`Self::neutral_insertion`]: extends the seed by `op`
    /// without a repack when the insertion is provably cost-neutral
    /// (the seed then covers `ops ∪ {op}` and [`pack_with_seed`] on the
    /// extended list reproduces the cold pack exactly). Returns whether
    /// the op was absorbed; on `false` the seed is unchanged and the
    /// caller owns the full-repack fallback.
    pub fn try_insert(&mut self, op: &MuxOp<S>) -> bool {
        let Some(swap) = self.neutral_insertion(op) else {
            return false;
        };
        let op = key_ids(&self.keys, op).expect("a neutral insertion's sources are known");
        let (a, b) = match op.right {
            Some(r) if swap => (r, Some(op.left)),
            r => (op.left, r),
        };
        self.state.add(0, a);
        if let Some(b) = b {
            self.state.add(1, b);
        }
        self.state.swapped.push(swap);
        true
    }
}

/// Packs `ops` and returns the committed count state instead of the
/// sorted source lists — the handle an instance keeps for later
/// [`pack_with_seed`] restarts and [`PackSeed::try_insert`] extensions.
pub fn pack_seed<S: Ord + Clone>(ops: &[MuxOp<S>]) -> PackSeed<S> {
    let (keys, ids) = relabel(ops);
    let mut state = PackScratch::new();
    state.reset(ids.len());
    state.place_fixed(&ids, &[]);
    let fixed = (0..keys.len() as u32)
        .map(|id| [state.has(0, id), state.has(1, id)])
        .collect();
    state.place_commutative(&ids, &[]);
    let stable = !state.refine(&ids, &[]);
    PackSeed {
        keys,
        state,
        fixed,
        stable,
    }
}

/// Re-packs an instance starting from its committed count state: the
/// seeded counts and orientations stand in for passes 1–2, and only the
/// refinement pass runs (a no-op when the seed is already the pass-3
/// fixpoint [`pack`] commits, so the result is identical to the cold
/// pack — the proptest below pins this). Restarting is what makes the
/// state reusable across MFSA candidate evaluations; extending the op
/// list under a seed is [`PackSeed::try_insert`].
///
/// # Panics
///
/// Panics when the seed does not cover exactly `ops`.
pub fn pack_with_seed<S: Ord + Clone>(ops: &[MuxOp<S>], seed: &PackSeed<S>) -> MuxPacking<S> {
    assert_eq!(
        seed.len(),
        ops.len(),
        "pack_with_seed: seed covers {} op(s), instance has {}",
        seed.len(),
        ops.len()
    );
    let ids: Vec<MuxOp<u32>> = ops
        .iter()
        .map(|op| key_ids(&seed.keys, op).expect("pack_with_seed: a source the seed never saw"))
        .collect();
    let mut state = seed.state.clone();
    state.refine(&ids, &[]);
    state.packing(&seed.keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn op(l: &str, r: &str, c: bool) -> MuxOp<String> {
        MuxOp {
            left: l.to_string(),
            right: Some(r.to_string()),
            commutative: c,
        }
    }

    /// The original set-based packing, kept verbatim as the oracle for
    /// the refcount-based production `pack`: identical greedy choices,
    /// with the refinement pass pricing each flip by rebuilding both
    /// trial lists from scratch.
    fn pack_reference<S: Ord + Clone>(ops: &[MuxOp<S>]) -> MuxPacking<S> {
        let mut l1: BTreeSet<S> = BTreeSet::new();
        let mut l2: BTreeSet<S> = BTreeSet::new();
        let mut swapped = vec![false; ops.len()];
        for op in ops {
            if !op.commutative || op.right.is_none() {
                l1.insert(op.left.clone());
                if let Some(r) = &op.right {
                    l2.insert(r.clone());
                }
            }
        }
        for (i, op) in ops.iter().enumerate() {
            if !op.commutative || op.right.is_none() {
                continue;
            }
            let r = op.right.as_ref().expect("checked above");
            let cost_plain = usize::from(!l1.contains(&op.left)) + usize::from(!l2.contains(r));
            let cost_swap = usize::from(!l1.contains(r)) + usize::from(!l2.contains(&op.left));
            if cost_swap < cost_plain {
                swapped[i] = true;
                l1.insert(r.clone());
                l2.insert(op.left.clone());
            } else {
                l1.insert(op.left.clone());
                l2.insert(r.clone());
            }
        }
        let mut changed = true;
        while changed {
            changed = false;
            for (i, op) in ops.iter().enumerate() {
                if !op.commutative || op.right.is_none() {
                    continue;
                }
                let r = op.right.as_ref().expect("checked above");
                let (cur_a, cur_b) = if swapped[i] {
                    (r, &op.left)
                } else {
                    (&op.left, r)
                };
                let mut trial1 = BTreeSet::new();
                let mut trial2 = BTreeSet::new();
                for (j, oj) in ops.iter().enumerate() {
                    let (a, b) = if j == i {
                        (cur_b, oj.right.as_ref().map(|_| cur_a))
                    } else if swapped[j] && oj.right.is_some() {
                        (oj.right.as_ref().expect("some"), Some(&oj.left))
                    } else {
                        (&oj.left, oj.right.as_ref())
                    };
                    trial1.insert(a.clone());
                    if let Some(b) = b {
                        trial2.insert(b.clone());
                    }
                }
                if trial1.len() + trial2.len() < l1.len() + l2.len() {
                    swapped[i] = !swapped[i];
                    l1 = trial1;
                    l2 = trial2;
                    changed = true;
                }
            }
        }
        MuxPacking { l1, l2, swapped }
    }

    /// An op shape drawn by the proptests: `bits` 0 = unary (1 in 8, so
    /// most ops stay binary), bit 1 = commutative.
    fn shaped<S: Copy>(l: S, r: S, bits: u8) -> MuxOp<S> {
        MuxOp {
            left: l,
            right: (bits != 0).then_some(r),
            commutative: bits & 2 != 0,
        }
    }

    /// Line ids as the dense core sees them: small, mid-range and large
    /// ids mixed, so consecutive packs touch disjoint regions of the
    /// count table and most of the table is skipped.
    fn sparse_id() -> impl Strategy<Value = u32> {
        (0usize..3, 0u32..6).prop_map(|(band, k)| [0, 1_000, 60_000][band] + k)
    }

    fn sparse_ops(max: usize) -> impl Strategy<Value = Vec<MuxOp<u32>>> {
        proptest::collection::vec(
            (sparse_id(), sparse_id(), 0u8..8).prop_map(|(l, r, bits)| shaped(l, r, bits)),
            0..max,
        )
    }

    proptest! {
        /// The refcount-priced refinement must take the exact flips the
        /// trial-rebuild oracle takes: identical lists *and* identical
        /// orientations, so every downstream `f_MUX` value (and with it
        /// the MFSA tie-break order) is unchanged. Sources are drawn
        /// from a small alphabet to force heavy line sharing, self-pairs
        /// and duplicate ops, and the alphabet is mapped onto sparse,
        /// large ids, so the dense core run directly on the raw ids
        /// (no relabelling) must agree too.
        #[test]
        fn refcount_packing_matches_the_set_based_oracle(
            ops in proptest::collection::vec(
                (0usize..6, 0usize..6, 0u8..8),
                0..12,
            ),
            palette in proptest::collection::vec(0u32..200_000, 6..7),
        ) {
            let ops: Vec<MuxOp<u32>> = ops
                .iter()
                .map(|&(l, r, bits)| shaped(palette[l], palette[r], bits))
                .collect();
            let fast = pack(&ops);
            let slow = pack_reference(&ops);
            prop_assert_eq!(pack_cost(&ops), (fast.l1.len(), fast.l2.len()));
            let mut scratch = PackScratch::new();
            prop_assert_eq!(scratch.cost(&ops, None), (slow.l1.len(), slow.l2.len()));
            prop_assert_eq!(&scratch.swapped, &slow.swapped);
            prop_assert_eq!(fast, slow);
        }

        /// One scratch reused across a sequence of packs of unrelated
        /// lists must commit, for each list, exactly what a fresh
        /// scratch commits — a count or orientation left over from an
        /// earlier pack would show up as a line the list never uses.
        #[test]
        fn a_reused_scratch_matches_a_fresh_one(
            lists in proptest::collection::vec(sparse_ops(10), 1..8),
        ) {
            let mut reused = PackScratch::new();
            for ops in &lists {
                let mut fresh = PackScratch::new();
                prop_assert_eq!(reused.cost(ops, None), fresh.cost(ops, None));
                prop_assert_eq!(&reused.swapped, &fresh.swapped);
            }
        }

        /// Pricing `before` plus a candidate through the scratch — no
        /// concatenated list is built — equals the cost of the packing of
        /// the concatenated list, whatever the scratch priced before.
        #[test]
        fn pricing_a_candidate_matches_the_concatenated_pack(
            warmup in sparse_ops(10),
            before in sparse_ops(10),
            candidate in (sparse_id(), sparse_id(), 0u8..8),
        ) {
            let candidate = shaped(candidate.0, candidate.1, candidate.2);
            let mut after = before.clone();
            after.push(candidate);
            let mut scratch = PackScratch::new();
            scratch.cost(&warmup, None);
            prop_assert_eq!(scratch.cost(&before, Some(&candidate)), pack_cost(&after));
            prop_assert_eq!(scratch.cost(&before, None), pack_cost(&before));
        }

        /// Restarting from the committed refcount multiset must commit
        /// the exact packing the cold three-pass construction commits —
        /// lists and orientations — so an instance can keep its seed
        /// alive across candidate evaluations without ever drifting
        /// from the cold result.
        #[test]
        fn seeded_repack_matches_the_cold_pack(
            ops in proptest::collection::vec(
                (0u8..6, 0u8..6, 0u8..8),
                0..12,
            ),
        ) {
            let ops: Vec<MuxOp<u8>> = ops
                .iter()
                .map(|&(l, r, bits)| MuxOp {
                    left: l,
                    right: (bits != 0).then_some(r),
                    commutative: bits & 2 != 0,
                })
                .collect();
            let seed = pack_seed(&ops);
            prop_assert_eq!(seed.len(), ops.len());
            prop_assert_eq!(pack_with_seed(&ops, &seed), pack(&ops));
        }

        /// The one-op insertion rule differential: whenever
        /// `try_insert` accepts a candidate, the cold three-pass pack
        /// of the extended op list must commit the **identical**
        /// packing — same lists, same orientations, and in particular
        /// the same `(|L1|, |L2|)` as before the insertion (the
        /// cost-neutrality the MFSA pricing fast path relies on).
        /// Whenever it declines, the seed must be untouched.
        #[test]
        fn neutral_insertion_matches_the_cold_pack(
            ops in proptest::collection::vec(
                (0u8..6, 0u8..6, 0u8..8),
                0..12,
            ),
            candidate in (0u8..6, 0u8..6, 0u8..8),
        ) {
            let shape = |&(l, r, bits): &(u8, u8, u8)| MuxOp {
                left: l,
                right: (bits != 0).then_some(r),
                commutative: bits & 2 != 0,
            };
            let ops: Vec<MuxOp<u8>> = ops.iter().map(shape).collect();
            let c = shape(&candidate);
            let mut seed = pack_seed(&ops);
            let cost_before = seed.cost();
            let mut extended = ops.clone();
            extended.push(c);
            if seed.try_insert(&c) {
                prop_assert_eq!(seed.len(), extended.len());
                prop_assert_eq!(seed.cost(), cost_before);
                let cold = pack(&extended);
                prop_assert_eq!((cold.l1.len(), cold.l2.len()), cost_before);
                prop_assert_eq!(pack_with_seed(&extended, &seed), cold);
            } else {
                prop_assert_eq!(seed.len(), ops.len());
                prop_assert_eq!(seed.cost(), cost_before);
                prop_assert_eq!(pack_with_seed(&ops, &seed), pack(&ops));
            }
        }

        /// From an arbitrary (worst-orientation) refcount state the
        /// shared refinement pass must still terminate on a packing
        /// that covers every operation and is no worse than the state
        /// it started from — the soundness floor a future one-op
        /// insertion rule builds on.
        #[test]
        fn seeded_repack_from_any_orientation_is_sound(
            ops in proptest::collection::vec(
                (0u8..6, 0u8..6, 0u8..8, 0u8..2),
                0..12,
            ),
        ) {
            let (ops, flips): (Vec<MuxOp<u8>>, Vec<bool>) = ops
                .iter()
                .map(|&(l, r, bits, flip)| {
                    let flip = flip == 1;
                    let op = MuxOp {
                        left: l,
                        right: (bits != 0).then_some(r),
                        commutative: bits & 2 != 0,
                    };
                    let flippable = op.commutative && op.right.is_some();
                    (op, flip && flippable)
                })
                .unzip();
            let seed = seed_from_orientations(&ops, flips);
            let start = seed.cost().0 + seed.cost().1;
            let p = pack_with_seed(&ops, &seed);
            prop_assert!(p.total_inputs() <= start);
            for (i, o) in ops.iter().enumerate() {
                let (x, y) = if p.swapped[i] {
                    (o.right.expect("only binary ops flip"), o.left)
                } else {
                    (o.left, o.right.unwrap_or(o.left))
                };
                prop_assert!(p.l1.contains(&x), "op {} port-1 source missing", i);
                if o.right.is_some() {
                    prop_assert!(p.l2.contains(&y), "op {} port-2 source missing", i);
                }
            }
        }
    }

    /// Builds the count state a given orientation vector induces — the
    /// test-side stand-in for a seed produced by incremental edits
    /// rather than a cold pack.
    fn seed_from_orientations(ops: &[MuxOp<u8>], swapped: Vec<bool>) -> PackSeed<u8> {
        let (keys, ids) = relabel(ops);
        let mut state = PackScratch::new();
        state.reset(0);
        for (op, &swap) in ids.iter().zip(&swapped) {
            let (a, b) = if swap {
                (op.right.expect("only binary ops flip"), Some(op.left))
            } else {
                (op.left, op.right)
            };
            state.add(0, a);
            if let Some(b) = b {
                state.add(1, b);
            }
        }
        state.swapped = swapped;
        let fixed = (0..keys.len() as u32)
            .map(|id| [state.has(0, id), state.has(1, id)])
            .collect();
        PackSeed {
            keys,
            state,
            fixed,
            // An arbitrary orientation vector is not a known fixpoint.
            stable: false,
        }
    }

    #[test]
    fn single_op_uses_two_inputs() {
        let p = pack(&[op("a", "b", true)]);
        assert_eq!(p.total_inputs(), 2);
    }

    #[test]
    fn identical_ops_share_everything() {
        let p = pack(&[op("a", "b", false), op("a", "b", false)]);
        assert_eq!(p.total_inputs(), 2);
    }

    #[test]
    fn commutative_swap_reuses_lines() {
        let p = pack(&[op("a", "b", false), op("b", "a", true)]);
        assert_eq!(p.total_inputs(), 2);
        assert!(p.swapped[1]);
    }

    #[test]
    fn non_commutative_mirror_needs_four_lines() {
        let p = pack(&[op("a", "b", false), op("b", "a", false)]);
        assert_eq!(p.total_inputs(), 4);
    }

    #[test]
    fn unary_ops_occupy_port_one_only() {
        let ops = [MuxOp {
            left: "x".to_string(),
            right: None,
            commutative: false,
        }];
        let p = pack(&ops);
        assert_eq!(p.l1.len(), 1);
        assert_eq!(p.l2.len(), 0);
    }

    #[test]
    fn refinement_pass_fixes_greedy_mistakes() {
        // Greedy on c1 = (a,b) picks a→L1, b→L2. Then nc = sub(b, a)
        // forces b→L1, a→L2. Flipping c1 in pass 3 reaches the optimum
        // of 2 total inputs.
        let ops = [op("a", "b", true), op("b", "a", false)];
        let p = pack(&ops);
        assert_eq!(p.total_inputs(), 2, "packing: {p:?}");
        assert!(p.swapped[0]);
    }

    #[test]
    fn packing_covers_every_operation() {
        // Whatever the orientation, each op's operands must be present
        // on the respective ports.
        let ops = [
            op("a", "b", true),
            op("c", "d", false),
            op("b", "c", true),
            op("d", "a", true),
        ];
        let p = pack(&ops);
        for (i, o) in ops.iter().enumerate() {
            let (x, y) = if p.swapped[i] {
                (o.right.clone().expect("binary"), o.left.clone())
            } else {
                (o.left.clone(), o.right.clone().expect("binary"))
            };
            assert!(p.l1.contains(&x), "op {i} port-1 source missing");
            assert!(p.l2.contains(&y), "op {i} port-2 source missing");
        }
    }

    #[test]
    fn insertion_accepts_covered_ops_and_declines_new_lines() {
        // sub(a,b) fixes a→L1, b→L2; add(b,a) swaps onto the same lines.
        let ops = [op("a", "b", false), op("b", "a", true)];
        let mut seed = pack_seed(&ops);
        assert_eq!(seed.cost(), (1, 1));

        // A commutative candidate whose swap orientation is covered.
        let covered = op("b", "a", true);
        assert_eq!(seed.neutral_insertion(&covered), Some(true));

        // A fixed candidate matching the pass-1 claims verbatim.
        let fixed = op("a", "b", false);
        assert_eq!(seed.neutral_insertion(&fixed), Some(false));

        // A unary candidate is covered by port 1 alone.
        let unary = MuxOp {
            left: "a".to_string(),
            right: None,
            commutative: false,
        };
        assert_eq!(seed.neutral_insertion(&unary), Some(false));

        // Any new source line forces the full-repack fallback.
        let fresh = op("c", "b", true);
        assert_eq!(seed.neutral_insertion(&fresh), None);
        assert!(!seed.try_insert(&fresh));
        assert_eq!(seed.len(), 2);

        // Absorbing the covered op keeps the cost and grows the seed.
        assert!(seed.try_insert(&covered));
        assert_eq!(seed.len(), 3);
        assert_eq!(seed.cost(), (1, 1));
    }

    #[test]
    fn insertion_is_conservative_without_a_known_fixpoint() {
        // A seed reconstructed from raw orientations is not a known
        // refinement fixpoint, so even a fully covered candidate must
        // be declined.
        let ops = vec![MuxOp {
            left: 1u8,
            right: Some(2),
            commutative: true,
        }];
        let seed = seed_from_orientations(&ops, vec![false]);
        assert_eq!(seed.neutral_insertion(&ops[0]), None);
    }

    #[test]
    fn fixed_insertion_requires_fixed_coverage() {
        // b→L1 and a→L2 are claimed only by the *commutative* op, so a
        // non-commutative sub(b,a) would join pass 1 and perturb the
        // greedy replay — the rule must decline even though the ports
        // cover it.
        let ops = [op("b", "a", true)];
        let seed = pack_seed(&ops);
        assert_eq!(seed.cost(), (1, 1));
        assert_eq!(seed.neutral_insertion(&op("b", "a", false)), None);
        // The commutative twin is covered and accepted.
        assert_eq!(seed.neutral_insertion(&op("b", "a", true)), Some(false));
    }

    #[test]
    fn empty_input_is_empty_packing() {
        let p = pack::<String>(&[]);
        assert_eq!(p.total_inputs(), 0);
        assert!(p.swapped.is_empty());
    }
}
