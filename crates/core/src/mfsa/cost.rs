//! The dynamic Liapunov function's cost terms (paper §4.1).

use std::collections::BTreeMap;

use hls_celllib::{Area, Library};
use hls_dfg::{Dfg, NodeId, NodeKind, SignalId, SignalSource};
use hls_rtl::muxopt::{MuxOp, PackScratch};
use hls_schedule::{Schedule, UnitId};

use crate::mfsa::Weights;

/// `node`'s operand sources as multiplexer input *lines* at estimation
/// time, encoded as dense ids for the packing core (DESIGN §14). A
/// primary input, constant or stored signal is its own line, with id =
/// its signal index (a signal has exactly one source, so these never
/// collide). Interconnect sharing (paper §5.7) folds every value an ALU
/// instance `n` has produced onto one result-path line, id
/// `signal_count + n`. The packing only compares lines for equality, so
/// this one-to-one labelling prices exactly what any other would.
pub(crate) fn mux_op(
    dfg: &Dfg,
    sched: &Schedule,
    shares_interconnect: bool,
    node: NodeId,
) -> MuxOp<u32> {
    let line = |sig: SignalId| -> u32 {
        match dfg.signal(sig).source() {
            SignalSource::Node(p) if shares_interconnect => match sched.slot(p).map(|s| s.unit) {
                Some(UnitId::Alu { instance }) => dfg.signal_count() as u32 + instance,
                _ => sig.index() as u32,
            },
            _ => sig.index() as u32,
        }
    };
    let commutative = match dfg.node(node).kind() {
        NodeKind::Op(k) => k.is_commutative(),
        NodeKind::Stage { base, index, .. } => index == 0 && base.is_commutative(),
        _ => unreachable!("loops and mem accesses never reach the ALU pricing"),
    };
    let inputs = dfg.node(node).inputs();
    MuxOp {
        left: line(inputs[0]),
        right: inputs.get(1).map(|&s| line(s)),
        commutative,
    }
}

/// Evaluates the four `f` terms for candidate positions.
#[derive(Debug, Clone)]
pub(crate) struct CostModel {
    weights: Weights,
    /// The `f_TIME` constant `C > w_A·f_ALU^max + w_M·f_MUX^max +
    /// w_R·f_REG^max`, guaranteeing an earlier feasible step always wins
    /// when `w_TIME ≥ 1`.
    c_const: u64,
    reg_area: u64,
    mux_table: Vec<u64>,
}

impl CostModel {
    pub(crate) fn new(library: &Library, weights: Weights) -> CostModel {
        let c_const = weights.alu as u64 * library.max_alu_area().as_u64()
            + weights.mux as u64 * library.max_mux_term().as_u64()
            + weights.reg as u64 * library.max_reg_term().as_u64()
            + 1;
        // Cache the mux curve for the widths we will see.
        let mux_table = (0..64).map(|r| library.mux().cost(r).as_u64()).collect();
        CostModel {
            weights,
            c_const,
            reg_area: library.register_area().as_u64(),
            mux_table,
        }
    }

    /// `w_TIME · C · y`.
    pub(crate) fn f_time(&self, step: u32) -> u64 {
        self.weights.time as u64 * self.c_const * step as u64
    }

    /// `w_ALU · ΔALU-area` for a new or upgraded instance.
    pub(crate) fn f_alu(&self, delta: Area) -> u64 {
        self.weights.alu as u64 * delta.as_u64()
    }

    /// `w_MUX · (Cost(MUX¹_after) + Cost(MUX²_after) − before)` under the
    /// best-case packing of the instance's operand lines.
    pub(crate) fn f_mux(
        &self,
        scratch: &mut PackScratch,
        before: &[MuxOp<u32>],
        candidate: MuxOp<u32>,
    ) -> u64 {
        let before_cost = self.mux_pair_cost(scratch, before);
        self.f_mux_from(scratch, before_cost, before, candidate)
    }

    /// [`Self::f_mux`] with the before-cost supplied by the caller. The
    /// before term depends only on the instance's committed operations —
    /// frozen between moves — so the scheduler caches it per instance
    /// and pays one packing per candidate instead of two. The candidate
    /// is priced through `scratch` without building the extended list.
    pub(crate) fn f_mux_from(
        &self,
        scratch: &mut PackScratch,
        before_cost: u64,
        before: &[MuxOp<u32>],
        candidate: MuxOp<u32>,
    ) -> u64 {
        let after_cost = self.lines_cost(scratch.cost(before, Some(&candidate)));
        self.weights.mux as u64 * after_cost.saturating_sub(before_cost)
    }

    /// Total cost of the two input multiplexers after optimal packing.
    pub(crate) fn mux_pair_cost(&self, scratch: &mut PackScratch, ops: &[MuxOp<u32>]) -> u64 {
        self.lines_cost(scratch.cost(ops, None))
    }

    fn lines_cost(&self, (l1, l2): (usize, usize)) -> u64 {
        self.mux_cost(l1) + self.mux_cost(l2)
    }

    fn mux_cost(&self, inputs: usize) -> u64 {
        match self.mux_table.get(inputs) {
            Some(&c) => c,
            None => {
                let last = *self.mux_table.last().expect("non-empty");
                let step = last - self.mux_table[self.mux_table.len() - 2];
                last + step * (inputs + 1 - self.mux_table.len()) as u64
            }
        }
    }

    /// `w_REG · ΔREG-count · Cost(REG)`.
    pub(crate) fn f_reg(&self, delta_registers: usize) -> u64 {
        self.weights.reg as u64 * delta_registers as u64 * self.reg_area
    }

    /// A Liapunov lower bound for the branch-and-bound search: the
    /// energy of any candidate at `step` whose exactly-known non-time
    /// terms sum to `known`. Every term of the energy is ≥ 0, so
    /// `f_TIME(step) + known` never exceeds the true total — with
    /// `known = 0` this is the level-0 bound behind the wholesale
    /// later-step cut, and the instance-level cut passes the exact
    /// `f_REG + f_ALU` sum, leaving only the mux-repacking delta
    /// unknown. For fixed `known` the bound is monotone non-decreasing
    /// in the step index (`f_TIME = w_T·C·step`), which is what lets
    /// the step queue cut every remaining step at once.
    pub(crate) fn lower_bound(&self, step: u32, known: u64) -> u64 {
        self.f_time(step) + known
    }
}

/// Incremental estimate of the register demand ("a backward look at the
/// partially constructed schedule", §4.1): one life span per stored
/// signal, extended as consumers are scheduled; the register count is
/// the peak number of simultaneously live spans, which the final
/// left-edge pass meets exactly.
#[derive(Debug, Clone, Default)]
pub(crate) struct RegEstimate {
    /// signal → (birth, death), both inclusive.
    spans: BTreeMap<SignalId, (u32, u32)>,
    /// Spans covering each step (index = step, entry 0 unused).
    live: Vec<u32>,
    /// Cached `max(live)` — exact because spans only widen, so per-step
    /// coverage (and hence the peak) is monotone under `commit`.
    peak: usize,
}

impl RegEstimate {
    pub(crate) fn new() -> RegEstimate {
        RegEstimate::default()
    }

    /// Current register count (peak simultaneously-live spans).
    pub(crate) fn count(&self) -> usize {
        self.peak
    }

    /// The count if `extensions` were applied: each `(signal, birth,
    /// death)` inserts or extends a span. Evaluated against the cached
    /// per-step coverage — only the *newly covered* steps can raise the
    /// peak, so no span map is cloned and no full rescan runs.
    pub(crate) fn count_with(&self, extensions: &[(SignalId, u32, u32)]) -> usize {
        let mut newly: Vec<u32> = Vec::new();
        // Spans already widened by earlier extensions in this same call
        // (an op can consume one signal twice); tiny, so linear search.
        let mut overlay: Vec<(SignalId, (u32, u32))> = Vec::new();
        for &(sig, birth, death) in extensions {
            match overlay.iter_mut().find(|(s, _)| *s == sig) {
                Some((_, span)) => {
                    let (ob, od) = *span;
                    let (nb, nd) = (ob.min(birth), od.max(death));
                    newly.extend(nb..ob);
                    newly.extend(od + 1..=nd);
                    *span = (nb, nd);
                }
                None => match self.spans.get(&sig).copied() {
                    Some((ob, od)) => {
                        let (nb, nd) = (ob.min(birth), od.max(death));
                        newly.extend(nb..ob);
                        newly.extend(od + 1..=nd);
                        overlay.push((sig, (nb, nd)));
                    }
                    None => {
                        newly.extend(birth..=death);
                        overlay.push((sig, (birth, death)));
                    }
                },
            }
        }
        // Steps without new coverage keep their old count ≤ peak.
        newly.sort_unstable();
        let mut peak = self.peak;
        let mut i = 0;
        while i < newly.len() {
            let step = newly[i];
            let mut j = i;
            while j < newly.len() && newly[j] == step {
                j += 1;
            }
            let base = self.live.get(step as usize).copied().unwrap_or(0);
            peak = peak.max((base + (j - i) as u32) as usize);
            i = j;
        }
        peak
    }

    /// Applies `extensions` permanently.
    pub(crate) fn commit(&mut self, extensions: &[(SignalId, u32, u32)]) {
        for &(sig, birth, death) in extensions {
            let (cover_a, cover_b) = match self.spans.get_mut(&sig) {
                Some(span) => {
                    let (ob, od) = *span;
                    let (nb, nd) = (ob.min(birth), od.max(death));
                    *span = (nb, nd);
                    (nb..ob, od + 1..=nd)
                }
                None => {
                    self.spans.insert(sig, (birth, death));
                    (1..1, birth..=death)
                }
            };
            for step in cover_a.chain(cover_b) {
                let idx = step as usize;
                if self.live.len() <= idx {
                    self.live.resize(idx + 1, 0);
                }
                self.live[idx] += 1;
                self.peak = self.peak.max(self.live[idx] as usize);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_celllib::OpKind;

    fn sig(n: usize) -> SignalId {
        // Construct distinct SignalIds through a throwaway builder.
        let mut b = hls_dfg::DfgBuilder::new("stub");
        let mut last = b.input("s0");
        for i in 1..=n {
            last = b.input(&format!("s{i}"));
        }
        last
    }

    #[test]
    fn time_term_dominates_cost_terms() {
        let lib = Library::ncr_like();
        let model = CostModel::new(&lib, Weights::default());
        // One full step of f_TIME exceeds the largest possible sum of
        // the other three terms (the paper's C inequality).
        let worst = model.f_alu(lib.max_alu_area())
            + Weights::default().mux as u64 * lib.max_mux_term().as_u64()
            + model.f_reg(2);
        assert!(model.f_time(1) > worst);
        assert!(model.f_time(2) - model.f_time(1) > worst);
    }

    #[test]
    fn f_mux_charges_only_new_lines() {
        let lib = Library::ncr_like();
        let model = CostModel::new(&lib, Weights::default());
        let mut scratch = PackScratch::new();
        let op = |left, right, commutative| MuxOp {
            left,
            right: Some(right),
            commutative,
        };
        let existing = vec![op(1, 2, false)];
        // The same operand pair again: no growth, no cost.
        assert_eq!(model.f_mux(&mut scratch, &existing, op(1, 2, false)), 0);
        // A commutative op with swapped operands: packing reuses lines.
        assert_eq!(model.f_mux(&mut scratch, &existing, op(2, 1, true)), 0);
        // A brand-new pair must pay for widening both muxes to 2 inputs.
        let grow = model.f_mux(&mut scratch, &existing, op(3, 4, false));
        assert_eq!(grow, 2 * lib.mux().cost(2).as_u64());
    }

    #[test]
    fn mux_lines_are_signals_or_alu_result_paths() {
        let mut b = hls_dfg::DfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.op("a", OpKind::Add, &[x, y]).unwrap();
        b.op("s", OpKind::Sub, &[a, x]).unwrap();
        let g = b.finish().unwrap();
        let (na, ns) = (g.node_by_name("a").unwrap(), g.node_by_name("s").unwrap());
        let mut sched = Schedule::new(&g, 2);
        sched.assign(
            na,
            hls_schedule::Slot {
                step: hls_schedule::CStep::new(1),
                unit: UnitId::Alu { instance: 3 },
            },
        );
        let by_signal = mux_op(&g, &sched, false, ns);
        assert_eq!(
            (by_signal.left, by_signal.right),
            (a.index() as u32, Some(x.index() as u32))
        );
        assert!(!by_signal.commutative);
        // With sharing, `a` arrives on ALU 3's result path.
        let shared = mux_op(&g, &sched, true, ns);
        assert_eq!(shared.left, g.signal_count() as u32 + 3);
        assert_eq!(mux_op(&g, &sched, true, na).right, Some(y.index() as u32));
    }

    #[test]
    fn reg_estimate_counts_peak_overlap() {
        let mut est = RegEstimate::new();
        assert_eq!(est.count(), 0);
        est.commit(&[(sig(1), 1, 3), (sig(2), 2, 4)]);
        assert_eq!(est.count(), 2);
        // A third overlapping span raises the count by one.
        assert_eq!(est.count_with(&[(sig(3), 3, 3)]), 3);
        // A disjoint span does not.
        assert_eq!(est.count_with(&[(sig(3), 5, 6)]), 2);
        // Extending an existing signal's death does not add a register
        // when nothing else overlaps the extension.
        assert_eq!(est.count_with(&[(sig(2), 2, 9)]), 2);
    }

    #[test]
    fn f_reg_scales_with_register_area() {
        let lib = Library::ncr_like();
        let model = CostModel::new(&lib, Weights::default());
        assert_eq!(model.f_reg(0), 0);
        assert_eq!(model.f_reg(2), 2 * lib.register_area().as_u64());
    }

    #[test]
    fn weights_scale_terms() {
        let lib = Library::ncr_like();
        let w = Weights {
            time: 1,
            alu: 3,
            mux: 1,
            reg: 5,
        };
        let model = CostModel::new(&lib, w);
        let area = lib.fu_area(OpKind::Add).unwrap();
        assert_eq!(model.f_alu(area), 3 * area.as_u64());
        assert_eq!(model.f_reg(1), 5 * lib.register_area().as_u64());
    }

    mod bound_soundness {
        use super::*;
        use proptest::prelude::*;

        /// A candidate's exact energy from its four terms.
        fn energy(model: &CostModel, step: u32, f_alu: u64, f_mux: u64, f_reg: u64) -> u64 {
            model.f_time(step) + f_alu + f_mux + f_reg
        }

        proptest! {
            /// `lower_bound(step, known) ≤ energy` exactly, at every
            /// level the search uses it: `known = 0` (wholesale step
            /// cut), `known = f_REG` (per-step cut) and `known = f_REG
            /// + f_ALU` (instance cut) — each leaves only non-negative
            /// terms unaccounted for.
            #[test]
            fn lower_bound_never_exceeds_the_energy(
                step in 1u32..200,
                f_alu in 0u64..10_000,
                f_mux in 0u64..10_000,
                f_reg in 0u64..10_000,
                weight_idx in 0usize..3,
            ) {
                let lib = Library::ncr_like();
                let weights = [
                    Weights::default(),
                    Weights { time: 0, alu: 1, mux: 1, reg: 1 },
                    Weights { time: 2, alu: 1, mux: 3, reg: 4 },
                ][weight_idx];
                let model = CostModel::new(&lib, weights);
                let e = energy(&model, step, f_alu, f_mux, f_reg);
                prop_assert!(model.lower_bound(step, 0) <= e);
                prop_assert!(model.lower_bound(step, f_reg) <= e);
                prop_assert!(model.lower_bound(step, f_reg + f_alu) <= e);
                // With every term known the bound is exact.
                prop_assert_eq!(model.lower_bound(step, f_reg + f_alu + f_mux), e);
            }

            /// For a fixed `known` the bound is monotone non-decreasing
            /// in the step index — the property that lets one queue pop
            /// cut every remaining (later) step wholesale.
            #[test]
            fn lower_bound_is_monotone_in_step(
                step in 1u32..199,
                known in 0u64..30_000,
                weight_idx in 0usize..3,
            ) {
                let lib = Library::ncr_like();
                let weights = [
                    Weights::default(),
                    Weights { time: 0, alu: 1, mux: 1, reg: 1 },
                    Weights { time: 2, alu: 1, mux: 3, reg: 4 },
                ][weight_idx];
                let model = CostModel::new(&lib, weights);
                prop_assert!(model.lower_bound(step, known) <= model.lower_bound(step + 1, known));
            }
        }
    }

    #[test]
    fn mux_cost_extrapolates_beyond_the_table() {
        let lib = Library::ncr_like();
        let model = CostModel::new(&lib, Weights::default());
        // Widths beyond the cached table grow linearly.
        let c64 = model.mux_cost(64);
        let c65 = model.mux_cost(65);
        let c66 = model.mux_cost(66);
        assert_eq!(c66 - c65, c65 - c64);
    }
}
