//! Frame computation: `MF = PF − (RF ∪ FF)` (paper §3.2, step 4).

use hls_celllib::{ClockPeriod, Delay, TimingSpec};
use hls_dfg::{Dfg, FuClass, NodeId};
use hls_schedule::{CStep, FuIndex, Grid, Schedule, TimeFrames};

/// One candidate cell of a placement grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Position {
    /// Control step (`y`).
    pub step: CStep,
    /// Unit column (`x`).
    pub fu: FuIndex,
}

/// The frames computed for one operation at the moment it is scheduled —
/// the data behind the paper's Figure 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameSnapshot {
    /// The operation being placed.
    pub node: NodeId,
    /// Its functional-unit class (which grid the frames live in).
    pub class: FuClass,
    /// Primary-frame time range `[ASAP, ALAP]`.
    pub primary: (CStep, CStep),
    /// Columns visible to the move frame (`current_j`); columns
    /// `current_j+1 ..= max_fu` form the redundant frame.
    pub current_fu: u32,
    /// The grid's column budget (`max_j`).
    pub max_fu: u32,
    /// Steps of the primary range excluded by data dependencies (the
    /// forbidden frame): every step strictly below this bound.
    pub earliest_feasible: CStep,
    /// Steps of the primary range excluded by already-scheduled
    /// successors: every step strictly above this bound.
    pub latest_feasible: CStep,
    /// The access-conflict frame `AF`: dependency-feasible steps excluded
    /// solely because every visible port of the node's memory bank is
    /// already occupied. Always empty for non-memory classes, where a
    /// fully-occupied step is an ordinary resource conflict rather than a
    /// port conflict. `MF = PF − (RF ∪ FF ∪ AF)`.
    pub af_steps: Vec<CStep>,
    /// The resulting move frame: free, dependency-feasible positions.
    pub movable: Vec<Position>,
}

impl FrameSnapshot {
    /// Whether the move frame is empty (triggers local rescheduling).
    pub fn is_empty(&self) -> bool {
        self.movable.is_empty()
    }
}

/// Incrementally-maintained per-node scheduling bounds.
///
/// Frame computation needs, for every unscheduled operation, the latest
/// finish step among its *scheduled* predecessors (the forbidden-frame
/// floor) and the earliest start step among its *scheduled* successors
/// (the ceiling). Rescanning the neighbour lists for every candidate
/// step of every operation made `feasible_step_range` the scheduler's
/// hottest loop; this cache updates the two numbers on each
/// occupy/vacate of a neighbour instead:
///
/// * [`BoundsCache::on_assign`] — O(degree) max/min merges;
/// * [`BoundsCache::on_unassign`] — recomputes each neighbour's bound
///   from that neighbour's own neighbour list (the sum of neighbour
///   degrees), then repairs the chained finish offsets of the scheduled
///   chainable successors it reaches. It allocates nothing and does no
///   O(node count) work per call: the partition stitcher and the
///   iterate splice vacate every boundary or region node on every
///   sweep, so this is a hot path, not a rare one.
///
/// Effective cycle counts (declared cycles, or `⌈delay/T⌉` under a
/// chaining clock) are precomputed per node as well, since they are
/// pure functions of the graph and clock.
#[derive(Debug, Clone)]
pub struct BoundsCache {
    /// Effective cycles per node under the (optional) clock.
    cycles: Vec<u8>,
    /// Whether the node may share a step boundary under chaining.
    chainable: Vec<bool>,
    /// Combinational delay per node, for repairing chained finish
    /// offsets after a vacate.
    delays: Vec<Delay>,
    /// Max finish step over scheduled predecessors (0 = none).
    pred_finish: Vec<u32>,
    /// Min start step over scheduled successors (`u32::MAX` = none).
    succ_start: Vec<u32>,
    /// Reusable work space of [`BoundsCache::on_unassign`]'s offset
    /// repair.
    repair: RepairScratch,
}

/// Work space of the chained-offset repair, reused across calls so a
/// vacate allocates nothing in steady state.
///
/// `stamp` marks the nodes the current repair has visited: a node is
/// visited when its stamp equals `epoch`, and bumping `epoch` clears
/// every mark at once. `stamp` is sized to the graph the first time a
/// scheduled chainable successor shows up, so unclocked schedules never
/// allocate it.
#[derive(Debug, Clone, Default)]
struct RepairScratch {
    stamp: Vec<u32>,
    epoch: u32,
    stack: Vec<NodeId>,
    affected: Vec<NodeId>,
}

impl BoundsCache {
    /// Builds the cache for an empty schedule.
    pub fn new(dfg: &Dfg, spec: &TimingSpec, clock: Option<ClockPeriod>) -> Self {
        let n = dfg.node_count();
        let mut cycles = Vec::with_capacity(n);
        let mut chainable = Vec::with_capacity(n);
        let mut delays = Vec::with_capacity(n);
        for (_, node) in dfg.nodes() {
            let kind = node.kind();
            let declared = kind.cycles(spec);
            let eff = match clock {
                None => declared,
                Some(t) => {
                    let d = kind.delay(spec).as_u32();
                    let derived = if d == 0 {
                        1
                    } else {
                        d.div_ceil(t.as_u32()) as u8
                    };
                    declared.max(derived)
                }
            };
            cycles.push(eff);
            chainable.push(clock.is_some() && eff == 1 && kind.delay(spec).as_u32() > 0);
            delays.push(kind.delay(spec));
        }
        BoundsCache {
            cycles,
            chainable,
            delays,
            pred_finish: vec![0; n],
            succ_start: vec![u32::MAX; n],
            repair: RepairScratch::default(),
        }
    }

    /// Effective cycle count of `node`.
    pub fn cycles(&self, node: NodeId) -> u8 {
        self.cycles[node.index()]
    }

    /// Records that `node` was scheduled to start at `step`: its
    /// neighbours' bounds tighten monotonically.
    pub fn on_assign(&mut self, dfg: &Dfg, node: NodeId, step: CStep) {
        let finish = step.finish(self.cycles[node.index()]).get();
        for &s in dfg.succs(node) {
            let f = &mut self.pred_finish[s.index()];
            *f = (*f).max(finish);
        }
        for &p in dfg.preds(node) {
            let s = &mut self.succ_start[p.index()];
            *s = (*s).min(step.get());
        }
    }

    /// Records that `node` was unscheduled (local rescheduling): its
    /// neighbours' bounds are recomputed from their remaining scheduled
    /// neighbours, its own entry in `offsets` is reset, and the chained
    /// finish offsets of its scheduled dependents are repaired.
    /// `schedule` must already reflect the removal.
    ///
    /// The offset repair closes a staleness edge: a dependent that
    /// chained *after* the vacated node in the same step keeps carrying
    /// the vacated node's within-step delay in its accumulated offset,
    /// so a later `probe_move_frame` of one of *its* successors sees an
    /// inflated chaining base and can report a feasible range that
    /// opens one step too late. Scheduled chainable transitive
    /// successors are therefore recomputed here, in dependency (node
    /// index) order, from their remaining same-step predecessors.
    pub fn on_unassign(
        &mut self,
        dfg: &Dfg,
        schedule: &Schedule,
        offsets: &mut [Delay],
        node: NodeId,
    ) {
        for &s in dfg.succs(node) {
            self.pred_finish[s.index()] = dfg
                .preds(s)
                .iter()
                .filter_map(|&p| {
                    schedule
                        .start(p)
                        .map(|st| st.finish(self.cycles[p.index()]).get())
                })
                .max()
                .unwrap_or(0);
        }
        for &p in dfg.preds(node) {
            self.succ_start[p.index()] = dfg
                .succs(p)
                .iter()
                .filter_map(|&q| schedule.start(q))
                .map(|st| st.get())
                .min()
                .unwrap_or(u32::MAX);
        }

        offsets[node.index()] = Delay::ZERO;
        // Offsets only accumulate through scheduled chainable nodes, so
        // only those can go stale.
        let scratch = &mut self.repair;
        scratch.epoch = scratch.epoch.wrapping_add(1);
        if scratch.epoch == 0 {
            // The stamps wrapped: clear them once so no stale mark
            // matches the restarted epoch.
            scratch.stamp.fill(0);
            scratch.epoch = 1;
        }
        scratch.affected.clear();
        scratch.stack.clear();
        scratch.stack.extend_from_slice(dfg.succs(node));
        while let Some(q) = scratch.stack.pop() {
            if !self.chainable[q.index()] || schedule.start(q).is_none() {
                continue;
            }
            if scratch.stamp.is_empty() {
                scratch.stamp = vec![0; dfg.node_count()];
            }
            if scratch.stamp[q.index()] == scratch.epoch {
                continue;
            }
            scratch.stamp[q.index()] = scratch.epoch;
            scratch.affected.push(q);
            scratch.stack.extend_from_slice(dfg.succs(q));
        }
        // Builder node indices respect dependencies, so index order is a
        // topological order of the repair set.
        scratch.affected.sort_unstable();
        for &q in &scratch.affected {
            let start = schedule.start(q).expect("repair set is scheduled");
            let mut base = Delay::ZERO;
            for &p in dfg.preds(q) {
                if !self.chainable[p.index()] {
                    continue;
                }
                if let Some(ps) = schedule.start(p) {
                    if ps.finish(self.cycles[p.index()]) == start {
                        base = base.max(offsets[p.index()]);
                    }
                }
            }
            offsets[q.index()] = base + self.delays[q.index()];
        }
    }

    /// Max finish step over `node`'s scheduled predecessors (0 = none).
    pub fn pred_finish(&self, node: NodeId) -> u32 {
        self.pred_finish[node.index()]
    }

    /// Min start step over `node`'s scheduled successors
    /// (`u32::MAX` = none).
    pub fn succ_start(&self, node: NodeId) -> u32 {
        self.succ_start[node.index()]
    }
}

/// Everything frame computation needs to see: the graph, the partial
/// schedule and the incremental state kept in lock-step with it.
#[derive(Debug, Clone, Copy)]
pub struct FrameCtx<'a> {
    /// The graph being scheduled.
    pub dfg: &'a Dfg,
    /// Operation timing.
    pub spec: &'a TimingSpec,
    /// ASAP/ALAP frames (the primary frames).
    pub frames: &'a TimeFrames,
    /// The partial schedule.
    pub schedule: &'a Schedule,
    /// Chaining clock; `None` disables chaining.
    pub clock: Option<ClockPeriod>,
    /// Finish offsets (accumulated within-step delay) of scheduled
    /// chainable operations, `NodeId`-indexed.
    pub offsets: &'a [Delay],
    /// Incremental per-node bounds, kept in lock-step with `schedule`.
    pub bounds: &'a BoundsCache,
}

impl FrameCtx<'_> {
    /// Effective cycle count of `node` under the (optional) clock: the
    /// declared cycles, or `⌈delay/T⌉` for operations slower than the
    /// clock.
    pub(crate) fn effective_cycles(&self, node: NodeId) -> u8 {
        self.bounds.cycles[node.index()]
    }

    /// Whether `node` may share a step boundary with a dependent op.
    fn chainable(&self, node: NodeId) -> bool {
        self.bounds.chainable[node.index()]
    }

    /// Finish step of a scheduled node.
    fn finish_step(&self, node: NodeId) -> Option<CStep> {
        self.schedule
            .start(node)
            .map(|s| s.finish(self.effective_cycles(node)))
    }

    /// Whether placing `node` at `step` satisfies every *scheduled*
    /// predecessor and, under chaining, the within-step delay budget.
    ///
    /// Almost always a single compare against the cached predecessor
    /// bound: any step past the latest scheduled-predecessor finish is
    /// feasible with a zero chaining base, any step before it is not.
    /// Only the boundary step itself needs the per-predecessor walk
    /// (chaining may or may not admit it).
    pub(crate) fn dep_feasible(&self, node: NodeId, step: CStep) -> bool {
        let bound = self.bounds.pred_finish[node.index()];
        if step.get() > bound {
            return true;
        }
        if step.get() < bound {
            return false;
        }
        let node_chainable = self.chainable(node);
        let mut offset_base = Delay::ZERO;
        for &p in self.dfg.preds(node) {
            let Some(pf) = self.finish_step(p) else {
                continue;
            };
            if step > pf {
                continue;
            }
            if step == pf && node_chainable && self.chainable(p) {
                offset_base = offset_base.max(self.offsets[p.index()]);
                continue;
            }
            return false;
        }
        if node_chainable && offset_base > Delay::ZERO {
            let d = self.dfg.node(node).kind().delay(self.spec);
            let clock = self.clock.expect("chainable implies clock");
            if !clock.fits(offset_base, d) {
                return false;
            }
        }
        true
    }

    /// The finish offset `node` would have when placed at `step`.
    pub(crate) fn offset_after(&self, node: NodeId, step: CStep) -> Delay {
        if !self.chainable(node) {
            return Delay::ZERO;
        }
        let mut base = Delay::ZERO;
        for &p in self.dfg.preds(node) {
            if self.finish_step(p) == Some(step) && self.chainable(p) {
                base = base.max(self.offsets[p.index()]);
            }
        }
        base + self.dfg.node(node).kind().delay(self.spec)
    }
}

/// The dependency-feasible start-step range `[earliest, latest]` of
/// `node` under the current partial schedule (empty when
/// `earliest > latest`). This is the time extent of `PF − FF`, shared by
/// MFS and MFSA.
///
/// Derived in O(1) from the [`BoundsCache`] instead of scanning the
/// primary range: with `M` the latest scheduled-predecessor finish,
/// every step below `M` is dependency-infeasible, `M` itself is feasible
/// exactly when chaining admits the boundary, and everything above `M`
/// is feasible — so the earliest feasible step is the ASAP/ALAP clamp of
/// that threshold, bit-identical to the scan it replaces.
pub(crate) fn feasible_step_range(ctx: &FrameCtx<'_>, node: NodeId) -> (CStep, CStep) {
    let cycles = ctx.effective_cycles(node);
    let asap = ctx.frames.asap(node);
    let alap = ctx.frames.alap(node);

    // A pipeline stage (index > 0) must start EXACTLY one step after its
    // predecessor stage — "must be scheduled in consecutive control
    // steps" (§5.5.1). Once the predecessor stage is placed, the frame
    // collapses to that single step.
    if let hls_dfg::NodeKind::Stage { index, .. } = ctx.dfg.node(node).kind() {
        if index > 0 {
            let stage_pred = ctx
                .dfg
                .preds(node)
                .iter()
                .copied()
                .find(|&p| matches!(ctx.dfg.node(p).kind(), hls_dfg::NodeKind::Stage { .. }));
            if let Some(step) = stage_pred.and_then(|p| ctx.schedule.start(p)) {
                let fixed = step.offset(1);
                return if ctx.dep_feasible(node, fixed) {
                    (fixed, fixed)
                } else {
                    // Unsatisfiable fixed slot: return an empty range so
                    // the caller reschedules.
                    (fixed.offset(1), fixed)
                };
            }
        }
    }

    // Forbidden frame lower bound: the smallest dependency-feasible step,
    // clamped into [ASAP, ALAP + 1]. (Chaining can make feasibility
    // non-monotonic only at the single boundary step M.)
    let m = ctx.bounds.pred_finish[node.index()];
    let mut earliest = if m < asap.get() {
        asap
    } else if m > alap.get() {
        alap.offset(1)
    } else if ctx.dep_feasible(node, CStep::new(m)) {
        CStep::new(m)
    } else {
        CStep::new(m + 1)
    };

    // Scheduled successors cap the start step from above.
    let mut latest = alap;
    let s_min = ctx.bounds.succ_start[node.index()];
    if s_min != u32::MAX {
        // finish(node) ≤ start(succ) − 1 ⇒ start ≤ start(succ) − cycles.
        let bound = s_min.saturating_sub(cycles as u32);
        if bound < latest.get() {
            if bound == 0 {
                // No feasible step at all; empty range.
                latest = CStep::FIRST;
                earliest = latest.offset(1);
            } else {
                latest = CStep::new(bound);
            }
        }
    }
    (earliest, latest)
}

/// Computes the move frame of `node` on `grid` with `current_fu` visible
/// columns.
pub(crate) fn compute_move_frame(
    ctx: &FrameCtx<'_>,
    node: NodeId,
    grid: &Grid,
    current_fu: u32,
) -> FrameSnapshot {
    let class = ctx.dfg.node(node).kind().fu_class();
    let cycles = ctx.effective_cycles(node);
    let asap = ctx.frames.asap(node);
    let alap = ctx.frames.alap(node);
    let (earliest, latest) = feasible_step_range(ctx, node);

    let mut movable = Vec::new();
    let mut step = earliest;
    while step <= latest {
        if ctx.dep_feasible(node, step) {
            for fu in 1..=current_fu {
                let fu = FuIndex::new(fu);
                if grid.is_free_for(ctx.dfg, node, step, fu, cycles) {
                    movable.push(Position { step, fu });
                }
            }
        }
        step = step.offset(1);
    }

    FrameSnapshot {
        node,
        class,
        primary: (asap, alap),
        current_fu,
        max_fu: grid.max_fu(),
        earliest_feasible: earliest,
        latest_feasible: latest,
        af_steps: access_conflict_steps(ctx, node, (earliest, latest), grid, current_fu),
        movable,
    }
}

/// The access-conflict frame `AF` of `node` over the feasible `range`:
/// the dependency-feasible steps at which every visible port of the
/// node's memory bank is taken. Always empty for non-memory classes,
/// where a fully-occupied step is an ordinary resource conflict.
pub(crate) fn access_conflict_steps(
    ctx: &FrameCtx<'_>,
    node: NodeId,
    (earliest, latest): (CStep, CStep),
    grid: &Grid,
    columns: u32,
) -> Vec<CStep> {
    if !matches!(ctx.dfg.node(node).kind().fu_class(), FuClass::Mem(_)) {
        return Vec::new();
    }
    let cycles = ctx.effective_cycles(node);
    (earliest.get()..=latest.get())
        .map(CStep::new)
        .filter(|&step| {
            ctx.dep_feasible(node, step)
                && !(1..=columns)
                    .any(|fu| grid.is_free_for(ctx.dfg, node, step, FuIndex::new(fu), cycles))
        })
        .collect()
}

/// The order in which [`first_fit`] walks the cells of a move frame.
///
/// Each order is a total order on grid cells, so the first free cell of
/// the walk is the minimum of the whole frame under that order — for
/// MFS, the minimum-energy cell of its static Liapunov function (the
/// proof is on [`crate::mfs::schedule_traced_with_frames`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitOrder {
    /// Earliest step first, lowest column first within a step: the
    /// order of `V = x + n·y` (time-constrained MFS), and the earliest
    /// cell the partition stitcher and the compressing splice take.
    StepMajor,
    /// Lowest column first, earliest step first within a column: the
    /// order of `V = cs·x + y` (resource-constrained MFS).
    ColumnMajor,
    /// Latest step first, lowest column first within a step: the
    /// re-timing splice, which drifts producers toward their consumers.
    LatestStep,
}

impl FitOrder {
    /// The walk key of `cell`: the walk visits cells in increasing key.
    fn key(self, cell: Position) -> (u32, u32) {
        let (step, fu) = (cell.step.get(), cell.fu.get());
        match self {
            FitOrder::StepMajor => (step, fu),
            FitOrder::ColumnMajor => (fu, step),
            FitOrder::LatestStep => (u32::MAX - step, fu),
        }
    }
}

/// The answer of a [`first_fit`] query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FirstFit {
    /// The first free, dependency-feasible cell of the walk, or `None`
    /// when the walk found none.
    pub cell: Option<Position>,
    /// Cells the walk tested for occupancy, the found one included.
    pub probed: u32,
}

/// The first free cell of `node`'s move frame in `order`, without
/// building the frame.
///
/// The walk covers the same cells as [`probe_move_frame`]: the
/// dependency-feasible step range, columns `1..=columns`, and the cells
/// [`Grid::is_free_for`] admits. It stops at the first free cell, or as
/// soon as it reaches `before` (a strict upper bound in walk order — the
/// stitcher passes a node's old slot so only a strictly better cell
/// moves it). So `first_fit(..).cell` equals the minimum of
/// `probe_move_frame(..).movable` in walk order, restricted to cells
/// below `before`.
pub fn first_fit(
    ctx: &FrameCtx<'_>,
    node: NodeId,
    grid: &Grid,
    columns: u32,
    order: FitOrder,
    before: Option<Position>,
) -> FirstFit {
    let range = feasible_step_range(ctx, node);
    first_fit_in(ctx, node, range, grid, columns, order, before, |_| {})
}

/// [`first_fit`] over a precomputed feasible `range`, reporting every
/// probed cell to `on_probe` in walk order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn first_fit_in(
    ctx: &FrameCtx<'_>,
    node: NodeId,
    (earliest, latest): (CStep, CStep),
    grid: &Grid,
    columns: u32,
    order: FitOrder,
    before: Option<Position>,
    mut on_probe: impl FnMut(Position),
) -> FirstFit {
    let cycles = ctx.effective_cycles(node);
    let bound = before.map(|b| order.key(b));
    let mut probed = 0u32;
    // `Some(answer)` ends the walk.
    let mut visit = |step: u32, fu: u32| -> Option<Option<Position>> {
        let cell = Position {
            step: CStep::new(step),
            fu: FuIndex::new(fu),
        };
        if bound.is_some_and(|b| order.key(cell) >= b) {
            // Every later cell of the walk is past the bound too.
            return Some(None);
        }
        probed += 1;
        on_probe(cell);
        grid.is_free_for(ctx.dfg, node, cell.step, cell.fu, cycles)
            .then_some(Some(cell))
    };
    // Plain loops with a labelled break: the walk is the scheduler's
    // innermost loop, and a `ControlFlow` + `try_for_each` form over
    // inclusive ranges measured about twice as slow.
    let (lo, hi) = (earliest.get(), latest.get() + 1);
    let feasible = |s: u32| ctx.dep_feasible(node, CStep::new(s));
    let cell = 'walk: {
        match order {
            FitOrder::StepMajor => {
                for s in (lo..hi).filter(|&s| feasible(s)) {
                    for f in 1..columns + 1 {
                        if let Some(answer) = visit(s, f) {
                            break 'walk answer;
                        }
                    }
                }
            }
            FitOrder::ColumnMajor => {
                for f in 1..columns + 1 {
                    for s in (lo..hi).filter(|&s| feasible(s)) {
                        if let Some(answer) = visit(s, f) {
                            break 'walk answer;
                        }
                    }
                }
            }
            FitOrder::LatestStep => {
                for s in (lo..hi).rev().filter(|&s| feasible(s)) {
                    for f in 1..columns + 1 {
                        if let Some(answer) = visit(s, f) {
                            break 'walk answer;
                        }
                    }
                }
            }
        }
        None
    };
    FirstFit { cell, probed }
}

/// Computes the move frame of `node` from caller-owned state — the
/// public probing entry used by tests and microbenchmarks. `offsets` is
/// `NodeId`-indexed (use `Delay::ZERO` for unscheduled or non-chainable
/// nodes) and `bounds` must be consistent with `schedule` (every
/// assignment mirrored through [`BoundsCache::on_assign`] /
/// [`BoundsCache::on_unassign`]).
#[allow(clippy::too_many_arguments)]
pub fn probe_move_frame(
    dfg: &Dfg,
    spec: &TimingSpec,
    frames: &TimeFrames,
    schedule: &Schedule,
    clock: Option<ClockPeriod>,
    offsets: &[Delay],
    bounds: &BoundsCache,
    node: NodeId,
    grid: &Grid,
    current_fu: u32,
) -> FrameSnapshot {
    let ctx = FrameCtx {
        dfg,
        spec,
        frames,
        schedule,
        clock,
        offsets,
        bounds,
    };
    compute_move_frame(&ctx, node, grid, current_fu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_celllib::OpKind;
    use hls_dfg::DfgBuilder;
    use hls_schedule::{Slot, UnitId};

    fn ctx_fixture() -> (Dfg, TimingSpec) {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let p = b.op("p", OpKind::Add, &[x, y]).unwrap();
        b.op("q", OpKind::Add, &[p, y]).unwrap();
        (b.finish().unwrap(), TimingSpec::uniform_single_cycle())
    }

    #[test]
    fn forbidden_frame_excludes_predecessor_steps() {
        let (g, spec) = ctx_fixture();
        let p = g.node_by_name("p").unwrap();
        let q = g.node_by_name("q").unwrap();
        let frames = TimeFrames::compute(&g, &spec, 4).unwrap();
        let mut sched = hls_schedule::Schedule::new(&g, 4);
        let mut bounds = BoundsCache::new(&g, &spec, None);
        // Schedule p late (step 2): q's frame must start at 3.
        sched.assign(
            p,
            Slot {
                step: CStep::new(2),
                unit: UnitId::Fu {
                    class: FuClass::Op(OpKind::Add),
                    index: FuIndex::new(1),
                },
            },
        );
        bounds.on_assign(&g, p, CStep::new(2));
        let offsets = vec![Delay::ZERO; g.node_count()];
        let ctx = FrameCtx {
            dfg: &g,
            spec: &spec,
            frames: &frames,
            schedule: &sched,
            clock: None,
            offsets: &offsets,
            bounds: &bounds,
        };
        let grid = Grid::new(FuClass::Op(OpKind::Add), 4, 2);
        let snap = compute_move_frame(&ctx, q, &grid, 2);
        assert_eq!(snap.earliest_feasible, CStep::new(3));
        assert!(snap.movable.iter().all(|pos| pos.step >= CStep::new(3)));
        assert!(!snap.is_empty());
    }

    #[test]
    fn scheduled_successor_caps_the_frame() {
        let (g, spec) = ctx_fixture();
        let p = g.node_by_name("p").unwrap();
        let q = g.node_by_name("q").unwrap();
        let frames = TimeFrames::compute(&g, &spec, 4).unwrap();
        let mut sched = hls_schedule::Schedule::new(&g, 4);
        let mut bounds = BoundsCache::new(&g, &spec, None);
        sched.assign(
            q,
            Slot {
                step: CStep::new(3),
                unit: UnitId::Fu {
                    class: FuClass::Op(OpKind::Add),
                    index: FuIndex::new(1),
                },
            },
        );
        bounds.on_assign(&g, q, CStep::new(3));
        let offsets = vec![Delay::ZERO; g.node_count()];
        let ctx = FrameCtx {
            dfg: &g,
            spec: &spec,
            frames: &frames,
            schedule: &sched,
            clock: None,
            offsets: &offsets,
            bounds: &bounds,
        };
        let grid = Grid::new(FuClass::Op(OpKind::Add), 4, 2);
        let snap = compute_move_frame(&ctx, p, &grid, 2);
        assert_eq!(snap.latest_feasible, CStep::new(2));
        assert!(snap.movable.iter().all(|pos| pos.step <= CStep::new(2)));
    }

    #[test]
    fn occupied_columns_shrink_the_move_frame() {
        let (g, spec) = ctx_fixture();
        let p = g.node_by_name("p").unwrap();
        let q = g.node_by_name("q").unwrap();
        let frames = TimeFrames::compute(&g, &spec, 2).unwrap();
        let sched = hls_schedule::Schedule::new(&g, 2);
        let bounds = BoundsCache::new(&g, &spec, None);
        let offsets = vec![Delay::ZERO; g.node_count()];
        let ctx = FrameCtx {
            dfg: &g,
            spec: &spec,
            frames: &frames,
            schedule: &sched,
            clock: None,
            offsets: &offsets,
            bounds: &bounds,
        };
        let mut grid = Grid::new(FuClass::Op(OpKind::Add), 2, 1);
        grid.occupy(p, CStep::new(1), FuIndex::new(1), 1);
        // q (ASAP 2, ALAP 2) still fits at step 2.
        let snap = compute_move_frame(&ctx, q, &grid, 1);
        assert_eq!(snap.movable.len(), 1);
        assert_eq!(snap.movable[0].step, CStep::new(2));
        // Another op occupying step 2 empties the frame.
        grid.vacate(p);
        grid.occupy(p, CStep::new(2), FuIndex::new(1), 1);
        let snap = compute_move_frame(&ctx, q, &grid, 1);
        assert!(snap.is_empty());
    }

    #[test]
    fn chaining_admits_the_boundary_step() {
        let (g, _) = ctx_fixture();
        let spec = TimingSpec::with_delays(); // add = 48
        let p = g.node_by_name("p").unwrap();
        let q = g.node_by_name("q").unwrap();
        let clock = ClockPeriod::new(100);
        let frames = hls_schedule::chained_frames(&g, &spec, clock, 2)
            .unwrap()
            .into_frames();
        let mut sched = hls_schedule::Schedule::new(&g, 2);
        let mut bounds = BoundsCache::new(&g, &spec, Some(clock));
        sched.assign(
            p,
            Slot {
                step: CStep::new(1),
                unit: UnitId::Fu {
                    class: FuClass::Op(OpKind::Add),
                    index: FuIndex::new(1),
                },
            },
        );
        bounds.on_assign(&g, p, CStep::new(1));
        let mut offsets = vec![Delay::ZERO; g.node_count()];
        offsets[p.index()] = Delay::new(48);
        let ctx = FrameCtx {
            dfg: &g,
            spec: &spec,
            frames: &frames,
            schedule: &sched,
            clock: Some(clock),
            offsets: &offsets,
            bounds: &bounds,
        };
        let grid = Grid::new(FuClass::Op(OpKind::Add), 2, 2);
        let snap = compute_move_frame(&ctx, q, &grid, 2);
        // q may share step 1 (48 + 48 ≤ 100).
        assert_eq!(snap.earliest_feasible, CStep::new(1));
        assert_eq!(ctx.offset_after(q, CStep::new(1)), Delay::new(96));
        // With a tighter clock the boundary step is rejected.
        let tight = ClockPeriod::new(90);
        let bounds_tight = BoundsCache::new(&g, &spec, Some(tight));
        let mut bounds_tight = bounds_tight;
        bounds_tight.on_assign(&g, p, CStep::new(1));
        let ctx = FrameCtx {
            clock: Some(tight),
            bounds: &bounds_tight,
            ..ctx
        };
        assert!(!ctx.dep_feasible(q, CStep::new(1)));
        assert!(ctx.dep_feasible(q, CStep::new(2)));
    }
}
