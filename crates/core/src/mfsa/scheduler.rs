//! The MFSA move loop (paper §4.2), searched as a pruned
//! branch-and-bound over the Liapunov lower bound.
//!
//! Each operation's feasible steps enter a priority queue ordered by
//! their `f_TIME` lower bound; an incumbent best candidate then cuts
//! (a) every remaining queued step at once (the bound is monotone in
//! the step), (b) a popped step after its exact register term is known,
//! and (c) individual instances after their exact ALU term is known but
//! *before* the expensive mux repacking. Every cut compares the
//! candidate's best-case tie-break tuple against the incumbent's full
//! tuple, so only candidates that provably lose are skipped — the
//! committed schedule is bit-identical to the unpruned search, which
//! survives as [`super::ExhaustiveMfsa`] and differentials this loop in
//! `tests/mfsa_prune_differential.rs`.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use hls_celllib::{Delay, TimingSpec};
use hls_dfg::{BankId, Dfg, FuClass, NodeId, NodeKind, SignalId, SignalSource};
use hls_rtl::muxopt::{pack_seed, MuxOp, PackScratch, PackSeed};
use hls_rtl::{AluAllocation, CostReport, Datapath};
use hls_schedule::{
    chained_frames, priority_order, CStep, FuIndex, Schedule, Slot, TimeFrames, UnitId,
};

use hls_telemetry::{Instrument, Metrics, NullSink, TraceEvent};

use crate::frame::{feasible_step_range, BoundsCache, FrameCtx};
use crate::mfsa::cost::{mux_op, CostModel, RegEstimate};
use crate::mfsa::{DesignStyle, MfsaConfig};
use crate::MoveFrameError;

/// One scheduling-allocation decision, for inspection and the ablation
/// harness (recorded when [`MfsaConfig::with_trace`] is set).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterationTrace {
    /// The placed operation.
    pub node: NodeId,
    /// The chosen control step.
    pub step: CStep,
    /// The chosen ALU instance.
    pub instance: u32,
    /// Whether the instance was created (or upgraded) for this op.
    pub new_instance: bool,
    /// The Liapunov terms of the chosen position.
    pub f_time: u64,
    /// Incremental ALU term.
    pub f_alu: u64,
    /// Incremental multiplexer term.
    pub f_mux: u64,
    /// Incremental register term.
    pub f_reg: u64,
}

impl IterationTrace {
    /// The full Liapunov contribution of this decision.
    pub fn f_total(&self) -> u64 {
        self.f_time + self.f_alu + self.f_mux + self.f_reg
    }
}

/// The result of an MFSA run: schedule, allocation, assembled data path
/// and its cost report.
#[derive(Debug, Clone)]
pub struct MfsaOutcome {
    /// The complete schedule (every unit an [`UnitId::Alu`]).
    pub schedule: Schedule,
    /// Instance → ALU-kind allocation.
    pub allocation: AluAllocation,
    /// The derived RTL structure.
    pub datapath: Datapath,
    /// Its Table-2 cost report.
    pub cost: CostReport,
    /// The ASAP/ALAP frames of the run.
    pub frames: TimeFrames,
    /// Per-iteration decisions (empty unless tracing was enabled).
    pub trace: Vec<IterationTrace>,
}

/// Internal state of one allocated ALU instance.
#[derive(Default)]
pub(crate) struct Instance {
    pub(crate) kind_index: usize,
    /// Hosted operations as `(node, start step, cycles held)` — the one
    /// occupancy record; [`instance_free`] walks it under `wrap` only
    /// when a busy bit is set *and* the probing node has mutual
    /// exclusions to check.
    pub(crate) ops: Vec<(NodeId, u32, u8)>,
    /// Operand lines of the hosted operations, in commit order.
    pub(crate) mux_ops: Vec<MuxOp<u32>>,
    /// One bit per wrapped step with any occupant — the fast reject for
    /// [`instance_free`].
    pub(crate) busy_bits: Vec<u64>,
}

impl Instance {
    /// Hosts `node` from `step` for `cycles` steps with operand lines
    /// `mux_op`.
    pub(crate) fn host(
        &mut self,
        node: NodeId,
        step: CStep,
        cycles: u8,
        mux_op: MuxOp<u32>,
        wrap: &impl Fn(u32) -> u32,
    ) {
        self.ops.push((node, step.get(), cycles));
        self.mux_ops.push(mux_op);
        for k in 0..cycles as u32 {
            let s = wrap(step.get() + k);
            let word = s as usize / 64;
            if self.busy_bits.len() <= word {
                self.busy_bits.resize(word + 1, 0);
            }
            self.busy_bits[word] |= 1 << (s % 64);
        }
    }
}

/// One scored candidate position.
pub(crate) struct Candidate {
    pub(crate) step: CStep,
    /// Existing instance index, or `None` for a new instance.
    pub(crate) instance: Option<usize>,
    /// Kind the instance will have after the move (new kind for
    /// creations and upgrades; unchanged for plain reuse).
    pub(crate) kind_index: usize,
    pub(crate) f_time: u64,
    pub(crate) f_alu: u64,
    pub(crate) f_mux: u64,
    pub(crate) f_reg: u64,
    /// 0 = reuse, 1 = upgrade, 2 = new (tie-break order).
    pub(crate) flavour: u8,
}

impl Candidate {
    pub(crate) fn total(&self) -> u64 {
        self.f_time + self.f_alu + self.f_mux + self.f_reg
    }
}

/// The full tie-break key: candidates are compared lexicographically on
/// `(energy, step, flavour, instance, kind)` and the incumbent is only
/// replaced on a strict win.
type CandidateKey = (u64, CStep, u8, usize, usize);

fn candidate_key(c: &Candidate) -> CandidateKey {
    (
        c.total(),
        c.step,
        c.flavour,
        c.instance.unwrap_or(usize::MAX),
        c.kind_index,
    )
}

/// Whether a candidate set whose *best-case* key is `bound` can be cut:
/// each component of a real candidate's key is ≥ the corresponding
/// bound component, so the real key is lexicographically ≥ `bound`, and
/// `bound ≥ incumbent` proves every such candidate loses the strict-`<`
/// tie-break. With no incumbent nothing is cut.
fn cut(best: &Option<Candidate>, bound: CandidateKey) -> bool {
    best.as_ref().is_some_and(|b| bound >= candidate_key(b))
}

fn consider(best: &mut Option<Candidate>, c: Candidate) {
    let better = match best {
        None => true,
        Some(b) => candidate_key(&c) < candidate_key(b),
    };
    if better {
        *best = Some(c);
    }
}

/// Step-invariant ALU-level terms of a reuse/upgrade candidate on an
/// instance of one ALU kind: `(kind after the move, f_ALU, flavour)`,
/// or `None` when no superset kind exists. They depend only on the
/// instance's current kind and the op, so the scheduler memoizes them
/// per kind, not per instance; the mux-repacking delta is memoized per
/// instance and computed only for candidates whose ALU-level bound
/// survives the incumbent cut.
type AluCost = Option<(usize, u64, u8)>;

/// Counters of one node's branch-and-bound search, flushed into the
/// instrument after the frame scan.
#[derive(Default)]
struct PruneStats {
    /// Dependency-feasible steps inside the frame (queue inserts).
    feasible_steps: u64,
    /// Steps whose candidates were actually examined.
    expanded_steps: u64,
    /// Steps cut by the bound — wholesale queue drains plus per-step
    /// register-bound cuts. `expanded + cut == feasible`, always.
    cut_steps: u64,
    /// Candidates whose cheap bound was computed at an expanded step.
    bound_evals: u64,
    /// Bound-evaluated candidates cut before full scoring.
    /// `bound_evals == cut_instances + full evaluations`, always.
    cut_instances: u64,
}

impl PruneStats {
    fn flush(&self, instr: &mut Instrument<'_>) {
        instr.inc("mfsa.steps.feasible", self.feasible_steps);
        instr.inc("mfsa.steps.expanded", self.expanded_steps);
        instr.inc("mfsa.prune.cut_steps", self.cut_steps);
        instr.inc("mfsa.bound.evals", self.bound_evals);
        instr.inc("mfsa.prune.cut_instances", self.cut_instances);
    }
}

/// Runs Move Frame Scheduling-Allocation on `dfg` under `spec` and
/// `config`.
///
/// Each operation, in priority order, is offered every feasible
/// `(control step, ALU)` position inside its move frame, where the ALU
/// may be an existing compatible instance (`f_ALU = 0`), an existing
/// instance *upgraded* to a multifunction kind covering its current
/// operations plus the new one (`f_ALU =` the area difference — this is
/// how function merging "can significantly decrease the overall ALU
/// cost", §2.3), or a fresh instance of any capable kind
/// (`f_ALU =` its area). The dynamic Liapunov function picks the
/// cheapest position; ties break towards earlier steps, reuse before
/// upgrade before creation, then lower instance numbers.
///
/// # Errors
///
/// * [`MoveFrameError::Schedule`] — infeasible time constraint;
/// * [`MoveFrameError::NoCapableAlu`] — the library cannot perform some
///   operation;
/// * [`MoveFrameError::NoPosition`] — no dependency-feasible step exists
///   (only possible for adversarial partial orders);
/// * [`MoveFrameError::Dfg`] — folded loop bodies must be scheduled
///   hierarchically (see [`crate::loops`]), not passed to MFSA.
pub fn schedule(
    dfg: &Dfg,
    spec: &TimingSpec,
    config: &MfsaConfig,
) -> Result<MfsaOutcome, MoveFrameError> {
    let mut sink = NullSink;
    let mut metrics = Metrics::new();
    schedule_traced(
        dfg,
        spec,
        config,
        &mut Instrument::new(&mut sink, &mut metrics),
    )
}

/// [`schedule`] with instrumentation: phase spans, counters and (when
/// the sink is enabled) per-candidate trace events flow into `instr`.
///
/// Event conventions (see `hls-telemetry`):
///
/// * `EnergyEvaluated` — one per *fully scored* candidate, `pos =
///   (instance, step)` 1-based (a new instance gets the next free
///   number) and `v` the dynamic `f_TIME + f_ALU + f_MUX + f_REG`.
///   Candidates cut by the branch-and-bound emit no event — the cut
///   proves they lose, so the committed moves (and every `v` actually
///   emitted) are identical to the exhaustive search's;
/// * `MoveCommitted` — the winning candidate; `from`/`system_v` are
///   `None` (MFSA moves operations out of a conceptual unplaced pool, so
///   there is no prior grid cell and the dynamic terms are incremental).
///
/// Counters split committed moves by flavour (`mfsa.reuse_moves`,
/// `mfsa.upgrade_moves`, `mfsa.new_instances` — the §2.3 function-merging
/// signal), and the `mfsa.candidates` histogram records how many
/// positions each operation was actually scored at.
///
/// The branch-and-bound search is accounted exactly by five counters:
/// `mfsa.steps.feasible == mfsa.steps.expanded + mfsa.prune.cut_steps`
/// (every dependency-feasible step is either expanded or cut) and
/// `mfsa.bound.evals == mfsa.energy_evaluations +
/// mfsa.prune.cut_instances` (every candidate whose bound was computed
/// at an expanded step is either fully scored or cut). Both invariants
/// are enforced per run by `tests/mfsa_prune_differential.rs`.
///
/// Instrumentation is write-only: the returned outcome is bit-identical
/// to [`schedule`]'s for any sink.
///
/// # Errors
///
/// As for [`schedule`].
pub fn schedule_traced(
    dfg: &Dfg,
    spec: &TimingSpec,
    config: &MfsaConfig,
    instr: &mut Instrument<'_>,
) -> Result<MfsaOutcome, MoveFrameError> {
    schedule_traced_with_frames(dfg, spec, config, None, instr)
}

/// [`schedule_traced`] with optionally precomputed time frames.
///
/// Batch harnesses (the `hls-explore` engine) compute ASAP/ALAP frames
/// once per `(dfg, spec, cs, clock)` and share them across every design
/// point at that time constraint; passing them here skips the
/// `mfsa.frames` phase. The frames **must** come from the same graph,
/// timing spec, clock setting and time constraint as this run — as a
/// guard, frames whose control-step count differs from
/// `config.control_steps()` are discarded and recomputed. The outcome is
/// bit-identical to [`schedule_traced`]'s either way.
///
/// # Errors
///
/// As for [`schedule`].
pub fn schedule_traced_with_frames(
    dfg: &Dfg,
    spec: &TimingSpec,
    config: &MfsaConfig,
    precomputed: Option<TimeFrames>,
    instr: &mut Instrument<'_>,
) -> Result<MfsaOutcome, MoveFrameError> {
    let cs = config.control_steps();
    let library = config.library();
    config.cancel().checkpoint()?;

    for (id, node) in dfg.nodes() {
        if matches!(node.kind(), NodeKind::LoopBody { .. }) {
            return Err(MoveFrameError::Dfg(hls_dfg::DfgError::EmptyLoop(
                match node.kind() {
                    NodeKind::LoopBody { loop_id, .. } => loop_id,
                    _ => unreachable!(),
                },
            )));
        }
        // Memory accesses run on bank ports declared in the graph, not
        // on library ALUs — no capability check applies.
        if node.kind().is_mem_access() {
            continue;
        }
        let op = base_op(dfg, id);
        if library.alus_supporting(op).next().is_none() {
            return Err(MoveFrameError::NoCapableAlu { node: id });
        }
    }

    let frames = instr.span("mfsa.frames", |instr| {
        match precomputed.filter(|f| f.control_steps() == cs) {
            Some(frames) => {
                instr.inc("mfsa.frames.reused", 1);
                Ok(frames)
            }
            None => match config.clock() {
                Some(clock) => Ok(chained_frames(dfg, spec, clock, cs)?.into_frames()),
                None => TimeFrames::compute(dfg, spec, cs),
            },
        }
    })?;
    let order = instr.span("mfsa.priority", |_| priority_order(dfg, spec, &frames));
    let model = CostModel::new(library, config.weights());

    let wrap = |step: u32| match config.latency() {
        Some(l) => (step - 1) % l + 1,
        None => step,
    };

    let mut sched = Schedule::new(dfg, cs);
    let mut offsets: Vec<Delay> = vec![Delay::ZERO; dfg.node_count()];
    let mut bounds = BoundsCache::new(dfg, spec, config.clock());
    let mut instances: Vec<Instance> = Vec::new();
    // Cached unweighted mux-pair cost of each instance's *committed*
    // packing — the `before` term of every f_MUX delta. Only a commit
    // changes an instance's operation set, so the entry survives whole
    // node scans and each candidate evaluation packs once, not twice.
    // `None` = stale (instance just grew).
    let mut mux_before: Vec<Option<u64>> = Vec::new();
    // The committed packing's refcount seed per instance, for the safe
    // one-op insertion rule: a candidate whose operand lines are
    // already carried by the instance is priced f_MUX = 0 without any
    // repack, and a committed move covered by the rule extends the
    // seed in place instead of invalidating it.
    let mut mux_seed: Vec<Option<PackSeed<u32>>> = Vec::new();
    // The one packing scratch every f_MUX price of this run goes
    // through, and the per-node memo buffers, reused across nodes.
    let mut scratch = PackScratch::new();
    let mut alu_costs: Vec<Option<AluCost>> = vec![None; library.alus().len()];
    let mut mux_costs: Vec<Option<u64>> = Vec::new();
    let mut related: Vec<u32> = Vec::new();
    // Bank-port occupancy: (bank, 1-based port, wrapped step) → nodes.
    let mut mem_busy: BTreeMap<(BankId, u32, u32), Vec<NodeId>> = BTreeMap::new();
    let mut reg_est = RegEstimate::new();
    let mut trace = Vec::new();

    instr.span("mfsa.move_loop", |instr| {
        for node in order {
            config.cancel().checkpoint()?;

            // Memory accesses: the candidate positions are (step, bank
            // port) pairs. Ports are free hardware once the bank exists,
            // so only the time and register terms of the Liapunov
            // function apply; the declared port count is a hard limit,
            // which makes every committed schedule port-safe by
            // construction.
            if dfg.node(node).kind().is_mem_access() {
                let FuClass::Mem(bank) = dfg.node(node).kind().fu_class() else {
                    unreachable!("mem accesses have a Mem class");
                };
                let ports = dfg.bank_ports(bank);
                // (total, step, port, f_time, f_reg), min by (total,
                // step, port).
                let mut best: Option<(u64, CStep, u32, u64, u64)> = None;
                let mut n_candidates = 0u64;
                let mut prune = PruneStats::default();
                let (cycles, offset) = {
                    let ctx = FrameCtx {
                        dfg,
                        spec,
                        frames: &frames,
                        schedule: &sched,
                        clock: config.clock(),
                        offsets: &offsets,
                        bounds: &bounds,
                    };
                    let (earliest, latest) = feasible_step_range(&ctx, node);
                    let cycles = ctx.effective_cycles(node);
                    // Feasible steps, ordered by their f_TIME lower
                    // bound (ties towards earlier steps). f_TIME is
                    // non-decreasing in the step, so the queue pops
                    // steps in ascending order — the same order the
                    // exhaustive scan visits them.
                    let mut queue: BinaryHeap<Reverse<(u64, CStep)>> = BinaryHeap::new();
                    let mut step = earliest;
                    while step <= latest {
                        if ctx.dep_feasible(node, step) && step.finish(cycles).get() <= cs {
                            queue.push(Reverse((model.lower_bound(step.get(), 0), step)));
                        }
                        step = step.offset(1);
                    }
                    prune.feasible_steps = queue.len() as u64;
                    while let Some(&Reverse((f_time, step))) = queue.peek() {
                        // Wholesale cut: every remaining step's best
                        // case — port 0 is below any real port — is no
                        // better than this one's.
                        if let Some((bt, bs, bp, ..)) = best {
                            if (f_time, step, 0u32) >= (bt, bs, bp) {
                                prune.cut_steps += queue.len() as u64;
                                break;
                            }
                        }
                        queue.pop();
                        let extensions = reg_extensions(dfg, &sched, spec, node, step);
                        let f_reg = model.f_reg(
                            reg_est
                                .count_with(&extensions)
                                .saturating_sub(reg_est.count()),
                        );
                        // Step-level cut with the exact register term:
                        // a port candidate's energy is exactly
                        // f_TIME + f_REG, so this cut only skips
                        // candidates that would lose the tie-break.
                        if let Some((bt, bs, bp, ..)) = best {
                            if (f_time + f_reg, step, 0u32) >= (bt, bs, bp) {
                                prune.cut_steps += 1;
                                continue;
                            }
                        }
                        prune.expanded_steps += 1;
                        for port in 1..=ports {
                            let free = (0..cycles as u32).all(|k| {
                                mem_busy
                                    .get(&(bank, port, wrap(step.get() + k)))
                                    .is_none_or(|occ| {
                                        occ.iter().all(|&o| dfg.mutually_exclusive(node, o))
                                    })
                            });
                            if !free {
                                continue;
                            }
                            n_candidates += 1;
                            prune.bound_evals += 1;
                            let total = f_time + f_reg;
                            if instr.enabled() {
                                instr.emit(TraceEvent::EnergyEvaluated {
                                    op: node.index() as u32,
                                    pos: (port, step.get()),
                                    v: total,
                                });
                            }
                            let better = match best {
                                None => true,
                                Some((bt, bs, bp, ..)) => (total, step, port) < (bt, bs, bp),
                            };
                            if better {
                                best = Some((total, step, port, f_time, f_reg));
                            }
                        }
                    }
                    let offset = match best {
                        Some((_, step, ..)) => ctx.offset_after(node, step),
                        None => Delay::ZERO,
                    };
                    (cycles, offset)
                };
                prune.flush(instr);
                instr.inc("mfsa.energy_evaluations", n_candidates);
                instr.observe("mfsa.candidates", n_candidates);
                let Some((total, step, port, f_time, f_reg)) = best else {
                    return Err(MoveFrameError::NoPosition {
                        node,
                        class: FuClass::Mem(bank),
                        max_fu: ports,
                    });
                };
                for k in 0..cycles as u32 {
                    mem_busy
                        .entry((bank, port, wrap(step.get() + k)))
                        .or_default()
                        .push(node);
                }
                sched.assign(
                    node,
                    Slot {
                        step,
                        unit: UnitId::Fu {
                            class: FuClass::Mem(bank),
                            index: FuIndex::new(port),
                        },
                    },
                );
                offsets[node.index()] = offset;
                bounds.on_assign(dfg, node, step);
                let extensions = reg_extensions(dfg, &sched, spec, node, step);
                reg_est.commit(&extensions);
                instr.inc("mfsa.moves_committed", 1);
                instr.inc("mfsa.mem_moves", 1);
                if instr.enabled() {
                    instr.emit(TraceEvent::MoveCommitted {
                        op: node.index() as u32,
                        from: None,
                        to: (port, step.get()),
                        v: total,
                        system_v: None,
                    });
                }
                if config.records_trace() {
                    trace.push(IterationTrace {
                        node,
                        step,
                        instance: port,
                        new_instance: false,
                        f_time,
                        f_alu: 0,
                        f_mux: 0,
                        f_reg,
                    });
                }
                continue;
            }

            let op = base_op(dfg, node);

            let mut best: Option<Candidate> = None;
            let mut n_candidates = 0u64;
            let mut memo_hits = 0u64;
            let mut memo_fills = 0u64;
            let mut memo_insert_hits = 0u64;
            let mut memo_insert_fallbacks = 0u64;
            let mut prune = PruneStats::default();
            let next_instance = instances.len() as u32 + 1;

            let (cycles, mux_op, offset) = {
                let ctx = FrameCtx {
                    dfg,
                    spec,
                    frames: &frames,
                    schedule: &sched,
                    clock: config.clock(),
                    offsets: &offsets,
                    bounds: &bounds,
                };
                let (earliest, latest) = feasible_step_range(&ctx, node);
                let cycles = ctx.effective_cycles(node);
                // Operand lines for the f_MUX estimate (independent of
                // the candidate position in this model).
                let mux_op = mux_op(dfg, &sched, config.shares_interconnect(), node);

                // ALU-level candidate terms (kind search), memoized per
                // ALU kind: they depend only on the instance's current
                // kind, which is frozen while this node scans its frame.
                // Filled lazily on the first free instance of the kind.
                alu_costs.fill(None);
                // Mux-repacking deltas, also step-invariant but far more
                // expensive and specific to each instance's operations —
                // memoized per instance and computed only for candidates
                // whose ALU-level bound survives the incumbent cut.
                mux_costs.clear();
                mux_costs.resize(instances.len(), None);
                // Design style 2 keeps an operation off the instances of
                // its direct predecessors and successors.
                related.clear();
                if config.style() == DesignStyle::NoSelfLoop {
                    related.extend(dfg.preds(node).iter().chain(dfg.succs(node)).filter_map(
                        |&o| match sched.slot(o).map(|s| s.unit) {
                            Some(UnitId::Alu { instance }) => Some(instance),
                            _ => None,
                        },
                    ));
                }
                let fresh_mux = model.f_mux(&mut scratch, &[], mux_op);
                let new_kinds: Vec<(usize, u64)> = library
                    .alus()
                    .iter()
                    .enumerate()
                    .filter(|(_, k)| k.supports(op))
                    .map(|(kind_index, k)| (kind_index, model.f_alu(k.area())))
                    .collect();

                // Feasible steps, ordered by their f_TIME lower bound
                // (ties towards earlier steps). f_TIME is
                // non-decreasing in the step, so the queue pops steps
                // in ascending order and candidates are examined in
                // exactly the exhaustive loop's order — equal-key ties
                // resolve identically under the strict-`<` tie-break.
                let mut queue: BinaryHeap<Reverse<(u64, CStep)>> = BinaryHeap::new();
                let mut step = earliest;
                while step <= latest {
                    if ctx.dep_feasible(node, step) && step.finish(cycles).get() <= cs {
                        queue.push(Reverse((model.lower_bound(step.get(), 0), step)));
                    }
                    step = step.offset(1);
                }
                prune.feasible_steps = queue.len() as u64;

                while let Some(&Reverse((f_time, step))) = queue.peek() {
                    // (a) Wholesale cut: every remaining queued step
                    // bounds ≥ this one's, so once the best case at
                    // the cheapest remaining step cannot beat the
                    // incumbent, nothing left in the queue can.
                    if cut(&best, (f_time, step, 0, 0, 0)) {
                        prune.cut_steps += queue.len() as u64;
                        break;
                    }
                    queue.pop();
                    let extensions = reg_extensions(dfg, &sched, spec, node, step);
                    let f_reg = model.f_reg(
                        reg_est
                            .count_with(&extensions)
                            .saturating_sub(reg_est.count()),
                    );
                    // (b) Step-level cut with the exact register term
                    // folded into the bound.
                    if cut(&best, (model.lower_bound(step.get(), f_reg), step, 0, 0, 0)) {
                        prune.cut_steps += 1;
                        continue;
                    }
                    prune.expanded_steps += 1;

                    // Existing instances: reuse or upgrade.
                    for (i, inst) in instances.iter().enumerate() {
                        if !instance_free(inst, dfg, node, step, cycles, &wrap) {
                            continue;
                        }
                        if related.contains(&(i as u32)) {
                            continue;
                        }
                        let alu = alu_costs[inst.kind_index].get_or_insert_with(|| {
                            let cur_kind = &library.alus()[inst.kind_index];
                            if cur_kind.supports(op) {
                                Some((inst.kind_index, 0, 0))
                            } else {
                                // Cheapest superset kind covering old
                                // ops + op.
                                library
                                    .alus()
                                    .iter()
                                    .enumerate()
                                    .filter(|(_, k)| {
                                        k.supports(op) && cur_kind.ops().all(|o| k.supports(o))
                                    })
                                    .min_by_key(|(idx, k)| (k.area(), *idx))
                                    .map(|(kind_index, kind)| {
                                        (
                                            kind_index,
                                            model
                                                .f_alu(kind.area().saturating_sub(cur_kind.area())),
                                            1,
                                        )
                                    })
                            }
                        });
                        let Some((kind_index, f_alu, flavour)) = *alu else {
                            continue;
                        };
                        prune.bound_evals += 1;
                        // (c) Instance-level cut: everything but the
                        // mux term is exact here, so the bound is the
                        // candidate's own key minus f_MUX ≥ 0.
                        if cut(
                            &best,
                            (f_time + f_reg + f_alu, step, flavour, i, kind_index),
                        ) {
                            prune.cut_instances += 1;
                            continue;
                        }
                        if mux_costs[i].is_some() {
                            memo_hits += 1;
                        } else {
                            memo_fills += 1;
                        }
                        let f_mux = *mux_costs[i].get_or_insert_with(|| {
                            // Safe one-op insertion: a candidate whose
                            // operand lines the committed packing
                            // already carries is provably cost-neutral
                            // — priced zero with no repack.
                            let seed = mux_seed[i].get_or_insert_with(|| pack_seed(&inst.mux_ops));
                            if seed.neutral_insertion(&mux_op).is_some() {
                                memo_insert_hits += 1;
                                return 0;
                            }
                            memo_insert_fallbacks += 1;
                            let before = *mux_before[i].get_or_insert_with(|| {
                                model.mux_pair_cost(&mut scratch, &inst.mux_ops)
                            });
                            model.f_mux_from(&mut scratch, before, &inst.mux_ops, mux_op)
                        });
                        let c = Candidate {
                            step,
                            instance: Some(i),
                            kind_index,
                            f_time,
                            f_alu,
                            f_mux,
                            f_reg,
                            flavour,
                        };
                        n_candidates += 1;
                        if instr.enabled() {
                            instr.emit(TraceEvent::EnergyEvaluated {
                                op: node.index() as u32,
                                pos: (i as u32 + 1, c.step.get()),
                                v: c.total(),
                            });
                        }
                        consider(&mut best, c);
                    }

                    // New instances of every capable kind. The fresh
                    // mux cost is precomputed, so the bound is the
                    // exact key — the cut skips only sure losers.
                    for &(kind_index, f_alu) in &new_kinds {
                        prune.bound_evals += 1;
                        let total = f_time + f_reg + f_alu + fresh_mux;
                        if cut(&best, (total, step, 2, usize::MAX, kind_index)) {
                            prune.cut_instances += 1;
                            continue;
                        }
                        let c = Candidate {
                            step,
                            instance: None,
                            kind_index,
                            f_time,
                            f_alu,
                            f_mux: fresh_mux,
                            f_reg,
                            flavour: 2,
                        };
                        n_candidates += 1;
                        if instr.enabled() {
                            instr.emit(TraceEvent::EnergyEvaluated {
                                op: node.index() as u32,
                                pos: (next_instance, c.step.get()),
                                v: c.total(),
                            });
                        }
                        consider(&mut best, c);
                    }
                }
                let offset = match &best {
                    Some(c) => ctx.offset_after(node, c.step),
                    None => Delay::ZERO,
                };
                (cycles, mux_op, offset)
            };

            prune.flush(instr);
            instr.inc("mfsa.energy_evaluations", n_candidates);
            instr.observe("mfsa.candidates", n_candidates);
            instr.inc("mfsa.reuse_memo.hits", memo_hits);
            instr.inc("mfsa.reuse_memo.fills", memo_fills);
            instr.inc("mfsa.reuse_memo.insert_hits", memo_insert_hits);
            instr.inc("mfsa.reuse_memo.insert_fallbacks", memo_insert_fallbacks);
            let Some(chosen) = best else {
                return Err(MoveFrameError::NoPosition {
                    node,
                    class: dfg.node(node).kind().fu_class(),
                    max_fu: instances.len() as u32,
                });
            };

            // Commit the move.
            let instance_idx = match chosen.instance {
                Some(i) => {
                    instances[i].kind_index = chosen.kind_index;
                    // A committed move covered by the insertion rule
                    // extends the seed in place — its pair cost is
                    // unchanged, so `mux_before` stays valid too.
                    let absorbed = mux_seed[i]
                        .as_mut()
                        .is_some_and(|seed| seed.try_insert(&mux_op));
                    if !absorbed {
                        mux_seed[i] = None;
                        mux_before[i] = None;
                    }
                    i
                }
                None => {
                    instances.push(Instance {
                        kind_index: chosen.kind_index,
                        ..Instance::default()
                    });
                    mux_before.push(None);
                    mux_seed.push(None);
                    instances.len() - 1
                }
            };
            instances[instance_idx].host(node, chosen.step, cycles, mux_op, &wrap);
            sched.assign(
                node,
                Slot {
                    step: chosen.step,
                    unit: UnitId::Alu {
                        instance: instance_idx as u32,
                    },
                },
            );
            offsets[node.index()] = offset;
            bounds.on_assign(dfg, node, chosen.step);
            let extensions = reg_extensions(dfg, &sched, spec, node, chosen.step);
            reg_est.commit(&extensions);
            instr.inc("mfsa.moves_committed", 1);
            instr.inc(
                match chosen.flavour {
                    0 => "mfsa.reuse_moves",
                    1 => "mfsa.upgrade_moves",
                    _ => "mfsa.new_instances",
                },
                1,
            );
            if instr.enabled() {
                instr.emit(TraceEvent::MoveCommitted {
                    op: node.index() as u32,
                    from: None,
                    to: (instance_idx as u32 + 1, chosen.step.get()),
                    v: chosen.total(),
                    system_v: None,
                });
            }
            if config.records_trace() {
                trace.push(IterationTrace {
                    node,
                    step: chosen.step,
                    instance: instance_idx as u32,
                    new_instance: chosen.flavour != 0,
                    f_time: chosen.f_time,
                    f_alu: chosen.f_alu,
                    f_mux: chosen.f_mux,
                    f_reg: chosen.f_reg,
                });
            }
        }
        Ok(())
    })?;

    // Assemble the data path.
    config.cancel().checkpoint()?;
    let mut allocation = AluAllocation::new();
    for inst in &instances {
        allocation.push(library.alus()[inst.kind_index].clone());
    }
    let (datapath, cost) = instr.span("mfsa.datapath", |_| {
        let datapath = Datapath::build(dfg, &sched, &allocation, spec)
            .expect("MFSA produces structurally sound bindings");
        let cost = CostReport::compute(&datapath, library);
        (datapath, cost)
    });

    Ok(MfsaOutcome {
        schedule: sched,
        allocation,
        datapath,
        cost,
        frames,
        trace,
    })
}

/// The operator an ALU must support to execute `node`.
pub(crate) fn base_op(dfg: &Dfg, node: NodeId) -> hls_celllib::OpKind {
    match dfg.node(node).kind() {
        NodeKind::Op(k) => k,
        NodeKind::Stage { base, .. } => base,
        _ => unreachable!("loops and mem accesses never reach base_op"),
    }
}

/// Whether `inst` can host `node` starting at `step` for `cycles` steps.
pub(crate) fn instance_free(
    inst: &Instance,
    dfg: &Dfg,
    node: NodeId,
    step: CStep,
    cycles: u8,
    wrap: &impl Fn(u32) -> u32,
) -> bool {
    let occupied = (0..cycles as u32).any(|k| {
        let s = wrap(step.get() + k);
        inst.busy_bits
            .get(s as usize / 64)
            .is_some_and(|w| w >> (s % 64) & 1 == 1)
    });
    if !occupied {
        return true;
    }
    // Occupied steps are only survivable through mutual exclusion: every
    // occupant sharing a wrapped step with the probe must exclude it.
    if !dfg.has_exclusions(node) {
        return false;
    }
    inst.ops.iter().all(|&(o, start, held)| {
        let overlaps = (0..held as u32).any(|j| {
            let s = wrap(start + j);
            (0..cycles as u32).any(|k| wrap(step.get() + k) == s)
        });
        !overlaps || dfg.mutually_exclusive(node, o)
    })
}

/// The register-span extensions placing `node` at `step` would cause
/// (inputs only, per §4.1).
pub(crate) fn reg_extensions(
    dfg: &Dfg,
    sched: &Schedule,
    spec: &TimingSpec,
    node: NodeId,
    step: CStep,
) -> Vec<(SignalId, u32, u32)> {
    let mut out = Vec::new();
    for &sig in dfg.node(node).inputs() {
        match dfg.signal(sig).source() {
            SignalSource::Constant(_) => {}
            SignalSource::PrimaryInput => out.push((sig, 1, step.get())),
            SignalSource::Node(p) => {
                if let Some(p_finish) = sched.finish(p, dfg, spec) {
                    if step > p_finish {
                        out.push((sig, p_finish.get() + 1, step.get()));
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mfsa::Weights;
    use hls_celllib::{Library, OpKind};
    use hls_dfg::DfgBuilder;
    use hls_rtl::verify_datapath;
    use hls_schedule::{verify, VerifyOptions};

    fn assert_sound(dfg: &Dfg, spec: &TimingSpec, out: &MfsaOutcome, opts: VerifyOptions) {
        let v = verify(dfg, &out.schedule, spec, opts);
        assert!(v.is_empty(), "schedule violations: {v:?}");
        let rv = verify_datapath(dfg, &out.schedule, &out.datapath, spec);
        assert!(rv.is_empty(), "datapath violations: {rv:?}");
    }

    fn add_sub_chain() -> Dfg {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.op("a", OpKind::Add, &[x, y]).unwrap();
        b.op("s", OpKind::Sub, &[a, y]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn merges_add_and_sub_into_one_multifunction_alu() {
        let g = add_sub_chain();
        let spec = TimingSpec::uniform_single_cycle();
        let lib = Library::ncr_like();
        let out = schedule(&g, &spec, &MfsaConfig::new(2, lib.clone())).unwrap();
        assert_sound(&g, &spec, &out, VerifyOptions::default());
        // Upgrading (+) to (+-) costs ~350 vs a fresh (-) at 2330: the
        // Liapunov function must merge.
        assert_eq!(out.allocation.len(), 1);
        assert_eq!(out.datapath.alu_signature(), "(+-)");
        let merged = lib.alu_by_name("add_sub").unwrap().area();
        assert_eq!(out.cost.alu_area, merged);
    }

    #[test]
    fn parallel_ops_get_parallel_alus() {
        // Two independent adds forced into one step need two ALUs.
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        b.op("a1", OpKind::Add, &[x, x]).unwrap();
        b.op("a2", OpKind::Add, &[x, x]).unwrap();
        let g = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let out = schedule(&g, &spec, &MfsaConfig::new(1, Library::ncr_like())).unwrap();
        assert_sound(&g, &spec, &out, VerifyOptions::default());
        assert_eq!(out.allocation.len(), 2);
    }

    #[test]
    fn sequential_same_type_ops_reuse_one_alu() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let a = b.op("a1", OpKind::Add, &[x, x]).unwrap();
        let c = b.op("a2", OpKind::Add, &[a, x]).unwrap();
        b.op("a3", OpKind::Add, &[c, x]).unwrap();
        let g = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let out = schedule(&g, &spec, &MfsaConfig::new(3, Library::ncr_like())).unwrap();
        assert_sound(&g, &spec, &out, VerifyOptions::default());
        assert_eq!(out.allocation.len(), 1);
        assert_eq!(out.datapath.alu_signature(), "(+)");
    }

    #[test]
    fn style2_forbids_dependent_ops_on_one_alu() {
        let g = add_sub_chain();
        let spec = TimingSpec::uniform_single_cycle();
        let config = MfsaConfig::new(2, Library::ncr_like()).with_style(DesignStyle::NoSelfLoop);
        let out = schedule(&g, &spec, &config).unwrap();
        assert_sound(&g, &spec, &out, VerifyOptions::default());
        // a feeds s, so they may not share an ALU: two instances.
        assert_eq!(out.allocation.len(), 2);
    }

    #[test]
    fn style2_costs_at_least_style1() {
        let g = add_sub_chain();
        let spec = TimingSpec::uniform_single_cycle();
        let lib = Library::ncr_like();
        let s1 = schedule(&g, &spec, &MfsaConfig::new(2, lib.clone())).unwrap();
        let s2 = schedule(
            &g,
            &spec,
            &MfsaConfig::new(2, lib).with_style(DesignStyle::NoSelfLoop),
        )
        .unwrap();
        assert!(s2.cost.total() >= s1.cost.total());
    }

    #[test]
    fn earlier_steps_win_when_free() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        b.op("only", OpKind::Add, &[x, x]).unwrap();
        let g = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let out = schedule(&g, &spec, &MfsaConfig::new(5, Library::ncr_like())).unwrap();
        let only = g.node_by_name("only").unwrap();
        assert_eq!(out.schedule.start(only), Some(CStep::new(1)));
    }

    #[test]
    fn zero_time_weight_trades_steps_for_area() {
        // Two independent adds, cs = 2. With w_TIME = 1 both land in
        // step 1 on two ALUs; with w_TIME = 0 the second add reuses the
        // single ALU in step 2.
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        b.op("a1", OpKind::Add, &[x, x]).unwrap();
        b.op("a2", OpKind::Add, &[x, x]).unwrap();
        let g = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let lib = Library::ncr_like();
        let fast = schedule(&g, &spec, &MfsaConfig::new(2, lib.clone())).unwrap();
        assert_eq!(fast.allocation.len(), 2);
        let cheap = schedule(
            &g,
            &spec,
            &MfsaConfig::new(2, lib).with_weights(Weights {
                time: 0,
                alu: 1,
                mux: 1,
                reg: 1,
            }),
        )
        .unwrap();
        assert_eq!(cheap.allocation.len(), 1);
        assert!(cheap.cost.alu_area < fast.cost.alu_area);
    }

    #[test]
    fn trace_records_monotone_liapunov_terms() {
        let g = add_sub_chain();
        let spec = TimingSpec::uniform_single_cycle();
        let config = MfsaConfig::new(2, Library::ncr_like()).with_trace();
        let out = schedule(&g, &spec, &config).unwrap();
        assert_eq!(out.trace.len(), 2);
        for t in &out.trace {
            assert!(t.f_total() >= t.f_time);
        }
    }

    #[test]
    fn restricted_library_errors_on_unsupported_ops() {
        let g = add_sub_chain();
        let spec = TimingSpec::uniform_single_cycle();
        let lib = Library::ncr_like().restricted(|a| !a.supports(OpKind::Sub));
        let config = MfsaConfig::new(2, lib);
        assert!(matches!(
            schedule(&g, &spec, &config),
            Err(MoveFrameError::NoCapableAlu { .. })
        ));
    }

    #[test]
    fn multicycle_ops_hold_their_alu() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        b.op("m1", OpKind::Mul, &[x, x]).unwrap();
        b.op("m2", OpKind::Mul, &[x, x]).unwrap();
        let g = b.finish().unwrap();
        let spec = TimingSpec::two_cycle_multiply();
        // cs = 2: both multiplies overlap, so two multiplier ALUs.
        let out = schedule(&g, &spec, &MfsaConfig::new(2, Library::ncr_like())).unwrap();
        assert_sound(&g, &spec, &out, VerifyOptions::default());
        assert_eq!(out.allocation.len(), 2);
        // cs = 4: sequential reuse of one multiplier is cheaper.
        let out = schedule(&g, &spec, &MfsaConfig::new(4, Library::ncr_like())).unwrap();
        assert_sound(&g, &spec, &out, VerifyOptions::default());
        assert_eq!(out.allocation.len(), 2, "time term still dominates");
        // With w_TIME = 0 the cost term forces reuse.
        let cheap = schedule(
            &g,
            &spec,
            &MfsaConfig::new(4, Library::ncr_like()).with_weights(Weights {
                time: 0,
                alu: 1,
                mux: 1,
                reg: 1,
            }),
        )
        .unwrap();
        assert_sound(&g, &spec, &cheap, VerifyOptions::default());
        assert_eq!(cheap.allocation.len(), 1);
    }

    #[test]
    fn mutually_exclusive_ops_share_an_alu_in_one_step() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let branch = b.begin_branch();
        b.enter_arm(branch, 0);
        b.op("t", OpKind::Add, &[x, x]).unwrap();
        b.exit_arm();
        b.enter_arm(branch, 1);
        b.op("e", OpKind::Add, &[x, x]).unwrap();
        b.exit_arm();
        let g = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let out = schedule(&g, &spec, &MfsaConfig::new(1, Library::ncr_like())).unwrap();
        assert_sound(&g, &spec, &out, VerifyOptions::default());
        assert_eq!(out.allocation.len(), 1);
    }

    #[test]
    fn functional_pipelining_shares_modulo_latency() {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        for i in 0..4 {
            b.op(&format!("m{i}"), OpKind::Mul, &[x, x]).unwrap();
        }
        let g = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let config = MfsaConfig::new(4, Library::ncr_like()).with_latency(2);
        let out = schedule(&g, &spec, &config).unwrap();
        let opts = VerifyOptions {
            latency: Some(2),
            ..Default::default()
        };
        assert_sound(&g, &spec, &out, opts);
        // Steps {1,3} and {2,4} collide: at least 2 multipliers.
        assert!(out.allocation.len() >= 2);
    }
}
