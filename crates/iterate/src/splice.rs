//! Constrained re-scheduling splices: vacate the region nodes from the
//! dense scheduler state and re-place them under the **achieved**
//! horizon — one control step tighter every time an iteration lands.
//!
//! Two kernels mirror the two binding worlds, exactly as
//! hls-partition's stitcher does:
//!
//! * [`sweep_fu`] (class-grid schedules, MFS and the baselines):
//!   vacate from the schedule, [`BoundsCache`] and occupancy grid, then
//!   re-place with [`first_fit`] — the earliest free cell for
//!   compression, the latest for re-timing — over the same frame the
//!   vacate→re-frame contract `crates/core/tests/reframe.rs` pins,
//!   including chained offsets and the memory access-conflict frames.
//! * ALU-bound schedules (MFSA) go through
//!   [`moveframe::reframe::slide_on_units`]: each region node slides
//!   along its *own* unit, preserving both the allocation and (for
//!   memory accesses) the port binding.
//!
//! Both kernels sweep the region in topological order and repeat until
//! a fixpoint or the sweep cap; every data structure is ordered
//! (`BTreeMap`, index-sorted vectors), so the result is a pure function
//! of the inputs.

use std::collections::BTreeMap;

use hls_celllib::{ClockPeriod, Delay, TimingSpec};
use hls_dfg::{Dfg, FuClass, NodeId};
use hls_schedule::{chained_frames, Grid, Schedule, Slot, TimeFrames, UnitId};
use moveframe::reframe::{Direction, COLUMN_CAP};
use moveframe::{first_fit, BoundsCache, FitOrder, FrameCtx};

use crate::IterateError;

/// True chain finish offsets of `schedule`, recomputed from scratch in
/// dependency (index) order — the recipe `bounds_stress.rs` pins
/// against [`BoundsCache::on_unassign`]'s incremental repair.
fn rebuild_offsets(
    dfg: &Dfg,
    spec: &TimingSpec,
    clock: Option<ClockPeriod>,
    bounds: &BoundsCache,
    schedule: &Schedule,
    offsets: &mut [Delay],
) {
    let chainable = |n: NodeId| {
        clock.is_some() && bounds.cycles(n) == 1 && dfg.node(n).kind().delay(spec).as_u32() > 0
    };
    for o in offsets.iter_mut() {
        *o = Delay::ZERO;
    }
    for q in dfg.node_ids() {
        let Some(start) = schedule.start(q) else {
            continue;
        };
        if !chainable(q) {
            continue;
        }
        let mut base = Delay::ZERO;
        for &p in dfg.preds(q) {
            if !chainable(p) {
                continue;
            }
            if let Some(ps) = schedule.start(p) {
                if ps.finish(bounds.cycles(p)) == start {
                    base = base.max(offsets[p.index()]);
                }
            }
        }
        offsets[q.index()] = base + dfg.node(q).kind().delay(spec);
    }
}

/// Effective cycle count of `node` under the (optional) clock: the
/// declared cycles, or `⌈delay/T⌉` for operations slower than the
/// clock — the same rule [`BoundsCache`] applies.
pub(crate) fn effective_cycles(
    dfg: &Dfg,
    spec: &TimingSpec,
    clock: Option<ClockPeriod>,
    node: NodeId,
) -> u8 {
    let kind = dfg.node(node).kind();
    let declared = kind.cycles(spec);
    match clock {
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
    }
}

/// Achieved horizon: the last occupied (finish) control step, counting
/// clock-multicycled operations at their effective length.
pub(crate) fn achieved_horizon(
    dfg: &Dfg,
    spec: &TimingSpec,
    clock: Option<ClockPeriod>,
    schedule: &Schedule,
) -> u32 {
    schedule
        .iter()
        .map(|(n, s)| s.step.finish(effective_cycles(dfg, spec, clock, n)).get())
        .max()
        .unwrap_or(1)
}

/// Move-frame splice for class-grid schedules. Mutates `schedule` in
/// place and returns the number of committed moves.
pub(crate) fn sweep_fu(
    dfg: &Dfg,
    spec: &TimingSpec,
    clock: Option<ClockPeriod>,
    schedule: &mut Schedule,
    region: &[NodeId],
    direction: Direction,
    max_sweeps: usize,
) -> Result<u64, IterateError> {
    let horizon = achieved_horizon(dfg, spec, clock, schedule);
    let frames = match clock {
        Some(t) => chained_frames(dfg, spec, t, horizon)
            .map_err(|e| IterateError::Internal(format!("chained frames: {e}")))?
            .into_frames(),
        None => TimeFrames::compute(dfg, spec, horizon)
            .map_err(|e| IterateError::Internal(format!("frames: {e}")))?,
    };
    let mut bounds = BoundsCache::new(dfg, spec, clock);
    let mut offsets = vec![Delay::ZERO; dfg.node_count()];
    let mut grids: BTreeMap<FuClass, Grid> = schedule
        .fu_counts()
        .into_iter()
        .map(|(class, max_fu)| (class, Grid::new(class, horizon, max_fu.max(1))))
        .collect();
    for (node, slot) in schedule.iter() {
        let UnitId::Fu { class, index } = slot.unit else {
            return Err(IterateError::Internal(
                "fu splice on a non-Fu-bound schedule".into(),
            ));
        };
        grids
            .get_mut(&class)
            .expect("fu_counts covers every bound class")
            .occupy(node, slot.step, index, bounds.cycles(node));
    }
    for (node, slot) in schedule.iter().collect::<Vec<_>>() {
        bounds.on_assign(dfg, node, slot.step);
    }
    if clock.is_some() {
        rebuild_offsets(dfg, spec, clock, &bounds, schedule, &mut offsets);
    }

    // Re-place the *whole* region per sweep, not one node at a time: a
    // critical cone is tight by construction, so no single node can
    // move while its neighbours hold their slots — the region must be
    // vacated as a unit before any of it can shift. Earlier sweeps
    // re-place in dependency order (predecessors claim the earliest
    // cells first); Later sweeps in reverse (consumers anchor at the
    // horizon, producers drift toward them).
    let order: Vec<NodeId> = match direction {
        Direction::Earlier => region.to_vec(),
        Direction::Later => region.iter().rev().copied().collect(),
    };
    // The grids span exactly the achieved horizon, so every cell they
    // admit finishes within it.
    let fit_order = match direction {
        Direction::Earlier => FitOrder::StepMajor,
        Direction::Later => FitOrder::LatestStep,
    };
    let mut moves = 0u64;
    for _ in 0..max_sweeps {
        let mut moved = false;
        let mut old: BTreeMap<NodeId, Slot> = BTreeMap::new();
        for &node in region {
            let slot = schedule.slot(node).expect("baseline schedule is complete");
            let UnitId::Fu { class, .. } = slot.unit else {
                unreachable!("checked above");
            };
            old.insert(node, slot);
            schedule.unassign(node);
            bounds.on_unassign(dfg, schedule, &mut offsets, node);
            grids
                .get_mut(&class)
                .expect("class grid exists")
                .vacate(node);
        }
        if clock.is_some() {
            rebuild_offsets(dfg, spec, clock, &bounds, schedule, &mut offsets);
        }
        for &node in &order {
            let prev = old[&node];
            let UnitId::Fu { class, index } = prev.unit else {
                unreachable!("checked above");
            };
            let cycles = bounds.cycles(node);
            let grid = grids.get_mut(&class).expect("class grid exists");
            let ctx = FrameCtx {
                dfg,
                spec,
                frames: &frames,
                schedule,
                clock,
                offsets: &offsets,
                bounds: &bounds,
            };
            let fit = first_fit(
                &ctx,
                node,
                grid,
                grid.max_fu().min(COLUMN_CAP),
                fit_order,
                None,
            );
            // A region node with no feasible cell means this direction
            // cannot re-place the subgraph — abandon the splice; the
            // caller discards the half-built candidate.
            let Some(best) = fit.cell else {
                return Ok(0);
            };
            schedule.assign(
                node,
                Slot {
                    step: best.step,
                    unit: UnitId::Fu {
                        class,
                        index: best.fu,
                    },
                },
            );
            bounds.on_assign(dfg, node, best.step);
            grid.occupy(node, best.step, best.fu, cycles);
            if clock.is_some() {
                rebuild_offsets(dfg, spec, clock, &bounds, schedule, &mut offsets);
            }
            if (best.step, best.fu) != (prev.step, index) {
                moves += 1;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
    Ok(moves)
}
