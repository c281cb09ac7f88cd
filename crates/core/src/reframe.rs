//! Re-placement primitives shared by the partition stitcher and the
//! iterate splice, both of which extract nodes from a complete schedule
//! and place them again.
//!
//! Class-grid (MFS-style) schedules are re-placed through
//! [`first_fit`](crate::first_fit) with at most [`COLUMN_CAP`] visible
//! columns. ALU-bound (MFSA) schedules live outside the class-grid
//! world of the move frame, so their nodes instead slide along their
//! own unit: [`slide_on_units`].

use std::collections::BTreeMap;

use hls_celllib::{ClockPeriod, Delay, TimingSpec};
use hls_dfg::{Dfg, NodeId};
use hls_schedule::{CStep, Schedule, Slot, UnitId};

use crate::BoundsCache;

/// Columns a re-placement exposes per class. Re-placing needs *a* free
/// column at a better step, not the full (possibly tens of thousands
/// wide) column space, and the search cost grows with the visible
/// columns.
pub const COLUMN_CAP: u32 = 64;

/// Which way a re-placement moves nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Compression: the earliest feasible position.
    Earlier,
    /// Register re-timing: the latest feasible position within the
    /// achieved horizon — producers drift toward their consumers,
    /// shrinking value lifetimes without lengthening the schedule.
    Later,
}

/// Slides each node of `order` along its *own* unit, in `direction`,
/// sweeping `order` until no node moves or `max_sweeps` sweeps ran.
/// Returns `(moves, sweeps)`.
///
/// A same-unit move keeps both the allocation and (for memory accesses)
/// the port binding. A node moves only to a step whose cells on its
/// unit are free across its span and which is strictly separated from
/// every scheduled neighbour: it starts after its predecessors' finishes
/// and finishes before its successors' starts. So a slide can neither
/// reorder dependencies nor create a new combinational chain, and the
/// clock budget cannot overflow. [`Direction::Later`] also keeps the
/// node within the schedule's achieved horizon.
pub fn slide_on_units(
    dfg: &Dfg,
    spec: &TimingSpec,
    clock: Option<ClockPeriod>,
    schedule: &mut Schedule,
    order: &[NodeId],
    direction: Direction,
    max_sweeps: usize,
) -> (u64, u64) {
    let mut bounds = BoundsCache::new(dfg, spec, clock);
    for (node, slot) in schedule.iter().collect::<Vec<_>>() {
        bounds.on_assign(dfg, node, slot.step);
    }
    let horizon = schedule
        .iter()
        .map(|(n, s)| s.step.finish(bounds.cycles(n)).get())
        .max()
        .unwrap_or(1);
    // Per-unit per-step occupant counts (counts, not flags: mutually
    // exclusive operations legitimately share a cell).
    let mut busy: BTreeMap<UnitId, Vec<u16>> = BTreeMap::new();
    for (node, slot) in schedule.iter() {
        let cells = busy.entry(slot.unit).or_default();
        for k in 0..bounds.cycles(node) as u32 {
            let s = (slot.step.get() + k) as usize;
            if cells.len() <= s {
                cells.resize(s + 1, 0);
            }
            cells[s] += 1;
        }
    }

    let mut offsets = vec![Delay::ZERO; dfg.node_count()];
    let mut moves = 0u64;
    let mut sweeps = 0u64;
    for _ in 0..max_sweeps {
        sweeps += 1;
        let mut moved = false;
        for &node in order {
            let cur = schedule.slot(node).expect("slid schedules are complete");
            let cycles = bounds.cycles(node) as u32;
            let cells = busy.get_mut(&cur.unit).expect("unit has occupants");
            for k in 0..cycles {
                cells[(cur.step.get() + k) as usize] -= 1;
            }
            schedule.unassign(node);
            bounds.on_unassign(dfg, schedule, &mut offsets, node);
            let free = |s: u32| {
                (0..cycles).all(|k| cells.get((s + k) as usize).copied().unwrap_or(0) == 0)
            };
            let target = match direction {
                Direction::Earlier => {
                    let lower = bounds.pred_finish(node) + 1;
                    (lower..cur.step.get()).find(|&s| free(s))
                }
                Direction::Later => {
                    let upper = bounds
                        .succ_start(node)
                        .saturating_sub(cycles)
                        .min(horizon.saturating_sub(cycles.saturating_sub(1)));
                    (cur.step.get() + 1..=upper.max(cur.step.get()))
                        .rev()
                        .find(|&s| free(s))
                }
            }
            .map_or(cur.step, CStep::new);
            for k in 0..cycles {
                let s = (target.get() + k) as usize;
                if cells.len() <= s {
                    cells.resize(s + 1, 0);
                }
                cells[s] += 1;
            }
            schedule.assign(
                node,
                Slot {
                    step: target,
                    unit: cur.unit,
                },
            );
            bounds.on_assign(dfg, node, target);
            if target != cur.step {
                moves += 1;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
    (moves, sweeps)
}
