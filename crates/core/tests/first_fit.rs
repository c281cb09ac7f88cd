//! Differential: the early-exit `first_fit` query must pick exactly the
//! cell the old whole-frame selections picked from
//! `probe_move_frame(..).movable`, in every walk order:
//!
//! * MFS: `min_by_key((V, step, fu))` under both static Liapunov
//!   functions (step-major for time-constrained, column-major for
//!   resource-constrained);
//! * the partition stitcher: the earliest `(step, fu)`, kept only when
//!   strictly below the node's old slot;
//! * the iterate splice's `Later` direction: the latest step within the
//!   horizon, lowest column first.
//!
//! Partial schedules are random and cover chaining, multi-cycle
//! operations, mutually exclusive branches, memory banks, functional
//! pipelining latency, and column caps below a node's current column.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use hls_celllib::{ClockPeriod, Delay, OpKind, TimingSpec};
use hls_dfg::{Dfg, DfgBuilder, FuClass, NodeId, SignalId};
use hls_schedule::{chained_frames, CStep, FuIndex, Grid, Schedule, Slot, TimeFrames, UnitId};
use moveframe::{
    first_fit, probe_move_frame, BoundsCache, FitOrder, FrameCtx, MfsObjective, Position,
    StaticLiapunov,
};
use proptest::prelude::*;

/// A xorshift stream: the shape of every graph and schedule below is a
/// pure function of the seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn below(&mut self, m: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % m
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

/// A layered DAG of adds, subs and multiplies, optionally with one
/// two-armed branch (mutually exclusive operations) and a memory bank
/// with a burst of loads and a store.
fn random_dfg(rng: &mut Rng, branches: bool, ports: Option<u32>) -> Dfg {
    let mut b = DfgBuilder::new("first_fit");
    let x = b.input("x");
    let y = b.input("y");
    let mut values: Vec<SignalId> = vec![x, y];
    let bank = ports.map(|p| {
        let bank = b.declare_bank("ram", p);
        let arr = b.declare_array("buf", 16, bank);
        for k in 0..2 + rng.below(3) {
            values.push(b.load(&format!("ld{k}"), arr, x).unwrap());
        }
        arr
    });
    let kinds = [OpKind::Add, OpKind::Sub, OpKind::Mul];
    for l in 0..2 + rng.below(3) {
        let mut layer = Vec::new();
        let width = 1 + rng.below(4);
        let branch = (branches && rng.below(2) == 0).then(|| b.begin_branch());
        for w in 0..width {
            if let Some(br) = branch {
                b.enter_arm(br, (w % 2) as u32);
            }
            let (a, c) = (rng.pick(&values), rng.pick(&values));
            layer.push(
                b.op(&format!("l{l}n{w}"), rng.pick(&kinds), &[a, c])
                    .unwrap(),
            );
            if branch.is_some() {
                b.exit_arm();
            }
        }
        values.extend(layer);
    }
    if let Some(arr) = bank {
        let v = rng.pick(&values);
        b.store("st", arr, x, v).unwrap();
    }
    b.finish().unwrap()
}

/// Dense scheduler state, mutated in lock-step the way the schedulers
/// do it.
struct State {
    frames: TimeFrames,
    sched: Schedule,
    bounds: BoundsCache,
    offsets: Vec<Delay>,
    grids: BTreeMap<FuClass, Grid>,
}

impl State {
    fn ctx<'a>(
        &'a self,
        dfg: &'a Dfg,
        spec: &'a TimingSpec,
        clock: Option<ClockPeriod>,
    ) -> FrameCtx<'a> {
        FrameCtx {
            dfg,
            spec,
            frames: &self.frames,
            schedule: &self.sched,
            clock,
            offsets: &self.offsets,
            bounds: &self.bounds,
        }
    }

    fn movable(
        &self,
        dfg: &Dfg,
        spec: &TimingSpec,
        clock: Option<ClockPeriod>,
        node: NodeId,
        columns: u32,
    ) -> Vec<Position> {
        let grid = &self.grids[&dfg.node(node).kind().fu_class()];
        probe_move_frame(
            dfg,
            spec,
            &self.frames,
            &self.sched,
            clock,
            &self.offsets,
            &self.bounds,
            node,
            grid,
            columns,
        )
        .movable
    }

    fn place(
        &mut self,
        dfg: &Dfg,
        spec: &TimingSpec,
        clock: Option<ClockPeriod>,
        node: NodeId,
        cell: Position,
    ) {
        let class = dfg.node(node).kind().fu_class();
        let cycles = self.bounds.cycles(node);
        let chainable = |n: NodeId| {
            clock.is_some()
                && self.bounds.cycles(n) == 1
                && dfg.node(n).kind().delay(spec).as_u32() > 0
        };
        let offset = if chainable(node) {
            let base = dfg
                .preds(node)
                .iter()
                .filter(|&&p| chainable(p))
                .filter(|&&p| {
                    self.sched
                        .start(p)
                        .is_some_and(|s| s.finish(self.bounds.cycles(p)) == cell.step)
                })
                .map(|&p| self.offsets[p.index()])
                .max()
                .unwrap_or(Delay::ZERO);
            base + dfg.node(node).kind().delay(spec)
        } else {
            Delay::ZERO
        };
        self.sched.assign(
            node,
            Slot {
                step: cell.step,
                unit: UnitId::Fu {
                    class,
                    index: cell.fu,
                },
            },
        );
        self.bounds.on_assign(dfg, node, cell.step);
        self.grids
            .get_mut(&class)
            .unwrap()
            .occupy(node, cell.step, cell.fu, cycles);
        self.offsets[node.index()] = offset;
    }

    fn vacate(&mut self, dfg: &Dfg, node: NodeId) {
        self.sched.unassign(node);
        self.bounds
            .on_unassign(dfg, &self.sched, &mut self.offsets, node);
        self.grids
            .get_mut(&dfg.node(node).kind().fu_class())
            .unwrap()
            .vacate(node);
    }
}

/// Builds a random partial schedule, then checks every order of
/// `first_fit` against the old selections for every unscheduled node
/// and several column caps and old slots.
fn check(seed: u64, spec_idx: usize, branches: bool, ports: Option<u32>, latency: bool) {
    let mut rng = Rng::new(seed);
    let dfg = random_dfg(&mut rng, branches, ports);
    let (spec, clock) = match spec_idx {
        0 => (TimingSpec::uniform_single_cycle(), None),
        1 => (TimingSpec::two_cycle_multiply(), None),
        _ => (TimingSpec::with_delays(), Some(ClockPeriod::new(100))),
    };
    let Ok(frames) = (match clock {
        Some(t) => chained_frames(&dfg, &spec, t, 12).map(|f| f.into_frames()),
        None => TimeFrames::compute(&dfg, &spec, 12),
    }) else {
        return;
    };
    let cs = frames.control_steps();
    let latency = latency.then(|| 2 + rng.below(cs as u64 - 2) as u32);
    let grids = dfg
        .class_counts()
        .into_keys()
        .map(|class| {
            let max_fu = match class {
                FuClass::Mem(bank) => dfg.bank_ports(bank),
                _ => 1 + rng.below(4) as u32,
            };
            let grid = Grid::new(class, cs, max_fu);
            let grid = match latency {
                Some(l) => grid.with_latency(l),
                None => grid,
            };
            (class, grid)
        })
        .collect();
    let mut state = State {
        frames,
        sched: Schedule::new(&dfg, cs),
        bounds: BoundsCache::new(&dfg, &spec, clock),
        offsets: vec![Delay::ZERO; dfg.node_count()],
        grids,
    };

    // A random partial schedule: random placements inside the move
    // frames, with some vacates mixed in.
    let ids: Vec<NodeId> = dfg.node_ids().collect();
    for _ in 0..2 * ids.len() {
        let node = rng.pick(&ids);
        if state.sched.start(node).is_some() {
            if rng.below(3) == 0 {
                state.vacate(&dfg, node);
            }
            continue;
        }
        let max_fu = state.grids[&dfg.node(node).kind().fu_class()].max_fu();
        let movable = state.movable(&dfg, &spec, clock, node, max_fu);
        if !movable.is_empty() && rng.below(4) != 0 {
            let cell = rng.pick(&movable);
            state.place(&dfg, &spec, clock, node, cell);
        }
    }

    let n_bound = state
        .grids
        .values()
        .map(Grid::max_fu)
        .max()
        .unwrap_or(1)
        .max(dfg.node_count() as u32)
        + 1;
    let v_time = StaticLiapunov::new(MfsObjective::TimeConstrained, n_bound, cs);
    let v_res = StaticLiapunov::new(MfsObjective::ResourceConstrained, n_bound, cs);
    for &node in &ids {
        if state.sched.start(node).is_some() {
            continue;
        }
        let grid = &state.grids[&dfg.node(node).kind().fu_class()];
        let cycles = state.bounds.cycles(node);
        for columns in 1..=grid.max_fu() + 1 {
            let movable = state.movable(&dfg, &spec, clock, node, columns);
            let ctx = state.ctx(&dfg, &spec, clock);
            let fit = |order, before| first_fit(&ctx, node, grid, columns, order, before);
            let energy_min = |v: &StaticLiapunov| {
                movable
                    .iter()
                    .min_by_key(|p| (v.value(p.fu.get(), p.step.get()), p.step, p.fu))
                    .copied()
            };

            let step_major = fit(FitOrder::StepMajor, None);
            assert_eq!(
                step_major.cell,
                energy_min(&v_time),
                "time MFS, seed {seed}"
            );
            assert_eq!(
                fit(FitOrder::ColumnMajor, None).cell,
                energy_min(&v_res),
                "resource MFS, seed {seed}"
            );
            let later = movable
                .iter()
                .filter(|p| p.step.finish(cycles).get() <= cs)
                .max_by_key(|p| (p.step, Reverse(p.fu)))
                .copied();
            assert_eq!(
                fit(FitOrder::LatestStep, None).cell,
                later,
                "splice Later, seed {seed}"
            );

            // The stitcher: an old slot anywhere on the grid, including
            // columns beyond the cap.
            for _ in 0..4 {
                let old = Position {
                    step: CStep::new(1 + rng.below(cs as u64 + 1) as u32),
                    fu: FuIndex::new(1 + rng.below(grid.max_fu() as u64 + 1) as u32),
                };
                let stitched = movable.iter().copied().min().filter(|&p| p < old);
                assert_eq!(
                    fit(FitOrder::StepMajor, Some(old)).cell,
                    stitched,
                    "stitch below {old:?}, seed {seed}"
                );
            }

            // The walk never probes more cells than the frame has, and
            // a found cell was probed.
            let steps = cs as u64;
            for order in [
                FitOrder::StepMajor,
                FitOrder::ColumnMajor,
                FitOrder::LatestStep,
            ] {
                let f = fit(order, None);
                assert!(u64::from(f.probed) <= steps * u64::from(columns));
                assert!(f.cell.is_none() || f.probed >= 1);
            }
            assert_eq!(step_major.cell.is_some(), !movable.is_empty());
        }
    }
}

proptest! {
    #[test]
    fn first_fit_matches_the_whole_frame_selections(
        seed in 0u64..1_000_000,
        spec_idx in 0usize..3,
        branches in 0u32..2,
        latency in 0u32..2,
    ) {
        check(seed, spec_idx, branches == 1, None, latency == 1);
    }

    #[test]
    fn first_fit_matches_under_memory_banks(
        seed in 0u64..1_000_000,
        ports in 1u32..3,
        spec_idx in 0usize..2,
    ) {
        check(seed, spec_idx, false, Some(ports), false);
    }
}
