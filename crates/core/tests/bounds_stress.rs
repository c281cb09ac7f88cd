//! Randomized stress: the incrementally-maintained `BoundsCache` (and
//! the chaining offset table it repairs on vacate) must agree with a
//! cold rebuild after any interleaving of probe-driven placements and
//! vacates, for every node, under plain, multicycle and chained specs.

use hls_celllib::{ClockPeriod, Delay, OpKind, TimingSpec};
use hls_dfg::{Dfg, DfgBuilder, NodeId, SignalId, SignalSource};
use hls_schedule::{chained_frames, CStep, FuIndex, Grid, Schedule, Slot, TimeFrames, UnitId};
use moveframe::{probe_move_frame, BoundsCache};
use proptest::prelude::*;

/// A cold cache for the current schedule: replay every live assignment
/// onto a fresh cache (the monotone merges then yield the true bounds).
fn cold(dfg: &Dfg, spec: &TimingSpec, clock: Option<ClockPeriod>, sched: &Schedule) -> BoundsCache {
    let mut b = BoundsCache::new(dfg, spec, clock);
    for id in dfg.node_ids() {
        if let Some(step) = sched.start(id) {
            b.on_assign(dfg, id, step);
        }
    }
    b
}

/// The true finish offsets of the current schedule, recomputed from
/// scratch in dependency (index) order: a chainable scheduled node
/// accumulates the largest offset among same-step chainable
/// predecessors plus its own delay.
fn cold_offsets(
    dfg: &Dfg,
    spec: &TimingSpec,
    clock: Option<ClockPeriod>,
    bounds: &BoundsCache,
    sched: &Schedule,
) -> Vec<Delay> {
    let chainable = |n: NodeId| {
        clock.is_some() && bounds.cycles(n) == 1 && dfg.node(n).kind().delay(spec).as_u32() > 0
    };
    let mut offsets = vec![Delay::ZERO; dfg.node_count()];
    for q in dfg.node_ids() {
        let Some(start) = sched.start(q) else {
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
            if let Some(ps) = sched.start(p) {
                if ps.finish(bounds.cycles(p)) == start {
                    base = base.max(offsets[p.index()]);
                }
            }
        }
        offsets[q.index()] = base + dfg.node(q).kind().delay(spec);
    }
    offsets
}

fn assert_state_matches(
    dfg: &Dfg,
    warm: &BoundsCache,
    warm_offsets: &[Delay],
    cold: &BoundsCache,
    cold_offsets: &[Delay],
    trail: &str,
) {
    for id in dfg.node_ids() {
        assert_eq!(
            warm.pred_finish(id),
            cold.pred_finish(id),
            "stale pred_finish for {} after {trail}",
            dfg.node(id).name()
        );
        assert_eq!(
            warm.succ_start(id),
            cold.succ_start(id),
            "stale succ_start for {} after {trail}",
            dfg.node(id).name()
        );
        assert_eq!(
            warm_offsets[id.index()],
            cold_offsets[id.index()],
            "stale chaining offset for {} after {trail}",
            dfg.node(id).name()
        );
    }
}

/// A small layered DAG whose shape is driven by `seed`.
fn random_dag(seed: u64, layers: usize, width: usize) -> Dfg {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move |m: usize| -> usize {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % m as u64) as usize
    };
    let mut b = DfgBuilder::new("stress");
    let mut values: Vec<SignalId> = (0..3).map(|i| b.input(&format!("in{i}"))).collect();
    for l in 0..layers {
        let mut layer = Vec::new();
        for w in 0..width {
            let kinds = [OpKind::Add, OpKind::Sub, OpKind::Mul];
            let kind = kinds[next(kinds.len())];
            let a = values[next(values.len())];
            let c = values[next(values.len())];
            layer.push(b.op(&format!("l{l}n{w}"), kind, &[a, c]).unwrap());
        }
        values.extend(layer);
    }
    b.finish().unwrap()
}

/// A banked-memory DAG: a burst of loads feeds an arithmetic layer
/// whose results are stored back, with the builder's hazard tokens
/// serialising the accesses — the shape the iterate splice path
/// re-frames under the access-conflict frame.
fn random_banked_dag(seed: u64, ports: u32) -> Dfg {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move |m: usize| -> usize {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % m as u64) as usize
    };
    let mut b = DfgBuilder::new("banked");
    let i = b.input("i");
    let bank = b.declare_bank("ram", ports);
    let arr = b.declare_array("buf", 16, bank);
    let mut values = vec![i];
    for k in 0..2 + next(3) {
        values.push(b.load(&format!("ld{k}"), arr, i).unwrap());
    }
    for k in 0..2 + next(4) {
        let kinds = [OpKind::Add, OpKind::Sub, OpKind::Mul];
        let kind = kinds[next(kinds.len())];
        let a = values[next(values.len())];
        let c = values[next(values.len())];
        values.push(b.op(&format!("op{k}"), kind, &[a, c]).unwrap());
    }
    for k in 0..1 + next(2) {
        let v = values[next(values.len())];
        b.store(&format!("st{k}"), arr, i, v).unwrap();
    }
    b.finish().unwrap()
}

fn node_of(dfg: &Dfg, sig: SignalId) -> NodeId {
    match dfg.signal(sig).source() {
        SignalSource::Node(n) => n,
        _ => unreachable!(),
    }
}

fn stress(
    dfg: &Dfg,
    spec: &TimingSpec,
    clock: Option<ClockPeriod>,
    seed: u64,
    cs: u32,
    steps: usize,
) {
    let frames = match clock {
        Some(t) => chained_frames(dfg, spec, t, cs).unwrap().into_frames(),
        None => TimeFrames::compute(dfg, spec, cs).unwrap(),
    };
    let mut warm = BoundsCache::new(dfg, spec, clock);
    let mut sched = Schedule::new(dfg, cs);
    let mut offsets = vec![Delay::ZERO; dfg.node_count()];
    let ids: Vec<NodeId> = dfg.node_ids().collect();
    let mut state = seed.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1;
    let mut next = move |m: u64| -> u64 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % m
    };
    let mut trail = String::new();
    for _ in 0..steps {
        let id = ids[next(ids.len() as u64) as usize];
        if sched.start(id).is_some() {
            sched.unassign(id);
            warm.on_unassign(dfg, &sched, &mut offsets, id);
            trail.push_str(&format!("vacate({}) ", dfg.node(id).name()));
        } else {
            // Probe the dependency-feasible range and pick a random step
            // inside it — the placements a real scheduler would make.
            let class = dfg.node(id).kind().fu_class();
            let probe_grid = Grid::new(class, cs, 1);
            let snap = probe_move_frame(
                dfg,
                spec,
                &frames,
                &sched,
                clock,
                &offsets,
                &warm,
                id,
                &probe_grid,
                1,
            );
            if snap.earliest_feasible > snap.latest_feasible {
                continue;
            }
            let span = u64::from(snap.latest_feasible.get() - snap.earliest_feasible.get()) + 1;
            let step = CStep::new(snap.earliest_feasible.get() + next(span) as u32);
            if step.finish(warm.cycles(id)).get() > cs {
                continue;
            }
            // The accumulated chain offset this placement would carry.
            let chain_base = dfg
                .preds(id)
                .iter()
                .filter_map(|&p| {
                    let ps = sched.start(p)?;
                    let chains = clock.is_some()
                        && warm.cycles(p) == 1
                        && dfg.node(p).kind().delay(spec).as_u32() > 0
                        && ps.finish(warm.cycles(p)) == step;
                    chains.then_some(offsets[p.index()])
                })
                .max()
                .unwrap_or(Delay::ZERO);
            let chainable = clock.is_some()
                && warm.cycles(id) == 1
                && dfg.node(id).kind().delay(spec).as_u32() > 0;
            sched.assign(
                id,
                Slot {
                    step,
                    unit: UnitId::Fu {
                        class,
                        index: FuIndex::new(1),
                    },
                },
            );
            warm.on_assign(dfg, id, step);
            offsets[id.index()] = if chainable {
                chain_base + dfg.node(id).kind().delay(spec)
            } else {
                Delay::ZERO
            };
            trail.push_str(&format!("place({}@{}) ", dfg.node(id).name(), step.get()));
        }
        let reference = cold(dfg, spec, clock, &sched);
        let reference_offsets = cold_offsets(dfg, spec, clock, &reference, &sched);
        assert_state_matches(dfg, &warm, &offsets, &reference, &reference_offsets, &trail);
    }
}

proptest! {
    #[test]
    fn warm_bounds_and_offsets_match_cold_rebuild(
        seed in 0u64..100_000,
        layers in 1usize..4,
        width in 1usize..4,
        spec_idx in 0usize..3,
    ) {
        let dfg = random_dag(seed, layers, width);
        let (spec, clock) = match spec_idx {
            0 => (TimingSpec::uniform_single_cycle(), None),
            1 => (TimingSpec::two_cycle_multiply(), None),
            _ => (TimingSpec::with_delays(), Some(ClockPeriod::new(100))),
        };
        stress(&dfg, &spec, clock, seed, 12, 64);
    }

    /// Long chained vacate/place sequences on wider graphs: one cache
    /// serves thousands of `on_unassign` calls, so its reused repair
    /// buffer must never carry a mark or a repair-set entry from one
    /// call into the next.
    #[test]
    fn warm_offsets_survive_long_clocked_sequences(
        seed in 0u64..100_000,
        layers in 3usize..7,
        width in 2usize..6,
        period in 0usize..3,
    ) {
        let dfg = random_dag(seed, layers, width);
        // Tighter clocks chain less and stretch slow ops over steps.
        let clock = ClockPeriod::new([100, 150, 250][period]);
        stress(&dfg, &TimingSpec::with_delays(), Some(clock), seed, 16, 1500);
    }

    /// Same contract under memory banks: hazard-token edges and the
    /// access-conflict frame must not leave the warm cache or offset
    /// table stale through any vacate/place interleaving.
    #[test]
    fn warm_bounds_match_cold_rebuild_under_banks(
        seed in 0u64..100_000,
        ports in 1u32..3,
        spec_idx in 0usize..2,
    ) {
        let dfg = random_banked_dag(seed, ports);
        let spec = match spec_idx {
            0 => TimingSpec::uniform_single_cycle(),
            _ => TimingSpec::two_cycle_multiply(),
        };
        stress(&dfg, &spec, None, seed, 12, 64);
    }
}

/// The simplest staleness shape: a node whose only predecessor is
/// vacated must see its bound reset immediately.
#[test]
fn vacating_the_only_predecessor_resets_the_bound() {
    let mut b = DfgBuilder::new("g");
    let x = b.input("x");
    let p = b.op("p", OpKind::Add, &[x, x]).unwrap();
    let q = b.op("q", OpKind::Add, &[p, x]).unwrap();
    let dfg = b.finish().unwrap();
    let (p, q) = (node_of(&dfg, p), node_of(&dfg, q));
    let spec = TimingSpec::uniform_single_cycle();
    let mut sched = Schedule::new(&dfg, 8);
    let mut bounds = BoundsCache::new(&dfg, &spec, None);
    let mut offsets = vec![Delay::ZERO; dfg.node_count()];
    sched.assign(
        p,
        Slot {
            step: CStep::new(3),
            unit: UnitId::Fu {
                class: dfg.node(p).kind().fu_class(),
                index: FuIndex::new(1),
            },
        },
    );
    bounds.on_assign(&dfg, p, CStep::new(3));
    assert_eq!(bounds.pred_finish(q), 3);
    sched.unassign(p);
    bounds.on_unassign(&dfg, &sched, &mut offsets, p);
    assert_eq!(bounds.pred_finish(q), 0, "stale bound after vacate");
    assert_eq!(bounds.succ_start(p), u32::MAX);
}
