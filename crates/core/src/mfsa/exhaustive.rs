//! The unpruned MFSA move loop, kept alive verbatim as the test oracle
//! for the branch-and-bound search in [`super::scheduler`].
//!
//! [`ExhaustiveMfsa`] scores **every** feasible `(step, instance)`
//! position of every operation — the pre-pruning behaviour — and is
//! differentialed against the pruned loop by
//! `tests/mfsa_prune_differential.rs`: byte-identical schedules,
//! allocations and traces, with the pruned loop's evaluation count
//! bounded by this one's. It is compiled unconditionally (rather than
//! under `#[cfg(test)]`) so integration tests of downstream crates and
//! the `core_scaling --exhaustive` measurement runs can reach it, but
//! it is `#[doc(hidden)]` and not part of the supported API.

use std::collections::BTreeMap;

use hls_celllib::Delay;
use hls_celllib::TimingSpec;
use hls_dfg::{BankId, Dfg, FuClass, NodeId, NodeKind};
use hls_rtl::muxopt::PackScratch;
use hls_rtl::{AluAllocation, CostReport, Datapath};
use hls_schedule::{
    chained_frames, priority_order, CStep, FuIndex, Schedule, Slot, TimeFrames, UnitId,
};
use hls_telemetry::{Instrument, Metrics, NullSink, TraceEvent};

use crate::frame::{feasible_step_range, BoundsCache, FrameCtx};
use crate::mfsa::cost::{mux_op, CostModel, RegEstimate};
use crate::mfsa::scheduler::{
    base_op, instance_free, reg_extensions, Candidate, Instance, IterationTrace, MfsaOutcome,
};
use crate::mfsa::{DesignStyle, MfsaConfig};
use crate::MoveFrameError;

/// Step-invariant part of a reuse/upgrade candidate for one instance:
/// `(kind after the move, f_ALU, f_MUX, flavour)`, or `None` when the
/// instance can never host the op — the pre-split combined memo.
type InstCost = Option<(usize, u64, u64, u8)>;

/// The exhaustive (unpruned) MFSA search — the oracle the pruned loop
/// must match move for move.
pub struct ExhaustiveMfsa;

impl ExhaustiveMfsa {
    /// Exhaustive counterpart of [`crate::mfsa::schedule`].
    ///
    /// # Errors
    ///
    /// As for [`crate::mfsa::schedule`].
    pub fn schedule(
        dfg: &Dfg,
        spec: &TimingSpec,
        config: &MfsaConfig,
    ) -> Result<MfsaOutcome, MoveFrameError> {
        let mut sink = NullSink;
        let mut metrics = Metrics::new();
        Self::schedule_traced(
            dfg,
            spec,
            config,
            &mut Instrument::new(&mut sink, &mut metrics),
        )
    }

    /// Exhaustive counterpart of [`crate::mfsa::schedule_traced`]: the
    /// same phases, counters and events, except that *every* candidate
    /// is fully scored (one `EnergyEvaluated` each) and the prune
    /// counters stay zero — `mfsa.steps.feasible` and
    /// `mfsa.steps.expanded` are both the full feasible-step count.
    ///
    /// # Errors
    ///
    /// As for [`crate::mfsa::schedule`].
    pub fn schedule_traced(
        dfg: &Dfg,
        spec: &TimingSpec,
        config: &MfsaConfig,
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
            if node.kind().is_mem_access() {
                continue;
            }
            let op = base_op(dfg, id);
            if library.alus_supporting(op).next().is_none() {
                return Err(MoveFrameError::NoCapableAlu { node: id });
            }
        }

        let frames = instr.span("mfsa.frames", |_| match config.clock() {
            Some(clock) => Ok(chained_frames(dfg, spec, clock, cs)?.into_frames()),
            None => TimeFrames::compute(dfg, spec, cs),
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
        let mut scratch = PackScratch::new();
        let mut mem_busy: BTreeMap<(BankId, u32, u32), Vec<NodeId>> = BTreeMap::new();
        let mut reg_est = RegEstimate::new();
        let mut trace = Vec::new();

        instr.span("mfsa.move_loop", |instr| {
            for node in order {
                config.cancel().checkpoint()?;

                if dfg.node(node).kind().is_mem_access() {
                    let FuClass::Mem(bank) = dfg.node(node).kind().fu_class() else {
                        unreachable!("mem accesses have a Mem class");
                    };
                    let ports = dfg.bank_ports(bank);
                    let mut best: Option<(u64, CStep, u32, u64, u64)> = None;
                    let mut n_candidates = 0u64;
                    let mut feasible_steps = 0u64;
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
                        let mut step = earliest;
                        while step <= latest {
                            if ctx.dep_feasible(node, step) && step.finish(cycles).get() <= cs {
                                feasible_steps += 1;
                                let f_time = model.f_time(step.get());
                                let extensions = reg_extensions(dfg, &sched, spec, node, step);
                                let f_reg = model.f_reg(
                                    reg_est
                                        .count_with(&extensions)
                                        .saturating_sub(reg_est.count()),
                                );
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
                                        Some((bt, bs, bp, ..)) => {
                                            (total, step, port) < (bt, bs, bp)
                                        }
                                    };
                                    if better {
                                        best = Some((total, step, port, f_time, f_reg));
                                    }
                                }
                            }
                            step = step.offset(1);
                        }
                        let offset = match best {
                            Some((_, step, ..)) => ctx.offset_after(node, step),
                            None => Delay::ZERO,
                        };
                        (cycles, offset)
                    };
                    instr.inc("mfsa.steps.feasible", feasible_steps);
                    instr.inc("mfsa.steps.expanded", feasible_steps);
                    instr.inc("mfsa.energy_evaluations", n_candidates);
                    instr.inc("mfsa.bound.evals", n_candidates);
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
                let mut feasible_steps = 0u64;
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
                    let mux_op = mux_op(dfg, &sched, config.shares_interconnect(), node);

                    let mut inst_costs: Vec<Option<InstCost>> = vec![None; instances.len()];
                    let fresh_mux = model.f_mux(&mut scratch, &[], mux_op);
                    let new_kinds: Vec<(usize, u64)> = library
                        .alus()
                        .iter()
                        .enumerate()
                        .filter(|(_, k)| k.supports(op))
                        .map(|(kind_index, k)| (kind_index, model.f_alu(k.area())))
                        .collect();

                    let mut consider = |c: Candidate| {
                        n_candidates += 1;
                        if instr.enabled() {
                            instr.emit(TraceEvent::EnergyEvaluated {
                                op: node.index() as u32,
                                pos: (
                                    c.instance.map_or(next_instance, |i| i as u32 + 1),
                                    c.step.get(),
                                ),
                                v: c.total(),
                            });
                        }
                        let better = match &best {
                            None => true,
                            Some(b) => {
                                (
                                    c.total(),
                                    c.step,
                                    c.flavour,
                                    c.instance.unwrap_or(usize::MAX),
                                    c.kind_index,
                                ) < (
                                    b.total(),
                                    b.step,
                                    b.flavour,
                                    b.instance.unwrap_or(usize::MAX),
                                    b.kind_index,
                                )
                            }
                        };
                        if better {
                            best = Some(c);
                        }
                    };

                    let mut step = earliest;
                    while step <= latest {
                        if ctx.dep_feasible(node, step) && step.finish(cycles).get() <= cs {
                            feasible_steps += 1;
                            let f_time = model.f_time(step.get());
                            let extensions = reg_extensions(dfg, &sched, spec, node, step);
                            let f_reg = model.f_reg(
                                reg_est
                                    .count_with(&extensions)
                                    .saturating_sub(reg_est.count()),
                            );

                            for (i, inst) in instances.iter().enumerate() {
                                if !instance_free(inst, dfg, node, step, cycles, &wrap) {
                                    continue;
                                }
                                let cost = inst_costs[i].get_or_insert_with(|| {
                                    if config.style() == DesignStyle::NoSelfLoop {
                                        let related = inst.ops.iter().any(|&(o, ..)| {
                                            dfg.preds(node).contains(&o)
                                                || dfg.succs(node).contains(&o)
                                        });
                                        if related {
                                            return None;
                                        }
                                    }
                                    let cur_kind = &library.alus()[inst.kind_index];
                                    if cur_kind.supports(op) {
                                        Some((
                                            inst.kind_index,
                                            0,
                                            model.f_mux(&mut scratch, &inst.mux_ops, mux_op),
                                            0,
                                        ))
                                    } else {
                                        library
                                            .alus()
                                            .iter()
                                            .enumerate()
                                            .filter(|(_, k)| {
                                                k.supports(op)
                                                    && cur_kind.ops().all(|o| k.supports(o))
                                            })
                                            .min_by_key(|(idx, k)| (k.area(), *idx))
                                            .map(|(kind_index, kind)| {
                                                (
                                                    kind_index,
                                                    model.f_alu(
                                                        kind.area().saturating_sub(cur_kind.area()),
                                                    ),
                                                    model.f_mux(
                                                        &mut scratch,
                                                        &inst.mux_ops,
                                                        mux_op,
                                                    ),
                                                    1,
                                                )
                                            })
                                    }
                                });
                                let Some((kind_index, f_alu, f_mux, flavour)) = *cost else {
                                    continue;
                                };
                                consider(Candidate {
                                    step,
                                    instance: Some(i),
                                    kind_index,
                                    f_time,
                                    f_alu,
                                    f_mux,
                                    f_reg,
                                    flavour,
                                });
                            }

                            for &(kind_index, f_alu) in &new_kinds {
                                consider(Candidate {
                                    step,
                                    instance: None,
                                    kind_index,
                                    f_time,
                                    f_alu,
                                    f_mux: fresh_mux,
                                    f_reg,
                                    flavour: 2,
                                });
                            }
                        }
                        step = step.offset(1);
                    }
                    let offset = match &best {
                        Some(c) => ctx.offset_after(node, c.step),
                        None => Delay::ZERO,
                    };
                    (cycles, mux_op, offset)
                };

                instr.inc("mfsa.steps.feasible", feasible_steps);
                instr.inc("mfsa.steps.expanded", feasible_steps);
                instr.inc("mfsa.energy_evaluations", n_candidates);
                instr.inc("mfsa.bound.evals", n_candidates);
                instr.observe("mfsa.candidates", n_candidates);
                let Some(chosen) = best else {
                    return Err(MoveFrameError::NoPosition {
                        node,
                        class: dfg.node(node).kind().fu_class(),
                        max_fu: instances.len() as u32,
                    });
                };

                let instance_idx = match chosen.instance {
                    Some(i) => {
                        instances[i].kind_index = chosen.kind_index;
                        i
                    }
                    None => {
                        instances.push(Instance {
                            kind_index: chosen.kind_index,
                            ..Instance::default()
                        });
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
}
