//! Cycle-accurate simulation of the synthesised design.

use std::collections::BTreeMap;

use hls_celllib::TimingSpec;
use hls_control::Controller;
use hls_dfg::{ArrayId, Dfg, NodeId, NodeKind, SignalId, SignalSource};
use hls_rtl::{Datapath, RegId};
use hls_schedule::Schedule;

use crate::interp::{initial_memory, interpret_with_memory, wrap_index, MemoryState};
use crate::{eval_op, SimError};

/// The state visible at the end of one control step (for waveform
/// dumps and debugging).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepTrace {
    /// The 1-based control step.
    pub step: u32,
    /// Combinational ALU outputs driven during the step (by the
    /// operations issued in it).
    pub alu_values: BTreeMap<crate::AluIdAlias, i64>,
    /// Register-file contents after the step's writes latched.
    pub registers: BTreeMap<RegId, i64>,
    /// Array contents after the step's stores latched (empty map for
    /// designs without memory).
    pub memory: MemoryState,
}

/// The result of one simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOutcome {
    /// The value computed by every operation.
    pub node_values: BTreeMap<NodeId, i64>,
    /// Register-file contents after the last step.
    pub final_registers: BTreeMap<RegId, i64>,
    /// Final contents of every declared array.
    pub final_memory: MemoryState,
    /// The design outputs (signals without consumers).
    pub outputs: BTreeMap<SignalId, i64>,
    /// Per-step machine state, in step order.
    pub trace: Vec<StepTrace>,
}

/// One behavioural/RTL disagreement found by [`check_equivalence`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mismatch {
    /// The disagreeing operation.
    pub node: NodeId,
    /// The behavioural (interpreter) value.
    pub expected: i64,
    /// The RTL (simulator) value.
    pub got: i64,
}

/// Simulates the synthesised design step by step.
///
/// The simulation is *structural*: operations read their operands from
/// the allocated register file (written only by the controller's
/// write-enables), from input/constant ports, or — when chained — from
/// the producing ALU's combinational output within the same step.
/// Register sharing, life-span and write-timing bugs therefore surface
/// as wrong values rather than being papered over.
///
/// # Errors
///
/// [`SimError::MissingInput`] when the input vector is incomplete;
/// [`SimError::ValueUnavailable`] when a value is read before the
/// controller made it available (a synthesis bug);
/// [`SimError::Unstored`] when the controller latches a signal that no
/// operation produces.
pub fn simulate(
    dfg: &Dfg,
    schedule: &Schedule,
    datapath: &Datapath,
    controller: &Controller,
    spec: &TimingSpec,
    inputs: &BTreeMap<SignalId, i64>,
) -> Result<SimOutcome, SimError> {
    let cs = schedule.control_steps();
    // Dense per-run state, indexed by signal or node id: external
    // values (inputs + constants), topological rank (to order same-step
    // chained activities) and the value each operation computed.
    let mut external: Vec<Option<i64>> = vec![None; dfg.signal_count()];
    for (sid, sig) in dfg.signals() {
        external[sid.index()] = match sig.source() {
            SignalSource::Constant(v) => Some(v),
            SignalSource::PrimaryInput if !dfg.consumers(sid).is_empty() => {
                Some(*inputs.get(&sid).ok_or(SimError::MissingInput(sid))?)
            }
            _ => None,
        };
    }
    let mut rank = vec![0usize; dfg.node_count()];
    for (i, &n) in dfg.topo_order().iter().enumerate() {
        rank[n.index()] = i;
    }
    let mut values: Vec<Option<i64>> = vec![None; dfg.node_count()];

    // Register file, pre-loaded with inputs.
    let mut registers: BTreeMap<RegId, i64> = BTreeMap::new();
    for load in controller.input_loads() {
        let v = *inputs
            .get(&load.signal)
            .ok_or(SimError::MissingInput(load.signal))?;
        registers.insert(load.register, v);
    }

    let mut memory = initial_memory(dfg);
    let mut trace: Vec<StepTrace> = Vec::with_capacity(cs as usize);

    for step in 1..=cs {
        let mut alu_values: BTreeMap<crate::AluIdAlias, i64> = BTreeMap::new();
        let word = controller.word(hls_schedule::CStep::new(step));
        let mut activities = word.activities.clone();
        activities.sort_by_key(|a| rank[a.node.index()]);

        // Structural operand resolution, shared by ALU operations and
        // memory accesses.
        let resolve = |consumer: NodeId,
                       sig: SignalId,
                       registers: &BTreeMap<RegId, i64>,
                       values: &[Option<i64>]|
         -> Result<i64, SimError> {
            let unavailable = SimError::ValueUnavailable {
                node: consumer,
                signal: sig,
            };
            match dfg.signal(sig).source() {
                SignalSource::Constant(_) | SignalSource::PrimaryInput => {
                    // Stored inputs read through their register;
                    // constants and unstored inputs through ports.
                    match datapath.register_allocation().register_of(sig) {
                        Some(r) => registers.get(&r).copied().ok_or(unavailable),
                        None => external[sig.index()].ok_or(SimError::MissingInput(sig)),
                    }
                }
                SignalSource::Node(producer) => {
                    let p_finish = schedule
                        .finish(producer, dfg, spec)
                        .ok_or(SimError::Unbound(producer))?;
                    if p_finish.get() >= step {
                        // Chained: combinational read of the producing
                        // ALU within this step.
                        values[producer.index()].ok_or(unavailable)
                    } else {
                        datapath
                            .register_allocation()
                            .register_of(sig)
                            .and_then(|r| registers.get(&r).copied())
                            .ok_or(unavailable)
                    }
                }
            }
        };

        for activity in &activities {
            let node = dfg.node(activity.node);
            let mut vals = [0i64; 2];
            for (i, &sig) in node.inputs().iter().enumerate() {
                vals[i] = resolve(activity.node, sig, &registers, &values)?;
            }
            let value = match node.kind() {
                NodeKind::Op(k) => eval_op(k, vals[0], vals[1]),
                NodeKind::Stage { base, index, .. } => {
                    if index == 0 {
                        eval_op(base, vals[0], vals[1])
                    } else {
                        vals[0]
                    }
                }
                _ => return Err(SimError::Unsupported(activity.node)),
            };
            values[activity.node.index()] = Some(value);
            alu_values.insert(activity.alu, value);
        }

        // Memory accesses: loads read the pre-step array contents;
        // stores latch at the end of the step (non-blocking assignment
        // semantics, matching the emitted Verilog). Ordering tokens in
        // the graph rule out same-step read-after-write hazards, so the
        // in-step order is immaterial.
        let mut pending_stores: Vec<(ArrayId, usize, i64)> = Vec::new();
        let mut accesses = word.mem.clone();
        accesses.sort_by_key(|m| rank[m.node.index()]);
        for access in &accesses {
            let node = dfg.node(access.node);
            let array = node
                .kind()
                .array()
                .ok_or(SimError::Unsupported(access.node))?;
            let len = memory
                .get(&array)
                .ok_or(SimError::Unsupported(access.node))?
                .len();
            let index = wrap_index(
                resolve(access.node, node.inputs()[0], &registers, &values)?,
                len,
            );
            let value = if access.write {
                let v = resolve(access.node, node.inputs()[1], &registers, &values)?;
                pending_stores.push((array, index, v));
                v
            } else {
                memory[&array][index]
            };
            values[access.node.index()] = Some(value);
        }
        for (array, index, v) in pending_stores {
            memory.get_mut(&array).expect("validated above")[index] = v;
        }

        // End of step: latch register writes. A write of a signal no
        // operation produces is a controller fault on that signal.
        for write in &word.writes {
            let producer = dfg
                .signal(write.signal)
                .source()
                .node()
                .ok_or(SimError::Unstored(write.signal))?;
            let v = values[producer.index()].ok_or(SimError::ValueUnavailable {
                node: producer,
                signal: write.signal,
            })?;
            registers.insert(write.register, v);
        }
        trace.push(StepTrace {
            step,
            alu_values,
            registers: registers.clone(),
            memory: memory.clone(),
        });
    }

    let outputs = dfg
        .design_outputs()
        .filter_map(|sid| {
            let producer = dfg.signal(sid).source().node()?;
            values[producer.index()].map(|v| (sid, v))
        })
        .collect();
    let node_values = values
        .iter()
        .enumerate()
        .filter_map(|(i, v)| v.map(|v| (NodeId::from_index(i), v)))
        .collect();

    Ok(SimOutcome {
        node_values,
        final_registers: registers,
        final_memory: memory,
        outputs,
        trace,
    })
}

/// Runs the behavioural interpreter and the RTL simulator on the same
/// inputs and returns every operation whose values disagree (empty =
/// the synthesis run is semantics-preserving on this vector). For
/// designs with memory, the final contents of every array are compared
/// too: a differing element is reported against a store to that array.
///
/// The controller is generated internally with
/// [`Controller::generate`].
///
/// # Errors
///
/// Propagates interpreter/simulator errors. A controller generation
/// failure names its culprit: an unbound operation, or one whose
/// operand source is missing from its multiplexer, surfaces as
/// [`SimError::Unbound`] of that operation; a stored signal without a
/// register as [`SimError::Unstored`] of that signal.
pub fn check_equivalence(
    dfg: &Dfg,
    schedule: &Schedule,
    datapath: &Datapath,
    spec: &TimingSpec,
    inputs: &BTreeMap<SignalId, i64>,
) -> Result<Vec<Mismatch>, SimError> {
    let controller = Controller::generate(dfg, schedule, datapath, spec)?;
    let (expected, expected_memory) = interpret_with_memory(dfg, inputs)?;
    let got = simulate(dfg, schedule, datapath, &controller, spec, inputs)?;
    let mut mismatches = Vec::new();
    for (id, node) in dfg.nodes() {
        let want = expected[&node.output()];
        match got.node_values.get(&id) {
            Some(&have) if have == want => {}
            Some(&have) => mismatches.push(Mismatch {
                node: id,
                expected: want,
                got: have,
            }),
            None => mismatches.push(Mismatch {
                node: id,
                expected: want,
                got: i64::MIN,
            }),
        }
    }
    for (array, want) in &expected_memory {
        let have = got.final_memory.get(array).cloned().unwrap_or_default();
        if &have == want {
            continue;
        }
        let at = (0..want.len())
            .find(|&i| have.get(i) != Some(&want[i]))
            .unwrap_or(0);
        let culprit = dfg
            .node_ids()
            .find(|&id| {
                matches!(dfg.node(id).kind(),
                    NodeKind::Store { array: a, .. } if a == *array)
            })
            .unwrap_or(dfg.topo_order()[0]);
        mismatches.push(Mismatch {
            node: culprit,
            expected: want[at],
            got: have.get(at).copied().unwrap_or(i64::MIN),
        });
    }
    Ok(mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_inputs;
    use hls_celllib::{Library, OpKind};
    use hls_dfg::DfgBuilder;
    use hls_rtl::AluAllocation;
    use hls_schedule::{CStep, Slot, UnitId};

    fn manual_design() -> (Dfg, Schedule, Datapath, TimingSpec) {
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let p = b.op("p", OpKind::Add, &[x, y]).unwrap();
        let q = b.op("q", OpKind::Sub, &[p, y]).unwrap();
        b.op("r", OpKind::Mul, &[q, p]).unwrap();
        let dfg = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let mut s = Schedule::new(&dfg, 3);
        let lib = Library::ncr_like();
        let mut alloc = AluAllocation::new();
        alloc.push(lib.alu_by_name("add_sub").unwrap().clone());
        alloc.push(lib.alu_by_name("mul").unwrap().clone());
        for (name, step, inst) in [("p", 1, 0), ("q", 2, 0), ("r", 3, 1)] {
            s.assign(
                dfg.node_by_name(name).unwrap(),
                Slot {
                    step: CStep::new(step),
                    unit: UnitId::Alu { instance: inst },
                },
            );
        }
        let dp = Datapath::build(&dfg, &s, &alloc, &spec).unwrap();
        (dfg, s, dp, spec)
    }

    #[test]
    fn manual_design_is_equivalent() {
        let (dfg, s, dp, spec) = manual_design();
        let inputs = random_inputs(&dfg, 99);
        let mismatches = check_equivalence(&dfg, &s, &dp, &spec, &inputs).unwrap();
        assert!(mismatches.is_empty(), "{mismatches:?}");
    }

    #[test]
    fn outputs_are_collected() {
        let (dfg, s, dp, spec) = manual_design();
        let controller = Controller::generate(&dfg, &s, &dp, &spec).unwrap();
        let x = dfg.signal_by_name("x").unwrap();
        let y = dfg.signal_by_name("y").unwrap();
        let inputs = [(x, 10), (y, 3)].into_iter().collect();
        let out = simulate(&dfg, &s, &dp, &controller, &spec, &inputs).unwrap();
        // p = 13, q = 10, r = 130.
        let r_sig = dfg.signal_by_name("r").unwrap();
        assert_eq!(out.outputs[&r_sig], 130);
    }

    #[test]
    fn missing_input_is_reported() {
        let (dfg, s, dp, spec) = manual_design();
        let controller = Controller::generate(&dfg, &s, &dp, &spec).unwrap();
        let err = simulate(&dfg, &s, &dp, &controller, &spec, &BTreeMap::new()).unwrap_err();
        assert!(matches!(err, SimError::MissingInput(_)));
    }

    /// Binds `(name, step, instance)` triples onto a fresh schedule.
    fn bind(dfg: &Dfg, cs: u32, slots: &[(&str, u32, u32)]) -> Schedule {
        let mut s = Schedule::new(dfg, cs);
        for &(name, step, instance) in slots {
            s.assign(
                dfg.node_by_name(name).unwrap(),
                Slot {
                    step: CStep::new(step),
                    unit: UnitId::Alu { instance },
                },
            );
        }
        s
    }

    fn two_adders() -> AluAllocation {
        let lib = Library::ncr_like();
        let mut alloc = AluAllocation::new();
        alloc.push(lib.alu_by_name("add_sub").unwrap().clone());
        alloc.push(lib.alu_by_name("add_sub").unwrap().clone());
        alloc
    }

    #[test]
    fn an_unbound_operation_is_blamed_by_name() {
        let (dfg, mut s, dp, spec) = manual_design();
        let q = dfg.node_by_name("q").unwrap();
        assert_ne!(dfg.topo_order()[0], q);
        s.unassign(q);
        let inputs = random_inputs(&dfg, 1);
        let err = check_equivalence(&dfg, &s, &dp, &spec, &inputs).unwrap_err();
        assert_eq!(err, SimError::Unbound(q));
    }

    #[test]
    fn an_operand_missing_from_its_mux_is_blamed_on_the_operation() {
        // The data path puts q on ALU 1; the schedule moves it to ALU 0,
        // whose port-1 mux never carries p's register.
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let p = b.op("p", OpKind::Add, &[x, y]).unwrap();
        b.op("q", OpKind::Sub, &[p, y]).unwrap();
        let dfg = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let built = bind(&dfg, 2, &[("p", 1, 0), ("q", 2, 1)]);
        let dp = Datapath::build(&dfg, &built, &two_adders(), &spec).unwrap();
        let moved = bind(&dfg, 2, &[("p", 1, 0), ("q", 2, 0)]);
        let q = dfg.node_by_name("q").unwrap();
        assert_eq!(
            Controller::generate(&dfg, &moved, &dp, &spec),
            Err(hls_control::ControlError::SourceNotOnMux { node: q, port: 1 })
        );
        let inputs = random_inputs(&dfg, 1);
        let err = check_equivalence(&dfg, &moved, &dp, &spec, &inputs).unwrap_err();
        assert_eq!(err, SimError::Unbound(q));
    }

    #[test]
    fn an_unregistered_stored_signal_is_blamed_on_its_reader() {
        // The data path chains p into q within step 2, so p gets no
        // register; the schedule then runs p a step earlier and q must
        // read p from storage that does not exist.
        let mut b = DfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let p = b.op("p", OpKind::Add, &[x, y]).unwrap();
        let q = b.op("q", OpKind::Sub, &[p, y]).unwrap();
        b.op("r", OpKind::Add, &[q, x]).unwrap();
        let dfg = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let chained = bind(&dfg, 3, &[("p", 2, 0), ("q", 2, 1), ("r", 3, 0)]);
        let dp = Datapath::build(&dfg, &chained, &two_adders(), &spec).unwrap();
        assert_eq!(dp.register_allocation().register_of(p), None);
        let split = bind(&dfg, 3, &[("p", 1, 0), ("q", 2, 1), ("r", 3, 0)]);
        let inputs = random_inputs(&dfg, 1);
        let err = check_equivalence(&dfg, &split, &dp, &spec, &inputs).unwrap_err();
        assert_eq!(
            err,
            SimError::ValueUnavailable {
                node: dfg.node_by_name("q").unwrap(),
                signal: p,
            }
        );
    }

    #[test]
    fn controller_errors_keep_their_culprit() {
        use hls_control::ControlError;
        let (dfg, ..) = manual_design();
        let q = dfg.node_by_name("q").unwrap();
        let r = dfg.signal_by_name("r").unwrap();
        assert_eq!(
            SimError::from(ControlError::UnboundNode(q)),
            SimError::Unbound(q)
        );
        assert_eq!(
            SimError::from(ControlError::SourceNotOnMux { node: q, port: 2 }),
            SimError::Unbound(q)
        );
        assert_eq!(
            SimError::from(ControlError::Unstored(r)),
            SimError::Unstored(r)
        );
    }

    #[test]
    fn equivalence_detects_a_corrupted_schedule() {
        // Move `q` to share p's step on a different ALU: q would read
        // the p register before it is written, so either the simulator
        // errors or the values mismatch — it must NOT silently agree.
        let (dfg, mut s, _, spec) = manual_design();
        let lib = Library::ncr_like();
        let mut alloc = AluAllocation::new();
        alloc.push(lib.alu_by_name("add_sub").unwrap().clone());
        alloc.push(lib.alu_by_name("add_sub").unwrap().clone());
        alloc.push(lib.alu_by_name("mul").unwrap().clone());
        s.assign(
            dfg.node_by_name("q").unwrap(),
            Slot {
                step: CStep::new(1),
                unit: UnitId::Alu { instance: 1 },
            },
        );
        s.assign(
            dfg.node_by_name("r").unwrap(),
            Slot {
                step: CStep::new(3),
                unit: UnitId::Alu { instance: 2 },
            },
        );
        // Datapath::build treats the same-step read as chaining, which
        // the verifier would flag; simulation then reads p's ALU output
        // combinationally. Use the *schedule-level* verifier to reject
        // instead — and confirm it does.
        let violations =
            hls_schedule::verify(&dfg, &s, &spec, hls_schedule::VerifyOptions::default());
        assert!(!violations.is_empty(), "corrupted schedule must not verify");
    }
}
