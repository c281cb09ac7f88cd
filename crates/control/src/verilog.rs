//! Verilog-2001 emission of the synthesised design (data path +
//! controller) — the hand-off artefact a downstream logic-synthesis
//! flow would consume.
//!
//! The emitted module is plain synthesisable RTL: a state counter, one
//! register per allocated [`hls_rtl::RegId`], per-ALU operand muxes
//! driven by the control FSM, and write-enables latching results at the
//! producer's finish step. No Verilog simulator is assumed in this
//! environment, so the testsuite checks the emitter structurally
//! (declarations, balanced blocks, complete state coverage); the
//! *behaviour* of the same control structure is verified cycle-by-cycle
//! by `hls-sim`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use hls_celllib::{OpKind, TimingSpec};
use hls_dfg::{Dfg, NodeKind, SignalSource};
use hls_rtl::{AluId, Datapath, NetSource};
use hls_schedule::Schedule;

use crate::word::WriteSource;
use crate::{ControlError, Controller};

/// Sanitises a behavioural name into a Verilog identifier.
fn ident(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

fn op_expr(kind: OpKind, a: &str, b: &str) -> String {
    // Semantics match the `hls-sim` reference at WIDTH = 64: two's
    // complement wrap-around, signed comparison/division, arithmetic
    // right shift, shift counts masked to 6 bits, division by zero = 0.
    match kind {
        OpKind::Add => format!("{a} + {b}"),
        OpKind::Sub => format!("{a} - {b}"),
        OpKind::Mul => format!("{a} * {b}"),
        OpKind::Div => format!("({b} == 0) ? {{WIDTH{{1'b0}}}} : $signed({a}) / $signed({b})"),
        OpKind::And => format!("{a} & {b}"),
        OpKind::Or => format!("{a} | {b}"),
        OpKind::Xor => format!("{a} ^ {b}"),
        OpKind::Not => format!("~{a}"),
        OpKind::Eq => format!("{{{{(WIDTH-1){{1'b0}}}}, {a} == {b}}}"),
        OpKind::Ne => format!("{{{{(WIDTH-1){{1'b0}}}}, {a} != {b}}}"),
        OpKind::Lt => format!("{{{{(WIDTH-1){{1'b0}}}}, $signed({a}) < $signed({b})}}"),
        OpKind::Gt => format!("{{{{(WIDTH-1){{1'b0}}}}, $signed({a}) > $signed({b})}}"),
        OpKind::Shl => format!("{a} << {b}[5:0]"),
        OpKind::Shr => format!("$signed({a}) >>> {b}[5:0]"),
        OpKind::Inc => format!("{a} + 1"),
        OpKind::Dec => format!("{a} - 1"),
        OpKind::Neg => format!("-{a}"),
    }
}

/// Emits the complete design as one Verilog module.
///
/// Interface: `clk`, `rst` (synchronous, restarts the FSM), one
/// `WIDTH`-bit input port per primary input, one output port per design
/// output (a signal without consumers) plus a `done` strobe after the
/// last control step.
///
/// # Errors
///
/// Propagates [`Controller::generate`]-style inconsistencies via
/// [`ControlError`] when the triple does not line up.
pub fn emit_verilog(
    dfg: &Dfg,
    schedule: &Schedule,
    datapath: &Datapath,
    controller: &Controller,
    spec: &TimingSpec,
) -> Result<String, ControlError> {
    let cs = schedule.control_steps();
    let mut out = String::new();

    // Ports.
    let inputs: Vec<_> = dfg
        .signals()
        .filter(|(sid, s)| {
            matches!(s.source(), SignalSource::PrimaryInput) && !dfg.consumers(*sid).is_empty()
        })
        .collect();
    let outputs: Vec<_> = dfg
        .design_outputs()
        .map(|sid| (sid, dfg.signal(sid)))
        .collect();

    let _ = writeln!(out, "// generated by moveframe-hls from `{}`", dfg.name());
    let _ = writeln!(out, "module {} #(", ident(dfg.name()));
    let _ = writeln!(out, "  parameter WIDTH = 16");
    let _ = writeln!(out, ") (");
    let _ = writeln!(out, "  input wire clk,");
    let _ = writeln!(out, "  input wire rst,");
    for (_, sig) in &inputs {
        let _ = writeln!(out, "  input wire [WIDTH-1:0] in_{},", ident(sig.name()));
    }
    for (_, sig) in &outputs {
        let _ = writeln!(out, "  output wire [WIDTH-1:0] out_{},", ident(sig.name()));
    }
    let _ = writeln!(out, "  output wire done");
    let _ = writeln!(out, ");");

    // State counter.
    let state_bits = 32 - (cs + 1).leading_zeros();
    let _ = writeln!(out, "\n  reg [{}:0] state;", state_bits.max(1) - 1);
    let _ = writeln!(out, "  assign done = (state == {cs});");

    // Registers.
    for reg in datapath.registers() {
        let _ = writeln!(out, "  reg [WIDTH-1:0] {};", ident(&reg.id.to_string()));
    }

    // Memory banks: one word array per bank holding its arrays back to
    // back, plus per-port address/write-data/write-enable nets driven by
    // the control FSM. Array `a` at base `B` occupies words
    // `B .. B + |a|`; indices wrap modulo the array size (Euclidean, to
    // match the `hls-sim` reference on negative indices).
    let memory = dfg.memory();
    let mut array_base: BTreeMap<hls_dfg::ArrayId, u32> = BTreeMap::new();
    let mut bank_depth: BTreeMap<hls_dfg::BankId, u32> = BTreeMap::new();
    for bank in memory.banks() {
        let mut base = 0u32;
        let mut layout = Vec::new();
        for arr in memory.arrays_in_bank(bank.id()) {
            array_base.insert(arr.id(), base);
            layout.push(format!("{}[{}] @ {base}", arr.name(), arr.size()));
            base += arr.size();
        }
        bank_depth.insert(bank.id(), base);
        if base == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "  // bank {} `{}`: {}",
            bank.id(),
            bank.name(),
            layout.join(", ")
        );
        let _ = writeln!(out, "  reg [WIDTH-1:0] mem_{} [0:{}];", bank.id(), base - 1);
    }
    for p in datapath.mem_ports() {
        let _ = writeln!(
            out,
            "  reg [WIDTH-1:0] {0}_p{1}_addr, {0}_p{1}_wdata;",
            p.bank, p.port
        );
        let _ = writeln!(out, "  reg {}_p{}_we;", p.bank, p.port);
    }
    if bank_depth.values().any(|&d| d > 0) {
        let _ = writeln!(out, "  integer mi;");
        let _ = writeln!(out, "  initial begin");
        for (bank, depth) in &bank_depth {
            if *depth > 0 {
                let _ = writeln!(
                    out,
                    "    for (mi = 0; mi < {depth}; mi = mi + 1) mem_{bank}[mi] = {{WIDTH{{1'b0}}}};"
                );
            }
        }
        let _ = writeln!(out, "  end");
    }

    // Constant nets.
    for (sid, sig) in dfg.signals() {
        if let SignalSource::Constant(v) = sig.source() {
            if !dfg.consumers(sid).is_empty() {
                let _ = writeln!(out, "  wire [WIDTH-1:0] const_{} = {v};", ident(sig.name()));
            }
        }
    }

    // Net source → Verilog expression.
    let src_expr = |src: NetSource| -> String {
        match src {
            NetSource::External(sid) => {
                let sig = dfg.signal(sid);
                match sig.source() {
                    SignalSource::Constant(_) => format!("const_{}", ident(sig.name())),
                    _ => format!("in_{}", ident(sig.name())),
                }
            }
            NetSource::Register(r) => ident(&r.to_string()),
            NetSource::Alu(a) => format!("alu{}_y", a.0),
        }
    };

    // Per-ALU operand muxes + function, as state-indexed cases.
    let mux_orders: BTreeMap<(AluId, u8), Vec<NetSource>> = datapath
        .muxes()
        .iter()
        .map(|m| ((m.alu, m.port), m.sources.iter().copied().collect()))
        .collect();
    for alu in datapath.alus() {
        let a = alu.id.0;
        let _ = writeln!(out, "\n  // {} {}", alu.id, alu.kind);
        let _ = writeln!(out, "  reg [WIDTH-1:0] alu{a}_a, alu{a}_b, alu{a}_y;");
        let _ = writeln!(out, "  always @* begin");
        let _ = writeln!(out, "    alu{a}_a = {{WIDTH{{1'b0}}}};");
        let _ = writeln!(out, "    alu{a}_b = {{WIDTH{{1'b0}}}};");
        let _ = writeln!(out, "    alu{a}_y = {{WIDTH{{1'b0}}}};");
        let _ = writeln!(out, "    case (state)");
        for (step_idx, word) in controller.words().iter().enumerate() {
            for act in word.activities.iter().filter(|x| x.alu == alu.id) {
                let (p1, p2) = datapath
                    .operand_sources(act.node)
                    .ok_or(ControlError::UnboundNode(act.node))?;
                let _ = writeln!(out, "      {}: begin", step_idx + 1);
                let _ = writeln!(out, "        alu{a}_a = {};", src_expr(p1));
                if let Some(p2) = p2 {
                    let _ = writeln!(out, "        alu{a}_b = {};", src_expr(p2));
                }
                let _ = writeln!(
                    out,
                    "        alu{a}_y = {}; // {}",
                    op_expr(act.function, &format!("alu{a}_a"), &format!("alu{a}_b")),
                    dfg.node(act.node).name()
                );
                let _ = writeln!(out, "      end");
            }
        }
        let _ = writeln!(out, "      default: ;");
        let _ = writeln!(out, "    endcase");
        let _ = writeln!(out, "  end");
        let _ = mux_orders.get(&(alu.id, 1));
    }

    // Bank-port address/data muxes, state-indexed like the ALU muxes.
    for p in datapath.mem_ports() {
        let pn = format!("{}_p{}", p.bank, p.port);
        let _ = writeln!(out, "\n  // {} port {}", p.bank, p.port);
        let _ = writeln!(out, "  always @* begin");
        let _ = writeln!(out, "    {pn}_addr = {{WIDTH{{1'b0}}}};");
        let _ = writeln!(out, "    {pn}_wdata = {{WIDTH{{1'b0}}}};");
        let _ = writeln!(out, "    {pn}_we = 1'b0;");
        let _ = writeln!(out, "    case (state)");
        for (step_idx, word) in controller.words().iter().enumerate() {
            for m in word
                .mem
                .iter()
                .filter(|m| m.bank == p.bank && m.port == p.port)
            {
                let node = dfg.node(m.node);
                let arr = node.kind().array().expect("mem access has an array");
                let decl = memory.array(arr).ok_or(ControlError::UnboundNode(m.node))?;
                let base = array_base.get(&arr).copied().unwrap_or(0);
                let size = decl.size();
                let (addr, data) = datapath
                    .operand_sources(m.node)
                    .ok_or(ControlError::UnboundNode(m.node))?;
                let _ = writeln!(out, "      {}: begin // {}", step_idx + 1, node.name());
                let _ = writeln!(
                    out,
                    "        {pn}_addr = {base} + ((($signed({}) % {size}) + {size}) % {size});",
                    src_expr(addr)
                );
                if let Some(data) = data {
                    let _ = writeln!(out, "        {pn}_wdata = {};", src_expr(data));
                    let _ = writeln!(out, "        {pn}_we = 1'b1;");
                }
                let _ = writeln!(out, "      end");
            }
        }
        let _ = writeln!(out, "      default: ;");
        let _ = writeln!(out, "    endcase");
        let _ = writeln!(out, "  end");
    }

    // Sequential part: state advance, input loads, register writes.
    let _ = writeln!(out, "\n  always @(posedge clk) begin");
    let _ = writeln!(out, "    if (rst) begin");
    let _ = writeln!(out, "      state <= 1;");
    for load in controller.input_loads() {
        let _ = writeln!(
            out,
            "      {} <= in_{};",
            ident(&load.register.to_string()),
            ident(dfg.signal(load.signal).name())
        );
    }
    let _ = writeln!(out, "    end else if (state <= {cs}) begin");
    let _ = writeln!(out, "      state <= state + 1;");
    let _ = writeln!(out, "      case (state)");
    for (step_idx, word) in controller.words().iter().enumerate() {
        if word.writes.is_empty() {
            continue;
        }
        let _ = writeln!(out, "        {}: begin", step_idx + 1);
        for w in &word.writes {
            // An ALU write latches the combinational result; a memory
            // write latches the port's read data (loads) or forwarded
            // write data (store outputs).
            let rhs = match w.source {
                WriteSource::Alu(a) => format!("alu{}_y", a.0),
                WriteSource::Mem { bank, port } => {
                    let is_load = match dfg.signal(w.signal).source() {
                        SignalSource::Node(producer) => {
                            matches!(dfg.node(producer).kind(), NodeKind::Load { .. })
                        }
                        _ => false,
                    };
                    if is_load {
                        format!("mem_{bank}[{bank}_p{port}_addr]")
                    } else {
                        format!("{bank}_p{port}_wdata")
                    }
                }
            };
            let _ = writeln!(
                out,
                "          {} <= {rhs}; // {}",
                ident(&w.register.to_string()),
                dfg.signal(w.signal).name()
            );
        }
        let _ = writeln!(out, "        end");
    }
    let _ = writeln!(out, "        default: ;");
    let _ = writeln!(out, "      endcase");
    for p in datapath.mem_ports() {
        let pn = format!("{}_p{}", p.bank, p.port);
        let _ = writeln!(
            out,
            "      if ({pn}_we) mem_{}[{pn}_addr] <= {pn}_wdata;",
            p.bank
        );
    }
    let _ = writeln!(out, "    end");
    let _ = writeln!(out, "  end");

    // Output ports read the registers latching the output signals.
    for (sid, sig) in &outputs {
        let reg = datapath
            .register_allocation()
            .register_of(*sid)
            .ok_or(ControlError::Unstored(*sid))?;
        let _ = writeln!(
            out,
            "  assign out_{} = {};",
            ident(sig.name()),
            ident(&reg.to_string())
        );
    }
    let _ = writeln!(out, "endmodule");
    let _ = spec;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_celllib::{Library, TimingSpec};
    use hls_dfg::DfgBuilder;
    use hls_rtl::AluAllocation;
    use hls_schedule::{CStep, Slot, UnitId};

    fn design() -> (Dfg, Schedule, Datapath, Controller, TimingSpec) {
        let mut b = DfgBuilder::new("toy design");
        let x = b.input("x");
        let y = b.input("y");
        let k = b.constant("three", 3);
        let p = b.op("p", OpKind::Mul, &[x, k]).unwrap();
        let q = b.op("q", OpKind::Add, &[p, y]).unwrap();
        b.op("r", OpKind::Lt, &[q, x]).unwrap();
        let dfg = b.finish().unwrap();
        let spec = TimingSpec::uniform_single_cycle();
        let mut s = Schedule::new(&dfg, 3);
        let lib = Library::ncr_like();
        let mut alloc = AluAllocation::new();
        alloc.push(lib.alu_by_name("mul").unwrap().clone());
        alloc.push(lib.alu_by_name("add").unwrap().clone());
        alloc.push(lib.alu_by_name("lt").unwrap().clone());
        for (name, step, inst) in [("p", 1, 0), ("q", 2, 1), ("r", 3, 2)] {
            s.assign(
                dfg.node_by_name(name).unwrap(),
                Slot {
                    step: CStep::new(step),
                    unit: UnitId::Alu { instance: inst },
                },
            );
        }
        let dp = Datapath::build(&dfg, &s, &alloc, &spec).unwrap();
        let c = Controller::generate(&dfg, &s, &dp, &spec).unwrap();
        (dfg, s, dp, c, spec)
    }

    #[test]
    fn module_structure_is_complete() {
        let (dfg, s, dp, c, spec) = design();
        let v = emit_verilog(&dfg, &s, &dp, &c, &spec).unwrap();
        assert!(v.starts_with("// generated"));
        assert!(v.contains("module toy_design #("));
        assert!(v.contains("input wire [WIDTH-1:0] in_x"));
        assert!(v.contains("output wire [WIDTH-1:0] out_r"));
        assert!(v.contains("assign done = (state == 3);"));
        assert!(v.contains("alu0_y = alu0_a * alu0_b; // p"));
        assert!(v.ends_with("endmodule\n"));
        // Balanced begin/end and case/endcase.
        let begins = v.matches("begin").count();
        let ends = v.matches("end").count()
            - v.matches("endcase").count()
            - v.matches("endmodule").count();
        assert_eq!(begins, ends);
        assert_eq!(
            v.matches("case (state)").count(),
            v.matches("endcase").count()
        );
    }

    #[test]
    fn constants_become_wires() {
        let (dfg, s, dp, c, spec) = design();
        let v = emit_verilog(&dfg, &s, &dp, &c, &spec).unwrap();
        assert!(v.contains("wire [WIDTH-1:0] const_three = 3;"));
        assert!(v.contains("alu0_a = ") && v.contains("const_three"));
    }

    #[test]
    fn register_writes_land_in_the_right_states() {
        let (dfg, s, dp, c, spec) = design();
        let v = emit_verilog(&dfg, &s, &dp, &c, &spec).unwrap();
        // p is written at the end of state 1 from ALU0, q at state 2.
        assert!(v.contains("<= alu0_y; // p"));
        assert!(v.contains("<= alu1_y; // q"));
    }

    #[test]
    fn identifiers_are_sanitised() {
        assert_eq!(ident("toy design"), "toy_design");
        assert_eq!(ident("3bad"), "_3bad");
        assert_eq!(ident("ok_name"), "ok_name");
    }
}

/// Emits a self-checking Verilog testbench for the module produced by
/// [`emit_verilog`]: applies the given input vector at `WIDTH = 64`
/// (where the module's semantics coincide with the `hls-sim` reference),
/// waits for `done`, compares every output port against `expected`, and
/// prints `PASS`/`FAIL` lines.
///
/// `inputs` maps primary-input signals to values and `expected` maps
/// design-output signals to the behavioural values (obtain both from
/// `hls-sim`'s `interpret`).
///
/// # Errors
///
/// [`ControlError::Unstored`] when an expected output is not a design
/// output of `dfg`.
pub fn emit_testbench(
    dfg: &Dfg,
    inputs: &BTreeMap<hls_dfg::SignalId, i64>,
    expected: &BTreeMap<hls_dfg::SignalId, i64>,
) -> Result<String, ControlError> {
    let module = ident(dfg.name());
    let mut out = String::new();
    let _ = writeln!(out, "// self-checking testbench for `{module}`");
    let _ = writeln!(out, "`timescale 1ns/1ns");
    let _ = writeln!(out, "module {module}_tb;");
    let _ = writeln!(out, "  reg clk = 0, rst = 1;");
    let _ = writeln!(out, "  always #5 clk = ~clk;");
    for &sid in inputs.keys() {
        let sig = dfg.signal(sid);
        let _ = writeln!(out, "  reg [63:0] in_{};", ident(sig.name()));
    }
    for &sid in expected.keys() {
        if !dfg.consumers(sid).is_empty() {
            return Err(ControlError::Unstored(sid));
        }
        let sig = dfg.signal(sid);
        let _ = writeln!(out, "  wire [63:0] out_{};", ident(sig.name()));
    }
    let _ = writeln!(out, "  wire done;");
    let _ = writeln!(out, "  {module} #(.WIDTH(64)) dut (");
    let _ = writeln!(out, "    .clk(clk), .rst(rst), .done(done),");
    let mut ports = Vec::new();
    for &sid in inputs.keys() {
        let n = ident(dfg.signal(sid).name());
        ports.push(format!("    .in_{n}(in_{n})"));
    }
    for &sid in expected.keys() {
        let n = ident(dfg.signal(sid).name());
        ports.push(format!("    .out_{n}(out_{n})"));
    }
    let _ = writeln!(out, "{}", ports.join(",\n"));
    let _ = writeln!(out, "  );");
    let _ = writeln!(out, "  initial begin");
    for (&sid, &v) in inputs {
        let n = ident(dfg.signal(sid).name());
        let _ = writeln!(out, "    in_{n} = 64'h{:016x};", v as u64);
    }
    let _ = writeln!(out, "    @(posedge clk); #1 rst = 0;");
    let _ = writeln!(out, "    wait (done); @(posedge clk); #1;");
    for (&sid, &v) in expected {
        let n = ident(dfg.signal(sid).name());
        let _ = writeln!(
            out,
            "    if (out_{n} !== 64'h{:016x}) $display(\"FAIL {n}: got %h\", out_{n});",
            v as u64
        );
        let _ = writeln!(out, "    else $display(\"PASS {n}\");");
    }
    let _ = writeln!(out, "    $finish;");
    let _ = writeln!(out, "  end");
    let _ = writeln!(out, "endmodule");
    Ok(out)
}

#[cfg(test)]
mod testbench_tests {
    use super::*;
    use hls_celllib::OpKind;
    use hls_dfg::DfgBuilder;

    #[test]
    fn testbench_wires_ports_and_expectations() {
        let mut b = DfgBuilder::new("toy");
        let x = b.input("x");
        let y = b.input("y");
        let p = b.op("p", OpKind::Add, &[x, y]).unwrap();
        b.op("q", OpKind::Mul, &[p, y]).unwrap();
        let dfg = b.finish().unwrap();
        let q_sig = dfg.signal_by_name("q").unwrap();
        let inputs = [(x, 6i64), (y, 7)].into_iter().collect();
        let expected = [(q_sig, 91i64)].into_iter().collect();
        let tb = emit_testbench(&dfg, &inputs, &expected).unwrap();
        assert!(tb.contains("module toy_tb;"));
        assert!(tb.contains("toy #(.WIDTH(64)) dut ("));
        assert!(tb.contains("in_x = 64'h0000000000000006;"));
        assert!(tb.contains("if (out_q !== 64'h000000000000005b)"));
        assert!(tb.contains("$finish;"));
    }

    #[test]
    fn non_output_expectation_is_rejected() {
        let mut b = DfgBuilder::new("toy");
        let x = b.input("x");
        let p = b.op("p", OpKind::Inc, &[x]).unwrap();
        b.op("q", OpKind::Dec, &[p]).unwrap();
        let dfg = b.finish().unwrap();
        let p_sig = dfg.signal_by_name("p").unwrap();
        let expected = [(p_sig, 1i64)].into_iter().collect();
        assert!(matches!(
            emit_testbench(&dfg, &BTreeMap::new(), &expected),
            Err(ControlError::Unstored(_))
        ));
    }
}
