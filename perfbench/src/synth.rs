//! The two synthesis workloads: `synth_large` (one ~6k-node MFSA
//! design through the whole `mfhls synth --check --verilog --testbench
//! -v` pipeline) and `synth_sharded` (a ~50k-node MFS design and an
//! ~8k-node MFSA design through the partition pipeline).

use std::collections::BTreeMap;
use std::time::Instant;

use hls_bench::scaling::fingerprint;
use hls_benchmarks::generate::{
    clustered_workload, generate, generate_clustered, scaling_workload, ClusteredConfig,
    GeneratorConfig,
};
use hls_celllib::{Library, TimingSpec};
use hls_control::{emit_testbench, emit_verilog, Controller};
use hls_dfg::{parse_dfg, Dfg, SignalSource};
use hls_partition::{
    auto_shards, extract, merge_and_stitch, partition, schedule_shards, ShardAlg, ShardSchedule,
};
use hls_schedule::{render_schedule, verify, Schedule, ScheduleStats, VerifyOptions};
use hls_sim::{check_equivalence, interpret, random_inputs};
use hls_telemetry::{Instrument, MemorySink, Metrics, NullSink, TraceSink};
use moveframe::mfsa::{self, MfsaConfig};

use crate::ledger::{median, peak_rss_mb, setup_done, Outcome, Spans};
use crate::Args;

/// Size and time constraint of `synth_large` (the `BENCH_core.json`
/// scaling shape, re-seeded per run).
const LARGE_OPS: usize = 6_000;
const LARGE_CS: u32 = 40;
/// `synth_sharded`: one MFS design split automatically, one MFSA design
/// on two shards, both on two worker threads.
const SHARDED_MFS_OPS: usize = 50_000;
const SHARDED_MFSA_OPS: usize = 8_000;
const SHARDED_MFSA_SHARDS: usize = 2;
const SHARD_THREADS: usize = 2;
/// `ShardedConfig::new` defaults: slack above each shard's critical
/// path and the stitcher's sweep cap.
const SHARD_SLACK: u32 = 2;
const STITCH_SWEEPS: usize = 4;
/// Latency limits behind `slo_share`.
const LARGE_SLO_S: f64 = 30.0;
const SHARDED_SLO_S: f64 = 30.0;

/// Fingerprint and quality of result of a design, pinned per seed.
/// `None` for seeds not in the table: those are held to run-to-run
/// identity only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    fingerprint: u64,
    csteps: u64,
    area: u64,
    registers: u64,
}

/// Pinned results of `(workload, seed)` for seeds 0–10, recorded from
/// the code this benchmark was defined on; a later change that moves
/// any of these schedules fails the benchmark's output check.
const PINS: &[(&str, u64, Pin)] = &[
    pin("synth_large", 0, 0x3807b4b3755c152e, 32, 4917724, 1118),
    pin("synth_large", 1, 0xb4e9d2f776b979a8, 32, 4603724, 1113),
    pin("synth_large", 2, 0xcf6fb83cf0cbda19, 32, 4867161, 1133),
    pin("synth_large", 3, 0xdc4bb1ecbc0ddfab, 32, 4754812, 1165),
    pin("synth_large", 4, 0x7718ccead5f3338c, 32, 4782072, 1067),
    pin("synth_large", 5, 0x42404a20d3c1437d, 32, 4613109, 1096),
    pin("synth_large", 6, 0xbb78b6e34e97f24f, 32, 4710982, 1090),
    pin("synth_large", 7, 0x8fcfe10ea93a107d, 32, 4804521, 1118),
    pin("synth_large", 8, 0x9e3c55d38f911891, 32, 4808235, 1113),
    pin("synth_large", 9, 0x6acae9cbee26e75b, 32, 4800338, 1091),
    pin("synth_large", 10, 0x345d846a2f6201be, 32, 4831574, 1122),
    pin("synth_sharded", 0, 0x8ae828bca1ae7448, 205, 9793940, 1191),
    pin("synth_sharded", 1, 0xb5dbd0a6d5117d82, 205, 9608350, 1172),
    pin("synth_sharded", 2, 0x7552e8ca37a99695, 203, 9609510, 1204),
    pin("synth_sharded", 3, 0x14fa9afefce390bf, 206, 9685590, 1265),
    pin("synth_sharded", 4, 0xcc747a71d92359c4, 206, 9634340, 1182),
    pin("synth_sharded", 5, 0x7e237c7d84e0c9c7, 201, 9688300, 1152),
    pin("synth_sharded", 6, 0x5c5e57e3e60ff882, 205, 9546190, 1219),
    pin("synth_sharded", 7, 0x398c01ddb88a7ba3, 205, 9768680, 1238),
    pin("synth_sharded", 8, 0x199cbbaef895beee, 204, 9530260, 1294),
    pin("synth_sharded", 9, 0xfd6399aa68373e05, 212, 9474770, 1280),
    pin("synth_sharded", 10, 0x8dc4e35446fb120f, 207, 9593170, 1227),
];

const fn pin(
    workload: &'static str,
    seed: u64,
    fingerprint: u64,
    csteps: u64,
    area: u64,
    registers: u64,
) -> (&'static str, u64, Pin) {
    (
        workload,
        seed,
        Pin {
            fingerprint,
            csteps,
            area,
            registers,
        },
    )
}

fn pinned(workload: &str, seed: u64) -> Option<Pin> {
    PINS.iter()
        .find(|(w, s, _)| *w == workload && *s == seed)
        .map(|&(_, _, pin)| pin)
}

fn steps_used(dfg: &Dfg, schedule: &Schedule, spec: &TimingSpec) -> u64 {
    dfg.node_ids()
        .filter_map(|n| schedule.finish(n, dfg, spec))
        .map(|s| s.get() as u64)
        .max()
        .unwrap_or(0)
}

/// Builds the designs the way a user hands them over: generated,
/// written as `.dfg` text, parsed back. Repeated (see [`setup_done`]);
/// the median lands in `setup_s`, the parsed graphs of the last
/// repetition are synthesised. The check: the parsed graph writes the
/// same text back (writer and parser agree; the generators may number
/// signals differently from the text's inputs-first order).
fn setup(out: &mut Outcome, make: impl Fn() -> Vec<Dfg>) -> Vec<Dfg> {
    let mut totals = Vec::new();
    let mut builds = Vec::new();
    let mut parses = Vec::new();
    let mut last = Vec::new();
    let started = Instant::now();
    while !setup_done(totals.len(), started) {
        let t0 = Instant::now();
        let built = make();
        let t1 = Instant::now();
        let texts: Vec<String> = built
            .iter()
            .map(|d| {
                d.to_text()
                    .expect("generated graphs are expressible as text")
            })
            .collect();
        let t2 = Instant::now();
        let parsed: Vec<_> = texts.iter().map(|t| parse_dfg(t)).collect();
        let t3 = Instant::now();
        totals.push((t3 - t0).as_secs_f64());
        builds.push((t1 - t0).as_secs_f64() * 1e3);
        parses.push((t3 - t2).as_secs_f64() * 1e3);
        last.clear();
        for ((built, text), parsed) in built.into_iter().zip(&texts).zip(parsed) {
            // A failed check counts as a failed operation; the run goes on
            // with the generated graph.
            match parsed {
                Ok(dfg) if dfg.to_text().as_ref() == Some(text) => last.push(dfg),
                Ok(_) => {
                    out.attempted += 1;
                    out.fail("setup: the .dfg text did not round-trip".into());
                    last.push(built);
                }
                Err(e) => {
                    out.attempted += 1;
                    out.fail(format!("setup: the .dfg text did not parse: {e}"));
                    last.push(built);
                }
            }
        }
    }
    out.set("setup_s", median(&totals));
    out.set("dfg.build_ms", median(&builds));
    out.set("dfg.parse_ms", median(&parses));
    out.set(
        "dfg.nodes",
        last.iter().map(|d| d.node_count() as f64).sum(),
    );
    out.set(
        "dfg.signals",
        last.iter().map(|d| d.signal_count() as f64).sum(),
    );
    last
}

/// What one `synth_large` design produced.
struct LargeDesign {
    pin: Pin,
    problems: Vec<String>,
    alus: usize,
    mux_inputs: usize,
    registers: usize,
    verilog_bytes: usize,
    mismatches: usize,
}

/// One design through the `synth --check --verilog --testbench -v`
/// library calls, text outputs rendered into memory, then the output
/// checks.
fn large_design(
    dfg: &Dfg,
    spec: &TimingSpec,
    config: &MfsaConfig,
    spans: &mut Spans,
    sink: &mut dyn TraceSink,
    metrics: &mut Metrics,
) -> Result<LargeDesign, String> {
    let out = spans.time("mfsa.schedule", || {
        let mut instr = Instrument::new(sink, metrics);
        mfsa::schedule_traced(dfg, spec, config, &mut instr)
    });
    let out = out.map_err(|e| format!("mfsa: {e}"))?;
    let schedule = &out.schedule;
    spans.time("schedule.stats", || {
        std::hint::black_box(ScheduleStats::compute(dfg, schedule, spec));
    });
    spans.time("schedule.render", || {
        std::hint::black_box(format!(
            "{}{}{}\n",
            render_schedule(dfg, schedule, spec),
            out.datapath,
            out.cost
        ));
    });
    let controller = spans
        .time("control.controller", || {
            Controller::generate(dfg, schedule, &out.datapath, spec)
        })
        .map_err(|e| format!("controller: {e}"))?;
    spans.time("control.render", || {
        std::hint::black_box(controller.render(dfg));
    });
    let mismatches = spans.time("sim.equivalence", || {
        (0..8u64).try_fold(0usize, |worst, seed| {
            let inputs = random_inputs(dfg, seed);
            check_equivalence(dfg, schedule, &out.datapath, spec, &inputs)
                .map(|m| worst.max(m.len()))
        })
    });
    let mismatches = mismatches.map_err(|e| format!("equivalence: {e}"))?;
    let verilog = spans
        .time("control.verilog", || {
            emit_verilog(dfg, schedule, &out.datapath, &controller, spec)
        })
        .map_err(|e| format!("verilog: {e}"))?;
    let inputs = random_inputs(dfg, 0);
    let values = spans
        .time("sim.interpret", || interpret(dfg, &inputs))
        .map_err(|e| format!("interpret: {e}"))?;
    let testbench = spans.time("control.testbench", || {
        let expected: BTreeMap<_, _> = dfg
            .signals()
            .filter(|(sid, s)| {
                matches!(s.source(), SignalSource::Node(_)) && dfg.consumers(*sid).is_empty()
            })
            .map(|(sid, _)| (sid, values[&sid]))
            .collect();
        emit_testbench(dfg, &inputs, &expected)
    });
    let testbench = testbench.map_err(|e| format!("testbench: {e}"))?;
    let violations = spans.time("schedule.verify", || {
        verify(dfg, schedule, spec, VerifyOptions::default())
    });
    let rtl_violations = spans.time("rtl.verify", || {
        hls_rtl::verify_datapath(dfg, schedule, &out.datapath, spec)
    });
    let ports = spans.time("mem.port_check", || {
        hls_mem::check_port_safety(dfg, schedule)
    });

    let mut problems = Vec::new();
    if !violations.is_empty() {
        problems.push(format!("{} schedule violation(s)", violations.len()));
    }
    if !rtl_violations.is_empty() {
        problems.push(format!("{} data-path violation(s)", rtl_violations.len()));
    }
    match ports {
        Ok(v) if v.is_empty() => {}
        Ok(v) => problems.push(format!("{} port violation(s)", v.len())),
        Err(e) => problems.push(format!("port check: {e}")),
    }
    if mismatches > 0 {
        problems.push(format!("{mismatches} equivalence mismatch(es)"));
    }
    if verilog.is_empty() || testbench.is_empty() {
        problems.push("empty Verilog or testbench".into());
    }
    Ok(LargeDesign {
        pin: Pin {
            fingerprint: fingerprint(schedule),
            csteps: steps_used(dfg, schedule, spec),
            area: out.cost.total().as_u64(),
            registers: out.cost.reg_count as u64,
        },
        problems,
        alus: out.datapath.alus().len(),
        mux_inputs: out.cost.mux_inputs,
        registers: out.cost.reg_count,
        verilog_bytes: verilog.len(),
        mismatches,
    })
}

/// Holds every design of a run to the first one (same inputs, same
/// output) and to the pinned table; returns the problems found.
fn check_pin(reference: &mut Option<Pin>, workload: &str, seed: u64, got: Pin) -> Vec<String> {
    let mut problems = Vec::new();
    if let Some(pin) = pinned(workload, seed) {
        if got != pin {
            problems.push(format!("result {got:?} differs from the pinned {pin:?}"));
        }
    }
    match reference {
        Some(first) if *first != got => problems.push(format!(
            "result {got:?} differs from this run's first {first:?}"
        )),
        Some(_) => {}
        None => *reference = Some(got),
    }
    problems
}

/// Runs designs until `budget_s` is used (at least `min` of them),
/// never starting one that the median so far says would overrun.
/// Returns each design's wall time and whether it passed its checks.
fn design_loop(
    budget_s: f64,
    min: usize,
    mut design: impl FnMut() -> (f64, bool),
) -> Vec<(f64, bool)> {
    let start = Instant::now();
    let mut runs: Vec<(f64, bool)> = Vec::new();
    while runs.len() < min || {
        let walls: Vec<f64> = runs.iter().map(|r| r.0).collect();
        start.elapsed().as_secs_f64() + median(&walls) <= budget_s
    } {
        runs.push(design());
    }
    runs
}

fn end_to_end(out: &mut Outcome, runs: &[(f64, bool)], slo_s: f64, pin: Option<Pin>) {
    let walls: Vec<f64> = runs.iter().map(|r| r.0).collect();
    out.set("design_wall_s", median(&walls));
    let within = runs.iter().filter(|&&(w, ok)| ok && w <= slo_s).count();
    out.set("slo_share", within as f64 / runs.len() as f64);
    out.set("ops_per_s", walls.len() as f64 / walls.iter().sum::<f64>());
    out.set(
        "ok_share",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.set("peak_rss_mb", peak_rss_mb());
    if let Some(p) = pin {
        out.set("csteps", p.csteps as f64);
        out.set("area_cost", p.area as f64);
        out.set("registers", p.registers as f64);
        out.notes.push(format!(
            "result: fingerprint {:#018x}, csteps {}, area {}, registers {}",
            p.fingerprint, p.csteps, p.area, p.registers
        ));
    }
}

/// Adds the self-time table and the coverage figure of the traced
/// design(s) to the report.
fn ledger(out: &mut Outcome, spans: &Spans, root: &str, names: &[(&str, &'static str)]) {
    let selfs = spans.self_ms();
    let wall = spans.total_ms(root);
    for &(span, metric) in names {
        out.set(metric, selfs.get(span).copied().unwrap_or(0.0));
    }
    let unattributed = selfs.get(root).copied().unwrap_or(0.0);
    let coverage = if wall > 0.0 {
        1.0 - unattributed / wall
    } else {
        0.0
    };
    out.set("trace.coverage_share", coverage);
    out.notes.push(format!(
        "layer self time of the traced {root} ({wall:.1} ms):"
    ));
    let mut rows: Vec<(&String, &f64)> = selfs.iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(a.1));
    for (name, ms) in rows {
        let label = if name == root {
            "(unattributed)"
        } else {
            name.as_str()
        };
        out.notes.push(format!(
            "  {label:<32} {ms:>12.3} ms {:>6.2}%",
            100.0 * ms / wall.max(1e-9)
        ));
    }
    out.notes.push(format!(
        "  coverage: {:.2}% of design_wall_s attributed to named layers",
        100.0 * coverage
    ));
}

pub fn synth_large(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let seed = args.seed;
    let dfg = setup(&mut out, || {
        vec![generate(&GeneratorConfig {
            seed,
            ..scaling_workload(LARGE_OPS)
        })]
    })
    .remove(0);
    let spec = TimingSpec::uniform_single_cycle();
    let config = MfsaConfig::new(LARGE_CS, Library::ncr_like());
    let mut reference = None;
    let mut run = |out: &mut Outcome, traced: bool| -> (f64, bool, Spans, Metrics) {
        let failed_before = out.failed;
        let mut spans = Spans::default();
        let mut metrics = Metrics::new();
        let mut mem = MemorySink::new();
        let mut null = NullSink;
        let sink: &mut dyn TraceSink = if traced { &mut mem } else { &mut null };
        let opened = Spans::open();
        let design = large_design(&dfg, &spec, &config, &mut spans, sink, &mut metrics);
        let wall = spans.close("design", opened);
        out.attempted += 1;
        let problems = match design {
            Ok(d) => {
                let mut p = d.problems;
                p.extend(check_pin(&mut reference, "synth_large", seed, d.pin));
                out.set("rtl.alus", d.alus as f64);
                out.set("rtl.mux_inputs", d.mux_inputs as f64);
                out.set("rtl.registers", d.registers as f64);
                out.set("control.verilog_bytes", d.verilog_bytes as f64);
                out.set("sim.mismatches", d.mismatches as f64);
                p
            }
            Err(e) => vec![e],
        };
        if !problems.is_empty() {
            out.fail(format!("synth_large design: {}", problems.join("; ")));
        }
        spans.absorb(mem.events());
        (wall, out.failed == failed_before, spans, metrics)
    };

    let untraced_budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let min = if args.trace { 1 } else { 2 };
    let runs = design_loop(untraced_budget, min, || {
        let (wall, ok, _, _) = run(&mut out, false);
        (wall, ok)
    });
    if args.trace {
        let (wall, _, spans, metrics) = run(&mut out, true);
        let base = median(&runs.iter().map(|r| r.0).collect::<Vec<_>>());
        out.set("trace.overhead_share", (wall - base) / base);
        ledger(
            &mut out,
            &spans,
            "design",
            &[
                ("mfsa.frames", "mfsa.frames_ms"),
                ("mfsa.priority", "mfsa.priority_ms"),
                ("mfsa.move_loop", "mfsa.move_loop_ms"),
                ("mfsa.datapath", "mfsa.datapath_ms"),
                ("mfsa.schedule", "mfsa.other_ms"),
                ("schedule.stats", "schedule.stats_ms"),
                ("schedule.render", "schedule.render_ms"),
                ("schedule.verify", "schedule.verify_ms"),
                ("mem.port_check", "mem.port_check_ms"),
                ("rtl.verify", "rtl.verify_ms"),
                ("control.controller", "control.controller_ms"),
                ("control.render", "control.render_ms"),
                ("control.verilog", "control.verilog_ms"),
                ("control.testbench", "control.testbench_ms"),
                ("sim.interpret", "sim.interpret_ms"),
                ("sim.equivalence", "sim.equivalence_ms"),
            ],
        );
        mfsa_counters(&mut out, &metrics);
    }
    end_to_end(&mut out, &runs, LARGE_SLO_S, reference);
    out
}

fn mfsa_counters(out: &mut Outcome, metrics: &Metrics) {
    let evals = metrics.counter("mfsa.energy_evaluations") as f64;
    let bound = metrics.counter("mfsa.bound.evals") as f64;
    out.set("mfsa.energy_evaluations", evals);
    out.set("mfsa.bound.evals", bound);
    out.set(
        "mfsa.prune.cut_instances",
        metrics.counter("mfsa.prune.cut_instances") as f64,
    );
    out.set(
        "mfsa.prune.cut_steps",
        metrics.counter("mfsa.prune.cut_steps") as f64,
    );
    out.set(
        "mfsa.useful_eval_ratio",
        if bound > 0.0 { evals / bound } else { 0.0 },
    );
}

/// Sum of a per-shard phase histogram in milliseconds.
fn phase_ms(metrics: &Metrics, phase: &str) -> f64 {
    metrics
        .histogram(&format!("phase.{phase}.ns"))
        .map_or(0.0, |h| h.sum() as f64 / 1e6)
}

/// What one sharded design produced.
struct ShardedDesign {
    pin: Pin,
    problems: Vec<String>,
    cut_edges: usize,
    stitch_moves: u64,
    /// The slowest shard's scheduler time, in ms.
    slowest_shard_ms: f64,
    shard_metrics: Metrics,
}

/// One design through `partition` → `extract` → `schedule_shards` →
/// `merge_and_stitch` → `verify` (what `synth_sharded` chains), plus
/// the port check and, when `stats` is set, the register count.
fn sharded_design(
    dfg: &Dfg,
    spec: &TimingSpec,
    shards: usize,
    alg: &ShardAlg,
    stats: bool,
    spans: &mut Spans,
) -> Result<ShardedDesign, String> {
    let k = if shards == 0 {
        auto_shards(dfg.node_count())
    } else {
        shards
    };
    let part = spans
        .time("partition.cut", || partition(dfg, k))
        .map_err(|e| e.to_string())?;
    let graphs = spans
        .time("partition.extract", || {
            (0..part.shard_count())
                .map(|s| extract(dfg, &part, s))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| e.to_string())?;
    let scheds: Vec<ShardSchedule> = spans
        .time("partition.schedule_shards", || {
            schedule_shards(&graphs, spec, alg, SHARD_SLACK, SHARD_THREADS)
        })
        .map_err(|e| e.to_string())?;
    let merged = spans
        .time("partition.stitch", || {
            merge_and_stitch(dfg, spec, &part, &graphs, &scheds, STITCH_SWEEPS)
        })
        .map_err(|e| e.to_string())?;
    let violations = spans.time("schedule.verify", || {
        verify(dfg, &merged.schedule, spec, VerifyOptions::default())
    });
    let ports = spans.time("mem.port_check", || {
        hls_mem::check_port_safety(dfg, &merged.schedule)
    });
    let registers = if stats {
        spans.time("schedule.stats", || {
            ScheduleStats::compute(dfg, &merged.schedule, spec).registers as u64
        })
    } else {
        0
    };

    let mut problems = Vec::new();
    if !violations.is_empty() {
        problems.push(format!("{} schedule violation(s)", violations.len()));
    }
    match ports {
        Ok(v) if v.is_empty() => {}
        Ok(v) => problems.push(format!("{} port violation(s)", v.len())),
        Err(e) => problems.push(format!("port check: {e}")),
    }
    let library = Library::ncr_like();
    let area = match alg {
        ShardAlg::Mfs => merged
            .schedule
            .fu_counts()
            .iter()
            .map(|(class, &n)| {
                let unit = class
                    .base_op()
                    .and_then(|op| library.fu_area(op).ok())
                    .map_or(1000, |a| a.as_u64());
                n as u64 * unit
            })
            .sum(),
        ShardAlg::Mfsa(_) => 0,
    };
    let mut shard_metrics = Metrics::new();
    let mut slowest_shard_ms: f64 = 0.0;
    for s in &scheds {
        shard_metrics.merge(&s.metrics);
        let busy: f64 = s
            .metrics
            .histograms()
            .filter(|(name, _)| name.starts_with("phase."))
            .map(|(_, h)| h.sum() as f64 / 1e6)
            .sum();
        slowest_shard_ms = slowest_shard_ms.max(busy);
    }
    Ok(ShardedDesign {
        pin: Pin {
            fingerprint: fingerprint(&merged.schedule),
            csteps: merged.csteps as u64,
            area,
            registers,
        },
        problems,
        cut_edges: part.cut_edges().len(),
        stitch_moves: merged.stitch_moves,
        slowest_shard_ms,
        shard_metrics,
    })
}

pub fn synth_sharded(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let seed = args.seed;
    let clustered = |ops: usize| {
        let base = clustered_workload(ops);
        generate_clustered(&ClusteredConfig {
            region: GeneratorConfig {
                seed,
                ..base.region.clone()
            },
            ..base
        })
    };
    let designs = setup(&mut out, || {
        vec![clustered(SHARDED_MFS_OPS), clustered(SHARDED_MFSA_OPS)]
    });
    let (large, small) = (&designs[0], &designs[1]);
    let spec = TimingSpec::uniform_single_cycle();
    let mfsa_alg = ShardAlg::Mfsa(Library::ncr_like());
    let mut reference = None;
    let mut run =
        |out: &mut Outcome| -> (f64, bool, Spans, Option<(ShardedDesign, ShardedDesign)>) {
            let failed_before = out.failed;
            let mut spans = Spans::default();
            let opened = Spans::open();
            let designs = sharded_design(large, &spec, 0, &ShardAlg::Mfs, false, &mut spans)
                .and_then(|a| {
                    let b = sharded_design(
                        small,
                        &spec,
                        SHARDED_MFSA_SHARDS,
                        &mfsa_alg,
                        true,
                        &mut spans,
                    )?;
                    Ok((a, b))
                });
            let wall = spans.close("design", opened);
            out.attempted += 1;
            match designs {
                Ok((a, b)) => {
                    let mut problems = a.problems.clone();
                    problems.extend(b.problems.iter().cloned());
                    // The round's result: both fingerprints folded, QoR summed.
                    let round = Pin {
                        fingerprint: a.pin.fingerprint.rotate_left(1) ^ b.pin.fingerprint,
                        csteps: a.pin.csteps + b.pin.csteps,
                        area: a.pin.area + b.pin.area,
                        registers: a.pin.registers + b.pin.registers,
                    };
                    problems.extend(check_pin(&mut reference, "synth_sharded", seed, round));
                    if !problems.is_empty() {
                        out.fail(format!("synth_sharded round: {}", problems.join("; ")));
                    }
                    (wall, out.failed == failed_before, spans, Some((a, b)))
                }
                Err(e) => {
                    out.fail(format!("synth_sharded round: {e}"));
                    (wall, false, spans, None)
                }
            }
        };

    let untraced_budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let min = if args.trace { 1 } else { 2 };
    let runs = design_loop(untraced_budget, min, || {
        let (wall, ok, _, _) = run(&mut out);
        (wall, ok)
    });
    if args.trace {
        let (wall, _, spans, designs) = run(&mut out);
        let base = median(&runs.iter().map(|r| r.0).collect::<Vec<_>>());
        out.set("trace.overhead_share", (wall - base) / base);
        ledger(
            &mut out,
            &spans,
            "design",
            &[
                ("partition.cut", "partition.cut_ms"),
                ("partition.extract", "partition.extract_ms"),
                ("partition.schedule_shards", "partition.schedule_shards_ms"),
                ("partition.stitch", "partition.stitch_ms"),
                ("schedule.verify", "schedule.verify_ms"),
                ("schedule.stats", "schedule.stats_ms"),
                ("mem.port_check", "mem.port_check_ms"),
            ],
        );
        if let Some((a, b)) = designs {
            out.set("partition.cut_edges", (a.cut_edges + b.cut_edges) as f64);
            out.set(
                "partition.stitch_moves",
                (a.stitch_moves + b.stitch_moves) as f64,
            );
            // On the MFS design: its automatic shards on two threads.
            let shards_wall = spans.durations_ms("partition.schedule_shards")[0];
            out.set(
                "partition.slowest_shard_share",
                a.slowest_shard_ms / shards_wall,
            );
            let m = &a.shard_metrics;
            out.set("mfs.move_loop_ms", phase_ms(m, "mfs.move_loop"));
            out.set(
                "mfs.energy_evaluations",
                m.counter("mfs.energy_evaluations") as f64,
            );
            out.set(
                "mfs.frames_computed",
                m.counter("mfs.frames_computed") as f64,
            );
            out.set(
                "mfs.local_reschedules",
                m.counter("mfs.local_reschedules") as f64,
            );
            let m = &b.shard_metrics;
            out.set("mfsa.frames_ms", phase_ms(m, "mfsa.frames"));
            out.set("mfsa.priority_ms", phase_ms(m, "mfsa.priority"));
            out.set("mfsa.move_loop_ms", phase_ms(m, "mfsa.move_loop"));
            out.set("mfsa.datapath_ms", phase_ms(m, "mfsa.datapath"));
            mfsa_counters(&mut out, m);
        }
    }
    end_to_end(&mut out, &runs, SHARDED_SLO_S, reference);
    out
}
