//! The metric catalogue, the span ledger and the result printer.
//!
//! Every metric the benchmark can report is declared once here, with
//! its unit and, for per-layer metrics, the end-to-end metric and
//! workload it is expected to move. `BENCHMARK.json` lists the same
//! names; later performance claims cite them.

use std::collections::BTreeMap;
use std::time::Instant;

use hls_telemetry::{epoch_ns, TraceEvent};

/// `(name, unit, meaning)` of every end-to-end metric. Each workload
/// reports all of them on an untraced run.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    (
        "setup_s",
        "s",
        "input generation + text serialisation (+ daemon start and warm-up), median of repeats",
    ),
    (
        "design_wall_s",
        "s",
        "median wall of one design through the whole pipeline (serve: one cold job in process)",
    ),
    (
        "slo_share",
        "share",
        "operations answered correctly within the workload's latency limit (serve: open loop)",
    ),
    (
        "ops_per_s",
        "1/s",
        "operations per second (serve: closed-loop requests)",
    ),
    (
        "ok_share",
        "share",
        "1 - failed_share: operations that passed every output check",
    ),
    ("peak_rss_mb", "MB", "peak resident memory of the run"),
    (
        "csteps",
        "steps",
        "control steps of the checked designs (sum)",
    ),
    (
        "area_cost",
        "area",
        "MFSA CostReport total / MFS FU area of the checked designs (sum)",
    ),
    (
        "registers",
        "count",
        "registers of the checked designs (sum)",
    ),
];

/// One per-layer metric: name, unit, and what it should move.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub moves: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, moves: &'static str) -> Layer {
    Layer { name, unit, moves }
}

const SETUP_ALL: &str =
    "setup_s on every workload; design_wall_s and ops_per_s on serve_mixed (cold-body parsing)";
const MFSA: &str = "design_wall_s on synth_large and synth_sharded; design_wall_s and ops_per_s on serve_mixed via misses";
const MFS: &str =
    "design_wall_s on synth_sharded; design_wall_s and ops_per_s on serve_mixed via misses";
const SCHED: &str = "design_wall_s on synth_large and synth_sharded";
const RTL: &str = "design_wall_s and area_cost on synth_large";
const LARGE: &str = "design_wall_s on synth_large";
const ITER: &str = "design_wall_s and slo_share on serve_mixed";
const PART: &str = "design_wall_s on synth_sharded";
const EXPLORE: &str = "ops_per_s on serve_mixed";
const SERVE: &str = "ops_per_s and slo_share on serve_mixed";

/// Every per-layer metric. A traced run reports all of them; a layer
/// that does no work on a workload reads 0 there — the prediction that
/// a change to it leaves that workload alone.
pub const PER_LAYER: &[Layer] = &[
    layer("dfg.build_ms", "ms", SETUP_ALL),
    layer("dfg.parse_ms", "ms", SETUP_ALL),
    layer("dfg.nodes", "count", SETUP_ALL),
    layer("dfg.signals", "count", SETUP_ALL),
    layer("mfsa.frames_ms", "ms", MFSA),
    layer("mfsa.priority_ms", "ms", MFSA),
    layer("mfsa.move_loop_ms", "ms", MFSA),
    layer("mfsa.datapath_ms", "ms", MFSA),
    layer("mfsa.other_ms", "ms", MFSA),
    layer("mfsa.energy_evaluations", "count", MFSA),
    layer("mfsa.bound.evals", "count", MFSA),
    layer("mfsa.prune.cut_instances", "count", MFSA),
    layer("mfsa.prune.cut_steps", "count", MFSA),
    layer("mfsa.useful_eval_ratio", "ratio", MFSA),
    layer("mfs.move_loop_ms", "ms", MFS),
    layer("mfs.energy_evaluations", "count", MFS),
    layer("mfs.frames_computed", "count", MFS),
    layer("mfs.local_reschedules", "count", MFS),
    layer("schedule.stats_ms", "ms", SCHED),
    layer("schedule.verify_ms", "ms", SCHED),
    layer("schedule.render_ms", "ms", LARGE),
    layer("mem.port_check_ms", "ms", SCHED),
    layer("rtl.verify_ms", "ms", RTL),
    layer("rtl.alus", "count", RTL),
    layer("rtl.mux_inputs", "count", RTL),
    layer("rtl.registers", "count", RTL),
    layer("control.controller_ms", "ms", LARGE),
    layer("control.verilog_ms", "ms", LARGE),
    layer("control.testbench_ms", "ms", LARGE),
    layer("control.render_ms", "ms", LARGE),
    layer("control.verilog_bytes", "bytes", LARGE),
    layer("sim.interpret_ms", "ms", LARGE),
    layer("sim.equivalence_ms", "ms", LARGE),
    layer("sim.mismatches", "count", LARGE),
    layer("iterate.refine_ms", "ms", ITER),
    layer("iterate.splices_accepted", "count", ITER),
    layer("iterate.splices_rejected", "count", ITER),
    layer("partition.cut_ms", "ms", PART),
    layer("partition.extract_ms", "ms", PART),
    layer("partition.schedule_shards_ms", "ms", PART),
    layer("partition.stitch_ms", "ms", PART),
    layer("partition.cut_edges", "count", PART),
    layer("partition.stitch_moves", "count", PART),
    layer("partition.slowest_shard_share", "share", PART),
    layer("explore.schedule_point_ms", "ms", EXPLORE),
    layer("explore.cache.hits", "count", EXPLORE),
    layer("explore.cache.misses", "count", EXPLORE),
    layer("explore.cache.hit_ratio", "ratio", EXPLORE),
    layer("explore.cache.disk.writes", "count", EXPLORE),
    layer("serve.open_p50_ms", "ms", SERVE),
    layer("serve.open_p99_ms", "ms", SERVE),
    layer("serve.hit_p50_ms", "ms", SERVE),
    layer("serve.miss_p50_ms", "ms", SERVE),
    layer("serve.miss_p99_ms", "ms", SERVE),
    layer("serve.batch_p50_ms", "ms", SERVE),
    layer("serve.queue_wait_mean_ms", "ms", SERVE),
    layer("serve.compute_mean_ms", "ms", SERVE),
    layer("serve.fastpath.hits", "count", SERVE),
    layer("serve.rejected_429", "count", SERVE),
    layer("serve.parse_job_ms", "ms", SERVE),
    layer("serve.point_json_ms", "ms", SERVE),
    layer(
        "loadgen.lag_p99_ms",
        "ms",
        "none: a high value marks a run whose generator fell behind",
    ),
    layer(
        "serve.backlog_end",
        "count",
        "none: above 0 marks a saturated open-loop run",
    ),
    layer(
        "trace.overhead_share",
        "share",
        "none: (traced - untraced) / untraced design_wall_s",
    ),
    layer(
        "trace.coverage_share",
        "share",
        "none: layer self time over design_wall_s (synth workloads)",
    ),
];

/// One closed span: `name` ran from `start_ns` for `dur_ns` on the
/// telemetry epoch shared with the program's own `PhaseSpan` events.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// The benchmark's own spans around the calls it makes into each
/// layer, plus any `PhaseSpan` events the program emitted inside them.
#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
}

impl Spans {
    /// Runs `f` as span `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let opened = Spans::open();
        let out = f();
        self.close(name, opened);
        out
    }

    /// Starts a span whose body itself records spans; end it with
    /// [`Spans::close`].
    pub fn open() -> (u64, Instant) {
        (epoch_ns(), Instant::now())
    }

    /// Ends the span `opened` as `name`; returns its length in seconds.
    pub fn close(&mut self, name: &str, (start_ns, started): (u64, Instant)) -> f64 {
        let dur = started.elapsed();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            dur_ns: dur.as_nanos() as u64,
        });
        dur.as_secs_f64()
    }

    /// Adds the program's `PhaseSpan` events.
    pub fn absorb(&mut self, events: &[TraceEvent]) {
        for e in events {
            if let TraceEvent::PhaseSpan {
                phase,
                start_ns,
                dur_ns,
            } = e
            {
                self.spans.push(Span {
                    name: phase.to_string(),
                    start_ns: *start_ns,
                    dur_ns: *dur_ns,
                });
            }
        }
    }

    /// Durations of the spans named `name` in milliseconds, in the
    /// order they closed.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    }

    /// Inclusive milliseconds of every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e6)
            .sum()
    }

    /// Self time per span name in milliseconds: each span's duration
    /// minus the part its direct children cover.
    pub fn self_ms(&self) -> BTreeMap<String, f64> {
        let mut order: Vec<&Span> = self.spans.iter().collect();
        order.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.dur_ns.cmp(&a.dur_ns)));
        let mut child_ns = vec![0u64; order.len()];
        let mut stack: Vec<usize> = Vec::new();
        for (i, s) in order.iter().enumerate() {
            while let Some(&top) = stack.last() {
                if order[top].start_ns + order[top].dur_ns <= s.start_ns {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&parent) = stack.last() {
                child_ns[parent] += s.dur_ns;
            }
            stack.push(i);
        }
        let mut out = BTreeMap::new();
        for (s, child) in order.iter().zip(child_ns) {
            *out.entry(s.name.clone()).or_insert(0.0) +=
                s.dur_ns.saturating_sub(child) as f64 / 1e6;
        }
        out
    }
}

/// Whether set-up has been repeated enough: at least 3 times and for at
/// least a second, so that `setup_s`, the median, is steady even when
/// one set-up takes milliseconds.
pub fn setup_done(reps: usize, started: Instant) -> bool {
    reps >= 3 && started.elapsed().as_secs_f64() >= 1.0
}

/// The `q`-quantile (0..=1) of `values` by the nearest-rank rule; 0
/// for an empty sample.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The tail latency of `values`: the 99th percentile, or, with fewer
/// than 1000 samples, the highest percentile that still has ten samples
/// beyond it — never below the median.
pub fn p99(values: &[f64]) -> f64 {
    let q = 1.0 - 10.0 / values.len().max(1) as f64;
    quantile(values, q.clamp(0.5, 0.99))
}

/// The median of `values` (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed (printed, never silently dropped).
    pub failures: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
    /// Extra human-readable lines (the layer self-time table).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    /// Prints the report: one line per metric with its unit, then the
    /// one-line JSON result (the last line of standard output).
    pub fn print(&self, workload: &str, seed: u64, traced: bool) {
        println!(
            "perfbench {workload} seed={seed} trace={}",
            u8::from(traced)
        );
        for why in &self.failures {
            println!("FAILED: {why}");
        }
        for note in &self.notes {
            println!("{note}");
        }
        println!(
            "  {:<32} {:>14} {:<6} ({} of {} operations failed)",
            "failed_share",
            fmt(self.failed as f64 / self.attempted.max(1) as f64),
            "share",
            self.failed,
            self.attempted
        );
        let mut json = Vec::new();
        if traced {
            for l in PER_LAYER {
                let v = self.values.get(l.name).copied();
                println!(
                    "  {:<32} {:>14} {:<6} moves: {}",
                    l.name,
                    v.map_or("(not run)".to_string(), fmt),
                    l.unit,
                    l.moves
                );
                json.push((l.name, v.unwrap_or(0.0), l.unit));
            }
        } else {
            for &(name, unit, meaning) in END_TO_END {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                println!("  {name:<32} {:>14} {unit:<6} {meaning}", fmt(v));
                json.push((name, v, unit));
            }
        }
        let metrics: Vec<String> = json
            .iter()
            .map(|(name, v, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(*v)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

fn fmt(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

/// A JSON number with every digit as measured (non-finite values, which
/// JSON cannot carry, read as 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}
