//! `mfhls` — the moveframe-hls command-line front end.
//!
//! `mfhls help` lists the subcommands; `mfhls help <subcommand>` prints
//! that subcommand's flags. The summary:
//!
//! ```text
//! mfhls info <file.dfg> [--dot]
//! mfhls schedule <file.dfg> --cs N [--resource] [--limit OP=N]...
//!                [--chain CLOCK] [--latency L] [--two-cycle-mul]
//!                [--svg FILE] [telemetry flags]
//! mfhls synth (<file.dfg> | gen:OPS) --cs N [--style2] [--weights T,A,M,R]
//!             [--lib FILE.lib] [--two-cycle-mul] [--iterate N] [--microcode]
//!             [--verilog] [--testbench] [--check] [--svg FILE] [--vcd FILE]
//!             [--shard N|auto [--shard-alg mfs|mfsa] [--threads N]]
//!             [telemetry flags]
//! mfhls explore <file.dfg> (--grid FILE.grid | --cs N[,M...] [--alg A[,B...]])
//!               [--limit OP=N]... [--chain CLOCK] [--latency L] [--style2]
//!               [--weights T,A,M,R] [--two-cycle-mul] [--threads N]
//!               [--emit front.json] [--metrics] [-q]
//! mfhls profile (<file.dfg> | gen:OPS) [--cs N] [--alg mfs|mfsa]
//!               [--top K] [--json] [--two-cycle-mul] [-q]
//! mfhls serve [--addr HOST:PORT] [--workers N] [--queue-cap N]
//!             [--cache-cap N] [--cache-dir DIR] [--deadline-ms N]
//!             [--keep-alive on|off] [--idle-timeout-ms N]
//!             [--read-timeout-ms N] [--pipeline-depth N] [--force-poll]
//!             [--access-log FILE] [-q]
//! ```
//!
//! Telemetry flags (schedule & synth): `--trace FILE.jsonl` streams the
//! scheduler's trace events as JSON Lines, `--chrome-trace FILE.json`
//! writes the phase spans as a Chrome/Perfetto flame chart,
//! `--metrics` prints the counter/histogram report, `-v` adds a phase
//! timing summary on stderr, `-q` silences routine output.
//!
//! Reads the textual DFG format (see `hls-dfg`), schedules with MFS or
//! synthesises with MFSA against the built-in NCR-like library, and
//! prints schedules, data paths, cost reports, microcode or Verilog.

use std::process::ExitCode;

use moveframe_hls::control::{emit_testbench, emit_verilog};
use moveframe_hls::prelude::*;

/// Observability options shared by `schedule` and `synth`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Telemetry {
    /// Write trace events as JSON Lines to this file.
    trace: Option<String>,
    /// Print the metrics report after the run.
    metrics: bool,
    /// Write phase spans as a Chrome/Perfetto trace to this file.
    chrome: Option<String>,
    /// Extra diagnostics on stderr.
    verbose: bool,
    /// Silence routine stdout output.
    quiet: bool,
}

impl Telemetry {
    /// Whether any option needs the scheduler's event stream.
    fn wants_events(&self) -> bool {
        self.trace.is_some() || self.chrome.is_some()
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Command {
    Help {
        topic: Option<String>,
    },
    Info {
        file: String,
        dot: bool,
    },
    Schedule {
        file: String,
        cs: u32,
        resource: bool,
        limits: Vec<(OpKind, u32)>,
        chain: Option<u32>,
        latency: Option<u32>,
        two_cycle_mul: bool,
        json: bool,
        svg: Option<String>,
        tel: Telemetry,
    },
    Synth {
        file: String,
        /// Monolithic mode: the MFSA time constraint (required).
        /// Sharded mode: an optional global control-step ceiling.
        cs: Option<u32>,
        style2: bool,
        weights: Option<[u32; 4]>,
        lib: Option<String>,
        two_cycle_mul: bool,
        json: bool,
        microcode: bool,
        verilog: bool,
        testbench: bool,
        check: bool,
        svg: Option<String>,
        vcd: Option<String>,
        /// `Some(n)` switches to sharded synthesis (`0` = auto shard
        /// count from the node count).
        shard: Option<usize>,
        /// Per-shard scheduler in sharded mode.
        shard_alg: Algorithm,
        /// Shard-pool worker threads (0 = all cores); output is
        /// identical for every value.
        threads: usize,
        /// Feedback-guided refinement iterations after the one-shot
        /// schedule (0 = plain one-shot).
        iterate: u32,
        /// Tap the one-shot pass with the attribution profiler and
        /// seed the refinement's extraction hints from its top node
        /// hotspots.
        iterate_profile: bool,
        tel: Telemetry,
    },
    Explore {
        file: String,
        grid: Option<String>,
        algs: Vec<Algorithm>,
        cs_list: Vec<u32>,
        limits: Vec<(OpKind, u32)>,
        chain: Option<u32>,
        latency: Option<u32>,
        style2: bool,
        weights: Option<[u32; 4]>,
        two_cycle_mul: bool,
        threads: usize,
        emit: Option<String>,
        iterate: u32,
        tel: Telemetry,
    },
    Profile {
        file: String,
        cs: Option<u32>,
        alg: Algorithm,
        top: usize,
        json: bool,
        two_cycle_mul: bool,
        quiet: bool,
    },
    Serve {
        config: ServeConfig,
        access_log: Option<String>,
        quiet: bool,
    },
}

/// The subcommands, in help order.
const SUBCOMMANDS: &[&str] = &["info", "schedule", "synth", "explore", "profile", "serve"];

/// Control-step slack `mfhls profile` adds above the critical path when
/// `--cs` is omitted — the same margin the `core_scaling` benchmark
/// uses, so a default profile observes the benchmark's frame widths.
const PROFILE_SLACK: u32 = 8;

/// How many of the hottest nodes `--iterate-profile` turns into
/// extraction hints. Hotspots are totally ordered (energy evaluations
/// descending, node index ascending), so a fixed cutoff is
/// deterministic.
const ITERATE_PROFILE_TOP: usize = 8;

/// Forwards the trace stream to the telemetry sink the user asked for
/// while the attribution profiler taps it for `--iterate-profile`.
struct TeeSink<'a> {
    main: &'a mut dyn TraceSink,
    tap: &'a mut Profiler,
}

impl TraceSink for TeeSink<'_> {
    fn record(&mut self, event: TraceEvent) {
        if self.main.enabled() {
            self.main.record(event.clone());
        }
        self.tap.record(event);
    }
}

/// The hottest profiled nodes as extraction hints, hottest first.
fn hotspot_hints(profiler: &Profiler, top: usize) -> Vec<NodeId> {
    profiler
        .hotspots(top)
        .iter()
        .map(|h| NodeId::from_index(h.op as usize))
        .collect()
}

fn usage() -> String {
    "usage: mfhls <subcommand> [args]\n\
     \n\
     subcommands:\n\
     \x20 info      inspect a .dfg file (operator mix, critical path, memory decls)\n\
     \x20 schedule  MFS move-frame scheduling (time- or resource-constrained)\n\
     \x20 synth     MFSA mixed scheduling-allocation down to RTL\n\
     \x20 explore   parallel design-space exploration over algorithms and budgets\n\
     \x20 profile   deterministic cost attribution and hotspot report\n\
     \x20 serve     synthesis-as-a-service HTTP daemon\n\
     \n\
     run `mfhls help <subcommand>` for that subcommand's flags.\n\
     `mfhls --version` prints the version."
        .to_string()
}

/// Detailed usage for one subcommand (`mfhls help <sub>`).
fn usage_for(sub: &str) -> Option<String> {
    let text = match sub {
        "info" => {
            "usage: mfhls info <file.dfg> [--dot]\n\
             \n\
             Prints the graph's operator mix, node/signal counts, critical path\n\
             (single-cycle and 2-cycle-multiply timing) and, for memory-aware\n\
             designs, the declared banks and arrays.\n\
             \n\
             flags:\n\
             \x20 --dot    also print the graph in Graphviz DOT format"
        }
        "schedule" => {
            "usage: mfhls schedule <file.dfg> --cs N [flags]\n\
             \n\
             Move-frame scheduling (MFS). Accepts memory-aware .dfg files:\n\
             loads/stores are scheduled against their bank's port count.\n\
             \n\
             flags:\n\
             \x20 --cs N            time constraint in control steps (required)\n\
             \x20 --resource        resource-constrained mode (--cs is the budget)\n\
             \x20 --limit OP=N      cap the unit count of one operator class\n\
             \x20 --chain CLOCK     enable operator chaining under this clock period\n\
             \x20 --latency L       loop pipelining initiation interval\n\
             \x20 --two-cycle-mul   use the 2-cycle-multiply timing profile\n\
             \x20 --json            print the canonical stats JSON line instead of text\n\
             \x20 --svg FILE        render the schedule as an SVG\n\
             \n\
             telemetry:\n\
             \x20 --trace FILE.jsonl scheduler trace events as JSON Lines\n\
             \x20 --chrome-trace F   phase spans for chrome://tracing / Perfetto\n\
             \x20 --metrics          print the counter/histogram report\n\
             \x20 -v|--verbose       phase timing summary on stderr\n\
             \x20 -q|--quiet         silence routine output"
        }
        "synth" => {
            "usage: mfhls synth (<file.dfg> | gen:OPS) --cs N [flags]\n\
             \n\
             Mixed scheduling-allocation (MFSA): schedule, bind ALUs/registers/\n\
             muxes and report costs. Memory-aware designs get per-bank port\n\
             binding, address/data muxing and Verilog memory instantiation.\n\
             `gen:OPS` synthesises the canonical scaling workload of roughly\n\
             OPS operations.\n\
             \n\
             With --iterate N the one-shot result is refined by up to N\n\
             extract/re-schedule rounds (bottleneck subgraph extraction +\n\
             constrained re-scheduling splices); every accepted splice is\n\
             re-verified and the (csteps, registers) objective only ever\n\
             improves. N = 0 is byte-identical to the one-shot schedule.\n\
             \n\
             With --shard the design is cut into weakly-coupled shards,\n\
             scheduled in parallel and stitched back into one verified\n\
             schedule — the path for 100k–1M-node graphs a monolithic run\n\
             cannot finish. Output is bit-identical for any --threads value;\n\
             --cs becomes an optional global control-step ceiling and the\n\
             data-path flags (--microcode/--verilog/...) do not apply.\n\
             \n\
             flags:\n\
             \x20 --cs N            time constraint in control steps (required;\n\
             \x20                   with --shard: optional global ceiling)\n\
             \x20 --shard N|auto    sharded synthesis with N shards (auto = from\n\
             \x20                   the node count, ~16k nodes per shard)\n\
             \x20 --shard-alg A     per-shard scheduler: mfs|mfsa (default mfsa)\n\
             \x20 --threads N       shard-pool worker threads (0 = all cores)\n\
             \x20 --style2          no-self-loop design style (paper style 2)\n\
             \x20 --weights T,A,M,R Liapunov weight vector\n\
             \x20 --lib FILE.lib    use a custom cell library\n\
             \x20 --two-cycle-mul   use the 2-cycle-multiply timing profile\n\
             \x20 --iterate N       feedback-guided refinement rounds (0 = one-shot)\n\
             \x20 --iterate-profile seed the refinement's extraction hints from the\n\
             \x20                   one-shot pass's profiler hotspots (needs --iterate)\n\
             \x20 --json            print the canonical stats JSON line instead of text\n\
             \x20 --microcode       print the control-word listing\n\
             \x20 --verilog         emit synthesisable Verilog\n\
             \x20 --testbench       emit a self-checking Verilog testbench\n\
             \x20 --check           run the interpreter-vs-RTL equivalence check\n\
             \x20 --svg FILE        render the schedule as an SVG\n\
             \x20 --vcd FILE        simulate seed 0 and write a VCD waveform\n\
             \n\
             telemetry:\n\
             \x20 --trace FILE.jsonl scheduler trace events as JSON Lines\n\
             \x20 --chrome-trace F   phase spans for chrome://tracing / Perfetto\n\
             \x20 --metrics          print the counter/histogram report\n\
             \x20 -v|--verbose       phase timing summary on stderr\n\
             \x20 -q|--quiet         silence routine output"
        }
        "explore" => {
            "usage: mfhls explore <file.dfg> (--grid FILE | --cs N[,M...]) [flags]\n\
             \n\
             Schedules many design points in parallel and reports the Pareto\n\
             front. Memory-aware designs work with mfs, mfsa and list; the\n\
             port-unaware baselines (asap, fds, anneal) report a typed error\n\
             per point.\n\
             \n\
             flags:\n\
             \x20 --grid FILE       read the point grid from a file\n\
             \x20 --cs N[,M...]     time constraints to sweep\n\
             \x20 --alg A[,B...]    algorithms: mfs,mfsa,list,fds,anneal (default mfs)\n\
             \x20 --limit OP=N      cap the unit count of one operator class\n\
             \x20 --chain CLOCK     enable operator chaining under this clock period\n\
             \x20 --latency L       loop pipelining initiation interval\n\
             \x20 --style2          no-self-loop design style for mfsa points\n\
             \x20 --weights T,A,M,R Liapunov weight vector for mfsa points\n\
             \x20 --two-cycle-mul   use the 2-cycle-multiply timing profile\n\
             \x20 --iterate N       refinement rounds for the --alg/--cs points\n\
             \x20 --threads N       worker threads (0 = all cores)\n\
             \x20 --emit FILE       write the Pareto front as JSON\n\
             \x20 --metrics         print the engine's metrics report\n\
             \x20 -q|--quiet        silence routine output"
        }
        "profile" => {
            "usage: mfhls profile (<file.dfg> | gen:OPS) [flags]\n\
             \n\
             Runs one scheduling pass with the attribution profiler attached\n\
             and prints where the scheduler's work went: per-node and per-step\n\
             energy-evaluation hotspots, per-phase wall time, bounds fast-path\n\
             vs boundary-walk counts and reuse-memo hit rates. The report is\n\
             deterministic for a given design, and profiling never changes the\n\
             schedule (the profiler is a write-only trace sink).\n\
             \n\
             `gen:OPS` profiles the canonical scaling workload of roughly OPS\n\
             operations — the same graphs BENCH_core.json measures.\n\
             `gen:clustered:OPS` profiles the canonical clustered workload —\n\
             the same graphs BENCH_partition.json measures.\n\
             \n\
             flags:\n\
             \x20 --cs N            time constraint (default: critical path + 8)\n\
             \x20 --alg mfs|mfsa    which kernel to profile (default mfs)\n\
             \x20 --top K           hotspot rows to keep (default 20)\n\
             \x20 --json            print the machine-readable report\n\
             \x20 --two-cycle-mul   use the 2-cycle-multiply timing profile\n\
             \x20 -q|--quiet        suppress the stderr progress line"
        }
        "serve" => {
            "usage: mfhls serve [flags]\n\
             \n\
             Synthesis-as-a-service HTTP daemon. POST jobs name a built-in\n\
             benchmark (including the memory kernels array_fir/matvec) or\n\
             carry an inline .dfg; answers are the same JSON the --json CLI\n\
             modes print. `POST /batch` takes a JSON array of jobs and\n\
             answers one ordered array. Connections are keep-alive with\n\
             bounded pipelining; `--cache-dir` adds an on-disk result tier\n\
             that survives restarts.\n\
             \n\
             flags:\n\
             \x20 --addr HOST:PORT      listen address\n\
             \x20 --workers N           scheduler worker threads\n\
             \x20 --queue-cap N         bounded job-queue length\n\
             \x20 --cache-cap N         warm schedule-cache capacity\n\
             \x20 --cache-dir DIR       on-disk result cache (restart-warm)\n\
             \x20 --deadline-ms N       default per-job deadline\n\
             \x20 --keep-alive on|off   HTTP keep-alive (default on)\n\
             \x20 --idle-timeout-ms N   evict idle keep-alive conns (5000)\n\
             \x20 --read-timeout-ms N   slow-loris partial-request bound (5000)\n\
             \x20 --pipeline-depth N    max in-flight requests per conn (8)\n\
             \x20 --force-poll          use poll(2) even where epoll exists\n\
             \x20 --access-log FILE     append JSONL access records to FILE\n\
             \x20 -q|--quiet            silence startup/shutdown chatter"
        }
        _ => return None,
    };
    Some(text.to_string())
}

/// The flags each subcommand accepts (drives scoped unknown-flag
/// errors: a flag that exists elsewhere names its proper subcommand).
fn allowed_flags(sub: &str) -> &'static [&'static str] {
    match sub {
        "info" => &["--dot"],
        "schedule" => &[
            "--cs",
            "--resource",
            "--limit",
            "--chain",
            "--latency",
            "--two-cycle-mul",
            "--json",
            "--svg",
            "--trace",
            "--chrome-trace",
            "--metrics",
            "-v",
            "--verbose",
            "-q",
            "--quiet",
        ],
        "synth" => &[
            "--cs",
            "--style2",
            "--weights",
            "--lib",
            "--two-cycle-mul",
            "--iterate",
            "--iterate-profile",
            "--json",
            "--microcode",
            "--verilog",
            "--testbench",
            "--check",
            "--svg",
            "--vcd",
            "--shard",
            "--shard-alg",
            "--threads",
            "--trace",
            "--chrome-trace",
            "--metrics",
            "-v",
            "--verbose",
            "-q",
            "--quiet",
        ],
        "explore" => &[
            "--grid",
            "--cs",
            "--alg",
            "--limit",
            "--chain",
            "--latency",
            "--style2",
            "--weights",
            "--two-cycle-mul",
            "--iterate",
            "--threads",
            "--emit",
            "--metrics",
            "-q",
            "--quiet",
        ],
        "profile" => &[
            "--cs",
            "--alg",
            "--top",
            "--json",
            "--two-cycle-mul",
            "-q",
            "--quiet",
        ],
        "serve" => &[
            "--addr",
            "--workers",
            "--queue-cap",
            "--cache-cap",
            "--cache-dir",
            "--deadline-ms",
            "--keep-alive",
            "--idle-timeout-ms",
            "--read-timeout-ms",
            "--pipeline-depth",
            "--force-poll",
            "--access-log",
            "-q",
            "--quiet",
        ],
        _ => &[],
    }
}

/// A scoped unknown-flag error: names the subcommand, and if the flag
/// belongs to other subcommands, points there.
fn unknown_flag(sub: &str, flag: &str) -> String {
    let owners: Vec<&str> = SUBCOMMANDS
        .iter()
        .filter(|s| allowed_flags(s).contains(&flag))
        .copied()
        .collect();
    let hint = if owners.is_empty() {
        String::new()
    } else {
        format!(" (a `{}` flag)", owners.join("`/`"))
    };
    format!("unknown {sub} flag `{flag}`{hint}; see `mfhls help {sub}`")
}

/// Parses the `serve` subcommand's flags (no input file: the daemon
/// receives designs over HTTP).
fn parse_serve<'a, I: Iterator<Item = &'a String>>(mut it: I) -> Result<Command, String> {
    let mut config = ServeConfig::default();
    let mut access_log = None;
    let mut quiet = false;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => config.addr = it.next().ok_or("--addr needs HOST:PORT")?.clone(),
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                config.workers = v.parse().map_err(|_| "invalid --workers value")?;
            }
            "--queue-cap" => {
                let v = it.next().ok_or("--queue-cap needs a value")?;
                config.queue_cap = v.parse().map_err(|_| "invalid --queue-cap value")?;
            }
            "--cache-cap" => {
                let v = it.next().ok_or("--cache-cap needs a value")?;
                config.cache_cap = v.parse().map_err(|_| "invalid --cache-cap value")?;
            }
            "--cache-dir" => {
                let v = it.next().ok_or("--cache-dir needs a directory path")?;
                config.cache_dir = Some(v.into());
            }
            "--deadline-ms" => {
                let v = it.next().ok_or("--deadline-ms needs a value")?;
                config.default_deadline_ms =
                    Some(v.parse().map_err(|_| "invalid --deadline-ms value")?);
            }
            "--keep-alive" => {
                config.keep_alive = match it.next().ok_or("--keep-alive needs on|off")?.as_str() {
                    "on" | "true" | "1" => true,
                    "off" | "false" | "0" => false,
                    _ => return Err("invalid --keep-alive value (want on|off)".into()),
                };
            }
            "--idle-timeout-ms" => {
                let v = it.next().ok_or("--idle-timeout-ms needs a value")?;
                config.idle_timeout_ms =
                    v.parse().map_err(|_| "invalid --idle-timeout-ms value")?;
            }
            "--read-timeout-ms" => {
                let v = it.next().ok_or("--read-timeout-ms needs a value")?;
                config.read_timeout_ms =
                    v.parse().map_err(|_| "invalid --read-timeout-ms value")?;
            }
            "--pipeline-depth" => {
                let v = it.next().ok_or("--pipeline-depth needs a value")?;
                let depth: usize = v.parse().map_err(|_| "invalid --pipeline-depth value")?;
                if depth == 0 {
                    return Err("--pipeline-depth must be at least 1".into());
                }
                config.pipeline_depth = depth;
            }
            "--force-poll" => config.force_poll = true,
            "--access-log" => {
                let v = it.next().ok_or("--access-log needs a file path")?;
                access_log = Some(v.clone());
            }
            "-q" | "--quiet" => quiet = true,
            other => return Err(unknown_flag("serve", other)),
        }
    }
    Ok(Command::Serve {
        config,
        access_log,
        quiet,
    })
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter().peekable();
    let sub = it.next().ok_or_else(usage)?;
    if sub == "help" {
        return Ok(Command::Help {
            topic: it.next().cloned(),
        });
    }
    if !SUBCOMMANDS.contains(&sub.as_str()) {
        return Err(format!("unknown subcommand `{sub}`\n{}", usage()));
    }
    if sub == "serve" {
        return parse_serve(it);
    }
    let file = it.next().ok_or("missing input file")?.clone();
    let mut cs_list: Vec<u32> = Vec::new();
    let mut resource = false;
    let mut limits = Vec::new();
    let mut chain = None;
    let mut latency = None;
    let mut two_cycle_mul = false;
    let mut json = false;
    let mut style2 = false;
    let mut weights = None;
    let mut lib = None;
    let mut microcode = false;
    let mut verilog = false;
    let mut testbench = false;
    let mut check = false;
    let mut dot = false;
    let mut svg = None;
    let mut vcd = None;
    let mut grid = None;
    let mut algs: Vec<Algorithm> = Vec::new();
    let mut threads = 0usize;
    let mut threads_set = false;
    let mut shard: Option<usize> = None;
    let mut shard_alg: Option<Algorithm> = None;
    let mut emit = None;
    let mut top = 20usize;
    let mut iterate = 0u32;
    let mut iterate_profile = false;
    let mut tel = Telemetry::default();
    while let Some(flag) = it.next() {
        if !allowed_flags(sub).contains(&flag.as_str()) {
            return Err(unknown_flag(sub, flag));
        }
        match flag.as_str() {
            "--cs" => {
                let v = it.next().ok_or("--cs needs a value")?;
                cs_list = v
                    .split(',')
                    .map(|p| p.parse::<u32>().map_err(|_| "invalid --cs value"))
                    .collect::<Result<_, _>>()?;
            }
            "--resource" => resource = true,
            "--limit" => {
                let v = it.next().ok_or("--limit needs OP=N")?;
                let (op, n) = v.split_once('=').ok_or("--limit needs OP=N")?;
                let op: OpKind = op.parse().map_err(|e| format!("{e}"))?;
                let n: u32 = n.parse().map_err(|_| "invalid --limit count")?;
                limits.push((op, n));
            }
            "--chain" => {
                let v = it.next().ok_or("--chain needs a clock period")?;
                chain = Some(v.parse::<u32>().map_err(|_| "invalid clock period")?);
            }
            "--latency" => {
                let v = it.next().ok_or("--latency needs a value")?;
                latency = Some(v.parse::<u32>().map_err(|_| "invalid latency")?);
            }
            "--two-cycle-mul" => two_cycle_mul = true,
            "--json" => json = true,
            "--style2" => style2 = true,
            "--weights" => {
                let v = it.next().ok_or("--weights needs T,A,M,R")?;
                let parts: Vec<u32> = v
                    .split(',')
                    .map(|p| p.parse::<u32>().map_err(|_| "invalid weight"))
                    .collect::<Result<_, _>>()?;
                if parts.len() != 4 {
                    return Err("--weights needs exactly four values".into());
                }
                weights = Some([parts[0], parts[1], parts[2], parts[3]]);
            }
            "--lib" => {
                let v = it.next().ok_or("--lib needs a file path")?;
                lib = Some(v.clone());
            }
            "--microcode" => microcode = true,
            "--verilog" => verilog = true,
            "--testbench" => testbench = true,
            "--check" => check = true,
            "--dot" => dot = true,
            "--svg" => {
                let v = it.next().ok_or("--svg needs a file path")?;
                svg = Some(v.clone());
            }
            "--vcd" => {
                let v = it.next().ok_or("--vcd needs a file path")?;
                vcd = Some(v.clone());
            }
            "--grid" => {
                let v = it.next().ok_or("--grid needs a file path")?;
                grid = Some(v.clone());
            }
            "--alg" => {
                let v = it.next().ok_or("--alg needs a list of algorithms")?;
                algs = v
                    .split(',')
                    .map(|name| {
                        Algorithm::parse(name).ok_or_else(|| format!("unknown algorithm `{name}`"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                threads = v.parse::<usize>().map_err(|_| "invalid --threads value")?;
                threads_set = true;
            }
            "--shard" => {
                let v = it.next().ok_or("--shard needs a count or `auto`")?;
                shard = Some(if v == "auto" {
                    0
                } else {
                    v.parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or("--shard needs a positive count or `auto`")?
                });
            }
            "--shard-alg" => {
                let v = it.next().ok_or("--shard-alg needs mfs or mfsa")?;
                shard_alg = Some(match v.as_str() {
                    "mfs" => Algorithm::Mfs,
                    "mfsa" => Algorithm::Mfsa,
                    other => return Err(format!("--shard-alg supports mfs|mfsa, not `{other}`")),
                });
            }
            "--emit" => {
                let v = it.next().ok_or("--emit needs a file path")?;
                emit = Some(v.clone());
            }
            "--top" => {
                let v = it.next().ok_or("--top needs a value")?;
                top = v.parse::<usize>().map_err(|_| "invalid --top value")?;
            }
            "--iterate" => {
                let v = it.next().ok_or("--iterate needs an iteration count")?;
                iterate = v.parse::<u32>().map_err(|_| "invalid --iterate value")?;
            }
            "--iterate-profile" => iterate_profile = true,
            "--trace" => {
                let v = it.next().ok_or("--trace needs a file path")?;
                tel.trace = Some(v.clone());
            }
            "--chrome-trace" => {
                let v = it.next().ok_or("--chrome-trace needs a file path")?;
                tel.chrome = Some(v.clone());
            }
            "--metrics" => tel.metrics = true,
            "-v" | "--verbose" => tel.verbose = true,
            "-q" | "--quiet" => tel.quiet = true,
            other => return Err(unknown_flag(sub, other)),
        }
    }
    let single_cs = |name: &str| -> Result<u32, String> {
        match cs_list[..] {
            [one] => Ok(one),
            [] => Err(format!("{name} requires --cs")),
            _ => Err(format!("{name} takes a single --cs value")),
        }
    };
    match sub.as_str() {
        "info" => Ok(Command::Info { file, dot }),
        "schedule" => Ok(Command::Schedule {
            file,
            cs: single_cs("schedule")?,
            resource,
            limits,
            chain,
            latency,
            two_cycle_mul,
            json,
            svg,
            tel,
        }),
        "synth" => {
            let cs = if shard.is_some() {
                // --cs becomes an optional global ceiling.
                match cs_list[..] {
                    [] => None,
                    [one] => Some(one),
                    _ => return Err("synth takes a single --cs value".into()),
                }
            } else {
                if shard_alg.is_some() {
                    return Err("--shard-alg requires --shard".into());
                }
                if threads_set {
                    return Err("synth --threads requires --shard".into());
                }
                Some(single_cs("synth")?)
            };
            if shard.is_some() {
                if json
                    || microcode
                    || verilog
                    || testbench
                    || check
                    || svg.is_some()
                    || vcd.is_some()
                {
                    return Err(
                        "--shard produces a verified schedule, not a data path; drop --json/--microcode/--verilog/--testbench/--check/--svg/--vcd"
                            .into(),
                    );
                }
                if style2 || weights.is_some() {
                    return Err("--shard does not support --style2/--weights".into());
                }
            }
            if iterate_profile {
                if iterate == 0 {
                    return Err("--iterate-profile requires --iterate N (with N ≥ 1)".into());
                }
                if shard.is_some() {
                    return Err("--iterate-profile is not supported with --shard".into());
                }
                if json {
                    return Err("--iterate-profile is not supported with --json".into());
                }
            }
            Ok(Command::Synth {
                file,
                cs,
                style2,
                weights,
                lib,
                two_cycle_mul,
                json,
                microcode,
                verilog,
                testbench,
                check,
                svg,
                vcd,
                shard,
                shard_alg: shard_alg.unwrap_or(Algorithm::Mfsa),
                threads,
                iterate,
                iterate_profile,
                tel,
            })
        }
        "explore" => {
            if grid.is_some() && (!algs.is_empty() || !cs_list.is_empty()) {
                return Err("use either --grid or --alg/--cs, not both".into());
            }
            if grid.is_none() && cs_list.is_empty() {
                return Err("explore requires --grid or --cs".into());
            }
            if tel.wants_events() {
                return Err("explore does not support --trace/--chrome-trace".into());
            }
            if grid.is_some() && iterate > 0 {
                return Err("set iterate per point in the grid file, not via --iterate".into());
            }
            Ok(Command::Explore {
                file,
                grid,
                algs,
                cs_list,
                limits,
                chain,
                latency,
                style2,
                weights,
                two_cycle_mul,
                threads,
                emit,
                iterate,
                tel,
            })
        }
        "profile" => {
            let alg = match algs[..] {
                [] => Algorithm::Mfs,
                [one @ (Algorithm::Mfs | Algorithm::Mfsa)] => one,
                [one] => {
                    return Err(format!(
                        "profile supports --alg mfs|mfsa, not `{}`",
                        one.name()
                    ))
                }
                _ => return Err("profile takes a single --alg value".into()),
            };
            let cs = match cs_list[..] {
                [] => None,
                [one] => Some(one),
                _ => return Err("profile takes a single --cs value".into()),
            };
            Ok(Command::Profile {
                file,
                cs,
                alg,
                top,
                json,
                two_cycle_mul,
                quiet: tel.quiet,
            })
        }
        other => Err(format!("unknown subcommand `{other}`\n{}", usage())),
    }
}

fn load(file: &str) -> Result<Dfg, String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    parse_dfg(&text).map_err(|e| format!("{file}: {e}"))
}

/// Loads a design for `profile` and `synth`: a `.dfg` file, `gen:OPS`
/// for the canonical scaling workload of roughly OPS operations (the
/// same graphs `BENCH_core.json` measures), or `gen:clustered:OPS` for
/// the canonical clustered workload (the same graphs
/// `BENCH_partition.json` measures — weakly-coupled regions sized to
/// the partitioner's automatic sharding).
fn load_design(file: &str) -> Result<Dfg, String> {
    let parse_ops = |ops: &str| -> Result<usize, String> {
        ops.parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("gen: needs a positive op count, got `{file}`"))
    };
    match file.strip_prefix("gen:") {
        Some(rest) => match rest.strip_prefix("clustered:") {
            Some(ops) => Ok(moveframe_hls::benchmarks::generate::generate_clustered(
                &moveframe_hls::benchmarks::generate::clustered_workload(parse_ops(ops)?),
            )),
            None => Ok(moveframe_hls::benchmarks::generate::generate(
                &moveframe_hls::benchmarks::generate::scaling_workload(parse_ops(rest)?),
            )),
        },
        None => load(file),
    }
}

fn spec_for(two_cycle_mul: bool, chained: bool) -> TimingSpec {
    if chained {
        TimingSpec::with_delays()
    } else if two_cycle_mul {
        TimingSpec::two_cycle_multiply()
    } else {
        TimingSpec::uniform_single_cycle()
    }
}

fn run(command: Command) -> Result<(), String> {
    match command {
        Command::Help { topic } => match topic {
            None => {
                println!("{}", usage());
                Ok(())
            }
            Some(sub) => match usage_for(&sub) {
                Some(text) => {
                    println!("{text}");
                    Ok(())
                }
                None => Err(format!(
                    "no help for `{sub}`; subcommands: {}",
                    SUBCOMMANDS.join(", ")
                )),
            },
        },
        Command::Info { file, dot } => {
            let dfg = load(&file)?;
            let spec = TimingSpec::uniform_single_cycle();
            let cp = CriticalPath::compute(&dfg, &spec);
            println!(
                "{}: {} operation(s), {} signal(s)",
                dfg.name(),
                dfg.node_count(),
                dfg.signal_count()
            );
            println!("operator mix: {}", OpMix::of_graph(&dfg));
            for bank in dfg.memory().banks() {
                let arrays: Vec<String> = dfg
                    .memory()
                    .arrays_in_bank(bank.id())
                    .map(|a| format!("{}[{}]", a.name(), a.size()))
                    .collect();
                println!(
                    "memory bank {}: {} port(s), arrays: {}",
                    bank.name(),
                    bank.ports(),
                    arrays.join(", ")
                );
            }
            println!(
                "critical path: {} control step(s) (single-cycle)",
                cp.steps()
            );
            let cp2 = CriticalPath::compute(&dfg, &TimingSpec::two_cycle_multiply());
            println!(
                "critical path: {} control step(s) (2-cycle multiply)",
                cp2.steps()
            );
            if dot {
                println!("\n{}", dfg.to_dot());
            }
            Ok(())
        }
        Command::Schedule {
            file,
            cs,
            resource,
            limits,
            chain,
            latency,
            two_cycle_mul,
            json,
            svg,
            tel,
        } => {
            let dfg = load(&file)?;
            let spec = spec_for(two_cycle_mul, chain.is_some());
            if json {
                if resource {
                    return Err(
                        "--json supports time-constrained scheduling; drop --resource".into(),
                    );
                }
                if svg.is_some() {
                    return Err("--json and --svg are mutually exclusive".into());
                }
                let mut point = DesignPoint::new(Algorithm::Mfs, cs);
                for &(op, n) in &limits {
                    point.fu_limits.insert(FuClass::Op(op), n);
                }
                point.clock = chain;
                point.latency = latency;
                return run_point_json(&dfg, &spec, &point, &tel);
            }
            let mut config = if resource {
                MfsConfig::resource_constrained(cs)
            } else {
                MfsConfig::time_constrained(cs)
            };
            for &(op, n) in &limits {
                config = config.with_fu_limit(FuClass::Op(op), n);
            }
            if let Some(clock) = chain {
                config = config.with_chaining(ClockPeriod::new(clock));
            }
            if let Some(l) = latency {
                config = config.with_latency(l);
            }
            let opts = VerifyOptions {
                clock: chain.map(ClockPeriod::new),
                latency,
            };
            let mut mem = MemorySink::new();
            let mut null = NullSink;
            let mut metrics = Metrics::new();
            let (outcome, violations) = {
                let sink: &mut dyn TraceSink = if tel.wants_events() {
                    &mut mem
                } else {
                    &mut null
                };
                let mut instr = Instrument::new(sink, &mut metrics);
                let outcome = mfs::schedule_traced(&dfg, &spec, &config, &mut instr)
                    .map_err(|e| e.to_string())?;
                let violations = verify_traced(&dfg, &outcome.schedule, &spec, opts, &mut instr);
                if tel.verbose {
                    let stats =
                        ScheduleStats::compute_traced(&dfg, &outcome.schedule, &spec, &mut instr);
                    eprintln!(
                        "stats: peak concurrency {}, imbalance {:.2}",
                        stats.peak_concurrency(),
                        stats.imbalance()
                    );
                }
                (outcome, violations)
            };
            if !tel.quiet {
                print!("{}", render_schedule(&dfg, &outcome.schedule, &spec));
            }
            if let Some(path) = svg {
                let image = moveframe_hls::schedule::render_svg(&dfg, &outcome.schedule, &spec);
                std::fs::write(&path, image).map_err(|e| format!("cannot write {path}: {e}"))?;
                if !tel.quiet {
                    println!("wrote {path}");
                }
            }
            finish_telemetry(&tel, mem.events(), &metrics)?;
            if violations.is_empty() {
                if !tel.quiet {
                    println!(
                        "verified: ok ({} local rescheduling(s))",
                        outcome.reschedule_count
                    );
                }
                Ok(())
            } else {
                Err(format!(
                    "internal error: schedule failed verification: {violations:?}"
                ))
            }
        }
        Command::Synth {
            file,
            cs,
            style2,
            weights,
            lib,
            two_cycle_mul,
            json,
            microcode,
            verilog,
            testbench,
            check,
            svg,
            vcd,
            shard,
            shard_alg,
            threads,
            iterate,
            iterate_profile,
            tel,
        } => {
            let dfg = load_design(&file)?;
            let spec = spec_for(two_cycle_mul, false);
            if let Some(shards) = shard {
                return run_synth_sharded(
                    &dfg, &spec, shards, shard_alg, threads, cs, lib, iterate, &tel,
                );
            }
            let cs = cs.ok_or("synth requires --cs")?;
            if json {
                if lib.is_some()
                    || microcode
                    || verilog
                    || testbench
                    || check
                    || svg.is_some()
                    || vcd.is_some()
                {
                    return Err(
                        "--json prints the stats summary only; drop --lib/--microcode/--verilog/--testbench/--check/--svg/--vcd"
                            .into(),
                    );
                }
                let mut point = DesignPoint::new(Algorithm::Mfsa, cs);
                point.style = if style2 { 2 } else { 1 };
                point.weights = weights.map(|[t, a, m, r]| (t, a, m, r));
                point.iterate = iterate;
                return run_point_json(&dfg, &spec, &point, &tel);
            }
            let library = match lib {
                None => Library::ncr_like(),
                Some(path) => {
                    let text = std::fs::read_to_string(&path)
                        .map_err(|e| format!("cannot read {path}: {e}"))?;
                    moveframe_hls::celllib::parse_library(&text)
                        .map_err(|e| format!("{path}: {e}"))?
                }
            };
            let mut config = MfsaConfig::new(cs, library.clone());
            if style2 {
                config = config.with_style(DesignStyle::NoSelfLoop);
            }
            if let Some([t, a, m, r]) = weights {
                config = config.with_weights(Weights {
                    time: t,
                    alu: a,
                    mux: m,
                    reg: r,
                });
            }
            let mut mem = MemorySink::new();
            let mut null = NullSink;
            let mut metrics = Metrics::new();
            let mut profiler = Profiler::new();
            let out = {
                // The one-shot pass: with --iterate-profile the
                // attribution profiler taps the event stream alongside
                // whatever sink the telemetry flags chose.
                let mut out = {
                    let sink: &mut dyn TraceSink = if tel.wants_events() {
                        &mut mem
                    } else {
                        &mut null
                    };
                    if iterate_profile {
                        let mut tee = TeeSink {
                            main: sink,
                            tap: &mut profiler,
                        };
                        let mut instr = Instrument::new(&mut tee, &mut metrics);
                        mfsa::schedule_traced(&dfg, &spec, &config, &mut instr)
                            .map_err(|e| e.to_string())?
                    } else {
                        let mut instr = Instrument::new(sink, &mut metrics);
                        mfsa::schedule_traced(&dfg, &spec, &config, &mut instr)
                            .map_err(|e| e.to_string())?
                    }
                };
                let sink: &mut dyn TraceSink = if tel.wants_events() {
                    &mut mem
                } else {
                    &mut null
                };
                let mut instr = Instrument::new(sink, &mut metrics);
                if iterate > 0 {
                    let mut iterate_config = IterateConfig::new(iterate);
                    if iterate_profile {
                        let hints = hotspot_hints(&profiler, ITERATE_PROFILE_TOP);
                        if !tel.quiet {
                            println!(
                                "iterate-profile: {} extraction hint(s) from the hottest nodes",
                                hints.len()
                            );
                        }
                        iterate_config = iterate_config.with_hints(hints);
                    }
                    let refined =
                        refine_mfsa(&dfg, &spec, &library, &mut out, &iterate_config, &mut instr)
                            .map_err(|e| e.to_string())?;
                    if !tel.quiet {
                        println!(
                            "iterate: {} round(s), {} splice(s) accepted, control steps {} -> {}, registers {} -> {}",
                            refined.iterations_run,
                            refined.splices_accepted,
                            refined.csteps_before,
                            refined.csteps_after,
                            refined.registers_before,
                            refined.registers_after,
                        );
                    }
                }
                if tel.verbose {
                    let stats =
                        ScheduleStats::compute_traced(&dfg, &out.schedule, &spec, &mut instr);
                    eprintln!(
                        "stats: peak concurrency {}, imbalance {:.2}",
                        stats.peak_concurrency(),
                        stats.imbalance()
                    );
                }
                out
            };
            if !tel.quiet {
                print!("{}", render_schedule(&dfg, &out.schedule, &spec));
                print!("{}", out.datapath);
                println!("{}", out.cost);
            }
            let controller = Controller::generate(&dfg, &out.schedule, &out.datapath, &spec)
                .map_err(|e| e.to_string())?;
            if microcode {
                print!("\n{}", controller.render(&dfg));
            }
            if check {
                let mut worst = 0usize;
                for seed in 0..8u64 {
                    let inputs = random_inputs(&dfg, seed);
                    let mismatches =
                        check_equivalence(&dfg, &out.schedule, &out.datapath, &spec, &inputs)
                            .map_err(|e| e.to_string())?;
                    worst = worst.max(mismatches.len());
                }
                if worst == 0 {
                    println!("equivalence check: ok (8 random vectors)");
                } else {
                    return Err(format!(
                        "equivalence check FAILED: {worst} mismatching op(s)"
                    ));
                }
            }
            if verilog {
                let v = emit_verilog(&dfg, &out.schedule, &out.datapath, &controller, &spec)
                    .map_err(|e| e.to_string())?;
                println!("\n{v}");
            }
            if testbench {
                let inputs = random_inputs(&dfg, 0);
                let values = interpret(&dfg, &inputs).map_err(|e| e.to_string())?;
                let expected: std::collections::BTreeMap<_, _> = dfg
                    .design_outputs()
                    .map(|sid| (sid, values[&sid]))
                    .collect();
                let tb = emit_testbench(&dfg, &inputs, &expected).map_err(|e| e.to_string())?;
                println!("\n{tb}");
            }
            if let Some(path) = svg {
                let image = moveframe_hls::schedule::render_svg(&dfg, &out.schedule, &spec);
                std::fs::write(&path, image).map_err(|e| format!("cannot write {path}: {e}"))?;
                if !tel.quiet {
                    println!("wrote {path}");
                }
            }
            if let Some(path) = vcd {
                let inputs = random_inputs(&dfg, 0);
                let sim = simulate(
                    &dfg,
                    &out.schedule,
                    &out.datapath,
                    &controller,
                    &spec,
                    &inputs,
                )
                .map_err(|e| e.to_string())?;
                let dump = moveframe_hls::sim::write_vcd(&dfg, &out.datapath, &sim);
                std::fs::write(&path, dump).map_err(|e| format!("cannot write {path}: {e}"))?;
                if !tel.quiet {
                    println!("wrote {path} (inputs from seed 0)");
                }
            }
            finish_telemetry(&tel, mem.events(), &metrics)?;
            Ok(())
        }
        Command::Explore {
            file,
            grid,
            algs,
            cs_list,
            limits,
            chain,
            latency,
            style2,
            weights,
            two_cycle_mul,
            threads,
            emit,
            iterate,
            tel,
        } => {
            let dfg = load(&file)?;
            let points = match grid {
                Some(path) => {
                    let text = std::fs::read_to_string(&path)
                        .map_err(|e| format!("cannot read {path}: {e}"))?;
                    parse_grid(&text).map_err(|e| format!("{path}: {e}"))?
                }
                None => {
                    let algs = if algs.is_empty() {
                        vec![Algorithm::Mfs]
                    } else {
                        algs
                    };
                    let mut points = Vec::new();
                    for &alg in &algs {
                        for &cs in &cs_list {
                            let mut p = DesignPoint::new(alg, cs);
                            for &(op, n) in &limits {
                                p.fu_limits.insert(FuClass::Op(op), n);
                            }
                            p.clock = chain;
                            p.latency = latency;
                            p.style = if style2 { 2 } else { 1 };
                            p.weights = weights.map(|[t, a, m, r]| (t, a, m, r));
                            p.iterate = iterate;
                            points.push(p);
                        }
                    }
                    points
                }
            };
            let chained = points.iter().any(|p| p.clock.is_some());
            let spec = spec_for(two_cycle_mul, chained);
            let report = Engine::new().explore(&dfg, &spec, &points, ExploreOptions { threads });
            if !tel.quiet {
                print!("{}", report.render_text());
            }
            if let Some(path) = emit {
                let mut json = report.front_json();
                json.push('\n');
                std::fs::write(&path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
                if !tel.quiet {
                    println!("wrote {path}");
                }
            }
            if tel.metrics {
                print!("{}", report.metrics.render_text());
            }
            let errors = report.results.iter().filter(|r| r.outcome.is_err()).count();
            if errors == report.results.len() {
                return Err("every design point failed to schedule".into());
            }
            Ok(())
        }
        Command::Profile {
            file,
            cs,
            alg,
            top,
            json,
            two_cycle_mul,
            quiet,
        } => {
            let dfg = load_design(&file)?;
            let spec = spec_for(two_cycle_mul, false);
            let cs = match cs {
                Some(cs) => cs,
                None => CriticalPath::compute(&dfg, &spec).steps() as u32 + PROFILE_SLACK,
            };
            if !quiet {
                eprintln!(
                    "profiling {} ({} op(s)) with {} at {cs} control step(s)",
                    dfg.name(),
                    dfg.node_count(),
                    alg.name()
                );
            }
            let mut profiler = Profiler::new();
            let mut metrics = Metrics::new();
            {
                let mut instr = Instrument::new(&mut profiler, &mut metrics);
                match alg {
                    Algorithm::Mfs => {
                        mfs::schedule_traced(
                            &dfg,
                            &spec,
                            &MfsConfig::time_constrained(cs),
                            &mut instr,
                        )
                        .map_err(|e| e.to_string())?;
                    }
                    Algorithm::Mfsa => {
                        mfsa::schedule_traced(
                            &dfg,
                            &spec,
                            &MfsaConfig::new(cs, Library::ncr_like()),
                            &mut instr,
                        )
                        .map_err(|e| e.to_string())?;
                    }
                    other => {
                        return Err(format!("profile does not support --alg {}", other.name()))
                    }
                }
            }
            let report = ProfileReport::build(&profiler, &metrics, top);
            if json {
                println!("{}", report.to_json());
            } else {
                print!("{}", report.render_text());
            }
            Ok(())
        }
        Command::Serve {
            config,
            access_log,
            quiet,
        } => {
            let sink: Box<dyn TraceSink + Send> = match &access_log {
                Some(path) => {
                    let file = std::fs::File::create(path)
                        .map_err(|e| format!("cannot create {path}: {e}"))?;
                    Box::new(JsonlSink::new(file))
                }
                None if quiet => Box::new(NullSink),
                None => Box::new(JsonlSink::new(std::io::stderr())),
            };
            let server =
                Server::start(config, sink).map_err(|e| format!("cannot start server: {e}"))?;
            if !quiet {
                eprintln!("mfhls serve: listening on http://{}", server.local_addr());
                eprintln!("mfhls serve: SIGINT/SIGTERM drains and exits");
            }
            moveframe_hls::serve::signal::install();
            while !moveframe_hls::serve::signal::triggered() {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            if !quiet {
                eprintln!("mfhls serve: shutdown signal received, draining");
            }
            server.shutdown();
            server.join();
            Ok(())
        }
    }
}

/// Runs sharded synthesis (`synth --shard`): partition → parallel
/// per-shard scheduling → merge & stitch → verify. `ceiling` is the
/// optional `--cs` value, enforced against the achieved horizon —
/// after the optional `--iterate` refinement, which can only lower it.
#[allow(clippy::too_many_arguments)]
fn run_synth_sharded(
    dfg: &Dfg,
    spec: &TimingSpec,
    shards: usize,
    alg: Algorithm,
    threads: usize,
    ceiling: Option<u32>,
    lib: Option<String>,
    iterate: u32,
    tel: &Telemetry,
) -> Result<(), String> {
    let shard_alg = match alg {
        Algorithm::Mfs => ShardAlg::Mfs,
        Algorithm::Mfsa => {
            let library = match lib {
                None => Library::ncr_like(),
                Some(path) => {
                    let text = std::fs::read_to_string(&path)
                        .map_err(|e| format!("cannot read {path}: {e}"))?;
                    moveframe_hls::celllib::parse_library(&text)
                        .map_err(|e| format!("{path}: {e}"))?
                }
            };
            ShardAlg::Mfsa(library)
        }
        other => {
            return Err(format!(
                "--shard-alg supports mfs|mfsa, not `{}`",
                other.name()
            ))
        }
    };
    let config = ShardedConfig::new(shards, shard_alg).with_threads(threads);
    let mut mem = MemorySink::new();
    let mut null = NullSink;
    let mut metrics = Metrics::new();
    let (out, refined) = {
        let sink: &mut dyn TraceSink = if tel.wants_events() {
            &mut mem
        } else {
            &mut null
        };
        let mut instr = Instrument::new(sink, &mut metrics);
        let mut out = synth_sharded(dfg, spec, &config, &mut instr).map_err(|e| e.to_string())?;
        let refined = if iterate > 0 {
            let refined = refine(
                dfg,
                spec,
                &out.schedule,
                &IterateConfig::new(iterate),
                &mut instr,
            )
            .map_err(|e| e.to_string())?;
            out.schedule = refined.schedule.clone();
            out.csteps = refined.csteps_after;
            Some(refined)
        } else {
            None
        };
        (out, refined)
    };
    metrics.merge(&out.shard_metrics);
    if let Some(ceiling) = ceiling {
        if out.csteps > ceiling {
            return Err(format!(
                "sharded schedule needs {} control steps, above the --cs ceiling {ceiling}",
                out.csteps
            ));
        }
    }
    if !tel.quiet {
        let requested = if shards == 0 {
            "auto".to_string()
        } else {
            shards.to_string()
        };
        println!(
            "sharded synthesis ({}): {} nodes in {} shards (requested {requested})",
            config.alg.name(),
            dfg.node_count(),
            out.shards,
        );
        println!(
            "  cut edges {}, boundary nodes {}, refine moves {}",
            out.cut_edges, out.boundary_nodes, out.refine_moves
        );
        println!(
            "  stitch moves {}, telescoped steps saved {}",
            out.stitch_moves, out.telescoped_saved
        );
        if let Some(r) = &refined {
            println!(
                "  iterate: {} round(s), {} splice(s) accepted, control steps {} -> {}",
                r.iterations_run, r.splices_accepted, r.csteps_before, r.csteps_after
            );
        }
        let ceiling_note = ceiling
            .map(|c| format!(" (ceiling {c})"))
            .unwrap_or_default();
        println!(
            "  control steps {}{ceiling_note}, schedule verified",
            out.csteps
        );
    }
    if tel.verbose {
        eprintln!("shard budgets: {:?}", out.shard_csteps);
    }
    finish_telemetry(tel, mem.events(), &metrics)
}

/// Schedules one design point through the exploration engine (the same
/// path `mfhls serve` uses) and prints the canonical JSON stats line,
/// so CLI and daemon answers are byte-identical.
fn run_point_json(
    dfg: &Dfg,
    spec: &TimingSpec,
    point: &DesignPoint,
    tel: &Telemetry,
) -> Result<(), String> {
    if tel.wants_events() {
        return Err("--json does not support --trace/--chrome-trace".into());
    }
    let mut null = NullSink;
    let mut metrics = Metrics::new();
    let (outcome, _warm) = {
        let mut instr = Instrument::new(&mut null, &mut metrics);
        Engine::new().schedule_point(dfg, spec, point, &CancelToken::never(), &mut instr)
    };
    let m = outcome?;
    print!("{}", moveframe_hls::serve::point_json(point, &m));
    if tel.metrics {
        print!("{}", metrics.render_text());
    }
    Ok(())
}

/// Writes/prints the requested telemetry artifacts after a run.
fn finish_telemetry(
    tel: &Telemetry,
    events: &[TraceEvent],
    metrics: &Metrics,
) -> Result<(), String> {
    if let Some(path) = &tel.trace {
        let mut out = String::new();
        for e in events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        std::fs::write(path, out).map_err(|e| format!("cannot write {path}: {e}"))?;
        if !tel.quiet {
            println!("wrote {path} ({} event(s))", events.len());
        }
    }
    if let Some(path) = &tel.chrome {
        std::fs::write(path, chrome_trace(events.iter()))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        if !tel.quiet {
            println!("wrote {path} (load in chrome://tracing or Perfetto)");
        }
    }
    if tel.metrics {
        print!("{}", metrics.render_text());
    }
    if tel.verbose {
        for (name, h) in metrics.histograms() {
            if let Some(phase) = name
                .strip_prefix("phase.")
                .and_then(|n| n.strip_suffix(".ns"))
            {
                eprintln!(
                    "phase {phase}: {:.3} ms over {} call(s)",
                    h.sum() as f64 / 1e6,
                    h.count()
                );
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    if args[0] == "--version" || args[0] == "-V" {
        println!("mfhls {}", env!("CARGO_PKG_VERSION"));
        return ExitCode::SUCCESS;
    }
    match parse_args(&args).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Command, String> {
        let args: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        parse_args(&args)
    }

    #[test]
    fn parses_info() {
        assert_eq!(
            parse(&["info", "x.dfg", "--dot"]).unwrap(),
            Command::Info {
                file: "x.dfg".into(),
                dot: true
            }
        );
    }

    #[test]
    fn parses_schedule_with_all_flags() {
        let c = parse(&[
            "schedule",
            "x.dfg",
            "--cs",
            "5",
            "--resource",
            "--limit",
            "mul=2",
            "--limit",
            "+=1",
            "--chain",
            "100",
            "--latency",
            "2",
            "--two-cycle-mul",
        ])
        .unwrap();
        match c {
            Command::Schedule {
                cs,
                resource,
                limits,
                chain,
                latency,
                two_cycle_mul,
                ..
            } => {
                assert_eq!(cs, 5);
                assert!(resource);
                assert_eq!(limits, vec![(OpKind::Mul, 2), (OpKind::Add, 1)]);
                assert_eq!(chain, Some(100));
                assert_eq!(latency, Some(2));
                assert!(two_cycle_mul);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parses_synth_weights() {
        let c = parse(&[
            "synth",
            "x.dfg",
            "--cs",
            "4",
            "--weights",
            "0,1,2,3",
            "--check",
        ])
        .unwrap();
        match c {
            Command::Synth { weights, check, .. } => {
                assert_eq!(weights, Some([0, 1, 2, 3]));
                assert!(check);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn missing_cs_is_an_error() {
        assert!(parse(&["schedule", "x.dfg"]).unwrap_err().contains("--cs"));
        assert!(parse(&["synth", "x.dfg"]).unwrap_err().contains("--cs"));
    }

    #[test]
    fn parses_synth_shard() {
        // --shard N with an explicit algorithm and thread count; --cs
        // becomes optional.
        let c = parse(&[
            "synth",
            "gen:5000",
            "--shard",
            "4",
            "--shard-alg",
            "mfs",
            "--threads",
            "8",
        ])
        .unwrap();
        match c {
            Command::Synth {
                cs,
                shard,
                shard_alg,
                threads,
                ..
            } => {
                assert_eq!(cs, None);
                assert_eq!(shard, Some(4));
                assert_eq!(shard_alg, Algorithm::Mfs);
                assert_eq!(threads, 8);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // `auto` parses to 0; --cs is kept as the global ceiling.
        let c = parse(&["synth", "x.dfg", "--shard", "auto", "--cs", "40"]).unwrap();
        match c {
            Command::Synth {
                cs,
                shard,
                shard_alg,
                ..
            } => {
                assert_eq!(cs, Some(40));
                assert_eq!(shard, Some(0));
                assert_eq!(shard_alg, Algorithm::Mfsa);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // Bad values and misuses are rejected with pointed errors.
        assert!(parse(&["synth", "x.dfg", "--shard", "0"])
            .unwrap_err()
            .contains("positive count or `auto`"));
        assert!(
            parse(&["synth", "x.dfg", "--cs", "4", "--shard-alg", "mfs"])
                .unwrap_err()
                .contains("requires --shard")
        );
        assert!(parse(&["synth", "x.dfg", "--cs", "4", "--threads", "2"])
            .unwrap_err()
            .contains("requires --shard"));
        assert!(parse(&["synth", "x.dfg", "--shard", "2", "--verilog"])
            .unwrap_err()
            .contains("drop --json"));
        assert!(parse(&["synth", "x.dfg", "--shard", "2", "--style2"])
            .unwrap_err()
            .contains("--style2"));
        assert!(
            parse(&["synth", "x.dfg", "--shard", "2", "--shard-alg", "list"])
                .unwrap_err()
                .contains("mfs|mfsa")
        );
    }

    #[test]
    fn parses_synth_iterate() {
        let c = parse(&["synth", "x.dfg", "--cs", "12", "--iterate", "3"]).unwrap();
        match c {
            Command::Synth { cs, iterate, .. } => {
                assert_eq!(cs, Some(12));
                assert_eq!(iterate, 3);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // Composes with --shard; bad counts are pointed errors.
        let c = parse(&["synth", "gen:5000", "--shard", "2", "--iterate", "1"]).unwrap();
        match c {
            Command::Synth { iterate, shard, .. } => {
                assert_eq!(iterate, 1);
                assert_eq!(shard, Some(2));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&["synth", "x.dfg", "--cs", "4", "--iterate", "x"])
            .unwrap_err()
            .contains("--iterate"));
        // In explore, --iterate applies to --alg/--cs points only; grid
        // files carry their own per-point key.
        assert!(
            parse(&["explore", "x.dfg", "--grid", "g.toml", "--iterate", "2"])
                .unwrap_err()
                .contains("grid file")
        );
        // --iterate belongs to synth and explore, not schedule.
        assert!(parse(&["schedule", "x.dfg", "--cs", "4", "--iterate", "2"])
            .unwrap_err()
            .contains("unknown schedule flag"));
    }

    #[test]
    fn parses_synth_iterate_profile() {
        let c = parse(&[
            "synth",
            "x.dfg",
            "--cs",
            "12",
            "--iterate",
            "2",
            "--iterate-profile",
        ])
        .unwrap();
        match c {
            Command::Synth {
                iterate,
                iterate_profile,
                ..
            } => {
                assert_eq!(iterate, 2);
                assert!(iterate_profile);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // Hints only steer the refinement loop, so the flag is
        // meaningless without --iterate.
        assert!(
            parse(&["synth", "x.dfg", "--cs", "12", "--iterate-profile"])
                .unwrap_err()
                .contains("requires --iterate")
        );
        // Sharded synthesis profiles per shard; not wired up.
        assert!(parse(&[
            "synth",
            "gen:5000",
            "--shard",
            "2",
            "--iterate",
            "1",
            "--iterate-profile"
        ])
        .unwrap_err()
        .contains("--shard"));
        // The JSON point report has no hint field yet.
        assert!(parse(&[
            "synth",
            "x.dfg",
            "--cs",
            "12",
            "--iterate",
            "1",
            "--iterate-profile",
            "--json"
        ])
        .unwrap_err()
        .contains("--json"));
        // And it stays a synth-only flag.
        assert!(
            parse(&["schedule", "x.dfg", "--cs", "4", "--iterate-profile"])
                .unwrap_err()
                .contains("unknown schedule flag")
        );
    }

    #[test]
    fn synth_iterate_end_to_end() {
        let dir = std::env::temp_dir().join("mfhls-iterate-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.dfg");
        std::fs::write(
            &path,
            "input a, b\nop p = mul(a, b)\nop q = add(p, b)\nop r = add(a, b)\n",
        )
        .unwrap();
        // Monolithic MFSA with refinement at a padded budget.
        run(Command::Synth {
            file: path.to_string_lossy().to_string(),
            cs: Some(6),
            style2: false,
            weights: None,
            lib: None,
            two_cycle_mul: false,
            json: false,
            microcode: false,
            verilog: false,
            testbench: false,
            check: true,
            svg: None,
            vcd: None,
            shard: None,
            shard_alg: Algorithm::Mfsa,
            threads: 0,
            iterate: 3,
            iterate_profile: true,
            tel: Telemetry {
                quiet: true,
                ..Telemetry::default()
            },
        })
        .unwrap();
        // Sharded synthesis with post-stitch refinement.
        run(Command::Synth {
            file: "gen:800".to_string(),
            cs: None,
            style2: false,
            weights: None,
            lib: None,
            two_cycle_mul: false,
            json: false,
            microcode: false,
            verilog: false,
            testbench: false,
            check: false,
            svg: None,
            vcd: None,
            shard: Some(3),
            shard_alg: Algorithm::Mfs,
            threads: 2,
            iterate: 2,
            iterate_profile: false,
            tel: Telemetry {
                quiet: true,
                ..Telemetry::default()
            },
        })
        .unwrap();
    }

    #[test]
    fn synth_shard_end_to_end() {
        let base = Command::Synth {
            file: "gen:800".to_string(),
            cs: None,
            style2: false,
            weights: None,
            lib: None,
            two_cycle_mul: false,
            json: false,
            microcode: false,
            verilog: false,
            testbench: false,
            check: false,
            svg: None,
            vcd: None,
            shard: Some(3),
            shard_alg: Algorithm::Mfs,
            threads: 2,
            iterate: 0,
            iterate_profile: false,
            tel: Telemetry {
                quiet: true,
                ..Telemetry::default()
            },
        };
        run(base.clone()).unwrap();
        // An impossible ceiling is a pointed error, not a panic.
        let err = match base {
            Command::Synth {
                file,
                shard,
                shard_alg,
                threads,
                tel,
                ..
            } => run(Command::Synth {
                file,
                cs: Some(1),
                style2: false,
                weights: None,
                lib: None,
                two_cycle_mul: false,
                json: false,
                microcode: false,
                verilog: false,
                testbench: false,
                check: false,
                svg: None,
                vcd: None,
                shard,
                shard_alg,
                threads,
                iterate: 0,
                iterate_profile: false,
                tel,
            })
            .unwrap_err(),
            _ => unreachable!(),
        };
        assert!(err.contains("ceiling"), "{err}");
    }

    #[test]
    fn help_subcommand_parses_and_runs() {
        assert_eq!(parse(&["help"]).unwrap(), Command::Help { topic: None });
        assert_eq!(
            parse(&["help", "synth"]).unwrap(),
            Command::Help {
                topic: Some("synth".into())
            }
        );
        run(Command::Help { topic: None }).unwrap();
        for sub in SUBCOMMANDS {
            run(Command::Help {
                topic: Some(sub.to_string()),
            })
            .unwrap();
        }
        let err = run(Command::Help {
            topic: Some("bogus".into()),
        })
        .unwrap_err();
        assert!(err.contains("bogus") && err.contains("schedule"), "{err}");
    }

    #[test]
    fn every_subcommand_has_help_and_flag_coverage() {
        for sub in SUBCOMMANDS {
            let text = usage_for(sub).unwrap();
            // Every allowed flag appears in its subcommand's help text.
            for flag in allowed_flags(sub) {
                let named = flag.trim_start_matches('-');
                assert!(
                    text.contains(flag) || text.contains(named),
                    "help for `{sub}` is missing `{flag}`"
                );
            }
        }
        assert!(usage_for("bogus").is_none());
    }

    #[test]
    fn unknown_flags_are_scoped_to_the_subcommand() {
        // A flag valid elsewhere names its proper subcommand.
        let err = parse(&["schedule", "x.dfg", "--cs", "4", "--verilog"]).unwrap_err();
        assert!(err.contains("unknown schedule flag"), "{err}");
        assert!(err.contains("`synth`"), "{err}");
        assert!(err.contains("mfhls help schedule"), "{err}");
        // A flag valid nowhere gets no cross-reference.
        let err = parse(&["synth", "x.dfg", "--cs", "4", "--frobnicate"]).unwrap_err();
        assert!(err.contains("unknown synth flag"), "{err}");
        assert!(!err.contains("(a `"), "{err}");
        // info rejects scheduling flags.
        let err = parse(&["info", "x.dfg", "--cs", "4"]).unwrap_err();
        assert!(err.contains("unknown info flag"), "{err}");
        assert!(err.contains("`schedule`"), "{err}");
    }

    #[test]
    fn bad_flags_are_reported() {
        assert!(parse(&["schedule", "x.dfg", "--cs", "4", "--bogus"])
            .unwrap_err()
            .contains("--bogus"));
        assert!(parse(&["frobnicate", "x.dfg"])
            .unwrap_err()
            .contains("frobnicate"));
        assert!(parse(&["schedule", "x.dfg", "--cs", "four"])
            .unwrap_err()
            .contains("invalid"));
        assert!(parse(&["synth", "x.dfg", "--cs", "4", "--weights", "1,2"])
            .unwrap_err()
            .contains("four values"));
    }

    #[test]
    fn end_to_end_on_a_temp_file() {
        let dir = std::env::temp_dir().join("mfhls-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("toy.dfg");
        std::fs::write(&file, "input a, b\nop p = mul(a, b)\nop q = add(p, b)\n").unwrap();
        let path = file.to_string_lossy().to_string();
        run(Command::Info {
            file: path.clone(),
            dot: false,
        })
        .unwrap();
        run(Command::Schedule {
            file: path.clone(),
            cs: 2,
            resource: false,
            limits: vec![],
            chain: None,
            latency: None,
            two_cycle_mul: false,
            json: false,
            svg: Some(dir.join("toy.svg").to_string_lossy().to_string()),
            tel: Telemetry::default(),
        })
        .unwrap();
        assert!(dir.join("toy.svg").exists());
        run(Command::Synth {
            file: path.clone(),
            cs: Some(3),
            style2: true,
            weights: None,
            lib: None,
            two_cycle_mul: false,
            json: false,
            microcode: true,
            verilog: true,
            testbench: true,
            check: true,
            svg: None,
            vcd: Some(dir.join("toy.vcd").to_string_lossy().to_string()),
            shard: None,
            shard_alg: Algorithm::Mfsa,
            threads: 0,
            iterate: 0,
            iterate_profile: false,
            tel: Telemetry::default(),
        })
        .unwrap();
        assert!(dir.join("toy.vcd").exists());
        // With a custom library written next to the design.
        let lib_file = std::path::Path::new(&path).with_extension("lib");
        std::fs::write(&lib_file, Library::ncr_like().to_text()).unwrap();
        run(Command::Synth {
            file: path,
            cs: Some(3),
            style2: false,
            weights: None,
            lib: Some(lib_file.to_string_lossy().to_string()),
            two_cycle_mul: false,
            json: false,
            microcode: false,
            verilog: false,
            testbench: false,
            check: true,
            svg: None,
            vcd: None,
            shard: None,
            shard_alg: Algorithm::Mfsa,
            threads: 0,
            iterate: 0,
            iterate_profile: false,
            tel: Telemetry::default(),
        })
        .unwrap();
    }

    #[test]
    fn parses_explore() {
        let c = parse(&[
            "explore",
            "x.dfg",
            "--cs",
            "4,5,6",
            "--alg",
            "mfs,list",
            "--threads",
            "8",
            "--emit",
            "front.json",
        ])
        .unwrap();
        match c {
            Command::Explore {
                algs,
                cs_list,
                threads,
                emit,
                grid,
                ..
            } => {
                assert_eq!(algs, vec![Algorithm::Mfs, Algorithm::List]);
                assert_eq!(cs_list, vec![4, 5, 6]);
                assert_eq!(threads, 8);
                assert_eq!(emit.as_deref(), Some("front.json"));
                assert!(grid.is_none());
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&["explore", "x.dfg"]).unwrap_err().contains("--cs"));
        assert!(
            parse(&["explore", "x.dfg", "--grid", "g.toml", "--cs", "4"])
                .unwrap_err()
                .contains("not both")
        );
        assert!(parse(&["explore", "x.dfg", "--cs", "4", "--alg", "bogus"])
            .unwrap_err()
            .contains("bogus"));
        assert!(
            parse(&["schedule", "x.dfg", "--cs", "4,5"])
                .unwrap_err()
                .contains("single"),
            "schedule rejects cs lists"
        );
    }

    #[test]
    fn explore_end_to_end_with_a_grid_file() {
        let dir = std::env::temp_dir().join("mfhls-explore-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("toy.dfg");
        std::fs::write(&file, "input a, b\nop p = mul(a, b)\nop q = add(p, b)\n").unwrap();
        let grid = dir.join("toy.grid");
        std::fs::write(
            &grid,
            "[defaults]\nalgorithm = [\"mfs\", \"list\"]\ncs = [2, 3]\n",
        )
        .unwrap();
        let front = dir.join("front.json");
        run(Command::Explore {
            file: file.to_string_lossy().to_string(),
            grid: Some(grid.to_string_lossy().to_string()),
            algs: vec![],
            cs_list: vec![],
            limits: vec![],
            chain: None,
            latency: None,
            style2: false,
            weights: None,
            two_cycle_mul: false,
            threads: 2,
            emit: Some(front.to_string_lossy().to_string()),
            iterate: 0,
            tel: Telemetry {
                quiet: true,
                ..Telemetry::default()
            },
        })
        .unwrap();
        let json = std::fs::read_to_string(&front).unwrap();
        assert!(json.starts_with("{\"points\":4,"), "{json}");
        assert!(json.contains("\"front\":["));
    }

    #[test]
    fn parses_profile() {
        assert_eq!(
            parse(&["profile", "x.dfg"]).unwrap(),
            Command::Profile {
                file: "x.dfg".into(),
                cs: None,
                alg: Algorithm::Mfs,
                top: 20,
                json: false,
                two_cycle_mul: false,
                quiet: false,
            }
        );
        assert_eq!(
            parse(&[
                "profile", "gen:5000", "--cs", "40", "--alg", "mfsa", "--top", "5", "--json", "-q"
            ])
            .unwrap(),
            Command::Profile {
                file: "gen:5000".into(),
                cs: Some(40),
                alg: Algorithm::Mfsa,
                top: 5,
                json: true,
                two_cycle_mul: false,
                quiet: true,
            }
        );
        assert!(parse(&["profile", "x.dfg", "--alg", "fds"])
            .unwrap_err()
            .contains("mfs|mfsa"));
        assert!(parse(&["profile", "x.dfg", "--alg", "mfs,mfsa"])
            .unwrap_err()
            .contains("single --alg"));
        assert!(parse(&["profile", "x.dfg", "--cs", "4,5"])
            .unwrap_err()
            .contains("single --cs"));
        assert!(parse(&["profile", "x.dfg", "--top", "many"])
            .unwrap_err()
            .contains("invalid --top"));
        assert!(parse(&["profile", "x.dfg", "--verilog"])
            .unwrap_err()
            .contains("unknown profile flag"));
    }

    #[test]
    fn profile_end_to_end() {
        let dir = std::env::temp_dir().join("mfhls-profile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("toy.dfg");
        std::fs::write(&file, "input a, b\nop p = mul(a, b)\nop q = add(p, b)\n").unwrap();
        for alg in [Algorithm::Mfs, Algorithm::Mfsa] {
            run(Command::Profile {
                file: file.to_string_lossy().to_string(),
                cs: None,
                alg,
                top: 10,
                json: false,
                two_cycle_mul: false,
                quiet: true,
            })
            .unwrap();
        }
        // The generated-workload spelling works too, and bad operands
        // are rejected.
        run(Command::Profile {
            file: "gen:64".into(),
            cs: None,
            alg: Algorithm::Mfs,
            top: 3,
            json: true,
            two_cycle_mul: false,
            quiet: true,
        })
        .unwrap();
        assert!(load_design("gen:zero").unwrap_err().contains("positive"));
        assert!(load_design("gen:0").unwrap_err().contains("positive"));
    }

    #[test]
    fn parses_serve() {
        let c = parse(&[
            "serve",
            "--addr",
            "0.0.0.0:8080",
            "--workers",
            "3",
            "--queue-cap",
            "16",
            "--cache-cap",
            "100",
            "--cache-dir",
            "/tmp/mfhls-cache",
            "--deadline-ms",
            "250",
            "--keep-alive",
            "off",
            "--idle-timeout-ms",
            "900",
            "--read-timeout-ms",
            "700",
            "--pipeline-depth",
            "4",
            "--force-poll",
            "--access-log",
            "access.jsonl",
            "-q",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Serve {
                config: ServeConfig {
                    addr: "0.0.0.0:8080".into(),
                    workers: 3,
                    queue_cap: 16,
                    cache_cap: 100,
                    cache_dir: Some("/tmp/mfhls-cache".into()),
                    default_deadline_ms: Some(250),
                    keep_alive: false,
                    idle_timeout_ms: 900,
                    read_timeout_ms: 700,
                    pipeline_depth: 4,
                    force_poll: true,
                    ..ServeConfig::default()
                },
                access_log: Some("access.jsonl".into()),
                quiet: true,
            }
        );
        // Bare `serve` is exactly the library defaults: the CLI adds
        // nothing of its own.
        match parse(&["serve"]).unwrap() {
            Command::Serve {
                config,
                access_log,
                quiet,
            } => {
                assert_eq!(config, ServeConfig::default());
                assert_eq!(access_log, None);
                assert!(!quiet);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&["serve", "--workers", "many"])
            .unwrap_err()
            .contains("invalid --workers"));
        assert!(parse(&["serve", "--keep-alive", "sometimes"])
            .unwrap_err()
            .contains("on|off"));
        assert!(parse(&["serve", "--pipeline-depth", "0"])
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&["serve", "--cs", "4"])
            .unwrap_err()
            .contains("unknown serve flag"));
    }

    #[test]
    fn parses_json_flag() {
        match parse(&["schedule", "x.dfg", "--cs", "4", "--json"]).unwrap() {
            Command::Schedule { json, .. } => assert!(json),
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(&["synth", "x.dfg", "--cs", "4", "--json"]).unwrap() {
            Command::Synth { json, .. } => assert!(json),
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn json_mode_rejects_conflicting_flags() {
        let dir = std::env::temp_dir().join("mfhls-json-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("toy.dfg");
        std::fs::write(&file, "input a, b\nop p = mul(a, b)\nop q = add(p, b)\n").unwrap();
        let path = file.to_string_lossy().to_string();
        let err = run(Command::Schedule {
            file: path.clone(),
            cs: 2,
            resource: true,
            limits: vec![],
            chain: None,
            latency: None,
            two_cycle_mul: false,
            json: true,
            svg: None,
            tel: Telemetry::default(),
        })
        .unwrap_err();
        assert!(err.contains("--resource"), "{err}");
        let err = run(Command::Synth {
            file: path.clone(),
            cs: Some(3),
            style2: false,
            weights: None,
            lib: None,
            two_cycle_mul: false,
            json: true,
            microcode: true,
            verilog: false,
            testbench: false,
            check: false,
            svg: None,
            vcd: None,
            shard: None,
            shard_alg: Algorithm::Mfsa,
            threads: 0,
            iterate: 0,
            iterate_profile: false,
            tel: Telemetry::default(),
        })
        .unwrap_err();
        assert!(err.contains("--microcode"), "{err}");
        // The happy path prints the stats JSON and succeeds.
        run(Command::Schedule {
            file: path.clone(),
            cs: 2,
            resource: false,
            limits: vec![],
            chain: None,
            latency: None,
            two_cycle_mul: false,
            json: true,
            svg: None,
            tel: Telemetry::default(),
        })
        .unwrap();
        run(Command::Synth {
            file: path,
            cs: Some(3),
            style2: false,
            weights: None,
            lib: None,
            two_cycle_mul: false,
            json: true,
            microcode: false,
            verilog: false,
            testbench: false,
            check: false,
            svg: None,
            vcd: None,
            shard: None,
            shard_alg: Algorithm::Mfsa,
            threads: 0,
            iterate: 0,
            iterate_profile: false,
            tel: Telemetry::default(),
        })
        .unwrap();
    }

    #[test]
    fn parses_telemetry_flags() {
        let c = parse(&[
            "synth",
            "x.dfg",
            "--cs",
            "4",
            "--trace",
            "out.jsonl",
            "--chrome-trace",
            "out.json",
            "--metrics",
            "-q",
        ])
        .unwrap();
        match c {
            Command::Synth { tel, .. } => {
                assert_eq!(tel.trace.as_deref(), Some("out.jsonl"));
                assert_eq!(tel.chrome.as_deref(), Some("out.json"));
                assert!(tel.metrics);
                assert!(tel.quiet);
                assert!(!tel.verbose);
                assert!(tel.wants_events());
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn telemetry_artifacts_are_written() {
        let dir = std::env::temp_dir().join("mfhls-telemetry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("toy.dfg");
        std::fs::write(&file, "input a, b\nop p = mul(a, b)\nop q = add(p, b)\n").unwrap();
        let trace = dir.join("toy.jsonl");
        let chrome = dir.join("toy.trace.json");
        run(Command::Schedule {
            file: file.to_string_lossy().to_string(),
            cs: 3,
            resource: false,
            limits: vec![],
            chain: None,
            latency: None,
            two_cycle_mul: false,
            json: false,
            svg: None,
            tel: Telemetry {
                trace: Some(trace.to_string_lossy().to_string()),
                chrome: Some(chrome.to_string_lossy().to_string()),
                metrics: true,
                verbose: false,
                quiet: true,
            },
        })
        .unwrap();
        let jsonl = std::fs::read_to_string(&trace).unwrap();
        assert!(!jsonl.is_empty());
        for line in jsonl.lines() {
            assert!(
                line.starts_with("{\"event\":\"") && line.ends_with('}'),
                "{line}"
            );
        }
        assert!(jsonl.contains("\"event\":\"move_committed\""));
        let chrome_json = std::fs::read_to_string(&chrome).unwrap();
        assert!(chrome_json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(chrome_json.contains("\"name\":\"mfs.move_loop\""));
    }
}
