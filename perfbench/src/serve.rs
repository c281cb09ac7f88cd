//! `serve_mixed`: an in-process `hls_serve::Server` under an open-loop
//! Poisson load, then a closed-loop phase over the same mix, on two
//! keep-alive connections. The mix: warm registry jobs (memory-tier
//! hits), unique cold `.dfg` bodies (misses: parse, schedule, disk
//! write), `POST /batch` requests, and malformed bodies that must
//! answer 400.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use hls_benchmarks::generate::{generate, GeneratorConfig};
use hls_celllib::Library;
use hls_explore::{run_indexed, Algorithm, Engine, PointMetrics};
use hls_serve::{parse_job, point_json, Request, Response, ServeConfig, Server};
use hls_telemetry::{Instrument, MemorySink, Metrics, NullSink, TraceSink};
use moveframe::mfs::{self, MfsConfig};
use moveframe::mfsa::{self, MfsaConfig};
use moveframe::CancelToken;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ledger::{median, p99, peak_rss_mb, setup_done, Outcome};
use crate::Args;

/// Open-loop arrival rate: about half the closed-loop throughput of
/// this mix with two workers (about 100 req/s on a 2-core host).
const OPEN_RATE: f64 = 50.0;
/// Latency limit behind `slo_share`, on open-loop latency.
const SLO_MS: f64 = 250.0;
/// Share of `--seconds` the open-loop schedule spans; the closed-loop
/// phase then sends half as many requests (at about twice the rate).
const OPEN_SHARE: f64 = 0.5;
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Request mix, in hundredths: warm, cold, batch; the rest malformed.
const WARM_PCT: usize = 30;
const COLD_PCT: usize = 55;
const BATCH_PCT: usize = 10;
/// Cold bodies: sizes spread evenly from 200 ops to this bound (MFSA
/// costs about ten times MFS per node here), fixed depth.
const COLD_MIN_OPS: f64 = 200.0;
const COLD_MAX_OPS_MFS: f64 = 2000.0;
const COLD_MAX_OPS_MFSA: f64 = 800.0;
const COLD_LAYERS: usize = 16;
const COLD_CS: u32 = 20;
const BATCH_JOBS: usize = 4;
/// Cold jobs re-run in process by a traced run for the iterate layer
/// and the tracing overhead.
const TRACE_SAMPLE: usize = 24;

/// The warm set: paper designs plus the memory kernels.
const REGISTRY: &[&str] = &[
    r#"{"benchmark":"diffeq","alg":"mfs","cs":4}"#,
    r#"{"benchmark":"diffeq","alg":"mfsa","cs":4}"#,
    r#"{"benchmark":"ar","alg":"mfs","cs":8}"#,
    r#"{"benchmark":"ewf","alg":"mfs","cs":17}"#,
    r#"{"benchmark":"ewf","alg":"mfsa","cs":17}"#,
    r#"{"benchmark":"fir","alg":"mfs","cs":12,"limit":"mul:2"}"#,
    r#"{"benchmark":"facet","alg":"mfsa","cs":4}"#,
    r#"{"benchmark":"bandpass","alg":"mfs","cs":9}"#,
    r#"{"benchmark":"dct8","alg":"mfs","cs":8}"#,
    r#"{"benchmark":"array_fir","alg":"mfsa","cs":28}"#,
    r#"{"benchmark":"matvec","alg":"mfs","cs":12}"#,
    r#"{"benchmark":"matvec_p4","alg":"mfsa","cs":12}"#,
];

/// Bodies that must answer 400.
const MALFORMED: &[(&str, &str)] = &[
    ("/schedule?cs=4", "dfg broken\ninput a\nop x = frob(a, a)\n"),
    ("/schedule?cs=4", "input a\nop x = add(a, nowhere)\n"),
    ("/schedule", r#"{"benchmark":"no_such_design","cs":4}"#),
    ("/schedule", r#"{"benchmark":"diffeq","cs":0}"#),
    ("/schedule", r#"{"benchmark":"diffeq","cs":4"#),
    ("/batch", "[]"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Warm,
    Cold,
    Batch,
    Malformed,
}

/// One request of the mix.
#[derive(Debug, Clone)]
struct Req {
    kind: Kind,
    /// Path with query string, as sent.
    target: String,
    body: String,
    /// A batch's registry jobs, in order (empty otherwise).
    jobs: Vec<&'static str>,
}

impl Req {
    fn registry(job: &'static str) -> Req {
        Req {
            kind: Kind::Warm,
            target: "/schedule".into(),
            body: job.into(),
            jobs: Vec::new(),
        }
    }

    fn bytes(&self) -> Vec<u8> {
        let mut out = format!(
            "POST {} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
            self.target,
            self.body.len()
        )
        .into_bytes();
        out.extend_from_slice(self.body.as_bytes());
        out
    }

    /// The request as the daemon parses it.
    fn parsed(&self) -> Request {
        let (path, query) = self.target.split_once('?').unwrap_or((&self.target, ""));
        Request {
            method: "POST".into(),
            path: path.into(),
            query: query
                .split('&')
                .filter(|p| !p.is_empty())
                .map(|pair| {
                    let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
                    (k.to_string(), v.to_string())
                })
                .collect(),
            body: self.body.clone().into_bytes(),
        }
    }
}

/// The generated inputs of one run.
struct Inputs {
    open: Vec<Req>,
    /// Due offsets of `open`, in seconds from the phase start.
    due: Vec<f64>,
    closed: Vec<Req>,
}

/// Cold job `i` of a phase: a fresh seeded graph of a size drawn evenly
/// over the range (golden-ratio steps from a seeded start, so every
/// seed sees the same spread of sizes), MFS or MFSA, some refined.
fn cold_req(rng: &mut StdRng, i: usize, start: f64) -> Req {
    let frac = (start + i as f64 * 0.618_033_988_749_895).fract();
    let mfsa = i % 3 == 2;
    let max = if mfsa {
        COLD_MAX_OPS_MFSA
    } else {
        COLD_MAX_OPS_MFS
    };
    let ops = COLD_MIN_OPS + frac * (max - COLD_MIN_OPS);
    let dfg = generate(&GeneratorConfig {
        seed: rng.gen(),
        layers: COLD_LAYERS,
        width: (ops as usize / COLD_LAYERS).max(1),
        inputs: 8,
        branch_pct: 10,
        ..GeneratorConfig::default()
    });
    let alg = if mfsa { "mfsa" } else { "mfs" };
    let iterate = if i % 4 == 1 { "&iterate=2" } else { "" };
    Req {
        kind: Kind::Cold,
        target: format!("/schedule?alg={alg}&cs={COLD_CS}{iterate}"),
        body: dfg
            .to_text()
            .expect("generated graphs are expressible as text"),
        jobs: Vec::new(),
    }
}

/// `n` requests of the mix in seeded order.
fn mix(rng: &mut StdRng, n: usize) -> Vec<Req> {
    let warm = n * WARM_PCT / 100;
    let cold = n * COLD_PCT / 100;
    let batch = n * BATCH_PCT / 100;
    let mut kinds: Vec<Kind> = std::iter::repeat_n(Kind::Warm, warm)
        .chain(std::iter::repeat_n(Kind::Cold, cold))
        .chain(std::iter::repeat_n(Kind::Batch, batch))
        .chain(std::iter::repeat_n(
            Kind::Malformed,
            n - warm - cold - batch,
        ))
        .collect();
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.gen_range(0..=i));
    }
    let start: f64 = rng.gen();
    let mut colds = 0;
    kinds
        .into_iter()
        .map(|kind| match kind {
            Kind::Warm => Req::registry(REGISTRY[rng.gen_range(0..REGISTRY.len())]),
            Kind::Cold => {
                colds += 1;
                cold_req(rng, colds - 1, start)
            }
            Kind::Batch => {
                let jobs: Vec<&'static str> = (0..BATCH_JOBS)
                    .map(|_| REGISTRY[rng.gen_range(0..REGISTRY.len())])
                    .collect();
                Req {
                    kind,
                    target: "/batch".into(),
                    body: format!("[{}]", jobs.join(",")),
                    jobs,
                }
            }
            Kind::Malformed => {
                let (target, body) = MALFORMED[rng.gen_range(0..MALFORMED.len())];
                Req {
                    kind,
                    target: target.into(),
                    body: body.into(),
                    jobs: Vec::new(),
                }
            }
        })
        .collect()
}

fn make_inputs(seed: u64, seconds: f64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = ((OPEN_RATE * seconds * OPEN_SHARE).round() as usize).max(20);
    let open = mix(&mut rng, n);
    let mut t = 0.0;
    let due = (0..n)
        .map(|_| {
            t += -(1.0 - rng.gen::<f64>()).ln() / OPEN_RATE;
            t
        })
        .collect();
    let closed = mix(&mut rng, n / 2);
    Inputs { open, due, closed }
}

/// One keep-alive client connection.
struct Conn {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
}

impl Conn {
    fn new(addr: SocketAddr) -> Conn {
        Conn { addr, stream: None }
    }

    /// Sends `req`, reads the response: `(status, body)`.
    fn send(&mut self, req: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(60)))?;
            self.stream = Some(BufReader::new(s));
        }
        let stream = self.stream.as_mut().expect("connected above");
        stream.get_mut().write_all(req)?;
        let mut line = String::new();
        stream.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))?;
        let mut length = 0usize;
        let mut close = false;
        loop {
            line.clear();
            stream.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.parse().map_err(std::io::Error::other)?;
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.eq_ignore_ascii_case("close");
                }
            }
        }
        let mut body = vec![0u8; length];
        stream.read_exact(&mut body)?;
        if close {
            self.stream = None;
        }
        Ok((status, body))
    }
}

/// What the client saw for one request.
#[derive(Debug, Clone, Default)]
struct Seen {
    status: u16,
    body: Vec<u8>,
    /// Latency in ms: from the due time (open loop) or the send (closed).
    latency_ms: f64,
    /// How late the request went out, in ms (open loop).
    lag_ms: f64,
    /// Send time, seconds from the phase start.
    sent_s: f64,
}

/// Sends `reqs` over `conns`, one thread per connection. With `due`
/// the phase is open loop: each request is sent at its due time (or as
/// soon as a connection frees up) and timed from it.
fn drive(conns: &mut [Conn], reqs: &[Req], due: Option<&[f64]>) -> (Vec<Seen>, f64) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let bytes: Vec<Vec<u8>> = reqs.iter().map(Req::bytes).collect();
    let mut seen: Vec<Seen> = vec![Seen::default(); reqs.len()];
    let parts: Vec<Vec<(usize, Seen)>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let next = &next;
                let bytes = &bytes;
                s.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= bytes.len() {
                            break;
                        }
                        let due_s = due.map(|d| d[i]);
                        if let Some(d) = due_s {
                            let wait = d - start.elapsed().as_secs_f64();
                            if wait > 0.0 {
                                std::thread::sleep(Duration::from_secs_f64(wait));
                            }
                        }
                        let sent_s = start.elapsed().as_secs_f64();
                        let (status, body) = conn.send(&bytes[i]).unwrap_or_else(|e| {
                            conn.stream = None;
                            (0, e.to_string().into_bytes())
                        });
                        let done_s = start.elapsed().as_secs_f64();
                        let from = due_s.unwrap_or(sent_s);
                        mine.push((
                            i,
                            Seen {
                                status,
                                body,
                                latency_ms: (done_s - from) * 1e3,
                                lag_ms: (sent_s - from) * 1e3,
                                sent_s,
                            },
                        ));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    for (i, s) in parts.into_iter().flatten() {
        seen[i] = s;
    }
    (seen, wall)
}

/// A running daemon with its own cache directory.
struct Daemon {
    server: Server,
    dir: PathBuf,
}

impl Daemon {
    fn start(dir: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("cache dir {}: {e}", dir.display()))?;
        let config = ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: WORKERS,
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let server = Server::start(config, Box::new(NullSink)).map_err(|e| e.to_string())?;
        Ok(Daemon { server, dir })
    }

    fn stop(self) {
        self.server.shutdown();
        self.server.join();
        let _ = std::fs::remove_dir_all(&self.dir);
        if let Some(parent) = self.dir.parent() {
            // Removed only once empty: another run may share it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Where this run keeps its daemon cache: inside the build directory,
/// which lives in the checkout and is ignored by git.
fn scratch_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target)
        .join("perfbench-serve")
        .join(std::process::id().to_string())
}

/// The expected answer to a request, computed in process with the same
/// library calls the daemon makes.
struct Expected {
    status: u16,
    /// The exact body, or `None` where only the status is the contract.
    body: Option<Vec<u8>>,
    /// For jobs: the point's metrics (quality of result).
    metrics: Option<PointMetrics>,
    /// Cold jobs: parse_job, schedule_point and point_json, in ms.
    cost_ms: Option<[f64; 3]>,
}

fn expected_job(engine: &Engine, req: &Request, instr: &mut Instrument<'_>) -> Expected {
    let t0 = Instant::now();
    let job = match parse_job(req) {
        Ok(job) => job,
        Err(message) => {
            return Expected {
                status: 400,
                body: Some(Response::error(400, &message).body),
                metrics: None,
                cost_ms: None,
            }
        }
    };
    let t1 = Instant::now();
    let (outcome, _) = engine.schedule_point(
        &job.dfg,
        &job.spec,
        &job.point,
        &CancelToken::never(),
        instr,
    );
    let t2 = Instant::now();
    let (status, body, metrics) = match outcome {
        Ok(m) => (200, point_json(&job.point, &m).into_bytes(), Some(m)),
        Err(e) => (422, Response::error(422, &e).body, None),
    };
    let t3 = Instant::now();
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    Expected {
        status,
        body: Some(body),
        metrics,
        cost_ms: Some([ms(t0, t1), ms(t1, t2), ms(t2, t3)]),
    }
}

fn expected(engine: &Engine, req: &Req) -> Expected {
    let mut sink = NullSink;
    let mut metrics = Metrics::new();
    let mut instr = Instrument::new(&mut sink, &mut metrics);
    if req.target != "/batch" {
        let mut e = expected_job(engine, &req.parsed(), &mut instr);
        if req.kind != Kind::Cold {
            e.cost_ms = None;
        }
        return e;
    }
    if req.jobs.is_empty() {
        return Expected {
            status: 400,
            body: None,
            metrics: None,
            cost_ms: None,
        };
    }
    // The `/schedule` bodies of the batch's jobs, in order, as one array.
    let items: Vec<String> = req
        .jobs
        .iter()
        .map(|job| {
            let e = expected_job(engine, &Req::registry(job).parsed(), &mut instr);
            String::from_utf8_lossy(&e.body.unwrap_or_default())
                .trim_end()
                .to_string()
        })
        .collect();
    Expected {
        status: 200,
        body: Some(format!("[{}]\n", items.join(",")).into_bytes()),
        metrics: None,
        cost_ms: None,
    }
}

/// Starts the daemon and fills its memory tier with the registry jobs.
fn start_warm() -> Result<(Daemon, Vec<Conn>), String> {
    let daemon = Daemon::start(scratch_dir())?;
    let addr = daemon.server.local_addr();
    let mut conns: Vec<Conn> = (0..CLIENTS).map(|_| Conn::new(addr)).collect();
    for job in REGISTRY {
        match conns[0].send(&Req::registry(job).bytes()) {
            Ok((200, _)) => {}
            Ok((status, body)) => {
                daemon.stop();
                return Err(format!(
                    "warm-up {job}: status {status}: {}",
                    String::from_utf8_lossy(&body)
                ));
            }
            Err(e) => {
                daemon.stop();
                return Err(format!("warm-up {job}: {e}"));
            }
        }
    }
    Ok((daemon, conns))
}

fn counter_delta(before: &Metrics, after: &Metrics, name: &str) -> f64 {
    after.counter(name).saturating_sub(before.counter(name)) as f64
}

/// Mean of the histograms `<prefix>.*.ns` added between two snapshots,
/// in ms.
fn mean_delta_ms(before: &Metrics, after: &Metrics, prefix: &str) -> f64 {
    let (mut sum, mut count) = (0u64, 0u64);
    for (name, h) in after.histograms() {
        if name.starts_with(prefix) && name.ends_with(".ns") {
            let (s0, c0) = before
                .histogram(name)
                .map_or((0, 0), |b| (b.sum(), b.count()));
            sum += h.sum() - s0;
            count += h.count() - c0;
        }
    }
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64 / 1e6
    }
}

pub fn serve_mixed(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    // Set-up: inputs, daemon start, warm-up; repeated, the last kept.
    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let started = Instant::now();
    let (inputs, daemon, mut conns) = loop {
        let t0 = Instant::now();
        let inputs = make_inputs(args.seed, args.seconds);
        let t1 = Instant::now();
        let (daemon, conns) = start_warm()?;
        setups.push(t0.elapsed().as_secs_f64());
        builds.push((t1 - t0).as_secs_f64() * 1e3);
        if setup_done(setups.len(), started) {
            break (inputs, daemon, conns);
        }
        drop(conns);
        daemon.stop();
    };
    out.set("setup_s", median(&setups));

    let before = daemon.server.app().metrics_snapshot();
    let (open, _) = drive(&mut conns, &inputs.open, Some(&inputs.due));
    let (closed, closed_wall) = drive(&mut conns, &inputs.closed, None);
    let after = daemon.server.app().metrics_snapshot();
    drop(conns);
    daemon.stop();

    // Output checks against the in-process answers, computed once per
    // distinct request on two threads.
    let engine = Engine::new();
    let mut distinct: BTreeMap<(&str, &str), &Req> = BTreeMap::new();
    for r in inputs.open.iter().chain(&inputs.closed) {
        distinct.entry((&r.target, &r.body)).or_insert(r);
    }
    let reqs: Vec<&Req> = distinct.into_values().collect();
    let answers: BTreeMap<(&str, &str), Expected> = reqs
        .iter()
        .zip(run_indexed(reqs.len(), CLIENTS, |i| {
            expected(&engine, reqs[i])
        }))
        .map(|(r, e)| ((r.target.as_str(), r.body.as_str()), e))
        .collect();
    let check = |out: &mut Outcome, req: &Req, seen: &Seen| -> bool {
        let e = &answers[&(req.target.as_str(), req.body.as_str())];
        out.attempted += 1;
        if seen.status == e.status && e.body.as_ref().is_none_or(|b| *b == seen.body) {
            true
        } else {
            let clip = |b: &[u8]| String::from_utf8_lossy(&b[..b.len().min(120)]).into_owned();
            out.fail(format!(
                "{:?} {}: got {} {:?}, expected {} {:?}",
                req.kind,
                req.target,
                seen.status,
                clip(&seen.body),
                e.status,
                e.body.as_deref().map(clip),
            ));
            false
        }
    };
    let open_ok: Vec<bool> = inputs
        .open
        .iter()
        .zip(&open)
        .map(|(r, s)| check(&mut out, r, s))
        .collect();
    for (r, s) in inputs.closed.iter().zip(&closed) {
        check(&mut out, r, s);
    }

    // End-to-end.
    let lat: Vec<f64> = open.iter().map(|s| s.latency_ms).collect();
    let cold_cost: Vec<[f64; 3]> = answers.values().filter_map(|e| e.cost_ms).collect();
    let cold_wall: Vec<f64> = cold_cost
        .iter()
        .map(|c| (c[0] + c[1] + c[2]) / 1e3)
        .collect();
    out.set("design_wall_s", median(&cold_wall));
    out.set("serve.open_p50_ms", median(&lat));
    out.set("serve.open_p99_ms", p99(&lat));
    let within = open
        .iter()
        .zip(&open_ok)
        .filter(|(s, &ok)| ok && s.latency_ms <= SLO_MS)
        .count();
    out.set("slo_share", within as f64 / open.len() as f64);
    out.set("ops_per_s", closed.len() as f64 / closed_wall);
    out.set(
        "ok_share",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.set("peak_rss_mb", peak_rss_mb());
    let (mut csteps, mut area, mut regs) = (0.0, 0.0, 0.0);
    for job in REGISTRY {
        if let Some(m) = answers
            .get(&("/schedule", *job))
            .and_then(|e| e.metrics.as_ref())
        {
            csteps += m.csteps as f64;
            area += m.mfsa.as_ref().map_or(m.fu_cost, |d| d.total_cost) as f64;
            regs += m.registers as f64;
        }
    }
    out.set("csteps", csteps);
    out.set("area_cost", area);
    out.set("registers", regs);

    if args.trace {
        let class = |kind: Kind| -> Vec<f64> {
            inputs
                .closed
                .iter()
                .zip(&closed)
                .filter(|(r, _)| r.kind == kind)
                .map(|(_, s)| s.latency_ms)
                .collect()
        };
        out.set("dfg.build_ms", median(&builds));
        out.set("serve.hit_p50_ms", median(&class(Kind::Warm)));
        out.set("serve.miss_p50_ms", median(&class(Kind::Cold)));
        out.set("serve.miss_p99_ms", p99(&class(Kind::Cold)));
        out.set("serve.batch_p50_ms", median(&class(Kind::Batch)));
        out.set(
            "serve.queue_wait_mean_ms",
            mean_delta_ms(&before, &after, "serve.queue_wait."),
        );
        out.set(
            "serve.compute_mean_ms",
            mean_delta_ms(&before, &after, "serve.compute."),
        );
        out.set(
            "serve.fastpath.hits",
            counter_delta(&before, &after, "serve.fastpath.hits"),
        );
        out.set(
            "serve.rejected_429",
            counter_delta(&before, &after, "serve.queue.rejected"),
        );
        let hits = counter_delta(&before, &after, "serve.cache.results.hits");
        let misses = counter_delta(&before, &after, "serve.cache.results.misses");
        out.set("explore.cache.hits", hits);
        out.set("explore.cache.misses", misses);
        out.set("explore.cache.hit_ratio", hits / (hits + misses).max(1.0));
        out.set(
            "explore.cache.disk.writes",
            counter_delta(&before, &after, "serve.cache.disk.writes"),
        );
        out.set(
            "serve.parse_job_ms",
            median(&cold_cost.iter().map(|c| c[0]).collect::<Vec<_>>()),
        );
        out.set(
            "explore.schedule_point_ms",
            median(&cold_cost.iter().map(|c| c[1]).collect::<Vec<_>>()),
        );
        out.set(
            "serve.point_json_ms",
            median(&cold_cost.iter().map(|c| c[2]).collect::<Vec<_>>()),
        );
        let lags: Vec<f64> = open.iter().map(|s| s.lag_ms).collect();
        out.set("loadgen.lag_p99_ms", p99(&lags));
        let last_due = inputs.due.last().copied().unwrap_or(0.0);
        out.set(
            "serve.backlog_end",
            open.iter().filter(|s| s.sent_s > last_due).count() as f64,
        );
        traced_sample(&mut out, &inputs.closed);
    }
    Ok(out)
}

/// Re-runs a sample of cold jobs in process: once untraced and once
/// into a `MemorySink` (the tracing overhead), then step by step to time
/// the dfg parse and, for jobs with `iterate`, the refinement call.
fn traced_sample(out: &mut Outcome, reqs: &[Req]) {
    let sample: Vec<&Req> = reqs
        .iter()
        .filter(|r| r.kind == Kind::Cold)
        .take(TRACE_SAMPLE)
        .collect();
    let mut walls = [0.0f64; 2];
    for (i, traced) in [false, true].into_iter().enumerate() {
        let engine = Engine::new();
        let mut mem = MemorySink::new();
        let mut null = NullSink;
        let mut metrics = Metrics::new();
        let sink: &mut dyn TraceSink = if traced { &mut mem } else { &mut null };
        let mut instr = Instrument::new(sink, &mut metrics);
        let t = Instant::now();
        for r in &sample {
            std::hint::black_box(expected_job(&engine, &r.parsed(), &mut instr));
        }
        walls[i] = t.elapsed().as_secs_f64();
    }
    out.set("trace.overhead_share", (walls[1] - walls[0]) / walls[0]);

    let mut parse_ms = Vec::new();
    let (mut nodes, mut signals) = (0, 0);
    let mut refine_ms = Vec::new();
    let (mut accepted, mut rejected) = (0u32, 0u32);
    for r in &sample {
        let t = Instant::now();
        if let Ok(dfg) = hls_dfg::parse_dfg(&r.body) {
            parse_ms.push(t.elapsed().as_secs_f64() * 1e3);
            nodes += dfg.node_count();
            signals += dfg.signal_count();
        }
        let Ok(job) = parse_job(&r.parsed()) else {
            continue;
        };
        if job.point.iterate == 0 {
            continue;
        }
        let mut sink = NullSink;
        let mut metrics = Metrics::new();
        let mut instr = Instrument::new(&mut sink, &mut metrics);
        let config = hls_iterate::IterateConfig::new(job.point.iterate);
        let refined = match job.point.algorithm {
            Algorithm::Mfsa => {
                let library = Library::ncr_like();
                mfsa::schedule_traced(
                    &job.dfg,
                    &job.spec,
                    &MfsaConfig::new(job.point.cs, library.clone()),
                    &mut instr,
                )
                .ok()
                .map(|mut o| {
                    let t = Instant::now();
                    let r = hls_iterate::refine_mfsa(
                        &job.dfg, &job.spec, &library, &mut o, &config, &mut instr,
                    );
                    (
                        t.elapsed(),
                        r.map(|r| (r.splices_accepted, r.splices_rejected)),
                    )
                })
            }
            _ => mfs::schedule_traced(
                &job.dfg,
                &job.spec,
                &MfsConfig::time_constrained(job.point.cs),
                &mut instr,
            )
            .ok()
            .map(|o| {
                let t = Instant::now();
                let r = hls_iterate::refine(&job.dfg, &job.spec, &o.schedule, &config, &mut instr);
                (
                    t.elapsed(),
                    r.map(|r| (r.splices_accepted, r.splices_rejected)),
                )
            }),
        };
        if let Some((took, Ok((a, rj)))) = refined {
            refine_ms.push(took.as_secs_f64() * 1e3);
            accepted += a;
            rejected += rj;
        }
    }
    out.set("dfg.parse_ms", median(&parse_ms));
    out.set("dfg.nodes", nodes as f64);
    out.set("dfg.signals", signals as f64);
    out.set("iterate.refine_ms", median(&refine_ms));
    out.set("iterate.splices_accepted", accepted as f64);
    out.set("iterate.splices_rejected", rejected as f64);
}
