//! Concurrency guarantees: answers under parallel load are
//! byte-identical to serial execution, the cache computes each unique
//! job exactly once, and a deadline overrun (504) never poisons the
//! worker pool or the cache.

mod common;

use std::collections::BTreeMap;

use moveframe_hls::prelude::*;

/// A mixed workload: both algorithms, several benchmarks and
/// constraints, plus an inline DFG body.
fn jobs() -> Vec<&'static str> {
    vec![
        r#"{"benchmark":"diffeq","alg":"mfs","cs":4}"#,
        r#"{"benchmark":"diffeq","alg":"mfs","cs":6}"#,
        r#"{"benchmark":"diffeq","alg":"mfsa","cs":4}"#,
        r#"{"benchmark":"ar","alg":"mfs","cs":8}"#,
        r#"{"benchmark":"fir","alg":"mfs","cs":12,"limit":"mul:2"}"#,
        r#"{"dfg":"input a, b\nop p = mul(a, b)\nop q = add(p, b)","cs":2}"#,
    ]
}

#[test]
fn concurrent_answers_match_serial_execution() {
    // Serial baseline on its own daemon (cold cache throughout).
    let serial = common::start(common::ephemeral_config());
    let addr = serial.local_addr();
    let mut expected: BTreeMap<&str, String> = BTreeMap::new();
    for job in jobs() {
        let (status, body) = common::post(addr, "/schedule", job.as_bytes());
        assert_eq!(status, 200, "serial {job}: {body}");
        expected.insert(job, body);
    }
    serial.shutdown();
    serial.join();

    // Fresh daemon, cold cache, hammered from N client threads with
    // rotated job orders so identical jobs race each other.
    let server = common::start(common::ephemeral_config());
    let addr = server.local_addr();
    let threads = 4;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            std::thread::spawn(move || {
                let jobs = jobs();
                let n = jobs.len();
                (0..n)
                    .map(|i| {
                        let job = jobs[(i + t) % n];
                        (job, common::post(addr, "/schedule", job.as_bytes()))
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut total = 0;
    for handle in handles {
        for (job, (status, body)) in handle.join().expect("client thread") {
            assert_eq!(status, 200, "concurrent {job}: {body}");
            assert_eq!(&body, &expected[job], "answer drifted under load: {job}");
            total += 1;
        }
    }
    assert_eq!(total, threads * jobs().len());

    // Exactly-once computation: every duplicate was a cache hit.
    let m = server.app().metrics_snapshot();
    let unique = jobs().len() as u64;
    assert_eq!(m.counter("serve.cache.results.misses"), unique);
    assert_eq!(m.counter("serve.cache.results.hits"), total as u64 - unique);

    server.shutdown();
    server.join();
}

#[test]
fn deadline_overrun_is_504_and_does_not_poison_the_pool() {
    let server = common::start(ServeConfig {
        workers: 2,
        ..common::ephemeral_config()
    });
    let addr = server.local_addr();

    // deadline_ms=0 expires before the first scheduler checkpoint.
    let expired = r#"{"benchmark":"ewf","alg":"mfsa","cs":18,"deadline_ms":0}"#;
    let (status, body) = common::post(addr, "/schedule", expired.as_bytes());
    assert_eq!(status, 504, "{body}");
    assert!(body.contains("deadline"), "{body}");

    // The same job without a deadline must compute fresh (the
    // cancelled attempt is forgotten, not cached) and succeed.
    let live = r#"{"benchmark":"ewf","alg":"mfsa","cs":18}"#;
    let (status, body) = common::post(addr, "/schedule", live.as_bytes());
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"total_cost\":"), "{body}");

    // And the pool still serves ordinary traffic afterwards.
    for _ in 0..3 {
        let (status, _) = common::post(addr, "/schedule", br#"{"benchmark":"diffeq","cs":4}"#);
        assert_eq!(status, 200);
    }
    assert_eq!(
        server
            .app()
            .metrics_snapshot()
            .counter("serve.jobs.deadline"),
        1
    );

    server.shutdown();
    server.join();
}

#[test]
fn default_deadline_applies_when_the_request_has_none() {
    // A server-wide 0ms default: everything times out...
    let server = common::start(ServeConfig {
        default_deadline_ms: Some(0),
        ..common::ephemeral_config()
    });
    let addr = server.local_addr();
    let (status, _) = common::post(addr, "/schedule", br#"{"benchmark":"diffeq","cs":4}"#);
    assert_eq!(status, 504);
    // ...unless the request overrides with a generous deadline.
    let (status, body) = common::post(
        addr,
        "/schedule",
        br#"{"benchmark":"diffeq","cs":4,"deadline_ms":60000}"#,
    );
    assert_eq!(status, 200, "{body}");
    server.shutdown();
    server.join();
}

#[test]
fn healthz_stays_responsive_while_jobs_compute() {
    let server = common::start(ServeConfig {
        workers: 2,
        ..common::ephemeral_config()
    });
    let addr = server.local_addr();
    let worker = std::thread::spawn(move || {
        common::post(
            addr,
            "/schedule",
            br#"{"benchmark":"dct8","alg":"mfsa","cs":12}"#,
        )
    });
    // Probe once the job runs; with a second worker this never queues
    // behind the compute.
    common::await_counter(&server, "serve.worker.started", 1);
    let (status, _) = common::get(addr, "/healthz");
    assert_eq!(status, 200);
    let (status, body) = worker.join().expect("job thread");
    assert!(status == 200 || status == 422, "dct8 job: {status} {body}");
    server.shutdown();
    server.join();
}
