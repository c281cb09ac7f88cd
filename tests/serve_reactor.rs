//! The reactor's connection state machine, exercised over real
//! sockets: keep-alive reuse, pipelined ordering, connection survival
//! across error responses, byte-at-a-time request arrival, idle and
//! slow-loris eviction, `/batch`, drain with pipelined requests in
//! flight, and the disk tier across restarts (including a truncated
//! entry, which must cost exactly one recompute).

mod common;

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use moveframe_hls::prelude::*;

const DIFFEQ_JOB: &[u8] = br#"{"benchmark":"diffeq","cs":4}"#;

/// Writes one request without closing the connection, leaving it
/// eligible for keep-alive reuse.
fn send(stream: &mut TcpStream, method: &str, path: &str, body: &[u8]) {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body).expect("write body");
}

/// Reads exactly one `Content-Length`-framed response off the stream,
/// leaving any pipelined successor bytes unread.
fn read_response(stream: &mut TcpStream) -> (u16, String) {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    // Head, one byte at a time, until the blank line.
    while !raw.ends_with(b"\r\n\r\n") {
        match stream.read(&mut byte) {
            Ok(1) => raw.push(byte[0]),
            Ok(_) => panic!("EOF inside response head: {raw:?}"),
            Err(e) => panic!("read head: {e}"),
        }
    }
    let head = String::from_utf8_lossy(&raw).into_owned();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable head: {head:?}"));
    let len: usize = head
        .to_ascii_lowercase()
        .split("content-length:")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no content-length: {head:?}"));
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).expect("read body");
    (status, String::from_utf8_lossy(&body).into_owned())
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream
}

/// Blocks until the peer closes the connection (or fails the test
/// after `patience`). Distinguishes eviction from a stuck socket.
fn assert_peer_closes(stream: &mut TcpStream, patience: Duration) {
    stream
        .set_read_timeout(Some(patience))
        .expect("read timeout");
    let mut buf = [0u8; 64];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(_) => continue, // unread response bytes; keep draining
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                panic!("server kept the connection past {patience:?}")
            }
            // A reset also proves the server dropped the connection.
            Err(_) => return,
        }
    }
}

#[test]
fn keep_alive_reuses_one_connection() {
    let server = common::start(common::ephemeral_config());
    let mut stream = connect(server.local_addr());

    for _ in 0..3 {
        send(&mut stream, "GET", "/healthz", b"");
        let (status, body) = read_response(&mut stream);
        assert_eq!((status, body.as_str()), (200, "ok\n"));
    }

    let m = server.app().metrics_snapshot();
    assert_eq!(m.counter("serve.conns.accepted"), 1);
    assert_eq!(m.counter("serve.keepalive.reused"), 2);

    server.shutdown();
    server.join();
}

#[test]
fn pipelined_responses_keep_request_order() {
    let server = common::start(common::ephemeral_config());
    let mut stream = connect(server.local_addr());

    // Three distinguishable requests in one burst, no reads between:
    // the compute job in the middle must not let the cheap probes
    // overtake it.
    let mut burst = Vec::new();
    burst.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n");
    burst.extend_from_slice(
        format!(
            "POST /schedule HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            DIFFEQ_JOB.len()
        )
        .as_bytes(),
    );
    burst.extend_from_slice(DIFFEQ_JOB);
    burst.extend_from_slice(b"GET /metrics HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n");
    stream.write_all(&burst).expect("write burst");

    let (status, body) = read_response(&mut stream);
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 200);
    assert!(body.contains("csteps"), "{body}");
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 200);
    assert!(body.contains("serve_requests"), "{body}");

    assert!(
        server
            .app()
            .metrics_snapshot()
            .counter("serve.pipeline.pipelined")
            >= 1
    );

    server.shutdown();
    server.join();
}

#[test]
fn connection_survives_a_400() {
    let server = common::start(common::ephemeral_config());
    let mut stream = connect(server.local_addr());

    send(
        &mut stream,
        "POST",
        "/schedule",
        br#"{"benchmark":"diffeq","cs":4,"chain":0}"#,
    );
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 400, "{body}");

    // A well-formed request with a bad payload poisons nothing: the
    // same connection keeps serving.
    send(&mut stream, "GET", "/healthz", b"");
    assert_eq!(read_response(&mut stream).0, 200);

    server.shutdown();
    server.join();
}

#[test]
fn connection_survives_a_429() {
    let server = common::start(ServeConfig {
        workers: 1,
        queue_cap: 1,
        ..common::ephemeral_config()
    });
    let addr = server.local_addr();

    // Saturate: one job computing, one in the single queue slot.
    let pin_body = common::pin_job(1500);
    let pin = std::thread::spawn(move || common::post(addr, "/schedule", &pin_body));
    common::await_counter(&server, "serve.worker.started", 1);
    let queued = std::thread::spawn(move || common::post(addr, "/schedule", DIFFEQ_JOB));
    common::await_counter(&server, "serve.queue.admitted", 2);

    let mut stream = connect(addr);
    send(&mut stream, "GET", "/healthz", b"");
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 429, "{body}");

    // 429 is the *request* shed, not the connection: once the pool
    // drains, the very same socket serves again.
    assert_eq!(pin.join().expect("pin client").0, 200);
    assert_eq!(queued.join().expect("queued client").0, 200);
    send(&mut stream, "GET", "/healthz", b"");
    assert_eq!(read_response(&mut stream).0, 200);

    server.shutdown();
    server.join();
}

#[test]
fn connection_survives_a_504() {
    let server = common::start(common::ephemeral_config());
    let mut stream = connect(server.local_addr());

    // An uncached point with a zero deadline overruns before the
    // worker finishes (warm hits answer inline and never race one).
    send(
        &mut stream,
        "POST",
        "/schedule",
        br#"{"benchmark":"diffeq","cs":5,"deadline_ms":0}"#,
    );
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 504, "{body}");

    send(&mut stream, "GET", "/healthz", b"");
    assert_eq!(read_response(&mut stream).0, 200);

    server.shutdown();
    server.join();
}

#[test]
fn split_headers_arrive_one_byte_at_a_time() {
    let server = common::start(common::ephemeral_config());
    let mut stream = connect(server.local_addr());

    let mut raw = Vec::new();
    raw.extend_from_slice(
        format!(
            "POST /schedule HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            DIFFEQ_JOB.len()
        )
        .as_bytes(),
    );
    raw.extend_from_slice(DIFFEQ_JOB);
    // One byte per write, with enough flushes and yields that the
    // reactor observes many partial reads across many ticks.
    for (i, &b) in raw.iter().enumerate() {
        stream.write_all(&[b]).expect("write byte");
        stream.flush().expect("flush");
        if i % 8 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("csteps"), "{body}");

    server.shutdown();
    server.join();
}

#[test]
fn idle_connections_are_evicted() {
    let server = common::start(ServeConfig {
        idle_timeout_ms: 100,
        ..common::ephemeral_config()
    });
    let mut stream = connect(server.local_addr());

    // Prove the connection was live and quiet (response fully read),
    // then let it sit past the idle bound.
    send(&mut stream, "GET", "/healthz", b"");
    assert_eq!(read_response(&mut stream).0, 200);
    assert_peer_closes(&mut stream, Duration::from_secs(5));
    assert!(
        server
            .app()
            .metrics_snapshot()
            .counter("serve.timeouts.idle")
            >= 1
    );

    server.shutdown();
    server.join();
}

#[test]
fn slow_loris_partial_requests_are_cut() {
    let server = common::start(ServeConfig {
        read_timeout_ms: 100,
        ..common::ephemeral_config()
    });
    let mut stream = connect(server.local_addr());

    // A head that never completes: the read timeout, not the (longer)
    // idle timeout, must cut it off.
    stream.write_all(b"GET /heal").expect("write partial");
    stream.flush().expect("flush");
    assert_peer_closes(&mut stream, Duration::from_secs(5));
    assert!(
        server
            .app()
            .metrics_snapshot()
            .counter("serve.timeouts.read")
            >= 1
    );

    server.shutdown();
    server.join();
}

#[test]
fn batch_answers_over_a_socket() {
    let server = common::start(common::ephemeral_config());
    let mut stream = connect(server.local_addr());

    send(
        &mut stream,
        "POST",
        "/batch?benchmark=diffeq",
        br#"[{"cs":4},{"cs":6},{"cs":1}]"#,
    );
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 200, "{body}");
    // Item order is request order; the infeasible cs=1 item fails
    // alone without failing the batch.
    let cs4 = body.find("@T4").expect("cs=4 item");
    let cs6 = body.find("@T6").expect("cs=6 item");
    let err = body.find("\"error\"").expect("infeasible item");
    assert!(cs4 < cs6 && cs6 < err, "{body}");

    // The batch's connection stays reusable, and its items warmed the
    // cache for single-job requests.
    send(&mut stream, "POST", "/schedule", DIFFEQ_JOB);
    assert_eq!(read_response(&mut stream).0, 200);
    let m = server.app().metrics_snapshot();
    assert_eq!(m.counter("serve.batch.requests"), 1);
    assert_eq!(m.counter("serve.jobs.warm"), 1);

    server.shutdown();
    server.join();
}

#[test]
fn shutdown_answers_pipelined_requests_in_flight() {
    let server = common::start(ServeConfig {
        workers: 1,
        ..common::ephemeral_config()
    });
    let mut stream = connect(server.local_addr());

    // A slow compute with a cheap probe pipelined behind it, then
    // shutdown while both are in flight.
    let pin_body = common::pin_job(1500);
    let mut burst = Vec::new();
    burst.extend_from_slice(
        format!(
            "POST /schedule HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            pin_body.len()
        )
        .as_bytes(),
    );
    burst.extend_from_slice(&pin_body);
    burst.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n");
    stream.write_all(&burst).expect("write burst");
    common::await_counter(&server, "serve.worker.started", 1);

    server.shutdown();

    // Drain answers both admitted requests, in order.
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("csteps"), "{body}");
    let (status, body) = read_response(&mut stream);
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    server.join();
}

/// A scratch cache directory unique to this test binary run.
fn cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mfhls-serve-disk-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The on-disk entry files under `dir` (any format version).
fn entries(dir: &PathBuf) -> Vec<PathBuf> {
    let mut found = Vec::new();
    for sub in std::fs::read_dir(dir).expect("cache dir") {
        let sub = sub.expect("dir entry").path();
        if sub.is_dir() {
            for f in std::fs::read_dir(&sub).expect("version dir") {
                let f = f.expect("file entry").path();
                if f.extension().is_some_and(|e| e == "pm") {
                    found.push(f);
                }
            }
        }
    }
    found
}

#[test]
fn restart_serves_from_the_disk_tier() {
    let dir = cache_dir("restart");
    let config = || ServeConfig {
        cache_dir: Some(dir.clone()),
        ..common::ephemeral_config()
    };

    let first = {
        let server = common::start(config());
        let (status, body) = common::post(server.local_addr(), "/schedule", DIFFEQ_JOB);
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            server
                .app()
                .metrics_snapshot()
                .counter("serve.cache.disk.writes"),
            1
        );
        server.shutdown();
        server.join();
        body
    };

    // A fresh daemon, empty memory tier: the answer comes off disk,
    // byte-identical, without recomputing.
    let server = common::start(config());
    let (status, body) = common::post(server.local_addr(), "/schedule", DIFFEQ_JOB);
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, first, "disk-tier answer must be byte-identical");
    let m = server.app().metrics_snapshot();
    assert_eq!(m.counter("serve.cache.disk.hits"), 1);
    assert_eq!(m.counter("serve.jobs.cold"), 0);

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_disk_entries_recompute_once() {
    let dir = cache_dir("truncated");
    let config = || ServeConfig {
        cache_dir: Some(dir.clone()),
        ..common::ephemeral_config()
    };

    let first = {
        let server = common::start(config());
        let (status, body) = common::post(server.local_addr(), "/schedule", DIFFEQ_JOB);
        assert_eq!(status, 200, "{body}");
        server.shutdown();
        server.join();
        body
    };

    // Tear the entry the way a crashed write never could: in place.
    let files = entries(&dir);
    assert_eq!(files.len(), 1, "{files:?}");
    let full = std::fs::read(&files[0]).expect("entry");
    std::fs::write(&files[0], &full[..full.len() / 2]).expect("truncate");

    let server = common::start(config());
    let addr = server.local_addr();
    let (status, body) = common::post(addr, "/schedule", DIFFEQ_JOB);
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, first, "recomputed answer must match the original");
    let m = server.app().metrics_snapshot();
    assert_eq!(m.counter("serve.cache.disk.corrupt"), 1);
    assert_eq!(m.counter("serve.jobs.cold"), 1, "exactly one recompute");

    // The recompute repaired the entry: the same daemon answers warm,
    // and the file is whole again for the next restart.
    let (status, second) = common::post(addr, "/schedule", DIFFEQ_JOB);
    assert_eq!(status, 200);
    assert_eq!(second, first);
    assert_eq!(
        server.app().metrics_snapshot().counter("serve.jobs.warm"),
        1
    );
    assert_eq!(std::fs::read(&files[0]).expect("repaired entry"), full);

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
