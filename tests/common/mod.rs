//! Shared helpers for the `serve` integration tests: a minimal
//! blocking HTTP/1.1 client over `TcpStream` and an ephemeral-port
//! server launcher. Each test crate compiles its own copy, so not
//! every helper is used everywhere.
#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use moveframe_hls::prelude::*;

/// A [`ServeConfig`] bound to an ephemeral port so parallel test
/// binaries never collide.
pub fn ephemeral_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    }
}

/// Starts a daemon with no access log.
pub fn start(config: ServeConfig) -> Server {
    Server::start(config, Box::new(NullSink)).expect("server starts")
}

/// Polls the daemon's metrics until counter `name` reaches `at_least`,
/// failing the test after a generous deadline.
pub fn await_counter(server: &Server, name: &str, at_least: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.app().metrics_snapshot().counter(name) < at_least {
        assert!(Instant::now() < deadline, "{name} never reached {at_least}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Sends one HTTP/1.1 request and returns `(status, body)`.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body).expect("write body");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8_lossy(&raw).into_owned();
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {text:?}"));
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

pub fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    request(addr, "GET", path, b"")
}

pub fn post(addr: SocketAddr, path: &str, body: &[u8]) -> (u16, String) {
    request(addr, "POST", path, body)
}

/// A single `/schedule` job heavy enough to pin one worker for most of
/// a second in debug builds: the canonical `gen:` scaling workload,
/// inlined as DFG text. Under the reactor only *compute* occupies a
/// worker — a mute connection pins nothing — so tests that need a busy
/// pool send this.
pub fn pin_job(ops: usize) -> Vec<u8> {
    use moveframe_hls::benchmarks::generate::{generate, scaling_workload};
    let dfg = generate(&scaling_workload(ops));
    let text = dfg.to_text().expect("generated DFG renders to text");
    let mut body = String::from("{\"dfg\":\"");
    for c in text.chars() {
        match c {
            '"' => body.push_str("\\\""),
            '\\' => body.push_str("\\\\"),
            '\n' => body.push_str("\\n"),
            c => body.push(c),
        }
    }
    body.push_str("\",\"alg\":\"mfsa\",\"cs\":40}");
    body.into_bytes()
}
