//! End-to-end service tests: spawn the real `ccdpd` binary (supervisor +
//! worker processes), talk real HTTP to it, and exercise the hard
//! lifecycle guarantees — graceful drain on SIGTERM, byte-identical
//! replay after `kill -9` of the supervisor, and worker crashes that
//! never surface to clients.
#![cfg(unix)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use ccdp_json::Json;
use ccdp_serve::api::sample_program;
use ccdp_serve::client::{self, parse_response, Daemon};

fn spawn_ccdpd(extra: &[&str]) -> Daemon {
    let args = [&["--addr", "127.0.0.1:0", "--workers", "2"], extra].concat();
    Daemon::spawn(Path::new(env!("CARGO_BIN_EXE_ccdpd")), &args, Stdio::inherit())
        .expect("spawn ccdpd")
}

/// One raw HTTP exchange; returns the complete response bytes.
fn exchange(addr: &str, request: &[u8]) -> Vec<u8> {
    client::exchange(addr, request).expect("exchange")
}

fn post_job(addr: &str, body: &str) -> Vec<u8> {
    client::post_job(addr, body).expect("post job")
}

fn body_of(response: &[u8]) -> Json {
    ccdp_json::parse(&parse_response(response).expect("parseable response").body)
        .expect("json body")
}

fn job_json(size: usize, reps: usize) -> String {
    Json::obj([
        ("program", Json::Str(sample_program(size, reps))),
        ("n_pes", Json::UInt(2)),
        ("schemes", Json::arr([Json::Str("base".into()), Json::Str("ccdp".into())])),
    ])
    .to_string()
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ccdpd-e2e-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn sigterm_drains_and_exits_zero() {
    let mut d = spawn_ccdpd(&[]);
    // A served job, then drain: the supervisor must shut its worker
    // processes down and exit 0 — no leaked children, no panic exits.
    let resp = post_job(&d.addr, &job_json(10, 1));
    let body = body_of(&resp);
    assert_eq!(body.get("status").and_then(Json::as_str), Some("ok"), "{body:?}");
    assert_eq!(d.worker_pids().len(), 2, "both worker banners seen");
    assert!(d.signal("-TERM"));
    let status = d.wait_exit(Duration::from_secs(30));
    assert_eq!(status, Some(0), "drain must exit 0, got {status:?}");
}

#[test]
fn health_endpoints_are_structured() {
    let mut d = spawn_ccdpd(&[]);
    // Liveness: always 200 while the acceptor runs.
    let resp = exchange(&d.addr, b"GET /healthz HTTP/1.1\r\n\r\n");
    assert!(resp.starts_with(b"HTTP/1.1 200"), "{:?}", String::from_utf8_lossy(&resp));
    let body = body_of(&resp);
    assert_eq!(body.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(body.get("role").and_then(Json::as_str), Some("supervisor"));
    // Readiness: full fleet, empty queue — ready, with the evidence.
    let resp = exchange(&d.addr, b"GET /readyz HTTP/1.1\r\n\r\n");
    assert!(resp.starts_with(b"HTTP/1.1 200"), "{:?}", String::from_utf8_lossy(&resp));
    let body = body_of(&resp);
    assert_eq!(body.get("status").and_then(Json::as_str), Some("ready"));
    assert_eq!(body.get("workers_alive").and_then(Json::as_u64), Some(2));
    assert_eq!(body.get("workers_total").and_then(Json::as_u64), Some(2));
    assert!(body.get("queue_cap").and_then(Json::as_u64).unwrap() > 0);
    assert_eq!(body.get("reasons").map(|r| r.items().len()), Some(0));
    assert!(d.signal("-TERM"));
    assert_eq!(d.wait_exit(Duration::from_secs(30)), Some(0));
}

#[test]
fn malformed_and_unknown_requests_get_structured_errors() {
    let mut d = spawn_ccdpd(&[]);
    // Unknown route.
    let resp = exchange(&d.addr, b"GET /nope HTTP/1.1\r\n\r\n");
    assert!(resp.starts_with(b"HTTP/1.1 404"), "{:?}", String::from_utf8_lossy(&resp));
    assert_eq!(body_of(&resp).get("code").and_then(Json::as_str), Some("not_found"));
    // Parse-level garbage.
    let resp = exchange(&d.addr, b"POST /jobs HTTP/1.1\r\n\r\n");
    assert!(resp.starts_with(b"HTTP/1.1 411"));
    // Valid HTTP, invalid job.
    let resp = exchange(
        &d.addr,
        b"POST /jobs HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
    );
    assert!(resp.starts_with(b"HTTP/1.1 400"), "{:?}", String::from_utf8_lossy(&resp));
    assert_eq!(body_of(&resp).get("code").and_then(Json::as_str), Some("bad_request"));
    // Invalid IR program: structured, cacheable job-level failure.
    let bad = Json::obj([("program", Json::Str("program x\n  garbage\n".into()))]).to_string();
    let resp = post_job(&d.addr, &bad);
    assert_eq!(body_of(&resp).get("code").and_then(Json::as_str), Some("invalid_program"));
    assert!(d.signal("-TERM"));
    assert_eq!(d.wait_exit(Duration::from_secs(30)), Some(0));
}

#[test]
fn slow_client_gets_structured_408() {
    // Hold a connection open with a partial request head and stop sending:
    // the per-connection read deadline must answer with a structured 408
    // instead of pinning a handler thread forever.
    let mut d = spawn_ccdpd(&["--read-deadline-ms", "300"]);
    let mut s = TcpStream::connect(&d.addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"POST /jobs HTTP/1.1\r\nContent-Le").expect("partial head");
    let t0 = Instant::now();
    let mut resp = Vec::new();
    s.read_to_end(&mut resp).expect("read 408");
    assert!(resp.starts_with(b"HTTP/1.1 408"), "{:?}", String::from_utf8_lossy(&resp));
    let body = body_of(&resp);
    assert_eq!(body.get("code").and_then(Json::as_str), Some("request_timeout"));
    assert!(body.get("deadline_ms").and_then(Json::as_u64).unwrap() >= 300);
    assert!(t0.elapsed() < Duration::from_secs(8), "deadline, not the socket timeout, fired");
    assert!(d.signal("-TERM"));
    assert_eq!(d.wait_exit(Duration::from_secs(30)), Some(0));
}

#[test]
fn duplicate_submissions_are_byte_identical() {
    let mut d = spawn_ccdpd(&[]);
    let job = job_json(9, 2);
    let first = post_job(&d.addr, &job);
    for _ in 0..3 {
        assert_eq!(post_job(&d.addr, &job), first, "cache hits must be byte-identical");
    }
    assert!(d.signal("-TERM"));
    assert_eq!(d.wait_exit(Duration::from_secs(30)), Some(0));
}

#[test]
fn cache_hits_are_not_paced_by_the_acceptor() {
    // The acceptor wakes on socket readiness: a hit on a fresh connection
    // costs HTTP and a cache lookup, not a timer tick. An acceptor that
    // sleeps 2 ms between empty accepts needs at least 1 s for 500
    // sequential hits.
    let mut d = spawn_ccdpd(&[]);
    let job = job_json(9, 2);
    let first = post_job(&d.addr, &job);
    assert_eq!(body_of(&first).get("status").and_then(Json::as_str), Some("ok"));
    let t0 = Instant::now();
    for i in 0..500 {
        assert_eq!(post_job(&d.addr, &job), first, "hit {i} must be byte-identical");
    }
    let took = t0.elapsed();
    assert!(took < Duration::from_millis(500), "500 cache hits took {took:?}");
    let stats = body_of(&exchange(&d.addr, b"GET /stats HTTP/1.1\r\n\r\n"));
    assert!(stats.get("accepted").and_then(Json::as_u64).unwrap() >= 501, "{stats:?}");
    assert_eq!(stats.get("accept_errors").and_then(Json::as_u64), Some(0), "{stats:?}");
    assert!(d.signal("-TERM"));
    assert_eq!(d.wait_exit(Duration::from_secs(30)), Some(0));
}

#[test]
fn worker_kill_dash_nine_never_loses_the_response() {
    // Baseline: the canonical bytes for this job from an undisturbed run.
    let baseline = {
        let mut d = spawn_ccdpd(&["--workers", "1"]);
        let resp = post_job(&d.addr, &job_json(20, 6));
        assert!(d.signal("-TERM"));
        assert_eq!(d.wait_exit(Duration::from_secs(60)), Some(0));
        resp
    };
    assert_eq!(body_of(&baseline).get("status").and_then(Json::as_str), Some("ok"));

    // Chaos: same job on a fresh single-worker daemon, SIGKILL the worker
    // while the job is (very likely) mid-compute. The supervisor must
    // redispatch from the journal of in-flight work and the client still
    // gets the byte-identical response on the same connection.
    let mut d = spawn_ccdpd(&["--workers", "1"]);
    let addr = d.addr.clone();
    let job = job_json(20, 6);
    let resp = std::thread::scope(|scope| {
        let handle = scope.spawn(|| post_job(&addr, &job));
        std::thread::sleep(Duration::from_millis(80));
        for (_, pid) in d.worker_pids() {
            let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
        }
        handle.join().expect("client thread")
    });
    assert_eq!(resp, baseline, "response after worker kill must be byte-identical");

    // The supervisor noticed: the worker restarts (new pid on the slot),
    // and /readyz returns to full strength.
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let stats = body_of(&exchange(&d.addr, b"GET /stats HTTP/1.1\r\n\r\n"));
        if stats.get("restarts").and_then(Json::as_u64).unwrap_or(0) >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "supervisor never recorded the restart");
        std::thread::sleep(Duration::from_millis(50));
    }
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let ready = exchange(&d.addr, b"GET /readyz HTTP/1.1\r\n\r\n");
        if ready.starts_with(b"HTTP/1.1 200") {
            break;
        }
        assert!(Instant::now() < deadline, "fleet never recovered to ready");
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(d.signal("-TERM"));
    assert_eq!(d.wait_exit(Duration::from_secs(60)), Some(0));
}

#[test]
fn kill_dash_nine_then_resume_replays_byte_identical() {
    let dir = tmp_dir("resume");
    let jflag = dir.to_str().unwrap().to_string();
    let job_a = job_json(11, 1);
    let job_b = job_json(13, 2);

    let (resp_a, resp_b, fp_a, fp_b);
    {
        let d = spawn_ccdpd(&["--journal-dir", &jflag, "--resume"]);
        resp_a = post_job(&d.addr, &job_a);
        resp_b = post_job(&d.addr, &job_b);
        fp_a = body_of(&resp_a).get("fingerprint").unwrap().as_str().unwrap().to_string();
        fp_b = body_of(&resp_b).get("fingerprint").unwrap().as_str().unwrap().to_string();
        // Hard kill: no drain, no atexit, the journal must already be
        // durable. The orphaned workers exit on their own via stdin EOF.
        assert!(d.signal("-KILL"));
        // Drop reaps the corpse.
    }

    let mut d = spawn_ccdpd(&["--journal-dir", &jflag, "--resume"]);
    // Replayed results are served byte-identically from the journal…
    for (fp, want) in [(&fp_a, &resp_a), (&fp_b, &resp_b)] {
        let got = exchange(&d.addr, format!("GET /result/{fp} HTTP/1.1\r\n\r\n").as_bytes());
        assert_eq!(&got, want, "replayed response for {fp} must be byte-identical");
    }
    // …and a re-submission of the same job is also byte-identical.
    assert_eq!(post_job(&d.addr, &job_a), resp_a);
    assert!(d.signal("-TERM"));
    assert_eq!(d.wait_exit(Duration::from_secs(30)), Some(0));
}

#[test]
fn overload_sheds_with_structured_queue_full() {
    // Tiny queue and one worker: concurrent slow-ish jobs must overflow
    // admission control, and every shed is a parseable 429 envelope.
    let mut d = spawn_ccdpd(&["--workers", "1", "--queue-cap", "1"]);
    let addr = d.addr.clone();
    let results: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let addr = &addr;
                scope.spawn(move || post_job(addr, &job_json(20 + i % 2, 6)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut shed = 0;
    for resp in &results {
        let body = body_of(resp); // every response parses — nothing dropped
        match body.get("status").and_then(Json::as_str) {
            Some("ok") => {}
            Some("error") => {
                if body.get("code").and_then(Json::as_str) == Some("queue_full") {
                    assert!(resp.starts_with(b"HTTP/1.1 429"));
                    assert!(body.get("queue_depth").is_some());
                    shed += 1;
                }
            }
            other => panic!("unstructured response: {other:?}"),
        }
    }
    assert!(shed > 0, "expected at least one structured shed among {} responses", results.len());
    assert!(d.signal("-TERM"));
    assert_eq!(d.wait_exit(Duration::from_secs(60)), Some(0));
}
