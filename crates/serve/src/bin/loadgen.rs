//! `loadgen` — load generator and correctness checker for `ccdpd`.
//!
//! ```text
//! cargo run -p ccdp-serve --release --bin loadgen -- --addr 127.0.0.1:7077
//! cargo run -p ccdp-serve --release --bin loadgen -- --quick
//! ```
//!
//! Drives five traffic profiles against a running server and *verifies*
//! the service contract while measuring it:
//!
//! * `ramp`  — stepped concurrency over distinct programs
//! * `spike` — one simultaneous burst of distinct programs
//! * `soak`  — sustained closed-loop mixed traffic
//! * `storm` — a duplicate storm: many clients, one program (single-flight
//!   cache must collapse it; responses must be byte-identical)
//! * `overload` — a burst sized past the server's queue bound (admission
//!   control must shed with structured `429 queue_full`)
//!
//! Every profile asserts zero lost (no response), duplicated (bytes past
//! the declared response), or corrupted (unparseable / wrong-shape)
//! responses. The results print as one compact JSON line on stdout; their
//! QPS, latencies, shed counts and hit rates depend on host timing, so they
//! are not part of the deterministic `BENCH_ccdp.json` record (perfbench's
//! serve workloads measure service time).
//!
//! Flags: `--addr A`, `--quick`, `--profile NAME` (repeatable filter),
//! `--burst N` (overload concurrency).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ccdp_bench::flag_value;
use ccdp_json::{Json, ToJson};
use ccdp_serve::api::sample_program;

// ---------------------------------------------------------------- client

struct Response {
    status: u16,
    body: String,
    raw: Vec<u8>,
    /// Bytes received beyond the declared response — a duplicated or
    /// corrupted reply.
    excess: usize,
}

fn http_exchange(addr: &str, request: &[u8]) -> Result<Response, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(60))).ok();
    stream.set_nodelay(true).ok();
    stream.write_all(request).map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| format!("read: {e}"))?;
    parse_response(raw)
}

fn post_job(addr: &str, body: &str) -> Result<Response, String> {
    let req = format!(
        "POST /jobs HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    http_exchange(addr, req.as_bytes())
}

fn get(addr: &str, path: &str) -> Result<Response, String> {
    http_exchange(addr, format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes())
}

fn parse_response(raw: Vec<u8>) -> Result<Response, String> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("no header terminator in response")?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| "non-utf8 head")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let content_length: usize = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .ok_or("response has no Content-Length")?;
    let body_start = head_end + 4;
    if raw.len() < body_start + content_length {
        return Err(format!(
            "truncated body: got {} of {content_length} bytes",
            raw.len() - body_start
        ));
    }
    let excess = raw.len() - body_start - content_length;
    let body = std::str::from_utf8(&raw[body_start..body_start + content_length])
        .map_err(|_| "non-utf8 body")?
        .to_string();
    Ok(Response { status, body, raw, excess })
}

// ------------------------------------------------------------- verifying

#[derive(Default)]
struct Tally {
    latencies_ms: Vec<f64>,
    ok: u64,
    shed: u64,
    rejected: u64,
    lost: u64,
    duplicated: u64,
    corrupted: u64,
}

impl Tally {
    /// Verify one exchange and fold it in. The body must be the service's
    /// JSON envelope: `status` of `ok`/`error`, errors carrying a `code`.
    fn record(&mut self, result: Result<Response, String>, elapsed: Duration, what: &str) {
        let r = match result {
            Ok(r) => r,
            Err(e) => {
                eprintln!("loadgen: LOST ({what}): {e}");
                self.lost += 1;
                return;
            }
        };
        self.latencies_ms.push(elapsed.as_secs_f64() * 1e3);
        if r.excess > 0 {
            eprintln!("loadgen: DUPLICATED ({what}): {} excess bytes", r.excess);
            self.duplicated += 1;
            return;
        }
        let doc = match ccdp_json::parse(&r.body) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("loadgen: CORRUPTED ({what}): {e}");
                self.corrupted += 1;
                return;
            }
        };
        match doc.get("status").and_then(Json::as_str) {
            Some("ok") if r.status == 200 => self.ok += 1,
            Some("error") if doc.get("code").and_then(Json::as_str).is_some() => {
                if doc.get("code").and_then(Json::as_str) == Some("queue_full") {
                    self.shed += 1;
                } else {
                    self.rejected += 1;
                }
            }
            _ => {
                eprintln!("loadgen: CORRUPTED ({what}): bad envelope {}", r.body);
                self.corrupted += 1;
            }
        }
    }

    fn merge(&mut self, other: Tally) {
        self.latencies_ms.extend(other.latencies_ms);
        self.ok += other.ok;
        self.shed += other.shed;
        self.rejected += other.rejected;
        self.lost += other.lost;
        self.duplicated += other.duplicated;
        self.corrupted += other.corrupted;
    }

    fn requests(&self) -> u64 {
        self.lost + self.latencies_ms.len() as u64
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

struct ProfileResult {
    name: &'static str,
    tally: Tally,
    wall: Duration,
    /// Extra profile-specific fields for the report section.
    extra: Vec<(&'static str, Json)>,
}

impl ProfileResult {
    fn to_json(&self) -> Json {
        let mut sorted = self.tally.latencies_ms.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let qps = if self.wall.as_secs_f64() > 0.0 {
            self.tally.requests() as f64 / self.wall.as_secs_f64()
        } else {
            0.0
        };
        let mut fields = vec![
            ("name".to_string(), self.name.to_json()),
            ("requests".to_string(), self.tally.requests().to_json()),
            ("ok".to_string(), self.tally.ok.to_json()),
            ("shed".to_string(), self.tally.shed.to_json()),
            ("rejected".to_string(), self.tally.rejected.to_json()),
            ("lost".to_string(), self.tally.lost.to_json()),
            ("duplicated".to_string(), self.tally.duplicated.to_json()),
            ("corrupted".to_string(), self.tally.corrupted.to_json()),
            ("wall_seconds".to_string(), self.wall.as_secs_f64().to_json()),
            ("qps".to_string(), qps.to_json()),
            ("p50_ms".to_string(), percentile(&sorted, 0.50).to_json()),
            ("p99_ms".to_string(), percentile(&sorted, 0.99).to_json()),
        ];
        fields.extend(self.extra.iter().map(|(k, v)| (k.to_string(), v.clone())));
        Json::Obj(fields)
    }
}

/// Fan `jobs` out over `concurrency` client threads (closed loop per
/// thread), verifying every exchange.
fn run_wave(addr: &str, jobs: &[String], concurrency: usize, what: &str) -> (Tally, Duration) {
    let next = Mutex::new(0usize);
    let total = Mutex::new(Tally::default());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..concurrency.max(1) {
            scope.spawn(|| {
                let mut local = Tally::default();
                loop {
                    let i = {
                        let mut n = next.lock().unwrap();
                        let i = *n;
                        *n += 1;
                        i
                    };
                    let Some(body) = jobs.get(i) else { break };
                    let t0 = Instant::now();
                    let res = post_job(addr, body);
                    local.record(res, t0.elapsed(), what);
                }
                total.lock().unwrap().merge(local);
            });
        }
    });
    (total.into_inner().unwrap(), start.elapsed())
}

fn job_body(size: usize, reps: usize, n_pes: usize) -> String {
    Json::obj([
        ("program", sample_program(size, reps).to_json()),
        ("n_pes", n_pes.to_json()),
        ("schemes", Json::arr(["base", "ccdp"].map(|s| s.to_json()))),
    ])
    .to_string()
}

fn stats_snapshot(addr: &str) -> Json {
    get(addr, "/stats")
        .ok()
        .and_then(|r| ccdp_json::parse(&r.body).ok())
        .unwrap_or(Json::Null)
}

fn stat(doc: &Json, key: &str) -> u64 {
    doc.get(key).and_then(Json::as_u64).unwrap_or(0)
}

// -------------------------------------------------------------- profiles

fn profile_ramp(addr: &str, quick: bool) -> ProfileResult {
    let steps: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let per_step = if quick { 6 } else { 16 };
    let mut tally = Tally::default();
    let mut wall = Duration::ZERO;
    let mut step_qps = Vec::new();
    for (si, &c) in steps.iter().enumerate() {
        let jobs: Vec<String> =
            (0..per_step).map(|i| job_body(8 + (si * per_step + i) % 7, 1 + i % 2, 4)).collect();
        let (t, w) = run_wave(addr, &jobs, c, "ramp");
        step_qps.push(Json::obj([
            ("concurrency", c.to_json()),
            ("qps", (t.requests() as f64 / w.as_secs_f64().max(1e-9)).to_json()),
        ]));
        tally.merge(t);
        wall += w;
    }
    ProfileResult { name: "ramp", tally, wall, extra: vec![("steps", Json::arr(step_qps))] }
}

fn profile_spike(addr: &str, quick: bool) -> ProfileResult {
    let c = if quick { 8 } else { 16 };
    let jobs: Vec<String> = (0..c).map(|i| job_body(9 + i % 5, 1, 4)).collect();
    let (tally, wall) = run_wave(addr, &jobs, c, "spike");
    ProfileResult { name: "spike", tally, wall, extra: vec![] }
}

fn profile_soak(addr: &str, quick: bool) -> ProfileResult {
    let n = if quick { 40 } else { 240 };
    let workers = 4;
    // Mixed traffic: a rotating set of distinct programs with repeats, so
    // the soak exercises both computes and cache hits.
    let jobs: Vec<String> = (0..n).map(|i| job_body(8 + i % 6, 1 + i % 3, 2 + 2 * (i % 2))).collect();
    let (tally, wall) = run_wave(addr, &jobs, workers, "soak");
    ProfileResult { name: "soak", tally, wall, extra: vec![] }
}

fn profile_storm(addr: &str, quick: bool) -> ProfileResult {
    let (threads, per_thread) = if quick { (8, 4) } else { (16, 8) };
    let before = stats_snapshot(addr);
    let body = job_body(11, 2, 4);
    let jobs: Vec<String> = vec![body; threads * per_thread];
    let (tally, wall) = run_wave(addr, &jobs, threads, "storm");

    // Byte-identity across the storm: every response to the identical
    // submission must equal the first, headers included.
    let first = post_job(addr, &jobs[0]).map(|r| r.raw).unwrap_or_default();
    let mut identical = true;
    for _ in 0..3 {
        if post_job(addr, &jobs[0]).map(|r| r.raw).unwrap_or_default() != first {
            identical = false;
        }
    }
    let after = stats_snapshot(addr);
    let lookups = (stat(&after, "cache_hits") + stat(&after, "cache_joins")
        + stat(&after, "cache_misses"))
        .saturating_sub(stat(&before, "cache_hits") + stat(&before, "cache_joins")
            + stat(&before, "cache_misses"));
    let new_misses = stat(&after, "cache_misses").saturating_sub(stat(&before, "cache_misses"));
    let hit_rate = if lookups > 0 {
        (lookups - new_misses.min(lookups)) as f64 / lookups as f64
    } else {
        0.0
    };
    ProfileResult {
        name: "storm",
        tally,
        wall,
        extra: vec![
            ("cache_hit_rate", hit_rate.to_json()),
            ("byte_identical", identical.to_json()),
        ],
    }
}

fn profile_overload(addr: &str, quick: bool, burst: usize) -> ProfileResult {
    // Slow-ish distinct jobs at a concurrency past the server's queue
    // bound: admission control must shed some with structured 429s.
    let n = if quick { burst } else { burst * 2 };
    let jobs: Vec<String> = (0..n).map(|i| job_body(24 + i % 4, 6, 8)).collect();
    let before = stats_snapshot(addr);
    let (tally, wall) = run_wave(addr, &jobs, burst, "overload");
    let after = stats_snapshot(addr);
    let max_depth_bound = stat(&after, "queue_cap");
    let shed_delta = stat(&after, "shed").saturating_sub(stat(&before, "shed"));
    ProfileResult {
        name: "overload",
        tally,
        wall,
        extra: vec![
            ("burst", burst.to_json()),
            ("server_shed", shed_delta.to_json()),
            ("queue_cap", max_depth_bound.to_json()),
        ],
    }
}

// ------------------------------------------------------------------ main

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let addr = flag_value(&args, "--addr").unwrap_or_else(|| "127.0.0.1:7077".to_string());
    let quick = args.iter().any(|a| a == "--quick");
    let burst: usize =
        flag_value(&args, "--burst").and_then(|v| v.parse().ok()).unwrap_or(48);
    let only: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--profile")
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect();
    let want = |name: &str| only.is_empty() || only.iter().any(|o| o == name);

    // Wait for the server.
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        match get(&addr, "/healthz") {
            Ok(r) if r.status == 200 => break,
            _ if Instant::now() > deadline => {
                eprintln!("loadgen: no healthy server at {addr}");
                std::process::exit(2);
            }
            _ => std::thread::sleep(Duration::from_millis(100)),
        }
    }

    let mut results = Vec::new();
    if want("ramp") {
        results.push(profile_ramp(&addr, quick));
    }
    if want("spike") {
        results.push(profile_spike(&addr, quick));
    }
    if want("soak") {
        results.push(profile_soak(&addr, quick));
    }
    if want("storm") {
        results.push(profile_storm(&addr, quick));
    }
    if want("overload") {
        results.push(profile_overload(&addr, quick, burst));
    }

    // The human-readable QPS table.
    eprintln!();
    eprintln!(
        "{:<10} {:>8} {:>6} {:>6} {:>6} {:>9} {:>9} {:>9}",
        "profile", "requests", "ok", "shed", "rej", "qps", "p50 ms", "p99 ms"
    );
    for r in &results {
        let j = r.to_json();
        eprintln!(
            "{:<10} {:>8} {:>6} {:>6} {:>6} {:>9.1} {:>9.1} {:>9.1}",
            r.name,
            stat(&j, "requests"),
            stat(&j, "ok"),
            stat(&j, "shed"),
            stat(&j, "rejected"),
            j.get("qps").and_then(Json::as_f64).unwrap_or(0.0),
            j.get("p50_ms").and_then(Json::as_f64).unwrap_or(0.0),
            j.get("p99_ms").and_then(Json::as_f64).unwrap_or(0.0),
        );
    }

    // The hard assertions from the service contract.
    let mut failures = Vec::new();
    let (mut lost, mut duplicated, mut corrupted) = (0u64, 0u64, 0u64);
    for r in &results {
        lost += r.tally.lost;
        duplicated += r.tally.duplicated;
        corrupted += r.tally.corrupted;
    }
    if lost + duplicated + corrupted > 0 {
        failures.push(format!(
            "response integrity violated: {lost} lost, {duplicated} duplicated, \
             {corrupted} corrupted"
        ));
    }
    if let Some(storm) = results.iter().find(|r| r.name == "storm") {
        let j = storm.to_json();
        let rate = j.get("cache_hit_rate").and_then(Json::as_f64).unwrap_or(0.0);
        if rate < 0.90 {
            failures.push(format!("duplicate-storm cache hit rate {rate:.3} < 0.90"));
        }
        if j.get("byte_identical") != Some(&Json::Bool(true)) {
            failures.push("duplicate-storm responses not byte-identical".to_string());
        }
    }
    if let Some(ov) = results.iter().find(|r| r.name == "overload") {
        if ov.tally.shed == 0 {
            failures.push(
                "overload produced no shed responses — raise --burst or lower the server's \
                 --queue-cap"
                    .to_string(),
            );
        }
    }

    let final_stats = stats_snapshot(&addr);
    let section = Json::obj([
        ("addr", addr.to_json()),
        ("quick", quick.to_json()),
        ("profiles", Json::arr(results.iter().map(|r| r.to_json()))),
        ("lost", lost.to_json()),
        ("duplicated", duplicated.to_json()),
        ("corrupted", corrupted.to_json()),
        ("server_stats", final_stats),
        ("passed", failures.is_empty().to_json()),
    ]);
    println!("{}", section.to_string());

    for f in &failures {
        eprintln!("loadgen: FAIL — {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
    eprintln!("loadgen: all service contract checks passed");
}
