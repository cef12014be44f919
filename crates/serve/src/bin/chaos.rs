//! `chaos` — crash-recovery soak tester for the supervised ccdpd.
//!
//! ```text
//! cargo run -p ccdp-serve --release --bin chaos -- --quick
//! cargo run -p ccdp-serve --release --bin chaos -- --seed 7 --workers 3
//! ```
//!
//! The harness owns the daemon: it runs an unkilled **baseline** pass to
//! record the canonical response bytes for a seeded job set (synthetic
//! `ccdp_core::synth` programs plus the loadgen sample kernels), then a
//! **chaos** pass over the same jobs while `kill -9`-ing random workers
//! mid-job at a configured cadence — and, unless disabled, SIGKILL-ing
//! the supervisor itself mid-soak and relaunching it with `--resume`.
//!
//! The assertions are the service's whole point:
//!
//! * **zero lost** — every job eventually gets a complete response
//!   (clients retry across supervisor restarts; a retry that never
//!   succeeds is a loss);
//! * **zero duplicated** — no response carries bytes past its declared
//!   length;
//! * **zero corrupted / mismatched** — every job's response is
//!   *byte-identical* to the unkilled baseline, headers included, no
//!   matter how many workers (or supervisors) died while computing it;
//! * the post-soak drain: SIGTERM exits 0.
//!
//! The results (restarts, redispatches, orphan replays, recovery-latency
//! p50/p99) print as one compact JSON line on stdout; they depend on host
//! timing, so they are not part of the deterministic `BENCH_ccdp.json`
//! record.
//!
//! Flags: `--quick`, `--seed S`, `--workers N`, `--kill-every-ms MS`,
//! `--no-supervisor-kill`, `--journal-dir DIR`, `--ccdpd PATH`.

use std::collections::HashMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ccdp_core::flags::{flag_or_exit, has_flag, or_exit};
use ccdp_core::synth::{random_program, SynthConfig};
use ccdp_ir::print_program;
use ccdp_json::{Json, ToJson};
use ccdp_serve::api::sample_program;
use ccdp_serve::client::{get, parse_response, post_job, stats, Daemon};

// ------------------------------------------------------------ the daemon

/// The status code of a raw response; 0 when it does not parse.
fn status_of(raw: &[u8]) -> u16 {
    parse_response(raw).map_or(0, |r| r.status)
}

/// Spawn ccdpd on an ephemeral port; exit 2 if it does not come up.
fn spawn_daemon(ccdpd: &Path, workers: usize, journal_dir: Option<&str>, resume: bool) -> Daemon {
    let workers = workers.to_string();
    let mut args = vec!["--addr", "127.0.0.1:0", "--workers", &workers, "--queue-cap", "64"];
    if let Some(dir) = journal_dir {
        args.extend(["--journal-dir", dir, "--compact-bytes", "65536"]);
        if resume {
            args.push("--resume");
        }
    }
    or_exit(Daemon::spawn(ccdpd, &args, Stdio::null()).map_err(|e| format!("chaos: {e}")))
}

/// Block until the daemon answers `/readyz` 200; panics on timeout.
fn await_ready(daemon: &Daemon, what: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    while get(&daemon.addr, "/readyz").map_or(true, |raw| status_of(&raw) != 200) {
        assert!(Instant::now() < deadline, "chaos: {what} never became ready");
        std::thread::sleep(Duration::from_millis(30));
    }
    daemon.addr.clone()
}

fn stat(doc: &Json, key: &str) -> u64 {
    doc.get(key).and_then(Json::as_u64).unwrap_or(0)
}

// ---------------------------------------------------------------- chaos

/// Tiny deterministic xorshift for kill scheduling and job shuffling —
/// the soak is seeded end to end.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0.wrapping_add(0x9e3779b97f4a7c15);
        self.0 = x;
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58476d1ce4e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// The seeded job set: synthetic programs plus sample kernels, each as a
/// POST body. Deadlines are generous — chaos must never depend on flaky
/// (uncacheable) outcomes, or baseline and chaos bytes could diverge.
fn job_set(seed: u64, quick: bool) -> Vec<String> {
    let n_synth = if quick { 6 } else { 14 };
    let n_sample = if quick { 4 } else { 10 };
    let cfg = SynthConfig { max_arrays: 3, max_epochs: 4, extent: 12 };
    let mut jobs = Vec::new();
    for i in 0..n_synth {
        let text = print_program(&random_program(seed.wrapping_add(i as u64), &cfg));
        jobs.push(
            Json::obj([
                ("program", text.to_json()),
                ("n_pes", 2usize.to_json()),
                ("schemes", Json::arr(["base", "ccdp"].map(|s| s.to_json()))),
                ("deadline_ms", 30_000u64.to_json()),
            ])
            .to_string(),
        );
    }
    // The sample kernels are sized to take real wall time (hundreds of ms
    // each) so worker kills land *mid-compute*, not between jobs.
    for i in 0..n_sample {
        jobs.push(
            Json::obj([
                ("program", sample_program(260 + 20 * (i % 5), 8 + i % 3).to_json()),
                ("n_pes", 2usize.to_json()),
                ("schemes", Json::arr(["base", "ccdp"].map(|s| s.to_json()))),
                ("deadline_ms", 30_000u64.to_json()),
            ])
            .to_string(),
        );
    }
    jobs
}

struct SharedAddr {
    addr: Mutex<String>,
}

/// Submit one job until a byte-complete response arrives, riding across
/// worker kills and supervisor restarts. Transport errors and structured
/// retryable statuses (429 shed, 503 no-workers, 500 worker-lost) back
/// off and retry; anything else is final.
fn submit_until_final(
    shared: &SharedAddr,
    body: &str,
    retries: &AtomicU64,
) -> Result<Vec<u8>, String> {
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut last_err = String::new();
    while Instant::now() < deadline {
        let addr = shared.addr.lock().unwrap().clone();
        match post_job(&addr, body) {
            Ok(raw) => {
                let status = status_of(&raw);
                if matches!(status, 429 | 503 | 500) {
                    retries.fetch_add(1, Ordering::Relaxed);
                    last_err = format!("retryable status {status}");
                    std::thread::sleep(Duration::from_millis(150));
                    continue;
                }
                return Ok(raw);
            }
            Err(e) => {
                // Supervisor down or connection reset mid-flight: retry
                // against whatever address the respawner publishes.
                retries.fetch_add(1, Ordering::Relaxed);
                last_err = e;
                std::thread::sleep(Duration::from_millis(150));
            }
        }
    }
    Err(format!("gave up after 120 s; last error: {last_err}"))
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = has_flag(&args, "--quick");
    let kill_supervisor = !has_flag(&args, "--no-supervisor-kill");
    let seed: u64 = flag_or_exit(&args, "--seed").unwrap_or(1997);
    let workers: usize = flag_or_exit(&args, "--workers").unwrap_or(2).max(1);
    let kill_every = Duration::from_millis(
        flag_or_exit(&args, "--kill-every-ms").unwrap_or(if quick { 250 } else { 400 }),
    );
    let journal_dir = flag_or_exit(&args, "--journal-dir")
        .unwrap_or_else(|| "results/chaos-journal".to_string());
    let ccdpd = flag_or_exit(&args, "--ccdpd").unwrap_or_else(|| {
        let mut p = std::env::current_exe().expect("current_exe");
        p.set_file_name("ccdpd");
        p
    });
    std::fs::remove_dir_all(&journal_dir).ok();

    let jobs = job_set(seed, quick);
    // Each distinct job is submitted multiple times (shuffled) so crashes
    // land on fresh computes, cache hits, and duplicates alike.
    let reps = if quick { 2 } else { 3 };
    let mut rng = Rng(seed);
    let mut order: Vec<usize> = (0..jobs.len() * reps).map(|i| i % jobs.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }

    // ---- Pass 1: unkilled baseline — the canonical bytes. -------------
    eprintln!("chaos: baseline pass ({} distinct jobs)…", jobs.len());
    let mut daemon = spawn_daemon(&ccdpd, workers, None, false);
    let addr = await_ready(&daemon, "baseline daemon");
    let mut baseline: Vec<Vec<u8>> = Vec::with_capacity(jobs.len());
    for (i, body) in jobs.iter().enumerate() {
        match post_job(&addr, body) {
            Ok(raw) => {
                let status = status_of(&raw);
                assert!(
                    status == 200 || status == 422 || status == 400,
                    "chaos: baseline job {i} got unexpected status {status}"
                );
                baseline.push(raw);
            }
            Err(e) => {
                eprintln!("chaos: baseline job {i} failed: {e}");
                std::process::exit(2);
            }
        }
    }
    daemon.signal("-TERM");
    assert_eq!(
        daemon.wait_exit(Duration::from_secs(20)),
        Some(0),
        "baseline daemon must drain and exit 0"
    );

    // ---- Pass 2: the kill storm. ---------------------------------------
    eprintln!(
        "chaos: chaos pass — seed {seed}, {workers} workers, worker kill every \
         {} ms, supervisor kill: {kill_supervisor}",
        kill_every.as_millis()
    );
    let daemon = spawn_daemon(&ccdpd, workers, Some(&journal_dir), false);
    let addr = await_ready(&daemon, "chaos daemon");
    let shared = Arc::new(SharedAddr { addr: Mutex::new(addr) });
    let daemon = Arc::new(Mutex::new(Some(daemon)));

    let stop_killing = Arc::new(AtomicBool::new(false));
    let kills = Arc::new(AtomicU64::new(0));
    let client_retries = Arc::new(AtomicU64::new(0));
    let recovery_ms = Arc::new(Mutex::new(Vec::<f64>::new()));

    // The killer: every tick, SIGKILL a random live worker, then measure
    // how long until /readyz reports a full-strength fleet again.
    let killer = {
        let stop = Arc::clone(&stop_killing);
        let kills = Arc::clone(&kills);
        let recovery = Arc::clone(&recovery_ms);
        let shared = Arc::clone(&shared);
        let daemon = Arc::clone(&daemon);
        let mut rng = Rng(seed.wrapping_mul(31));
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(kill_every);
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let pids = {
                    let guard = daemon.lock().unwrap();
                    match guard.as_ref() {
                        Some(d) => d.worker_pids(),
                        None => continue, // supervisor restart in progress
                    }
                };
                if pids.is_empty() {
                    continue;
                }
                let (slot, pid) = pids[rng.below(pids.len())];
                let _ = Command::new("kill").arg("-9").arg(pid.to_string()).status();
                kills.fetch_add(1, Ordering::Relaxed);
                eprintln!("chaos: killed worker {slot} (pid {pid})");
                let t0 = Instant::now();
                let deadline = t0 + Duration::from_secs(20);
                while Instant::now() < deadline && !stop.load(Ordering::SeqCst) {
                    let addr = shared.addr.lock().unwrap().clone();
                    if let Ok(raw) = get(&addr, "/readyz") {
                        if status_of(&raw) == 200 {
                            recovery.lock().unwrap().push(t0.elapsed().as_secs_f64() * 1e3);
                            break;
                        }
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        })
    };

    // The clients: drain the shuffled work queue, verifying byte-identity
    // against the baseline for every response.
    let n_clients = 4usize;
    let next = Arc::new(AtomicU64::new(0));
    let failures = Arc::new(Mutex::new(Vec::<String>::new()));
    let duplicated = Arc::new(AtomicU64::new(0));
    let completed = Arc::new(AtomicU64::new(0));
    let supervisor_kills = Arc::new(AtomicU64::new(0));
    let accumulated = Arc::new(Mutex::new(HashMap::<String, u64>::new()));

    // Supervisor-kill choreography: after roughly half the requests, the
    // main thread SIGKILLs the supervisor and relaunches with --resume.
    let half = (order.len() / 2) as u64;

    std::thread::scope(|scope| {
        for _ in 0..n_clients {
            let shared = Arc::clone(&shared);
            let next = Arc::clone(&next);
            let failures = Arc::clone(&failures);
            let duplicated = Arc::clone(&duplicated);
            let completed = Arc::clone(&completed);
            let retries = Arc::clone(&client_retries);
            let order = &order;
            let jobs = &jobs;
            let baseline = &baseline;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::SeqCst) as usize;
                let Some(&job_idx) = order.get(i) else { break };
                match submit_until_final(&shared, &jobs[job_idx], &retries) {
                    Ok(raw) => {
                        if parse_response(&raw).map_or(true, |r| r.excess > 0) {
                            duplicated.fetch_add(1, Ordering::Relaxed);
                            failures
                                .lock()
                                .unwrap()
                                .push(format!("job {job_idx}: excess bytes"));
                        } else if raw != baseline[job_idx] {
                            failures.lock().unwrap().push(format!(
                                "job {job_idx}: bytes differ from baseline ({} vs {} bytes)",
                                raw.len(),
                                baseline[job_idx].len()
                            ));
                        }
                        completed.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => {
                        failures.lock().unwrap().push(format!("job {job_idx}: LOST — {e}"));
                    }
                }
            });
        }

        // Main thread: the supervisor kill, once, mid-soak.
        if kill_supervisor {
            while completed.load(Ordering::Relaxed) < half.max(1) {
                std::thread::sleep(Duration::from_millis(50));
            }
            let old = daemon.lock().unwrap().take();
            if let Some(mut old) = old {
                // Fold this incarnation's counters in before killing it.
                let addr = shared.addr.lock().unwrap().clone();
                let snap = stats(&addr);
                {
                    let mut acc = accumulated.lock().unwrap();
                    for k in ["restarts", "redispatches", "orphan_replays", "breaker_trips"] {
                        *acc.entry(k.to_string()).or_insert(0) += stat(&snap, k);
                    }
                }
                eprintln!("chaos: SIGKILL supervisor (pid {})", old.pid());
                old.signal("-KILL");
                let _ = old.wait_exit(Duration::from_secs(20));
                supervisor_kills.fetch_add(1, Ordering::Relaxed);
                let t0 = Instant::now();
                let fresh = spawn_daemon(&ccdpd, workers, Some(&journal_dir), true);
                let new_addr = await_ready(&fresh, "resumed daemon");
                recovery_ms.lock().unwrap().push(t0.elapsed().as_secs_f64() * 1e3);
                *shared.addr.lock().unwrap() = new_addr;
                *daemon.lock().unwrap() = Some(fresh);
                eprintln!("chaos: supervisor resumed");
            }
        }
    });

    stop_killing.store(true, Ordering::SeqCst);
    let _ = killer.join();

    // Final incarnation counters + graceful drain.
    let addr = shared.addr.lock().unwrap().clone();
    let snap = stats(&addr);
    {
        let mut acc = accumulated.lock().unwrap();
        for k in ["restarts", "redispatches", "orphan_replays", "breaker_trips"] {
            *acc.entry(k.to_string()).or_insert(0) += stat(&snap, k);
        }
    }
    let final_daemon = daemon.lock().unwrap().take();
    let drain_ok = match final_daemon {
        Some(mut d) => {
            d.signal("-TERM");
            d.wait_exit(Duration::from_secs(20)) == Some(0)
        }
        None => false,
    };

    let failures = failures.lock().unwrap();
    let acc = accumulated.lock().unwrap();
    let mut recovery = recovery_ms.lock().unwrap().clone();
    recovery.sort_by(|a, b| a.total_cmp(b));
    let requests = order.len() as u64;
    let done = completed.load(Ordering::Relaxed);
    let lost = requests.saturating_sub(done);
    let mismatched = failures.iter().filter(|f| f.contains("bytes differ")).count() as u64;
    let dup = duplicated.load(Ordering::Relaxed);
    // A soak with zero kills exercised nothing — the crash-recovery claims
    // would pass vacuously. Require the storm to have actually landed.
    let stormed = kills.load(Ordering::Relaxed) > 0;
    if !stormed {
        eprintln!("chaos: FAIL — no worker kill landed; soak too short or killer stalled");
    }
    let passed = failures.is_empty() && drain_ok && lost == 0 && stormed;

    eprintln!();
    eprintln!(
        "chaos: {requests} requests over {} distinct jobs — {done} completed, {lost} lost, \
         {dup} duplicated, {mismatched} mismatched",
        jobs.len()
    );
    eprintln!(
        "chaos: {} worker kills, {} supervisor kills, restarts {}, redispatches {}, \
         orphan replays {}, client retries {}",
        kills.load(Ordering::Relaxed),
        supervisor_kills.load(Ordering::Relaxed),
        acc.get("restarts").copied().unwrap_or(0),
        acc.get("redispatches").copied().unwrap_or(0),
        acc.get("orphan_replays").copied().unwrap_or(0),
        client_retries.load(Ordering::Relaxed),
    );
    eprintln!(
        "chaos: recovery p50 {:.0} ms, p99 {:.0} ms over {} events; drain exit 0: {drain_ok}",
        percentile(&recovery, 0.50),
        percentile(&recovery, 0.99),
        recovery.len()
    );

    let section = Json::obj([
        ("seed", seed.to_json()),
        ("quick", quick.to_json()),
        ("workers", workers.to_json()),
        ("distinct_jobs", jobs.len().to_json()),
        ("requests", requests.to_json()),
        ("worker_kills", kills.load(Ordering::Relaxed).to_json()),
        ("supervisor_kills", supervisor_kills.load(Ordering::Relaxed).to_json()),
        ("restarts", acc.get("restarts").copied().unwrap_or(0).to_json()),
        ("redispatches", acc.get("redispatches").copied().unwrap_or(0).to_json()),
        ("orphan_replays", acc.get("orphan_replays").copied().unwrap_or(0).to_json()),
        ("breaker_trips", acc.get("breaker_trips").copied().unwrap_or(0).to_json()),
        ("client_retries", client_retries.load(Ordering::Relaxed).to_json()),
        ("recovery_p50_ms", percentile(&recovery, 0.50).to_json()),
        ("recovery_p99_ms", percentile(&recovery, 0.99).to_json()),
        ("recovery_events", recovery.len().to_json()),
        ("lost", lost.to_json()),
        ("duplicated", dup.to_json()),
        ("mismatched", mismatched.to_json()),
        ("byte_identical", (mismatched == 0).to_json()),
        ("drain_exit_zero", drain_ok.to_json()),
        ("passed", passed.to_json()),
    ]);
    println!("{}", section.to_string());

    for f in failures.iter().take(20) {
        eprintln!("chaos: FAIL — {f}");
    }
    if !passed {
        eprintln!("chaos: FAILED");
        std::process::exit(1);
    }
    eprintln!("chaos: all crash-recovery assertions passed");
}
