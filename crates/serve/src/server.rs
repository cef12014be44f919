//! The ccdpd supervisor: accept loop, admission control, single-flight
//! caching, journal replay, and the worker-process fleet.
//!
//! Life of a request:
//!
//! 1. The acceptor sleeps in `poll(2)` until the listener is readable
//!    (bounded, so the drain flag is still checked), then accepts the
//!    connection. If the bounded queue is full, the request is read and
//!    answered `429 {"code":"queue_full"}` right there — shedding is a
//!    structured response, never a dropped connection — and the queue
//!    depth never exceeds its bound.
//! 2. A handler thread pops the connection and reads the request under the
//!    slow-client deadline (every parse error is a structured 4xx, a
//!    dribbling client a structured 408), then dispatches: `/healthz`,
//!    `/readyz`, `/stats`, `/result/<fp>`, or `POST /jobs`.
//! 3. A job claims its fingerprint in the cache: a hit answers with the
//!    original response bytes; a join waits for the in-flight leader; the
//!    leader hands the job to the worker-process pool
//!    ([`crate::supervisor`]), which journals it to the target slot's
//!    journal, dispatches over the pipe, and re-dispatches on worker
//!    death. The returned bytes are journaled, published, and sent.
//! 4. SIGTERM/SIGINT flips a flag: the acceptor stops admitting, handlers
//!    drain the backlog, the pool shuts its workers down, and the process
//!    exits 0.
//!
//! The compute fleet lives in separate processes: a worker panic-abort,
//! `kill -9`, or OOM costs a re-dispatch, never the listener.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ccdp_core::Fingerprint;
use ccdp_json::{Json, ToJson};

use crate::api::{error_body, JobSpec, RetryPolicy};
use crate::cache::{Claim, PlanCache};
use crate::http;
use crate::journal;
use crate::queue::{Bounded, PushError};
use crate::signals;
use crate::supervisor::{Pool, PoolConfig, RestartPolicy, RunError};

/// Tuning knobs; `Default` is sized for a local instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (the chosen address is
    /// printed to stdout as `ccdpd listening on <addr>`).
    pub addr: String,
    /// Worker *processes* (the compute fleet).
    pub workers: usize,
    /// Connection-handler threads in the supervisor (I/O only — parsing,
    /// cache lookups, waiting on workers — so a small number serves many
    /// workers).
    pub threads: usize,
    /// Admission-control bound: connections queued beyond the handlers.
    pub queue_cap: usize,
    /// Largest accepted request body.
    pub max_body: usize,
    /// Deadline for jobs that do not set `deadline_ms` themselves.
    pub default_deadline_ms: u64,
    /// Slow-client guard: a connection must deliver its complete request
    /// within this budget or be answered `408 request_timeout`.
    pub read_deadline_ms: u64,
    pub cache_cap: usize,
    pub retry: RetryPolicy,
    /// Shared journal directory (one `worker-<slot>.jsonl` per worker);
    /// `None` disables journaling (still crash-safe for clients — they
    /// just see a dropped connection and re-submit).
    pub journal_dir: Option<PathBuf>,
    /// Resume from the existing journal directory instead of starting
    /// fresh.
    pub resume: bool,
    /// Per-slot journal compaction threshold (bytes); 0 disables.
    pub compact_bytes: u64,
    /// Worker respawn behaviour (backoff, storm breaker).
    pub restart: RestartPolicy,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7077".to_string(),
            workers: 2,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get().min(8)),
            queue_cap: 128,
            max_body: 1 << 20,
            default_deadline_ms: 10_000,
            read_deadline_ms: 5_000,
            cache_cap: 1024,
            retry: RetryPolicy::default(),
            journal_dir: None,
            resume: false,
            compact_bytes: journal::DEFAULT_COMPACT_BYTES,
            restart: RestartPolicy::default(),
        }
    }
}

/// Upper bound on one readiness wait of the acceptor: how long a SIGTERM
/// taken by another thread can go unnoticed before the drain starts.
const ACCEPT_WAIT: Duration = Duration::from_millis(100);

/// Pause after an accept error, so a persistent one cannot spin the
/// acceptor.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(20);

/// Service counters, readable lock-free from `/stats`.
#[derive(Default)]
pub struct Stats {
    pub accepted: AtomicU64,
    pub completed: AtomicU64,
    pub shed: AtomicU64,
    pub jobs_ok: AtomicU64,
    pub jobs_err: AtomicU64,
    pub retries: AtomicU64,
    pub http_errors: AtomicU64,
    /// `accept` failures other than `WouldBlock` (e.g. `EMFILE`).
    pub accept_errors: AtomicU64,
}

// --- Shutdown flag + signal handling -----------------------------------
//
// SIGTERM must trigger a *graceful* drain. The handler only stores to an
// AtomicBool, which is async-signal-safe.

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Programmatic trigger (tests; also wired to SIGTERM/SIGINT).
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

pub fn install_signal_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }
    let handler = on_signal as extern "C" fn(i32) as *const () as usize;
    signals::set_handler(signals::SIGTERM, handler);
    signals::set_handler(signals::SIGINT, handler);
}

/// The `/readyz` verdict, pure for unit tests: ready means "a job POSTed
/// right now would be computed", i.e. at least one live worker and
/// admission below the shed threshold. Liveness (`/healthz`) is separate:
/// a supervisor with zero workers is alive but not ready.
pub fn ready_decision(
    workers_alive: usize,
    queue_depth: usize,
    queue_cap: usize,
) -> (bool, Vec<&'static str>) {
    let mut reasons = Vec::new();
    if workers_alive == 0 {
        reasons.push("no_workers");
    }
    if queue_depth >= queue_cap {
        reasons.push("queue_full");
    }
    (reasons.is_empty(), reasons)
}

/// Shared server state handed to every handler thread.
struct Ctx {
    cfg: ServerConfig,
    cache: PlanCache,
    pool: Arc<Pool>,
    stats: Stats,
    queue: Bounded<TcpStream>,
}

/// Run the service until a shutdown signal, then drain and return. The
/// `Ok(())` return *is* the graceful-exit contract: every admitted
/// connection has been answered, every journal line fsynced, every worker
/// process reaped.
pub fn serve(cfg: ServerConfig) -> std::io::Result<()> {
    let workers = cfg.workers.max(1);
    let (journals, replay) = match &cfg.journal_dir {
        None => (Vec::new(), journal::Replay::default()),
        Some(dir) => {
            let (js, replay) = journal::open_dir(dir, workers, cfg.resume, cfg.compact_bytes)?;
            (js.into_iter().map(Arc::new).collect(), replay)
        }
    };

    let pool = Pool::start(
        PoolConfig {
            workers,
            restart: cfg.restart.clone(),
            retry: cfg.retry,
            ..PoolConfig::default()
        },
        journals,
    )?;

    let threads = cfg.threads.max(1);
    let ctx = Arc::new(Ctx {
        cache: PlanCache::new(cfg.cache_cap),
        pool,
        stats: Stats::default(),
        queue: Bounded::new(cfg.queue_cap),
        cfg,
    });

    // Replay before the listener opens: completed jobs preload the cache
    // with their original bytes; incomplete (orphaned) jobs re-run through
    // the pool so the crash left no work behind.
    if !replay.completed.is_empty() || !replay.incomplete.is_empty() {
        eprintln!(
            "ccdpd: journal replay — {} completed, {} incomplete",
            replay.completed.len(),
            replay.incomplete.len()
        );
    }
    for (fp, bytes) in replay.completed {
        ctx.cache.insert_done(&fp, bytes);
    }
    for (fp, spec) in replay.incomplete {
        match ctx.pool.run(&fp, &spec) {
            Ok(done) => {
                if done.cacheable {
                    ctx.cache.insert_done(&fp, done.response);
                }
                ctx.pool.stats.orphan_replays.fetch_add(1, Ordering::Relaxed);
                eprintln!("ccdpd: replayed orphaned job {fp}");
            }
            Err(e) => eprintln!("ccdpd: orphan replay of {fp} failed: {e:?}"),
        }
    }

    let listener = TcpListener::bind(&ctx.cfg.addr)?;
    listener.set_nonblocking(true)?;
    // The line supervising scripts (and the e2e tests) parse to learn the
    // actual port when binding :0.
    println!("ccdpd listening on {}", listener.local_addr()?);
    std::io::stdout().flush()?;

    let mut handles = Vec::with_capacity(threads);
    for _ in 0..threads {
        let ctx = Arc::clone(&ctx);
        handles.push(std::thread::spawn(move || {
            while let Some(stream) = ctx.queue.pop() {
                handle_conn(stream, &ctx);
            }
        }));
    }

    while !shutdown_requested() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                ctx.stats.accepted.fetch_add(1, Ordering::Relaxed);
                // Socket-level timeout far below the request deadline:
                // reads return regularly so the deadline between reads is
                // actually checked against a silent or dribbling peer.
                let sock_to = Duration::from_millis(ctx.cfg.read_deadline_ms.clamp(50, 500));
                let _ = stream.set_read_timeout(Some(sock_to));
                let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
                let _ = stream.set_nodelay(true);
                if let Err((stream, why)) = ctx.queue.try_push(stream) {
                    shed(stream, &ctx, why);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // Sleep until a peer connects; the bound keeps the drain
                // flag checked whichever thread took the signal.
                if signals::wait_readable(&listener, ACCEPT_WAIT).is_err() {
                    accept_error(&ctx);
                }
            }
            Err(_) => accept_error(&ctx),
        }
    }

    // Drain: stop admitting, let handlers finish the backlog, then retire
    // the worker fleet.
    eprintln!("ccdpd: shutdown requested, draining {} queued connection(s)", ctx.queue.depth());
    ctx.queue.close();
    for h in handles {
        let _ = h.join();
    }
    ctx.pool.shutdown();
    eprintln!(
        "ccdpd: drained (completed {}, shed {})",
        ctx.stats.completed.load(Ordering::Relaxed),
        ctx.stats.shed.load(Ordering::Relaxed)
    );
    Ok(())
}

/// A failed `accept` (or readiness wait) other than `WouldBlock`: count it
/// and back off. `EMFILE`/`ENFILE` leave the listener readable, so without
/// the back-off the acceptor would spin.
fn accept_error(ctx: &Ctx) {
    ctx.stats.accept_errors.fetch_add(1, Ordering::Relaxed);
    std::thread::sleep(ACCEPT_ERROR_BACKOFF);
}

/// Admission control: the queue refused this connection. Read the request
/// (so the client can finish writing) and answer a structured 429. This
/// runs on the acceptor thread — the read timeout bounds how long an
/// overload can stall admission, and that stall is itself backpressure.
fn shed(mut stream: TcpStream, ctx: &Ctx, why: PushError) {
    ctx.stats.shed.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = http::read_request(&mut stream, ctx.cfg.max_body);
    let (code, msg) = match why {
        PushError::Full => ("queue_full", "job queue at capacity; retry with backoff"),
        PushError::Closed => ("draining", "server is draining; retry elsewhere"),
    };
    let body = error_body(
        code,
        msg,
        vec![
            ("queue_depth", ctx.queue.depth().to_json()),
            ("queue_cap", ctx.queue.capacity().to_json()),
        ],
    );
    let bytes = http::response_bytes(429, "Too Many Requests", &body.to_string());
    http::write_response(&mut stream, &bytes);
}

fn respond_json(stream: &mut TcpStream, status: u16, reason: &str, body: &Json) {
    let bytes = http::response_bytes(status, reason, &body.to_string());
    http::write_response(stream, &bytes);
}

fn handle_conn(mut stream: TcpStream, ctx: &Ctx) {
    let deadline = http::Deadline::after_ms(ctx.cfg.read_deadline_ms);
    let req = match http::read_request_deadline(&mut stream, ctx.cfg.max_body, &deadline) {
        Ok(r) => r,
        Err(e) => {
            ctx.stats.http_errors.fetch_add(1, Ordering::Relaxed);
            let (status, reason) = e.status();
            // A timed-out client learns the budget it blew.
            let extra = match e {
                http::HttpError::Timeout { deadline_ms } => {
                    vec![("deadline_ms", deadline_ms.to_json())]
                }
                _ => vec![],
            };
            respond_json(&mut stream, status, reason, &error_body(e.code(), &e.to_string(), extra));
            return;
        }
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            // Liveness only: the supervisor is up and answering.
            respond_json(
                &mut stream,
                200,
                "OK",
                &Json::obj([("status", "ok".to_json()), ("role", "supervisor".to_json())]),
            );
        }
        ("GET", "/readyz") => {
            handle_readyz(&mut stream, ctx);
        }
        ("GET", "/stats") => {
            let body = stats_json(ctx);
            respond_json(&mut stream, 200, "OK", &body);
        }
        ("GET", path) if path.starts_with("/result/") => {
            handle_result(&mut stream, ctx, &path["/result/".len()..]);
        }
        ("POST", "/jobs") => {
            handle_job(&mut stream, ctx, &req.body);
            ctx.stats.completed.fetch_add(1, Ordering::Relaxed);
        }
        (_, _) => {
            respond_json(
                &mut stream,
                404,
                "Not Found",
                &error_body("not_found", "unknown route", vec![]),
            );
        }
    }
}

/// `GET /readyz`: 200 when a job would actually be computed right now,
/// 503 with machine-readable reasons otherwise.
fn handle_readyz(stream: &mut TcpStream, ctx: &Ctx) {
    let workers_alive = ctx.pool.workers_alive();
    let depth = ctx.queue.depth();
    let cap = ctx.queue.capacity();
    let (ready, reasons) = ready_decision(workers_alive, depth, cap);
    let body = Json::obj([
        ("status", if ready { "ready".to_json() } else { "not_ready".to_json() }),
        ("reasons", Json::arr(reasons.iter().map(|r| r.to_json()))),
        ("workers_alive", workers_alive.to_json()),
        ("workers_total", ctx.pool.workers_total().to_json()),
        ("queue_depth", depth.to_json()),
        ("queue_cap", cap.to_json()),
    ]);
    if ready {
        respond_json(stream, 200, "OK", &body);
    } else {
        respond_json(stream, 503, "Service Unavailable", &body);
    }
}

/// `GET /result/<fingerprint>`: the cached response of a completed job,
/// byte-identical to what its original `POST /jobs` returned (the cache
/// stores full serialized responses). 404 when unknown — including jobs
/// whose outcome was flaky and therefore never stored.
fn handle_result(stream: &mut TcpStream, ctx: &Ctx, fp: &str) {
    if Fingerprint::parse_hex(fp).is_none() {
        respond_json(
            stream,
            400,
            "Bad Request",
            &error_body("bad_fingerprint", "expected 32 hex digits", vec![]),
        );
        return;
    }
    match ctx.cache.lookup_done(fp) {
        Some(bytes) => http::write_response(stream, &bytes),
        None => respond_json(
            stream,
            404,
            "Not Found",
            &error_body("not_found", "no completed job with this fingerprint", vec![]),
        ),
    }
}

fn handle_job(stream: &mut TcpStream, ctx: &Ctx, body: &[u8]) {
    let doc = match std::str::from_utf8(body).ok().and_then(|t| ccdp_json::parse(t).ok()) {
        Some(d) => d,
        None => {
            ctx.stats.http_errors.fetch_add(1, Ordering::Relaxed);
            respond_json(
                stream,
                400,
                "Bad Request",
                &error_body("bad_json", "body is not valid JSON", vec![]),
            );
            return;
        }
    };
    let spec = match JobSpec::from_json(&doc, ctx.cfg.default_deadline_ms) {
        Ok(s) => s,
        Err(msg) => {
            ctx.stats.http_errors.fetch_add(1, Ordering::Relaxed);
            respond_json(stream, 400, "Bad Request", &error_body("bad_request", &msg, vec![]));
            return;
        }
    };
    let fp = spec.fingerprint().to_hex();

    match ctx.cache.claim(&fp) {
        Claim::Hit(bytes) => http::write_response(stream, &bytes),
        Claim::Join(flight) => {
            // Generous bound: the leader's worst case is every attempt
            // burning its full deadline, plus re-dispatches.
            let bound = Duration::from_millis(
                spec.deadline_ms * u64::from(ctx.cfg.retry.max_attempts) + 20_000,
            );
            match flight.wait(bound) {
                Some(bytes) => http::write_response(stream, &bytes),
                None => respond_json(
                    stream,
                    500,
                    "Internal Server Error",
                    &error_body("leader_lost", "in-flight computation never completed", vec![]),
                ),
            }
        }
        Claim::Leader => {
            let (bytes, cacheable) = match ctx.pool.run(&fp, &spec) {
                Ok(done) => {
                    ctx.stats.retries.fetch_add(u64::from(done.retries), Ordering::Relaxed);
                    if done.status == 200 {
                        ctx.stats.jobs_ok.fetch_add(1, Ordering::Relaxed);
                    } else {
                        ctx.stats.jobs_err.fetch_add(1, Ordering::Relaxed);
                    }
                    (done.response, done.cacheable)
                }
                Err(RunError::NoWorkers) => {
                    ctx.stats.jobs_err.fetch_add(1, Ordering::Relaxed);
                    let body = error_body(
                        "no_workers",
                        "no live worker available; retry with backoff",
                        vec![("fingerprint", fp.to_json())],
                    );
                    (
                        http::response_bytes(503, "Service Unavailable", &body.to_string()),
                        false,
                    )
                }
                Err(RunError::WorkerLost { redispatches }) => {
                    ctx.stats.jobs_err.fetch_add(1, Ordering::Relaxed);
                    let body = error_body(
                        "worker_lost",
                        "workers kept dying while running this job",
                        vec![
                            ("fingerprint", fp.to_json()),
                            ("redispatches", u64::from(redispatches).to_json()),
                        ],
                    );
                    (
                        http::response_bytes(500, "Internal Server Error", &body.to_string()),
                        false,
                    )
                }
            };
            let bytes = Arc::new(bytes);
            ctx.cache.publish(&fp, Arc::clone(&bytes), cacheable);
            http::write_response(stream, &bytes);
        }
    }
}

fn stats_json(ctx: &Ctx) -> Json {
    let s = &ctx.stats;
    let hits = ctx.cache.hits.load(Ordering::Relaxed);
    let joins = ctx.cache.joins.load(Ordering::Relaxed);
    let misses = ctx.cache.misses.load(Ordering::Relaxed);
    let lookups = hits + joins + misses;
    let hit_rate =
        if lookups > 0 { (hits + joins) as f64 / lookups as f64 } else { 0.0 };
    let ps = &ctx.pool.stats;
    Json::obj([
        ("status", "ok".to_json()),
        ("accepted", s.accepted.load(Ordering::Relaxed).to_json()),
        ("completed", s.completed.load(Ordering::Relaxed).to_json()),
        ("shed", s.shed.load(Ordering::Relaxed).to_json()),
        ("jobs_ok", s.jobs_ok.load(Ordering::Relaxed).to_json()),
        ("jobs_err", s.jobs_err.load(Ordering::Relaxed).to_json()),
        ("retries", s.retries.load(Ordering::Relaxed).to_json()),
        ("http_errors", s.http_errors.load(Ordering::Relaxed).to_json()),
        ("accept_errors", s.accept_errors.load(Ordering::Relaxed).to_json()),
        ("queue_depth", ctx.queue.depth().to_json()),
        ("queue_cap", ctx.queue.capacity().to_json()),
        ("cache_entries", ctx.cache.len().to_json()),
        ("cache_hits", hits.to_json()),
        ("cache_joins", joins.to_json()),
        ("cache_misses", misses.to_json()),
        ("cache_hit_rate", hit_rate.to_json()),
        ("workers", ctx.cfg.workers.to_json()),
        ("workers_total", ctx.pool.workers_total().to_json()),
        ("workers_alive", ctx.pool.workers_alive().to_json()),
        ("threads", ctx.cfg.threads.to_json()),
        ("restarts", ps.restarts.load(Ordering::Relaxed).to_json()),
        ("redispatches", ps.redispatches.load(Ordering::Relaxed).to_json()),
        ("orphan_replays", ps.orphan_replays.load(Ordering::Relaxed).to_json()),
        ("breaker_trips", ps.breaker_trips.load(Ordering::Relaxed).to_json()),
    ])
}

#[cfg(test)]
mod unit {
    use super::*;

    #[test]
    fn ready_decision_covers_the_matrix() {
        assert_eq!(ready_decision(2, 0, 8), (true, vec![]));
        assert_eq!(ready_decision(1, 7, 8), (true, vec![]));
        assert_eq!(ready_decision(0, 0, 8), (false, vec!["no_workers"]));
        assert_eq!(ready_decision(2, 8, 8), (false, vec!["queue_full"]));
        assert_eq!(ready_decision(0, 9, 8), (false, vec!["no_workers", "queue_full"]));
    }
}
