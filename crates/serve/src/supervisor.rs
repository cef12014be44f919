//! The supervision tree: N isolated worker processes under one acceptor.
//!
//! The supervisor pre-forks workers by re-executing its own binary with
//! `--worker` (no fork(2) FFI, no new deps) and talks to each over its
//! stdin/stdout pipe pair using the framed protocol in [`crate::worker`].
//! The design invariant: **nothing a worker does can take down the
//! acceptor**. A worker panic-aborts, gets `kill -9`ed, OOMs, or wedges —
//! the supervisor detects it (pipe EOF, job deadline overrun, or heartbeat
//! silence), re-dispatches its in-flight jobs to surviving workers, and
//! respawns the slot with exponential backoff behind a restart-storm
//! circuit breaker.
//!
//! Re-dispatch protocol: every job is journaled (fsynced) to the target
//! slot's journal *before* the dispatch frame is written, so the
//! crash-window accounting is exact: a job is either unjournaled (client
//! still waiting, connection eventually resets — it re-submits) or
//! journaled (replayed on restart). In-process, the requester thread holds
//! a ticket; worker death fails the ticket and the requester re-acquires a
//! live worker — the job runs again and, because the pipeline is
//! deterministic, produces byte-identical response bytes. Lost-worker
//! jobs therefore cost latency, never correctness.
//!
//! Backoff/breaker logic is pure over an explicit `now: Instant` so unit
//! tests drive it without sleeping.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ccdp_json::{Json, ToJson};

use crate::api::{JobSpec, RetryPolicy};
use crate::journal::JobJournal;

// --- Restart policy: pure, clock-injected, unit-testable ----------------

/// Knobs governing worker respawn behaviour.
#[derive(Debug, Clone)]
pub struct RestartPolicy {
    /// Backoff before respawn k (consecutive) is `base * 2^k`, capped.
    pub base_backoff: Duration,
    pub max_backoff: Duration,
    /// A worker alive this long resets its slot's consecutive-death count.
    pub stable_after: Duration,
    /// Fleet-wide circuit breaker: this many deaths...
    pub storm_threshold: usize,
    /// ...within this window opens the breaker...
    pub storm_window: Duration,
    /// ...which blocks every respawn for this long.
    pub cooloff: Duration,
}

impl Default for RestartPolicy {
    fn default() -> RestartPolicy {
        RestartPolicy {
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_secs(5),
            stable_after: Duration::from_secs(10),
            storm_threshold: 6,
            storm_window: Duration::from_secs(10),
            cooloff: Duration::from_secs(5),
        }
    }
}

/// Per-slot exponential backoff with stability reset.
#[derive(Debug)]
pub struct RestartTracker {
    policy: RestartPolicy,
    consecutive: u32,
    last_spawn: Option<Instant>,
}

impl RestartTracker {
    pub fn new(policy: RestartPolicy) -> RestartTracker {
        RestartTracker { policy, consecutive: 0, last_spawn: None }
    }

    pub fn on_spawn(&mut self, now: Instant) {
        self.last_spawn = Some(now);
    }

    /// Record a death; returns the backoff to wait before respawning.
    pub fn on_death(&mut self, now: Instant) -> Duration {
        if let Some(spawned) = self.last_spawn {
            if now.saturating_duration_since(spawned) >= self.policy.stable_after {
                self.consecutive = 0;
            }
        }
        let exp = self.consecutive.min(16);
        let backoff = self
            .policy
            .base_backoff
            .saturating_mul(2u32.saturating_pow(exp))
            .min(self.policy.max_backoff);
        self.consecutive += 1;
        backoff
    }

    pub fn consecutive_deaths(&self) -> u32 {
        self.consecutive
    }
}

/// Fleet-wide restart-storm circuit breaker: if the whole fleet is
/// crash-looping (e.g. a poisoned environment, not one bad job), pausing
/// all respawns beats burning CPU on a fork storm. While open the service
/// still accepts and sheds structurally (`/readyz` goes 503).
#[derive(Debug)]
pub struct FleetBreaker {
    policy: RestartPolicy,
    deaths: VecDeque<Instant>,
    open_until: Option<Instant>,
    /// Times the breaker has tripped (observability).
    pub trips: u64,
}

impl FleetBreaker {
    pub fn new(policy: RestartPolicy) -> FleetBreaker {
        FleetBreaker { policy, deaths: VecDeque::new(), open_until: None, trips: 0 }
    }

    pub fn on_death(&mut self, now: Instant) {
        self.deaths.push_back(now);
        while let Some(&front) = self.deaths.front() {
            if now.saturating_duration_since(front) > self.policy.storm_window {
                self.deaths.pop_front();
            } else {
                break;
            }
        }
        if self.deaths.len() >= self.policy.storm_threshold && !self.is_open(now) {
            self.open_until = Some(now + self.policy.cooloff);
            self.trips += 1;
            self.deaths.clear();
        }
    }

    pub fn is_open(&self, now: Instant) -> bool {
        self.open_until.is_some_and(|until| now < until)
    }
}

// --- The pool ------------------------------------------------------------

/// Pool tuning; `Default` matches interactive service expectations.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    pub workers: usize,
    pub restart: RestartPolicy,
    /// Idle workers are pinged at this cadence; silence for 3 heartbeats
    /// marks an idle worker unresponsive (busy workers are judged by their
    /// job deadline instead — they block in the pipeline and cannot pong).
    pub heartbeat: Duration,
    /// Grace past a job's worst-case (deadline × attempts) before a busy
    /// worker is declared hung and killed.
    pub hang_grace: Duration,
    /// A job orphaned by worker death is re-dispatched at most this many
    /// times before answering `worker_lost`.
    pub max_redispatch: u32,
    /// How long a request waits for an idle worker before `no_workers`.
    pub acquire_timeout: Duration,
    pub retry: RetryPolicy,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            workers: 2,
            restart: RestartPolicy::default(),
            heartbeat: Duration::from_millis(500),
            hang_grace: Duration::from_secs(2),
            max_redispatch: 3,
            acquire_timeout: Duration::from_secs(5),
            retry: RetryPolicy::default(),
        }
    }
}

/// Lock-free pool counters for `/stats` and the chaos report.
#[derive(Default)]
pub struct PoolStats {
    pub restarts: AtomicU64,
    pub redispatches: AtomicU64,
    pub orphan_replays: AtomicU64,
    pub breaker_trips: AtomicU64,
}

/// A completed job as reported by a worker.
pub struct Done {
    pub status: u16,
    pub cacheable: bool,
    pub retries: u32,
    pub response: Vec<u8>,
}

enum Reply {
    Done(Done),
    Died,
}

/// Why [`Pool::run`] could not produce a worker answer.
#[derive(Debug, PartialEq, Eq)]
pub enum RunError {
    /// No live idle worker within the acquire timeout (fleet down or
    /// breaker open).
    NoWorkers,
    /// The job's worker died `redispatches + 1` times in a row.
    WorkerLost { redispatches: u32 },
}

struct UpWorker {
    pid: u32,
    stdin: ChildStdin,
    child: Option<Child>,
    /// Deadline by which the current job must have answered (None = idle).
    busy_until: Option<Instant>,
    last_seen: Instant,
    last_ping: Instant,
}

enum SlotState {
    Up(UpWorker),
    Down { next_spawn: Instant },
}

struct Slot {
    gen: u64,
    state: SlotState,
}

struct Ticket {
    slot: usize,
    gen: u64,
    tx: Sender<Reply>,
}

struct PoolState {
    slots: Vec<Slot>,
    idle: VecDeque<usize>,
    pending: HashMap<u64, Ticket>,
    trackers: Vec<RestartTracker>,
    breaker: FleetBreaker,
    shutting_down: bool,
}

impl PoolState {
    fn alive(&self) -> usize {
        self.slots.iter().filter(|s| matches!(s.state, SlotState::Up(_))).count()
    }
}

/// The worker-process pool. One per supervisor; shared across the
/// connection-handler threads.
pub struct Pool {
    cfg: PoolConfig,
    state: Mutex<PoolState>,
    idle_cv: Condvar,
    /// Notified whenever a worker's exit has been recorded; the drain
    /// waits on it.
    exit_cv: Condvar,
    next_ticket: AtomicU64,
    monitor_stop: AtomicBool,
    /// Per-slot journals (same indexing as slots); empty = journaling off.
    journals: Vec<Arc<JobJournal>>,
    pub stats: PoolStats,
}

fn job_frame(id: u64, spec: &JobSpec, retry: &RetryPolicy) -> String {
    Json::obj([
        ("kind", "job".to_json()),
        ("id", id.to_json()),
        ("spec", spec.to_json()),
        (
            "retry",
            Json::obj([
                ("max_attempts", u64::from(retry.max_attempts).to_json()),
                ("backoff_ms", (retry.base_backoff.as_millis() as u64).to_json()),
            ]),
        ),
    ])
    .to_string()
}

impl Pool {
    /// Build the pool and spawn the initial fleet plus the monitor thread.
    /// `journals` must be empty (journaling disabled) or exactly
    /// `cfg.workers` long.
    pub fn start(cfg: PoolConfig, journals: Vec<Arc<JobJournal>>) -> std::io::Result<Arc<Pool>> {
        assert!(journals.is_empty() || journals.len() == cfg.workers);
        let workers = cfg.workers.max(1);
        let now = Instant::now();
        let state = PoolState {
            slots: (0..workers)
                .map(|_| Slot { gen: 0, state: SlotState::Down { next_spawn: now } })
                .collect(),
            idle: VecDeque::new(),
            pending: HashMap::new(),
            trackers: (0..workers).map(|_| RestartTracker::new(cfg.restart.clone())).collect(),
            breaker: FleetBreaker::new(cfg.restart.clone()),
            shutting_down: false,
        };
        let pool = Arc::new(Pool {
            cfg,
            state: Mutex::new(state),
            idle_cv: Condvar::new(),
            exit_cv: Condvar::new(),
            next_ticket: AtomicU64::new(1),
            monitor_stop: AtomicBool::new(false),
            journals,
            stats: PoolStats::default(),
        });
        for slot in 0..workers {
            pool.spawn_worker(slot)?;
        }
        let monitor = Arc::clone(&pool);
        std::thread::Builder::new()
            .name("ccdpd-monitor".into())
            .spawn(move || monitor.monitor_loop())?;
        Ok(pool)
    }

    pub fn workers_total(&self) -> usize {
        self.state.lock().expect("pool lock").slots.len()
    }

    pub fn workers_alive(&self) -> usize {
        self.state.lock().expect("pool lock").alive()
    }

    /// Spawn (or respawn) the worker for `slot`. Prints the
    /// `ccdpd worker <slot> pid <pid>` line the chaos harness parses.
    fn spawn_worker(self: &Arc<Self>, slot: usize) -> std::io::Result<()> {
        let exe = std::env::current_exe()?;
        let mut child = Command::new(exe)
            .arg("--worker")
            .arg("--worker-slot")
            .arg(slot.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let pid = child.id();
        let gen;
        {
            let mut st = self.state.lock().expect("pool lock");
            let now = Instant::now();
            st.trackers[slot].on_spawn(now);
            let s = &mut st.slots[slot];
            s.gen += 1;
            gen = s.gen;
            s.state = SlotState::Up(UpWorker {
                pid,
                stdin,
                child: Some(child),
                busy_until: None,
                last_seen: now,
                last_ping: now,
            });
            st.idle.push_back(slot);
        }
        self.idle_cv.notify_one();
        println!("ccdpd worker {slot} pid {pid}");
        let _ = std::io::stdout().flush();
        let reader = Arc::clone(self);
        std::thread::Builder::new()
            .name(format!("ccdpd-reader-{slot}"))
            .spawn(move || reader.reader_loop(slot, gen, stdout))?;
        Ok(())
    }

    /// Per-worker reader: routes frames until pipe EOF, then performs the
    /// death transition. EOF is the single source of truth for "worker
    /// gone" — kills (ours or anyone's) funnel through it.
    fn reader_loop(self: &Arc<Self>, slot: usize, gen: u64, stdout: std::process::ChildStdout) {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            let Ok(doc) = ccdp_json::parse(&line) else { continue };
            match doc.get("kind").and_then(Json::as_str) {
                Some("done") => self.on_done(slot, gen, &doc),
                Some("ready") | Some("pong") => self.touch(slot, gen),
                _ => {}
            }
        }
        self.on_worker_exit(slot, gen);
    }

    fn touch(&self, slot: usize, gen: u64) {
        let mut st = self.state.lock().expect("pool lock");
        if st.slots[slot].gen != gen {
            return;
        }
        if let SlotState::Up(w) = &mut st.slots[slot].state {
            w.last_seen = Instant::now();
        }
    }

    fn on_done(&self, slot: usize, gen: u64, doc: &Json) {
        let id = doc.get("id").and_then(Json::as_u64).unwrap_or(0);
        let done = Done {
            status: doc.get("status").and_then(Json::as_u64).unwrap_or(500) as u16,
            cacheable: doc.get("cacheable").and_then(Json::as_bool).unwrap_or(false),
            retries: doc.get("retries").and_then(Json::as_u64).unwrap_or(0) as u32,
            response: doc
                .get("response")
                .and_then(Json::as_str)
                .unwrap_or("")
                .as_bytes()
                .to_vec(),
        };
        let ticket;
        {
            let mut st = self.state.lock().expect("pool lock");
            if st.slots[slot].gen != gen {
                return;
            }
            if let SlotState::Up(w) = &mut st.slots[slot].state {
                w.busy_until = None;
                w.last_seen = Instant::now();
            }
            if !st.idle.contains(&slot) {
                st.idle.push_back(slot);
            }
            ticket = st.pending.remove(&id);
        }
        self.idle_cv.notify_one();
        if let Some(t) = ticket {
            let _ = t.tx.send(Reply::Done(done));
        }
        // No ticket: the requester timed out and walked away; the result
        // is dropped (its journal `done` line never written — the job
        // stays incomplete and replays on resume, which is correct).
    }

    fn on_worker_exit(self: &Arc<Self>, slot: usize, gen: u64) {
        let mut dead_child = None;
        let mut orphans = Vec::new();
        {
            let mut st = self.state.lock().expect("pool lock");
            if st.slots[slot].gen != gen {
                return;
            }
            let now = Instant::now();
            let backoff = st.trackers[slot].on_death(now);
            if !st.shutting_down {
                st.breaker.on_death(now);
                self.stats.breaker_trips.store(st.breaker.trips, Ordering::Relaxed);
            }
            if let SlotState::Up(w) = &mut st.slots[slot].state {
                dead_child = w.child.take();
            }
            st.slots[slot].state = SlotState::Down { next_spawn: now + backoff };
            st.idle.retain(|&s| s != slot);
            let ids: Vec<u64> = st
                .pending
                .iter()
                .filter(|(_, t)| t.slot == slot && t.gen == gen)
                .map(|(&id, _)| id)
                .collect();
            for id in ids {
                if let Some(t) = st.pending.remove(&id) {
                    orphans.push(t);
                }
            }
            if !st.shutting_down {
                eprintln!(
                    "ccdpd: worker {slot} (gen {gen}) exited; {} in-flight job(s) orphaned",
                    orphans.len()
                );
            }
        }
        if let Some(mut child) = dead_child {
            let _ = child.wait(); // reap; already exited (stdout EOF)
        }
        self.exit_cv.notify_all();
        for t in orphans {
            let _ = t.tx.send(Reply::Died);
        }
    }

    /// Kill a specific worker generation (hung or unresponsive). The
    /// reader's EOF does the bookkeeping.
    fn kill_worker(&self, slot: usize, gen: u64, why: &str) {
        let mut st = self.state.lock().expect("pool lock");
        if st.slots[slot].gen != gen {
            return;
        }
        if let SlotState::Up(w) = &mut st.slots[slot].state {
            eprintln!("ccdpd: killing worker {slot} pid {} ({why})", w.pid);
            if let Some(child) = &mut w.child {
                let _ = child.kill();
            }
        }
    }

    /// Wait for an idle live worker; marks it busy until `busy_for` from
    /// now. Returns the `(slot, generation)` lease.
    fn acquire_idle(&self, wait: Duration, busy_for: Duration) -> Option<(usize, u64)> {
        let deadline = Instant::now() + wait;
        let mut st = self.state.lock().expect("pool lock");
        loop {
            while let Some(slot) = st.idle.pop_front() {
                let gen = st.slots[slot].gen;
                if let SlotState::Up(w) = &mut st.slots[slot].state {
                    w.busy_until = Some(Instant::now() + busy_for);
                    return Some((slot, gen));
                }
            }
            if st.shutting_down {
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _timeout) = self
                .idle_cv
                .wait_timeout(st, deadline.saturating_duration_since(now))
                .expect("pool lock");
            st = guard;
        }
    }

    /// Worst-case time a worker may legitimately hold a job: every retry
    /// attempt burning the full deadline, plus scheduling slack.
    fn busy_budget(&self, spec: &JobSpec) -> Duration {
        Duration::from_millis(
            spec.deadline_ms * u64::from(self.cfg.retry.max_attempts.max(1)) + 5_000,
        )
    }

    /// Run one job on the fleet: journal → dispatch → await, re-dispatching
    /// on worker death. This is the supervisor half of the byte-identical
    /// guarantee: the same spec always produces the same response bytes,
    /// no matter how many workers died along the way.
    pub fn run(&self, fp: &str, spec: &JobSpec) -> Result<Done, RunError> {
        let busy_for = self.busy_budget(spec);
        let mut redispatches = 0u32;
        loop {
            let Some((slot, gen)) = self.acquire_idle(self.cfg.acquire_timeout, busy_for)
            else {
                return Err(RunError::NoWorkers);
            };
            if let Some(j) = self.journals.get(slot) {
                if let Err(e) = j.record_job(fp, spec) {
                    // Degrade, don't die: the job runs without crash cover.
                    eprintln!("ccdpd: journal write failed: {e}");
                }
            }
            let id = self.next_ticket.fetch_add(1, Ordering::Relaxed);
            let (tx, rx) = channel();
            let frame = job_frame(id, spec, &self.cfg.retry);
            let sent = {
                let mut st = self.state.lock().expect("pool lock");
                if st.slots[slot].gen != gen {
                    false
                } else {
                    st.pending.insert(id, Ticket { slot, gen, tx });
                    let ok = if let SlotState::Up(w) = &mut st.slots[slot].state {
                        writeln!(w.stdin, "{frame}").and_then(|()| w.stdin.flush()).is_ok()
                    } else {
                        false
                    };
                    if !ok {
                        st.pending.remove(&id);
                    }
                    ok
                }
            };
            if !sent {
                // Worker died between acquire and write; its EOF transition
                // is in flight. Count and retry like any other death.
                redispatches += 1;
                self.stats.redispatches.fetch_add(1, Ordering::Relaxed);
                if redispatches > self.cfg.max_redispatch {
                    return Err(RunError::WorkerLost { redispatches: redispatches - 1 });
                }
                continue;
            }
            match rx.recv_timeout(busy_for) {
                Ok(Reply::Done(done)) => {
                    if done.cacheable {
                        if let Some(j) = self.journals.get(slot) {
                            if let Err(e) = j.record_done(fp, &done.response) {
                                eprintln!("ccdpd: journal write failed: {e}");
                            }
                        }
                    }
                    return Ok(done);
                }
                Ok(Reply::Died) | Err(RecvTimeoutError::Disconnected) => {
                    redispatches += 1;
                    self.stats.redispatches.fetch_add(1, Ordering::Relaxed);
                    if redispatches > self.cfg.max_redispatch {
                        return Err(RunError::WorkerLost { redispatches: redispatches - 1 });
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    // The worker out-slept its worst case: hung. Kill it;
                    // the EOF transition will also fail any other tickets.
                    self.state.lock().expect("pool lock").pending.remove(&id);
                    self.kill_worker(slot, gen, "job deadline overrun");
                    redispatches += 1;
                    self.stats.redispatches.fetch_add(1, Ordering::Relaxed);
                    if redispatches > self.cfg.max_redispatch {
                        return Err(RunError::WorkerLost { redispatches: redispatches - 1 });
                    }
                }
            }
        }
    }

    /// Health/respawn loop: pings idle workers, kills hung or silent ones,
    /// respawns due slots (unless the breaker is open).
    fn monitor_loop(self: Arc<Self>) {
        while !self.monitor_stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(25));
            let now = Instant::now();
            let mut to_kill: Vec<(usize, u64, &'static str)> = Vec::new();
            let mut to_spawn: Vec<usize> = Vec::new();
            {
                let mut st = self.state.lock().expect("pool lock");
                if st.shutting_down {
                    break;
                }
                let breaker_open = st.breaker.is_open(now);
                for (slot, s) in st.slots.iter_mut().enumerate() {
                    let gen = s.gen;
                    match &mut s.state {
                        SlotState::Up(w) => match w.busy_until {
                            Some(deadline) => {
                                if now > deadline + self.cfg.hang_grace {
                                    to_kill.push((slot, gen, "hung mid-job"));
                                }
                            }
                            None => {
                                if now.saturating_duration_since(w.last_seen)
                                    > self.cfg.heartbeat * 3
                                {
                                    to_kill.push((slot, gen, "heartbeat silence"));
                                } else if now.saturating_duration_since(w.last_ping)
                                    >= self.cfg.heartbeat
                                {
                                    w.last_ping = now;
                                    let ping = Json::obj([
                                        ("kind", "ping".to_json()),
                                        ("id", 0u64.to_json()),
                                    ])
                                    .to_string();
                                    if writeln!(w.stdin, "{ping}")
                                        .and_then(|()| w.stdin.flush())
                                        .is_err()
                                    {
                                        to_kill.push((slot, gen, "dead pipe"));
                                    }
                                }
                            }
                        },
                        SlotState::Down { next_spawn } => {
                            if now >= *next_spawn && !breaker_open {
                                to_spawn.push(slot);
                            }
                        }
                    }
                }
            }
            for (slot, gen, why) in to_kill {
                self.kill_worker(slot, gen, why);
            }
            for slot in to_spawn {
                match self.spawn_worker(slot) {
                    Ok(()) => {
                        self.stats.restarts.fetch_add(1, Ordering::Relaxed);
                        eprintln!("ccdpd: worker {slot} respawned");
                    }
                    Err(e) => eprintln!("ccdpd: respawn of worker {slot} failed: {e}"),
                }
            }
        }
    }

    /// Graceful drain: stop respawns, ask every worker to exit, wait
    /// briefly, then kill stragglers and reap everything. Each wait ends
    /// as soon as the last worker's exit is recorded (`exit_cv`).
    pub fn shutdown(&self) {
        self.monitor_stop.store(true, Ordering::SeqCst);
        let mut st = self.state.lock().expect("pool lock");
        st.shutting_down = true;
        for s in st.slots.iter_mut() {
            if let SlotState::Up(w) = &mut s.state {
                let bye = Json::obj([("kind", "shutdown".to_json())]).to_string();
                let _ = writeln!(w.stdin, "{bye}").and_then(|()| w.stdin.flush());
            }
        }
        self.idle_cv.notify_all();
        let (mut st, waited) = self
            .exit_cv
            .wait_timeout_while(st, Duration::from_secs(3), |st| st.alive() > 0)
            .expect("pool lock");
        if waited.timed_out() {
            for s in st.slots.iter_mut() {
                if let SlotState::Up(w) = &mut s.state {
                    if let Some(child) = &mut w.child {
                        let _ = child.kill();
                    }
                }
            }
            // Readers reap on EOF; give the last transitions a moment.
            let _ = self
                .exit_cv
                .wait_timeout_while(st, Duration::from_millis(500), |st| st.alive() > 0)
                .expect("pool lock");
        }
    }
}

#[cfg(test)]
mod unit {
    use super::*;

    fn policy() -> RestartPolicy {
        RestartPolicy {
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_secs(2),
            stable_after: Duration::from_secs(10),
            storm_threshold: 4,
            storm_window: Duration::from_secs(5),
            cooloff: Duration::from_secs(3),
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut t = RestartTracker::new(policy());
        let t0 = Instant::now();
        t.on_spawn(t0);
        assert_eq!(t.on_death(t0 + Duration::from_millis(10)), Duration::from_millis(100));
        assert_eq!(t.on_death(t0 + Duration::from_millis(20)), Duration::from_millis(200));
        assert_eq!(t.on_death(t0 + Duration::from_millis(30)), Duration::from_millis(400));
        assert_eq!(t.on_death(t0 + Duration::from_millis(40)), Duration::from_millis(800));
        assert_eq!(t.on_death(t0 + Duration::from_millis(50)), Duration::from_millis(1600));
        // Capped at max_backoff from here on.
        assert_eq!(t.on_death(t0 + Duration::from_millis(60)), Duration::from_secs(2));
        assert_eq!(t.on_death(t0 + Duration::from_millis(70)), Duration::from_secs(2));
    }

    #[test]
    fn stable_run_resets_backoff() {
        let mut t = RestartTracker::new(policy());
        let t0 = Instant::now();
        t.on_spawn(t0);
        t.on_death(t0 + Duration::from_millis(10));
        t.on_death(t0 + Duration::from_millis(20));
        assert_eq!(t.consecutive_deaths(), 2);
        // Respawn that then survives past stable_after.
        let t1 = t0 + Duration::from_secs(60);
        t.on_spawn(t1);
        let after_stable = t1 + Duration::from_secs(11);
        assert_eq!(t.on_death(after_stable), Duration::from_millis(100));
        assert_eq!(t.consecutive_deaths(), 1);
    }

    #[test]
    fn breaker_opens_on_storm_and_cools_off() {
        let mut b = FleetBreaker::new(policy());
        let t0 = Instant::now();
        for i in 0..3 {
            b.on_death(t0 + Duration::from_millis(i * 100));
            assert!(!b.is_open(t0 + Duration::from_millis(i * 100)), "not yet a storm");
        }
        // Fourth death inside the 5 s window: storm.
        let trip = t0 + Duration::from_millis(300);
        b.on_death(trip);
        assert!(b.is_open(trip));
        assert_eq!(b.trips, 1);
        assert!(b.is_open(trip + Duration::from_millis(2_900)));
        assert!(!b.is_open(trip + Duration::from_secs(3)), "cooloff elapsed");
    }

    #[test]
    fn slow_deaths_never_trip_breaker() {
        let mut b = FleetBreaker::new(policy());
        let t0 = Instant::now();
        // One death every 6 s: each falls out of the 5 s window before the
        // next arrives.
        for i in 0..20u64 {
            let now = t0 + Duration::from_secs(6 * i);
            b.on_death(now);
            assert!(!b.is_open(now), "death #{i} must not trip the breaker");
        }
        assert_eq!(b.trips, 0);
    }

    #[test]
    fn breaker_retrips_after_cooloff() {
        let mut b = FleetBreaker::new(policy());
        let t0 = Instant::now();
        for i in 0..4u64 {
            b.on_death(t0 + Duration::from_millis(i * 10));
        }
        assert_eq!(b.trips, 1);
        // A second storm after the first cooloff trips it again.
        let t1 = t0 + Duration::from_secs(10);
        for i in 0..4u64 {
            b.on_death(t1 + Duration::from_millis(i * 10));
        }
        assert_eq!(b.trips, 2);
        assert!(b.is_open(t1 + Duration::from_millis(40)));
    }
}
