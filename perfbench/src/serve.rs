//! The serve workloads: a fresh ccdpd driven over HTTP by two closed-loop
//! clients, each with one connection open at a time.
//!
//! * `serve-distinct` posts jobs from a fixed pool of `bench::synth`
//!   programs that never repeat within a run, so every request is a cache
//!   miss computed by a worker.
//! * `serve-hot` posts a small set of `sample_program` jobs computed during
//!   set-up, so nearly every request is a cache hit.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ccdp_bench::synth::{random_program, SynthConfig};
use ccdp_core::{PipelineConfig, Scheme};
use ccdp_ir::{parse_program, print_program};
use ccdp_json::{Json, ToJson};
use ccdp_serve::api::{run_job, sample_program, JobSpec, RetryPolicy, CYCLE_BUDGET, STEP_BUDGET};
use ccdp_serve::http;
use ccdp_serve::journal::JobJournal;
use t3d_sim::SimOptions;

use crate::replay::{self, Counts};
use crate::stats::{digest, median, percentile, tail_percentile, Tally};
use crate::trace::Tracer;
use crate::{Metric, Outcome};

/// Jobs in the `serve-distinct` pool; a run that uses them all fails.
pub const POOL: usize = 8192;
/// Requests a measured phase completes at least, so p99 has ten samples
/// beyond it.
const MIN_REQUESTS: usize = 1000;
/// Closed-loop clients: one per core of the two-core reference host.
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Seconds of load before the measured phase, so the fresh daemon's
/// workers have faulted in their memory before timing starts.
const WARMUP_S: f64 = 1.0;
/// ccdpd spawns timed for `setup_s`: a spawn takes 5-30 ms and varies
/// with the host, so several are timed and the median reported.
const SETUP_REPS: usize = 15;
/// A measured phase ends here even short of `MIN_REQUESTS`.
const HARD_CAP_S: f64 = 100.0;
const HOT_JOBS: usize = 8;
/// `serve-distinct` jobs replayed in process by a traced run.
const DISTINCT_REPLAYS: usize = 24;
const DEADLINE_MS: u64 = 10_000;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Distinct,
    Hot,
}

fn spec(program_text: String, n_pes: usize) -> JobSpec {
    JobSpec {
        program_text,
        n_pes,
        schemes: vec![Scheme::Base, Scheme::Ccdp],
        deadline_ms: DEADLINE_MS,
    }
}

/// Job `i` of the `serve-distinct` pool: extent 32 or 40, 32 or 64 PEs.
pub fn distinct_spec(i: usize) -> JobSpec {
    let cfg = SynthConfig {
        extent: [32, 40][i % 2],
        ..SynthConfig::default()
    };
    spec(
        print_program(&random_program(i as u64, &cfg)),
        [32, 64][(i / 2) % 2],
    )
}

fn hot_specs(seed: u64) -> Vec<JobSpec> {
    let first = (mix(seed) % 16) as usize;
    (0..HOT_JOBS)
        .map(|k| spec(sample_program(12 + (first + k) % 16, 2), [4, 8][k % 2]))
        .collect()
}

/// Pool index of request `k` of a `serve-distinct` run: a seeded walk that
/// visits every pool job once.
fn distinct_index(seed: u64, k: usize) -> Option<usize> {
    let offset = (mix(seed) % POOL as u64) as usize;
    let stride = (mix(seed ^ 0x5151) % POOL as u64) as usize | 1;
    (k < POOL).then(|| (offset + k * stride) % POOL)
}

/// SplitMix64 step: the benchmark's seeded choices.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// ------------------------------------------------------------------ HTTP

fn post_request(s: &JobSpec) -> Vec<u8> {
    let body = s.to_json().to_string();
    format!(
        "POST /jobs HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn exchange(addr: &str, req: &[u8]) -> std::io::Result<Vec<u8>> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(60)))?;
    s.set_nodelay(true)?;
    s.write_all(req)?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw)?;
    Ok(raw)
}

fn get(addr: &str, path: &str) -> std::io::Result<Vec<u8>> {
    exchange(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes(),
    )
}

fn status_of(raw: &[u8]) -> u16 {
    raw.split(|&b| b == b' ')
        .nth(1)
        .and_then(|s| std::str::from_utf8(s).ok()?.parse().ok())
        .unwrap_or(0)
}

fn body_of(raw: &[u8]) -> &[u8] {
    raw.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map_or(&[][..], |p| &raw[p + 4..])
}

fn json_of(raw: &[u8]) -> Option<Json> {
    ccdp_json::parse(std::str::from_utf8(body_of(raw)).ok()?).ok()
}

// ---------------------------------------------------------------- ccdpd

/// Build the repository's ccdpd and return its path. When
/// `CARGO_TARGET_DIR` is set, this build and the benchmark's own both go
/// there.
fn build_ccdpd() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "ccdp-serve",
            "--bin",
            "ccdpd",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err("building ccdpd failed".to_string());
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    Ok(Path::new(&target).join("release").join("ccdpd"))
}

#[derive(Default)]
struct View {
    addr: Option<String>,
    workers: Vec<(usize, String)>,
}

struct Daemon {
    child: Child,
    view: Arc<Mutex<View>>,
    reader: Option<JoinHandle<()>>,
    addr: String,
}

impl Daemon {
    /// Spawn ccdpd and wait until `/readyz` answers 200 with every worker
    /// live. It runs without `--journal-dir`: a journaled job fsyncs twice,
    /// and on the reference host's shared disk the 90th percentile of an
    /// fsync was under 1 ms or, for minutes at a time, 5-10 ms, which split
    /// `serve-distinct` runs into two groups 1.7x apart. The journal's own
    /// cost is the per-layer `serve.journal_append_ms`.
    fn start(ccdpd: &Path) -> Result<Daemon, String> {
        let mut cmd = Command::new(ccdpd);
        for (k, _) in std::env::vars().filter(|(k, _)| crate::is_program_knob(k)) {
            cmd.env_remove(k);
        }
        cmd.args(["--addr", "127.0.0.1:0", "--workers", &WORKERS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn ccdpd: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let view = Arc::new(Mutex::new(View::default()));
        let seen = Arc::clone(&view);
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                let mut v = seen.lock().expect("view lock");
                if let Some(a) = line.strip_prefix("ccdpd listening on ") {
                    v.addr = Some(a.trim().to_string());
                } else if let Some(rest) = line.strip_prefix("ccdpd worker ") {
                    let f: Vec<&str> = rest.split_whitespace().collect();
                    if let [slot, "pid", pid] = f[..] {
                        if let Ok(slot) = slot.parse() {
                            v.workers.retain(|(s, _)| *s != slot);
                            v.workers.push((slot, pid.to_string()));
                        }
                    }
                }
            }
        });
        let mut d = Daemon {
            child,
            view,
            reader: Some(reader),
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let addr = d.view.lock().expect("view lock").addr.clone();
            if let Some(addr) = addr {
                let live = get(&addr, "/readyz")
                    .ok()
                    .filter(|r| status_of(r) == 200)
                    .and_then(|r| json_of(&r));
                let alive = live
                    .as_ref()
                    .and_then(|j| j.get("workers_alive"))
                    .and_then(Json::as_u64);
                if alive == Some(WORKERS as u64) {
                    d.addr = addr;
                    return Ok(d);
                }
            }
            if Instant::now() > deadline || d.child.try_wait().map_or(true, |s| s.is_some()) {
                return Err("ccdpd never became ready".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Summed VmHWM of the supervisor and its live workers.
    fn peak_rss_mb(&self) -> f64 {
        let mut pids = vec![self.child.id().to_string()];
        pids.extend(
            self.view
                .lock()
                .expect("view lock")
                .workers
                .iter()
                .map(|(_, p)| p.clone()),
        );
        pids.iter().filter_map(|p| crate::peak_rss_mb(p)).sum()
    }

    fn stats(&self) -> Json {
        get(&self.addr, "/stats")
            .ok()
            .and_then(|r| json_of(&r))
            .unwrap_or(Json::Null)
    }

    /// SIGTERM, then wait for the drain; true when it exits 0.
    fn drain(mut self) -> bool {
        let sent = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .is_ok_and(|s| s.success());
        let deadline = Instant::now() + Duration::from_secs(60);
        let code = loop {
            match self.child.try_wait() {
                Ok(Some(st)) => break st.code(),
                Ok(None) if sent && Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => break None,
            }
        };
        code == Some(0)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

// ------------------------------------------------------------- the load

struct Sample {
    k: usize,
    ms: f64,
    /// Completion time, seconds from the start of the phase.
    done_s: f64,
}

/// Slices the measured completions are cut into; `wall_s` and `p50_ms`
/// are medians over them, so a burst of host contention that slows a few
/// slices does not move the result.
const SLICES: usize = 30;

/// The measured completions, in completion order, cut into `SLICES` runs of
/// equal count (the remainder is dropped). Per slice: seconds per 1000
/// requests, from the completion before the slice (or the start of the
/// phase) to its last, and the slice's median latency.
fn slices(samples: &[Sample]) -> Vec<(f64, f64)> {
    let mut done: Vec<&Sample> = samples.iter().collect();
    done.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
    let per = (done.len() / SLICES).max(1);
    let mut from = 0.0;
    done.chunks_exact(per)
        .map(|c| {
            let to = c[c.len() - 1].done_s;
            let rate = (to - from) * 1000.0 / c.len() as f64;
            from = to;
            (rate, median(&c.iter().map(|s| s.ms).collect::<Vec<_>>()))
        })
        .collect()
}

/// Closed-loop load: `CLIENTS` threads each send request `k` (from `job`),
/// wait for its last byte and send the next. The first `WARMUP_S` are
/// checked but not measured; the measured phase then runs until `seconds`
/// have passed and `MIN_REQUESTS` have completed in it. Running out of jobs
/// before then is a failed operation. Returns the measured samples in
/// completion order and the measured phase's wall seconds.
fn drive(
    addr: &str,
    seconds: f64,
    tally: &mut Tally,
    job: impl Fn(usize) -> Option<Vec<u8>> + Sync,
    check: impl Fn(usize, &[u8]) -> bool + Sync,
) -> (Vec<Sample>, f64) {
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let start = Instant::now();
    // Seconds into the measured phase; negative during the warm-up.
    let phase = || start.elapsed().as_secs_f64() - WARMUP_S;
    let per_client: Vec<(Vec<Sample>, Tally)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut samples = Vec::new();
                    let mut tally = Tally::default();
                    loop {
                        let el = phase();
                        if el >= HARD_CAP_S
                            || (el >= seconds && done.load(Ordering::SeqCst) >= MIN_REQUESTS)
                        {
                            break;
                        }
                        let k = next.fetch_add(1, Ordering::SeqCst);
                        let Some(req) = job(k) else {
                            // A job source that runs dry before the phase
                            // is over would end the phase early and skew
                            // its slices, so it fails the run instead.
                            eprintln!("perfbench: job source used up after {k} requests");
                            tally.record(false);
                            break;
                        };
                        let t = Instant::now();
                        let resp = exchange(addr, &req);
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        tally.record(resp.is_ok_and(|r| check(k, &r)));
                        let done_s = phase();
                        if done_s >= 0.0 {
                            done.fetch_add(1, Ordering::SeqCst);
                            samples.push(Sample { k, ms, done_s });
                        }
                    }
                    (samples, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = phase();
    let mut samples = Vec::new();
    for (s, t) in per_client {
        samples.extend(s);
        tally.merge(t);
    }
    (samples, wall)
}

/// Per-run scratch space for the traced replay's journal, removed when the
/// run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Scratch, String> {
        let p = PathBuf::from(".perfbench-tmp").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).map_err(|e| format!("cannot create {}: {e}", p.display()))?;
        Ok(Scratch(p))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".perfbench-tmp");
    }
}

/// The job source of a workload: request bytes and expected body digest
/// by request number.
struct Jobs {
    mix: Mix,
    seed: u64,
    distinct: Vec<u64>,
    hot: Vec<JobSpec>,
    hot_requests: Vec<Vec<u8>>,
    /// Full responses of the hot set's set-up requests.
    hot_responses: Vec<Vec<u8>>,
}

impl Jobs {
    /// Pool index (`serve-distinct`) or hot-set index of request `k`.
    fn index(&self, k: usize) -> Option<usize> {
        match self.mix {
            Mix::Distinct => distinct_index(self.seed, k),
            Mix::Hot => Some((mix(self.seed.wrapping_add(k as u64)) % HOT_JOBS as u64) as usize),
        }
    }

    fn request(&self, k: usize) -> Option<Vec<u8>> {
        let i = self.index(k)?;
        Some(match self.mix {
            Mix::Distinct => post_request(&distinct_spec(i)),
            Mix::Hot => self.hot_requests[i].clone(),
        })
    }

    /// A distinct job's body must match its pool digest; a hot response
    /// must be byte-identical to the set-up response of its job.
    fn check(&self, k: usize, raw: &[u8]) -> bool {
        status_of(raw) == 200
            && match (self.mix, self.index(k)) {
                (Mix::Distinct, Some(i)) => digest(body_of(raw)) == self.distinct[i],
                (Mix::Hot, Some(i)) => self.hot_responses.get(i).is_some_and(|r| r == raw),
                _ => false,
            }
    }
}

/// Set up one daemon: spawn until ready, then for `serve-hot` compute the
/// hot set through it. Returns the daemon, the set-up seconds and the
/// set-up requests' latencies in milliseconds.
fn set_up(
    ccdpd: &Path,
    jobs: &mut Jobs,
    want_hot: &[u64],
    tally: &mut Tally,
) -> Result<(Daemon, f64, Vec<f64>), String> {
    let t0 = Instant::now();
    let d = Daemon::start(ccdpd)?;
    let mut lat = Vec::new();
    if jobs.mix == Mix::Hot {
        jobs.hot_responses.clear();
        for (req, want) in jobs.hot_requests.iter().zip(want_hot) {
            let t = Instant::now();
            let raw = exchange(&d.addr, req).unwrap_or_default();
            lat.push(t.elapsed().as_secs_f64() * 1e3);
            tally.record(status_of(&raw) == 200 && digest(body_of(&raw)) == *want);
            jobs.hot_responses.push(raw);
        }
    }
    Ok((d, t0.elapsed().as_secs_f64(), lat))
}

pub fn run(mix_kind: Mix, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let ccdpd = build_ccdpd()?;
    let scratch = Scratch::new()?;
    let hot = hot_specs(seed);
    // Expected bodies of the hot set, computed in process before timing.
    let want_hot: Vec<u64> = match mix_kind {
        Mix::Hot => hot
            .iter()
            .map(|s| {
                digest(
                    run_job(s, &RetryPolicy::default())
                        .body
                        .to_string()
                        .as_bytes(),
                )
            })
            .collect(),
        Mix::Distinct => Vec::new(),
    };
    let mut jobs = Jobs {
        mix: mix_kind,
        seed,
        distinct: match mix_kind {
            Mix::Distinct => crate::reference::distinct()?,
            Mix::Hot => Vec::new(),
        },
        hot_requests: hot.iter().map(post_request).collect(),
        hot,
        hot_responses: Vec::new(),
    };
    let mut out = Outcome::default();
    let reps = if trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::with_capacity(reps);
    let mut daemon = None;
    let mut setup_lat = Vec::new();
    for _ in 0..reps {
        if let Some(old) = daemon.take() {
            out.tally.record(Daemon::drain(old));
        }
        let (d, secs, lat) = set_up(&ccdpd, &mut jobs, &want_hot, &mut out.tally)?;
        setups.push(secs);
        setup_lat = lat;
        daemon = Some(d);
    }
    let d = daemon.expect("at least one set-up");

    let before = d.stats();
    let (samples, wall) = drive(
        &d.addr,
        seconds,
        &mut out.tally,
        |k| jobs.request(k),
        |k, raw| jobs.check(k, raw),
    );
    let after = d.stats();
    let rss = d.peak_rss_mb();
    out.tally.record(d.drain());

    let mut lat: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    lat.sort_by(f64::total_cmp);
    let n = lat.len();
    if n == 0 {
        return Err("no request completed".to_string());
    }
    let tail = tail_percentile(n);
    let per_slice = slices(&samples);
    out.details = vec![
        ("requests", n.to_json()),
        ("tail_percentile", tail.map_or(Json::Null, |p| p.to_json())),
        (
            "tail_ms",
            tail.map_or(Json::Null, |p| percentile(&lat, f64::from(p)).to_json()),
        ),
        (
            "setup_samples_s",
            Json::arr(setups.iter().map(|x| x.to_json())),
        ),
        ("phase_s", wall.to_json()),
        ("p50_all_ms", percentile(&lat, 50.0).to_json()),
        (
            "slice_s_per_1000",
            Json::arr(per_slice.iter().map(|w| w.0.to_json())),
        ),
        ("req_per_s", (n as f64 / wall).to_json()),
    ];
    if trace {
        let replays: Vec<Replay> = match mix_kind {
            Mix::Distinct => {
                let mut first: Vec<&Sample> = samples.iter().collect();
                first.sort_by_key(|s| s.k);
                first
                    .iter()
                    .take(DISTINCT_REPLAYS)
                    .filter_map(|s| {
                        jobs.index(s.k).map(|i| Replay {
                            spec: distinct_spec(i),
                            latency_ms: s.ms,
                            digest: jobs.distinct[i],
                        })
                    })
                    .collect()
            }
            Mix::Hot => jobs
                .hot
                .iter()
                .zip(setup_lat)
                .zip(&want_hot)
                .map(|((spec, latency_ms), &digest)| Replay {
                    spec: spec.clone(),
                    latency_ms,
                    digest,
                })
                .collect(),
        };
        traced(&replays, &before, &after, &scratch.0, &mut out);
    } else {
        out.metrics = vec![
            Metric::new(
                "wall_s",
                median(&per_slice.iter().map(|w| w.0).collect::<Vec<_>>()),
                per_slice.len(),
            ),
            Metric::new(
                "p50_ms",
                median(&per_slice.iter().map(|w| w.1).collect::<Vec<_>>()),
                per_slice.len(),
            ),
            Metric::new("peak_rss_mb", rss, 1 + WORKERS),
            Metric::new("setup_s", median(&setups), setups.len()),
        ];
    }
    Ok(out)
}

fn stat_delta(before: &Json, after: &Json, key: &str) -> u64 {
    let v = |j: &Json| j.get(key).and_then(Json::as_u64).unwrap_or(0);
    v(after).saturating_sub(v(before))
}

/// A served job replayed in process by a traced run.
struct Replay {
    spec: JobSpec,
    /// Client latency of a request that computed this job.
    latency_ms: f64,
    /// Expected digest of the response body.
    digest: u64,
}

/// Replay each served job in process: once through `run_job` untraced,
/// once call by call under spans, and through a job journal.
fn traced(replays: &[Replay], before: &Json, after: &Json, dir: &Path, out: &mut Outcome) {
    let mut t = Tracer::default();
    let mut c = Counts::default();
    let (mut run_job_ms, mut overhead_ms, mut journal_ms) = (0.0, 0.0, 0.0);
    let journal = JobJournal::open(&dir.join("replay.jsonl"), false, 0)
        .ok()
        .map(|(j, _)| j);
    let journal_start = journal.as_ref().map_or(0, JobJournal::bytes);
    for Replay {
        spec,
        latency_ms,
        digest: want,
    } in replays
    {
        let t0 = Instant::now();
        let res = run_job(spec, &RetryPolicy::default());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        run_job_ms += ms;
        overhead_ms += latency_ms - ms;
        let bytes = t.span("json.encode", |_| {
            http::response_bytes(res.status.0, res.status.1, &res.body.to_string())
        });
        let body = body_of(&bytes);
        c.json_bytes += body.len() as u64;
        out.tally
            .record(res.status.0 == 200 && digest(body) == *want);
        out.tally
            .record(replay_job(&mut t, &mut c, spec, &res.body));
        let fp = spec.fingerprint().to_hex();
        let tj = Instant::now();
        let ok = journal
            .as_ref()
            .is_some_and(|j| j.record_job(&fp, spec).is_ok() && j.record_done(&fp, &bytes).is_ok());
        journal_ms += tj.elapsed().as_secs_f64() * 1e3;
        out.tally.record(ok);
    }
    let n = replays.len().max(1) as f64;
    let journal_bytes = journal.as_ref().map_or(0, |j| j.bytes() - journal_start);
    out.metrics = replay::layer_metrics(&t, &c, replays.len());
    let hits = stat_delta(before, after, "cache_hits") + stat_delta(before, after, "cache_joins");
    let lookups = hits + stat_delta(before, after, "cache_misses");
    let traced_ms = t.total_ms("serve.job");
    out.metrics.extend([
        Metric::new("serve.overhead_ms", overhead_ms / n, replays.len()),
        Metric::new("serve.journal_append_ms", journal_ms / n, replays.len()),
        Metric::new(
            "serve.journal_bytes",
            journal_bytes as f64 / n,
            replays.len(),
        ),
        Metric::new(
            "serve.cache_hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
            lookups as usize,
        ),
        Metric::new("serve.cache_lookups", lookups as f64, 1),
        Metric::new("serve.shed", stat_delta(before, after, "shed") as f64, 1),
        Metric::new(
            "serve.restarts",
            stat_delta(before, after, "restarts") as f64,
            1,
        ),
        Metric::new(
            "serve.redispatches",
            stat_delta(before, after, "redispatches") as f64,
            1,
        ),
        Metric::new(
            "serve.http_errors",
            stat_delta(before, after, "http_errors") as f64,
            1,
        ),
        Metric::new(
            "bench.trace_overhead",
            traced_ms / run_job_ms.max(f64::MIN_POSITIVE),
            replays.len(),
        ),
    ]);
}

/// `run_job`'s pipeline, call by call: parse, then `compare` as the worker
/// runs it. True when cycles and read counts equal the response body's.
fn replay_job(t: &mut Tracer, c: &mut Counts, spec: &JobSpec, body: &Json) -> bool {
    t.span("serve.job", |t| {
        let Ok(program) = t.span("ir.parse", |_| parse_program(&spec.program_text)) else {
            return false;
        };
        let cfg = PipelineConfig::t3d(spec.n_pes)
            .with_verify(true)
            .with_sim(SimOptions {
                cycle_budget: Some(CYCLE_BUDGET),
                step_budget: Some(STEP_BUDGET),
                wall_deadline: Some(Instant::now() + Duration::from_millis(spec.deadline_ms)),
                ..SimOptions::default()
            });
        let Ok(seq) = replay::seq(t, c, &program, &cfg) else {
            return false;
        };
        let Ok(m) = replay::compare(t, c, &program, &cfg, seq, &spec.schemes) else {
            return false;
        };
        let n = |key: &str| body.get(key).and_then(Json::as_u64);
        n("seq_cycles") == Some(m.seq.cycles)
            && n("stale_reads") == Some(m.stale_reads as u64)
            && n("shared_reads") == Some(m.shared_reads as u64)
            && spec.schemes.iter().all(|&s| {
                body.get("schemes")
                    .and_then(|j| j.get(s.key()))
                    .and_then(|j| j.get("cycles"))
                    .and_then(Json::as_u64)
                    == m.cycles(s)
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_walk_visits_every_pool_job_once() {
        for seed in [0, 1, 77] {
            let mut seen = vec![false; POOL];
            for k in 0..POOL {
                let i = distinct_index(seed, k).unwrap();
                assert!(!seen[i], "seed {seed}: job {i} repeated");
                seen[i] = true;
            }
            assert_eq!(distinct_index(seed, POOL), None);
        }
        assert_ne!(distinct_index(1, 0), distinct_index(2, 0));
    }

    #[test]
    fn slices_take_rate_and_median_per_slice() {
        let at = |done_s: f64, ms: f64| Sample { k: 0, ms, done_s };
        // Fewer completions than slices: one per slice, in completion order.
        let s = [at(0.5, 1.0), at(0.2, 3.0), at(1.5, 2.0)];
        assert_eq!(slices(&s), vec![(200.0, 3.0), (300.0, 1.0), (1000.0, 2.0)]);
        // 61 completions, one every 0.1 s: 30 slices of two, the last
        // completion dropped.
        let s: Vec<Sample> = (1..=61).map(|i| at(i as f64 * 0.1, i as f64)).collect();
        let w = slices(&s);
        assert_eq!(w.len(), SLICES);
        assert!(w.iter().all(|&(rate, _)| (rate - 100.0).abs() < 1e-9));
        assert_eq!(w[0].1, 1.5);
        assert_eq!(w[SLICES - 1].1, 59.5);
    }

    #[test]
    fn response_parsing() {
        let raw = http::response_bytes(200, "OK", "{\"a\":1}");
        assert_eq!(status_of(&raw), 200);
        assert_eq!(body_of(&raw), b"{\"a\":1}");
        assert_eq!(
            json_of(&raw).and_then(|j| j.get("a").and_then(Json::as_u64)),
            Some(1)
        );
        assert_eq!(status_of(b"garbage"), 0);
    }

    #[test]
    fn pool_jobs_vary_extent_and_pes() {
        let a = distinct_spec(0);
        let b = distinct_spec(1);
        let c = distinct_spec(2);
        assert_eq!((a.n_pes, b.n_pes, c.n_pes), (32, 32, 64));
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a, distinct_spec(0));
    }
}
