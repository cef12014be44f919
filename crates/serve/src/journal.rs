//! Crash-safe job-state journals for the supervised service.
//!
//! Built on `ccdp_core::Journal`, the fingerprinted line journal
//! (exact-match header, fsync-per-line appends, torn-final-line recovery
//! with atomic compaction), specialized to job lifecycles. Two line kinds:
//!
//! * `{"kind":"job", "fingerprint":…, "spec":{…}}` — appended (and
//!   fsynced) *before* a job is handed to a worker process;
//! * `{"kind":"done", "fingerprint":…, "response":"…"}` — the complete
//!   serialized HTTP response bytes, appended after a deterministic
//!   outcome.
//!
//! **Shared journal directory.** The supervisor keeps one journal per
//! worker slot (`worker-<slot>.jsonl`) in a shared directory, so N slots
//! fsync concurrently instead of serializing on one file. On restart,
//! [`replay_dir`] unions every slot journal, fingerprint-deduped: a job
//! re-dispatched from a dead worker leaves a dangling `job` line in the
//! old slot's journal and a `done` line in the new slot's — the union
//! counts it once, completed. Completed jobs preload the cache (re-asking
//! is byte-identical to the pre-crash answer, headers included); jobs with
//! no `done` line anywhere are re-run before the listener opens.
//!
//! **Bounded growth.** Cache eviction plus resubmission appends fresh
//! `job`/`done` pairs for fingerprints already settled, so an append-only
//! journal grows without bound under a duplicate storm. When a slot
//! journal exceeds its byte threshold it is compacted: superseded lines
//! (any line for a fingerprint that has a later `done`, and older
//! duplicates of the same kind) are dropped and the file is atomically
//! rewritten (temp + rename + dir fsync — a crash mid-compaction leaves
//! either the old or the new complete journal, never a mix). The
//! compaction invariants: the replayed completed set maps every
//! fingerprint to its *latest* response bytes, and no incomplete job is
//! ever dropped.

use std::path::{Path, PathBuf};

use ccdp_core::Journal;
use ccdp_json::{Json, ToJson};

use crate::api::JobSpec;

/// Default compaction threshold for slot journals. Crossing it triggers a
/// compacting rewrite; live state (distinct fingerprints) can legitimately
/// exceed it, so it bounds *garbage*, not state.
pub const DEFAULT_COMPACT_BYTES: u64 = 4 * 1024 * 1024;

/// Exact-match header line; any other first line means "not our journal,
/// start fresh" (same contract as the benchmark grid journal). Schema 2:
/// per-slot journals in a shared directory, compaction may drop superseded
/// lines.
pub fn header() -> String {
    Json::obj([
        ("kind", "header".to_json()),
        ("tool", "ccdpd".to_json()),
        ("schema", 2u64.to_json()),
    ])
    .to_string()
}

/// Slot journal path inside the shared directory.
pub fn slot_path(dir: &Path, slot: usize) -> PathBuf {
    dir.join(format!("worker-{slot}.jsonl"))
}

fn job_line(fp: &str, spec: &JobSpec) -> String {
    Json::obj([
        ("kind", "job".to_json()),
        ("fingerprint", fp.to_json()),
        ("spec", spec.to_json()),
    ])
    .to_string()
}

fn done_line(fp: &str, response: &[u8]) -> String {
    let text = std::str::from_utf8(response).unwrap_or("");
    Json::obj([
        ("kind", "done".to_json()),
        ("fingerprint", fp.to_json()),
        ("response", text.to_json()),
    ])
    .to_string()
}

/// What a journal replay recovered.
#[derive(Default)]
pub struct Replay {
    /// `(fingerprint, response bytes)` of completed jobs, in journal order.
    pub completed: Vec<(String, Vec<u8>)>,
    /// Specs journaled but never completed (in-flight at crash time),
    /// fingerprint-deduped against `completed` and each other.
    pub incomplete: Vec<(String, JobSpec)>,
}

/// One worker slot's journal: a mutex over the fsyncing appender (the
/// dispatching thread and nobody else writes it, but `&self` recording
/// keeps the supervisor's sharing simple), with threshold-triggered
/// compaction.
pub struct JobJournal {
    inner: Journal,
    compact_bytes: u64,
}

impl JobJournal {
    /// Open (resuming) or create (truncating) a journal at `path`.
    /// `compact_bytes == 0` disables compaction.
    pub fn open(
        path: &Path,
        resume: bool,
        compact_bytes: u64,
    ) -> std::io::Result<(JobJournal, Replay)> {
        if !resume {
            let j = Journal::create(path, &header())?;
            return Ok((JobJournal { inner: j, compact_bytes }, Replay::default()));
        }
        let (j, lines) =
            Journal::resume_lines(path, &header(), |l| ccdp_json::parse(l).is_ok())?;
        let mut replay = Replay::default();
        fold_lines(&mut replay, lines.iter().map(String::as_str));
        Ok((JobJournal { inner: j, compact_bytes }, replay))
    }

    /// Create a fresh journal at `path` pre-seeded with `done` lines (the
    /// redistributed completed set of a directory resume). The seed lines
    /// are written in one atomic batch, not fsynced one by one.
    pub fn create_with_done(
        path: &Path,
        completed: &[(String, Vec<u8>)],
        compact_bytes: u64,
    ) -> std::io::Result<JobJournal> {
        let j = Journal::create(path, &header())?;
        let lines: Vec<String> =
            completed.iter().map(|(fp, bytes)| done_line(fp, bytes)).collect();
        j.rewrite(&header(), &lines)?;
        Ok(JobJournal { inner: j, compact_bytes })
    }

    /// Record a job before it is dispatched. The fsync in `append_line`
    /// makes this the durability point: after it returns, a crash anywhere
    /// in the computation leaves a replayable record.
    pub fn record_job(&self, fp: &str, spec: &JobSpec) -> std::io::Result<()> {
        self.inner.append_line(&job_line(fp, spec))?;
        self.maybe_compact()
    }

    /// Record a deterministic outcome: the complete response bytes. The
    /// response is HTTP text (ASCII head + JSON body), stored as one JSON
    /// string.
    pub fn record_done(&self, fp: &str, response: &[u8]) -> std::io::Result<()> {
        self.inner.append_line(&done_line(fp, response))?;
        self.maybe_compact()
    }

    /// Current on-disk size (observability and the growth-bound test).
    pub fn bytes(&self) -> u64 {
        self.inner.bytes()
    }

    fn maybe_compact(&self) -> std::io::Result<()> {
        if self.compact_bytes == 0 || self.inner.bytes() <= self.compact_bytes {
            return Ok(());
        }
        let lines = self.inner.lines()?;
        let compacted = compact_lines(&lines);
        // Only rewrite when compaction actually reclaims space; a journal
        // full of live distinct state would otherwise rewrite on every
        // append past the threshold.
        if compacted.len() < lines.len() {
            self.inner.rewrite(&header(), &compacted)?;
        }
        Ok(())
    }
}

/// Pure compaction: drop superseded lines. A `done` supersedes every
/// earlier line for its fingerprint (the job is settled; replay needs only
/// the latest response bytes); a later duplicate of the same kind
/// supersedes an earlier one. First-seen order is preserved so replay
/// order stays stable.
pub fn compact_lines(lines: &[String]) -> Vec<String> {
    use std::collections::HashMap;
    let mut order: Vec<String> = Vec::new();
    let mut jobs: HashMap<String, &String> = HashMap::new();
    let mut dones: HashMap<String, &String> = HashMap::new();
    for line in lines {
        let Ok(doc) = ccdp_json::parse(line) else { continue };
        let Some(fp) = doc.get("fingerprint").and_then(Json::as_str) else { continue };
        if fp.is_empty() {
            continue;
        }
        let is_job = match doc.get("kind").and_then(Json::as_str) {
            Some("job") => true,
            Some("done") => false,
            _ => continue,
        };
        if !jobs.contains_key(fp) && !dones.contains_key(fp) {
            order.push(fp.to_string());
        }
        if is_job {
            jobs.insert(fp.to_string(), line);
        } else {
            dones.insert(fp.to_string(), line);
        }
    }
    order
        .iter()
        .filter_map(|fp| dones.get(fp).or_else(|| jobs.get(fp)))
        .map(|l| (*l).to_string())
        .collect()
}

/// Fold journal lines into a replay, fingerprint-deduped: a `done` settles
/// its fingerprint (later `done`s overwrite the bytes — byte-identical by
/// construction anyway), and `job` lines only count while unsettled.
fn fold_lines<'a>(replay: &mut Replay, lines: impl Iterator<Item = &'a str>) {
    for line in lines {
        let Ok(doc) = ccdp_json::parse(line) else { continue };
        let fp = doc.get("fingerprint").and_then(Json::as_str).unwrap_or("");
        if fp.is_empty() {
            continue;
        }
        match doc.get("kind").and_then(Json::as_str) {
            Some("job") => {
                let Some(spec_json) = doc.get("spec") else { continue };
                // `default_deadline_ms` is irrelevant: journaled specs
                // always carry an explicit deadline.
                if let Ok(spec) = JobSpec::from_json(spec_json, 5000) {
                    let seen = replay.incomplete.iter().any(|(f, _)| f == fp)
                        || replay.completed.iter().any(|(f, _)| f == fp);
                    if !seen {
                        replay.incomplete.push((fp.to_string(), spec));
                    }
                }
            }
            Some("done") => {
                if let Some(resp) = doc.get("response").and_then(Json::as_str) {
                    replay.incomplete.retain(|(f, _)| f != fp);
                    if let Some(slot) =
                        replay.completed.iter_mut().find(|(f, _)| f == fp)
                    {
                        slot.1 = resp.as_bytes().to_vec();
                    } else {
                        replay.completed.push((fp.to_string(), resp.as_bytes().to_vec()));
                    }
                }
            }
            _ => {}
        }
    }
}

/// List the slot journals present in `dir`, sorted by slot number.
pub fn dir_journals(dir: &Path) -> Vec<PathBuf> {
    let Ok(rd) = std::fs::read_dir(dir) else { return Vec::new() };
    let mut found: Vec<(usize, PathBuf)> = rd
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let slot: usize =
                name.strip_prefix("worker-")?.strip_suffix(".jsonl")?.parse().ok()?;
            Some((slot, e.path()))
        })
        .collect();
    found.sort_by_key(|(slot, _)| *slot);
    found.into_iter().map(|(_, p)| p).collect()
}

/// Union-replay every slot journal in `dir` (tolerating a missing
/// directory), fingerprint-deduped across files: completed anywhere wins
/// over incomplete anywhere — the cross-file signature of a re-dispatched
/// job.
pub fn replay_dir(dir: &Path) -> Replay {
    let mut replay = Replay::default();
    for path in dir_journals(dir) {
        let text = match std::fs::read(&path) {
            Ok(t) => String::from_utf8_lossy(&t).into_owned(),
            Err(_) => continue,
        };
        let mut lines = text.lines();
        if lines.next() != Some(header().as_str()) {
            eprintln!("ccdpd: journal {} has a foreign header; skipped", path.display());
            continue;
        }
        fold_lines(&mut replay, lines.take_while(|l| ccdp_json::parse(l).is_ok()));
    }
    // Incomplete jobs completed in a *later* file were already retained
    // correctly (fold_lines settles across calls); nothing more to dedupe.
    replay
}

/// Prepare the shared journal directory for `n_slots` workers.
///
/// Without `resume`: every slot journal starts fresh and stale
/// `worker-*.jsonl` files from a previous larger fleet are removed.
///
/// With `resume`: the directory is union-replayed first; the completed set
/// is redistributed round-robin into fresh compacted slot journals (so
/// repeated crash/resume cycles re-bound the files instead of accreting
/// dangling `job` lines), and the deduped incomplete set is returned for
/// the caller to re-run.
pub fn open_dir(
    dir: &Path,
    n_slots: usize,
    resume: bool,
    compact_bytes: u64,
) -> std::io::Result<(Vec<JobJournal>, Replay)> {
    std::fs::create_dir_all(dir)?;
    let replay = if resume { replay_dir(dir) } else { Replay::default() };
    // Remove every existing slot file; survivors are rebuilt below.
    for path in dir_journals(dir) {
        std::fs::remove_file(&path).ok();
    }
    let mut shares: Vec<Vec<(String, Vec<u8>)>> = (0..n_slots).map(|_| Vec::new()).collect();
    for (i, entry) in replay.completed.iter().enumerate() {
        shares[i % n_slots].push(entry.clone());
    }
    let mut journals = Vec::with_capacity(n_slots);
    for (slot, share) in shares.iter().enumerate() {
        journals.push(JobJournal::create_with_done(
            &slot_path(dir, slot),
            share,
            compact_bytes,
        )?);
    }
    Ok((journals, replay))
}

#[cfg(test)]
mod unit {
    use super::*;
    use crate::api::sample_program;
    use ccdp_core::Scheme;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("ccdpd-journal-test-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn spec_sized(size: usize) -> JobSpec {
        JobSpec {
            program_text: sample_program(size, 1),
            n_pes: 2,
            schemes: vec![Scheme::Base, Scheme::Ccdp],
            deadline_ms: 3000,
        }
    }

    fn spec() -> JobSpec {
        spec_sized(8)
    }

    #[test]
    fn job_then_done_replays_completed() {
        let path = tmp("done").join("jobs.jsonl");
        let (j, _) = JobJournal::open(&path, false, 0).unwrap();
        let s = spec();
        let fp = s.fingerprint().to_hex();
        j.record_job(&fp, &s).unwrap();
        j.record_done(&fp, b"HTTP/1.1 200 OK\r\n\r\n{}").unwrap();
        drop(j);
        let (_, replay) = JobJournal::open(&path, true, 0).unwrap();
        assert!(replay.incomplete.is_empty());
        assert_eq!(replay.completed.len(), 1);
        assert_eq!(replay.completed[0].0, fp);
        assert_eq!(replay.completed[0].1, b"HTTP/1.1 200 OK\r\n\r\n{}");
    }

    #[test]
    fn job_without_done_replays_incomplete() {
        let path = tmp("incomplete").join("jobs.jsonl");
        let (j, _) = JobJournal::open(&path, false, 0).unwrap();
        let s = spec();
        let fp = s.fingerprint().to_hex();
        j.record_job(&fp, &s).unwrap();
        drop(j);
        let (_, replay) = JobJournal::open(&path, true, 0).unwrap();
        assert_eq!(replay.completed.len(), 0);
        assert_eq!(replay.incomplete.len(), 1);
        assert_eq!(replay.incomplete[0].0, fp);
        assert_eq!(replay.incomplete[0].1, s);
    }

    #[test]
    fn torn_final_line_is_dropped_and_journal_reusable() {
        let path = tmp("torn").join("jobs.jsonl");
        let (j, _) = JobJournal::open(&path, false, 0).unwrap();
        let s = spec();
        let fp = s.fingerprint().to_hex();
        j.record_job(&fp, &s).unwrap();
        j.record_done(&fp, b"response-bytes").unwrap();
        drop(j);
        // Simulate a crash mid-append: a torn, unparseable tail.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"kind\":\"job\",\"finger").unwrap();
        drop(f);
        let (j2, replay) = JobJournal::open(&path, true, 0).unwrap();
        assert_eq!(replay.completed.len(), 1);
        assert!(replay.incomplete.is_empty());
        // Compaction removed the torn tail; the journal accepts appends.
        j2.record_job("feedbeef", &s).unwrap();
        drop(j2);
        let (_, replay2) = JobJournal::open(&path, true, 0).unwrap();
        assert_eq!(replay2.incomplete.len(), 1);
        assert_eq!(replay2.incomplete[0].0, "feedbeef");
    }

    #[test]
    fn fresh_open_truncates() {
        let path = tmp("fresh").join("jobs.jsonl");
        let (j, _) = JobJournal::open(&path, false, 0).unwrap();
        j.record_job("aaaa", &spec()).unwrap();
        drop(j);
        let (_, replay) = JobJournal::open(&path, false, 0).unwrap();
        assert!(replay.incomplete.is_empty() && replay.completed.is_empty());
    }

    #[test]
    fn compact_lines_drops_superseded_keeps_incomplete() {
        let s = spec();
        let lines = vec![
            job_line("aa", &s),
            done_line("aa", b"resp-a-v1"),
            job_line("bb", &s),          // incomplete: must survive
            job_line("aa", &s),          // resubmission after eviction
            done_line("aa", b"resp-a-v2"), // supersedes everything for aa
            done_line("cc", b"resp-c"),
            done_line("cc", b"resp-c"),  // duplicate done
        ];
        let out = compact_lines(&lines);
        assert_eq!(out.len(), 3, "{out:?}");
        assert_eq!(out[0], done_line("aa", b"resp-a-v2"));
        assert_eq!(out[1], job_line("bb", &s));
        assert_eq!(out[2], done_line("cc", b"resp-c"));
        // Replay of the compacted form equals replay of the original.
        let mut full = Replay::default();
        fold_lines(&mut full, lines.iter().map(String::as_str));
        let mut compacted = Replay::default();
        fold_lines(&mut compacted, out.iter().map(String::as_str));
        assert_eq!(full.completed, compacted.completed);
        assert_eq!(
            full.incomplete.iter().map(|(f, _)| f).collect::<Vec<_>>(),
            compacted.incomplete.iter().map(|(f, _)| f).collect::<Vec<_>>()
        );
    }

    /// The growth bound under a duplicate storm: the same few fingerprints
    /// journaled over and over (the cache-evict + resubmit pattern) must
    /// not grow the file past threshold + one generation of live state.
    #[test]
    fn duplicate_storm_journal_is_bounded() {
        let path = tmp("bounded").join("jobs.jsonl");
        let threshold = 8 * 1024u64;
        let (j, _) = JobJournal::open(&path, false, threshold).unwrap();
        let specs: Vec<JobSpec> = (8..13).map(spec_sized).collect();
        let fps: Vec<String> = specs.iter().map(|s| s.fingerprint().to_hex()).collect();
        let resp = vec![b'r'; 600];
        let mut high_water = 0u64;
        for round in 0..200 {
            let i = round % specs.len();
            j.record_job(&fps[i], &specs[i]).unwrap();
            j.record_done(&fps[i], &resp).unwrap();
            high_water = high_water.max(j.bytes());
        }
        // Live state: 5 done lines (~700 B each). The bound: the threshold
        // plus at most one uncompacted entry pair.
        let entry_slack = 2 * (specs[0].program_text.len() as u64 + resp.len() as u64 + 200);
        assert!(
            high_water <= threshold + entry_slack,
            "journal grew to {high_water} bytes (threshold {threshold})"
        );
        assert!(std::fs::metadata(&path).unwrap().len() <= threshold + entry_slack);
        // Replay after the storm: exactly the 5 live fingerprints, latest
        // bytes, nothing incomplete.
        drop(j);
        let (_, replay) = JobJournal::open(&path, true, threshold).unwrap();
        assert!(replay.incomplete.is_empty());
        assert_eq!(replay.completed.len(), specs.len());
        for (fp, bytes) in &replay.completed {
            assert!(fps.contains(fp));
            assert_eq!(bytes, &resp);
        }
    }

    /// The shared-directory union: a job dispatched to slot 0 (dangling
    /// `job` line after its worker died) and completed by slot 1 replays
    /// as completed, exactly once.
    #[test]
    fn dir_replay_dedupes_redispatched_jobs_across_slots() {
        let dir = tmp("dirdedupe");
        let s = spec();
        let fp = s.fingerprint().to_hex();
        let (j0, _) = JobJournal::open(&slot_path(&dir, 0), false, 0).unwrap();
        let (j1, _) = JobJournal::open(&slot_path(&dir, 1), false, 0).unwrap();
        j0.record_job(&fp, &s).unwrap(); // worker 0 died mid-job
        j1.record_job(&fp, &s).unwrap(); // re-dispatched to worker 1
        j1.record_done(&fp, b"the-bytes").unwrap();
        let other = spec_sized(9);
        let ofp = other.fingerprint().to_hex();
        j0.record_job(&ofp, &other).unwrap(); // genuinely in-flight at crash
        drop((j0, j1));

        let replay = replay_dir(&dir);
        assert_eq!(replay.completed.len(), 1);
        assert_eq!(replay.completed[0], (fp, b"the-bytes".to_vec()));
        assert_eq!(replay.incomplete.len(), 1);
        assert_eq!(replay.incomplete[0].0, ofp);
    }

    /// `open_dir` with resume: completed entries are redistributed into
    /// fresh compacted slot journals (a second resume still replays them),
    /// stale slot files beyond the new fleet size are removed, and the
    /// incomplete set is returned.
    #[test]
    fn open_dir_resume_redistributes_and_prunes() {
        let dir = tmp("opendir");
        for slot in 0..3 {
            let (j, _) = JobJournal::open(&slot_path(&dir, slot), false, 0).unwrap();
            let s = spec_sized(8 + slot);
            let fp = s.fingerprint().to_hex();
            j.record_job(&fp, &s).unwrap();
            if slot != 2 {
                j.record_done(&fp, format!("resp-{slot}").as_bytes()).unwrap();
            }
        }
        let (journals, replay) = open_dir(&dir, 2, true, 0).unwrap();
        assert_eq!(journals.len(), 2);
        assert_eq!(replay.completed.len(), 2);
        assert_eq!(replay.incomplete.len(), 1);
        assert_eq!(replay.incomplete[0].0, spec_sized(10).fingerprint().to_hex());
        assert!(!slot_path(&dir, 2).exists(), "stale slot file must be pruned");
        drop(journals);
        // Second resume: the redistributed done lines are still there.
        let replay2 = replay_dir(&dir);
        assert_eq!(replay2.completed.len(), 2);
        assert!(replay2.incomplete.is_empty(), "resume rewrote journals compacted");
    }

    #[test]
    fn open_dir_fresh_clears_everything() {
        let dir = tmp("opendirfresh");
        let (j, _) = JobJournal::open(&slot_path(&dir, 0), false, 0).unwrap();
        j.record_job("aaaa", &spec()).unwrap();
        drop(j);
        let (journals, replay) = open_dir(&dir, 2, false, 0).unwrap();
        assert_eq!(journals.len(), 2);
        assert!(replay.completed.is_empty() && replay.incomplete.is_empty());
        let replay2 = replay_dir(&dir);
        assert!(replay2.completed.is_empty() && replay2.incomplete.is_empty());
    }
}
