//! Crash-safe checkpoint/resume for grid and stress runs.
//!
//! A run appends each completed cell to a JSONL journal
//! (`results/grid.journal.jsonl` by default): one header line
//! fingerprinting the run configuration, then one line per finished cell.
//! If the process is killed — OOM, ^C, a host reboot — a rerun with
//! `--resume` replays the journal, re-simulates only the missing cells,
//! and (because journaled cell JSON is re-emitted verbatim and every cell
//! is deterministic for a given config + seed) produces a report document
//! byte-identical to an uninterrupted run.
//!
//! Robustness rules:
//!
//! * The header line must match the current run's fingerprint **exactly**
//!   (string equality on compact JSON). Any drift — different scale, seed,
//!   PE list, budget, or fault plan — discards the journal and starts
//!   fresh: resuming someone else's cells would silently mix
//!   configurations.
//! * A torn final line (the classic crash artifact: the process died
//!   mid-`write`) is dropped; every complete line before it is kept. On
//!   resume the journal is compacted (rewritten atomically) so the torn
//!   tail never accumulates.
//! * Only *deterministic* outcomes are checkpointed: `ok`,
//!   `budget_exceeded`, `invalid`, and `failed` cells are settled facts,
//!   while `panicked` / `timed_out` cells may be host flakes and are
//!   re-attempted by the next resume.

use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;

use ccdp_core::Scheme;
use ccdp_json::{Json, ToJson};

use crate::report::cell_json;
use crate::resilience::{run_grid_isolated, CellFailure, CellOutcome, GridOptions};
use crate::{BenchKernel, Scale};

/// Default journal location for the `report` bin's grid.
pub const GRID_JOURNAL: &str = "results/grid.journal.jsonl";
/// Default journal location for the `stress` bin's sweep.
pub const STRESS_JOURNAL: &str = "results/stress.journal.jsonl";

/// The run-configuration fingerprint: the journal's header line. Two runs
/// may share a journal only if these bytes match exactly.
pub fn header_line(
    tool: &str,
    scale: Scale,
    seed: u64,
    pes: &[usize],
    schemes: &[Scheme],
    opts: &GridOptions,
) -> String {
    Json::obj([
        ("kind", "header".to_json()),
        ("schema", crate::report::SCHEMA_VERSION.to_json()),
        ("tool", tool.to_json()),
        ("scale", scale.name().to_json()),
        ("seed", seed.to_json()),
        ("pe_counts", pes.to_json()),
        ("schemes", Json::arr(schemes.iter().map(|s| s.key().to_json()))),
        (
            "cycle_budget",
            opts.cycle_budget.map_or(Json::Null, |b| b.to_json()),
        ),
        (
            "step_budget",
            opts.step_budget.map_or(Json::Null, |b| b.to_json()),
        ),
        // The fault plan participates in the fingerprint (it changes every
        // simulated cycle count); the wall-clock timeout does not (it only
        // decides *whether* a cell finished, never what it computed).
        (
            "faults",
            opts.faults.map_or(Json::Null, |f| format!("{f:?}").to_json()),
        ),
    ])
    .to_string()
}

/// One journaled cell: the kernel × PE key plus the checkpointed payload
/// (a grid cell's outcome JSON, or a stress unit's cell array).
pub struct Entry {
    pub kernel: String,
    pub n_pes: usize,
    pub data: Json,
}

/// An append-only checkpoint journal. `append` is `&self` (cells finish on
/// worker threads); each line is fsynced (`sync_data`) before `append`
/// returns, so a kill — or a whole host power loss — can tear at most the
/// line being written, and every line the journal acknowledged is durable.
///
/// The journal tracks its on-disk size so owners can bound growth:
/// [`Journal::bytes`] after each append, [`Journal::lines`] to read the
/// current complete entries back, and [`Journal::rewrite`] to atomically
/// replace the file with a compacted form (temp file + rename + directory
/// fsync — crash-safe at any instant: a kill mid-compaction leaves either
/// the old complete journal or the new complete journal, never a mix).
pub struct Journal {
    inner: Mutex<JournalFile>,
}

struct JournalFile {
    file: fs::File,
    path: std::path::PathBuf,
    bytes: u64,
}

/// Best-effort fsync of a directory, making a just-created or just-renamed
/// entry durable. Not every platform allows opening a directory for sync,
/// so failures are ignored — the journal degrades to flush-on-append.
fn sync_dir(dir: Option<&Path>) {
    if let Some(d) = dir.filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(f) = fs::File::open(d) {
            let _ = f.sync_all();
        }
    }
}

impl Journal {
    /// Start a fresh journal at `path`, truncating anything there. The
    /// parent directory is fsynced so the file itself survives a crash
    /// immediately after creation.
    pub fn create(path: &Path, header: &str) -> std::io::Result<Journal> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir)?;
            }
        }
        let mut file = fs::File::create(path)?;
        writeln!(file, "{header}")?;
        file.sync_data()?;
        sync_dir(path.parent());
        let bytes = header.len() as u64 + 1;
        Ok(Journal {
            inner: Mutex::new(JournalFile { file, path: path.to_path_buf(), bytes }),
        })
    }

    /// Resume from `path`: if the file exists and its header matches, the
    /// surviving complete lines (validated by `valid`) are returned and the
    /// journal is compacted (torn tail dropped, rewritten atomically, with
    /// the parent directory fsynced after the rename) before reopening for
    /// append. A missing file or a fingerprint mismatch starts fresh with
    /// no lines. This is the generic core; [`Journal::resume`] layers the
    /// grid-cell entry shape on top, and the `ccdp-serve` job journal its
    /// own.
    pub fn resume_lines(
        path: &Path,
        header: &str,
        valid: impl Fn(&str) -> bool,
    ) -> std::io::Result<(Journal, Vec<String>)> {
        // Read as bytes: a line torn mid-multibyte-character is invalid
        // UTF-8, and that must drop the torn tail, not the whole journal.
        // (Complete lines were written from Rust strings and are always
        // valid, so lossy conversion can only mangle the torn tail, which
        // the `valid` filter then rejects.)
        let text = match fs::read(path) {
            Ok(t) => String::from_utf8_lossy(&t).into_owned(),
            Err(_) => return Ok((Journal::create(path, header)?, Vec::new())),
        };
        let mut lines = text.lines();
        match lines.next() {
            Some(first) if first == header => {}
            _ => {
                eprintln!(
                    "journal {} does not match this run's configuration; starting fresh",
                    path.display()
                );
                return Ok((Journal::create(path, header)?, Vec::new()));
            }
        }
        let mut entries = Vec::new();
        for line in lines {
            if !valid(line) {
                // A torn or foreign line: everything after it is suspect.
                break;
            }
            entries.push(line.to_string());
        }
        let mut compact = header.to_string();
        compact.push('\n');
        for line in &entries {
            compact.push_str(line);
            compact.push('\n');
        }
        // write_atomic syncs the rewritten file and the directory entry, so
        // the compacted journal is durable before we append to it.
        let bytes = compact.len() as u64;
        ccdp_json::write_atomic(path, &compact)?;
        let file = fs::OpenOptions::new().append(true).open(path)?;
        Ok((
            Journal {
                inner: Mutex::new(JournalFile { file, path: path.to_path_buf(), bytes }),
            },
            entries,
        ))
    }

    /// Resume a grid-cell journal (see [`Journal::resume_lines`]).
    pub fn resume(path: &Path, header: &str) -> std::io::Result<(Journal, Vec<Entry>)> {
        let (journal, lines) =
            Journal::resume_lines(path, header, |l| parse_entry(l).is_some())?;
        let entries = lines
            .iter()
            .map(|l| parse_entry(l).expect("resume_lines validated this line"))
            .collect();
        Ok((journal, entries))
    }

    /// Append one raw journal line (no trailing newline), fsynced before
    /// returning — once this returns `Ok`, the line survives `kill -9` and
    /// power loss.
    pub fn append_line(&self, line: &str) -> std::io::Result<()> {
        let mut j = self.inner.lock().expect("journal file lock");
        writeln!(j.file, "{line}")?;
        j.file.sync_data()?;
        j.bytes += line.len() as u64 + 1;
        Ok(())
    }

    /// Current on-disk size in bytes (header + every acknowledged line).
    pub fn bytes(&self) -> u64 {
        self.inner.lock().expect("journal file lock").bytes
    }

    /// Read the complete entry lines currently on disk (everything after
    /// the header), under the append lock. Used by owners to compute a
    /// compacted rewrite.
    pub fn lines(&self) -> std::io::Result<Vec<String>> {
        let j = self.inner.lock().expect("journal file lock");
        let text = fs::read_to_string(&j.path)?;
        Ok(text.lines().skip(1).map(str::to_string).collect())
    }

    /// Atomically replace the journal with `header` + `lines` and reopen
    /// for append. Crash-safe mid-compaction: the new content is written to
    /// a temp file, fsynced, renamed over the old journal, and the parent
    /// directory is fsynced — at every instant the path holds one complete,
    /// parseable journal.
    pub fn rewrite(&self, header: &str, lines: &[String]) -> std::io::Result<()> {
        let mut j = self.inner.lock().expect("journal file lock");
        let mut text = String::with_capacity(
            header.len() + 1 + lines.iter().map(|l| l.len() + 1).sum::<usize>(),
        );
        text.push_str(header);
        text.push('\n');
        for line in lines {
            text.push_str(line);
            text.push('\n');
        }
        ccdp_json::write_atomic(&j.path, &text)?;
        // The old handle points at the unlinked pre-compaction inode;
        // re-open so appends land in the live file.
        j.file = fs::OpenOptions::new().append(true).open(&j.path)?;
        j.bytes = text.len() as u64;
        Ok(())
    }

    /// Checkpoint one completed cell. Errors are surfaced to the caller —
    /// a run whose journal cannot be written is still a valid run, just
    /// not a resumable one.
    pub fn append(&self, kernel: &str, n_pes: usize, data: &Json) -> std::io::Result<()> {
        let line = Json::obj([
            ("kind", "cell".to_json()),
            ("kernel", kernel.to_json()),
            ("n_pes", n_pes.to_json()),
            ("data", data.clone()),
        ])
        .to_string();
        self.append_line(&line)
    }
}

fn parse_entry(line: &str) -> Option<Entry> {
    let j = ccdp_json::parse(line).ok()?;
    if j.get("kind").and_then(Json::as_str) != Some("cell") {
        return None;
    }
    Some(Entry {
        kernel: j.get("kernel").and_then(Json::as_str)?.to_string(),
        n_pes: j.get("n_pes").and_then(Json::as_u64)? as usize,
        data: j.get("data")?.clone(),
    })
}

/// Which outcomes are settled facts worth checkpointing. Panics and
/// timeouts may be host flakes — a resume should re-attempt them rather
/// than immortalize them in the journal.
pub fn checkpointable(outcome: &CellOutcome) -> bool {
    !matches!(
        outcome,
        CellOutcome::Fail(CellFailure::Panicked { .. } | CellFailure::TimedOut { .. })
    )
}

/// Result of a journaled (and possibly resumed) grid run.
pub struct JournaledGrid {
    /// Per-cell JSON, `cells[kernel][pe]`, mixing journaled and fresh
    /// cells indistinguishably.
    pub cells: Vec<Vec<Json>>,
    /// Cells replayed from the journal instead of re-simulated.
    pub reused: usize,
    /// `(kernel, n_pes, outcome class, message)` for every non-ok cell.
    pub failures: Vec<(String, usize, String, String)>,
}

/// Run the grid with cell isolation and journaling; with `resume`, replay
/// matching journaled cells and simulate only the rest.
pub fn run_journaled_grid(
    kernels: &[BenchKernel],
    pes: &[usize],
    schemes: &[Scheme],
    opts: &GridOptions,
    journal_path: &Path,
    header: &str,
    resume: bool,
) -> std::io::Result<JournaledGrid> {
    let (journal, entries) = if resume {
        Journal::resume(journal_path, header)?
    } else {
        (Journal::create(journal_path, header)?, Vec::new())
    };
    let mut done: HashMap<(String, usize), Json> = HashMap::new();
    for e in entries {
        done.insert((e.kernel, e.n_pes), e.data);
    }
    let mut todo: Vec<(usize, usize)> = Vec::new();
    for (ki, k) in kernels.iter().enumerate() {
        for (pi, &n) in pes.iter().enumerate() {
            if !done.contains_key(&(k.name.to_string(), n)) {
                todo.push((ki, pi));
            }
        }
    }
    let reused = kernels.len() * pes.len() - todo.len();

    let append_errors = Mutex::new(Vec::<std::io::Error>::new());
    let grid = run_grid_isolated(kernels, pes, schemes, &todo, opts, |cell| {
        if checkpointable(&cell.outcome) {
            let data = cell_json(&cell.outcome);
            if let Err(e) = journal.append(cell.kernel, cell.n_pes, &data) {
                append_errors.lock().expect("append error lock").push(e);
            }
        }
    });
    if let Some(e) = append_errors.into_inner().expect("append error lock").pop() {
        eprintln!("warning: journal append failed ({e}); this run cannot be resumed");
    }

    let mut cells: Vec<Vec<Json>> = Vec::with_capacity(kernels.len());
    let mut failures = Vec::new();
    for (ki, k) in kernels.iter().enumerate() {
        let mut row = Vec::with_capacity(pes.len());
        for (pi, &n) in pes.iter().enumerate() {
            let cj = match grid[ki][pi].as_ref() {
                Some(outcome) => cell_json(outcome),
                None => done
                    .remove(&(k.name.to_string(), n))
                    .expect("cell neither simulated nor journaled"),
            };
            let class = cj.get("outcome").and_then(Json::as_str).unwrap_or("?").to_string();
            if class != "ok" {
                let msg = cj
                    .get("failure")
                    .and_then(|f| f.get("message"))
                    .and_then(Json::as_str)
                    .unwrap_or("unknown failure")
                    .to_string();
                failures.push((k.name.to_string(), n, class, msg));
            }
            row.push(cj);
        }
        cells.push(row);
    }
    Ok(JournaledGrid { cells, reused, failures })
}

#[cfg(test)]
mod unit {
    use super::*;

    #[test]
    fn header_drift_discards_journal() {
        let dir = std::env::temp_dir().join(format!("ccdp-journal-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let h1 = header_line("report", Scale::Quick, 1, &[2, 4], &crate::GRID_SCHEMES, &GridOptions::default());
        let j = Journal::create(&path, &h1).unwrap();
        j.append("MXM", 2, &Json::obj([("outcome", "ok".to_json())])).unwrap();
        drop(j);
        // Same fingerprint: the entry survives.
        let (_j, entries) = Journal::resume(&path, &h1).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].kernel, "MXM");
        assert_eq!(entries[0].n_pes, 2);
        // Different seed: fresh start.
        let h2 = header_line("report", Scale::Quick, 2, &[2, 4], &crate::GRID_SCHEMES, &GridOptions::default());
        let (_j, entries) = Journal::resume(&path, &h2).unwrap();
        assert!(entries.is_empty(), "fingerprint drift must discard the journal");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_final_line_is_dropped_and_compacted() {
        let dir = std::env::temp_dir().join(format!("ccdp-torn-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let h = header_line("report", Scale::Quick, 7, &[2], &crate::GRID_SCHEMES, &GridOptions::default());
        let j = Journal::create(&path, &h).unwrap();
        j.append("MXM", 2, &Json::obj([("outcome", "ok".to_json())])).unwrap();
        j.append("VPENTA", 2, &Json::obj([("outcome", "ok".to_json())])).unwrap();
        drop(j);
        // Simulate a crash mid-append: a torn trailing line.
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("{\"kind\":\"cell\",\"kernel\":\"TOMC");
        fs::write(&path, &text).unwrap();
        let (_j, entries) = Journal::resume(&path, &h).unwrap();
        assert_eq!(entries.len(), 2, "complete lines survive, torn tail dropped");
        // The journal was compacted: no torn bytes remain on disk.
        let compacted = fs::read_to_string(&path).unwrap();
        assert!(!compacted.contains("TOMC"));
        assert!(compacted.ends_with('\n'));
        fs::remove_dir_all(&dir).ok();
    }

    /// The torn-final-line recovery contract, end to end: every line
    /// acknowledged by `append_line` is fsynced and survives; a crash can
    /// tear only the very last line; recovery drops exactly that tail —
    /// even when the tear landed mid-multibyte-character — compacts the
    /// file, and appending afterwards resumes cleanly.
    #[test]
    fn torn_line_recovery_path_via_generic_lines() {
        let dir = std::env::temp_dir().join(format!("ccdp-torn-generic-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("jobs.jsonl");
        let header = r#"{"kind":"header","tool":"ccdpd","schema":7}"#;
        let j = Journal::create(&path, header).unwrap();
        j.append_line(r#"{"kind":"job","id":1}"#).unwrap();
        j.append_line(r#"{"kind":"job","id":2}"#).unwrap();
        drop(j);
        // Crash artifact 1: a torn ASCII tail.
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(br#"{"kind":"job","#);
        // Crash artifact 2: the tear splits a multibyte character ("é").
        bytes.extend_from_slice(&[0xC3]);
        fs::write(&path, &bytes).unwrap();
        let is_job = |l: &str| ccdp_json::parse(l).is_ok();
        let (j, lines) = Journal::resume_lines(&path, header, is_job).unwrap();
        assert_eq!(lines.len(), 2, "complete lines survive, torn tail dropped");
        assert_eq!(lines[0], r#"{"kind":"job","id":1}"#);
        // Compaction removed the torn bytes from disk.
        let on_disk = fs::read(&path).unwrap();
        assert!(!on_disk.contains(&0xC3));
        // The journal stays appendable after recovery.
        j.append_line(r#"{"kind":"job","id":3}"#).unwrap();
        drop(j);
        let (_j, lines) = Journal::resume_lines(&path, header, is_job).unwrap();
        assert_eq!(lines.len(), 3);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rewrite_compacts_atomically_and_stays_appendable() {
        let dir = std::env::temp_dir().join(format!("ccdp-rewrite-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let header = r#"{"kind":"header","tool":"t","schema":1}"#;
        let j = Journal::create(&path, header).unwrap();
        assert_eq!(j.bytes(), header.len() as u64 + 1);
        for i in 0..8 {
            j.append_line(&format!(r#"{{"kind":"x","i":{i}}}"#)).unwrap();
        }
        let before = j.bytes();
        assert_eq!(before, fs::metadata(&path).unwrap().len(), "bytes tracks disk");
        assert_eq!(j.lines().unwrap().len(), 8);
        // Compact to the last two lines.
        let keep: Vec<String> = j.lines().unwrap().into_iter().skip(6).collect();
        j.rewrite(header, &keep).unwrap();
        assert!(j.bytes() < before);
        assert_eq!(j.bytes(), fs::metadata(&path).unwrap().len());
        // Appends after a rewrite land in the live (renamed-over) file.
        j.append_line(r#"{"kind":"x","i":99}"#).unwrap();
        drop(j);
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4); // header + 2 kept + 1 appended
        assert_eq!(lines[0], header);
        assert!(lines[3].contains("99"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_plan_changes_fingerprint() {
        let base = GridOptions::default();
        let faulted = GridOptions {
            faults: Some(t3d_sim::FaultPlan::none().with_seed(3).with_drop_rate(0.1)),
            ..Default::default()
        };
        let h1 = header_line("report", Scale::Quick, 0, &[2], &crate::GRID_SCHEMES, &base);
        let h2 = header_line("report", Scale::Quick, 0, &[2], &crate::GRID_SCHEMES, &faulted);
        assert_ne!(h1, h2, "fault plans must participate in the fingerprint");
        // The wall-clock timeout must NOT (it never changes results).
        let timed = GridOptions {
            cell_timeout: Some(std::time::Duration::from_secs(5)),
            ..Default::default()
        };
        let h3 = header_line("report", Scale::Quick, 0, &[2], &crate::GRID_SCHEMES, &timed);
        assert_eq!(h1, h3);
        // A different scheme list is a different run configuration.
        let two = [ccdp_core::Scheme::Base, ccdp_core::Scheme::Ccdp];
        let h4 = header_line("report", Scale::Quick, 0, &[2], &two, &base);
        assert_ne!(h1, h4, "scheme lists must participate in the fingerprint");
    }
}
