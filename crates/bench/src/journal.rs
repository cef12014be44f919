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
use std::path::Path;
use std::sync::Mutex;

use ccdp_core::{CellFailure, Journal, Scheme};
use ccdp_json::{Json, ToJson};

use crate::report::cell_json;
use crate::resilience::{run_grid_isolated, CellOutcome, GridOptions};
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

/// Resume a grid-cell journal (see [`Journal::resume_lines`]).
pub fn resume_cells(path: &Path, header: &str) -> std::io::Result<(Journal, Vec<Entry>)> {
    let (journal, lines) = Journal::resume_lines(path, header, |l| parse_entry(l).is_some())?;
    let entries =
        lines.iter().map(|l| parse_entry(l).expect("resume_lines validated this line")).collect();
    Ok((journal, entries))
}

/// Checkpoint one completed cell. Errors are surfaced to the caller — a
/// run whose journal cannot be written is still a valid run, just not a
/// resumable one.
pub fn append_cell(
    journal: &Journal,
    kernel: &str,
    n_pes: usize,
    data: &Json,
) -> std::io::Result<()> {
    let line = Json::obj([
        ("kind", "cell".to_json()),
        ("kernel", kernel.to_json()),
        ("n_pes", n_pes.to_json()),
        ("data", data.clone()),
    ])
    .to_string();
    journal.append_line(&line)
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
        resume_cells(journal_path, header)?
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
            if let Err(e) = append_cell(&journal, cell.kernel, cell.n_pes, &data) {
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
    use std::fs;

    #[test]
    fn header_drift_discards_journal() {
        let dir = std::env::temp_dir().join(format!("ccdp-journal-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let h1 = header_line("report", Scale::Quick, 1, &[2, 4], &crate::GRID_SCHEMES, &GridOptions::default());
        let j = Journal::create(&path, &h1).unwrap();
        append_cell(&j, "MXM", 2, &Json::obj([("outcome", "ok".to_json())])).unwrap();
        drop(j);
        // Same fingerprint: the entry survives.
        let (_j, entries) = resume_cells(&path, &h1).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].kernel, "MXM");
        assert_eq!(entries[0].n_pes, 2);
        // Different seed: fresh start.
        let h2 = header_line("report", Scale::Quick, 2, &[2, 4], &crate::GRID_SCHEMES, &GridOptions::default());
        let (_j, entries) = resume_cells(&path, &h2).unwrap();
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
        append_cell(&j, "MXM", 2, &Json::obj([("outcome", "ok".to_json())])).unwrap();
        append_cell(&j, "VPENTA", 2, &Json::obj([("outcome", "ok".to_json())])).unwrap();
        drop(j);
        // Simulate a crash mid-append: a torn trailing line.
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("{\"kind\":\"cell\",\"kernel\":\"TOMC");
        fs::write(&path, &text).unwrap();
        let (_j, entries) = resume_cells(&path, &h).unwrap();
        assert_eq!(entries.len(), 2, "complete lines survive, torn tail dropped");
        // The journal was compacted: no torn bytes remain on disk.
        let compacted = fs::read_to_string(&path).unwrap();
        assert!(!compacted.contains("TOMC"));
        assert!(compacted.ends_with('\n'));
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
