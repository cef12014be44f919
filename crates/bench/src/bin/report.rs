//! Machine-readable benchmark report: runs the full evaluation grid and
//! writes `BENCH_ccdp.json` — the paper's Tables 1 and 2 plus every cell's
//! cycles, cycle-breakdown totals and prefetch quality metrics. The
//! document holds no host time: the same code, scale and seed write the
//! same bytes. Each run's per-PE and per-epoch detail stays in the journal.
//!
//! Every cell runs isolated (panic containment + classification), each
//! completed cell is checkpointed to a journal, and `--resume` replays the
//! journal after a crash, re-simulating only the missing cells — the
//! resumed document is byte-identical to an uninterrupted run.
//!
//! ```text
//! cargo run -p ccdp-bench --release --bin report            # quick scale
//! CCDP_SCALE=paper cargo run -p ccdp-bench --release --bin report
//! cargo run -p ccdp-bench --release --bin report -- --seed 7
//! cargo run -p ccdp-bench --release --bin report -- --resume
//! cargo run -p ccdp-bench --release --bin report -- \
//!     --cycle-budget 20000000000 --step-budget 2000000000 --cell-timeout 600
//! ```
//!
//! Exits 0 when every cell is ok, 1 when any cell failed (the document and
//! journal are still written), 2 on bad invocation.

use std::path::PathBuf;
use std::time::Duration;

use ccdp_bench::journal::{header_line, run_journaled_grid, GRID_JOURNAL};
use ccdp_bench::report::{report_json_cells, REPORT_FILE};
use ccdp_bench::resilience::GridOptions;
use ccdp_bench::{paper_kernels, seed_from, Scale, GRID_SCHEMES, PAPER_PES};
use ccdp_core::flags::{flag_or_exit, has_flag, or_exit};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = or_exit(Scale::from_env());
    let seed = or_exit(seed_from(&args));
    let resume = has_flag(&args, "--resume");
    let journal_path =
        flag_or_exit(&args, "--journal").unwrap_or_else(|| PathBuf::from(GRID_JOURNAL));
    let opts = GridOptions {
        cycle_budget: flag_or_exit(&args, "--cycle-budget"),
        step_budget: flag_or_exit(&args, "--step-budget"),
        cell_timeout: flag_or_exit(&args, "--cell-timeout").map(Duration::from_secs),
        faults: None,
    };
    eprintln!(
        "running report grid at {scale:?} scale (seed {seed}){} ...",
        if resume { " [resume]" } else { "" }
    );
    let kernels = paper_kernels(scale);
    let header = header_line("report", scale, seed, &PAPER_PES, &GRID_SCHEMES, &opts);
    let run = run_journaled_grid(
        &kernels,
        &PAPER_PES,
        &GRID_SCHEMES,
        &opts,
        &journal_path,
        &header,
        resume,
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot journal to {}: {e}", journal_path.display());
        std::process::exit(1);
    });
    if run.reused > 0 {
        eprintln!("resumed {} journaled cell(s) from {}", run.reused, journal_path.display());
    }
    let names: Vec<&str> = kernels.iter().map(|k| k.name).collect();
    let doc = report_json_cells(scale, seed, &PAPER_PES, &GRID_SCHEMES, &names, &run.cells);
    let path = std::path::Path::new(REPORT_FILE);
    ccdp_json::write_atomic(path, &doc.to_pretty()).unwrap_or_else(|e| {
        eprintln!("cannot write {REPORT_FILE}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {REPORT_FILE}");
    if !run.failures.is_empty() {
        eprintln!("{} cell(s) failed:", run.failures.len());
        for (kernel, n_pes, class, msg) in &run.failures {
            eprintln!("  {kernel} P={n_pes}: [{class}] {msg}");
        }
        std::process::exit(1);
    }
}
