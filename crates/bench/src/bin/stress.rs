//! Stress/soak sweep over injected faults: drop-rate curve × kernels × PE
//! counts, plus a mixed soak plan — every cell checked for coherence and
//! golden numerics, demand fallbacks checked for monotonicity, and the
//! degradation curve merged into `BENCH_ccdp.json` as a `stress` section.
//!
//! Each (kernel × PE count) unit runs isolated: panics are contained and
//! classified, run budgets and a cooperative wall-clock watchdog bound
//! runaway simulations, and every *passed* unit is checkpointed to a
//! journal so `--resume` re-runs only what is missing (failed units are
//! always re-attempted — a sweep is a gate, not an archive of failures).
//!
//! ```text
//! cargo run -p ccdp-bench --release --bin stress             # env scale
//! cargo run -p ccdp-bench --release --bin stress -- --quick  # force quick
//! cargo run -p ccdp-bench --release --bin stress -- --seed 7
//! cargo run -p ccdp-bench --release --bin stress -- --resume
//! ```
//!
//! Exits non-zero (with the oracle's evidence) on any guarantee violation.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ccdp_bench::journal::{append_cell, header_line, resume_cells, STRESS_JOURNAL};
use ccdp_bench::report::merge_section;
use ccdp_bench::resilience::{GridOptions, GRID_RETRY};
use ccdp_bench::stress::{
    stress_cell_json, stress_cell_opts, stress_pes, stress_plans, stress_section_json,
    StressError,
};
use ccdp_bench::{paper_kernels, pooled, seed_from, Scale};
use ccdp_core::flags::{flag_or_exit, has_flag, or_exit};
use ccdp_core::{classify_pipeline, isolate, CellFailure, Journal, Scheme};
use ccdp_json::Json;

fn classify_stress(e: StressError) -> CellFailure {
    match e {
        StressError::Pipeline(pe) => classify_pipeline(pe),
        other => CellFailure::Failed { message: other.to_string() },
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if has_flag(&args, "--quick") {
        Scale::Quick
    } else {
        or_exit(Scale::from_env())
    };
    let seed = or_exit(seed_from(&args));
    let resume = has_flag(&args, "--resume");
    let journal_path =
        flag_or_exit(&args, "--journal").unwrap_or_else(|| PathBuf::from(STRESS_JOURNAL));
    let opts = GridOptions {
        cycle_budget: flag_or_exit(&args, "--cycle-budget"),
        step_budget: flag_or_exit(&args, "--step-budget"),
        cell_timeout: flag_or_exit(&args, "--cell-timeout").map(Duration::from_secs),
        faults: None,
    };
    let kernels = paper_kernels(scale);
    let pes = stress_pes(scale);
    eprintln!(
        "running stress sweep at {scale:?} scale, P={pes:?}, seed {seed}{} ...",
        if resume { " [resume]" } else { "" }
    );

    // The sweep drives the CCDP fault curve plus the hardware smoke cells.
    let stressed = [Scheme::Ccdp, Scheme::Mesi, Scheme::Dragon];
    let header = header_line("stress", scale, seed, &pes, &stressed, &opts);
    let (journal, entries) = if resume {
        resume_cells(&journal_path, &header)
    } else {
        Journal::create(&journal_path, &header).map(|j| (j, Vec::new()))
    }
    .unwrap_or_else(|e| {
        eprintln!("cannot journal to {}: {e}", journal_path.display());
        std::process::exit(1);
    });
    let mut done: HashMap<(String, usize), Json> = HashMap::new();
    for e in entries {
        done.insert((e.kernel, e.n_pes), e.data);
    }

    // Units still to run: every kernel × PE count not already journaled.
    let mut units: Vec<(usize, usize)> = Vec::new();
    for (ki, k) in kernels.iter().enumerate() {
        for (pi, &n) in pes.iter().enumerate() {
            if !done.contains_key(&(k.name.to_string(), n)) {
                units.push((ki, pi));
            }
        }
    }
    let reused = kernels.len() * pes.len() - units.len();
    if reused > 0 {
        eprintln!("resumed {reused} journaled unit(s) from {}", journal_path.display());
    }

    let plans = stress_plans(seed);
    let threads =
        std::thread::available_parallelism().map_or(1, |n| n.get()).min(units.len().max(1));
    let fresh: Vec<Result<Vec<Json>, CellFailure>> = pooled(units.len(), threads, |i| {
        let (ki, pi) = units[i];
        let (k, n) = (&kernels[ki], pes[pi]);
        let (r, _) = isolate(&GRID_RETRY, classify_stress, || {
            let deadline = opts.cell_timeout.map(|t| Instant::now() + t);
            stress_cell_opts(k, n, &plans, &opts, deadline)
        });
        match r {
            Ok(cells) => {
                let jsons: Vec<Json> = cells.iter().map(stress_cell_json).collect();
                let data = Json::arr(jsons.iter().cloned());
                if let Err(e) = append_cell(&journal, k.name, n, &data) {
                    eprintln!("warning: journal append failed ({e}); run not resumable");
                }
                Ok(jsons)
            }
            Err(f) => Err(f),
        }
    });

    // Reassemble in grid order, mixing journaled and fresh units.
    let mut fresh_by_unit: HashMap<(usize, usize), Result<Vec<Json>, CellFailure>> =
        units.iter().copied().zip(fresh).collect();
    let mut cells: Vec<Json> = Vec::new();
    let mut failures: Vec<(String, usize, CellFailure)> = Vec::new();
    for (ki, k) in kernels.iter().enumerate() {
        for (pi, &n) in pes.iter().enumerate() {
            match fresh_by_unit.remove(&(ki, pi)) {
                Some(Ok(jsons)) => cells.extend(jsons),
                Some(Err(f)) => failures.push((k.name.to_string(), n, f)),
                None => {
                    let data = done
                        .remove(&(k.name.to_string(), n))
                        .expect("unit neither run nor journaled");
                    cells.extend(data.items().iter().cloned());
                }
            }
        }
    }
    if !failures.is_empty() {
        eprintln!("STRESS FAILURE: {} unit(s) failed:", failures.len());
        for (kernel, n_pes, f) in &failures {
            eprintln!("  {kernel} P={n_pes}: [{}] {f}", f.class());
        }
        eprintln!("passed units are journaled; rerun with --resume to retry only failures");
        std::process::exit(1);
    }
    print_curve(seed, &cells);
    merge_section("stress", stress_section_json(scale, seed, &pes, cells));
}

/// Human-readable degradation curve: slowdown vs the fault-free run.
fn print_curve(seed: u64, cells: &[Json]) {
    println!(
        "\n=== stress: degradation curve (slowdown vs fault-free; seed {seed}) ==="
    );
    println!(
        "{:>8} {:>7} {:>5} | {:>10} {:>10} {:>12} {:>10}",
        "kernel", "scheme", "P", "plan", "slowdown", "fallbacks", "dropped"
    );
    for c in cells {
        let get_str = |k: &str| c.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
        let faults = c.get("faults");
        let fget = |k: &str| {
            faults.and_then(|f| f.get(k)).and_then(Json::as_u64).unwrap_or(0)
        };
        println!(
            "{:>8} {:>7} {:>5} | {:>10} {:>10.4} {:>12} {:>10}",
            get_str("kernel"),
            get_str("scheme"),
            c.get("n_pes").and_then(Json::as_u64).unwrap_or(0),
            get_str("plan"),
            c.get("slowdown").and_then(Json::as_f64).unwrap_or(0.0),
            fget("demand_fallbacks"),
            fget("prefetches_dropped"),
        );
    }
    println!("\nall cells coherent, all numerics equal the sequential golden run");
}
