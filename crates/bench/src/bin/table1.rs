//! Regenerate the paper's **Table 1**, generalized to the N-way scheme
//! grid: speedups of the BASE / CCDP / MESI / Dragon codes over sequential
//! execution, for MXM / VPENTA / TOMCATV / SWIM at 1–64 PEs.
//!
//! ```text
//! CCDP_SCALE=paper cargo run -p ccdp-bench --bin table1 --release
//! ```

use ccdp_bench::{paper_kernels, run_grid, Scale, GRID_SCHEMES, PAPER_PES};
use ccdp_core::flags::or_exit;
use ccdp_core::{format_speedup_table, MatrixRow};

fn main() {
    let scale = or_exit(Scale::from_env());
    eprintln!("running Table 1 grid at {scale:?} scale ...");
    let kernels = paper_kernels(scale);
    let grid = run_grid(&kernels, &PAPER_PES, &GRID_SCHEMES).unwrap_or_else(|e| {
        eprintln!("pipeline failed: {e}");
        std::process::exit(1);
    });
    let rows: Vec<MatrixRow> = kernels
        .iter()
        .zip(&grid)
        .map(|(k, matrices)| MatrixRow { kernel: k.name, matrices })
        .collect();
    println!("{}", format_speedup_table(&rows));
    eprintln!("all schemes coherent.");
}
