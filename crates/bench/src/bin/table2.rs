//! Regenerate the paper's **Table 2**: percentage improvement in execution
//! time of the CCDP codes over the BASE codes.
//!
//! ```text
//! CCDP_SCALE=paper cargo run -p ccdp-bench --bin table2 --release
//! ```

use ccdp_bench::{paper_kernels, run_grid, Scale, PAPER_PES};
use ccdp_core::flags::or_exit;
use ccdp_core::{format_improvement_table, MatrixRow, Scheme};

fn main() {
    let scale = or_exit(Scale::from_env());
    eprintln!("running Table 2 grid at {scale:?} scale ...");
    let kernels = paper_kernels(scale);
    // Table 2 only needs the BASE/CCDP pair; skip the hardware schemes.
    let grid = run_grid(&kernels, &PAPER_PES, &[Scheme::Base, Scheme::Ccdp]).unwrap_or_else(|e| {
        eprintln!("pipeline failed: {e}");
        std::process::exit(1);
    });
    let rows: Vec<MatrixRow> = kernels
        .iter()
        .zip(&grid)
        .map(|(k, matrices)| MatrixRow { kernel: k.name, matrices })
        .collect();
    println!("{}", format_improvement_table(&rows));

    println!("paper Table 2 shape targets (for reference):");
    println!("  MXM     64.5% .. 89.8%");
    println!("  VPENTA   4.4% .. 23.9%");
    println!("  TOMCATV 44.8% .. 69.6%");
    println!("  SWIM     2.5% .. 13.2%");
}
