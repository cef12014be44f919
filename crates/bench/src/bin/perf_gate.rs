//! CI performance-regression gate: re-runs the quick grid through
//! [`run_grid`] and compares its wall time against a fixed baseline.
//! Fails (exit 1) when the fresh run is more than 1.25× slower than the
//! baseline.
//!
//! ```text
//! cargo run -p ccdp-bench --release --bin perf_gate
//! ```
//!
//! Wall-clock on shared CI runners is noisy, so the threshold is a
//! generous +25% and the fresh measurement takes the best of two runs.
//!
//! The baseline is the quick grid's wall time on the serial engine, as the
//! isolated grid path measured it before the results record dropped its
//! host-time section (2.44 s, ~265M simulated cycles/s, on a 2-vCPU Xeon
//! KVM host). A run whose `CCDP_SIM_THREADS` differs from the baseline's
//! is a hard error (exit 2): comparing across engine configurations would
//! measure the knob, not a regression.

use std::time::Instant;

use ccdp_bench::{paper_kernels, run_grid, Scale, GRID_SCHEMES, PAPER_PES};
use ccdp_core::flags::or_exit;
use ccdp_core::EnvOverrides;

/// Quick-grid wall seconds of the baseline run.
const BASELINE_WALL_SECONDS: f64 = 2.441388319;
/// The simulator worker count the baseline was measured under.
const BASELINE_SIM_THREADS: usize = 1;
/// Allowed slowdown over the baseline.
const FACTOR: f64 = 1.25;

fn main() {
    let env = or_exit(EnvOverrides::from_env());
    let gate_threads = env.sim_threads.unwrap_or(1);
    eprintln!("PERF GATE: gating at sim_threads={gate_threads}");
    // Refuse a cross-configuration comparison up front, before spending
    // two grid runs on numbers the gate could not honestly compare.
    if gate_threads != BASELINE_SIM_THREADS {
        eprintln!(
            "PERF GATE: the baseline was measured at sim_threads={BASELINE_SIM_THREADS}, \
             but this run gates at sim_threads={gate_threads} (CCDP_SIM_THREADS) — \
             comparing them would measure the worker knob, not a regression. Re-run \
             with CCDP_SIM_THREADS unset or set to {BASELINE_SIM_THREADS}."
        );
        std::process::exit(2);
    }
    let kernels = paper_kernels(Scale::Quick);
    // Best of two: the first run also warms the file cache / frequency
    // governor, which is exactly the noise the gate must not alarm on.
    let mut best = f64::INFINITY;
    for _ in 0..2 {
        let t = Instant::now();
        run_grid(&kernels, &PAPER_PES, &GRID_SCHEMES).unwrap_or_else(|e| {
            eprintln!("PERF GATE: pipeline failed: {e}");
            std::process::exit(1);
        });
        best = best.min(t.elapsed().as_secs_f64());
    }
    let limit = BASELINE_WALL_SECONDS * FACTOR;
    eprintln!(
        "PERF GATE: fresh quick grid {best:.3}s vs baseline {BASELINE_WALL_SECONDS:.3}s \
         at sim_threads={gate_threads} (limit {limit:.3}s = {FACTOR:.2}x)"
    );
    if best > limit {
        eprintln!("PERF GATE: FAIL — quick grid regressed more than {FACTOR:.2}x");
        std::process::exit(1);
    }
    eprintln!("PERF GATE: ok");
}
