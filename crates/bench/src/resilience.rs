//! Cell isolation for grid runs: budgets, panic containment, watchdogs,
//! and classified per-cell outcomes.
//!
//! A long experiment sweep must not discard hours of completed work
//! because one pathological cell (a runaway synthesized program, a panic
//! in a fresh code path, a host hiccup) failed. This module runs each
//! (kernel × PE count) cell under [`std::panic::catch_unwind`] with a
//! cooperative wall-clock watchdog and per-run cycle/step budgets
//! ([`t3d_sim::SimOptions`]), classifies every failure into a
//! [`CellFailure`], retries once ([`GRID_RETRY`]) when the failure could be
//! a host flake rather than a deterministic property of the cell, and
//! reports a full grid of [`CellOutcome`]s instead of aborting. The
//! classification and the retry loop are `ccdp_core`'s, shared with the
//! job service.
//! [`crate::run_grid`] is a thin call of [`run_grid_isolated`] that turns
//! the first failed cell into its error.
//!
//! The `on_cell` callback fires as each cell completes — the journal layer
//! ([`crate::journal`]) uses it to checkpoint finished cells so an
//! interrupted run can resume without re-simulating them.

use std::time::{Duration, Instant};

use ccdp_core::{
    classify_pipeline, compare_with_seq, isolate, run_seq, CellFailure, PipelineConfig,
    PipelineError, RetryPolicy, Scheme, SchemeMatrix,
};
use t3d_sim::{FaultPlan, SimResult};

use crate::{cell_config, pooled, BenchKernel};

/// Budgets and watchdogs applied to every cell of an isolated grid run.
/// All default to off: an unbudgeted isolated run still contains panics,
/// it just never aborts a runaway simulation.
#[derive(Clone, Copy, Debug, Default)]
pub struct GridOptions {
    /// Per-run simulated-cycle budget (any PE crossing it aborts the run).
    pub cycle_budget: Option<u64>,
    /// Per-run interpreter step budget.
    pub step_budget: Option<u64>,
    /// Per-cell wall-clock watchdog. Cooperative: the simulator checks the
    /// deadline every few thousand steps, so enforcement lags by
    /// microseconds, not minutes.
    pub cell_timeout: Option<Duration>,
    /// Fault plan injected into every cell (`None` = fault-free).
    pub faults: Option<FaultPlan>,
}

/// Outcome of one isolated (kernel × PE count) cell.
#[derive(Clone)]
pub enum CellOutcome {
    Ok(Box<SchemeMatrix>),
    Fail(CellFailure),
}

impl CellOutcome {
    pub fn is_ok(&self) -> bool {
        matches!(self, CellOutcome::Ok(_))
    }

    /// The `outcome` class string: `"ok"` or the failure class.
    pub fn class(&self) -> &'static str {
        match self {
            CellOutcome::Ok(_) => "ok",
            CellOutcome::Fail(f) => f.class(),
        }
    }
}

/// One completed cell, as handed to the `on_cell` checkpoint callback.
pub struct IsolatedCell {
    pub kernel: &'static str,
    pub n_pes: usize,
    pub outcome: CellOutcome,
}

fn apply_budgets(cfg: &mut PipelineConfig, opts: &GridOptions, deadline: Option<Instant>) {
    cfg.sim.cycle_budget = opts.cycle_budget;
    cfg.sim.step_budget = opts.step_budget;
    cfg.sim.wall_deadline = deadline;
    if let Some(f) = opts.faults {
        cfg.sim.faults = f;
    }
}

/// The grid's retry discipline: a panic or timeout is attempted once more
/// (same seed, same config) and never backs off.
pub const GRID_RETRY: RetryPolicy = RetryPolicy { max_attempts: 2, base_backoff: Duration::ZERO };

/// [`isolate`] under [`GRID_RETRY`] for pipeline jobs, with a fresh wall
/// deadline from `timeout` per attempt.
fn guarded<T>(
    timeout: Option<Duration>,
    job: impl Fn(Option<Instant>) -> Result<T, PipelineError>,
) -> Result<T, CellFailure> {
    isolate(&GRID_RETRY, classify_pipeline, || job(timeout.map(|t| Instant::now() + t))).0
}

/// Run the requested cells of the grid with full isolation: every
/// sequential denominator and every scheme cell is contained, budgeted,
/// classified, and checkpointed through `on_cell` the moment it finishes.
///
/// `todo` lists `(kernel index, pe index)` cells to simulate. The result
/// is indexed `[kernel][pe]`; cells not listed stay `None` (the caller
/// already has them from a journal). A kernel whose sequential
/// denominator fails poisons all of that kernel's requested cells with the
/// same (cloned) failure — there is no speedup to compute without the
/// denominator.
pub fn run_grid_isolated(
    kernels: &[BenchKernel],
    pes: &[usize],
    schemes: &[Scheme],
    todo: &[(usize, usize)],
    opts: &GridOptions,
    on_cell: impl Fn(&IsolatedCell) + Sync,
) -> Vec<Vec<Option<CellOutcome>>> {
    let mut outcomes: Vec<Vec<Option<CellOutcome>>> =
        kernels.iter().map(|_| vec![None; pes.len()]).collect();
    if todo.is_empty() {
        return outcomes;
    }
    for &(ki, pi) in todo {
        assert!(ki < kernels.len() && pi < pes.len(), "todo cell out of grid bounds");
    }
    let threads =
        std::thread::available_parallelism().map_or(1, |n| n.get()).min(todo.len());

    // Stage 1: sequential denominators, only for kernels with work to do.
    let mut need = vec![false; kernels.len()];
    for &(ki, _) in todo {
        need[ki] = true;
    }
    let kis: Vec<usize> = (0..kernels.len()).filter(|&ki| need[ki]).collect();
    let seq_runs = pooled(kis.len(), threads, |i| {
        let k = &kernels[kis[i]];
        guarded(opts.cell_timeout, |deadline| {
            let mut cfg = cell_config(k, pes[0]);
            apply_budgets(&mut cfg, opts, deadline);
            run_seq(&k.program, &cfg)
        })
    });
    let mut seqs: Vec<Option<Result<SimResult, CellFailure>>> =
        (0..kernels.len()).map(|_| None).collect();
    for (i, r) in seq_runs.into_iter().enumerate() {
        seqs[kis[i]] = Some(r);
    }

    // Stage 2: the requested cells, each isolated and checkpointed.
    let cells = pooled(todo.len(), threads, |i| {
        let (ki, pi) = todo[i];
        let k = &kernels[ki];
        let seq = seqs[ki].as_ref().expect("stage 1 covered this kernel");
        let outcome = match seq {
            Err(f) => CellOutcome::Fail(f.clone()),
            Ok(seq) => {
                match guarded(opts.cell_timeout, |deadline| {
                    let mut cfg = cell_config(k, pes[pi]);
                    apply_budgets(&mut cfg, opts, deadline);
                    compare_with_seq(&k.program, &cfg, seq.clone(), schemes)
                }) {
                    Ok(c) => CellOutcome::Ok(Box::new(c)),
                    Err(f) => CellOutcome::Fail(f),
                }
            }
        };
        let cell = IsolatedCell { kernel: k.name, n_pes: pes[pi], outcome };
        on_cell(&cell);
        cell
    });

    for (i, c) in cells.into_iter().enumerate() {
        let (ki, pi) = todo[i];
        outcomes[ki][pi] = Some(c.outcome);
    }
    outcomes
}

#[cfg(test)]
mod unit {
    use super::*;
    use crate::{paper_kernels, Scale};

    #[test]
    fn guarded_classifies_and_retries_panics() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // A job that always panics is classified as Panicked{retried: true}.
        let tries = AtomicUsize::new(0);
        let r: Result<(), CellFailure> = guarded(None, |_| {
            tries.fetch_add(1, Ordering::SeqCst);
            panic!("boom {}", 7)
        });
        assert_eq!(tries.load(Ordering::SeqCst), 2, "panic must be retried once");
        match r {
            Err(CellFailure::Panicked { message, retried }) => {
                assert!(message.contains("boom 7"));
                assert!(retried);
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        // A job that panics once then succeeds recovers on retry.
        let tries = AtomicUsize::new(0);
        let r: Result<u32, CellFailure> = guarded(None, |_| {
            if tries.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("flake");
            }
            Ok(42)
        });
        assert_eq!(r.unwrap(), 42);
    }

    #[test]
    fn guarded_never_retries_deterministic_failures() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let tries = AtomicUsize::new(0);
        let r: Result<(), CellFailure> = guarded(None, |_| {
            tries.fetch_add(1, Ordering::SeqCst);
            Err(PipelineError::BudgetExceeded { pe: 3, cycles: 10, steps: 20 })
        });
        assert_eq!(tries.load(Ordering::SeqCst), 1, "budget failures are deterministic");
        assert_eq!(
            r.unwrap_err(),
            CellFailure::BudgetExceeded { pe: 3, cycles: 10, steps: 20 }
        );
    }

    #[test]
    fn budget_failure_lands_in_grid_not_process() {
        let kernels = paper_kernels(Scale::Quick);
        let opts = GridOptions { cycle_budget: Some(10), ..Default::default() };
        let schemes = [Scheme::Base, Scheme::Ccdp];
        let grid = run_grid_isolated(&kernels[..1], &[2], &schemes, &[(0, 0)], &opts, |_| {});
        let out = grid[0][0].as_ref().expect("cell was requested");
        match out {
            CellOutcome::Fail(CellFailure::BudgetExceeded { cycles, .. }) => {
                assert!(*cycles > 10);
            }
            other => panic!("expected BudgetExceeded, got {:?}", other.class()),
        }
    }

    #[test]
    fn clean_full_grid_has_ok_cells() {
        let kernels = paper_kernels(Scale::Quick);
        let opts = GridOptions::default();
        let calls = std::sync::Mutex::new(Vec::new());
        let schemes = crate::GRID_SCHEMES;
        let grid =
            run_grid_isolated(&kernels[..1], &[1, 2], &schemes, &[(0, 0), (0, 1)], &opts, |c| {
                calls.lock().unwrap().push((c.kernel, c.n_pes, c.outcome.class()));
            });
        assert!(grid[0].iter().all(|o| o.as_ref().unwrap().is_ok()));
        match grid[0][0].as_ref().unwrap() {
            CellOutcome::Ok(m) => assert_eq!(m.runs.len(), schemes.len()),
            CellOutcome::Fail(f) => panic!("cell failed: {f}"),
        }
        let calls = calls.into_inner().unwrap();
        assert_eq!(calls.len(), 2);
        assert!(calls.iter().all(|(k, _, class)| *k == "MXM" && *class == "ok"));
    }
}
