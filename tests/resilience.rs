//! End-to-end resilience: run budgets terminate runaway programs under
//! both interpreter paths, isolated grids contain and classify per-cell
//! failures, and a run killed mid-grid resumes from its journal to a
//! byte-identical report document.

use std::fs;
use std::path::PathBuf;

use ccdp_bench::journal::{header_line, resume_cells, run_journaled_grid};
use ccdp_bench::report::report_json_cells;
use ccdp_bench::resilience::{run_grid_isolated, CellOutcome, GridOptions};
use ccdp_bench::{paper_kernels, BenchKernel, Scale};
use ccdp_core::{run_seq, CellFailure, PipelineConfig, PipelineError, Scheme};
use ccdp_ir::{Program, ProgramBuilder};
use ccdp_json::Json;
use t3d_sim::FaultPlan;

/// A structurally valid program whose serial epoch would run two billion
/// iterations — the "runaway synthesized program" the budgets exist for.
fn runaway() -> Program {
    let mut pb = ProgramBuilder::new("runaway");
    let a = pb.shared("A", &[64]);
    pb.serial_epoch("spin", |e| {
        e.serial("i", 0, 2_000_000_000, |e, _i| {
            e.assign(a.at1(0), 1.0);
        });
    });
    pb.finish().expect("runaway program is structurally valid")
}

/// Two-billion-iteration loops that touch only private data, in both
/// places a loop body runs on one PE: a DOALL's own range, and a serial
/// loop nested in a DOALL.
fn private_runaways() -> [(&'static str, Program); 2] {
    let mut pb = ProgramBuilder::new("private-doall-runaway");
    let t = pb.private("T", &[8]);
    pb.parallel_epoch("spin", |e| {
        e.doall("i", 0, 2_000_000_000, |e, _i| {
            e.assign(t.at1(0), t.at1(1).rd() * 2.0);
        });
    });
    let doall = pb.finish().expect("runaway program is structurally valid");
    let mut pb = ProgramBuilder::new("private-nested-runaway");
    let t = pb.private("T", &[8]);
    pb.parallel_epoch("spin", |e| {
        e.doall("i", 0, 1, |e, i| {
            e.serial("j", 0, 2_000_000_000, |e, _j| {
                e.assign(t.at1(i), t.at1(i).rd() * 2.0);
            });
        });
    });
    let nested = pb.finish().expect("runaway program is structurally valid");
    [("doall", doall), ("nested", nested)]
}

#[test]
fn budget_terminates_runaway_under_both_interpreters() {
    let p = runaway();
    for force_treewalk in [false, true] {
        let mut cfg = PipelineConfig::t3d(2);
        cfg.sim.force_treewalk = force_treewalk;
        cfg.sim.cycle_budget = Some(1_000_000);
        match run_seq(&p, &cfg) {
            Err(PipelineError::BudgetExceeded { cycles, steps, .. }) => {
                assert!(cycles > 1_000_000, "abort records the crossing cycle count");
                assert!(steps > 0);
            }
            Ok(_) => panic!("runaway program finished under a 1M-cycle budget"),
            Err(other) => panic!("expected BudgetExceeded, got: {other}"),
        }
        // The CCDP path (compile + prefetch plan) is budgeted too.
        match cfg.run(&p, Scheme::Ccdp) {
            Err(PipelineError::BudgetExceeded { .. }) => {}
            Ok(_) => panic!("runaway CCDP run finished under budget"),
            Err(other) => panic!("expected BudgetExceeded, got: {other}"),
        }
        // Step budgets bound the same loop by interpreter steps.
        let mut cfg = PipelineConfig::t3d(2);
        cfg.sim.force_treewalk = force_treewalk;
        cfg.sim.step_budget = Some(100_000);
        match run_seq(&p, &cfg) {
            Err(PipelineError::BudgetExceeded { steps, .. }) => {
                assert!(steps > 100_000);
            }
            other => panic!("expected BudgetExceeded on step budget, got ok={}", other.is_ok()),
        }
    }
    // Private-only bodies charge per iteration on the compiled path too,
    // so both interpreters abort at the same PE, cycle and step.
    for (name, p) in private_runaways() {
        let abort = |force_treewalk: bool| {
            let mut cfg = PipelineConfig::t3d(2);
            cfg.sim.force_treewalk = force_treewalk;
            cfg.sim.cycle_budget = Some(1_000_000);
            match cfg.run(&p, Scheme::Base) {
                Err(PipelineError::BudgetExceeded { pe, cycles, steps }) => (pe, cycles, steps),
                Ok(_) => panic!("{name}: private runaway finished under a 1M-cycle budget"),
                Err(other) => panic!("{name}: expected BudgetExceeded, got: {other}"),
            }
        };
        let (compiled, treewalk) = (abort(false), abort(true));
        assert_eq!(compiled, treewalk, "{name}: (pe, cycles, steps)");
        assert!(compiled.1 < 2_000_000, "{name}: abort past the budget: {compiled:?}");
    }
}

#[test]
fn wall_deadline_terminates_runaway() {
    let p = runaway();
    let mut cfg = PipelineConfig::t3d(2);
    // A deadline already in the past: the cooperative check fires on the
    // first 4096-step boundary.
    cfg.sim.wall_deadline = Some(std::time::Instant::now());
    match run_seq(&p, &cfg) {
        Err(PipelineError::Timeout { steps, .. }) => assert!(steps > 0),
        Ok(_) => panic!("runaway run finished despite an expired deadline"),
        Err(other) => panic!("expected Timeout, got: {other}"),
    }
}

/// Without budgets the new machinery must be inert: both paths still agree
/// byte-for-byte on a real kernel (the equivalence contract).
#[test]
fn unbudgeted_runs_are_unchanged_by_budget_machinery() {
    let kernels = paper_kernels(Scale::Quick);
    let k = &kernels[0];
    let run = |tw: bool, budget: Option<u64>| {
        let mut cfg = ccdp_bench::cell_config(k, 4);
        cfg.sim.force_treewalk = tw;
        // A budget far above the real cost: enabled but never fires.
        cfg.sim.cycle_budget = budget;
        run_seq(&k.program, &cfg).expect("in-budget run").cycles
    };
    let plain = run(false, None);
    assert_eq!(plain, run(true, None));
    assert_eq!(plain, run(false, Some(u64::MAX)));
    assert_eq!(plain, run(true, Some(u64::MAX)));
}

fn oob_kernel() -> BenchKernel {
    // Structurally valid (validate has no static bounds analysis) but
    // indexes past the array extent: panics inside the simulator.
    let mut pb = ProgramBuilder::new("oob");
    let a = pb.shared("A", &[8]);
    pb.parallel_epoch("w", |e| {
        e.doall("i", 0, 127, |e, i| e.assign(a.at1(i), 1.0));
    });
    BenchKernel {
        name: "OOB",
        program: pb.finish().expect("structurally valid"),
        repeat_sample: None,
        layout: None,
    }
}

#[test]
fn panicking_cell_is_contained_and_classified() {
    let kernels = vec![oob_kernel()];
    let grid = run_grid_isolated(
        &kernels,
        &[2],
        &[Scheme::Base, Scheme::Ccdp],
        &[(0, 0)],
        &GridOptions::default(),
        |_| {},
    );
    match grid[0][0].as_ref().expect("cell was requested") {
        CellOutcome::Fail(CellFailure::Panicked { retried, .. }) => {
            assert!(*retried, "a deterministic panic is retried once, then recorded");
        }
        other => panic!("expected Panicked, got {}", other.class()),
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccdp-resilience-{tag}-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The tentpole guarantee: kill a run mid-grid (simulated by truncating
/// its journal, including a torn trailing line), resume, and get a report
/// document byte-identical to the uninterrupted run — including under a
/// seeded fault plan.
#[test]
fn killed_run_resumes_to_byte_identical_report() {
    let kernels = paper_kernels(Scale::Quick);
    let kernels = &kernels[..2];
    let names: Vec<&str> = kernels.iter().map(|k| k.name).collect();
    let pes = [2usize, 4];
    let opts = GridOptions {
        faults: Some(FaultPlan::none().with_seed(11).with_drop_rate(0.05)),
        ..Default::default()
    };
    let schemes = [Scheme::Base, Scheme::Ccdp];
    let dir = tmp_dir("resume");
    let path = dir.join("grid.journal.jsonl");
    let header = header_line("report", Scale::Quick, 11, &pes, &schemes, &opts);

    // Uninterrupted run.
    let full = run_journaled_grid(kernels, &pes, &schemes, &opts, &path, &header, false)
        .expect("journaled run");
    assert_eq!(full.reused, 0);
    assert!(full.failures.is_empty(), "quick kernels are coherent under this plan");
    let doc_full =
        report_json_cells(Scale::Quick, 11, &pes, &schemes, &names, &full.cells)
            .to_pretty();

    // "Kill" it: keep the header and the first two journaled cells, plus a
    // torn line from the crashed append.
    let text = fs::read_to_string(&path).expect("journal readable");
    let mut kept: Vec<&str> = text.lines().take(3).collect();
    assert_eq!(kept.len(), 3, "full run journaled at least two cells");
    kept.push("{\"kind\":\"cell\",\"kernel\":\"VPE");
    fs::write(&path, kept.join("\n")).expect("truncate journal");

    // Resume: two cells replayed, the rest re-simulated.
    let resumed = run_journaled_grid(kernels, &pes, &schemes, &opts, &path, &header, true)
        .expect("resumed run");
    assert_eq!(resumed.reused, 2, "exactly the journaled cells are reused");
    let doc_resumed =
        report_json_cells(Scale::Quick, 11, &pes, &schemes, &names, &resumed.cells)
            .to_pretty();
    assert_eq!(doc_full, doc_resumed, "resumed document must be byte-identical");

    // A second resume replays everything and changes nothing.
    let replayed = run_journaled_grid(kernels, &pes, &schemes, &opts, &path, &header, true)
        .expect("fully replayed run");
    assert_eq!(replayed.reused, 4);
    let doc_replayed =
        report_json_cells(Scale::Quick, 11, &pes, &schemes, &names, &replayed.cells)
            .to_pretty();
    assert_eq!(doc_full, doc_replayed);
    fs::remove_dir_all(&dir).ok();
}

/// Deterministic failures (budget exhaustion) are checkpointed facts: a
/// resume replays them instead of burning the budget again.
#[test]
fn budget_failures_are_checkpointed_and_replayed() {
    let kernels = vec![BenchKernel {
        name: "RUNAWAY",
        program: runaway(),
        repeat_sample: None,
        layout: None,
    }];
    let pes = [2usize];
    let schemes = [Scheme::Base, Scheme::Ccdp];
    let opts = GridOptions { cycle_budget: Some(500_000), ..Default::default() };
    let dir = tmp_dir("budget");
    let path = dir.join("grid.journal.jsonl");
    let header = header_line("report", Scale::Quick, 0, &pes, &schemes, &opts);
    let first = run_journaled_grid(&kernels, &pes, &schemes, &opts, &path, &header, false)
        .expect("first run");
    assert_eq!(first.failures.len(), 1);
    assert_eq!(first.failures[0].2, "budget_exceeded");
    let resumed = run_journaled_grid(&kernels, &pes, &schemes, &opts, &path, &header, true)
        .expect("resume");
    assert_eq!(resumed.reused, 1, "budget outcomes replay from the journal");
    assert_eq!(resumed.failures.len(), 1);
    assert_eq!(first.cells[0][0].to_pretty(), resumed.cells[0][0].to_pretty());
    fs::remove_dir_all(&dir).ok();
}

/// The journal never checkpoints panics: a resume re-attempts them.
#[test]
fn panics_are_not_checkpointed() {
    let kernels = vec![oob_kernel()];
    let pes = [2usize];
    let schemes = [Scheme::Base, Scheme::Ccdp];
    let opts = GridOptions::default();
    let dir = tmp_dir("panic");
    let path = dir.join("grid.journal.jsonl");
    let header = header_line("report", Scale::Quick, 0, &pes, &schemes, &opts);
    let first = run_journaled_grid(&kernels, &pes, &schemes, &opts, &path, &header, false)
        .expect("first run");
    assert_eq!(first.failures[0].2, "panicked");
    let (_, entries) = resume_cells(&path, &header).expect("journal readable");
    assert!(entries.is_empty(), "panicked cells must not be journaled");
    let resumed = run_journaled_grid(&kernels, &pes, &schemes, &opts, &path, &header, true)
        .expect("resume");
    assert_eq!(resumed.reused, 0, "the panicked cell is re-attempted on resume");
    fs::remove_dir_all(&dir).ok();
}

/// Invalid programs surface as classified `invalid` cells, not process
/// aborts: the up-front `ccdp_ir::validate` rejection at the pipeline
/// entry points feeds the same outcome taxonomy.
#[test]
fn invalid_program_classified_not_fatal() {
    // Build a valid program, then break it: Repeat with count 0.
    let mut pb = ProgramBuilder::new("bad");
    let a = pb.shared("A", &[8]);
    pb.repeat(1, |r| {
        r.parallel_epoch("w", |e| {
            e.doall("i", 0, 7, |e, i| e.assign(a.at1(i), 1.0));
        });
    });
    let mut p = pb.finish().expect("valid before mutation");
    if let ccdp_ir::ProgramItem::Repeat { count, .. } = &mut p.items[0] {
        *count = 0;
    } else {
        panic!("expected a Repeat item");
    }
    let kernels = vec![BenchKernel {
        name: "BAD",
        program: p,
        repeat_sample: None,
        layout: None,
    }];
    let grid = run_grid_isolated(
        &kernels,
        &[2],
        &[Scheme::Base, Scheme::Ccdp],
        &[(0, 0)],
        &GridOptions::default(),
        |_| {},
    );
    match grid[0][0].as_ref().unwrap() {
        CellOutcome::Fail(CellFailure::Invalid { message }) => {
            assert!(message.contains("repeat"), "message names the defect: {message}");
        }
        other => panic!("expected Invalid, got {}", other.class()),
    }
}

/// The journaled cell JSON survives a parse→re-emit round trip unchanged —
/// the property the byte-identical resume rests on.
#[test]
fn journaled_cells_roundtrip_byte_stable() {
    let kernels = paper_kernels(Scale::Quick);
    let grid = run_grid_isolated(
        &kernels[..1],
        &[2],
        &ccdp_bench::GRID_SCHEMES,
        &[(0, 0)],
        &GridOptions::default(),
        |_| {},
    );
    let cell = ccdp_bench::report::cell_json(grid[0][0].as_ref().unwrap());
    let line = cell.to_string();
    let reparsed: Json = ccdp_json::parse(&line).expect("cell json parses");
    assert_eq!(reparsed.to_string(), line);
    assert_eq!(reparsed, cell);
}
