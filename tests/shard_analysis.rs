//! The static shard-independence analysis against its run-time oracle.
//!
//! Three layers of evidence, all on the same predicate (no earlier block
//! writes a cache line a later block touches):
//!
//! * **Witness programs** pin each verdict — `Disjoint` shards as pure
//!   fork/join, `MayConflict` and `Unknown` run serially — and all three
//!   stay byte-identical to the serial run.
//! * **Property sweep**: across synth programs, the paper kernels, and PE
//!   counts, a loop the analysis proves `Disjoint` must never be convicted
//!   by the shard audit — a dynamic log of every PE's touched and written
//!   lines per DOALL instance, recorded on a serial run and checked at the
//!   finest partition (one PE per block). A false proof would be a silent
//!   wrong answer, not a performance bug.
//! * **Mutation battery**: `mutate_program` injects a cross-block write
//!   into a DOALL; the static verdict must flip to non-`Disjoint` *and* the
//!   audit must convict the same loop.
//!
//! Budget slicing rides along: statically proven epochs shard under cycle /
//! step budgets, and tight budgets abort identically to the serial run.

use ccdp_analysis::shard_scan;
use ccdp_bench::synth::{mutate_program, random_program, ProgramMutation, SynthConfig};
use ccdp_bench::{cell_config, paper_kernels, Scale, PAPER_PES};
use ccdp_core::{compile_ccdp, PipelineConfig, Scheme};
use ccdp_dist::Layout;
use ccdp_ir::{CondB, Program, ProgramBuilder};
use ccdp_json::ToJson;
use t3d_sim::{Scheme as SimScheme, ShardAudit, SimResult, Simulator};

const N: i64 = 32;

/// Each PE rewrites only the columns it owns: provably disjoint.
fn disjoint_program() -> Program {
    let mut pb = ProgramBuilder::new("disjoint");
    let a = pb.shared("A", &[N as usize, N as usize]);
    pb.parallel_epoch("sweep", |e| {
        e.doall("j", 0, N - 1, |e, j| {
            e.serial("i", 0, N - 1, |e, i| {
                e.assign(a.at2(i, j), a.at2(i, j).rd() * 0.5 + 1.0);
            });
        });
    });
    pb.finish().unwrap()
}

/// Backward column stencil: each block reads the last column of the block
/// before it — a real cross-block conflict the merge scan must catch.
fn conflict_program() -> Program {
    let mut pb = ProgramBuilder::new("conflict");
    let a = pb.shared("A", &[N as usize, N as usize]);
    pb.parallel_epoch("stencil", |e| {
        e.doall("j", 1, N - 1, |e, j| {
            e.serial("i", 0, N - 1, |e, i| {
                e.assign(a.at2(i, j), a.at2(i, j).rd() * 0.5 + a.at2(i, j - 1).rd() * 0.25);
            });
        });
    });
    pb.finish().unwrap()
}

/// A guarded write inside the DOALL: the analysis cannot bound the guard's
/// footprint and must answer `Unknown` (the guarded body is per-column and
/// actually disjoint, so the optimistic dynamic path merges cleanly).
fn unknown_program() -> Program {
    let mut pb = ProgramBuilder::new("unknown");
    let a = pb.shared("A", &[N as usize, N as usize]);
    pb.parallel_epoch("guarded", |e| {
        e.doall("j", 0, N - 1, |e, j| {
            e.serial("i", 0, N - 1, |e, i| {
                e.if_(CondB::gt(i, 3), |e| {
                    e.assign(a.at2(i, j), a.at2(i, j).rd() * 0.5 + 1.0);
                });
            });
        });
    });
    pb.finish().unwrap()
}

fn threaded(cfg: &PipelineConfig, t: usize) -> PipelineConfig {
    let mut c = cfg.clone();
    c.sim.sim_threads = t;
    c
}

/// Serialized-report plus shared-memory byte identity (the same contract as
/// `tests/parallel_equivalence.rs`).
fn assert_identical(program: &Program, a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(a.to_json().to_pretty(), b.to_json().to_pretty(), "report mismatch: {what}");
    for arr in &program.arrays {
        if !a.memory.is_shared(arr.id) {
            continue;
        }
        let ab: Vec<u64> =
            a.memory.array_values(program, arr.id).iter().map(|v| v.to_bits()).collect();
        let bb: Vec<u64> =
            b.memory.array_values(program, arr.id).iter().map(|v| v.to_bits()).collect();
        assert_eq!(ab, bb, "memory mismatch in {} ({what})", arr.name);
    }
}

#[test]
fn witness_programs_pin_all_three_verdicts() {
    for (p, expect) in [
        (disjoint_program(), "disjoint"),
        (conflict_program(), "may_conflict"),
        (unknown_program(), "unknown"),
    ] {
        let layout = Layout::new(&p, 4);
        let vs = shard_scan(&p, &layout, 4);
        assert_eq!(vs.len(), 1, "{}: one parallel epoch", p.name);
        assert_eq!(vs[0].verdict.key(), expect, "{}", p.name);
    }
}

/// Run `program` serially under `scheme` with the shard audit armed.
/// Returns the program the simulator executed (CCDP runs the transformed
/// one) and the audit.
fn audit(program: &Program, cfg: &PipelineConfig, scheme: Scheme) -> (Program, ShardAudit) {
    let layout = cfg.layout_for(program);
    let (prog, sim_scheme) = match scheme {
        Scheme::Base => (program.clone(), SimScheme::Base),
        Scheme::Ccdp => {
            let art = compile_ccdp(program, cfg);
            (art.transformed, SimScheme::Ccdp { plan: art.plan })
        }
        other => panic!("audit helper covers BASE and CCDP, not {}", other.name()),
    };
    let (result, audit) = Simulator::new(&prog, layout, cfg.machine.clone(), sim_scheme, cfg.sim)
        .run_shard_audit()
        .expect("audited run completes");
    assert!(result.oracle.is_coherent(), "{}: audited run read stale data", program.name);
    assert_eq!(result.shard.sharded(), 0, "the audit runs serially");
    (prog, audit)
}

/// Every loop the analysis proves `Disjoint` is innocent in the audit.
/// Returns (proven loops checked, loops the audit convicted).
fn check_proofs(
    program: &Program,
    cfg: &PipelineConfig,
    scheme: Scheme,
    what: &str,
) -> (u64, u64) {
    let (prog, audit) = audit(program, cfg, scheme);
    let layout = cfg.layout_for(&prog);
    let mut proven = 0;
    for v in shard_scan(&prog, &layout, cfg.machine.line_words) {
        if v.verdict.is_disjoint() {
            proven += 1;
            let c = audit.conflicts.iter().find(|c| c.doall == v.doall);
            assert!(
                c.is_none(),
                "{what}: loop L{} of epoch '{}' proven Disjoint but the audit convicts it: {c:?}",
                v.doall.index(),
                v.label,
            );
        }
    }
    (proven, audit.conflicts.len() as u64)
}

/// A proven-`Disjoint` epoch runs as pure fork/join, and the result is
/// byte-identical to the serial run.
#[test]
fn disjoint_witness_skips_the_dynamic_machinery() {
    let p = disjoint_program();
    let cfg = PipelineConfig::t3d(8);
    let par = threaded(&cfg, 4).run(&p, Scheme::Base).expect("parallel run");
    let ser = threaded(&cfg, 0).run(&p, Scheme::Base).expect("serial run");
    assert!(par.result.shard.static_proven > 0, "epoch should be proven statically");
    assert_eq!(par.result.shard.sharded(), par.result.shard.static_proven);
    assert_eq!(par.result.shard.declined_budget_unproven, 0);
    assert_eq!(par.result.shard.dynamic_logged, 0);
    assert_eq!(par.result.shard.conflicts, 0);
    assert_identical(&p, &par.result, &ser.result, "disjoint witness");
    // Serial runs never shard: the stats stay zero.
    assert_eq!(ser.result.shard.sharded(), 0);
    // The audit agrees: no PE touches a line an earlier PE wrote.
    let (_, a) = audit(&p, &cfg, Scheme::Base);
    assert!(a.instances > 0);
    assert!(a.conflicts.is_empty(), "{:?}", a.conflicts);
}

/// A really-conflicting epoch is `MayConflict`, so it runs serially — and
/// therefore byte-identically. The audit convicts the same loop, which is
/// what gives the property sweep below its teeth.
#[test]
fn conflict_witness_runs_serially() {
    let p = conflict_program();
    let cfg = PipelineConfig::t3d(8);
    let layout = cfg.layout_for(&p);
    let doall = shard_scan(&p, &layout, cfg.machine.line_words)[0].doall;
    let par = threaded(&cfg, 4).run(&p, Scheme::Base).expect("parallel run");
    let ser = threaded(&cfg, 0).run(&p, Scheme::Base).expect("serial run");
    assert_eq!(par.result.shard.sharded(), 0, "an unproven epoch must not shard");
    assert!(par.result.shard.declined_budget_unproven > 0);
    assert_identical(&p, &par.result, &ser.result, "conflict witness");
    let (_, a) = audit(&p, &cfg, Scheme::Base);
    let c = a.conflicts.first().expect("the stencil conflicts at run time");
    assert_eq!(c.doall, doall);
    assert!(c.writer < c.toucher, "{c:?}");
}

/// An `Unknown` epoch runs serially too, even though this guarded body is
/// actually disjoint (the audit convicts nothing): `Unknown` is
/// conservative, never optimistic.
#[test]
fn unknown_witness_runs_serially() {
    let p = unknown_program();
    let cfg = PipelineConfig::t3d(8);
    let par = threaded(&cfg, 4).run(&p, Scheme::Base).expect("parallel run");
    let ser = threaded(&cfg, 0).run(&p, Scheme::Base).expect("serial run");
    assert_eq!(par.result.shard.sharded(), 0, "an unproven epoch must not shard");
    assert!(par.result.shard.declined_budget_unproven > 0);
    assert_identical(&p, &par.result, &ser.result, "unknown witness");
    let (_, a) = audit(&p, &cfg, Scheme::Base);
    assert!(a.conflicts.is_empty(), "{:?}", a.conflicts);
}

/// Zero false proofs over synth programs: a statically `Disjoint` loop is
/// never convicted by the audit. The sweep must exercise both sides —
/// proven loops to check, and conflicts the audit does see.
#[test]
fn synth_static_disjoint_never_contradicts_the_dynamic_log() {
    let synth_cfg = SynthConfig::default();
    let (mut proven, mut convicted) = (0, 0);
    for seed in 0..40u64 {
        let p = random_program(seed, &synth_cfg);
        for n in [2usize, 4, 8] {
            let what = format!("seed {seed} pes={n}");
            let (pr, cv) = check_proofs(&p, &PipelineConfig::t3d(n), Scheme::Ccdp, &what);
            proven += pr;
            convicted += cv;
        }
    }
    assert!(proven > 0 && convicted > 0, "vacuous sweep: {proven} proven, {convicted} convicted");
}

/// The same zero-false-proof contract over the paper kernels at every
/// multi-PE paper PE count.
#[test]
fn kernel_static_disjoint_never_contradicts_the_dynamic_log() {
    let (mut proven, mut convicted) = (0, 0);
    for k in &paper_kernels(Scale::Quick) {
        for &n in PAPER_PES.iter().filter(|&&n| n >= 2) {
            let what = format!("{} pes={n}", k.name);
            let (pr, cv) = check_proofs(&k.program, &cell_config(k, n), Scheme::Ccdp, &what);
            proven += pr;
            convicted += cv;
        }
    }
    assert!(proven > 0 && convicted > 0, "vacuous sweep: {proven} proven, {convicted} convicted");
}

/// Mutation battery: injecting a cross-block write must flip the static
/// verdict to non-`Disjoint`, and the audit must convict the same loop at
/// run time — the two detectors agree on every corruption.
#[test]
fn mutated_programs_flip_the_verdict_and_the_dynamic_log_agrees() {
    let synth_cfg = SynthConfig::default();
    for seed in 0..25u64 {
        let mut p = random_program(seed, &synth_cfg);
        let m = mutate_program(seed, &mut p).expect("synth programs always have a site");
        let ProgramMutation::CrossBlockWrite { doall, .. } = &m;
        let cfg = PipelineConfig::t3d(8);
        let layout = cfg.layout_for(&p);
        let v = shard_scan(&p, &layout, cfg.machine.line_words)
            .into_iter()
            .find(|v| v.doall == *doall)
            .expect("mutated doall is scanned");
        assert!(!v.verdict.is_disjoint(), "seed {seed}: {m} left the loop Disjoint");
        let (_, a) = audit(&p, &cfg, Scheme::Base);
        assert!(a.convicts(*doall), "seed {seed}: {m} not convicted by the audit");
    }
}

/// Statically proven epochs shard under a step budget (per-block budget
/// slicing); generous budgets complete identically, tight budgets abort
/// with exactly the serial error.
#[test]
fn proven_disjoint_epochs_shard_under_budgets() {
    let p = disjoint_program();
    let cfg = PipelineConfig::t3d(8);

    let mut generous = threaded(&cfg, 4);
    generous.sim.step_budget = Some(10_000_000);
    let run = generous.run(&p, Scheme::Base).expect("generous budget completes");
    assert!(run.result.shard.static_proven > 0, "budgeted proven epoch must still shard");
    assert_eq!(run.result.shard.declined_budget_unproven, 0);
    let mut gs = threaded(&cfg, 0);
    gs.sim.step_budget = Some(10_000_000);
    let ser = gs.run(&p, Scheme::Base).expect("serial generous budget");
    assert_identical(&p, &run.result, &ser.result, "generous step budget");

    // Unproven epochs under a budget decline sharding (structured reason).
    let up = unknown_program();
    let mut ub = threaded(&cfg, 4);
    ub.sim.step_budget = Some(10_000_000);
    let ur = ub.run(&up, Scheme::Base).expect("unknown budgeted run");
    assert!(ur.result.shard.declined_budget_unproven > 0);
    assert_eq!(ur.result.shard.sharded(), 0);

    // Tight budgets: outcome (including the abort error text) matches the
    // serial run exactly, whether the budget trips inside a worker or not.
    for budget in [50u64, 500, 5_000] {
        let mut pa = threaded(&cfg, 4);
        pa.sim.step_budget = Some(budget);
        let mut se = threaded(&cfg, 0);
        se.sim.step_budget = Some(budget);
        match (se.run(&p, Scheme::Base), pa.run(&p, Scheme::Base)) {
            (Ok(s), Ok(a)) => assert_identical(&p, &a.result, &s.result, "tight budget ok"),
            (Err(s), Err(a)) => {
                assert_eq!(format!("{s}"), format!("{a}"), "budget {budget} abort text")
            }
            (s, a) => panic!(
                "budget {budget}: outcomes diverge, serial ok={} parallel ok={}",
                s.is_ok(),
                a.is_ok()
            ),
        }
    }
}
