//! Equivalence of the two execution paths: the compiled trace (default)
//! must be **cycle-for-cycle and byte-for-byte identical** to the reference
//! tree walker (`SimOptions::force_treewalk`) —
//! cycles, per-PE totals, epoch attribution, prefetch quality, oracle
//! verdicts, fault stats, event traces, and the final memory image.
//!
//! Coverage: all four paper kernels at every PE count of the paper's tables
//! (seed 0), plus property-style sweeps over synthesized programs × schemes
//! × fault plans.

use ccdp_bench::synth::{random_program, SynthConfig};
use ccdp_bench::{cell_config, paper_kernels, Scale, PAPER_PES};
use ccdp_core::{run_seq, PipelineConfig, Scheme};
use ccdp_ir::Program;
use ccdp_json::ToJson;
use t3d_sim::{FaultPlan, SimResult};

fn with_treewalk(cfg: &PipelineConfig) -> PipelineConfig {
    let mut c = cfg.clone();
    c.sim.force_treewalk = true;
    c
}

/// Full-result identity: the serialized report (which covers cycles,
/// per-PE/per-epoch breakdowns, prefetch quality, oracle, fault stats, and
/// the event trace) plus the bit pattern of every shared array.
fn assert_identical(program: &Program, fast: &SimResult, slow: &SimResult, what: &str) {
    assert_eq!(
        fast.to_json().to_pretty(),
        slow.to_json().to_pretty(),
        "compiled vs treewalk result mismatch: {what}"
    );
    for a in &program.arrays {
        if !fast.memory.is_shared(a.id) {
            continue;
        }
        let fb: Vec<u64> =
            fast.memory.array_values(program, a.id).iter().map(|v| v.to_bits()).collect();
        let sb: Vec<u64> =
            slow.memory.array_values(program, a.id).iter().map(|v| v.to_bits()).collect();
        assert_eq!(fb, sb, "memory mismatch in {} ({what})", a.name);
    }
}

/// Run every scheme through both paths and compare.
fn check_base_ccdp(program: &Program, cfg: &PipelineConfig, what: &str) {
    let tw = with_treewalk(cfg);
    let f = cfg.run(program, Scheme::Base).expect("base (compiled)").result;
    let s = tw.run(program, Scheme::Base).expect("base (treewalk)").result;
    assert_identical(program, &f, &s, &format!("{what} BASE"));
    let f = cfg.run(program, Scheme::Ccdp).expect("ccdp (compiled)");
    let s = tw.run(program, Scheme::Ccdp).expect("ccdp (treewalk)");
    let art = f.artifacts.as_ref().expect("ccdp run carries its artifacts");
    assert_identical(&art.transformed, &f.result, &s.result, &format!("{what} CCDP"));
}

fn check_seq(program: &Program, cfg: &PipelineConfig, what: &str) {
    let tw = with_treewalk(cfg);
    let f = run_seq(program, cfg).expect("seq (compiled)");
    let s = run_seq(program, &tw).expect("seq (treewalk)");
    assert_identical(program, &f, &s, &format!("{what} SEQ"));
}

/// The acceptance sweep: all four paper kernels × every PE count of the
/// tables, at seed 0 (no faults). The sequential scheme is checked once per
/// kernel — it is independent of the PE count.
#[test]
fn paper_kernels_identical_at_every_pe_count() {
    for k in &paper_kernels(Scale::Quick) {
        check_seq(&k.program, &cell_config(k, PAPER_PES[0]), k.name);
        for &n in &PAPER_PES {
            let cfg = cell_config(k, n);
            check_base_ccdp(&k.program, &cfg, &format!("{} pes={n}", k.name));
        }
    }
}

/// Synthesized programs across seeds: random epoch/loop/subscript shapes,
/// including ones the strength reducer must reject (guarded edge accesses).
#[test]
fn synthesized_programs_identical() {
    let cfg = SynthConfig::default();
    for seed in 0..8u64 {
        let p = random_program(seed, &cfg);
        for n in [1, 3, 8] {
            let pc = PipelineConfig::t3d(n);
            check_seq(&p, &pc, &format!("synth seed={seed}"));
            check_base_ccdp(&p, &pc, &format!("synth seed={seed} pes={n}"));
        }
    }
}

/// Fault injection perturbs latencies, prefetch drops, and queue capacity —
/// the two paths must agree on every fault decision and its accounting.
#[test]
fn faulted_runs_identical() {
    let plans = [
        FaultPlan { seed: 7, drop_rate: 0.3, delay_rate: 0.2, delay_mult: 4, ..FaultPlan::none() },
        FaultPlan { seed: 11, queue_cap: Some(4), storm_rate: 0.2, storm_len: 3, evict_rate: 0.25, ..FaultPlan::none() },
    ];
    let kernels = paper_kernels(Scale::Quick);
    for plan in plans {
        for (k, n) in [(&kernels[0], 8usize), (&kernels[2], 4)] {
            let mut cfg = cell_config(k, n);
            cfg.sim.faults = plan;
            check_base_ccdp(&k.program, &cfg, &format!("{} pes={n} faults seed={}", k.name, plan.seed));
        }
        let p = random_program(3, &SynthConfig::default());
        let mut pc = PipelineConfig::t3d(6);
        pc.sim.faults = plan;
        check_base_ccdp(&p, &pc, &format!("synth faults seed={}", plan.seed));
    }
}

/// Event traces are part of the identity contract: with tracing enabled,
/// both paths must record the same events at the same cycles.
#[test]
fn traced_runs_identical() {
    let kernels = paper_kernels(Scale::Quick);
    let k = &kernels[1]; // VPENTA: serial + DOALL mix.
    let mut cfg = cell_config(k, 8);
    cfg.sim.trace_capacity = 4096;
    check_base_ccdp(&k.program, &cfg, "VPENTA pes=8 traced");
}
