//! Static coherence-soundness gate: run the `ccdp-lint` verifier over the
//! paper's four kernels at every PE count plus a synthetic-program sweep,
//! merge the verdicts into `BENCH_ccdp.json` as a `lint` section (schema
//! v5), and exit non-zero on any error-severity finding.
//!
//! ```text
//! cargo run -p ccdp-bench --release --bin lint                # env scale
//! cargo run -p ccdp-bench --release --bin lint -- --quick
//! cargo run -p ccdp-bench --release --bin lint -- --synth 60 --seed 7
//! cargo run -p ccdp-bench --release --bin lint -- --mutate 3  # demo: seed a
//!     # plan corruption into TOMCATV and show the verifier catching it
//! ```
//!
//! The kernel grid and the synth sweep are *expected clean*: the planner's
//! output must verify. Each cell also carries the static shard-independence
//! audit (schema v10): per-program verdict counts plus any CCDP006/CCDP007
//! findings appended to the cell's report. `--mutate` inverts the
//! expectation — it corrupts a compiled plan and exits zero only if the
//! verifier reports the defect, then corrupts the *program* with a
//! cross-block write and requires the shard audit to flag it (CCDP006).

use ccdp_bench::report::merge_section;
use ccdp_bench::{cell_config, paper_kernels, seed_from, Scale, PAPER_PES};
use ccdp_core::compile_ccdp;
use ccdp_core::flags::{flag_or_exit, has_flag, or_exit};
use ccdp_core::synth::{mutate_plan, mutate_program, random_program, SynthConfig};
use ccdp_json::{Json, ToJson};
use ccdp_lint::{verify, verify_sharding, LintCode, LintOptions, LintReport, ShardCounts};

fn cell_json(kernel: &str, n_pes: usize, rep: &LintReport, shard: &ShardCounts) -> Json {
    Json::obj([
        ("kernel", kernel.to_json()),
        ("n_pes", n_pes.to_json()),
        ("shard", shard.to_json()),
        ("report", rep.to_json()),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if has_flag(&args, "--quick") {
        Scale::Quick
    } else {
        or_exit(Scale::from_env())
    };
    let seed = or_exit(seed_from(&args));
    let n_synth: usize = flag_or_exit(&args, "--synth").unwrap_or(40);

    if let Some(mseed) = flag_or_exit(&args, "--mutate") {
        demo_mutation(scale, mseed);
        return;
    }

    eprintln!("linting kernel grid at {scale:?} scale, P={PAPER_PES:?} ...");
    let kernels = paper_kernels(scale);
    let mut cells = Vec::new();
    let (mut errors, mut warnings) = (0usize, 0usize);
    let mut shard_totals = ShardCounts::default();
    for k in &kernels {
        for &n in PAPER_PES.iter() {
            let cfg = cell_config(k, n);
            let art = compile_ccdp(&k.program, &cfg);
            let layout = cfg.layout_for(&k.program);
            let mut rep = verify(
                &art.transformed,
                &art.plan,
                &layout,
                &LintOptions::from_schedule(&cfg.schedule),
            );
            let (shard_findings, shard_counts) =
                verify_sharding(&art.transformed, &layout, cfg.machine.line_words);
            rep.findings.extend(shard_findings);
            if !rep.findings.is_empty() {
                eprintln!("-- {} P={n}:\n{}", k.name, rep.render());
            }
            errors += rep.errors();
            warnings += rep.warnings();
            add_counts(&mut shard_totals, &shard_counts);
            cells.push(cell_json(k.name, n, &rep, &shard_counts));
        }
    }

    eprintln!("linting {n_synth} synthetic programs (seed {seed}) ...");
    let synth_cfg = SynthConfig::default();
    let mut synth_errors = 0usize;
    let mut synth_warnings = 0usize;
    let mut synth_shard = ShardCounts::default();
    for s in 0..n_synth as u64 {
        let p = random_program(seed.wrapping_add(s), &synth_cfg);
        for n in [2usize, 4, 8] {
            let cfg = ccdp_core::PipelineConfig::t3d(n);
            let art = compile_ccdp(&p, &cfg);
            let layout = cfg.layout_for(&p);
            let mut rep = verify(
                &art.transformed,
                &art.plan,
                &layout,
                &LintOptions::from_schedule(&cfg.schedule),
            );
            let (shard_findings, shard_counts) =
                verify_sharding(&art.transformed, &layout, cfg.machine.line_words);
            rep.findings.extend(shard_findings);
            if !rep.is_sound() {
                eprintln!("-- synth seed {} P={n}:\n{}", seed.wrapping_add(s), rep.render());
            }
            synth_errors += rep.errors();
            synth_warnings += rep.warnings();
            add_counts(&mut synth_shard, &shard_counts);
        }
    }

    let section = Json::obj([
        ("scale", scale.name().to_json()),
        ("seed", seed.to_json()),
        ("pes", Json::arr(PAPER_PES.iter().map(|p| p.to_json()))),
        ("kernel_cells", Json::arr(cells)),
        (
            "synth",
            Json::obj([
                ("programs", n_synth.to_json()),
                ("errors", synth_errors.to_json()),
                ("warnings", synth_warnings.to_json()),
                ("shard", synth_shard.to_json()),
            ]),
        ),
        ("shard", shard_totals.to_json()),
        ("errors", (errors + synth_errors).to_json()),
        ("warnings", (warnings + synth_warnings).to_json()),
        ("sound", (errors + synth_errors == 0).to_json()),
    ]);
    merge_section("lint", section);

    if errors + synth_errors > 0 {
        eprintln!("lint: {} error finding(s)", errors + synth_errors);
        std::process::exit(1);
    }
    eprintln!(
        "lint: clean ({} kernel cells, {n_synth} synth programs, {} warning(s))",
        kernels.len() * PAPER_PES.len(),
        warnings + synth_warnings
    );
}

/// Fold one program's shard verdict counts into a running total.
fn add_counts(total: &mut ShardCounts, c: &ShardCounts) {
    total.doalls += c.doalls;
    total.disjoint += c.disjoint;
    total.may_conflict += c.may_conflict;
    total.unknown += c.unknown;
}

/// Corrupt a compiled TOMCATV plan with one seeded mutation and show the
/// verifier catching it statically (the EXPERIMENTS.md walk-through); then
/// corrupt the *program* with a cross-block write and show the shard audit
/// flagging the same loop with CCDP006.
fn demo_mutation(scale: Scale, mseed: u64) {
    let kernels = paper_kernels(scale);
    let k = kernels.iter().find(|k| k.name == "TOMCATV").expect("TOMCATV in grid");
    let n = 8;
    let cfg = cell_config(k, n);
    let mut art = compile_ccdp(&k.program, &cfg);
    let layout = cfg.layout_for(&k.program);
    let Some(m) = mutate_plan(mseed, &mut art.transformed, &mut art.plan) else {
        eprintln!("plan has no mutable site");
        std::process::exit(2);
    };
    println!("seeded mutation (seed {mseed}): {m}");
    let rep = verify(
        &art.transformed,
        &art.plan,
        &layout,
        &LintOptions::from_schedule(&cfg.schedule),
    );
    println!("{}", rep.render());
    if rep.is_sound() {
        eprintln!("MISSED: verifier reported no error for this mutation");
        std::process::exit(1);
    }
    println!("caught: {} error finding(s) on TOMCATV P={n}", rep.errors());

    // Shard-conflict mutator demo: inject a cross-block write into MXM
    // (statically all-Disjoint, so the corruption is unambiguous) and
    // require a CCDP006 shard-conflict finding with a concrete witness.
    let k = kernels.iter().find(|k| k.name == "MXM").expect("MXM in grid");
    let cfg = cell_config(k, n);
    let layout = cfg.layout_for(&k.program);
    let mut p = k.program.clone();
    let Some(m) = mutate_program(mseed, &mut p) else {
        eprintln!("program has no shard-mutable site");
        std::process::exit(2);
    };
    println!("\nseeded program mutation (seed {mseed}): {m}");
    let (findings, counts) = verify_sharding(&p, &layout, cfg.machine.line_words);
    for f in &findings {
        println!("{f}");
    }
    if !findings.iter().any(|f| f.code == LintCode::ShardConflict) {
        eprintln!("MISSED: shard audit reported no CCDP006 for this mutation");
        std::process::exit(1);
    }
    println!(
        "caught: CCDP006 on MXM P={n} ({} of {} doalls still disjoint)",
        counts.disjoint, counts.doalls
    );
}
