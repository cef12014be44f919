//! Cross-backend equivalence: every coherence backend — software (BASE,
//! CCDP, invalidate-only) and hardware (snooping MESI, update-based Dragon)
//! — must produce final shared-array contents bit-identical to the
//! sequential golden run, with a clean staleness oracle, on every paper
//! kernel × PE count and on synthesized programs. Performance differs per
//! scheme; semantics never do.
//!
//! (The per-transition MESI/Dragon state-machine unit tests live next to
//! the implementation in `t3d-sim`'s `coherence` module.)

use ccdp_bench::synth::{random_program, SynthConfig};
use ccdp_core::{compare, PipelineConfig, Scheme};
use ccdp_kernels::{small_suite, values_equal};
use proptest::prelude::*;

const PES: [usize; 4] = [1, 2, 4, 8];

#[test]
fn every_backend_matches_golden_on_every_paper_kernel() {
    for spec in small_suite() {
        let aid = spec.program.array_by_name(spec.check_array).unwrap().id;
        for n in PES {
            let m = compare(&spec.program, &PipelineConfig::t3d(n), &Scheme::ALL)
                .unwrap_or_else(|e| panic!("{} P={n}: {e}", spec.name));
            for run in &m.runs {
                let name = run.scheme.name();
                assert!(
                    run.result.oracle.is_coherent(),
                    "{} P={n} {name}: {:?}",
                    spec.name,
                    run.result.oracle.examples
                );
                assert!(
                    values_equal(&run.result.array_values(&spec.program, aid), &spec.golden),
                    "{} P={n} {name}: numerics diverged from golden",
                    spec.name
                );
            }
            // The hardware backends must actually be exercising the bus
            // once there is more than one PE — a zero count would mean the
            // scheme silently fell back to something else.
            if n > 1 {
                for s in [Scheme::Mesi, Scheme::Dragon] {
                    let txns = m.get(s).unwrap().result.total_stats().bus_txns;
                    assert!(txns > 0, "{} P={n} {}: no bus traffic", spec.name, s.name());
                }
            }
        }
    }
}

#[test]
fn hardware_backends_need_no_prefetch_plan() {
    // A hardware run reports zero compiler-inserted prefetches: coherence
    // comes from the protocol, not the plan.
    let spec = &small_suite()[0];
    let m = compare(&spec.program, &PipelineConfig::t3d(4), &Scheme::ALL).expect("coherent");
    for s in [Scheme::Mesi, Scheme::Dragon] {
        let t = m.get(s).unwrap().result.total_stats();
        assert_eq!(
            t.line_prefetches_issued + t.vector_prefetches_issued,
            0,
            "{}: hardware scheme issued compiler prefetches",
            s.name()
        );
    }
    // While the CCDP run does prefetch.
    let ccdp = m.get(Scheme::Ccdp).unwrap().result.total_stats();
    assert!(ccdp.line_prefetches_issued + ccdp.vector_prefetches_issued > 0);
}

fn check_synth(seed: u64, n_pes: usize) -> Result<(), TestCaseError> {
    let program = random_program(seed, &SynthConfig::default());
    let m = compare(&program, &PipelineConfig::t3d(n_pes), &Scheme::ALL)
        .unwrap_or_else(|e| panic!("seed {seed} P={n_pes}: {e}"));
    for run in &m.runs {
        let name = run.scheme.name();
        prop_assert!(
            run.result.oracle.is_coherent(),
            "seed {} P={} {}: {:?}",
            seed,
            n_pes,
            name,
            run.result.oracle.examples
        );
        for a in &program.arrays {
            prop_assert_eq!(
                run.result.array_values(&program, a.id),
                m.seq.array_values(&program, a.id),
                "seed {} P={} {} array {}: diverged from SEQ",
                seed,
                n_pes,
                name,
                &a.name
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_backend_matches_seq_on_synthesized_programs(
        seed in 0u64..10_000,
        n_pes in prop::sample::select(vec![1usize, 2, 3, 5, 8]),
    ) {
        check_synth(seed, n_pes)?;
    }
}

/// Fixed regression sweep (deterministic, no shrinking).
#[test]
fn fixed_seed_backend_sweep() {
    for seed in [0u64, 3, 17, 256, 4071] {
        for n_pes in [2usize, 6] {
            check_synth(seed, n_pes).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}

/// Hardware schemes under a seeded fault plan. Latency spikes reach the
/// demand fill and queue storms reach the bus's delayed-message queue, so
/// this pins both fault hooks on the MESI/Dragon path; the committed
/// reference grid covers only fault-free runs. The constants are the
/// simulator's output for this plan, not derived figures: a change to any
/// of them is a change to simulated behaviour.
#[test]
fn hardware_backends_under_a_fault_plan_are_pinned() {
    use t3d_sim::FaultPlan;
    let spec = small_suite().into_iter().find(|s| s.name == "TOMCATV").unwrap();
    let plan = FaultPlan::none().with_seed(1997).with_delay(0.2, 3, 2).with_storms(0.05, 3);
    // (n_pes, scheme, (cycles, bus_txns, bus_invalidations, bus_updates,
    // fills_delayed, queue_storms)). The 64-PE rows run the snoop at the
    // widest machine the hardware backends support.
    let want = [
        (4, Scheme::Mesi, (270187, 4832, 1460, 0, 592, 223)),
        (4, Scheme::Dragon, (188878, 5651, 0, 3635, 276, 258)),
        (64, Scheme::Mesi, (429790, 10153, 5407, 0, 2085, 436)),
        (64, Scheme::Dragon, (300096, 8117, 0, 13664, 618, 349)),
    ];
    for (n, s, expect) in want {
        let cfg = PipelineConfig::t3d(n).with_faults(plan);
        let r = cfg
            .run(&spec.program, s)
            .unwrap_or_else(|e| panic!("P={n} {}: {e}", s.name()))
            .result;
        assert!(r.oracle.is_coherent(), "P={n} {}: {:?}", s.name(), r.oracle.examples);
        let t = r.total_stats();
        let f = r.fault_stats();
        let got = (
            r.cycles,
            t.bus_txns,
            t.bus_invalidations,
            t.bus_updates,
            f.fills_delayed,
            f.queue_storms,
        );
        assert_eq!(got, expect, "P={n} {}", s.name());
    }
}
