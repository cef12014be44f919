//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! ```text
//! cargo run -p ccdp-bench --release --bin ablations [-- <which>]
//! CCDP_SCALE=paper cargo run -p ccdp-bench --release --bin ablations
//! ```
//!
//! `which` ∈ {target, sched, queue, latency, scheme, clean, faults, all}
//! (default all). Each study prints one small table; see EXPERIMENTS.md for
//! the recorded paper-scale outputs. The `faults` study injects seeded
//! fault plans (`--seed N` / `CCDP_SEED` select the decision streams).

use ccdp_bench::{paper_kernels, run_cell_with, seed_from, BenchKernel, Scale};
use ccdp_core::flags::or_exit;
use ccdp_core::{compare, compile_ccdp, PipelineConfig, Scheme, SchemeMatrix};
use t3d_sim::FaultPlan;

const PES: usize = 8;

/// One BASE/CCDP ablation cell; a coherence violation in a tweaked
/// configuration is a real finding, so fail loudly with the evidence.
fn cell(k: &BenchKernel, tweak: impl FnOnce(&mut PipelineConfig)) -> SchemeMatrix {
    run_cell_with(k, PES, &[Scheme::Base, Scheme::Ccdp], tweak)
        .unwrap_or_else(|e| panic!("{}: {e}", k.name))
}

/// Table 2 metric of a BASE/CCDP cell (both schemes always present).
fn imp(m: &SchemeMatrix) -> f64 {
    m.improvement_pct().expect("cell has BASE and CCDP runs")
}

fn ccdp_cycles(m: &SchemeMatrix) -> u64 {
    m.cycles(Scheme::Ccdp).expect("cell has a CCDP run")
}

fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Group-spatial filtering on/off: prefetch counts and performance.
fn ablation_target(kernels: &[BenchKernel]) {
    header("ablation: prefetch target analysis (group-spatial elimination)");
    println!(
        "{:>8} | {:>10} {:>9} {:>9} | {:>10} {:>9} {:>9}",
        "kernel", "imp% (on)", "targets", "follower", "imp% (off)", "targets", "follower"
    );
    for k in kernels {
        let on = cell(k, |_| {});
        let off = cell(k, |cfg| {
            cfg.target.exploit_group_spatial = false;
        });
        println!(
            "{:>8} | {:>10.2} {:>9} {:>9} | {:>10.2} {:>9} {:>9}",
            k.name,
            imp(&on),
            on.plan_stats.targets,
            on.plan_stats.followers,
            imp(&off),
            off.plan_stats.targets,
            off.plan_stats.followers,
        );
    }
}

/// Restrict the scheduler to a single technique.
fn ablation_sched(kernels: &[BenchKernel]) {
    header("ablation: scheduling techniques (improvement % over BASE)");
    println!(
        "{:>8} | {:>8} {:>8} {:>8} {:>8} {:>8}",
        "kernel", "all", "vpg", "sp", "mbp", "none"
    );
    for k in kernels {
        let mut row = vec![];
        for (v, s, m) in [
            (true, true, true),
            (true, false, false),
            (false, true, false),
            (false, false, true),
            (false, false, false),
        ] {
            let c = cell(k, |cfg| {
                cfg.schedule.enable_vpg = v;
                cfg.schedule.enable_sp = s;
                cfg.schedule.enable_mbp = m;
            });
            row.push(imp(&c));
        }
        println!(
            "{:>8} | {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            k.name, row[0], row[1], row[2], row[3], row[4]
        );
    }
}

/// Prefetch queue depth sweep (VPG disabled so line prefetches matter).
fn ablation_queue(kernels: &[BenchKernel]) {
    header("ablation: prefetch queue depth (VPG disabled; CCDP cycles, relative)");
    let depths = [8usize, 16, 32, 64];
    println!(
        "{:>8} | {:>10} {:>10} {:>10} {:>10}",
        "kernel", "q=8", "q=16", "q=32", "q=64"
    );
    for k in kernels {
        let mut cells = vec![];
        for &q in &depths {
            let c = cell(k, |cfg| {
                cfg.schedule.enable_vpg = false;
                cfg.schedule.queue_words = q;
                cfg.machine.queue_words = q;
            });
            cells.push(ccdp_cycles(&c) as f64);
        }
        let base = cells[1]; // q=16 is the T3D default
        print!("{:>8} |", k.name);
        for c in &cells {
            print!(" {:>10.4}", c / base);
        }
        println!();
    }
}

/// Remote latency sweep: where does CCDP's advantage come from?
fn ablation_latency(kernels: &[BenchKernel]) {
    header("ablation: remote latency sweep (improvement % over BASE)");
    let lats = [50u64, 100, 150, 300, 600];
    print!("{:>8} |", "kernel");
    for l in lats {
        print!(" {:>8}", format!("r={l}"));
    }
    println!();
    for k in kernels {
        print!("{:>8} |", k.name);
        for &l in &lats {
            let c = cell(k, |cfg| {
                cfg.machine.remote_fill = l;
                cfg.machine.remote_uncached = l;
            });
            print!(" {:>8.2}", imp(&c));
        }
        println!();
    }
}

/// Five-way scheme comparison: software schemes against the hardware rivals.
fn ablation_scheme(kernels: &[BenchKernel]) {
    header("ablation: scheme comparison (speedup over SEQ)");
    print!("{:>8} |", "kernel");
    for s in Scheme::ALL {
        print!(" {:>8}", s.name());
    }
    println!();
    for k in kernels {
        let cfg = ccdp_bench::cell_config(k, PES);
        let m = compare(&k.program, &cfg, &Scheme::ALL)
            .unwrap_or_else(|e| panic!("{}: {e}", k.name));
        print!("{:>8} |", k.name);
        for s in Scheme::ALL {
            print!(" {:>8.2}", m.speedup(s).expect("scheme ran"));
        }
        println!();
    }
}

/// Paper §6 future work: also prefetch the non-stale references.
fn ablation_clean(kernels: &[BenchKernel]) {
    header("ablation: prefetch_clean extension (improvement % over BASE)");
    println!(
        "{:>8} | {:>12} {:>12} {:>14}",
        "kernel", "stale only", "stale+clean", "extra targets"
    );
    for k in kernels {
        let off = cell(k, |_| {});
        let on = cell(k, |cfg| {
            cfg.target.prefetch_clean = true;
        });
        let cfg = {
            let mut c = ccdp_bench::cell_config(k, PES);
            c.target.prefetch_clean = true;
            c
        };
        let art = compile_ccdp(&k.program, &cfg);
        println!(
            "{:>8} | {:>12.2} {:>12.2} {:>14}",
            k.name,
            imp(&off),
            imp(&on),
            art.plan.stats.clean_prefetch
        );
    }
}

/// Resilience under injected faults: CCDP cycles degrade but coherence and
/// numerics hold (the cell would panic loudly otherwise).
fn ablation_faults(kernels: &[BenchKernel], seed: u64) {
    header(&format!("ablation: fault injection (CCDP slowdown vs fault-free; seed {seed})"));
    let plans = [
        ("drop=0.1", FaultPlan::none().with_seed(seed).with_drop_rate(0.1)),
        ("delay 4x", FaultPlan::none().with_seed(seed).with_delay(0.1, 4, 3)),
        ("storms", FaultPlan::none().with_seed(seed).with_storms(0.05, 4)),
        ("evict=0.1", FaultPlan::none().with_seed(seed).with_evict_rate(0.1)),
    ];
    print!("{:>8} |", "kernel");
    for (name, _) in &plans {
        print!(" {:>10}", name);
    }
    println!(" {:>12}", "fallbacks*");
    for k in kernels {
        let clean = ccdp_cycles(&cell(k, |_| {})) as f64;
        print!("{:>8} |", k.name);
        let mut fallbacks = 0;
        for (_, plan) in &plans {
            let c = cell(k, |cfg| cfg.sim.faults = *plan);
            print!(" {:>10.4}", ccdp_cycles(&c) as f64 / clean);
            fallbacks += c
                .get(Scheme::Ccdp)
                .expect("cell has a CCDP run")
                .result
                .fault_stats()
                .demand_fallbacks;
        }
        println!(" {fallbacks:>12}");
    }
    println!("(* demand fallbacks summed over the four plans)");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args
        .iter()
        .find(|a| !a.starts_with("--") && !a.chars().all(|c| c.is_ascii_digit()))
        .cloned()
        .unwrap_or_else(|| "all".into());
    let scale = or_exit(Scale::from_env());
    let seed = or_exit(seed_from(&args));
    eprintln!("running ablations ({which}) at {scale:?} scale, P={PES} ...");
    let kernels = paper_kernels(scale);
    match which.as_str() {
        "target" => ablation_target(&kernels),
        "sched" => ablation_sched(&kernels),
        "queue" => ablation_queue(&kernels),
        "latency" => ablation_latency(&kernels),
        "scheme" => ablation_scheme(&kernels),
        "clean" => ablation_clean(&kernels),
        "faults" => ablation_faults(&kernels, seed),
        _ => {
            ablation_target(&kernels);
            ablation_sched(&kernels);
            ablation_queue(&kernels);
            ablation_latency(&kernels);
            ablation_scheme(&kernels);
            ablation_clean(&kernels);
            ablation_faults(&kernels, seed);
        }
    }
}
