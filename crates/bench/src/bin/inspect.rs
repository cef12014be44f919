//! Diagnostic: per-scheme event counts for one kernel at one PE count,
//! across the full five-way scheme matrix (SEQ + BASE/CCDP/INV/MESI/DRAGON).
//!
//! `cargo run -p ccdp-bench --release --bin inspect -- <kernel> <pes>`

use ccdp_bench::{cell_config, paper_kernels, Scale};
use ccdp_core::flags::or_exit;
use ccdp_core::{compare, compile_ccdp, Scheme};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let kname = args.get(1).map(String::as_str).unwrap_or("TOMCATV");
    let pes: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);
    let scale = or_exit(Scale::from_env());
    let kernels = paper_kernels(scale);
    let k = kernels.iter().find(|k| k.name == kname).unwrap_or_else(|| {
        let names: Vec<_> = kernels.iter().map(|k| k.name).collect();
        eprintln!("unknown kernel {kname:?} (expected one of {names:?})");
        std::process::exit(2);
    });
    let cfg = cell_config(k, pes);

    let art = compile_ccdp(&k.program, &cfg);
    println!("== {} @ {} PEs ==", k.name, pes);
    println!(
        "stale reads: {} / {} shared reads",
        art.stale.n_stale(),
        art.stale.n_shared_reads
    );
    println!("plan: {:?}", art.plan.stats);
    for (rid, t) in {
        let mut v: Vec<_> = art.plan.technique.iter().collect();
        v.sort_by_key(|(r, _)| r.0);
        v
    } {
        println!("  r{} -> {:?}", rid.0, t);
    }

    let m = compare(&k.program, &cfg, &Scheme::ALL).unwrap_or_else(|e| {
        eprintln!("pipeline failed: {e}");
        std::process::exit(1);
    });
    for r in std::iter::once(&m.seq).chain(m.runs.iter().map(|run| &run.result)) {
        let t = r.total_stats();
        println!(
            "{:>6}: cycles {:>14}  hits {:>11}  fills l/r {:>9}/{:>9}  refresh {:>9} \
             unc {:>10} byp {:>8} bus {:>9} pf l/v {:>8}/{:>6} drop {} late {} stallcyc {} \
             barrier {}",
            r.scheme,
            r.cycles,
            t.cache_hits,
            t.local_fills,
            t.remote_fills,
            t.refresh_fills,
            t.uncached_reads,
            t.bypass_reads,
            t.bus_txns,
            t.line_prefetches_issued,
            t.vector_prefetches_issued,
            t.line_prefetches_dropped,
            t.prefetch_late,
            t.mem_stall_cycles,
            t.barrier_wait_cycles,
        );
    }
    print!("speedups over SEQ:");
    for s in Scheme::ALL {
        print!(" {} {:.2}", s.name(), m.speedup(s).expect("scheme ran"));
    }
    println!(
        "; CCDP improvement over BASE {:.2}%",
        m.improvement_pct().expect("both schemes ran")
    );

    let ccdp = &m.get(Scheme::Ccdp).expect("matrix includes CCDP").result;
    println!("\nCCDP cycle breakdown (PE 0):");
    for (cat, cycles) in ccdp.per_pe[0].breakdown.iter() {
        if cycles > 0 {
            println!("  {:>16} {:>14}", cat.name(), cycles);
        }
    }
    let q = ccdp.prefetch_quality();
    println!(
        "prefetch quality: coverage {:.3} accuracy {:.3} timeliness {:.3} drops {}",
        q.coverage, q.accuracy, q.timeliness, q.queue_drops
    );
    for e in &ccdp.epochs {
        println!("  epoch {:<16} {:>14} cycles", e.label, e.total().total());
    }
}
