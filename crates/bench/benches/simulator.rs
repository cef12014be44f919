//! Host-performance of the T3D simulator: simulated-events per host second
//! under each execution scheme.

use ccdp_core::{compile_ccdp, PipelineConfig};
use ccdp_kernels::mxm;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use t3d_sim::{MachineConfig, Scheme, SimOptions, Simulator};

fn bench_schemes(c: &mut Criterion) {
    let pr = mxm::Params { m: 64, l: 48, p: 32 };
    let program = mxm::build(&pr);
    // Rough event count: refs per mult-statement instance.
    let events = (pr.m * pr.l * pr.p * 4) as u64;
    let mut g = c.benchmark_group("simulator_mxm");
    g.throughput(Throughput::Elements(events));

    g.bench_function("seq", |b| {
        b.iter(|| {
            let layout = ccdp_dist::Layout::new(&program, 1);
            black_box(
                Simulator::new(
                    &program,
                    layout,
                    MachineConfig::t3d(1),
                    Scheme::Sequential,
                    SimOptions::default(),
                )
                .run()
                .cycles,
            )
        });
    });

    for n_pes in [4usize, 16] {
        g.bench_with_input(BenchmarkId::new("base", n_pes), &n_pes, |b, &n| {
            b.iter(|| {
                let layout = ccdp_dist::Layout::new(&program, n);
                black_box(
                    Simulator::new(
                        &program,
                        layout,
                        MachineConfig::t3d(n),
                        Scheme::Base,
                        SimOptions::default(),
                    )
                    .run()
                    .cycles,
                )
            });
        });
        let cfg = PipelineConfig::t3d(n_pes);
        let art = compile_ccdp(&program, &cfg);
        g.bench_with_input(BenchmarkId::new("ccdp", n_pes), &n_pes, |b, &n| {
            b.iter(|| {
                let layout = ccdp_dist::Layout::new(&program, n);
                black_box(
                    Simulator::new(
                        &art.transformed,
                        layout,
                        MachineConfig::t3d(n),
                        Scheme::Ccdp { plan: art.plan.clone() },
                        SimOptions::default(),
                    )
                    .run()
                    .cycles,
                )
            });
        });
    }
    // The hardware rivals: every miss and shared write rides the snooping
    // bus, so these cases time the presence-vector snoop as well as the
    // hit path.
    for n_pes in [16usize, 64] {
        for (name, scheme) in [("mesi", Scheme::Mesi), ("dragon", Scheme::Dragon)] {
            g.bench_with_input(BenchmarkId::new(name, n_pes), &n_pes, |b, &n| {
                b.iter(|| {
                    let layout = ccdp_dist::Layout::new(&program, n);
                    black_box(
                        Simulator::new(
                            &program,
                            layout,
                            MachineConfig::t3d(n),
                            scheme.clone(),
                            SimOptions::default(),
                        )
                        .run()
                        .cycles,
                    )
                });
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_schemes);
criterion_main!(benches);
