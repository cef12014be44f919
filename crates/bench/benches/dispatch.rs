//! Expression-dispatch microbenches: the boxed [`ValExpr`] tree walk vs the
//! compiled postfix stack machine ([`CExpr::eval`]), plus the end-to-end
//! effect of the compiled trace on a pure-private loop nest (reference tree
//! walker vs compiled body). Both paths are bit-identical by construction —
//! these benches exist to keep the compiled path honest about actually
//! being fast.

use ccdp_ir::{ProgramBuilder, ValExpr, VarEnv, VarId};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use t3d_sim::compiled::CExpr;
use t3d_sim::{MachineConfig, Scheme, SimOptions, Simulator};

/// The four-kernel staple: MXM's multiply-accumulate `c + a * b`.
fn mac_expr() -> ValExpr {
    use ValExpr::*;
    Add(
        Box::new(Read(0)),
        Box::new(Mul(Box::new(Read(1)), Box::new(Read(2)))),
    )
}

/// A larger expression mixing unary and binary operators and a loop
/// variable.
fn general_expr() -> ValExpr {
    use ValExpr::*;
    Max(
        Box::new(Mul(
            Box::new(Abs(Box::new(Sub(Box::new(Read(0)), Box::new(Read(1)))))),
            Box::new(Add(Box::new(Read(2)), Box::new(Var(VarId(0))))),
        )),
        Box::new(Sqrt(Box::new(Read(3)))),
    )
}

fn bench_eval(c: &mut Criterion) {
    let mut env = VarEnv::new(1);
    env.set(VarId(0), 3);
    let reads = [1.25f64, -0.5, 3.75, 9.0];
    let mut g = c.benchmark_group("expr_eval");
    for (name, e) in [("mac", mac_expr()), ("general", general_expr())] {
        let ce = CExpr::compile(&e);
        g.bench_with_input(BenchmarkId::new("tree", name), &e, |b, e| {
            b.iter(|| black_box(e.eval(black_box(&reads), &env)));
        });
        g.bench_with_input(BenchmarkId::new("postfix", name), &ce, |b, ce| {
            b.iter(|| black_box(ce.eval(black_box(&reads), &env)));
        });
    }
    g.finish();
}

/// A pure-private two-statement loop nest: the compiled path runs
/// strength-reduced subscripts and pre-resolved dispatch while the tree
/// walker re-evaluates both per access. Same cycles, same bytes — the gap
/// is pure host-dispatch overhead.
fn bench_sweep(c: &mut Criterion) {
    const N: i64 = 256;
    let mut pb = ProgramBuilder::new("sweep");
    let t = pb.private("T", &[N as usize]);
    let u = pb.private("U", &[N as usize]);
    pb.serial_epoch("e", |e| {
        e.serial("r", 0, 63, |e, _| {
            e.serial("i", 0, N - 1, |e, i| {
                e.assign(t.at1(i), t.at1(i).rd() * 1.0001 + u.at1(i).rd());
                e.assign(u.at1(i), u.at1(i).rd() * 0.9999);
            });
        });
    });
    let program = pb.finish().unwrap();
    let mut g = c.benchmark_group("private_loop");
    g.throughput(Throughput::Elements((64 * N) as u64));
    for (name, treewalk) in [("treewalk", true), ("compiled", false)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let layout = ccdp_dist::Layout::new(&program, 1);
                let opts = SimOptions { force_treewalk: treewalk, ..SimOptions::default() };
                black_box(
                    Simulator::new(
                        &program,
                        layout,
                        MachineConfig::t3d(1),
                        Scheme::Sequential,
                        opts,
                    )
                    .run()
                    .cycles,
                )
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_eval, bench_sweep);
criterion_main!(benches);
