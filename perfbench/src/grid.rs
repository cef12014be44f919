//! The `table1` workload: the quick-scale paper grid, one operation after
//! another on this thread.
//!
//! An operation is one kernel's sequential run, or one cell:
//! `cell_config` → `compare_with_seq` → `SchemeMatrix::to_json().to_string()`.
//! A pass runs every operation once in table order: each kernel's
//! sequential run, then its cells by ascending PE count. The paper grid
//! has no random inputs, so the seed does not change it.
//!
//! The traced run also replays Table 2's schemes on the two-thread sharded
//! engine, the only place the shard layer runs. The sharded grid is not a
//! workload of its own: its wall time spread too widely to bound (see
//! README.md).

use std::time::Instant;

use ccdp_bench::{cell_config, paper_kernels, BenchKernel, Scale, GRID_SCHEMES, PAPER_PES};
use ccdp_core::{compare_with_seq, run_seq, PipelineConfig, Scheme, SchemeMatrix};
use ccdp_json::{Json, ToJson};
use t3d_sim::SimResult;

use crate::reference::{self, CellRef, GridRef, TABLE2_SCHEMES};
use crate::replay::{self, Counts};
use crate::stats::{digest, median, percentile, tail_percentile, Tally};
use crate::trace::Tracer;
use crate::{Metric, Outcome};

/// Passes a measured run makes at least, so the pass time is a median of
/// three.
const MIN_PASSES: usize = 3;
/// Kernel constructions timed for `setup_s`; one takes well under a
/// millisecond, so many are timed and the median reported.
const SETUP_REPS: usize = 201;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Table {
    /// Table 1: BASE/CCDP/MESI/DRAGON on the serial engine.
    One,
    /// Table 2's schemes (BASE/CCDP) on the sharded engine, two threads.
    TwoSharded,
}

impl Table {
    fn schemes(self) -> &'static [Scheme] {
        match self {
            Table::One => &GRID_SCHEMES,
            Table::TwoSharded => &TABLE2_SCHEMES,
        }
    }

    fn config(self, k: &BenchKernel, n_pes: usize) -> PipelineConfig {
        let mut cfg = cell_config(k, n_pes);
        cfg.sim.sim_threads = match self {
            Table::One => 1,
            Table::TwoSharded => 2,
        };
        cfg
    }

    /// Whether the encoded matrix and cycles match the serial reference.
    fn check(self, m: &SchemeMatrix, json: &str, r: &CellRef) -> bool {
        let want = match self {
            Table::One => r.digest_table1,
            Table::TwoSharded => r.digest_table2,
        };
        let cycles_ok = GRID_SCHEMES.iter().zip(r.cycles).all(|(&s, c)| {
            m.cycles(s)
                .map_or(!self.schemes().contains(&s), |got| got == c)
        });
        cycles_ok
            && m.stale_reads == r.stale_reads
            && m.shared_reads == r.shared_reads
            && digest(json.as_bytes()) == want
    }
}

/// Operation `(kernel, None)` is the kernel's sequential run,
/// `(kernel, Some(p))` its cell at `PAPER_PES[p]`.
type Op = (usize, Option<usize>);

fn pass_order(n_kernels: usize) -> Vec<Op> {
    (0..n_kernels)
        .flat_map(|k| {
            std::iter::once((k, None)).chain((0..PAPER_PES.len()).map(move |p| (k, Some(p))))
        })
        .collect()
}

struct Grid {
    table: Table,
    kernels: Vec<BenchKernel>,
    reference: GridRef,
}

impl Grid {
    /// Run one operation through the library and check it against the
    /// reference; a sequential run also leaves its result in `seqs` for
    /// the kernel's cells.
    fn op(&self, (k, p): Op, seqs: &mut [Option<SimResult>]) -> bool {
        let kernel = &self.kernels[k];
        match p {
            None => {
                let r = run_seq(&kernel.program, &self.table.config(kernel, PAPER_PES[0]));
                let ok = r
                    .as_ref()
                    .is_ok_and(|r| Some(r.cycles) == self.reference.seq_cycles(kernel.name));
                seqs[k] = r.ok();
                ok
            }
            Some(p) => {
                let Some(seq) = seqs[k].clone() else {
                    return false;
                };
                let cfg = self.table.config(kernel, PAPER_PES[p]);
                let Ok(m) = compare_with_seq(&kernel.program, &cfg, seq, self.table.schemes())
                else {
                    return false;
                };
                let json = m.to_json().to_string();
                self.reference
                    .cell(kernel.name, PAPER_PES[p])
                    .is_some_and(|r| self.table.check(&m, &json, r))
            }
        }
    }

    /// One untraced pass: per-operation seconds in `ops` order, and the
    /// pass's wall seconds.
    fn pass(&self, ops: &[Op], tally: &mut Tally) -> (Vec<f64>, f64) {
        let mut seqs = vec![None; self.kernels.len()];
        let mut times = Vec::with_capacity(ops.len());
        let t0 = Instant::now();
        for &op in ops {
            let t = Instant::now();
            let ok = self.op(op, &mut seqs);
            times.push(t.elapsed().as_secs_f64());
            tally.record(ok);
        }
        (times, t0.elapsed().as_secs_f64())
    }

    /// One traced pass through the replay; returns its wall seconds.
    fn traced_pass(&self, ops: &[Op], t: &mut Tracer, c: &mut Counts, tally: &mut Tally) -> f64 {
        let mut seqs: Vec<Option<SimResult>> = vec![None; self.kernels.len()];
        let t0 = Instant::now();
        for &(k, p) in ops {
            let kernel = &self.kernels[k];
            let ok = match p {
                None => {
                    let cfg = self.table.config(kernel, PAPER_PES[0]);
                    let r = replay::seq(t, c, &kernel.program, &cfg);
                    let ok = r
                        .as_ref()
                        .is_ok_and(|r| Some(r.cycles) == self.reference.seq_cycles(kernel.name));
                    seqs[k] = r.ok();
                    ok
                }
                Some(p) => {
                    let cfg = self.table.config(kernel, PAPER_PES[p]);
                    match seqs[k].clone().map(|seq| {
                        replay::compare(t, c, &kernel.program, &cfg, seq, self.table.schemes())
                    }) {
                        Some(Ok(m)) => {
                            let json = t.span("json.encode", |_| m.to_json().to_string());
                            c.json_bytes += json.len() as u64;
                            self.reference
                                .cell(kernel.name, PAPER_PES[p])
                                .is_some_and(|r| self.table.check(&m, &json, r))
                        }
                        _ => false,
                    }
                }
            };
            tally.record(ok);
        }
        t0.elapsed().as_secs_f64()
    }

    /// Simulated cycles of one pass according to the reference.
    fn reference_cycles(&self) -> u64 {
        let picked: Vec<usize> = GRID_SCHEMES
            .iter()
            .enumerate()
            .filter(|(_, s)| self.table.schemes().contains(s))
            .map(|(i, _)| i)
            .collect();
        let seq: u64 = self.reference.seq.iter().map(|&(_, c)| c).sum();
        let cells: u64 = self
            .reference
            .cells
            .iter()
            .map(|r| picked.iter().map(|&i| r.cycles[i]).sum::<u64>())
            .sum();
        seq + cells
    }
}

pub fn run(seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut kernels = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        kernels = std::hint::black_box(paper_kernels(Scale::Quick));
        setup.push(t.elapsed().as_secs_f64());
    }
    let grid = Grid {
        table: Table::One,
        kernels,
        reference: reference::grid()?,
    };
    let mut out = Outcome::default();
    if trace {
        return Ok(traced(grid, out));
    }

    let n_ops = grid.kernels.len() * (PAPER_PES.len() + 1);
    let mut per_op: Vec<Vec<f64>> = vec![Vec::new(); n_ops];
    let mut walls = Vec::new();
    let ops = pass_order(grid.kernels.len());
    let t0 = Instant::now();
    while walls.len() < MIN_PASSES || t0.elapsed().as_secs_f64() < seconds {
        let (times, wall) = grid.pass(&ops, &mut out.tally);
        for (op_times, secs) in per_op.iter_mut().zip(times) {
            op_times.push(secs * 1e3);
        }
        walls.push(wall);
    }
    let mut op_ms: Vec<f64> = per_op.iter().map(|v| median(v)).collect();
    let op_names = grid.kernels.iter().flat_map(|k| {
        std::iter::once(format!("{}@seq", k.name))
            .chain(PAPER_PES.iter().map(move |n| format!("{}@{n}", k.name)))
    });
    let op_json = Json::obj(op_names.zip(&op_ms).map(|(n, ms)| (n, ms.to_json())));
    op_ms.sort_by(f64::total_cmp);
    let tail = tail_percentile(op_ms.len()).expect("a pass has more than ten operations");
    out.metrics = vec![
        Metric::new("wall_s", median(&walls), walls.len()),
        Metric::new("p50_ms", median(&op_ms), op_ms.len()),
        Metric::new("peak_rss_mb", crate::peak_rss_mb("self").unwrap_or(0.0), 1),
        Metric::new("setup_s", median(&setup), setup.len()),
    ];
    out.details = vec![
        ("passes", walls.len().to_json()),
        ("tail_percentile", tail.to_json()),
        ("tail_ms", percentile(&op_ms, f64::from(tail)).to_json()),
        ("pass_wall_s", Json::arr(walls.iter().map(|w| w.to_json()))),
        ("op_median_ms", op_json),
    ];
    Ok(out)
}

/// Per-layer metrics of the shard layer, which only the sharded replay
/// exercises.
fn is_shard_metric(name: &str) -> bool {
    name.starts_with("t3d.shard.") || name == "analysis.shard_ms"
}

/// The `--trace 1` run: one untraced pass, then the same pass replayed
/// call by call under spans, then Table 2's schemes replayed on the
/// sharded engine for the shard layer's metrics.
fn traced(grid: Grid, mut out: Outcome) -> Outcome {
    let ops = pass_order(grid.kernels.len());
    let (_, plain_wall) = grid.pass(&ops, &mut out.tally);
    let mut t = Tracer::default();
    let mut c = Counts::default();
    let traced_wall = grid.traced_pass(&ops, &mut t, &mut c, &mut out.tally);
    let want = grid.reference_cycles();
    // The replay must reproduce the reference's cycles exactly.
    out.tally.record(c.sim_cycles == want);
    out.metrics = replay::layer_metrics(&t, &c, ops.len());
    out.metrics.push(Metric::new(
        "bench.trace_overhead",
        traced_wall / plain_wall,
        2,
    ));

    let sharded = Grid {
        table: Table::TwoSharded,
        ..grid
    };
    let mut st = Tracer::default();
    let mut sc = Counts::default();
    sharded.traced_pass(&ops, &mut st, &mut sc, &mut out.tally);
    let sharded_want = sharded.reference_cycles();
    // Sharded runs must reproduce the serial reference's cycles too.
    out.tally.record(sc.sim_cycles == sharded_want);
    let shard = replay::layer_metrics(&st, &sc, ops.len());
    for m in out.metrics.iter_mut().filter(|m| is_shard_metric(m.name)) {
        *m = shard
            .iter()
            .find(|s| s.name == m.name)
            .expect("both replays report the same metrics")
            .clone();
    }
    out.details = vec![
        ("reference_sim_cycles", want.to_json()),
        ("sharded_reference_sim_cycles", sharded_want.to_json()),
    ];
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_metrics_are_the_shard_layer() {
        let shard: Vec<&str> = crate::PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| is_shard_metric(n))
            .collect();
        assert_eq!(
            shard,
            [
                "t3d.shard.proven",
                "t3d.shard.logged",
                "t3d.shard.conflicts",
                "t3d.shard.attempted",
                "t3d.shard.useful_ratio",
                "analysis.shard_ms"
            ]
        );
    }

    #[test]
    fn a_pass_runs_each_sequential_run_before_its_cells() {
        let ops = pass_order(4);
        assert_eq!(ops.len(), 4 * (PAPER_PES.len() + 1));
        assert_eq!(ops[0], (0, None));
        assert_eq!(ops[1], (0, Some(0)));
        assert_eq!(ops[PAPER_PES.len() + 1], (1, None));
    }
}
