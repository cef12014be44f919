//! Machine-readable benchmark report: assembles the full evaluation grid —
//! the paper's Tables 1 and 2 plus per-PE / per-epoch cycle breakdowns and
//! prefetch quality metrics — into one JSON document (`BENCH_ccdp.json`,
//! written by the `report` bin).
//!
//! The document is assembled from per-cell JSON values (one per
//! kernel × PE count, each carrying a leading `outcome` field), so a
//! resumed run can re-emit journaled cells verbatim and produce a document
//! byte-identical to an uninterrupted run (minus the host-timing `perf`
//! section, which only a fully fresh, fully successful run carries).

use ccdp_core::{
    format_improvement_cells, format_speedup_cells, Scheme, SchemeMatrix, TableCell, TableRow,
};
use ccdp_json::{Json, ToJson};

use crate::resilience::{CellFailure, CellOutcome};
use crate::{BenchKernel, GridTiming, Scale};

/// Schema version of the report document; bump on breaking shape changes.
/// v2: per-PE stats gained a `faults` object, the document records the
/// fault-decision `seed`, and the `stress` bin merges a degradation-curve
/// `stress` section into the same file.
/// v3: a `perf` section records host-side throughput of the grid run —
/// wall-clock and simulated-cycles-per-second, overall and per cell —
/// consumed by the CI performance-regression gate (`perf_gate` bin).
/// v4: every grid cell leads with an `outcome` classification ("ok",
/// "panicked", "timed_out", "budget_exceeded", "invalid", "failed");
/// failed cells carry a `failure` object instead of simulation results,
/// and the `perf` section is present only when every cell of the grid was
/// simulated fresh and succeeded (resumed runs have no comparable
/// throughput baseline).
/// v5: the `lint` bin merges a `lint` section — static soundness verdicts
/// from `ccdp-lint` over the kernel grid and a synthetic-program sweep —
/// into the same file.
/// v6: cells are N-way scheme matrices — scheme-keyed `speedups` and
/// `runs` objects (`base`, `ccdp`, `inv`, `mesi`, `dragon`) replace the
/// flat `base`/`ccdp` fields, the document records its `schemes` list,
/// the headline grid covers BASE/CCDP/MESI/DRAGON, `perf` cells carry
/// per-scheme `sim_cycles_by_scheme` rows, and stress cells gain a
/// `scheme` field (hardware backends smoke-tested under the mixed soak
/// plan).
/// v7: the `loadgen` bin (ccdp-serve) merges a `service` section — the
/// ccdpd job-service load-test results: sustained QPS, p50/p99 latency,
/// shed rate, and cache hit rate per traffic profile. No existing section
/// changed shape; v6 consumers that ignore unknown top-level sections read
/// v7 documents unchanged.
/// v8: the `perf` section records `sim_threads` — the simulator's
/// intra-run worker knob (`CCDP_SIM_THREADS`) in effect for the timed run,
/// so the gate never compares wall numbers across engine configurations —
/// and, on fresh healthy runs, a `scaling` array: the same quick grid
/// re-timed at several `sim_threads` values with `speedup_vs_1` per point.
/// Documents missing `perf.sim_threads` (v7 and older) read as 1 (the
/// serial engine, the only one that existed).
/// v9: the `chaos` bin (ccdp-serve) merges a `supervision` subsection into
/// the `service` section — crash-recovery soak results for the supervised
/// multi-process ccdpd: worker/supervisor kill counts, restarts,
/// redispatches, orphan replays, breaker trips, recovery-latency p50/p99,
/// and the byte-identity verdict. Additive within `service`; v8 consumers
/// read v9 documents unchanged.
/// v10: the `perf` section gains a `shard` object — epoch-sharding
/// counters aggregated over the timed grid (`static_proven`,
/// `dynamic_logged`, `conflicts`, `budget_reruns`, `declined`, and the
/// derived `dynamic_checks_skipped`) — and the `lint` section's cells and
/// synth sweep gain per-program `shard` verdict counts
/// (`doalls`/`disjoint`/`may_conflict`/`unknown`) from the static
/// shard-independence analysis, with CCDP006/CCDP007 findings in the
/// existing findings lists. Additive; v9 consumers read v10 documents
/// unchanged.
/// v11: `perf.shard` drops `dynamic_logged`, `conflicts` and
/// `dynamic_checks_skipped` — only proven epochs shard, so nothing is
/// dynamically checked.
pub const SCHEMA_VERSION: u32 = 11;

/// How the committed report document read out as a perf-gate baseline.
/// Produced by [`perf_baseline`]; the `perf_gate` bin turns these into
/// exit codes, but the classification itself is pure and unit-testable.
#[derive(Debug, Clone, PartialEq)]
pub enum Baseline {
    /// No usable `perf.wall_seconds` (resumed or failing report run, or a
    /// section-only document) — the gate skips with a notice.
    Missing,
    /// The document was written by a newer schema than this binary
    /// understands: comparing against a reshaped layout could pass or fail
    /// for the wrong reason, so the gate must hard-error.
    NewerSchema(u64),
    /// A usable baseline: the committed quick-grid wall seconds, plus the
    /// simulator worker count they were measured under (`perf.sim_threads`;
    /// documents older than schema v8 read as 1, the serial engine). The
    /// gate refuses to compare a candidate run against a baseline taken at
    /// a different `sim_threads` — that would measure the knob, not a
    /// regression.
    Wall { wall_seconds: f64, sim_threads: u64 },
}

/// Classify a report document as a perf-gate baseline. Forward-compatible
/// within a schema generation: *additive* sections (e.g. v7's `service`
/// section) are ignored, and only a `schema_version` beyond this binary's
/// [`SCHEMA_VERSION`] is rejected.
pub fn perf_baseline(doc: &Json) -> Baseline {
    if let Some(v) = doc.get("schema_version").and_then(Json::as_u64) {
        if v > u64::from(SCHEMA_VERSION) {
            return Baseline::NewerSchema(v);
        }
    }
    let perf = doc.get("perf");
    match perf.and_then(|p| p.get("wall_seconds")).and_then(Json::as_f64) {
        Some(w) if w > 0.0 => Baseline::Wall {
            wall_seconds: w,
            sim_threads: perf
                .and_then(|p| p.get("sim_threads"))
                .and_then(Json::as_u64)
                .unwrap_or(1),
        },
        _ => Baseline::Missing,
    }
}

/// JSON for one successful cell: the `outcome` marker followed by the
/// matrix's fields (scheme-keyed `speedups` and `runs` objects).
pub fn cell_json_ok(c: &SchemeMatrix) -> Json {
    let mut fields = vec![("outcome".to_string(), "ok".to_json())];
    if let Json::Obj(pairs) = c.to_json() {
        fields.extend(pairs);
    }
    Json::Obj(fields)
}

/// JSON for one cell outcome (successful or classified failure).
pub fn cell_json(outcome: &CellOutcome) -> Json {
    match outcome {
        CellOutcome::Ok(c) => cell_json_ok(c),
        CellOutcome::Fail(f) => {
            let mut detail = vec![("message", f.to_string().to_json())];
            match f {
                CellFailure::Panicked { retried, .. } => {
                    detail.push(("retried", (*retried).to_json()));
                }
                CellFailure::TimedOut { pe, steps, retried } => {
                    detail.extend([
                        ("pe", pe.to_json()),
                        ("steps", steps.to_json()),
                        ("retried", (*retried).to_json()),
                    ]);
                }
                CellFailure::BudgetExceeded { pe, cycles, steps } => {
                    detail.extend([
                        ("pe", pe.to_json()),
                        ("cycles", cycles.to_json()),
                        ("steps", steps.to_json()),
                    ]);
                }
                CellFailure::Invalid { .. } | CellFailure::Failed { .. } => {}
            }
            Json::obj([
                ("outcome", f.class().to_json()),
                ("failure", Json::obj(detail)),
            ])
        }
    }
}

/// A table cell read back out of cell JSON: one speedup column per scheme
/// in `schemes`, looked up in the cell's scheme-keyed `speedups` object.
/// Failed cells (no `speedups` object) become `--` placeholders.
fn table_cell(n_pes: usize, schemes: &[Scheme], cell: &Json) -> TableCell {
    let speedups = cell.get("speedups");
    TableCell {
        n_pes,
        speedups: schemes
            .iter()
            .map(|s| {
                (s.name(), speedups.and_then(|sp| sp.get(s.key())).and_then(Json::as_f64))
            })
            .collect(),
        improvement_pct: cell.get("improvement_pct").and_then(Json::as_f64),
    }
}

/// The `perf` section: host throughput of one grid run. Wall-clock numbers
/// are host observations (they vary run to run); everything else in the
/// document is deterministic.
pub fn perf_json(names: &[&str], pes: &[usize], t: &GridTiming) -> Json {
    let rate = |cycles: u64, secs: f64| {
        if secs > 0.0 { cycles as f64 / secs } else { 0.0 }
    };
    let seq = Json::arr(names.iter().zip(&t.seq).map(|(name, c)| {
        Json::obj([
            ("kernel", name.to_json()),
            ("wall_seconds", c.wall_seconds.to_json()),
            ("sim_cycles", c.sim_cycles.to_json()),
            ("cycles_per_second", rate(c.sim_cycles, c.wall_seconds).to_json()),
        ])
    }));
    let cells = Json::arr(names.iter().zip(&t.cells).flat_map(|(name, row)| {
        pes.iter().zip(row).map(|(&n, c)| {
            Json::obj([
                ("kernel", name.to_json()),
                ("n_pes", n.to_json()),
                ("wall_seconds", c.wall_seconds.to_json()),
                ("sim_cycles", c.sim_cycles.to_json()),
                (
                    "sim_cycles_by_scheme",
                    Json::obj(c.scheme_cycles.iter().map(|&(k, cy)| (k, cy.to_json()))),
                ),
                ("cycles_per_second", rate(c.sim_cycles, c.wall_seconds).to_json()),
            ])
        })
    }));
    let shard = t.shard();
    let mut fields = vec![
        ("wall_seconds", t.wall_seconds.to_json()),
        ("sim_cycles", t.sim_cycles().to_json()),
        ("cycles_per_second", t.cycles_per_second().to_json()),
        ("threads", t.threads.to_json()),
        ("sim_threads", t.sim_threads.to_json()),
        (
            "shard",
            Json::obj([
                ("static_proven", shard.static_proven.to_json()),
                ("budget_reruns", shard.budget_reruns.to_json()),
                ("declined", shard.declined.to_json()),
            ]),
        ),
        ("seq", seq),
        ("cells", cells),
    ];
    if !t.scaling.is_empty() {
        let serial = t
            .scaling
            .iter()
            .find(|p| p.sim_threads == 1)
            .map(|p| p.wall_seconds)
            .filter(|&w| w > 0.0);
        fields.push((
            "scaling",
            Json::arr(t.scaling.iter().map(|p| {
                let mut point = vec![
                    ("sim_threads", p.sim_threads.to_json()),
                    ("wall_seconds", p.wall_seconds.to_json()),
                    ("sim_cycles", p.sim_cycles.to_json()),
                    ("cycles_per_second", rate(p.sim_cycles, p.wall_seconds).to_json()),
                ];
                if let Some(base) = serial.filter(|_| p.wall_seconds > 0.0) {
                    point.push(("speedup_vs_1", (base / p.wall_seconds).to_json()));
                }
                Json::obj(point)
            })),
        ));
    }
    Json::obj(fields)
}

/// Assemble the report document from per-cell JSON values, indexed
/// `cells[kernel][pe]`. This is the single assembly path: fresh runs build
/// the cell values from live [`CellOutcome`]s, resumed runs mix in
/// journaled values verbatim — both produce the same bytes for the same
/// outcomes.
pub fn report_json_cells(
    scale: Scale,
    seed: u64,
    pes: &[usize],
    schemes: &[Scheme],
    names: &[&str],
    cells: &[Vec<Json>],
    timing: Option<&GridTiming>,
) -> Json {
    assert_eq!(names.len(), cells.len(), "one cell row per kernel");
    let rows: Vec<Vec<TableCell>> = cells
        .iter()
        .map(|row| pes.iter().zip(row).map(|(&n, c)| table_cell(n, schemes, c)).collect())
        .collect();
    let trows: Vec<TableRow<'_>> = names
        .iter()
        .zip(&rows)
        .map(|(name, cells)| TableRow { kernel: name, cells })
        .collect();
    let kernels_json = Json::arr(names.iter().zip(cells).map(|(name, row)| {
        Json::obj([
            ("name", name.to_json()),
            ("cells", Json::arr(row.iter().cloned())),
        ])
    }));
    let mut fields = vec![
        ("schema_version", SCHEMA_VERSION.to_json()),
        (
            "paper",
            "A Compiler-Directed Cache Coherence Scheme Using Data Prefetching".to_json(),
        ),
        ("scale", scale.name().to_json()),
        ("seed", seed.to_json()),
        ("pe_counts", pes.to_json()),
        ("schemes", Json::arr(schemes.iter().map(|s| s.key().to_json()))),
        ("kernels", kernels_json),
        (
            "tables",
            Json::obj([
                ("speedup", format_speedup_cells(&trows).to_json()),
                ("improvement", format_improvement_cells(&trows).to_json()),
            ]),
        ),
    ];
    if let Some(t) = timing {
        fields.push(("perf", perf_json(names, pes, t)));
    }
    Json::obj(fields)
}

/// Assemble the report document for a completed (fully successful) grid
/// run. `grid` is indexed `[kernel][pe_count]`, as produced by
/// [`crate::run_grid`]. `seed` is the fault-decision seed the run was
/// invoked with (recorded for reproducibility even when the grid itself
/// runs fault-free).
pub fn report_json(
    scale: Scale,
    seed: u64,
    pes: &[usize],
    schemes: &[Scheme],
    kernels: &[BenchKernel],
    grid: &[Vec<SchemeMatrix>],
    timing: Option<&GridTiming>,
) -> Json {
    assert_eq!(kernels.len(), grid.len(), "one matrix row per kernel");
    let names: Vec<&str> = kernels.iter().map(|k| k.name).collect();
    let cells: Vec<Vec<Json>> =
        grid.iter().map(|row| row.iter().map(cell_json_ok).collect()).collect();
    report_json_cells(scale, seed, pes, schemes, &names, &cells, timing)
}

#[cfg(test)]
mod unit {
    use super::*;
    use crate::{paper_kernels, run_grid_timed};

    /// Pins the gate's forward-compat contract: additive sections (v7's
    /// `service`, v8's `perf.scaling`) are ignored, only a genuinely newer
    /// schema is rejected — and pre-v8 baselines read as the serial engine.
    #[test]
    fn perf_baseline_forward_compat() {
        let v8 = ccdp_json::parse(
            r#"{"schema_version": 8,
                "perf": {"wall_seconds": 2.5, "sim_threads": 4,
                         "scaling": [{"sim_threads": 1, "wall_seconds": 5.0}]},
                "service": {"profiles": [{"name": "soak", "qps": 120.0}]}}"#,
        )
        .unwrap();
        assert_eq!(
            perf_baseline(&v8),
            Baseline::Wall { wall_seconds: 2.5, sim_threads: 4 }
        );

        // Older documents (no sim_threads recorded) were measured by the
        // serial engine — the only one that existed.
        let v7 = ccdp_json::parse(r#"{"schema_version": 7, "perf": {"wall_seconds": 1.0}}"#)
            .unwrap();
        assert_eq!(
            perf_baseline(&v7),
            Baseline::Wall { wall_seconds: 1.0, sim_threads: 1 }
        );

        // The committed v10 baseline still reads: v11 only dropped
        // `perf.shard` keys the gate never consulted.
        let v10 = ccdp_json::parse(
            r#"{"schema_version": 10, "perf": {"wall_seconds": 2.0, "sim_threads": 1}}"#,
        )
        .unwrap();
        assert_eq!(
            perf_baseline(&v10),
            Baseline::Wall { wall_seconds: 2.0, sim_threads: 1 }
        );

        // Newer-than-us must be a hard signal, not a silent comparison.
        let v12 = ccdp_json::parse(r#"{"schema_version": 12, "perf": {"wall_seconds": 1.0}}"#)
            .unwrap();
        assert_eq!(perf_baseline(&v12), Baseline::NewerSchema(12));

        // Service-only documents (no perf timing) skip, not error.
        let no_perf =
            ccdp_json::parse(r#"{"schema_version": 8, "service": {"profiles": []}}"#).unwrap();
        assert_eq!(perf_baseline(&no_perf), Baseline::Missing);
        let bad_wall =
            ccdp_json::parse(r#"{"schema_version": 8, "perf": {"wall_seconds": 0}}"#).unwrap();
        assert_eq!(perf_baseline(&bad_wall), Baseline::Missing);
    }

    #[test]
    fn report_document_shape() {
        let kernels = paper_kernels(Scale::Quick);
        let pes = [2usize];
        let schemes = crate::GRID_SCHEMES;
        let (grid, mut timing) =
            run_grid_timed(&kernels[..2], &pes, &schemes).expect("coherent grid");
        timing.scaling = vec![
            crate::ScalingPoint { sim_threads: 1, wall_seconds: 4.0, sim_cycles: 100 },
            crate::ScalingPoint { sim_threads: 2, wall_seconds: 2.5, sim_cycles: 100 },
        ];
        let j =
            report_json(Scale::Quick, 9, &pes, &schemes, &kernels[..2], &grid, Some(&timing));
        assert_eq!(j.get("schema_version").and_then(Json::as_u64), Some(11));
        assert_eq!(j.get("scale").and_then(Json::as_str), Some("quick"));
        assert_eq!(j.get("seed").and_then(Json::as_u64), Some(9));
        let schemes_json = j.get("schemes").unwrap().items();
        assert_eq!(schemes_json.len(), 4);
        assert_eq!(schemes_json[0].as_str(), Some("base"));
        let ks = j.get("kernels").unwrap().items();
        assert_eq!(ks.len(), 2);
        assert_eq!(ks[0].get("name").and_then(Json::as_str), Some("MXM"));
        let cell = &ks[0].get("cells").unwrap().items()[0];
        assert_eq!(cell.get("outcome").and_then(Json::as_str), Some("ok"));
        let runs = cell.get("runs").expect("scheme-keyed runs object");
        for key in ["base", "ccdp", "mesi", "dragon"] {
            let r = runs.get(key).unwrap_or_else(|| panic!("missing run {key}"));
            assert!(r.get("cycles").and_then(Json::as_u64).unwrap() > 0, "{key}");
            assert!(
                cell.get("speedups").unwrap().get(key).and_then(Json::as_f64).unwrap() > 0.0
            );
        }
        assert!(runs.get("ccdp").unwrap().get("epochs").unwrap().items().len() >= 2);
        let tables = j.get("tables").unwrap();
        let t1 = tables.get("speedup").and_then(Json::as_str).unwrap();
        assert!(t1.contains("Table 1"));
        for name in ["BASE", "CCDP", "MESI", "DRAGON"] {
            assert!(t1.contains(name), "missing {name} column in:\n{t1}");
        }
        assert!(tables
            .get("improvement")
            .and_then(Json::as_str)
            .unwrap()
            .contains("Table 2"));
        // Per-PE fault accounting is present (and zero) in fault-free cells.
        let totals = runs.get("ccdp").unwrap().get("totals").unwrap();
        let faults = totals.get("faults").expect("faults object in totals");
        assert_eq!(faults.get("prefetches_dropped").and_then(Json::as_u64), Some(0));
        assert_eq!(faults.get("demand_fallbacks").and_then(Json::as_u64), Some(0));
        // Hardware runs charge bus traffic through the same stats plumbing.
        let mesi_totals = runs.get("mesi").unwrap().get("totals").unwrap();
        assert!(mesi_totals.get("bus_txns").and_then(Json::as_u64).unwrap() > 0);
        // The perf section reflects the timed run: one seq entry per
        // kernel, one cell entry per (kernel, pe) pair, positive wall time.
        let perf = j.get("perf").expect("perf section");
        assert_eq!(perf.get("seq").unwrap().items().len(), 2);
        assert_eq!(perf.get("cells").unwrap().items().len(), 2);
        assert!(perf.get("wall_seconds").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(perf.get("sim_cycles").and_then(Json::as_u64).unwrap() > 0);
        assert!(perf.get("threads").and_then(Json::as_u64).unwrap() >= 1);
        // v8: the engine configuration the wall numbers describe, plus the
        // attached scaling probe with derived speedup_vs_1.
        assert!(perf.get("sim_threads").and_then(Json::as_u64).unwrap() >= 1);
        // v11: shard-path counters are proven instances plus declines.
        let shard = perf.get("shard").expect("shard counters (schema v11)");
        for key in ["static_proven", "budget_reruns", "declined"] {
            assert!(shard.get(key).and_then(Json::as_u64).is_some(), "missing shard.{key}");
        }
        for key in ["dynamic_logged", "conflicts", "dynamic_checks_skipped"] {
            assert!(shard.get(key).is_none(), "shard.{key} was dropped in v11");
        }
        let scaling = perf.get("scaling").expect("scaling probe rows").items();
        assert_eq!(scaling.len(), 2);
        assert_eq!(scaling[0].get("sim_threads").and_then(Json::as_u64), Some(1));
        assert_eq!(scaling[1].get("sim_threads").and_then(Json::as_u64), Some(2));
        let s1 = scaling[1].get("speedup_vs_1").and_then(Json::as_f64).unwrap();
        assert!((s1 - 1.6).abs() < 1e-12, "4.0s / 2.5s = 1.6x, got {s1}");
        let cell0 = &perf.get("cells").unwrap().items()[0];
        assert_eq!(cell0.get("kernel").and_then(Json::as_str), Some("MXM"));
        assert_eq!(cell0.get("n_pes").and_then(Json::as_u64), Some(2));
        // Per-scheme sim-cycle rows sum to the cell total (schema v6).
        let by_scheme = cell0.get("sim_cycles_by_scheme").expect("per-scheme rows");
        let sum: u64 = ["base", "ccdp", "mesi", "dragon"]
            .iter()
            .map(|k| by_scheme.get(k).and_then(Json::as_u64).unwrap())
            .sum();
        assert_eq!(cell0.get("sim_cycles").and_then(Json::as_u64), Some(sum));
        // The whole document survives a print→parse round trip.
        let parsed = ccdp_json::parse(&j.to_pretty()).unwrap();
        assert_eq!(parsed.get("schema_version").and_then(Json::as_u64), Some(11));
        // Omitting timing omits the section (ablation callers).
        let j2 = report_json(Scale::Quick, 9, &pes, &schemes, &kernels[..2], &grid, None);
        assert!(j2.get("perf").is_none());
    }

    #[test]
    fn failed_cells_carry_failure_and_placeholder_tables() {
        use crate::resilience::{CellFailure, CellOutcome};
        let fail = CellOutcome::Fail(CellFailure::BudgetExceeded {
            pe: 1,
            cycles: 1000,
            steps: 500,
        });
        let cj = cell_json(&fail);
        assert_eq!(cj.get("outcome").and_then(Json::as_str), Some("budget_exceeded"));
        let failure = cj.get("failure").expect("failure object");
        assert!(failure.get("message").and_then(Json::as_str).unwrap().contains("budget"));
        assert_eq!(failure.get("cycles").and_then(Json::as_u64), Some(1000));
        // A grid with only this cell still renders tables, with -- cells.
        let schemes = crate::GRID_SCHEMES;
        let j = report_json_cells(Scale::Quick, 0, &[4], &schemes, &["MXM"], &[vec![cj]], None);
        let t1 = j.get("tables").unwrap().get("speedup").and_then(Json::as_str).unwrap();
        assert!(t1.contains("--"));
        // The parse→re-emit round trip is byte-stable (the resume path
        // depends on this for journaled cells).
        let text = j.to_pretty();
        let reparsed = ccdp_json::parse(&text).unwrap();
        assert_eq!(reparsed.to_pretty(), text);
    }
}
