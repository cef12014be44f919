//! Machine-readable benchmark report: assembles the full evaluation grid —
//! the paper's Tables 1 and 2 plus every cell's cycles, cycle breakdown
//! totals and prefetch quality metrics — into one JSON document
//! (`BENCH_ccdp.json`, written by the `report` bin; the `stress` and `lint`
//! bins merge their sections into it through [`merge_section`]).
//!
//! The document is a deterministic record of results: it holds no host
//! time, so the same code, scale and seed always write the same bytes.
//! It is assembled from per-cell JSON values (one per kernel × PE count,
//! each carrying a leading `outcome` field), so a resumed run can re-emit
//! journaled cells verbatim and produce a document byte-identical to an
//! uninterrupted run. The journal keeps each run's full per-PE and
//! per-epoch detail; the record drops it at assembly.

use std::path::Path;

use ccdp_core::{
    format_improvement_cells, format_speedup_cells, CellFailure, Scheme, SchemeMatrix, TableCell,
    TableRow,
};
use ccdp_json::{Json, ToJson};

use crate::resilience::CellOutcome;
use crate::Scale;

/// The report document's file name, in the working directory.
pub const REPORT_FILE: &str = "BENCH_ccdp.json";

/// The source paper's title, recorded in the document.
const PAPER: &str = "A Compiler-Directed Cache Coherence Scheme Using Data Prefetching";

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
/// v12: the document is results only. The `perf` and `service` sections
/// and `stress.wall_seconds` are gone (host time is measured by
/// perfbench), and runs drop their `per_pe` and `epochs` detail, which
/// stays in the grid journal.
pub const SCHEMA_VERSION: u32 = 12;

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

/// Drop a run's `per_pe` and `epochs` detail.
fn strip_detail(run: &mut Json) {
    if let Json::Obj(fields) = run {
        fields.retain(|(k, _)| k != "per_pe" && k != "epochs");
    }
}

/// A cell as the record carries it: every field, minus the per-PE and
/// per-epoch detail of its `seq` run and of each of its `runs`.
fn record_cell(cell: &Json) -> Json {
    let mut cell = cell.clone();
    if let Json::Obj(fields) = &mut cell {
        for (k, v) in fields.iter_mut() {
            match (k.as_str(), v) {
                ("seq", run) => strip_detail(run),
                ("runs", Json::Obj(runs)) => runs.iter_mut().for_each(|(_, r)| strip_detail(r)),
                _ => {}
            }
        }
    }
    cell
}

/// Assemble the report document from per-cell JSON values, indexed
/// `cells[kernel][pe]`. This is the single assembly path: fresh runs build
/// the cell values from live [`CellOutcome`]s, resumed runs mix in
/// journaled values verbatim — both produce the same bytes for the same
/// outcomes. Each run's per-PE and per-epoch detail is dropped here.
pub fn report_json_cells(
    scale: Scale,
    seed: u64,
    pes: &[usize],
    schemes: &[Scheme],
    names: &[&str],
    cells: &[Vec<Json>],
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
            ("cells", Json::arr(row.iter().map(record_cell))),
        ])
    }));
    Json::obj([
        ("schema_version", SCHEMA_VERSION.to_json()),
        ("paper", PAPER.to_json()),
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
    ])
}

/// Put `section` under `key` in the report document at `path` and write
/// it back atomically. An existing `key` is replaced in place, so
/// re-running one producer never reorders the file; a new key goes last.
/// A missing file starts a document holding only the schema version and
/// the paper title. A file that exists but does not parse is an error
/// naming the file and the parse error: overwriting it would lose every
/// other section.
pub fn merge_section_at(path: &Path, key: &str, section: Json) -> Result<(), String> {
    let mut doc = match std::fs::read_to_string(path) {
        Ok(text) => ccdp_json::parse(&text)
            .map_err(|e| format!("{} does not parse ({e}); not overwriting it", path.display()))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Json::obj([
            ("schema_version", SCHEMA_VERSION.to_json()),
            ("paper", PAPER.to_json()),
        ]),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let Json::Obj(pairs) = &mut doc else {
        return Err(format!("{} is not a JSON object; not overwriting it", path.display()));
    };
    match pairs.iter_mut().find(|(k, _)| k == key) {
        Some((_, v)) => *v = section,
        None => pairs.push((key.to_string(), section)),
    }
    ccdp_json::write_atomic(path, &doc.to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// [`merge_section_at`] on [`REPORT_FILE`] for the section-producing bins:
/// exits 1 with the error on failure.
pub fn merge_section(key: &str, section: Json) {
    match merge_section_at(Path::new(REPORT_FILE), key, section) {
        Ok(()) => eprintln!("merged {key} section into {REPORT_FILE}"),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod unit {
    use super::*;
    use crate::journal::{header_line, run_journaled_grid};
    use crate::paper_kernels;
    use crate::resilience::GridOptions;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ccdp-report-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn report_document_shape() {
        let kernels = paper_kernels(Scale::Quick);
        let kernels = &kernels[..2];
        let names: Vec<&str> = kernels.iter().map(|k| k.name).collect();
        let pes = [2usize];
        let schemes = crate::GRID_SCHEMES;
        let opts = GridOptions::default();
        let dir = tmp_dir("shape");
        let journal = dir.join("grid.journal.jsonl");
        let header = header_line("report", Scale::Quick, 9, &pes, &schemes, &opts);
        let run = run_journaled_grid(kernels, &pes, &schemes, &opts, &journal, &header, false)
            .expect("journaled run");
        assert!(run.failures.is_empty());
        let j = report_json_cells(Scale::Quick, 9, &pes, &schemes, &names, &run.cells);
        assert_eq!(j.get("schema_version").and_then(Json::as_u64), Some(12));
        assert_eq!(j.get("scale").and_then(Json::as_str), Some("quick"));
        assert_eq!(j.get("seed").and_then(Json::as_u64), Some(9));
        let schemes_json = j.get("schemes").unwrap().items();
        assert_eq!(schemes_json.len(), 4);
        assert_eq!(schemes_json[0].as_str(), Some("base"));
        // Results only: no host-time sections.
        for key in ["perf", "service"] {
            assert!(j.get(key).is_none(), "the record has no {key} section");
        }
        let ks = j.get("kernels").unwrap().items();
        assert_eq!(ks.len(), 2);
        assert_eq!(ks[0].get("name").and_then(Json::as_str), Some("MXM"));
        let cell = &ks[0].get("cells").unwrap().items()[0];
        assert_eq!(cell.get("outcome").and_then(Json::as_str), Some("ok"));
        assert!(cell.get("seq").unwrap().get("cycles").and_then(Json::as_u64).unwrap() > 0);
        let runs = cell.get("runs").expect("scheme-keyed runs object");
        for key in ["base", "ccdp", "mesi", "dragon"] {
            let r = runs.get(key).unwrap_or_else(|| panic!("missing run {key}"));
            assert!(r.get("cycles").and_then(Json::as_u64).unwrap() > 0, "{key}");
            for field in ["totals", "prefetch_quality", "oracle"] {
                assert!(r.get(field).is_some(), "runs.{key}.{field}");
            }
            assert!(
                cell.get("speedups").unwrap().get(key).and_then(Json::as_f64).unwrap() > 0.0
            );
        }
        // The per-PE and per-epoch detail is nowhere in the record.
        let text = j.to_pretty();
        for key in ["\"per_pe\"", "\"epochs\""] {
            assert!(!text.contains(key), "{key} must not appear in the record");
        }
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
        // Fault accounting is present (and zero) in fault-free totals.
        let totals = runs.get("ccdp").unwrap().get("totals").unwrap();
        let faults = totals.get("faults").expect("faults object in totals");
        assert_eq!(faults.get("prefetches_dropped").and_then(Json::as_u64), Some(0));
        assert_eq!(faults.get("demand_fallbacks").and_then(Json::as_u64), Some(0));
        assert!(totals.get("breakdown").is_some());
        // Hardware runs charge bus traffic through the same stats plumbing.
        let mesi_totals = runs.get("mesi").unwrap().get("totals").unwrap();
        assert!(mesi_totals.get("bus_txns").and_then(Json::as_u64).unwrap() > 0);
        // The journal line for the same cell keeps the detail.
        let lines = std::fs::read_to_string(&journal).unwrap();
        let line = lines
            .lines()
            .map(|l| ccdp_json::parse(l).unwrap())
            .find(|l| {
                l.get("kernel").and_then(Json::as_str) == Some("MXM")
                    && l.get("n_pes").and_then(Json::as_u64) == Some(2)
            })
            .expect("MXM P=2 journaled");
        let data = line.get("data").unwrap();
        assert!(!data.get("seq").unwrap().get("per_pe").unwrap().items().is_empty());
        let ccdp = data.get("runs").unwrap().get("ccdp").unwrap();
        assert_eq!(ccdp.get("per_pe").unwrap().items().len(), 2);
        assert!(ccdp.get("epochs").unwrap().items().len() >= 2);
        // The whole document survives a print→parse round trip.
        let parsed = ccdp_json::parse(&text).unwrap();
        assert_eq!(parsed.to_pretty(), text);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_replaces_an_existing_key_in_place() {
        let dir = tmp_dir("merge");
        let path = dir.join("report.json");
        // A missing file starts a fresh document.
        merge_section_at(&path, "stress", Json::obj([("v", 1u64.to_json())])).unwrap();
        merge_section_at(&path, "lint", Json::obj([("v", 2u64.to_json())])).unwrap();
        let keys = |path: &Path| -> Vec<String> {
            match ccdp_json::parse(&std::fs::read_to_string(path).unwrap()).unwrap() {
                Json::Obj(pairs) => pairs.into_iter().map(|(k, _)| k).collect(),
                _ => panic!("not an object"),
            }
        };
        assert_eq!(keys(&path), ["schema_version", "paper", "stress", "lint"]);
        // Re-running the first producer replaces its value, not its place.
        merge_section_at(&path, "stress", Json::obj([("v", 3u64.to_json())])).unwrap();
        assert_eq!(keys(&path), ["schema_version", "paper", "stress", "lint"]);
        let doc = ccdp_json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("stress").unwrap().get("v").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("lint").unwrap().get("v").and_then(Json::as_u64), Some(2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_refuses_to_overwrite_an_unparseable_report() {
        let dir = tmp_dir("merge-bad");
        let path = dir.join("report.json");
        let conflicted = "{\n<<<<<<< HEAD\n  \"schema_version\": 12\n=======\n}\n";
        std::fs::write(&path, conflicted).unwrap();
        let err = merge_section_at(&path, "lint", Json::obj([("v", 1u64.to_json())]))
            .expect_err("an unparseable report must not be replaced");
        assert!(err.contains(&path.display().to_string()), "names the file: {err}");
        assert!(err.contains("does not parse ("), "carries the parse error: {err}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), conflicted, "file left as it was");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_cells_carry_failure_and_placeholder_tables() {
        use crate::resilience::CellOutcome;
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
        let j = report_json_cells(Scale::Quick, 0, &[4], &schemes, &["MXM"], &[vec![cj]]);
        let t1 = j.get("tables").unwrap().get("speedup").and_then(Json::as_str).unwrap();
        assert!(t1.contains("--"));
        // The parse→re-emit round trip is byte-stable (the resume path
        // depends on this for journaled cells).
        let text = j.to_pretty();
        let reparsed = ccdp_json::parse(&text).unwrap();
        assert_eq!(reparsed.to_pretty(), text);
    }
}
