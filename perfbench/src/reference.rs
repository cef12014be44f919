//! The committed reference outputs every run is checked against, and the
//! `--write-reference` mode that regenerates them.
//!
//! * `reference/grid.txt`: per kernel the sequential cycles; per grid cell
//!   the cycles of BASE, CCDP, MESI and DRAGON, the stale and shared read
//!   counts, and the digests of the cell's encoded matrix for the Table 1
//!   scheme set and the BASE+CCDP set. Written from serial runs; the
//!   sharded grid must reproduce it.
//! * `reference/distinct.txt`: the digest of the response body of every
//!   job in the `serve-distinct` pool, line `i` for job `i`, computed with
//!   `run_job` in process.

use ccdp_bench::{cell_config, paper_kernels, pooled, Scale, GRID_SCHEMES, PAPER_PES};
use ccdp_core::{compare_with_seq, run_seq, Scheme};
use ccdp_json::ToJson;
use ccdp_serve::api::{run_job, RetryPolicy};

use crate::serve::{distinct_spec, POOL};
use crate::stats::digest;

const GRID: &str = include_str!("../reference/grid.txt");
const DISTINCT: &str = include_str!("../reference/distinct.txt");

/// The Table 2 scheme set.
pub const TABLE2_SCHEMES: [Scheme; 2] = [Scheme::Base, Scheme::Ccdp];

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellRef {
    pub kernel: String,
    pub n_pes: usize,
    /// Cycles of each scheme of `GRID_SCHEMES`, in its order.
    pub cycles: [u64; 4],
    pub stale_reads: usize,
    pub shared_reads: usize,
    pub digest_table1: u64,
    pub digest_table2: u64,
}

#[derive(Debug, Default)]
pub struct GridRef {
    pub seq: Vec<(String, u64)>,
    pub cells: Vec<CellRef>,
}

impl GridRef {
    pub fn seq_cycles(&self, kernel: &str) -> Option<u64> {
        self.seq.iter().find(|(k, _)| k == kernel).map(|&(_, c)| c)
    }

    pub fn cell(&self, kernel: &str, n_pes: usize) -> Option<&CellRef> {
        self.cells
            .iter()
            .find(|c| c.kernel == kernel && c.n_pes == n_pes)
    }
}

fn parse_grid(text: &str) -> Result<GridRef, String> {
    let mut g = GridRef::default();
    for line in text
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
    {
        let f: Vec<&str> = line.split_whitespace().collect();
        let bad = || format!("bad reference line {line:?}");
        let n = |i: usize| f.get(i).and_then(|s| s.parse::<u64>().ok()).ok_or_else(bad);
        let hex = |i: usize| {
            f.get(i)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(bad)
        };
        match f.first() {
            Some(&"seq") if f.len() == 3 => g.seq.push((f[1].to_string(), n(2)?)),
            Some(&"cell") if f.len() == 11 => g.cells.push(CellRef {
                kernel: f[1].to_string(),
                n_pes: n(2)? as usize,
                cycles: [n(3)?, n(4)?, n(5)?, n(6)?],
                stale_reads: n(7)? as usize,
                shared_reads: n(8)? as usize,
                digest_table1: hex(9)?,
                digest_table2: hex(10)?,
            }),
            _ => return Err(bad()),
        }
    }
    Ok(g)
}

pub fn grid() -> Result<GridRef, String> {
    parse_grid(GRID)
}

/// Expected body digest of each `serve-distinct` pool job.
pub fn distinct() -> Result<Vec<u64>, String> {
    let v: Vec<u64> = DISTINCT
        .lines()
        .map(|l| u64::from_str_radix(l.trim(), 16).map_err(|_| format!("bad digest line {l:?}")))
        .collect::<Result<_, _>>()?;
    if v.len() != POOL {
        return Err(format!(
            "reference/distinct.txt holds {} digests, the pool {POOL}",
            v.len()
        ));
    }
    Ok(v)
}

/// Regenerate both reference files from serial in-process runs.
pub fn write() -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("reference");
    let mut out = String::from(
        "# seq <kernel> <cycles>\n\
         # cell <kernel> <n_pes> <base> <ccdp> <mesi> <dragon> <stale_reads> <shared_reads> \
         <table1 digest> <table2 digest>\n",
    );
    for k in paper_kernels(Scale::Quick) {
        let seq = run_seq(&k.program, &cell_config(&k, PAPER_PES[0])).map_err(|e| e.to_string())?;
        out += &format!("seq {} {}\n", k.name, seq.cycles);
        for &n_pes in &PAPER_PES {
            let cfg = cell_config(&k, n_pes);
            let m4 = compare_with_seq(&k.program, &cfg, seq.clone(), &GRID_SCHEMES)
                .map_err(|e| e.to_string())?;
            let m2 = compare_with_seq(&k.program, &cfg, seq.clone(), &TABLE2_SCHEMES)
                .map_err(|e| e.to_string())?;
            let cycles: Vec<String> = GRID_SCHEMES
                .iter()
                .map(|&s| m4.cycles(s).expect("scheme ran").to_string())
                .collect();
            out += &format!(
                "cell {} {n_pes} {} {} {} {:016x} {:016x}\n",
                k.name,
                cycles.join(" "),
                m4.stale_reads,
                m4.shared_reads,
                digest(m4.to_json().to_string().as_bytes()),
                digest(m2.to_json().to_string().as_bytes()),
            );
        }
    }
    std::fs::write(dir.join("grid.txt"), out).map_err(|e| e.to_string())?;

    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let bodies = pooled(POOL, threads, |i| {
        let res = run_job(&distinct_spec(i), &RetryPolicy::default());
        (res.status.0, digest(res.body.to_string().as_bytes()))
    });
    let mut out = String::new();
    for (i, (status, d)) in bodies.into_iter().enumerate() {
        if status != 200 {
            return Err(format!(
                "pool job {i} answered {status}; the pool must hold only good jobs"
            ));
        }
        out += &format!("{d:016x}\n");
    }
    std::fs::write(dir.join("distinct.txt"), out).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdp_json::Json;

    #[test]
    fn grid_reference_parses_and_covers_the_grid() {
        let g = grid().unwrap();
        assert_eq!(g.seq.len(), 4);
        assert_eq!(g.cells.len(), 4 * PAPER_PES.len());
        assert!(parse_grid("cell MXM 1 2 3").is_err());
        assert!(parse_grid("# comment only\n").unwrap().cells.is_empty());
    }

    /// The reference agrees with the committed Table 1 grid of the
    /// repository's report, cell by cell.
    #[test]
    fn grid_reference_matches_committed_report() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_ccdp.json");
        let doc = ccdp_json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(doc.get("scale").and_then(Json::as_str), Some("quick"));
        let g = grid().unwrap();
        let mut checked = 0;
        for k in doc.get("kernels").unwrap().items() {
            let name = k.get("name").and_then(Json::as_str).unwrap();
            for cell in k.get("cells").unwrap().items() {
                let n_pes = cell.get("n_pes").and_then(Json::as_u64).unwrap() as usize;
                let r = g
                    .cell(name, n_pes)
                    .unwrap_or_else(|| panic!("{name}@{n_pes} missing"));
                let seq = cell
                    .get("seq")
                    .unwrap()
                    .get("cycles")
                    .and_then(Json::as_u64);
                assert_eq!(seq, g.seq_cycles(name), "{name} seq");
                for (i, key) in ["base", "ccdp", "mesi", "dragon"].iter().enumerate() {
                    let c = cell
                        .get("runs")
                        .unwrap()
                        .get(key)
                        .unwrap()
                        .get("cycles")
                        .and_then(Json::as_u64);
                    assert_eq!(c, Some(r.cycles[i]), "{name}@{n_pes} {key}");
                }
                let n = |key| cell.get(key).and_then(Json::as_u64).map(|v| v as usize);
                assert_eq!(n("stale_reads"), Some(r.stale_reads), "{name}@{n_pes}");
                assert_eq!(n("shared_reads"), Some(r.shared_reads), "{name}@{n_pes}");
                checked += 1;
            }
        }
        assert_eq!(checked, g.cells.len());
    }

    #[test]
    fn distinct_reference_covers_the_pool() {
        assert_eq!(distinct().unwrap().len(), POOL);
    }
}
