//! Benchmark harness: regenerates the paper's Tables 1 and 2 and the
//! ablation studies.
//!
//! The evaluation grid is 4 kernels × 7 PE counts × [`GRID_SCHEMES`]
//! (BASE, CCDP, and the hardware-coherence rivals MESI and Dragon), plus
//! one sequential run per kernel as the speedup denominator. Each cell is
//! an independent simulation, so the driver fans the grid out over host
//! threads.
//!
//! Scaling: `Scale::Paper` uses the paper's full problem sizes
//! (MXM 256×128×64, VPENTA 720², TOMCATV/SWIM 513²×100 iterations with
//! steady-state extrapolation after 3 sampled iterations); `Scale::Quick`
//! runs ~1/4-linear-size instances for CI-speed shape checks.
//!
//! Environment knobs (`CCDP_SCALE`, `CCDP_SEED`, `CCDP_SIM_THREADS`)
//! are parsed through [`ccdp_core::EnvOverrides`] — the single parsing
//! point — never ad hoc here.

pub mod journal;
pub mod report;
pub mod resilience;
pub mod stress;

/// Re-exported at its old path: perfbench imports `ccdp_bench::synth`.
pub use ccdp_core::synth;

use ccdp_core::flags::flag_value;
use ccdp_core::{
    compare, CellFailure, EnvOverrides, PipelineConfig, PipelineError, ScalePreset, Scheme,
    SchemeMatrix,
};
use ccdp_ir::Program;
use ccdp_kernels::{mxm, swim, tomcatv, vpenta};
use resilience::{run_grid_isolated, CellOutcome, GridOptions};
use t3d_sim::{ConfigError, SimOptions};

/// The PE counts of the paper's tables.
pub const PAPER_PES: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// The schemes of the headline comparison grid: the paper's pair plus the
/// hardware-coherence rivals. (`Scheme::InvalidateOnly` stays available via
/// the ablations' five-way study.)
pub const GRID_SCHEMES: [Scheme; 4] =
    [Scheme::Base, Scheme::Ccdp, Scheme::Mesi, Scheme::Dragon];

/// Problem-size selection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// The paper's full sizes (minutes of host time).
    Paper,
    /// Reduced sizes (seconds), same qualitative shape.
    Quick,
}

impl Scale {
    /// The scale selected by `CCDP_SCALE`, via the pipeline's single env
    /// parsing point ([`EnvOverrides::from_env`]): unset defaults to quick,
    /// a typo is a structured error rather than a silent downgrade.
    pub fn from_env() -> Result<Scale, PipelineError> {
        Ok(Scale::from_preset(EnvOverrides::from_env()?.scale))
    }

    /// The harness scale for a validated preset.
    pub fn from_preset(p: ScalePreset) -> Scale {
        match p {
            ScalePreset::Quick => Scale::Quick,
            ScalePreset::Paper => Scale::Paper,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Quick => "quick",
        }
    }
}

/// Decision-stream seed for fault-injecting runs: `--seed N` (or
/// `--seed=N`) in `args`, else the `CCDP_SEED` env var (parsed through
/// [`EnvOverrides`]), else 0. The chosen seed is recorded in every JSON
/// report so a run can be reproduced. Malformed values are structured
/// [`PipelineError::InvalidConfig`] errors naming the source and value.
pub fn seed_from(args: &[String]) -> Result<u64, PipelineError> {
    let bad = |value: String| {
        PipelineError::InvalidConfig(ConfigError::BadEnv {
            var: "--seed",
            value,
            need: "expected a u64",
        })
    };
    match flag_value(args, "--seed").map_err(|_| bad("<missing>".to_string()))? {
        Some(v) => v.parse().map_err(|_| bad(v)),
        None => Ok(EnvOverrides::from_env()?.seed.unwrap_or(0)),
    }
}

/// One kernel ready for the sweep.
pub struct BenchKernel {
    pub name: &'static str,
    pub program: Program,
    /// Repeat-sampling (time-stepped codes only).
    pub repeat_sample: Option<u32>,
    /// Kernel-specific layout (TOMCATV/SWIM use the generalized
    /// distribution); `None` = default block layout.
    pub layout: Option<fn(&Program, usize) -> ccdp_dist::Layout>,
}

/// The paper's four kernels at the chosen scale.
pub fn paper_kernels(scale: Scale) -> Vec<BenchKernel> {
    let (mxm_p, vp_p, tc_p, sw_p) = match scale {
        Scale::Paper => (
            mxm::Params::paper(),
            vpenta::Params::paper(),
            tomcatv::Params::paper(),
            swim::Params::paper(),
        ),
        Scale::Quick => (
            mxm::Params { m: 64, l: 32, p: 16 },
            vpenta::Params { n: 96 },
            tomcatv::Params { n: 65, iters: 10 },
            swim::Params { n: 65, iters: 10 },
        ),
    };
    vec![
        BenchKernel {
            name: "MXM",
            program: mxm::build(&mxm_p),
            repeat_sample: None,
            layout: None,
        },
        BenchKernel {
            name: "VPENTA",
            program: vpenta::build(&vp_p),
            repeat_sample: None,
            layout: None,
        },
        BenchKernel {
            name: "TOMCATV",
            program: tomcatv::build(&tc_p),
            repeat_sample: Some(3),
            layout: Some(tomcatv::layout),
        },
        BenchKernel {
            name: "SWIM",
            program: swim::build(&sw_p),
            repeat_sample: Some(3),
            layout: Some(swim::layout),
        },
    ]
}

/// Pipeline configuration for one cell of the table: the kernel's layout
/// and repeat-sampling on top of T3D defaults, with the environment
/// overrides applied. This is the single entry point for cell configs;
/// ablations start from it and apply a tweak.
pub fn cell_config(k: &BenchKernel, n_pes: usize) -> PipelineConfig {
    let mut cfg = PipelineConfig::t3d(n_pes).with_sim(SimOptions {
        repeat_sample: k.repeat_sample,
        oracle_examples: 4,
        ..Default::default()
    });
    // Malformed env values were already rejected at bin startup
    // (`Scale::from_env` / `seed_from` validate the whole environment), so
    // a parse failure here can only repeat an error the caller has seen.
    if let Ok(env) = EnvOverrides::from_env() {
        env.apply(&mut cfg);
    }
    if let Some(f) = k.layout {
        cfg = cfg.with_layout(f(&k.program, n_pes));
    }
    cfg
}

/// Run one kernel cell with a configuration tweak applied on top of the
/// kernel's defaults (ablation studies).
pub fn run_cell_with(
    k: &BenchKernel,
    n_pes: usize,
    schemes: &[Scheme],
    tweak: impl FnOnce(&mut PipelineConfig),
) -> Result<SchemeMatrix, PipelineError> {
    let mut cfg = cell_config(k, n_pes);
    tweak(&mut cfg);
    compare(&k.program, &cfg, schemes)
}

/// Run `n_jobs` jobs on a bounded worker pool, preserving job order in the
/// returned results. Workers pull the next job index from a shared counter,
/// so the fan-out never exceeds `threads` no matter how large the grid is.
pub fn pooled<T: Send>(
    n_jobs: usize,
    threads: usize,
    job: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let next = AtomicUsize::new(0);
    let out: Vec<Mutex<Option<T>>> = (0..n_jobs).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads.max(1).min(n_jobs) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n_jobs {
                    break;
                }
                let r = job(i);
                *out[i].lock().expect("job slot") = Some(r);
            });
        }
    });
    out.into_iter()
        .map(|m| m.into_inner().expect("job slot").expect("job ran"))
        .collect()
}

/// Run the full grid: for each kernel, one [`SchemeMatrix`] per PE count
/// covering `schemes`. This is [`resilience::run_grid_isolated`] over every
/// cell with default [`GridOptions`] (no budgets, no faults); the first
/// non-ok cell in grid order fails the whole run with its [`CellFailure`].
pub fn run_grid(
    kernels: &[BenchKernel],
    pes: &[usize],
    schemes: &[Scheme],
) -> Result<Vec<Vec<SchemeMatrix>>, CellFailure> {
    let todo: Vec<(usize, usize)> =
        (0..kernels.len()).flat_map(|ki| (0..pes.len()).map(move |pi| (ki, pi))).collect();
    run_grid_isolated(kernels, pes, schemes, &todo, &GridOptions::default(), |_| {})
        .into_iter()
        .map(|row| {
            row.into_iter()
                .map(|o| match o.expect("every cell was requested") {
                    CellOutcome::Ok(m) => Ok(*m),
                    CellOutcome::Fail(f) => Err(f),
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod unit {
    use super::*;

    #[test]
    fn quick_grid_single_cell_runs() {
        let kernels = paper_kernels(Scale::Quick);
        assert_eq!(kernels.len(), 4);
        let grid = run_grid(&kernels[..1], &[2], &GRID_SCHEMES).expect("coherent grid");
        assert_eq!(grid.len(), 1);
        assert_eq!(grid[0].len(), 1);
        let m = &grid[0][0];
        assert_eq!(m.runs.len(), GRID_SCHEMES.len());
        for s in GRID_SCHEMES {
            let r = m.get(s).expect("requested scheme present");
            assert!(r.result.oracle.is_coherent(), "{} incoherent", s.name());
        }
        assert!(m.get(Scheme::Mesi).unwrap().result.total_stats().bus_txns > 0);
    }

    #[test]
    fn seed_from_prefers_flag_over_env() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(seed_from(&args(&["--seed", "17"])).unwrap(), 17);
        assert_eq!(seed_from(&args(&["--quick", "--seed=99"])).unwrap(), 99);
        let err = seed_from(&args(&["--seed", "banana"])).unwrap_err();
        assert!(format!("{err}").contains("banana"), "{err}");
        assert!(seed_from(&args(&["--seed"])).is_err());
        // No flag and no env (tests don't set CCDP_SEED): default 0.
        if std::env::var("CCDP_SEED").is_err() && std::env::var("CCDP_SCALE").is_err() {
            assert_eq!(seed_from(&args(&[])).unwrap(), 0);
        }
    }

    #[test]
    fn scale_maps_presets() {
        assert_eq!(Scale::from_preset(ScalePreset::Quick), Scale::Quick);
        assert_eq!(Scale::from_preset(ScalePreset::Paper), Scale::Paper);
        assert_eq!(Scale::Quick.name(), "quick");
        assert_eq!(Scale::Paper.name(), "paper");
    }

    #[test]
    fn run_grid_fails_with_the_first_failed_cell() {
        let mut pb = ccdp_ir::ProgramBuilder::new("oob");
        let a = pb.shared("A", &[8]);
        pb.parallel_epoch("w", |e| {
            e.doall("i", 0, 127, |e, i| e.assign(a.at1(i), 1.0));
        });
        let oob = BenchKernel {
            name: "OOB",
            program: pb.finish().expect("structurally valid"),
            repeat_sample: None,
            layout: None,
        };
        let mut kernels = paper_kernels(Scale::Quick);
        kernels.truncate(1);
        kernels.push(oob);
        match run_grid(&kernels, &[2], &[Scheme::Base]) {
            Err(CellFailure::Panicked { retried, .. }) => assert!(retried),
            Err(f) => panic!("expected a panicked cell, got {f}"),
            Ok(_) => panic!("an out-of-bounds kernel must fail the grid"),
        }
    }
}
