//! `ccdp-core`: the end-to-end CCDP pipeline.
//!
//! This is the crate a downstream user drives:
//!
//! ```
//! use ccdp_core::{compare, PipelineConfig, Scheme};
//! use ccdp_ir::ProgramBuilder;
//!
//! // A toy kernel: one epoch writes, the next reads it back reversed.
//! let mut pb = ProgramBuilder::new("demo");
//! let a = pb.shared("A", &[256]);
//! let b = pb.shared("B", &[256]);
//! pb.parallel_epoch("w", |e| {
//!     e.doall("i", 0, 255, |e, i| e.assign(a.at1(i), 2.0));
//! });
//! pb.parallel_epoch("r", |e| {
//!     e.doall("i", 0, 255, |e, i| {
//!         e.assign(b.at1(i), a.at1(255 - i).rd() * 0.5);
//!     });
//! });
//! let program = pb.finish().unwrap();
//!
//! // One entry point per scheme...
//! let cfg = PipelineConfig::t3d(4);
//! let ccdp = cfg.run(&program, Scheme::Ccdp).unwrap();
//! assert!(ccdp.result.oracle.is_coherent());
//!
//! // ...and an N-way comparison against the sequential denominator.
//! // `compare` fails with a `PipelineError` if any run consumes stale data.
//! let cmp = compare(&program, &cfg, &[Scheme::Base, Scheme::Ccdp, Scheme::Mesi]).unwrap();
//! assert!(cmp.speedup(Scheme::Ccdp).unwrap() > 0.0);
//! assert!(cmp.cycles(Scheme::Mesi).is_some());
//! ```
//!
//! [`compile_ccdp`] runs stale reference analysis → prefetch target analysis
//! → prefetch scheduling → materialization. [`PipelineConfig::run`] executes
//! any [`Scheme`] — the software schemes (`Base`, `Ccdp`, `InvalidateOnly`)
//! and the hardware-coherence rivals (`Mesi`, `Dragon`) — and [`compare`]
//! runs a list of them plus the sequential reference, reporting the paper's
//! metrics: speedup over sequential (Table 1) and percentage improvement of
//! CCDP over BASE (Table 2), generalized to an N-way [`SchemeMatrix`].
//!
//! Environment overrides (`CCDP_SIM_THREADS`, `CCDP_SEED`, `CCDP_SCALE`,
//! `CCDP_BENCH_QUICK`, `CCDP_SERVE_WORKERS`, `CCDP_COMPACT_BYTES`) are
//! parsed in exactly one place:
//! [`EnvOverrides::from_env`]; command-line flags likewise, in [`flags`].
//!
//! The pieces shared by the benchmark harness and the job service live here
//! too: failure classification with panic-contained retries
//! ([`isolate`]), the crash-safe line [`Journal`], and the random program
//! generator [`synth`].

mod env;
mod fingerprint;
pub mod flags;
mod journal;
mod jsonio;
mod pipeline;
mod report;
mod resilience;
pub mod synth;

pub use env::{EnvOverrides, ScalePreset};
pub use fingerprint::{Fingerprint, Fingerprinter};
pub use journal::Journal;
pub use pipeline::{
    compare, compare_with_seq, compile_ccdp, run_seq, CcdpArtifacts, PipelineConfig,
    PipelineError, Scheme, SchemeMatrix, SchemeRun,
};
pub use report::{
    format_improvement_cells, format_improvement_table, format_speedup_cells,
    format_speedup_table, MatrixRow, TableCell, TableRow,
};
pub use resilience::{classify_pipeline, isolate, panic_message, CellFailure, RetryPolicy};
