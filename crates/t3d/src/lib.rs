//! `t3d-sim`: a cycle-cost simulator of a Cray T3D-like non-cache-coherent
//! shared-address-space multiprocessor.
//!
//! # What is modelled
//!
//! * **PEs** with private direct-mapped data caches (8 KB, 32-byte lines by
//!   default — the Alpha 21064 configuration), a 16-word prefetch queue, and
//!   a DTB-Annex-style setup cost for switching remote targets.
//! * **Distributed memory**: every shared-array word lives on exactly one
//!   PE (per the `ccdp-dist` layout); local vs remote access latencies are
//!   taken from published T3D measurements (see `MachineConfig`).
//! * **No hardware coherence by default**: caches are never invalidated by
//!   remote writes. Coherence is whatever the executed program's prefetch
//!   plan achieves — which is the point of the paper. Hardware-coherent
//!   *rival* machines are modelled by the snooping backends below.
//! * **Execution schemes**: `Sequential` (1 PE, everything local and
//!   cached), `Base` (CRAFT-style: shared data *not cached*, software
//!   shared-address overhead on every access), `Ccdp` (shared data cached;
//!   potentially-stale reads follow the prefetch plan's `Fresh` / `Bypass`
//!   handling; prefetch statements and pipelined prefetches are executed),
//!   `InvalidateOnly` (the plan's handlings without its prefetches), and
//!   the hardware-coherence rivals `Mesi` / `Dragon` (snooping
//!   invalidate-/update-based protocols over a shared bus; see the
//!   [`coherence`] module). All schemes sit behind the
//!   [`CoherenceBackend`] trait.
//! * **A coherence oracle**: memory keeps a version per word, cache lines
//!   remember the versions they loaded, and every consumed cached read is
//!   checked; reading a word older than memory is recorded as a *stale read
//!   violation* (and the stale value is really returned, so broken plans
//!   produce genuinely wrong numerics). A correct CCDP plan yields zero
//!   violations — the test suite and the failure-injection tests lean on
//!   this.
//!
//! * **Deterministic fault injection** (`SimOptions::faults`): a seeded
//!   [`FaultPlan`] can drop prefetches, spike remote latencies, storm the
//!   prefetch queue, and evict prefetched lines before use — at the same
//!   charge points the normal model uses, so every injected fault is also
//!   accounted (per-PE [`FaultStats`]). The enforced invariant: faults may
//!   only move cycles, never values; a faulted prefetch degrades to a
//!   coherent demand fetch.
//!
//! * **Run budgets** (`SimOptions::cycle_budget` / `step_budget` /
//!   `wall_deadline`): both execution paths check budgets at every loop
//!   iteration, and [`Simulator::try_run`] aborts a runaway program with a
//!   structured [`SimAbort`] instead of looping forever — which is what
//!   makes fuzzed/synthesized programs safe to execute.
//!
//! # Time model
//!
//! Each PE owns a cycle counter. DOALL phases advance PEs independently and
//! re-synchronize at barriers (max + barrier cost). Serial epochs run on
//! PE 0. Repeat blocks can be *sampled* (`SimOptions::repeat_sample`): the
//! simulator runs a few iterations and extrapolates the steady-state
//! per-iteration cycle delta, which is how the 100-iteration TOMCATV/SWIM
//! runs stay tractable.

mod cache;
pub mod coherence;
/// Loop-body pre-compilation. Hidden from the public API surface: only
/// [`compiled::CExpr`] is exported, so the `dispatch` microbench can pit
/// the direct-threaded evaluator against the postfix stack machine.
#[doc(hidden)]
pub mod compiled;
mod config;
pub mod faults;
mod interp;
mod jsonio;
mod mem;
pub mod metrics;
mod pe;
mod result;

pub use cache::Cache;
pub use coherence::CoherenceBackend;
pub use config::{ConfigError, MachineConfig, Scheme, SimAbort, SimOptions};
pub use faults::{FaultPlan, FaultStats};
pub use interp::Simulator;
#[cfg(feature = "shard-audit")]
pub use interp::{AuditConflict, ShardAudit};
pub use mem::Memory;
pub use metrics::{
    CycleBreakdown, CycleCategory, EpochCycles, EventTrace, MemEvent, PrefetchQuality,
    TraceEventKind,
};
pub use pe::{Pe, PeStats};
pub use result::{OracleReport, ShardStats, SimResult, StaleReadExample};
