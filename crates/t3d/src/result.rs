//! Simulation results and the coherence oracle report.

use ccdp_ir::{ArrayId, Program, RefId};

use crate::faults::FaultStats;
use crate::mem::Memory;
use crate::metrics::{EpochCycles, EventTrace, PrefetchQuality};
use crate::pe::PeStats;

/// One recorded stale-read violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StaleReadExample {
    pub reference: RefId,
    pub pe: usize,
    pub addr: usize,
    pub cached_version: u32,
    pub memory_version: u32,
    pub phase: u32,
}

/// The coherence oracle's verdict on a run.
#[derive(Clone, Debug, Default)]
pub struct OracleReport {
    /// Number of consumed cached reads that returned a word older than main
    /// memory. Must be zero for any correct execution scheme.
    pub stale_reads: u64,
    /// First few violations, for diagnostics.
    pub examples: Vec<StaleReadExample>,
}

impl OracleReport {
    pub fn is_coherent(&self) -> bool {
        self.stale_reads == 0
    }
}

/// Epoch-sharding accounting: how each static-DOALL instance was executed
/// and why ineligible ones declined. Diagnostics only — deliberately **not**
/// part of the serialized result (`jsonio`), so the byte-identity contract
/// between serial and sharded runs is unaffected by how runs were sharded.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// DOALL instances sharded on a static `Disjoint` proof and merged at
    /// the barrier. Only proven epochs shard; every other instance runs on
    /// the serial schedule.
    pub static_proven: u64,
    /// Always 0. The optimistic path that sharded unproven epochs under a
    /// dynamic conflict log is gone (it re-ran nearly every instance
    /// serially anyway); the field stays because benchmark harnesses
    /// outside this workspace read it.
    pub dynamic_logged: u64,
    /// Always 0, for the same reason as `dynamic_logged`: no merge-time
    /// conflict scan exists to reject an instance.
    pub conflicts: u64,
    /// Statically proven budgeted instances whose sliced budget tripped in
    /// a worker (rerun serially to reproduce the exact serial abort).
    pub budget_reruns: u64,
    /// Declines, by structured reason (instances that went straight to the
    /// serial schedule; `sim_threads <= 1` runs are not counted).
    pub declined_treewalk: u64,
    pub declined_few_pes: u64,
    pub declined_hardware: u64,
    pub declined_wall_deadline: u64,
    /// Instances without a static `Disjoint` proof, all of which run
    /// serially, budgeted or not. The name predates that rule, when only
    /// budgeted unproven instances were declined.
    pub declined_budget_unproven: u64,
}

impl ShardStats {
    /// Total sharded instances that merged successfully.
    pub fn sharded(&self) -> u64 {
        self.static_proven
    }
}

/// Everything a simulation run produces.
#[derive(Clone)]
pub struct SimResult {
    /// Scheme name ("SEQ" / "BASE" / "CCDP" / "INV" / "MESI" / "DRAGON").
    pub scheme: &'static str,
    /// Total simulated cycles (max over PEs at the final barrier).
    pub cycles: u64,
    /// Per-PE statistics.
    pub per_pe: Vec<PeStats>,
    /// Oracle verdict.
    pub oracle: OracleReport,
    /// Final memory (for numerical validation).
    pub memory: Memory,
    /// Barrier phases executed.
    pub phases: u32,
    /// True when Repeat extrapolation was applied (numerics then reflect
    /// only the sampled iterations).
    pub extrapolated: bool,
    /// Per-epoch cycle attribution, in first-execution order. Each entry
    /// accumulates every execution of that source epoch; the pseudo-entry
    /// labelled `"(extrapolated)"` holds Repeat extrapolation cycles. For
    /// each PE, the entries sum to that PE's `breakdown` (and so to its
    /// final cycle counter).
    pub epochs: Vec<EpochCycles>,
    /// Bounded memory-event trace (empty unless
    /// `SimOptions::trace_capacity > 0`).
    pub trace: EventTrace,
    /// Epoch-sharding accounting (not serialized; see [`ShardStats`]).
    pub shard: ShardStats,
}

impl SimResult {
    /// Machine-wide statistics.
    pub fn total_stats(&self) -> PeStats {
        let mut t = PeStats::default();
        for s in &self.per_pe {
            t.add(s);
        }
        t
    }

    /// Final contents of a shared array.
    pub fn array_values(&self, program: &Program, a: ArrayId) -> Vec<f64> {
        self.memory.array_values(program, a)
    }

    /// Megawords of shared data moved by vector prefetches (diagnostics).
    pub fn vector_words(&self) -> u64 {
        self.per_pe.iter().map(|s| s.vector_words_moved).sum()
    }

    /// Machine-wide prefetch quality (coverage / accuracy / timeliness).
    pub fn prefetch_quality(&self) -> PrefetchQuality {
        PrefetchQuality::from_stats(&self.total_stats())
    }

    /// Machine-wide injected-fault accounting (all zero for fault-free runs).
    pub fn fault_stats(&self) -> FaultStats {
        let mut t = FaultStats::default();
        for s in &self.per_pe {
            t.add(&s.faults);
        }
        t
    }
}
