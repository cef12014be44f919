//! Machine configuration and execution schemes.

use ccdp_prefetch::PrefetchPlan;

use crate::faults::FaultPlan;

/// Why a machine configuration or fault plan is invalid. Produced by
/// [`MachineConfig::validate`] / [`FaultPlan::validate`] and surfaced by the
/// pipeline entry points as `PipelineError::InvalidConfig`.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `n_pes == 0`.
    ZeroPes,
    /// `cache_lines == 0`.
    NoCacheLines,
    /// The direct-mapped index needs a power-of-two line count.
    CacheLinesNotPowerOfTwo { cache_lines: usize },
    /// `line_words == 0`.
    ZeroLineWords,
    /// The prefetch queue cannot hold even one line.
    QueueTooSmall { queue_words: usize, line_words: usize },
    /// A remote access must cost at least as much as its local counterpart.
    RemoteNotSlower { kind: &'static str, remote: u64, local: u64 },
    /// A fault-plan rate is not a probability in `[0, 1]`.
    BadFaultRate { field: &'static str, value: f64 },
    /// A fault-plan burst/multiplier parameter is out of range.
    BadFaultParam { field: &'static str, value: u64, need: &'static str },
    /// An environment override variable holds an unparsable value (see
    /// the core crate's `EnvOverrides` for the variables).
    BadEnv { var: &'static str, value: String, need: &'static str },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroPes => write!(f, "machine has zero PEs"),
            ConfigError::NoCacheLines => write!(f, "cache has zero lines"),
            ConfigError::CacheLinesNotPowerOfTwo { cache_lines } => {
                write!(f, "cache_lines = {cache_lines} is not a power of two (direct-mapped index)")
            }
            ConfigError::ZeroLineWords => write!(f, "cache line holds zero words"),
            ConfigError::QueueTooSmall { queue_words, line_words } => write!(
                f,
                "prefetch queue ({queue_words} words) cannot hold one line ({line_words} words)"
            ),
            ConfigError::RemoteNotSlower { kind, remote, local } => write!(
                f,
                "remote {kind} ({remote} cycles) must cost at least the local one ({local} cycles)"
            ),
            ConfigError::BadFaultRate { field, value } => {
                write!(f, "fault plan {field} = {value} is not a probability in [0, 1]")
            }
            ConfigError::BadFaultParam { field, value, need } => {
                write!(f, "fault plan {field} = {value}: {need}")
            }
            ConfigError::BadEnv { var, value, need } => {
                write!(f, "environment override {var}={value:?}: {need}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Cycle costs and capacities of the simulated machine. Defaults follow the
/// 150 MHz Cray T3D (Alpha 21064) as characterized by Arpaci et al.
/// (ISCA '95) and the Cray system documentation the paper cites; they are
/// inputs to the model, not fitted outputs.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Number of processing elements.
    pub n_pes: usize,
    /// Direct-mapped data cache lines per PE (256 × 32 B = 8 KB).
    pub cache_lines: usize,
    /// Words (8 B) per cache line.
    pub line_words: usize,

    /// Cache hit.
    pub cache_hit: u64,
    /// Cache miss filled from the PE's own memory.
    pub local_fill: u64,
    /// Cache miss filled from a remote PE's memory.
    pub remote_fill: u64,
    /// Uncached load from local memory.
    pub local_uncached: u64,
    /// Uncached (blocking) load from remote memory.
    pub remote_uncached: u64,
    /// Store to local memory.
    pub write_local: u64,
    /// Buffered store to remote memory.
    pub write_remote: u64,

    /// CRAFT software overhead on a *local* shared access (BASE scheme):
    /// distribution index arithmetic. Local shared data is still cached by
    /// the hardware (the T3D caches all local memory; CRAFT's "shared data
    /// is not cached" applies to *remote* data, which never enters the
    /// cache).
    pub craft_local: u64,
    /// CRAFT software overhead on a *remote* shared access (BASE scheme):
    /// global-address translation and DTB Annex manipulation, on top of the
    /// uncached network access.
    pub craft_remote: u64,
    /// CRAFT local-access overhead for arrays with a *generalized*
    /// distribution (general div/mod address arithmetic; TOMCATV and SWIM
    /// in the paper).
    pub craft_generalized: u64,
    /// `doshared` startup overhead, charged per DOALL *instance* (per
    /// barrier phase) in the BASE scheme. TOMCATV's inner DOALLs execute
    /// ~10^5 instances per run, which is where CRAFT loses badly.
    pub base_epoch_overhead: u64,
    /// Per-DOALL-iteration scheduling overhead of CRAFT's `doshared` under
    /// a generalized distribution (runtime iteration→PE map), BASE scheme.
    pub base_doshared_iter: u64,
    /// Setup overhead of the CCDP codes' manual loop assignment, per DOALL
    /// instance.
    pub ccdp_epoch_overhead: u64,

    /// Issuing one line prefetch.
    pub prefetch_issue: u64,
    /// DTB-Annex entry setup when the prefetch targets a different PE than
    /// the previous one (amortized across consecutive same-PE prefetches).
    pub annex_setup: u64,
    /// Extracting a ready word/line that arrived via the prefetch queue.
    pub queue_pop: u64,
    /// Prefetch queue capacity in words; in-flight prefetches beyond this
    /// are dropped (the covered read then re-fetches coherently).
    pub queue_words: usize,

    /// PE-blocking part of issuing a vector prefetch (`shmem_get` setup).
    pub vector_issue: u64,
    /// Pipeline startup latency of a vector transfer (`shmem_get`'s
    /// software setup dominates: a few microseconds on the T3D).
    pub vector_startup: u64,
    /// Per-word transfer cost of a vector prefetch, in tenths of a cycle.
    pub vector_per_word_tenths: u64,

    /// Occupancy of one snooping-bus coherence transaction (BusRd / BusRdX /
    /// BusUpgr / BusUpd), charged to the issuing PE by the hardware-coherence
    /// backends. Every other active PE is assumed to contend for the same
    /// bus, so each transaction additionally waits the mean residual
    /// occupancy of the other `P - 1` requesters (see `coherence::BusModel`).
    pub bus_txn: u64,
    /// Outstanding bus transactions one PE may have in flight before it
    /// stalls waiting for the oldest to drain (the delayed-message queue of
    /// the hardware backends). Fault-plan queue storms shrink this capacity
    /// at the same hook that storms the prefetch queue.
    pub bus_queue: usize,

    /// Hardware barrier.
    pub barrier: u64,
    /// Per-iteration loop bookkeeping.
    pub loop_overhead: u64,
    /// Fetching one chunk from the dynamic self-scheduling queue.
    pub dynamic_chunk_overhead: u64,
}

impl MachineConfig {
    /// T3D-like defaults for `n_pes` processors.
    pub fn t3d(n_pes: usize) -> Self {
        MachineConfig {
            n_pes,
            cache_lines: 256,
            line_words: 4,
            cache_hit: 1,
            local_fill: 22,
            remote_fill: 150,
            local_uncached: 22,
            remote_uncached: 150,
            write_local: 2,
            write_remote: 10,
            craft_local: 2,
            craft_remote: 25,
            craft_generalized: 2,
            base_epoch_overhead: 600,
            base_doshared_iter: 140,
            ccdp_epoch_overhead: 80,
            prefetch_issue: 7,
            annex_setup: 12,
            queue_pop: 5,
            queue_words: 16,
            vector_issue: 40,
            vector_startup: 600,
            vector_per_word_tenths: 20,
            bus_txn: 8,
            bus_queue: 4,
            barrier: 80,
            loop_overhead: 2,
            dynamic_chunk_overhead: 30,
        }
    }

    /// Total cache capacity in words.
    pub fn cache_words(&self) -> usize {
        self.cache_lines * self.line_words
    }

    /// Check the structural invariants the simulator relies on. The
    /// pipeline entry points call this (surfacing failures as
    /// `PipelineError::InvalidConfig`) so a malformed ablation tweak fails
    /// with a diagnosis instead of a panic or silent nonsense.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n_pes == 0 {
            return Err(ConfigError::ZeroPes);
        }
        if self.cache_lines == 0 {
            return Err(ConfigError::NoCacheLines);
        }
        if !self.cache_lines.is_power_of_two() {
            return Err(ConfigError::CacheLinesNotPowerOfTwo { cache_lines: self.cache_lines });
        }
        if self.line_words == 0 {
            return Err(ConfigError::ZeroLineWords);
        }
        if self.queue_words < self.line_words {
            return Err(ConfigError::QueueTooSmall {
                queue_words: self.queue_words,
                line_words: self.line_words,
            });
        }
        for (kind, remote, local) in [
            ("fill", self.remote_fill, self.local_fill),
            ("uncached load", self.remote_uncached, self.local_uncached),
            ("store", self.write_remote, self.write_local),
        ] {
            if remote < local {
                return Err(ConfigError::RemoteNotSlower { kind, remote, local });
            }
        }
        Ok(())
    }
}

/// Which execution scheme the simulator applies to shared data.
#[derive(Clone, Debug)]
pub enum Scheme {
    /// Uniprocessor reference run: one PE, all data local and cached, no
    /// sharing overheads. The denominator of the paper's speedups.
    Sequential,
    /// The paper's BASE codes: CRAFT shared data. Local portions are cached
    /// by the hardware (plus distribution index arithmetic); remote data is
    /// never cached and pays the full network latency plus software
    /// address-translation overhead. Coherent by construction (remote
    /// stores update the owner's cache; nobody caches foreign data).
    Base,
    /// The paper's CCDP codes: shared data cached; reads follow the plan's
    /// handling (`Normal`/`Fresh`/`Bypass`); prefetch operations execute.
    Ccdp { plan: PrefetchPlan },
    /// The invalidate-only software baseline: a CCDP machine whose plan
    /// bypasses the cache on every potentially-stale read and issues no
    /// prefetches (`PrefetchPlan::bypass_all`). Same execution engine as
    /// `Ccdp`, distinct reported identity.
    InvalidateOnly { plan: PrefetchPlan },
    /// Snooping MESI hardware coherence (invalidate-based): shared data is
    /// cached everywhere; misses issue BusRd/BusRdX, writes to shared lines
    /// issue BusUpgr invalidating remote copies. No prefetch plan — the
    /// same IR schedule runs with coherence resolved dynamically by the
    /// [`crate::coherence::CoherenceBackend`].
    Mesi,
    /// Dragon hardware coherence (update-based): writes to lines with
    /// remote sharers broadcast BusUpd, patching every copy in place
    /// instead of invalidating it.
    Dragon,
}

impl Scheme {
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Sequential => "SEQ",
            Scheme::Base => "BASE",
            Scheme::Ccdp { .. } => "CCDP",
            Scheme::InvalidateOnly { .. } => "INV",
            Scheme::Mesi => "MESI",
            Scheme::Dragon => "DRAGON",
        }
    }

    /// The prefetch plan driving shared-read handling, if this scheme is
    /// plan-directed.
    pub fn plan(&self) -> Option<&PrefetchPlan> {
        match self {
            Scheme::Ccdp { plan } | Scheme::InvalidateOnly { plan } => Some(plan),
            _ => None,
        }
    }

    /// Does this scheme resolve coherence in hardware (event-driven
    /// snooping backend, no prefetch plan)?
    pub fn is_hardware(&self) -> bool {
        matches!(self, Scheme::Mesi | Scheme::Dragon)
    }
}

/// Simulation options. The default runs serially, unbudgeted, untraced and
/// fault-free ([`FaultPlan::none`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct SimOptions {
    /// When `Some(k)`, a `Repeat { count }` block with `count > k` runs only
    /// `k` iterations and extrapolates total cycles from the steady-state
    /// per-iteration delta (numerics then correspond to `k` iterations).
    pub repeat_sample: Option<u32>,
    /// Record up to this many stale-read examples in the oracle report.
    pub oracle_examples: usize,
    /// Capacity of the memory-event trace ring buffer; `0` (the default)
    /// disables tracing. Tracing is observation only — it never changes
    /// simulated cycle counts.
    pub trace_capacity: usize,
    /// Deterministic fault injection (default [`FaultPlan::none`]: nothing
    /// injected, simulation byte-identical to a fault-free build). Faults
    /// may only move cycles, never values — see the `faults` module.
    pub faults: FaultPlan,
    /// Run loops through the reference tree-walking interpreter instead of
    /// the compiled trace. The two paths are byte-identical by contract —
    /// this exists so the equivalence, resilience and dispatch suites can
    /// pin them against each other.
    pub force_treewalk: bool,
    /// Abort the run once any PE's cycle counter exceeds this many cycles
    /// ([`SimAbort::BudgetExceeded`]). `None` (the default) = unlimited.
    /// Makes fuzzed/synthesized programs safe to execute: a runaway loop
    /// terminates with a structured error instead of spinning forever.
    pub cycle_budget: Option<u64>,
    /// Abort the run after this many interpreter steps (loop iterations
    /// across all PEs and both execution paths). `None` = unlimited.
    pub step_budget: Option<u64>,
    /// Cooperative wall-clock watchdog: abort with [`SimAbort::WallTimeout`]
    /// once `Instant::now()` passes this deadline. Checked every few
    /// thousand steps so the hot loop stays cheap. Worker threads cannot be
    /// killed from outside, so this is how the harness bounds a cell's wall
    /// time. `None` = no deadline.
    pub wall_deadline: Option<std::time::Instant>,
    /// Worker threads for intra-run PE sharding (also settable via
    /// `CCDP_SIM_THREADS`). `0` or `1` (the default) = serial. With `t > 1`
    /// each software-scheme DOALL epoch is split into `min(t, n_pes)`
    /// contiguous PE blocks simulated concurrently and merged
    /// deterministically at the barrier — byte-identical to the serial run
    /// by contract (`tests/parallel_equivalence.rs`). Hardware schemes
    /// (MESI/Dragon) and wall-deadline runs always take the serial path, and
    /// so does every epoch the static shard-independence analysis
    /// (`analysis::shard`) does not prove `Disjoint`.
    pub sim_threads: usize,
}

/// Why a simulation was aborted before completion. Returned by
/// `Simulator::try_run`; the pipeline surfaces these as
/// `PipelineError::BudgetExceeded` / `PipelineError::Timeout`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimAbort {
    /// A cycle or step budget was exhausted. `pe` is the PE whose counter
    /// tripped the check; `cycles` its counter at that point; `steps` the
    /// machine-wide interpreter step count.
    BudgetExceeded { pe: usize, cycles: u64, steps: u64 },
    /// The cooperative wall-clock deadline passed.
    WallTimeout { pe: usize, steps: u64 },
}

impl std::fmt::Display for SimAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimAbort::BudgetExceeded { pe, cycles, steps } => write!(
                f,
                "simulation budget exceeded on PE {pe}: {cycles} cycles after {steps} steps"
            ),
            SimAbort::WallTimeout { pe, steps } => write!(
                f,
                "simulation wall-clock deadline passed on PE {pe} after {steps} steps"
            ),
        }
    }
}

impl std::error::Error for SimAbort {}

#[cfg(test)]
mod unit {
    use super::*;

    #[test]
    fn t3d_defaults_are_consistent() {
        let c = MachineConfig::t3d(8);
        assert_eq!(c.cache_words(), 1024);
        assert!(c.remote_fill > c.local_fill);
        assert!(c.remote_uncached > c.local_uncached);
        assert!(c.queue_words >= c.line_words);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_catches_each_broken_invariant() {
        let ok = MachineConfig::t3d(4);
        let mut c = ok.clone();
        c.n_pes = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroPes));
        let mut c = ok.clone();
        c.cache_lines = 0;
        assert_eq!(c.validate(), Err(ConfigError::NoCacheLines));
        let mut c = ok.clone();
        c.cache_lines = 100;
        assert_eq!(
            c.validate(),
            Err(ConfigError::CacheLinesNotPowerOfTwo { cache_lines: 100 })
        );
        let mut c = ok.clone();
        c.line_words = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroLineWords));
        let mut c = ok.clone();
        c.queue_words = 2;
        assert_eq!(
            c.validate(),
            Err(ConfigError::QueueTooSmall { queue_words: 2, line_words: 4 })
        );
        let mut c = ok.clone();
        c.remote_fill = c.local_fill - 1;
        assert!(matches!(c.validate(), Err(ConfigError::RemoteNotSlower { kind: "fill", .. })));
        // Every error renders a readable message.
        for e in [
            ConfigError::ZeroPes,
            ConfigError::QueueTooSmall { queue_words: 2, line_words: 4 },
            ConfigError::BadFaultRate { field: "drop_rate", value: 2.0 },
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }

    #[test]
    fn scheme_names() {
        assert_eq!(Scheme::Sequential.name(), "SEQ");
        assert_eq!(Scheme::Base.name(), "BASE");
        assert_eq!(Scheme::Mesi.name(), "MESI");
        assert_eq!(Scheme::Dragon.name(), "DRAGON");
        assert!(Scheme::Mesi.is_hardware() && Scheme::Dragon.is_hardware());
        assert!(!Scheme::Base.is_hardware());
        assert!(Scheme::Mesi.plan().is_none());
    }
}
