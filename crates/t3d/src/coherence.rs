//! Coherence backends: the seam between the interpreter and "what happens
//! on a shared read/write".
//!
//! Every shared-data read and write goes through
//! `Simulator::backend_read` / `Simulator::backend_write`: one `match`
//! on the scheme decides state lookup, remote traffic, cycle charges, and
//! stats, with no virtual call on the per-access path. The software schemes
//! (SEQ / BASE / CCDP / INV) are *static*: their per-reference decisions are
//! fixed by the scheme and the prefetch plan, which is why the compiled
//! trace can specialize them into [`crate::compiled::AccessKind`] at
//! compile time (the `compiled_equivalence` property test pins the two
//! paths together). The hardware schemes (MESI / Dragon) are *dynamic*:
//! they run a line-state machine over the state each cache line carries
//! ([`LineState`]) plus a snooping-bus model, and both execution paths
//! reach them through `Simulator::hw_read` and `backend_write`
//! ([`crate::compiled::AccessKind::Hardware`]).
//!
//! # Hardware backends: data model
//!
//! Both hardware backends keep the **data shadow write-through**: every
//! store still updates main memory (bumping the word's version) exactly as
//! the software schemes do, so the coherence oracle and the golden-numerics
//! check apply unchanged. What the protocol state machine governs is the
//! *sharing traffic*: which accesses ride the snooping bus, which remote
//! copies get invalidated (MESI) or patched in place (Dragon), and what
//! that costs. A correct protocol keeps every cached copy current, so both
//! backends are oracle-coherent by construction; the oracle still checks
//! every consumed read, so a protocol bug shows up as a genuine stale value.
//!
//! Dirty-line writeback on eviction is *not* modelled (the shadow keeps
//! memory current, so there is nothing to write back); the protocols here
//! cost the transaction structure — misses, upgrades, updates — not the
//! writeback stream.
//!
//! # Bus model
//!
//! One shared snooping bus, modelled without a global event queue (PEs
//! simulate independently between barriers): each transaction charges the
//! issuing PE its own occupancy `bus_txn` ([`CycleCategory::BusTxn`]) plus
//! the *mean residual occupancy* of the other `P - 1` contending PEs,
//! `bus_txn * (P - 1) / 2` ([`CycleCategory::BusWait`]) — deterministic,
//! order-independent, and monotone in `P`, which is the contention shape a
//! shared bus imposes. On top of that, each PE owns a **delayed-message
//! queue** (after cachesim-rs-mp's `delayed_q`): a transaction's snoop
//! traffic stays outstanding for `bus_txn * (P - 1)` cycles after issue,
//! and a PE with [`MachineConfig::bus_queue`] messages outstanding stalls
//! until the oldest drains. Fault-plan queue storms shrink this capacity
//! through the same [`FaultEngine::effective_queue`] hook that storms the
//! prefetch queue, and latency spikes multiply miss-fill latency through
//! `fill_multiplier` — fault injection applies uniformly through the
//! backends' charge points.
//!
//! Snoop side effects (invalidations, updates) are applied eagerly at the
//! writer's transaction. PEs execute sequentially within a phase, so this
//! is the same "writes land in simulation order" convention every software
//! scheme already uses; programs free of same-phase cross-PE races (what
//! `ccdp-lint`'s phase-race detection verifies) observe identical values
//! either way, and all effects have landed by the barrier.
//!
//! # Presence vector
//!
//! The bus keeps one `u64` per shared line: bit `p` is set exactly when
//! PE `p`'s cache holds the line (the presence vector of a directory
//! protocol). A snoop visits only the set bits, in ascending PE order — the
//! order a scan over every PE would take — so a transaction costs host work
//! in the number of sharers, not in `P`. Under a hardware scheme only two
//! operations change which caches hold a line: a demand fill (an install
//! plus the conflict victim it evicts) and a MESI invalidation. Hardware
//! schemes never prefetch, so the prefetch installs and the early-eviction
//! fault never run. `Simulator::hw_fill` and the MESI invalidation keep
//! the mask exact; its width is why hardware schemes are capped at
//! [`MAX_HARDWARE_PES`].

use ccdp_ir::RefId;
use ccdp_prefetch::Handling;

use crate::cache::LineState;
use crate::config::MAX_HARDWARE_PES;
use crate::interp::Simulator;
use crate::metrics::{CycleCategory, TraceEventKind};
use crate::Scheme;

// -- snooping bus ----------------------------------------------------------

/// The shared snooping bus of the hardware schemes: contention charges, a
/// per-PE bounded queue of outstanding snoop messages (the delayed-message
/// queue), and the per-line presence vector. Empty under the software
/// schemes, which never touch it.
#[derive(Default)]
pub(crate) struct Bus {
    /// Per-PE outstanding messages: cycle at which each drains. Pruned
    /// lazily against the PE clock, like `Pe::inflight`.
    delayed_q: Vec<Vec<u64>>,
    /// One mask per shared line: bit `p` is set exactly when PE `p`'s cache
    /// holds the line.
    presence: Vec<u64>,
}

impl Bus {
    /// The bus for a run of `scheme`: sized for `n_pes` PEs over
    /// `shared_words` words of shared memory in `line_words`-word lines
    /// under a hardware scheme, empty otherwise.
    pub(crate) fn for_scheme(
        scheme: &Scheme,
        n_pes: usize,
        shared_words: usize,
        line_words: usize,
    ) -> Bus {
        if !scheme.is_hardware() {
            return Bus::default();
        }
        assert!(
            n_pes <= MAX_HARDWARE_PES,
            "{n_pes} PEs exceed the presence vector's {MAX_HARDWARE_PES} bits"
        );
        Bus {
            delayed_q: vec![Vec::new(); n_pes],
            presence: vec![0; shared_words.div_ceil(line_words)],
        }
    }

    /// Is `pe`'s bit set for the line with line address `line_addr`?
    #[cfg(test)]
    pub(crate) fn present(&self, line_addr: usize, pe: usize) -> bool {
        self.presence[line_addr] >> pe & 1 == 1
    }
}

/// The PEs of a presence mask, in ascending order.
fn pes_in(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let pe = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            pe
        })
    })
}

impl Simulator<'_> {
    // -- dispatch ----------------------------------------------------------

    /// One shared read under this run's scheme: return the value the
    /// program observes, charging all cycles and feeding the oracle.
    /// `craft` is the array's CRAFT local-access overhead (BASE only).
    #[inline]
    pub(crate) fn backend_read(&mut self, pe: usize, rid: RefId, addr: usize, craft: u64) -> f64 {
        match &self.scheme {
            // Uniprocessor reference scheme: everything cached.
            Scheme::Sequential => self.cached_read(pe, rid, addr, Handling::Normal),
            // CRAFT BASE: local shared data cached, remote uncached.
            Scheme::Base => self.base_read(pe, rid, addr, craft),
            // Plan-directed CCDP, and the invalidate-only baseline whose
            // plan bypasses every potentially-stale read.
            Scheme::Ccdp { plan } | Scheme::InvalidateOnly { plan } => {
                match plan.handling_of(rid) {
                    Handling::Bypass => self.bypass_read(pe, addr),
                    h => self.cached_read(pe, rid, addr, h),
                }
            }
            Scheme::Mesi | Scheme::Dragon => self.hw_read(pe, rid, addr),
        }
    }

    /// One shared write of `v` under this run's scheme. `craft_local` is
    /// the array's CRAFT local-access overhead (BASE only).
    #[inline]
    pub(crate) fn backend_write(&mut self, pe: usize, addr: usize, craft_local: u64, v: f64) {
        match self.scheme {
            Scheme::Mesi => self.mesi_write(pe, addr, v),
            Scheme::Dragon => self.dragon_write(pe, addr, v),
            _ => self.write_shared_addr(pe, addr, craft_local, v),
        }
    }

    /// Does this scheme execute explicit prefetch statements and pipelined
    /// prefetches? Only plan-directed CCDP does; the hardware schemes
    /// resolve coherence dynamically and need no plan.
    pub(crate) fn prefetching(&self) -> bool {
        matches!(self.scheme, Scheme::Ccdp { .. })
    }

    // -- shared hardware machinery -----------------------------------------

    /// Charge one bus transaction issued by `pe`: arbitration wait (mean
    /// residual occupancy of the other `P - 1` requesters), own occupancy,
    /// and a delayed-queue stall when too many of this PE's snoop messages
    /// are still outstanding. Returns after the PE clock has advanced past
    /// the transaction.
    pub(crate) fn bus_transaction(&mut self, pe: usize) {
        let txn = self.cfg.bus_txn;
        let p = self.cfg.n_pes as u64;
        // Delayed-message queue: block until the oldest outstanding snoop
        // drains if the queue is at capacity. Fault-plan queue storms
        // shrink the capacity through the same hook as the prefetch queue.
        let mut cap = self.cfg.bus_queue;
        if let Some(f) = self.faults.as_mut() {
            let (c, began) = f.effective_queue(pe, cap);
            cap = c;
            if began {
                self.pes[pe].stats.faults.queue_storms += 1;
            }
        }
        let now = self.pes[pe].now;
        let q = &mut self.bus.delayed_q[pe];
        q.retain(|&drain| drain > now);
        // A storm (cap 0) still admits one message once the queue is empty
        // — the bus degrades, it does not deadlock.
        let oldest = (q.len() >= cap.max(1)).then(|| *q.iter().min().expect("non-empty queue"));
        if let Some(oldest) = oldest {
            let stall = oldest - now;
            self.charge(pe, CycleCategory::BusWait, stall);
            self.pes[pe].stats.mem_stall_cycles += stall;
            let now = self.pes[pe].now;
            self.bus.delayed_q[pe].retain(|&drain| drain > now);
        }
        self.charge(pe, CycleCategory::BusWait, txn * (p - 1) / 2);
        self.charge(pe, CycleCategory::BusTxn, txn);
        self.pes[pe].stats.bus_txns += 1;
        // The snoop traffic stays outstanding while every other cache
        // processes it; the PE itself does not block on that.
        let drain = self.pes[pe].now + txn * (p - 1);
        self.bus.delayed_q[pe].push(drain);
    }

    /// Line address of `addr` (the presence vector's index).
    #[inline]
    fn line_of(&self, pe: usize, addr: usize) -> usize {
        self.pes[pe].cache.line_addr(addr) as usize
    }

    /// The PEs other than `pe` whose caches hold `addr`'s line, as a mask.
    #[inline]
    fn sharers(&self, pe: usize, addr: usize) -> u64 {
        self.bus.presence[self.line_of(pe, addr)] & !(1 << pe)
    }

    /// Demand fill under a hardware scheme, keeping the presence vector
    /// exact: the conflict victim loses `pe`'s bit, the new line gains it.
    /// Returns the line.
    pub(crate) fn hw_fill(&mut self, pe: usize, addr: usize) -> usize {
        let bit = 1u64 << pe;
        if let Some(victim) = self.pes[pe].cache.victim(addr) {
            self.bus.presence[victim] &= !bit;
        }
        let line = self.demand_fill(pe, addr);
        let la = self.line_of(pe, addr);
        self.bus.presence[la] |= bit;
        line
    }

    /// Hardware-coherent shared read. A hit is the same plain cached read
    /// under both protocols; a miss is a `BusRd` that downgrades the remote
    /// holders and installs the line Shared if any exist, else Exclusive.
    #[inline]
    pub(crate) fn hw_read(&mut self, pe: usize, rid: RefId, addr: usize) -> f64 {
        if let Some(hit) = self.pes[pe].cache.lookup(addr) {
            return self.hw_cached_hit(pe, rid, addr, hit);
        }
        self.bus_transaction(pe);
        let others = self.sharers(pe, addr);
        let dragon = matches!(self.scheme, Scheme::Dragon);
        for other in pes_in(others) {
            let cache = &mut self.pes[other].cache;
            if let Some(h) = cache.lookup(addr) {
                // MESI: every remote copy goes Shared. Dragon: a Modified
                // owner keeps write responsibility as SharedModified.
                let st = match h.state {
                    LineState::Modified if dragon => LineState::SharedModified,
                    LineState::SharedModified => LineState::SharedModified,
                    _ => LineState::Shared,
                };
                cache.set_state(h.line, st);
            }
        }
        let line = self.hw_fill(pe, addr);
        let st = if others != 0 { LineState::Shared } else { LineState::Exclusive };
        self.pes[pe].cache.set_state(line, st);
        self.mem.read_shared(addr).0
    }

    // -- MESI ----------------------------------------------------------------
    //
    // Snooping MESI (invalidate-based). Line states live in each cache line
    // (`LineState`; Invalid is "not resident"). Transactions: read miss →
    // `BusRd` (`hw_read`); write to a Shared line → `BusUpgr` (invalidate
    // every remote copy, go Modified); write miss → `BusRdX` (invalidate,
    // fill, go Modified); write to Exclusive → Modified silently.

    /// Invalidate every remote copy of `addr`'s line (BusUpgr / BusRdX
    /// snoop effect), clearing their presence bits.
    fn mesi_invalidate_others(&mut self, pe: usize, addr: usize) {
        let la = self.line_of(pe, addr);
        let others = self.bus.presence[la] & !(1 << pe);
        if others == 0 {
            return;
        }
        for other in pes_in(others) {
            self.pes[other].cache.invalidate(addr);
        }
        self.bus.presence[la] &= !others;
        self.pes[pe].stats.bus_invalidations += u64::from(others.count_ones());
        self.trace_event(pe, TraceEventKind::BusInvalidate, addr);
    }

    fn mesi_write(&mut self, pe: usize, addr: usize, value: f64) {
        let line = match self.pes[pe].cache.lookup(addr).map(|h| (h.line, h.state)) {
            // Exclusive → Modified is a silent upgrade: no bus traffic.
            Some((line, LineState::Modified | LineState::Exclusive)) => line,
            Some((line, _)) => {
                // BusUpgr: kill every remote copy, then own the line.
                self.bus_transaction(pe);
                self.mesi_invalidate_others(pe, addr);
                line
            }
            None => {
                // Write miss: BusRdX (read-for-ownership).
                self.bus_transaction(pe);
                self.mesi_invalidate_others(pe, addr);
                self.hw_fill(pe, addr)
            }
        };
        self.pes[pe].cache.set_state(line, LineState::Modified);
        self.hw_store(pe, addr, value);
    }

    // -- Dragon --------------------------------------------------------------
    //
    // Dragon (update-based). Line states live in each cache line
    // (`LineState`: Exclusive, Shared clean, SharedModified, Modified; not
    // resident = not cached — writes update remote copies instead of
    // killing them). Read miss → `BusRd` (`hw_read`; a remote Modified
    // owner downgrades to SharedModified). Write to a shared line →
    // `BusUpd`: every remote copy is patched in place (and downgraded to
    // Shared); the writer becomes SharedModified — or Modified when the
    // snoop finds no sharers left. Write to Exclusive/Modified is
    // bus-silent.

    /// BusUpd: patch every other holder's copy of `addr` with the freshly
    /// written word and settle the writer's state (SharedModified while
    /// sharers remain, Modified otherwise). The write itself (memory + own
    /// cache) has already happened via `hw_store`.
    fn dragon_update(&mut self, pe: usize, line: usize, addr: usize, value: f64, version: u32) {
        let mut n = 0;
        for other in pes_in(self.sharers(pe, addr)) {
            let cache = &mut self.pes[other].cache;
            if let Some(h) = cache.lookup(addr) {
                cache.update_word(addr, value, version);
                cache.set_state(h.line, LineState::Shared);
                n += 1;
            }
        }
        self.pes[pe].stats.bus_updates += n;
        self.trace_event(pe, TraceEventKind::BusUpdate, addr);
        let st = if n == 0 { LineState::Modified } else { LineState::SharedModified };
        self.pes[pe].cache.set_state(line, st);
    }

    fn dragon_write(&mut self, pe: usize, addr: usize, value: f64) {
        match self.pes[pe].cache.lookup(addr).map(|h| (h.line, h.state)) {
            Some((_, LineState::Modified)) => {
                self.hw_store(pe, addr, value);
            }
            Some((line, LineState::Exclusive)) => {
                self.pes[pe].cache.set_state(line, LineState::Modified);
                self.hw_store(pe, addr, value);
            }
            Some((line, _)) => {
                // BusUpd (the snoop also reveals whether sharers remain).
                self.bus_transaction(pe);
                let ver = self.hw_store(pe, addr, value);
                self.dragon_update(pe, line, addr, value, ver);
            }
            None => {
                // Write miss: fill first (BusRd), then update sharers if
                // the snoop found any.
                self.bus_transaction(pe);
                let shared = self.sharers(pe, addr) != 0;
                let line = self.hw_fill(pe, addr);
                if shared {
                    self.bus_transaction(pe);
                    let ver = self.hw_store(pe, addr, value);
                    self.dragon_update(pe, line, addr, value, ver);
                } else {
                    self.pes[pe].cache.set_state(line, LineState::Modified);
                    self.hw_store(pe, addr, value);
                }
            }
        }
    }
}

#[cfg(test)]
mod unit {
    use super::*;
    use ccdp_dist::Layout;
    use ccdp_ir::{Program, ProgramBuilder};
    use crate::config::{MachineConfig, SimOptions};

    /// A two-PE fixture with one shared array laid out blockwise: words
    /// 0..8 live on PE 0, words 8..16 on PE 1.
    fn fixture() -> Program {
        let mut pb = ProgramBuilder::new("coh");
        let a = pb.shared("A", &[16]);
        pb.serial_epoch("touch", |e| {
            e.assign(a.at1(0), a.at1(0).rd() + 0.0);
        });
        pb.finish().unwrap()
    }

    /// The protocol state of `pe`'s copy of `addr`'s line; `None` when the
    /// line is not resident (Invalid).
    fn state_of(sim: &Simulator, pe: usize, addr: usize) -> Option<LineState> {
        sim.pes[pe].cache.lookup(addr).map(|h| h.state)
    }

    fn sim_for(p: &Program, scheme: Scheme) -> Simulator<'_> {
        let layout = Layout::new(p, 2);
        let cfg = MachineConfig::t3d(2);
        Simulator::new(p, layout, cfg, scheme, SimOptions::default())
    }

    /// Drive a backend directly: reads/writes against the raw simulator
    /// state, checking protocol-state transitions one at a time.
    #[test]
    fn mesi_read_miss_installs_exclusive_then_shared() {
        let p = fixture();
        let mut sim = sim_for(&p, Scheme::Mesi);
        let rid = RefId(0);
        // PE 0 read miss: nobody else caches the line → Exclusive.
        sim.backend_read(0, rid, 0, 0);
        assert_eq!(state_of(&sim, 0, 0), Some(LineState::Exclusive));
        // PE 1 reads the same line: both go Shared.
        sim.backend_read(1, rid, 0, 0);
        assert_eq!(state_of(&sim, 0, 0), Some(LineState::Shared));
        assert_eq!(state_of(&sim, 1, 0), Some(LineState::Shared));
        assert_eq!(sim.pes[0].stats.bus_txns + sim.pes[1].stats.bus_txns, 2);
    }

    #[test]
    fn mesi_write_upgrades_and_invalidates() {
        let p = fixture();
        let mut sim = sim_for(&p, Scheme::Mesi);
        let rid = RefId(0);
        sim.backend_read(0, rid, 0, 0);
        sim.backend_read(1, rid, 0, 0);
        // PE 0 writes a Shared line: BusUpgr kills PE 1's copy.
        sim.backend_write(0, 0, 0, 7.0);
        assert_eq!(state_of(&sim, 0, 0), Some(LineState::Modified));
        assert_eq!(state_of(&sim, 1, 0), None, "remote copy invalidated");
        assert!(sim.pes[1].cache.lookup(0).is_none());
        assert_eq!(sim.pes[0].stats.bus_invalidations, 1);
        // A second write to the now-Modified line is bus-silent.
        let txns = sim.pes[0].stats.bus_txns;
        sim.backend_write(0, 0, 0, 8.0);
        assert_eq!(sim.pes[0].stats.bus_txns, txns);
        // Exclusive → Modified is silent too.
        sim.backend_read(1, rid, 8, 0);
        assert_eq!(state_of(&sim, 1, 8), Some(LineState::Exclusive));
        let txns = sim.pes[1].stats.bus_txns;
        sim.backend_write(1, 8, 0, 1.0);
        assert_eq!(state_of(&sim, 1, 8), Some(LineState::Modified));
        assert_eq!(sim.pes[1].stats.bus_txns, txns);
    }

    #[test]
    fn mesi_write_miss_is_busrdx() {
        let p = fixture();
        let mut sim = sim_for(&p, Scheme::Mesi);
        let rid = RefId(0);
        sim.backend_read(1, rid, 0, 0);
        // PE 0 write miss: BusRdX invalidates PE 1 and installs Modified.
        sim.backend_write(0, 0, 0, 3.5);
        assert_eq!(state_of(&sim, 0, 0), Some(LineState::Modified));
        assert_eq!(state_of(&sim, 1, 0), None);
        // The readback sees the new value, version-current (oracle-clean).
        let v = sim.backend_read(0, rid, 0, 0);
        assert_eq!(v, 3.5);
        assert_eq!(sim.oracle.stale_reads, 0);
    }

    #[test]
    fn dragon_updates_remote_copies_in_place() {
        let p = fixture();
        let mut sim = sim_for(&p, Scheme::Dragon);
        let rid = RefId(0);
        sim.backend_read(0, rid, 0, 0);
        assert_eq!(state_of(&sim, 0, 0), Some(LineState::Exclusive));
        sim.backend_read(1, rid, 0, 0);
        assert_eq!(state_of(&sim, 0, 0), Some(LineState::Shared));
        // PE 0 writes: BusUpd patches PE 1's copy instead of killing it.
        sim.backend_write(0, 0, 0, 9.25);
        assert_eq!(state_of(&sim, 0, 0), Some(LineState::SharedModified));
        assert_eq!(state_of(&sim, 1, 0), Some(LineState::Shared));
        assert!(sim.pes[1].cache.lookup(0).is_some(), "copy survives");
        assert_eq!(sim.pes[0].stats.bus_updates, 1);
        // PE 1 reads its patched copy: current value, no stale read.
        let v = sim.backend_read(1, rid, 0, 0);
        assert_eq!(v, 9.25);
        assert_eq!(sim.oracle.stale_reads, 0);
    }

    #[test]
    fn dragon_modified_owner_downgrades_to_shared_modified() {
        let p = fixture();
        let mut sim = sim_for(&p, Scheme::Dragon);
        let rid = RefId(0);
        // PE 0 write miss with no sharers → Modified.
        sim.backend_write(0, 0, 0, 2.0);
        assert_eq!(state_of(&sim, 0, 0), Some(LineState::Modified));
        // PE 1 reads: owner goes SharedModified, reader SharedClean.
        let v = sim.backend_read(1, rid, 0, 0);
        assert_eq!(v, 2.0);
        assert_eq!(state_of(&sim, 0, 0), Some(LineState::SharedModified));
        assert_eq!(state_of(&sim, 1, 0), Some(LineState::Shared));
        // PE 1 now writes: BusUpd; PE 1 becomes the SharedModified owner
        // and PE 0's copy downgrades to SharedClean, patched in place.
        sim.backend_write(1, 0, 0, 4.0);
        assert_eq!(state_of(&sim, 1, 0), Some(LineState::SharedModified));
        assert_eq!(state_of(&sim, 0, 0), Some(LineState::Shared));
        let v = sim.backend_read(0, rid, 0, 0);
        assert_eq!(v, 4.0);
        assert_eq!(sim.oracle.stale_reads, 0);
    }

    #[test]
    fn dragon_exclusive_write_is_silent() {
        let p = fixture();
        let mut sim = sim_for(&p, Scheme::Dragon);
        let rid = RefId(0);
        sim.backend_read(0, rid, 0, 0);
        let txns = sim.pes[0].stats.bus_txns;
        sim.backend_write(0, 0, 0, 1.0);
        assert_eq!(state_of(&sim, 0, 0), Some(LineState::Modified));
        assert_eq!(sim.pes[0].stats.bus_txns, txns, "E→M write is bus-silent");
        assert_eq!(sim.pes[0].stats.bus_updates, 0);
    }

    /// A program whose shared array spans two addresses mapping to one
    /// direct-mapped slot: line count 256, line words 4 → stride 1024 words.
    fn conflict_fixture() -> Program {
        let mut pb = ProgramBuilder::new("big");
        let a = pb.shared("A", &[4096]);
        pb.serial_epoch("touch", |e| {
            e.assign(a.at1(0), a.at1(0).rd() + 0.0);
        });
        pb.finish().unwrap()
    }

    #[test]
    fn mesi_state_leaves_with_the_evicted_line() {
        let p = conflict_fixture();
        let mut sim = sim_for(&p, Scheme::Mesi);
        let rid = RefId(0);
        sim.backend_read(0, rid, 0, 0);
        assert_eq!(state_of(&sim, 0, 0), Some(LineState::Exclusive));
        // Address 1024 conflicts with address 0 (same slot, different tag).
        sim.backend_read(0, rid, 1024, 0);
        assert!(sim.pes[0].cache.lookup(0).is_none(), "conflict evicted");
        assert_eq!(state_of(&sim, 0, 0), None, "state left with the line");
        assert_eq!(state_of(&sim, 0, 1024), Some(LineState::Exclusive));
    }

    #[test]
    fn dragon_state_leaves_with_the_evicted_line() {
        let p = conflict_fixture();
        let mut sim = sim_for(&p, Scheme::Dragon);
        let rid = RefId(0);
        // PE 0 owns address 0 Modified; PE 1 shares it.
        sim.backend_write(0, 0, 0, 5.0);
        assert_eq!(state_of(&sim, 0, 0), Some(LineState::Modified));
        sim.backend_read(1, rid, 0, 0);
        assert_eq!(state_of(&sim, 0, 0), Some(LineState::SharedModified));
        // A conflicting read miss on PE 0 evicts its SharedModified line.
        sim.backend_read(0, rid, 1024, 0);
        assert_eq!(state_of(&sim, 0, 0), None, "state left with the line");
        assert_eq!(state_of(&sim, 0, 1024), Some(LineState::Exclusive));
        // PE 1's write now finds no other holder: no update, Modified.
        sim.backend_write(1, 0, 0, 6.0);
        assert_eq!(state_of(&sim, 1, 0), Some(LineState::Modified));
        assert_eq!(sim.pes[1].stats.bus_updates, 0);
        // Refilling PE 0 reads the current value: oracle-clean.
        assert_eq!(sim.backend_read(0, rid, 0, 0), 6.0);
        assert_eq!(sim.oracle.stale_reads, 0);
    }

    #[test]
    fn bus_queue_stalls_when_full() {
        let p = fixture();
        let mut sim = sim_for(&p, Scheme::Mesi);
        // Tiny queue: every second transaction must wait for a drain.
        sim.cfg.bus_queue = 1;
        sim.bus_transaction(0);
        let wait0 = sim.pes[0].stats.breakdown.get(CycleCategory::BusWait);
        sim.bus_transaction(0);
        let wait1 = sim.pes[0].stats.breakdown.get(CycleCategory::BusWait);
        // Second transaction paid the contention wait AND a queue stall.
        // Mean-residual arbitration with P=2: txn * (P - 1) / 2.
        let contention = sim.cfg.bus_txn / 2;
        assert!(
            wait1 - wait0 > contention,
            "expected a queue stall on top of contention: {} vs {}",
            wait1 - wait0,
            contention
        );
        // Every charge is attributed: breakdown total equals the clock.
        assert_eq!(sim.pes[0].stats.breakdown.total(), sim.pes[0].now);
    }

    /// Residency reference model for the presence vector: drive MESI and
    /// Dragon with seeded random reads and writes over lines that collide
    /// in the direct-mapped cache, and after every operation check that
    /// each PE's presence bit for each touched line equals "that PE's cache
    /// holds the line". Conflict victims and MESI invalidations are the two
    /// ways a line leaves a cache, so both clears are exercised.
    #[test]
    fn presence_vector_matches_cache_residency() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let p = conflict_fixture();
        // Line addresses 0/256/512/768 share slot 0 and 1/257/513 slot 1
        // (256 lines of 4 words).
        let lines = [0usize, 256, 512, 768, 1, 257, 513];
        for n in [2usize, 7, 64] {
            for scheme in [Scheme::Mesi, Scheme::Dragon] {
                let name = scheme.name();
                let layout = Layout::new(&p, n);
                let cfg = MachineConfig::t3d(n);
                let lw = cfg.line_words;
                let mut sim = Simulator::new(&p, layout, cfg, scheme, SimOptions::default());
                let mut rng = StdRng::seed_from_u64(n as u64);
                for step in 0..3000 {
                    let pe = rng.gen_range(0..n);
                    let addr = lines[rng.gen_range(0..lines.len())] * lw + rng.gen_range(0..lw);
                    if rng.gen_bool(0.4) {
                        sim.backend_write(pe, addr, 0, step as f64);
                    } else {
                        sim.backend_read(pe, RefId(0), addr, 0);
                    }
                    for &la in &lines {
                        for q in 0..n {
                            assert_eq!(
                                sim.bus.present(la, q),
                                sim.pes[q].cache.lookup(la * lw).is_some(),
                                "{name} P={n} step {step}: PE {q} line {la}"
                            );
                        }
                    }
                }
                assert_eq!(sim.oracle.stale_reads, 0, "{name} P={n}");
            }
        }
    }
}
