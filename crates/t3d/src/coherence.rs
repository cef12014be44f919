//! Coherence backends: the seam between the interpreter and "what happens
//! on a shared read/write".
//!
//! Every scheme the simulator executes is a [`CoherenceBackend`]: the
//! interpreter's tree walker routes **all** shared-data reads and writes
//! through the trait, so one dispatch point decides state lookup, remote
//! traffic, cycle charges, and stats. The software schemes (SEQ / BASE /
//! CCDP / INV) are *static* backends — their per-reference decisions are
//! fixed by the scheme and the prefetch plan, which is why the compiled
//! trace can specialize them into [`crate::compiled::AccessKind`] at
//! compile time (the `compiled_equivalence` property test pins the two
//! paths together). The hardware schemes (MESI / Dragon) are *dynamic*
//! backends: they run a line-state machine over the state each cache line
//! carries ([`LineState`]) plus a snooping-bus model, and both execution
//! paths dispatch them through the trait
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
//! trait's charge points.
//!
//! Snoop side effects (invalidations, updates) are applied eagerly at the
//! writer's transaction. PEs execute sequentially within a phase, so this
//! is the same "writes land in simulation order" convention every software
//! scheme already uses; programs free of same-phase cross-PE races (what
//! `ccdp-lint`'s phase-race detection verifies) observe identical values
//! either way, and all effects have landed by the barrier.

use ccdp_ir::RefId;

use crate::cache::LineState;
use crate::interp::Simulator;
use crate::metrics::{CycleCategory, TraceEventKind};
use crate::Scheme;

/// What happens on a shared-data access under one execution scheme.
///
/// Methods take the [`Simulator`] explicitly (the backend is moved out of
/// the simulator for the duration of a call), so a backend composes the
/// simulator's charge/trace/oracle primitives instead of duplicating them.
pub trait CoherenceBackend {
    /// Scheme name this backend implements ("MESI", "CCDP", ...).
    fn name(&self) -> &'static str;

    /// Execute one shared read: return the value the program observes,
    /// charging all cycles and feeding the oracle. `craft` is the array's
    /// CRAFT local-access overhead (consulted only by the BASE backend).
    fn read_shared(
        &mut self,
        sim: &mut Simulator,
        pe: usize,
        rid: RefId,
        addr: usize,
        craft: u64,
    ) -> f64;

    /// Execute one shared write of `value`. `craft_local` is the array's
    /// CRAFT local-access overhead (BASE backend only).
    fn write_shared(
        &mut self,
        sim: &mut Simulator,
        pe: usize,
        addr: usize,
        craft_local: u64,
        value: f64,
    );

    /// Does this backend execute explicit prefetch statements and pipelined
    /// prefetches? Only the plan-directed CCDP backend does; hardware
    /// backends resolve coherence dynamically and need no plan.
    fn executes_prefetches(&self) -> bool {
        false
    }
}

/// Build the backend for a scheme. `n_pes` sizes the hardware backends'
/// per-PE state.
pub(crate) fn backend_for(scheme: &Scheme, n_pes: usize) -> Box<dyn CoherenceBackend> {
    match scheme {
        Scheme::Sequential => Box::new(SeqBackend),
        Scheme::Base => Box::new(BaseBackend),
        Scheme::Ccdp { .. } => Box::new(CcdpBackend),
        Scheme::InvalidateOnly { .. } => Box::new(InvalidateOnlyBackend),
        Scheme::Mesi => Box::new(Mesi::new(n_pes)),
        Scheme::Dragon => Box::new(Dragon::new(n_pes)),
    }
}

// -- software backends ----------------------------------------------------
//
// Stateless: the scheme (and its plan) lives in the simulator, and the
// access primitives (`cached_read` / `base_read` / `bypass_read` /
// `write_shared_addr`) already implement the semantics. These impls are
// what the compiled trace specializes into `AccessKind`s.

/// Uniprocessor reference scheme: everything cached, `Normal` handling.
struct SeqBackend;

impl CoherenceBackend for SeqBackend {
    fn name(&self) -> &'static str {
        "SEQ"
    }

    fn read_shared(
        &mut self,
        sim: &mut Simulator,
        pe: usize,
        rid: RefId,
        addr: usize,
        _craft: u64,
    ) -> f64 {
        sim.cached_read(pe, rid, addr, ccdp_prefetch::Handling::Normal)
    }

    fn write_shared(
        &mut self,
        sim: &mut Simulator,
        pe: usize,
        addr: usize,
        craft_local: u64,
        value: f64,
    ) {
        sim.write_shared_addr(pe, addr, craft_local, value);
    }
}

/// CRAFT BASE scheme: local shared data cached plus index arithmetic,
/// remote shared data uncached.
struct BaseBackend;

impl CoherenceBackend for BaseBackend {
    fn name(&self) -> &'static str {
        "BASE"
    }

    fn read_shared(
        &mut self,
        sim: &mut Simulator,
        pe: usize,
        rid: RefId,
        addr: usize,
        craft: u64,
    ) -> f64 {
        sim.base_read(pe, rid, addr, craft)
    }

    fn write_shared(
        &mut self,
        sim: &mut Simulator,
        pe: usize,
        addr: usize,
        craft_local: u64,
        value: f64,
    ) {
        sim.write_shared_addr(pe, addr, craft_local, value);
    }
}

/// Plan-directed CCDP scheme: reads follow the plan's handling, prefetch
/// statements execute.
struct CcdpBackend;

impl CoherenceBackend for CcdpBackend {
    fn name(&self) -> &'static str {
        "CCDP"
    }

    fn read_shared(
        &mut self,
        sim: &mut Simulator,
        pe: usize,
        rid: RefId,
        addr: usize,
        _craft: u64,
    ) -> f64 {
        match sim.handling_of(rid) {
            ccdp_prefetch::Handling::Bypass => sim.bypass_read(pe, addr),
            h => sim.cached_read(pe, rid, addr, h),
        }
    }

    fn write_shared(
        &mut self,
        sim: &mut Simulator,
        pe: usize,
        addr: usize,
        craft_local: u64,
        value: f64,
    ) {
        sim.write_shared_addr(pe, addr, craft_local, value);
    }

    fn executes_prefetches(&self) -> bool {
        true
    }
}

/// Invalidate-only software baseline: same plan-directed engine as CCDP
/// (its plan bypasses every potentially-stale read), but no prefetches.
struct InvalidateOnlyBackend;

impl CoherenceBackend for InvalidateOnlyBackend {
    fn name(&self) -> &'static str {
        "INV"
    }

    fn read_shared(
        &mut self,
        sim: &mut Simulator,
        pe: usize,
        rid: RefId,
        addr: usize,
        _craft: u64,
    ) -> f64 {
        match sim.handling_of(rid) {
            ccdp_prefetch::Handling::Bypass => sim.bypass_read(pe, addr),
            h => sim.cached_read(pe, rid, addr, h),
        }
    }

    fn write_shared(
        &mut self,
        sim: &mut Simulator,
        pe: usize,
        addr: usize,
        craft_local: u64,
        value: f64,
    ) {
        sim.write_shared_addr(pe, addr, craft_local, value);
    }
}

// -- snooping bus ----------------------------------------------------------

/// The shared snooping bus: contention charges plus a per-PE bounded queue
/// of outstanding snoop messages (the delayed-message queue).
struct Bus {
    /// Per-PE outstanding messages: cycle at which each drains. Pruned
    /// lazily against the PE clock, like `Pe::inflight`.
    delayed_q: Vec<Vec<u64>>,
}

impl Bus {
    fn new(n_pes: usize) -> Bus {
        Bus { delayed_q: vec![Vec::new(); n_pes] }
    }

    /// Charge one bus transaction issued by `pe`: arbitration wait (mean
    /// residual occupancy of the other `P - 1` requesters), own occupancy,
    /// and a delayed-queue stall when too many of this PE's snoop messages
    /// are still outstanding. Returns after the PE clock has advanced past
    /// the transaction.
    fn transaction(&mut self, sim: &mut Simulator, pe: usize) {
        let txn = sim.cfg.bus_txn;
        let p = sim.cfg.n_pes as u64;
        // Delayed-message queue: block until the oldest outstanding snoop
        // drains if the queue is at capacity. Fault-plan queue storms
        // shrink the capacity through the same hook as the prefetch queue.
        let mut cap = sim.cfg.bus_queue;
        if let Some(f) = sim.faults.as_mut() {
            let (c, began) = f.effective_queue(pe, cap);
            cap = c;
            if began {
                sim.pes[pe].stats.faults.queue_storms += 1;
            }
        }
        let now = sim.pes[pe].now;
        let q = &mut self.delayed_q[pe];
        q.retain(|&drain| drain > now);
        if q.len() >= cap.max(1) {
            // A storm (cap 0) still admits one message once the queue is
            // empty — the bus degrades, it does not deadlock.
            let oldest = *q.iter().min().expect("non-empty queue");
            let stall = oldest - now;
            sim.charge(pe, CycleCategory::BusWait, stall);
            sim.pes[pe].stats.mem_stall_cycles += stall;
            let now = sim.pes[pe].now;
            self.delayed_q[pe].retain(|&drain| drain > now);
        }
        sim.charge(pe, CycleCategory::BusWait, txn * (p - 1) / 2);
        sim.charge(pe, CycleCategory::BusTxn, txn);
        sim.pes[pe].stats.bus_txns += 1;
        // The snoop traffic stays outstanding while every other cache
        // processes it; the PE itself does not block on that.
        let drain = sim.pes[pe].now + txn * (p - 1);
        self.delayed_q[pe].push(drain);
    }
}

// -- MESI ------------------------------------------------------------------

/// Snooping MESI (invalidate-based) hardware coherence.
///
/// Line states live in each cache line ([`LineState`]; Invalid is "not
/// resident"). Transactions: read miss → `BusRd` (install Shared if any
/// other cache holds the line, else Exclusive; remote Modified/Exclusive
/// copies downgrade to Shared); write to a Shared line → `BusUpgr`
/// (invalidate every remote copy, go Modified); write miss → `BusRdX`
/// (invalidate, fill, go Modified); write to Exclusive → Modified silently.
pub(crate) struct Mesi {
    bus: Bus,
}

impl Mesi {
    pub(crate) fn new(n_pes: usize) -> Mesi {
        Mesi { bus: Bus::new(n_pes) }
    }

    /// Invalidate every remote copy of `addr`'s line (BusUpgr / BusRdX
    /// snoop effect). Returns how many copies were killed.
    fn invalidate_others(sim: &mut Simulator, pe: usize, addr: usize) -> u64 {
        let mut n = 0;
        for other in 0..sim.cfg.n_pes {
            if other != pe && sim.pes[other].cache.lookup(addr).is_some() {
                sim.pes[other].cache.invalidate(addr);
                n += 1;
            }
        }
        if n > 0 {
            sim.pes[pe].stats.bus_invalidations += n;
            sim.trace_event(pe, TraceEventKind::BusInvalidate, addr);
        }
        n
    }

    /// Snoop a BusRd: downgrade every remote Modified/Exclusive copy to
    /// Shared. Returns whether any other cache holds the line.
    fn snoop_read(sim: &mut Simulator, pe: usize, addr: usize) -> bool {
        let mut shared = false;
        for other in 0..sim.cfg.n_pes {
            if other == pe {
                continue;
            }
            if let Some(h) = sim.pes[other].cache.lookup(addr) {
                shared = true;
                sim.pes[other].cache.set_state(h.line, LineState::Shared);
            }
        }
        shared
    }
}

impl CoherenceBackend for Mesi {
    fn name(&self) -> &'static str {
        "MESI"
    }

    fn read_shared(
        &mut self,
        sim: &mut Simulator,
        pe: usize,
        rid: RefId,
        addr: usize,
        _craft: u64,
    ) -> f64 {
        if let Some(hit) = sim.pes[pe].cache.lookup(addr) {
            return sim.hw_cached_hit(pe, rid, addr, hit);
        }
        // Read miss: BusRd.
        self.bus.transaction(sim, pe);
        let shared = Self::snoop_read(sim, pe, addr);
        let line = sim.demand_fill(pe, addr);
        let st = if shared { LineState::Shared } else { LineState::Exclusive };
        sim.pes[pe].cache.set_state(line, st);
        sim.mem.read_shared(addr).0
    }

    fn write_shared(
        &mut self,
        sim: &mut Simulator,
        pe: usize,
        addr: usize,
        _craft_local: u64,
        value: f64,
    ) {
        let line = match sim.pes[pe].cache.lookup(addr).map(|h| (h.line, h.state)) {
            // Exclusive → Modified is a silent upgrade: no bus traffic.
            Some((line, LineState::Modified | LineState::Exclusive)) => line,
            Some((line, _)) => {
                // BusUpgr: kill every remote copy, then own the line.
                self.bus.transaction(sim, pe);
                Self::invalidate_others(sim, pe, addr);
                line
            }
            None => {
                // Write miss: BusRdX (read-for-ownership).
                self.bus.transaction(sim, pe);
                Self::invalidate_others(sim, pe, addr);
                sim.demand_fill(pe, addr)
            }
        };
        sim.pes[pe].cache.set_state(line, LineState::Modified);
        sim.hw_store(pe, addr, value);
    }
}

// -- Dragon ----------------------------------------------------------------

/// Dragon (update-based) hardware coherence.
///
/// Line states live in each cache line ([`LineState`]: Exclusive, Shared
/// clean, SharedModified, Modified; not resident = not cached — writes
/// update remote copies instead of killing them). Read miss → `BusRd`
/// (Exclusive if nobody else holds the line, else Shared; a remote
/// Modified owner downgrades to SharedModified). Write to a shared line →
/// `BusUpd`: every remote copy is patched in place (and downgraded to
/// Shared); the writer becomes SharedModified — or Modified when the snoop
/// finds no sharers left. Write to Exclusive/Modified is bus-silent.
pub(crate) struct Dragon {
    bus: Bus,
}

impl Dragon {
    pub(crate) fn new(n_pes: usize) -> Dragon {
        Dragon { bus: Bus::new(n_pes) }
    }

    /// Does any PE other than `pe` hold `addr`'s line?
    fn others_hold(sim: &Simulator, pe: usize, addr: usize) -> bool {
        (0..sim.cfg.n_pes).any(|other| other != pe && sim.pes[other].cache.lookup(addr).is_some())
    }

    /// BusUpd: patch every other holder's copy of `addr` with the freshly
    /// written word and settle the writer's state (SharedModified while
    /// sharers remain, Modified otherwise). The write itself (memory + own
    /// cache) has already happened via `hw_store`.
    fn bus_update(
        sim: &mut Simulator,
        pe: usize,
        line: usize,
        addr: usize,
        value: f64,
        version: u32,
    ) {
        let mut n = 0;
        for other in 0..sim.cfg.n_pes {
            if other == pe {
                continue;
            }
            let cache = &mut sim.pes[other].cache;
            if let Some(h) = cache.lookup(addr) {
                cache.update_word(addr, value, version);
                cache.set_state(h.line, LineState::Shared);
                n += 1;
            }
        }
        sim.pes[pe].stats.bus_updates += n;
        sim.trace_event(pe, TraceEventKind::BusUpdate, addr);
        let st = if n == 0 { LineState::Modified } else { LineState::SharedModified };
        sim.pes[pe].cache.set_state(line, st);
    }
}

impl CoherenceBackend for Dragon {
    fn name(&self) -> &'static str {
        "DRAGON"
    }

    fn read_shared(
        &mut self,
        sim: &mut Simulator,
        pe: usize,
        rid: RefId,
        addr: usize,
        _craft: u64,
    ) -> f64 {
        if let Some(hit) = sim.pes[pe].cache.lookup(addr) {
            return sim.hw_cached_hit(pe, rid, addr, hit);
        }
        // Read miss: BusRd. Remote exclusive holders downgrade to shared
        // (a Modified owner keeps write responsibility as SharedModified).
        self.bus.transaction(sim, pe);
        let mut shared = false;
        for other in 0..sim.cfg.n_pes {
            if other == pe {
                continue;
            }
            let cache = &mut sim.pes[other].cache;
            if let Some(h) = cache.lookup(addr) {
                shared = true;
                let st = match h.state {
                    LineState::Modified => LineState::SharedModified,
                    LineState::Exclusive => LineState::Shared,
                    s => s,
                };
                cache.set_state(h.line, st);
            }
        }
        let line = sim.demand_fill(pe, addr);
        let st = if shared { LineState::Shared } else { LineState::Exclusive };
        sim.pes[pe].cache.set_state(line, st);
        sim.mem.read_shared(addr).0
    }

    fn write_shared(
        &mut self,
        sim: &mut Simulator,
        pe: usize,
        addr: usize,
        _craft_local: u64,
        value: f64,
    ) {
        match sim.pes[pe].cache.lookup(addr).map(|h| (h.line, h.state)) {
            Some((_, LineState::Modified)) => {
                sim.hw_store(pe, addr, value);
            }
            Some((line, LineState::Exclusive)) => {
                sim.pes[pe].cache.set_state(line, LineState::Modified);
                sim.hw_store(pe, addr, value);
            }
            Some((line, _)) => {
                // BusUpd (the snoop also reveals whether sharers remain).
                self.bus.transaction(sim, pe);
                let ver = sim.hw_store(pe, addr, value);
                Self::bus_update(sim, pe, line, addr, value, ver);
            }
            None => {
                // Write miss: fill first (BusRd), then update sharers if
                // the snoop found any.
                self.bus.transaction(sim, pe);
                let shared = Self::others_hold(sim, pe, addr);
                let line = sim.demand_fill(pe, addr);
                if shared {
                    self.bus.transaction(sim, pe);
                    let ver = sim.hw_store(pe, addr, value);
                    Self::bus_update(sim, pe, line, addr, value, ver);
                } else {
                    sim.pes[pe].cache.set_state(line, LineState::Modified);
                    sim.hw_store(pe, addr, value);
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
        let mut m = Mesi::new(2);
        let rid = RefId(0);
        // PE 0 read miss: nobody else caches the line → Exclusive.
        m.read_shared(&mut sim, 0, rid, 0, 0);
        assert_eq!(state_of(&sim, 0, 0), Some(LineState::Exclusive));
        // PE 1 reads the same line: both go Shared.
        m.read_shared(&mut sim, 1, rid, 0, 0);
        assert_eq!(state_of(&sim, 0, 0), Some(LineState::Shared));
        assert_eq!(state_of(&sim, 1, 0), Some(LineState::Shared));
        assert_eq!(sim.pes[0].stats.bus_txns + sim.pes[1].stats.bus_txns, 2);
    }

    #[test]
    fn mesi_write_upgrades_and_invalidates() {
        let p = fixture();
        let mut sim = sim_for(&p, Scheme::Mesi);
        let mut m = Mesi::new(2);
        let rid = RefId(0);
        m.read_shared(&mut sim, 0, rid, 0, 0);
        m.read_shared(&mut sim, 1, rid, 0, 0);
        // PE 0 writes a Shared line: BusUpgr kills PE 1's copy.
        m.write_shared(&mut sim, 0, 0, 0, 7.0);
        assert_eq!(state_of(&sim, 0, 0), Some(LineState::Modified));
        assert_eq!(state_of(&sim, 1, 0), None, "remote copy invalidated");
        assert!(sim.pes[1].cache.lookup(0).is_none());
        assert_eq!(sim.pes[0].stats.bus_invalidations, 1);
        // A second write to the now-Modified line is bus-silent.
        let txns = sim.pes[0].stats.bus_txns;
        m.write_shared(&mut sim, 0, 0, 0, 8.0);
        assert_eq!(sim.pes[0].stats.bus_txns, txns);
        // Exclusive → Modified is silent too.
        m.read_shared(&mut sim, 1, rid, 8, 0);
        assert_eq!(state_of(&sim, 1, 8), Some(LineState::Exclusive));
        let txns = sim.pes[1].stats.bus_txns;
        m.write_shared(&mut sim, 1, 8, 0, 1.0);
        assert_eq!(state_of(&sim, 1, 8), Some(LineState::Modified));
        assert_eq!(sim.pes[1].stats.bus_txns, txns);
    }

    #[test]
    fn mesi_write_miss_is_busrdx() {
        let p = fixture();
        let mut sim = sim_for(&p, Scheme::Mesi);
        let mut m = Mesi::new(2);
        let rid = RefId(0);
        m.read_shared(&mut sim, 1, rid, 0, 0);
        // PE 0 write miss: BusRdX invalidates PE 1 and installs Modified.
        m.write_shared(&mut sim, 0, 0, 0, 3.5);
        assert_eq!(state_of(&sim, 0, 0), Some(LineState::Modified));
        assert_eq!(state_of(&sim, 1, 0), None);
        // The readback sees the new value, version-current (oracle-clean).
        let v = m.read_shared(&mut sim, 0, rid, 0, 0);
        assert_eq!(v, 3.5);
        assert_eq!(sim.oracle.stale_reads, 0);
    }

    #[test]
    fn dragon_updates_remote_copies_in_place() {
        let p = fixture();
        let mut sim = sim_for(&p, Scheme::Dragon);
        let mut d = Dragon::new(2);
        let rid = RefId(0);
        d.read_shared(&mut sim, 0, rid, 0, 0);
        assert_eq!(state_of(&sim, 0, 0), Some(LineState::Exclusive));
        d.read_shared(&mut sim, 1, rid, 0, 0);
        assert_eq!(state_of(&sim, 0, 0), Some(LineState::Shared));
        // PE 0 writes: BusUpd patches PE 1's copy instead of killing it.
        d.write_shared(&mut sim, 0, 0, 0, 9.25);
        assert_eq!(state_of(&sim, 0, 0), Some(LineState::SharedModified));
        assert_eq!(state_of(&sim, 1, 0), Some(LineState::Shared));
        assert!(sim.pes[1].cache.lookup(0).is_some(), "copy survives");
        assert_eq!(sim.pes[0].stats.bus_updates, 1);
        // PE 1 reads its patched copy: current value, no stale read.
        let v = d.read_shared(&mut sim, 1, rid, 0, 0);
        assert_eq!(v, 9.25);
        assert_eq!(sim.oracle.stale_reads, 0);
    }

    #[test]
    fn dragon_modified_owner_downgrades_to_shared_modified() {
        let p = fixture();
        let mut sim = sim_for(&p, Scheme::Dragon);
        let mut d = Dragon::new(2);
        let rid = RefId(0);
        // PE 0 write miss with no sharers → Modified.
        d.write_shared(&mut sim, 0, 0, 0, 2.0);
        assert_eq!(state_of(&sim, 0, 0), Some(LineState::Modified));
        // PE 1 reads: owner goes SharedModified, reader SharedClean.
        let v = d.read_shared(&mut sim, 1, rid, 0, 0);
        assert_eq!(v, 2.0);
        assert_eq!(state_of(&sim, 0, 0), Some(LineState::SharedModified));
        assert_eq!(state_of(&sim, 1, 0), Some(LineState::Shared));
        // PE 1 now writes: BusUpd; PE 1 becomes the SharedModified owner
        // and PE 0's copy downgrades to SharedClean, patched in place.
        d.write_shared(&mut sim, 1, 0, 0, 4.0);
        assert_eq!(state_of(&sim, 1, 0), Some(LineState::SharedModified));
        assert_eq!(state_of(&sim, 0, 0), Some(LineState::Shared));
        let v = d.read_shared(&mut sim, 0, rid, 0, 0);
        assert_eq!(v, 4.0);
        assert_eq!(sim.oracle.stale_reads, 0);
    }

    #[test]
    fn dragon_exclusive_write_is_silent() {
        let p = fixture();
        let mut sim = sim_for(&p, Scheme::Dragon);
        let mut d = Dragon::new(2);
        let rid = RefId(0);
        d.read_shared(&mut sim, 0, rid, 0, 0);
        let txns = sim.pes[0].stats.bus_txns;
        d.write_shared(&mut sim, 0, 0, 0, 1.0);
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
        let mut m = Mesi::new(2);
        let rid = RefId(0);
        m.read_shared(&mut sim, 0, rid, 0, 0);
        assert_eq!(state_of(&sim, 0, 0), Some(LineState::Exclusive));
        // Address 1024 conflicts with address 0 (same slot, different tag).
        m.read_shared(&mut sim, 0, rid, 1024, 0);
        assert!(sim.pes[0].cache.lookup(0).is_none(), "conflict evicted");
        assert_eq!(state_of(&sim, 0, 0), None, "state left with the line");
        assert_eq!(state_of(&sim, 0, 1024), Some(LineState::Exclusive));
    }

    #[test]
    fn dragon_state_leaves_with_the_evicted_line() {
        let p = conflict_fixture();
        let mut sim = sim_for(&p, Scheme::Dragon);
        let mut d = Dragon::new(2);
        let rid = RefId(0);
        // PE 0 owns address 0 Modified; PE 1 shares it.
        d.write_shared(&mut sim, 0, 0, 0, 5.0);
        assert_eq!(state_of(&sim, 0, 0), Some(LineState::Modified));
        d.read_shared(&mut sim, 1, rid, 0, 0);
        assert_eq!(state_of(&sim, 0, 0), Some(LineState::SharedModified));
        // A conflicting read miss on PE 0 evicts its SharedModified line.
        d.read_shared(&mut sim, 0, rid, 1024, 0);
        assert_eq!(state_of(&sim, 0, 0), None, "state left with the line");
        assert_eq!(state_of(&sim, 0, 1024), Some(LineState::Exclusive));
        // PE 1's write now finds no other holder: no update, Modified.
        d.write_shared(&mut sim, 1, 0, 0, 6.0);
        assert_eq!(state_of(&sim, 1, 0), Some(LineState::Modified));
        assert_eq!(sim.pes[1].stats.bus_updates, 0);
        // Refilling PE 0 reads the current value: oracle-clean.
        assert_eq!(d.read_shared(&mut sim, 0, rid, 0, 0), 6.0);
        assert_eq!(sim.oracle.stale_reads, 0);
    }

    #[test]
    fn bus_queue_stalls_when_full() {
        let p = fixture();
        let mut sim = sim_for(&p, Scheme::Mesi);
        // Tiny queue: every second transaction must wait for a drain.
        sim.cfg.bus_queue = 1;
        let mut bus = Bus::new(2);
        bus.transaction(&mut sim, 0);
        let wait0 = sim.pes[0].stats.breakdown.get(CycleCategory::BusWait);
        bus.transaction(&mut sim, 0);
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
}
