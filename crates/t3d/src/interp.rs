//! The program interpreter: executes IR programs on the modelled machine,
//! accumulating per-PE cycle counts and feeding the coherence oracle.

use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use ccdp_dist::{chunks, doall_range_for_pe, Layout};
use ccdp_ir::{
    cond_core, Affine, ArrayId, ArrayRef, Assign, CmpOp, Cond, Epoch, EpochKind, Loop, LoopId,
    LoopKind, PrefetchKind, PrefetchStmt, Program, ProgramItem, RefId, Stmt, VarEnv,
};
use ccdp_prefetch::Handling;

use crate::cache::Hit;
use crate::coherence::{backend_for, CoherenceBackend};
use crate::compiled::{
    compile_loop, AccessKind, CAssign, CompileCtx, CompiledBody, CRead, CStmt, SlotSpec,
    SlotState,
};
use crate::config::{MachineConfig, Scheme, SimAbort, SimOptions};
use crate::faults::FaultEngine;
use crate::mem::Memory;
use crate::metrics::{CycleCategory, EpochCycles, EventTrace, MemEvent, TraceEventKind};
use crate::pe::Pe;
use crate::result::{OracleReport, ShardStats, SimResult, StaleReadExample};

/// Loaded-read values of one compiled statement live in a stack buffer of
/// this many slots; statements with more reads (validator-legal but unseen
/// in practice) fall back to the PE's scratch vector.
const READ_BUF: usize = 12;

/// Snapshot of one loop header, for vector-prefetch section evaluation.
#[derive(Clone, Debug)]
struct LoopHeader {
    var: ccdp_ir::VarId,
    lo: Affine,
    hi: Affine,
    step: i64,
    kind: LoopKind,
    align: Option<ArrayId>,
}

/// Executes one program under one scheme on one machine configuration.
pub struct Simulator<'p> {
    program: &'p Program,
    layout: Layout,
    pub(crate) cfg: MachineConfig,
    scheme: Scheme,
    opts: SimOptions,
    pub(crate) mem: Memory,
    pub(crate) pes: Vec<Pe>,
    env: VarEnv,
    phase: u32,
    pub(crate) oracle: OracleReport,
    extrapolated: bool,
    loop_headers: HashMap<LoopId, LoopHeader>,
    /// Subscripts of every read reference (vector prefetches name targets by
    /// `RefId`).
    ref_index: HashMap<RefId, (ArrayId, Vec<Affine>)>,
    /// FLOP cost per assignment, keyed by the write reference id.
    flops: HashMap<RefId, u32>,
    /// BASE-scheme CRAFT local-access overhead per array (depends on the
    /// array's distribution kind).
    craft_cost: Vec<u64>,
    coords: Vec<i64>,
    /// Per-epoch cycle accounting, in first-execution order.
    epochs: Vec<EpochCycles>,
    /// Epoch id → index into `epochs`.
    epoch_slots: HashMap<u32, usize>,
    /// Slot all cycle charges currently accumulate into.
    cur_epoch: Option<usize>,
    /// Pseudo-slot for Repeat extrapolation cycles.
    extrap_slot: Option<usize>,
    trace: EventTrace,
    /// Fault injectors (`None` when the plan injects nothing, which keeps
    /// fault-free runs byte-identical to a build without the subsystem).
    pub(crate) faults: Option<FaultEngine>,
    /// The coherence backend executing this scheme's shared accesses. Moved
    /// out (`Option::take`) for the duration of each dispatched access so
    /// the backend can borrow the simulator mutably; always `Some` between
    /// accesses.
    backend: Option<Box<dyn CoherenceBackend>>,
    /// Source epoch currently executing (targeted fault injection).
    cur_epoch_id: Option<u32>,
    /// Compiled loop bodies, keyed by loop id (the scheme — the other half
    /// of the cache key — is fixed per simulator). Reused across epochs,
    /// `Repeat` iterations, and PEs.
    compiled: HashMap<LoopId, Rc<CompiledBody<'p>>>,
    /// Pool of slot-state frames, recycled across loop entries so steady
    /// state allocates nothing.
    frames: Vec<Vec<SlotState>>,
    /// Run loops through the reference tree walker instead of the compiled
    /// trace (`SimOptions::force_treewalk`).
    treewalk: bool,
    /// Interpreter steps executed (loop iterations across all PEs and both
    /// execution paths). Drives `SimOptions::step_budget` and paces the
    /// wall-clock deadline check.
    steps: u64,
    /// Set once a budget or deadline trips; every execution loop checks it
    /// and unwinds, so the abort reaches `try_run` in O(program size).
    abort: Option<SimAbort>,
    /// Any budget or deadline configured (precomputed so the fault-free,
    /// budget-free hot path pays one predictable branch per iteration).
    budgeted: bool,
    /// Shared-memory write log, present only inside epoch-shard workers:
    /// the word addresses this PE block wrote, consumed by the merge's
    /// final-state copy and the deferred owner-cache patches at the
    /// barrier. `None` (always, outside workers) keeps the serial path at
    /// one predictable branch per shared write.
    shard: Option<ShardLog>,
    /// Cached static shard-independence verdicts (`analysis::shard`), one
    /// per DOALL loop id: `true` = proven `Disjoint` at one-PE-per-block
    /// granularity, hence for every contiguous coarser partition.
    shard_verdicts: HashMap<LoopId, bool>,
    /// Epoch-sharding accounting, returned on `SimResult::shard`.
    shard_stats: ShardStats,
    /// Line recorder armed by [`Simulator::run_shard_audit`] (test builds
    /// only).
    #[cfg(feature = "shard-audit")]
    audit: Option<audit::Recorder>,
}

/// Per-block write log for the epoch-sharded parallel path: exact word
/// addresses, so the merge can copy each written word's final (value,
/// version) pair and patch out-of-block owner caches.
struct ShardLog {
    lo_pe: usize,
    hi_pe: usize,
    written_addrs: HashSet<usize>,
}

impl ShardLog {
    #[inline]
    fn contains(&self, pe: usize) -> bool {
        (self.lo_pe..self.hi_pe).contains(&pe)
    }
}

/// Everything a shard worker needs to assemble a block-local `Simulator`
/// inside its own thread. `Simulator` itself is not `Send` (its compiled
/// cache holds `Rc`s and the backend box is unconstrained), so the fork
/// ships this plain-data seed across and the worker builds the simulator
/// in place; [`BlockOut`] carries the results back the same way.
struct BlockSeed<'p> {
    program: &'p Program,
    l: &'p Loop,
    lo: i64,
    hi: i64,
    per_iter: u64,
    layout: Layout,
    cfg: MachineConfig,
    scheme: Scheme,
    opts: SimOptions,
    mem: Memory,
    /// Full-length PE vector: clones of the block's PEs, cheap
    /// placeholders elsewhere (never executed; see [`Pe::placeholder`]).
    pes: Vec<Pe>,
    env: VarEnv,
    phase: u32,
    faults: Option<FaultEngine>,
    loop_headers: HashMap<LoopId, LoopHeader>,
    ref_index: HashMap<RefId, (ArrayId, Vec<Affine>)>,
    flops: HashMap<RefId, u32>,
    craft_cost: Vec<u64>,
    cur_epoch_id: Option<u32>,
    trace_on: bool,
    lo_pe: usize,
    hi_pe: usize,
}

/// A shard worker's results: final PE/memory/fault state for its block plus
/// the write log the merge needs.
struct BlockOut {
    lo_pe: usize,
    hi_pe: usize,
    pes: Vec<Pe>,
    mem: Memory,
    faults: Option<FaultEngine>,
    oracle: OracleReport,
    epoch: EpochCycles,
    trace: EventTrace,
    steps: u64,
    /// A sliced cycle/step budget tripped inside this block (the caller
    /// discards all block state and reruns serially to reproduce the exact
    /// serial abort).
    abort: Option<SimAbort>,
    written_addrs: HashSet<usize>,
}

/// Simulate one contiguous PE block of a static DOALL in isolation, on a
/// clone of the pre-epoch machine state. Intra-block PEs run in ascending
/// order on the worker's own memory image — literally the serial schedule
/// restricted to the block — so when the blocks are proven line-disjoint
/// the merge reproduces the serial run byte for byte.
fn run_block<'p>(seed: BlockSeed<'p>) -> BlockOut {
    let n_pes = seed.cfg.n_pes;
    let backend = Some(backend_for(&seed.scheme, n_pes));
    // `EventTrace::new` allocates lazily, so an effectively unbounded
    // capacity costs nothing when few events arrive; the worker must never
    // wrap its ring, because the master replays events in block order and
    // lets *its* ring apply the capacity policy.
    let trace_cap = if seed.trace_on { usize::MAX } else { 0 };
    let mut sim = Simulator {
        program: seed.program,
        layout: seed.layout,
        cfg: seed.cfg,
        scheme: seed.scheme,
        opts: seed.opts,
        mem: seed.mem,
        pes: seed.pes,
        env: seed.env,
        phase: seed.phase,
        oracle: OracleReport::default(),
        extrapolated: false,
        loop_headers: seed.loop_headers,
        ref_index: seed.ref_index,
        flops: seed.flops,
        craft_cost: seed.craft_cost,
        coords: Vec::with_capacity(4),
        epochs: vec![EpochCycles::new("(shard)", n_pes)],
        epoch_slots: HashMap::new(),
        cur_epoch: Some(0),
        extrap_slot: None,
        trace: EventTrace::new(trace_cap),
        faults: seed.faults,
        backend,
        cur_epoch_id: seed.cur_epoch_id,
        compiled: HashMap::new(),
        frames: Vec::new(),
        treewalk: false,
        steps: 0,
        abort: None,
        // Budget-sliced workers check their own PEs' cycle counters (which
        // evolve exactly as in the serial schedule) and the step budget
        // remaining at the fork; the master pre-sliced `seed.opts`.
        budgeted: seed.opts.cycle_budget.is_some()
            || seed.opts.step_budget.is_some()
            || seed.opts.wall_deadline.is_some(),
        shard: Some(ShardLog {
            lo_pe: seed.lo_pe,
            hi_pe: seed.hi_pe,
            written_addrs: HashSet::new(),
        }),
        shard_verdicts: HashMap::new(),
        shard_stats: ShardStats::default(),
        #[cfg(feature = "shard-audit")]
        audit: None,
    };
    let l = seed.l;
    let cb = sim.compiled_body(l);
    for pe in seed.lo_pe..seed.hi_pe {
        if sim.abort.is_some() {
            break;
        }
        let range = match l.align {
            Some(aid) => ccdp_dist::aligned_range_for_pe(
                &sim.layout,
                sim.program.array(aid),
                seed.lo,
                seed.hi,
                l.step,
                pe,
            ),
            None => doall_range_for_pe(seed.lo, seed.hi, l.step, pe, n_pes),
        };
        if let Some(r) = range {
            sim.run_doall_range(pe, l, r.lo, r.hi, seed.per_iter, Some(&cb));
        }
    }
    let shard = sim.shard.take().expect("worker shard log present");
    BlockOut {
        lo_pe: seed.lo_pe,
        hi_pe: seed.hi_pe,
        pes: sim.pes,
        mem: sim.mem,
        faults: sim.faults,
        oracle: sim.oracle,
        epoch: sim.epochs.pop().expect("worker epoch slot present"),
        trace: sim.trace,
        steps: sim.steps,
        abort: sim.abort,
        written_addrs: shard.written_addrs,
    }
}

impl<'p> Simulator<'p> {
    /// Build a simulator. `program` must be the transformed program when the
    /// scheme is `Ccdp` (its plan indexes the same `RefId` space).
    pub fn new(
        program: &'p Program,
        layout: Layout,
        cfg: MachineConfig,
        scheme: Scheme,
        opts: SimOptions,
    ) -> Simulator<'p> {
        assert_eq!(
            layout.n_pes(),
            cfg.n_pes,
            "layout and machine config disagree on PE count"
        );
        let mem = Memory::new(program, &layout);
        let pes = (0..cfg.n_pes).map(|i| Pe::new(i, &cfg)).collect();
        let craft_cost: Vec<u64> = program
            .arrays
            .iter()
            .map(|a| match layout.distribution(a.id) {
                ccdp_dist::Distribution::GeneralizedBlock { .. } => cfg.craft_generalized,
                _ => cfg.craft_local,
            })
            .collect();
        let mut loop_headers = HashMap::new();
        let mut ref_index = HashMap::new();
        let mut flops = HashMap::new();
        let mut seen = std::collections::HashSet::new();
        for e in program.epochs() {
            if !seen.insert(e.id) {
                continue;
            }
            index_stmts(&e.stmts, &mut loop_headers, &mut ref_index, &mut flops);
        }
        let faults =
            (!opts.faults.is_none()).then(|| FaultEngine::new(opts.faults, cfg.n_pes));
        let backend = Some(backend_for(&scheme, cfg.n_pes));
        let treewalk = opts.force_treewalk;
        let budgeted = opts.cycle_budget.is_some()
            || opts.step_budget.is_some()
            || opts.wall_deadline.is_some();
        Simulator {
            program,
            layout,
            cfg,
            scheme,
            opts,
            mem,
            pes,
            env: VarEnv::new(program.var_names.len()),
            phase: 0,
            oracle: OracleReport::default(),
            extrapolated: false,
            loop_headers,
            ref_index,
            flops,
            craft_cost,
            coords: Vec::with_capacity(4),
            epochs: Vec::new(),
            epoch_slots: HashMap::new(),
            cur_epoch: None,
            extrap_slot: None,
            trace: EventTrace::new(opts.trace_capacity),
            faults,
            backend,
            cur_epoch_id: None,
            compiled: HashMap::new(),
            frames: Vec::new(),
            treewalk,
            steps: 0,
            abort: None,
            budgeted,
            shard: None,
            shard_verdicts: HashMap::new(),
            shard_stats: ShardStats::default(),
            #[cfg(feature = "shard-audit")]
            audit: None,
        }
    }

    /// Run to completion, panicking if a budget or deadline aborts the run.
    /// Callers that configure budgets must use [`Simulator::try_run`].
    pub fn run(self) -> SimResult {
        match self.try_run() {
            Ok(r) => r,
            Err(a) => panic!("simulation aborted without a budget-aware caller: {a}"),
        }
    }

    /// Run to completion, or abort with a structured [`SimAbort`] when a
    /// cycle/step budget or the wall-clock deadline trips. Both execution
    /// paths (compiled trace and tree walker) check budgets at every loop
    /// iteration, so a runaway program terminates promptly; the partially
    /// simulated state is discarded.
    pub fn try_run(mut self) -> Result<SimResult, SimAbort> {
        self.execute()?;
        Ok(self.into_result())
    }

    /// Run serially with the shard line recorder armed, returning the
    /// result together with the audit of every static-DOALL instance (see
    /// [`ShardAudit`]). Forces `sim_threads` to serial: the recorder hooks
    /// the serial schedule, where every PE runs on the shared machine
    /// state.
    #[cfg(feature = "shard-audit")]
    pub fn run_shard_audit(mut self) -> Result<(SimResult, ShardAudit), SimAbort> {
        self.opts.sim_threads = 0;
        self.audit = Some(audit::Recorder::new(self.cfg.n_pes, self.cfg.line_words));
        self.execute()?;
        let audit = self.audit.take().expect("audit armed above").audit;
        Ok((self.into_result(), audit))
    }

    fn execute(&mut self) -> Result<(), SimAbort> {
        let items = self.program.items.as_slice();
        self.exec_items(items);
        self.abort.take().map_or(Ok(()), Err)
    }

    fn into_result(self) -> SimResult {
        let cycles = self.global_now();
        SimResult {
            scheme: self.scheme.name(),
            cycles,
            per_pe: self.pes.iter().map(|p| p.stats).collect(),
            oracle: self.oracle,
            memory: self.mem,
            phases: self.phase,
            extrapolated: self.extrapolated,
            epochs: self.epochs,
            trace: self.trace,
            shard: self.shard_stats,
        }
    }

    // -- run budgets -------------------------------------------------------

    /// One interpreter step (a loop iteration on `pe`). Returns `false` —
    /// and records the abort — once a budget or the deadline is exhausted;
    /// every execution loop bails out on `false`. With no budgets configured
    /// this is a counter increment and one predictable branch.
    #[inline]
    fn tick(&mut self, pe: usize) -> bool {
        self.steps += 1;
        if !self.budgeted {
            return true;
        }
        self.tick_slow(pe)
    }

    #[cold]
    fn tick_slow(&mut self, pe: usize) -> bool {
        if self.abort.is_some() {
            return false;
        }
        if let Some(b) = self.opts.cycle_budget {
            let cycles = self.pes[pe].now;
            if cycles > b {
                self.abort =
                    Some(SimAbort::BudgetExceeded { pe, cycles, steps: self.steps });
                return false;
            }
        }
        if let Some(b) = self.opts.step_budget {
            if self.steps > b {
                let cycles = self.pes[pe].now;
                self.abort =
                    Some(SimAbort::BudgetExceeded { pe, cycles, steps: self.steps });
                return false;
            }
        }
        if let Some(d) = self.opts.wall_deadline {
            // Sampling the host clock every iteration would dominate the
            // simulation; every few thousand steps bounds the overshoot to
            // well under a millisecond.
            if self.steps.is_multiple_of(4096) && std::time::Instant::now() >= d {
                self.abort = Some(SimAbort::WallTimeout { pe, steps: self.steps });
                return false;
            }
        }
        true
    }

    // -- cycle accounting --------------------------------------------------

    /// Advance a PE's cycle counter, attributing the cycles to `cat` in the
    /// PE's breakdown and the current epoch slot. Every cycle the simulator
    /// charges goes through here, which is what makes the invariant
    /// `breakdown.total() == pe.now` hold exactly.
    #[inline]
    pub(crate) fn charge(&mut self, pe: usize, cat: CycleCategory, cycles: u64) {
        let p = &mut self.pes[pe];
        p.now += cycles;
        p.stats.breakdown.charge(cat, cycles);
        if let Some(slot) = self.cur_epoch {
            self.epochs[slot].per_pe[pe].charge(cat, cycles);
        }
    }

    /// Charge `a * b` cycles with saturating arithmetic, clamped so the
    /// PE's counter cannot overflow. Used by the batched loop-entry charges,
    /// where a runaway synthesized trip count could otherwise wrap `u64`
    /// before the budget check gets a chance to abort the run. The clamp
    /// keeps `breakdown.total() == pe.now` exact even at saturation.
    fn charge_saturating(&mut self, pe: usize, cat: CycleCategory, a: u64, b: u64) {
        let room = u64::MAX - self.pes[pe].now;
        let amt = a.saturating_mul(b).min(room);
        self.charge(pe, cat, amt);
    }

    /// Charge the same amount to every PE.
    fn charge_all(&mut self, cat: CycleCategory, cycles: u64) {
        for pe in 0..self.pes.len() {
            self.charge(pe, cat, cycles);
        }
    }

    /// Record a memory-system event (no-op unless tracing is enabled;
    /// recording never changes cycle counts).
    #[inline]
    pub(crate) fn trace_event(&mut self, pe: usize, kind: TraceEventKind, addr: usize) {
        if self.trace.enabled() {
            self.trace.record(MemEvent {
                cycle: self.pes[pe].now,
                pe: pe as u32,
                phase: self.phase,
                kind,
                addr: addr as u64,
            });
        }
    }

    // -- shared-access hooks -----------------------------------------------

    /// `pe` read, filled, prefetched or (`_write`) wrote `addr`'s line: an
    /// armed shard audit records it. Compiles to nothing without the
    /// `shard-audit` feature.
    #[inline]
    fn audit_touch(&mut self, _pe: usize, _addr: usize, _write: bool) {
        #[cfg(feature = "shard-audit")]
        if let Some(a) = self.audit.as_mut() {
            a.touch(_pe, _addr, _write);
        }
    }

    /// `pe` wrote the shared word `addr`. Shard workers keep the exact
    /// address for the merge's final-state copy and owner-cache patches.
    #[inline]
    fn note_write(&mut self, pe: usize, addr: usize) {
        if let Some(s) = self.shard.as_mut() {
            s.written_addrs.insert(addr);
        }
        self.audit_touch(pe, addr, true);
    }

    /// Accounting slot for a source epoch (created on first execution).
    fn epoch_slot(&mut self, id: u32, label: &str) -> usize {
        if let Some(&s) = self.epoch_slots.get(&id) {
            return s;
        }
        let s = self.epochs.len();
        self.epochs.push(EpochCycles::new(label, self.cfg.n_pes));
        self.epoch_slots.insert(id, s);
        s
    }

    fn global_now(&self) -> u64 {
        self.pes.iter().map(|p| p.now).max().unwrap_or(0)
    }

    /// Does the current backend execute explicit prefetch statements and
    /// pipelined prefetches? (Only the plan-directed CCDP backend does.)
    fn prefetching(&self) -> bool {
        self.backend.as_ref().is_some_and(|b| b.executes_prefetches())
    }

    pub(crate) fn handling_of(&self, r: RefId) -> Handling {
        match &self.scheme {
            Scheme::Ccdp { plan } | Scheme::InvalidateOnly { plan } => plan.handling_of(r),
            _ => Handling::Normal,
        }
    }

    // -- backend dispatch --------------------------------------------------

    /// One shared read through the coherence backend. `craft` is the
    /// array's CRAFT local-access overhead (BASE backend only).
    pub(crate) fn backend_read(&mut self, pe: usize, rid: RefId, addr: usize, craft: u64) -> f64 {
        let mut b = self.backend.take().expect("backend re-entered");
        let v = b.read_shared(self, pe, rid, addr, craft);
        self.backend = Some(b);
        v
    }

    /// One shared write through the coherence backend.
    pub(crate) fn backend_write(&mut self, pe: usize, addr: usize, craft_local: u64, v: f64) {
        let mut b = self.backend.take().expect("backend re-entered");
        b.write_shared(self, pe, addr, craft_local, v);
        self.backend = Some(b);
    }

    // -- program structure ---------------------------------------------

    fn exec_items(&mut self, items: &'p [ProgramItem]) {
        for item in items {
            if self.abort.is_some() {
                return;
            }
            match item {
                ProgramItem::Epoch(e) => self.exec_epoch(e),
                ProgramItem::Call(r) => {
                    let prog = self.program;
                    self.exec_items(&prog.routine(*r).items);
                }
                ProgramItem::Repeat { count, body } => self.exec_repeat(*count, body),
            }
        }
    }

    fn exec_repeat(&mut self, count: u32, body: &'p [ProgramItem]) {
        let sample = self.opts.repeat_sample.unwrap_or(u32::MAX).max(2);
        if count <= sample {
            for _ in 0..count {
                self.exec_items(body);
                if self.abort.is_some() {
                    return;
                }
            }
            return;
        }
        let mut marks = Vec::with_capacity(sample as usize + 1);
        marks.push(self.global_now());
        for _ in 0..sample {
            self.exec_items(body);
            if self.abort.is_some() {
                return; // partial sample: no extrapolation from aborted runs
            }
            marks.push(self.global_now());
        }
        // Steady-state per-iteration delta: skip the first (cold caches).
        let steady = (marks[sample as usize] - marks[1]) / (sample as u64 - 1);
        let extra = steady * (count - sample) as u64;
        // Extrapolated cycles accumulate in a pseudo-epoch of their own so
        // the per-epoch accounting still sums to the per-PE totals.
        let slot = match self.extrap_slot {
            Some(s) => s,
            None => {
                let s = self.epochs.len();
                self.epochs.push(EpochCycles::new("(extrapolated)", self.cfg.n_pes));
                self.extrap_slot = Some(s);
                s
            }
        };
        let prev = self.cur_epoch.replace(slot);
        self.charge_all(CycleCategory::Extrapolated, extra);
        self.cur_epoch = prev;
        self.extrapolated = true;
    }

    fn exec_epoch(&mut self, e: &'p Epoch) {
        let slot = self.epoch_slot(e.id.0, &e.label);
        let prev = self.cur_epoch.replace(slot);
        let prev_id = self.cur_epoch_id.replace(e.id.0);
        match e.kind {
            EpochKind::Serial => {
                self.exec_stmts_on_pe(0, &e.stmts);
                self.barrier();
            }
            EpochKind::Parallel => self.exec_wrapper(&e.stmts),
        }
        self.cur_epoch_id = prev_id;
        self.cur_epoch = prev;
    }

    /// Execute the wrapper region of a parallel epoch: serial loops and
    /// branches run redundantly (index work only), prefetch statements run
    /// per-PE, the DOALL runs as a barrier phase.
    fn exec_wrapper(&mut self, stmts: &'p [Stmt]) {
        for s in stmts {
            if self.abort.is_some() {
                return;
            }
            match s {
                Stmt::Loop(l) if l.kind.is_doall() => self.exec_doall(l),
                Stmt::Loop(l) => {
                    let lo = l.lo.eval(&self.env);
                    let hi = l.hi.eval(&self.env);
                    let mut v = lo;
                    while v <= hi {
                        if !self.tick(0) {
                            break;
                        }
                        self.env.set(l.var, v);
                        self.charge_all(CycleCategory::LoopOverhead, self.cfg.loop_overhead);
                        self.exec_wrapper(&l.body);
                        v += l.step;
                    }
                    self.env.unset(l.var);
                }
                Stmt::If(i) => {
                    self.charge_all(CycleCategory::LoopOverhead, 1);
                    if self.eval_cond(&i.cond) {
                        self.exec_wrapper(&i.then_branch);
                    } else {
                        self.exec_wrapper(&i.else_branch);
                    }
                }
                Stmt::Prefetch(pf) => {
                    if self.prefetching() {
                        for pe in 0..self.cfg.n_pes {
                            self.exec_prefetch(pe, pf);
                        }
                    }
                }
                Stmt::Assign(_) => {
                    unreachable!("validator forbids assignments in wrapper code")
                }
            }
        }
    }

    fn exec_doall(&mut self, l: &'p Loop) {
        let lo = l.lo.eval(&self.env);
        let hi = l.hi.eval(&self.env);
        // Parallel-loop startup, charged once per DOALL instance (= per
        // barrier phase): CRAFT's `doshared` setup vs the CCDP codes'
        // direct iteration assignment (paper §5.2).
        let (setup, per_iter) = match self.scheme {
            Scheme::Sequential => (0, 0),
            Scheme::Base => (self.cfg.base_epoch_overhead, self.cfg.base_doshared_iter),
            // The CCDP codes' direct iteration assignment; the
            // invalidate-only baseline and the hardware-coherent machines
            // run the same manually scheduled loops.
            Scheme::Ccdp { .. } | Scheme::InvalidateOnly { .. } | Scheme::Mesi | Scheme::Dragon => {
                (self.cfg.ccdp_epoch_overhead, 0)
            }
        };
        self.charge_all(CycleCategory::EpochSetup, setup);
        let cb = (!self.treewalk).then(|| self.compiled_body(l));
        match l.kind {
            LoopKind::DoAllStatic => {
                if !self.exec_doall_static_sharded(l, lo, hi, per_iter) {
                    self.exec_doall_static_serial(l, lo, hi, per_iter, cb.as_deref());
                }
            }
            LoopKind::DoAllDynamic { chunk } => {
                for c in chunks(lo, hi, l.step, chunk) {
                    if self.abort.is_some() {
                        break;
                    }
                    // Next chunk goes to the earliest-available PE.
                    let pe = (0..self.cfg.n_pes)
                        .min_by_key(|&p| self.pes[p].now)
                        .unwrap();
                    self.charge(pe, CycleCategory::SchedOverhead, self.cfg.dynamic_chunk_overhead);
                    self.run_doall_range(pe, l, c.lo, c.hi, per_iter, cb.as_deref());
                }
            }
            LoopKind::Serial => unreachable!(),
        }
        self.env.unset(l.var);
        self.barrier();
    }

    /// The serial schedule of a static DOALL: PEs execute their ranges one
    /// after another, in ascending order, on the shared machine state. Also
    /// the path of every instance the sharded engine declines.
    fn exec_doall_static_serial(
        &mut self,
        l: &'p Loop,
        lo: i64,
        hi: i64,
        per_iter: u64,
        cb: Option<&CompiledBody<'p>>,
    ) {
        #[cfg(feature = "shard-audit")]
        if let Some(a) = self.audit.as_mut() {
            a.current = Some(l.id);
        }
        for pe in 0..self.cfg.n_pes {
            if self.abort.is_some() {
                break;
            }
            let range = match l.align {
                Some(aid) => ccdp_dist::aligned_range_for_pe(
                    &self.layout,
                    self.program.array(aid),
                    lo,
                    hi,
                    l.step,
                    pe,
                ),
                None => doall_range_for_pe(lo, hi, l.step, pe, self.cfg.n_pes),
            };
            if let Some(r) = range {
                self.run_doall_range(pe, l, r.lo, r.hi, per_iter, cb);
            }
        }
        #[cfg(feature = "shard-audit")]
        if let Some(a) = self.audit.as_mut() {
            a.end();
        }
    }

    /// Shard a statically proven-disjoint DOALL's PE blocks across
    /// `SimOptions::sim_threads` workers. Returns `false` — leaving the
    /// master state untouched, so the caller runs the epoch serially — when
    /// this run is ineligible, when `analysis::shard` does not prove the
    /// loop `Disjoint`, or when a sliced budget tripped in a worker.
    ///
    /// Soundness (full argument in DESIGN §15): each worker simulates one
    /// contiguous PE block, in PE order, on a clone of the pre-epoch state
    /// — exactly the serial schedule restricted to its block. The merge is
    /// byte-identical to the serial run unless some earlier block *wrote* a
    /// cache line a later block *touched* (the later block should have seen
    /// that write; it saw the snapshot instead). The `Disjoint` proof rules
    /// that out for every contiguous partition, so nothing is checked at
    /// run time.
    fn exec_doall_static_sharded(&mut self, l: &'p Loop, lo: i64, hi: i64, per_iter: u64) -> bool {
        if self.opts.sim_threads <= 1 {
            return false;
        }
        // Structured decline reasons, surfaced through `ShardStats`: the
        // tree walker's purpose is to be the plain reference
        // implementation; hardware schemes (MESI/Dragon) contend on a
        // shared bus, so PEs are not independent between barriers; a
        // wall-clock deadline has no deterministic per-block slicing.
        if self.cfg.n_pes < 2 {
            self.shard_stats.declined_few_pes += 1;
            return false;
        }
        if self.treewalk {
            self.shard_stats.declined_treewalk += 1;
            return false;
        }
        if matches!(self.scheme, Scheme::Mesi | Scheme::Dragon) {
            self.shard_stats.declined_hardware += 1;
            return false;
        }
        if self.opts.wall_deadline.is_some() {
            self.shard_stats.declined_wall_deadline += 1;
            return false;
        }
        // Static shard-independence verdict (`analysis::shard`, cached per
        // loop). Without a `Disjoint` proof the epoch runs serially.
        if !self.loop_disjoint(l) {
            self.shard_stats.declined_budget_unproven += 1;
            return false;
        }
        let base_steps = self.steps;
        let mut wopts = self.opts;
        // Budget slicing: workers keep the per-PE cycle budget unchanged
        // (each PE's cycle counter evolves exactly as in the serial
        // schedule) and check their own step count against the budget
        // remaining at the fork.
        if let Some(b) = wopts.step_budget {
            wopts.step_budget = Some(b.saturating_sub(base_steps));
        }
        let n = self.cfg.n_pes;
        let t = self.opts.sim_threads.min(n);
        let mut seeds = Vec::with_capacity(t);
        for b in 0..t {
            let lo_pe = b * n / t;
            let hi_pe = (b + 1) * n / t;
            let pes = (0..n)
                .map(|i| {
                    if (lo_pe..hi_pe).contains(&i) {
                        self.pes[i].clone()
                    } else {
                        Pe::placeholder(i)
                    }
                })
                .collect();
            seeds.push(BlockSeed {
                program: self.program,
                l,
                lo,
                hi,
                per_iter,
                layout: self.layout.clone(),
                cfg: self.cfg.clone(),
                scheme: self.scheme.clone(),
                opts: wopts,
                mem: self.mem.clone(),
                pes,
                env: self.env.clone(),
                phase: self.phase,
                faults: self.faults.clone(),
                loop_headers: self.loop_headers.clone(),
                ref_index: self.ref_index.clone(),
                flops: self.flops.clone(),
                craft_cost: self.craft_cost.clone(),
                cur_epoch_id: self.cur_epoch_id,
                trace_on: self.trace.enabled(),
                lo_pe,
                hi_pe,
            });
        }
        let mut outs: Vec<BlockOut> = Vec::with_capacity(t);
        std::thread::scope(|s| {
            let mut seeds = seeds.into_iter();
            let first = seeds.next().expect("at least one block");
            let handles: Vec<_> = seeds.map(|seed| s.spawn(move || run_block(seed))).collect();
            // The master thread simulates block 0 itself instead of idling.
            outs.push(run_block(first));
            for h in handles {
                outs.push(h.join().expect("shard worker panicked"));
            }
        });
        // Budget aborts: any worker abort (cycle budget tripped on one of
        // its PEs), or the combined step count exceeding the global step
        // budget (the serial run would have aborted mid-epoch), discards
        // all block state; the serial rerun from the untouched master
        // state then reproduces the exact serial abort. A worker's own
        // step abort always implies the sum check fires too (it stops at
        // remaining+1 steps), so the two conditions together are exact.
        if self.budgeted {
            let total: u64 = outs.iter().map(|o| o.steps).sum();
            let over_steps = self
                .opts
                .step_budget
                .is_some_and(|b| base_steps.saturating_add(total) > b);
            if over_steps || outs.iter().any(|o| o.abort.is_some()) {
                self.shard_stats.budget_reruns += 1;
                return false;
            }
        }
        self.shard_stats.static_proven += 1;
        // Merge, in block order. Per-word final states are disjoint across
        // blocks (proven statically), so everything below is
        // order-independent per address and deterministic.
        for out in outs.iter_mut() {
            for pe in out.lo_pe..out.hi_pe {
                std::mem::swap(&mut self.pes[pe], &mut out.pes[pe]);
                self.mem.swap_private_space(&mut out.mem, pe);
                if let (Some(mf), Some(wf)) = (self.faults.as_mut(), out.faults.as_ref()) {
                    mf.absorb_pe(wf, pe);
                }
                if let Some(slot) = self.cur_epoch {
                    self.epochs[slot].per_pe[pe].add(&out.epoch.per_pe[pe]);
                }
            }
            for &addr in &out.written_addrs {
                let (v, ver) = out.mem.read_shared(addr);
                self.mem.set_shared(addr, v, ver);
            }
            self.oracle.stale_reads += out.oracle.stale_reads;
            self.oracle.examples.append(&mut out.oracle.examples);
            for ev in out.trace.iter() {
                self.trace.record(*ev);
            }
            self.steps += out.steps;
        }
        // Each worker capped its own example list, so the concatenation's
        // prefix is exactly what the serial run would have recorded.
        self.oracle.examples.truncate(self.opts.oracle_examples);
        // Deferred owner-cache patches: a write whose owning PE lives in
        // another block updates that owner's (now merged-back) cache with
        // the word's final state. `update_word` is a residency-checked
        // no-op, and any interleaving that could make final-state patching
        // diverge from the serial patch sequence implies the owner's block
        // touched the written line — impossible by the static disjointness
        // proof.
        for out in &outs {
            for &addr in &out.written_addrs {
                let owner = self.mem.owner(addr);
                if !(out.lo_pe..out.hi_pe).contains(&owner) {
                    let (v, ver) = out.mem.read_shared(addr);
                    self.pes[owner].cache.update_word(addr, v, ver);
                }
            }
        }
        true
    }

    /// Cached static shard-independence verdict for a DOALL: `true` when
    /// `analysis::shard` proves its PE blocks pairwise line-disjoint. The
    /// verdict is computed at one-PE-per-block granularity, which implies
    /// disjointness for every contiguous coarser partition — so one cached
    /// answer per loop id is valid at any worker count, and across `Repeat`
    /// re-executions of the same source loop.
    fn loop_disjoint(&mut self, l: &'p Loop) -> bool {
        if let Some(&d) = self.shard_verdicts.get(&l.id) {
            return d;
        }
        let epoch = self
            .cur_epoch_id
            .and_then(|id| self.program.epochs().into_iter().find(|e| e.id.0 == id));
        let d = epoch.is_some_and(|e| {
            ccdp_analysis::shard_verdict(self.program, &self.layout, e, l.id, self.cfg.line_words)
                .is_disjoint()
        });
        self.shard_verdicts.insert(l.id, d);
        d
    }

    /// One PE's contiguous slice of a DOALL's iterations (a static range or
    /// a dynamic chunk). `cb` selects the compiled trace; `None` runs the
    /// reference tree walker.
    fn run_doall_range(
        &mut self,
        pe: usize,
        l: &'p Loop,
        lo: i64,
        hi: i64,
        per_iter: u64,
        cb: Option<&CompiledBody<'p>>,
    ) {
        if lo > hi {
            return;
        }
        let Some(body) = cb else {
            let mut v = lo;
            while v <= hi {
                if !self.tick(pe) {
                    break;
                }
                self.env.set(l.var, v);
                self.charge(pe, CycleCategory::LoopOverhead, self.cfg.loop_overhead);
                self.charge(pe, CycleCategory::SchedOverhead, per_iter);
                self.exec_stmts_on_pe(pe, &l.body);
                v += l.step;
            }
            return;
        };
        let trip = (hi - lo) / l.step + 1;
        let last = lo + (trip - 1) * l.step;
        let mut frame = self.frames.pop().unwrap_or_default();
        frame.clear();
        for spec in &body.slots {
            frame.push(spec.enter(&self.env, lo, last, l.step));
        }
        if let Some(b) = body.batch {
            // Straight-line private-only body: nothing in the range observes
            // the PE clock, so the whole range's charges collapse into one
            // charge per category up front (see `exec_compiled_loop`).
            // Saturating products: a runaway trip count must trip the budget
            // check below, not wrap the arithmetic.
            let t = trip as u64;
            self.charge_saturating(pe, CycleCategory::LoopOverhead, t, self.cfg.loop_overhead);
            self.charge_saturating(pe, CycleCategory::SchedOverhead, t, per_iter);
            self.charge_saturating(pe, CycleCategory::CacheHit, t.saturating_mul(b.reads), self.cfg.cache_hit);
            self.charge_saturating(pe, CycleCategory::WriteLocal, t.saturating_mul(b.writes), self.cfg.write_local);
            self.charge_saturating(pe, CycleCategory::FpWork, t, b.fp);
            if !self.exec_batch_sweep(pe, l, lo, trip, body, &mut frame) {
                let mut v = lo;
                while v <= hi {
                    if !self.tick(pe) {
                        break;
                    }
                    self.env.set(l.var, v);
                    self.exec_cstmts_values_only(pe, body, &frame);
                    for st in frame.iter_mut() {
                        st.off += st.doff;
                    }
                    v += l.step;
                }
            }
        } else {
            let mut v = lo;
            while v <= hi {
                if !self.tick(pe) {
                    break;
                }
                self.env.set(l.var, v);
                self.charge(pe, CycleCategory::LoopOverhead, self.cfg.loop_overhead);
                self.charge(pe, CycleCategory::SchedOverhead, per_iter);
                self.exec_cstmts(pe, &body.stmts, &body.slots, &frame);
                for st in frame.iter_mut() {
                    st.off += st.doff;
                }
                v += l.step;
            }
        }
        self.frames.push(frame);
    }

    fn barrier(&mut self) {
        let m = self.global_now();
        let cost = match self.scheme {
            Scheme::Sequential => 0,
            _ => self.cfg.barrier,
        };
        for pe in 0..self.pes.len() {
            let wait = m - self.pes[pe].now;
            self.pes[pe].stats.barrier_wait_cycles += wait;
            self.charge(pe, CycleCategory::BarrierWait, wait);
            self.charge(pe, CycleCategory::BarrierCost, cost);
        }
        self.trace_event(0, TraceEventKind::Barrier, 0);
        self.phase += 1;
    }

    // -- statements on one PE -------------------------------------------

    fn exec_stmts_on_pe(&mut self, pe: usize, stmts: &'p [Stmt]) {
        for s in stmts {
            if self.abort.is_some() {
                return;
            }
            match s {
                Stmt::Assign(a) => self.exec_assign(pe, a),
                Stmt::Loop(l) => self.exec_loop_on_pe(pe, l),
                Stmt::If(i) => {
                    self.charge(pe, CycleCategory::LoopOverhead, 1);
                    if self.eval_cond(&i.cond) {
                        self.exec_stmts_on_pe(pe, &i.then_branch);
                    } else {
                        self.exec_stmts_on_pe(pe, &i.else_branch);
                    }
                }
                Stmt::Prefetch(pf) => {
                    if self.prefetching() {
                        self.exec_prefetch(pe, pf);
                    }
                }
            }
        }
    }

    fn exec_loop_on_pe(&mut self, pe: usize, l: &'p Loop) {
        debug_assert_eq!(l.kind, LoopKind::Serial, "DOALL nested in PE code");
        if self.treewalk {
            self.exec_loop_treewalk(pe, l);
        } else {
            let body = self.compiled_body(l);
            self.exec_compiled_loop(pe, l, &body);
        }
    }

    /// Reference interpreter for a serial loop: re-evaluates every subscript
    /// and re-resolves every dispatch per access. Kept as the equivalence
    /// oracle for the compiled trace (`SimOptions::force_treewalk`).
    fn exec_loop_treewalk(&mut self, pe: usize, l: &'p Loop) {
        let lo = l.lo.eval(&self.env);
        let hi = l.hi.eval(&self.env);
        if lo > hi {
            return;
        }
        let pipelined = self.prefetching() && !l.pipeline.is_empty();
        if pipelined {
            self.pipeline_prologue(pe, l, lo, hi);
        }
        let mut v = lo;
        while v <= hi {
            if !self.tick(pe) {
                break;
            }
            self.env.set(l.var, v);
            self.charge(pe, CycleCategory::LoopOverhead, self.cfg.loop_overhead);
            if pipelined {
                self.pipeline_steady(pe, l, lo, hi, v);
            }
            self.exec_stmts_on_pe(pe, &l.body);
            v += l.step;
        }
        self.env.unset(l.var);
    }

    /// Software-pipelining prologue: prefetch the first `distance`
    /// iterations' targets before the loop starts.
    fn pipeline_prologue(&mut self, pe: usize, l: &'p Loop, lo: i64, hi: i64) {
        let trip = (hi - lo) / l.step + 1;
        for pf in &l.pipeline {
            let d = pf.distance as i64;
            let every = pf.every.max(1) as i64;
            for k in (0..d.min(trip)).step_by(every as usize) {
                self.env.set(l.var, lo + (k - d) * l.step);
                self.issue_line_prefetch(pe, pf.array, &pf.index);
            }
        }
    }

    /// Software-pipelining steady state: at iteration `v`, prefetch the
    /// targets of iteration `v + distance` (when on cadence and in range).
    fn pipeline_steady(&mut self, pe: usize, l: &'p Loop, lo: i64, hi: i64, v: i64) {
        for pf in &l.pipeline {
            let k = (v - lo) / l.step;
            if k % pf.every.max(1) as i64 == 0 && v + pf.distance as i64 * l.step <= hi {
                self.issue_line_prefetch(pe, pf.array, &pf.index);
            }
        }
    }

    // -- compiled-trace execution ---------------------------------------

    /// The compiled body for a loop, compiling on first encounter.
    fn compiled_body(&mut self, l: &'p Loop) -> Rc<CompiledBody<'p>> {
        if let Some(b) = self.compiled.get(&l.id) {
            return Rc::clone(b);
        }
        let body = {
            let ctx = CompileCtx {
                program: self.program,
                mem: &self.mem,
                scheme: &self.scheme,
                craft_cost: &self.craft_cost,
            };
            Rc::new(compile_loop(l, &ctx))
        };
        self.compiled.insert(l.id, Rc::clone(&body));
        body
    }

    /// Execute a serial loop through its compiled body. Cycle-for-cycle
    /// identical to [`Simulator::exec_loop_treewalk`]: the same memory-op
    /// helpers charge at the same points; only the per-access subscript
    /// evaluation, bounds assertion, and dispatch matching are hoisted.
    fn exec_compiled_loop(&mut self, pe: usize, l: &'p Loop, body: &CompiledBody<'p>) {
        let lo = l.lo.eval(&self.env);
        let hi = l.hi.eval(&self.env);
        if lo > hi {
            return;
        }
        let pipelined = self.prefetching() && !l.pipeline.is_empty();
        if pipelined {
            self.pipeline_prologue(pe, l, lo, hi);
        }
        let trip = (hi - lo) / l.step + 1;
        let last = lo + (trip - 1) * l.step;
        let mut frame = self.frames.pop().unwrap_or_default();
        frame.clear();
        for spec in &body.slots {
            frame.push(spec.enter(&self.env, lo, last, l.step));
        }
        match body.batch {
            // Straight-line private-only body: no trace events, no cache or
            // clock observation anywhere in the loop, so the per-iteration
            // charges collapse into one charge per category at entry. The
            // values-only sweep still runs every iteration.
            Some(b) if !pipelined => {
                let t = trip as u64;
                self.charge_saturating(pe, CycleCategory::LoopOverhead, t, self.cfg.loop_overhead);
                self.charge_saturating(pe, CycleCategory::CacheHit, t.saturating_mul(b.reads), self.cfg.cache_hit);
                self.charge_saturating(pe, CycleCategory::WriteLocal, t.saturating_mul(b.writes), self.cfg.write_local);
                self.charge_saturating(pe, CycleCategory::FpWork, t, b.fp);
                if !self.exec_batch_sweep(pe, l, lo, trip, body, &mut frame) {
                    let mut v = lo;
                    while v <= hi {
                        if !self.tick(pe) {
                            break;
                        }
                        self.env.set(l.var, v);
                        self.exec_cstmts_values_only(pe, body, &frame);
                        for st in frame.iter_mut() {
                            st.off += st.doff;
                        }
                        v += l.step;
                    }
                }
            }
            _ => {
                let mut v = lo;
                while v <= hi {
                    if !self.tick(pe) {
                        break;
                    }
                    self.env.set(l.var, v);
                    self.charge(pe, CycleCategory::LoopOverhead, self.cfg.loop_overhead);
                    if pipelined {
                        self.pipeline_steady(pe, l, lo, hi, v);
                    }
                    self.exec_cstmts(pe, &body.stmts, &body.slots, &frame);
                    for st in frame.iter_mut() {
                        st.off += st.doff;
                    }
                    v += l.step;
                }
            }
        }
        self.env.unset(l.var);
        self.frames.push(frame);
    }

    fn exec_cstmts(
        &mut self,
        pe: usize,
        stmts: &[CStmt<'p>],
        slots: &[SlotSpec<'p>],
        frame: &[SlotState],
    ) {
        for s in stmts {
            if self.abort.is_some() {
                return;
            }
            match s {
                CStmt::Assign(a) => self.exec_cassign(pe, a, slots, frame),
                CStmt::If { cond, then_branch, else_branch } => {
                    self.charge(pe, CycleCategory::LoopOverhead, 1);
                    if self.eval_cond(cond) {
                        self.exec_cstmts(pe, then_branch, slots, frame);
                    } else {
                        self.exec_cstmts(pe, else_branch, slots, frame);
                    }
                }
                CStmt::Loop(cl) => {
                    debug_assert_eq!(cl.l.kind, LoopKind::Serial, "DOALL nested in PE code");
                    self.exec_compiled_loop(pe, cl.l, &cl.body);
                }
                CStmt::Prefetch(pf) => self.exec_prefetch(pe, pf),
            }
        }
    }

    /// Word address of a compiled reference: the strength-reduced recurrence
    /// when the whole range was proven in bounds at entry, else the original
    /// per-access evaluation (identical panic behaviour for genuinely
    /// out-of-bounds subscripts).
    #[inline]
    fn caddr(&mut self, base: usize, slot: u32, slots: &[SlotSpec<'p>], frame: &[SlotState]) -> usize {
        let st = frame[slot as usize];
        if st.fast {
            base + st.off as usize
        } else {
            let spec = &slots[slot as usize];
            base + self.addr_of(spec.array, spec.index)
        }
    }

    /// One compiled read: resolve the address, dispatch on the pre-resolved
    /// [`AccessKind`].
    #[inline]
    fn cread(&mut self, pe: usize, r: &CRead, slots: &[SlotSpec<'p>], frame: &[SlotState]) -> f64 {
        let addr = self.caddr(r.base, r.slot, slots, frame);
        match r.kind {
            AccessKind::Private => {
                self.charge(pe, CycleCategory::CacheHit, self.cfg.cache_hit);
                self.mem.read_private(pe, addr)
            }
            AccessKind::Base { craft } => self.base_read(pe, r.rid, addr, craft),
            AccessKind::Cached(h) => self.cached_read(pe, r.rid, addr, h),
            AccessKind::Bypass => self.bypass_read(pe, addr),
            AccessKind::Hardware => self.backend_read(pe, r.rid, addr, 0),
        }
    }

    fn exec_cassign(
        &mut self,
        pe: usize,
        a: &CAssign,
        slots: &[SlotSpec<'p>],
        frame: &[SlotState],
    ) {
        let n = a.reads.len();
        let v = if n <= READ_BUF {
            // Loaded values live in a fixed stack buffer — no PE scratch
            // vector traffic on the hot path.
            let mut buf = [0.0f64; READ_BUF];
            for (dst, r) in buf.iter_mut().zip(&a.reads) {
                *dst = self.cread(pe, r, slots, frame);
            }
            a.expr.eval(&buf[..n], &self.env)
        } else {
            let mut vals = std::mem::take(&mut self.pes[pe].scratch);
            vals.clear();
            for r in &a.reads {
                let v = self.cread(pe, r, slots, frame);
                vals.push(v);
            }
            let v = a.expr.eval(&vals, &self.env);
            self.pes[pe].scratch = vals;
            v
        };
        let addr = self.caddr(a.write.base, a.write.slot, slots, frame);
        if a.write.shared {
            self.backend_write(pe, addr, a.write.craft, v);
        } else {
            self.charge(pe, CycleCategory::WriteLocal, self.cfg.write_local);
            self.mem.write_private(pe, addr, v);
        }
        self.charge(pe, CycleCategory::FpWork, a.cost);
    }

    /// Numerics-only sweep of a batched body: all charges were hoisted to
    /// the loop entry, so only values move here.
    fn exec_cstmts_values_only(
        &mut self,
        pe: usize,
        body: &CompiledBody<'p>,
        frame: &[SlotState],
    ) {
        for s in &body.stmts {
            let CStmt::Assign(a) = s else {
                unreachable!("batched bodies are straight-line assignments")
            };
            let n = a.reads.len();
            let v = if n <= READ_BUF {
                let mut buf = [0.0f64; READ_BUF];
                for (dst, r) in buf.iter_mut().zip(&a.reads) {
                    let addr = self.caddr(r.base, r.slot, &body.slots, frame);
                    *dst = self.mem.read_private(pe, addr);
                }
                a.expr.eval(&buf[..n], &self.env)
            } else {
                let mut vals = std::mem::take(&mut self.pes[pe].scratch);
                vals.clear();
                for r in &a.reads {
                    let addr = self.caddr(r.base, r.slot, &body.slots, frame);
                    vals.push(self.mem.read_private(pe, addr));
                }
                let v = a.expr.eval(&vals, &self.env);
                self.pes[pe].scratch = vals;
                v
            };
            let addr = self.caddr(a.write.base, a.write.slot, &body.slots, frame);
            self.mem.write_private(pe, addr, v);
        }
    }

    /// One iteration of a batched body with every slot recurrence on the
    /// fast path: addresses are `base + off` directly — no slow-path
    /// branch, no environment reads outside the expression itself.
    #[inline]
    fn exec_values_fast(&mut self, pe: usize, body: &CompiledBody<'p>, frame: &[SlotState]) {
        for s in &body.stmts {
            let CStmt::Assign(a) = s else {
                unreachable!("batched bodies are straight-line assignments")
            };
            let mut buf = [0.0f64; READ_BUF];
            for (dst, r) in buf.iter_mut().zip(&a.reads) {
                let addr = r.base + frame[r.slot as usize].off as usize;
                *dst = self.mem.read_private(pe, addr);
            }
            let v = a.expr.eval(&buf[..a.reads.len()], &self.env);
            let addr = a.write.base + frame[a.write.slot as usize].off as usize;
            self.mem.write_private(pe, addr, v);
        }
    }

    /// Direct-threaded sweep of a batched body over its whole iteration
    /// range. Eligible when no budget needs a per-step check, every slot
    /// recurrence took the fast path, and every statement's reads fit the
    /// stack buffer; returns `false` (and executes nothing) otherwise, and
    /// the caller runs the per-iteration loop.
    ///
    /// The sweep hoists the per-iteration `tick` into one `steps += trip`
    /// (exact: with no budget, `tick` is just that counter), maintains the
    /// loop variable only when an expression actually reads its value, and
    /// otherwise runs iterations in fixed-width chunks whose inner loop
    /// carries only the offset recurrences — the compiler can unroll it.
    fn exec_batch_sweep(
        &mut self,
        pe: usize,
        l: &'p Loop,
        lo: i64,
        trip: i64,
        body: &CompiledBody<'p>,
        frame: &mut [SlotState],
    ) -> bool {
        const CHUNK: i64 = 8;
        if self.budgeted
            || frame.iter().any(|st| !st.fast)
            || body
                .stmts
                .iter()
                .any(|s| matches!(s, CStmt::Assign(a) if a.reads.len() > READ_BUF))
        {
            return false;
        }
        self.steps += trip as u64;
        if body.uses_loop_var {
            let mut v = lo;
            for _ in 0..trip {
                self.env.set(l.var, v);
                self.exec_values_fast(pe, body, frame);
                for st in frame.iter_mut() {
                    st.off += st.doff;
                }
                v += l.step;
            }
            return true;
        }
        let mut left = trip;
        while left >= CHUNK {
            for _ in 0..CHUNK {
                self.exec_values_fast(pe, body, frame);
                for st in frame.iter_mut() {
                    st.off += st.doff;
                }
            }
            left -= CHUNK;
        }
        for _ in 0..left {
            self.exec_values_fast(pe, body, frame);
            for st in frame.iter_mut() {
                st.off += st.doff;
            }
        }
        true
    }

    fn exec_assign(&mut self, pe: usize, a: &'p Assign) {
        let mut vals = std::mem::take(&mut self.pes[pe].scratch);
        vals.clear();
        for r in &a.reads {
            let v = self.exec_read(pe, r);
            vals.push(v);
        }
        let v = a.expr.eval(&vals, &self.env);
        self.pes[pe].scratch = vals;
        self.exec_write(pe, &a.write, v);
        let fl = *self.flops.get(&a.write.id).unwrap_or(&0);
        self.charge(pe, CycleCategory::FpWork, fl as u64 + a.extra_cost as u64);
    }

    // -- memory operations ------------------------------------------------

    /// Evaluate a reference's subscripts and return the word address within
    /// its array's space, with a hard bounds check.
    fn addr_of(&mut self, r_array: ArrayId, index: &[Affine]) -> usize {
        let decl = self.program.array(r_array);
        self.coords.clear();
        for ix in index {
            self.coords.push(ix.eval(&self.env));
        }
        let mut off = 0usize;
        let mut stride = 1usize;
        for (d, &c) in self.coords.iter().enumerate() {
            assert!(
                c >= 0 && (c as usize) < decl.extents[d],
                "{}: index {} out of bounds 0..{} (dim {})",
                decl.name,
                c,
                decl.extents[d],
                d
            );
            off += c as usize * stride;
            stride *= decl.extents[d];
        }
        off
    }

    fn exec_read(&mut self, pe: usize, r: &'p ArrayRef) -> f64 {
        let off = self.addr_of(r.array, &r.index);
        if !self.mem.is_shared(r.array) {
            self.charge(pe, CycleCategory::CacheHit, self.cfg.cache_hit);
            return self.mem.read_private(pe, self.mem.base(r.array) + off);
        }
        let addr = self.mem.base(r.array) + off;
        let craft = self.craft_cost[r.array.index()];
        self.backend_read(pe, r.id, addr, craft)
    }

    /// BASE-scheme shared read. `craft` is the array's CRAFT local-access
    /// overhead. Shared by the tree walker and the compiled trace.
    pub(crate) fn base_read(&mut self, pe: usize, rid: RefId, addr: usize, craft: u64) -> f64 {
        self.audit_touch(pe, addr, false);
        let local = self.mem.owner(addr) == pe;
        if local {
            // The T3D caches all local memory; CRAFT pays only the
            // distribution index arithmetic on top.
            self.charge(pe, CycleCategory::CraftOverhead, craft);
            self.cached_read(pe, rid, addr, Handling::Normal)
        } else {
            // Remote shared data is never cached under CRAFT.
            let lat = self.cfg.remote_uncached;
            self.charge(pe, CycleCategory::CraftOverhead, self.cfg.craft_remote);
            self.charge(pe, CycleCategory::UncachedRead, lat);
            let p = &mut self.pes[pe];
            p.stats.mem_stall_cycles += lat;
            p.stats.uncached_reads += 1;
            self.trace_event(pe, TraceEventKind::UncachedRead, addr);
            self.mem.read_shared(addr).0
        }
    }

    /// CCDP `Bypass` read: always reads main memory, never the cache.
    /// Shared by the tree walker and the compiled trace.
    pub(crate) fn bypass_read(&mut self, pe: usize, addr: usize) -> f64 {
        self.audit_touch(pe, addr, false);
        let local = self.mem.owner(addr) == pe;
        let lat = if local { self.cfg.local_uncached } else { self.cfg.remote_uncached };
        self.charge(pe, CycleCategory::BypassRead, lat);
        let p = &mut self.pes[pe];
        p.stats.mem_stall_cycles += lat;
        p.stats.bypass_reads += 1;
        self.trace_event(pe, TraceEventKind::BypassRead, addr);
        self.mem.read_shared(addr).0
    }

    pub(crate) fn cached_read(&mut self, pe: usize, rid: RefId, addr: usize, h: Handling) -> f64 {
        // Touched even on a cache hit: the hit path's oracle check reads
        // the word's *current* memory version, so a hit on a line another
        // block is writing is a real cross-block interaction.
        self.audit_touch(pe, addr, false);
        let phase = self.phase;
        if h == Handling::Fresh {
            self.pes[pe].stats.fresh_reads += 1;
        }
        if let Some(hit) = self.pes[pe].cache.lookup(addr) {
            let fresh_ok = h != Handling::Fresh || hit.filled_phase == phase;
            if fresh_ok {
                // Prefetch quality accounting: was this served by data a
                // prefetch moved, and is this the first touch of the word?
                if self.pes[pe].cache.is_prefetched(hit.line) {
                    let p = &mut self.pes[pe];
                    p.stats.prefetched_line_hits += 1;
                    if p.cache.mark_used(hit.line, addr) {
                        p.stats.prefetch_words_used += 1;
                    }
                    if h == Handling::Fresh {
                        p.stats.fresh_hits_prefetched += 1;
                    }
                }
                let now = self.pes[pe].now;
                if hit.ready_at > now {
                    let wait = hit.ready_at - now;
                    let p = &mut self.pes[pe];
                    p.stats.prefetch_late += 1;
                    p.stats.mem_stall_cycles += wait + self.cfg.queue_pop;
                    self.charge(pe, CycleCategory::PrefetchWait, wait);
                    self.charge(pe, CycleCategory::QueuePop, self.cfg.queue_pop);
                    self.trace_event(pe, TraceEventKind::PrefetchWait, addr);
                } else {
                    self.charge(pe, CycleCategory::CacheHit, self.cfg.cache_hit);
                    self.trace_event(pe, TraceEventKind::CacheHit, addr);
                }
                let p = &mut self.pes[pe];
                p.stats.cache_hits += 1;
                let (v, ver) = p.cache.read(hit.line, addr);
                self.oracle_check(pe, rid, addr, ver);
                return v;
            }
            // Fresh read over an old-phase line: coherent re-fetch.
            self.pes[pe].stats.refresh_fills += 1;
        }
        // Miss (or refresh): fill from memory — or from the local staging
        // buffer when a vector prefetch already moved the line over.
        let line_base = self.pes[pe].cache.line_base(addr);
        let line_id = self.pes[pe].cache.line_addr(addr);
        let local = self.mem.owner(addr) == pe;
        let staged = !local && self.pes[pe].is_staged(phase, line_id);
        let base_lat = if local || staged { self.cfg.local_fill } else { self.cfg.remote_fill };
        // Fault injection: latency spikes stall demand fills on the remote
        // path, and a demand fill of a line whose prefetch was faulted is
        // the graceful-degradation fallback the invariant relies on.
        let mut lat = base_lat;
        let mut fallback = false;
        if let Some(f) = self.faults.as_mut() {
            if !local && !staged {
                lat = base_lat * f.fill_multiplier(pe);
            }
            fallback = f.take_fallback(pe, line_id);
        }
        if lat > base_lat {
            let fs = &mut self.pes[pe].stats.faults;
            fs.fills_delayed += 1;
            fs.delay_extra_cycles += lat - base_lat;
        }
        if fallback {
            self.pes[pe].stats.faults.demand_fallbacks += 1;
            self.trace_event(pe, TraceEventKind::FaultFallback, addr);
        }
        let (cat, ev) = if local {
            (CycleCategory::LocalFill, TraceEventKind::LocalFill)
        } else if staged {
            (CycleCategory::StagedFill, TraceEventKind::StagedFill)
        } else {
            (CycleCategory::RemoteFill, TraceEventKind::RemoteFill)
        };
        self.charge(pe, cat, lat);
        self.trace_event(pe, ev, addr);
        let lw = self.cfg.line_words;
        let shared_words = self.mem.shared_words();
        {
            let mem = &self.mem;
            let words = (0..lw).map(|k| {
                let a = line_base + k;
                if a < shared_words {
                    mem.read_shared(a)
                } else {
                    (0.0, 0)
                }
            });
            let p = &mut self.pes[pe];
            p.stats.mem_stall_cycles += lat;
            if local {
                p.stats.local_fills += 1;
            } else if staged {
                p.stats.staged_fills += 1;
            } else {
                p.stats.remote_fills += 1;
            }
            let now = p.now;
            p.cache.install(addr, phase, now, words);
        }
        self.mem.read_shared(addr).0
    }

    fn exec_write(&mut self, pe: usize, w: &'p ArrayRef, v: f64) {
        let off = self.addr_of(w.array, &w.index);
        if !self.mem.is_shared(w.array) {
            self.charge(pe, CycleCategory::WriteLocal, self.cfg.write_local);
            self.mem.write_private(pe, self.mem.base(w.array) + off, v);
            return;
        }
        let addr = self.mem.base(w.array) + off;
        self.backend_write(pe, addr, self.craft_cost[w.array.index()], v);
    }

    /// Feed one consumed cached read to the coherence oracle: reading a
    /// word older than main memory is a stale-read violation (and the stale
    /// value really is returned by the caller).
    pub(crate) fn oracle_check(&mut self, pe: usize, rid: RefId, addr: usize, cached_version: u32) {
        let mem_ver = self.mem.version(addr);
        if cached_version < mem_ver {
            self.oracle.stale_reads += 1;
            if self.oracle.examples.len() < self.opts.oracle_examples {
                self.oracle.examples.push(StaleReadExample {
                    reference: rid,
                    pe,
                    addr,
                    cached_version,
                    memory_version: mem_ver,
                    phase: self.phase,
                });
            }
        }
    }

    // -- hardware-backend primitives ---------------------------------------
    //
    // The MESI/Dragon backends compose these: a plain cache hit (no
    // prefetch machinery — hardware schemes never prefetch), a demand fill
    // with the fault-injection latency hook, and a write-through store
    // without the software schemes' owner-cache patching (the protocol
    // keeps remote copies coherent itself).

    /// Hardware-scheme cache hit: charge, trace, count, oracle-check.
    pub(crate) fn hw_cached_hit(&mut self, pe: usize, rid: RefId, addr: usize, hit: Hit) -> f64 {
        self.charge(pe, CycleCategory::CacheHit, self.cfg.cache_hit);
        self.trace_event(pe, TraceEventKind::CacheHit, addr);
        let p = &mut self.pes[pe];
        p.stats.cache_hits += 1;
        let (v, ver) = p.cache.read(hit.line, addr);
        self.oracle_check(pe, rid, addr, ver);
        v
    }

    /// Hardware-scheme demand fill: fetch `addr`'s line from its home
    /// memory into `pe`'s cache (write-allocate on both reads and writes).
    /// Injected latency spikes stretch remote fills through the same
    /// `fill_multiplier` hook as the software schemes.
    pub(crate) fn hw_fill(&mut self, pe: usize, addr: usize) {
        let local = self.mem.owner(addr) == pe;
        let base_lat = if local { self.cfg.local_fill } else { self.cfg.remote_fill };
        let mut lat = base_lat;
        if let Some(f) = self.faults.as_mut() {
            if !local {
                lat = base_lat * f.fill_multiplier(pe);
            }
        }
        if lat > base_lat {
            let fs = &mut self.pes[pe].stats.faults;
            fs.fills_delayed += 1;
            fs.delay_extra_cycles += lat - base_lat;
        }
        let (cat, ev) = if local {
            (CycleCategory::LocalFill, TraceEventKind::LocalFill)
        } else {
            (CycleCategory::RemoteFill, TraceEventKind::RemoteFill)
        };
        self.charge(pe, cat, lat);
        self.trace_event(pe, ev, addr);
        let line_base = self.pes[pe].cache.line_base(addr);
        let lw = self.cfg.line_words;
        let shared_words = self.mem.shared_words();
        let phase = self.phase;
        let mem = &self.mem;
        let words = (0..lw).map(|k| {
            let a = line_base + k;
            if a < shared_words {
                mem.read_shared(a)
            } else {
                (0.0, 0)
            }
        });
        let p = &mut self.pes[pe];
        p.stats.mem_stall_cycles += lat;
        if local {
            p.stats.local_fills += 1;
        } else {
            p.stats.remote_fills += 1;
        }
        let now = p.now;
        p.cache.install(addr, phase, now, words);
    }

    /// Hardware-scheme store: write-through to home memory (bumping the
    /// word's version) and patch the writer's own cached copy. Remote
    /// copies are the protocol's problem — the backend invalidates (MESI)
    /// or updates (Dragon) them around this call. Returns the word's new
    /// memory version (Dragon patches sharers with it).
    pub(crate) fn hw_store(&mut self, pe: usize, addr: usize, v: f64) -> u32 {
        let local = self.mem.owner(addr) == pe;
        let ver = self.mem.write_shared(addr, v);
        let lat = if local { self.cfg.write_local } else { self.cfg.write_remote };
        let (cat, ev) = if local {
            (CycleCategory::WriteLocal, TraceEventKind::WriteLocal)
        } else {
            (CycleCategory::WriteRemote, TraceEventKind::WriteRemote)
        };
        self.charge(pe, cat, lat);
        self.trace_event(pe, ev, addr);
        let p = &mut self.pes[pe];
        if local {
            p.stats.writes_local += 1;
        } else {
            p.stats.writes_remote += 1;
        }
        p.cache.update_word(addr, v, ver);
        ver
    }

    /// Shared-array store. `craft_local` is the array's CRAFT local-access
    /// overhead (consulted only under the BASE scheme). Shared by the tree
    /// walker and the compiled trace.
    pub(crate) fn write_shared_addr(&mut self, pe: usize, addr: usize, craft_local: u64, v: f64) {
        self.note_write(pe, addr);
        let owner = self.mem.owner(addr);
        let local = owner == pe;
        let ver = self.mem.write_shared(addr, v);
        let craft = match self.scheme {
            Scheme::Base => {
                if local {
                    craft_local
                } else {
                    self.cfg.craft_remote
                }
            }
            _ => 0,
        };
        let lat = if local { self.cfg.write_local } else { self.cfg.write_remote };
        self.charge(pe, CycleCategory::CraftOverhead, craft);
        let (cat, ev) = if local {
            (CycleCategory::WriteLocal, TraceEventKind::WriteLocal)
        } else {
            (CycleCategory::WriteRemote, TraceEventKind::WriteRemote)
        };
        self.charge(pe, cat, lat);
        self.trace_event(pe, ev, addr);
        {
            let p = &mut self.pes[pe];
            if local {
                p.stats.writes_local += 1;
            } else {
                p.stats.writes_remote += 1;
            }
        }
        // Hardware keeps the *owner's* cache consistent with its own memory
        // (incoming remote stores update/invalidate the owner's line), and
        // the writer's own cached copy is updated write-through. Copies on
        // third-party PEs are NOT updated — that is the coherence problem.
        if !matches!(self.scheme, Scheme::Base) || local {
            self.pes[pe].cache.update_word(addr, v, ver);
        }
        if self.shard.as_ref().is_some_and(|s| !s.contains(owner)) {
            // The owner runs in another shard block; its cache is patched
            // with the word's final state at the merge barrier.
        } else {
            self.pes[owner].cache.update_word(addr, v, ver);
        }
    }

    // -- prefetch operations ----------------------------------------------

    fn issue_line_prefetch(&mut self, pe: usize, array: ArrayId, index: &[Affine]) {
        let off = self.addr_of(array, index);
        if !self.mem.is_shared(array) {
            return; // prefetching private data is a no-op
        }
        let addr = self.mem.base(array) + off;
        let owner = self.mem.owner(addr);
        let annex = self.pes[pe].annex_cost(owner, &self.cfg);
        let issue = self.cfg.prefetch_issue + annex;
        self.charge(pe, CycleCategory::PrefetchIssue, issue);
        self.pes[pe].stats.prefetch_cycles += issue;
        // Fault injection: the issue cycles above are already charged; a
        // dropped prefetch costs its issue but never delivers data.
        let line_id = self.pes[pe].cache.line_addr(addr);
        let epoch = self.cur_epoch_id;
        let mut qw = self.cfg.queue_words;
        let mut mult = 1u64;
        let mut inj_dropped = false;
        let mut storm_began = false;
        if let Some(f) = self.faults.as_mut() {
            if f.should_drop(pe, epoch) {
                f.note_faulted(pe, line_id);
                inj_dropped = true;
            } else {
                let (cap, began) = f.effective_queue(pe, qw);
                qw = cap;
                storm_began = began;
                if owner != pe {
                    mult = f.fill_multiplier(pe);
                }
            }
        }
        if inj_dropped {
            self.pes[pe].stats.faults.prefetches_dropped += 1;
            self.trace_event(pe, TraceEventKind::FaultDrop, addr);
            return;
        }
        if storm_began {
            self.pes[pe].stats.faults.queue_storms += 1;
        }
        let base_lat = if owner == pe { self.cfg.local_fill } else { self.cfg.remote_fill };
        let lat = base_lat * mult;
        if mult > 1 {
            // A latency spike on a prefetch is not a PE stall — it only
            // pushes the arrival time out (possibly into a PrefetchWait).
            let fs = &mut self.pes[pe].stats.faults;
            fs.fills_delayed += 1;
            fs.delay_extra_cycles += lat - base_lat;
        }
        let ready = self.pes[pe].now + lat;
        let lw = self.cfg.line_words;
        if !self.pes[pe].queue_reserve(lw, ready, qw) {
            self.pes[pe].stats.line_prefetches_dropped += 1;
            if qw < self.cfg.queue_words {
                // Lost to injected capacity shrink / overflow storm rather
                // than natural queue pressure.
                self.pes[pe].stats.faults.storm_drops += 1;
                if let Some(f) = self.faults.as_mut() {
                    f.note_faulted(pe, line_id);
                }
            }
            self.trace_event(pe, TraceEventKind::PrefetchDropped, addr);
            return;
        }
        self.audit_touch(pe, addr, false);
        let line_base = self.pes[pe].cache.line_base(addr);
        let shared_words = self.mem.shared_words();
        {
            let mem = &self.mem;
            let words = (0..lw).map(|k| {
                let a = line_base + k;
                if a < shared_words {
                    mem.read_shared(a)
                } else {
                    (0.0, 0)
                }
            });
            let phase = self.phase;
            let p = &mut self.pes[pe];
            p.cache.install_prefetch(addr, phase, ready, words);
            p.stats.line_prefetches_issued += 1;
            p.stats.prefetch_words_issued += lw as u64;
        }
        self.trace_event(pe, TraceEventKind::LinePrefetch, addr);
        // Early-eviction injection: the line arrived, but a conflict kicks
        // it out before its first use. A successful (surviving) install
        // masks any fault recorded for the line earlier.
        let mut evict = false;
        if let Some(f) = self.faults.as_mut() {
            if f.should_evict(pe) {
                f.note_faulted(pe, line_id);
                evict = true;
            } else {
                f.clear_faulted(pe, line_id);
            }
        }
        if evict {
            self.pes[pe].cache.invalidate(addr);
            self.pes[pe].stats.faults.early_evictions += 1;
            self.trace_event(pe, TraceEventKind::FaultEvict, addr);
        }
    }

    fn exec_prefetch(&mut self, pe: usize, pf: &'p PrefetchStmt) {
        match &pf.kind {
            PrefetchKind::Line { array, index, .. } => {
                self.issue_line_prefetch(pe, *array, index);
            }
            PrefetchKind::Vector { covers, array, over } => {
                self.exec_vector_prefetch(pe, *covers, *array, over);
            }
        }
    }

    fn exec_vector_prefetch(
        &mut self,
        pe: usize,
        covers: RefId,
        array: ArrayId,
        over: &[LoopId],
    ) {
        let Some((_, index)) = self.ref_index.get(&covers) else { return };
        let index = index.clone();
        // Iteration intervals of the pulled loops, for this PE.
        let mut intervals: Vec<(ccdp_ir::VarId, i64, i64, i64)> = Vec::new();
        for lid in over {
            let h = self.loop_headers.get(lid).expect("unknown pulled loop").clone();
            let lo = h.lo.eval(&self.env);
            let hi = h.hi.eval(&self.env);
            if lo > hi {
                return;
            }
            let (lo, hi) = match h.kind {
                LoopKind::Serial => (lo, hi),
                LoopKind::DoAllStatic => {
                    let range = match h.align {
                        Some(aid) => ccdp_dist::aligned_range_for_pe(
                            &self.layout,
                            self.program.array(aid),
                            lo,
                            hi,
                            h.step,
                            pe,
                        ),
                        None => doall_range_for_pe(lo, hi, h.step, pe, self.cfg.n_pes),
                    };
                    match range {
                        Some(r) => (r.lo, r.hi),
                        None => return,
                    }
                }
                LoopKind::DoAllDynamic { .. } => return, // never scheduled
            };
            intervals.push((h.var, lo, hi, h.step));
        }
        // Enumerate the per-dimension value lists of the target section.
        let decl = self.program.array(array);
        let mut dim_values: Vec<Vec<i64>> = Vec::with_capacity(index.len());
        let mut words = 1usize;
        for ix in &index {
            let vals = enumerate_affine(ix, &intervals, &self.env);
            words = words.saturating_mul(vals.len());
            if words > 1 << 20 {
                return; // runaway guard; scheduler caps footprints well below
            }
            dim_values.push(vals);
        }
        if words == 0 {
            return;
        }
        // Collect the distinct cache lines covered.
        let lw = self.cfg.line_words;
        let base = self.mem.base(array);
        let mut line_addrs: Vec<usize> = Vec::with_capacity(words / lw + 1);
        let mut coords = vec![0i64; dim_values.len()];
        collect_lines(&dim_values, decl, base, lw, &mut coords, 0, &mut line_addrs);
        line_addrs.sort_unstable();
        line_addrs.dedup();

        // Costs: the PE blocks for the issue; data arrives when the block
        // transfer completes.
        let issue = self.cfg.vector_issue;
        let transfer =
            self.cfg.vector_startup + words as u64 * self.cfg.vector_per_word_tenths / 10;
        self.charge(pe, CycleCategory::VectorIssue, issue);
        {
            let p = &mut self.pes[pe];
            p.stats.prefetch_cycles += issue;
            p.stats.vector_prefetches_issued += 1;
        }
        // Fault injection: one drop decision per vector statement (the whole
        // block transfer is lost, issue cycles stay charged), and latency
        // spikes stretch the transfer completion.
        let epoch = self.cur_epoch_id;
        let mut mult = 1u64;
        let mut inj_dropped = false;
        if let Some(f) = self.faults.as_mut() {
            if f.should_drop(pe, epoch) {
                for &la in &line_addrs {
                    f.note_faulted(pe, la as u64);
                }
                inj_dropped = true;
            } else {
                mult = f.fill_multiplier(pe);
            }
        }
        if inj_dropped {
            self.pes[pe].stats.faults.prefetches_dropped += 1;
            self.trace_event(
                pe,
                TraceEventKind::FaultDrop,
                line_addrs.first().map_or(0, |&la| la * lw),
            );
            return;
        }
        if mult > 1 {
            let fs = &mut self.pes[pe].stats.faults;
            fs.fills_delayed += 1;
            fs.delay_extra_cycles += transfer * (mult - 1);
        }
        self.pes[pe].stats.vector_words_moved += words as u64;
        let ready = self.pes[pe].now + transfer * mult;
        let phase = self.phase;
        let shared_words = self.mem.shared_words();
        self.pes[pe].stage_lines(phase, line_addrs.iter().map(|&la| la as u64));
        self.trace_event(
            pe,
            TraceEventKind::VectorPrefetch,
            line_addrs.first().map_or(0, |&la| la * lw),
        );
        for &la in &line_addrs {
            let line_base = la * lw;
            self.audit_touch(pe, line_base, false);
            let mem = &self.mem;
            let words_iter = (0..lw).map(|k| {
                let a = line_base + k;
                if a < shared_words {
                    mem.read_shared(a)
                } else {
                    (0.0, 0)
                }
            });
            let p = &mut self.pes[pe];
            p.cache.install_prefetch(line_base, phase, ready, words_iter);
            p.stats.prefetch_words_issued += lw as u64;
        }
        // As in the line-prefetch path: conflict pressure can evict any of
        // the freshly staged lines before first use; survivors mask any
        // earlier fault on the line.
        let mut evicted: Vec<usize> = Vec::new();
        if let Some(f) = self.faults.as_mut() {
            for &la in &line_addrs {
                if f.should_evict(pe) {
                    f.note_faulted(pe, la as u64);
                    evicted.push(la);
                } else {
                    f.clear_faulted(pe, la as u64);
                }
            }
        }
        for &la in &evicted {
            self.pes[pe].cache.invalidate(la * lw);
            self.pes[pe].stats.faults.early_evictions += 1;
            self.trace_event(pe, TraceEventKind::FaultEvict, la * lw);
        }
    }

    fn eval_cond(&self, c: &Cond) -> bool {
        match cond_core(c) {
            Cond::Cmp { lhs, op, rhs } => {
                let l = lhs.eval(&self.env);
                let r = rhs.eval(&self.env);
                match op {
                    CmpOp::Eq => l == r,
                    CmpOp::Ne => l != r,
                    CmpOp::Lt => l < r,
                    CmpOp::Le => l <= r,
                    CmpOp::Gt => l > r,
                    CmpOp::Ge => l >= r,
                }
            }
            Cond::NonAffine(_) => unreachable!("cond_core unwraps"),
        }
    }
}

/// Values an affine subscript takes over the pulled-loop intervals (other
/// variables read from `env`). Sorted ascending, deduplicated.
fn enumerate_affine(
    ix: &Affine,
    intervals: &[(ccdp_ir::VarId, i64, i64, i64)],
    env: &VarEnv,
) -> Vec<i64> {
    // Constant contribution from variables not in the intervals.
    let mut base = ix.constant_term();
    let mut ranging: Vec<(i64, i64, i64, i64)> = Vec::new(); // (coeff, lo, hi, step)
    for &(v, c) in ix.terms() {
        if let Some(&(_, lo, hi, step)) = intervals.iter().find(|(iv, ..)| *iv == v) {
            ranging.push((c, lo, hi, step));
        } else {
            base += c * env.get(v);
        }
    }
    let mut vals = vec![base];
    for (c, lo, hi, step) in ranging {
        let mut next = Vec::with_capacity(vals.len() * ((hi - lo) / step + 1) as usize);
        for v0 in vals {
            let mut v = lo;
            while v <= hi {
                next.push(v0 + c * v);
                v += step;
            }
        }
        vals = next;
    }
    vals.sort_unstable();
    vals.dedup();
    vals
}

/// Cartesian walk over the per-dim value lists, collecting line addresses.
fn collect_lines(
    dim_values: &[Vec<i64>],
    decl: &ccdp_ir::ArrayDecl,
    base: usize,
    line_words: usize,
    coords: &mut [i64],
    dim: usize,
    out: &mut Vec<usize>,
) {
    if dim == dim_values.len() {
        let mut off = 0usize;
        let mut stride = 1usize;
        for (d, &c) in coords.iter().enumerate() {
            if c < 0 || c as usize >= decl.extents[d] {
                return; // sections may over-approximate at edges; skip
            }
            off += c as usize * stride;
            stride *= decl.extents[d];
        }
        out.push((base + off) / line_words);
        return;
    }
    for &v in &dim_values[dim] {
        coords[dim] = v;
        collect_lines(dim_values, decl, base, line_words, coords, dim + 1, out);
    }
}

fn index_stmts(
    stmts: &[Stmt],
    loops: &mut HashMap<LoopId, LoopHeader>,
    refs: &mut HashMap<RefId, (ArrayId, Vec<Affine>)>,
    flops: &mut HashMap<RefId, u32>,
) {
    for s in stmts {
        match s {
            Stmt::Assign(a) => {
                for r in &a.reads {
                    refs.insert(r.id, (r.array, r.index.clone()));
                }
                flops.insert(a.write.id, a.expr.flops());
            }
            Stmt::Loop(l) => {
                loops.insert(
                    l.id,
                    LoopHeader {
                        var: l.var,
                        lo: l.lo.clone(),
                        hi: l.hi.clone(),
                        step: l.step,
                        kind: l.kind,
                        align: l.align,
                    },
                );
                index_stmts(&l.body, loops, refs, flops);
            }
            Stmt::If(i) => {
                index_stmts(&i.then_branch, loops, refs, flops);
                index_stmts(&i.else_branch, loops, refs, flops);
            }
            Stmt::Prefetch(_) => {}
        }
    }
}

#[cfg(feature = "shard-audit")]
mod audit;
#[cfg(feature = "shard-audit")]
pub use audit::{AuditConflict, ShardAudit};

#[cfg(test)]
mod tests;
