//! Static shard-independence analysis: prove, at compile time, that the
//! PE blocks of a statically scheduled DOALL touch pairwise-disjoint cache
//! lines — LazyPIM-style conflict detection, done ahead of time instead of
//! speculatively at run time. The simulator shards only epochs this pass
//! proves.
//!
//! The simulator's epoch-sharded engine executes a DOALL's PE blocks on
//! cloned state and merges them **in block order**. A merge is only unsound
//! when an *earlier* block wrote a cache line that a *later* block touched
//! (read, wrote, or prefetched): the later block's clone then missed the
//! earlier block's update that the serial schedule would have made visible.
//! (The converse — an earlier block touching a line a later block writes —
//! is harmless: the serial schedule runs blocks in ascending order too, so
//! the earlier toucher never sees the later write either.)
//!
//! This pass computes, per (epoch, PE-block partition), line-granular affine
//! footprints of every reference under the DOALL — reads and writes from the
//! statement list, plus in-body prefetch constructs — and returns one of:
//!
//! * [`ShardVerdict::Disjoint`]: no line is written by one block and touched
//!   by a later block. The engine forks/joins the blocks with no run-time
//!   check, even under cycle/step budgets (per-block budget slicing is
//!   sound when blocks are independent).
//! * [`ShardVerdict::MayConflict`]: a concrete witness — the line and the
//!   two references — where the footprints overlap. The engine runs this
//!   epoch serially.
//! * [`ShardVerdict::Unknown`]: some access cannot be bounded statically
//!   (dynamic scheduling, non-constant DOALL bounds, a guarded reference);
//!   conservative, the engine runs this epoch serially.
//!
//! Its run-time oracle is the test-only shard audit (`t3d-sim` feature
//! `shard-audit`, exercised by `tests/shard_analysis.rs`).
//!
//! # Soundness direction
//!
//! Footprints are **over**-approximations (serial and wrapper loop variables
//! use their full ranges, multi-variable subscripts widen to dense bounding
//! ranges), so `Disjoint` is a proof and `MayConflict` is only a *may*.
//! Because blocks are contiguous ascending PE ranges, disjointness at the
//! finest partition (one PE per block) implies disjointness for **every**
//! coarser contiguous partition: coarse blocks union fine ones, and every
//! fine pair across a coarse boundary is already proven disjoint. Callers
//! therefore cache one per-PE verdict per loop and reuse it at any worker
//! count.
//!
//! In-body prefetch constructs are part of the touch footprint. Line
//! prefetches contribute their own subscripts (a corrupted or moved line
//! prefetch can drag a foreign line into the block). Vector prefetches and
//! pipelined annotations target only elements of the reference they cover,
//! evaluated within the issuing PE's iteration range — prologue plus steady
//! state of a pipelined prefetch at distance `d` issue exactly the covered
//! read's elements over the loop's full range — so their footprints are
//! subsumed by the covered read's, which is collected anyway; a vector
//! prefetch whose covered read is *not* under the DOALL is refused as
//! [`ShardBlocker::OpaquePrefetch`].
//!
//! # Address model
//!
//! Line indices are computed over the simulator's shared address space:
//! shared arrays packed contiguously in `ArrayId` order, column-major
//! within each array, `line = word_address / line_words`. This mirrors
//! `t3d_sim::Memory`'s layout rule (pinned by a test in that crate).

use std::collections::BTreeMap;

use ccdp_dist::Layout;
use ccdp_ir::{
    collect_refs_in_stmts, ArrayId, ArrayRef, CollectedRef, Epoch, EpochId, EpochKind, Loop,
    LoopCtx, LoopId, LoopKind, PrefetchKind, Program, RefAccess, RefId, Sharing, Stmt,
};
use ccdp_sections::{Section, SectionSet};

use crate::access::ref_section_for_pe;

/// The three-point verdict lattice (`Disjoint` ⊑ `MayConflict` ⊑ `Unknown`,
/// from proof to no information).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardVerdict {
    /// Proven: no line written by one block is touched by a later block.
    Disjoint,
    /// A concrete overlap witness was found (may or may not manifest).
    MayConflict(ConflictWitness),
    /// Some access defeated the analysis; the blocker names the first
    /// offender in walk order.
    Unknown(ShardBlocker),
}

impl ShardVerdict {
    pub fn is_disjoint(&self) -> bool {
        matches!(self, ShardVerdict::Disjoint)
    }

    /// Stable one-word key for reports.
    pub fn key(&self) -> &'static str {
        match self {
            ShardVerdict::Disjoint => "disjoint",
            ShardVerdict::MayConflict(_) => "may_conflict",
            ShardVerdict::Unknown(_) => "unknown",
        }
    }
}

/// Witness of a potential cross-block conflict: the smallest shared-space
/// line index in the first overlapping (writer, toucher) block pair, plus
/// the lowest-`seq` write/touch references mapping to that line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConflictWitness {
    pub array: ArrayId,
    /// Line index in the shared address space (`word_addr / line_words`).
    pub line: u64,
    /// The writing reference in the earlier block.
    pub write: RefId,
    /// The touching (read/write/prefetch) reference in the later block.
    pub touch: RefId,
    /// `(writer_block, toucher_block)` indices into the partition.
    pub blocks: (usize, usize),
}

/// Why the analysis answered [`ShardVerdict::Unknown`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardBlocker {
    /// The DOALL (or an enclosing/inner loop of some reference) is
    /// dynamically scheduled: the iteration→PE map is a run-time decision.
    DynamicSchedule { l: LoopId },
    /// The DOALL bounds are not compile-time constants, so the per-PE
    /// iteration shares are unknown.
    NonConstantBounds { l: LoopId },
    /// The reference sits under a branch inside the epoch: whether it
    /// executes is not decidable here.
    Guarded { rid: RefId },
    /// An in-body vector prefetch covers a reference that is not under the
    /// DOALL, so its footprint cannot be tied to a collected read.
    OpaquePrefetch { rid: RefId },
}

impl ShardBlocker {
    /// The reference the blocker is anchored to, when there is one.
    pub fn rid(&self) -> Option<RefId> {
        match self {
            ShardBlocker::Guarded { rid } | ShardBlocker::OpaquePrefetch { rid } => Some(*rid),
            _ => None,
        }
    }

    pub fn describe(&self) -> String {
        match self {
            ShardBlocker::DynamicSchedule { l } => {
                format!("loop #{} is dynamically scheduled", l.index())
            }
            ShardBlocker::NonConstantBounds { l } => {
                format!("DOALL #{} has non-constant bounds", l.index())
            }
            ShardBlocker::Guarded { rid } => {
                format!("ref #{} is guarded by a branch", rid.index())
            }
            ShardBlocker::OpaquePrefetch { rid } => {
                format!("vector prefetch covering ref #{} has no in-DOALL read", rid.index())
            }
        }
    }
}

/// Verdict for one epoch's DOALL, as produced by [`shard_scan`].
#[derive(Clone, Debug)]
pub struct DoallVerdict {
    pub epoch: EpochId,
    pub label: String,
    pub doall: LoopId,
    pub verdict: ShardVerdict,
}

/// Base word address of a shared array in the simulator's packed shared
/// space (`None` for private arrays). Mirrors `t3d_sim::Memory::new`.
pub fn shared_base_words(program: &Program, array: ArrayId) -> Option<usize> {
    if program.array(array).sharing != Sharing::Shared {
        return None;
    }
    let mut base = 0usize;
    for a in &program.arrays {
        if a.id == array {
            return Some(base);
        }
        if a.sharing == Sharing::Shared {
            base += a.len();
        }
    }
    None
}

/// One reference participating in the footprint: the collected context plus
/// whether it writes (writes also touch).
struct ShardRef {
    cr: CollectedRef,
    write: bool,
}

/// Collect every footprint-relevant reference under the target DOALL:
/// assignment reads/writes plus in-body line prefetches (as touches).
/// Returns the blocker defeating the analysis, if any, preferring the first
/// in walk order.
fn collect_shard_refs(
    epoch: &Epoch,
    doall: LoopId,
) -> Result<Vec<ShardRef>, ShardBlocker> {
    // Data references come from the shared walker so `seq` ordering matches
    // every other analysis; prefetch statements need a dedicated walk.
    let mut out: Vec<ShardRef> = Vec::new();
    for cr in collect_refs_in_stmts(&epoch.stmts) {
        if !cr.loops.iter().any(|l| l.id == doall) {
            // Assignments outside the DOALL of a parallel epoch are not
            // executable by the engine's wrapper semantics; be conservative
            // if one ever appears.
            return Err(ShardBlocker::Guarded { rid: cr.r.id });
        }
        if cr.under_if {
            return Err(ShardBlocker::Guarded { rid: cr.r.id });
        }
        if let Some(l) = cr.loops.iter().find(|l| matches!(l.kind, LoopKind::DoAllDynamic { .. }))
        {
            return Err(ShardBlocker::DynamicSchedule { l: l.id });
        }
        let write = cr.access == RefAccess::Write;
        out.push(ShardRef { cr, write });
    }

    // In-body prefetch constructs. Line prefetches become touch pseudo-refs
    // with their own subscripts; vector prefetches must cover a collected
    // in-DOALL read (whose footprint subsumes theirs).
    struct PfWalk {
        chain: Vec<LoopCtx>,
        in_target: bool,
        under_if: bool,
        doall: LoopId,
        lines: Vec<(ArrayRef, Vec<LoopCtx>, bool)>,
        vectors: Vec<RefId>,
    }
    fn body_has_loop(stmts: &[Stmt]) -> bool {
        stmts.iter().any(|s| match s {
            Stmt::Loop(_) => true,
            Stmt::If(i) => body_has_loop(&i.then_branch) || body_has_loop(&i.else_branch),
            _ => false,
        })
    }
    fn walk(w: &mut PfWalk, stmts: &[Stmt]) {
        for s in stmts {
            match s {
                Stmt::Prefetch(pf) if w.in_target => match &pf.kind {
                    PrefetchKind::Line { covers, array, index } => {
                        w.lines.push((
                            ArrayRef { id: *covers, array: *array, index: index.clone() },
                            w.chain.clone(),
                            w.under_if,
                        ));
                    }
                    PrefetchKind::Vector { covers, .. } => w.vectors.push(*covers),
                },
                Stmt::Loop(l) => {
                    w.chain.push(LoopCtx {
                        id: l.id,
                        var: l.var,
                        lo: l.lo.clone(),
                        hi: l.hi.clone(),
                        step: l.step,
                        kind: l.kind,
                        align: l.align,
                        is_innermost: !body_has_loop(&l.body),
                    });
                    let entered = l.id == w.doall;
                    if entered {
                        w.in_target = true;
                    }
                    walk(w, &l.body);
                    if entered {
                        w.in_target = false;
                    }
                    w.chain.pop();
                }
                Stmt::If(i) => {
                    let saved = w.under_if;
                    w.under_if = true;
                    walk(w, &i.then_branch);
                    walk(w, &i.else_branch);
                    w.under_if = saved;
                }
                _ => {}
            }
        }
    }
    let mut w = PfWalk {
        chain: Vec::new(),
        in_target: false,
        under_if: false,
        doall,
        lines: Vec::new(),
        vectors: Vec::new(),
    };
    walk(&mut w, &epoch.stmts);

    let next_seq = out.iter().map(|r| r.cr.seq + 1).max().unwrap_or(0);
    for (k, (r, chain, under_if)) in w.lines.into_iter().enumerate() {
        if under_if {
            return Err(ShardBlocker::Guarded { rid: r.id });
        }
        // A prefetch subscript mentioning a variable outside its chain can
        // not be intervalled — refuse rather than guess.
        let chain_vars: Vec<_> = chain.iter().map(|l| l.var).collect();
        if r.index.iter().any(|a| a.vars().any(|v| !chain_vars.contains(&v))) {
            return Err(ShardBlocker::OpaquePrefetch { rid: r.id });
        }
        out.push(ShardRef {
            cr: CollectedRef {
                r,
                access: RefAccess::Read,
                loops: chain,
                under_if: false,
                under_nonaffine_if: false,
                seq: next_seq + k as u32,
            },
            write: false,
        });
    }
    for covers in w.vectors {
        let covered_in_doall = out
            .iter()
            .any(|sr| !sr.write && sr.cr.r.id == covers);
        if !covered_in_doall {
            return Err(ShardBlocker::OpaquePrefetch { rid: covers });
        }
    }
    Ok(out)
}

/// Insert every line a section maps to, keeping the lowest-`seq` reference
/// per line (for deterministic witnesses).
fn add_section_lines(
    map: &mut BTreeMap<u64, (u32, RefId)>,
    sec: &Section,
    strides: &[usize],
    base: usize,
    line_words: u64,
    seq: u32,
    rid: RefId,
) {
    if sec.is_empty() {
        return;
    }
    let dims = sec.dims();
    // Enumerate coordinates of dims[1..]; dim 0 maps to a contiguous (or
    // strided) run of addresses inside the enumeration's base offset.
    let mut insert = |line: u64| {
        let e = map.entry(line).or_insert((seq, rid));
        if seq < e.0 {
            *e = (seq, rid);
        }
    };
    let mut outer: Vec<i64> = Vec::new();
    fn rec(
        d: usize,
        dims: &[ccdp_sections::Range],
        strides: &[usize],
        base: usize,
        line_words: u64,
        outer: &mut Vec<i64>,
        insert: &mut impl FnMut(u64),
    ) {
        if d == 0 {
            let off: i64 = outer
                .iter()
                .zip(&strides[1..])
                .map(|(&c, &s)| c * s as i64)
                .sum::<i64>()
                + base as i64;
            let r0 = &dims[0];
            let (Some(lo), Some(hi)) = (r0.lo(), r0.hi()) else { return };
            if r0.stride() == 1 {
                let first = (off + lo) as u64 / line_words;
                let last = (off + hi) as u64 / line_words;
                for line in first..=last {
                    insert(line);
                }
            } else {
                for v in r0.iter() {
                    insert((off + v) as u64 / line_words);
                }
            }
            return;
        }
        for v in dims[d].iter() {
            outer.push(v);
            rec(d - 1, dims, strides, base, line_words, outer, insert);
            outer.pop();
        }
    }
    rec(dims.len() - 1, dims, strides, base, line_words, &mut outer, &mut insert);
}

#[allow(clippy::too_many_arguments)] // internal helper mirroring add_section_lines
fn add_set_lines(
    map: &mut BTreeMap<u64, (u32, RefId)>,
    set: &SectionSet,
    decl_extents: &[usize],
    strides: &[usize],
    base: usize,
    line_words: u64,
    seq: u32,
    rid: RefId,
) {
    if set.is_top() {
        // Whole array (should not occur for validated programs; stay sound).
        add_section_lines(
            map,
            &Section::whole(decl_extents),
            strides,
            base,
            line_words,
            seq,
            rid,
        );
        return;
    }
    for part in set.parts() {
        add_section_lines(map, part, strides, base, line_words, seq, rid);
    }
}

/// Locate a loop by id anywhere in a statement list.
fn find_loop(stmts: &[Stmt], id: LoopId) -> Option<&Loop> {
    for s in stmts {
        match s {
            Stmt::Loop(l) => {
                if l.id == id {
                    return Some(l);
                }
                if let Some(f) = find_loop(&l.body, id) {
                    return Some(f);
                }
            }
            Stmt::If(i) => {
                if let Some(f) =
                    find_loop(&i.then_branch, id).or_else(|| find_loop(&i.else_branch, id))
                {
                    return Some(f);
                }
            }
            _ => {}
        }
    }
    None
}

/// Shard-independence verdict for one DOALL under an explicit contiguous
/// block partition (`blocks[k] = (lo_pe, hi_pe)`, ascending, half-open).
pub fn shard_verdict_partition(
    program: &Program,
    layout: &Layout,
    epoch: &Epoch,
    doall: LoopId,
    line_words: usize,
    blocks: &[(usize, usize)],
) -> ShardVerdict {
    debug_assert!(line_words >= 1);
    let Some(d) = find_loop(&epoch.stmts, doall) else {
        return ShardVerdict::Unknown(ShardBlocker::NonConstantBounds { l: doall });
    };
    if let LoopKind::DoAllDynamic { .. } = d.kind {
        return ShardVerdict::Unknown(ShardBlocker::DynamicSchedule { l: doall });
    }
    if d.lo.as_constant().is_none() || d.hi.as_constant().is_none() {
        return ShardVerdict::Unknown(ShardBlocker::NonConstantBounds { l: doall });
    }
    let refs = match collect_shard_refs(epoch, doall) {
        Ok(r) => r,
        Err(b) => return ShardVerdict::Unknown(b),
    };

    // Only arrays with at least one write under the DOALL can conflict;
    // private arrays live in per-PE spaces and never cross blocks.
    let mut written: Vec<ArrayId> = refs
        .iter()
        .filter(|sr| sr.write && program.array(sr.cr.r.array).sharing == Sharing::Shared)
        .map(|sr| sr.cr.r.array)
        .collect();
    written.sort_by_key(|a| a.index());
    written.dedup();
    if written.is_empty() {
        return ShardVerdict::Disjoint;
    }

    let lw = line_words as u64;
    // Per written array: per-block (line -> lowest-seq ref) maps for writes
    // and touches.
    type LineMap = BTreeMap<u64, (u32, RefId)>;
    let mut w_lines: Vec<Vec<LineMap>> = vec![vec![LineMap::new(); blocks.len()]; written.len()];
    let mut t_lines: Vec<Vec<LineMap>> = vec![vec![LineMap::new(); blocks.len()]; written.len()];
    for (ai, &array) in written.iter().enumerate() {
        let decl = program.array(array);
        let strides = decl.strides();
        let base = shared_base_words(program, array)
            .expect("written shared array has a packed base");
        for sr in refs.iter().filter(|sr| sr.cr.r.array == array) {
            for (b, &(lo_pe, hi_pe)) in blocks.iter().enumerate() {
                for pe in lo_pe..hi_pe {
                    let set = ref_section_for_pe(program, layout, epoch, &sr.cr, pe);
                    if sr.write {
                        add_set_lines(
                            &mut w_lines[ai][b],
                            &set,
                            &decl.extents,
                            &strides,
                            base,
                            lw,
                            sr.cr.seq,
                            sr.cr.r.id,
                        );
                    }
                    // Writes touch too: a later block overwriting an earlier
                    // block's line diverges from the serial cache schedule.
                    add_set_lines(
                        &mut t_lines[ai][b],
                        &set,
                        &decl.extents,
                        &strides,
                        base,
                        lw,
                        sr.cr.seq,
                        sr.cr.r.id,
                    );
                }
            }
        }
    }

    // Pair scan, merge order: for each later block, any earlier block's
    // write set intersecting its touch set is a conflict. Deterministic
    // witness: first (toucher, writer) pair in (b2 asc, b1 asc, array asc)
    // order, smallest overlapping line, lowest-seq refs on that line.
    // Index loops are deliberate: the (b2 asc, b1 asc) visit order IS the
    // witness-determinism contract.
    #[allow(clippy::needless_range_loop)]
    for b2 in 1..blocks.len() {
        for b1 in 0..b2 {
            for (ai, &array) in written.iter().enumerate() {
                let (wm, tm) = (&w_lines[ai][b1], &t_lines[ai][b2]);
                if wm.is_empty() || tm.is_empty() {
                    continue;
                }
                // BTreeMap keys iterate ascending: the first shared key is
                // the smallest overlapping line.
                let (small, large, small_is_w) = if wm.len() <= tm.len() {
                    (wm, tm, true)
                } else {
                    (tm, wm, false)
                };
                for (&line, &(_, rid_s)) in small {
                    if let Some(&(_, rid_l)) = large.get(&line) {
                        let (write, touch) =
                            if small_is_w { (rid_s, rid_l) } else { (rid_l, rid_s) };
                        return ShardVerdict::MayConflict(ConflictWitness {
                            array,
                            line,
                            write,
                            touch,
                            blocks: (b1, b2),
                        });
                    }
                }
            }
        }
    }
    ShardVerdict::Disjoint
}

/// Shard-independence verdict at the finest partition: one PE per block.
/// `Disjoint` here implies disjointness for every coarser contiguous
/// ascending partition (see the module docs), so this single verdict is
/// valid at any worker count.
pub fn shard_verdict(
    program: &Program,
    layout: &Layout,
    epoch: &Epoch,
    doall: LoopId,
    line_words: usize,
) -> ShardVerdict {
    let blocks: Vec<(usize, usize)> = (0..layout.n_pes()).map(|p| (p, p + 1)).collect();
    shard_verdict_partition(program, layout, epoch, doall, line_words, &blocks)
}

/// Scan a whole program: one verdict per parallel epoch's DOALL, schedule
/// order, first occurrence per epoch id (epochs reached through several
/// call sites share one body).
pub fn shard_scan(program: &Program, layout: &Layout, line_words: usize) -> Vec<DoallVerdict> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for e in program.epochs() {
        if e.kind != EpochKind::Parallel || !seen.insert(e.id) {
            continue;
        }
        let Some((_, d)) = ccdp_ir::find_doall(&e.stmts) else { continue };
        out.push(DoallVerdict {
            epoch: e.id,
            label: e.label.clone(),
            doall: d.id,
            verdict: shard_verdict(program, layout, e, d.id, line_words),
        });
    }
    out
}

#[cfg(test)]
mod unit {
    use super::*;
    use ccdp_ir::ProgramBuilder;

    const LW: usize = 4;

    fn first_epoch(p: &Program) -> &Epoch {
        p.epochs()[0]
    }

    fn verdict_of(p: &Program, n_pes: usize) -> ShardVerdict {
        let layout = Layout::new(p, n_pes);
        let e = first_epoch(p);
        let (_, d) = ccdp_ir::find_doall(&e.stmts).expect("doall");
        shard_verdict(p, &layout, e, d.id, LW)
    }

    /// Column sweep: every PE writes and reads only its own columns.
    #[test]
    fn column_sweep_is_disjoint() {
        let n = 16i64;
        let mut pb = ProgramBuilder::new("t");
        let a = pb.shared("A", &[16, 16]);
        pb.parallel_epoch("e", |e| {
            e.doall("j", 0, n - 1, |e, j| {
                e.serial("i", 0, n - 1, |e, i| {
                    e.assign(a.at2(i, j), a.at2(i, j).rd() + 1.0);
                });
            });
        });
        let p = pb.finish().unwrap();
        for pes in [2, 4, 8] {
            assert_eq!(verdict_of(&p, pes), ShardVerdict::Disjoint, "P={pes}");
        }
    }

    /// Backward column stencil: block b reads the last column written by
    /// block b-1 — the asymmetric (earlier-write, later-touch) case.
    #[test]
    fn backward_stencil_may_conflict_with_witness() {
        let n = 16i64;
        let mut pb = ProgramBuilder::new("t");
        let a = pb.shared("A", &[16, 16]);
        pb.parallel_epoch("e", |e| {
            e.doall("j", 1, n - 1, |e, j| {
                e.serial("i", 0, n - 1, |e, i| {
                    e.assign(a.at2(i, j), a.at2(i, j - 1).rd() * 0.5);
                });
            });
        });
        let p = pb.finish().unwrap();
        let ShardVerdict::MayConflict(w) = verdict_of(&p, 4) else {
            panic!("expected MayConflict");
        };
        // Block 1's first column reads block 0's last written column.
        assert_eq!(w.blocks, (0, 1));
        // Witness is deterministic.
        let v2 = verdict_of(&p, 4);
        assert_eq!(v2, ShardVerdict::MayConflict(w));
    }

    /// Forward column stencil: block b reads *later* blocks' columns, which
    /// the merge order makes harmless — proven disjoint.
    #[test]
    fn forward_stencil_is_disjoint() {
        let n = 16i64;
        let mut pb = ProgramBuilder::new("t");
        let a = pb.shared("A", &[16, 16]);
        pb.parallel_epoch("e", |e| {
            e.doall("j", 0, n - 2, |e, j| {
                e.serial("i", 0, n - 1, |e, i| {
                    e.assign(a.at2(i, j), a.at2(i, j + 1).rd() * 0.5);
                });
            });
        });
        let p = pb.finish().unwrap();
        assert_eq!(verdict_of(&p, 4), ShardVerdict::Disjoint);
    }

    /// Row-partitioned DOALL with unaligned rows: adjacent blocks share
    /// cache lines even though elements are disjoint.
    #[test]
    fn row_partition_conflicts_at_line_granularity() {
        let n = 16i64;
        let mut pb = ProgramBuilder::new("t");
        let a = pb.shared("A", &[16, 16]);
        pb.parallel_epoch("e", |e| {
            // DOALL over the *first* (contiguous) dimension: with a 4-word
            // line and 2 rows per PE at P=8, neighbouring blocks write the
            // same lines.
            e.doall("i", 0, n - 1, |e, i| {
                e.serial("j", 0, n - 1, |e, j| {
                    e.assign(a.at2(i, j), a.at2(i, j).rd() + 1.0);
                });
            });
        });
        let p = pb.finish().unwrap();
        assert!(matches!(verdict_of(&p, 8), ShardVerdict::MayConflict(_)));
        // At element granularity (line_words = 1) the same program is
        // disjoint — the conflict is purely a line-sharing artifact.
        let layout = Layout::new(&p, 8);
        let e = first_epoch(&p);
        let (_, d) = ccdp_ir::find_doall(&e.stmts).unwrap();
        assert_eq!(shard_verdict(&p, &layout, e, d.id, 1), ShardVerdict::Disjoint);
    }

    #[test]
    fn branch_in_doall_is_unknown() {
        let n = 16i64;
        let mut pb = ProgramBuilder::new("t");
        let a = pb.shared("A", &[16, 16]);
        pb.parallel_epoch("e", |e| {
            e.doall("j", 0, n - 1, |e, j| {
                e.serial("i", 0, n - 1, |e, i| {
                    e.if_(ccdp_ir::CondB::gt(i, 3), |e| {
                        e.assign(a.at2(i, j), 1.0);
                    });
                });
            });
        });
        let p = pb.finish().unwrap();
        assert!(matches!(
            verdict_of(&p, 4),
            ShardVerdict::Unknown(ShardBlocker::Guarded { .. })
        ));
    }

    #[test]
    fn dynamic_doall_is_unknown() {
        let n = 16i64;
        let mut pb = ProgramBuilder::new("t");
        let a = pb.shared("A", &[16, 16]);
        pb.parallel_epoch("e", |e| {
            e.doall_dynamic("j", 0, n - 1, 2, |e, j| {
                e.serial("i", 0, n - 1, |e, i| {
                    e.assign(a.at2(i, j), 1.0);
                });
            });
        });
        let p = pb.finish().unwrap();
        assert!(matches!(
            verdict_of(&p, 4),
            ShardVerdict::Unknown(ShardBlocker::DynamicSchedule { .. })
        ));
    }

    /// Per-PE Disjoint must imply disjointness of every coarser contiguous
    /// partition (the property the simulator's verdict cache relies on).
    #[test]
    fn fine_disjoint_implies_coarse_disjoint() {
        let n = 16i64;
        let mut pb = ProgramBuilder::new("t");
        let a = pb.shared("A", &[16, 16]);
        pb.parallel_epoch("e", |e| {
            e.doall("j", 0, n - 1, |e, j| {
                e.serial("i", 0, n - 1, |e, i| {
                    e.assign(a.at2(i, j), a.at2(i, j).rd() + 1.0);
                });
            });
        });
        let p = pb.finish().unwrap();
        let layout = Layout::new(&p, 8);
        let e = first_epoch(&p);
        let (_, d) = ccdp_ir::find_doall(&e.stmts).unwrap();
        assert!(shard_verdict(&p, &layout, e, d.id, LW).is_disjoint());
        for blocks in [
            vec![(0usize, 4usize), (4, 8)],
            vec![(0, 2), (2, 5), (5, 8)],
            vec![(0, 8)],
        ] {
            assert!(
                shard_verdict_partition(&p, &layout, e, d.id, LW, &blocks).is_disjoint(),
                "{blocks:?}"
            );
        }
    }

    #[test]
    fn scan_covers_every_parallel_epoch_once() {
        let n = 16i64;
        let mut pb = ProgramBuilder::new("t");
        let a = pb.shared("A", &[16, 16]);
        pb.parallel_epoch("clean", |e| {
            e.doall("j", 0, n - 1, |e, j| {
                e.serial("i", 0, n - 1, |e, i| e.assign(a.at2(i, j), 1.0));
            });
        });
        pb.serial_epoch("s", |e| {
            e.serial("i", 0, n - 1, |e, i| e.assign(a.at2(i, 0), 2.0));
        });
        pb.repeat(3, |rep| {
            rep.parallel_epoch("stencil", |e| {
                e.doall("j", 1, n - 1, |e, j| {
                    e.serial("i", 0, n - 1, |e, i| {
                        e.assign(a.at2(i, j), a.at2(i, j - 1).rd());
                    });
                });
            });
        });
        let p = pb.finish().unwrap();
        let layout = Layout::new(&p, 4);
        let v = shard_scan(&p, &layout, LW);
        assert_eq!(v.len(), 2, "one verdict per parallel epoch");
        assert_eq!(v[0].label, "clean");
        assert!(v[0].verdict.is_disjoint());
        assert_eq!(v[1].label, "stencil");
        assert!(matches!(v[1].verdict, ShardVerdict::MayConflict(_)));
    }

    #[test]
    fn shared_bases_pack_in_array_id_order() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.shared("A", &[8, 8]);
        let b = pb.shared("B", &[4, 4]);
        let c = pb.shared("C", &[2]);
        pb.parallel_epoch("e", |e| {
            e.doall("j", 0, 7, |e, j| e.assign(a.at2(0, j), 1.0));
        });
        let p = pb.finish().unwrap();
        assert_eq!(shared_base_words(&p, a.id()), Some(0));
        assert_eq!(shared_base_words(&p, b.id()), Some(64));
        assert_eq!(shared_base_words(&p, c.id()), Some(80));
    }
}
