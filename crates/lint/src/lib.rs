//! `ccdp-lint`: static coherence-soundness verifier for CCDP prefetch plans.
//!
//! CCDP makes the *compiler* the coherence mechanism (paper §4), so a bug in
//! stale-reference analysis or prefetch scheduling is silently a memory-
//! consistency bug. This crate is the independent auditor: it re-derives the
//! coverage obligations from first principles
//! ([`ccdp_analysis::verify::coverage_obligations`]) and then proves, against
//! the **transformed** program and its [`PrefetchPlan`], that the plan
//! discharges every one of them:
//!
//! * every potentially-stale read is handled [`Handling::Fresh`] — with an
//!   in-phase prefetch construct that actually covers its section (placement
//!   chain, vector-length/queue hardware constraints, leader-covers-followers
//!   group-spatial containment) — or [`Handling::Bypass`];
//! * no prefetch is dead (covers nothing stale) without being accounted in
//!   `PlanStats::clean_prefetch`;
//! * `Repeat` back-edges and multi-phase cross-phase writes are honored (the
//!   obligations inherit both from the verifier's epoch data-flow);
//! * write-write overlap between PEs inside one parallel phase is flagged as
//!   a race regardless of the plan.
//!
//! Findings carry stable lint codes, severities, and source locations
//! rendered with `ir::print`'s affine formatter, in deterministic order:
//!
//! | code    | name                 | severity | meaning                            |
//! |---------|----------------------|----------|------------------------------------|
//! | CCDP001 | uncovered-stale-read | error    | stale read not Fresh+covered/Bypass|
//! | CCDP002 | dead-prefetch        | warning  | prefetch covers nothing stale      |
//! | CCDP003 | phase-race           | error    | cross-PE write overlap in one phase|
//! | CCDP004 | vpg-overflow         | error    | vector prefetch exceeds the cache  |
//! | CCDP005 | sp-queue-overflow    | error    | pipelined distance overflows queue |
//! | CCDP006 | shard-conflict       | warning  | PE blocks may share a cache line   |
//! | CCDP007 | shard-unknown        | warning  | shard footprints not statically bounded |
//!
//! CCDP006/007 come from [`verify_sharding`] — the static shard-independence
//! audit (`analysis::shard`) — not from [`verify`]: they are warnings, not
//! soundness errors, because a non-`Disjoint` epoch still executes correctly
//! (the simulator runs this epoch serially); it merely cannot be sharded
//! across threads.
//!
//! Known precision limits (documented, not bugs): CCDP003 only examines
//! writes with exact per-PE sections (PE-specific, no wrapper-loop variable,
//! at most one loop variable per subscript dimension) — bounding-box and
//! dynamically-scheduled writes are skipped rather than risk false races.
//! Prefetch placement is checked by loop-chain identity, not by statement
//! order within a block; a construct placed late in its phase still counts
//! as coverage (the `Fresh` re-fetch path keeps that case coherent, at
//! latency cost only).

use std::collections::HashMap;

use ccdp_analysis::verify::{coverage_obligations, EpochObligations, Obligations};
use ccdp_analysis::{find_uniform_groups, group_spatial};
use ccdp_dist::{doall_range_for_pe, Layout};
use ccdp_ir::{
    collect_refs_in_stmts, fmt_affine, Affine, ArrayId, ArrayRef, CollectedRef, Epoch, LoopCtx,
    LoopId, LoopKind, PrefetchKind, Program, RefAccess, RefId, Stmt,
};
use ccdp_json::{Json, ToJson};
use ccdp_prefetch::{Handling, PrefetchPlan, ScheduleOptions};

/// Severity of a finding. Only `Error` makes a plan unsound.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    Note,
    Warning,
    Error,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// Stable lint codes (see the crate docs for the table).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum LintCode {
    UncoveredStaleRead,
    DeadPrefetch,
    PhaseRace,
    VpgOverflow,
    SpQueueOverflow,
    ShardConflict,
    ShardUnknown,
}

impl LintCode {
    pub const ALL: [LintCode; 7] = [
        LintCode::UncoveredStaleRead,
        LintCode::DeadPrefetch,
        LintCode::PhaseRace,
        LintCode::VpgOverflow,
        LintCode::SpQueueOverflow,
        LintCode::ShardConflict,
        LintCode::ShardUnknown,
    ];

    pub fn code(self) -> &'static str {
        match self {
            LintCode::UncoveredStaleRead => "CCDP001",
            LintCode::DeadPrefetch => "CCDP002",
            LintCode::PhaseRace => "CCDP003",
            LintCode::VpgOverflow => "CCDP004",
            LintCode::SpQueueOverflow => "CCDP005",
            LintCode::ShardConflict => "CCDP006",
            LintCode::ShardUnknown => "CCDP007",
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            LintCode::UncoveredStaleRead => "uncovered-stale-read",
            LintCode::DeadPrefetch => "dead-prefetch",
            LintCode::PhaseRace => "phase-race",
            LintCode::VpgOverflow => "vpg-overflow",
            LintCode::SpQueueOverflow => "sp-queue-overflow",
            LintCode::ShardConflict => "shard-conflict",
            LintCode::ShardUnknown => "shard-unknown",
        }
    }

    pub fn severity(self) -> Severity {
        match self {
            LintCode::DeadPrefetch
            | LintCode::ShardConflict
            | LintCode::ShardUnknown => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

/// One diagnostic: code, severity, the epoch it concerns, the reference (if
/// any), a rendered source location, and a human-readable message.
#[derive(Clone, Debug)]
pub struct Finding {
    pub code: LintCode,
    pub severity: Severity,
    pub epoch: String,
    pub rid: Option<RefId>,
    pub location: String,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{} {}] epoch `{}`: {}: {}",
            self.severity.as_str(),
            self.code.code(),
            self.code.name(),
            self.epoch,
            self.location,
            self.message
        )
    }
}

impl Finding {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("code", self.code.code().to_json()),
            ("name", self.code.name().to_json()),
            ("severity", self.severity.as_str().to_json()),
            ("epoch", self.epoch.as_str().to_json()),
            (
                "ref",
                match self.rid {
                    Some(r) => (r.index() as u64).to_json(),
                    None => Json::Null,
                },
            ),
            ("location", self.location.as_str().to_json()),
            ("message", self.message.as_str().to_json()),
        ])
    }
}

/// The verifier's verdict over one (program, plan, layout) triple.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// Deterministic order: epochs in schedule order; within an epoch races,
    /// then uncovered reads (by `RefId`), then per-construct findings in
    /// program order; clean-prefetch accounting last.
    pub findings: Vec<Finding>,
    /// Total read obligations the plan had to discharge.
    pub n_obligations: usize,
    /// Total prefetch constructs (statements + pipeline annotations) audited.
    pub n_prefetches: usize,
}

impl LintReport {
    pub fn errors(&self) -> usize {
        self.findings.iter().filter(|f| f.severity == Severity::Error).count()
    }

    pub fn warnings(&self) -> usize {
        self.findings.iter().filter(|f| f.severity == Severity::Warning).count()
    }

    /// Sound = no error-severity finding. Warnings are advisory.
    pub fn is_sound(&self) -> bool {
        self.errors() == 0
    }

    /// All findings rendered one per line (diagnostics output of the `lint`
    /// bin and of `PipelineError::Unsound`).
    pub fn render(&self) -> String {
        self.findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("obligations", self.n_obligations.to_json()),
            ("prefetches", self.n_prefetches.to_json()),
            ("errors", self.errors().to_json()),
            ("warnings", self.warnings().to_json()),
            ("findings", Json::arr(self.findings.iter().map(Finding::to_json))),
        ])
    }
}

/// Hardware-model knobs the verifier checks constructs against. Defaults
/// match [`ScheduleOptions::default`]; when auditing a plan produced with
/// non-default options, build with [`LintOptions::from_schedule`].
#[derive(Clone, Copy, Debug)]
pub struct LintOptions {
    /// Cache line size in words (group-spatial containment).
    pub line_words: usize,
    /// Vector prefetch footprint cap in words (CCDP004).
    pub vpg_max_words: u64,
    /// Prefetch queue capacity in words (CCDP005).
    pub queue_words: usize,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions::from_schedule(&ScheduleOptions::default())
    }
}

impl LintOptions {
    pub fn from_schedule(s: &ScheduleOptions) -> Self {
        LintOptions {
            line_words: s.line_words,
            vpg_max_words: s.vpg_max_words,
            queue_words: s.queue_words,
        }
    }
}

/// One materialized prefetch with the loop context the auditor needs. For a
/// pipelined annotation the chain *includes* the annotated loop (last).
struct Construct {
    covers: RefId,
    array: ArrayId,
    kind: ConstructKind,
    chain: Vec<LoopCtx>,
}

enum ConstructKind {
    Line { index: Vec<Affine> },
    Vector { over: Vec<LoopId> },
    Pipe { index: Vec<Affine>, distance: u32, every: u32 },
}

impl Construct {
    fn describe(&self) -> &'static str {
        match self.kind {
            ConstructKind::Line { .. } => "line prefetch",
            ConstructKind::Vector { .. } => "vector prefetch",
            ConstructKind::Pipe { .. } => "pipelined prefetch",
        }
    }
}

fn body_has_loop(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Loop(_) => true,
        Stmt::If(i) => body_has_loop(&i.then_branch) || body_has_loop(&i.else_branch),
        _ => false,
    })
}

fn ctx_of(l: &ccdp_ir::Loop) -> LoopCtx {
    LoopCtx {
        id: l.id,
        var: l.var,
        lo: l.lo.clone(),
        hi: l.hi.clone(),
        step: l.step,
        kind: l.kind,
        align: l.align,
        is_innermost: !body_has_loop(&l.body),
    }
}

fn collect_constructs(stmts: &[Stmt], chain: &mut Vec<LoopCtx>, out: &mut Vec<Construct>) {
    for s in stmts {
        match s {
            Stmt::Prefetch(pf) => {
                let (covers, array, kind) = match &pf.kind {
                    PrefetchKind::Line { covers, array, index } => {
                        (*covers, *array, ConstructKind::Line { index: index.clone() })
                    }
                    PrefetchKind::Vector { covers, array, over } => {
                        (*covers, *array, ConstructKind::Vector { over: over.clone() })
                    }
                };
                out.push(Construct { covers, array, kind, chain: chain.clone() });
            }
            Stmt::Loop(l) => {
                chain.push(ctx_of(l));
                for p in &l.pipeline {
                    out.push(Construct {
                        covers: p.covers,
                        array: p.array,
                        kind: ConstructKind::Pipe {
                            index: p.index.clone(),
                            distance: p.distance,
                            every: p.every,
                        },
                        chain: chain.clone(),
                    });
                }
                collect_constructs(&l.body, chain, out);
                chain.pop();
            }
            Stmt::If(i) => {
                collect_constructs(&i.then_branch, chain, out);
                collect_constructs(&i.else_branch, chain, out);
            }
            Stmt::Assign(_) => {}
        }
    }
}

fn chain_ids(chain: &[LoopCtx]) -> Vec<LoopId> {
    chain.iter().map(|l| l.id).collect()
}

/// Does this construct's section contain the read's section, phase by phase?
///
/// * Line (moved-back): identical enclosing-loop chain and identical
///   subscripts — the prefetch touches exactly the read's element in every
///   iteration of every phase.
/// * Pipelined: annotation on the read's innermost loop, subscripts shifted
///   by exactly `coeff(var) * distance * step` in every dimension — each
///   iteration's issue covers the read `distance` iterations later.
/// * Vector: placed on the read's chain with the pulled loops (`over`,
///   innermost-first) being exactly the rest of the chain; a dynamically
///   scheduled loop in `over` makes the transfer unissuable at run time, so
///   it covers nothing.
fn construct_covers(c: &Construct, read: &CollectedRef) -> bool {
    if c.array != read.r.array {
        return false;
    }
    let read_ids = chain_ids(&read.loops);
    match &c.kind {
        ConstructKind::Line { index } => {
            chain_ids(&c.chain) == read_ids
                && index.len() == read.r.index.len()
                && index
                    .iter()
                    .zip(&read.r.index)
                    .all(|(a, b)| a.uniform_difference(b) == Some(0))
        }
        ConstructKind::Pipe { index, distance, .. } => {
            if chain_ids(&c.chain) != read_ids || *distance < 1 {
                return false;
            }
            let Some(l) = c.chain.last() else { return false };
            index.len() == read.r.index.len()
                && index.iter().zip(&read.r.index).all(|(a, b)| {
                    a.uniform_difference(b)
                        == Some(b.coeff(l.var) * *distance as i64 * l.step)
                })
        }
        ConstructKind::Vector { over } => {
            let p_ids = chain_ids(&c.chain);
            if p_ids.len() + over.len() != read_ids.len()
                || p_ids[..] != read_ids[..p_ids.len()]
            {
                return false;
            }
            // `over` is innermost-first; reversed it must be the rest of the
            // read's chain, outermost-first.
            let tail: Vec<LoopId> = over.iter().rev().copied().collect();
            if tail[..] != read_ids[p_ids.len()..] {
                return false;
            }
            read.loops[p_ids.len()..]
                .iter()
                .all(|l| !matches!(l.kind, LoopKind::DoAllDynamic { .. }))
        }
    }
}

/// Footprint in words of a vector prefetch, mirroring the scheduler's
/// `vpg_words` hardware model: pulled-loop intervals must be constant
/// (DOALLs restricted to PE 0's share — the largest block), one pulled
/// variable per dimension contributes its trip count, several contribute
/// the product. `None` when a bound is not statically known.
fn vector_footprint(
    program: &Program,
    layout: &Layout,
    read: &ArrayRef,
    over: &[LoopId],
    loop_map: &HashMap<LoopId, LoopCtx>,
) -> Option<u64> {
    let mut intervals: Vec<(ccdp_ir::VarId, i64, i64, i64)> = Vec::new();
    for lid in over {
        let l = loop_map.get(lid)?;
        let lo = l.lo.as_constant()?;
        let hi = l.hi.as_constant()?;
        if hi < lo {
            return Some(0);
        }
        let (lo, hi) = if l.kind == LoopKind::DoAllStatic {
            let r = match l.align {
                Some(aid) => ccdp_dist::aligned_range_for_pe(
                    layout,
                    program.array(aid),
                    lo,
                    hi,
                    l.step,
                    0,
                )?,
                None => doall_range_for_pe(lo, hi, l.step, 0, layout.n_pes())?,
            };
            (r.lo, r.hi)
        } else {
            (lo, hi)
        };
        intervals.push((l.var, lo, hi, l.step));
    }
    let mut words = 1u64;
    for ix in &read.index {
        let pulled: Vec<ccdp_ir::VarId> = ix
            .vars()
            .filter(|v| intervals.iter().any(|(iv, ..)| iv == v))
            .collect();
        let touched: u64 = match pulled.len() {
            0 => 1,
            _ => pulled
                .iter()
                .map(|v| {
                    let (_, lo, hi, step) =
                        *intervals.iter().find(|(iv, ..)| iv == v).unwrap();
                    ((hi - lo) / step + 1) as u64
                })
                .product(),
        };
        words = words.saturating_mul(touched);
    }
    Some(words)
}

fn render_ref(program: &Program, r: &ArrayRef) -> String {
    if r.array.index() >= program.arrays.len() {
        return format!("<unknown array #{}>", r.array.index());
    }
    let name = &program.array(r.array).name;
    let idx: Vec<String> = r.index.iter().map(|a| fmt_affine(program, a)).collect();
    format!("{}({})", name, idx.join(","))
}

fn reason_text(reason: ccdp_analysis::StaleReason) -> &'static str {
    use ccdp_analysis::StaleReason::*;
    match reason {
        ForeignWriteEarlierEpoch => "overlaps a foreign write from an earlier epoch",
        CrossPhaseSameEpoch => "overlaps a foreign write from an earlier phase of this epoch",
        Conservative => "cannot be analyzed precisely (conservatively stale)",
    }
}

/// Append the CCDP003 phase-race findings of one epoch. Plan-independent:
/// shared by [`verify`] and [`verify_hardware`].
fn push_race_findings(
    program: &Program,
    refs: &[CollectedRef],
    eo: &EpochObligations,
    findings: &mut Vec<Finding>,
) {
    for race in &eo.races {
        let loc = match (read_or_write(refs, race.writes.0), read_or_write(refs, race.writes.1)) {
            (Some(w1), Some(w2)) => {
                format!("{} / {}", render_ref(program, &w1.r), render_ref(program, &w2.r))
            }
            _ => "<unresolved writes>".to_string(),
        };
        findings.push(Finding {
            code: LintCode::PhaseRace,
            severity: LintCode::PhaseRace.severity(),
            epoch: eo.label.clone(),
            rid: Some(race.writes.0),
            location: loc,
            message: format!(
                "PEs {} and {} may write the same element inside one barrier \
                 phase; no epoch ordering separates these writes",
                race.pes.0, race.pes.1
            ),
        });
    }
}

/// Per-epoch verdict counts from a [`verify_sharding`] audit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardCounts {
    /// Parallel epochs audited (one DOALL each).
    pub doalls: usize,
    pub disjoint: usize,
    pub may_conflict: usize,
    pub unknown: usize,
}

impl ShardCounts {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("doalls", (self.doalls as u64).to_json()),
            ("disjoint", (self.disjoint as u64).to_json()),
            ("may_conflict", (self.may_conflict as u64).to_json()),
            ("unknown", (self.unknown as u64).to_json()),
        ])
    }
}

/// Static shard-independence audit (`analysis::shard`): one verdict per
/// parallel epoch's DOALL at one-PE-per-block granularity, rendered as
/// stable diagnostics — CCDP006 `shard-conflict` with the concrete witness
/// (cache line + the writing and touching references), CCDP007
/// `shard-unknown` with the blocking reference or loop. Both are
/// **warnings**: a non-`Disjoint` epoch still executes correctly — the
/// sharded engine runs this epoch serially — so `LintReport::is_sound` is
/// unaffected.
///
/// Findings are deterministic: epochs in schedule order, first occurrence
/// per epoch id, witness = smallest conflicting line of the first
/// conflicting block pair. With fewer than two PEs there is nothing to
/// shard and no findings are produced.
pub fn verify_sharding(
    program: &Program,
    layout: &Layout,
    line_words: usize,
) -> (Vec<Finding>, ShardCounts) {
    use ccdp_analysis::ShardVerdict;

    let mut counts = ShardCounts::default();
    let mut findings = Vec::new();
    if layout.n_pes() < 2 {
        return (findings, counts);
    }
    // RefId → rendered reference, for witness locations. Line-prefetch
    // pseudo-refs in the analysis carry their covered read's id, so this
    // resolves them to the covered reference.
    let mut ref_render: HashMap<RefId, String> = HashMap::new();
    for e in program.epochs() {
        for cr in collect_refs_in_stmts(&e.stmts) {
            ref_render
                .entry(cr.r.id)
                .or_insert_with(|| render_ref(program, &cr.r));
        }
    }
    let loc_of = |rid: RefId| {
        ref_render
            .get(&rid)
            .cloned()
            .unwrap_or_else(|| format!("ref #{}", rid.index()))
    };

    for dv in ccdp_analysis::shard_scan(program, layout, line_words) {
        counts.doalls += 1;
        match &dv.verdict {
            ShardVerdict::Disjoint => counts.disjoint += 1,
            ShardVerdict::MayConflict(w) => {
                counts.may_conflict += 1;
                findings.push(Finding {
                    code: LintCode::ShardConflict,
                    severity: LintCode::ShardConflict.severity(),
                    epoch: dv.label.clone(),
                    rid: Some(w.write),
                    location: format!("{} / {}", loc_of(w.write), loc_of(w.touch)),
                    message: format!(
                        "PE blocks {} and {} may share cache line {} of `{}`: \
                         the earlier block writes it, the later block touches \
                         it; the sharded engine runs this epoch serially",
                        w.blocks.0,
                        w.blocks.1,
                        w.line,
                        program.array(w.array).name,
                    ),
                });
            }
            ShardVerdict::Unknown(b) => {
                counts.unknown += 1;
                findings.push(Finding {
                    code: LintCode::ShardUnknown,
                    severity: LintCode::ShardUnknown.severity(),
                    epoch: dv.label.clone(),
                    rid: b.rid(),
                    location: b
                        .rid()
                        .map(&loc_of)
                        .unwrap_or_else(|| format!("doall #{}", dv.doall.index())),
                    message: format!(
                        "shard footprints cannot be statically bounded: {}; \
                         the sharded engine runs this epoch serially",
                        b.describe()
                    ),
                });
            }
        }
    }
    (findings, counts)
}

/// Static audit for the hardware-coherence schemes (MESI / Dragon): the
/// snooping protocol discharges every read-coverage obligation in hardware,
/// so there is no plan to check — but a write-write overlap inside one
/// barrier phase (CCDP003) is a *program* bug no coherence protocol fixes,
/// and the simulator's eager-snoop model additionally relies on its
/// absence. Runs on the **original** program (hardware schemes execute no
/// prefetch constructs); `n_obligations`/`n_prefetches` stay zero.
pub fn verify_hardware(program: &Program, layout: &Layout) -> LintReport {
    let ob: Obligations = coverage_obligations(program, layout);
    let mut report = LintReport::default();
    let mut epoch_by_id: HashMap<ccdp_ir::EpochId, &Epoch> = HashMap::new();
    for e in program.epochs() {
        epoch_by_id.entry(e.id).or_insert(e);
    }
    for eo in &ob.per_epoch {
        let Some(epoch) = epoch_by_id.get(&eo.epoch).copied() else { continue };
        let refs = collect_refs_in_stmts(&epoch.stmts);
        push_race_findings(program, &refs, eo, &mut report.findings);
    }
    report
}

/// Run the verifier: prove every obligation of `(program, layout)` is
/// discharged by `plan`. `program` must be the **transformed** program (the
/// one carrying the materialized prefetch constructs).
pub fn verify(
    program: &Program,
    plan: &PrefetchPlan,
    layout: &Layout,
    opt: &LintOptions,
) -> LintReport {
    let ob: Obligations = coverage_obligations(program, layout);
    let mut report = LintReport {
        n_obligations: ob.per_epoch.iter().map(|e| e.reads.len()).sum(),
        ..Default::default()
    };

    // Map epoch id -> &Epoch (first occurrence wins; epochs reached through
    // several call sites share one id and one body).
    let mut epoch_by_id: HashMap<ccdp_ir::EpochId, &Epoch> = HashMap::new();
    for e in program.epochs() {
        epoch_by_id.entry(e.id).or_insert(e);
    }

    // Constructs that validly cover a *clean* read, across all epochs in
    // order — compared against the plan's clean-prefetch accounting at the
    // end.
    let mut clean_covering: Vec<(String, RefId, String)> = Vec::new();

    for eo in &ob.per_epoch {
        let Some(epoch) = epoch_by_id.get(&eo.epoch).copied() else { continue };
        let refs = collect_refs_in_stmts(&epoch.stmts);
        let read_by_id: HashMap<RefId, &CollectedRef> = refs
            .iter()
            .filter(|cr| cr.access == RefAccess::Read)
            .map(|cr| (cr.r.id, cr))
            .collect();
        let obligation_of: HashMap<RefId, ccdp_analysis::StaleReason> =
            eo.reads.iter().map(|o| (o.rid, o.reason)).collect();

        let mut constructs = Vec::new();
        collect_constructs(&epoch.stmts, &mut Vec::new(), &mut constructs);
        report.n_prefetches += constructs.len();

        let mut loop_map: HashMap<LoopId, LoopCtx> = HashMap::new();
        {
            fn walk(stmts: &[Stmt], out: &mut HashMap<LoopId, LoopCtx>) {
                for s in stmts {
                    match s {
                        Stmt::Loop(l) => {
                            out.insert(l.id, ctx_of(l));
                            walk(&l.body, out);
                        }
                        Stmt::If(i) => {
                            walk(&i.then_branch, out);
                            walk(&i.else_branch, out);
                        }
                        _ => {}
                    }
                }
            }
            walk(&epoch.stmts, &mut loop_map);
        }

        // --- CCDP003: phase races (independent of the plan). ---
        push_race_findings(program, &refs, eo, &mut report.findings);

        // --- Match constructs to the reads they claim to cover. ---
        let mut covered: std::collections::HashSet<RefId> = std::collections::HashSet::new();
        let mut construct_findings: Vec<Finding> = Vec::new();
        for c in &constructs {
            let Some(read) = read_by_id.get(&c.covers) else {
                construct_findings.push(Finding {
                    code: LintCode::DeadPrefetch,
                    severity: LintCode::DeadPrefetch.severity(),
                    epoch: eo.label.clone(),
                    rid: Some(c.covers),
                    location: format!("{} for ref #{}", c.describe(), c.covers.index()),
                    message: "covers no read reference in this epoch".to_string(),
                });
                continue;
            };
            let covers = construct_covers(c, read);
            if covers {
                covered.insert(c.covers);
            }
            let is_obligation = obligation_of.contains_key(&c.covers);
            if is_obligation {
                if plan.handling_of(c.covers) == Handling::Bypass {
                    construct_findings.push(Finding {
                        code: LintCode::DeadPrefetch,
                        severity: LintCode::DeadPrefetch.severity(),
                        epoch: eo.label.clone(),
                        rid: Some(c.covers),
                        location: render_ref(program, &read.r),
                        message: format!(
                            "{} covers a read that bypasses the cache at use; the \
                             prefetched line can never be consumed",
                            c.describe()
                        ),
                    });
                }
            } else if covers {
                clean_covering.push((
                    eo.label.clone(),
                    c.covers,
                    render_ref(program, &read.r),
                ));
            } else {
                construct_findings.push(Finding {
                    code: LintCode::DeadPrefetch,
                    severity: LintCode::DeadPrefetch.severity(),
                    epoch: eo.label.clone(),
                    rid: Some(c.covers),
                    location: render_ref(program, &read.r),
                    message: format!(
                        "{} neither matches its read's section nor covers \
                         anything stale",
                        c.describe()
                    ),
                });
            }

            // --- CCDP004: vector footprint vs. the cache-size cap. ---
            if let ConstructKind::Vector { over } = &c.kind {
                match vector_footprint(program, layout, &read.r, over, &loop_map) {
                    None => construct_findings.push(Finding {
                        code: LintCode::VpgOverflow,
                        severity: LintCode::VpgOverflow.severity(),
                        epoch: eo.label.clone(),
                        rid: Some(c.covers),
                        location: render_ref(program, &read.r),
                        message: "vector prefetch footprint is not statically \
                                  bounded (non-constant pulled-loop bounds)"
                            .to_string(),
                    }),
                    Some(w) if w > opt.vpg_max_words => {
                        construct_findings.push(Finding {
                            code: LintCode::VpgOverflow,
                            severity: LintCode::VpgOverflow.severity(),
                            epoch: eo.label.clone(),
                            rid: Some(c.covers),
                            location: render_ref(program, &read.r),
                            message: format!(
                                "vector prefetch moves {w} words, exceeding the \
                                 {}-word hardware cap",
                                opt.vpg_max_words
                            ),
                        });
                    }
                    Some(_) => {}
                }
            }
        }

        // --- CCDP005: per-loop aggregate prefetch-queue occupancy. ---
        // Mirror of the scheduler's try_sp constraint: all pipelined
        // prefetches on one loop share the queue; with self-spatial cadence
        // `every`, each contributes line_words/every words per iteration,
        // and `distance` iterations are in flight.
        {
            let mut by_loop: HashMap<LoopId, Vec<&Construct>> = HashMap::new();
            for c in &constructs {
                if let ConstructKind::Pipe { .. } = c.kind {
                    if let Some(l) = c.chain.last() {
                        by_loop.entry(l.id).or_default().push(c);
                    }
                }
            }
            let mut lids: Vec<LoopId> = by_loop.keys().copied().collect();
            lids.sort();
            for lid in lids {
                let pipes = &by_loop[&lid];
                let per_iter_x16: u64 = pipes
                    .iter()
                    .map(|c| match c.kind {
                        ConstructKind::Pipe { every, .. } => {
                            16 * opt.line_words as u64 / u64::from(every.max(1))
                        }
                        _ => 0,
                    })
                    .sum();
                for c in pipes {
                    let ConstructKind::Pipe { distance, .. } = c.kind else { continue };
                    if u64::from(distance) * per_iter_x16 > 16 * opt.queue_words as u64 {
                        let loc = read_by_id
                            .get(&c.covers)
                            .map(|r| render_ref(program, &r.r))
                            .unwrap_or_else(|| format!("ref #{}", c.covers.index()));
                        construct_findings.push(Finding {
                            code: LintCode::SpQueueOverflow,
                            severity: LintCode::SpQueueOverflow.severity(),
                            epoch: eo.label.clone(),
                            rid: Some(c.covers),
                            location: loc,
                            message: format!(
                                "pipelined distance {distance} overflows the \
                                 {}-word prefetch queue shared by this loop's \
                                 prefetches",
                                opt.queue_words
                            ),
                        });
                    }
                }
            }
        }

        // --- Group-spatial containment: re-derive leader/follower groups
        //     the same way target analysis does (stale candidates in
        //     innermost loops). ---
        let mut follower_leader: HashMap<RefId, RefId> = HashMap::new();
        {
            let cands: Vec<&CollectedRef> = refs
                .iter()
                .filter(|cr| {
                    cr.access == RefAccess::Read
                        && obligation_of.contains_key(&cr.r.id)
                        && cr.in_innermost_loop()
                })
                .collect();
            for group in find_uniform_groups(&cands) {
                if let Some(gs) = group_spatial(program, &cands, &group, opt.line_words) {
                    for f in gs.followers {
                        follower_leader.insert(f, gs.leader);
                    }
                }
            }
        }

        // --- CCDP001: every obligation must be discharged. ---
        for o in &eo.reads {
            let loc = read_by_id
                .get(&o.rid)
                .map(|r| render_ref(program, &r.r))
                .unwrap_or_else(|| format!("ref #{}", o.rid.index()));
            match plan.handling_of(o.rid) {
                Handling::Bypass => {}
                Handling::Normal => report.findings.push(Finding {
                    code: LintCode::UncoveredStaleRead,
                    severity: LintCode::UncoveredStaleRead.severity(),
                    epoch: eo.label.clone(),
                    rid: Some(o.rid),
                    location: loc,
                    message: format!(
                        "read {} but is handled as a plain cached read; a stale \
                         line can be consumed",
                        reason_text(o.reason)
                    ),
                }),
                Handling::Fresh => {
                    let ok = covered.contains(&o.rid)
                        || follower_leader.get(&o.rid).is_some_and(|leader| {
                            plan.handling_of(*leader) == Handling::Fresh
                                && covered.contains(leader)
                        });
                    if !ok {
                        report.findings.push(Finding {
                            code: LintCode::UncoveredStaleRead,
                            severity: LintCode::UncoveredStaleRead.severity(),
                            epoch: eo.label.clone(),
                            rid: Some(o.rid),
                            location: loc,
                            message: format!(
                                "read {} and is marked Fresh, but no in-phase \
                                 prefetch (own or group leader's) covers its \
                                 section",
                                reason_text(o.reason)
                            ),
                        });
                    }
                }
            }
        }

        report.findings.extend(construct_findings);
    }

    // --- CCDP002 accounting: prefetches that cover only clean data must be
    //     counted as intentional clean prefetches; any excess is dead
    //     weight. ---
    if clean_covering.len() > plan.stats.clean_prefetch {
        for (epoch, rid, loc) in clean_covering.into_iter().skip(plan.stats.clean_prefetch) {
            report.findings.push(Finding {
                code: LintCode::DeadPrefetch,
                severity: LintCode::DeadPrefetch.severity(),
                epoch,
                rid: Some(rid),
                location: loc,
                message: "prefetch covers nothing stale and is not accounted as \
                          a clean prefetch"
                    .to_string(),
            });
        }
    }

    report
}

fn read_or_write(refs: &[CollectedRef], rid: RefId) -> Option<&CollectedRef> {
    refs.iter().find(|cr| cr.r.id == rid)
}

#[cfg(test)]
mod unit {
    use super::*;
    use ccdp_analysis::analyze_stale;
    use ccdp_ir::ProgramBuilder;
    use ccdp_prefetch::{plan_prefetches, TargetOptions};

    fn two_epoch_program() -> Program {
        let n = 32i64;
        let mut pb = ProgramBuilder::new("t");
        let a = pb.shared("A", &[32, 32]);
        let b = pb.shared("B", &[32, 32]);
        pb.parallel_epoch("w", |e| {
            e.doall("j", 0, n - 1, |e, j| {
                e.serial("i", 0, n - 1, |e, i| e.assign(a.at2(i, j), 1.0));
            });
        });
        pb.parallel_epoch("r", |e| {
            e.doall("j", 0, n - 1, |e, j| {
                e.serial("i", 0, n - 2, |e, i| {
                    e.assign(
                        b.at2(i, j),
                        a.at2(i, n - 1 - j).rd() + a.at2(i + 1, n - 1 - j).rd(),
                    );
                });
            });
        });
        pb.finish().unwrap()
    }

    fn compile(p: &Program, n_pes: usize) -> (Program, PrefetchPlan, Layout) {
        let layout = Layout::new(p, n_pes);
        let stale = analyze_stale(p, &layout);
        let (tp, plan) = plan_prefetches(
            p,
            &layout,
            &stale,
            &TargetOptions::default(),
            &ScheduleOptions::default(),
        );
        (tp, plan, layout)
    }

    #[test]
    fn shard_audit_emits_deterministic_ccdp006_and_007() {
        let n = 32i64;
        let mut pb = ProgramBuilder::new("t");
        let a = pb.shared("A", &[32, 32]);
        // Column stencil reading the previous block's last column: CCDP006.
        pb.parallel_epoch("stencil", |e| {
            e.doall("j", 1, n - 1, |e, j| {
                e.serial("i", 0, n - 1, |e, i| {
                    e.assign(a.at2(i, j), a.at2(i, j - 1).rd() * 0.5);
                });
            });
        });
        // Guarded write inside the DOALL: CCDP007.
        pb.parallel_epoch("guarded", |e| {
            e.doall("j", 0, n - 1, |e, j| {
                e.serial("i", 0, n - 1, |e, i| {
                    e.if_(ccdp_ir::CondB::gt(i, 3), |e| {
                        e.assign(a.at2(i, j), 2.0);
                    });
                });
            });
        });
        // Clean column sweep: no finding.
        pb.parallel_epoch("clean", |e| {
            e.doall("j", 0, n - 1, |e, j| {
                e.serial("i", 0, n - 1, |e, i| {
                    e.assign(a.at2(i, j), a.at2(i, j).rd() + 1.0);
                });
            });
        });
        let p = pb.finish().unwrap();
        let layout = Layout::new(&p, 4);
        let (findings, counts) = verify_sharding(&p, &layout, 4);
        assert_eq!(
            (counts.doalls, counts.disjoint, counts.may_conflict, counts.unknown),
            (3, 1, 1, 1)
        );
        assert_eq!(findings.len(), 2);
        assert_eq!(findings[0].code, LintCode::ShardConflict);
        assert_eq!(findings[0].code.code(), "CCDP006");
        assert_eq!(findings[0].epoch, "stencil");
        assert_eq!(findings[0].severity, Severity::Warning);
        assert_eq!(findings[1].code, LintCode::ShardUnknown);
        assert_eq!(findings[1].code.code(), "CCDP007");
        assert_eq!(findings[1].epoch, "guarded");
        // Deterministic: byte-identical renderings on a second run.
        let (again, counts2) = verify_sharding(&p, &layout, 4);
        assert_eq!(counts, counts2);
        let render = |fs: &[Finding]| {
            fs.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
        };
        assert_eq!(render(&findings), render(&again));
        // Shard warnings never flip soundness, and one PE has nothing to
        // shard.
        let rep = LintReport { findings, ..Default::default() };
        assert!(rep.is_sound());
        let (none, c1) = verify_sharding(&p, &Layout::new(&p, 1), 4);
        assert!(none.is_empty());
        assert_eq!(c1.doalls, 0);
    }

    #[test]
    fn planner_output_is_sound() {
        let p = two_epoch_program();
        for pes in [1usize, 2, 4, 8] {
            let (tp, plan, layout) = compile(&p, pes);
            let rep = verify(&tp, &plan, &layout, &LintOptions::default());
            assert!(rep.is_sound(), "P={pes}:\n{}", rep.render());
        }
    }

    #[test]
    fn flipping_a_fresh_read_to_normal_is_an_error() {
        let p = two_epoch_program();
        let (tp, mut plan, layout) = compile(&p, 4);
        let victim = plan
            .handling
            .iter()
            .position(|h| *h == Handling::Fresh)
            .expect("some read must be Fresh");
        plan.handling[victim] = Handling::Normal;
        let rep = verify(&tp, &plan, &layout, &LintOptions::default());
        assert!(!rep.is_sound());
        assert!(rep
            .findings
            .iter()
            .any(|f| f.code == LintCode::UncoveredStaleRead
                && f.rid == Some(RefId(victim as u32))));
    }

    #[test]
    fn removing_a_prefetch_statement_is_an_error() {
        let p = two_epoch_program();
        let (mut tp, plan, layout) = compile(&p, 4);
        // Drop every prefetch statement and pipeline annotation.
        fn strip(stmts: &mut Vec<Stmt>) {
            stmts.retain(|s| !matches!(s, Stmt::Prefetch(_)));
            for s in stmts {
                match s {
                    Stmt::Loop(l) => {
                        l.pipeline.clear();
                        strip(&mut l.body);
                    }
                    Stmt::If(i) => {
                        strip(&mut i.then_branch);
                        strip(&mut i.else_branch);
                    }
                    _ => {}
                }
            }
        }
        let mut stripped_any = false;
        for item in &mut tp.items {
            if let ccdp_ir::ProgramItem::Epoch(e) = item {
                strip(&mut e.stmts);
                stripped_any = true;
            } else if let ccdp_ir::ProgramItem::Repeat { body, .. } = item {
                for it in body {
                    if let ccdp_ir::ProgramItem::Epoch(e) = it {
                        strip(&mut e.stmts);
                        stripped_any = true;
                    }
                }
            }
        }
        assert!(stripped_any);
        let rep = verify(&tp, &plan, &layout, &LintOptions::default());
        assert!(!rep.is_sound(), "{}", rep.render());
        assert!(rep
            .findings
            .iter()
            .any(|f| f.code == LintCode::UncoveredStaleRead));
    }

    #[test]
    fn race_is_flagged_regardless_of_plan() {
        let mut pb = ProgramBuilder::new("race");
        let a = pb.shared("A", &[16]);
        pb.parallel_epoch("racy", |e| {
            e.doall("i", 0, 15, |e, _i| {
                e.assign(a.at1(0), 1.0);
            });
        });
        let p = pb.finish().unwrap();
        let (tp, plan, layout) = compile(&p, 4);
        let rep = verify(&tp, &plan, &layout, &LintOptions::default());
        assert!(rep.findings.iter().any(|f| f.code == LintCode::PhaseRace));
        assert!(!rep.is_sound());
    }

    /// Pinning test for the hardware-scheme audit: plan-coverage findings
    /// (CCDP001/002/004/005) never fire — MESI/Dragon need no plan — but
    /// CCDP003 phase races are still reported, identically to [`verify`].
    #[test]
    fn hardware_audit_skips_coverage_but_keeps_races() {
        // A program full of uncovered stale reads is fine under hardware
        // coherence...
        let p = two_epoch_program();
        let layout = Layout::new(&p, 4);
        let rep = verify_hardware(&p, &layout);
        assert!(rep.is_sound(), "{}", rep.render());
        assert!(rep.findings.is_empty(), "{}", rep.render());
        assert_eq!(rep.n_obligations, 0);
        assert_eq!(rep.n_prefetches, 0);
        // ...but a same-phase write-write race is a program bug under every
        // scheme, and the finding matches the plan-checking verifier's.
        let mut pb = ProgramBuilder::new("race");
        let a = pb.shared("A", &[16]);
        pb.parallel_epoch("racy", |e| {
            e.doall("i", 0, 15, |e, _i| {
                e.assign(a.at1(0), 1.0);
            });
        });
        let racy = pb.finish().unwrap();
        let (tp, plan, layout) = compile(&racy, 4);
        let hw = verify_hardware(&racy, &layout);
        assert!(!hw.is_sound());
        assert!(hw.findings.iter().all(|f| f.code == LintCode::PhaseRace));
        let sw = verify(&tp, &plan, &layout, &LintOptions::default());
        let races =
            |r: &LintReport| {
                r.findings
                    .iter()
                    .filter(|f| f.code == LintCode::PhaseRace)
                    .map(|f| (f.epoch.clone(), f.location.clone(), f.message.clone()))
                    .collect::<Vec<_>>()
            };
        assert_eq!(races(&hw), races(&sw), "race findings must match verify()'s");
    }

    #[test]
    fn single_pe_has_no_obligations() {
        let p = two_epoch_program();
        let (tp, plan, layout) = compile(&p, 1);
        let rep = verify(&tp, &plan, &layout, &LintOptions::default());
        assert_eq!(rep.n_obligations, 0);
        assert!(rep.is_sound());
        assert_eq!(rep.findings.len(), 0);
    }

    #[test]
    fn report_json_shape() {
        let p = two_epoch_program();
        let (tp, plan, layout) = compile(&p, 4);
        let rep = verify(&tp, &plan, &layout, &LintOptions::default());
        let j = rep.to_json();
        assert!(j.get("errors").and_then(Json::as_u64).is_some());
        assert!(matches!(j.get("findings"), Some(Json::Arr(_))));
    }
}
