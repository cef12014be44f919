//! Loop-body pre-compilation: the compiled-trace layer of the simulator.
//!
//! The tree-walking interpreter re-evaluates every affine subscript and
//! re-resolves every reference's scheme/handling dispatch on **every array
//! access of every iteration**. This module compiles a loop body once into a
//! flat [`CompiledBody`] in which
//!
//! * every array reference's subscript is **strength-reduced** against the
//!   enclosing loop variable: the invariant part ([`Affine::split_on`]) is
//!   evaluated once per loop entry, and the linear word offset then advances
//!   by a precomputed integer stride per iteration — no per-access affine
//!   evaluation, coordinate vector, or bounds assertion (the whole
//!   iteration range is bounds-checked once at entry; references that can
//!   leave the array — e.g. edge accesses guarded by an `If` — fall back to
//!   the per-access evaluation with its original panic behavior);
//! * each reference's [`Handling`] and scheme dispatch is resolved once into
//!   an [`AccessKind`] consumed by a branch-light execution loop
//!   (`interp.rs::exec_cstmts`);
//! * each value expression is flattened to postfix form and, when it is one
//!   of the common small shapes, **direct-threaded** into a [`FastExpr`]
//!   that evaluates as straight-line code — no opcode dispatch loop, no
//!   value stack — applying the identical `f64` operations in the identical
//!   order, so results stay bit-for-bit equal to the tree walk;
//! * per-iteration **invariant cycle charges** of pure-private straight-line
//!   bodies (cache-hit reads, local writes, FLOP work) are batched into an
//!   [`IterCharges`] record charged once per iteration — or once per loop
//!   entry, multiplied by the trip count — instead of per access.
//!
//! Compiled bodies are cached per `(loop, scheme)` — the scheme is fixed for
//! a `Simulator` instance, so the cache key degenerates to the `LoopId` —
//! and reused across epochs, `Repeat` iterations, and PEs. Execution through
//! a compiled body is **cycle-for-cycle and byte-for-byte identical** to the
//! tree walker: both paths share the same memory-operation helpers
//! (`cached_read`, `base_read`, `bypass_read`, `write_shared_addr`) and
//! charge at the same points in the same order wherever the PE clock is
//! observable. `SimOptions::force_treewalk` keeps the tree walker as a
//! reference path; the `compiled_equivalence` property test pins the two
//! paths together.

use ccdp_ir::{
    Affine, ArrayId, ArrayRef, Assign, Cond, Loop, PrefetchStmt, Program, RefId, Stmt, ValExpr,
    VarEnv, VarId,
};
use ccdp_prefetch::Handling;

use crate::config::Scheme;
use crate::mem::Memory;

/// Scheme/handling dispatch for one read, resolved at compile time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum AccessKind {
    /// Private array: always served at cache-hit cost.
    Private,
    /// BASE-scheme shared read; `craft` is the array's CRAFT local-access
    /// overhead (local vs remote is still a per-access owner lookup).
    Base { craft: u64 },
    /// Cached shared read under the plan-resolved handling
    /// (`Normal`/`Fresh`; SEQ reads are always `Normal`).
    Cached(Handling),
    /// CCDP `Bypass` uncached read.
    Bypass,
    /// Hardware-coherent shared read (MESI / Dragon): dispatched through
    /// the dynamic [`crate::coherence::CoherenceBackend`] — protocol state
    /// cannot be resolved at compile time.
    Hardware,
}

/// One compiled read reference.
#[derive(Clone, Debug)]
pub(crate) struct CRead {
    pub rid: RefId,
    /// Base word address of the array in its address space.
    pub base: usize,
    /// Index into the owning body's slot table.
    pub slot: u32,
    pub kind: AccessKind,
}

/// One compiled write reference.
#[derive(Clone, Debug)]
pub(crate) struct CWrite {
    pub base: usize,
    pub slot: u32,
    pub shared: bool,
    /// CRAFT local-access overhead of the array (BASE scheme only).
    pub craft: u64,
}

/// Strength-reduction recipe for one distinct subscript: everything needed
/// to (re)initialize its offset recurrence at a loop entry.
#[derive(Clone, Debug)]
pub(crate) struct SlotSpec<'p> {
    pub array: ArrayId,
    /// The original subscripts (slow path: per-access evaluation).
    pub index: &'p [Affine],
    /// Per-dimension invariant part (loop-variable term removed).
    inv: Vec<Affine>,
    /// Per-dimension loop-variable coefficient.
    vcoeff: Vec<i64>,
    /// Column-major strides and extents of the array.
    strides: Vec<usize>,
    extents: Vec<usize>,
}

/// Per-entry state of one slot's offset recurrence.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SlotState {
    /// Current linear word offset within the array (valid when `fast`).
    pub off: i64,
    /// Per-iteration offset increment.
    pub doff: i64,
    /// The whole iteration range was proven in-bounds at entry.
    pub fast: bool,
}

impl SlotSpec<'_> {
    /// Initialize the recurrence for a loop entry covering
    /// `v = lo, lo+step, ..., last` (callers pass the actual last iterate).
    /// `env` binds every outer variable; `v` itself is not read.
    pub fn enter(&self, env: &VarEnv, lo: i64, last: i64, step: i64) -> SlotState {
        let mut off = 0i64;
        let mut doff = 0i64;
        let mut fast = true;
        for d in 0..self.inv.len() {
            let b = self.inv[d].eval(env);
            let c0 = b + self.vcoeff[d] * lo;
            let c1 = b + self.vcoeff[d] * last;
            if c0.min(c1) < 0 || c0.max(c1) >= self.extents[d] as i64 {
                fast = false;
            }
            off += c0 * self.strides[d] as i64;
            doff += self.vcoeff[d] * step * self.strides[d] as i64;
        }
        SlotState { off, doff, fast }
    }
}

/// One operand of a shape-specialized expression (see [`FastExpr`]).
#[derive(Clone, Copy, Debug)]
pub enum Opnd {
    /// The statement's `k`-th loaded read value.
    Read(u32),
    Lit(f64),
    /// A loop variable's current value as `f64`.
    Var(VarId),
}

impl Opnd {
    #[inline]
    fn get(self, reads: &[f64], env: &VarEnv) -> f64 {
        match self {
            Opnd::Read(k) => reads[k as usize],
            Opnd::Lit(v) => v,
            Opnd::Var(v) => env.get(v) as f64,
        }
    }
}

/// A binary operator of a shape-specialized expression.
#[derive(Clone, Copy, Debug)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Min,
    Max,
}

impl BinOp {
    #[inline]
    fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
        }
    }
}

/// Direct-threaded form of the common small expression shapes. The postfix
/// stack machine is general but pays a dispatch branch, a stack store, and
/// a stack load per opcode; almost every kernel statement is one of a
/// handful of tiny shapes (`x`, `x op y`, a three-operand chain), which
/// evaluate here as straight-line code with the operands in registers.
/// Every shape applies the same `f64` operations in the same order as the
/// postfix evaluation of the same opcode sequence, so results stay
/// bit-identical; anything bigger falls back to [`FastExpr::General`].
#[derive(Clone, Copy, Debug)]
enum FastExpr {
    /// `x` — postfix `[x]`.
    Leaf(Opnd),
    /// `a op b` — postfix `[a, b, op]`.
    Bin { op: BinOp, a: Opnd, b: Opnd },
    /// `(a op1 b) op2 c` — postfix `[a, b, op1, c, op2]`.
    BinL { op1: BinOp, a: Opnd, b: Opnd, op2: BinOp, c: Opnd },
    /// `a op2 (b op1 c)` — postfix `[a, b, c, op1, op2]` (e.g. MXM's
    /// `c + a * b` multiply-accumulate).
    BinR { a: Opnd, op1: BinOp, b: Opnd, op2: BinOp, c: Opnd },
    /// No specialization: evaluate through the postfix stack machine.
    General,
}

fn opnd_of(op: EOp) -> Option<Opnd> {
    match op {
        EOp::Read(k) => Some(Opnd::Read(k)),
        EOp::Lit(v) => Some(Opnd::Lit(v)),
        EOp::Var(v) => Some(Opnd::Var(v)),
        _ => None,
    }
}

fn binop_of(op: EOp) -> Option<BinOp> {
    match op {
        EOp::Add => Some(BinOp::Add),
        EOp::Sub => Some(BinOp::Sub),
        EOp::Mul => Some(BinOp::Mul),
        EOp::Div => Some(BinOp::Div),
        EOp::Min => Some(BinOp::Min),
        EOp::Max => Some(BinOp::Max),
        _ => None,
    }
}

/// Match a postfix opcode sequence against the specialized shapes.
fn specialize(ops: &[EOp]) -> FastExpr {
    match *ops {
        [x] => {
            if let Some(x) = opnd_of(x) {
                return FastExpr::Leaf(x);
            }
        }
        [a, b, op] => {
            if let (Some(a), Some(b), Some(op)) = (opnd_of(a), opnd_of(b), binop_of(op)) {
                return FastExpr::Bin { op, a, b };
            }
        }
        [x0, x1, x2, x3, x4] => {
            if let (Some(a), Some(b), Some(op1), Some(c), Some(op2)) =
                (opnd_of(x0), opnd_of(x1), binop_of(x2), opnd_of(x3), binop_of(x4))
            {
                return FastExpr::BinL { op1, a, b, op2, c };
            }
            if let (Some(a), Some(b), Some(c), Some(op1), Some(op2)) =
                (opnd_of(x0), opnd_of(x1), opnd_of(x2), binop_of(x3), binop_of(x4))
            {
                return FastExpr::BinR { a, op1, b, op2, c };
            }
        }
        _ => {}
    }
    FastExpr::General
}

/// One opcode of a flattened value expression (postfix order).
#[derive(Clone, Copy, Debug)]
pub enum EOp {
    /// Push the statement's `k`-th loaded read value.
    Read(u32),
    /// Push a literal.
    Lit(f64),
    /// Push a loop variable's current value as `f64`.
    Var(VarId),
    Add,
    Sub,
    Mul,
    Div,
    Neg,
    Sqrt,
    Abs,
    Min,
    Max,
}

/// A [`ValExpr`] flattened to postfix form and — when it matches one of
/// the common small shapes — further specialized to a direct-threaded
/// [`FastExpr`]. The postfix opcode sequence is the tree's own evaluation
/// order, and every specialized shape applies the same operations in that
/// same order, so every path produces bit-identical results.
#[derive(Clone, Debug)]
pub struct CExpr {
    ops: Vec<EOp>,
    /// Peak stack depth of `ops` (bounds the evaluator's scratch).
    depth: usize,
    /// Shape specialization of `ops` (`General` when none applies).
    fast: FastExpr,
}

impl CExpr {
    pub fn compile(e: &ValExpr) -> CExpr {
        fn flat(e: &ValExpr, ops: &mut Vec<EOp>) {
            match e {
                ValExpr::Read(k) => ops.push(EOp::Read(*k as u32)),
                ValExpr::Lit(v) => ops.push(EOp::Lit(*v)),
                ValExpr::Var(v) => ops.push(EOp::Var(*v)),
                ValExpr::Add(a, b) => bin(a, b, EOp::Add, ops),
                ValExpr::Sub(a, b) => bin(a, b, EOp::Sub, ops),
                ValExpr::Mul(a, b) => bin(a, b, EOp::Mul, ops),
                ValExpr::Div(a, b) => bin(a, b, EOp::Div, ops),
                ValExpr::Min(a, b) => bin(a, b, EOp::Min, ops),
                ValExpr::Max(a, b) => bin(a, b, EOp::Max, ops),
                ValExpr::Neg(a) => un(a, EOp::Neg, ops),
                ValExpr::Sqrt(a) => un(a, EOp::Sqrt, ops),
                ValExpr::Abs(a) => un(a, EOp::Abs, ops),
            }
        }
        fn bin(a: &ValExpr, b: &ValExpr, op: EOp, ops: &mut Vec<EOp>) {
            flat(a, ops);
            flat(b, ops);
            ops.push(op);
        }
        fn un(a: &ValExpr, op: EOp, ops: &mut Vec<EOp>) {
            flat(a, ops);
            ops.push(op);
        }
        let mut ops = Vec::new();
        flat(e, &mut ops);
        let mut d = 0usize;
        let mut depth = 0usize;
        for op in &ops {
            match op {
                EOp::Read(_) | EOp::Lit(_) | EOp::Var(_) => {
                    d += 1;
                    depth = depth.max(d);
                }
                EOp::Neg | EOp::Sqrt | EOp::Abs => {}
                _ => d -= 1,
            }
        }
        let fast = specialize(&ops);
        CExpr { ops, depth, fast }
    }

    /// Evaluate given the loaded read values and the loop-variable
    /// environment. Matches `ValExpr::eval` bit-for-bit: specialized
    /// shapes run as straight-line code, everything else goes through
    /// [`CExpr::eval_postfix`].
    #[inline]
    pub fn eval(&self, reads: &[f64], env: &VarEnv) -> f64 {
        match self.fast {
            FastExpr::Leaf(x) => x.get(reads, env),
            FastExpr::Bin { op, a, b } => op.apply(a.get(reads, env), b.get(reads, env)),
            FastExpr::BinL { op1, a, b, op2, c } => {
                op2.apply(op1.apply(a.get(reads, env), b.get(reads, env)), c.get(reads, env))
            }
            FastExpr::BinR { a, op1, b, op2, c } => {
                op2.apply(a.get(reads, env), op1.apply(b.get(reads, env), c.get(reads, env)))
            }
            FastExpr::General => self.eval_postfix(reads, env),
        }
    }

    /// Evaluate through the postfix stack machine regardless of shape
    /// specialization. This is the reference path the `dispatch`
    /// microbench pits [`CExpr::eval`] against; `eval` itself routes here
    /// for `General` shapes.
    #[inline]
    pub fn eval_postfix(&self, reads: &[f64], env: &VarEnv) -> f64 {
        if self.depth <= FIXED_STACK {
            self.eval_on(&mut [0.0; FIXED_STACK], reads, env)
        } else {
            self.eval_on(&mut vec![0.0; self.depth], reads, env)
        }
    }

    fn eval_on(&self, stack: &mut [f64], reads: &[f64], env: &VarEnv) -> f64 {
        let mut sp = 0usize;
        macro_rules! bin {
            ($f:expr) => {{
                let b = stack[sp - 1];
                let a = stack[sp - 2];
                sp -= 1;
                stack[sp - 1] = $f(a, b);
            }};
        }
        for op in &self.ops {
            match *op {
                EOp::Read(k) => {
                    stack[sp] = reads[k as usize];
                    sp += 1;
                }
                EOp::Lit(v) => {
                    stack[sp] = v;
                    sp += 1;
                }
                EOp::Var(v) => {
                    stack[sp] = env.get(v) as f64;
                    sp += 1;
                }
                EOp::Add => bin!(|a: f64, b: f64| a + b),
                EOp::Sub => bin!(|a: f64, b: f64| a - b),
                EOp::Mul => bin!(|a: f64, b: f64| a * b),
                EOp::Div => bin!(|a: f64, b: f64| a / b),
                EOp::Min => bin!(f64::min),
                EOp::Max => bin!(f64::max),
                EOp::Neg => stack[sp - 1] = -stack[sp - 1],
                EOp::Sqrt => stack[sp - 1] = stack[sp - 1].sqrt(),
                EOp::Abs => stack[sp - 1] = stack[sp - 1].abs(),
            }
        }
        debug_assert_eq!(sp, 1, "malformed expression (validator guarantees one result)");
        stack[sp - 1]
    }
}

/// Evaluation-stack size kept on the machine stack; deeper (validator-legal
/// but unseen in practice) expressions spill to a heap allocation.
const FIXED_STACK: usize = 16;

/// Per-iteration invariant charges of a pure-private straight-line body.
/// Multiplied by the machine's unit costs (and the trip count) at charge
/// time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct IterCharges {
    /// Private reads per iteration (× `cache_hit` cycles each).
    pub reads: u64,
    /// Private writes per iteration (× `write_local` cycles each).
    pub writes: u64,
    /// Summed FLOP + extra cost cycles per iteration.
    pub fp: u64,
}

/// A compiled assignment.
#[derive(Clone, Debug)]
pub(crate) struct CAssign {
    pub write: CWrite,
    pub reads: Vec<CRead>,
    pub expr: CExpr,
    /// FpWork charge per instance: `expr.flops() + extra_cost`.
    pub cost: u64,
}

/// A compiled statement.
#[derive(Clone, Debug)]
pub(crate) enum CStmt<'p> {
    Assign(CAssign),
    If {
        cond: &'p Cond,
        then_branch: Vec<CStmt<'p>>,
        else_branch: Vec<CStmt<'p>>,
    },
    Loop(CLoop<'p>),
    /// Explicit prefetch statement (present only under CCDP; dropped at
    /// compile time for the other schemes, which ignore it).
    Prefetch(&'p PrefetchStmt),
}

/// A nested serial loop, compiled against its own variable.
#[derive(Clone, Debug)]
pub(crate) struct CLoop<'p> {
    pub l: &'p Loop,
    pub body: CompiledBody<'p>,
}

/// One loop body, compiled against the loop's variable.
#[derive(Clone, Debug)]
pub(crate) struct CompiledBody<'p> {
    pub stmts: Vec<CStmt<'p>>,
    /// Distinct `(array, subscript)` recurrences referenced by `stmts`
    /// (identical subscripts share a slot).
    pub slots: Vec<SlotSpec<'p>>,
    /// `Some` when the body is straight-line private-only code whose cycle
    /// charges can be batched per iteration (see [`IterCharges`]).
    pub batch: Option<IterCharges>,
    /// Some expression in the body reads the loop variable itself. When
    /// false (and every slot recurrence took the fast path), the batched
    /// sweep skips maintaining the variable binding entirely — the
    /// recurrences already carry all per-iteration state.
    pub uses_loop_var: bool,
}

/// Everything the compiler needs from the simulator.
pub(crate) struct CompileCtx<'a, 'p> {
    pub program: &'p Program,
    pub mem: &'a Memory,
    pub scheme: &'a Scheme,
    /// BASE-scheme CRAFT local-access overhead per array.
    pub craft_cost: &'a [u64],
}

impl CompileCtx<'_, '_> {
    fn read_kind(&self, r: &ArrayRef) -> AccessKind {
        if !self.mem.is_shared(r.array) {
            return AccessKind::Private;
        }
        match self.scheme {
            Scheme::Sequential => AccessKind::Cached(Handling::Normal),
            Scheme::Base => AccessKind::Base { craft: self.craft_cost[r.array.index()] },
            Scheme::Ccdp { plan } | Scheme::InvalidateOnly { plan } => {
                match plan.handling_of(r.id) {
                    Handling::Bypass => AccessKind::Bypass,
                    h => AccessKind::Cached(h),
                }
            }
            Scheme::Mesi | Scheme::Dragon => AccessKind::Hardware,
        }
    }
}

/// Compile a loop's body against its variable. The result is cached by the
/// simulator under the loop's id.
pub(crate) fn compile_loop<'p>(l: &'p Loop, ctx: &CompileCtx<'_, 'p>) -> CompiledBody<'p> {
    compile_body(&l.body, l.var, ctx)
}

fn compile_body<'p>(
    stmts: &'p [Stmt],
    var: VarId,
    ctx: &CompileCtx<'_, 'p>,
) -> CompiledBody<'p> {
    let mut slots: Vec<SlotSpec<'p>> = Vec::new();
    let stmts = compile_stmts(stmts, var, ctx, &mut slots);
    let batch = batch_of(&stmts);
    let uses_loop_var = stmts_use_var(&stmts, var);
    CompiledBody { stmts, slots, batch, uses_loop_var }
}

/// Does any statement's expression read `var`? `If`/`Loop`/`Prefetch`
/// statements conservatively count as users (conditions, nested bounds,
/// and prefetch subscripts all evaluate against the environment) — those
/// shapes never batch anyway, so the flag only has to be exact for
/// straight-line assignment bodies.
fn stmts_use_var(stmts: &[CStmt<'_>], var: VarId) -> bool {
    stmts.iter().any(|s| match s {
        CStmt::Assign(a) => a.expr.ops.iter().any(|op| matches!(op, EOp::Var(v) if *v == var)),
        _ => true,
    })
}

fn compile_stmts<'p>(
    stmts: &'p [Stmt],
    var: VarId,
    ctx: &CompileCtx<'_, 'p>,
    slots: &mut Vec<SlotSpec<'p>>,
) -> Vec<CStmt<'p>> {
    let mut out = Vec::with_capacity(stmts.len());
    for s in stmts {
        match s {
            Stmt::Assign(a) => out.push(CStmt::Assign(compile_assign(a, var, ctx, slots))),
            Stmt::Loop(inner) => out.push(CStmt::Loop(CLoop {
                l: inner,
                body: compile_body(&inner.body, inner.var, ctx),
            })),
            Stmt::If(i) => out.push(CStmt::If {
                cond: &i.cond,
                then_branch: compile_stmts(&i.then_branch, var, ctx, slots),
                else_branch: compile_stmts(&i.else_branch, var, ctx, slots),
            }),
            Stmt::Prefetch(pf) => {
                // Only the CCDP scheme executes prefetch statements; the
                // tree walker skips them per encounter, the compiled body
                // drops them up front.
                if matches!(ctx.scheme, Scheme::Ccdp { .. }) {
                    out.push(CStmt::Prefetch(pf));
                }
            }
        }
    }
    out
}

fn compile_assign<'p>(
    a: &'p Assign,
    var: VarId,
    ctx: &CompileCtx<'_, 'p>,
    slots: &mut Vec<SlotSpec<'p>>,
) -> CAssign {
    let reads = a
        .reads
        .iter()
        .map(|r| CRead {
            rid: r.id,
            base: ctx.mem.base(r.array),
            slot: slot_for(r, var, ctx, slots),
            kind: ctx.read_kind(r),
        })
        .collect();
    let w = &a.write;
    let write = CWrite {
        base: ctx.mem.base(w.array),
        slot: slot_for(w, var, ctx, slots),
        shared: ctx.mem.is_shared(w.array),
        craft: ctx.craft_cost[w.array.index()],
    };
    CAssign {
        write,
        reads,
        expr: CExpr::compile(&a.expr),
        cost: a.expr.flops() as u64 + a.extra_cost as u64,
    }
}

/// Find or create the slot for a reference's `(array, subscript)` pair.
/// References with identical subscripts into the same array (e.g. MXM's
/// `c(i,j)` read and write) share one recurrence.
fn slot_for<'p>(
    r: &'p ArrayRef,
    var: VarId,
    ctx: &CompileCtx<'_, 'p>,
    slots: &mut Vec<SlotSpec<'p>>,
) -> u32 {
    if let Some(i) = slots
        .iter()
        .position(|s| s.array == r.array && s.index == r.index.as_slice())
    {
        return i as u32;
    }
    let decl = ctx.program.array(r.array);
    let mut inv = Vec::with_capacity(r.index.len());
    let mut vcoeff = Vec::with_capacity(r.index.len());
    for ix in &r.index {
        let (i, c) = ix.split_on(var);
        inv.push(i);
        vcoeff.push(c);
    }
    slots.push(SlotSpec {
        array: r.array,
        index: &r.index,
        inv,
        vcoeff,
        strides: decl.strides(),
        extents: decl.extents.clone(),
    });
    (slots.len() - 1) as u32
}

/// A body's charges can be batched per iteration iff it is straight-line
/// code touching only private data: no branch, nested loop, prefetch, or
/// shared reference — i.e. nothing that observes or is observed through the
/// PE clock (no trace events either; private accesses emit none).
fn batch_of(stmts: &[CStmt<'_>]) -> Option<IterCharges> {
    if stmts.is_empty() {
        return None;
    }
    let mut b = IterCharges::default();
    for s in stmts {
        let CStmt::Assign(a) = s else { return None };
        if a.write.shared || a.reads.iter().any(|r| r.kind != AccessKind::Private) {
            return None;
        }
        b.reads += a.reads.len() as u64;
        b.writes += 1;
        b.fp += a.cost;
    }
    Some(b)
}

#[cfg(test)]
mod unit {
    use super::*;
    use ccdp_dist::Layout;
    use ccdp_ir::ProgramBuilder;

    fn ctx_fixture() -> (Program, Memory, Vec<u64>) {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.shared("A", &[8, 8]);
        let t = pb.private("T", &[8]);
        pb.serial_epoch("e", |e| {
            e.serial("i", 0, 7, |e, i| {
                // Shared + private mix, with the write aliasing a read.
                e.assign(a.at2(i, 0), a.at2(i, 0).rd() + t.at1(i).rd());
                // Pure-private statement.
                e.assign(t.at1(i), t.at1(i).rd() * 2.0);
            });
        });
        let p = pb.finish().unwrap();
        let layout = Layout::new(&p, 2);
        let mem = Memory::new(&p, &layout);
        let craft = vec![0u64; p.arrays.len()];
        (p, mem, craft)
    }

    fn outer_loop(p: &Program) -> &Loop {
        p.epochs()[0].stmts.iter().find_map(|s| s.as_loop()).unwrap()
    }

    #[test]
    fn identical_subscripts_share_a_slot() {
        let (p, mem, craft) = ctx_fixture();
        let scheme = Scheme::Sequential;
        let ctx = CompileCtx { program: &p, mem: &mem, scheme: &scheme, craft_cost: &craft };
        let cb = compile_loop(outer_loop(&p), &ctx);
        // Subscripts: A(i,0) (read+write shared), T(i) (read+write shared
        // slot across both statements) — 2 distinct slots.
        assert_eq!(cb.slots.len(), 2);
        let CStmt::Assign(a0) = &cb.stmts[0] else { panic!("assign") };
        assert_eq!(a0.write.slot, a0.reads[0].slot, "A(i,0) read/write share");
        assert!(a0.write.shared);
        assert_eq!(a0.reads[0].kind, AccessKind::Cached(Handling::Normal));
        assert_eq!(a0.reads[1].kind, AccessKind::Private);
    }

    #[test]
    fn mixed_body_does_not_batch_but_private_only_does() {
        let (p, mem, craft) = ctx_fixture();
        let scheme = Scheme::Sequential;
        let ctx = CompileCtx { program: &p, mem: &mem, scheme: &scheme, craft_cost: &craft };
        let cb = compile_loop(outer_loop(&p), &ctx);
        // The body mixes shared and private statements: no batch.
        assert_eq!(cb.batch, None);
        // A body of only the private statement batches.
        let private_only = vec![cb.stmts[1].clone()];
        assert_eq!(
            batch_of(&private_only),
            Some(IterCharges { reads: 1, writes: 1, fp: 2 })
        );
    }

    #[test]
    fn slot_recurrence_matches_direct_evaluation() {
        let (p, mem, craft) = ctx_fixture();
        let scheme = Scheme::Sequential;
        let ctx = CompileCtx { program: &p, mem: &mem, scheme: &scheme, craft_cost: &craft };
        let l = outer_loop(&p);
        let cb = compile_loop(l, &ctx);
        let env = VarEnv::new(p.var_names.len());
        for spec in &cb.slots {
            let st = spec.enter(&env, 0, 7, 1);
            assert!(st.fast, "0..=7 is in bounds for extent-8 arrays");
            let decl = p.array(spec.array);
            let mut env2 = env.clone();
            let mut off = st.off;
            for v in 0..=7i64 {
                env2.set(l.var, v);
                let coords: Vec<i64> =
                    spec.index.iter().map(|ix| ix.eval(&env2)).collect();
                assert_eq!(off as usize, decl.linearize(&coords), "v={v}");
                off += st.doff;
            }
        }
    }

    #[test]
    fn flattened_expr_matches_tree_eval_bitwise() {
        use ccdp_ir::VarId;
        use ValExpr::*;
        // min(max(|-(r0 / 2)| * (r1 - 3.5), v0 + sqrt(r2)), r0)
        let e = Min(
            Box::new(Max(
                Box::new(Mul(
                    Box::new(Abs(Box::new(Neg(Box::new(Div(
                        Box::new(Read(0)),
                        Box::new(Lit(2.0)),
                    )))))),
                    Box::new(Sub(Box::new(Read(1)), Box::new(Lit(3.5)))),
                )),
                Box::new(Add(
                    Box::new(Var(VarId(0))),
                    Box::new(Sqrt(Box::new(Read(2)))),
                )),
            )),
            Box::new(Read(0)),
        );
        let ce = CExpr::compile(&e);
        let mut env = VarEnv::new(1);
        for (v0, reads) in [
            (3, [7.25, -1.5, 2.0]),
            (-2, [0.1, 1e9, 0.3]),
            (0, [f64::NAN, 1.0, 4.0]),
        ] {
            env.set(VarId(0), v0);
            let want = e.eval(&reads, &env);
            let got = ce.eval(&reads, &env);
            assert_eq!(want.to_bits(), got.to_bits());
        }
    }

    #[test]
    fn common_shapes_specialize_and_match_postfix_bitwise() {
        use ccdp_ir::VarId;
        use ValExpr::*;
        // (shape we expect, expression)
        let cases: Vec<(&str, ValExpr)> = vec![
            ("leaf", Read(0)),
            ("bin", Add(Box::new(Read(0)), Box::new(Lit(2.5)))),
            // (r0 * r1) - r2: postfix [r0, r1, Mul, r2, Sub].
            (
                "binl",
                Sub(
                    Box::new(Mul(Box::new(Read(0)), Box::new(Read(1)))),
                    Box::new(Read(2)),
                ),
            ),
            // MXM multiply-accumulate r0 + (r1 * r2): postfix
            // [r0, r1, r2, Mul, Add].
            (
                "binr",
                Add(
                    Box::new(Read(0)),
                    Box::new(Mul(Box::new(Read(1)), Box::new(Var(VarId(0))))),
                ),
            ),
        ];
        let mut env = VarEnv::new(1);
        env.set(VarId(0), 3);
        for (name, e) in &cases {
            let ce = CExpr::compile(e);
            assert!(
                !matches!(ce.fast, FastExpr::General),
                "{name} should specialize"
            );
            for reads in [[1.5, -0.25, 1e9], [f64::NAN, 0.0, -7.125]] {
                let want = e.eval(&reads, &env);
                assert_eq!(ce.eval(&reads, &env).to_bits(), want.to_bits(), "{name}");
                assert_eq!(ce.eval_postfix(&reads, &env).to_bits(), want.to_bits(), "{name}");
            }
        }
        // Unary operators have no specialized shape.
        let neg = Neg(Box::new(Read(0)));
        assert!(matches!(CExpr::compile(&neg).fast, FastExpr::General));
    }

    #[test]
    fn loop_var_use_is_detected_exactly_for_assign_bodies() {
        let (p, mem, craft) = ctx_fixture();
        let scheme = Scheme::Sequential;
        let ctx = CompileCtx { program: &p, mem: &mem, scheme: &scheme, craft_cost: &craft };
        let cb = compile_loop(outer_loop(&p), &ctx);
        // Neither fixture expression reads `i` as a value (only subscripts
        // do, and those live in the slot recurrences).
        assert!(!cb.uses_loop_var);
        let mut pb = ProgramBuilder::new("t2");
        let t = pb.private("T", &[8]);
        pb.serial_epoch("e", |e| {
            e.serial("i", 0, 7, |e, i| {
                e.assign(t.at1(i), t.at1(i).rd() + i.val());
            });
        });
        let p2 = pb.finish().unwrap();
        let layout = Layout::new(&p2, 2);
        let mem2 = Memory::new(&p2, &layout);
        let craft2 = vec![0u64; p2.arrays.len()];
        let ctx2 =
            CompileCtx { program: &p2, mem: &mem2, scheme: &scheme, craft_cost: &craft2 };
        let cb2 = compile_loop(outer_loop(&p2), &ctx2);
        assert!(cb2.uses_loop_var, "i.val() reads the loop variable");
    }

    #[test]
    fn deep_expr_spills_past_fixed_stack() {
        use ValExpr::*;
        // Right-leaning chain: r0 + (r0 + (... + r0)) — depth ≈ chain length.
        let mut e = Read(0);
        for _ in 0..(FIXED_STACK + 8) {
            e = Add(Box::new(Read(0)), Box::new(e));
        }
        let ce = CExpr::compile(&e);
        assert!(ce.depth > FIXED_STACK);
        let env = VarEnv::new(0);
        assert_eq!(ce.eval(&[1.5], &env), e.eval(&[1.5], &env));
    }

    #[test]
    fn out_of_range_entry_falls_back_to_slow_path() {
        let (p, mem, craft) = ctx_fixture();
        let scheme = Scheme::Sequential;
        let ctx = CompileCtx { program: &p, mem: &mem, scheme: &scheme, craft_cost: &craft };
        let cb = compile_loop(outer_loop(&p), &ctx);
        let env = VarEnv::new(p.var_names.len());
        // Range 0..=8 leaves the extent-8 arrays at v=8.
        let st = cb.slots[0].enter(&env, 0, 8, 1);
        assert!(!st.fast);
    }
}
