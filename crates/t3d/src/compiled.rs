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
//! * each value expression is flattened once to a postfix opcode sequence
//!   ([`CExpr`]) evaluated by a small stack machine — the tree's own
//!   evaluation order, so results stay bit-for-bit equal to the tree walk.
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
    /// Hardware-coherent shared read (MESI / Dragon): runs the snooping
    /// protocol at access time (`Simulator::hw_read`) — protocol state
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

/// A [`ValExpr`] flattened to postfix form. The opcode sequence is the
/// tree's own evaluation order, so evaluation is bit-identical to
/// `ValExpr::eval`.
#[derive(Clone, Debug)]
pub struct CExpr {
    ops: Vec<EOp>,
    /// Peak stack depth of `ops` (bounds the evaluator's scratch).
    depth: usize,
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
        CExpr { ops, depth }
    }

    /// Evaluate given the loaded read values and the loop-variable
    /// environment through the postfix stack machine. Matches
    /// `ValExpr::eval` bit-for-bit.
    #[inline]
    pub fn eval(&self, reads: &[f64], env: &VarEnv) -> f64 {
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
    CompiledBody { stmts, slots }
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
        assert_matches_tree_eval("nested", &e);
    }

    /// The short shapes that dominate the paper kernels go through the
    /// same postfix machine as every other expression and must agree with
    /// the tree walker bit for bit, NaN reads included.
    #[test]
    fn common_shapes_specialize_and_match_postfix_bitwise() {
        use ccdp_ir::VarId;
        use ValExpr::*;
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
            // MXM-style multiply-accumulate r0 + (r1 * v0): postfix
            // [r0, r1, v0, Mul, Add].
            (
                "mac",
                Add(
                    Box::new(Read(0)),
                    Box::new(Mul(Box::new(Read(1)), Box::new(Var(VarId(0))))),
                ),
            ),
            ("neg", Neg(Box::new(Read(0)))),
        ];
        for (name, e) in &cases {
            assert_matches_tree_eval(name, e);
        }
    }

    fn assert_matches_tree_eval(name: &str, e: &ValExpr) {
        use ccdp_ir::VarId;
        let inputs = [
            (3, [7.25, -1.5, 2.0]),
            (-2, [0.1, 1e9, 0.3]),
            (0, [f64::NAN, 1.0, 4.0]),
            (3, [1.5, -0.25, 1e9]),
            (3, [f64::NAN, 0.0, -7.125]),
        ];
        let ce = CExpr::compile(e);
        let mut env = VarEnv::new(1);
        for (v0, reads) in inputs {
            env.set(VarId(0), v0);
            let want = e.eval(&reads, &env).to_bits();
            assert_eq!(ce.eval(&reads, &env).to_bits(), want, "{name} {v0} {reads:?}");
        }
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
