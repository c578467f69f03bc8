//! The UDF compiler every GraphVM shares: each UDF's bytecode is lowered
//! once per run ([`crate::interp::ProgramState::compiled`]) into
//! closure-threaded code over typed registers, and each CPU edge operator
//! is compiled whole ([`CompiledOp`]).
//!
//! The paper's CPU GraphVM emits C++ whose UDFs compile inline into the
//! traversal loop. These GraphVMs execute GraphIR instead, so this module
//! is their codegen: every [`UdfProgram`] becomes one closure per live
//! instruction, each calling its successor itself, run over a frame of raw
//! `u64` registers ([`Frame`]) that a caller sets up once per chunk of
//! work and reuses for every call in it. The CPU runs its operators
//! through it, and every GraphVM runs its uncharged host-side
//! `VertexSetFilter` sweep through it ([`crate::interp::filter_sweep`]).
//! Charged calls on the simulators stay on [`Evaluator::call`], whose
//! [`crate::eval::MemoryModel`] sees each access in the order the cost
//! model charges it.
//!
//! Against [`Evaluator::call`] — a frame of 16-byte [`Value`]s and one
//! `match` per instruction at a single dispatch site — five things make it
//! cheap:
//!
//! * **Static kinds.** Every register holds one kind (int, float or bool)
//!   fixed before the first call, from the parameters, constants, property
//!   and global types, the intrinsics and [`Value::bin`]'s promotion rule.
//!   Operators are chosen at compile time, so a register is its bit
//!   pattern and nothing else; each reduction, priority update and CAS is
//!   built for its op and its cell's encoding, so it runs the
//!   [`PropertyStorage`] call specialised to them (`with_cell_op!`).
//! * **Cleaned bytecode.** A `Mov` of the value the instruction before it
//!   computed, read nowhere else, becomes that instruction writing the
//!   `Mov`'s destination, and a pure write no path reads is dropped
//!   ([`simplify`]).
//! * **Folded operands.** A register written once, by `Const`, becomes an
//!   immediate. A property or global load whose only reader follows it
//!   with nothing but pure instructions in between is performed inside
//!   that reader, so `deg[v] < cur_k` costs one closure, not three.
//! * **Fused tails.** A comparison read only by the `JumpIfNot` right
//!   after it becomes one compare-and-branch closure. A `Cas` or tracked
//!   reduction whose flag only guards the one `Enqueue` after it enqueues
//!   inside its own closure, and an `UpdatePrio` of `a + b` computed right
//!   before it adds inside its own. `Jump`s, `Ret`s and folded
//!   instructions are threaded through at compile time, and a `Const`/`Mov`
//!   of the value its register already holds on every path is dropped.
//! * **Threaded successors.** Control flow in a UDF body is forward-only,
//!   so each closure is built after the ones it continues into and calls
//!   them directly: every call site has the one or two targets its
//!   instruction always has, where a dispatch loop would make one site
//!   jump everywhere.
//!
//! A frame is not cleared between calls: a body writes its parameters and
//! zeroes only the registers whose entry value it may observe (those read
//! before any write, and those a dropped write left at the entry 0), so a
//! call costs no frame set-up beyond that.
//!
//! Every effect goes through the same [`PropertyStorage`]/[`GlobalTable`]
//! call the interpreter makes, in the same program order, so a compiled
//! body is observably the interpreter: same cells, same enqueue order,
//! same priority notifications, same integer division panic. A
//! [`CompiledOp`] is observably the interpreter's filter call followed by
//! its apply call.
//!
//! A UDF is left to the interpreter when a register's kind cannot be
//! fixed — a `Call`, a float where an integer or a bool is required, a
//! register that may be read before it is written under a non-int kind
//! (the interpreter would read `Int(0)` there) — when it jumps backwards
//! (a loop), or when it has more than [`MAX_REGS`] registers or
//! [`MAX_INSTRS`] instructions. Compiled bodies are called with integer arguments only —
//! vertices and edge weights — which is all an operator ever passes.

use std::sync::Arc;

use ugc_graph::Graph;
use ugc_graphir::types::{BinOp, ReduceOp, Type, UnOp};

use crate::bytecode::{Instr, Reg, UdfId, UdfProgram, UdfSet};
use crate::eval::{Evaluator, UdfOutput};
use crate::properties::{GlobalTable, PropId, PropertyStorage};
use crate::value::Value;

/// The largest register file a compiled body runs in (a stack array).
pub const MAX_REGS: usize = 64;

/// The longest UDF compiled: its closures nest this deep on the stack.
pub const MAX_INSTRS: usize = 1024;

/// The static kind of a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Int,
    Float,
    Bool,
}

impl Kind {
    fn of_type(ty: Type) -> Kind {
        match ty {
            Type::Float => Kind::Float,
            Type::Bool => Kind::Bool,
            _ => Kind::Int,
        }
    }

    fn of_value(v: Value) -> Kind {
        match v {
            Value::Int(_) => Kind::Int,
            Value::Float(_) => Kind::Float,
            Value::Bool(_) => Kind::Bool,
        }
    }
}

fn bits_of(v: Value) -> u64 {
    match v {
        Value::Int(i) => i as u64,
        Value::Float(f) => f.to_bits(),
        Value::Bool(b) => b as u64,
    }
}

fn value_of(kind: Kind, bits: u64) -> Value {
    match kind {
        Kind::Int => Value::Int(bits as i64),
        Kind::Float => Value::Float(f64::from_bits(bits)),
        Kind::Bool => Value::Bool(bits != 0),
    }
}

#[inline(always)]
fn int(b: u64) -> i64 {
    b as i64
}

#[inline(always)]
fn flt(b: u64) -> f64 {
    f64::from_bits(b)
}

/// Int or bool bits as a float's bits: `Value::as_float`.
#[inline(always)]
fn widen(b: u64) -> u64 {
    (int(b) as f64).to_bits()
}

/// What a compiled body runs against: the interpreter's own state handles,
/// the edge weight and the operator's output sink.
struct Env<'e, 'o> {
    props: &'e PropertyStorage,
    globals: &'e GlobalTable,
    graph: &'e Graph,
    /// Whether atomic reductions really are ([`Evaluator::really_atomic`]).
    atomic: bool,
    weight: i64,
    out: &'o mut dyn UdfOutput,
}

/// One live instruction, which runs its successor itself.
type Op = Arc<dyn Fn(&mut [u64], &mut Env<'_, '_>) + Send + Sync>;

/// Where an operand's bits come from.
#[derive(Debug, Clone, Copy)]
enum Src {
    Reg(usize),
    Imm(u64),
    /// `prop[regs[idx]]`, loaded where it is used.
    Cell(PropId, usize),
    /// A global, loaded where it is used.
    Global(usize),
}

/// An operand, optionally widened from int/bool to float.
#[derive(Debug, Clone, Copy)]
struct Opnd {
    src: Src,
    widen: bool,
}

impl Opnd {
    #[inline(always)]
    fn get(self, r: &[u64], e: &Env<'_, '_>) -> u64 {
        let b = match self.src {
            Src::Reg(i) => r[i],
            Src::Imm(b) => b,
            Src::Cell(p, i) => e.props.read_bits(p, r[i] as u32),
            Src::Global(g) => e.globals.read_bits(g),
        };
        if self.widen {
            widen(b)
        } else {
            b
        }
    }
}

/// A binary operator on register bits, chosen at compile time.
trait BinFn: 'static {
    fn eval(a: u64, b: u64) -> u64;
}

macro_rules! bin_fns {
    ($($name:ident |$a:ident, $b:ident| $body:expr;)*) => {$(
        struct $name;
        impl BinFn for $name {
            #[inline(always)]
            fn eval($a: u64, $b: u64) -> u64 {
                $body
            }
        }
    )*};
}

// Integer arithmetic is `Value::bin`'s: wrapping `+ - *`, and `/ %` that
// panic on a zero divisor (and on `i64::MIN / -1`) exactly as it does.
bin_fns! {
    AddI |a, b| int(a).wrapping_add(int(b)) as u64;
    SubI |a, b| int(a).wrapping_sub(int(b)) as u64;
    MulI |a, b| int(a).wrapping_mul(int(b)) as u64;
    DivI |a, b| (int(a) / int(b)) as u64;
    ModI |a, b| (int(a) % int(b)) as u64;
    AddF |a, b| (flt(a) + flt(b)).to_bits();
    SubF |a, b| (flt(a) - flt(b)).to_bits();
    MulF |a, b| (flt(a) * flt(b)).to_bits();
    DivF |a, b| (flt(a) / flt(b)).to_bits();
    ModF |a, b| (flt(a) % flt(b)).to_bits();
    EqI |a, b| (int(a) == int(b)) as u64;
    NeI |a, b| (int(a) != int(b)) as u64;
    LtI |a, b| (int(a) < int(b)) as u64;
    LeI |a, b| (int(a) <= int(b)) as u64;
    GtI |a, b| (int(a) > int(b)) as u64;
    GeI |a, b| (int(a) >= int(b)) as u64;
    EqF |a, b| (flt(a) == flt(b)) as u64;
    NeF |a, b| (flt(a) != flt(b)) as u64;
    LtF |a, b| (flt(a) < flt(b)) as u64;
    LeF |a, b| (flt(a) <= flt(b)) as u64;
    GtF |a, b| (flt(a) > flt(b)) as u64;
    GeF |a, b| (flt(a) >= flt(b)) as u64;
    AndB |a, b| (a != 0 && b != 0) as u64;
    OrB |a, b| (a != 0 || b != 0) as u64;
}

/// Evaluates `$body` with `$F` bound to the [`BinFn`] of `$op` in int
/// (`$float` false) or float arithmetic.
macro_rules! with_bin_fn {
    ($op:expr, $float:expr, $F:ident => $body:expr) => {
        with_bin_fn!(@arms ($op, $float), $F, $body;
            (BinOp::And, _) => AndB, (BinOp::Or, _) => OrB,
            (BinOp::Add, false) => AddI, (BinOp::Sub, false) => SubI,
            (BinOp::Mul, false) => MulI, (BinOp::Div, false) => DivI,
            (BinOp::Mod, false) => ModI, (BinOp::Add, true) => AddF,
            (BinOp::Sub, true) => SubF, (BinOp::Mul, true) => MulF,
            (BinOp::Div, true) => DivF, (BinOp::Mod, true) => ModF,
            (BinOp::Eq, false) => EqI, (BinOp::Ne, false) => NeI,
            (BinOp::Lt, false) => LtI, (BinOp::Le, false) => LeI,
            (BinOp::Gt, false) => GtI, (BinOp::Ge, false) => GeI,
            (BinOp::Eq, true) => EqF, (BinOp::Ne, true) => NeF,
            (BinOp::Lt, true) => LtF, (BinOp::Le, true) => LeF,
            (BinOp::Gt, true) => GtF, (BinOp::Ge, true) => GeF)
    };
    (@arms $scrutinee:expr, $F:ident, $body:expr; $($pat:pat => $fun:ident),*) => {
        match $scrutinee {
            $($pat => {
                type $F = $fun;
                $body
            })*
        }
    };
}

/// Evaluates `$body` with `$TY` bound to a constant standing for `$ty`'s
/// encoding (every non-float, non-bool type encodes as an int) and `$OP`
/// to the constant `$op`, so each arm's closures are specialised to them.
macro_rules! with_cell_op {
    ($ty:expr, $op:expr, $TY:ident, $OP:ident => $body:expr) => {
        with_cell_op!(@arms (Kind::of_type($ty), $op), $TY, $OP, $body;
            Int Sum, Int Min, Int Max, Int Or, Float Sum, Float Min,
            Float Max, Float Or, Bool Sum, Bool Min, Bool Max, Bool Or)
    };
    (@arms $scrutinee:expr, $TY:ident, $OP:ident, $body:expr; $($k:ident $o:ident),*) => {
        match $scrutinee {
            $((Kind::$k, ReduceOp::$o) => {
                const $TY: Type = Type::$k;
                const $OP: ReduceOp = ReduceOp::$o;
                $body
            })*
        }
    };
}

/// `body`, then `next` (nothing after the last instruction).
fn link(
    next: Option<Op>,
    body: impl Fn(&mut [u64], &mut Env<'_, '_>) + Send + Sync + 'static,
) -> Op {
    Arc::new(move |r, e| {
        body(r, e);
        go(&next, r, e)
    })
}

#[inline(always)]
fn go(next: &Option<Op>, r: &mut [u64], e: &mut Env<'_, '_>) {
    if let Some(n) = next {
        n(r, e)
    }
}

fn bin<F: BinFn>(d: usize, a: Opnd, b: Opnd, next: Option<Op>) -> Op {
    link(next, move |r, e| {
        let v = F::eval(a.get(r, e), b.get(r, e));
        r[d] = v;
    })
}

fn branch<F: BinFn>(a: Opnd, b: Opnd, then: Option<Op>, otherwise: Option<Op>) -> Op {
    Arc::new(move |r, e| {
        if F::eval(a.get(r, e), b.get(r, e)) != 0 {
            go(&then, r, e)
        } else {
            go(&otherwise, r, e)
        }
    })
}

/// A register frame and the state every body runs against, set up once
/// per chunk of work and reused by each call in it.
pub struct Frame<'e, 'o> {
    regs: [u64; MAX_REGS],
    env: Env<'e, 'o>,
}

impl<'e, 'o> Frame<'e, 'o> {
    /// A frame over `ev`'s state whose effects go to `out`.
    pub fn new(ev: &Evaluator<'e>, out: &'o mut dyn UdfOutput) -> Self {
        Frame {
            regs: [0; MAX_REGS],
            env: Env {
                props: ev.props,
                globals: ev.globals,
                graph: ev.graph,
                atomic: ev.really_atomic,
                weight: 1,
                out,
            },
        }
    }
}

/// A UDF lowered to closure-threaded code.
pub struct CompiledUdf {
    entry: Option<Op>,
    num_params: usize,
    /// Registers (bit `r` = register `r`) whose entry value the body may
    /// observe, zeroed on each call.
    resets: u64,
    ret: Option<(usize, Kind)>,
}

impl std::fmt::Debug for CompiledUdf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledUdf")
            .field("num_params", &self.num_params)
            .field("resets", &self.resets)
            .finish()
    }
}

impl CompiledUdf {
    /// Runs the body on `args` in `frame`, as `ev.call(id, args, EdgeCtx {
    /// weight }, out, &mut NullMemory)` would on the frame's state and
    /// output, and returns the named return value, if the UDF has one.
    #[inline]
    pub fn run(&self, frame: &mut Frame<'_, '_>, args: &[i64], weight: i64) -> Option<Value> {
        for (slot, &a) in frame.regs.iter_mut().zip(&args[..self.num_params]) {
            *slot = a as u64;
        }
        self.exec(frame, weight);
        self.ret.map(|(r, k)| value_of(k, frame.regs[r]))
    }

    /// Whether `v` passes this filter body, as [`Evaluator::passes`] decides.
    #[inline]
    fn passes(&self, frame: &mut Frame<'_, '_>, v: u32) -> bool {
        frame.regs[0] = v as u64;
        self.exec(frame, 1);
        self.ret.is_none_or(|(r, _)| frame.regs[r] != 0)
    }

    /// Runs the body on the parameters already in `frame`: zeroes the
    /// registers whose entry value it may observe, then enters it.
    #[inline]
    fn exec(&self, frame: &mut Frame<'_, '_>, weight: i64) {
        let regs = &mut frame.regs;
        let mut m = self.resets;
        while m != 0 {
            regs[m.trailing_zeros() as usize] = 0;
            m &= m - 1;
        }
        frame.env.weight = weight;
        if let Some(op) = &self.entry {
            op(regs, &mut frame.env);
        }
    }
}

/// The compiled bodies of one program's UDFs, indexed by [`UdfId`]; `None`
/// for a UDF left to the interpreter.
pub type CompiledSet = Vec<Option<Arc<CompiledUdf>>>;

/// Compiles every UDF of `udfs` against the property and global types of
/// the state it will run on.
pub fn compile_all(udfs: &UdfSet, props: &PropertyStorage, globals: &GlobalTable) -> CompiledSet {
    udfs.udfs
        .iter()
        .map(|u| compile(u, &udfs.queue_props, props, globals).map(Arc::new))
        .collect()
}

/// `id`'s body in `compiled`, if it has one and takes `params` arguments —
/// the only arity the interpreter would accept where it is called.
pub fn body_of(
    compiled: &[Option<Arc<CompiledUdf>>],
    udfs: &UdfSet,
    id: UdfId,
    params: usize,
) -> Option<Arc<CompiledUdf>> {
    compiled
        .get(id.0)
        .cloned()
        .flatten()
        .filter(|_| udfs.get(id).num_params == params)
}

/// Compiles one UDF, or returns `None` for one that stays on the
/// interpreter (see the module docs).
pub fn compile(
    u: &UdfProgram,
    queue_props: &[PropId],
    props: &PropertyStorage,
    globals: &GlobalTable,
) -> Option<CompiledUdf> {
    if u.num_regs > MAX_REGS || u.num_params > u.num_regs || u.instrs.len() > MAX_INSTRS {
        return None;
    }
    let u = &simplify(u)?;
    let kinds = infer_kinds(u, props, globals)?;
    let plan = Plan::new(u, &kinds)?;
    let lower = Lower {
        kinds: &kinds,
        plan: &plan,
        queue_props,
        props,
    };
    // Successors first: every jump is forward.
    let mut built: Vec<Option<Op>> = vec![None; u.instrs.len()];
    for pc in (0..u.instrs.len()).rev() {
        if plan.live(pc) {
            built[pc] = Some(lower.op(pc, &built)?);
        }
    }
    Some(CompiledUdf {
        entry: plan.resolve(0).and_then(|pc| built[pc].clone()),
        num_params: u.num_params,
        resets: plan.resets,
        ret: u.ret_reg.map(|r| (r as usize, kinds[r as usize])),
    })
}

/// One edge operator compiled whole, for a walker that checks one filter
/// per vertex and the other per edge: the apply with the per-edge filter
/// spliced in front of it, once per direction, and each filter alone.
pub struct CompiledOp {
    /// The destination filter, then the apply: a push edge.
    push: CompiledUdf,
    /// The source filter, then the apply: a pull edge.
    pull: CompiledUdf,
    src: Option<CompiledUdf>,
    dst: Option<CompiledUdf>,
}

impl CompiledOp {
    /// Compiles the operator applying `apply` (two or three parameters:
    /// `(src, dst[, weight])`) under the given filters, or returns `None`
    /// when any part is left to the interpreter — a UDF that does not
    /// compile, a filter with a float verdict, or a filter that writes its
    /// parameter or enqueues or updates a priority (the interpreter sends
    /// a filter's effects to a sink that discards them).
    pub fn new(
        udfs: &UdfSet,
        props: &PropertyStorage,
        globals: &GlobalTable,
        apply: UdfId,
        src_filter: Option<UdfId>,
        dst_filter: Option<UdfId>,
    ) -> Option<Self> {
        let a = udfs.get(apply);
        if !matches!(a.num_params, 2 | 3) {
            return None;
        }
        let build = |u: &UdfProgram| compile(u, &udfs.queue_props, props, globals);
        let step = |filter: Option<UdfId>, on: Reg| match filter {
            None => build(a),
            Some(f) => build(&splice(udfs.get(f), on, a)?),
        };
        let alone = |filter: Option<UdfId>| match filter {
            None => Some(None),
            Some(f) => build(udfs.get(f))
                .filter(|c| c.ret.is_none_or(|(_, k)| k != Kind::Float))
                .map(Some),
        };
        Some(CompiledOp {
            push: step(dst_filter, 1)?,
            pull: step(src_filter, 0)?,
            src: alone(src_filter)?,
            dst: alone(dst_filter)?,
        })
    }

    /// Whether the operator has a destination filter.
    pub fn has_dst_filter(&self) -> bool {
        self.dst.is_some()
    }

    /// Whether `v` passes the source filter (no filter passes all).
    #[inline]
    pub fn src_passes(&self, frame: &mut Frame<'_, '_>, v: u32) -> bool {
        self.src.as_ref().is_none_or(|f| f.passes(frame, v))
    }

    /// Whether `v` passes the destination filter (no filter passes all).
    #[inline]
    pub fn dst_passes(&self, frame: &mut Frame<'_, '_>, v: u32) -> bool {
        self.dst.as_ref().is_none_or(|f| f.passes(frame, v))
    }

    /// The edge `src → dst` of weight `w` in a push: the apply, if `dst`
    /// passes the destination filter.
    #[inline]
    pub fn push_edge(&self, frame: &mut Frame<'_, '_>, src: u32, dst: u32, w: i64) {
        frame.regs[..3].copy_from_slice(&[src as u64, dst as u64, w as u64]);
        self.push.exec(frame, w);
    }

    /// The edge `src → dst` of weight `w` in a pull: the apply, if `src`
    /// passes the source filter.
    #[inline]
    pub fn pull_edge(&self, frame: &mut Frame<'_, '_>, src: u32, dst: u32, w: i64) {
        frame.regs[..3].copy_from_slice(&[src as u64, dst as u64, w as u64]);
        self.pull.exec(frame, w);
    }
}

/// One program doing what `filter` on `apply`'s parameter `on`, then (if it
/// passed) `apply`, do when the interpreter calls them in turn. The
/// filter's registers follow the apply's, its parameter is `on`, each of
/// its `Ret`s jumps to the end when the verdict fails and into the apply
/// when it passes, and its edge weight is the 1 a filter call sees. `None`
/// for a filter [`CompiledOp::new`] leaves to the interpreter.
fn splice(filter: &UdfProgram, on: Reg, apply: &UdfProgram) -> Option<UdfProgram> {
    let effect = |i: &Instr| {
        matches!(i, Instr::Enqueue { .. } | Instr::UpdatePrio { .. }) || write_of(i) == Some(0)
    };
    if filter.num_params != 1 || filter.instrs.iter().any(effect) {
        return None;
    }
    let base = apply.num_regs as Reg - 1;
    let reg = |r: Reg| if r == 0 { on } else { base + r };
    // Where each filter instruction lands: a `Ret` takes two.
    let mut at = Vec::with_capacity(filter.instrs.len() + 1);
    let mut start = 0;
    for ins in &filter.instrs {
        at.push(start);
        start += if matches!(ins, Instr::Ret) { 2 } else { 1 };
    }
    at.push(start);
    let end = start + apply.instrs.len();
    let mut instrs = Vec::with_capacity(end);
    for ins in &filter.instrs {
        match ins {
            Instr::Ret => {
                instrs.push(match filter.ret_reg {
                    Some(r) => Instr::JumpIfNot {
                        cond: reg(r),
                        target: end,
                    },
                    None => Instr::Jump { target: start },
                });
                instrs.push(Instr::Jump { target: start });
            }
            Instr::EdgeWeight { dst } => instrs.push(Instr::Const {
                dst: reg(*dst),
                v: Value::Int(1),
            }),
            _ => instrs.push(rename(ins, reg, |t| at[t])),
        }
    }
    instrs.extend(apply.instrs.iter().map(|i| rename(i, |r| r, |t| t + start)));
    Some(UdfProgram {
        name: format!("{}+{}", filter.name, apply.name),
        num_regs: apply.num_regs + filter.num_regs - 1,
        num_params: apply.num_params,
        ret_reg: None,
        instrs,
    })
}

/// The register an instruction writes, if any.
fn write_of(ins: &Instr) -> Option<Reg> {
    match ins {
        Instr::Const { dst, .. }
        | Instr::Mov { dst, .. }
        | Instr::Bin { dst, .. }
        | Instr::Un { dst, .. }
        | Instr::Abs { dst, .. }
        | Instr::LoadProp { dst, .. }
        | Instr::Cas { dst, .. }
        | Instr::LoadGlobal { dst, .. }
        | Instr::OutDegree { dst, .. }
        | Instr::InDegree { dst, .. }
        | Instr::EdgeWeight { dst }
        | Instr::Intersect { dst, .. } => Some(*dst),
        Instr::ReduceProp { changed, .. } | Instr::ReduceGlobal { changed, .. } => *changed,
        Instr::Call { dst, .. } => *dst,
        _ => None,
    }
}

/// The registers an instruction reads (`Ret` reads the named return).
fn reads_of(ins: &Instr, ret_reg: Option<Reg>) -> Vec<Reg> {
    match ins {
        Instr::Mov { src: a, .. }
        | Instr::Un { a, .. }
        | Instr::Abs { a, .. }
        | Instr::LoadProp { idx: a, .. }
        | Instr::StoreGlobal { val: a, .. }
        | Instr::ReduceGlobal { val: a, .. }
        | Instr::Enqueue { vertex: a }
        | Instr::OutDegree { v: a, .. }
        | Instr::InDegree { v: a, .. }
        | Instr::JumpIfNot { cond: a, .. } => vec![*a],
        Instr::Bin { a, b, .. }
        | Instr::Intersect { a, b, .. }
        | Instr::StoreProp { idx: a, val: b, .. }
        | Instr::ReduceProp { idx: a, val: b, .. }
        | Instr::UpdatePrio {
            vertex: a, val: b, ..
        } => vec![*a, *b],
        Instr::Cas {
            idx, expected, new, ..
        } => vec![*idx, *expected, *new],
        Instr::Call { args, .. } => args.clone(),
        Instr::Ret => ret_reg.into_iter().collect(),
        _ => Vec::new(),
    }
}

fn successors(pc: usize, ins: &Instr) -> Vec<usize> {
    match ins {
        Instr::Jump { target } => vec![*target],
        Instr::JumpIfNot { target, .. } => vec![pc + 1, *target],
        Instr::Ret => Vec::new(),
        _ => vec![pc + 1],
    }
}

/// `ins` with every register `r` it names renamed to `reg(r)` and every
/// jump target `t` moved to `target(t)`.
fn rename(ins: &Instr, reg: impl Fn(Reg) -> Reg, target: impl Fn(usize) -> usize) -> Instr {
    let mut ins = ins.clone();
    match &mut ins {
        Instr::Const { dst, .. } | Instr::EdgeWeight { dst } | Instr::LoadGlobal { dst, .. } => {
            *dst = reg(*dst)
        }
        Instr::Mov { dst, src: a }
        | Instr::Un { dst, a, .. }
        | Instr::Abs { dst, a }
        | Instr::LoadProp { dst, idx: a, .. }
        | Instr::OutDegree { dst, v: a }
        | Instr::InDegree { dst, v: a } => (*dst, *a) = (reg(*dst), reg(*a)),
        Instr::Bin { dst, a, b, .. } | Instr::Intersect { dst, a, b } => {
            (*dst, *a, *b) = (reg(*dst), reg(*a), reg(*b))
        }
        Instr::StoreProp { idx: a, val: b, .. }
        | Instr::UpdatePrio {
            vertex: a, val: b, ..
        } => (*a, *b) = (reg(*a), reg(*b)),
        Instr::Cas {
            dst,
            idx,
            expected,
            new,
            ..
        } => (*dst, *idx, *expected, *new) = (reg(*dst), reg(*idx), reg(*expected), reg(*new)),
        Instr::ReduceProp {
            idx, val, changed, ..
        } => {
            (*idx, *val) = (reg(*idx), reg(*val));
            *changed = changed.map(&reg);
        }
        Instr::StoreGlobal { val, .. } | Instr::Enqueue { vertex: val } => *val = reg(*val),
        Instr::ReduceGlobal { val, changed, .. } => {
            *val = reg(*val);
            *changed = changed.map(&reg);
        }
        Instr::Call { dst, args, .. } => {
            *dst = dst.map(&reg);
            args.iter_mut().for_each(|a| *a = reg(*a));
        }
        Instr::Jump { target: t } => *t = target(*t),
        Instr::JumpIfNot { cond, target: t } => (*cond, *t) = (reg(*cond), target(*t)),
        Instr::Ret => {}
    }
    ins
}

/// Pure instructions that cannot panic on any operands: a write of one no
/// path reads can go.
fn removable(ins: &Instr) -> bool {
    match ins {
        Instr::Const { .. } | Instr::Mov { .. } | Instr::EdgeWeight { .. } => true,
        Instr::Bin { op, .. } => !matches!(op, BinOp::Div | BinOp::Mod | BinOp::And | BinOp::Or),
        _ => false,
    }
}

/// The equivalent loop-free program the planner starts from: a `Mov` of the
/// value the instruction right before it computed, read nowhere else (and
/// not the named return), becomes that instruction writing the `Mov`'s
/// destination; then every [`removable`] write that no path reads is
/// dropped. `None` for a program that jumps backwards.
fn simplify(u: &UdfProgram) -> Option<UdfProgram> {
    let len = u.instrs.len();
    let mut instrs = u.instrs.clone();
    let mut reads = vec![0u32; u.num_regs];
    let mut is_target = vec![false; len + 1];
    for (pc, ins) in instrs.iter().enumerate() {
        for r in reads_of(ins, u.ret_reg) {
            reads[r as usize] += 1;
        }
        if let Instr::Jump { target } | Instr::JumpIfNot { target, .. } = ins {
            if *target <= pc || *target > len {
                return None;
            }
            is_target[*target] = true;
        }
    }
    let mut keep = vec![true; len];
    for pc in 1..len {
        let Instr::Mov { dst, src } = instrs[pc] else {
            continue;
        };
        if keep[pc - 1]
            && !is_target[pc]
            && reads[src as usize] == 1
            && src as usize >= u.num_params
            && Some(src) != u.ret_reg
            && write_of(&instrs[pc - 1]) == Some(src)
        {
            instrs[pc - 1] = rename(&instrs[pc - 1], |r| if r == src { dst } else { r }, |t| t);
            keep[pc] = false;
        }
    }
    // Backward liveness (bit `r` = register `r`); every jump is forward,
    // so one reverse pass is exact. The end returns the named return.
    let mut live = vec![0u64; len + 1];
    live[len] = u.ret_reg.map_or(0, |r| 1 << r);
    for pc in (0..len).rev() {
        let ins = &instrs[pc];
        let after = successors(pc, ins).iter().fold(0, |m, &s| m | live[s]);
        let w = write_of(ins).map_or(0, |r| 1u64 << r);
        if !keep[pc] || (w != 0 && after & w == 0 && removable(ins)) {
            keep[pc] = false;
            live[pc] = live[pc + 1];
            continue;
        }
        live[pc] = reads_of(ins, u.ret_reg)
            .iter()
            .fold(after & !w, |m, &r| m | 1 << r);
    }
    // Drop what went; a jump to a dropped instruction lands on the next
    // kept one.
    let mut at = vec![0; len + 1];
    let mut n = 0;
    for pc in 0..len {
        at[pc] = n;
        n += usize::from(keep[pc]);
    }
    at[len] = n;
    let instrs = instrs
        .iter()
        .zip(&keep)
        .filter(|(_, &k)| k)
        .map(|(ins, _)| rename(ins, |r| r, |t| at[t]))
        .collect();
    Some(UdfProgram {
        instrs,
        ..u.clone()
    })
}

/// The kind `ins` gives its destination, or `None` while an operand's kind
/// is still unknown.
fn dst_kind(
    ins: &Instr,
    kinds: &[Option<Kind>],
    props: &PropertyStorage,
    globals: &GlobalTable,
) -> Option<Kind> {
    let k = |r: &Reg| kinds[*r as usize];
    match ins {
        Instr::Const { v, .. } => Some(Kind::of_value(*v)),
        Instr::Mov { src, .. } => k(src),
        Instr::Bin { op, a, b, .. } => match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                let float = k(a)? == Kind::Float || k(b)? == Kind::Float;
                Some(if float { Kind::Float } else { Kind::Int })
            }
            _ => Some(Kind::Bool),
        },
        Instr::Un { op, a, .. } => match op {
            UnOp::Neg => k(a).map(|ka| if ka == Kind::Float { ka } else { Kind::Int }),
            UnOp::Not => Some(Kind::Bool),
            UnOp::ToFloat => Some(Kind::Float),
            UnOp::ToInt => Some(Kind::Int),
        },
        Instr::Abs { .. } => Some(Kind::Float),
        Instr::LoadProp { prop, .. } => Some(Kind::of_type(props.ty(*prop))),
        Instr::LoadGlobal { id, .. } => Some(Kind::of_type(globals.ty(*id))),
        Instr::Cas { .. } | Instr::ReduceProp { .. } | Instr::ReduceGlobal { .. } => {
            Some(Kind::Bool)
        }
        _ => Some(Kind::Int),
    }
}

/// Fixes one kind per register, or `None` when some register would hold
/// two kinds, or one that cannot be derived, or the UDF calls another.
fn infer_kinds(
    u: &UdfProgram,
    props: &PropertyStorage,
    globals: &GlobalTable,
) -> Option<Vec<Kind>> {
    if u.instrs.iter().any(|i| matches!(i, Instr::Call { .. })) {
        return None;
    }
    // Parameters arrive as ints; a register nothing writes stays `Int(0)`.
    let mut written = vec![false; u.num_regs];
    for r in u.instrs.iter().filter_map(write_of) {
        written[r as usize] = true;
    }
    let mut kinds: Vec<Option<Kind>> = (0..u.num_regs)
        .map(|r| (r < u.num_params || !written[r]).then_some(Kind::Int))
        .collect();
    loop {
        let mut changed = false;
        for ins in &u.instrs {
            let (Some(d), Some(k)) = (write_of(ins), dst_kind(ins, &kinds, props, globals)) else {
                continue;
            };
            match kinds[d as usize] {
                None => {
                    kinds[d as usize] = Some(k);
                    changed = true;
                }
                Some(prev) if prev != k => return None,
                Some(_) => {}
            }
        }
        if !changed {
            break;
        }
    }
    kinds.into_iter().collect()
}

/// For each instruction, the set (bit `r` = register `r`) of registers
/// written on every path from the entry to it.
fn definitely_written(u: &UdfProgram) -> Vec<u64> {
    let len = u.instrs.len();
    let params = (0..u.num_params).fold(0u64, |m, r| m | 1 << r);
    let mut before = vec![u64::MAX; len + 1];
    before[0] = params;
    loop {
        let mut changed = false;
        for (pc, ins) in u.instrs.iter().enumerate() {
            let after = before[pc] | write_of(ins).map_or(0, |r| 1 << r);
            for s in successors(pc, ins) {
                if let Some(slot) = before.get_mut(s) {
                    if *slot & after != *slot {
                        *slot &= after;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return before;
        }
    }
}

/// Pure, non-panicking instructions a deferred load may move past.
fn movable_past(ins: &Instr) -> bool {
    match ins {
        Instr::Const { .. }
        | Instr::Mov { .. }
        | Instr::LoadProp { .. }
        | Instr::LoadGlobal { .. }
        | Instr::Un { .. }
        | Instr::Abs { .. }
        | Instr::EdgeWeight { .. } => true,
        Instr::Bin { op, .. } => !matches!(op, BinOp::Div | BinOp::Mod),
        _ => false,
    }
}

/// The compile-time decisions of one UDF: which registers fold to
/// immediates, which loads move into their reader, which branches fuse,
/// and so which instructions need no closure of their own.
struct Plan<'u> {
    instrs: &'u [Instr],
    /// `Some(bits)`: the register is this constant everywhere it is read.
    konst: Vec<Option<u64>>,
    /// `Some(src)`: the register's load happens inside its reader.
    deferred: Vec<Option<Src>>,
    /// Instructions whose compare-and-branch closure also does the
    /// following `JumpIfNot`.
    fused: Vec<bool>,
    /// `Some(v)`: this `Cas`/`ReduceProp` also does the `JumpIfNot` and the
    /// `Enqueue { vertex: v }` after it.
    enqueue_if: Vec<Option<Reg>>,
    /// `Some((a, b))`: the register is `a + b` (int), added inside the
    /// `UpdatePrio` right after the `Bin` that computes it.
    sum: Vec<Option<(Reg, Reg)>>,
    /// Instructions folded into another closure (or dead).
    skip: Vec<bool>,
    /// Registers whose entry value the compiled body may observe.
    resets: u64,
}

impl<'u> Plan<'u> {
    fn new(u: &'u UdfProgram, kinds: &[Kind]) -> Option<Self> {
        let instrs = &u.instrs[..];
        let (n, len) = (u.num_regs, instrs.len());
        let written = definitely_written(u);
        let mut reads = vec![0u32; n];
        let mut writes = vec![0u32; n];
        let mut reader = vec![0usize; n];
        let mut maybe_unwritten = vec![false; n];
        let mut is_target = vec![false; len + 1];
        for (pc, ins) in instrs.iter().enumerate() {
            for r in reads_of(ins, u.ret_reg) {
                let r = r as usize;
                if written[pc] & (1 << r) == 0 {
                    // The interpreter would read `Int(0)`: only an int
                    // register has those bits mean the same thing.
                    if kinds[r] != Kind::Int {
                        return None;
                    }
                    maybe_unwritten[r] = true;
                }
                reads[r] += 1;
                reader[r] = pc;
            }
            if let Some(w) = write_of(ins) {
                writes[w as usize] += 1;
            }
            if let Instr::Jump { target } | Instr::JumpIfNot { target, .. } = ins {
                // A loop: left to the interpreter.
                if *target <= pc {
                    return None;
                }
                if let Some(t) = is_target.get_mut(*target) {
                    *t = true;
                }
            }
        }
        // A register qualifies for folding when its one write is the
        // instruction at hand, every read sees it, and it is neither a
        // parameter nor the named return (read after the body runs).
        let foldable = |r: Reg| {
            let r = r as usize;
            writes[r] == 1
                && !maybe_unwritten[r]
                && r >= u.num_params
                && Some(r as Reg) != u.ret_reg
        };
        let mut plan = Plan {
            instrs,
            konst: vec![None; n],
            deferred: vec![None; n],
            fused: vec![false; len],
            enqueue_if: vec![None; len],
            sum: vec![None; n],
            skip: vec![false; len],
            resets: 0,
        };
        for (pc, ins) in instrs.iter().enumerate() {
            match ins {
                Instr::Const { dst, v } if foldable(*dst) => {
                    plan.konst[*dst as usize] = Some(bits_of(*v));
                    plan.skip[pc] = true;
                }
                Instr::LoadProp { dst, .. } | Instr::LoadGlobal { dst, .. }
                    if foldable(*dst) && reads[*dst as usize] == 1 =>
                {
                    let src = match ins {
                        Instr::LoadProp { prop, idx, .. } => {
                            let i = *idx as usize;
                            if plan.konst[i].is_some() || plan.deferred[i].is_some() {
                                continue;
                            }
                            Src::Cell(*prop, i)
                        }
                        Instr::LoadGlobal { id, .. } => Src::Global(*id),
                        _ => continue,
                    };
                    let at = reader[*dst as usize];
                    let clear = at > pc
                        && !is_target[pc + 1..=at].iter().any(|&t| t)
                        && instrs[pc + 1..at].iter().all(|j| {
                            movable_past(j)
                                && !matches!(src, Src::Cell(_, i) if write_of(j) == Some(i as Reg))
                        });
                    if clear {
                        plan.deferred[*dst as usize] = Some(src);
                        plan.skip[pc] = true;
                    }
                }
                Instr::Bin { op, dst, .. }
                    if !matches!(
                        op,
                        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod
                    ) && reads[*dst as usize] == 1
                        && Some(*dst) != u.ret_reg
                        && !is_target[pc + 1]
                        && matches!(instrs.get(pc + 1), Some(Instr::JumpIfNot { cond, .. }) if cond == dst) =>
                {
                    plan.fused[pc] = true;
                    plan.skip[pc + 1] = true;
                }
                Instr::Cas { dst: c, .. }
                | Instr::ReduceProp {
                    changed: Some(c), ..
                } if reads[*c as usize] == 1
                    && Some(*c) != u.ret_reg
                    && !is_target[pc + 1]
                    && matches!(instrs.get(pc + 1), Some(Instr::JumpIfNot { cond, target }) if cond == c && *target == pc + 3)
                    && !is_target[pc + 2] =>
                {
                    if let Some(Instr::Enqueue { vertex }) = instrs.get(pc + 2) {
                        plan.enqueue_if[pc] = Some(*vertex);
                        plan.skip[pc + 1] = true;
                        plan.skip[pc + 2] = true;
                    }
                }
                Instr::Bin {
                    op: BinOp::Add,
                    dst,
                    a,
                    b,
                } if foldable(*dst)
                    && reads[*dst as usize] == 1
                    && kinds[*a as usize] != Kind::Float
                    && kinds[*b as usize] != Kind::Float
                    && !is_target[pc + 1]
                    && matches!(instrs.get(pc + 1), Some(Instr::UpdatePrio { val, .. }) if val == dst) =>
                {
                    plan.sum[*dst as usize] = Some((*a, *b));
                    plan.skip[pc] = true;
                }
                _ => {}
            }
        }
        plan.resets = plan.drop_redundant_writes(u.num_params)
            | maybe_unwritten
                .iter()
                .enumerate()
                .fold(0, |m, (r, &maybe)| m | u64::from(maybe) << r);
        Some(plan)
    }

    /// Marks each `Const`/`Mov` that writes the value its register already
    /// holds on every path to it — the entry 0 included — as needing no
    /// closure. Returns the registers (bit `r` = register `r`) such a drop
    /// left holding the entry value, which the frame must then zero.
    fn drop_redundant_writes(&mut self, num_params: usize) -> u64 {
        let len = self.instrs.len();
        // The known bits of each register before each instruction, and the
        // registers no closure may have written yet; `None` for an
        // instruction no path reaches.
        let mut before: Vec<Option<(Vec<Option<u64>>, u64)>> = vec![None; len + 1];
        before[0] = Some((
            (0..self.konst.len())
                .map(|r| (r >= num_params).then_some(0))
                .collect(),
            u64::MAX.checked_shl(num_params as u32).unwrap_or(0),
        ));
        let mut resets = 0;
        for (pc, ins) in self.instrs.iter().enumerate() {
            let Some((mut known, mut entry)) = before[pc].take() else {
                continue;
            };
            if let Some(d) = write_of(ins) {
                let value = match ins {
                    Instr::Const { v, .. } => Some(bits_of(*v)),
                    Instr::Mov { src, .. } => self.konst[*src as usize].or(known[*src as usize]),
                    _ => None,
                };
                if value.is_some() && value == known[d as usize] {
                    self.skip[pc] = true;
                    // A folded constant is never read from the frame.
                    if self.konst[d as usize].is_none() {
                        resets |= entry & 1 << d;
                    }
                } else {
                    entry &= !(1 << d);
                }
                known[d as usize] = value;
            }
            for s in successors(pc, ins) {
                if let Some(slot) = before.get_mut(s) {
                    *slot = Some(match slot.take() {
                        None => (known.clone(), entry),
                        Some((prev, prev_entry)) => (
                            prev.iter()
                                .zip(&known)
                                .map(|(a, b)| if a == b { *a } else { None })
                                .collect(),
                            prev_entry | entry,
                        ),
                    });
                }
            }
        }
        resets
    }

    /// Whether instruction `pc` runs a closure of its own.
    fn live(&self, pc: usize) -> bool {
        !self.skip[pc] && !matches!(self.instrs[pc], Instr::Jump { .. } | Instr::Ret)
    }

    /// The first instruction at or after `pc` that runs a closure of its
    /// own, threading through `Jump`s; `None` at `Ret`.
    fn resolve(&self, mut pc: usize) -> Option<usize> {
        loop {
            match self.instrs.get(pc)? {
                Instr::Ret => return None,
                Instr::Jump { target } => pc = *target,
                _ if self.skip[pc] => pc += 1,
                _ => return Some(pc),
            }
        }
    }
}

/// Lowers single instructions to closures under a [`Plan`].
struct Lower<'a> {
    kinds: &'a [Kind],
    plan: &'a Plan<'a>,
    queue_props: &'a [PropId],
    props: &'a PropertyStorage,
}

impl Lower<'_> {
    fn kind(&self, r: Reg) -> Kind {
        self.kinds[r as usize]
    }

    /// Register `r` as an operand, widened to float when `float` asks for
    /// it and `r` is not already one.
    fn opnd(&self, r: Reg, float: bool) -> Opnd {
        let i = r as usize;
        let widen = float && self.kinds[i] != Kind::Float;
        match (self.plan.konst[i], self.plan.deferred[i]) {
            (Some(b), _) => Opnd {
                src: Src::Imm(if widen { self::widen(b) } else { b }),
                widen: false,
            },
            (None, Some(src)) => Opnd { src, widen },
            (None, None) => Opnd {
                src: Src::Reg(i),
                widen,
            },
        }
    }

    fn raw(&self, r: Reg) -> Opnd {
        self.opnd(r, false)
    }

    /// The vertex operand of the `Enqueue` the `Cas`/`ReduceProp` at `pc`
    /// does itself, if it does one.
    fn enqueue_if(&self, pc: usize) -> Option<Option<Opnd>> {
        match self.plan.enqueue_if[pc] {
            Some(v) => Some(Some(self.integral(v)?)),
            None => Some(None),
        }
    }

    /// `r` where the interpreter calls `as_int`/`as_bool`, which panic on a
    /// float: such a UDF is not compiled.
    fn integral(&self, r: Reg) -> Option<Opnd> {
        (self.kind(r) != Kind::Float).then(|| self.raw(r))
    }

    /// The operator class and operands of `a op b`, promoted as
    /// `Value::bin` promotes them.
    fn bin_operands(&self, op: BinOp, a: Reg, b: Reg) -> Option<(bool, Opnd, Opnd)> {
        let float = self.kind(a) == Kind::Float || self.kind(b) == Kind::Float;
        if matches!(op, BinOp::And | BinOp::Or) {
            return (!float).then(|| (false, self.raw(a), self.raw(b)));
        }
        Some((float, self.opnd(a, float), self.opnd(b, float)))
    }

    /// Lowers live instruction `pc`, whose successors are in `built`.
    fn op(&self, pc: usize, built: &[Option<Op>]) -> Option<Op> {
        let succ = |p: usize| self.plan.resolve(p).and_then(|q| built[q].clone());
        let next = succ(pc + 1);
        let d = |r: &Reg| *r as usize;
        let op: Op = match &self.plan.instrs[pc] {
            Instr::Const { dst, v } => {
                let (d, b) = (d(dst), bits_of(*v));
                link(next, move |r, _| {
                    r[d] = b;
                })
            }
            Instr::Mov { dst, src } => {
                let (d, a) = (d(dst), self.raw(*src));
                link(next, move |r, e| {
                    r[d] = a.get(r, e);
                })
            }
            Instr::Bin { op, dst, a, b } => {
                let (float, a, b) = self.bin_operands(*op, *a, *b)?;
                if self.plan.fused[pc] {
                    let Some(Instr::JumpIfNot { target, .. }) = self.plan.instrs.get(pc + 1) else {
                        return None;
                    };
                    let (then, otherwise) = (succ(pc + 2), succ(*target));
                    with_bin_fn!(*op, float, F => branch::<F>(a, b, then, otherwise))
                } else {
                    let d = d(dst);
                    with_bin_fn!(*op, float, F => bin::<F>(d, a, b, next))
                }
            }
            Instr::Un { op, dst, a } => self.unary(*op, d(dst), *a, next)?,
            Instr::Abs { dst, a } => {
                let (d, a) = (d(dst), self.opnd(*a, true));
                link(next, move |r, e| {
                    r[d] = flt(a.get(r, e)).abs().to_bits();
                })
            }
            Instr::LoadProp { dst, prop, idx } => {
                let (d, p, i) = (d(dst), *prop, self.integral(*idx)?);
                link(next, move |r, e| {
                    r[d] = e.props.read_bits(p, i.get(r, e) as u32);
                })
            }
            Instr::StoreProp { prop, idx, val } => self.store(*prop, *idx, *val, next)?,
            Instr::Cas {
                dst,
                prop,
                idx,
                expected,
                new,
                ..
            } => {
                let (d, p, i) = (d(dst), *prop, self.integral(*idx)?);
                let (x, kx, y, ky) = (
                    self.raw(*expected),
                    self.kind(*expected),
                    self.raw(*new),
                    self.kind(*new),
                );
                let tail = self.enqueue_if(pc)?;
                let after = succ(pc + 3);
                // The cell type is fixed here, so each arm's CAS encodes
                // its operands without looking the type up.
                with_cell_op!(self.props.ty(p), ReduceOp::Sum, TY, _OP => {
                    let cas = move |r: &[u64], e: &Env<'_, '_>| {
                        let (i, x, y) = (
                            i.get(r, e) as u32,
                            value_of(kx, x.get(r, e)),
                            value_of(ky, y.get(r, e)),
                        );
                        e.props.cas_as(p, i, x, y, TY)
                    };
                    match tail {
                        Some(v) => link(after, move |r, e| {
                            if cas(r, e) {
                                let v = v.get(r, e) as u32;
                                e.out.enqueue(v);
                            }
                        }),
                        None => link(next, move |r, e| {
                            r[d] = cas(r, e) as u64;
                        }),
                    }
                })
            }
            Instr::ReduceProp {
                prop,
                idx,
                op,
                val,
                atomic,
                changed,
            } => {
                let (p, atomic, changed) = (*prop, *atomic, changed.map(|c| c as usize));
                let (i, v, kv) = (self.integral(*idx)?, self.raw(*val), self.kind(*val));
                let tail = self.enqueue_if(pc)?;
                let after = succ(pc + 3);
                with_cell_op!(self.props.ty(p), *op, TY, OP => {
                    let reduce = move |r: &[u64], e: &Env<'_, '_>| {
                        let (i, v) = (i.get(r, e) as u32, value_of(kv, v.get(r, e)));
                        if atomic && e.atomic {
                            e.props.reduce_as(p, i, OP, v, TY).0
                        } else {
                            e.props.reduce_relaxed_as(p, i, OP, v, TY).0
                        }
                    };
                    match tail {
                        Some(v) => link(after, move |r, e| {
                            if reduce(r, e) {
                                let v = v.get(r, e) as u32;
                                e.out.enqueue(v);
                            }
                        }),
                        None => link(next, move |r, e| {
                            let ch = reduce(r, e);
                            if let Some(c) = changed {
                                r[c] = ch as u64;
                            }
                        }),
                    }
                })
            }
            Instr::LoadGlobal { dst, id } => {
                let (d, g) = (d(dst), *id);
                link(next, move |r, e| {
                    r[d] = e.globals.read_bits(g);
                })
            }
            Instr::StoreGlobal { id, val } => {
                let (g, v, kv) = (*id, self.raw(*val), self.kind(*val));
                link(next, move |r, e| {
                    e.globals.write(g, value_of(kv, v.get(r, e)));
                })
            }
            Instr::ReduceGlobal {
                id,
                op,
                val,
                changed,
            } => {
                let (g, op, changed) = (*id, *op, changed.map(|c| c as usize));
                let (v, kv) = (self.raw(*val), self.kind(*val));
                link(next, move |r, e| {
                    let ch = e.globals.reduce(g, op, value_of(kv, v.get(r, e)));
                    if let Some(c) = changed {
                        r[c] = ch as u64;
                    }
                })
            }
            Instr::Enqueue { vertex } => {
                let v = self.integral(*vertex)?;
                link(next, move |r, e| {
                    let v = v.get(r, e) as u32;
                    e.out.enqueue(v);
                })
            }
            Instr::UpdatePrio {
                queue,
                vertex,
                op,
                val,
                atomic,
            } => {
                let (q, op, atomic) = (*queue, *op, *atomic);
                let p = *self.queue_props.get(q)?;
                let v = self.integral(*vertex)?;
                let (x, y, kx) = match self.plan.sum[*val as usize] {
                    Some((a, b)) => (self.raw(a), Some(self.raw(b)), Kind::Int),
                    None => (self.raw(*val), None, self.kind(*val)),
                };
                with_cell_op!(self.props.ty(p), op, TY, OP => link(next, move |r, e| {
                    let x = match y {
                        Some(y) => AddI::eval(x.get(r, e), y.get(r, e)),
                        None => x.get(r, e),
                    };
                    let (v, x) = (v.get(r, e) as u32, value_of(kx, x));
                    let props = e.props;
                    let (ch, _) = if atomic && e.atomic {
                        props.reduce_as(p, v, OP, x, TY)
                    } else {
                        props.reduce_relaxed_as(p, v, OP, x, TY)
                    };
                    if ch {
                        // As the interpreter: a Sum notifies the re-read
                        // cell, every other op the proposed value.
                        let prio = match OP {
                            ReduceOp::Sum => props.read(p, v).as_int(),
                            _ => x.as_int(),
                        };
                        e.out.priority_changed(q, v, prio);
                    }
                }))
            }
            Instr::OutDegree { dst, v } => {
                let (d, v) = (d(dst), self.integral(*v)?);
                link(next, move |r, e| {
                    r[d] = e.graph.out_degree(v.get(r, e) as u32) as u64;
                })
            }
            Instr::InDegree { dst, v } => {
                let (d, v) = (d(dst), self.integral(*v)?);
                link(next, move |r, e| {
                    r[d] = e.graph.in_degree(v.get(r, e) as u32) as u64;
                })
            }
            Instr::EdgeWeight { dst } => {
                let d = d(dst);
                link(next, move |r, e| {
                    r[d] = e.weight as u64;
                })
            }
            Instr::Intersect { dst, a, b } => {
                let (d, a, b) = (d(dst), self.integral(*a)?, self.integral(*b)?);
                link(next, move |r, e| {
                    let (a, b) = (a.get(r, e) as u32, b.get(r, e) as u32);
                    r[d] = e.out.intersect_count(e.graph, a, b) as u64;
                })
            }
            Instr::JumpIfNot { cond, target } => {
                let (c, t) = (self.integral(*cond)?, succ(*target));
                Arc::new(move |r, e| {
                    if c.get(r, e) != 0 {
                        go(&next, r, e)
                    } else {
                        go(&t, r, e)
                    }
                })
            }
            // Not live: threaded through, or never compiled.
            Instr::Jump { .. } | Instr::Ret | Instr::Call { .. } => return None,
        };
        Some(op)
    }

    fn unary(&self, op: UnOp, d: usize, a: Reg, next: Option<Op>) -> Option<Op> {
        let float = self.kind(a) == Kind::Float;
        Some(match op {
            UnOp::Neg if float => {
                let a = self.raw(a);
                link(next, move |r, e| {
                    r[d] = (-flt(a.get(r, e))).to_bits();
                })
            }
            UnOp::Neg => {
                let a = self.raw(a);
                link(next, move |r, e| {
                    r[d] = (-int(a.get(r, e))) as u64;
                })
            }
            UnOp::Not => {
                let a = self.integral(a)?;
                link(next, move |r, e| {
                    r[d] = (a.get(r, e) == 0) as u64;
                })
            }
            UnOp::ToInt if float => {
                let a = self.raw(a);
                link(next, move |r, e| {
                    r[d] = (flt(a.get(r, e)) as i64) as u64;
                })
            }
            // `ToFloat` widens an int or bool; `ToInt` of one is a copy.
            UnOp::ToFloat | UnOp::ToInt => {
                let a = self.opnd(a, op == UnOp::ToFloat);
                link(next, move |r, e| {
                    r[d] = a.get(r, e);
                })
            }
        })
    }

    /// `prop[idx] = val`, encoded by the property's type. Where the
    /// encoding is a bit copy (or an int widening) the cell is written
    /// raw; the rest go through [`PropertyStorage::write`], whose
    /// `as_int`/`as_bool` behave exactly as the interpreter's.
    fn store(&self, prop: PropId, idx: Reg, val: Reg, next: Option<Op>) -> Option<Op> {
        let (p, i, kv) = (prop, self.integral(idx)?, self.kind(val));
        let ty = self.props.ty(p);
        let raw = ty == Type::Float || kv == Kind::Bool || (kv == Kind::Int && ty != Type::Bool);
        Some(if raw {
            let v = self.opnd(val, ty == Type::Float);
            link(next, move |r, e| {
                let (i, v) = (i.get(r, e) as u32, v.get(r, e));
                e.props.write_bits(p, i, v);
            })
        } else {
            let v = self.raw(val);
            link(next, move |r, e| {
                let (i, v) = (i.get(r, e) as u32, value_of(kv, v.get(r, e)));
                e.props.write(p, i, v);
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{binding_of, compile_udfs};
    use crate::eval::{BufferedOutput, EdgeCtx, NullMemory, NullOutput};
    use ugc_graphir::ir::{Expr, Function, LValue, Param, Program, Stmt, StmtKind};

    fn state(prog: &Program, n: usize) -> (UdfSet, PropertyStorage, GlobalTable) {
        let udfs = compile_udfs(prog, &binding_of(prog)).expect("compiles");
        let mut props = PropertyStorage::new(n);
        for p in &prog.properties {
            props.add(p.name.clone(), p.ty, Value::zero_of(p.ty));
        }
        let mut globals = GlobalTable::new();
        for g in &prog.globals {
            globals.add(g.name.clone(), g.ty, Value::zero_of(g.ty));
        }
        (udfs, props, globals)
    }

    /// k-core's `belowK`: two guarded comparisons against a property and a
    /// global.
    fn below_k() -> Program {
        let mut p = Program::new();
        p.add_property("deg", Type::Int, Expr::int(0));
        p.add_property("alive", Type::Bool, Expr::bool(true));
        p.add_global("cur_k", Type::Int, Some(Expr::int(0)));
        let mut f = Function::new(
            "belowK",
            vec![Param::new("v", Type::Vertex)],
            Some(Param::new("output", Type::Bool)),
        );
        let set_out = |b: bool| {
            Stmt::new(StmtKind::Assign {
                target: LValue::Var("output".into()),
                value: Expr::bool(b),
            })
        };
        f.body.push(set_out(false));
        f.body.push(Stmt::new(StmtKind::If {
            cond: Expr::bin(
                BinOp::Eq,
                Expr::prop("alive", Expr::var("v")),
                Expr::bool(true),
            ),
            then_body: vec![Stmt::new(StmtKind::If {
                cond: Expr::bin(
                    BinOp::Lt,
                    Expr::prop("deg", Expr::var("v")),
                    Expr::var("cur_k"),
                ),
                then_body: vec![set_out(true)],
                else_body: vec![],
            })],
            else_body: vec![],
        }));
        p.add_function(f);
        p
    }

    #[test]
    fn below_k_folds_loads_into_fused_branches() {
        let prog = below_k();
        let (udfs, props, globals) = state(&prog, 4);
        let u = &udfs.udfs[0];
        // Two compare-and-branch closures and the store of `true`: the
        // loads and constants fold into the branches, the jumps and `Ret`
        // thread away, and `output`'s zero init and `output = false`
        // rewrite the 0 the frame already holds.
        let plan = Plan::new(u, &infer_kinds(u, &props, &globals).unwrap()).unwrap();
        let live = (0..u.instrs.len()).filter(|&pc| plan.live(pc)).count();
        assert_eq!(live, 3, "{:?}", u.instrs);

        let c = compile(u, &udfs.queue_props, &props, &globals).expect("compiles");
        globals.write(0, Value::Int(2));
        let (deg, alive) = (props.id_of("deg").unwrap(), props.id_of("alive").unwrap());
        for (v, d, a) in [(0, 1, true), (1, 3, true), (2, 0, false), (3, 1, true)] {
            props.write(deg, v, Value::Int(d));
            props.write(alive, v, Value::Bool(a));
        }
        let graph = Graph::from_edges(4, &[(0, 1)]);
        let ev = Evaluator::new(&udfs, &props, &globals, &graph);
        for v in 0..4 {
            let want = ev.call(
                UdfId(0),
                &[Value::Int(v)],
                EdgeCtx::default(),
                &mut NullOutput,
                &mut NullMemory,
            );
            let got = c.run(&mut Frame::new(&ev, &mut NullOutput), &[v], 1);
            assert_eq!(got, want, "vertex {v}");
        }
        assert_eq!(
            (0..4)
                .map(|v| c.run(&mut Frame::new(&ev, &mut NullOutput), &[v], 1))
                .collect::<Vec<_>>(),
            [true, false, false, true]
                .map(|b| Some(Value::Bool(b)))
                .to_vec()
        );
    }

    /// The closures `u` runs as, once cleaned and planned.
    fn live_closures(u: &UdfProgram, props: &PropertyStorage, globals: &GlobalTable) -> usize {
        let u = simplify(u).unwrap();
        let plan = Plan::new(&u, &infer_kinds(&u, props, globals).unwrap()).unwrap();
        (0..u.instrs.len()).filter(|&pc| plan.live(pc)).count()
    }

    #[test]
    fn effect_tails_fuse_into_one_closure_per_edge_step() {
        use ugc_graphir::keys;
        use ugc_graphir::types::ReduceOp;
        let edge = |name: &str, weighted: bool| {
            let mut params = vec![
                Param::new("src", Type::Vertex),
                Param::new("dst", Type::Vertex),
            ];
            if weighted {
                params.push(Param::new("weight", Type::Int));
            }
            Function::new(name, params, None)
        };
        let enqueue_if = |flag: &str| {
            Stmt::new(StmtKind::If {
                cond: Expr::var(flag),
                then_body: vec![Stmt::new(StmtKind::EnqueueVertex {
                    set: None,
                    vertex: Expr::var("dst"),
                })],
                else_body: vec![],
            })
        };
        let mut p = Program::new();
        p.add_property("parent", Type::Vertex, Expr::int(-1));
        p.add_property("dist", Type::Int, Expr::int(0));
        p.add_queue("pq", "dist", Expr::int(0));
        // BFS: `toFilter(v) = parent[v] == -1`, then the tracked claim.
        let mut filter = Function::new(
            "toFilter",
            vec![Param::new("v", Type::Vertex)],
            Some(Param::new("output", Type::Bool)),
        );
        filter.body.push(Stmt::new(StmtKind::Assign {
            target: LValue::Var("output".into()),
            value: Expr::bin(
                BinOp::Eq,
                Expr::prop("parent", Expr::var("v")),
                Expr::int(-1),
            ),
        }));
        p.add_function(filter);
        let mut claim = edge("claim", false);
        let mut cas = Expr::cas("parent", Expr::var("dst"), Expr::int(-1), Expr::var("src"));
        cas.meta.set(keys::IS_ATOMIC, true);
        claim.body.push(Stmt::new(StmtKind::VarDecl {
            name: "won".into(),
            ty: Type::Bool,
            init: Some(cas),
        }));
        claim.body.push(enqueue_if("won"));
        p.add_function(claim);
        // SSSP: `pq.updatePriorityMin(dst, dist[src] + weight)`.
        let mut relax = edge("relax", true);
        let mut upd = Stmt::new(StmtKind::UpdatePriority {
            queue: "pq".into(),
            vertex: Expr::var("dst"),
            op: ReduceOp::Min,
            value: Expr::bin(
                BinOp::Add,
                Expr::prop("dist", Expr::var("src")),
                Expr::var("weight"),
            ),
        });
        upd.meta.set(keys::IS_ATOMIC, true);
        relax.body.push(upd);
        p.add_function(relax);
        // CC: `dist[dst] min= dist[src]`, enqueueing `dst` if it changed.
        let mut label = edge("label", false);
        label.body.push(Stmt::new(StmtKind::Reduce {
            target: LValue::prop("dist", Expr::var("dst")),
            op: ReduceOp::Min,
            value: Expr::prop("dist", Expr::var("src")),
            tracking: Some("changed".into()),
        }));
        label.body.push(enqueue_if("changed"));
        p.add_function(label);
        // BC-style `unreached(v) = dist[v] == 0`: a zero literal.
        let mut unreached = Function::new(
            "unreached",
            vec![Param::new("v", Type::Vertex)],
            Some(Param::new("output", Type::Bool)),
        );
        unreached.body.push(Stmt::new(StmtKind::Assign {
            target: LValue::Var("output".into()),
            value: Expr::bin(BinOp::Eq, Expr::prop("dist", Expr::var("v")), Expr::int(0)),
        }));
        p.add_function(unreached);

        let (udfs, props, globals) = state(&p, 4);
        let get = |n: &str| udfs.get(udfs.id_of(n).unwrap());
        // The filter's compare-and-branch passes straight into a CAS that
        // enqueues; the relaxation adds and reduces in one closure; the
        // tracked reduction enqueues inside its own.
        let push = splice(get("toFilter"), 1, get("claim")).unwrap();
        assert_eq!(
            live_closures(&push, &props, &globals),
            2,
            "{:?}",
            push.instrs
        );
        for one in ["relax", "label"] {
            assert_eq!(live_closures(get(one), &props, &globals), 1, "{one}");
        }
        // No register is read before it is written: a call resets none,
        // not even for a verdict against the literal 0 the frame starts at.
        let unreached = splice(get("unreached"), 1, get("label")).unwrap();
        for step in [&push, &unreached] {
            let c = compile(step, &udfs.queue_props, &props, &globals).unwrap();
            assert_eq!(c.resets, 0, "{:?}", step.instrs);
        }
    }

    #[test]
    fn calls_stay_on_the_interpreter() {
        let mut p = Program::new();
        p.add_property("x", Type::Int, Expr::int(0));
        let mut g = Function::new("g", vec![Param::new("v", Type::Vertex)], None);
        g.body.push(Stmt::new(StmtKind::Assign {
            target: LValue::prop("x", Expr::var("v")),
            value: Expr::int(1),
        }));
        p.add_function(g);
        let mut f = Function::new("f", vec![Param::new("v", Type::Vertex)], None);
        f.body.push(Stmt::new(StmtKind::ExprStmt(Expr::call(
            "g",
            vec![Expr::var("v")],
        ))));
        p.add_function(f);
        let (udfs, props, globals) = state(&p, 2);
        let all = compile_all(&udfs, &props, &globals);
        assert!(all[0].is_some(), "a plain store compiles");
        assert!(all[1].is_none(), "a call is left to the interpreter");
    }

    #[test]
    fn enqueue_and_reduce_match_the_interpreter() {
        let mut p = Program::new();
        p.add_property("ids", Type::Int, Expr::int(0));
        let mut f = Function::new(
            "upd",
            vec![
                Param::new("src", Type::Vertex),
                Param::new("dst", Type::Vertex),
            ],
            None,
        );
        f.body.push(Stmt::new(StmtKind::Reduce {
            target: LValue::prop("ids", Expr::var("dst")),
            op: ugc_graphir::types::ReduceOp::Min,
            value: Expr::prop("ids", Expr::var("src")),
            tracking: Some("changed".into()),
        }));
        f.body.push(Stmt::new(StmtKind::If {
            cond: Expr::var("changed"),
            then_body: vec![Stmt::new(StmtKind::EnqueueVertex {
                set: None,
                vertex: Expr::var("dst"),
            })],
            else_body: vec![],
        }));
        p.add_function(f);
        let (udfs, props, globals) = state(&p, 4);
        let ids = props.id_of("ids").unwrap();
        for v in 0..4 {
            props.write(ids, v, Value::Int(3 - v as i64));
        }
        let graph = Graph::from_edges(4, &[(0, 1)]);
        let ev = Evaluator::new(&udfs, &props, &globals, &graph);
        let c = compile(&udfs.udfs[0], &udfs.queue_props, &props, &globals).expect("compiles");
        let mut out = BufferedOutput::default();
        let mut frame = Frame::new(&ev, &mut out);
        for (s, d) in [(3, 0), (3, 0), (2, 1)] {
            c.run(&mut frame, &[s, d], 1);
        }
        drop(frame);
        assert_eq!(out.enqueued, vec![0, 1]);
        assert_eq!(props.snapshot(ids), [0, 1, 1, 0].map(Value::Int).to_vec());
    }
}
