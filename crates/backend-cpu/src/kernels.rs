//! Monomorphized edge-traversal kernels: the CPU GraphVM's answer to the
//! interpreter tax.
//!
//! The generic executor pays per-edge for genericity — a `Vec<Value>` of
//! arguments, a register frame, and an instruction-dispatch loop per UDF
//! call. This module recognizes the traversal shapes the midend actually
//! produces (CAS-claim, property reduction, priority relaxation, plus
//! `prop[v] == const` filters) by symbolically executing the compiled
//! bytecode, and builds a specialized closed-form loop for each
//! combination — one monomorphized `Kernel<Op, SrcFilter, DstFilter>`
//! instantiation per shape, selected **once per run** and cached by
//! [`KernelKey`] (the [`ugc_schedule::SchedulePoint`] plus the operator
//! facts only this backend sees).
//!
//! Anything the recognizer does not understand runs through the same
//! walker with its UDFs' compiled bodies ([`ugc_runtime::udf`]) and, when
//! a UDF does not compile, through the interpreter — [`select`] picks the
//! [`Tier`]. The interpreter also remains the differential oracle: every
//! kernel reproduces the evaluator's observable semantics exactly — the
//! same [`PropertyStorage`] atomics (`cas`/`reduce`/`reduce_relaxed`), the
//! same enqueue and priority-notification conditions, in the same order.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};

use ugc_graph::Csr;
use ugc_graphir::types::{BinOp, ReduceOp, Type};
use ugc_runtime::bytecode::{Instr, UdfProgram};
use ugc_runtime::eval::{BufferedOutput, EdgeCtx, Evaluator, NullMemory, NullOutput, UdfOutput};
use ugc_runtime::properties::{GlobalTable, PropId, PropertyStorage};
use ugc_runtime::udf::{self, body_of, CompiledUdf};
use ugc_runtime::value::Value;
use ugc_runtime::vertexset::VertexSet;
use ugc_runtime::{UdfId, UdfSet};
use ugc_schedule::SchedulePoint;

/// Whether compiled kernels and UDF bodies are enabled for this process
/// (default yes). `UGC_CPU_KERNELS=0|off|false` forces the interpreter
/// everywhere — the CI smoke uses this to assert the fallback path stays
/// alive.
pub fn kernels_enabled_by_env() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| {
        !matches!(
            std::env::var("UGC_CPU_KERNELS").as_deref(),
            Ok("0") | Ok("off") | Ok("false")
        )
    })
}

/// Identity of one specialized traversal: the hardware-independent
/// schedule point plus the operator facts that select a kernel body.
///
/// UDF ids are only meaningful within one compiled program, so keys must
/// not outlive the run they were built for — [`KernelCache`] enforces this
/// by being per-run (the executor resets it on clone).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelKey {
    /// Schedule point (direction, parallelization, dedup, pull repr).
    pub point: SchedulePoint,
    /// The apply UDF.
    pub udf: UdfId,
    /// Source-side filter UDF, if any.
    pub src_filter: Option<UdfId>,
    /// Destination-side filter UDF, if any.
    pub dst_filter: Option<UdfId>,
    /// Whether the UDF consumes the edge weight (3-parameter form).
    pub weighted: bool,
}

/// Everything a kernel needs per range: the program state (behind the
/// evaluator that would interpret it) and the CSR for the traversal
/// direction (forward for push, backward for pull).
pub struct Io<'a> {
    /// Property vectors — `ev.props`, held directly so the monomorphized
    /// bodies reach a cell through one pointer, as they always have.
    pub props: &'a PropertyStorage,
    /// Properties, globals, graph and UDFs of the run.
    pub ev: &'a Evaluator<'a>,
    /// Adjacency in the traversal direction.
    pub csr: &'a Csr,
}

/// An edge-traversal loop. One object serves every direction — the
/// executor picks the entry point, the monomorphized body does the
/// per-edge work in whichever [`Tier`] [`select`] chose. Every tier walks
/// edges in the same order, so single-threaded runs are bit-identical
/// across tiers.
pub trait EdgeKernel: Send + Sync {
    /// Short name of the recognized operator shape, or of the tier (for
    /// emitter comments and tests).
    fn name(&self) -> &'static str;

    /// Push traversal over `members[range]`: every out-edge of a source
    /// that passes the source filter, to a destination that passes the
    /// destination filter.
    fn run_push(&self, io: &Io<'_>, members: &[u32], range: Range<usize>, out: &mut BufferedOutput);

    /// Pull traversal over destination vertices `range`, with optional
    /// input-frontier membership, stopping a destination's in-edges once
    /// it no longer passes its filter (direction-optimizing early exit).
    fn run_pull(
        &self,
        io: &Io<'_>,
        membership: Option<&VertexSet>,
        range: Range<usize>,
        out: &mut BufferedOutput,
    );

    /// Cache-blocked push: only edges with destination in `lo..hi`
    /// (the EdgeBlocking inner loop).
    fn run_push_block(
        &self,
        io: &Io<'_>,
        members: &[u32],
        range: Range<usize>,
        lo: u32,
        hi: u32,
        out: &mut BufferedOutput,
    );
}

/// How an operator's UDFs run: the three tiers of the CPU hot path, in
/// the order [`select`] tries them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// A monomorphized kernel body the recognizer matched.
    Specialized,
    /// The UDFs' compiled bodies ([`ugc_runtime::udf`]).
    Compiled,
    /// One [`Evaluator::call`] per UDF call.
    Interpreted,
}

/// An edge operator's traversal and the tier it runs in.
pub type Selection = (Tier, Arc<dyn EdgeKernel>);

/// Per-run kernel table: `KernelKey → (tier, kernel)`, so recognition runs
/// once per key. The compiled UDF bodies the walker uses are the run's own
/// ([`ugc_runtime::interp::ProgramState::compiled`]).
#[derive(Default)]
pub struct KernelCache {
    map: Mutex<HashMap<KernelKey, Selection>>,
}

impl KernelCache {
    /// Looks up `key`, selecting on first use via `build`.
    pub fn resolve(&self, key: KernelKey, build: impl FnOnce() -> Selection) -> Selection {
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(key).or_insert_with(build).clone()
    }
}

// ---------------------------------------------------------------------------
// Recognition: symbolic execution of UDF bytecode.
// ---------------------------------------------------------------------------

/// Symbolic value of a register during recognition.
#[derive(Debug, Clone, PartialEq)]
enum Sym {
    /// UDF parameter `i` (0 = src, 1 = dst, 2 = weight for 3-param UDFs).
    Param(usize),
    /// A literal constant.
    Lit(Value),
    /// The edge weight (the `EdgeWeight` intrinsic).
    Weight,
    /// `prop[idx]`.
    Load(PropId, Box<Sym>),
    /// `a + b`.
    Add(Box<Sym>, Box<Sym>),
    /// `a == b`.
    Eq(Box<Sym>, Box<Sym>),
    /// The success/changed flag of effect `k`.
    Flag(usize),
    /// Anything the recognizer does not model.
    Opaque,
}

/// One side effect in program order.
#[derive(Debug, Clone)]
enum Effect {
    Cas {
        prop: PropId,
        idx: Sym,
        expected: Sym,
        new: Sym,
    },
    Reduce {
        prop: PropId,
        idx: Sym,
        op: ReduceOp,
        val: Sym,
        atomic: bool,
    },
    UpdatePrio {
        queue: usize,
        vertex: Sym,
        op: ReduceOp,
        val: Sym,
        atomic: bool,
    },
    Enqueue {
        vertex: Sym,
        /// Effect index whose success/changed flag guards this enqueue.
        guard: Option<usize>,
    },
}

/// Symbolically executes a UDF. Returns its effects in order plus the
/// symbolic return value, or `None` when the program uses anything outside
/// the modeled subset (stores, globals, calls, loops, non-flag branches).
fn symexec(u: &UdfProgram) -> Option<(Vec<Effect>, Option<Sym>)> {
    let mut regs: Vec<Sym> = (0..u.num_regs)
        .map(|i| {
            if i < u.num_params {
                Sym::Param(i)
            } else {
                Sym::Lit(Value::Int(0))
            }
        })
        .collect();
    let mut effects: Vec<Effect> = Vec::new();
    let mut pc = 0usize;
    while pc < u.instrs.len() {
        match &u.instrs[pc] {
            Instr::Const { dst, v } => regs[*dst as usize] = Sym::Lit(*v),
            Instr::Mov { dst, src } => regs[*dst as usize] = regs[*src as usize].clone(),
            Instr::Bin { op, dst, a, b } => {
                let (a, b) = (regs[*a as usize].clone(), regs[*b as usize].clone());
                regs[*dst as usize] = match op {
                    BinOp::Add => Sym::Add(Box::new(a), Box::new(b)),
                    BinOp::Eq => Sym::Eq(Box::new(a), Box::new(b)),
                    _ => Sym::Opaque,
                };
            }
            Instr::EdgeWeight { dst } => regs[*dst as usize] = Sym::Weight,
            Instr::LoadProp { dst, prop, idx } => {
                regs[*dst as usize] = Sym::Load(*prop, Box::new(regs[*idx as usize].clone()));
            }
            Instr::Cas {
                dst,
                prop,
                idx,
                expected,
                new,
                ..
            } => {
                let k = effects.len();
                effects.push(Effect::Cas {
                    prop: *prop,
                    idx: regs[*idx as usize].clone(),
                    expected: regs[*expected as usize].clone(),
                    new: regs[*new as usize].clone(),
                });
                regs[*dst as usize] = Sym::Flag(k);
            }
            Instr::ReduceProp {
                prop,
                idx,
                op,
                val,
                atomic,
                changed,
            } => {
                let k = effects.len();
                effects.push(Effect::Reduce {
                    prop: *prop,
                    idx: regs[*idx as usize].clone(),
                    op: *op,
                    val: regs[*val as usize].clone(),
                    atomic: *atomic,
                });
                if let Some(c) = changed {
                    regs[*c as usize] = Sym::Flag(k);
                }
            }
            Instr::UpdatePrio {
                queue,
                vertex,
                op,
                val,
                atomic,
            } => {
                effects.push(Effect::UpdatePrio {
                    queue: *queue,
                    vertex: regs[*vertex as usize].clone(),
                    op: *op,
                    val: regs[*val as usize].clone(),
                    atomic: *atomic,
                });
            }
            Instr::Enqueue { vertex } => {
                effects.push(Effect::Enqueue {
                    vertex: regs[*vertex as usize].clone(),
                    guard: None,
                });
            }
            Instr::JumpIfNot { cond, target } => {
                // The only branch shape modeled: `if <flag> { enqueue… }`,
                // exactly what the tracking pass emits.
                let Sym::Flag(k) = regs[*cond as usize] else {
                    return None;
                };
                if *target <= pc || *target > u.instrs.len() {
                    return None;
                }
                for j in pc + 1..*target {
                    match &u.instrs[j] {
                        Instr::Enqueue { vertex } => effects.push(Effect::Enqueue {
                            vertex: regs[*vertex as usize].clone(),
                            guard: Some(k),
                        }),
                        _ => return None,
                    }
                }
                pc = *target;
                continue;
            }
            Instr::Ret => break,
            // Stores, globals, calls, degrees, loops, unary ops: out of
            // the modeled subset — the interpreter handles these.
            _ => return None,
        }
        pc += 1;
    }
    Some((effects, u.ret_reg.map(|r| regs[r as usize].clone())))
}

// ---------------------------------------------------------------------------
// Kernel bodies.
// ---------------------------------------------------------------------------

/// The per-edge operator of a kernel.
trait KOp: Send + Sync + 'static {
    fn apply(&self, io: &Io<'_>, src: u32, dst: u32, w: i64, out: &mut BufferedOutput);
}

/// `CAS(prop[dst], expected, src)`, enqueueing `dst` on success (BFS
/// parent-claim, as lowered by the tracking pass).
struct CasClaim {
    prop: PropId,
    expected: Value,
    enqueue: bool,
}

impl KOp for CasClaim {
    #[inline]
    fn apply(&self, io: &Io<'_>, src: u32, dst: u32, _w: i64, out: &mut BufferedOutput) {
        if io
            .props
            .cas(self.prop, dst, self.expected, Value::Int(src as i64))
            && self.enqueue
        {
            out.enqueue(dst);
        }
    }
}

/// `dst_prop[dst] op= src_prop[src]`, optionally enqueueing `dst` when the
/// cell changed (CC label-min, PageRank rank-sum, BC path/deps-sum).
struct PropReduce {
    dst_prop: PropId,
    src_prop: PropId,
    op: ReduceOp,
    atomic: bool,
    enqueue: bool,
}

impl KOp for PropReduce {
    #[inline]
    fn apply(&self, io: &Io<'_>, src: u32, dst: u32, _w: i64, out: &mut BufferedOutput) {
        let props = io.props;
        let v = props.read(self.src_prop, src);
        let (changed, _) = if self.atomic {
            props.reduce(self.dst_prop, dst, self.op, v)
        } else {
            props.reduce_relaxed(self.dst_prop, dst, self.op, v)
        };
        if changed && self.enqueue {
            out.enqueue(dst);
        }
    }
}

/// Priority-queue relaxation: `pq.updatePriorityMin(dst, prop[src] + weight)`
/// (SSSP) or `pq.updatePrioritySum(dst, prop[src] [+ weight])` (delta-sum
/// accumulation).
struct RelaxPrio {
    queue: usize,
    qprop: PropId,
    prop: PropId,
    add_weight: bool,
    op: ReduceOp,
    atomic: bool,
}

impl KOp for RelaxPrio {
    #[inline]
    fn apply(&self, io: &Io<'_>, src: u32, dst: u32, w: i64, out: &mut BufferedOutput) {
        let props = io.props;
        let mut nd = props.read(self.prop, src).as_int();
        if self.add_weight {
            nd += w;
        }
        let v = Value::Int(nd);
        let (changed, _) = if self.atomic {
            props.reduce(self.qprop, dst, self.op, v)
        } else {
            props.reduce_relaxed(self.qprop, dst, self.op, v)
        };
        if changed {
            // The interpreter notifies Sum updates with the post-reduce cell
            // value (a re-read), and every other op with the proposed value.
            let newp = match self.op {
                ReduceOp::Sum => props.read(self.qprop, dst).as_int(),
                _ => nd,
            };
            out.priority_changed(self.queue, dst, newp);
        }
    }
}

/// A vertex filter, monomorphized so the no-filter case compiles away.
trait KFilter: Send + Sync + 'static {
    const ACTIVE: bool;
    fn pass(&self, io: &Io<'_>, v: u32) -> bool;
}

/// No filter: always passes.
struct NoFilter;

impl KFilter for NoFilter {
    const ACTIVE: bool = false;
    #[inline]
    fn pass(&self, _io: &Io<'_>, _v: u32) -> bool {
        true
    }
}

/// How an [`EqConst`] filter compares the cell against its literal.
#[derive(Clone, Copy)]
enum EqCmp {
    /// Raw bit comparison (int/bool/vertex cells with a matching literal).
    Bits(u64),
    /// IEEE-754 `==` on the decoded float cell, matching the interpreter's
    /// `Eq`: a NaN literal matches nothing, and `-0.0 == 0.0` admits both
    /// zero encodings (see DESIGN.md, "Float equality and NaN policy").
    Float(f64),
    /// IEEE-754 `==` on an int/vertex cell widened to float, matching the
    /// interpreter's mixed-type `Eq` (`as_float` widens the int side). A
    /// NaN literal matches nothing here too.
    IntWiden(f64),
}

/// `prop[v] == const`, with the comparison mode fixed at recognition time
/// so it coincides exactly with the interpreter's `Eq`.
struct EqConst {
    prop: PropId,
    cmp: EqCmp,
}

impl KFilter for EqConst {
    const ACTIVE: bool = true;
    #[inline]
    fn pass(&self, io: &Io<'_>, v: u32) -> bool {
        let cell = io.props.read_bits(self.prop, v);
        match self.cmp {
            EqCmp::Bits(bits) => cell == bits,
            EqCmp::Float(c) => f64::from_bits(cell) == c,
            EqCmp::IntWiden(c) => (cell as i64) as f64 == c,
        }
    }
}

/// The apply UDF's compiled body, called as `(src, dst[, weight])`.
struct CompiledApply {
    body: Arc<CompiledUdf>,
    arity: usize,
}

impl KOp for CompiledApply {
    #[inline]
    fn apply(&self, io: &Io<'_>, src: u32, dst: u32, w: i64, out: &mut BufferedOutput) {
        let args = [src as i64, dst as i64, w];
        self.body.call(io.ev, &args[..self.arity], w, out);
    }
}

/// A filter UDF's compiled body; one without a return value passes.
struct CompiledFilter(Arc<CompiledUdf>);

impl KFilter for CompiledFilter {
    const ACTIVE: bool = true;
    #[inline]
    fn pass(&self, io: &Io<'_>, v: u32) -> bool {
        self.0
            .call(io.ev, &[v as i64], 1, &mut NullOutput)
            .is_none_or(|r| r.as_bool())
    }
}

/// The apply UDF run by the interpreter.
struct InterpApply {
    udf: UdfId,
    arity: usize,
}

impl KOp for InterpApply {
    #[inline]
    fn apply(&self, io: &Io<'_>, src: u32, dst: u32, w: i64, out: &mut BufferedOutput) {
        let args = [
            Value::Int(src as i64),
            Value::Int(dst as i64),
            Value::Int(w),
        ];
        let ctx = EdgeCtx { weight: w };
        io.ev
            .call(self.udf, &args[..self.arity], ctx, out, &mut NullMemory);
    }
}

/// A filter UDF run by the interpreter.
struct InterpFilter(UdfId);

impl KFilter for InterpFilter {
    const ACTIVE: bool = true;
    #[inline]
    fn pass(&self, io: &Io<'_>, v: u32) -> bool {
        io.ev.passes(Some(self.0), v, &mut NullMemory)
    }
}

/// One monomorphized traversal: operator × source filter × dst filter.
struct Kernel<O: KOp, SF: KFilter, DF: KFilter> {
    op: O,
    sf: SF,
    df: DF,
    name: &'static str,
}

impl<O: KOp, SF: KFilter, DF: KFilter> EdgeKernel for Kernel<O, SF, DF> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run_push(
        &self,
        io: &Io<'_>,
        members: &[u32],
        range: Range<usize>,
        out: &mut BufferedOutput,
    ) {
        for &src in &members[range] {
            if !self.sf.pass(io, src) {
                continue;
            }
            let weights = io.csr.neighbor_weights(src);
            for (k, &dst) in io.csr.neighbors(src).iter().enumerate() {
                if !self.df.pass(io, dst) {
                    continue;
                }
                let w = weights.map_or(1, |ws| ws[k]) as i64;
                self.op.apply(io, src, dst, w, out);
            }
        }
    }

    fn run_pull(
        &self,
        io: &Io<'_>,
        membership: Option<&VertexSet>,
        range: Range<usize>,
        out: &mut BufferedOutput,
    ) {
        for dst in range {
            let dst = dst as u32;
            if !self.df.pass(io, dst) {
                continue;
            }
            let weights = io.csr.neighbor_weights(dst);
            for (k, &src) in io.csr.neighbors(dst).iter().enumerate() {
                if let Some(m) = membership {
                    if !m.contains(src) {
                        continue;
                    }
                }
                if !self.sf.pass(io, src) {
                    continue;
                }
                let w = weights.map_or(1, |ws| ws[k]) as i64;
                self.op.apply(io, src, dst, w, out);
                // Direction-optimizing early exit, same as the interpreter.
                if DF::ACTIVE && !self.df.pass(io, dst) {
                    break;
                }
            }
        }
    }

    fn run_push_block(
        &self,
        io: &Io<'_>,
        members: &[u32],
        range: Range<usize>,
        lo: u32,
        hi: u32,
        out: &mut BufferedOutput,
    ) {
        for &src in &members[range] {
            if !self.sf.pass(io, src) {
                continue;
            }
            let neigh = io.csr.neighbors(src);
            let weights = io.csr.neighbor_weights(src);
            let start = neigh.partition_point(|&d| d < lo);
            for k in start..neigh.len() {
                let dst = neigh[k];
                if dst >= hi {
                    break;
                }
                if !self.df.pass(io, dst) {
                    continue;
                }
                let w = weights.map_or(1, |ws| ws[k]) as i64;
                self.op.apply(io, src, dst, w, out);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Pattern matching and construction.
// ---------------------------------------------------------------------------

fn is_src(s: &Sym) -> bool {
    matches!(s, Sym::Param(0))
}

fn is_dst(s: &Sym) -> bool {
    matches!(s, Sym::Param(1))
}

/// Recognizes a `prop[v] == const` filter whose comparison coincides with
/// the interpreter's `Eq`: bit equality for int/bool/vertex cells with a
/// matching literal, IEEE `==` for float cells (int literals widen,
/// exactly like `as_float`), and IEEE `==` with the cell widened for an
/// int/vertex cell against a float literal (the interpreter's mixed-type
/// promotion). Only bool cells against non-bool literals fall back.
fn recognize_filter(u: &UdfProgram, props: &PropertyStorage) -> Option<EqConst> {
    if u.num_params != 1 {
        return None;
    }
    let (effects, ret) = symexec(u)?;
    if !effects.is_empty() {
        return None;
    }
    let Some(Sym::Eq(a, b)) = ret else {
        return None;
    };
    let (prop, lit) = match (&*a, &*b) {
        (Sym::Load(p, i), Sym::Lit(c)) if matches!(**i, Sym::Param(0)) => (*p, *c),
        (Sym::Lit(c), Sym::Load(p, i)) if matches!(**i, Sym::Param(0)) => (*p, *c),
        _ => return None,
    };
    let cmp = match (props.ty(prop), lit) {
        (Type::Float, Value::Float(c)) => EqCmp::Float(c),
        (Type::Float, Value::Int(c)) => EqCmp::Float(c as f64),
        (Type::Bool, Value::Bool(_)) => EqCmp::Bits(props.bits_of(prop, lit)),
        (Type::Bool, _) => return None,
        (_, Value::Int(_)) => EqCmp::Bits(props.bits_of(prop, lit)),
        (_, Value::Float(c)) => EqCmp::IntWiden(c),
        _ => return None,
    };
    Some(EqConst { prop, cmp })
}

/// Builds the kernel object once both filters resolved.
fn assemble<O: KOp, F: KFilter>(
    op: O,
    name: &'static str,
    sf: Option<F>,
    df: Option<F>,
) -> Arc<dyn EdgeKernel> {
    match (sf, df) {
        (None, None) => Arc::new(Kernel {
            op,
            sf: NoFilter,
            df: NoFilter,
            name,
        }),
        (Some(sf), None) => Arc::new(Kernel {
            op,
            sf,
            df: NoFilter,
            name,
        }),
        (None, Some(df)) => Arc::new(Kernel {
            op,
            sf: NoFilter,
            df,
            name,
        }),
        (Some(sf), Some(df)) => Arc::new(Kernel { op, sf, df, name }),
    }
}

/// Builds the traversal of one edge operator in the best tier available:
/// the specialized kernel if the recognizer matches, else the walker over
/// the compiled bodies of the apply UDF and both filters, else (or with
/// `use_kernels` off) the walker over the interpreter.
pub(crate) fn select(
    udfs: &UdfSet,
    props: &PropertyStorage,
    compiled: &[Option<Arc<CompiledUdf>>],
    udf: UdfId,
    src_filter: Option<UdfId>,
    dst_filter: Option<UdfId>,
    use_kernels: bool,
) -> Selection {
    // The evaluator's edge arity: `(src, dst, weight)` for a
    // three-parameter UDF, `(src, dst)` otherwise.
    let arity = if udfs.get(udf).num_params == 3 { 3 } else { 2 };
    if use_kernels {
        if let Some(k) = recognize(udfs, props, udf, src_filter, dst_filter) {
            return (Tier::Specialized, k);
        }
        let filter = |f: Option<UdfId>| match f {
            None => Some(None),
            Some(id) => body_of(compiled, udfs, id, 1).map(|b| Some(CompiledFilter(b))),
        };
        if let (Some(body), Some(sf), Some(df)) = (
            body_of(compiled, udfs, udf, arity),
            filter(src_filter),
            filter(dst_filter),
        ) {
            let op = CompiledApply { body, arity };
            return (Tier::Compiled, assemble(op, "compiled udf", sf, df));
        }
    }
    let op = InterpApply { udf, arity };
    let (sf, df) = (src_filter.map(InterpFilter), dst_filter.map(InterpFilter));
    (
        Tier::Interpreted,
        assemble(op, "interpreter fallback", sf, df),
    )
}

/// Recognizes the apply UDF + filters of one edge traversal and builds the
/// specialized kernel, or returns `None` when no kernel shape matches.
pub fn recognize(
    udfs: &UdfSet,
    props: &PropertyStorage,
    udf: UdfId,
    src_filter: Option<UdfId>,
    dst_filter: Option<UdfId>,
) -> Option<Arc<dyn EdgeKernel>> {
    let u = udfs.get(udf);
    if !(u.num_params == 2 || u.num_params == 3) || u.ret_reg.is_some() {
        return None;
    }
    let (effects, _) = symexec(u)?;
    let weight_like =
        |s: &Sym| matches!(s, Sym::Weight) || (u.num_params == 3 && matches!(s, Sym::Param(2)));

    // Resolve filters first: an unrecognized filter leaves the operator to
    // the compiled tier even when the apply itself is specializable.
    let sf = match src_filter {
        None => None,
        Some(f) => Some(recognize_filter(udfs.get(f), props)?),
    };
    let df = match dst_filter {
        None => None,
        Some(f) => Some(recognize_filter(udfs.get(f), props)?),
    };

    match &effects[..] {
        // BFS-style parent claim, with or without tracked enqueue.
        [Effect::Cas {
            prop,
            idx,
            expected,
            new,
        }, rest @ ..]
            if is_dst(idx) && is_src(new) && matches!(expected, Sym::Lit(_)) =>
        {
            let enqueue = match rest {
                [] => false,
                [Effect::Enqueue {
                    vertex,
                    guard: Some(0),
                }] if is_dst(vertex) => true,
                _ => return None,
            };
            let Sym::Lit(expected) = expected else {
                return None;
            };
            Some(assemble(
                CasClaim {
                    prop: *prop,
                    expected: *expected,
                    enqueue,
                },
                "cas_claim",
                sf,
                df,
            ))
        }
        // CC / PageRank / BC style reduction, optionally with tracked
        // enqueue.
        [Effect::Reduce {
            prop,
            idx,
            op,
            val,
            atomic,
        }, rest @ ..]
            if is_dst(idx) && matches!(val, Sym::Load(_, i) if is_src(i)) =>
        {
            let enqueue = match rest {
                [] => false,
                [Effect::Enqueue {
                    vertex,
                    guard: Some(0),
                }] if is_dst(vertex) => true,
                _ => return None,
            };
            let Sym::Load(src_prop, _) = val else {
                return None;
            };
            Some(assemble(
                PropReduce {
                    dst_prop: *prop,
                    src_prop: *src_prop,
                    op: *op,
                    atomic: *atomic,
                    enqueue,
                },
                match op {
                    ReduceOp::Sum => "reduce_sum",
                    ReduceOp::Min => "reduce_min",
                    ReduceOp::Max => "reduce_max",
                    ReduceOp::Or => "reduce_or",
                },
                sf,
                df,
            ))
        }
        // Priority-queue relaxation: SSSP min over `prop[src] + weight`, or
        // delta-sum accumulation over `prop[src] [+ weight]`. The Sum kernel
        // replicates the interpreter's re-read-after-reduce notification.
        [Effect::UpdatePrio {
            queue,
            vertex,
            op: op @ (ReduceOp::Min | ReduceOp::Sum),
            val,
            atomic,
        }] if is_dst(vertex) => {
            let (prop, add_weight) = match val {
                Sym::Add(a, b) => match (&**a, &**b) {
                    (Sym::Load(d, i), other) if is_src(i) && weight_like(other) => (*d, true),
                    (other, Sym::Load(d, i)) if is_src(i) && weight_like(other) => (*d, true),
                    _ => return None,
                },
                Sym::Load(d, i) if is_src(&**i) => (*d, false),
                _ => return None,
            };
            // `as_int` on the loaded operand must match the interpreter's
            // integer arithmetic: any non-float cell qualifies.
            if props.ty(prop) == Type::Float {
                return None;
            }
            Some(assemble(
                RelaxPrio {
                    queue: *queue,
                    qprop: udfs.queue_props[*queue],
                    prop,
                    add_weight,
                    op: *op,
                    atomic: *atomic,
                },
                match op {
                    ReduceOp::Min => "relax_min",
                    _ => "relax_sum",
                },
                sf,
                df,
            ))
        }
        _ => None,
    }
}

/// Property and global tables carrying only `prog`'s declared types, for
/// callers (the C++ emitter, tests) that reason about programs before any
/// graph is loaded.
fn declared(prog: &ugc_graphir::ir::Program) -> (PropertyStorage, GlobalTable) {
    let mut props = PropertyStorage::new(0);
    for p in &prog.properties {
        props.add(p.name.clone(), p.ty, Value::zero_of(p.ty));
    }
    let mut globals = GlobalTable::new();
    for g in &prog.globals {
        globals.add(g.name.clone(), g.ty, Value::zero_of(g.ty));
    }
    (props, globals)
}

/// Recognition without property arrays: the specialized kernel's name, or
/// `None` when no kernel shape matches.
pub fn recognize_name(
    prog: &ugc_graphir::ir::Program,
    udfs: &UdfSet,
    udf: UdfId,
    src_filter: Option<UdfId>,
    dst_filter: Option<UdfId>,
) -> Option<&'static str> {
    let (props, _) = declared(prog);
    recognize(udfs, &props, udf, src_filter, dst_filter).map(|k| k.name())
}

/// [`select`] without property arrays, kernels on: the name of the
/// traversal the executor will run — a kernel name, `compiled udf` or
/// `interpreter fallback`.
pub fn select_name(
    prog: &ugc_graphir::ir::Program,
    udfs: &UdfSet,
    udf: UdfId,
    src_filter: Option<UdfId>,
    dst_filter: Option<UdfId>,
) -> &'static str {
    let (props, globals) = declared(prog);
    let compiled = udf::compile_all(udfs, &props, &globals);
    select(udfs, &props, &compiled, udf, src_filter, dst_filter, true)
        .1
        .name()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugc_graphir::ir::{Expr, Function, LValue, Param, Program, Stmt, StmtKind};
    use ugc_graphir::keys;
    use ugc_runtime::bytecode::{binding_of, compile_udfs};

    fn props_of(prog: &Program, n: usize) -> PropertyStorage {
        let mut props = PropertyStorage::new(n);
        for p in &prog.properties {
            let init = match &p.init.kind {
                ugc_graphir::ir::ExprKind::Int(v) => Value::Int(*v),
                ugc_graphir::ir::ExprKind::Float(v) => Value::Float(*v),
                ugc_graphir::ir::ExprKind::Bool(v) => Value::Bool(*v),
                _ => Value::zero_of(p.ty),
            };
            props.add(p.name.clone(), p.ty, init);
        }
        props
    }

    fn bfs_program() -> Program {
        let mut p = Program::new();
        p.add_property("parent", Type::Vertex, Expr::int(-1));
        let mut f = Function::new(
            "updateEdge",
            vec![
                Param::new("src", Type::Vertex),
                Param::new("dst", Type::Vertex),
            ],
            None,
        );
        let mut cas = Expr::cas("parent", Expr::var("dst"), Expr::int(-1), Expr::var("src"));
        cas.meta.set(keys::IS_ATOMIC, true);
        f.body.push(Stmt::new(StmtKind::VarDecl {
            name: "enq".into(),
            ty: Type::Bool,
            init: Some(cas),
        }));
        f.body.push(Stmt::new(StmtKind::If {
            cond: Expr::var("enq"),
            then_body: vec![Stmt::new(StmtKind::EnqueueVertex {
                set: None,
                vertex: Expr::var("dst"),
            })],
            else_body: vec![],
        }));
        p.add_function(f);
        let mut filt = Function::new(
            "toFilter",
            vec![Param::new("v", Type::Vertex)],
            Some(Param::new("output", Type::Bool)),
        );
        filt.body.push(Stmt::new(StmtKind::Assign {
            target: LValue::Var("output".into()),
            value: Expr::bin(
                BinOp::Eq,
                Expr::prop("parent", Expr::var("v")),
                Expr::int(-1),
            ),
        }));
        p.add_function(filt);
        p
    }

    #[test]
    fn recognizes_bfs_cas_claim_with_filter() {
        let prog = bfs_program();
        let udfs = compile_udfs(&prog, &binding_of(&prog)).unwrap();
        let props = props_of(&prog, 4);
        let k = recognize(
            &udfs,
            &props,
            udfs.id_of("updateEdge").unwrap(),
            None,
            Some(udfs.id_of("toFilter").unwrap()),
        )
        .expect("BFS shape must specialize");
        assert_eq!(k.name(), "cas_claim");
    }

    #[test]
    fn cas_claim_kernel_matches_semantics() {
        let prog = bfs_program();
        let udfs = compile_udfs(&prog, &binding_of(&prog)).unwrap();
        let props = props_of(&prog, 4);
        let graph = ugc_graph::Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2)]);
        let k = recognize(&udfs, &props, udfs.id_of("updateEdge").unwrap(), None, None).unwrap();
        let globals = GlobalTable::new();
        let ev = Evaluator::new(&udfs, &props, &globals, &graph);
        let io = Io {
            props: &props,
            ev: &ev,
            csr: graph.out_csr(),
        };
        let mut out = BufferedOutput::default();
        k.run_push(&io, &[0, 1], 0..2, &mut out);
        // Vertex 2 claimed exactly once (second CAS fails), 1 claimed by 0.
        assert_eq!(out.enqueued, vec![1, 2]);
        let parent = props.id_of("parent").unwrap();
        assert_eq!(props.read(parent, 2), Value::Int(0));
    }

    fn float_filter_program(literal: Expr) -> Program {
        let mut p = Program::new();
        p.add_property("rank", Type::Float, Expr::float(0.0));
        p.add_property("acc", Type::Float, Expr::float(0.0));
        let mut f = Function::new(
            "upd",
            vec![
                Param::new("src", Type::Vertex),
                Param::new("dst", Type::Vertex),
            ],
            None,
        );
        let mut red = Stmt::new(StmtKind::Reduce {
            target: LValue::prop("acc", Expr::var("dst")),
            op: ReduceOp::Sum,
            value: Expr::prop("rank", Expr::var("src")),
            tracking: None,
        });
        red.meta.set(keys::IS_ATOMIC, true);
        f.body.push(red);
        p.add_function(f);
        let mut filt = Function::new(
            "floatFilter",
            vec![Param::new("v", Type::Vertex)],
            Some(Param::new("output", Type::Bool)),
        );
        filt.body.push(Stmt::new(StmtKind::Assign {
            target: LValue::Var("output".into()),
            value: Expr::bin(BinOp::Eq, Expr::prop("rank", Expr::var("v")), literal),
        }));
        p.add_function(filt);
        p
    }

    #[test]
    fn float_filter_specializes_with_ieee_semantics() {
        let p = float_filter_program(Expr::float(0.0));
        let udfs = compile_udfs(&p, &binding_of(&p)).unwrap();
        let props = props_of(&p, 5);
        let k = recognize(
            &udfs,
            &props,
            udfs.id_of("upd").unwrap(),
            None,
            Some(udfs.id_of("floatFilter").unwrap()),
        )
        .expect("float-equality filter must specialize under IEEE ==");
        assert_eq!(k.name(), "reduce_sum");

        // Drive the kernel over cells {0.0, -0.0, NaN, 1.0} and check the
        // filter against the interpreter's own Eq on the same operands.
        let rank = props.id_of("rank").unwrap();
        let acc = props.id_of("acc").unwrap();
        let cells = [(1u32, 0.0_f64), (2, -0.0), (3, f64::NAN), (4, 1.0)];
        props.write(rank, 0, Value::Float(2.5));
        for &(v, c) in &cells {
            props.write(rank, v, Value::Float(c));
        }
        let graph = ugc_graph::Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let globals = GlobalTable::new();
        let ev = Evaluator::new(&udfs, &props, &globals, &graph);
        let io = Io {
            props: &props,
            ev: &ev,
            csr: graph.out_csr(),
        };
        let mut out = BufferedOutput::default();
        k.run_push(&io, &[0], 0..1, &mut out);
        for &(v, c) in &cells {
            let reference = Value::bin(BinOp::Eq, Value::Float(c), Value::Float(0.0)).as_bool();
            let kernel_passed = props.read(acc, v) != Value::Float(0.0);
            assert_eq!(
                kernel_passed, reference,
                "cell {c} must match the interpreter's Eq"
            );
        }
        // IEEE: -0.0 == 0.0 admits both zero encodings, NaN never matches.
        assert_eq!(props.read(acc, 1), Value::Float(2.5));
        assert_eq!(props.read(acc, 2), Value::Float(2.5));
        assert_eq!(props.read(acc, 3), Value::Float(0.0));
        assert_eq!(props.read(acc, 4), Value::Float(0.0));
    }

    #[test]
    fn nan_literal_matches_nothing() {
        let p = float_filter_program(Expr::float(f64::NAN));
        let udfs = compile_udfs(&p, &binding_of(&p)).unwrap();
        let props = props_of(&p, 3);
        let rank = props.id_of("rank").unwrap();
        let acc = props.id_of("acc").unwrap();
        props.write(rank, 0, Value::Float(1.0));
        props.write(rank, 2, Value::Float(f64::NAN));
        let k = recognize(
            &udfs,
            &props,
            udfs.id_of("upd").unwrap(),
            None,
            Some(udfs.id_of("floatFilter").unwrap()),
        )
        .unwrap();
        let graph = ugc_graph::Graph::from_edges(3, &[(0, 1), (0, 2)]);
        let globals = GlobalTable::new();
        let ev = Evaluator::new(&udfs, &props, &globals, &graph);
        let io = Io {
            props: &props,
            ev: &ev,
            csr: graph.out_csr(),
        };
        let mut out = BufferedOutput::default();
        k.run_push(&io, &[0], 0..1, &mut out);
        // Not even a bit-identical NaN cell passes `rank[v] == NaN`.
        assert_eq!(props.read(acc, 1), Value::Float(0.0));
        assert_eq!(props.read(acc, 2), Value::Float(0.0));
    }

    #[test]
    fn int_literal_widens_against_float_cell() {
        let p = float_filter_program(Expr::int(0));
        let udfs = compile_udfs(&p, &binding_of(&p)).unwrap();
        let props = props_of(&p, 2);
        props.write(props.id_of("rank").unwrap(), 0, Value::Float(3.0));
        let k = recognize(
            &udfs,
            &props,
            udfs.id_of("upd").unwrap(),
            None,
            Some(udfs.id_of("floatFilter").unwrap()),
        )
        .expect("int literal widens to float, like the interpreter");
        let graph = ugc_graph::Graph::from_edges(2, &[(0, 1)]);
        let globals = GlobalTable::new();
        let ev = Evaluator::new(&udfs, &props, &globals, &graph);
        let io = Io {
            props: &props,
            ev: &ev,
            csr: graph.out_csr(),
        };
        let mut out = BufferedOutput::default();
        k.run_push(&io, &[0], 0..1, &mut out);
        // rank[1] is 0.0 == 0 → passes; acc[1] accumulates rank[0].
        assert_eq!(
            props.read(props.id_of("acc").unwrap(), 1),
            Value::Float(3.0)
        );
    }

    /// A program with an int property `x`, a Reduce-Sum `upd`, and a
    /// `mixedFilter` comparing `x[v]` against the given float literal.
    fn mixed_filter_program(literal: f64) -> Program {
        let mut p = Program::new();
        p.add_property("x", Type::Int, Expr::int(0));
        let mut f = Function::new(
            "upd",
            vec![
                Param::new("src", Type::Vertex),
                Param::new("dst", Type::Vertex),
            ],
            None,
        );
        let mut red = Stmt::new(StmtKind::Reduce {
            target: LValue::prop("x", Expr::var("dst")),
            op: ReduceOp::Sum,
            value: Expr::prop("x", Expr::var("src")),
            tracking: None,
        });
        red.meta.set(keys::IS_ATOMIC, true);
        f.body.push(red);
        p.add_function(f);
        let mut filt = Function::new(
            "mixedFilter",
            vec![Param::new("v", Type::Vertex)],
            Some(Param::new("output", Type::Bool)),
        );
        filt.body.push(Stmt::new(StmtKind::Assign {
            target: LValue::Var("output".into()),
            value: Expr::bin(
                BinOp::Eq,
                Expr::prop("x", Expr::var("v")),
                Expr::float(literal),
            ),
        }));
        p.add_function(filt);
        p
    }

    #[test]
    fn int_cell_against_float_literal_specializes_and_matches_interpreter() {
        let p = mixed_filter_program(1.0);
        let udfs = compile_udfs(&p, &binding_of(&p)).unwrap();
        let props = props_of(&p, 5);
        let x = props.id_of("x").unwrap();
        let k = recognize(
            &udfs,
            &props,
            udfs.id_of("upd").unwrap(),
            None,
            Some(udfs.id_of("mixedFilter").unwrap()),
        )
        .expect("int cell vs float literal must widen like the interpreter");
        assert_eq!(k.name(), "reduce_sum");

        // Differential oracle: drive the kernel over int cells
        // {1, 0, -1, 7} and check each dst's pass/fail against the
        // interpreter's own mixed-type Eq on the same operands.
        let cells = [(1u32, 1i64), (2, 0), (3, -1), (4, 7)];
        props.write(x, 0, Value::Int(10));
        for &(v, c) in &cells {
            props.write(x, v, Value::Int(c));
        }
        let graph = ugc_graph::Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let globals = GlobalTable::new();
        let ev = Evaluator::new(&udfs, &props, &globals, &graph);
        let io = Io {
            props: &props,
            ev: &ev,
            csr: graph.out_csr(),
        };
        let mut out = BufferedOutput::default();
        k.run_push(&io, &[0], 0..1, &mut out);
        for &(v, c) in &cells {
            let reference = Value::bin(BinOp::Eq, Value::Int(c), Value::Float(1.0)).as_bool();
            let kernel_passed = props.read(x, v) != Value::Int(c);
            assert_eq!(
                kernel_passed, reference,
                "int cell {c} vs float literal 1.0 must match the interpreter's Eq"
            );
        }
        // Only x[1] == 1 widens to 1.0 and passes the dst filter.
        assert_eq!(props.read(x, 1), Value::Int(11));
        assert_eq!(props.read(x, 2), Value::Int(0));
        assert_eq!(props.read(x, 3), Value::Int(-1));
        assert_eq!(props.read(x, 4), Value::Int(7));
    }

    #[test]
    fn nan_float_literal_never_matches_int_cells() {
        let p = mixed_filter_program(f64::NAN);
        let udfs = compile_udfs(&p, &binding_of(&p)).unwrap();
        let props = props_of(&p, 3);
        let x = props.id_of("x").unwrap();
        props.write(x, 0, Value::Int(5));
        let k = recognize(
            &udfs,
            &props,
            udfs.id_of("upd").unwrap(),
            None,
            Some(udfs.id_of("mixedFilter").unwrap()),
        )
        .unwrap();
        let graph = ugc_graph::Graph::from_edges(3, &[(0, 1), (0, 2)]);
        let globals = GlobalTable::new();
        let ev = Evaluator::new(&udfs, &props, &globals, &graph);
        let io = Io {
            props: &props,
            ev: &ev,
            csr: graph.out_csr(),
        };
        let mut out = BufferedOutput::default();
        k.run_push(&io, &[0], 0..1, &mut out);
        // `x[v] == NaN` is false for every widened int, as in `Value::bin`.
        assert_eq!(props.read(x, 1), Value::Int(0));
        assert_eq!(props.read(x, 2), Value::Int(0));
    }

    fn prio_sum_program() -> Program {
        let mut p = Program::new();
        p.add_property("delta", Type::Int, Expr::int(0));
        p.add_property("prio", Type::Int, Expr::int(0));
        p.add_queue("pq", "prio", Expr::int(0));
        let mut f = Function::new(
            "updDelta",
            vec![
                Param::new("src", Type::Vertex),
                Param::new("dst", Type::Vertex),
            ],
            None,
        );
        let mut upd = Stmt::new(StmtKind::UpdatePriority {
            queue: "pq".into(),
            vertex: Expr::var("dst"),
            op: ReduceOp::Sum,
            value: Expr::prop("delta", Expr::var("src")),
        });
        upd.meta.set(keys::IS_ATOMIC, true);
        f.body.push(upd);
        p.add_function(f);
        p
    }

    #[test]
    fn recognizes_update_prio_sum() {
        let p = prio_sum_program();
        let udfs = compile_udfs(&p, &binding_of(&p)).unwrap();
        let props = props_of(&p, 3);
        let k = recognize(&udfs, &props, udfs.id_of("updDelta").unwrap(), None, None)
            .expect("UpdatePrio Sum must specialize");
        assert_eq!(k.name(), "relax_sum");
    }

    #[test]
    fn relax_sum_notifies_post_reduce_value() {
        let p = prio_sum_program();
        let udfs = compile_udfs(&p, &binding_of(&p)).unwrap();
        let props = props_of(&p, 3);
        let delta = props.id_of("delta").unwrap();
        props.write(delta, 0, Value::Int(5));
        props.write(delta, 1, Value::Int(7));
        let k = recognize(&udfs, &props, udfs.id_of("updDelta").unwrap(), None, None).unwrap();
        let graph = ugc_graph::Graph::from_edges(3, &[(0, 2), (1, 2)]);
        let globals = GlobalTable::new();
        let ev = Evaluator::new(&udfs, &props, &globals, &graph);
        let io = Io {
            props: &props,
            ev: &ev,
            csr: graph.out_csr(),
        };
        let mut out = BufferedOutput::default();
        k.run_push(&io, &[0, 1], 0..2, &mut out);
        // Sum notifications carry the accumulated cell (interpreter re-read
        // semantics): 0+5 = 5, then 5+7 = 12 — not the increment 7.
        assert_eq!(out.priority_updates, vec![(0, 2, 5), (0, 2, 12)]);
        assert_eq!(props.read(props.id_of("prio").unwrap(), 2), Value::Int(12));
    }

    #[test]
    fn opaque_udf_falls_back() {
        let mut p = Program::new();
        p.add_property("x", Type::Int, Expr::int(0));
        let mut f = Function::new(
            "storeUdf",
            vec![
                Param::new("src", Type::Vertex),
                Param::new("dst", Type::Vertex),
            ],
            None,
        );
        // Plain (untracked) store: outside the modeled subset.
        f.body.push(Stmt::new(StmtKind::Assign {
            target: LValue::prop("x", Expr::var("dst")),
            value: Expr::var("src"),
        }));
        p.add_function(f);
        let udfs = compile_udfs(&p, &binding_of(&p)).unwrap();
        let props = props_of(&p, 4);
        assert!(recognize(&udfs, &props, udfs.id_of("storeUdf").unwrap(), None, None).is_none());
    }

    #[test]
    fn cache_memoizes_fallback_and_hit() {
        let prog = bfs_program();
        let udfs = compile_udfs(&prog, &binding_of(&prog)).unwrap();
        let props = props_of(&prog, 4);
        let cache = KernelCache::default();
        let key = KernelKey {
            point: SchedulePoint::default(),
            udf: udfs.id_of("updateEdge").unwrap(),
            src_filter: None,
            dst_filter: None,
            weighted: false,
        };
        let mut builds = 0;
        for _ in 0..3 {
            let (tier, _) = cache.resolve(key, || {
                builds += 1;
                select(&udfs, &props, &[], key.udf, None, None, true)
            });
            assert_eq!(tier, Tier::Specialized);
        }
        assert_eq!(builds, 1, "recognition must run once per key");
    }
}
