//! The CPU GraphVM's edge traversals: one walker per direction, generic
//! over the per-edge step of the tier an operator runs in.
//!
//! An edge operator is compiled whole ([`CompiledOp`]): the filter the
//! walker checks per edge spliced in front of the apply, run in one
//! register frame per chunk. When a UDF does not compile, or with kernels
//! off, it runs on the interpreter — one [`Evaluator::call`] per UDF call.
//! [`select`] picks the [`Tier`] once per run, cached by [`KernelKey`]
//! (the [`ugc_schedule::SchedulePoint`] plus the operator facts only this
//! backend sees). Both tiers go through the same walker, so they visit
//! edges in the same order and single-threaded runs are bit-identical;
//! the interpreter is the differential oracle.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};

use ugc_graph::Csr;
use ugc_runtime::eval::{BufferedOutput, EdgeCtx, Evaluator, NullMemory};
use ugc_runtime::properties::{GlobalTable, PropId, PropertyStorage};
use ugc_runtime::udf::{CompiledOp, Frame};
use ugc_runtime::value::Value;
use ugc_runtime::vertexset::VertexSet;
use ugc_runtime::{UdfId, UdfSet};
use ugc_schedule::SchedulePoint;

/// Whether compiled operators and UDF bodies are enabled for this process
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

/// Identity of one edge traversal: the hardware-independent schedule
/// point plus the operator facts that select its body.
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

/// Everything a traversal needs per range: the program state (behind the
/// evaluator that would interpret it) and the CSR for the traversal
/// direction (forward for push, backward for pull).
pub struct Io<'a> {
    /// Properties, globals, graph and UDFs of the run.
    pub ev: &'a Evaluator<'a>,
    /// Adjacency in the traversal direction.
    pub csr: &'a Csr,
}

/// How an operator's UDFs run: the two tiers of the CPU hot path, in the
/// order [`select`] tries them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Compiled whole ([`CompiledOp`]).
    Compiled,
    /// One [`Evaluator::call`] per UDF call.
    Interpreted,
}

/// The edges one call of [`EdgeKernel::run`] walks.
#[derive(Debug, Clone)]
pub enum Walk<'m> {
    /// Every out-edge of each source in `members[range]` that passes the
    /// source filter, to a destination that passes the destination filter.
    Push {
        /// The input frontier.
        members: &'m [u32],
        /// The sources of this call.
        range: Range<usize>,
    },
    /// The in-edges of each destination in `range` that passes its filter,
    /// from sources in `membership` (all, without one) that pass theirs,
    /// stopping once the destination no longer passes (the
    /// direction-optimizing early exit).
    Pull {
        /// The input frontier, when there is one.
        membership: Option<&'m VertexSet>,
        /// The destinations of this call.
        range: Range<usize>,
    },
}

/// The per-edge work of one operator in one tier, for one chunk.
trait Step {
    fn has_dst_filter(&self) -> bool;
    fn src_passes(&mut self, v: u32) -> bool;
    fn dst_passes(&mut self, v: u32) -> bool;
    /// The apply, if `dst` passes the destination filter.
    fn push_edge(&mut self, src: u32, dst: u32, w: i64);
    /// The apply, if `src` passes the source filter.
    fn pull_edge(&mut self, src: u32, dst: u32, w: i64);
}

impl Walk<'_> {
    fn over<S: Step>(self, csr: &Csr, step: &mut S) {
        match self {
            Walk::Push { members, range } => {
                for &src in &members[range] {
                    if !step.src_passes(src) {
                        continue;
                    }
                    let weights = csr.neighbor_weights(src);
                    for (k, &dst) in csr.neighbors(src).iter().enumerate() {
                        step.push_edge(src, dst, weights.map_or(1, |ws| ws[k]) as i64);
                    }
                }
            }
            Walk::Pull { membership, range } => {
                let early_exit = step.has_dst_filter();
                for dst in range {
                    let dst = dst as u32;
                    if !step.dst_passes(dst) {
                        continue;
                    }
                    let weights = csr.neighbor_weights(dst);
                    for (k, &src) in csr.neighbors(dst).iter().enumerate() {
                        if membership.is_some_and(|m| !m.contains(src)) {
                            continue;
                        }
                        step.pull_edge(src, dst, weights.map_or(1, |ws| ws[k]) as i64);
                        if early_exit && !step.dst_passes(dst) {
                            break;
                        }
                    }
                }
            }
        }
    }
}

/// The compiled operator, in one chunk's frame.
struct Compiled<'a, 'e, 'o> {
    op: &'a CompiledOp,
    frame: Frame<'e, 'o>,
}

impl Step for Compiled<'_, '_, '_> {
    fn has_dst_filter(&self) -> bool {
        self.op.has_dst_filter()
    }
    #[inline]
    fn src_passes(&mut self, v: u32) -> bool {
        self.op.src_passes(&mut self.frame, v)
    }
    #[inline]
    fn dst_passes(&mut self, v: u32) -> bool {
        self.op.dst_passes(&mut self.frame, v)
    }
    #[inline]
    fn push_edge(&mut self, src: u32, dst: u32, w: i64) {
        self.op.push_edge(&mut self.frame, src, dst, w);
    }
    #[inline]
    fn pull_edge(&mut self, src: u32, dst: u32, w: i64) {
        self.op.pull_edge(&mut self.frame, src, dst, w);
    }
}

/// An operator's UDFs, run by the interpreter.
pub struct InterpOp {
    udf: UdfId,
    /// `(src, dst, weight)` for a three-parameter UDF, `(src, dst)`
    /// otherwise.
    arity: usize,
    src_filter: Option<UdfId>,
    dst_filter: Option<UdfId>,
}

/// The interpreted operator, writing to one chunk's output.
struct Interpreted<'a, 'o> {
    op: &'a InterpOp,
    ev: &'a Evaluator<'a>,
    out: &'o mut BufferedOutput,
}

impl Interpreted<'_, '_> {
    fn apply(&mut self, src: u32, dst: u32, w: i64) {
        let args = [
            Value::Int(src as i64),
            Value::Int(dst as i64),
            Value::Int(w),
        ];
        let ctx = EdgeCtx { weight: w };
        self.ev.call(
            self.op.udf,
            &args[..self.op.arity],
            ctx,
            self.out,
            &mut NullMemory,
        );
    }
}

impl Step for Interpreted<'_, '_> {
    fn has_dst_filter(&self) -> bool {
        self.op.dst_filter.is_some()
    }
    fn src_passes(&mut self, v: u32) -> bool {
        self.ev.passes(self.op.src_filter, v, &mut NullMemory)
    }
    fn dst_passes(&mut self, v: u32) -> bool {
        self.ev.passes(self.op.dst_filter, v, &mut NullMemory)
    }
    fn push_edge(&mut self, src: u32, dst: u32, w: i64) {
        if self.dst_passes(dst) {
            self.apply(src, dst, w);
        }
    }
    fn pull_edge(&mut self, src: u32, dst: u32, w: i64) {
        if self.src_passes(src) {
            self.apply(src, dst, w);
        }
    }
}

/// One edge operator's traversal, in the tier [`select`] chose.
pub enum EdgeKernel {
    /// Compiled whole.
    Compiled(CompiledOp),
    /// On the interpreter.
    Interpreted(InterpOp),
}

impl EdgeKernel {
    /// The tier the operator runs in.
    pub fn tier(&self) -> Tier {
        match self {
            EdgeKernel::Compiled(_) => Tier::Compiled,
            EdgeKernel::Interpreted(_) => Tier::Interpreted,
        }
    }

    /// The tier's name, for emitter comments and tests.
    pub fn name(&self) -> &'static str {
        match self {
            EdgeKernel::Compiled(_) => "compiled operator",
            EdgeKernel::Interpreted(_) => "interpreter fallback",
        }
    }

    /// Walks `walk`'s edges, sending the operator's effects to `out`.
    pub fn run(&self, io: &Io<'_>, walk: Walk<'_>, out: &mut BufferedOutput) {
        match self {
            EdgeKernel::Compiled(op) => walk.over(
                io.csr,
                &mut Compiled {
                    op,
                    frame: Frame::new(io.ev, out),
                },
            ),
            EdgeKernel::Interpreted(op) => {
                walk.over(io.csr, &mut Interpreted { op, ev: io.ev, out })
            }
        }
    }
}

/// Counts the triangles of a symmetric simple graph whose lowest vertex is
/// in `range`, adding to `tri` what the marked per-edge operator
/// `tri[v] += intersect_count(src, dst)` adds over the whole graph: 2 to
/// each corner per triangle.
///
/// `N⁺(v)` is the suffix of `v`'s sorted list above `v`, so no second
/// adjacency is built. For each `s`, `N⁺(s)` is marked in `marks` (this
/// participant's `⌈n/64⌉` words, zero between calls), and each
/// `d ∈ N⁺(s)` probes `N⁺(d)`: every marked `w` closes the triangle
/// `s < d < w`, found from no other `(s, d)`. Credits go to the cells by
/// relaxed atomic adds — `w` per triangle, `d` once per `(s, d)`, `s` once
/// — and integer adds commute, so the counts are exact at any thread count.
pub(crate) fn oriented_triangles(
    csr: &Csr,
    props: &PropertyStorage,
    tri: PropId,
    range: Range<usize>,
    marks: &mut Vec<u64>,
) {
    let words = csr.num_vertices().div_ceil(64);
    if marks.len() != words {
        *marks = vec![0; words];
    }
    let above = |v: u32| {
        let ns = csr.neighbors(v);
        &ns[ns.partition_point(|&w| w <= v)..]
    };
    for s in range {
        let s = s as u32;
        let mine = above(s);
        if mine.len() < 2 {
            continue;
        }
        for &d in mine {
            marks[d as usize >> 6] |= 1 << (d & 63);
        }
        let mut at_s = 0i64;
        for &d in mine {
            let mut at_d = 0i64;
            for &w in above(d) {
                if marks[w as usize >> 6] >> (w & 63) & 1 != 0 {
                    at_d += 1;
                    props.add_int(tri, w, 2);
                }
            }
            if at_d > 0 {
                props.add_int(tri, d, 2 * at_d);
                at_s += at_d;
            }
        }
        if at_s > 0 {
            props.add_int(tri, s, 2 * at_s);
        }
        for &d in mine {
            marks[d as usize >> 6] = 0;
        }
    }
}

/// Per-run kernel table: `KernelKey → kernel`, so each operator compiles
/// once per key.
#[derive(Default)]
pub struct KernelCache {
    map: Mutex<HashMap<KernelKey, Arc<EdgeKernel>>>,
}

impl KernelCache {
    /// Looks up `key`, selecting on first use via `build`.
    pub fn resolve(&self, key: KernelKey, build: impl FnOnce() -> EdgeKernel) -> Arc<EdgeKernel> {
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(key).or_insert_with(|| Arc::new(build())).clone()
    }
}

/// Builds the traversal of one edge operator: compiled whole when every
/// UDF compiles and `use_kernels` is on, else on the interpreter.
pub fn select(
    udfs: &UdfSet,
    props: &PropertyStorage,
    globals: &GlobalTable,
    udf: UdfId,
    src_filter: Option<UdfId>,
    dst_filter: Option<UdfId>,
    use_kernels: bool,
) -> EdgeKernel {
    if use_kernels {
        if let Some(op) = CompiledOp::new(udfs, props, globals, udf, src_filter, dst_filter) {
            return EdgeKernel::Compiled(op);
        }
    }
    EdgeKernel::Interpreted(InterpOp {
        udf,
        arity: if udfs.get(udf).num_params == 3 { 3 } else { 2 },
        src_filter,
        dst_filter,
    })
}

/// [`select`] against `prog`'s declared property and global types, kernels
/// on, for callers (the C++ emitter, tests) that reason about programs
/// before any graph is loaded: `compiled operator` or `interpreter
/// fallback`.
pub fn select_name(
    prog: &ugc_graphir::ir::Program,
    udfs: &UdfSet,
    udf: UdfId,
    src_filter: Option<UdfId>,
    dst_filter: Option<UdfId>,
) -> &'static str {
    let mut props = PropertyStorage::new(0);
    for p in &prog.properties {
        props.add(p.name.clone(), p.ty, Value::zero_of(p.ty));
    }
    let mut globals = GlobalTable::new();
    for g in &prog.globals {
        globals.add(g.name.clone(), g.ty, Value::zero_of(g.ty));
    }
    select(udfs, &props, &globals, udf, src_filter, dst_filter, true).name()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugc_graph::Graph;
    use ugc_graphir::ir::{Expr, Function, LValue, Param, Program, Stmt, StmtKind};
    use ugc_graphir::keys;
    use ugc_graphir::types::{BinOp, ReduceOp, Type};
    use ugc_runtime::bytecode::{binding_of, compile_udfs};
    use ugc_runtime::properties::PropId;

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

    /// Runs a push over `members` of `graph` with `prog`'s operator `apply`
    /// under destination filter `df`, compiled and on the interpreter, each
    /// on its own state set up by `init`. Both must leave the same cells
    /// and output; returns the compiled run's.
    fn both_tiers(
        prog: &Program,
        graph: &Graph,
        apply: &str,
        df: Option<&str>,
        members: &[u32],
        init: impl Fn(&PropertyStorage),
    ) -> (PropertyStorage, BufferedOutput) {
        let udfs = compile_udfs(prog, &binding_of(prog)).unwrap();
        let id = |n: &str| udfs.id_of(n).unwrap();
        let globals = GlobalTable::new();
        let run = |compiled: bool| {
            let props = props_of(prog, graph.num_vertices());
            init(&props);
            let k = select(
                &udfs,
                &props,
                &globals,
                id(apply),
                None,
                df.map(id),
                compiled,
            );
            assert_eq!(k.tier() == Tier::Compiled, compiled);
            let mut out = BufferedOutput::default();
            {
                let ev = Evaluator::new(&udfs, &props, &globals, graph);
                let io = Io {
                    ev: &ev,
                    csr: graph.out_csr(),
                };
                let range = 0..members.len();
                k.run(&io, Walk::Push { members, range }, &mut out);
            }
            let cells: Vec<Vec<u64>> = (0..prog.properties.len())
                .map(|p| {
                    (0..graph.num_vertices() as u32)
                        .map(|v| props.read_bits(PropId(p), v))
                        .collect()
                })
                .collect();
            (props, out, cells)
        };
        let (props, out, cells) = run(true);
        let (_, want_out, want_cells) = run(false);
        assert_eq!(cells, want_cells, "cells diverge from the interpreter");
        assert_eq!(out.enqueued, want_out.enqueued);
        assert_eq!(out.priority_updates, want_out.priority_updates);
        (props, out)
    }

    #[test]
    fn cas_claim_kernel_matches_semantics() {
        let graph = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2)]);
        let (props, out) = both_tiers(&bfs_program(), &graph, "updateEdge", None, &[0, 1], |_| {});
        // Vertex 2 claimed exactly once (second CAS fails), 1 claimed by 0.
        assert_eq!(out.enqueued, vec![1, 2]);
        let parent = props.id_of("parent").unwrap();
        assert_eq!(props.read(parent, 2), Value::Int(0));
    }

    #[test]
    fn float_filter_specializes_with_ieee_semantics() {
        // Drive the operator over cells {0.0, -0.0, NaN, 1.0} and check the
        // filter against the interpreter's own Eq on the same operands.
        let cells = [(1u32, 0.0_f64), (2, -0.0), (3, f64::NAN), (4, 1.0)];
        let graph = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let p = float_filter_program(Expr::float(0.0));
        let (props, _) = both_tiers(&p, &graph, "upd", Some("floatFilter"), &[0], |props| {
            let rank = props.id_of("rank").unwrap();
            props.write(rank, 0, Value::Float(2.5));
            for &(v, c) in &cells {
                props.write(rank, v, Value::Float(c));
            }
        });
        let acc = props.id_of("acc").unwrap();
        for &(v, c) in &cells {
            let reference = Value::bin(BinOp::Eq, Value::Float(c), Value::Float(0.0)).as_bool();
            let passed = props.read(acc, v) != Value::Float(0.0);
            assert_eq!(
                passed, reference,
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
        let graph = Graph::from_edges(3, &[(0, 1), (0, 2)]);
        let p = float_filter_program(Expr::float(f64::NAN));
        let (props, _) = both_tiers(&p, &graph, "upd", Some("floatFilter"), &[0], |props| {
            let rank = props.id_of("rank").unwrap();
            props.write(rank, 0, Value::Float(1.0));
            props.write(rank, 2, Value::Float(f64::NAN));
        });
        // Not even a bit-identical NaN cell passes `rank[v] == NaN`.
        let acc = props.id_of("acc").unwrap();
        assert_eq!(props.read(acc, 1), Value::Float(0.0));
        assert_eq!(props.read(acc, 2), Value::Float(0.0));
    }

    #[test]
    fn int_literal_widens_against_float_cell() {
        let graph = Graph::from_edges(2, &[(0, 1)]);
        let p = float_filter_program(Expr::int(0));
        let (props, _) = both_tiers(&p, &graph, "upd", Some("floatFilter"), &[0], |props| {
            props.write(props.id_of("rank").unwrap(), 0, Value::Float(3.0));
        });
        // rank[1] is 0.0 == 0 → passes; acc[1] accumulates rank[0].
        assert_eq!(
            props.read(props.id_of("acc").unwrap(), 1),
            Value::Float(3.0)
        );
    }

    #[test]
    fn int_cell_against_float_literal_specializes_and_matches_interpreter() {
        // Int cells {1, 0, -1, 7} against the float literal 1.0: the
        // interpreter's mixed-type Eq widens the cell.
        let cells = [(1u32, 1i64), (2, 0), (3, -1), (4, 7)];
        let graph = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let p = mixed_filter_program(1.0);
        let (props, _) = both_tiers(&p, &graph, "upd", Some("mixedFilter"), &[0], |props| {
            let x = props.id_of("x").unwrap();
            props.write(x, 0, Value::Int(10));
            for &(v, c) in &cells {
                props.write(x, v, Value::Int(c));
            }
        });
        let x = props.id_of("x").unwrap();
        for &(v, c) in &cells {
            let reference = Value::bin(BinOp::Eq, Value::Int(c), Value::Float(1.0)).as_bool();
            let passed = props.read(x, v) != Value::Int(c);
            assert_eq!(passed, reference, "int cell {c} vs float literal 1.0");
        }
        // Only x[1] == 1 widens to 1.0 and passes the dst filter.
        assert_eq!(props.read(x, 1), Value::Int(11));
        assert_eq!(props.read(x, 2), Value::Int(0));
        assert_eq!(props.read(x, 3), Value::Int(-1));
        assert_eq!(props.read(x, 4), Value::Int(7));
    }

    #[test]
    fn nan_float_literal_never_matches_int_cells() {
        let graph = Graph::from_edges(3, &[(0, 1), (0, 2)]);
        let p = mixed_filter_program(f64::NAN);
        let (props, _) = both_tiers(&p, &graph, "upd", Some("mixedFilter"), &[0], |props| {
            props.write(props.id_of("x").unwrap(), 0, Value::Int(5));
        });
        // `x[v] == NaN` is false for every widened int, as in `Value::bin`.
        let x = props.id_of("x").unwrap();
        assert_eq!(props.read(x, 1), Value::Int(0));
        assert_eq!(props.read(x, 2), Value::Int(0));
    }

    #[test]
    fn relax_sum_notifies_post_reduce_value() {
        let graph = Graph::from_edges(3, &[(0, 2), (1, 2)]);
        let (props, out) = both_tiers(
            &prio_sum_program(),
            &graph,
            "updDelta",
            None,
            &[0, 1],
            |props| {
                let delta = props.id_of("delta").unwrap();
                props.write(delta, 0, Value::Int(5));
                props.write(delta, 1, Value::Int(7));
            },
        );
        // Sum notifications carry the accumulated cell (interpreter re-read
        // semantics): 0+5 = 5, then 5+7 = 12 — not the increment 7.
        assert_eq!(out.priority_updates, vec![(0, 2, 5), (0, 2, 12)]);
        assert_eq!(props.read(props.id_of("prio").unwrap(), 2), Value::Int(12));
    }

    #[test]
    fn plain_store_udf_compiles_and_matches_interpreter() {
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
        // A plain (untracked) store.
        f.body.push(Stmt::new(StmtKind::Assign {
            target: LValue::prop("x", Expr::var("dst")),
            value: Expr::var("src"),
        }));
        p.add_function(f);
        let graph = Graph::from_edges(4, &[(0, 1), (2, 1), (2, 3)]);
        let (props, _) = both_tiers(&p, &graph, "storeUdf", None, &[0, 2], |_| {});
        assert_eq!(
            props.snapshot(props.id_of("x").unwrap()),
            [0, 2, 0, 2].map(Value::Int).to_vec()
        );
    }

    #[test]
    fn cache_memoizes_fallback_and_hit() {
        let prog = bfs_program();
        let udfs = compile_udfs(&prog, &binding_of(&prog)).unwrap();
        let props = props_of(&prog, 4);
        let globals = GlobalTable::new();
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
            let k = cache.resolve(key, || {
                builds += 1;
                select(&udfs, &props, &globals, key.udf, None, None, true)
            });
            assert_eq!(k.tier(), Tier::Compiled);
        }
        assert_eq!(builds, 1, "selection must run once per key");
    }
}
