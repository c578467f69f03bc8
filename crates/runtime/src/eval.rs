//! The bytecode evaluator with pluggable memory observation.
//!
//! One evaluator serves every backend: the CPU backend runs it on real
//! threads with [`NullMemory`] (no observation cost beyond a virtual call),
//! while the GPU/Swarm/HammerBlade simulators pass models that record each
//! property access with its index — which is all they need to charge
//! coalescing, conflicts, bank queueing, and DRAM traffic.

use ugc_graph::{Graph, IntersectScratch};
use ugc_graphir::types::ReduceOp;

use crate::bytecode::{Instr, UdfId, UdfProgram, UdfSet};
use crate::operator::EdgeOp;
use crate::properties::{GlobalTable, PropId, PropertyStorage};
use crate::value::Value;

/// The largest register file [`Evaluator::call`] keeps on the stack.
const STACK_REGS: usize = 32;

/// Observes memory operations performed while evaluating a UDF.
///
/// Indices are element indices into the named property vector; models
/// translate them to addresses/cache lines as their architecture dictates.
pub trait MemoryModel {
    /// A plain load of `prop[idx]`.
    fn load(&mut self, prop: PropId, idx: u32);
    /// A plain store to `prop[idx]`.
    fn store(&mut self, prop: PropId, idx: u32);
    /// An atomic read-modify-write on `prop[idx]`.
    fn atomic(&mut self, prop: PropId, idx: u32);
    /// `n` scalar (non-memory) instructions executed.
    fn compute(&mut self, n: u32);
}

/// A no-cost model for real execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullMemory;

impl MemoryModel for NullMemory {
    fn load(&mut self, _: PropId, _: u32) {}
    fn store(&mut self, _: PropId, _: u32) {}
    fn atomic(&mut self, _: PropId, _: u32) {}
    fn compute(&mut self, _: u32) {}
}

/// Receives the side effects a UDF emits beyond property writes.
pub trait UdfOutput {
    /// The UDF enqueued `v` onto the operator's output frontier.
    fn enqueue(&mut self, v: u32);
    /// The UDF updated `queue`'s priority of vertex `v` to `new_prio`
    /// (only called when the tracked property actually changed).
    fn priority_changed(&mut self, queue: usize, v: u32, new_prio: i64);
    /// The compiled `intersect_count(a, b)` intrinsic. A sink that lives
    /// for one worker's share of an operator answers it from per-worker
    /// state; the default is [`Graph::intersect_count`]'s merge.
    fn intersect_count(&mut self, graph: &Graph, a: u32, b: u32) -> usize {
        graph.intersect_count(a, b)
    }
}

/// A no-op sink for UDFs without frontier/priority effects.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullOutput;

impl UdfOutput for NullOutput {
    fn enqueue(&mut self, _: u32) {}
    fn priority_changed(&mut self, _: usize, _: u32, _: i64) {}
}

/// Per-edge evaluation context.
#[derive(Debug, Clone, Copy)]
pub struct EdgeCtx {
    /// Weight of the edge currently being applied (1 when unweighted).
    pub weight: i64,
}

impl Default for EdgeCtx {
    fn default() -> Self {
        EdgeCtx { weight: 1 }
    }
}

/// Executes compiled UDFs against shared program state.
pub struct Evaluator<'a> {
    /// Compiled UDFs.
    pub udfs: &'a UdfSet,
    /// Property vectors.
    pub props: &'a PropertyStorage,
    /// Scalar globals.
    pub globals: &'a GlobalTable,
    /// The graph (for degree intrinsics).
    pub graph: &'a Graph,
    /// When false, `ReduceProp`/`UpdatePrio` marked atomic still execute
    /// with relaxed single-threaded semantics (simulators model the cost,
    /// not the interleaving).
    pub really_atomic: bool,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator with real atomic semantics.
    pub fn new(
        udfs: &'a UdfSet,
        props: &'a PropertyStorage,
        globals: &'a GlobalTable,
        graph: &'a Graph,
    ) -> Self {
        Evaluator {
            udfs,
            props,
            globals,
            graph,
            really_atomic: true,
        }
    }

    /// Runs UDF `id` with `args`, reporting effects to `out` and memory
    /// traffic to `mem`. Returns the named return value, if the UDF has
    /// one.
    ///
    /// # Panics
    ///
    /// Panics if `args` does not match the UDF's parameter count or a
    /// register holds a value of the wrong kind (compiler bugs).
    pub fn call(
        &self,
        id: UdfId,
        args: &[Value],
        ctx: EdgeCtx,
        out: &mut dyn UdfOutput,
        mem: &mut dyn MemoryModel,
    ) -> Option<Value> {
        let udf = self.udfs.get(id);
        assert_eq!(
            args.len(),
            udf.num_params,
            "UDF `{}` expects {} args",
            udf.name,
            udf.num_params
        );
        // The register file lives on the stack unless the UDF is unusually
        // large: no allocation per call, which is per edge on a simulator.
        if udf.num_regs <= STACK_REGS {
            let mut regs = [Value::Int(0); STACK_REGS];
            self.run(udf, &mut regs[..udf.num_regs], args, ctx, out, mem)
        } else {
            let mut regs = vec![Value::Int(0); udf.num_regs];
            self.run(udf, &mut regs, args, ctx, out, mem)
        }
    }

    /// [`Evaluator::call`]'s body over a zeroed register file `regs`.
    fn run(
        &self,
        udf: &UdfProgram,
        regs: &mut [Value],
        args: &[Value],
        ctx: EdgeCtx,
        out: &mut dyn UdfOutput,
        mem: &mut dyn MemoryModel,
    ) -> Option<Value> {
        regs[..args.len()].copy_from_slice(args);
        let mut compute_steps: u32 = 0;
        let mut pc = 0usize;
        loop {
            debug_assert!(pc < udf.instrs.len(), "fell off end of `{}`", udf.name);
            match &udf.instrs[pc] {
                Instr::Const { dst, v } => {
                    regs[*dst as usize] = *v;
                    compute_steps += 1;
                }
                Instr::Mov { dst, src } => {
                    regs[*dst as usize] = regs[*src as usize];
                    compute_steps += 1;
                }
                Instr::Bin { op, dst, a, b } => {
                    regs[*dst as usize] = Value::bin(*op, regs[*a as usize], regs[*b as usize]);
                    compute_steps += 1;
                }
                Instr::Un { op, dst, a } => {
                    regs[*dst as usize] = Value::un(*op, regs[*a as usize]);
                    compute_steps += 1;
                }
                Instr::Abs { dst, a } => {
                    regs[*dst as usize] = Value::Float(regs[*a as usize].as_float().abs());
                    compute_steps += 1;
                }
                Instr::LoadProp { dst, prop, idx } => {
                    let i = regs[*idx as usize].as_int() as u32;
                    mem.load(*prop, i);
                    regs[*dst as usize] = self.props.read(*prop, i);
                }
                Instr::StoreProp { prop, idx, val } => {
                    let i = regs[*idx as usize].as_int() as u32;
                    mem.store(*prop, i);
                    self.props.write(*prop, i, regs[*val as usize]);
                }
                Instr::Cas {
                    dst,
                    prop,
                    idx,
                    expected,
                    new,
                    atomic,
                } => {
                    let i = regs[*idx as usize].as_int() as u32;
                    let ok =
                        self.props
                            .cas(*prop, i, regs[*expected as usize], regs[*new as usize]);
                    // A failed CAS observes but does not modify the line.
                    match (ok, *atomic) {
                        (true, true) => mem.atomic(*prop, i),
                        (true, false) => {
                            mem.load(*prop, i);
                            mem.store(*prop, i);
                        }
                        (false, _) => mem.load(*prop, i),
                    }
                    regs[*dst as usize] = Value::Bool(ok);
                }
                Instr::ReduceProp {
                    prop,
                    idx,
                    op,
                    val,
                    atomic,
                    changed,
                } => {
                    let i = regs[*idx as usize].as_int() as u32;
                    let (ch, _) = if *atomic && self.really_atomic {
                        self.props.reduce(*prop, i, *op, regs[*val as usize])
                    } else {
                        self.props
                            .reduce_relaxed(*prop, i, *op, regs[*val as usize])
                    };
                    // An ineffective reduction observes but does not modify.
                    match (ch, *atomic) {
                        (true, true) => mem.atomic(*prop, i),
                        (true, false) => {
                            mem.load(*prop, i);
                            mem.store(*prop, i);
                        }
                        (false, _) => mem.load(*prop, i),
                    }
                    if let Some(c) = changed {
                        regs[*c as usize] = Value::Bool(ch);
                    }
                }
                Instr::LoadGlobal { dst, id } => {
                    regs[*dst as usize] = self.globals.read(*id);
                    compute_steps += 1;
                }
                Instr::StoreGlobal { id, val } => {
                    self.globals.write(*id, regs[*val as usize]);
                    compute_steps += 1;
                }
                Instr::ReduceGlobal {
                    id,
                    op,
                    val,
                    changed,
                } => {
                    let ch = self.globals.reduce(*id, *op, regs[*val as usize]);
                    if let Some(c) = changed {
                        regs[*c as usize] = Value::Bool(ch);
                    }
                    compute_steps += 1;
                }
                Instr::Enqueue { vertex } => {
                    out.enqueue(regs[*vertex as usize].as_int() as u32);
                    compute_steps += 1;
                }
                Instr::UpdatePrio {
                    queue,
                    vertex,
                    op,
                    val,
                    atomic,
                } => {
                    let v = regs[*vertex as usize].as_int() as u32;
                    let newv = regs[*val as usize];
                    let prop = self.udfs.queue_props[*queue];
                    let (ch, _) = if *atomic && self.really_atomic {
                        self.props.reduce(prop, v, *op, newv)
                    } else {
                        self.props.reduce_relaxed(prop, v, *op, newv)
                    };
                    match (ch, *atomic) {
                        (true, true) => mem.atomic(prop, v),
                        (true, false) => {
                            mem.load(prop, v);
                            mem.store(prop, v);
                        }
                        (false, _) => mem.load(prop, v),
                    }
                    if ch {
                        let newp = match op {
                            ReduceOp::Sum => self.props.read(prop, v).as_int(),
                            _ => newv.as_int(),
                        };
                        out.priority_changed(*queue, v, newp);
                    }
                }
                Instr::OutDegree { dst, v } => {
                    let vid = regs[*v as usize].as_int() as u32;
                    regs[*dst as usize] = Value::Int(self.graph.out_degree(vid) as i64);
                    compute_steps += 1;
                }
                Instr::InDegree { dst, v } => {
                    let vid = regs[*v as usize].as_int() as u32;
                    regs[*dst as usize] = Value::Int(self.graph.in_degree(vid) as i64);
                    compute_steps += 1;
                }
                Instr::EdgeWeight { dst } => {
                    regs[*dst as usize] = Value::Int(ctx.weight);
                    compute_steps += 1;
                }
                Instr::Intersect { dst, a, b } => {
                    let va = regs[*a as usize].as_int() as u32;
                    let vb = regs[*b as usize].as_int() as u32;
                    regs[*dst as usize] = Value::Int(self.graph.intersect_count(va, vb) as i64);
                    // A sorted merge touches both adjacency lists once.
                    let work = self.graph.out_degree(va) + self.graph.out_degree(vb);
                    compute_steps += (work as u32).max(1);
                }
                Instr::Call { dst, udf, args } => {
                    let vals: Vec<Value> = args.iter().map(|r| regs[*r as usize]).collect();
                    let ret = self.call(*udf, &vals, ctx, out, mem);
                    if let (Some(d), Some(r)) = (dst, ret) {
                        regs[*d as usize] = r;
                    }
                }
                Instr::Jump { target } => {
                    compute_steps += 1;
                    pc = *target;
                    continue;
                }
                Instr::JumpIfNot { cond, target } => {
                    compute_steps += 1;
                    if !regs[*cond as usize].as_bool() {
                        pc = *target;
                        continue;
                    }
                }
                Instr::Ret => break,
            }
            pc += 1;
        }
        mem.compute(compute_steps);
        udf.ret_reg.map(|r| regs[r as usize])
    }

    /// Runs the one-parameter UDF `udf` on vertex `v`.
    #[inline]
    pub fn apply_vertex(
        &self,
        udf: UdfId,
        v: u32,
        out: &mut dyn UdfOutput,
        mem: &mut dyn MemoryModel,
    ) -> Option<Value> {
        self.call(udf, &[Value::Int(v as i64)], EdgeCtx::default(), out, mem)
    }

    /// Whether `v` passes `filter`; no filter, or one without a return
    /// value, passes every vertex.
    #[inline]
    pub fn passes(&self, filter: Option<UdfId>, v: u32, mem: &mut dyn MemoryModel) -> bool {
        filter.is_none_or(|id| {
            self.apply_vertex(id, v, &mut NullOutput, mem)
                .is_none_or(|r| r.as_bool())
        })
    }

    /// Applies `op`'s UDF to the edge `src → dst` of weight `w`.
    #[inline]
    pub fn apply_edge(
        &self,
        op: &EdgeOp<'_>,
        src: u32,
        dst: u32,
        w: i64,
        out: &mut dyn UdfOutput,
        mem: &mut dyn MemoryModel,
    ) {
        let args = [
            Value::Int(src as i64),
            Value::Int(dst as i64),
            Value::Int(w),
        ];
        let arity = if op.takes_weight { 3 } else { 2 };
        self.call(op.udf, &args[..arity], EdgeCtx { weight: w }, out, mem);
    }
}

/// A [`UdfOutput`] that buffers enqueued vertices (the common backend
/// building block for constructing output frontiers). Operators hand one
/// to each worker, so it also carries the worker's intersection scratch.
#[derive(Debug, Default, Clone)]
pub struct BufferedOutput {
    /// Vertices enqueued so far.
    pub enqueued: Vec<u32>,
    /// `(queue, vertex, new_priority)` updates so far.
    pub priority_updates: Vec<(usize, u32, i64)>,
    /// Answers compiled `intersect_count` calls; bound to the one graph
    /// of the operator this sink serves.
    intersect: IntersectScratch,
}

impl UdfOutput for BufferedOutput {
    fn enqueue(&mut self, v: u32) {
        self.enqueued.push(v);
    }

    fn priority_changed(&mut self, queue: usize, v: u32, new_prio: i64) {
        self.priority_updates.push((queue, v, new_prio));
    }

    fn intersect_count(&mut self, graph: &Graph, a: u32, b: u32) -> usize {
        self.intersect.count(graph.out_csr(), a, b)
    }
}

/// A [`MemoryModel`] that simply counts operations — useful in tests and as
/// a base for simulator statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingMemory {
    /// Plain loads observed.
    pub loads: u64,
    /// Plain stores observed.
    pub stores: u64,
    /// Atomics observed.
    pub atomics: u64,
    /// Scalar instructions observed.
    pub computes: u64,
}

impl MemoryModel for CountingMemory {
    fn load(&mut self, _: PropId, _: u32) {
        self.loads += 1;
    }
    fn store(&mut self, _: PropId, _: u32) {
        self.stores += 1;
    }
    fn atomic(&mut self, _: PropId, _: u32) {
        self.atomics += 1;
    }
    fn compute(&mut self, n: u32) {
        self.computes += n as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{binding_of, compile_udfs};
    use ugc_graph::Graph;
    use ugc_graphir::ir::{Expr, Function, LValue, Param, Program, Stmt, StmtKind};
    use ugc_graphir::keys;
    use ugc_graphir::types::{BinOp, Type};

    fn setup(prog: &Program, n: usize) -> (UdfSet, PropertyStorage, GlobalTable, Graph) {
        let binding = binding_of(prog);
        let udfs = compile_udfs(prog, &binding).unwrap();
        let mut props = PropertyStorage::new(n);
        for p in &prog.properties {
            // Initializers in tests are literal.
            let init = match &p.init.kind {
                ugc_graphir::ir::ExprKind::Int(v) => Value::Int(*v),
                ugc_graphir::ir::ExprKind::Float(v) => Value::Float(*v),
                ugc_graphir::ir::ExprKind::Bool(v) => Value::Bool(*v),
                _ => Value::zero_of(p.ty),
            };
            props.add(p.name.clone(), p.ty, init);
        }
        let mut globals = GlobalTable::new();
        for g in &prog.globals {
            globals.add(g.name.clone(), g.ty, Value::zero_of(g.ty));
        }
        let graph = Graph::from_edges(n, &[(0, 1), (0, 2), (1, 2)]);
        (udfs, props, globals, graph)
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
            name: "enqueue".into(),
            ty: Type::Bool,
            init: Some(cas),
        }));
        f.body.push(Stmt::new(StmtKind::If {
            cond: Expr::var("enqueue"),
            then_body: vec![Stmt::new(StmtKind::EnqueueVertex {
                set: None,
                vertex: Expr::var("dst"),
            })],
            else_body: vec![],
        }));
        p.add_function(f);
        p
    }

    #[test]
    fn bfs_update_edge_claims_once() {
        let prog = bfs_program();
        let (udfs, props, globals, graph) = setup(&prog, 4);
        let ev = Evaluator::new(&udfs, &props, &globals, &graph);
        let id = udfs.id_of("updateEdge").unwrap();
        let mut out = BufferedOutput::default();
        let mut mem = CountingMemory::default();
        ev.call(
            id,
            &[Value::Int(0), Value::Int(2)],
            EdgeCtx::default(),
            &mut out,
            &mut mem,
        );
        ev.call(
            id,
            &[Value::Int(1), Value::Int(2)],
            EdgeCtx::default(),
            &mut out,
            &mut mem,
        );
        assert_eq!(out.enqueued, vec![2]); // second CAS fails
        assert_eq!(props.read(props.id_of("parent").unwrap(), 2), Value::Int(0));
        // Only the successful claim counts as an atomic write; the failed
        // CAS is an observation.
        assert_eq!(mem.atomics, 1);
        assert_eq!(mem.loads, 1);
    }

    #[test]
    fn filter_returns_named_value() {
        let mut prog = Program::new();
        prog.add_property("parent", Type::Vertex, Expr::int(-1));
        let mut f = Function::new(
            "toFilter",
            vec![Param::new("v", Type::Vertex)],
            Some(Param::new("output", Type::Bool)),
        );
        f.body.push(Stmt::new(StmtKind::Assign {
            target: LValue::Var("output".into()),
            value: Expr::bin(
                BinOp::Eq,
                Expr::prop("parent", Expr::var("v")),
                Expr::int(-1),
            ),
        }));
        prog.add_function(f);
        let (udfs, props, globals, graph) = setup(&prog, 3);
        let ev = Evaluator::new(&udfs, &props, &globals, &graph);
        let id = udfs.id_of("toFilter").unwrap();
        let r = ev.call(
            id,
            &[Value::Int(1)],
            EdgeCtx::default(),
            &mut NullOutput,
            &mut NullMemory,
        );
        assert_eq!(r, Some(Value::Bool(true)));
        props.write(props.id_of("parent").unwrap(), 1, Value::Int(0));
        let r = ev.call(
            id,
            &[Value::Int(1)],
            EdgeCtx::default(),
            &mut NullOutput,
            &mut NullMemory,
        );
        assert_eq!(r, Some(Value::Bool(false)));
    }

    #[test]
    fn reduce_with_tracking_enqueues_on_change() {
        // CC-style: IDs[dst] min= IDs[src]; if changed enqueue dst.
        let mut prog = Program::new();
        prog.add_property("ids", Type::Int, Expr::int(0));
        let mut f = Function::new(
            "upd",
            vec![
                Param::new("src", Type::Vertex),
                Param::new("dst", Type::Vertex),
            ],
            None,
        );
        let mut red = Stmt::new(StmtKind::Reduce {
            target: LValue::prop("ids", Expr::var("dst")),
            op: ReduceOp::Min,
            value: Expr::prop("ids", Expr::var("src")),
            tracking: Some("changed".into()),
        });
        red.meta.set(keys::IS_ATOMIC, true);
        f.body.push(red);
        f.body.push(Stmt::new(StmtKind::If {
            cond: Expr::var("changed"),
            then_body: vec![Stmt::new(StmtKind::EnqueueVertex {
                set: None,
                vertex: Expr::var("dst"),
            })],
            else_body: vec![],
        }));
        prog.add_function(f);
        let (udfs, props, globals, graph) = setup(&prog, 4);
        let ids = props.id_of("ids").unwrap();
        for v in 0..4 {
            props.write(ids, v, Value::Int(v as i64));
        }
        let ev = Evaluator::new(&udfs, &props, &globals, &graph);
        let id = udfs.id_of("upd").unwrap();
        let mut out = BufferedOutput::default();
        ev.call(
            id,
            &[Value::Int(0), Value::Int(3)],
            EdgeCtx::default(),
            &mut out,
            &mut NullMemory,
        );
        ev.call(
            id,
            &[Value::Int(0), Value::Int(3)],
            EdgeCtx::default(),
            &mut out,
            &mut NullMemory,
        );
        assert_eq!(out.enqueued, vec![3]); // second min does not improve
        assert_eq!(props.read(ids, 3), Value::Int(0));
    }

    #[test]
    fn update_priority_notifies_only_on_improvement() {
        let mut prog = Program::new();
        prog.add_property("dist", Type::Int, Expr::int(1_000_000));
        prog.add_queue("pq", "dist", Expr::int(0));
        let mut f = Function::new(
            "relax",
            vec![
                Param::new("src", Type::Vertex),
                Param::new("dst", Type::Vertex),
                Param::new("weight", Type::Int),
            ],
            None,
        );
        f.body.push(Stmt::new(StmtKind::VarDecl {
            name: "nd".into(),
            ty: Type::Int,
            init: Some(Expr::bin(
                BinOp::Add,
                Expr::prop("dist", Expr::var("src")),
                Expr::var("weight"),
            )),
        }));
        let mut up = Stmt::new(StmtKind::UpdatePriority {
            queue: "pq".into(),
            vertex: Expr::var("dst"),
            op: ReduceOp::Min,
            value: Expr::var("nd"),
        });
        up.meta.set(keys::IS_ATOMIC, true);
        f.body.push(up);
        prog.add_function(f);
        let (udfs, props, globals, graph) = setup(&prog, 3);
        let dist = props.id_of("dist").unwrap();
        props.write(dist, 0, Value::Int(0));
        let ev = Evaluator::new(&udfs, &props, &globals, &graph);
        let id = udfs.id_of("relax").unwrap();
        let mut out = BufferedOutput::default();
        ev.call(
            id,
            &[Value::Int(0), Value::Int(1), Value::Int(5)],
            EdgeCtx { weight: 5 },
            &mut out,
            &mut NullMemory,
        );
        ev.call(
            id,
            &[Value::Int(0), Value::Int(1), Value::Int(9)],
            EdgeCtx { weight: 9 },
            &mut out,
            &mut NullMemory,
        );
        assert_eq!(out.priority_updates, vec![(0, 1, 5)]);
        assert_eq!(props.read(dist, 1), Value::Int(5));
    }

    #[test]
    fn degree_intrinsics_read_graph() {
        let mut prog = Program::new();
        prog.add_property("deg", Type::Int, Expr::int(0));
        let mut f = Function::new("record", vec![Param::new("v", Type::Vertex)], None);
        f.body.push(Stmt::new(StmtKind::Assign {
            target: LValue::prop("deg", Expr::var("v")),
            value: Expr::intrinsic(
                ugc_graphir::types::Intrinsic::OutDegree,
                vec![Expr::var("v")],
            ),
        }));
        prog.add_function(f);
        let (udfs, props, globals, graph) = setup(&prog, 4);
        let ev = Evaluator::new(&udfs, &props, &globals, &graph);
        let id = udfs.id_of("record").unwrap();
        ev.call(
            id,
            &[Value::Int(0)],
            EdgeCtx::default(),
            &mut NullOutput,
            &mut NullMemory,
        );
        assert_eq!(props.read(props.id_of("deg").unwrap(), 0), Value::Int(2));
    }

    #[test]
    fn memory_model_counts_accesses() {
        let prog = bfs_program();
        let (udfs, props, globals, graph) = setup(&prog, 4);
        let ev = Evaluator::new(&udfs, &props, &globals, &graph);
        let id = udfs.id_of("updateEdge").unwrap();
        let mut mem = CountingMemory::default();
        ev.call(
            id,
            &[Value::Int(0), Value::Int(1)],
            EdgeCtx::default(),
            &mut BufferedOutput::default(),
            &mut mem,
        );
        assert_eq!(mem.atomics, 1);
        assert!(mem.computes > 0);
    }

    #[test]
    fn edge_weight_context() {
        let mut prog = Program::new();
        prog.add_property("acc", Type::Int, Expr::int(0));
        let mut f = Function::new("f", vec![Param::new("dst", Type::Vertex)], None);
        f.body.push(Stmt::new(StmtKind::Assign {
            target: LValue::prop("acc", Expr::var("dst")),
            value: Expr::intrinsic(ugc_graphir::types::Intrinsic::EdgeWeight, vec![]),
        }));
        prog.add_function(f);
        let (udfs, props, globals, graph) = setup(&prog, 3);
        let ev = Evaluator::new(&udfs, &props, &globals, &graph);
        ev.call(
            udfs.id_of("f").unwrap(),
            &[Value::Int(1)],
            EdgeCtx { weight: 42 },
            &mut NullOutput,
            &mut NullMemory,
        );
        assert_eq!(props.read(props.id_of("acc").unwrap(), 1), Value::Int(42));
    }
}
