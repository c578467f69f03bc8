//! The host-side program interpreter shared by every GraphVM.
//!
//! A GraphVM in this reproduction is "an interpreter that directly consumes
//! and executes GraphIR" (an implementation strategy the paper explicitly
//! sanctions, §III-C). The *host* part — sequential coordination code that
//! the paper's backends emit as C++ `main` — is identical across backends,
//! so it lives here: variable management, scalar expression evaluation,
//! control flow, priority-queue rounds, frontier lists.
//!
//! What differs per architecture is how the two iteration operators run and
//! whether loops are specialized (GPU kernel fusion, Swarm task
//! conversion). Backends supply that through [`OperatorExecutor`].

use std::collections::HashMap;
use std::sync::OnceLock;

use ugc_graph::Graph;
use ugc_graphir::ir::{EdgeSetIteratorData, Expr, ExprKind, LValue, Program, Stmt, StmtKind};
use ugc_graphir::types::{Intrinsic, ReduceOp, Type};
use ugc_resilience::ErrorClass;
use ugc_telemetry::Counter;

use crate::buckets::BucketQueue;
use crate::bytecode::{binding_of, compile_udfs, Binding, UdfId, UdfSet};
use crate::eval::{EdgeCtx, NullMemory, NullOutput};
use crate::frontier_list::FrontierList;
use crate::host::{HostEnv, HostValue};
use crate::pool::{default_threads, parallel_for_with_local, SERIAL_DISPATCH_THRESHOLD};
use crate::properties::{GlobalTable, PropertyStorage};
use crate::udf::{self, CompiledSet, CompiledUdf, Frame};
use crate::value::Value;
use crate::vertexset::VertexSet;

/// Execution failure (unbound variables, malformed host programs,
/// injected faults, watchdog kills), classed per the workspace taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    /// Description.
    pub message: String,
    /// Supervisor policy class ([`ErrorClass::Permanent`] for ordinary
    /// program/configuration errors).
    pub class: ErrorClass,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "execution error ({}): {}", self.class, self.message)
    }
}

impl std::error::Error for ExecError {}

impl ExecError {
    /// Creates a `Permanent` error with the given message — the right
    /// default for program and configuration errors, which fail the same
    /// way on every backend and every retry.
    pub fn new(message: impl Into<String>) -> Self {
        ExecError::classified(ErrorClass::Permanent, message)
    }

    /// Creates an error with an explicit class.
    pub fn classified(class: ErrorClass, message: impl Into<String>) -> Self {
        ExecError {
            message: message.into(),
            class,
        }
    }
}

/// Runs a GraphVM execution body with panic isolation: any panic —
/// including the typed payloads raised by injected faults and cycle
/// watchdogs — is caught and converted into a classed [`ExecError`].
/// This is the boundary the supervisor's "no panic escapes" guarantee
/// rests on.
pub fn contain<T>(
    body: impl FnOnce() -> Result<T, ExecError> + std::panic::UnwindSafe,
) -> Result<T, ExecError> {
    ugc_resilience::silence_supervised_panics();
    match std::panic::catch_unwind(body) {
        Ok(result) => result,
        Err(payload) => {
            let (class, message) = ugc_resilience::classify_panic(payload.as_ref());
            Err(ExecError::classified(class, message))
        }
    }
}

/// Backend-specific execution of the iteration operators.
pub trait OperatorExecutor {
    /// Executes an `EdgeSetIterator`. Returns the output frontier when the
    /// operator produces one (`data.output` is `Some`).
    ///
    /// # Errors
    ///
    /// Backend-specific failures (unbound sets, unknown UDFs).
    fn edge_iterator(
        &mut self,
        state: &mut ProgramState<'_>,
        stmt: &Stmt,
        data: &EdgeSetIteratorData,
    ) -> Result<Option<VertexSet>, ExecError>;

    /// Executes a `VertexSetIterator` applying `apply` to `set`
    /// (`None` = all vertices).
    ///
    /// # Errors
    ///
    /// Backend-specific failures.
    fn vertex_iterator(
        &mut self,
        state: &mut ProgramState<'_>,
        stmt: &Stmt,
        set: Option<&str>,
        apply: &str,
    ) -> Result<(), ExecError>;

    /// Executes a `VertexSetFilter`: evaluates the boolean `filter` UDF on
    /// every candidate vertex (the members of `input`, or all vertices)
    /// and returns the passing subset. Every GraphVM treats it as host
    /// coordination — the simulators charge nothing for it — so the
    /// default is [`filter_sweep`] with the run's compiled body; the CPU
    /// wraps the same sweep in its timing and tier accounting.
    ///
    /// # Errors
    ///
    /// Backend-specific failures (unbound sets, unknown UDFs).
    fn vertex_filter(
        &mut self,
        state: &mut ProgramState<'_>,
        _stmt: &Stmt,
        input: Option<&str>,
        filter: &str,
    ) -> Result<VertexSet, ExecError> {
        let (id, candidates) = state.filter_candidates(input, filter)?;
        let body = udf::body_of(state.compiled(), &state.udfs, id, 1);
        Ok(filter_sweep(
            state,
            id,
            &candidates,
            body.as_deref(),
            default_threads(),
        ))
    }

    /// Offered every `While` loop before generic interpretation; return
    /// `true` if the backend executed the whole loop itself (GPU kernel
    /// fusion, Swarm vertex-set→tasks).
    ///
    /// # Errors
    ///
    /// Backend-specific failures.
    fn try_loop(&mut self, _state: &mut ProgramState<'_>, _stmt: &Stmt) -> Result<bool, ExecError> {
        Ok(false)
    }
}

/// The `runtime.vertex_filter.{compiled,interpreted}` counters: filter
/// sweeps by the tier their UDF ran in.
fn filter_counters() -> &'static [Counter; 2] {
    static COUNTERS: OnceLock<[Counter; 2]> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        [
            Counter::new("runtime.vertex_filter.compiled"),
            Counter::new("runtime.vertex_filter.interpreted"),
        ]
    })
}

/// The host-side `VertexSetFilter` sweep behind every GraphVM's
/// [`OperatorExecutor::vertex_filter`]: filter UDF `id` on every candidate,
/// through its compiled `body` when it has one and the interpreter
/// otherwise, on up to `threads` pool workers from
/// [`SERIAL_DISPATCH_THRESHOLD`] candidates (below it, pool dispatch would
/// cost more than the sweep). A serial sweep keeps candidate order; a parallel one
/// returns its members ascending, since workers steal chunks and their
/// outputs interleave. Counts one sweep in its tier.
pub fn filter_sweep(
    state: &ProgramState<'_>,
    id: UdfId,
    candidates: &[u32],
    body: Option<&CompiledUdf>,
    threads: usize,
) -> VertexSet {
    filter_counters()[usize::from(body.is_none())].incr();
    let ev = state.evaluator();
    // One frame per chunk of candidates.
    let sweep = |vs: &[u32], kept: &mut Vec<u32>| {
        let passes = |r: Option<Value>| r.is_some_and(|r| r.as_bool());
        match body {
            Some(c) => {
                let mut sink = NullOutput;
                let mut frame = Frame::new(&ev, &mut sink);
                kept.extend(
                    vs.iter()
                        .filter(|&&v| passes(c.run(&mut frame, &[v as i64], 1))),
                );
            }
            None => kept
                .extend(vs.iter().filter(|&&v| {
                    passes(ev.apply_vertex(id, v, &mut NullOutput, &mut NullMemory))
                })),
        }
    };
    let members: Vec<u32> = if candidates.len() < SERIAL_DISPATCH_THRESHOLD {
        let mut kept = Vec::new();
        sweep(candidates, &mut kept);
        kept
    } else {
        let locals = parallel_for_with_local(
            threads,
            candidates.len(),
            256,
            |_tid, range, local: &mut Vec<u32>| sweep(&candidates[range], local),
        );
        let mut all: Vec<u32> = locals.into_iter().flatten().collect();
        all.sort_unstable();
        all
    };
    VertexSet::from_members(state.graph.num_vertices(), members)
}

/// All mutable state of one program execution.
pub struct ProgramState<'g> {
    /// The compiled GraphIR program.
    pub prog: Program,
    /// The input graph.
    pub graph: &'g Graph,
    /// Property vectors.
    pub props: PropertyStorage,
    /// Scalar globals.
    pub globals: GlobalTable,
    /// Compiled UDFs.
    pub udfs: UdfSet,
    /// Name bindings used at compile time.
    pub binding: Binding,
    /// Priority queues by declaration order.
    pub queues: Vec<BucketQueue>,
    /// Host variables.
    pub env: HostEnv,
    /// Output of `Print` statements.
    pub prints: Vec<String>,
    /// The UDFs' compiled bodies, lowered on first use.
    compiled: OnceLock<CompiledSet>,
}

impl std::fmt::Debug for ProgramState<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgramState")
            .field("num_vertices", &self.graph.num_vertices())
            .field("props", &self.props)
            .field("queues", &self.queues.len())
            .finish()
    }
}

enum Flow {
    Normal,
    Break,
}

impl<'g> ProgramState<'g> {
    /// Prepares program state: allocates properties and globals, evaluates
    /// initializers (which may read `extern_values`), compiles UDFs, and
    /// seeds priority queues.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] for unbound externs or bad initializers.
    pub fn new(
        prog: Program,
        graph: &'g Graph,
        extern_values: &HashMap<String, Value>,
    ) -> Result<Self, ExecError> {
        let binding = binding_of(&prog);
        let udfs = compile_udfs(&prog, &binding).map_err(|e| ExecError::new(e.to_string()))?;
        let mut state = ProgramState {
            prog,
            graph,
            props: PropertyStorage::new(graph.num_vertices()),
            globals: GlobalTable::new(),
            udfs,
            binding,
            queues: Vec::new(),
            env: HostEnv::new(),
            prints: Vec::new(),
            compiled: OnceLock::new(),
        };
        // Globals first (property inits may reference them).
        let global_decls = state.prog.globals.clone();
        for g in &global_decls {
            let init = match &g.init {
                Some(e) => state.eval_host(e)?,
                None => match extern_values.get(&g.name) {
                    Some(v) => *v,
                    None => {
                        return Err(ExecError::new(format!(
                            "extern const `{}` was not bound by the host",
                            g.name
                        )))
                    }
                },
            };
            state.globals.add(g.name.clone(), g.ty, init);
        }
        let prop_decls = state.prog.properties.clone();
        for p in &prop_decls {
            let init = state.eval_host(&p.init)?;
            state.props.add(p.name.clone(), p.ty, init);
        }
        let queue_decls = state.prog.queues.clone();
        for q in &queue_decls {
            let source = state.eval_host(&q.source)?.as_int();
            let delta = q.meta.get_int("delta").unwrap_or(1).max(1);
            state
                .queues
                .push(BucketQueue::new(graph.num_vertices(), delta, source as u32));
        }
        Ok(state)
    }

    /// Resolves an input frontier: `None` means all vertices.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] when the named set is unbound or deleted.
    pub fn input_set(&self, name: &Option<String>) -> Result<VertexSet, ExecError> {
        match name {
            None => Ok(VertexSet::all(self.graph.num_vertices())),
            Some(n) => self
                .env
                .set(n)
                .cloned()
                .ok_or_else(|| ExecError::new(format!("input frontier `{n}` is not bound"))),
        }
    }

    /// The run's compiled UDF bodies ([`udf::compile_all`]), lowered on
    /// first use and shared by every operator of the run. Compilation reads
    /// only property and global types, which are fixed once `new` returns.
    pub fn compiled(&self) -> &CompiledSet {
        self.compiled
            .get_or_init(|| udf::compile_all(&self.udfs, &self.props, &self.globals))
    }

    /// Pops the ready bucket of queue `qid`, consulting current tracked
    /// priorities.
    pub fn pop_ready(&mut self, qid: usize) -> VertexSet {
        let prop = self.udfs.queue_props[qid];
        let props = &self.props;
        self.queues[qid].pop_ready(|v| props.read(prop, v).as_int())
    }

    /// Evaluates a host-level scalar expression.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] for unbound names or non-host intrinsics.
    pub fn eval_host(&mut self, e: &Expr) -> Result<Value, ExecError> {
        match &e.kind {
            ExprKind::Int(v) => Ok(Value::Int(*v)),
            ExprKind::Float(v) => Ok(Value::Float(*v)),
            ExprKind::Bool(v) => Ok(Value::Bool(*v)),
            ExprKind::Var(n) => {
                if let Some(v) = self.env.scalar(n) {
                    return Ok(v);
                }
                if let Some(id) = self.globals.id_of(n) {
                    return Ok(self.globals.read(id));
                }
                Err(ExecError::new(format!("unbound host variable `{n}`")))
            }
            ExprKind::PropRead { prop, index } => {
                let i = self.eval_host(index)?.as_int() as u32;
                let pid = self
                    .binding
                    .props
                    .get(prop)
                    .copied()
                    .ok_or_else(|| ExecError::new(format!("unbound property `{prop}`")))?;
                Ok(self.props.read(pid, i))
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let a = self.eval_host(lhs)?;
                let b = self.eval_host(rhs)?;
                Ok(Value::bin(*op, a, b))
            }
            ExprKind::Unary { op, operand } => {
                let v = self.eval_host(operand)?;
                Ok(Value::un(*op, v))
            }
            ExprKind::Intrinsic { kind, args } => match kind {
                Intrinsic::NumVertices => Ok(Value::Int(self.graph.num_vertices() as i64)),
                Intrinsic::NumEdges => Ok(Value::Int(self.graph.num_edges() as i64)),
                Intrinsic::VertexSetSize => {
                    let ExprKind::Var(n) = &args[0].kind else {
                        return Err(ExecError::new("VertexSetSize expects a set variable"));
                    };
                    let s = self
                        .env
                        .set(n)
                        .ok_or_else(|| ExecError::new(format!("set `{n}` is not bound")))?;
                    Ok(Value::Int(s.len() as i64))
                }
                Intrinsic::ListSize => {
                    let ExprKind::Var(n) = &args[0].kind else {
                        return Err(ExecError::new("ListSize expects a list variable"));
                    };
                    match self.env.get(n) {
                        Some(HostValue::List(l)) => Ok(Value::Int(l.len() as i64)),
                        _ => Err(ExecError::new(format!("list `{n}` is not bound"))),
                    }
                }
                Intrinsic::PrioQueueFinished => {
                    let qid = self.queue_id(&args[0])?;
                    // A queue is finished when no non-stale entries remain:
                    // approximate by "no pending entries" which is exact for
                    // monotone min-updates.
                    Ok(Value::Bool(self.queues[qid].finished()))
                }
                Intrinsic::DequeueReadySet => Err(ExecError::new(
                    "DequeueReadySet only valid as a variable initializer",
                )),
                Intrinsic::OutDegree => {
                    let v = self.eval_host(args.last().expect("degree arg"))?.as_int() as u32;
                    Ok(Value::Int(self.graph.out_degree(v) as i64))
                }
                Intrinsic::InDegree => {
                    let v = self.eval_host(args.last().expect("degree arg"))?.as_int() as u32;
                    Ok(Value::Int(self.graph.in_degree(v) as i64))
                }
                Intrinsic::Abs => {
                    let v = self.eval_host(&args[0])?;
                    Ok(Value::Float(v.as_float().abs()))
                }
                Intrinsic::IntersectCount => {
                    let a = self.eval_host(&args[args.len() - 2])?.as_int() as u32;
                    let b = self
                        .eval_host(args.last().expect("intersect arg"))?
                        .as_int() as u32;
                    Ok(Value::Int(self.graph.intersect_count(a, b) as i64))
                }
                other => Err(ExecError::new(format!(
                    "intrinsic {other} not valid in host expressions"
                ))),
            },
            ExprKind::Call { func, args } => {
                let id = self
                    .udfs
                    .id_of(func)
                    .ok_or_else(|| ExecError::new(format!("unknown function `{func}`")))?;
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval_host(a)?);
                }
                Ok(self
                    .evaluator()
                    .call(
                        id,
                        &vals,
                        EdgeCtx::default(),
                        &mut NullOutput,
                        &mut NullMemory,
                    )
                    .unwrap_or(Value::Int(0)))
            }
            ExprKind::CompareAndSwap { .. } => Err(ExecError::new(
                "CompareAndSwap not valid in host expressions",
            )),
        }
    }

    fn queue_id(&self, e: &Expr) -> Result<usize, ExecError> {
        let ExprKind::Var(n) = &e.kind else {
            return Err(ExecError::new("expected a queue variable"));
        };
        self.binding
            .queues
            .get(n)
            .copied()
            .ok_or_else(|| ExecError::new(format!("unbound queue `{n}`")))
    }
}

/// Runs a statement block under `exec` (used by backends that take over
/// whole loops, e.g. GPU kernel fusion). Returns `true` when the block
/// executed a `break`.
///
/// # Errors
///
/// Propagates [`ExecError`]s from the host walk or the executor.
pub fn run_block(
    state: &mut ProgramState<'_>,
    exec: &mut dyn OperatorExecutor,
    stmts: &[Stmt],
) -> Result<bool, ExecError> {
    Ok(matches!(exec_block(state, exec, stmts)?, Flow::Break))
}

/// Runs the program's `main` with operators executed by `exec`.
///
/// # Errors
///
/// Propagates [`ExecError`]s from the host walk or the executor.
pub fn run_main(
    state: &mut ProgramState<'_>,
    exec: &mut dyn OperatorExecutor,
) -> Result<(), ExecError> {
    let main = state.prog.main.clone();
    exec_block(state, exec, &main)?;
    Ok(())
}

fn exec_block(
    state: &mut ProgramState<'_>,
    exec: &mut dyn OperatorExecutor,
    stmts: &[Stmt],
) -> Result<Flow, ExecError> {
    for s in stmts {
        match exec_stmt(state, exec, s)? {
            Flow::Normal => {}
            Flow::Break => return Ok(Flow::Break),
        }
    }
    Ok(Flow::Normal)
}

fn exec_stmt(
    state: &mut ProgramState<'_>,
    exec: &mut dyn OperatorExecutor,
    s: &Stmt,
) -> Result<Flow, ExecError> {
    match &s.kind {
        StmtKind::VarDecl { name, ty, init } => {
            let value = match init {
                Some(Expr {
                    kind: ExprKind::Intrinsic { kind, args },
                    ..
                }) => match kind {
                    Intrinsic::NewVertexSet => {
                        let count = state.eval_host(&args[0])?.as_int().max(0) as usize;
                        let n = state.graph.num_vertices();
                        if count == 0 {
                            HostValue::Set(VertexSet::empty_sparse(n))
                        } else {
                            HostValue::Set(VertexSet::from_members(
                                n,
                                (0..count.min(n) as u32).collect(),
                            ))
                        }
                    }
                    Intrinsic::NewFrontierList => HostValue::List(FrontierList::new()),
                    Intrinsic::DequeueReadySet => {
                        let qid = state.queue_id(&args[0])?;
                        HostValue::Set(state.pop_ready(qid))
                    }
                    _ => HostValue::Scalar(state.eval_host(init.as_ref().expect("checked"))?),
                },
                Some(e) => HostValue::Scalar(state.eval_host(e)?),
                None => match ty {
                    Type::VertexSet => {
                        HostValue::Set(VertexSet::empty_sparse(state.graph.num_vertices()))
                    }
                    Type::FrontierList => HostValue::List(FrontierList::new()),
                    t => HostValue::Scalar(Value::zero_of(*t)),
                },
            };
            state.env.declare(name.clone(), value);
            Ok(Flow::Normal)
        }
        StmtKind::Assign { target, value } => {
            match target {
                LValue::Var(name) => {
                    // Set-to-set moves: `frontier = output`.
                    if let ExprKind::Var(src) = &value.kind {
                        if let Some(set) = state.env.take_set(src) {
                            if state.env.assign(name, HostValue::Set(set)).is_err() {
                                return Err(ExecError::new(format!(
                                    "assignment to undeclared variable `{name}`"
                                )));
                            }
                            return Ok(Flow::Normal);
                        }
                    }
                    let v = state.eval_host(value)?;
                    if state.env.assign(name, HostValue::Scalar(v)).is_ok() {
                        return Ok(Flow::Normal);
                    }
                    if let Some(id) = state.globals.id_of(name) {
                        state.globals.write(id, v);
                        return Ok(Flow::Normal);
                    }
                    Err(ExecError::new(format!(
                        "assignment to undeclared variable `{name}`"
                    )))
                }
                LValue::Prop { prop, index } => {
                    let i = state.eval_host(index)?.as_int() as u32;
                    let v = state.eval_host(value)?;
                    let pid = state
                        .binding
                        .props
                        .get(prop)
                        .copied()
                        .ok_or_else(|| ExecError::new(format!("unbound property `{prop}`")))?;
                    state.props.write(pid, i, v);
                    Ok(Flow::Normal)
                }
            }
        }
        StmtKind::Reduce {
            target, op, value, ..
        } => {
            let v = state.eval_host(value)?;
            match target {
                LValue::Prop { prop, index } => {
                    let i = state.eval_host(index)?.as_int() as u32;
                    let pid = state
                        .binding
                        .props
                        .get(prop)
                        .copied()
                        .ok_or_else(|| ExecError::new(format!("unbound property `{prop}`")))?;
                    state.props.reduce_relaxed(pid, i, *op, v);
                }
                LValue::Var(name) => {
                    if let Some(cur) = state.env.scalar(name) {
                        let newv = host_reduce(*op, cur, v);
                        state
                            .env
                            .assign(name, HostValue::Scalar(newv))
                            .map_err(|n| ExecError::new(format!("unbound variable `{n}`")))?;
                    } else if let Some(id) = state.globals.id_of(name) {
                        state.globals.reduce(id, *op, v);
                    } else {
                        return Err(ExecError::new(format!("unbound variable `{name}`")));
                    }
                }
            }
            Ok(Flow::Normal)
        }
        StmtKind::If {
            cond,
            then_body,
            else_body,
        } => {
            if state.eval_host(cond)?.as_bool() {
                exec_block(state, exec, then_body)
            } else {
                exec_block(state, exec, else_body)
            }
        }
        StmtKind::While { cond, body } => {
            if exec.try_loop(state, s)? {
                return Ok(Flow::Normal);
            }
            loop {
                // Cooperative wall watchdog: `While` headers are the one
                // place every long-running program passes through
                // repeatedly, on every backend.
                if let Some(msg) = ugc_resilience::budget::wall_exceeded() {
                    return Err(ExecError::classified(ErrorClass::Budget, msg));
                }
                if !state.eval_host(cond)?.as_bool() {
                    break;
                }
                match exec_block(state, exec, body)? {
                    Flow::Normal => {}
                    Flow::Break => break,
                }
            }
            Ok(Flow::Normal)
        }
        StmtKind::For {
            var,
            start,
            end,
            body,
        } => {
            let lo = state.eval_host(start)?.as_int();
            let hi = state.eval_host(end)?.as_int();
            state.env.push_scope();
            state
                .env
                .declare(var.clone(), HostValue::Scalar(Value::Int(lo)));
            let mut i = lo;
            while i < hi {
                state
                    .env
                    .assign(var, HostValue::Scalar(Value::Int(i)))
                    .map_err(|n| ExecError::new(format!("unbound loop variable `{n}`")))?;
                if matches!(exec_block(state, exec, body)?, Flow::Break) {
                    break;
                }
                i += 1;
            }
            state.env.pop_scope();
            Ok(Flow::Normal)
        }
        StmtKind::ExprStmt(e) => {
            state.eval_host(e)?;
            Ok(Flow::Normal)
        }
        StmtKind::Return(_) => Ok(Flow::Normal),
        StmtKind::Break => Ok(Flow::Break),
        StmtKind::EdgeSetIterator(d) => {
            let out = exec.edge_iterator(state, s, d)?;
            if let Some(name) = &d.output {
                let set = out.ok_or_else(|| {
                    ExecError::new("executor returned no output for an output-producing operator")
                })?;
                if state.env.assign(name, HostValue::Set(set.clone())).is_err() {
                    state.env.declare(name.clone(), HostValue::Set(set));
                }
            }
            Ok(Flow::Normal)
        }
        StmtKind::VertexSetIterator { set, apply } => {
            exec.vertex_iterator(state, s, set.as_deref(), apply)?;
            Ok(Flow::Normal)
        }
        StmtKind::VertexSetFilter { input, out, filter } => {
            let set = exec.vertex_filter(state, s, input.as_deref(), filter)?;
            if state.env.assign(out, HostValue::Set(set.clone())).is_err() {
                state.env.declare(out.clone(), HostValue::Set(set));
            }
            Ok(Flow::Normal)
        }
        StmtKind::EnqueueVertex { set, vertex } => {
            let v = state.eval_host(vertex)?.as_int() as u32;
            let Some(name) = set else {
                return Err(ExecError::new(
                    "EnqueueVertex without explicit set outside a UDF",
                ));
            };
            match state.env.get_mut(name) {
                Some(HostValue::Set(s)) => {
                    s.add(v);
                    Ok(Flow::Normal)
                }
                _ => Err(ExecError::new(format!("set `{name}` is not bound"))),
            }
        }
        StmtKind::VertexSetDedup { set } => match state.env.get_mut(set) {
            Some(HostValue::Set(s)) => {
                s.dedup();
                Ok(Flow::Normal)
            }
            _ => Err(ExecError::new(format!("set `{set}` is not bound"))),
        },
        StmtKind::UpdatePriority { .. } => Err(ExecError::new(
            "UpdatePriority outside a UDF is not supported",
        )),
        StmtKind::ListAppend { list, set } => {
            let s = state
                .env
                .set(set)
                .cloned()
                .ok_or_else(|| ExecError::new(format!("set `{set}` is not bound")))?;
            match state.env.list_mut(list) {
                Some(l) => {
                    l.append(s);
                    Ok(Flow::Normal)
                }
                None => Err(ExecError::new(format!("list `{list}` is not bound"))),
            }
        }
        StmtKind::ListRetrieve { list, index, out } => {
            let i = state.eval_host(index)?.as_int();
            let set = match state.env.list_mut(list) {
                Some(l) => l
                    .retrieve(i as usize)
                    .ok_or_else(|| ExecError::new(format!("list index {i} out of bounds"))),
                None => Err(ExecError::new(format!("list `{list}` is not bound"))),
            }?;
            if state.env.assign(out, HostValue::Set(set.clone())).is_err() {
                state.env.declare(out.clone(), HostValue::Set(set));
            }
            Ok(Flow::Normal)
        }
        StmtKind::ListPopBack { list, out } => {
            let set = match state.env.list_mut(list) {
                Some(l) => l
                    .pop_back()
                    .ok_or_else(|| ExecError::new("pop from empty frontier list")),
                None => Err(ExecError::new(format!("list `{list}` is not bound"))),
            }?;
            if state.env.assign(out, HostValue::Set(set.clone())).is_err() {
                state.env.declare(out.clone(), HostValue::Set(set));
            }
            Ok(Flow::Normal)
        }
        StmtKind::Delete { name } => {
            let _ = state.env.take_set(name);
            Ok(Flow::Normal)
        }
        StmtKind::Print(e) => {
            let v = state.eval_host(e)?;
            state.prints.push(v.to_string());
            Ok(Flow::Normal)
        }
    }
}

fn host_reduce(op: ReduceOp, cur: Value, v: Value) -> Value {
    use ugc_graphir::types::BinOp;
    match op {
        ReduceOp::Sum => Value::bin(BinOp::Add, cur, v),
        ReduceOp::Min => {
            if Value::bin(BinOp::Lt, v, cur).as_bool() {
                v
            } else {
                cur
            }
        }
        ReduceOp::Max => {
            if Value::bin(BinOp::Gt, v, cur).as_bool() {
                v
            } else {
                cur
            }
        }
        ReduceOp::Or => Value::Bool(cur.as_bool() || v.as_bool()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivially-sequential push executor used to test the host walker.
    struct SerialExec;

    impl OperatorExecutor for SerialExec {
        fn edge_iterator(
            &mut self,
            state: &mut ProgramState<'_>,
            stmt: &Stmt,
            data: &EdgeSetIteratorData,
        ) -> Result<Option<VertexSet>, ExecError> {
            let mut op = crate::EdgeOp::resolve(state, stmt, data)?;
            op.dedup = true;
            let ev = state.evaluator();
            let mut out = crate::eval::BufferedOutput::default();
            for src in state.input_set(&data.input)?.iter() {
                let weights = op.fwd.neighbor_weights(src);
                for (k, &dst) in op.fwd.neighbors(src).iter().enumerate() {
                    let w = weights.map_or(1, |ws| ws[k]) as i64;
                    ev.apply_edge(&op, src, dst, w, &mut out, &mut NullMemory);
                }
            }
            Ok(state.finish_edge_op(&op, [out]))
        }

        fn vertex_iterator(
            &mut self,
            state: &mut ProgramState<'_>,
            _stmt: &Stmt,
            set: Option<&str>,
            apply: &str,
        ) -> Result<(), ExecError> {
            let udf = state.udf_id(apply)?;
            let ev = state.evaluator();
            for v in state.members(set)? {
                ev.apply_vertex(udf, v, &mut NullOutput, &mut NullMemory);
            }
            Ok(())
        }
    }

    #[test]
    fn bfs_end_to_end_with_serial_executor() {
        use ugc_graphir::ir::{Function, Param};
        use ugc_graphir::types::BinOp;

        // Build BFS IR by hand (mirrors the midend output).
        let mut p = Program::new();
        p.add_property("parent", Type::Vertex, Expr::int(-1));
        p.add_global("start_vertex", Type::Vertex, None);
        let mut f = Function::new(
            "upd",
            vec![
                Param::new("src", Type::Vertex),
                Param::new("dst", Type::Vertex),
            ],
            None,
        );
        f.body.push(Stmt::new(StmtKind::VarDecl {
            name: "ok".into(),
            ty: Type::Bool,
            init: Some(Expr::cas(
                "parent",
                Expr::var("dst"),
                Expr::int(-1),
                Expr::var("src"),
            )),
        }));
        f.body.push(Stmt::new(StmtKind::If {
            cond: Expr::var("ok"),
            then_body: vec![Stmt::new(StmtKind::EnqueueVertex {
                set: None,
                vertex: Expr::var("dst"),
            })],
            else_body: vec![],
        }));
        p.add_function(f);
        // main
        p.main.push(Stmt::new(StmtKind::VarDecl {
            name: "frontier".into(),
            ty: Type::VertexSet,
            init: Some(Expr::intrinsic(Intrinsic::NewVertexSet, vec![Expr::int(0)])),
        }));
        p.main.push(Stmt::new(StmtKind::EnqueueVertex {
            set: Some("frontier".into()),
            vertex: Expr::var("start_vertex"),
        }));
        p.main.push(Stmt::new(StmtKind::Assign {
            target: LValue::prop("parent", Expr::var("start_vertex")),
            value: Expr::var("start_vertex"),
        }));
        let iter = Stmt::new(StmtKind::EdgeSetIterator(EdgeSetIteratorData {
            graph: "edges".into(),
            input: Some("frontier".into()),
            output: Some("output".into()),
            apply: "upd".into(),
            src_filter: None,
            dst_filter: None,
            tracked_prop: Some("parent".into()),
            transposed: false,
        }));
        p.main.push(Stmt::new(StmtKind::While {
            cond: Expr::bin(
                BinOp::Ne,
                Expr::intrinsic(Intrinsic::VertexSetSize, vec![Expr::var("frontier")]),
                Expr::int(0),
            ),
            body: vec![
                iter,
                Stmt::new(StmtKind::Delete {
                    name: "frontier".into(),
                }),
                Stmt::new(StmtKind::Assign {
                    target: LValue::Var("frontier".into()),
                    value: Expr::var("output"),
                }),
            ],
        }));

        let graph = ugc_graph::generators::path(5);
        let mut externs = HashMap::new();
        externs.insert("start_vertex".to_string(), Value::Int(0));
        let mut state = ProgramState::new(p, &graph, &externs).unwrap();
        run_main(&mut state, &mut SerialExec).unwrap();
        let parent = state.props.id_of("parent").unwrap();
        assert_eq!(state.props.read(parent, 0), Value::Int(0));
        assert_eq!(state.props.read(parent, 4), Value::Int(3));
    }

    #[test]
    fn missing_extern_is_an_error() {
        let mut p = Program::new();
        p.add_global("start_vertex", Type::Vertex, None);
        let graph = ugc_graph::generators::path(2);
        let err = ProgramState::new(p, &graph, &HashMap::new()).unwrap_err();
        assert!(err.to_string().contains("start_vertex"));
    }

    #[test]
    fn print_and_for_loops() {
        let mut p = Program::new();
        p.main.push(Stmt::new(StmtKind::For {
            var: "i".into(),
            start: Expr::int(0),
            end: Expr::int(3),
            body: vec![Stmt::new(StmtKind::Print(Expr::var("i")))],
        }));
        let graph = ugc_graph::generators::path(2);
        let mut state = ProgramState::new(p, &graph, &HashMap::new()).unwrap();
        run_main(&mut state, &mut SerialExec).unwrap();
        assert_eq!(state.prints, vec!["0", "1", "2"]);
    }

    #[test]
    fn break_exits_while() {
        let mut p = Program::new();
        p.main.push(Stmt::new(StmtKind::VarDecl {
            name: "n".into(),
            ty: Type::Int,
            init: Some(Expr::int(0)),
        }));
        p.main.push(Stmt::new(StmtKind::While {
            cond: Expr::bool(true),
            body: vec![
                Stmt::new(StmtKind::Reduce {
                    target: LValue::Var("n".into()),
                    op: ReduceOp::Sum,
                    value: Expr::int(1),
                    tracking: None,
                }),
                Stmt::new(StmtKind::If {
                    cond: Expr::bin(ugc_graphir::types::BinOp::Ge, Expr::var("n"), Expr::int(5)),
                    then_body: vec![Stmt::new(StmtKind::Break)],
                    else_body: vec![],
                }),
            ],
        }));
        p.main.push(Stmt::new(StmtKind::Print(Expr::var("n"))));
        let graph = ugc_graph::generators::path(2);
        let mut state = ProgramState::new(p, &graph, &HashMap::new()).unwrap();
        run_main(&mut state, &mut SerialExec).unwrap();
        assert_eq!(state.prints, vec!["5"]);
    }
}
