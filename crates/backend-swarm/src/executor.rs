//! The Swarm operator executor: functional execution + task-graph
//! recording, then timing simulation.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use ugc_graphir::ir::{EdgeSetIteratorData, Expr, ExprKind, Stmt, StmtKind};
use ugc_graphir::keys;
use ugc_graphir::types::{Direction, Intrinsic};
use ugc_runtime::eval::{BufferedOutput, Evaluator, MemoryModel};
use ugc_runtime::host::HostValue;
use ugc_runtime::interp::{ExecError, OperatorExecutor, ProgramState};
use ugc_runtime::properties::PropId;
use ugc_runtime::vertexset::VertexSet;
use ugc_runtime::EdgeOp;
use ugc_schedule::schedule_as;
use ugc_sim_swarm::{SwarmSim, TaskSpec};

use crate::schedule::{Frontiers, SwarmSchedule, TaskGranularity};

/// Cache line id of a shared round counter (privatization ablation).
const SHARED_ROUND_LINE: u64 = u64::MAX - 1;

/// `(reads, writes, duration, enqueued, first dst)` of one fine-grained
/// subtask recorded during functional execution.
type SubtaskRecord = (Vec<u64>, Vec<u64>, u64, Vec<u32>, u32);

/// Cycles charged per memory access inside a task.
const MEM_CYCLES: u64 = 4;
/// Base cycles per task (prologue/epilogue).
const TASK_BASE_CYCLES: u64 = 10;
/// Extra cycles per buffered-frontier enqueue (shared tail update).
const BUFFERED_ENQUEUE_CYCLES: u64 = 12;
/// Edges per fine-grained subtask in converted loops (one, as in the
/// paper's Fig. 5 — hint precision matters for claim serialization).
const FINE_CHUNK: usize = 1;
/// Edges per fine-grained subtask in generic (topology-driven) operators —
/// a small chunk keeps most of per-edge splitting's abort-cost benefit at
/// a quarter of its task count (simulation cost).
const GENERIC_FINE_CHUNK: usize = 2;

/// Records a task's memory footprint at cache-line granularity.
#[derive(Default)]
struct TaskRecorder {
    reads: Vec<u64>,
    writes: Vec<u64>,
    accesses: u64,
    computes: u64,
}

/// Conflict-detection granule. Real Swarm tracks cache lines; with dense
/// vertex ids that produces pathological false sharing that the authors'
/// sparse layouts avoid, so this reproduction tracks word-granularity
/// granules (true dependences only) — see DESIGN.md.
fn line(prop: PropId, idx: u32) -> u64 {
    (((prop.0 as u64) + 1) << 28) + (idx as u64)
}

impl MemoryModel for TaskRecorder {
    fn load(&mut self, prop: PropId, idx: u32) {
        self.reads.push(line(prop, idx));
        self.accesses += 1;
    }
    fn store(&mut self, prop: PropId, idx: u32) {
        self.writes.push(line(prop, idx));
        self.accesses += 1;
    }
    fn atomic(&mut self, prop: PropId, idx: u32) {
        self.writes.push(line(prop, idx));
        self.accesses += 1;
    }
    fn compute(&mut self, n: u32) {
        self.computes += n as u64;
    }
}

impl TaskRecorder {
    /// Raw (unsorted, possibly duplicated) access lists plus the modeled
    /// duration. Sorting/dedup is deferred to [`finalize_tasks`], which
    /// normalizes every task in parallel right before simulation.
    fn into_parts(self) -> (Vec<u64>, Vec<u64>, u64) {
        let duration = TASK_BASE_CYCLES + self.computes + self.accesses * MEM_CYCLES;
        (self.reads, self.writes, duration)
    }
}

/// Normalizes every task's read/write sets (sorted, deduplicated) — the
/// form [`SwarmSim`] expects. Task construction is inherently serial
/// (data-dependent traversal), but this cleanup pass is embarrassingly
/// parallel, so it runs on the persistent pool.
fn finalize_tasks(tasks: &mut [TaskSpec]) {
    ugc_runtime::pool::parallel_for_each_mut(
        ugc_runtime::pool::default_threads(),
        tasks,
        256,
        |_tid, _start, window| {
            for t in window {
                t.reads.sort_unstable();
                t.reads.dedup();
                t.writes.sort_unstable();
                t.writes.dedup();
            }
        },
    );
}

/// Executes GraphIR operators as Swarm task graphs.
#[derive(Debug)]
pub struct SwarmExecutor {
    /// The timing simulator.
    pub sim: SwarmSim,
}

impl SwarmExecutor {
    /// Creates an executor over a simulator.
    pub fn new(sim: SwarmSim) -> Self {
        SwarmExecutor { sim }
    }
}

/// The Swarm schedule of one edge operator plus its spatial-hint target.
struct OpPlan {
    sched: SwarmSchedule,
    /// Property whose `[dst]` element is the spatial-hint target
    /// (the tracked property or the queue's priority property).
    hint_prop: Option<PropId>,
}

/// Resolves the operator and its Swarm plan.
fn plan<'g>(
    state: &ProgramState<'g>,
    stmt: &Stmt,
    data: &EdgeSetIteratorData,
) -> Result<(EdgeOp<'g>, OpPlan), ExecError> {
    let op = EdgeOp::resolve(state, stmt, data)?;
    if op.direction == Direction::Pull {
        return Err(ExecError::new(
            "the Swarm GraphVM supports push traversal only (as in the paper)",
        ));
    }
    let hint_prop = data
        .tracked_prop
        .as_ref()
        .and_then(|p| state.binding.props.get(p).copied())
        .or_else(|| {
            stmt.meta
                .get_str(keys::QUEUE_UPDATED)
                .and_then(|q| state.binding.queues.get(q).copied())
                .map(|qid| state.udfs.queue_props[qid])
        });
    let sched = schedule_as::<SwarmSchedule>(stmt).unwrap_or_default();
    Ok((op, OpPlan { sched, hint_prop }))
}

/// Runs the apply UDF for the edges `edge_range` of `src`, recording into
/// `rec` and collecting enqueues/priority updates into `out`.
fn run_edges(
    ev: &Evaluator<'_>,
    op: &EdgeOp<'_>,
    src: u32,
    edge_range: std::ops::Range<usize>,
    rec: &mut TaskRecorder,
    out: &mut BufferedOutput,
) {
    let csr = op.fwd;
    let base = csr.edge_offset(src);
    let weights = csr.neighbor_weights(src);
    for k in edge_range {
        let dst = csr.targets()[k];
        rec.accesses += 1; // edge fetch
        if !ev.passes(op.dst_filter, dst, rec) {
            continue;
        }
        let w = weights.map_or(1, |ws| ws[k - base]) as i64;
        ev.apply_edge(op, src, dst, w, out, rec);
    }
}

impl SwarmExecutor {
    /// Builds one operator's task batch (Buffered semantics) and simulates
    /// it. Barrier between operators is implicit.
    fn operator_batch(
        &mut self,
        state: &ProgramState<'_>,
        op: &EdgeOp<'_>,
        mut members: Vec<u32>,
        plan: &OpPlan,
    ) -> BufferedOutput {
        let ev = state.relaxed_evaluator();
        let csr = op.fwd;
        if plan.sched.shuffle_edges() {
            // Deterministic shuffle (splitmix-style indexing).
            let n = members.len();
            for i in (1..n).rev() {
                let j =
                    (i as u64).wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17) as usize % (i + 1);
                members.swap(i, j);
            }
        }
        let mut tasks: Vec<TaskSpec> = Vec::new();
        let mut roots: Vec<usize> = Vec::new();
        let mut merged = BufferedOutput::default();
        let fine = plan.sched.task_granularity() == TaskGranularity::FineGrained;
        for &v in &members {
            let mut rec = TaskRecorder::default();
            rec.accesses += 2; // frontier slot + offsets
            if !ev.passes(op.src_filter, v, &mut rec) {
                let (reads, writes, duration) = rec.into_parts();
                roots.push(tasks.len());
                tasks.push(TaskSpec {
                    ts: 0,
                    duration,
                    reads,
                    writes,
                    hint: None,
                    children: vec![],
                });
                continue;
            }
            let deg = csr.degree(v);
            let lo = csr.edge_offset(v);
            if !fine {
                let mut out = BufferedOutput::default();
                run_edges(&ev, op, v, lo..lo + deg, &mut rec, &mut out);
                let enq = out.enqueued.len() as u64;
                let (reads, writes, mut duration) = rec.into_parts();
                duration += enq * BUFFERED_ENQUEUE_CYCLES;
                roots.push(tasks.len());
                tasks.push(TaskSpec {
                    ts: 0,
                    duration,
                    reads,
                    writes,
                    hint: None,
                    children: vec![],
                });
                merged.enqueued.extend(out.enqueued);
                merged.priority_updates.extend(out.priority_updates);
            } else {
                // Parent scan task + per-chunk hinted subtasks.
                let parent_id = tasks.len();
                roots.push(parent_id);
                tasks.push(TaskSpec {
                    ts: 0,
                    duration: TASK_BASE_CYCLES + 2 * MEM_CYCLES + deg as u64 / 2,
                    reads: rec.reads.clone(),
                    writes: vec![],
                    hint: None,
                    children: vec![],
                });
                let mut s = 0usize;
                while s < deg {
                    let e = (s + GENERIC_FINE_CHUNK).min(deg);
                    let mut sub_rec = TaskRecorder::default();
                    let mut out = BufferedOutput::default();
                    run_edges(&ev, op, v, lo + s..lo + e, &mut sub_rec, &mut out);
                    let enq = out.enqueued.len() as u64;
                    let (reads, writes, mut duration) = sub_rec.into_parts();
                    duration += enq * BUFFERED_ENQUEUE_CYCLES;
                    let hint = if plan.sched.spatial_hints() {
                        let dst = csr.targets()[lo + s];
                        plan.hint_prop
                            .map(|p| line(p, dst))
                            .or_else(|| writes.iter().min().copied())
                    } else {
                        None
                    };
                    let sub_id = tasks.len();
                    tasks.push(TaskSpec {
                        ts: 0,
                        duration,
                        reads,
                        writes,
                        hint,
                        children: vec![],
                    });
                    tasks[parent_id].children.push(sub_id);
                    merged.enqueued.extend(out.enqueued);
                    merged.priority_updates.extend(out.priority_updates);
                    s = e;
                }
            }
        }
        finalize_tasks(&mut tasks);
        self.sim.simulate(&tasks, &roots, false);
        merged
    }

    /// The vertex-set→tasks conversion for data-driven loops (BFS/CC
    /// shape): rounds become timestamps; the whole loop is one simulation.
    fn convert_data_driven_loop(
        &mut self,
        state: &mut ProgramState<'_>,
        frontier_var: &str,
        iter_stmt: &Stmt,
        data: &EdgeSetIteratorData,
    ) -> Result<(), ExecError> {
        let (op, plan) = plan(state, iter_stmt, data)?;
        let csr = op.fwd;
        let initial = state
            .env
            .set(frontier_var)
            .cloned()
            .ok_or_else(|| ExecError::new(format!("frontier `{frontier_var}` unbound")))?;
        let ev = state.relaxed_evaluator();
        let fine = plan.sched.task_granularity() == TaskGranularity::FineGrained;
        let privatize = plan.sched.privatize();

        let mut tasks: Vec<TaskSpec> = Vec::new();
        let mut roots: Vec<usize> = Vec::new();
        // (vertex, round, pre-created task id)
        let mut queue: VecDeque<(u32, u64, usize)> = VecDeque::new();
        let mut round_first_task: Vec<usize> = Vec::new();
        for v in initial.iter() {
            let id = tasks.len();
            tasks.push(TaskSpec {
                ts: 0,
                ..Default::default()
            });
            roots.push(id);
            queue.push_back((v, 0, id));
        }
        while let Some((v, round, id)) = queue.pop_front() {
            let mut rec = TaskRecorder::default();
            rec.accesses += 2;
            let spawned: Vec<u32>;
            // (reads, writes, duration, enqueued, first dst)
            let mut children_subtasks: Vec<SubtaskRecord> = Vec::new();
            if ev.passes(op.src_filter, v, &mut rec) {
                let deg = csr.degree(v);
                let lo = csr.edge_offset(v);
                if !fine {
                    let mut out = BufferedOutput::default();
                    run_edges(&ev, &op, v, lo..lo + deg, &mut rec, &mut out);
                    spawned = out.enqueued;
                } else {
                    let mut all = Vec::new();
                    let mut s = 0usize;
                    while s < deg {
                        let e = (s + FINE_CHUNK).min(deg);
                        let mut sub_rec = TaskRecorder::default();
                        let mut out = BufferedOutput::default();
                        run_edges(&ev, &op, v, lo + s..lo + e, &mut sub_rec, &mut out);
                        let (r, w, d) = sub_rec.into_parts();
                        all.extend(out.enqueued.iter().copied());
                        let first_dst = csr.targets()[lo + s];
                        children_subtasks.push((r, w, d, out.enqueued, first_dst));
                        s = e;
                    }
                    spawned = all;
                }
            } else {
                spawned = Vec::new();
            }
            // Fill this task's spec.
            let (mut reads, writes, duration) = rec.into_parts();
            if !privatize {
                reads.push(SHARED_ROUND_LINE);
            }
            tasks[id].ts = round;
            tasks[id].duration = if fine {
                TASK_BASE_CYCLES + 2 * MEM_CYCLES
            } else {
                duration
            };
            tasks[id].reads = reads;
            tasks[id].writes = writes;
            if !privatize && round_first_task.len() <= round as usize {
                round_first_task.push(id);
                tasks[id].writes.push(SHARED_ROUND_LINE);
            }
            // Children: next-round vertex tasks (pre-created so ids exist).
            if !fine {
                let mut child_ids = Vec::new();
                for &dst in &spawned {
                    let cid = tasks.len();
                    tasks.push(TaskSpec {
                        ts: round + 1,
                        ..Default::default()
                    });
                    child_ids.push(cid);
                    queue.push_back((dst, round + 1, cid));
                }
                tasks[id].children = child_ids;
            } else {
                for (r, mut w, d, enq, first_dst) in children_subtasks {
                    let hint = if plan.sched.spatial_hints() {
                        plan.hint_prop
                            .map(|p| line(p, first_dst))
                            .or_else(|| w.iter().min().copied())
                    } else {
                        None
                    };
                    if !privatize {
                        w.push(SHARED_ROUND_LINE);
                    }
                    let sub_id = tasks.len();
                    tasks.push(TaskSpec {
                        ts: round,
                        duration: d,
                        reads: r,
                        writes: w,
                        hint,
                        children: vec![],
                    });
                    tasks[id].children.push(sub_id);
                    for dst in enq {
                        let cid = tasks.len();
                        tasks.push(TaskSpec {
                            ts: round + 1,
                            ..Default::default()
                        });
                        tasks[sub_id].children.push(cid);
                        queue.push_back((dst, round + 1, cid));
                    }
                }
            }
        }
        finalize_tasks(&mut tasks);
        self.sim.simulate(&tasks, &roots, false);
        // The loop has fully run: the frontier drains to empty.
        let empty = VertexSet::empty_sparse(state.graph.num_vertices());
        let _ = state
            .env
            .assign(frontier_var, HostValue::Set(empty.clone()));
        if let Some(o) = &data.output {
            if state.env.assign(o, HostValue::Set(empty.clone())).is_err() {
                state.env.declare(o.clone(), HostValue::Set(empty));
            }
        }
        Ok(())
    }

    /// The vertex-set→tasks conversion for priority-driven loops
    /// (∆-stepping SSSP): priorities become timestamps.
    fn convert_ordered_loop(
        &mut self,
        state: &mut ProgramState<'_>,
        qid: usize,
        iter_stmt: &Stmt,
        data: &EdgeSetIteratorData,
    ) -> Result<(), ExecError> {
        let (op, plan) = plan(state, iter_stmt, data)?;
        let delta = ugc_schedule::SimpleSchedule::delta(&plan.sched).max(1) as u64;
        let csr = op.fwd;
        let prio_prop = state.udfs.queue_props[qid];

        let mut tasks: Vec<TaskSpec> = Vec::new();
        let mut roots: Vec<usize> = Vec::new();
        // Functional Dijkstra over pre-created task ids.
        let mut heap: BinaryHeap<Reverse<(i64, usize, u32)>> = BinaryHeap::new();
        let initial = state.pop_ready(qid);
        for v in initial.iter() {
            let prio = state.props.read(prio_prop, v).as_int();
            let id = tasks.len();
            tasks.push(TaskSpec {
                ts: prio as u64 / delta,
                ..Default::default()
            });
            roots.push(id);
            heap.push(Reverse((prio, id, v)));
        }
        let fine = plan.sched.task_granularity() == TaskGranularity::FineGrained;
        while let Some(Reverse((prio, id, v))) = heap.pop() {
            let ev = state.relaxed_evaluator();
            let mut rec = TaskRecorder::default();
            // Every task reads its vertex's current priority.
            rec.load(prio_prop, v);
            let current = state.props.read(prio_prop, v).as_int();
            let fresh = current == prio;
            let hint = if plan.sched.spatial_hints() {
                Some(line(prio_prop, v))
            } else {
                None
            };
            if !fine {
                let mut out = BufferedOutput::default();
                if fresh {
                    let deg = csr.degree(v);
                    let lo = csr.edge_offset(v);
                    if ev.passes(op.src_filter, v, &mut rec) {
                        run_edges(&ev, &op, v, lo..lo + deg, &mut rec, &mut out);
                    }
                }
                let (reads, writes, duration) = rec.into_parts();
                tasks[id].duration = duration;
                tasks[id].reads = reads;
                tasks[id].writes = writes;
                tasks[id].hint = hint;
                for (q, dst, ndist) in out.priority_updates {
                    debug_assert_eq!(q, qid);
                    let cid = tasks.len();
                    tasks.push(TaskSpec {
                        ts: ndist as u64 / delta,
                        ..Default::default()
                    });
                    tasks[id].children.push(cid);
                    heap.push(Reverse((ndist, cid, dst)));
                }
            } else {
                // Fine-grained splitting (Fig. 5): the vertex task only
                // scans its offsets; each edge relaxes in its own subtask
                // hinted by the destination's priority element.
                let src_ok = fresh && ev.passes(op.src_filter, v, &mut rec);
                let (reads, writes, _) = rec.into_parts();
                tasks[id].duration = TASK_BASE_CYCLES
                    + MEM_CYCLES
                    + if fresh { csr.degree(v) as u64 / 2 } else { 0 };
                tasks[id].reads = reads;
                tasks[id].writes = writes;
                tasks[id].hint = hint;
                if src_ok {
                    let deg = csr.degree(v);
                    let lo = csr.edge_offset(v);
                    for k in lo..lo + deg {
                        let dst = csr.targets()[k];
                        let mut sub_rec = TaskRecorder::default();
                        let mut out = BufferedOutput::default();
                        run_edges(&ev, &op, v, k..k + 1, &mut sub_rec, &mut out);
                        let (r, w, d) = sub_rec.into_parts();
                        let sub_id = tasks.len();
                        tasks.push(TaskSpec {
                            ts: prio.max(0) as u64 / delta,
                            duration: d,
                            reads: r,
                            writes: w,
                            hint: if plan.sched.spatial_hints() {
                                Some(line(prio_prop, dst))
                            } else {
                                None
                            },
                            children: vec![],
                        });
                        tasks[id].children.push(sub_id);
                        for (q, dst2, ndist) in out.priority_updates {
                            debug_assert_eq!(q, qid);
                            let cid = tasks.len();
                            tasks.push(TaskSpec {
                                ts: ndist as u64 / delta,
                                ..Default::default()
                            });
                            tasks[sub_id].children.push(cid);
                            heap.push(Reverse((ndist, cid, dst2)));
                        }
                    }
                }
            }
        }
        let barrier = plan.sched.frontiers() == Frontiers::Buffered;
        finalize_tasks(&mut tasks);
        self.sim.simulate(&tasks, &roots, barrier);
        state.queues[qid].clear();
        Ok(())
    }
}

/// Recognizes `while (VertexSetSize(F) != 0) { F-driven iterator; … }`.
fn data_driven_pattern<'a>(
    cond: &'a Expr,
    body: &'a [Stmt],
) -> Option<(&'a str, &'a Stmt, &'a EdgeSetIteratorData)> {
    // Condition must test a frontier's size.
    let frontier = match &cond.kind {
        ExprKind::Binary { lhs, .. } => match &lhs.kind {
            ExprKind::Intrinsic {
                kind: Intrinsic::VertexSetSize,
                args,
            } => match &args[0].kind {
                ExprKind::Var(n) => n.as_str(),
                _ => return None,
            },
            _ => return None,
        },
        _ => return None,
    };
    let mut iter: Option<(&Stmt, &EdgeSetIteratorData)> = None;
    for s in body {
        match &s.kind {
            StmtKind::EdgeSetIterator(d) => {
                if iter.is_some() || d.input.as_deref() != Some(frontier) {
                    return None;
                }
                iter = Some((s, d));
            }
            StmtKind::Delete { .. } | StmtKind::Assign { .. } => {}
            _ => return None,
        }
    }
    iter.map(|(s, d)| (frontier, s, d))
}

/// Recognizes `while (PrioQueueFinished(q) == false) { dequeue; ordered
/// iterator; … }`.
fn ordered_pattern(body: &[Stmt]) -> Option<(&Stmt, &EdgeSetIteratorData)> {
    let mut iter = None;
    for s in body {
        match &s.kind {
            StmtKind::EdgeSetIterator(d) => {
                if !s.meta.flag(keys::IS_ORDERED) || iter.is_some() {
                    return None;
                }
                iter = Some((s, d));
            }
            StmtKind::VarDecl { .. } | StmtKind::Delete { .. } | StmtKind::Assign { .. } => {}
            _ => return None,
        }
    }
    iter
}

impl OperatorExecutor for SwarmExecutor {
    fn edge_iterator(
        &mut self,
        state: &mut ProgramState<'_>,
        stmt: &Stmt,
        data: &EdgeSetIteratorData,
    ) -> Result<Option<VertexSet>, ExecError> {
        let (op, plan) = plan(state, stmt, data)?;
        let members = state.input_set(&data.input)?.iter();
        let out = self.operator_batch(state, &op, members, &plan);
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
        let members = state.members(set)?;
        let ev = state.relaxed_evaluator();
        let mut tasks = Vec::with_capacity(members.len());
        let mut roots = Vec::with_capacity(members.len());
        let mut merged = BufferedOutput::default();
        for &v in &members {
            let mut rec = TaskRecorder::default();
            rec.accesses += 1;
            let mut out = BufferedOutput::default();
            ev.apply_vertex(udf, v, &mut out, &mut rec);
            let (reads, writes, duration) = rec.into_parts();
            roots.push(tasks.len());
            tasks.push(TaskSpec {
                ts: 0,
                duration,
                reads,
                writes,
                hint: None,
                children: vec![],
            });
            merged.priority_updates.extend(out.priority_updates);
        }
        self.sim.simulate(&tasks, &roots, false);
        state.push_priorities(merged.priority_updates);
        Ok(())
    }

    fn try_loop(&mut self, state: &mut ProgramState<'_>, stmt: &Stmt) -> Result<bool, ExecError> {
        let StmtKind::While { cond, body } = &stmt.kind else {
            return Ok(false);
        };
        // Only convert when the schedule asks for it.
        if stmt.meta.flag("is_ordered_loop") {
            if let Some((it, data)) = ordered_pattern(body) {
                let sched = schedule_as::<SwarmSchedule>(it).unwrap_or_default();
                if sched.frontiers() == Frontiers::VertexsetToTasks {
                    let queue = it
                        .meta
                        .get_str(keys::QUEUE_UPDATED)
                        .ok_or_else(|| ExecError::new("ordered iterator lacks queue binding"))?;
                    let qid = *state
                        .binding
                        .queues
                        .get(queue)
                        .ok_or_else(|| ExecError::new("unbound queue"))?;
                    let it = it.clone();
                    let data = data.clone();
                    self.convert_ordered_loop(state, qid, &it, &data)?;
                    return Ok(true);
                }
            }
            return Ok(false);
        }
        if let Some((frontier, it, data)) = data_driven_pattern(cond, body) {
            let sched = schedule_as::<SwarmSchedule>(it).unwrap_or_default();
            if sched.frontiers() == Frontiers::VertexsetToTasks {
                let frontier = frontier.to_string();
                let it = it.clone();
                let data = data.clone();
                self.convert_data_driven_loop(state, &frontier, &it, &data)?;
                return Ok(true);
            }
        }
        Ok(false)
    }
}
