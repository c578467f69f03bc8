//! The GPU operator executor: lowers operators to simulator kernels.

use std::cell::RefCell;

use ugc_graphir::ir::{EdgeSetIteratorData, Stmt, StmtKind};
use ugc_graphir::keys;
use ugc_graphir::types::{Direction, VertexSetRepr};
use ugc_runtime::eval::{BufferedOutput, MemoryModel};
use ugc_runtime::interp::{run_block, ExecError, OperatorExecutor, ProgramState};
use ugc_runtime::properties::PropId;
use ugc_runtime::vertexset::VertexSet;
use ugc_runtime::EdgeOp;
use ugc_schedule::schedule_as;
use ugc_sim_gpu::{AccessKind, GpuSim, LaneTrace, MemAccess, WarpTrace};

use crate::load_balance::{self, LoadBalance, WarpAssignment};
use crate::schedule::{FrontierCreation, GpuSchedule};

/// Synthetic array ids for graph structure and frontier buffers (property
/// ids are small, so these never collide).
pub mod arrays {
    /// CSR offsets of the traversal direction in use.
    pub const GRAPH_OFFSETS: u32 = 0x100;
    /// CSR targets.
    pub const GRAPH_TARGETS: u32 = 0x101;
    /// CSR weights.
    pub const GRAPH_WEIGHTS: u32 = 0x102;
    /// Sparse input frontier array.
    pub const FRONTIER_IN: u32 = 0x110;
    /// Sparse output frontier array.
    pub const FRONTIER_OUT: u32 = 0x111;
    /// Output cursor for fused frontier creation.
    pub const FRONTIER_CURSOR: u32 = 0x112;
    /// Bool/bitmap marking buffer (unfused creation, pull membership).
    pub const FRONTIER_MAP: u32 = 0x113;
}

/// Records one lane's memory behaviour while the evaluator runs.
#[derive(Default)]
struct LaneRecorder {
    trace: LaneTrace,
}

impl MemoryModel for LaneRecorder {
    fn load(&mut self, prop: PropId, idx: u32) {
        self.trace.mem.push(MemAccess {
            kind: AccessKind::Load,
            prop: prop.0 as u32,
            idx,
        });
    }
    fn store(&mut self, prop: PropId, idx: u32) {
        self.trace.mem.push(MemAccess {
            kind: AccessKind::Store,
            prop: prop.0 as u32,
            idx,
        });
    }
    fn atomic(&mut self, prop: PropId, idx: u32) {
        self.trace.mem.push(MemAccess {
            kind: AccessKind::Atomic,
            prop: prop.0 as u32,
            idx,
        });
    }
    fn compute(&mut self, n: u32) {
        self.trace.computes += n;
    }
}

impl LaneRecorder {
    fn raw(&mut self, kind: AccessKind, prop: u32, idx: u32) {
        self.trace.mem.push(MemAccess { kind, prop, idx });
    }
}

/// Executes GraphIR operators as simulated GPU kernels.
#[derive(Debug)]
pub struct GpuExecutor {
    /// The simulated device.
    pub sim: GpuSim,
    fused_depth: u32,
}

impl GpuExecutor {
    /// Creates an executor over a fresh simulator.
    pub fn new(sim: GpuSim) -> Self {
        GpuExecutor {
            sim,
            fused_depth: 0,
        }
    }

    fn fused(&self) -> bool {
        self.fused_depth > 0
    }
}

/// The GPU schedule knobs of one edge operator.
struct GpuPlan {
    load_balance: LoadBalance,
    frontier_creation: FrontierCreation,
    edge_blocking: Option<u32>,
}

/// Resolves the operator and its GPU plan. Unfused frontier creation
/// marks a map and compacts it, so its output is deduplicated whatever
/// the schedule says.
fn plan<'g>(
    state: &ProgramState<'g>,
    stmt: &Stmt,
    data: &EdgeSetIteratorData,
) -> Result<(EdgeOp<'g>, GpuPlan), ExecError> {
    let mut op = EdgeOp::resolve(state, stmt, data)?;
    let sched = schedule_as::<GpuSchedule>(stmt).unwrap_or_default();
    op.dedup |= !matches!(sched.frontier_creation(), FrontierCreation::Fused);
    Ok((
        op,
        GpuPlan {
            load_balance: sched.load_balance(),
            frontier_creation: sched.frontier_creation(),
            edge_blocking: sched.edge_blocking(),
        },
    ))
}

impl GpuExecutor {
    /// Runs a traversal kernel from pre-computed warp assignments (push
    /// direction), returning enqueued vertices and priority updates.
    fn traversal_kernel(
        &mut self,
        state: &ProgramState<'_>,
        op: &EdgeOp<'_>,
        warps: &[WarpAssignment],
        plan: &GpuPlan,
        name: &str,
    ) -> BufferedOutput {
        let ev = state.relaxed_evaluator();
        let csr = op.fwd;
        let output = RefCell::new(BufferedOutput::default());
        let fused = self.fused();
        let weighted = csr.is_weighted() || op.takes_weight;
        let trace_iter = warps.iter().enumerate().map(|(wi, warp)| {
            let mut lanes = Vec::with_capacity(warp.len());
            for (li, lane_work) in warp.iter().enumerate() {
                let mut rec = LaneRecorder::default();
                let mut out = output.borrow_mut();
                for lw in lane_work {
                    // Read the frontier slot and this vertex's offsets.
                    rec.raw(AccessKind::Load, arrays::FRONTIER_IN, (wi * 32 + li) as u32);
                    rec.raw(AccessKind::Load, arrays::GRAPH_OFFSETS, lw.src);
                    rec.trace.computes += lw.overhead + 4;
                    if !ev.passes(op.src_filter, lw.src, &mut rec) {
                        continue;
                    }
                    let weights = csr.neighbor_weights(lw.src);
                    let base = csr.edge_offset(lw.src);
                    for k in lw.edges.clone() {
                        rec.raw(AccessKind::Load, arrays::GRAPH_TARGETS, k as u32);
                        let dst = csr.targets()[k];
                        if !ev.passes(op.dst_filter, dst, &mut rec) {
                            continue;
                        }
                        let w = weights.map_or(1, |ws| ws[k - base]) as i64;
                        if weighted {
                            rec.raw(AccessKind::Load, arrays::GRAPH_WEIGHTS, k as u32);
                        }
                        let before = out.enqueued.len();
                        ev.apply_edge(op, lw.src, dst, w, &mut *out, &mut rec);
                        charge_enqueues(&mut rec, plan, &out.enqueued[before..]);
                    }
                }
                lanes.push(rec.trace);
            }
            WarpTrace { lanes }
        });
        self.sim.run_kernel(name, trace_iter, fused);
        output.into_inner()
    }

    /// Pull-direction kernel: lanes own destinations, scan in-edges, and
    /// stop early once the destination filter fails.
    fn pull_kernel(
        &mut self,
        state: &ProgramState<'_>,
        op: &EdgeOp<'_>,
        plan: &GpuPlan,
        name: &str,
    ) -> BufferedOutput {
        let ev = state.relaxed_evaluator();
        let in_csr = op.bwd;
        let membership = op.pull_membership.as_ref();
        let n = state.graph.num_vertices();
        let all: Vec<u32> = (0..n as u32).collect();
        let warps = load_balance::assign(in_csr, &all, plan.load_balance);
        let output = RefCell::new(BufferedOutput::default());
        let fused = self.fused();
        // Vertices per map word: a bitmap packs eight to the boolmap's four.
        let bitmap = membership.is_some_and(|m| m.repr() == VertexSetRepr::Bitmap);
        let div = if bitmap { 8 } else { 4 };
        let trace_iter = warps.iter().map(|warp| {
            let mut lanes = Vec::with_capacity(warp.len());
            for lane_work in warp {
                let mut rec = LaneRecorder::default();
                let mut out = output.borrow_mut();
                'work: for lw in lane_work {
                    let dst = lw.src; // lanes own destinations in pull
                    rec.raw(AccessKind::Load, arrays::GRAPH_OFFSETS, dst);
                    rec.trace.computes += lw.overhead + 4;
                    if !ev.passes(op.dst_filter, dst, &mut rec) {
                        continue;
                    }
                    let weights = in_csr.neighbor_weights(dst);
                    let base = in_csr.edge_offset(dst);
                    for k in lw.edges.clone() {
                        rec.raw(AccessKind::Load, arrays::GRAPH_TARGETS, k as u32);
                        let src = in_csr.targets()[k];
                        if let Some(m) = membership {
                            rec.raw(AccessKind::Load, arrays::FRONTIER_MAP, src / div);
                            if !m.contains(src) {
                                continue;
                            }
                        }
                        if !ev.passes(op.src_filter, src, &mut rec) {
                            continue;
                        }
                        let w = weights.map_or(1, |ws| ws[k - base]) as i64;
                        let before = out.enqueued.len();
                        ev.apply_edge(op, src, dst, w, &mut *out, &mut rec);
                        charge_enqueues(&mut rec, plan, &out.enqueued[before..]);
                        if !ev.passes(op.dst_filter, dst, &mut rec) {
                            continue 'work;
                        }
                    }
                }
                lanes.push(rec.trace);
            }
            WarpTrace { lanes }
        });
        self.sim.run_kernel(name, trace_iter, fused);
        output.into_inner()
    }

    /// The boolmap→sparse compaction kernel used by unfused frontier
    /// creation.
    fn compaction_kernel(&mut self, n: usize, out_len: usize) {
        let fused = self.fused();
        let warps = (0..n).step_by(32).map(|base| WarpTrace {
            lanes: (base..(base + 32).min(n))
                .map(|v| LaneTrace {
                    computes: 6,
                    mem: vec![MemAccess {
                        kind: AccessKind::Load,
                        prop: arrays::FRONTIER_MAP,
                        idx: (v / 4) as u32,
                    }],
                })
                .collect(),
        });
        self.sim.run_kernel("frontier_compaction", warps, fused);
        // Writing the compacted output is coalesced.
        let write_warps = (0..out_len).step_by(32).map(|base| WarpTrace {
            lanes: (base..(base + 32).min(out_len))
                .map(|i| LaneTrace {
                    computes: 2,
                    mem: vec![MemAccess {
                        kind: AccessKind::Store,
                        prop: arrays::FRONTIER_OUT,
                        idx: i as u32,
                    }],
                })
                .collect(),
        });
        self.sim.run_kernel("frontier_write", write_warps, true);
    }

    /// EdgeBlocking traversal for topology-driven kernels: destinations
    /// processed in L2-resident blocks.
    fn edge_blocked_kernel(
        &mut self,
        state: &ProgramState<'_>,
        op: &EdgeOp<'_>,
        members: &[u32],
        plan: &GpuPlan,
        block: u32,
    ) -> BufferedOutput {
        let csr = op.fwd;
        let n = state.graph.num_vertices() as u32;
        let mut merged = BufferedOutput::default();
        let mut lo = 0u32;
        while lo < n {
            let hi = (lo + block).min(n);
            // Build per-source subranges within [lo, hi).
            let mut works = Vec::new();
            for &src in members {
                let base = csr.edge_offset(src);
                let neigh = csr.neighbors(src);
                let s = neigh.partition_point(|&d| d < lo);
                let e = neigh.partition_point(|&d| d < hi);
                if s < e {
                    works.push(crate::load_balance::LaneWork {
                        src,
                        edges: base + s..base + e,
                        overhead: 6,
                    });
                }
            }
            let warps: Vec<WarpAssignment> = works
                .chunks(32)
                .map(|c| c.iter().map(|w| vec![w.clone()]).collect())
                .collect();
            let part = self.traversal_kernel(state, op, &warps, plan, "edge_blocked");
            merged.enqueued.extend(part.enqueued);
            merged.priority_updates.extend(part.priority_updates);
            lo = hi;
        }
        merged
    }
}

/// Charges the cost of materializing `new` enqueued vertices.
fn charge_enqueues(rec: &mut LaneRecorder, plan: &GpuPlan, new: &[u32]) {
    for &v in new {
        match plan.frontier_creation {
            FrontierCreation::Fused => {
                rec.raw(AccessKind::Atomic, arrays::FRONTIER_CURSOR, 0);
                rec.raw(AccessKind::Store, arrays::FRONTIER_OUT, v);
            }
            FrontierCreation::UnfusedBoolmap => {
                rec.raw(AccessKind::Store, arrays::FRONTIER_MAP, v / 4);
            }
            FrontierCreation::UnfusedBitmap => {
                rec.raw(AccessKind::Atomic, arrays::FRONTIER_MAP, v / 32);
            }
        }
    }
}

impl OperatorExecutor for GpuExecutor {
    fn edge_iterator(
        &mut self,
        state: &mut ProgramState<'_>,
        stmt: &Stmt,
        data: &EdgeSetIteratorData,
    ) -> Result<Option<VertexSet>, ExecError> {
        let (op, plan) = plan(state, stmt, data)?;
        let out = match op.direction {
            Direction::Push => {
                let members = state.input_set(&data.input)?.iter();
                match plan.edge_blocking {
                    Some(block) if data.input.is_none() => {
                        self.edge_blocked_kernel(state, &op, &members, &plan, block)
                    }
                    _ => {
                        let warps = load_balance::assign(op.fwd, &members, plan.load_balance);
                        self.traversal_kernel(state, &op, &warps, &plan, "push")
                    }
                }
            }
            Direction::Pull => self.pull_kernel(state, &op, &plan, "pull"),
        };
        let set = state.finish_edge_op(&op, [out]);
        if !matches!(plan.frontier_creation, FrontierCreation::Fused) {
            if let Some(set) = &set {
                self.compaction_kernel(state.graph.num_vertices(), set.len());
            }
        }
        Ok(set)
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
        let output = RefCell::new(BufferedOutput::default());
        let fused = self.fused();
        let warps = members.chunks(32).enumerate().map(|(wi, chunk)| WarpTrace {
            lanes: chunk
                .iter()
                .enumerate()
                .map(|(li, &v)| {
                    let mut rec = LaneRecorder::default();
                    rec.raw(AccessKind::Load, arrays::FRONTIER_IN, (wi * 32 + li) as u32);
                    ev.apply_vertex(udf, v, &mut *output.borrow_mut(), &mut rec);
                    rec.trace
                })
                .collect(),
        });
        self.sim.run_kernel("vertex_apply", warps, fused);
        state.push_priorities(output.into_inner().priority_updates);
        Ok(())
    }

    fn try_loop(&mut self, state: &mut ProgramState<'_>, stmt: &Stmt) -> Result<bool, ExecError> {
        if self.fused_depth > 0 || !stmt.meta.flag(keys::NEEDS_FUSION) {
            return Ok(false);
        }
        let StmtKind::While { cond, body } = &stmt.kind else {
            return Ok(false);
        };
        let cond = cond.clone();
        let body = body.clone();
        // Asynchronous execution (monotone ordered loops only): the fused
        // megakernel runs with no grid synchronization between rounds.
        let sync = !stmt.meta.flag("async_execution");
        self.fused_depth = 1;
        self.sim.charge_launch();
        loop {
            if !state.eval_host(&cond)?.as_bool() {
                break;
            }
            let broke = run_block(state, self, &body)?;
            if sync {
                self.sim.grid_sync();
            }
            if broke {
                break;
            }
        }
        self.fused_depth = 0;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use ugc_runtime::interp::run_main;
    use ugc_runtime::value::Value;
    use ugc_sim_gpu::GpuConfig;

    const BFS: &str = r#"
element Vertex end
element Edge end
const edges : edgeset{Edge}(Vertex,Vertex) = load("g");
const parent : vector{Vertex}(int) = -1;
const start_vertex : Vertex;
func toFilter(v : Vertex) -> output : bool
    output = (parent[v] == -1);
end
func updateEdge(src : Vertex, dst : Vertex)
    parent[dst] = src;
end
func main()
    var frontier : vertexset{Vertex} = new vertexset{Vertex}(0);
    frontier.addVertex(start_vertex);
    parent[start_vertex] = start_vertex;
    #s0# while (frontier.getVertexSetSize() != 0)
        #s1# var output : vertexset{Vertex} = edges.from(frontier).to(toFilter).applyModified(updateEdge, parent, true);
        delete frontier;
        frontier = output;
    end
end
"#;

    fn run_with(sched: crate::schedule::GpuSchedule) -> (Vec<i64>, u64) {
        let mut prog = ugc_midend::frontend_to_ir(BFS).unwrap();
        ugc_schedule::apply_schedule(&mut prog, "s0:s1", ugc_schedule::ScheduleRef::simple(sched))
            .unwrap();
        ugc_midend::run_passes(&mut prog).unwrap();
        crate::passes::run(&mut prog);
        let graph = ugc_graph::generators::two_communities();
        let mut externs = HashMap::new();
        externs.insert("start_vertex".to_string(), Value::Int(0));
        let mut state = ugc_runtime::interp::ProgramState::new(prog, &graph, &externs).unwrap();
        let mut exec = GpuExecutor::new(GpuSim::new(GpuConfig::default()));
        run_main(&mut state, &mut exec).unwrap();
        let id = state.props.id_of("parent").unwrap();
        (
            state
                .props
                .snapshot(id)
                .iter()
                .map(|v| v.as_int())
                .collect(),
            exec.sim.time_cycles(),
        )
    }

    #[test]
    fn pull_with_bitmap_membership() {
        use ugc_schedule::{PullFrontierRepr, SchedDirection};
        let (parents, _) = run_with(
            crate::schedule::GpuSchedule::new()
                .with_direction(SchedDirection::Pull)
                .with_pull_frontier(PullFrontierRepr::Bitmap),
        );
        assert!(parents.iter().all(|&p| p != -1));
    }

    #[test]
    fn unfused_bitmap_frontier_creation() {
        let (parents, _) = run_with(
            crate::schedule::GpuSchedule::new()
                .with_frontier_creation(crate::schedule::FrontierCreation::UnfusedBitmap),
        );
        assert!(parents.iter().all(|&p| p != -1));
    }

    #[test]
    fn async_without_ordered_loop_still_correct() {
        // async_execution on a data-driven loop degenerates to plain
        // fusion minus syncs; BFS's claim-once writes are monotone so the
        // result is still exact in this functional model.
        let (parents, cycles) =
            run_with(crate::schedule::GpuSchedule::new().with_async_execution(true));
        assert!(parents.iter().all(|&p| p != -1));
        assert!(cycles > 0);
    }
}
