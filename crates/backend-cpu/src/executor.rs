//! The CPU operator executor: real multithreaded traversal.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use ugc_graph::Csr;
use ugc_graphir::ir::{EdgeSetIteratorData, Stmt};
use ugc_graphir::types::Direction;
use ugc_runtime::eval::{BufferedOutput, NullMemory};
use ugc_runtime::interp::{filter_sweep, ExecError, OperatorExecutor, ProgramState};
use ugc_runtime::pool::{
    default_threads, parallel_for_chunks_with_local, parallel_for_with_local,
    SERIAL_DISPATCH_THRESHOLD,
};
use ugc_runtime::udf::{body_of, CompiledUdf, Frame};
use ugc_runtime::vertexset::VertexSet;
use ugc_runtime::{EdgeOp, UdfId};
use ugc_schedule::{schedule_as, SchedulePoint};

use ugc_telemetry::{Counter, Span};

use crate::kernels::{self, EdgeKernel, Io, KernelCache, KernelKey, Tier, Walk};
use crate::schedule::CpuSchedule;

/// Telemetry handles for the CPU executor, registered once per process.
struct CpuCounters {
    edge_push: Span,
    edge_pull: Span,
    vertex_apply: Span,
    other_ns: Counter,
    elapsed_ns: Counter,
    runs: Counter,
    direction_switches: Counter,
    kernel_compiled: Counter,
    kernel_fallback: Counter,
}

fn counters() -> &'static CpuCounters {
    static COUNTERS: OnceLock<CpuCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| CpuCounters {
        edge_push: Span::new("cpu.edge_push"),
        edge_pull: Span::new("cpu.edge_pull"),
        vertex_apply: Span::new("cpu.vertex_apply"),
        other_ns: Counter::new("cpu.other.ns"),
        elapsed_ns: Counter::new("cpu.elapsed.ns"),
        runs: Counter::new("cpu.runs"),
        direction_switches: Counter::new("cpu.direction_switches"),
        kernel_compiled: Counter::new("cpu.kernel.compiled"),
        kernel_fallback: Counter::new("cpu.kernel.fallback"),
    })
}

/// Per-run wall-time attribution in nanoseconds. Components sum exactly to
/// [`CpuAttribution::total`], which is the elapsed time of `main`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuAttribution {
    /// Time inside push-direction edge traversals.
    pub edge_push: u64,
    /// Time inside pull-direction edge traversals.
    pub edge_pull: u64,
    /// Time inside vertex-apply operators.
    pub vertex_apply: u64,
    /// Interpreter overhead: everything outside the traversal operators.
    pub other: u64,
}

impl CpuAttribution {
    /// Sum of all components.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.edge_push + self.edge_pull + self.vertex_apply + self.other
    }

    /// Named components, in display order.
    #[must_use]
    pub fn components(&self) -> [(&'static str, u64); 4] {
        [
            ("edge_push", self.edge_push),
            ("edge_pull", self.edge_pull),
            ("vertex_apply", self.vertex_apply),
            ("other", self.other),
        ]
    }
}

/// The operators of one run by the tier that ran them: the per-run view of
/// the `cpu.kernel.{compiled,fallback}` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelDispatch {
    /// Edge operators compiled whole, and vertex operators run by compiled
    /// UDF bodies.
    pub compiled: u64,
    /// Edge and vertex operators run by the interpreter.
    pub fallback: u64,
}

/// Phase nanoseconds accumulated by one executor over one run.
#[derive(Debug, Clone, Copy, Default)]
struct PhaseNs {
    push: u64,
    pull: u64,
    apply: u64,
}

/// Executes GraphIR iteration operators on host threads.
pub struct CpuExecutor {
    /// Worker thread count (defaults to available parallelism).
    pub num_threads: usize,
    /// Whether operators may run compiled (default: on, unless
    /// `UGC_CPU_KERNELS=0`). Off forces the interpreter everywhere — the
    /// differential oracle.
    pub use_kernels: bool,
    /// Per-run kernel table. [`UdfId`]s are only meaningful within one
    /// compiled program, so `Clone` (the per-`execute` entry point) resets
    /// this to empty rather than sharing it.
    kernels: std::sync::Arc<KernelCache>,
    phase_ns: PhaseNs,
    dispatch: KernelDispatch,
    /// The run's last edge-traversal direction, so `cpu.direction_switches`
    /// counts flips within one run only; `Clone` starts a run without one.
    last_direction: Option<Direction>,
}

impl Clone for CpuExecutor {
    fn clone(&self) -> Self {
        CpuExecutor {
            num_threads: self.num_threads,
            use_kernels: self.use_kernels,
            kernels: std::sync::Arc::new(KernelCache::default()),
            phase_ns: self.phase_ns,
            dispatch: KernelDispatch::default(),
            last_direction: None,
        }
    }
}

impl std::fmt::Debug for CpuExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CpuExecutor")
            .field("num_threads", &self.num_threads)
            .field("use_kernels", &self.use_kernels)
            .finish()
    }
}

impl Default for CpuExecutor {
    fn default() -> Self {
        CpuExecutor::with_threads(default_threads())
    }
}

/// The CPU schedule knobs of one edge operator.
struct OpPlan {
    serial_threshold: usize,
    edge_aware: bool,
    cache_blocking: bool,
}

impl CpuExecutor {
    /// An executor with `num_threads` workers.
    #[must_use]
    pub fn with_threads(num_threads: usize) -> Self {
        CpuExecutor {
            num_threads,
            use_kernels: kernels::kernels_enabled_by_env(),
            kernels: std::sync::Arc::new(KernelCache::default()),
            phase_ns: PhaseNs::default(),
            dispatch: KernelDispatch::default(),
            last_direction: None,
        }
    }

    /// The run's compiled UDF bodies; none with kernels off.
    fn compiled<'s>(&self, state: &'s ProgramState<'_>) -> &'s [Option<Arc<CompiledUdf>>] {
        if self.use_kernels {
            state.compiled()
        } else {
            &[]
        }
    }

    /// Counts one operator under the tier that runs it, for this run and
    /// in the registry.
    fn count(&mut self, tier: Tier) {
        let c = counters();
        match tier {
            Tier::Compiled => {
                self.dispatch.compiled += 1;
                c.kernel_compiled.incr();
            }
            Tier::Interpreted => {
                self.dispatch.fallback += 1;
                c.kernel_fallback.incr();
            }
        }
    }

    /// Counts a push/pull flip against this run's previous edge operator.
    fn note_direction(&mut self, direction: Direction) {
        if self
            .last_direction
            .replace(direction)
            .is_some_and(|d| d != direction)
        {
            counters().direction_switches.incr();
        }
    }

    /// Resolves the traversal for one edge operator, counting its tier.
    fn resolve_kernel(
        &mut self,
        state: &ProgramState<'_>,
        stmt: &Stmt,
        op: &EdgeOp<'_>,
    ) -> Arc<EdgeKernel> {
        let key = KernelKey {
            point: SchedulePoint::of_stmt(stmt),
            udf: op.udf,
            src_filter: op.src_filter,
            dst_filter: op.dst_filter,
            weighted: op.takes_weight,
        };
        let kernel = self.kernels.resolve(key, || {
            kernels::select(
                &state.udfs,
                &state.props,
                &state.globals,
                op.udf,
                op.src_filter,
                op.dst_filter,
                self.use_kernels,
            )
        });
        self.count(kernel.tier());
        kernel
    }

    /// The compiled body of a vertex operator's one-parameter UDF, or
    /// `None` for the interpreter, counting its tier.
    fn vertex_body(&mut self, state: &ProgramState<'_>, udf: UdfId) -> Option<Arc<CompiledUdf>> {
        let body = body_of(self.compiled(state), &state.udfs, udf, 1);
        self.count(if body.is_some() {
            Tier::Compiled
        } else {
            Tier::Interpreted
        });
        body
    }

    /// The run's operators by tier, resetting the per-run count.
    pub fn take_dispatch(&mut self) -> KernelDispatch {
        std::mem::take(&mut self.dispatch)
    }

    /// Closes out one run: attributes `elapsed_ns` of wall time across the
    /// phases timed during the run, charges the remainder to `other`,
    /// mirrors the totals into the global registry, and resets the per-run
    /// accumulators. Returns all zeros when telemetry is disabled.
    pub fn finish_run(&mut self, elapsed_ns: u64) -> CpuAttribution {
        let phases = std::mem::take(&mut self.phase_ns);
        if !ugc_telemetry::enabled() {
            return CpuAttribution::default();
        }
        let tracked = phases.push + phases.pull + phases.apply;
        let attr = CpuAttribution {
            edge_push: phases.push,
            edge_pull: phases.pull,
            vertex_apply: phases.apply,
            other: elapsed_ns.max(tracked) - tracked,
        };
        let c = counters();
        c.other_ns.add(attr.other);
        c.elapsed_ns.add(attr.total());
        c.runs.incr();
        attr
    }

    fn plan(stmt: &Stmt) -> OpPlan {
        let sched = schedule_as::<CpuSchedule>(stmt);
        OpPlan {
            serial_threshold: sched
                .as_ref()
                .map_or(SERIAL_DISPATCH_THRESHOLD, |s| s.serial_threshold()),
            edge_aware: stmt
                .meta
                .get_str("parallelization")
                .is_some_and(|p| p != "VERTEX_BASED"),
            cache_blocking: sched.is_some_and(|s| s.cache_blocking()),
        }
    }

    /// Splits `members` into chunks of roughly `grain` out-edges each.
    fn degree_chunks(csr: &Csr, members: &[u32], grain: usize) -> Vec<std::ops::Range<usize>> {
        let mut chunks = Vec::new();
        let mut start = 0usize;
        let mut acc = 0usize;
        for (i, &v) in members.iter().enumerate() {
            acc += csr.degree(v);
            if acc >= grain {
                chunks.push(start..i + 1);
                start = i + 1;
                acc = 0;
            }
        }
        if start < members.len() {
            chunks.push(start..members.len());
        }
        chunks
    }
}

impl OperatorExecutor for CpuExecutor {
    fn edge_iterator(
        &mut self,
        state: &mut ProgramState<'_>,
        stmt: &Stmt,
        data: &EdgeSetIteratorData,
    ) -> Result<Option<VertexSet>, ExecError> {
        let t0 = ugc_telemetry::enabled().then(Instant::now);
        let op = EdgeOp::resolve(state, stmt, data)?;
        let plan = Self::plan(stmt);
        let direction = op.direction;
        self.note_direction(direction);

        let kernel = self.resolve_kernel(state, stmt, &op);
        let ev = state.evaluator();
        let locals: Vec<BufferedOutput> = match direction {
            Direction::Push => {
                let members = state.input_set(&data.input)?.iter();
                let io = Io {
                    ev: &ev,
                    csr: op.fwd,
                };
                // The tier is chosen once per operator, never per edge.
                let run = |range: std::ops::Range<usize>, out: &mut BufferedOutput| {
                    let members = &members[..];
                    kernel.run(&io, Walk::Push { members, range }, out)
                };
                if plan.cache_blocking && data.input.is_none() {
                    // EdgeBlocking: iterate destination blocks for locality.
                    cache_blocked_push(kernel.as_ref(), &io, &members, self.num_threads)
                } else if members.len() < plan.serial_threshold {
                    let mut out = BufferedOutput::default();
                    run(0..members.len(), &mut out);
                    vec![out]
                } else if plan.edge_aware {
                    // Degree-balanced chunks, claimed in order by the
                    // persistent worker pool's participants.
                    let chunks = Self::degree_chunks(op.fwd, &members, 2048);
                    parallel_for_chunks_with_local(
                        self.num_threads,
                        chunks,
                        |_tid, crange, local: &mut BufferedOutput| run(crange, local),
                    )
                } else {
                    parallel_for_with_local(
                        self.num_threads,
                        members.len(),
                        64,
                        |_tid, range, local: &mut BufferedOutput| run(range, local),
                    )
                }
            }
            Direction::Pull => {
                let n = state.graph.num_vertices();
                let io = Io {
                    ev: &ev,
                    csr: op.bwd,
                };
                let run = |range: std::ops::Range<usize>, out: &mut BufferedOutput| {
                    let membership = op.pull_membership.as_ref();
                    kernel.run(&io, Walk::Pull { membership, range }, out)
                };
                if n < plan.serial_threshold {
                    let mut out = BufferedOutput::default();
                    run(0..n, &mut out);
                    vec![out]
                } else {
                    parallel_for_with_local(
                        self.num_threads,
                        n,
                        128,
                        |_tid, range, local: &mut BufferedOutput| run(range, local),
                    )
                }
            }
        };
        let out = state.finish_edge_op(&op, locals);
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            let c = counters();
            match direction {
                Direction::Push => {
                    self.phase_ns.push += ns;
                    c.edge_push.record_ns(ns);
                }
                Direction::Pull => {
                    self.phase_ns.pull += ns;
                    c.edge_pull.record_ns(ns);
                }
            }
        }
        Ok(out)
    }

    fn vertex_iterator(
        &mut self,
        state: &mut ProgramState<'_>,
        _stmt: &Stmt,
        set: Option<&str>,
        apply: &str,
    ) -> Result<(), ExecError> {
        let t0 = ugc_telemetry::enabled().then(Instant::now);
        let udf = state.udf_id(apply)?;
        let members = state.members(set)?;
        let body = self.vertex_body(state, udf);
        let ev = state.evaluator();
        let run = |vs: &[u32], out: &mut BufferedOutput| match &body {
            Some(c) => {
                let mut frame = Frame::new(&ev, out);
                vs.iter().for_each(|&v| {
                    c.run(&mut frame, &[v as i64], 1);
                });
            }
            None => vs.iter().for_each(|&v| {
                ev.apply_vertex(udf, v, out, &mut NullMemory);
            }),
        };
        let locals: Vec<BufferedOutput> = if members.len() < SERIAL_DISPATCH_THRESHOLD {
            let mut out = BufferedOutput::default();
            run(&members, &mut out);
            vec![out]
        } else {
            parallel_for_with_local(
                self.num_threads,
                members.len(),
                256,
                |_tid, range, local: &mut BufferedOutput| run(&members[range], local),
            )
        };
        for l in locals {
            state.push_priorities(l.priority_updates);
        }
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            self.phase_ns.apply += ns;
            counters().vertex_apply.record_ns(ns);
        }
        Ok(())
    }

    fn vertex_filter(
        &mut self,
        state: &mut ProgramState<'_>,
        _stmt: &Stmt,
        input: Option<&str>,
        filter: &str,
    ) -> Result<VertexSet, ExecError> {
        let t0 = ugc_telemetry::enabled().then(Instant::now);
        let (udf, candidates) = state.filter_candidates(input, filter)?;
        let body = self.vertex_body(state, udf);
        let out = filter_sweep(state, udf, &candidates, body.as_deref(), self.num_threads);
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            self.phase_ns.apply += ns;
            counters().vertex_apply.record_ns(ns);
        }
        Ok(out)
    }
}

/// EdgeBlocking (cache-blocked) all-edges push traversal: destinations are
/// processed in blocks sized to the last-level cache so random writes stay
/// resident (GraphIt's EdgeBlocking / NUMA optimization for PageRank).
fn cache_blocked_push(
    kernel: &EdgeKernel,
    io: &Io<'_>,
    members: &[u32],
    num_threads: usize,
) -> Vec<BufferedOutput> {
    const BLOCK: u32 = 1 << 14;
    let n = io.csr.num_vertices() as u32;
    let mut all = Vec::new();
    let mut lo = 0u32;
    while lo < n {
        let hi = (lo + BLOCK).min(n);
        let locals = parallel_for_with_local(
            num_threads,
            members.len(),
            64,
            |_tid, range, local: &mut BufferedOutput| {
                kernel.run(
                    io,
                    Walk::Block {
                        members,
                        range,
                        lo,
                        hi,
                    },
                    local,
                );
            },
        );
        all.extend(locals);
        lo = hi;
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use ugc_runtime::interp::run_main;
    use ugc_runtime::value::Value;

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

    fn run_bfs(sched: Option<CpuSchedule>) -> Vec<i64> {
        let mut prog = ugc_midend::frontend_to_ir(BFS).unwrap();
        if let Some(s) = sched {
            ugc_schedule::apply_schedule(&mut prog, "s1", ugc_schedule::ScheduleRef::simple(s))
                .unwrap();
        }
        ugc_midend::run_passes(&mut prog).unwrap();
        let graph = ugc_graph::generators::two_communities();
        let mut externs = HashMap::new();
        externs.insert("start_vertex".to_string(), Value::Int(0));
        let mut state = ProgramState::new(prog, &graph, &externs).unwrap();
        run_main(&mut state, &mut CpuExecutor::default()).unwrap();
        let parent = state.props.id_of("parent").unwrap();
        state
            .props
            .snapshot(parent)
            .into_iter()
            .map(|v| v.as_int())
            .collect()
    }

    fn assert_valid_bfs_tree(parents: &[i64]) {
        let g = ugc_graph::generators::two_communities();
        // Every vertex reachable from 0; parent edges must exist.
        for (v, &p) in parents.iter().enumerate() {
            assert_ne!(p, -1, "vertex {v} unreached");
            if v != 0 {
                assert!(
                    g.out_neighbors(p as u32).contains(&(v as u32)),
                    "parent edge {p}->{v} missing"
                );
            }
        }
    }

    #[test]
    fn bfs_push_default() {
        assert_valid_bfs_tree(&run_bfs(None));
    }

    #[test]
    fn bfs_pull() {
        assert_valid_bfs_tree(&run_bfs(Some(
            CpuSchedule::new().with_direction(ugc_schedule::SchedDirection::Pull),
        )));
    }

    #[test]
    fn bfs_hybrid() {
        assert_valid_bfs_tree(&run_bfs(Some(
            CpuSchedule::new().with_direction(ugc_schedule::SchedDirection::Hybrid),
        )));
    }

    #[test]
    fn bfs_edge_aware_parallel() {
        assert_valid_bfs_tree(&run_bfs(Some(
            CpuSchedule::new()
                .with_parallelization(ugc_schedule::Parallelization::EdgeAwareVertexBased)
                .with_serial_threshold(0),
        )));
    }

    #[test]
    fn degree_chunks_cover_members() {
        let g = ugc_graph::generators::star(64);
        let members: Vec<u32> = (0..64).collect();
        let chunks = CpuExecutor::degree_chunks(g.out_csr(), &members, 16);
        let covered: usize = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(covered, 64);
        assert!(chunks.len() > 1);
    }
}
