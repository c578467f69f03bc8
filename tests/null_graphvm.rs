//! A GraphVM added through the `GraphVm` trait alone: a sequential push
//! walker with no cost model and no emitter. It runs the DSL's BFS through
//! the shared `GraphVm::execute` and must match the first-discovered
//! reference tree. Everything below the imports is what a new target
//! needs to execute programs.

use std::time::Duration;

use ugc_algorithms::{reference, Algorithm};
use ugc_graphir::ir::{EdgeSetIteratorData, Program, Stmt};
use ugc_integration::{compile, externs_for, test_graphs};
use ugc_runtime::eval::{BufferedOutput, NullMemory, NullOutput};
use ugc_runtime::interp::{ExecError, OperatorExecutor, ProgramState};
use ugc_runtime::{EdgeOp, Execution, GraphVm, VertexSet};

/// Runs every operator one edge or vertex at a time, walking each frontier
/// in the order its vertices were discovered.
struct SerialExec;

impl OperatorExecutor for SerialExec {
    fn edge_iterator(
        &mut self,
        state: &mut ProgramState<'_>,
        stmt: &Stmt,
        data: &EdgeSetIteratorData,
    ) -> Result<Option<VertexSet>, ExecError> {
        let op = EdgeOp::resolve(state, stmt, data)?;
        let ev = state.evaluator();
        let mut out = BufferedOutput::default();
        for src in state.input_set(&data.input)?.members_in_order() {
            if !ev.passes(op.src_filter, src, &mut NullMemory) {
                continue;
            }
            let weights = op.fwd.neighbor_weights(src);
            for (k, &dst) in op.fwd.neighbors(src).iter().enumerate() {
                if ev.passes(op.dst_filter, dst, &mut NullMemory) {
                    let w = weights.map_or(1, |ws| ws[k]) as i64;
                    ev.apply_edge(&op, src, dst, w, &mut out, &mut NullMemory);
                }
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

/// The null GraphVM: no passes, no clock but the host's, no counters.
#[derive(Default)]
struct NullVm;

impl GraphVm for NullVm {
    type Executor = SerialExec;
    type Stats = ();

    fn executor(&self) -> SerialExec {
        SerialExec
    }

    fn finish<'g>(
        &self,
        _exec: SerialExec,
        wall: Duration,
        state: ProgramState<'g>,
    ) -> Execution<'g, ()> {
        Execution {
            state,
            time_ms: wall.as_secs_f64() * 1e3,
            cycles: 0,
            attribution: Vec::new(),
            stats: (),
        }
    }

    fn emit(&self, _prog: &Program) -> String {
        String::new()
    }
}

#[test]
fn null_vm_runs_bfs_through_the_shared_execute() {
    for (gname, graph) in test_graphs() {
        let run = NullVm
            .execute(
                compile(Algorithm::Bfs, None),
                &graph,
                &externs_for(Algorithm::Bfs, 0),
            )
            .unwrap_or_else(|e| panic!("{gname}: {e}"));
        assert_eq!(
            run.property_ints("parent"),
            reference::bfs_parents(&graph, 0),
            "{gname}"
        );
    }
}
