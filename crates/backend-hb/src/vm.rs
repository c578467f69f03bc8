//! The HammerBlade GraphVM entry point.

use std::time::Duration;

use ugc_graphir::ir::Program;
use ugc_runtime::interp::ProgramState;
use ugc_runtime::vm::{Execution, GraphVm};
use ugc_sim_hb::{HbConfig, HbSim, HbStats};

use crate::executor::HbExecutor;

/// The HammerBlade GraphVM: runs GraphIR on the manycore simulator.
#[derive(Debug, Clone, Default)]
pub struct HbGraphVm {
    /// Simulated machine configuration.
    pub config: HbConfig,
}

impl HbGraphVm {
    /// A VM with the given grid rows (16 columns, as in Fig. 10a).
    pub fn with_rows(rows: usize) -> Self {
        HbGraphVm {
            config: HbConfig::default().with_rows(rows),
        }
    }
}

impl GraphVm for HbGraphVm {
    type Executor = HbExecutor;
    type Stats = HbStats;

    fn executor(&self) -> HbExecutor {
        HbExecutor::new(HbSim::new(self.config.clone()))
    }

    fn finish<'g>(
        &self,
        exec: HbExecutor,
        _wall: Duration,
        state: ProgramState<'g>,
    ) -> Execution<'g, HbStats> {
        let sim = exec.sim;
        Execution {
            state,
            time_ms: sim.time_ms(),
            cycles: sim.time_cycles(),
            attribution: sim.attr.components().to_vec(),
            stats: sim.stats,
        }
    }

    fn emit(&self, prog: &Program) -> String {
        crate::emitter::emit_hb(prog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{HbLoadBalance, HbSchedule};
    use std::collections::HashMap;
    use ugc_runtime::value::Value;
    use ugc_schedule::{apply_schedule, ScheduleRef};

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

    fn run_bfs(sched: Option<HbSchedule>, rows: usize) -> (Vec<i64>, u64) {
        let mut prog = ugc_midend::frontend_to_ir(BFS).unwrap();
        if let Some(s) = sched {
            apply_schedule(&mut prog, "s0:s1", ScheduleRef::simple(s)).unwrap();
        }
        ugc_midend::run_passes(&mut prog).unwrap();
        let graph = ugc_graph::generators::rmat(9, 6, 3, true);
        let mut externs = HashMap::new();
        externs.insert("start_vertex".to_string(), Value::Int(0));
        let vm = HbGraphVm::with_rows(rows);
        let run = vm.execute(prog, &graph, &externs).unwrap();
        (run.property_ints("parent"), run.cycles)
    }

    #[test]
    fn bfs_default_correct() {
        let (parents, cycles) = run_bfs(None, 8);
        let reached = parents.iter().filter(|&&p| p != -1).count();
        assert!(reached > 300, "{reached}");
        assert!(cycles > 0);
    }

    #[test]
    fn aligned_partitioning_correct() {
        let (parents, _) = run_bfs(
            Some(HbSchedule::new().with_load_balance(HbLoadBalance::Aligned)),
            8,
        );
        assert!(parents.iter().filter(|&&p| p != -1).count() > 300);
    }

    #[test]
    fn more_rows_is_faster() {
        let (_, c2) = run_bfs(None, 2);
        let (_, c16) = run_bfs(None, 16);
        assert!(c16 < c2, "256 cores {c16} should beat 32 cores {c2}");
    }
}
