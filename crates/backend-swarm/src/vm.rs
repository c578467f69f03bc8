//! The Swarm GraphVM entry point.

use std::collections::HashMap;

use ugc_graph::Graph;
use ugc_graphir::ir::Program;
use ugc_runtime::interp::{contain, run_main, ExecError, ProgramState};
use ugc_runtime::value::Value;
use ugc_sim_swarm::{SwarmAttribution, SwarmConfig, SwarmSim, SwarmStats};

use crate::executor::SwarmExecutor;

/// The Swarm GraphVM: runs GraphIR on the speculative-task simulator.
#[derive(Debug, Clone, Default)]
pub struct SwarmGraphVm {
    /// Simulated machine configuration.
    pub config: SwarmConfig,
}

/// Result of one simulated execution.
pub struct SwarmExecution<'g> {
    /// Final program state.
    pub state: ProgramState<'g>,
    /// Simulated cycles.
    pub cycles: u64,
    /// Simulated milliseconds.
    pub time_ms: f64,
    /// Task/abort/idle statistics (Fig. 11's categories).
    pub stats: SwarmStats,
    /// Where the simulated cycles went.
    pub attr: SwarmAttribution,
}

impl std::fmt::Debug for SwarmExecution<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwarmExecution")
            .field("cycles", &self.cycles)
            .field("stats", &self.stats)
            .finish()
    }
}

impl SwarmExecution<'_> {
    /// Snapshot of an integer property.
    ///
    /// # Panics
    ///
    /// Panics if the property does not exist.
    pub fn property_ints(&self, name: &str) -> Vec<i64> {
        self.state.property_ints(name)
    }

    /// Snapshot of a float property.
    ///
    /// # Panics
    ///
    /// Panics if the property does not exist.
    pub fn property_floats(&self, name: &str) -> Vec<f64> {
        self.state.property_floats(name)
    }
}

impl SwarmGraphVm {
    /// A VM over the given machine configuration.
    pub fn new(config: SwarmConfig) -> Self {
        SwarmGraphVm { config }
    }

    /// A VM with `n` cores (queues scale with the core count).
    pub fn with_cores(n: usize) -> Self {
        SwarmGraphVm {
            config: SwarmConfig::default().with_cores(n),
        }
    }

    /// Executes a midend-processed program on `graph`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] for unbound externs or execution failures.
    pub fn execute<'g>(
        &self,
        prog: Program,
        graph: &'g Graph,
        externs: &HashMap<String, Value>,
    ) -> Result<SwarmExecution<'g>, ExecError> {
        contain(std::panic::AssertUnwindSafe(|| {
            let mut state = ProgramState::new(prog, graph, externs)?;
            let mut exec = SwarmExecutor::new(SwarmSim::new(self.config.clone()));
            run_main(&mut state, &mut exec)?;
            Ok(SwarmExecution {
                cycles: exec.sim.time_cycles(),
                time_ms: exec.sim.time_ms(),
                stats: exec.sim.stats,
                attr: exec.sim.attr,
                state,
            })
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{Frontiers, SwarmSchedule, TaskGranularity};
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

    fn run_bfs(sched: Option<SwarmSchedule>) -> (Vec<i64>, u64, SwarmStats) {
        let mut prog = ugc_midend::frontend_to_ir(BFS).unwrap();
        if let Some(s) = sched {
            apply_schedule(&mut prog, "s0:s1", ScheduleRef::simple(s)).unwrap();
        }
        ugc_midend::run_passes(&mut prog).unwrap();
        let graph = ugc_graph::generators::road_grid(12, 12, 0.05, 5, true);
        let mut externs = HashMap::new();
        externs.insert("start_vertex".to_string(), Value::Int(0));
        let vm = SwarmGraphVm::default();
        let run = vm.execute(prog, &graph, &externs).unwrap();
        (run.property_ints("parent"), run.cycles, run.stats)
    }

    #[test]
    fn bfs_buffered_baseline_correct() {
        let (parents, cycles, stats) = run_bfs(None);
        assert!(parents.iter().all(|&p| p != -1));
        assert!(cycles > 0);
        assert!(stats.commits > 0);
    }

    #[test]
    fn vertexset_to_tasks_correct_and_faster_on_road_graph() {
        let (p_base, c_base, _) = run_bfs(Some(SwarmSchedule::new()));
        let (p_opt, c_opt, stats) = run_bfs(Some(
            SwarmSchedule::new().with_frontiers(Frontiers::VertexsetToTasks),
        ));
        assert_eq!(
            p_base.iter().filter(|&&p| p != -1).count(),
            p_opt.iter().filter(|&&p| p != -1).count()
        );
        assert!(stats.commits > 0);
        assert!(
            c_opt < c_base,
            "tasks {c_opt} should beat buffered {c_base} on a road graph"
        );
    }

    #[test]
    fn fine_grained_with_hints_correct() {
        let (parents, _, _) = run_bfs(Some(
            SwarmSchedule::new()
                .with_frontiers(Frontiers::VertexsetToTasks)
                .with_task_granularity(TaskGranularity::FineGrained),
        ));
        assert!(parents.iter().all(|&p| p != -1));
    }
}
