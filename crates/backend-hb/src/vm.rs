//! The HammerBlade GraphVM entry point.

use std::collections::HashMap;

use ugc_graph::Graph;
use ugc_graphir::ir::Program;
use ugc_runtime::interp::{contain, run_main, ExecError, ProgramState};
use ugc_runtime::value::Value;
use ugc_sim_hb::{HbAttribution, HbConfig, HbSim, HbStats};

use crate::executor::HbExecutor;

/// The HammerBlade GraphVM: runs GraphIR on the manycore simulator.
#[derive(Debug, Clone, Default)]
pub struct HbGraphVm {
    /// Simulated machine configuration.
    pub config: HbConfig,
}

/// Result of one simulated execution.
pub struct HbExecution<'g> {
    /// Final program state.
    pub state: ProgramState<'g>,
    /// Simulated cycles.
    pub cycles: u64,
    /// Simulated milliseconds.
    pub time_ms: f64,
    /// Memory-system statistics (Table IX's inputs).
    pub stats: HbStats,
    /// Where the simulated cycles went.
    pub attr: HbAttribution,
    /// Achieved DRAM bandwidth as a fraction of peak.
    pub bandwidth_utilization: f64,
}

impl std::fmt::Debug for HbExecution<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HbExecution")
            .field("cycles", &self.cycles)
            .field("stats", &self.stats)
            .finish()
    }
}

impl HbExecution<'_> {
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

impl HbGraphVm {
    /// A VM over the given machine configuration.
    pub fn new(config: HbConfig) -> Self {
        HbGraphVm { config }
    }

    /// A VM with the given grid rows (16 columns, as in Fig. 10a).
    pub fn with_rows(rows: usize) -> Self {
        HbGraphVm {
            config: HbConfig::default().with_rows(rows),
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
    ) -> Result<HbExecution<'g>, ExecError> {
        contain(std::panic::AssertUnwindSafe(|| {
            let mut state = ProgramState::new(prog, graph, externs)?;
            let mut exec = HbExecutor::new(HbSim::new(self.config.clone()));
            run_main(&mut state, &mut exec)?;
            Ok(HbExecution {
                cycles: exec.sim.time_cycles(),
                time_ms: exec.sim.time_ms(),
                stats: exec.sim.stats,
                attr: exec.sim.attr,
                bandwidth_utilization: exec.sim.bandwidth_utilization(),
                state,
            })
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{HbLoadBalance, HbSchedule};
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
