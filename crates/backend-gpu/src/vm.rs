//! The GPU GraphVM entry point.

use std::collections::HashMap;

use ugc_graph::Graph;
use ugc_graphir::ir::Program;
use ugc_runtime::interp::{contain, run_main, ExecError, ProgramState};
use ugc_runtime::value::Value;
use ugc_sim_gpu::{GpuAttribution, GpuConfig, GpuSim, GpuStats};

use crate::executor::GpuExecutor;

/// The GPU GraphVM: runs GraphIR on the SIMT timing simulator.
#[derive(Debug, Clone, Default)]
pub struct GpuGraphVm {
    /// Simulated device configuration.
    pub config: GpuConfig,
}

/// Result of one simulated execution.
pub struct GpuExecution<'g> {
    /// Final program state (properties, globals, prints).
    pub state: ProgramState<'g>,
    /// Simulated device cycles.
    pub cycles: u64,
    /// Simulated time in milliseconds.
    pub time_ms: f64,
    /// Device statistics.
    pub stats: GpuStats,
    /// Where the simulated cycles went.
    pub attr: GpuAttribution,
}

impl std::fmt::Debug for GpuExecution<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuExecution")
            .field("cycles", &self.cycles)
            .field("stats", &self.stats)
            .finish()
    }
}

impl GpuExecution<'_> {
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

impl GpuGraphVm {
    /// A VM over the given device configuration.
    pub fn new(config: GpuConfig) -> Self {
        GpuGraphVm { config }
    }

    /// Executes a midend-processed program on `graph`. Runs the GPU
    /// GraphVM's hardware-specific passes (kernel fusion marking) first.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] for unbound externs or execution failures.
    pub fn execute<'g>(
        &self,
        mut prog: Program,
        graph: &'g Graph,
        externs: &HashMap<String, Value>,
    ) -> Result<GpuExecution<'g>, ExecError> {
        contain(std::panic::AssertUnwindSafe(|| {
            crate::passes::run(&mut prog);
            let mut state = ProgramState::new(prog, graph, externs)?;
            let mut exec = GpuExecutor::new(GpuSim::new(self.config.clone()));
            run_main(&mut state, &mut exec)?;
            Ok(GpuExecution {
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
    use crate::schedule::GpuSchedule;
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

    fn run_bfs(sched: Option<GpuSchedule>) -> (Vec<i64>, u64, GpuStats) {
        let mut prog = ugc_midend::frontend_to_ir(BFS).unwrap();
        if let Some(s) = sched {
            apply_schedule(&mut prog, "s0:s1", ScheduleRef::simple(s)).unwrap();
        }
        ugc_midend::run_passes(&mut prog).unwrap();
        let graph = ugc_graph::generators::two_communities();
        let mut externs = HashMap::new();
        externs.insert("start_vertex".to_string(), Value::Int(0));
        let vm = GpuGraphVm::default();
        let run = vm.execute(prog, &graph, &externs).unwrap();
        (run.property_ints("parent"), run.cycles, run.stats)
    }

    #[test]
    fn bfs_default_runs_correctly() {
        let (parents, cycles, stats) = run_bfs(None);
        assert!(parents.iter().all(|&p| p != -1));
        assert!(cycles > 0);
        assert!(stats.kernels > 0);
    }

    #[test]
    fn kernel_fusion_reduces_launches() {
        let (_, cycles_unfused, stats_unfused) = run_bfs(Some(GpuSchedule::new()));
        let (parents, cycles_fused, stats_fused) =
            run_bfs(Some(GpuSchedule::new().with_kernel_fusion(true)));
        assert!(parents.iter().all(|&p| p != -1));
        assert!(
            stats_fused.kernels < stats_unfused.kernels,
            "fused {} vs unfused {}",
            stats_fused.kernels,
            stats_unfused.kernels
        );
        assert!(stats_fused.grid_syncs > 0);
        // On this tiny high-round graph, fusion must win.
        assert!(cycles_fused < cycles_unfused);
    }
}
