//! The CPU GraphVM entry point.

use std::time::Duration;

use ugc_graphir::ir::Program;
use ugc_runtime::interp::ProgramState;
use ugc_runtime::pool::default_threads;
use ugc_runtime::vm::{Execution, GraphVm};

use crate::executor::{CpuExecutor, CpuStats};
use crate::kernels::kernels_enabled_by_env;

/// The CPU GraphVM: executes midend-processed GraphIR on host threads.
#[derive(Debug, Clone)]
pub struct CpuGraphVm {
    /// Worker thread count (defaults to available parallelism).
    pub num_threads: usize,
    /// Whether operators may run compiled (default: on, unless
    /// `UGC_CPU_KERNELS=0`).
    pub use_kernels: bool,
}

impl Default for CpuGraphVm {
    fn default() -> Self {
        CpuGraphVm::with_threads(default_threads())
    }
}

impl CpuGraphVm {
    /// A VM with `num_threads` workers.
    pub fn with_threads(num_threads: usize) -> Self {
        CpuGraphVm {
            num_threads,
            use_kernels: kernels_enabled_by_env(),
        }
    }

    /// Enables or disables compiled kernels and UDF bodies for this VM's
    /// runs (overriding the `UGC_CPU_KERNELS` process default). With
    /// kernels off every operator goes through the interpreter — the
    /// differential oracle both are tested against.
    pub fn with_kernels(mut self, on: bool) -> Self {
        self.use_kernels = on;
        self
    }
}

impl GraphVm for CpuGraphVm {
    type Executor = CpuExecutor;
    type Stats = CpuStats;

    /// Oriented triangle-count marking.
    fn passes(&self, prog: &mut Program) {
        crate::passes::run(prog);
    }

    fn executor(&self) -> CpuExecutor {
        CpuExecutor::new(self.num_threads, self.use_kernels)
    }

    /// Attributes the wall time `main` took across the timed phases — also
    /// after a failed run, so the global counters stay consistent.
    fn finish<'g>(
        &self,
        exec: CpuExecutor,
        wall: Duration,
        state: ProgramState<'g>,
    ) -> Execution<'g, CpuStats> {
        let stats = exec.finish_run(wall.as_nanos() as u64);
        Execution {
            state,
            time_ms: wall.as_secs_f64() * 1e3,
            cycles: 0,
            attribution: stats.attr.components().to_vec(),
            stats,
        }
    }

    fn emit(&self, prog: &Program) -> String {
        crate::emitter::emit_cpp(prog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::CpuAttribution;
    use std::collections::HashMap;

    #[test]
    fn vm_runs_and_times() {
        let src = r#"
element Vertex end
element Edge end
const edges : edgeset{Edge}(Vertex,Vertex) = load("g");
const x : vector{Vertex}(int) = 7;
func main()
    print 42;
end
"#;
        let prog = ugc_midend::frontend_to_ir(src).unwrap();
        let graph = ugc_graph::generators::path(3);
        let vm = CpuGraphVm::with_threads(2);
        let run = vm.execute(prog, &graph, &HashMap::new()).unwrap();
        assert_eq!(run.state.prints, vec!["42"]);
        assert_eq!(run.property_ints("x"), vec![7, 7, 7]);
    }

    #[test]
    fn attribution_components_sum_to_total_time() {
        let src = r#"
element Vertex end
element Edge end
const edges : edgeset{Edge}(Vertex,Vertex) = load("g");
const vertices : vertexset{Vertex} = edges.getVertices();
const parent : vector{Vertex}(int) = -1;
func toFilter(v : Vertex) -> output : bool
    output = (parent[v] == -1);
end
func updateEdge(src : Vertex, dst : Vertex)
    parent[dst] = src;
end
func reset(v : Vertex)
    parent[v] = -1;
end
func main()
    vertices.apply(reset);
    var frontier : vertexset{Vertex} = new vertexset{Vertex}(0);
    frontier.addVertex(0);
    parent[0] = 0;
    while (frontier.getVertexSetSize() != 0)
        var output : vertexset{Vertex} = edges.from(frontier).to(toFilter).applyModified(updateEdge, parent, true);
        delete frontier;
        frontier = output;
    end
end
"#;
        let mut prog = ugc_midend::frontend_to_ir(src).unwrap();
        ugc_midend::run_passes(&mut prog).unwrap();
        let graph = ugc_graph::generators::uniform_random(256, 1024, 7, false);
        let vm = CpuGraphVm::with_threads(2);
        let run = vm.execute(prog, &graph, &HashMap::new()).unwrap();
        if ugc_telemetry::enabled() {
            // Components sum exactly to the attributed total, which covers
            // the whole elapsed window.
            assert_eq!(
                run.stats
                    .attr
                    .components()
                    .iter()
                    .map(|(_, v)| v)
                    .sum::<u64>(),
                run.stats.attr.total()
            );
            assert!(run.stats.attr.total() >= (run.time_ms * 1e6) as u64);
            assert!(run.stats.attr.edge_push + run.stats.attr.edge_pull > 0);
            assert!(run.stats.attr.vertex_apply > 0);
        } else {
            assert_eq!(run.stats.attr, CpuAttribution::default());
        }
    }
}
