//! The CPU GraphVM entry point.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use ugc_graph::Graph;
use ugc_graphir::ir::Program;
use ugc_runtime::interp::{contain, run_main, ExecError, ProgramState};
use ugc_runtime::value::Value;

use crate::executor::{CpuAttribution, CpuExecutor, KernelDispatch};

/// The CPU GraphVM: executes midend-processed GraphIR on host threads.
#[derive(Debug, Clone, Default)]
pub struct CpuGraphVm {
    /// Operator executor (thread count lives here).
    pub executor: CpuExecutor,
}

/// The result of one execution: final program state plus wall-clock time.
pub struct Execution<'g> {
    /// Final state (properties, globals, prints).
    pub state: ProgramState<'g>,
    /// Wall-clock time of `main` (excludes state setup).
    pub elapsed: Duration,
    /// Where the wall time went; components sum to `attr.total()`.
    /// All zeros when telemetry is disabled.
    pub attr: CpuAttribution,
    /// Which tier ran each operator (counted with telemetry on or off).
    pub dispatch: KernelDispatch,
}

impl std::fmt::Debug for Execution<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Execution")
            .field("elapsed", &self.elapsed)
            .finish()
    }
}

impl Execution<'_> {
    /// Snapshot of a property by name as integers.
    ///
    /// # Panics
    ///
    /// Panics if the property does not exist (a compile bug, not a data
    /// error).
    pub fn property_ints(&self, name: &str) -> Vec<i64> {
        self.state.property_ints(name)
    }

    /// Snapshot of a property by name as floats.
    ///
    /// # Panics
    ///
    /// Panics if the property does not exist.
    pub fn property_floats(&self, name: &str) -> Vec<f64> {
        self.state.property_floats(name)
    }
}

impl CpuGraphVm {
    /// A VM with `num_threads` workers.
    pub fn with_threads(num_threads: usize) -> Self {
        CpuGraphVm {
            executor: CpuExecutor::with_threads(num_threads),
        }
    }

    /// Enables or disables compiled kernels and UDF bodies for this VM's
    /// runs (overriding the `UGC_CPU_KERNELS` process default). With
    /// kernels off every operator goes through the interpreter — the
    /// differential oracle both are tested against.
    pub fn with_kernels(mut self, on: bool) -> Self {
        self.executor.use_kernels = on;
        self
    }

    /// Executes a program (already lowered and passed through the midend)
    /// on `graph`, binding extern consts from `externs`.
    ///
    /// Runs under [`contain`]: panics anywhere in the execution (broken
    /// invariants, watchdog payloads) come back as classed [`ExecError`]s
    /// instead of unwinding into the caller.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] for unbound externs or execution failures.
    pub fn execute<'g>(
        &self,
        prog: Program,
        graph: &'g Graph,
        externs: &HashMap<String, Value>,
    ) -> Result<Execution<'g>, ExecError> {
        contain(std::panic::AssertUnwindSafe(|| {
            let mut state = ProgramState::new(prog, graph, externs)?;
            let mut exec = self.executor.clone();
            let start = Instant::now();
            let result = run_main(&mut state, &mut exec);
            let elapsed = start.elapsed();
            // Attribute even on error so global counters stay consistent.
            let attr = exec.finish_run(elapsed.as_nanos() as u64);
            result?;
            Ok(Execution {
                state,
                elapsed,
                attr,
                dispatch: exec.take_dispatch(),
            })
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
                run.attr.components().iter().map(|(_, v)| v).sum::<u64>(),
                run.attr.total()
            );
            assert!(run.attr.total() >= run.elapsed.as_nanos() as u64);
            assert!(run.attr.edge_push + run.attr.edge_pull > 0);
            assert!(run.attr.vertex_apply > 0);
        } else {
            assert_eq!(run.attr, CpuAttribution::default());
        }
    }
}
