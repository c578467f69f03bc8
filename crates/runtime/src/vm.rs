//! The one entry point every GraphVM shares: a backend implements
//! [`GraphVm`], and running a program is the provided [`GraphVm::execute`],
//! which returns one [`Execution`] on every target.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use ugc_graph::Graph;
use ugc_graphir::ir::Program;

use crate::interp::{contain, run_main, ExecError, OperatorExecutor, ProgramState};
use crate::value::Value;

/// What one architecture adds to the shared compiler and host walker.
pub trait GraphVm {
    /// The operator executor one run drives.
    type Executor: OperatorExecutor;
    /// What the hardware counted in one run, beyond time and attribution.
    type Stats;

    /// Hardware-specific GraphIR passes, run before both execution and
    /// emission. Default: none.
    fn passes(&self, _prog: &mut Program) {}

    /// A fresh executor for one run, built from this VM's configuration.
    fn executor(&self) -> Self::Executor;

    /// Reads `exec`'s clock into the run's [`Execution`]; `wall` is the
    /// host time `run_main` took. Also called when the run failed, so
    /// per-run accounting stays consistent.
    fn finish<'g>(
        &self,
        exec: Self::Executor,
        wall: Duration,
        state: ProgramState<'g>,
    ) -> Execution<'g, Self::Stats>;

    /// Target-flavored source text for `prog`, which has been through
    /// [`GraphVm::passes`].
    fn emit(&self, prog: &Program) -> String;

    /// Executes a midend-processed program on `graph`, binding extern
    /// consts from `externs`: passes, state setup, `main`, then
    /// [`GraphVm::finish`]. Runs under [`contain`], so panics anywhere
    /// (broken invariants, injected faults, watchdogs) come back as
    /// classed errors.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] for unbound externs or execution failures.
    fn execute<'g>(
        &self,
        mut prog: Program,
        graph: &'g Graph,
        externs: &HashMap<String, Value>,
    ) -> Result<Execution<'g, Self::Stats>, ExecError> {
        contain(std::panic::AssertUnwindSafe(|| {
            self.passes(&mut prog);
            let mut state = ProgramState::new(prog, graph, externs)?;
            let mut exec = self.executor();
            let start = Instant::now();
            let result = run_main(&mut state, &mut exec);
            let run = self.finish(exec, start.elapsed(), state);
            result.map(|()| run)
        }))
    }
}

/// One run on a GraphVM: the final program state plus what its clock read.
#[derive(Debug)]
pub struct Execution<'g, S> {
    /// Final state (properties, globals, prints).
    pub state: ProgramState<'g>,
    /// Milliseconds: wall-clock of `main` on the CPU, simulated elsewhere.
    pub time_ms: f64,
    /// Simulated cycles (0 on the CPU).
    pub cycles: u64,
    /// Where the time went, `(component, amount)` in display order,
    /// summing to the run's cycles (nanoseconds on the CPU, all zero there
    /// with telemetry disabled).
    pub attribution: Vec<(&'static str, u64)>,
    /// The hardware's own counters.
    pub stats: S,
}

impl<S> Execution<'_, S> {
    /// Snapshot of a property by name as integers.
    ///
    /// # Panics
    ///
    /// Panics if the property does not exist.
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
