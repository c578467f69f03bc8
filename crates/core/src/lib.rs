//! # UGC — the Unified GraphIt Compiler framework, in Rust
//!
//! A reproduction of *"Taming the Zoo: The Unified GraphIt Compiler
//! Framework for Novel Architectures"* (ISCA 2021). UGC compiles graph
//! algorithms written once in the GraphIt DSL to four very different
//! parallel architectures, decoupling three concerns:
//!
//! * the **algorithm** ([`ugc_frontend`], [`ugc_algorithms`]),
//! * the **schedule** — per-architecture optimization directives
//!   ([`ugc_schedule`] plus each backend's schedule type),
//! * the **backend** — a GraphVM per architecture
//!   ([`ugc_backend_cpu`], [`ugc_backend_gpu`], [`ugc_backend_swarm`],
//!   [`ugc_backend_hb`]),
//!
//! linked by the GraphIR intermediate representation ([`ugc_graphir`]) and
//! the hardware-independent compiler ([`ugc_midend`]).
//!
//! This crate is the façade: one [`Compiler`] type that runs the pipeline
//! and dispatches to a [`Target`].
//!
//! # Example
//!
//! ```
//! use ugc::{Compiler, Target};
//! use ugc_algorithms::Algorithm;
//!
//! let graph = ugc_graph::generators::road_grid(8, 8, 0.1, 1, true);
//! let result = Compiler::new(Algorithm::Bfs)
//!     .start_vertex(0)
//!     .run(Target::Cpu, &graph)
//!     .unwrap();
//! assert!(result.property_ints("parent").iter().all(|&p| p != -1));
//! ```

use std::collections::HashMap;
use std::time::{Duration, Instant};

use ugc_graph::Graph;
use ugc_graphir::ir::Program;
use ugc_runtime::interp::ExecError;
use ugc_runtime::value::Value;
use ugc_runtime::GraphVm;
use ugc_schedule::ScheduleRef;

pub use ugc_algorithms::Algorithm;
pub use ugc_resilience::ErrorClass;

/// The four architectures of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// Real multithreaded execution on the host.
    Cpu,
    /// The SIMT GPU timing simulator.
    Gpu,
    /// The Swarm speculative-task simulator.
    Swarm,
    /// The HammerBlade manycore simulator.
    HammerBlade,
}

impl Target {
    /// All four targets.
    pub const ALL: [Target; 4] = [Target::Cpu, Target::Gpu, Target::Swarm, Target::HammerBlade];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Target::Cpu => "CPU",
            Target::Gpu => "GPU",
            Target::Swarm => "Swarm",
            Target::HammerBlade => "HammerBlade",
        }
    }

    /// Resolves a CLI spelling (case-insensitive): `cpu`, `gpu`, `swarm`,
    /// `hb` or `hammerblade`.
    pub fn from_cli_name(s: &str) -> Option<Target> {
        match s.to_ascii_lowercase().as_str() {
            "cpu" => Some(Target::Cpu),
            "gpu" => Some(Target::Gpu),
            "swarm" => Some(Target::Swarm),
            "hb" | "hammerblade" => Some(Target::HammerBlade),
            _ => None,
        }
    }
}

/// A compiled-and-executed run: results plus a target-appropriate time.
pub struct RunResult {
    /// Integer property snapshots by name.
    ints: HashMap<String, Vec<i64>>,
    /// Float property snapshots by name.
    floats: HashMap<String, Vec<f64>>,
    /// `Print` output.
    pub prints: Vec<String>,
    /// Time in milliseconds: wall-clock for the CPU target, simulated for
    /// the others.
    pub time_ms: f64,
    /// Simulated cycles (0 for the CPU target).
    pub cycles: u64,
    /// Total execution attempts the supervisor made to get this result
    /// (1 = clean first try).
    pub attempts: u32,
    /// `Some(name)` when the supervisor degraded to a fallback executor
    /// (a backend name, or `"reference"` for the sequential reference).
    pub degraded_to: Option<String>,
    /// Where the time went, as the GraphVM that ran accounted it: empty for
    /// the sequential reference, all zeros on the CPU with telemetry off.
    pub attribution: Attribution,
}

impl std::fmt::Debug for RunResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunResult")
            .field("time_ms", &self.time_ms)
            .field("cycles", &self.cycles)
            .finish()
    }
}

impl RunResult {
    /// Snapshot of an integer property.
    ///
    /// # Panics
    ///
    /// Panics if the algorithm has no such property.
    pub fn property_ints(&self, name: &str) -> &[i64] {
        self.ints.get(name).expect("property exists")
    }

    /// Snapshot of a float property.
    ///
    /// # Panics
    ///
    /// Panics if the algorithm has no such property.
    pub fn property_floats(&self, name: &str) -> &[f64] {
        self.floats.get(name).expect("property exists")
    }
}

/// Where one run's reported time went. Every GraphVM accounts its whole
/// total — simulated cycles, or wall-clock nanoseconds on the CPU — to a
/// fixed set of components that sum to it exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribution {
    /// Which backend this describes.
    pub target: Target,
    /// `"cycles"` for the simulators, `"ns"` for the CPU backend.
    pub unit: &'static str,
    /// `(component, amount)` in display order.
    pub components: Vec<(&'static str, u64)>,
    /// The backend's reported total for the same window.
    pub total: u64,
}

impl Default for Attribution {
    /// The empty CPU attribution: nothing recorded.
    fn default() -> Self {
        Attribution::of(Target::Cpu, Vec::new())
    }
}

impl Attribution {
    /// `target`'s attribution from its named components; they sum to the total.
    #[must_use]
    pub fn of(target: Target, components: Vec<(&'static str, u64)>) -> Self {
        Attribution {
            target,
            unit: if target == Target::Cpu {
                "ns"
            } else {
                "cycles"
            },
            total: components.iter().map(|(_, v)| v).sum(),
            components,
        }
    }

    /// Sum of the components; equals the total when the books balance.
    #[must_use]
    pub fn component_sum(&self) -> u64 {
        self.components.iter().map(|(_, v)| v).sum()
    }

    /// Whether the components account for the reported total exactly.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        self.component_sum() == self.total
    }

    /// The nonzero components, largest first, ties broken by name.
    fn ranked(&self) -> Vec<(&'static str, u64)> {
        let mut ranked: Vec<_> = self
            .components
            .iter()
            .copied()
            .filter(|&(_, v)| v > 0)
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        ranked
    }

    /// `v` as a whole percentage of the total, halves rounded to even.
    fn share(&self, v: u64) -> u32 {
        (100.0 * v as f64 / self.total as f64).round_ties_even() as u32
    }

    /// The largest component and its whole-percent share of the total
    /// (ties broken by name; 99 of 200 counts as 50 %). `None` when
    /// nothing was recorded.
    #[must_use]
    pub fn dominant(&self) -> Option<(&'static str, u32)> {
        if self.total == 0 {
            return None;
        }
        let (label, v) = *self.ranked().first()?;
        Some((label, self.share(v)))
    }

    /// Renders the human-readable attribution table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14}{:>16}{:>8}\n",
            "component", self.unit, "share"
        ));
        for &(label, v) in &self.components {
            let pct = if self.total == 0 {
                0.0
            } else {
                100.0 * v as f64 / self.total as f64
            };
            out.push_str(&format!("{label:<14}{v:>16}{pct:>7.1}%\n"));
        }
        out.push_str(&format!(
            "{:<14}{:>16}{:>8}  ({})\n",
            "total",
            self.total,
            "100.0%",
            if self.is_consistent() {
                "components sum to total"
            } else {
                "ATTRIBUTION MISMATCH"
            }
        ));
        out
    }

    /// One-line summary for tuning logs: the top components by share,
    /// e.g. `mem_stall 62% + compute 21% of 123456 cycles`, led by
    /// [`Attribution::dominant`]. Empty when nothing was recorded.
    #[must_use]
    pub fn summary(&self) -> String {
        let Some((top, share)) = self.dominant() else {
            return String::new();
        };
        let mut line = format!("{top} {share}%");
        if let Some(&(label, v)) = self.ranked().get(1) {
            line.push_str(&format!(" + {label} {}%", self.share(v)));
        }
        format!("{line} of {} {}", self.total, self.unit)
    }
}

/// Compilation/execution failure, classed per the workspace taxonomy
/// ([`ErrorClass`]) so supervisors and callers can tell retryable faults
/// from program errors, watchdog kills, and broken invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UgcError {
    /// Description.
    pub message: String,
    /// Supervisor policy class.
    pub class: ErrorClass,
}

impl UgcError {
    /// A `Permanent` error — the default for compile-time and
    /// configuration failures.
    pub fn permanent(message: impl Into<String>) -> Self {
        UgcError {
            message: message.into(),
            class: ErrorClass::Permanent,
        }
    }
}

impl std::fmt::Display for UgcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ugc error ({}): {}", self.class, self.message)
    }
}

impl std::error::Error for UgcError {}

impl From<ExecError> for UgcError {
    fn from(e: ExecError) -> Self {
        UgcError {
            message: e.message,
            class: e.class,
        }
    }
}

/// One step of a supervisor fallback chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fallback {
    /// Re-run the compiled program on another backend.
    Target(Target),
    /// Run the sequential reference implementation (known algorithms
    /// only).
    Reference,
}

impl Fallback {
    fn name(self) -> String {
        match self {
            Fallback::Target(t) => t.name().to_ascii_lowercase(),
            Fallback::Reference => "reference".to_string(),
        }
    }
}

/// Supervisor policy: retry limits, watchdog budgets, and the fallback
/// chain. [`Policy::from_env`] is what [`Compiler::run`] uses; tests
/// construct policies directly.
#[derive(Debug, Clone, PartialEq)]
pub struct Policy {
    /// Retries per chain step for `Transient` failures (beyond the first
    /// attempt).
    pub max_retries: u32,
    /// Wall-clock watchdog (`UGC_BUDGET_MS`).
    pub wall_budget: Option<Duration>,
    /// Simulated-cycle watchdog (`UGC_BUDGET_CYCLES`).
    pub cycle_budget: Option<u64>,
    /// Explicit fallback chain; `None` selects the default (the CPU
    /// backend, then the sequential reference).
    pub fallback: Option<Vec<Fallback>>,
}

impl Default for Policy {
    fn default() -> Self {
        Policy {
            max_retries: 2,
            wall_budget: None,
            cycle_budget: None,
            fallback: None,
        }
    }
}

impl Policy {
    /// Reads `UGC_BUDGET_MS`, `UGC_BUDGET_CYCLES`, and `UGC_FALLBACK`.
    ///
    /// # Errors
    ///
    /// A message naming the offending variable and value; budgets must be
    /// positive integers, fallback entries must name a backend,
    /// `reference`/`seq`, or `none`.
    pub fn from_env() -> Result<Policy, String> {
        let mut policy = Policy::default();
        policy.wall_budget = parse_budget_env("UGC_BUDGET_MS")?.map(Duration::from_millis);
        policy.cycle_budget = parse_budget_env("UGC_BUDGET_CYCLES")?;
        if let Ok(v) = std::env::var("UGC_FALLBACK") {
            policy.fallback = Some(parse_fallback(&v)?);
        }
        Ok(policy)
    }
}

fn parse_budget_env(name: &str) -> Result<Option<u64>, String> {
    let Ok(v) = std::env::var(name) else {
        return Ok(None);
    };
    let v = v.trim();
    if v.is_empty() {
        return Ok(None);
    }
    match v.parse::<u64>() {
        Ok(n) if n > 0 => Ok(Some(n)),
        _ => Err(format!(
            "{name} must be a positive integer, got `{v}` (zero and negative budgets reject every run)"
        )),
    }
}

/// Parses a `UGC_FALLBACK` value: comma-separated backend names,
/// `reference`/`seq`, or the single word `none` for an empty chain.
///
/// # Errors
///
/// A message naming the unknown entry.
pub fn parse_fallback(s: &str) -> Result<Vec<Fallback>, String> {
    let trimmed = s.trim();
    if trimmed.eq_ignore_ascii_case("none") {
        return Ok(Vec::new());
    }
    let mut chain = Vec::new();
    for part in trimmed.split(',') {
        let part = part.trim().to_ascii_lowercase();
        if part.is_empty() {
            continue;
        }
        chain.push(match (Target::from_cli_name(&part), part.as_str()) {
            (Some(t), _) => Fallback::Target(t),
            (None, "seq" | "reference") => Fallback::Reference,
            (None, other) => {
                return Err(format!(
                    "UGC_FALLBACK entry `{other}` is not a backend (cpu/gpu/swarm/hb), `seq`, or `none`"
                ))
            }
        });
    }
    if chain.is_empty() {
        return Err(format!("UGC_FALLBACK `{s}` names no fallback targets"));
    }
    Ok(chain)
}

/// The end-to-end compiler pipeline for one algorithm.
///
/// A non-consuming builder: configure schedules and inputs, then call
/// [`Compiler::run`] per target.
#[derive(Debug, Default)]
pub struct Compiler {
    source: String,
    schedules: Vec<(String, ScheduleRef)>,
    externs: HashMap<String, Value>,
    /// Known algorithm identity (enables the sequential-reference
    /// fallback); `None` for arbitrary source text.
    algo: Option<Algorithm>,
}

impl Compiler {
    /// A pipeline for a known [`Algorithm`]. Extern consts the source
    /// requires beyond `start_vertex` (e.g. LP's `max_iters`/`lp_seed`)
    /// are pre-bound to their defaults; [`Compiler::bind`] overrides them.
    pub fn new(algo: Algorithm) -> Self {
        let mut externs = HashMap::new();
        for (name, v) in algo.default_externs() {
            externs.insert((*name).to_string(), Value::Int(*v));
        }
        Compiler {
            source: algo.source().to_string(),
            schedules: Vec::new(),
            externs,
            algo: Some(algo),
        }
    }

    /// A pipeline for arbitrary GraphIt source text.
    pub fn from_source(source: impl Into<String>) -> Self {
        Compiler {
            source: source.into(),
            schedules: Vec::new(),
            externs: HashMap::new(),
            algo: None,
        }
    }

    /// Attaches a schedule at a `:`-separated label path (the paper's
    /// `applyGPUSchedule("s0:s1", sched)`).
    pub fn schedule(&mut self, path: impl Into<String>, sched: ScheduleRef) -> &mut Self {
        self.schedules.push((path.into(), sched));
        self
    }

    /// Binds the `start_vertex` extern const.
    pub fn start_vertex(&mut self, v: u32) -> &mut Self {
        self.externs
            .insert("start_vertex".to_string(), Value::Int(v as i64));
        self
    }

    /// Binds an arbitrary extern const.
    pub fn bind(&mut self, name: impl Into<String>, v: Value) -> &mut Self {
        self.externs.insert(name.into(), v);
        self
    }

    /// Runs the hardware-independent pipeline: parse, type-check, lower,
    /// attach schedules, run passes. Returns the GraphIR handed to
    /// GraphVMs.
    ///
    /// # Errors
    ///
    /// Returns [`UgcError`] on any frontend/midend failure.
    pub fn compile(&self) -> Result<Program, UgcError> {
        let mut prog =
            ugc_midend::frontend_to_ir(&self.source).map_err(|e| UgcError::permanent(e.message))?;
        for (path, sched) in &self.schedules {
            ugc_schedule::apply_schedule(&mut prog, path, sched.clone())
                .map_err(|e| UgcError::permanent(e.to_string()))?;
        }
        ugc_midend::run_passes(&mut prog).map_err(|e| UgcError::permanent(e.message))?;
        Ok(prog)
    }

    /// Compiles and executes on a target under the supervisor, with the
    /// fault injector ([`UGC_FAULTS`]), watchdog budgets, and fallback
    /// chain configured from the environment (`UGC_BUDGET_MS`,
    /// `UGC_BUDGET_CYCLES`, `UGC_FALLBACK`).
    ///
    /// [`UGC_FAULTS`]: ugc_resilience::fault
    ///
    /// # Errors
    ///
    /// Returns [`UgcError`] on compilation failure, malformed supervisor
    /// environment variables, or when the whole fallback chain is
    /// exhausted.
    pub fn run(&self, target: Target, graph: &Graph) -> Result<RunResult, UgcError> {
        ugc_resilience::fault::init_from_env().map_err(UgcError::permanent)?;
        let policy = Policy::from_env().map_err(UgcError::permanent)?;
        self.run_with_policy(target, graph, &policy)
    }

    /// Compiles and executes on a target under an explicit supervisor
    /// [`Policy`].
    ///
    /// Every attempt runs inside a watchdog [`budget scope`]
    /// (`ugc_resilience::budget`); `Transient` failures (injected faults)
    /// are retried with deterministic exponential backoff, and on
    /// exhaustion — or on `Budget`/`Invariant` failures — execution
    /// degrades along the fallback chain. The default chain is the CPU
    /// backend (when it is not the primary) followed by the sequential
    /// reference implementation (known algorithms only).
    ///
    /// [`budget scope`]: ugc_resilience::budget::scope
    ///
    /// # Errors
    ///
    /// `Permanent` failures of the primary target return immediately
    /// (program and configuration errors no fallback can mask); otherwise
    /// the last chain step's error is returned once every step fails.
    pub fn run_with_policy(
        &self,
        target: Target,
        graph: &Graph,
        policy: &Policy,
    ) -> Result<RunResult, UgcError> {
        let prog = self.compile()?;
        let mut chain: Vec<Fallback> = vec![Fallback::Target(target)];
        match &policy.fallback {
            Some(steps) => chain.extend(steps.iter().copied()),
            None => {
                if target != Target::Cpu {
                    chain.push(Fallback::Target(Target::Cpu));
                }
                if self.algo.is_some() {
                    chain.push(Fallback::Reference);
                }
            }
        }
        let mut attempts: u32 = 0;
        let mut last_err: Option<UgcError> = None;
        for (step_idx, step) in chain.iter().enumerate() {
            if step_idx > 0 {
                ugc_resilience::count_fallback();
            }
            let mut retries = 0u32;
            loop {
                attempts += 1;
                // Each attempt gets its own deterministic fault stream and
                // a fresh watchdog window.
                ugc_resilience::fault::begin_attempt(attempts as u64);
                let _budget =
                    ugc_resilience::budget::scope(policy.wall_budget, policy.cycle_budget);
                let outcome = match step {
                    Fallback::Target(t) => self.run_compiled(*t, prog.clone(), graph),
                    Fallback::Reference => self.run_reference(graph),
                };
                match outcome {
                    Ok(mut r) => {
                        r.attempts = attempts;
                        if step_idx > 0 {
                            r.degraded_to = Some(step.name());
                        }
                        return Ok(r);
                    }
                    Err(e) => {
                        if e.class == ErrorClass::Transient && retries < policy.max_retries {
                            retries += 1;
                            ugc_resilience::count_retry();
                            // Salt 0: the batch supervisor has no
                            // concurrent lanes to desynchronize, and a
                            // fixed stream keeps reruns replayable.
                            std::thread::sleep(Duration::from_millis(ugc_resilience::backoff_ms(
                                retries, 0,
                            )));
                            continue;
                        }
                        // Permanent errors from the requested target are
                        // program/configuration errors no fallback masks.
                        if step_idx == 0 && e.class == ErrorClass::Permanent {
                            return Err(e);
                        }
                        last_err = Some(e);
                        break;
                    }
                }
            }
        }
        Err(last_err.expect("fallback chain always has the primary step"))
    }

    /// Runs the sequential reference implementation — the degradation
    /// chain's last resort. Only available when the pipeline was built
    /// from a known [`Algorithm`].
    fn run_reference(&self, graph: &Graph) -> Result<RunResult, UgcError> {
        let Some(algo) = self.algo else {
            return Err(UgcError::permanent(
                "no sequential reference for arbitrary source text",
            ));
        };
        let start = if algo.needs_start_vertex() {
            let v = *self
                .externs
                .get("start_vertex")
                .ok_or_else(|| UgcError::permanent("start_vertex extern is not bound"))?;
            let s = ugc_runtime::contain(std::panic::AssertUnwindSafe(|| Ok(v.as_int())))?;
            if s < 0 || s as usize >= graph.num_vertices() {
                return Err(UgcError::permanent(format!(
                    "start_vertex {s} out of range for graph with {} vertices",
                    graph.num_vertices()
                )));
            }
            s as u32
        } else {
            0
        };
        let t0 = Instant::now();
        let mut ints = HashMap::new();
        let mut floats = HashMap::new();
        ugc_runtime::contain(std::panic::AssertUnwindSafe(|| {
            use ugc_algorithms::reference;
            match algo {
                Algorithm::Bfs => {
                    ints.insert("parent".to_string(), reference::bfs_parents(graph, start));
                }
                Algorithm::Sssp => {
                    ints.insert("dist".to_string(), reference::dijkstra(graph, start));
                }
                Algorithm::Cc => {
                    ints.insert("IDs".to_string(), reference::cc_labels(graph));
                }
                Algorithm::PageRank => {
                    floats.insert("old_rank".to_string(), reference::pagerank(graph, 20, 0.85));
                }
                Algorithm::Bc => {
                    floats.insert(
                        "centrality".to_string(),
                        reference::bc_dependencies(graph, start),
                    );
                }
                Algorithm::Tc => {
                    ints.insert("tri".to_string(), reference::triangle_counts(graph));
                }
                Algorithm::KCore => {
                    ints.insert("core".to_string(), reference::coreness(graph));
                }
                Algorithm::Lp => {
                    let arg = |name: &str, default: i64| {
                        self.externs.get(name).map_or(default, |v| v.as_int())
                    };
                    ints.insert(
                        "labels".to_string(),
                        reference::label_propagation(
                            graph,
                            arg("max_iters", 20),
                            arg("lp_seed", 1),
                        ),
                    );
                }
            }
            Ok(())
        }))?;
        Ok(RunResult {
            ints,
            floats,
            prints: Vec::new(),
            time_ms: t0.elapsed().as_secs_f64() * 1e3,
            cycles: 0,
            attempts: 1,
            degraded_to: None,
            attribution: Attribution::default(),
        })
    }

    /// Executes an already-compiled program on a target.
    ///
    /// # Errors
    ///
    /// Returns [`UgcError`] on execution failure.
    pub fn run_compiled(
        &self,
        target: Target,
        prog: Program,
        graph: &Graph,
    ) -> Result<RunResult, UgcError> {
        Ok(graph_vm(target).run(target, prog, graph, &self.externs)?)
    }

    /// Emits the target-flavored source text the paper's GraphVMs would
    /// generate (OpenMP C++ / CUDA / T4 C++ / HammerBlade C++).
    ///
    /// # Errors
    ///
    /// Returns [`UgcError`] on compilation failure.
    pub fn emit(&self, target: Target) -> Result<String, UgcError> {
        Ok(graph_vm(target).emit_source(self.compile()?))
    }
}

/// What the facade does with a GraphVM — run a program and snapshot the
/// result, or pass and emit it — with the VM's stats type erased, so that
/// one table holds all four.
trait TargetVm {
    fn run(
        &self,
        target: Target,
        prog: Program,
        graph: &Graph,
        externs: &HashMap<String, Value>,
    ) -> Result<RunResult, ExecError>;

    fn emit_source(&self, prog: Program) -> String;
}

impl<V: GraphVm> TargetVm for V {
    fn run(
        &self,
        target: Target,
        prog: Program,
        graph: &Graph,
        externs: &HashMap<String, Value>,
    ) -> Result<RunResult, ExecError> {
        let mut run = self.execute(prog, graph, externs)?;
        let prints = std::mem::take(&mut run.state.prints);
        let (ints, floats) = run.state.into_snapshot();
        Ok(RunResult {
            ints,
            floats,
            prints,
            time_ms: run.time_ms,
            cycles: run.cycles,
            attempts: 1,
            degraded_to: None,
            attribution: Attribution::of(target, run.attribution),
        })
    }

    fn emit_source(&self, mut prog: Program) -> String {
        self.passes(&mut prog);
        self.emit(&prog)
    }
}

/// The one table from a target to its GraphVM, in its default
/// configuration.
fn graph_vm(target: Target) -> Box<dyn TargetVm> {
    match target {
        Target::Cpu => Box::new(ugc_backend_cpu::CpuGraphVm::default()),
        Target::Gpu => Box::new(ugc_backend_gpu::GpuGraphVm::default()),
        Target::Swarm => Box::new(ugc_backend_swarm::SwarmGraphVm::default()),
        Target::HammerBlade => Box::new(ugc_backend_hb::HbGraphVm::default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_matches_the_summary_line() {
        let gpu =
            |components: &[(&'static str, u64)]| Attribution::of(Target::Gpu, components.to_vec());
        let stalled = gpu(&[("compute", 1024), ("mem_stall", 2867), ("launch", 205)]);
        assert_eq!(stalled.dominant(), Some(("mem_stall", 70)));
        assert_eq!(
            stalled.summary(),
            "mem_stall 70% + compute 25% of 4096 cycles"
        );
        // Ties go to the name; half a percent rounds to even.
        let tie = gpu(&[("launch", 99), ("compute", 99), ("host", 2)]);
        assert_eq!(tie.dominant(), Some(("compute", 50)));
        assert_eq!(tie.summary(), "compute 50% + launch 50% of 200 cycles");
        assert_eq!(gpu(&[("commit", 10)]).summary(), "commit 100% of 10 cycles");
        assert_eq!(gpu(&[("compute", 0)]).dominant(), None);
        assert_eq!(Attribution::default().summary(), "");
    }

    #[test]
    fn bfs_runs_on_all_targets() {
        let graph = ugc_graph::generators::two_communities();
        for target in Target::ALL {
            let r = Compiler::new(Algorithm::Bfs)
                .start_vertex(0)
                .run(target, &graph)
                .unwrap_or_else(|e| panic!("{}: {e}", target.name()));
            assert!(
                r.property_ints("parent").iter().all(|&p| p != -1),
                "{} left vertices unreached",
                target.name()
            );
        }
    }

    #[test]
    fn emit_produces_source_for_all_targets() {
        for target in Target::ALL {
            let text = Compiler::new(Algorithm::Bfs).emit(target).unwrap();
            assert!(text.len() > 200, "{}", target.name());
        }
    }

    #[test]
    fn custom_source_compiles() {
        let r = Compiler::from_source(
            "element Vertex end\nconst x : int = 41;\nfunc main()\nprint x + 1;\nend",
        )
        .run(Target::Cpu, &ugc_graph::generators::path(2))
        .unwrap();
        assert_eq!(r.prints, vec!["42"]);
    }

    #[test]
    fn compile_error_reported() {
        let err = Compiler::from_source("func main()\nnope;\nend")
            .compile()
            .unwrap_err();
        assert!(err.to_string().contains("nope"));
    }
}
