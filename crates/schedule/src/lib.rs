#![warn(missing_docs)]

//! The extensible scheduling language of UGC (paper §III-D).
//!
//! UGC decouples the algorithm from its optimization schedule. Because
//! every backend supports different optimizations, each GraphVM defines its
//! own scheduling types (`SimpleGPUSchedule`, `SimpleHBSchedule`, …, living
//! in the backend crates), all implementing the hardware-independent
//! [`SimpleSchedule`] interface of the paper's Table IV. The
//! hardware-independent compiler only ever queries that interface — e.g.
//! the atomics-insertion pass asks for [`SimpleSchedule::direction`] and
//! [`SimpleSchedule::parallelization`] — while backends read their own
//! schedule type back with [`schedule_as`] to reach their hardware-specific
//! knobs.
//!
//! Hybrid schedules that switch on a runtime value (Table V / Fig. 6a) are
//! expressed with [`CompositeSchedule`], which pairs two schedules with a
//! [`CompositeCriteria`].
//!
//! Schedules are attached to labeled statements with [`apply_schedule`],
//! mirroring the paper's `program->applyGPUSchedule("s0:s1", sched)`.
//!
//! # Example
//!
//! ```
//! use ugc_schedule::{DefaultSchedule, ScheduleRef, SimpleSchedule, SchedDirection};
//!
//! let sched = DefaultSchedule::new();
//! assert_eq!(sched.direction(), SchedDirection::Push);
//! let r: ScheduleRef = ScheduleRef::simple(sched);
//! assert!(r.as_simple().is_some());
//! ```

pub mod space;

use std::any::Any;
use std::fmt;
use std::sync::Arc;

use ugc_graphir::ir::{Program, Stmt, StmtKind};
use ugc_graphir::keys;
use ugc_graphir::visit::walk_stmts_mut;

/// Parallelization scheme (Table IV `getParallelization`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Parallelization {
    /// One unit of work per active vertex.
    #[default]
    VertexBased,
    /// One unit of work per edge.
    EdgeBased,
    /// Vertex-based, but chunked by degree so heavy vertices are split
    /// (GraphIt's edge-aware vertex parallelism).
    EdgeAwareVertexBased,
}

/// Traversal direction requested by a schedule (Table IV `getDirection`).
///
/// Unlike the IR-level [`ugc_graphir::types::Direction`], a schedule may
/// request `Hybrid`, which the hardware-independent compiler lowers into a
/// runtime condition choosing between push and pull (Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedDirection {
    /// Iterate out-edges of the frontier.
    #[default]
    Push,
    /// Iterate in-edges of candidate destinations.
    Pull,
    /// Direction-optimizing: switch between push and pull on frontier
    /// density.
    Hybrid,
}

/// Representation used for the input frontier when pulling (Table IV
/// `getPullFrontier`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PullFrontierRepr {
    /// One byte per vertex.
    #[default]
    Boolmap,
    /// One bit per vertex.
    Bitmap,
}

/// The hardware-independent schedule interface (paper Table IV).
///
/// Backend-specific schedule types implement this trait; defaults match the
/// paper's baseline schedule (push, vertex-based, no dedup).
pub trait SimpleSchedule: fmt::Debug + Send + Sync {
    /// Parallelization scheme.
    fn parallelization(&self) -> Parallelization {
        Parallelization::VertexBased
    }

    /// Traversal direction.
    fn direction(&self) -> SchedDirection {
        SchedDirection::Push
    }

    /// Pull-side frontier representation.
    fn pull_frontier(&self) -> PullFrontierRepr {
        PullFrontierRepr::Boolmap
    }

    /// Whether the output frontier must be explicitly deduplicated.
    fn deduplication(&self) -> bool {
        false
    }

    /// ∆ bucket width for priority-queue algorithms.
    fn delta(&self) -> i64 {
        1
    }

    /// Frontier-density threshold (fraction of |V|) at which hybrid
    /// direction switches from push to pull.
    fn hybrid_threshold(&self) -> f64 {
        0.15
    }

    /// Downcast hook for backends to reach hardware-specific options.
    fn as_any(&self) -> &dyn Any;
}

/// Runtime criteria of a [`CompositeSchedule`] (Fig. 6a).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CompositeCriteria {
    /// Use the first schedule while
    /// `|input frontier| < threshold × |V|`, else the second.
    InputSetSize {
        /// Fraction of total vertices.
        threshold: f64,
    },
}

/// A hybrid schedule switching between two schedules on a runtime value
/// (paper Table V).
#[derive(Debug, Clone)]
pub struct CompositeSchedule {
    criteria: CompositeCriteria,
    first: ScheduleRef,
    second: ScheduleRef,
}

impl CompositeSchedule {
    /// Creates a hybrid schedule: `first` is used when the criteria holds.
    pub fn new(criteria: CompositeCriteria, first: ScheduleRef, second: ScheduleRef) -> Self {
        CompositeSchedule {
            criteria,
            first,
            second,
        }
    }

    /// The switch criteria.
    pub fn criteria(&self) -> CompositeCriteria {
        self.criteria
    }

    /// The first schedule (Table V `getFirstSchedule`).
    pub fn first_schedule(&self) -> &ScheduleRef {
        &self.first
    }

    /// The second schedule (Table V `getSecondSchedule`).
    pub fn second_schedule(&self) -> &ScheduleRef {
        &self.second
    }
}

/// A shared handle to a schedule: simple or composite.
#[derive(Debug, Clone)]
pub enum ScheduleRef {
    /// A single schedule object.
    Simple(Arc<dyn SimpleSchedule>),
    /// A hybrid schedule (may nest further composites).
    Composite(Arc<CompositeSchedule>),
}

impl ScheduleRef {
    /// Wraps a concrete simple schedule.
    pub fn simple<S: SimpleSchedule + 'static>(s: S) -> Self {
        ScheduleRef::Simple(Arc::new(s))
    }

    /// Wraps a composite schedule.
    pub fn composite(c: CompositeSchedule) -> Self {
        ScheduleRef::Composite(Arc::new(c))
    }

    /// Returns the simple schedule if this is not a composite.
    pub fn as_simple(&self) -> Option<&Arc<dyn SimpleSchedule>> {
        match self {
            ScheduleRef::Simple(s) => Some(s),
            ScheduleRef::Composite(_) => None,
        }
    }

    /// Returns the composite if this is one.
    pub fn as_composite(&self) -> Option<&Arc<CompositeSchedule>> {
        match self {
            ScheduleRef::Composite(c) => Some(c),
            ScheduleRef::Simple(_) => None,
        }
    }

    /// The "representative" simple schedule: itself, or the first leaf of a
    /// composite — used by hardware-independent passes that need a single
    /// answer (e.g. deduplication) regardless of the runtime branch.
    pub fn representative(&self) -> &Arc<dyn SimpleSchedule> {
        match self {
            ScheduleRef::Simple(s) => s,
            ScheduleRef::Composite(c) => c.first_schedule().representative(),
        }
    }

    /// Whether any leaf schedule requests `Hybrid` direction or this is a
    /// composite (both lower to runtime conditions).
    pub fn needs_runtime_branch(&self) -> bool {
        match self {
            ScheduleRef::Simple(s) => s.direction() == SchedDirection::Hybrid,
            ScheduleRef::Composite(_) => true,
        }
    }
}

/// The hardware-independent *schedule point* of one edge traversal: the
/// subset of a schedule that selects its compiled traversal.
///
/// Backends that compile edge operators (rather than interpreting GraphIR
/// per edge) key their kernel tables on this value plus operator-level
/// facts only they can see (UDF ids, weightedness). Deriving the point here — next to the schedule
/// types themselves — keeps the key space in one place: a new knob on
/// [`SimpleSchedule`] that affects traversal must be added to this struct
/// before any backend can specialize on it.
///
/// The point is `Copy`, `Eq` and `Hash` so it can be used directly as (part
/// of) a `HashMap` key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SchedulePoint {
    /// Traversal direction. `Hybrid` only appears when the point is taken
    /// before the hardware-independent compiler lowers direction choice to
    /// a runtime branch; post-midend statements carry `Push` or `Pull`.
    pub direction: SchedDirection,
    /// Parallelization scheme.
    pub parallelization: Parallelization,
    /// Whether the output frontier must be deduplicated.
    pub deduplication: bool,
    /// Pull-side input frontier representation.
    pub pull_frontier: PullFrontierRepr,
}

impl SchedulePoint {
    /// The point of a concrete schedule.
    pub fn of(sched: &dyn SimpleSchedule) -> Self {
        SchedulePoint {
            direction: sched.direction(),
            parallelization: sched.parallelization(),
            deduplication: sched.deduplication(),
            pull_frontier: sched.pull_frontier(),
        }
    }

    /// The point of the statement's attached schedule (its representative
    /// leaf for composites), or the baseline point when none is attached.
    pub fn of_stmt(stmt: &Stmt) -> Self {
        match schedule_of(stmt) {
            Some(r) => Self::of(r.representative().as_ref()),
            None => Self::of(&DefaultSchedule),
        }
    }
}

/// The default (baseline) schedule used when none is supplied — the paper's
/// "baseline, unoptimized code generated by applying the default schedule":
/// push direction, vertex-based parallelism, no deduplication, ∆ = 1.
#[derive(Debug, Clone, Copy, Default)]
pub struct DefaultSchedule;

impl DefaultSchedule {
    /// Creates the default schedule.
    pub fn new() -> Self {
        DefaultSchedule
    }
}

impl SimpleSchedule for DefaultSchedule {
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Error returned by [`apply_schedule`] when the label path does not match
/// any statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApplyScheduleError {
    /// The path that failed to resolve.
    pub path: String,
}

impl fmt::Display for ApplyScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no statement matches schedule label path `{}`",
            self.path
        )
    }
}

impl std::error::Error for ApplyScheduleError {}

/// Attaches `sched` to the statement identified by `path` in `main`.
///
/// `path` is a `:`-separated chain of labels (`"s0:s1"` = the statement
/// labeled `s1` nested inside the statement labeled `s0`); a single label
/// targets that statement directly. The schedule is stored in the
/// statement's metadata under [`keys::SCHEDULE`].
///
/// # Errors
///
/// Returns [`ApplyScheduleError`] when no statement matches.
///
/// # Example
///
/// ```
/// use ugc_graphir::ir::{Program, Stmt, StmtKind, Expr};
/// use ugc_schedule::{apply_schedule, DefaultSchedule, ScheduleRef};
///
/// let mut p = Program::new();
/// p.main.push(Stmt::labeled("s0", StmtKind::Print(Expr::int(1))));
/// apply_schedule(&mut p, "s0", ScheduleRef::simple(DefaultSchedule::new())).unwrap();
/// assert!(p.main[0].meta.contains(ugc_graphir::keys::SCHEDULE));
/// ```
pub fn apply_schedule(
    prog: &mut Program,
    path: &str,
    sched: ScheduleRef,
) -> Result<(), ApplyScheduleError> {
    let segments: Vec<&str> = path.split(':').map(str::trim).collect();
    if segments.is_empty() || segments.iter().any(|s| s.is_empty()) {
        return Err(ApplyScheduleError { path: path.into() });
    }
    if attach_in(&mut prog.main, &segments, &sched) {
        Ok(())
    } else {
        Err(ApplyScheduleError { path: path.into() })
    }
}

fn attach_in(stmts: &mut [Stmt], segments: &[&str], sched: &ScheduleRef) -> bool {
    let (head, rest) = (segments[0], &segments[1..]);
    let mut attached = false;
    for s in stmts.iter_mut() {
        if s.label.as_deref() == Some(head) {
            if rest.is_empty() {
                s.meta.set_any(keys::SCHEDULE, Arc::new(sched.clone()));
                attached = true;
            } else if let Some(body) = stmt_bodies(s) {
                for b in body {
                    if attach_in(b, rest, sched) {
                        attached = true;
                    }
                }
            }
        } else if let Some(body) = stmt_bodies(s) {
            // Labels may be nested deeper without intermediate labels.
            for b in body {
                if attach_in(b, segments, sched) {
                    attached = true;
                }
            }
        }
    }
    attached
}

fn stmt_bodies(s: &mut Stmt) -> Option<Vec<&mut Vec<Stmt>>> {
    match &mut s.kind {
        StmtKind::If {
            then_body,
            else_body,
            ..
        } => Some(vec![then_body, else_body]),
        StmtKind::While { body, .. } | StmtKind::For { body, .. } => Some(vec![body]),
        _ => None,
    }
}

/// Reads the schedule attached to a statement, if any.
pub fn schedule_of(stmt: &Stmt) -> Option<ScheduleRef> {
    stmt.meta
        .get_any::<ScheduleRef>(keys::SCHEDULE)
        .map(|arc| (*arc).clone())
}

/// Reads the schedule attached to a statement as the backend's own
/// schedule type `S`. `None` when nothing is attached, the attachment is a
/// composite, or it is another backend's type — callers fall back to
/// `S::default()`.
pub fn schedule_as<S: SimpleSchedule + Clone + 'static>(stmt: &Stmt) -> Option<S> {
    stmt.meta
        .get_any::<ScheduleRef>(keys::SCHEDULE)?
        .as_simple()?
        .as_any()
        .downcast_ref::<S>()
        .cloned()
}

/// Removes every attached schedule (used when re-scheduling a program).
pub fn clear_schedules(prog: &mut Program) {
    walk_stmts_mut(&mut prog.main, &mut |s| {
        s.meta.remove(keys::SCHEDULE);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugc_graphir::ir::{EdgeSetIteratorData, Expr};

    #[derive(Debug, Clone)]
    struct PullSchedule;
    impl SimpleSchedule for PullSchedule {
        fn direction(&self) -> SchedDirection {
            SchedDirection::Pull
        }
        fn deduplication(&self) -> bool {
            true
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    fn program_with_loop() -> Program {
        let mut p = Program::new();
        p.main.push(Stmt::labeled(
            "s0",
            StmtKind::While {
                cond: Expr::bool(true),
                body: vec![Stmt::labeled(
                    "s1",
                    StmtKind::EdgeSetIterator(EdgeSetIteratorData::all_edges("edges", "f")),
                )],
            },
        ));
        p
    }

    #[test]
    fn default_schedule_matches_paper_baseline() {
        let s = DefaultSchedule::new();
        assert_eq!(s.direction(), SchedDirection::Push);
        assert_eq!(s.parallelization(), Parallelization::VertexBased);
        assert!(!s.deduplication());
        assert_eq!(s.delta(), 1);
    }

    #[test]
    fn apply_to_nested_path() {
        let mut p = program_with_loop();
        apply_schedule(&mut p, "s0:s1", ScheduleRef::simple(PullSchedule)).unwrap();
        let StmtKind::While { body, .. } = &p.main[0].kind else {
            panic!()
        };
        let sched = schedule_of(&body[0]).unwrap();
        assert_eq!(sched.representative().direction(), SchedDirection::Pull);
        assert!(schedule_of(&p.main[0]).is_none());
    }

    #[test]
    fn apply_to_loop_head() {
        let mut p = program_with_loop();
        apply_schedule(&mut p, "s0", ScheduleRef::simple(DefaultSchedule)).unwrap();
        assert!(schedule_of(&p.main[0]).is_some());
    }

    #[test]
    fn apply_with_skipped_intermediate_labels() {
        // Path "s1" alone should find the nested statement.
        let mut p = program_with_loop();
        apply_schedule(&mut p, "s1", ScheduleRef::simple(DefaultSchedule)).unwrap();
        let StmtKind::While { body, .. } = &p.main[0].kind else {
            panic!()
        };
        assert!(schedule_of(&body[0]).is_some());
    }

    #[test]
    fn unknown_path_errors() {
        let mut p = program_with_loop();
        let e = apply_schedule(&mut p, "sX", ScheduleRef::simple(DefaultSchedule)).unwrap_err();
        assert!(e.to_string().contains("sX"));
    }

    #[test]
    fn composite_representative_is_first_leaf() {
        let comp = CompositeSchedule::new(
            CompositeCriteria::InputSetSize { threshold: 0.15 },
            ScheduleRef::simple(DefaultSchedule),
            ScheduleRef::simple(PullSchedule),
        );
        let r = ScheduleRef::composite(comp);
        assert_eq!(r.representative().direction(), SchedDirection::Push);
        assert!(r.needs_runtime_branch());
        let c = r.as_composite().unwrap();
        assert_eq!(
            c.second_schedule().representative().direction(),
            SchedDirection::Pull
        );
    }

    #[test]
    fn nested_composites() {
        let inner = CompositeSchedule::new(
            CompositeCriteria::InputSetSize { threshold: 0.5 },
            ScheduleRef::simple(PullSchedule),
            ScheduleRef::simple(DefaultSchedule),
        );
        let outer = CompositeSchedule::new(
            CompositeCriteria::InputSetSize { threshold: 0.1 },
            ScheduleRef::composite(inner),
            ScheduleRef::simple(DefaultSchedule),
        );
        let r = ScheduleRef::composite(outer);
        assert_eq!(r.representative().direction(), SchedDirection::Pull);
    }

    #[test]
    fn clear_schedules_removes_all() {
        let mut p = program_with_loop();
        apply_schedule(&mut p, "s0:s1", ScheduleRef::simple(DefaultSchedule)).unwrap();
        clear_schedules(&mut p);
        let StmtKind::While { body, .. } = &p.main[0].kind else {
            panic!()
        };
        assert!(schedule_of(&body[0]).is_none());
    }

    #[test]
    fn schedule_point_mirrors_schedule_and_defaults() {
        let mut p = program_with_loop();
        apply_schedule(&mut p, "s0:s1", ScheduleRef::simple(PullSchedule)).unwrap();
        let StmtKind::While { body, .. } = &p.main[0].kind else {
            panic!()
        };
        let point = SchedulePoint::of_stmt(&body[0]);
        assert_eq!(point.direction, SchedDirection::Pull);
        assert!(point.deduplication);
        // Unscheduled statement: the baseline point.
        assert_eq!(SchedulePoint::of_stmt(&p.main[0]), SchedulePoint::default());
        assert_eq!(
            SchedulePoint::default(),
            SchedulePoint::of(&DefaultSchedule)
        );
    }

    #[test]
    fn downcast_reaches_concrete_type() {
        let r = ScheduleRef::simple(PullSchedule);
        let s = r.representative();
        assert!(s.as_any().downcast_ref::<PullSchedule>().is_some());
        assert!(s.as_any().downcast_ref::<DefaultSchedule>().is_none());
    }

    #[test]
    fn schedule_as_reads_back_only_the_attached_simple_type() {
        let mut p = program_with_loop();
        assert!(schedule_as::<DefaultSchedule>(&p.main[0]).is_none());
        apply_schedule(&mut p, "s0", ScheduleRef::simple(DefaultSchedule)).unwrap();
        assert!(schedule_as::<DefaultSchedule>(&p.main[0]).is_some());
        assert!(schedule_as::<PullSchedule>(&p.main[0]).is_none());
        let comp = CompositeSchedule::new(
            CompositeCriteria::InputSetSize { threshold: 0.15 },
            ScheduleRef::simple(DefaultSchedule),
            ScheduleRef::simple(DefaultSchedule),
        );
        apply_schedule(&mut p, "s0", ScheduleRef::composite(comp)).unwrap();
        assert!(schedule_as::<DefaultSchedule>(&p.main[0]).is_none());
    }
}
