//! `SimpleCPUSchedule` — the CPU GraphVM's scheduling object.

use std::any::Any;

use ugc_schedule::space::{
    delta_dimension, delta_value, Dimension, PruneRule, ScheduleSpace, SpaceParams,
};
use ugc_schedule::{
    Parallelization, PullFrontierRepr, SchedDirection, ScheduleRef, SimpleSchedule,
};

/// CPU scheduling options (the original GraphIt CPU space).
///
/// A non-consuming builder is unnecessary here — schedules are small value
/// types configured once — so the `with_*` methods consume and return
/// `self` for one-liner construction, mirroring the paper's
/// `sched1.configDirection(PUSH)` style.
///
/// # Example
///
/// ```
/// use ugc_backend_cpu::CpuSchedule;
/// use ugc_schedule::{SchedDirection, SimpleSchedule, Parallelization};
///
/// let s = CpuSchedule::new()
///     .with_direction(SchedDirection::Hybrid)
///     .with_parallelization(Parallelization::EdgeAwareVertexBased)
///     .with_delta(8);
/// assert_eq!(s.direction(), SchedDirection::Hybrid);
/// assert_eq!(s.delta(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct CpuSchedule {
    direction: SchedDirection,
    parallelization: Parallelization,
    pull_frontier: PullFrontierRepr,
    dedup: bool,
    delta: i64,
    hybrid_threshold: f64,
    /// Frontiers smaller than this run serially (avoids parallel dispatch
    /// overhead on tiny road-graph rounds; the CPU analogue of the paper's
    /// bucket-fusion benefit).
    serial_threshold: usize,
}

impl Default for CpuSchedule {
    fn default() -> Self {
        CpuSchedule {
            direction: SchedDirection::Push,
            parallelization: Parallelization::VertexBased,
            pull_frontier: PullFrontierRepr::Boolmap,
            dedup: false,
            delta: 1,
            hybrid_threshold: 0.15,
            serial_threshold: ugc_runtime::pool::SERIAL_DISPATCH_THRESHOLD,
        }
    }
}

impl CpuSchedule {
    /// The default CPU schedule (matches the paper's baseline).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the traversal direction.
    pub fn with_direction(mut self, d: SchedDirection) -> Self {
        self.direction = d;
        self
    }

    /// Sets the parallelization scheme.
    pub fn with_parallelization(mut self, p: Parallelization) -> Self {
        self.parallelization = p;
        self
    }

    /// Sets the pull-side input frontier representation.
    pub fn with_pull_frontier(mut self, r: PullFrontierRepr) -> Self {
        self.pull_frontier = r;
        self
    }

    /// Enables explicit output deduplication.
    pub fn with_deduplication(mut self, yes: bool) -> Self {
        self.dedup = yes;
        self
    }

    /// Sets the ∆ bucket width for priority-queue algorithms.
    pub fn with_delta(mut self, delta: i64) -> Self {
        self.delta = delta;
        self
    }

    /// Sets the hybrid push→pull switch threshold (fraction of |V|).
    pub fn with_hybrid_threshold(mut self, t: f64) -> Self {
        self.hybrid_threshold = t;
        self
    }

    /// Sets the serial-execution threshold (frontier size).
    pub fn with_serial_threshold(mut self, t: usize) -> Self {
        self.serial_threshold = t;
        self
    }

    /// The serial-execution threshold.
    pub fn serial_threshold(&self) -> usize {
        self.serial_threshold
    }
}

impl SimpleSchedule for CpuSchedule {
    fn parallelization(&self) -> Parallelization {
        self.parallelization
    }

    fn direction(&self) -> SchedDirection {
        self.direction
    }

    fn pull_frontier(&self) -> PullFrontierRepr {
        self.pull_frontier
    }

    fn deduplication(&self) -> bool {
        self.dedup
    }

    fn delta(&self) -> i64 {
        self.delta
    }

    fn hybrid_threshold(&self) -> f64 {
        self.hybrid_threshold
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The CPU GraphVM's declared search space: the original GraphIt CPU
/// tuning axes (direction × parallelization × deduplication), plus the
/// serial-dispatch threshold and the shared ∆ sweep for ordered
/// algorithms.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuScheduleSpace;

/// Cost-model pruning table, keyed by the CPU attribution components
/// (`edge_push` / `edge_pull` / `vertex_apply` / `other`). Each row names
/// an axis that cannot move its dominant component, so guided search may
/// skip its sweep.
pub const CPU_PRUNE_RULES: &[PruneRule] = &[
    PruneRule {
        component: "vertex_apply",
        axis: "dir",
        reason: "direction reorders edge traversal; per-vertex apply work is direction-blind",
    },
    PruneRule {
        component: "vertex_apply",
        axis: "dedup",
        reason: "dedup filters duplicate frontier pushes; apply-bound time has none to filter",
    },
    PruneRule {
        component: "edge_pull",
        axis: "dedup",
        reason: "dedup suppresses duplicate push-side enqueues; pull traversal reads instead",
    },
];

impl ScheduleSpace for CpuScheduleSpace {
    fn target_name(&self) -> &'static str {
        "cpu"
    }

    fn dimensions(&self, p: &SpaceParams) -> Vec<Dimension> {
        let directions = if p.ordered {
            vec!["push"]
        } else if p.data_driven {
            vec!["push", "pull", "hybrid"]
        } else {
            vec!["push", "pull"]
        };
        vec![
            Dimension::new("dir", directions),
            Dimension::new("par", vec!["vertex", "edge_aware"]),
            Dimension::new("dedup", vec!["off", "on"]),
            Dimension::new("serial", vec!["0", "512", "4096"]),
            delta_dimension(p),
        ]
    }

    fn materialize(&self, p: &SpaceParams, point: &[usize]) -> Option<ScheduleRef> {
        let dims = self.dimensions(p);
        let level = |i: usize| dims[i].levels[point[i]];
        let mut s = CpuSchedule::new()
            .with_direction(match level(0) {
                "pull" => SchedDirection::Pull,
                "hybrid" => SchedDirection::Hybrid,
                _ => SchedDirection::Push,
            })
            .with_parallelization(match level(1) {
                "edge_aware" => Parallelization::EdgeAwareVertexBased,
                _ => Parallelization::VertexBased,
            })
            .with_deduplication(level(2) == "on")
            .with_serial_threshold(match level(3) {
                "512" => 512,
                "4096" => 4096,
                _ => 0,
            });
        if p.ordered {
            s = s.with_delta(delta_value(point[4]));
        }
        Some(ScheduleRef::simple(s))
    }

    fn prune_rules(&self) -> &'static [PruneRule] {
        CPU_PRUNE_RULES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_baseline() {
        let s = CpuSchedule::new();
        assert_eq!(s.direction(), SchedDirection::Push);
        assert_eq!(s.parallelization(), Parallelization::VertexBased);
        assert!(!s.deduplication());
        assert_eq!(s.delta(), 1);
    }

    #[test]
    fn builder_chains() {
        let s = CpuSchedule::new()
            .with_direction(SchedDirection::Pull)
            .with_deduplication(true)
            .with_serial_threshold(64);
        assert_eq!(s.direction(), SchedDirection::Pull);
        assert!(s.deduplication());
        assert_eq!(s.serial_threshold(), 64);
    }

    #[test]
    fn downcast_from_trait_object() {
        let s: Box<dyn SimpleSchedule> = Box::new(CpuSchedule::new().with_delta(4));
        let c = s.as_any().downcast_ref::<CpuSchedule>().unwrap();
        assert_eq!(c.delta, 4);
    }

    #[test]
    fn space_enumerates_and_materializes() {
        use ugc_schedule::space::{cardinality, PointIter};
        let p = SpaceParams {
            ordered: false,
            data_driven: true,
            num_vertices: 1000,
        };
        let dims = CpuScheduleSpace.dimensions(&p);
        assert_eq!(cardinality(&dims), 3 * 2 * 2 * 3);
        for pt in PointIter::new(&dims) {
            let s = CpuScheduleSpace.materialize(&p, &pt).expect("no aliases");
            assert!(s.as_simple().is_some());
        }
    }

    #[test]
    fn space_pins_direction_for_ordered() {
        let p = SpaceParams {
            ordered: true,
            data_driven: false,
            num_vertices: 1000,
        };
        let dims = CpuScheduleSpace.dimensions(&p);
        assert_eq!(dims[0].levels, vec!["push"]);
        assert_eq!(dims.last().unwrap().levels.len(), 6, "∆ sweep present");
        let s = CpuScheduleSpace.materialize(&p, &[0, 1, 0, 2, 5]).unwrap();
        assert_eq!(s.representative().delta(), 64);
    }
}
