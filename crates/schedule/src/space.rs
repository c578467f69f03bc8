//! Backend-declared schedule search spaces — the substrate of the
//! `ugc-autotune` subsystem.
//!
//! The paper's §IV-A notes that "techniques like autotuning can find
//! high-performance schedules in relatively little time", and the GPU
//! follow-up work shows the GPU schedule space (load balancer × kernel
//! fusion × traversal direction × frontier creation) is too large to tune
//! by hand. This module gives every GraphVM a uniform way to *declare*
//! that space: a [`ScheduleSpace`] names its tunable [`Dimension`]s (each
//! a small set of labeled levels) and materializes any point of the
//! cross-product into a concrete [`ScheduleRef`].
//!
//! The trait lives here — in the hardware-independent scheduling language —
//! so each backend can implement its space next to its schedule type
//! without new dependency edges; the search strategies and the persistent
//! tuning cache live in the `ugc-autotune` crate.
//!
//! # Example
//!
//! ```
//! use ugc_schedule::space::{cardinality, point_label, Dimension};
//!
//! let dims = vec![
//!     Dimension::new("direction", vec!["push", "pull"]),
//!     Dimension::new("dedup", vec!["off", "on"]),
//! ];
//! assert_eq!(cardinality(&dims), 4);
//! assert_eq!(point_label(&dims, &[1, 0]), "direction=pull,dedup=off");
//! ```

use crate::ScheduleRef;

/// Algorithm/graph facts a space may condition its dimensions on.
///
/// Spaces never see the algorithm itself — only the structural traits the
/// scheduling language already keys on: whether the loop is priority-driven
/// (∆ sweeps apply) or frontier-driven (direction choices apply), and the
/// graph size (levels that cannot pay off at a size may be dropped).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpaceParams {
    /// Priority-driven (ordered) algorithm: the ∆ sweep applies and the
    /// traversal direction is pinned to push (ordered pull traversal is
    /// not part of any GraphVM's space).
    pub ordered: bool,
    /// Frontier-driven algorithm: direction choices (pull/hybrid) apply.
    pub data_driven: bool,
    /// `|V|` of the graph being tuned.
    pub num_vertices: usize,
}

/// One tunable axis of a schedule space: a name plus its labeled levels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dimension {
    /// Axis name, e.g. `"lb"` or `"delta"`.
    pub name: &'static str,
    /// Level labels, e.g. `["vertex", "twc", …]`. Never empty.
    pub levels: Vec<&'static str>,
}

impl Dimension {
    /// Creates a dimension. Panics if `levels` is empty (a zero-level axis
    /// would make the whole space empty by accident).
    pub fn new(name: &'static str, levels: Vec<&'static str>) -> Self {
        assert!(!levels.is_empty(), "dimension `{name}` has no levels");
        Dimension { name, levels }
    }
}

/// One row of a backend's cost-model pruning table: when a candidate's
/// dominant attribution component is `component`, sweeping `axis` cannot
/// move that component, so a guided search may skip it.
///
/// Rules are declarative and live next to each backend's
/// [`ScheduleSpace`] (the backend knows which knobs touch which hardware
/// resource); the search engine in `ugc-autotune` consults them after
/// every measured candidate. `reason` is the human-readable justification
/// `repro tune --explain` prints — every pruned axis must be explainable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruneRule {
    /// Dominant attribution component (a key of the backend's attribution
    /// table, e.g. `"mem_stall"`) that triggers this rule.
    pub component: &'static str,
    /// The [`Dimension::name`] whose sweep cannot move that component.
    pub axis: &'static str,
    /// Why the axis cannot help, for the `--explain` report.
    pub reason: &'static str,
}

/// A backend-declared schedule search space.
///
/// Implementations declare their tunable [`Dimension`]s for a given
/// [`SpaceParams`] and build the schedule at any point of the
/// cross-product. The contract the autotuner (and the soundness property
/// test) relies on:
///
/// * `materialize` returns `None` **only** for points that are redundant
///   aliases of another point (e.g. a block-size level while blocking is
///   off), never for unsound ones — every `Some` schedule must compile and
///   produce validator-correct results.
/// * `dimensions` and `materialize` are pure functions of their inputs, so
///   search is deterministic and cached points can be re-materialized.
/// * `prune_rules` only names axes that genuinely cannot move their
///   component: pruning must change search *cost*, not winner *quality*
///   (beyond noise) — the guided-vs-blind property test enforces this.
pub trait ScheduleSpace: Send + Sync {
    /// Display name of the backend, e.g. `"gpu"`.
    fn target_name(&self) -> &'static str;

    /// The tunable dimensions for these parameters, in a fixed order.
    fn dimensions(&self, p: &SpaceParams) -> Vec<Dimension>;

    /// Builds the schedule at `point` (one level index per dimension, same
    /// order as [`ScheduleSpace::dimensions`]). Returns `None` for
    /// redundant-alias points.
    fn materialize(&self, p: &SpaceParams, point: &[usize]) -> Option<ScheduleRef>;

    /// The backend's cost-model pruning table. Empty by default: a space
    /// without rules is searched blind.
    fn prune_rules(&self) -> &'static [PruneRule] {
        &[]
    }
}

/// Number of raw points in the cross-product (before alias removal),
/// saturating at `u64::MAX`.
pub fn cardinality(dims: &[Dimension]) -> u64 {
    dims.iter()
        .map(|d| d.levels.len() as u64)
        .fold(1u64, |a, b| a.saturating_mul(b))
}

/// Human-readable name of a point: `dim=level` pairs joined by commas.
///
/// # Panics
///
/// Panics if `point` does not index `dims` (wrong length or out-of-range
/// level).
pub fn point_label(dims: &[Dimension], point: &[usize]) -> String {
    assert_eq!(dims.len(), point.len(), "point does not match dimensions");
    dims.iter()
        .zip(point)
        .map(|(d, &l)| format!("{}={}", d.name, d.levels[l]))
        .collect::<Vec<_>>()
        .join(",")
}

/// Whether `point` indexes `dims`: one in-range level per dimension. A
/// point stored under an older layout of the space (an axis added or
/// removed since) does not.
pub fn point_fits(dims: &[Dimension], point: &[usize]) -> bool {
    point.len() == dims.len() && point.iter().zip(dims).all(|(&l, d)| l < d.levels.len())
}

/// Odometer iterator over every point of a dimension list, in
/// lexicographic order (last dimension fastest). Deterministic, so
/// exhaustive search visits candidates in a stable order.
#[derive(Debug, Clone)]
pub struct PointIter {
    sizes: Vec<usize>,
    next: Option<Vec<usize>>,
}

impl PointIter {
    /// Iterates the cross-product of `dims`.
    pub fn new(dims: &[Dimension]) -> Self {
        let sizes: Vec<usize> = dims.iter().map(|d| d.levels.len()).collect();
        let next = if sizes.is_empty() || sizes.iter().any(|&s| s == 0) {
            None
        } else {
            Some(vec![0; sizes.len()])
        };
        PointIter { sizes, next }
    }
}

impl Iterator for PointIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        let cur = self.next.clone()?;
        // Advance the odometer.
        let mut n = cur.clone();
        let mut i = n.len();
        loop {
            if i == 0 {
                self.next = None;
                break;
            }
            i -= 1;
            n[i] += 1;
            if n[i] < self.sizes[i] {
                self.next = Some(n);
                break;
            }
            n[i] = 0;
        }
        Some(cur)
    }
}

/// The shared ∆ sweep for priority-driven algorithms: covers every value
/// the paper's hand-tuned schedules use across the four architectures
/// (1, 4, 8, 16, 32, 64).
pub const DELTA_SWEEP: [(&str, i64); 6] = [
    ("1", 1),
    ("4", 4),
    ("8", 8),
    ("16", 16),
    ("32", 32),
    ("64", 64),
];

/// The ∆ dimension: the full sweep for ordered algorithms, a single fixed
/// level otherwise (so point shapes stay uniform per parameter set).
pub fn delta_dimension(p: &SpaceParams) -> Dimension {
    if p.ordered {
        Dimension::new("delta", DELTA_SWEEP.iter().map(|(l, _)| *l).collect())
    } else {
        Dimension::new("delta", vec!["1"])
    }
}

/// The ∆ value at a level index of [`delta_dimension`].
pub fn delta_value(level: usize) -> i64 {
    DELTA_SWEEP[level].1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DefaultSchedule;

    struct ToySpace;

    impl ScheduleSpace for ToySpace {
        fn target_name(&self) -> &'static str {
            "toy"
        }
        fn dimensions(&self, p: &SpaceParams) -> Vec<Dimension> {
            let mut dims = vec![Dimension::new("a", vec!["x", "y", "z"])];
            dims.push(delta_dimension(p));
            dims
        }
        fn materialize(&self, _p: &SpaceParams, point: &[usize]) -> Option<ScheduleRef> {
            // Level "z" aliases "y" in this toy space.
            if point[0] == 2 {
                return None;
            }
            Some(ScheduleRef::simple(DefaultSchedule::new()))
        }
    }

    fn params(ordered: bool) -> SpaceParams {
        SpaceParams {
            ordered,
            data_driven: true,
            num_vertices: 100,
        }
    }

    #[test]
    fn cardinality_is_product() {
        let dims = ToySpace.dimensions(&params(true));
        assert_eq!(cardinality(&dims), 3 * DELTA_SWEEP.len() as u64);
        let dims = ToySpace.dimensions(&params(false));
        assert_eq!(cardinality(&dims), 3);
    }

    #[test]
    fn point_iter_visits_every_point_once() {
        let dims = ToySpace.dimensions(&params(true));
        let pts: Vec<_> = PointIter::new(&dims).collect();
        assert_eq!(pts.len() as u64, cardinality(&dims));
        let mut uniq = pts.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), pts.len());
        assert_eq!(pts[0], vec![0, 0]);
        assert_eq!(pts[1], vec![0, 1], "last dimension advances fastest");
    }

    #[test]
    fn point_iter_on_no_dimensions_is_empty() {
        assert_eq!(PointIter::new(&[]).count(), 0);
    }

    #[test]
    fn labels_are_readable() {
        let dims = ToySpace.dimensions(&params(true));
        assert_eq!(point_label(&dims, &[1, 3]), "a=y,delta=16");
    }

    #[test]
    fn delta_sweep_is_fixed_when_unordered() {
        let d = delta_dimension(&params(false));
        assert_eq!(d.levels, vec!["1"]);
        let d = delta_dimension(&params(true));
        assert_eq!(d.levels.len(), DELTA_SWEEP.len());
        assert_eq!(delta_value(5), 64);
    }

    #[test]
    fn alias_points_materialize_to_none() {
        let p = params(false);
        assert!(ToySpace.materialize(&p, &[2, 0]).is_none());
        assert!(ToySpace.materialize(&p, &[0, 0]).is_some());
    }

    #[test]
    #[should_panic(expected = "no levels")]
    fn empty_dimension_rejected() {
        let _ = Dimension::new("bad", vec![]);
    }
}
