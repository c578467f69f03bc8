//! `ugc-autotune` — schedule-space autotuning for the UGC GraphVMs.
//!
//! The paper's thesis is that a small scheduling language spans wildly
//! different architectures; the practical consequence is that every
//! (target, algorithm, graph) triple has a *search space* of schedules,
//! not a single right answer. This crate turns that space into a
//! subsystem:
//!
//! 1. **Backend-declared spaces.** Each GraphVM's schedule type implements
//!    [`ugc_schedule::space::ScheduleSpace`], enumerating its tunable
//!    dimensions (direction, load balancer, kernel fusion, task
//!    granularity, blocked access, ∆ …). [`space_for`] is the registry.
//! 2. **Deterministic search.** [`search::tune`] runs exhaustive
//!    enumeration for small spaces and seeded random-restart coordinate
//!    descent for large ones; same seed, same winner.
//! 3. **A persistent cache.** [`cache::TuningCache`] stores winners as
//!    JSON lines keyed by (target, algorithm, dataset fingerprint,
//!    scale), so a second tuning run re-materializes the winner without
//!    re-measuring anything.
//!
//! The cost signal is pluggable: callers hand [`search::tune`] a closure.
//! The bench harness passes one built on `ugc_bench::try_measure`.

pub mod cache;
pub mod search;

pub use cache::{graph_fingerprint, CacheEntry, CacheKey, GraphShape, TuningCache};
pub use search::{
    tune, tune_warm, AxisPrune, Ranked, Sample, Strategy, TuneError, TuneOutcome, Tuner,
    DOMINANCE_THRESHOLD,
};

use ugc::{Algorithm, Target};
use ugc_backend_cpu::CpuScheduleSpace;
use ugc_backend_gpu::GpuScheduleSpace;
use ugc_backend_hb::HbScheduleSpace;
use ugc_backend_swarm::SwarmScheduleSpace;
use ugc_graph::Graph;
use ugc_schedule::space::{point_fits, ScheduleSpace, SpaceParams};
use ugc_schedule::ScheduleRef;

/// The declared search space for `target` — the GraphVM registry.
pub fn space_for(target: Target) -> &'static dyn ScheduleSpace {
    match target {
        Target::Cpu => &CpuScheduleSpace,
        Target::Gpu => &GpuScheduleSpace,
        Target::Swarm => &SwarmScheduleSpace,
        Target::HammerBlade => &HbScheduleSpace,
    }
}

/// Space parameters for tuning `algo` on `graph`: SSSP is ordered (so ∆
/// sweeps open up and pull-direction points close down); BFS and BC are
/// data-driven (frontier-based), which unlocks hybrid traversal.
pub fn space_params(algo: Algorithm, graph: &Graph) -> SpaceParams {
    SpaceParams {
        ordered: matches!(algo, Algorithm::Sssp),
        // TC and LP are topology-driven full sweeps, and k-core's peel
        // sets are filter products rather than tracked frontiers, so all
        // three prune the frontier-representation dimensions like PR/CC.
        data_driven: matches!(algo, Algorithm::Bfs | Algorithm::Bc),
        num_vertices: graph.num_vertices(),
    }
}

/// How a tuning request was satisfied.
#[derive(Debug)]
pub enum Tuned {
    /// The persistent cache held a winner; nothing was measured.
    Cached {
        /// The stored record.
        entry: CacheEntry,
        /// The winner re-materialized from the space (or from the pinned
        /// list for pinned winners). `None` if the space no longer
        /// contains the stored point — callers should then re-tune.
        schedule: Option<ScheduleRef>,
    },
    /// A fresh search ran; the full ranking is available.
    Fresh(TuneOutcome),
}

impl Tuned {
    /// The winning schedule, if one is available without re-tuning.
    pub fn schedule(&self) -> Option<&ScheduleRef> {
        match self {
            Tuned::Cached { schedule, .. } => schedule.as_ref(),
            Tuned::Fresh(out) => Some(&out.winner().schedule),
        }
    }

    /// The winner's label.
    pub fn winner_name(&self) -> &str {
        match self {
            Tuned::Cached { entry, .. } => &entry.winner,
            Tuned::Fresh(out) => &out.winner().name,
        }
    }
}

/// Tunes with an optional persistent cache: a hit returns the stored
/// winner without invoking `eval` at all; a miss runs [`search::tune_warm`]
/// — warm-started from the cached winner of the nearest-[`GraphShape`]
/// neighbour under the same (target, algorithm), when one exists — and
/// stores the winner under `key` together with `shape`.
///
/// # Errors
///
/// Propagates [`TuneError`] from the search; cache write failures are
/// also surfaced as [`TuneError::Cache`] (the search result is lost, so
/// callers see the problem rather than silently losing persistence).
pub fn tune_cached<E>(
    space: &dyn ScheduleSpace,
    params: &SpaceParams,
    pinned: &[(String, ScheduleRef)],
    tuner: &Tuner,
    mut cache: Option<&mut TuningCache>,
    key: &CacheKey,
    shape: &GraphShape,
    eval: E,
) -> Result<Tuned, TuneError>
where
    E: FnMut(&ScheduleRef) -> Result<Sample, String>,
{
    if let Some(cache) = cache.as_deref() {
        if let Some(entry) = cache.get(key) {
            let schedule = if entry.point.is_empty() {
                pinned
                    .iter()
                    .find(|(name, _)| *name == entry.winner)
                    .map(|(_, s)| s.clone())
            } else if point_fits(&space.dimensions(params), &entry.point) {
                space.materialize(params, &entry.point)
            } else {
                None
            };
            if let Some(schedule) = schedule {
                return Ok(Tuned::Cached {
                    entry: entry.clone(),
                    schedule: Some(schedule),
                });
            }
            // A stale entry (space shape changed, pinned name gone):
            // fall through and re-tune.
        }
    }

    // Exact key missed: borrow the nearest structural neighbour's winner
    // as the warm-start point (greedy descent validates it).
    let warm = cache.as_deref().and_then(|c| {
        c.nearest(&key.target, &key.algo, shape)
            .filter(|e| !e.point.is_empty())
            .map(|e| e.point.clone())
    });

    let outcome = tune_warm(space, params, pinned, tuner, warm.as_deref(), eval)?;
    if let Some(cache) = cache.as_deref_mut() {
        let w = outcome.winner();
        cache
            .put(CacheEntry {
                key: key.clone(),
                winner: w.name.clone(),
                point: w.point.clone().unwrap_or_default(),
                time_ms: w.sample.time_ms,
                cycles: w.sample.cycles,
                explored: outcome.explored,
                seed: tuner.seed,
                profile: w.sample.attribution.summary(),
                shape: shape.clone(),
            })
            .map_err(TuneError::Cache)?;
    }
    Ok(Tuned::Fresh(outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use ugc_schedule::space::cardinality;

    fn tiny_graph() -> Graph {
        Graph::from_edges(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
    }

    #[test]
    fn registry_covers_all_targets_and_spaces_are_nonempty() {
        let g = tiny_graph();
        for target in Target::ALL {
            let space = space_for(target);
            for algo in [Algorithm::Bfs, Algorithm::Sssp, Algorithm::PageRank] {
                let p = space_params(algo, &g);
                let dims = space.dimensions(&p);
                assert!(
                    cardinality(&dims) >= 2,
                    "{} space for {} too small",
                    space.target_name(),
                    algo.name()
                );
            }
        }
    }

    #[test]
    fn gpu_bfs_space_has_at_least_twenty_candidates() {
        let g = tiny_graph();
        let p = space_params(Algorithm::Bfs, &g);
        let space = space_for(Target::Gpu);
        let dims = space.dimensions(&p);
        let distinct = ugc_schedule::space::PointIter::new(&dims)
            .filter(|pt| space.materialize(&p, pt).is_some())
            .count();
        assert!(distinct >= 20, "only {distinct} candidates");
    }

    #[test]
    fn second_tune_run_hits_the_cache_without_measuring() {
        let g = tiny_graph();
        let p = space_params(Algorithm::Bfs, &g);
        let space = space_for(Target::HammerBlade);
        let key = CacheKey {
            target: "hb".to_string(),
            algo: "BFS".to_string(),
            fingerprint: graph_fingerprint(&g),
            scale: "tiny".to_string(),
        };
        let path = std::env::temp_dir()
            .join("ugc-autotune-lib-test")
            .join("cache.jsonl");
        let _ = std::fs::remove_file(&path);
        let tuner = Tuner {
            budget: 8,
            seed: 3,
            ..Tuner::default()
        };

        let evals = Cell::new(0usize);
        let fake_eval = |s: &ScheduleRef| {
            evals.set(evals.get() + 1);
            // Deterministic synthetic cost so the test is instant.
            Ok(Sample {
                time_ms: 1.0 + s.representative().delta() as f64,
                cycles: 1,
                ..Sample::default()
            })
        };

        let shape = GraphShape::of(&g);
        let mut cache = TuningCache::open(&path).unwrap();
        let first = tune_cached(
            space,
            &p,
            &[],
            &tuner,
            Some(&mut cache),
            &key,
            &shape,
            fake_eval,
        )
        .unwrap();
        assert!(matches!(first, Tuned::Fresh(_)));
        let measured = evals.get();
        assert!(measured > 0);

        // Re-open (fresh process simulation) and tune again: cache hit,
        // zero evaluations.
        let mut cache = TuningCache::open(&path).unwrap();
        let second = tune_cached(
            space,
            &p,
            &[],
            &tuner,
            Some(&mut cache),
            &key,
            &shape,
            |s| {
                evals.set(evals.get() + 1);
                Ok(Sample {
                    time_ms: 1.0 + s.representative().delta() as f64,
                    cycles: 1,
                    ..Sample::default()
                })
            },
        )
        .unwrap();
        assert_eq!(evals.get(), measured, "cache hit must not re-measure");
        match &second {
            Tuned::Cached { entry, schedule } => {
                assert_eq!(entry.winner, first.winner_name());
                assert!(schedule.is_some());
            }
            Tuned::Fresh(_) => panic!("expected a cache hit"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cached_point_of_an_older_space_layout_is_retuned() {
        // SSSP's CPU space reads its ∆ from the last index; a point with
        // one axis more than the space has must not be read with it.
        let g = tiny_graph();
        let p = space_params(Algorithm::Sssp, &g);
        let space = space_for(Target::Cpu);
        let dims = space.dimensions(&p);
        let key = CacheKey {
            target: "cpu".to_string(),
            algo: "SSSP".to_string(),
            fingerprint: graph_fingerprint(&g),
            scale: "tiny".to_string(),
        };
        let path = std::env::temp_dir()
            .join("ugc-autotune-lib-test-stale")
            .join("cache.jsonl");
        let _ = std::fs::remove_file(&path);
        let shape = GraphShape::of(&g);
        let mut cache = TuningCache::open(&path).unwrap();
        cache
            .put(CacheEntry {
                key: key.clone(),
                winner: "stale".to_string(),
                point: vec![0; dims.len() + 1],
                time_ms: 1.0,
                cycles: 0,
                explored: 1,
                seed: 0,
                profile: String::new(),
                shape: shape.clone(),
            })
            .unwrap();
        let tuner = Tuner {
            budget: 4,
            seed: 3,
            ..Tuner::default()
        };
        let out = tune_cached(
            space,
            &p,
            &[],
            &tuner,
            Some(&mut cache),
            &key,
            &shape,
            |_| {
                Ok(Sample {
                    time_ms: 1.0,
                    cycles: 1,
                    ..Sample::default()
                })
            },
        )
        .unwrap();
        assert!(matches!(out, Tuned::Fresh(_)), "stale point was reused");
        let _ = std::fs::remove_file(&path);
    }
}
