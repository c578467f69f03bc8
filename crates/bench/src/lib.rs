//! The benchmark harness shared by the `harness = false` benches and the
//! `repro` binary that regenerates every table and figure of the paper.
//! Timing/reporting lives in [`harness`] — the in-tree, offline
//! replacement for Criterion (warmup + median-of-N + JSON lines).
//!
//! The key ingredient is [`tuned_schedule`]: the per-(architecture,
//! algorithm, graph-class) schedules of the paper's §IV-A ("we tune the
//! schedules for each application and graph pair, but always compile from
//! exactly the same algorithm specification"). [`baseline_schedule`] is
//! each GraphVM's default.

pub mod harness;
pub mod profile;

pub use harness::{Harness, Stats};
pub use profile::{attribution_from, profile_backend, Attribution};
pub use ugc_autotune::{Strategy, TuneError, TuneOutcome, Tuned, Tuner};

use std::path::Path;

use ugc::{Algorithm, Compiler, Target};
use ugc_autotune::{
    graph_fingerprint, space_for, space_params, tune_cached, tune_warm, CacheKey, GraphShape,
    Sample, TuningCache,
};
use ugc_backend_cpu::CpuSchedule;
use ugc_backend_gpu::{FrontierCreation, GpuSchedule, LoadBalance};
use ugc_backend_hb::{HbLoadBalance, HbSchedule};
use ugc_backend_swarm::{Frontiers, SwarmSchedule, TaskGranularity};
use ugc_graph::stats::DegreeProfile;
use ugc_graph::{Dataset, Graph, Scale};
use ugc_schedule::{Parallelization, SchedDirection, ScheduleRef};

/// The baseline (default) schedule of a GraphVM, as used for the
/// "unoptimized" bars of Fig. 8. The HammerBlade baseline uses hybrid
/// traversal for the data-driven algorithms, exactly as §IV-D notes.
pub fn baseline_schedule(target: Target, algo: Algorithm) -> ScheduleRef {
    match target {
        Target::Cpu => ScheduleRef::simple(CpuSchedule::new()),
        Target::Gpu => ScheduleRef::simple(GpuSchedule::new()),
        Target::Swarm => ScheduleRef::simple(SwarmSchedule::new()),
        Target::HammerBlade => {
            let mut s = HbSchedule::new();
            if matches!(algo, Algorithm::Bfs | Algorithm::Bc | Algorithm::Sssp) {
                s = s.with_direction(SchedDirection::Hybrid);
            }
            ScheduleRef::simple(s)
        }
    }
}

/// The hand-tuned schedule for a (target, algorithm, graph-class) triple —
/// the paper's optimized configurations (§IV-C/D/E). Tuning is per graph,
/// so [`tuned_schedule_for`] (which also sees the graph size) should be
/// preferred; this variant assumes a paper-scale graph.
pub fn tuned_schedule(target: Target, algo: Algorithm, profile: DegreeProfile) -> ScheduleRef {
    tuned_schedule_sized(target, algo, profile, usize::MAX)
}

/// Per-graph tuned schedule.
pub fn tuned_schedule_for(target: Target, algo: Algorithm, graph: &Graph) -> ScheduleRef {
    tuned_schedule_sized(
        target,
        algo,
        ugc_graph::stats::classify(graph),
        graph.num_vertices(),
    )
}

fn tuned_schedule_sized(
    target: Target,
    algo: Algorithm,
    profile: DegreeProfile,
    num_vertices: usize,
) -> ScheduleRef {
    let social = profile == DegreeProfile::PowerLaw;
    match target {
        Target::Cpu => {
            let s =
                match algo {
                    Algorithm::Bfs | Algorithm::Bc => {
                        if social {
                            CpuSchedule::new()
                                .with_direction(SchedDirection::Hybrid)
                                .with_parallelization(Parallelization::EdgeAwareVertexBased)
                        } else {
                            CpuSchedule::new().with_serial_threshold(2048)
                        }
                    }
                    // Topology-driven full sweeps run DensePull: each
                    // destination is owned by one worker, so the midend drops
                    // the reduction's atomic.
                    Algorithm::PageRank | Algorithm::Lp => {
                        CpuSchedule::new().with_direction(SchedDirection::Pull)
                    }
                    Algorithm::Cc => CpuSchedule::new()
                        .with_parallelization(Parallelization::EdgeAwareVertexBased),
                    Algorithm::Sssp => {
                        if social {
                            // Low-diameter graphs want fine buckets (measured:
                            // larger ∆ only adds re-relaxation work on CPUs).
                            CpuSchedule::new()
                                .with_delta(1)
                                .with_parallelization(Parallelization::EdgeAwareVertexBased)
                        } else {
                            CpuSchedule::new()
                                .with_delta(64)
                                .with_serial_threshold(4096)
                        }
                    }
                    // Per-edge intersection cost scales with the endpoint degree
                    // sum, so skewed graphs need edge-aware chunking.
                    Algorithm::Tc => CpuSchedule::new()
                        .with_parallelization(Parallelization::EdgeAwareVertexBased),
                    // Peel frontiers are small; serialize them below threshold
                    // on bounded-degree graphs, balance by edges on skewed ones.
                    Algorithm::KCore => {
                        if social {
                            CpuSchedule::new()
                                .with_parallelization(Parallelization::EdgeAwareVertexBased)
                        } else {
                            CpuSchedule::new().with_serial_threshold(2048)
                        }
                    }
                };
            ScheduleRef::simple(s)
        }
        Target::Gpu => {
            // Small graphs are kernel-launch-bound, so per-graph tuning
            // also fuses the social-graph schedules there.
            let launch_bound = num_vertices < 16_384;
            let s = match algo {
                Algorithm::Bfs | Algorithm::Bc => {
                    if social {
                        GpuSchedule::new()
                            .with_direction(SchedDirection::Hybrid)
                            .with_load_balance(LoadBalance::Twc)
                            .with_frontier_creation(FrontierCreation::Fused)
                            .with_kernel_fusion(launch_bound)
                    } else {
                        GpuSchedule::new()
                            .with_kernel_fusion(true)
                            .with_frontier_creation(FrontierCreation::Fused)
                    }
                }
                Algorithm::PageRank => {
                    // EdgeBlocking pays off once the rank arrays exceed the
                    // L2; below that the per-block scans are pure overhead
                    // (per-graph tuning, §IV-A).
                    let s = GpuSchedule::new().with_load_balance(LoadBalance::Etwc);
                    if num_vertices >= 1 << 17 {
                        s.with_edge_blocking(1 << 13)
                    } else {
                        s
                    }
                }
                Algorithm::Cc => GpuSchedule::new().with_load_balance(LoadBalance::Etwc),
                Algorithm::Sssp => {
                    if social {
                        GpuSchedule::new()
                            .with_delta(8)
                            .with_load_balance(LoadBalance::Twc)
                            .with_kernel_fusion(launch_bound)
                    } else {
                        GpuSchedule::new().with_delta(64).with_kernel_fusion(true)
                    }
                }
                // Intersection work per edge is degree-sum-skewed: TWC
                // binning keeps warps off the heavy tails.
                Algorithm::Tc => GpuSchedule::new().with_load_balance(LoadBalance::Twc),
                // Many tiny peel rounds: fused frontier creation, and fuse
                // kernels outright when the graph is launch-bound.
                Algorithm::KCore => GpuSchedule::new()
                    .with_frontier_creation(FrontierCreation::Fused)
                    .with_kernel_fusion(launch_bound),
                // Full-sweep label exchange, same regime as CC.
                Algorithm::Lp => GpuSchedule::new().with_load_balance(LoadBalance::Etwc),
            };
            ScheduleRef::simple(s)
        }
        Target::Swarm => {
            let s = match algo {
                Algorithm::Bfs => SwarmSchedule::new()
                    .with_frontiers(Frontiers::VertexsetToTasks)
                    .with_task_granularity(TaskGranularity::FineGrained),
                Algorithm::Sssp => SwarmSchedule::new()
                    .with_frontiers(Frontiers::VertexsetToTasks)
                    .with_task_granularity(TaskGranularity::FineGrained)
                    .with_delta(if social { 4 } else { 16 }),
                Algorithm::PageRank => {
                    // Fine splitting pays off on high-in-degree (social)
                    // graphs (§IV-E); road graphs keep coarse tasks.
                    if social {
                        SwarmSchedule::new().with_task_granularity(TaskGranularity::FineGrained)
                    } else {
                        SwarmSchedule::new()
                    }
                }
                // Label propagation's tiny updates don't repay task
                // splitting in this model; per-graph tuning keeps the
                // default (measured — a deviation from the paper's CC
                // gains, noted in EXPERIMENTS.md).
                Algorithm::Cc => SwarmSchedule::new(),
                Algorithm::Bc => {
                    SwarmSchedule::new().with_task_granularity(TaskGranularity::FineGrained)
                }
                // Intersection tasks are heavy and uneven on skewed graphs;
                // bounded-degree graphs keep coarse tasks.
                Algorithm::Tc => {
                    if social {
                        SwarmSchedule::new().with_task_granularity(TaskGranularity::FineGrained)
                    } else {
                        SwarmSchedule::new()
                    }
                }
                // Peel sets are natural task sources.
                Algorithm::KCore => SwarmSchedule::new()
                    .with_frontiers(Frontiers::VertexsetToTasks)
                    .with_task_granularity(TaskGranularity::FineGrained),
                // Tiny label updates don't repay splitting (same finding as
                // CC above).
                Algorithm::Lp => SwarmSchedule::new(),
            };
            ScheduleRef::simple(s)
        }
        Target::HammerBlade => {
            let s = match algo {
                Algorithm::Bfs | Algorithm::Bc | Algorithm::Cc => {
                    // Aligned blocks need enough line-disjoint work units to
                    // keep 128 cores busy; tiny graphs fall back to
                    // degree-balanced chunks (per-graph tuning, §IV-A).
                    let lb = if num_vertices >= 4096 {
                        HbLoadBalance::Aligned
                    } else {
                        HbLoadBalance::EdgeBased
                    };
                    HbSchedule::new()
                        .with_direction(if matches!(algo, Algorithm::Bfs | Algorithm::Bc) {
                            SchedDirection::Hybrid
                        } else {
                            SchedDirection::Push
                        })
                        .with_load_balance(lb)
                }
                Algorithm::PageRank => HbSchedule::new()
                    .with_blocked_access(true)
                    .with_block_size(64),
                Algorithm::Sssp => HbSchedule::new()
                    .with_direction(SchedDirection::Hybrid)
                    .with_blocked_access(true)
                    .with_block_size(64)
                    .with_delta(if social { 8 } else { 32 }),
                // Adjacency-merge work per edge varies wildly; edge-based
                // chunks balance the manycore tiles.
                Algorithm::Tc => HbSchedule::new().with_load_balance(HbLoadBalance::EdgeBased),
                Algorithm::KCore => {
                    // Peel rounds shrink fast; aligned blocks only pay off
                    // once there are enough surviving vertices per round.
                    // Below that the default balancer already wins —
                    // edge-based chunking just adds bookkeeping.
                    let lb = if num_vertices >= 4096 {
                        HbLoadBalance::Aligned
                    } else {
                        HbLoadBalance::default()
                    };
                    HbSchedule::new().with_load_balance(lb)
                }
                // Regular full sweeps benefit from blocked vector access,
                // same as PageRank.
                Algorithm::Lp => HbSchedule::new()
                    .with_blocked_access(true)
                    .with_block_size(64),
            };
            ScheduleRef::simple(s)
        }
    }
}

/// Runs `(target, algo)` on `graph` with the given schedule, returning the
/// target-appropriate time and the run's attribution. CPU runs take the
/// fastest of `cpu_reps` repeats.
///
/// # Errors
///
/// Returns the compile/execution error message on failure.
pub fn try_measure(
    target: Target,
    algo: Algorithm,
    graph: &Graph,
    sched: ScheduleRef,
    cpu_reps: u32,
) -> Result<Sample, String> {
    let mut compiler = Compiler::new(algo);
    compiler.schedule(algo.schedule_path(), sched);
    if algo.needs_start_vertex() {
        compiler.start_vertex(0);
    }
    let run = || compiler.run(target, graph).map_err(|e| e.to_string());
    let mut best = run()?;
    if target == Target::Cpu {
        for _ in 1..cpu_reps {
            let r = run()?;
            if r.time_ms < best.time_ms {
                best = r;
            }
        }
    }
    Ok(Sample {
        time_ms: best.time_ms,
        cycles: best.cycles,
        attribution: best.attribution,
    })
}

/// Like [`try_measure`], for call sites where failure is a bug.
///
/// # Panics
///
/// Panics if compilation or execution fails (bench configurations must be
/// valid).
pub fn measure(
    target: Target,
    algo: Algorithm,
    graph: &Graph,
    sched: ScheduleRef,
    cpu_reps: u32,
) -> Sample {
    try_measure(target, algo, graph, sched, cpu_reps).expect("bench run")
}

/// The speedup of the hand-tuned schedule ([`tuned_schedule_for`]) over the
/// baseline schedule — one cell of the Fig. 8 heatmap.
pub fn fig8_cell(target: Target, algo: Algorithm, dataset: Dataset, scale: Scale) -> f64 {
    let graph = dataset.generate(scale);
    let base = measure(target, algo, &graph, baseline_schedule(target, algo), 3);
    let tuned = measure(
        target,
        algo,
        &graph,
        tuned_schedule_for(target, algo, &graph),
        3,
    );
    base.time_ms / tuned.time_ms
}

/// The reference candidates every tuning run must also measure: the
/// GraphVM's default schedule and the hand-tuned one. Because the search
/// ranks these alongside the space's own points, the winner can never be
/// slower than either.
pub fn pinned_candidates(
    target: Target,
    algo: Algorithm,
    graph: &Graph,
) -> Vec<(String, ScheduleRef)> {
    vec![
        ("baseline".to_string(), baseline_schedule(target, algo)),
        (
            "hand_tuned".to_string(),
            tuned_schedule_for(target, algo, graph),
        ),
    ]
}

/// Autotunes `(target, algo)` on `graph` over the backend's declared
/// search space (the paper's §IV-A notes "techniques like autotuning can
/// find high-performance schedules in relatively little time" — with
/// deterministic simulators, exhaustive search is exact and the seeded
/// greedy search is reproducible).
///
/// # Errors
///
/// Returns [`TuneError`] if the space is empty or every candidate fails —
/// an empty candidate list is a typed error here, not a panic.
pub fn autotune(
    target: Target,
    algo: Algorithm,
    graph: &Graph,
    tuner: &Tuner,
) -> Result<TuneOutcome, TuneError> {
    let params = space_params(algo, graph);
    let pinned = pinned_candidates(target, algo, graph);
    ugc_autotune::tune(space_for(target), &params, &pinned, tuner, |s| {
        try_measure(target, algo, graph, s.clone(), 2)
    })
}

/// [`autotune`] with an explicit warm-start point: the entry point for
/// fingerprint-transfer experiments, where the caller carries a donor
/// graph's winner over directly instead of going through a cache file.
/// An invalid point falls back to a cold random restart (the search
/// validates it), so a stale donor can never break the run.
///
/// # Errors
///
/// Returns [`TuneError`] if the space is empty or every candidate fails.
pub fn autotune_warm(
    target: Target,
    algo: Algorithm,
    graph: &Graph,
    tuner: &Tuner,
    warm: Option<&[usize]>,
) -> Result<TuneOutcome, TuneError> {
    let params = space_params(algo, graph);
    let pinned = pinned_candidates(target, algo, graph);
    tune_warm(space_for(target), &params, &pinned, tuner, warm, |s| {
        try_measure(target, algo, graph, s.clone(), 2)
    })
}

/// Cache-aware autotuning of a generated dataset: a second call with the
/// same (target, algo, dataset, scale) and cache file returns the stored
/// winner without re-measuring anything.
///
/// # Errors
///
/// Returns [`TuneError`] from the search or from an unreadable/unwritable
/// cache file.
pub fn tune_dataset(
    target: Target,
    algo: Algorithm,
    dataset: Dataset,
    scale: Scale,
    tuner: &Tuner,
    cache_path: Option<&Path>,
) -> Result<Tuned, TuneError> {
    let graph = dataset.generate(scale);
    let params = space_params(algo, &graph);
    let pinned = pinned_candidates(target, algo, &graph);
    let key = CacheKey {
        target: space_for(target).target_name().to_string(),
        algo: algo.name().to_string(),
        fingerprint: graph_fingerprint(&graph),
        scale: scale.name().to_string(),
    };
    let shape = GraphShape::of(&graph);
    let mut cache = match cache_path {
        Some(p) => Some(TuningCache::open(p).map_err(TuneError::Cache)?),
        None => None,
    };
    tune_cached(
        space_for(target),
        &params,
        &pinned,
        tuner,
        cache.as_mut(),
        &key,
        &shape,
        |s| try_measure(target, algo, &graph, s.clone(), 2),
    )
}

/// Parses the harness scale flag.
///
/// # Errors
///
/// Returns a usage message naming the accepted values.
pub fn parse_scale(s: &str) -> Result<Scale, String> {
    match s {
        "tiny" => Ok(Scale::Tiny),
        "small" => Ok(Scale::Small),
        "medium" => Ok(Scale::Medium),
        other => Err(format!(
            "unknown scale `{other}` (expected tiny|small|medium)"
        )),
    }
}

/// Parses a target name as spelled on the `repro -- tune` CLI.
///
/// # Errors
///
/// Returns a usage message naming the accepted values.
pub fn parse_target(s: &str) -> Result<Target, String> {
    Target::from_cli_name(s).ok_or_else(|| {
        format!(
            "unknown target `{}` (expected cpu|gpu|swarm|hb)",
            s.to_ascii_lowercase()
        )
    })
}

/// Parses an algorithm name as spelled on the `repro -- tune` CLI. Unknown
/// spellings get a did-you-mean suggestion when one is close.
///
/// # Errors
///
/// Returns a usage message naming the accepted values.
pub fn parse_algo(s: &str) -> Result<Algorithm, String> {
    if let Some(algo) = Algorithm::from_cli_name(s) {
        return Ok(algo);
    }
    let mut msg = format!("unknown algorithm `{s}` (expected pr|bfs|sssp|cc|bc|tc|kcore|lp)");
    if let Some(hint) = Algorithm::suggest_cli_name(s) {
        msg.push_str(&format!("; did you mean `{hint}`?"));
    }
    Err(msg)
}

/// Parses the `--profile` flag value: one backend name or `all`.
///
/// # Errors
///
/// Returns a usage message naming the accepted values.
pub fn parse_profile(s: &str) -> Result<Vec<Target>, String> {
    if s.eq_ignore_ascii_case("all") {
        return Ok(Target::ALL.to_vec());
    }
    parse_target(s)
        .map(|t| vec![t])
        .map_err(|_| format!("unknown profile `{s}` (expected cpu|gpu|swarm|hb|all)"))
}

/// Parses a dataset abbreviation (Table VIII's RN/RC/RU/PK/HW/LJ/OK/IC/TW/SW).
///
/// # Errors
///
/// Returns a usage message listing the known abbreviations.
pub fn parse_dataset(s: &str) -> Result<Dataset, String> {
    let up = s.to_ascii_uppercase();
    Dataset::ALL
        .into_iter()
        .find(|d| d.abbrev() == up)
        .ok_or_else(|| {
            let known: Vec<&str> = Dataset::ALL.iter().map(|d| d.abbrev()).collect();
            format!(
                "unknown dataset `{s}` (expected one of {})",
                known.join("|")
            )
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuned_schedules_exist_for_every_combination() {
        for target in Target::ALL {
            for algo in Algorithm::ALL {
                for profile in [DegreeProfile::PowerLaw, DegreeProfile::Bounded] {
                    let _ = tuned_schedule(target, algo, profile);
                    let _ = baseline_schedule(target, algo);
                }
            }
        }
    }

    #[test]
    fn fig8_cell_runs_and_is_positive() {
        let s = fig8_cell(Target::Gpu, Algorithm::Bfs, Dataset::RoadNetCa, Scale::Tiny);
        assert!(s > 0.0, "{s}");
    }

    #[test]
    fn autotune_never_loses_to_baseline_or_hand_tuned() {
        let g = Dataset::RoadNetCa.generate(Scale::Tiny);
        let tuner = Tuner {
            budget: 24,
            seed: 7,
            ..Tuner::default()
        };
        for target in [Target::Gpu, Target::Swarm] {
            let out = autotune(target, Algorithm::Bfs, &g, &tuner).expect("tunes");
            let winner = out.winner();
            for pin in ["baseline", "hand_tuned"] {
                let pinned = out.find(pin).expect("pinned candidate was measured");
                assert!(
                    winner.sample.time_ms <= pinned.sample.time_ms,
                    "{}: winner {} ({}) worse than {pin} ({})",
                    target.name(),
                    winner.name,
                    winner.sample.time_ms,
                    pinned.sample.time_ms
                );
            }
        }
    }

    #[test]
    fn autotune_is_deterministic_for_a_seed() {
        let g = Dataset::Pokec.generate(Scale::Tiny);
        let tuner = Tuner {
            budget: 12,
            seed: 42,
            ..Tuner::default()
        };
        let a = autotune(Target::HammerBlade, Algorithm::Bfs, &g, &tuner).expect("tunes");
        let b = autotune(Target::HammerBlade, Algorithm::Bfs, &g, &tuner).expect("tunes");
        assert_eq!(a.winner().name, b.winner().name);
        assert_eq!(a.explored, b.explored);
    }

    #[test]
    fn tune_dataset_second_run_hits_the_cache() {
        let path = std::env::temp_dir()
            .join("ugc-bench-tune-test")
            .join("cache.jsonl");
        let _ = std::fs::remove_file(&path);
        let tuner = Tuner {
            budget: 6,
            seed: 3,
            ..Tuner::default()
        };
        let first = tune_dataset(
            Target::Swarm,
            Algorithm::Bfs,
            Dataset::RoadNetCa,
            Scale::Tiny,
            &tuner,
            Some(&path),
        )
        .expect("tunes");
        assert!(matches!(first, Tuned::Fresh(_)));
        let second = tune_dataset(
            Target::Swarm,
            Algorithm::Bfs,
            Dataset::RoadNetCa,
            Scale::Tiny,
            &tuner,
            Some(&path),
        )
        .expect("tunes");
        match second {
            Tuned::Cached { entry, schedule } => {
                assert_eq!(entry.winner, first.winner_name());
                assert!(schedule.is_some());
            }
            Tuned::Fresh(_) => panic!("expected a cache hit"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn parse_helpers_accept_and_reject() {
        assert_eq!(parse_scale("tiny"), Ok(Scale::Tiny));
        assert!(parse_scale("huge").unwrap_err().contains("huge"));
        assert_eq!(parse_target("hb"), Ok(Target::HammerBlade));
        assert!(parse_target("tpu").is_err());
        assert_eq!(parse_algo("sssp"), Ok(Algorithm::Sssp));
        assert!(parse_algo("apsp").is_err());
        assert_eq!(parse_dataset("pk"), Ok(Dataset::Pokec));
        assert!(parse_dataset("zz").unwrap_err().contains("RN|RC"));
    }

    #[test]
    fn measure_cpu_and_sim() {
        let g = Dataset::Pokec.generate(Scale::Tiny);
        let cpu = measure(
            Target::Cpu,
            Algorithm::Bfs,
            &g,
            baseline_schedule(Target::Cpu, Algorithm::Bfs),
            2,
        );
        assert!(cpu.time_ms > 0.0);
        assert_eq!(cpu.cycles, 0);
        let gpu = measure(
            Target::Gpu,
            Algorithm::Bfs,
            &g,
            baseline_schedule(Target::Gpu, Algorithm::Bfs),
            1,
        );
        assert!(gpu.cycles > 0);
    }
}
