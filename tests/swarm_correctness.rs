//! Swarm GraphVM correctness: every algorithm × the Swarm scheduling space
//! on the speculative-task simulator, validated against references.

use ugc_algorithms::Algorithm;
use ugc_backend_swarm::{Frontiers, SwarmGraphVm, SwarmSchedule, TaskGranularity};
use ugc_integration::{compile, externs_for, run_and_validate};
use ugc_runtime::GraphVm;
use ugc_schedule::ScheduleRef;

#[test]
fn all_algorithms_default_schedule() {
    for algo in Algorithm::ALL {
        run_and_validate::<SwarmGraphVm>(algo, None);
    }
}

#[test]
fn bfs_vertexset_to_tasks() {
    run_and_validate::<SwarmGraphVm>(
        Algorithm::Bfs,
        Some(ScheduleRef::simple(
            SwarmSchedule::new().with_frontiers(Frontiers::VertexsetToTasks),
        )),
    );
}

#[test]
fn bfs_fine_grained_hints() {
    run_and_validate::<SwarmGraphVm>(
        Algorithm::Bfs,
        Some(ScheduleRef::simple(
            SwarmSchedule::new()
                .with_frontiers(Frontiers::VertexsetToTasks)
                .with_task_granularity(TaskGranularity::FineGrained),
        )),
    );
}

#[test]
fn cc_fine_grained_buffered() {
    run_and_validate::<SwarmGraphVm>(
        Algorithm::Cc,
        Some(ScheduleRef::simple(
            SwarmSchedule::new().with_task_granularity(TaskGranularity::FineGrained),
        )),
    );
}

#[test]
fn sssp_tasks_with_delta() {
    for delta in [1, 8] {
        run_and_validate::<SwarmGraphVm>(
            Algorithm::Sssp,
            Some(ScheduleRef::simple(
                SwarmSchedule::new()
                    .with_frontiers(Frontiers::VertexsetToTasks)
                    .with_delta(delta),
            )),
        );
    }
}

#[test]
fn pagerank_shuffled_edges() {
    run_and_validate::<SwarmGraphVm>(
        Algorithm::PageRank,
        Some(ScheduleRef::simple(
            SwarmSchedule::new().with_shuffle_edges(true),
        )),
    );
}

#[test]
fn bc_buffered_only() {
    // BC's loop has extra statements, so it must stay on the generic path.
    run_and_validate::<SwarmGraphVm>(
        Algorithm::Bc,
        Some(ScheduleRef::simple(
            SwarmSchedule::new().with_frontiers(Frontiers::VertexsetToTasks),
        )),
    );
}

#[test]
fn task_conversion_beats_barriers_on_road_graphs() {
    let graph = ugc_graph::generators::road_grid(24, 24, 0.05, 9, true);
    let externs = externs_for(Algorithm::Bfs, 0);
    let base = SwarmGraphVm::default()
        .execute(
            compile(
                Algorithm::Bfs,
                Some(ScheduleRef::simple(SwarmSchedule::new())),
            ),
            &graph,
            &externs,
        )
        .unwrap();
    let tasks = SwarmGraphVm::default()
        .execute(
            compile(
                Algorithm::Bfs,
                Some(ScheduleRef::simple(
                    SwarmSchedule::new().with_frontiers(Frontiers::VertexsetToTasks),
                )),
            ),
            &graph,
            &externs,
        )
        .unwrap();
    assert!(
        tasks.cycles < base.cycles,
        "vertex-set→tasks {} must beat buffered {} on a road graph",
        tasks.cycles,
        base.cycles
    );
}

#[test]
fn scaling_with_cores() {
    let graph = ugc_graph::generators::road_grid(20, 20, 0.05, 4, true);
    let externs = externs_for(Algorithm::Bfs, 0);
    // The paper's optimized Swarm schedule: tasks + fine-grained hints.
    let sched = || {
        ScheduleRef::simple(
            SwarmSchedule::new()
                .with_frontiers(Frontiers::VertexsetToTasks)
                .with_task_granularity(TaskGranularity::FineGrained),
        )
    };
    let c1 = SwarmGraphVm::with_cores(1)
        .execute(compile(Algorithm::Bfs, Some(sched())), &graph, &externs)
        .unwrap()
        .cycles;
    let c16 = SwarmGraphVm::with_cores(16)
        .execute(compile(Algorithm::Bfs, Some(sched())), &graph, &externs)
        .unwrap()
        .cycles;
    assert!(
        c16 * 4 < c1,
        "16 cores ({c16}) should be at least 4x faster than 1 core ({c1})"
    );
}

#[test]
fn stats_have_commits_and_idle() {
    let graph = ugc_graph::generators::two_communities();
    let run = SwarmGraphVm::default()
        .execute(
            compile(Algorithm::Bfs, None),
            &graph,
            &externs_for(Algorithm::Bfs, 0),
        )
        .unwrap();
    assert!(run.stats.commits > 0);
    assert!(run.stats.total_core_cycles() > 0);
}
