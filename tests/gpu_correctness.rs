//! GPU GraphVM correctness: every algorithm × the GPU scheduling space on
//! the SIMT simulator, validated against the sequential references.

use ugc_algorithms::Algorithm;
use ugc_backend_gpu::{FrontierCreation, GpuGraphVm, GpuSchedule, LoadBalance};
use ugc_integration::{compile, externs_for, run_and_validate};
use ugc_runtime::GraphVm;
use ugc_schedule::{SchedDirection, ScheduleRef};

#[test]
fn all_algorithms_default_schedule() {
    for algo in Algorithm::ALL {
        run_and_validate::<GpuGraphVm>(algo, None);
    }
}

#[test]
fn bfs_all_load_balancers() {
    for lb in LoadBalance::ALL {
        run_and_validate::<GpuGraphVm>(
            Algorithm::Bfs,
            Some(ScheduleRef::simple(
                GpuSchedule::new().with_load_balance(lb),
            )),
        );
    }
}

#[test]
fn cc_etwc_load_balancer() {
    run_and_validate::<GpuGraphVm>(
        Algorithm::Cc,
        Some(ScheduleRef::simple(
            GpuSchedule::new().with_load_balance(LoadBalance::Etwc),
        )),
    );
}

#[test]
fn bfs_pull_and_hybrid() {
    run_and_validate::<GpuGraphVm>(
        Algorithm::Bfs,
        Some(ScheduleRef::simple(
            GpuSchedule::new().with_direction(SchedDirection::Pull),
        )),
    );
    run_and_validate::<GpuGraphVm>(
        Algorithm::Bfs,
        Some(ScheduleRef::simple(
            GpuSchedule::new().with_direction(SchedDirection::Hybrid),
        )),
    );
}

#[test]
fn bfs_frontier_creation_variants() {
    for fc in [
        FrontierCreation::Fused,
        FrontierCreation::UnfusedBoolmap,
        FrontierCreation::UnfusedBitmap,
    ] {
        run_and_validate::<GpuGraphVm>(
            Algorithm::Bfs,
            Some(ScheduleRef::simple(
                GpuSchedule::new().with_frontier_creation(fc),
            )),
        );
    }
}

#[test]
fn bfs_kernel_fusion_correct_and_fewer_launches() {
    let graph = ugc_graph::generators::road_grid(16, 16, 0.05, 3, true);
    let base = GpuGraphVm::default()
        .execute(
            compile(
                Algorithm::Bfs,
                Some(ScheduleRef::simple(GpuSchedule::new())),
            ),
            &graph,
            &externs_for(Algorithm::Bfs, 0),
        )
        .unwrap();
    let fused = GpuGraphVm::default()
        .execute(
            compile(
                Algorithm::Bfs,
                Some(ScheduleRef::simple(
                    GpuSchedule::new().with_kernel_fusion(true),
                )),
            ),
            &graph,
            &externs_for(Algorithm::Bfs, 0),
        )
        .unwrap();
    assert_eq!(
        base.property_ints("parent")
            .iter()
            .filter(|&&p| p != -1)
            .count(),
        fused
            .property_ints("parent")
            .iter()
            .filter(|&&p| p != -1)
            .count()
    );
    assert!(fused.stats.kernels < base.stats.kernels);
    assert!(
        fused.cycles < base.cycles,
        "fusion must win on a road graph"
    );
}

#[test]
fn sssp_with_delta_schedules() {
    for delta in [1, 4, 32] {
        run_and_validate::<GpuGraphVm>(
            Algorithm::Sssp,
            Some(ScheduleRef::simple(GpuSchedule::new().with_delta(delta))),
        );
    }
}

#[test]
fn pagerank_edge_blocking_correct() {
    run_and_validate::<GpuGraphVm>(
        Algorithm::PageRank,
        Some(ScheduleRef::simple(
            GpuSchedule::new().with_edge_blocking(1 << 13),
        )),
    );
}

#[test]
fn bc_with_wm_load_balance() {
    run_and_validate::<GpuGraphVm>(
        Algorithm::Bc,
        Some(ScheduleRef::simple(
            GpuSchedule::new().with_load_balance(LoadBalance::Wm),
        )),
    );
}

#[test]
fn twc_beats_vertex_based_on_skewed_graph() {
    // A power-law graph punishes vertex-based load balancing.
    let graph = ugc_graph::generators::rmat(10, 8, 11, true);
    let externs = externs_for(Algorithm::Bfs, 0);
    let vb = GpuGraphVm::default()
        .execute(
            compile(
                Algorithm::Bfs,
                Some(ScheduleRef::simple(
                    GpuSchedule::new().with_load_balance(LoadBalance::VertexBased),
                )),
            ),
            &graph,
            &externs,
        )
        .unwrap();
    let twc = GpuGraphVm::default()
        .execute(
            compile(
                Algorithm::Bfs,
                Some(ScheduleRef::simple(
                    GpuSchedule::new().with_load_balance(LoadBalance::Twc),
                )),
            ),
            &graph,
            &externs,
        )
        .unwrap();
    assert!(
        twc.cycles < vb.cycles,
        "TWC {} should beat vertex-based {} on a skewed graph",
        twc.cycles,
        vb.cycles
    );
}
