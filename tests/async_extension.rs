//! The asynchronous-execution extension: the optimization the paper notes
//! UGC lacks (§IV-C, SEP-Graph's win) — implemented here for monotone
//! ordered loops on the GPU backend.

use ugc_algorithms::Algorithm;
use ugc_backend_gpu::{GpuGraphVm, GpuSchedule};
use ugc_integration::{compile, externs_for, validate};
use ugc_runtime::GraphVm;
use ugc_schedule::ScheduleRef;

#[test]
fn async_sssp_is_correct() {
    for (name, graph) in ugc_integration::test_graphs() {
        let prog = compile(
            Algorithm::Sssp,
            Some(ScheduleRef::simple(
                GpuSchedule::new().with_async_execution(true).with_delta(8),
            )),
        );
        let run = GpuGraphVm::default()
            .execute(prog, &graph, &externs_for(Algorithm::Sssp, 0))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        validate(
            Algorithm::Sssp,
            &graph,
            0,
            &|p| run.property_ints(p),
            &|p| run.property_floats(p),
        );
    }
}

#[test]
fn async_drops_grid_syncs_and_wins_on_road_graphs() {
    let graph = ugc_graph::generators::road_grid(24, 24, 0.05, 5, true);
    let externs = externs_for(Algorithm::Sssp, 0);
    let fused = GpuGraphVm::default()
        .execute(
            compile(
                Algorithm::Sssp,
                Some(ScheduleRef::simple(
                    GpuSchedule::new().with_kernel_fusion(true).with_delta(8),
                )),
            ),
            &graph,
            &externs,
        )
        .unwrap();
    let asynced = GpuGraphVm::default()
        .execute(
            compile(
                Algorithm::Sssp,
                Some(ScheduleRef::simple(
                    GpuSchedule::new().with_async_execution(true).with_delta(8),
                )),
            ),
            &graph,
            &externs,
        )
        .unwrap();
    assert_eq!(
        fused.property_ints("dist"),
        asynced.property_ints("dist"),
        "async must not change results"
    );
    assert_eq!(
        asynced.stats.grid_syncs, 0,
        "async must drop all grid syncs"
    );
    assert!(fused.stats.grid_syncs > 0);
    assert!(
        asynced.cycles < fused.cycles,
        "async {} must beat fused {} on a high-round road graph",
        asynced.cycles,
        fused.cycles
    );
}

#[test]
fn async_closes_the_sep_graph_gap_on_road_sssp() {
    // With async execution, UGC matches/beats the SEP-Graph baseline that
    // beat it in Fig. 9.
    let graph = ugc_graph::Dataset::RoadNetCa.generate(ugc_graph::Scale::Tiny);
    let sep = ugc_baselines::gpu_frameworks::run_framework(
        ugc_baselines::gpu_frameworks::Framework::SepGraph,
        "sssp",
        &graph,
        0,
        ugc_sim_gpu::GpuConfig::default(),
    );
    let ugc_async = GpuGraphVm::default()
        .execute(
            compile(
                Algorithm::Sssp,
                Some(ScheduleRef::simple(
                    GpuSchedule::new().with_async_execution(true).with_delta(64),
                )),
            ),
            &graph,
            &externs_for(Algorithm::Sssp, 0),
        )
        .unwrap();
    assert!(
        ugc_async.cycles < sep.cycles * 2,
        "async UGC ({}) should be in SEP-Graph's league ({})",
        ugc_async.cycles,
        sep.cycles
    );
}
