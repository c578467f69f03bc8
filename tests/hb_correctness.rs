//! HammerBlade GraphVM correctness: every algorithm × the HB scheduling
//! space on the manycore simulator, validated against references.

use ugc_algorithms::Algorithm;
use ugc_backend_hb::{HbGraphVm, HbLoadBalance, HbSchedule};
use ugc_integration::{compile, externs_for, run_and_validate};
use ugc_runtime::GraphVm;
use ugc_schedule::{SchedDirection, ScheduleRef};

#[test]
fn all_algorithms_default_schedule() {
    for algo in Algorithm::ALL {
        run_and_validate::<HbGraphVm>(algo, None);
    }
}

#[test]
fn bfs_all_load_balancers() {
    for lb in [
        HbLoadBalance::VertexBased,
        HbLoadBalance::EdgeBased,
        HbLoadBalance::Aligned,
    ] {
        run_and_validate::<HbGraphVm>(
            Algorithm::Bfs,
            Some(ScheduleRef::simple(HbSchedule::new().with_load_balance(lb))),
        );
    }
}

#[test]
fn bfs_hybrid_direction() {
    run_and_validate::<HbGraphVm>(
        Algorithm::Bfs,
        Some(ScheduleRef::simple(
            HbSchedule::new()
                .with_direction(SchedDirection::Hybrid)
                .with_load_balance(HbLoadBalance::Aligned),
        )),
    );
}

#[test]
fn pagerank_blocked_access() {
    run_and_validate::<HbGraphVm>(
        Algorithm::PageRank,
        Some(ScheduleRef::simple(
            HbSchedule::new()
                .with_blocked_access(true)
                .with_block_size(64),
        )),
    );
}

#[test]
fn sssp_blocked_access_with_delta() {
    run_and_validate::<HbGraphVm>(
        Algorithm::Sssp,
        Some(ScheduleRef::simple(
            HbSchedule::new().with_blocked_access(true).with_delta(8),
        )),
    );
}

#[test]
fn cc_aligned() {
    run_and_validate::<HbGraphVm>(
        Algorithm::Cc,
        Some(ScheduleRef::simple(
            HbSchedule::new().with_load_balance(HbLoadBalance::Aligned),
        )),
    );
}

#[test]
fn bc_default() {
    run_and_validate::<HbGraphVm>(Algorithm::Bc, None);
}

#[test]
fn blocked_access_reduces_dram_stalls_on_pagerank() {
    // Table IX's mechanism: prefetching turns dependent stalls into bulk
    // transfers.
    let graph = ugc_graph::generators::rmat(13, 8, 5, true);
    let externs = externs_for(Algorithm::PageRank, 0);
    let base = HbGraphVm::default()
        .execute(
            compile(
                Algorithm::PageRank,
                Some(ScheduleRef::simple(HbSchedule::new())),
            ),
            &graph,
            &externs,
        )
        .unwrap();
    let blocked = HbGraphVm::default()
        .execute(
            compile(
                Algorithm::PageRank,
                Some(ScheduleRef::simple(
                    HbSchedule::new()
                        .with_blocked_access(true)
                        .with_block_size(64),
                )),
            ),
            &graph,
            &externs,
        )
        .unwrap();
    assert!(
        blocked.stats.dram_stall_cycles < base.stats.dram_stall_cycles,
        "blocked {} vs base {} stalls",
        blocked.stats.dram_stall_cycles,
        base.stats.dram_stall_cycles
    );
    assert!(
        blocked.cycles < base.cycles,
        "blocked access must speed up PR"
    );
}

#[test]
fn scaling_with_rows() {
    let graph = ugc_graph::generators::rmat(12, 8, 7, true);
    let externs = externs_for(Algorithm::Bfs, 0);
    let sched = || ScheduleRef::simple(HbSchedule::new().with_load_balance(HbLoadBalance::Aligned));
    let c32 = HbGraphVm::with_rows(2)
        .execute(compile(Algorithm::Bfs, Some(sched())), &graph, &externs)
        .unwrap()
        .cycles;
    let c256 = HbGraphVm::with_rows(16)
        .execute(compile(Algorithm::Bfs, Some(sched())), &graph, &externs)
        .unwrap()
        .cycles;
    assert!(
        c256 < c32,
        "256 cores ({c256}) should beat 32 cores ({c32})"
    );
}
