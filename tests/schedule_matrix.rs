//! The schedule-space matrix: a broad sweep of schedule combinations per
//! backend, all validated. This is the paper's central claim — the
//! algorithm never changes, only schedules do, and every point in the
//! space is correct.
//!
//! Every simulated cell also pins `run.cycles` against a literal table: the
//! simulators are deterministic, so a GraphVM refactor that moves the
//! machine model by one cycle fails here and names the cell.

use ugc_algorithms::Algorithm;
use ugc_backend_cpu::{CpuGraphVm, CpuSchedule};
use ugc_backend_gpu::{FrontierCreation, GpuGraphVm, GpuSchedule, LoadBalance};
use ugc_backend_hb::{HbGraphVm, HbLoadBalance, HbSchedule};
use ugc_backend_swarm::{Frontiers, SwarmGraphVm, SwarmSchedule, TaskGranularity};
use ugc_integration::{compile, externs_for, validate};
use ugc_runtime::GraphVm;
use ugc_schedule::{
    Parallelization, PullFrontierRepr, SchedDirection, ScheduleRef, SimpleSchedule,
};

fn graph() -> ugc_graph::Graph {
    ugc_graph::generators::rmat(8, 5, 13, true)
}

/// Compares the cycles a matrix measured against its pinned table. On any
/// difference the panic message is the full measured table as Rust
/// literals, so one run shows every moved cell.
fn assert_pinned(target: &str, measured: &[(String, u64)], pinned: &[(&str, u64)]) {
    let same = measured.len() == pinned.len()
        && measured
            .iter()
            .zip(pinned)
            .all(|((name, cycles), (want_name, want))| name == want_name && cycles == want);
    if same {
        return;
    }
    let mut table = String::new();
    for (i, (name, cycles)) in measured.iter().enumerate() {
        let note = match pinned.get(i) {
            Some((n, c)) if n == name && c == cycles => String::new(),
            Some((n, c)) if n == name => format!(" // pinned {c}"),
            _ => " // not pinned".to_string(),
        };
        table.push_str(&format!("    (\"{name}\", {cycles}),{note}\n"));
    }
    panic!("{target} simulated cycles moved; measured table:\n{table}");
}

#[test]
fn cpu_schedule_matrix() {
    let graph = graph();
    for dir in [
        SchedDirection::Push,
        SchedDirection::Pull,
        SchedDirection::Hybrid,
    ] {
        for par in [
            Parallelization::VertexBased,
            Parallelization::EdgeAwareVertexBased,
        ] {
            for pf in [PullFrontierRepr::Boolmap, PullFrontierRepr::Bitmap] {
                for dedup in [false, true] {
                    let sched = CpuSchedule::new()
                        .with_direction(dir)
                        .with_parallelization(par)
                        .with_pull_frontier(pf)
                        .with_deduplication(dedup)
                        .with_serial_threshold(8);
                    let prog = compile(Algorithm::Bfs, Some(ScheduleRef::simple(sched)));
                    let run = CpuGraphVm::with_threads(4)
                        .execute(prog, &graph, &externs_for(Algorithm::Bfs, 0))
                        .unwrap_or_else(|e| panic!("{dir:?}/{par:?}/{pf:?}/{dedup}: {e}"));
                    validate(Algorithm::Bfs, &graph, 0, &|p| run.property_ints(p), &|p| {
                        run.property_floats(p)
                    });
                }
            }
        }
    }
}

/// Runs one cell on a simulated GraphVM under `sched`, validates its
/// answer, and returns its simulated cycles.
fn cell_cycles<V: GraphVm + Default>(
    algo: Algorithm,
    graph: &ugc_graph::Graph,
    sched: impl SimpleSchedule + 'static,
) -> u64 {
    let label = format!("{}/{sched:?}", algo.name());
    let prog = compile(algo, Some(ScheduleRef::simple(sched)));
    let run = V::default()
        .execute(prog, graph, &externs_for(algo, 0))
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    validate(algo, graph, 0, &|p| run.property_ints(p), &|p| {
        run.property_floats(p)
    });
    run.cycles
}

const PULL_POINTS: [(SchedDirection, PullFrontierRepr); 4] = [
    (SchedDirection::Pull, PullFrontierRepr::Boolmap),
    (SchedDirection::Pull, PullFrontierRepr::Bitmap),
    (SchedDirection::Hybrid, PullFrontierRepr::Boolmap),
    (SchedDirection::Hybrid, PullFrontierRepr::Bitmap),
];

#[test]
fn gpu_schedule_matrix() {
    let graph = graph();
    let mut cycles = Vec::new();
    for lb in LoadBalance::ALL {
        for fc in [
            FrontierCreation::Fused,
            FrontierCreation::UnfusedBoolmap,
            FrontierCreation::UnfusedBitmap,
        ] {
            for fusion in [false, true] {
                let sched = GpuSchedule::new()
                    .with_load_balance(lb)
                    .with_frontier_creation(fc)
                    .with_kernel_fusion(fusion);
                cycles.push((
                    format!("cc/{lb:?}/{fc:?}/fusion={fusion}"),
                    cell_cycles::<GpuGraphVm>(Algorithm::Cc, &graph, sched),
                ));
            }
        }
    }
    for (dir, pf) in PULL_POINTS {
        let sched = GpuSchedule::new()
            .with_direction(dir)
            .with_pull_frontier(pf);
        cycles.push((
            format!("bfs/{dir:?}/{pf:?}"),
            cell_cycles::<GpuGraphVm>(Algorithm::Bfs, &graph, sched),
        ));
    }
    cycles.push((
        "pr/edge_blocking=64".to_string(),
        cell_cycles::<GpuGraphVm>(
            Algorithm::PageRank,
            &graph,
            GpuSchedule::new().with_edge_blocking(64),
        ),
    ));
    cycles.push((
        "sssp/fused/async/delta=8".to_string(),
        cell_cycles::<GpuGraphVm>(
            Algorithm::Sssp,
            &graph,
            GpuSchedule::new()
                .with_kernel_fusion(true)
                .with_async_execution(true)
                .with_delta(8),
        ),
    ));
    for algo in [Algorithm::Bc, Algorithm::KCore] {
        cycles.push((
            format!("{}/default", algo.name()),
            cell_cycles::<GpuGraphVm>(algo, &graph, GpuSchedule::new()),
        ));
    }
    assert_pinned("GPU", &cycles, GPU_CYCLES);
}

#[test]
fn swarm_schedule_matrix() {
    let graph = graph();
    let mut cycles = Vec::new();
    for frontiers in [Frontiers::Buffered, Frontiers::VertexsetToTasks] {
        for gran in [TaskGranularity::Coarse, TaskGranularity::FineGrained] {
            for hints in [false, true] {
                for delta in [1, 8] {
                    let sched = SwarmSchedule::new()
                        .with_frontiers(frontiers)
                        .with_task_granularity(gran)
                        .with_spatial_hints(hints)
                        .with_delta(delta);
                    cycles.push((
                        format!("sssp/{frontiers:?}/{gran:?}/hints={hints}/delta={delta}"),
                        cell_cycles::<SwarmGraphVm>(Algorithm::Sssp, &graph, sched),
                    ));
                }
            }
        }
    }
    // The two ablation knobs the matrix above leaves at their defaults:
    // edge shuffling shapes the Buffered operator batches, privatization
    // the converted data-driven loop.
    cycles.push((
        "cc/Buffered/shuffle_edges=false".to_string(),
        cell_cycles::<SwarmGraphVm>(
            Algorithm::Cc,
            &graph,
            SwarmSchedule::new().with_shuffle_edges(false),
        ),
    ));
    for gran in [TaskGranularity::Coarse, TaskGranularity::FineGrained] {
        cycles.push((
            format!("bfs/VertexsetToTasks/{gran:?}/privatize=false"),
            cell_cycles::<SwarmGraphVm>(
                Algorithm::Bfs,
                &graph,
                SwarmSchedule::new()
                    .with_frontiers(Frontiers::VertexsetToTasks)
                    .with_task_granularity(gran)
                    .with_privatization(false),
            ),
        ));
    }
    for algo in [Algorithm::Bc, Algorithm::KCore] {
        cycles.push((
            format!("{}/default", algo.name()),
            cell_cycles::<SwarmGraphVm>(algo, &graph, SwarmSchedule::new()),
        ));
    }
    assert_pinned("Swarm", &cycles, SWARM_CYCLES);
}

#[test]
fn hb_schedule_matrix() {
    let graph = graph();
    let mut cycles = Vec::new();
    for lb in [
        HbLoadBalance::VertexBased,
        HbLoadBalance::EdgeBased,
        HbLoadBalance::Aligned,
    ] {
        for blocked in [false, true] {
            for block in [16, 64, 256] {
                let sched = HbSchedule::new()
                    .with_load_balance(lb)
                    .with_blocked_access(blocked)
                    .with_block_size(block);
                cycles.push((
                    format!("pr/{lb:?}/blocked={blocked}/block={block}"),
                    cell_cycles::<HbGraphVm>(Algorithm::PageRank, &graph, sched),
                ));
            }
        }
    }
    for (dir, pf) in PULL_POINTS {
        let sched = HbSchedule::new().with_direction(dir).with_pull_frontier(pf);
        cycles.push((
            format!("bfs/{dir:?}/{pf:?}"),
            cell_cycles::<HbGraphVm>(Algorithm::Bfs, &graph, sched),
        ));
    }
    for algo in [Algorithm::Bc, Algorithm::KCore] {
        cycles.push((
            format!("{}/default", algo.name()),
            cell_cycles::<HbGraphVm>(algo, &graph, HbSchedule::new()),
        ));
    }
    assert_pinned("HammerBlade", &cycles, HB_CYCLES);
}

#[test]
fn composite_schedules_on_every_backend() {
    use ugc_schedule::{CompositeCriteria, CompositeSchedule};
    let graph = graph();
    // Push-when-sparse / pull-when-dense composite, per backend's types.
    let cases: Vec<(&str, ScheduleRef)> = vec![
        (
            "cpu",
            ScheduleRef::composite(CompositeSchedule::new(
                CompositeCriteria::InputSetSize { threshold: 0.2 },
                ScheduleRef::simple(CpuSchedule::new()),
                ScheduleRef::simple(CpuSchedule::new().with_direction(SchedDirection::Pull)),
            )),
        ),
        (
            "gpu",
            ScheduleRef::composite(CompositeSchedule::new(
                CompositeCriteria::InputSetSize { threshold: 0.2 },
                ScheduleRef::simple(GpuSchedule::new()),
                ScheduleRef::simple(GpuSchedule::new().with_direction(SchedDirection::Pull)),
            )),
        ),
        (
            "hb",
            ScheduleRef::composite(CompositeSchedule::new(
                CompositeCriteria::InputSetSize { threshold: 0.2 },
                ScheduleRef::simple(HbSchedule::new()),
                ScheduleRef::simple(HbSchedule::new().with_direction(SchedDirection::Pull)),
            )),
        ),
    ];
    for (name, sched) in cases {
        let prog = compile(Algorithm::Bfs, Some(sched));
        let parents = match name {
            "cpu" => {
                let run = CpuGraphVm::default()
                    .execute(prog, &graph, &externs_for(Algorithm::Bfs, 0))
                    .unwrap();
                run.property_ints("parent")
            }
            "gpu" => {
                let run = GpuGraphVm::default()
                    .execute(prog, &graph, &externs_for(Algorithm::Bfs, 0))
                    .unwrap();
                run.property_ints("parent")
            }
            _ => {
                let run = HbGraphVm::default()
                    .execute(prog, &graph, &externs_for(Algorithm::Bfs, 0))
                    .unwrap();
                run.property_ints("parent")
            }
        };
        ugc_algorithms::validate::check_bfs_parents(&graph, 0, &parents)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// Simulated cycles of every GPU cell, captured from the tree before the
/// shared operator prologue and epilogue moved into `ugc-runtime`.
const GPU_CYCLES: &[(&str, u64)] = &[
    ("cc/VertexBased/Fused/fusion=false", 30351),
    ("cc/VertexBased/Fused/fusion=true", 21951),
    ("cc/VertexBased/UnfusedBoolmap/fusion=false", 47481),
    ("cc/VertexBased/UnfusedBoolmap/fusion=true", 21081),
    ("cc/VertexBased/UnfusedBitmap/fusion=false", 48129),
    ("cc/VertexBased/UnfusedBitmap/fusion=true", 21729),
    ("cc/Twc/Fused/fusion=false", 35994),
    ("cc/Twc/Fused/fusion=true", 22794),
    ("cc/Twc/UnfusedBoolmap/fusion=false", 59232),
    ("cc/Twc/UnfusedBoolmap/fusion=true", 22032),
    ("cc/Twc/UnfusedBitmap/fusion=false", 60032),
    ("cc/Twc/UnfusedBitmap/fusion=true", 22832),
    ("cc/Cm/Fused/fusion=false", 45076),
    ("cc/Cm/Fused/fusion=true", 31876),
    ("cc/Cm/UnfusedBoolmap/fusion=false", 67546),
    ("cc/Cm/UnfusedBoolmap/fusion=true", 30346),
    ("cc/Cm/UnfusedBitmap/fusion=false", 68862),
    ("cc/Cm/UnfusedBitmap/fusion=true", 31662),
    ("cc/Wm/Fused/fusion=false", 30725),
    ("cc/Wm/Fused/fusion=true", 22325),
    ("cc/Wm/UnfusedBoolmap/fusion=false", 47771),
    ("cc/Wm/UnfusedBoolmap/fusion=true", 21371),
    ("cc/Wm/UnfusedBitmap/fusion=false", 48503),
    ("cc/Wm/UnfusedBitmap/fusion=true", 22103),
    ("cc/Strict/Fused/fusion=false", 25139),
    ("cc/Strict/Fused/fusion=true", 16739),
    ("cc/Strict/UnfusedBoolmap/fusion=false", 42976),
    ("cc/Strict/UnfusedBoolmap/fusion=true", 16576),
    ("cc/Strict/UnfusedBitmap/fusion=false", 43117),
    ("cc/Strict/UnfusedBitmap/fusion=true", 16717),
    ("cc/EdgeOnly/Fused/fusion=false", 25124),
    ("cc/EdgeOnly/Fused/fusion=true", 16724),
    ("cc/EdgeOnly/UnfusedBoolmap/fusion=false", 42961),
    ("cc/EdgeOnly/UnfusedBoolmap/fusion=true", 16561),
    ("cc/EdgeOnly/UnfusedBitmap/fusion=false", 43102),
    ("cc/EdgeOnly/UnfusedBitmap/fusion=true", 16702),
    ("cc/Etwc/Fused/fusion=false", 29903),
    ("cc/Etwc/Fused/fusion=true", 21503),
    ("cc/Etwc/UnfusedBoolmap/fusion=false", 47049),
    ("cc/Etwc/UnfusedBoolmap/fusion=true", 20649),
    ("cc/Etwc/UnfusedBitmap/fusion=false", 47681),
    ("cc/Etwc/UnfusedBitmap/fusion=true", 21281),
    ("bfs/Pull/Boolmap", 25012),
    ("bfs/Pull/Bitmap", 24984),
    ("bfs/Hybrid/Boolmap", 27972),
    ("bfs/Hybrid/Bitmap", 27968),
    ("pr/edge_blocking=64", 848176),
    ("sssp/fused/async/delta=8", 19552),
    ("BC/default", 120868),
    ("KCORE/default", 319879),
];

/// Simulated cycles of every Swarm cell (same capture).
const SWARM_CYCLES: &[(&str, u64)] = &[
    ("sssp/Buffered/Coarse/hints=false/delta=1", 16996),
    ("sssp/Buffered/Coarse/hints=false/delta=8", 13896),
    ("sssp/Buffered/Coarse/hints=true/delta=1", 16996),
    ("sssp/Buffered/Coarse/hints=true/delta=8", 13896),
    ("sssp/Buffered/FineGrained/hints=false/delta=1", 5322),
    ("sssp/Buffered/FineGrained/hints=false/delta=8", 2785),
    ("sssp/Buffered/FineGrained/hints=true/delta=1", 7247),
    ("sssp/Buffered/FineGrained/hints=true/delta=8", 5366),
    ("sssp/VertexsetToTasks/Coarse/hints=false/delta=1", 11566),
    ("sssp/VertexsetToTasks/Coarse/hints=false/delta=8", 10672),
    ("sssp/VertexsetToTasks/Coarse/hints=true/delta=1", 12668),
    ("sssp/VertexsetToTasks/Coarse/hints=true/delta=8", 12694),
    (
        "sssp/VertexsetToTasks/FineGrained/hints=false/delta=1",
        1103,
    ),
    (
        "sssp/VertexsetToTasks/FineGrained/hints=false/delta=8",
        1181,
    ),
    ("sssp/VertexsetToTasks/FineGrained/hints=true/delta=1", 3182),
    ("sssp/VertexsetToTasks/FineGrained/hints=true/delta=8", 3182),
    ("cc/Buffered/shuffle_edges=false", 9572),
    ("bfs/VertexsetToTasks/Coarse/privatize=false", 7392),
    ("bfs/VertexsetToTasks/FineGrained/privatize=false", 134198),
    ("BC/default", 44521),
    ("KCORE/default", 21118),
];

/// Simulated cycles of every HammerBlade cell (same capture).
const HB_CYCLES: &[(&str, u64)] = &[
    ("pr/VertexBased/blocked=false/block=16", 122440),
    ("pr/VertexBased/blocked=false/block=64", 122440),
    ("pr/VertexBased/blocked=false/block=256", 122440),
    ("pr/VertexBased/blocked=true/block=16", 122300),
    ("pr/VertexBased/blocked=true/block=64", 122300),
    ("pr/VertexBased/blocked=true/block=256", 122300),
    ("pr/EdgeBased/blocked=false/block=16", 112073),
    ("pr/EdgeBased/blocked=false/block=64", 112073),
    ("pr/EdgeBased/blocked=false/block=256", 112073),
    ("pr/EdgeBased/blocked=true/block=16", 111933),
    ("pr/EdgeBased/blocked=true/block=64", 111933),
    ("pr/EdgeBased/blocked=true/block=256", 111933),
    ("pr/Aligned/blocked=false/block=16", 152697),
    ("pr/Aligned/blocked=false/block=64", 152697),
    ("pr/Aligned/blocked=false/block=256", 152697),
    ("pr/Aligned/blocked=true/block=16", 152557),
    ("pr/Aligned/blocked=true/block=64", 152557),
    ("pr/Aligned/blocked=true/block=256", 152557),
    ("bfs/Pull/Boolmap", 9158),
    ("bfs/Pull/Bitmap", 9158),
    ("bfs/Hybrid/Boolmap", 11860),
    ("bfs/Hybrid/Bitmap", 11860),
    ("BC/default", 35112),
    ("KCORE/default", 78785),
];
