//! CPU GraphVM correctness: every algorithm × every test graph × the CPU
//! scheduling space, validated against the sequential references.

use std::collections::HashMap;

use ugc::Target;
use ugc_algorithms::Algorithm;
use ugc_backend_cpu::{CpuGraphVm, CpuSchedule};
use ugc_graphir::ir::{Program, StmtKind};
use ugc_graphir::keys;
use ugc_integration::{compile, externs_for, run_and_validate, validate};
use ugc_runtime::GraphVm;
use ugc_schedule::{
    CompositeCriteria, CompositeSchedule, Parallelization, SchedDirection, ScheduleRef,
};

#[test]
fn bfs_default_schedule() {
    run_and_validate::<CpuGraphVm>(Algorithm::Bfs, None);
}

#[test]
fn bfs_pull() {
    run_and_validate::<CpuGraphVm>(
        Algorithm::Bfs,
        Some(ScheduleRef::simple(
            CpuSchedule::new().with_direction(SchedDirection::Pull),
        )),
    );
}

#[test]
fn bfs_hybrid() {
    run_and_validate::<CpuGraphVm>(
        Algorithm::Bfs,
        Some(ScheduleRef::simple(
            CpuSchedule::new().with_direction(SchedDirection::Hybrid),
        )),
    );
}

#[test]
fn bfs_composite_schedule() {
    let comp = CompositeSchedule::new(
        CompositeCriteria::InputSetSize { threshold: 0.15 },
        ScheduleRef::simple(CpuSchedule::new()),
        ScheduleRef::simple(CpuSchedule::new().with_direction(SchedDirection::Pull)),
    );
    run_and_validate::<CpuGraphVm>(Algorithm::Bfs, Some(ScheduleRef::composite(comp)));
}

#[test]
fn bfs_edge_aware_parallel() {
    run_and_validate::<CpuGraphVm>(
        Algorithm::Bfs,
        Some(ScheduleRef::simple(
            CpuSchedule::new()
                .with_parallelization(Parallelization::EdgeAwareVertexBased)
                .with_serial_threshold(0),
        )),
    );
}

#[test]
fn pagerank_default() {
    run_and_validate::<CpuGraphVm>(Algorithm::PageRank, None);
}

#[test]
fn pagerank_pull() {
    // All-edges pull iterates in-edges of every dst; equivalent totals.
    run_and_validate::<CpuGraphVm>(
        Algorithm::PageRank,
        Some(ScheduleRef::simple(
            CpuSchedule::new().with_direction(SchedDirection::Pull),
        )),
    );
}

#[test]
fn cc_default() {
    run_and_validate::<CpuGraphVm>(Algorithm::Cc, None);
}

#[test]
fn cc_edge_aware() {
    run_and_validate::<CpuGraphVm>(
        Algorithm::Cc,
        Some(ScheduleRef::simple(
            CpuSchedule::new()
                .with_parallelization(Parallelization::EdgeAwareVertexBased)
                .with_serial_threshold(0),
        )),
    );
}

#[test]
fn sssp_default_delta_1() {
    run_and_validate::<CpuGraphVm>(Algorithm::Sssp, None);
}

#[test]
fn sssp_delta_8() {
    run_and_validate::<CpuGraphVm>(
        Algorithm::Sssp,
        Some(ScheduleRef::simple(CpuSchedule::new().with_delta(8))),
    );
}

#[test]
fn sssp_delta_64() {
    run_and_validate::<CpuGraphVm>(
        Algorithm::Sssp,
        Some(ScheduleRef::simple(CpuSchedule::new().with_delta(64))),
    );
}

#[test]
fn bc_default() {
    run_and_validate::<CpuGraphVm>(Algorithm::Bc, None);
}

#[test]
fn bc_from_various_sources() {
    let graph = ugc_graph::generators::two_communities();
    for start in 0..8u32 {
        let prog = compile(Algorithm::Bc, None);
        let run = CpuGraphVm::default()
            .execute(prog, &graph, &externs_for(Algorithm::Bc, start))
            .unwrap();
        validate(
            Algorithm::Bc,
            &graph,
            start,
            &|p| run.property_ints(p),
            &|p| run.property_floats(p),
        );
    }
}

#[test]
fn bfs_from_various_sources() {
    let graph = ugc_graph::generators::road_grid(12, 12, 0.1, 2, false);
    for start in [0u32, 7, 77, 143] {
        let prog = compile(Algorithm::Bfs, None);
        let run = CpuGraphVm::default()
            .execute(prog, &graph, &externs_for(Algorithm::Bfs, start))
            .unwrap();
        validate(
            Algorithm::Bfs,
            &graph,
            start,
            &|p| run.property_ints(p),
            &|p| run.property_floats(p),
        );
    }
}

#[test]
fn single_thread_matches_parallel() {
    let graph = ugc_graph::generators::rmat(8, 4, 9, true);
    let p1 = compile(Algorithm::Sssp, None);
    let p2 = compile(Algorithm::Sssp, None);
    let r1 = CpuGraphVm::with_threads(1)
        .execute(p1, &graph, &externs_for(Algorithm::Sssp, 0))
        .unwrap();
    let r2 = CpuGraphVm::with_threads(8)
        .execute(p2, &graph, &externs_for(Algorithm::Sssp, 0))
        .unwrap();
    assert_eq!(r1.property_ints("dist"), r2.property_ints("dist"));
}

/// Graphs above the serial-dispatch threshold, so eight workers really
/// split every pull and vertex sweep.
fn pool_sized_graphs() -> [(&'static str, ugc_graph::Graph); 2] {
    [
        ("rmat_11", ugc_graph::generators::rmat(11, 8, 5, true)),
        (
            "road_48x48",
            ugc_graph::generators::road_grid(48, 48, 0.05, 3, true),
        ),
    ]
}

/// Every property of one run, floats as their bits.
type Properties = (HashMap<String, Vec<i64>>, HashMap<String, Vec<u64>>);

/// PageRank and LP under their CPU-tuned (DensePull) schedule: each
/// destination sums or takes the minimum over its in-edges in CSR order on
/// one worker, so one and eight workers leave every property bit-identical,
/// and both answers validate.
#[test]
fn tuned_pull_is_bit_identical_across_thread_counts() {
    for algo in [Algorithm::PageRank, Algorithm::Lp] {
        for (gname, graph) in pool_sized_graphs() {
            let sched = ugc_bench::tuned_schedule_for(Target::Cpu, algo, &graph);
            let run = |threads: usize| -> Properties {
                let run = CpuGraphVm::with_threads(threads)
                    .execute(
                        compile(algo, Some(sched.clone())),
                        &graph,
                        &externs_for(algo, 0),
                    )
                    .unwrap_or_else(|e| panic!("{} on {gname}: {e}", algo.name()));
                validate(algo, &graph, 0, &|p| run.property_ints(p), &|p| {
                    run.property_floats(p)
                });
                let (ints, floats) = run.state.into_snapshot();
                let floats = floats
                    .into_iter()
                    .map(|(name, v)| (name, v.into_iter().map(f64::to_bits).collect()))
                    .collect();
                (ints, floats)
            };
            assert!(
                run(1) == run(8),
                "{} on {gname}: 1 and 8 workers disagree",
                algo.name()
            );
        }
    }
}

/// Whether every `Reduce` in the apply UDF of `prog`'s edge traversal is
/// flagged atomic, and how many there are.
fn edge_reduces_atomic(prog: &Program) -> Vec<bool> {
    let mut applies = Vec::new();
    ugc_graphir::visit::walk_stmts(&prog.main, &mut |s| {
        if let StmtKind::EdgeSetIterator(d) = &s.kind {
            applies.push(d.apply.clone());
        }
    });
    let mut atomic = Vec::new();
    for apply in applies {
        let f = prog.function(&apply).expect("apply UDF exists");
        ugc_graphir::visit::walk_stmts(&f.body, &mut |s| {
            if let StmtKind::Reduce { .. } = s.kind {
                atomic.push(s.meta.flag(keys::IS_ATOMIC));
            }
        });
    }
    atomic
}

/// Under DensePull the loop owns the destination, so the midend's atomics
/// pass leaves PageRank's `new_rank[dst] +=` and LP's `next_label[dst]
/// min=` plain; under the default push the same reduction is atomic.
#[test]
fn tuned_pull_edge_reduce_is_not_atomic() {
    let graph = ugc_graph::generators::rmat(8, 4, 7, true);
    for algo in [Algorithm::PageRank, Algorithm::Lp] {
        let sched = ugc_bench::tuned_schedule_for(Target::Cpu, algo, &graph);
        assert_eq!(
            edge_reduces_atomic(&compile(algo, Some(sched))),
            vec![false],
            "{}: tuned pull",
            algo.name()
        );
        assert_eq!(
            edge_reduces_atomic(&compile(algo, None)),
            vec![true],
            "{}: default push",
            algo.name()
        );
    }
}
