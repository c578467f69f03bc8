//! Shared helpers for the cross-crate integration tests.

use std::collections::HashMap;

use ugc_algorithms::Algorithm;
use ugc_graph::Graph;
use ugc_graphir::ir::Program;
use ugc_runtime::value::Value;
use ugc_runtime::GraphVm;
use ugc_schedule::ScheduleRef;

/// Compiles an algorithm through the full hardware-independent pipeline,
/// attaching `sched` at the algorithm's canonical schedule path when given.
///
/// # Panics
///
/// Panics on frontend/midend failures (test programs must compile).
pub fn compile(algo: Algorithm, sched: Option<ScheduleRef>) -> Program {
    compile_with(
        algo,
        &match sched {
            Some(s) => vec![(algo.schedule_path().to_string(), s)],
            None => vec![],
        },
    )
}

/// Compiles with explicit `(label path, schedule)` pairs.
///
/// # Panics
///
/// Panics on frontend/midend failures.
pub fn compile_with(algo: Algorithm, scheds: &[(String, ScheduleRef)]) -> Program {
    let mut prog = ugc_midend::frontend_to_ir(algo.source())
        .unwrap_or_else(|e| panic!("{}: {e}", algo.name()));
    for (path, s) in scheds {
        ugc_schedule::apply_schedule(&mut prog, path, s.clone())
            .unwrap_or_else(|e| panic!("{}: {e}", algo.name()));
    }
    ugc_midend::run_passes(&mut prog).unwrap_or_else(|e| panic!("{}: {e}", algo.name()));
    prog
}

/// The extern bindings an algorithm needs: `start_vertex` when required,
/// plus the algorithm's default extern consts (e.g. LP's
/// `max_iters`/`lp_seed`).
pub fn externs_for(algo: Algorithm, start: u32) -> HashMap<String, Value> {
    let mut m = HashMap::new();
    for (name, v) in algo.default_externs() {
        m.insert((*name).to_string(), Value::Int(*v));
    }
    if algo.needs_start_vertex() {
        m.insert("start_vertex".to_string(), Value::Int(start as i64));
    }
    m
}

/// A symmetric path graph (both directions of each chain edge) — unlike
/// `generators::path`, which is directed. Entirely coreness 1.
pub fn sym_path(n: usize) -> Graph {
    let mut edges = Vec::new();
    for v in 0..n.saturating_sub(1) as u32 {
        edges.push((v, v + 1));
        edges.push((v + 1, v));
    }
    Graph::from_edges(n, &edges)
}

/// The small graph menagerie used across backend correctness tests.
/// All are symmetric (CC-safe) and weighted where relevant. The last four
/// are adversarial shapes for the scenario suite: disjoint cliques
/// (maximum triangle density), a long path (coreness 1 everywhere), a
/// barbell (k-core peeling cascade across the bridge), and a complete
/// bipartite graph (zero triangles; LP two-coloring oscillation bait).
pub fn test_graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("two_communities", ugc_graph::generators::two_communities()),
        (
            "road_16x16",
            ugc_graph::generators::road_grid(16, 16, 0.05, 3, true),
        ),
        ("rmat_8", ugc_graph::generators::rmat(8, 4, 7, true)),
        (
            "uniform_200",
            ugc_graph::generators::uniform_random(200, 600, 5, true),
        ),
        ("clique_batch", ugc_graph::generators::clique_batch(3, 5)),
        ("long_path", sym_path(24)),
        ("barbell", ugc_graph::generators::barbell(5, 3)),
        ("bipartite", ugc_graph::generators::bipartite(4, 5)),
    ]
}

/// Validates an algorithm's result properties read from snapshots.
///
/// # Panics
///
/// Panics with the validator's explanation on mismatch.
pub fn validate(
    algo: Algorithm,
    graph: &Graph,
    start: u32,
    ints: &dyn Fn(&str) -> Vec<i64>,
    floats: &dyn Fn(&str) -> Vec<f64>,
) {
    match algo {
        Algorithm::Bfs => {
            ugc_algorithms::validate::check_bfs_parents(graph, start, &ints("parent")).unwrap()
        }
        Algorithm::Sssp => {
            ugc_algorithms::validate::check_sssp_distances(graph, start, &ints("dist")).unwrap()
        }
        Algorithm::Cc => ugc_algorithms::validate::check_cc_labels(graph, &ints("IDs")).unwrap(),
        Algorithm::PageRank => {
            ugc_algorithms::validate::check_pagerank(graph, &floats("old_rank"), 1e-7).unwrap()
        }
        Algorithm::Bc => {
            ugc_algorithms::validate::check_bc(graph, start, &floats("centrality"), 1e-6).unwrap()
        }
        Algorithm::Tc => {
            ugc_algorithms::validate::check_triangle_counts(graph, &ints("tri")).unwrap()
        }
        Algorithm::KCore => ugc_algorithms::validate::check_coreness(graph, &ints("core")).unwrap(),
        // Matches the default externs seeded by `externs_for` /
        // `Compiler::new`: labels are compared up to partition equivalence.
        Algorithm::Lp => {
            ugc_algorithms::validate::check_lp_labels(graph, &ints("labels"), 20, 1).unwrap()
        }
    }
}

/// Runs `algo` under `sched` on a default-configured `V` over every
/// [`test_graphs`] graph and validates each answer. A simulator that ran
/// must have charged cycles; the CPU, which counts none, must have taken
/// wall time.
///
/// # Panics
///
/// Panics naming the algorithm and graph on an execution failure or a
/// wrong answer.
pub fn run_and_validate<V: GraphVm + Default>(algo: Algorithm, sched: Option<ScheduleRef>) {
    for (gname, graph) in test_graphs() {
        let prog = compile(algo, sched.clone());
        let run = V::default()
            .execute(prog, &graph, &externs_for(algo, 0))
            .unwrap_or_else(|e| panic!("{} on {gname}: {e}", algo.name()));
        assert!(
            run.cycles > 0 || run.time_ms > 0.0,
            "{} on {gname}: zero cycles",
            algo.name()
        );
        validate(algo, &graph, 0, &|p| run.property_ints(p), &|p| {
            run.property_floats(p)
        });
    }
}
