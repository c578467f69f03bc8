//! The CPU GraphVM's oriented triangle count against the per-edge reference.
//!
//! The CPU pass marks TC's edge operator, and on a symmetric simple graph
//! the executor counts each triangle once, from its lowest vertex, adding 2
//! per triangle to each corner from several workers by relaxed atomic adds.
//! `reference::triangle_counts` keeps the per-edge merge, so it is an
//! independent oracle. Every other graph must take the per-edge path, and
//! say so in the run's dispatch counts.

use ugc_algorithms::{reference, Algorithm};
use ugc_backend_cpu::{CpuGraphVm, CpuSchedule, KernelDispatch};
use ugc_graph::{Dataset, Graph, Scale};
use ugc_integration::{compile, externs_for, test_graphs};
use ugc_runtime::GraphVm;
use ugc_schedule::ScheduleRef;
use ugc_testkit::{check_with_shrink, Config, Prng};

/// Runs TC on `graph` with `threads` workers and no serial cut-off, so even
/// small graphs are cut into chunks; returns `tri` and the dispatch counts.
fn tc(graph: &Graph, threads: usize, kernels_on: bool) -> (Vec<i64>, KernelDispatch) {
    let sched = CpuSchedule::new().with_serial_threshold(0);
    let prog = compile(Algorithm::Tc, Some(ScheduleRef::simple(sched)));
    let run = CpuGraphVm::with_threads(threads)
        .with_kernels(kernels_on)
        .execute(prog, graph, &externs_for(Algorithm::Tc, 0))
        .expect("tc runs");
    (run.property_ints("tri"), run.stats.dispatch)
}

/// Asserts that `graph` runs oriented and matches the reference at 1, 2
/// and 8 workers.
fn assert_oriented_exact(name: &str, graph: &Graph) {
    assert!(graph.is_symmetric_simple(), "{name}: not symmetric simple");
    let want = reference::triangle_counts(graph);
    for threads in [1, 2, 8] {
        let (tri, dispatch) = tc(graph, threads, true);
        assert_eq!(
            (dispatch.oriented, dispatch.per_edge),
            (1, 0),
            "{name} at {threads} workers: {dispatch:?}"
        );
        assert_eq!(tri, want, "{name} at {threads} workers");
    }
}

/// An undirected simple graph: `n` vertices and each edge once, `s < d`.
#[derive(Debug, Clone)]
struct Undirected {
    n: usize,
    edges: Vec<(u32, u32)>,
}

impl Undirected {
    fn graph(&self) -> Graph {
        let both: Vec<_> = self
            .edges
            .iter()
            .flat_map(|&(s, d)| [(s, d), (d, s)])
            .collect();
        Graph::from_edges(self.n, &both)
    }
}

/// Random edges, then maybe a batch of cliques (dense in triangles), then
/// maybe a hub of degree at least 2048 with edges among its neighbours.
/// Every vertex id is shuffled, so neither cliques nor the hub sit at the
/// low ids the orientation starts from.
fn gen_graph(rng: &mut Prng) -> Undirected {
    let hub = rng.gen_bool(0.3);
    let n = if hub {
        rng.gen_range(2100..3000usize)
    } else {
        rng.gen_range(2..600usize)
    };
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.gen_range(0..i + 1));
    }
    let mut edges = Vec::new();
    for _ in 0..rng.gen_range(0..4 * n) {
        edges.push((rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)));
    }
    if rng.gen_bool(0.5) {
        let k = rng.gen_range(3..12usize).min(n);
        for c in 0..rng.gen_range(1..40usize).min(n / k) {
            for i in 0..k {
                for j in i + 1..k {
                    edges.push(((c * k + i) as u32, (c * k + j) as u32));
                }
            }
        }
    }
    if hub {
        for w in 1..n as u32 {
            edges.push((0, w));
            if rng.gen_bool(0.01) {
                edges.push((w, rng.gen_range(1..n as u32)));
            }
        }
    }
    let mut edges: Vec<(u32, u32)> = edges
        .into_iter()
        .map(|(s, d)| (perm[s as usize], perm[d as usize]))
        .filter(|(s, d)| s != d)
        .map(|(s, d)| (s.min(d), s.max(d)))
        .collect();
    edges.sort_unstable();
    edges.dedup();
    Undirected { n, edges }
}

/// Halves the edge list (either half), keeping the vertex count.
fn shrink_graph(g: &Undirected) -> Vec<Undirected> {
    let half = g.edges.len() / 2;
    if g.edges.is_empty() {
        return Vec::new();
    }
    [g.edges[..half].to_vec(), g.edges[half..].to_vec()]
        .into_iter()
        .map(|edges| Undirected { n: g.n, edges })
        .collect()
}

#[test]
fn oriented_tc_is_exact_on_random_symmetric_simple_graphs() {
    let col = ugc_telemetry::Collector::start();
    check_with_shrink(
        "oriented_tc_is_exact_on_random_symmetric_simple_graphs",
        Config::with_cases(24),
        gen_graph,
        shrink_graph,
        |g| assert_oriented_exact("random", &g.graph()),
    );
    if ugc_telemetry::enabled() {
        assert!(col.snapshot().get("cpu.intersect.oriented").unwrap_or(0) > 0);
    }
}

#[test]
fn oriented_tc_is_exact_on_the_menagerie_and_the_datasets() {
    for (name, graph) in test_graphs() {
        assert_oriented_exact(name, &graph);
    }
    for dataset in Dataset::ALL {
        assert_oriented_exact(dataset.abbrev(), &dataset.generate(Scale::Small));
    }
}

/// A marked operator on a directed graph, a multigraph or a graph with
/// self-loops runs per edge, and matches the reference exactly.
#[test]
fn marked_tc_falls_back_per_edge_on_non_simple_graphs() {
    let clique: Vec<(u32, u32)> = (0..6u32)
        .flat_map(|s| (0..6u32).filter(move |&d| d != s).map(move |d| (s, d)))
        .collect();
    let with = |extra: &[(u32, u32)]| {
        let mut edges = clique.clone();
        edges.extend_from_slice(extra);
        Graph::from_edges(8, &edges)
    };
    let col = ugc_telemetry::Collector::start();
    let graphs = [
        ("directed", with(&[(6, 0), (6, 1), (0, 7)])),
        ("multigraph", with(&[(0, 1), (1, 0), (2, 3), (3, 2)])),
        ("self-loops", with(&[(0, 0), (4, 4), (7, 7)])),
    ];
    for (name, graph) in &graphs {
        assert!(!graph.is_symmetric_simple(), "{name}");
        let want = reference::triangle_counts(graph);
        for threads in [1, 8] {
            let (tri, dispatch) = tc(graph, threads, true);
            assert_eq!(
                (dispatch.oriented, dispatch.per_edge),
                (0, 1),
                "{name} at {threads} workers: {dispatch:?}"
            );
            assert_eq!(tri, want, "{name} at {threads} workers");
        }
    }
    if ugc_telemetry::enabled() {
        assert!(col.snapshot().get("cpu.intersect.per_edge").unwrap_or(0) >= 6);
    }
}

/// With kernels off, the interpreter keeps the per-edge merge: the marked
/// operator is neither oriented nor counted as a per-edge fallback.
#[test]
fn kernels_off_keeps_the_per_edge_merge() {
    let graph = ugc_graph::generators::clique_batch(4, 6);
    assert!(graph.is_symmetric_simple());
    let (tri, dispatch) = tc(&graph, 2, false);
    assert_eq!(
        (dispatch.oriented, dispatch.per_edge),
        (0, 0),
        "{dispatch:?}"
    );
    assert!(
        dispatch.fallback > 0 && dispatch.compiled == 0,
        "{dispatch:?}"
    );
    assert_eq!(tri, reference::triangle_counts(&graph));
}
