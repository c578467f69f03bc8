//! Cross-backend differential conformance: every algorithm × a seeded
//! graph menagerie (power-law, bounded-degree, and degenerate shapes),
//! executed by all four GraphVMs under their default schedules. Results
//! must agree pairwise — after canonicalizing representation-dependent
//! outputs (BFS trees, CC label names) — and match the sequential
//! references in `ugc_algorithms`.
//!
//! On a mismatch the failure message names the graph, its generator seed,
//! and the minimized set of differing vertices, so the case can be
//! replayed directly.

use ugc::{Algorithm, Compiler, RunResult, Target, UgcError};
use ugc_algorithms::reference;
use ugc_graph::Graph;

/// One differential case: a named, seeded graph. `seed` is the generator
/// seed (0 for hand-built shapes — the edge list in this file is the
/// reproducer).
struct Case {
    name: &'static str,
    seed: u64,
    graph: Graph,
}

fn cases() -> Vec<Case> {
    let mut v = Vec::new();
    v.push(Case {
        name: "empty",
        seed: 0,
        graph: Graph::from_edges(0, &[]),
    });
    v.push(Case {
        name: "single_vertex",
        seed: 0,
        graph: Graph::from_edges(1, &[]),
    });
    // Self-loops and duplicate (multi-)edges, symmetric, weighted.
    v.push(Case {
        name: "self_loop_multi_edge",
        seed: 0,
        graph: Graph::from_weighted_edges(
            4,
            &[
                (0, 0, 1),
                (0, 1, 2),
                (0, 1, 2), // duplicate edge
                (1, 0, 2),
                (1, 0, 2),
                (1, 2, 3),
                (2, 1, 3),
                (2, 2, 4),
                (2, 3, 1),
                (3, 2, 1),
            ],
        ),
    });
    // Two components; vertex 0's component reaches only half the graph.
    v.push(Case {
        name: "disconnected",
        seed: 0,
        graph: Graph::from_weighted_edges(
            6,
            &[
                (0, 1, 1),
                (1, 0, 1),
                (1, 2, 2),
                (2, 1, 2),
                (3, 4, 1),
                (4, 3, 1),
                (4, 5, 3),
                (5, 4, 3),
            ],
        ),
    });
    for seed in [11u64, 23] {
        v.push(Case {
            name: "rmat_powerlaw",
            seed,
            graph: ugc_graph::generators::rmat(7, 4, seed, true),
        });
    }
    v.push(Case {
        name: "road_grid_bounded",
        seed: 13,
        graph: ugc_graph::generators::road_grid(10, 10, 0.05, 13, true),
    });
    v.push(Case {
        name: "uniform_bounded",
        seed: 17,
        graph: ugc_graph::generators::uniform_random(150, 450, 17, true),
    });
    // Adversarial shapes for the scenario suite (TC/k-core/LP): maximum
    // triangle density, a triangle-free bipartite shape, a coreness-1
    // path, and a barbell whose bridge peels in a cascade.
    v.push(Case {
        name: "clique_batch",
        seed: 0,
        graph: ugc_graph::generators::clique_batch(3, 5),
    });
    v.push(Case {
        name: "bipartite",
        seed: 0,
        graph: ugc_graph::generators::bipartite(4, 5),
    });
    v.push(Case {
        name: "long_path",
        seed: 0,
        graph: sym_path(24),
    });
    v.push(Case {
        name: "barbell",
        seed: 0,
        graph: ugc_graph::generators::barbell(5, 3),
    });
    v
}

/// Symmetric path (both directions per chain edge); hand-built, so the
/// edge list here is the reproducer.
fn sym_path(n: usize) -> Graph {
    let mut edges = Vec::new();
    for v in 0..n.saturating_sub(1) as u32 {
        edges.push((v, v + 1));
        edges.push((v + 1, v));
    }
    Graph::from_edges(n, &edges)
}

fn run_backend(target: Target, algo: Algorithm, graph: &Graph) -> Result<RunResult, UgcError> {
    let mut c = Compiler::new(algo);
    if algo.needs_start_vertex() {
        c.start_vertex(0);
    }
    c.run(target, graph)
}

/// BFS parent arrays differ between valid runs (any shortest-path tree is
/// correct); the tree *depths* are canonical and must equal the reference
/// level of each vertex.
fn depths_from_parents(parents: &[i64]) -> Vec<i64> {
    let n = parents.len();
    let mut depth = vec![-1i64; n];
    for start in 0..n {
        if depth[start] >= 0 || parents[start] < 0 {
            continue;
        }
        let mut chain = Vec::new();
        let mut cur = start;
        let base = loop {
            if depth[cur] >= 0 {
                break depth[cur];
            }
            let p = parents[cur];
            assert!(p >= 0, "vertex {cur} on a parent chain has no parent");
            if p as usize == cur {
                break 0; // root: parent[v] == v
            }
            chain.push(cur);
            cur = p as usize;
            assert!(
                chain.len() <= n,
                "parent cycle detected through vertex {start}"
            );
        };
        if depth[cur] < 0 {
            depth[cur] = base;
        }
        for (i, &v) in chain.iter().rev().enumerate() {
            depth[v] = depth[cur] + 1 + i as i64;
        }
    }
    depth
}

/// CC labels are canonical up to renaming: rewrite each label to the
/// smallest vertex id that carries it.
fn canonical_labels(labels: &[i64]) -> Vec<i64> {
    let mut min_of = std::collections::HashMap::new();
    for (v, &l) in labels.iter().enumerate() {
        let e = min_of.entry(l).or_insert(v as i64);
        *e = (*e).min(v as i64);
    }
    labels.iter().map(|l| min_of[l]).collect()
}

/// The vertices where two integer vectors differ, minimized for the
/// failure message (sorted, capped).
fn diff_ints(a: &[i64], b: &[i64]) -> Vec<usize> {
    a.iter()
        .zip(b)
        .enumerate()
        .filter(|(_, (x, y))| x != y)
        .map(|(i, _)| i)
        .take(8)
        .collect()
}

fn diff_floats(a: &[f64], b: &[f64], tol: f64) -> Vec<usize> {
    a.iter()
        .zip(b)
        .enumerate()
        .filter(|(_, (x, y))| (*x - *y).abs() > tol)
        .map(|(i, _)| i)
        .take(8)
        .collect()
}

fn assert_int_match(case: &Case, algo: Algorithm, who: &str, got: &[i64], expect: &[i64]) {
    let bad = diff_ints(got, expect);
    assert!(
        bad.is_empty(),
        "{}/{} ({}, seed {}): differs at minimized vertex set {:?} \
         (got {:?}, expected {:?})",
        algo.name(),
        who,
        case.name,
        case.seed,
        bad,
        bad.iter().map(|&v| got[v]).collect::<Vec<_>>(),
        bad.iter().map(|&v| expect[v]).collect::<Vec<_>>(),
    );
}

fn assert_float_match(case: &Case, algo: Algorithm, who: &str, got: &[f64], expect: &[f64]) {
    let tol = 1e-6;
    let bad = diff_floats(got, expect, tol);
    assert!(
        bad.is_empty(),
        "{}/{} ({}, seed {}): differs at minimized vertex set {:?} \
         (got {:?}, expected {:?}, tol {tol})",
        algo.name(),
        who,
        case.name,
        case.seed,
        bad,
        bad.iter().map(|&v| got[v]).collect::<Vec<_>>(),
        bad.iter().map(|&v| expect[v]).collect::<Vec<_>>(),
    );
}

/// Runs one algorithm over one case on all four backends and checks
/// pairwise agreement plus agreement with the sequential reference.
fn differential(algo: Algorithm, case: &Case) {
    if algo.needs_start_vertex() && case.graph.num_vertices() == 0 {
        // No valid start vertex exists; nothing to compare.
        return;
    }
    let runs: Vec<(Target, Result<RunResult, UgcError>)> = Target::ALL
        .into_iter()
        .map(|t| (t, run_backend(t, algo, &case.graph)))
        .collect();
    // All four backends must agree on whether the case runs at all.
    let failures: Vec<String> = runs
        .iter()
        .filter_map(|(t, r)| r.as_ref().err().map(|e| format!("{}: {e}", t.name())))
        .collect();
    if !failures.is_empty() {
        assert_eq!(
            failures.len(),
            runs.len(),
            "{} ({}, seed {}): some backends failed while others ran: {failures:?}",
            algo.name(),
            case.name,
            case.seed
        );
        return;
    }
    let ok: Vec<(Target, RunResult)> = runs
        .into_iter()
        .map(|(t, r)| (t, r.expect("checked above")))
        .collect();

    match algo {
        Algorithm::Bfs => {
            let reference = reference::bfs_levels(&case.graph, 0);
            for (t, run) in &ok {
                let depths = depths_from_parents(run.property_ints("parent"));
                assert_int_match(case, algo, t.name(), &depths, &reference);
            }
        }
        Algorithm::Sssp => {
            let reference = reference::dijkstra(&case.graph, 0);
            for (t, run) in &ok {
                assert_int_match(case, algo, t.name(), run.property_ints("dist"), &reference);
            }
        }
        Algorithm::Cc => {
            let reference = canonical_labels(&reference::cc_labels(&case.graph));
            for (t, run) in &ok {
                let canon = canonical_labels(run.property_ints("IDs"));
                assert_int_match(case, algo, t.name(), &canon, &reference);
            }
        }
        Algorithm::PageRank => {
            // Backends agree pairwise (within float-accumulation noise);
            // the first backend anchors the comparison.
            let (t0, anchor) = &ok[0];
            let anchor_ranks = anchor.property_floats("old_rank");
            for (t, run) in &ok[1..] {
                assert_float_match(
                    case,
                    algo,
                    &format!("{} vs {}", t.name(), t0.name()),
                    run.property_floats("old_rank"),
                    anchor_ranks,
                );
            }
            if case.graph.num_vertices() > 0 {
                ugc_algorithms::validate::check_pagerank(&case.graph, anchor_ranks, 1e-7)
                    .unwrap_or_else(|e| {
                        panic!(
                            "PR/{} ({}, seed {}): reference check failed: {e}",
                            t0.name(),
                            case.name,
                            case.seed
                        )
                    });
            }
        }
        Algorithm::Bc => {
            let reference = reference::bc_dependencies(&case.graph, 0);
            for (t, run) in &ok {
                assert_float_match(
                    case,
                    algo,
                    t.name(),
                    run.property_floats("centrality"),
                    &reference,
                );
            }
        }
        Algorithm::Tc => {
            // Integer arithmetic: counts must match the reference exactly,
            // including duplicate-edge and self-loop contributions.
            let reference = reference::triangle_counts(&case.graph);
            for (t, run) in &ok {
                assert_int_match(case, algo, t.name(), run.property_ints("tri"), &reference);
            }
        }
        Algorithm::KCore => {
            // The coreness vector is canonical (peeling order does not
            // affect it), so the comparison is exact.
            let reference = reference::coreness(&case.graph);
            for (t, run) in &ok {
                assert_int_match(case, algo, t.name(), run.property_ints("core"), &reference);
            }
        }
        Algorithm::Lp => {
            // Label values are representation-dependent; the induced
            // partition is canonical. Rewriting every label to the
            // smallest vertex id carrying it compares partitions exactly.
            let reference = canonical_labels(&reference::label_propagation(&case.graph, 20, 1));
            for (t, run) in &ok {
                let canon = canonical_labels(run.property_ints("labels"));
                assert_int_match(case, algo, t.name(), &canon, &reference);
            }
        }
    }
}

fn run_algo_over_all_cases(algo: Algorithm) {
    for case in cases() {
        differential(algo, &case);
    }
}

#[test]
fn differential_pagerank() {
    run_algo_over_all_cases(Algorithm::PageRank);
}

#[test]
fn differential_bfs() {
    run_algo_over_all_cases(Algorithm::Bfs);
}

#[test]
fn differential_sssp() {
    run_algo_over_all_cases(Algorithm::Sssp);
}

#[test]
fn differential_cc() {
    run_algo_over_all_cases(Algorithm::Cc);
}

#[test]
fn differential_bc() {
    run_algo_over_all_cases(Algorithm::Bc);
}

#[test]
fn differential_tc() {
    run_algo_over_all_cases(Algorithm::Tc);
}

#[test]
fn differential_kcore() {
    run_algo_over_all_cases(Algorithm::KCore);
}

#[test]
fn differential_lp() {
    run_algo_over_all_cases(Algorithm::Lp);
}

#[test]
fn bfs_depth_canonicalization_helpers() {
    // parent array: 0 is root, 1->0, 2->1, 3 unreached.
    assert_eq!(depths_from_parents(&[0, 0, 1, -1]), vec![0, 1, 2, -1]);
    // CC labels renamed consistently.
    assert_eq!(canonical_labels(&[7, 7, 3, 3]), vec![0, 0, 2, 2]);
}

/// `edges.from(filterFunc)` names the *source* endpoint in either
/// direction. In-flow from every third vertex, on a directed graph so a
/// backend that filters (or walks) the wrong endpoint under pull computes a
/// different sum: CPU, GPU and HammerBlade against the sequential answer,
/// with every vertex as input and with an explicit input frontier (which
/// adds the pull membership check).
#[test]
fn pull_applies_the_source_filter_to_the_source() {
    use ugc_backend_cpu::CpuSchedule;
    use ugc_backend_gpu::GpuSchedule;
    use ugc_backend_hb::HbSchedule;
    use ugc_schedule::{SchedDirection, ScheduleRef};

    const INFLOW_HEAD: &str = r#"
element Vertex end
element Edge end
const edges : edgeset{Edge}(Vertex,Vertex) = load("g");
const vertices : vertexset{Vertex} = edges.getVertices();
const kind : vector{Vertex}(int) = 0;
const inflow : vector{Vertex}(int) = 0;
func tag(v : Vertex)
    kind[v] = v - (v / 3) * 3;
end
func isSource(v : Vertex) -> output : bool
    output = (kind[v] == 0);
end
func addSource(src : Vertex, dst : Vertex)
    inflow[dst] += src + 1;
end
"#;
    const MAINS: [&str; 2] = [
        r#"
func main()
    vertices.apply(tag);
    #s1# edges.from(isSource).apply(addSource);
end
"#,
        r#"
func main()
    vertices.apply(tag);
    var everyone : vertexset{Vertex} = new vertexset{Vertex}(97);
    #s1# edges.from(everyone).srcFilter(isSource).apply(addSource);
end
"#,
    ];

    // Hand-built and directed (every generator symmetrizes): two out-edges
    // per vertex, so in- and out-neighbourhoods differ almost everywhere.
    let n = 97u32;
    let edges: Vec<(u32, u32)> = (0..n)
        .flat_map(|v| [(v, (v * 7 + 3) % n), (v, (v * 5 + 1) % n)])
        .filter(|(s, d)| s != d)
        .collect();
    let graph = Graph::from_edges(n as usize, &edges);
    let mut expect = vec![0i64; graph.num_vertices()];
    for src in (0..graph.num_vertices() as u32).filter(|s| s % 3 == 0) {
        for &dst in graph.out_neighbors(src) {
            expect[dst as usize] += src as i64 + 1;
        }
    }
    assert!(expect.iter().any(|&x| x != 0), "degenerate test graph");

    let pull = SchedDirection::Pull;
    let cases = [
        (
            Target::Cpu,
            ScheduleRef::simple(CpuSchedule::new().with_direction(pull)),
        ),
        (
            Target::Gpu,
            ScheduleRef::simple(GpuSchedule::new().with_direction(pull)),
        ),
        (
            Target::HammerBlade,
            ScheduleRef::simple(HbSchedule::new().with_direction(pull)),
        ),
    ];
    for (main, (target, sched)) in MAINS
        .iter()
        .flat_map(|m| cases.iter().map(move |c| (m, c.clone())))
    {
        let mut compiler = Compiler::from_source(format!("{INFLOW_HEAD}{main}"));
        compiler.schedule("s1", sched);
        let emitted = compiler.compile().expect("compiles");
        assert!(
            ugc_graphir::printer::print_program(&emitted).contains("PULL"),
            "{}: the schedule did not select a pull traversal",
            target.name()
        );
        let run = compiler
            .run(target, &graph)
            .unwrap_or_else(|e| panic!("{}: {e}", target.name()));
        assert_eq!(run.degraded_to, None, "{}", target.name());
        assert_eq!(
            run.property_ints("inflow"),
            &expect[..],
            "{}: pull in-flow diverges from the sequential answer",
            target.name()
        );
    }
}
