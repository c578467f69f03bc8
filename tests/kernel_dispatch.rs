//! Compiled dispatch: the CPU executor's monomorphized edge kernels and
//! compiled UDF bodies versus the interpreter they replace.
//!
//! Three guarantees:
//!
//! 1. **Total dispatch** — every reachable point of the CPU schedule
//!    space, applied to every algorithm, yields edge traversals that
//!    either resolve to a *named* monomorphized kernel or run compiled UDF
//!    bodies. Recognition is a closed decision, never a crash, and every
//!    resolved name comes from the known kernel library.
//! 2. **No built-in UDF is interpreted** — every algorithm under its
//!    hand-tuned CPU schedule runs every operator on a kernel or a
//!    compiled body; with kernels off, every operator is interpreted.
//! 3. **Differential equality** — with a single thread every tier visits
//!    edges in the same order, so every result property must be
//!    *bit-identical* between a `with_kernels` run and an
//!    interpreter-forced run, across the whole graph menagerie.
//!    Multi-threaded runs agree on the race-free derived results (BFS
//!    trees, SSSP distances, triangle counts, coreness).

use ugc::Target;
use ugc_algorithms::Algorithm;
use ugc_backend_cpu::{kernels, CpuGraphVm, CpuSchedule, CpuScheduleSpace};
use ugc_graphir::ir::{Program, Stmt, StmtKind};
use ugc_integration::{compile, externs_for, test_graphs, validate};
use ugc_runtime::bytecode::{binding_of, compile_udfs, UdfId, UdfSet};
use ugc_schedule::space::{PointIter, ScheduleSpace, SpaceParams};
use ugc_schedule::{Parallelization, SchedDirection, ScheduleRef};

/// Every kernel the library can assemble. A recognized name outside this
/// set means the executor dispatch table and this test have diverged.
const KNOWN_KERNELS: &[&str] = &[
    "cas_claim",
    "reduce_sum",
    "reduce_min",
    "reduce_max",
    "reduce_or",
    "relax_min",
    "relax_sum",
];

/// Collects every edge traversal in a statement tree.
fn edge_iterators(stmts: &[Stmt], out: &mut Vec<ugc_graphir::ir::EdgeSetIteratorData>) {
    for s in stmts {
        match &s.kind {
            StmtKind::EdgeSetIterator(d) => out.push(d.clone()),
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                edge_iterators(then_body, out);
                edge_iterators(else_body, out);
            }
            StmtKind::While { body, .. } | StmtKind::For { body, .. } => {
                edge_iterators(body, out);
            }
            _ => {}
        }
    }
}

fn all_edge_iterators(prog: &Program) -> Vec<ugc_graphir::ir::EdgeSetIteratorData> {
    let mut iters = Vec::new();
    edge_iterators(&prog.main, &mut iters);
    for f in &prog.functions {
        edge_iterators(&f.body, &mut iters);
    }
    iters
}

/// `f(apply, src filter, dst filter)` for each edge traversal of a
/// compiled program.
fn per_traversal<T>(
    prog: &Program,
    udfs: &UdfSet,
    f: impl Fn(UdfId, Option<UdfId>, Option<UdfId>) -> T,
) -> Vec<T> {
    let id = |n: &String| udfs.id_of(n).unwrap_or_else(|| panic!("UDF `{n}` missing"));
    all_edge_iterators(prog)
        .iter()
        .map(|d| {
            f(
                id(&d.apply),
                d.src_filter.as_ref().map(id),
                d.dst_filter.as_ref().map(id),
            )
        })
        .collect()
}

/// `(kernel name | None)` for each edge traversal of a compiled program,
/// resolved exactly the way the executor's dispatch table does.
fn resolutions(prog: &Program, udfs: &UdfSet) -> Vec<Option<&'static str>> {
    per_traversal(prog, udfs, |apply, sf, df| {
        kernels::recognize_name(prog, udfs, apply, sf, df)
    })
}

/// The traversal the executor runs for each edge operator: a kernel name,
/// `compiled udf` or `interpreter fallback`.
fn selections(prog: &Program, udfs: &UdfSet) -> Vec<&'static str> {
    per_traversal(prog, udfs, |apply, sf, df| {
        kernels::select_name(prog, udfs, apply, sf, df)
    })
}

/// Guarantee 1: the whole reachable schedule space dispatches cleanly, and
/// whatever no kernel matches runs compiled, never interpreted.
#[test]
fn every_schedule_point_resolves_or_deliberately_falls_back() {
    let mut specialized = 0usize;
    let mut compiled = 0usize;
    for algo in Algorithm::ALL {
        let params = SpaceParams {
            ordered: matches!(algo, Algorithm::Sssp),
            data_driven: matches!(algo, Algorithm::Bfs | Algorithm::Bc),
            num_vertices: 64,
        };
        let dims = CpuScheduleSpace.dimensions(&params);
        for pt in PointIter::new(&dims) {
            let Some(sched) = CpuScheduleSpace.materialize(&params, &pt) else {
                continue;
            };
            let prog = compile(algo, Some(sched));
            let udfs = compile_udfs(&prog, &binding_of(&prog))
                .unwrap_or_else(|e| panic!("{}: {e}", algo.name()));
            let res = resolutions(&prog, &udfs);
            assert!(
                !res.is_empty(),
                "{} at point {pt:?}: no edge traversal found",
                algo.name()
            );
            for (r, selected) in res.into_iter().zip(selections(&prog, &udfs)) {
                match r {
                    Some(name) => {
                        assert!(
                            KNOWN_KERNELS.contains(&name),
                            "{} at point {pt:?}: unknown kernel `{name}`",
                            algo.name()
                        );
                        assert_eq!(selected, name);
                        specialized += 1;
                    }
                    None => {
                        assert_eq!(
                            selected,
                            "compiled udf",
                            "{} at point {pt:?}: traversal left to the interpreter",
                            algo.name()
                        );
                        compiled += 1;
                    }
                }
            }
        }
    }
    // The library must actually engage somewhere — a space with no kernel
    // would lose the monomorphized bodies the compiled tier cannot match.
    assert!(
        specialized > 0,
        "no schedule point resolved to a monomorphized kernel ({compiled} compiled)"
    );
}

/// The core frontier algorithms must hit compiled kernels under their
/// default schedules — these are exactly the hot loops of the fig8 CPU
/// cells this PR speeds up.
#[test]
fn default_schedules_of_frontier_algorithms_specialize() {
    for algo in [Algorithm::Bfs, Algorithm::Cc, Algorithm::Sssp] {
        let prog = compile(algo, None);
        let udfs = compile_udfs(&prog, &binding_of(&prog)).expect("udfs compile");
        let res = resolutions(&prog, &udfs);
        assert!(
            res.iter().any(Option::is_some),
            "{}: default schedule never reaches a compiled kernel: {res:?}",
            algo.name()
        );
    }
}

/// The primary result property of each algorithm, with its comparison
/// domain (ints or float bits — both exact).
fn result_bits(run: &ugc_backend_cpu::Execution<'_>, algo: Algorithm) -> Vec<u64> {
    match algo {
        Algorithm::Bfs => run
            .property_ints("parent")
            .iter()
            .map(|&v| v as u64)
            .collect(),
        Algorithm::Sssp => run
            .property_ints("dist")
            .iter()
            .map(|&v| v as u64)
            .collect(),
        Algorithm::Cc => run.property_ints("IDs").iter().map(|&v| v as u64).collect(),
        Algorithm::PageRank => run
            .property_floats("old_rank")
            .iter()
            .map(|&v| v.to_bits())
            .collect(),
        Algorithm::Bc => run
            .property_floats("centrality")
            .iter()
            .map(|&v| v.to_bits())
            .collect(),
        Algorithm::Tc => run.property_ints("tri").iter().map(|&v| v as u64).collect(),
        Algorithm::KCore => run
            .property_ints("core")
            .iter()
            .map(|&v| v as u64)
            .collect(),
        Algorithm::Lp => run
            .property_ints("labels")
            .iter()
            .map(|&v| v as u64)
            .collect(),
    }
}

/// The schedules the differential sweep runs per algorithm. Pull and
/// cache blocking only where the correctness suite exercises them.
fn differential_scheds(algo: Algorithm) -> Vec<Option<ScheduleRef>> {
    let mut scheds: Vec<Option<ScheduleRef>> = vec![
        None,
        Some(ScheduleRef::simple(
            CpuSchedule::new()
                .with_serial_threshold(0)
                .with_parallelization(Parallelization::EdgeAwareVertexBased),
        )),
        Some(ScheduleRef::simple(
            CpuSchedule::new().with_deduplication(true),
        )),
    ];
    if matches!(algo, Algorithm::Bfs | Algorithm::PageRank) {
        scheds.push(Some(ScheduleRef::simple(
            CpuSchedule::new().with_direction(SchedDirection::Pull),
        )));
        scheds.push(Some(ScheduleRef::simple(
            CpuSchedule::new().with_cache_blocking(true),
        )));
    }
    scheds
}

/// The recognizer's decision on each new scenario algorithm is deliberate,
/// not accidental:
///
/// - **LP** (`next_label[dst] min= labels[src]`) is exactly the CC
///   reduction shape and must specialize to `reduce_min`. (Bit-identity
///   with the interpreter is covered by the `Algorithm::ALL` sweep above.)
/// - **TC** (`tri[dst] += intersect_count(src, dst)`) matches no kernel:
///   the library only specializes reductions whose value is a plain
///   property load of `src`. Its edge UDF runs as a compiled body.
/// - **k-core** (`deg[dst] += -1`) matches none for the same reason — a
///   literal-valued reduction — and runs compiled too, as do its vertex
///   filter and applies. Neither leaves anything to the interpreter.
#[test]
fn new_algorithms_dispatch_deliberately() {
    let resolutions_of = |algo: Algorithm| {
        let prog = compile(algo, None);
        let udfs = compile_udfs(&prog, &binding_of(&prog)).expect("udfs compile");
        resolutions(&prog, &udfs)
    };
    assert_eq!(
        resolutions_of(Algorithm::Lp),
        vec![Some("reduce_min")],
        "LP's propagate is the CC shape and must specialize"
    );
    assert_eq!(
        resolutions_of(Algorithm::Tc),
        vec![None],
        "TC must match no kernel — no intersection kernel exists"
    );
    assert_eq!(
        resolutions_of(Algorithm::KCore),
        vec![None],
        "k-core must match no kernel — no literal-valued reduction kernel"
    );
    // Both run compiled, and say so: in the run's own dispatch count and
    // in the registry (when telemetry is collected at all).
    let col = ugc_telemetry::Collector::start();
    let graph = ugc_graph::generators::clique_batch(2, 4);
    for algo in [Algorithm::Tc, Algorithm::KCore] {
        let prog = compile(algo, None);
        let udfs = compile_udfs(&prog, &binding_of(&prog)).expect("udfs compile");
        assert_eq!(
            selections(&prog, &udfs),
            vec!["compiled udf"],
            "{}",
            algo.name()
        );
        let run = CpuGraphVm::with_threads(1)
            .with_kernels(true)
            .execute(prog, &graph, &externs_for(algo, 0))
            .expect("runs");
        assert!(
            run.dispatch.compiled > 0 && run.dispatch.fallback == 0,
            "{}: {:?}",
            algo.name(),
            run.dispatch
        );
    }
    if ugc_telemetry::enabled() {
        let snap = col.snapshot();
        assert!(
            snap.get("cpu.kernel.compiled").unwrap_or(0) > 0,
            "compiled operators were not counted: {snap:?}"
        );
    }
}

/// Guarantee 2: under its hand-tuned CPU schedule on a power-law and a
/// road graph, every algorithm runs every operator (edge, vertex apply,
/// vertex filter) on a kernel or a compiled body — no built-in UDF is left
/// interpreted — and with kernels off, on the interpreter alone.
#[test]
fn no_builtin_udf_is_interpreted_under_tuned_schedules() {
    let graphs = [
        ("rmat_8", ugc_graph::generators::rmat(8, 4, 7, true)),
        (
            "road_16x16",
            ugc_graph::generators::road_grid(16, 16, 0.05, 3, true),
        ),
    ];
    for algo in Algorithm::ALL {
        for (gname, graph) in &graphs {
            let sched = ugc_bench::tuned_schedule_for(Target::Cpu, algo, graph);
            let dispatch = |kernels_on: bool| {
                CpuGraphVm::with_threads(2)
                    .with_kernels(kernels_on)
                    .execute(
                        compile(algo, Some(sched.clone())),
                        graph,
                        &externs_for(algo, 0),
                    )
                    .unwrap_or_else(|e| panic!("{} on {gname}: {e}", algo.name()))
                    .dispatch
            };
            let on = dispatch(true);
            assert!(
                on.fallback == 0 && on.specialized + on.compiled > 0,
                "{} on {gname}: an operator was interpreted: {on:?}",
                algo.name()
            );
            let off = dispatch(false);
            assert!(
                off.compiled == 0 && off.specialized == 0 && off.fallback > 0,
                "{} on {gname}: kernels off still compiled: {off:?}",
                algo.name()
            );
        }
    }
}

/// Guarantee 3 (serial): kernels on vs interpreter-forced, one thread,
/// bit-identical results everywhere — and both valid against the
/// sequential reference.
#[test]
fn kernels_are_bit_identical_to_interpreter_single_threaded() {
    for algo in Algorithm::ALL {
        for sched in differential_scheds(algo) {
            for (gname, graph) in test_graphs() {
                let run = |kernels_on: bool| {
                    let prog = compile(algo, sched.clone());
                    CpuGraphVm::with_threads(1)
                        .with_kernels(kernels_on)
                        .execute(prog, &graph, &externs_for(algo, 0))
                        .unwrap_or_else(|e| panic!("{} on {gname}: {e}", algo.name()))
                };
                let kernel_run = run(true);
                let interp_run = run(false);
                assert_eq!(
                    result_bits(&kernel_run, algo),
                    result_bits(&interp_run, algo),
                    "{} on {gname}: kernel result diverges from interpreter",
                    algo.name()
                );
                validate(algo, &graph, 0, &|p| kernel_run.property_ints(p), &|p| {
                    kernel_run.property_floats(p)
                });
            }
        }
    }
}

/// Guarantee 3 (parallel): under real threads the kernel and compiled paths
/// agree with the interpreter on the race-free derived answers.
#[test]
fn kernels_match_interpreter_under_threads() {
    let graph = ugc_graph::generators::rmat(9, 6, 13, true);
    let sched = ScheduleRef::simple(CpuSchedule::new().with_serial_threshold(0));
    for kernels_on in [true, false] {
        let bfs = CpuGraphVm::with_threads(8)
            .with_kernels(kernels_on)
            .execute(
                compile(Algorithm::Bfs, Some(sched.clone())),
                &graph,
                &externs_for(Algorithm::Bfs, 0),
            )
            .expect("bfs runs");
        ugc_algorithms::validate::check_bfs_parents(&graph, 0, &bfs.property_ints("parent"))
            .expect("valid BFS tree");
    }
    // SSSP distances converge to the unique shortest-path fixpoint under
    // any interleaving: exact equality across both dispatch modes.
    let dist_of = |kernels_on: bool| {
        CpuGraphVm::with_threads(8)
            .with_kernels(kernels_on)
            .execute(
                compile(Algorithm::Sssp, Some(sched.clone())),
                &graph,
                &externs_for(Algorithm::Sssp, 0),
            )
            .expect("sssp runs")
            .property_ints("dist")
    };
    assert_eq!(dist_of(true), dist_of(false));
    // Triangle counts are integer sums and coreness is a fixpoint: both
    // are exact under any interleaving, so the compiled TC edge body and
    // the compiled k-core filter/applies must reproduce the interpreter.
    // Compiled TC counts through each worker's `IntersectScratch`, the
    // interpreter by the merge, so the inputs cover both walk orders, one
    // and eight workers, the R-MAT graph (whose push walk takes the
    // scratch's binary search), a star's hub, and a multigraph (on which
    // the scratch must merge).
    let out = graph.out_csr();
    let mut scratch = ugc_graph::IntersectScratch::default();
    for (s, d, _) in out.iter_edges() {
        scratch.count(out, s, d);
    }
    assert!(scratch.paths().search > 0, "{:?}", scratch.paths());
    let mut doubled: Vec<_> = out.iter_edges().map(|(s, d, _)| (s, d)).collect();
    doubled.extend(doubled.clone().into_iter().step_by(7));
    let multigraph = ugc_graph::Graph::from_edges(graph.num_vertices(), &doubled);
    assert!(multigraph.out_csr().has_repeated_targets());
    let graphs = [
        ("rmat", graph.clone()),
        ("star", ugc_graph::generators::star(600)),
        ("multigraph", multigraph),
    ];
    for (algo, prop) in [(Algorithm::Tc, "tri"), (Algorithm::KCore, "core")] {
        for (name, graph) in &graphs {
            for direction in [SchedDirection::Push, SchedDirection::Pull] {
                let sched = CpuSchedule::new()
                    .with_serial_threshold(0)
                    .with_direction(direction);
                for threads in [1, 8] {
                    let result_of = |kernels_on: bool| {
                        let run = CpuGraphVm::with_threads(threads)
                            .with_kernels(kernels_on)
                            .execute(
                                compile(algo, Some(ScheduleRef::simple(sched.clone()))),
                                graph,
                                &externs_for(algo, 0),
                            )
                            .unwrap_or_else(|e| panic!("{}: {e}", algo.name()));
                        (run.property_ints(prop), run.dispatch)
                    };
                    let ((compiled, on), (interpreted, off)) = (result_of(true), result_of(false));
                    let case = format!("{} {name} {direction:?} {threads}t", algo.name());
                    assert!(on.compiled > 0 && on.fallback == 0, "{case}: {on:?}");
                    assert_eq!(off.compiled, 0, "{case}: {off:?}");
                    assert_eq!(compiled, interpreted, "{case}: `{prop}` diverges");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Widened recognizer coverage: UpdatePrio Sum and float-equality filters.
// ---------------------------------------------------------------------------

/// Compiles DSL source through the full hardware-independent pipeline,
/// with no schedules attached.
fn compile_source(src: &str) -> Program {
    let mut prog = ugc_midend::frontend_to_ir(src).expect("source compiles");
    ugc_midend::run_passes(&mut prog).expect("midend passes run");
    prog
}

/// Delta-accumulation over a priority queue: `updatePrioritySum` of a bare
/// property load — the re-read-after-reduce shape the recognizer now
/// specializes as `relax_sum`.
const DELTA_SUM_SRC: &str = r#"
element Vertex end
element Edge end
const edges : edgeset{Edge}(Vertex,Vertex) = load(argv_1);
const vertices : vertexset{Vertex} = edges.getVertices();
const heat : vector{Vertex}(int) = 0;
const start_vertex : Vertex;
const pq : priority_queue{Vertex}(int) = new priority_queue{Vertex}(int)(heat, start_vertex);

func updateEdge(src : Vertex, dst : Vertex)
    pq.updatePrioritySum(dst, heat[src]);
end

func main()
    #s0# while (pq.finished() == false)
        var frontier : vertexset{Vertex} = pq.dequeue_ready_set();
        #s1# edges.from(frontier).applyUpdatePriority(updateEdge);
        delete frontier;
    end
end
"#;

/// The weighted variant: `updatePrioritySum` of `heat[src] + weight`.
const DELTA_SUM_WEIGHTED_SRC: &str = r#"
element Vertex end
element Edge end
const edges : edgeset{Edge}(Vertex,Vertex,int) = load(argv_1);
const vertices : vertexset{Vertex} = edges.getVertices();
const heat : vector{Vertex}(int) = 0;
const start_vertex : Vertex;
const pq : priority_queue{Vertex}(int) = new priority_queue{Vertex}(int)(heat, start_vertex);

func updateEdge(src : Vertex, dst : Vertex, weight : int)
    var bump : int = heat[src] + weight;
    pq.updatePrioritySum(dst, bump);
end

func main()
    #s0# while (pq.finished() == false)
        var frontier : vertexset{Vertex} = pq.dequeue_ready_set();
        #s1# edges.from(frontier).applyUpdatePriority(updateEdge);
        delete frontier;
    end
end
"#;

/// A float-equality vertex filter over exact cell values: specializes under
/// the recognizer's IEEE `==` comparison (DESIGN.md NaN policy).
const FLOAT_FILTER_SRC: &str = r#"
element Vertex end
element Edge end
const edges : edgeset{Edge}(Vertex,Vertex) = load(argv_1);
const vertices : vertexset{Vertex} = edges.getVertices();
const rank : vector{Vertex}(float) = 0.0;
const acc : vector{Vertex}(float) = 0.0;

func init(v : Vertex)
    rank[v] = to_float(v) - 1.0;
end

func updateEdge(src : Vertex, dst : Vertex)
    acc[dst] += rank[src];
end

func isCold(v : Vertex) -> output : bool
    output = (rank[v] == 0.0);
end

func main()
    vertices.apply(init);
    var n : int = vertices.size();
    var frontier : vertexset{Vertex} = new vertexset{Vertex}(n);
    #s1# edges.from(frontier).to(isCold).apply(updateEdge);
    delete frontier;
end
"#;

/// Both `updatePrioritySum` shapes (bare load, load + weight) must resolve
/// to the `relax_sum` kernel rather than falling back.
#[test]
fn update_priority_sum_specializes_to_relax_sum() {
    for src in [DELTA_SUM_SRC, DELTA_SUM_WEIGHTED_SRC] {
        let prog = compile_source(src);
        let udfs = compile_udfs(&prog, &binding_of(&prog)).expect("udfs compile");
        let res = resolutions(&prog, &udfs);
        assert_eq!(
            res,
            vec![Some("relax_sum")],
            "updatePrioritySum must specialize"
        );
    }
}

/// The `relax_sum` kernel must reproduce the interpreter's notification
/// semantics exactly — Sum updates re-read the accumulated cell — so a
/// full delta-accumulation run is bit-identical across dispatch modes.
/// Forward-only edges keep the accumulation finite: the start's seed
/// priority is 0, each relaxation pushes `heat[src] + weight >= 1`
/// downstream, and nothing ever flows back.
#[test]
fn relax_sum_matches_interpreter_on_dag() {
    let mut b = ugc_graph::GraphBuilder::new(8);
    for (s, d, w) in [
        (0, 1, 1),
        (1, 2, 2),
        (2, 3, 1),
        (3, 4, 3),
        (4, 5, 1),
        (5, 6, 2),
        (6, 7, 1),
        (0, 2, 4),
        (1, 4, 1),
        (2, 5, 2),
        (3, 7, 5),
    ] {
        b.add_weighted_edge(s, d, w);
    }
    let graph = b.into_graph();
    let mut externs = std::collections::HashMap::new();
    externs.insert(
        "start_vertex".to_string(),
        ugc_runtime::value::Value::Int(0),
    );
    let heat_of = |kernels_on: bool| {
        CpuGraphVm::with_threads(1)
            .with_kernels(kernels_on)
            .execute(compile_source(DELTA_SUM_WEIGHTED_SRC), &graph, &externs)
            .expect("delta-sum runs")
            .property_ints("heat")
    };
    let kernel_heat = heat_of(true);
    let interp_heat = heat_of(false);
    assert_eq!(
        kernel_heat, interp_heat,
        "relax_sum diverges from the interpreter"
    );
    // Heat actually flowed down the DAG: the sink accumulated something.
    assert!(
        kernel_heat[7] > 0,
        "no heat reached the sink: {kernel_heat:?}"
    );
}

/// A float-equality filter engages the compiled kernel (no fallback) and
/// the filtered traversal stays bit-identical to the interpreter across
/// the graph menagerie.
#[test]
fn float_filter_specializes_and_matches_interpreter() {
    let prog = compile_source(FLOAT_FILTER_SRC);
    let udfs = compile_udfs(&prog, &binding_of(&prog)).expect("udfs compile");
    assert_eq!(
        resolutions(&prog, &udfs),
        vec![Some("reduce_sum")],
        "float-equality filter must not force a fallback"
    );
    let externs = std::collections::HashMap::new();
    for (gname, graph) in test_graphs() {
        let bits_of = |kernels_on: bool| {
            let run = CpuGraphVm::with_threads(1)
                .with_kernels(kernels_on)
                .execute(compile_source(FLOAT_FILTER_SRC), &graph, &externs)
                .unwrap_or_else(|e| panic!("float filter on {gname}: {e}"));
            let acc: Vec<u64> = run
                .property_floats("acc")
                .iter()
                .map(|v| v.to_bits())
                .collect();
            acc
        };
        assert_eq!(
            bits_of(true),
            bits_of(false),
            "{gname}: filtered kernel diverges from interpreter"
        );
    }
}
