//! Compiled dispatch: the CPU executor's compiled edge operators and UDF
//! bodies versus the interpreter they replace.
//!
//! Three guarantees:
//!
//! 1. **Total dispatch** — every reachable point of the CPU schedule
//!    space, applied to every algorithm, selects the compiled operator for
//!    every edge traversal, never the interpreter.
//! 2. **No built-in UDF is interpreted** — every algorithm under its
//!    hand-tuned CPU schedule runs every operator compiled; with kernels
//!    off, every operator is interpreted.
//! 3. **Differential equality** — with a single thread both tiers visit
//!    edges in the same order, so every result property must be
//!    *bit-identical* between a `with_kernels` run and an
//!    interpreter-forced run, across the whole graph menagerie.
//!    Multi-threaded runs agree on the race-free derived results (BFS
//!    trees, SSSP distances, components, triangle counts, coreness).
//!    Hand-built operators pin the interpreter's float-equality, widening
//!    and priority-notification corners through every walk and filter side.

use ugc::Target;
use ugc_algorithms::Algorithm;
use ugc_backend_cpu::kernels::{self, Io, Tier, Walk};
use ugc_backend_cpu::{CpuGraphVm, CpuSchedule, CpuScheduleSpace, CpuStats};
use ugc_graphir::ir::{Expr, Function, LValue, Param, Program, Stmt, StmtKind};
use ugc_graphir::keys;
use ugc_graphir::types::{BinOp, ReduceOp, Type};
use ugc_integration::{compile, externs_for, test_graphs, validate};
use ugc_runtime::bytecode::{binding_of, compile_udfs, UdfId, UdfSet};
use ugc_runtime::eval::{BufferedOutput, Evaluator};
use ugc_runtime::properties::{GlobalTable, PropertyStorage};
use ugc_runtime::value::Value;
use ugc_runtime::{Execution, GraphVm};
use ugc_schedule::space::{PointIter, ScheduleSpace, SpaceParams};
use ugc_schedule::{Parallelization, SchedDirection, ScheduleRef};

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

/// The traversal the executor runs for each edge operator: `compiled
/// operator` or `interpreter fallback`.
fn selections(prog: &Program, udfs: &UdfSet) -> Vec<&'static str> {
    per_traversal(prog, udfs, |apply, sf, df| {
        kernels::select_name(prog, udfs, apply, sf, df)
    })
}

/// Guarantee 1: the whole reachable schedule space compiles every edge
/// operator.
#[test]
fn every_schedule_point_resolves_or_deliberately_falls_back() {
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
            let selected = selections(&prog, &udfs);
            assert!(
                !selected.is_empty(),
                "{} at point {pt:?}: no edge traversal found",
                algo.name()
            );
            for name in selected {
                assert_eq!(
                    name,
                    "compiled operator",
                    "{} at point {pt:?}: traversal left to the interpreter",
                    algo.name()
                );
            }
        }
    }
}

/// The primary result property of each algorithm, with its comparison
/// domain (ints or float bits — both exact).
fn result_bits(run: &Execution<'_, CpuStats>, algo: Algorithm) -> Vec<u64> {
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

/// A pull schedule: the walk other than the default push.
fn pull() -> ScheduleRef {
    ScheduleRef::simple(CpuSchedule::new().with_direction(SchedDirection::Pull))
}

/// The schedules the differential sweep runs per algorithm: pull for the
/// five frontier and all-edges algorithms.
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
    if matches!(
        algo,
        Algorithm::Bfs | Algorithm::Sssp | Algorithm::Cc | Algorithm::PageRank | Algorithm::Bc
    ) {
        scheds.push(Some(pull()));
    }
    scheds
}

/// The scenario algorithms compile like the rest: LP's propagate is the CC
/// reduction, TC's edge UDF counts an intersection, and k-core's is a
/// literal-valued reduction (its vertex filter and applies compile too).
/// None leaves anything to the interpreter.
#[test]
fn new_algorithms_dispatch_deliberately() {
    for algo in [Algorithm::Lp, Algorithm::Tc, Algorithm::KCore] {
        let prog = compile(algo, None);
        let udfs = compile_udfs(&prog, &binding_of(&prog)).expect("udfs compile");
        assert_eq!(
            selections(&prog, &udfs),
            vec!["compiled operator"],
            "{}",
            algo.name()
        );
    }
    // Both run compiled, and say so: in the run's own dispatch count and
    // in the registry (when telemetry is collected at all).
    let col = ugc_telemetry::Collector::start();
    let graph = ugc_graph::generators::clique_batch(2, 4);
    for algo in [Algorithm::Tc, Algorithm::KCore] {
        let prog = compile(algo, None);
        let run = CpuGraphVm::with_threads(1)
            .with_kernels(true)
            .execute(prog, &graph, &externs_for(algo, 0))
            .expect("runs");
        assert!(
            run.stats.dispatch.compiled > 0 && run.stats.dispatch.fallback == 0,
            "{}: {:?}",
            algo.name(),
            run.stats.dispatch
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
/// vertex filter) compiled — no built-in UDF is left interpreted — and with
/// kernels off, on the interpreter alone.
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
                    .stats
                    .dispatch
            };
            let on = dispatch(true);
            assert!(
                on.fallback == 0 && on.compiled > 0,
                "{} on {gname}: an operator was interpreted: {on:?}",
                algo.name()
            );
            let off = dispatch(false);
            assert!(
                off.compiled == 0 && off.fallback > 0,
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

/// Guarantee 3 (parallel): under real threads the compiled operators agree
/// with the interpreter on the race-free derived answers.
#[test]
fn kernels_match_interpreter_under_threads() {
    let graph = ugc_graph::generators::rmat(9, 6, 13, true);
    // The pull walk at one and eight workers: one worker is
    // bit-identical; eight are valid, and exact where the answer is a
    // fixpoint (SSSP distances, CC labels) or each destination sums its
    // in-edges in one order (PageRank).
    for algo in [
        Algorithm::Bfs,
        Algorithm::Sssp,
        Algorithm::Cc,
        Algorithm::PageRank,
        Algorithm::Bc,
    ] {
        let sched = pull();
        for threads in [1, 8] {
            let run = |kernels_on: bool| {
                CpuGraphVm::with_threads(threads)
                    .with_kernels(kernels_on)
                    .execute(
                        compile(algo, Some(sched.clone())),
                        &graph,
                        &externs_for(algo, 0),
                    )
                    .unwrap_or_else(|e| panic!("{} {threads}t: {e}", algo.name()))
            };
            let (on, off) = (run(true), run(false));
            let case = format!("{} {sched:?} {threads}t", algo.name());
            assert!(
                on.stats.dispatch.fallback == 0,
                "{case}: {:?}",
                on.stats.dispatch
            );
            for r in [&on, &off] {
                validate(algo, &graph, 0, &|p| r.property_ints(p), &|p| {
                    r.property_floats(p)
                });
            }
            if threads == 1 || matches!(algo, Algorithm::Sssp | Algorithm::Cc | Algorithm::PageRank)
            {
                assert_eq!(result_bits(&on, algo), result_bits(&off, algo), "{case}");
            }
        }
    }
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
    // Compiled TC counts each triangle once on the symmetric simple R-MAT
    // graph and star, and per edge through each worker's `IntersectScratch`
    // on the R-MAT graph less one edge (whose push walk takes the scratch's
    // binary search) and on a multigraph (on which the scratch must merge);
    // the interpreter counts by the merge. The inputs cover both walk
    // orders and one and eight workers.
    let edges: Vec<_> = graph
        .out_csr()
        .iter_edges()
        .map(|(s, d, _)| (s, d))
        .collect();
    let one_way = ugc_graph::Graph::from_edges(graph.num_vertices(), &edges[1..]);
    assert!(graph.is_symmetric_simple() && !one_way.is_symmetric_simple());
    let out = one_way.out_csr();
    let mut scratch = ugc_graph::IntersectScratch::default();
    for (s, d, _) in out.iter_edges() {
        scratch.count(out, s, d);
    }
    assert!(scratch.paths().search > 0, "{:?}", scratch.paths());
    let mut doubled = edges.clone();
    doubled.extend(edges.iter().copied().step_by(7));
    let multigraph = ugc_graph::Graph::from_edges(graph.num_vertices(), &doubled);
    assert!(multigraph.out_csr().has_repeated_targets());
    let graphs = [
        ("rmat", graph.clone()),
        ("rmat less one edge", one_way),
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
                        (run.property_ints(prop), run.stats.dispatch)
                    };
                    let ((compiled, on), (interpreted, off)) = (result_of(true), result_of(false));
                    let case = format!("{} {name} {direction:?} {threads}t", algo.name());
                    assert!(on.compiled > 0 && on.fallback == 0, "{case}: {on:?}");
                    if algo == Algorithm::Tc {
                        let oriented = u64::from(graph.is_symmetric_simple());
                        assert_eq!(on.oriented, oriented, "{case}: {on:?}");
                    }
                    assert_eq!(off.compiled, 0, "{case}: {off:?}");
                    assert_eq!(compiled, interpreted, "{case}: `{prop}` diverges");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Priority sums and float-equality filters.
// ---------------------------------------------------------------------------

/// Compiles DSL source through the full hardware-independent pipeline,
/// with no schedules attached.
fn compile_source(src: &str) -> Program {
    let mut prog = ugc_midend::frontend_to_ir(src).expect("source compiles");
    ugc_midend::run_passes(&mut prog).expect("midend passes run");
    prog
}

/// Delta-accumulation over a priority queue: `updatePrioritySum` of a bare
/// property load, whose notification re-reads the reduced cell.
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

/// A float-equality vertex filter over exact cell values, compared by IEEE
/// `==` (DESIGN.md NaN policy).
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

/// Both `updatePrioritySum` shapes (bare load, load + weight) compile
/// rather than falling back.
#[test]
fn update_priority_sum_compiles_whole() {
    for src in [DELTA_SUM_SRC, DELTA_SUM_WEIGHTED_SRC] {
        let prog = compile_source(src);
        let udfs = compile_udfs(&prog, &binding_of(&prog)).expect("udfs compile");
        assert_eq!(selections(&prog, &udfs), vec!["compiled operator"]);
    }
}

/// The compiled operator must reproduce the interpreter's notification
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
        "priority sum diverges from the interpreter"
    );
    // Heat actually flowed down the DAG: the sink accumulated something.
    assert!(
        kernel_heat[7] > 0,
        "no heat reached the sink: {kernel_heat:?}"
    );
}

/// A float-equality filter compiles into the operator (no fallback) and
/// the filtered traversal stays bit-identical to the interpreter across
/// the graph menagerie.
#[test]
fn float_filter_specializes_and_matches_interpreter() {
    let prog = compile_source(FLOAT_FILTER_SRC);
    let udfs = compile_udfs(&prog, &binding_of(&prog)).expect("udfs compile");
    assert_eq!(selections(&prog, &udfs), vec!["compiled operator"]);
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

// ---------------------------------------------------------------------------
// The interpreter's corners, operator by operator.
// ---------------------------------------------------------------------------

/// A `(src, dst)` edge UDF (`(src, dst, weight)` when `weighted`).
fn edge_fn(name: &str, weighted: bool, body: Vec<Stmt>) -> Function {
    let mut params = vec![
        Param::new("src", Type::Vertex),
        Param::new("dst", Type::Vertex),
    ];
    if weighted {
        params.push(Param::new("weight", Type::Int));
    }
    let mut f = Function::new(name, params, None);
    f.body = body;
    f
}

fn atomic(mut s: Stmt) -> Stmt {
    s.meta.set(keys::IS_ATOMIC, true);
    s
}

/// Float cells `f`, int cells `i`, a priority queue over `prio`, the filter
/// `keep(v) = (<cell>[v] == literal)`, and one edge UDF per effect tail:
/// a float sum, a min tracked into an enqueue, a CAS claim guarding an
/// enqueue, a priority sum (whose notification re-reads the cell), a
/// priority min of `i[src] + weight`, and a plain store.
fn corner_program(cell: &str, literal: Expr) -> Program {
    let mut p = Program::new();
    p.add_property("f", Type::Float, Expr::float(0.0));
    p.add_property("i", Type::Int, Expr::int(0));
    p.add_property("prio", Type::Int, Expr::int(0));
    p.add_queue("pq", "prio", Expr::int(0));
    let enqueue_if = |flag: &str| {
        Stmt::new(StmtKind::If {
            cond: Expr::var(flag),
            then_body: vec![Stmt::new(StmtKind::EnqueueVertex {
                set: None,
                vertex: Expr::var("dst"),
            })],
            else_body: vec![],
        })
    };
    let reduce = |prop: &str, op, tracking: Option<&str>| {
        atomic(Stmt::new(StmtKind::Reduce {
            target: LValue::prop(prop, Expr::var("dst")),
            op,
            value: Expr::prop(prop, Expr::var("src")),
            tracking: tracking.map(Into::into),
        }))
    };
    let prio = |op, value| {
        atomic(Stmt::new(StmtKind::UpdatePriority {
            queue: "pq".into(),
            vertex: Expr::var("dst"),
            op,
            value,
        }))
    };
    let mut cas = Expr::cas("i", Expr::var("dst"), Expr::int(-1), Expr::var("src"));
    cas.meta.set(keys::IS_ATOMIC, true);
    for f in [
        edge_fn("sumF", false, vec![reduce("f", ReduceOp::Sum, None)]),
        edge_fn(
            "minI",
            false,
            vec![
                reduce("i", ReduceOp::Min, Some("changed")),
                enqueue_if("changed"),
            ],
        ),
        edge_fn(
            "claim",
            false,
            vec![
                Stmt::new(StmtKind::VarDecl {
                    name: "won".into(),
                    ty: Type::Bool,
                    init: Some(cas),
                }),
                enqueue_if("won"),
            ],
        ),
        edge_fn(
            "prioSum",
            false,
            vec![prio(ReduceOp::Sum, Expr::prop("i", Expr::var("src")))],
        ),
        edge_fn(
            "relax",
            true,
            vec![prio(
                ReduceOp::Min,
                Expr::bin(
                    BinOp::Add,
                    Expr::prop("i", Expr::var("src")),
                    Expr::var("weight"),
                ),
            )],
        ),
        edge_fn(
            "store",
            false,
            vec![Stmt::new(StmtKind::Assign {
                target: LValue::prop("i", Expr::var("dst")),
                value: Expr::var("src"),
            })],
        ),
    ] {
        p.add_function(f);
    }
    let mut keep = Function::new(
        "keep",
        vec![Param::new("v", Type::Vertex)],
        Some(Param::new("output", Type::Bool)),
    );
    keep.body.push(Stmt::new(StmtKind::Assign {
        target: LValue::Var("output".into()),
        value: Expr::bin(BinOp::Eq, Expr::prop(cell, Expr::var("v")), literal),
    }));
    p.add_function(keep);
    p
}

/// Every cell of every property, then everything the operator emitted.
type Outcome = (Vec<Vec<u64>>, Vec<u32>, Vec<(usize, u32, i64)>);

/// The interpreter's corners of float equality and mixed-type widening —
/// `-0.0` and `0.0` both admitted by `== 0.0`, `NaN` never matching (as a
/// literal or a cell), an int literal widened against a float cell, an
/// int cell widened against a float literal — each as the filter of every
/// effect tail, on the source and on the destination side, through push,
/// and pull: the compiled operator leaves the cells,
/// enqueues and priority notifications the interpreter does.
#[test]
fn compiled_operators_match_the_interpreter_on_filter_corners() {
    let filters = [
        ("f", Expr::float(0.0)),
        ("f", Expr::float(f64::NAN)),
        ("f", Expr::int(0)),
        ("i", Expr::float(1.0)),
        ("i", Expr::float(f64::NAN)),
        ("i", Expr::int(-1)),
    ];
    let f_cells = [0.0, -0.0, f64::NAN, 1.0, 2.5, -0.0, 0.0, 3.0];
    let i_cells = [1, 0, -1, 7, 1, -1, 2, -1];
    let prio_cells = [3, 0, 5, 1, 0, 2, 7, 4];
    let mut b = ugc_graph::GraphBuilder::new(8);
    for (s, d, w) in [
        (0, 1, 2),
        (0, 2, 1),
        (0, 5, 3),
        (1, 2, 4),
        (1, 6, 1),
        (2, 3, 2),
        (2, 5, 5),
        (3, 0, 1),
        (4, 1, 2),
        (4, 6, 3),
        (5, 6, 1),
        (5, 7, 2),
        (6, 2, 6),
        (7, 0, 1),
        (7, 4, 2),
    ] {
        b.add_weighted_edge(s, d, w);
    }
    let graph = b.into_graph();
    let members: Vec<u32> = (0..8).collect();
    let members = &members[..];
    // `(pulls, walk)`.
    let walks = [
        (
            false,
            Walk::Push {
                members,
                range: 0..8,
            },
        ),
        (
            true,
            Walk::Pull {
                membership: None,
                range: 0..8,
            },
        ),
    ];
    let globals = GlobalTable::new();
    for (cell, literal) in filters {
        let prog = corner_program(cell, literal.clone());
        let udfs = compile_udfs(&prog, &binding_of(&prog)).expect("udfs compile");
        let id = |n: &str| udfs.id_of(n).unwrap();
        for apply in ["sumF", "minI", "claim", "prioSum", "relax", "store"] {
            for on_src in [true, false] {
                let (sf, df) = if on_src {
                    (Some(id("keep")), None)
                } else {
                    (None, Some(id("keep")))
                };
                for (pull, walk) in &walks {
                    let run = |compiled: bool| -> Outcome {
                        let mut props = PropertyStorage::new(8);
                        let ids = [
                            props.add("f", Type::Float, Value::Float(0.0)),
                            props.add("i", Type::Int, Value::Int(0)),
                            props.add("prio", Type::Int, Value::Int(0)),
                        ];
                        for v in 0..8 {
                            props.write(ids[0], v as u32, Value::Float(f_cells[v]));
                            props.write(ids[1], v as u32, Value::Int(i_cells[v]));
                            props.write(ids[2], v as u32, Value::Int(prio_cells[v]));
                        }
                        let k =
                            kernels::select(&udfs, &props, &globals, id(apply), sf, df, compiled);
                        assert_eq!(k.tier() == Tier::Compiled, compiled, "{apply}");
                        let ev = Evaluator::new(&udfs, &props, &globals, &graph);
                        let csr = if *pull {
                            graph.in_csr()
                        } else {
                            graph.out_csr()
                        };
                        let mut out = BufferedOutput::default();
                        k.run(&Io { ev: &ev, csr }, walk.clone(), &mut out);
                        let cells = ids
                            .iter()
                            .map(|&p| (0..8).map(|v| props.read_bits(p, v)).collect())
                            .collect();
                        (cells, out.enqueued, out.priority_updates)
                    };
                    assert_eq!(
                        run(true),
                        run(false),
                        "{apply} filtered by {cell} == {literal:?} on the {} side, {:?}",
                        if on_src { "source" } else { "destination" },
                        walk
                    );
                }
            }
        }
    }
}
