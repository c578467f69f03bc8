//! CPU-specific GraphIR passes.
//!
//! The oriented-triangle-count pass marks each `EdgeSetIterator` whose whole
//! effect is `p[v] += intersect_count(src, dst)` over every edge, for an int
//! property `p` indexed by either endpoint, with [`keys::ORIENTED_TC`] naming
//! `p`. Run per edge, such an operator finds every triangle of a symmetric
//! simple graph six times — once per direction of each of its edges — and
//! adds 2 to each corner per triangle. The executor runs a marked operator
//! by finding each triangle once, from its lowest vertex, whenever the graph
//! it meets is symmetric and simple ([`ugc_graph::Graph::is_symmetric_simple`]);
//! otherwise it runs the operator per edge, as unmarked.

use ugc_graphir::ir::{
    EdgeSetIteratorData, Expr, ExprKind, Function, LValue, Program, PropertyDecl, Stmt, StmtKind,
};
use ugc_graphir::keys;
use ugc_graphir::types::{Intrinsic, ReduceOp, Type};
use ugc_graphir::visit::walk_stmts_mut;

/// Runs the CPU GraphVM's hardware-specific passes.
pub fn run(prog: &mut Program) {
    mark_oriented_tc(prog);
}

/// Marks triangle-counting operators. See the module docs.
pub fn mark_oriented_tc(prog: &mut Program) {
    let (functions, properties) = (&prog.functions, &prog.properties);
    walk_stmts_mut(&mut prog.main, &mut |s| {
        if let StmtKind::EdgeSetIterator(d) = &s.kind {
            if let Some(prop) = tc_target(s, d, functions, properties) {
                s.meta.set(keys::ORIENTED_TC, prop);
            }
        }
    });
}

/// The property `s` sums triangle counts into, when `s` is an operator over
/// every edge — no input frontier, filter or output, not transposed — whose
/// apply UDF's whole body is `p[src|dst] += intersect_count(src, dst)` (in
/// either argument order) for an int property `p`.
fn tc_target(
    s: &Stmt,
    d: &EdgeSetIteratorData,
    functions: &[Function],
    properties: &[PropertyDecl],
) -> Option<String> {
    let whole_graph = s.meta.flag(keys::IS_ALL_EDGES)
        && d.input.is_none()
        && d.output.is_none()
        && d.src_filter.is_none()
        && d.dst_filter.is_none()
        && !d.transposed;
    if !whole_graph {
        return None;
    }
    let f = functions.iter().find(|f| f.name == d.apply)?;
    let ([src, dst], [stmt]) = (&f.params[..], &f.body[..]) else {
        return None;
    };
    let is = |e: &Expr, name: &str| matches!(&e.kind, ExprKind::Var(v) if v == name);
    let StmtKind::Reduce {
        target: LValue::Prop { prop, index },
        op: ReduceOp::Sum,
        value,
        tracking: None,
    } = &stmt.kind
    else {
        return None;
    };
    let ExprKind::Intrinsic {
        kind: Intrinsic::IntersectCount,
        args,
    } = &value.kind
    else {
        return None;
    };
    let [_graph, a, b] = &args[..] else {
        return None;
    };
    let counts_edge =
        (is(a, &src.name) && is(b, &dst.name)) || (is(a, &dst.name) && is(b, &src.name));
    let at_endpoint = is(index, &src.name) || is(index, &dst.name);
    let int_prop = properties
        .iter()
        .any(|p| p.name == *prop && p.ty == Type::Int);
    (counts_edge && at_endpoint && int_prop).then(|| prop.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugc_schedule::{apply_schedule, ScheduleRef};

    use crate::schedule::CpuSchedule;

    /// A TC program whose property, UDF body and operator are spliced in.
    fn tc(prop_ty: &str, body: &str, op: &str) -> String {
        format!(
            r#"
element Vertex end
element Edge end
const edges : edgeset{{Edge}}(Vertex,Vertex) = load("g");
const t_edges : edgeset{{Edge}}(Vertex,Vertex) = edges.transpose();
const vertices : vertexset{{Vertex}} = edges.getVertices();
const tri : vector{{Vertex}}({prop_ty}) = 0;
const seen : vector{{Vertex}}(int) = 0;

func countEdge(src : Vertex, dst : Vertex)
{body}
end

func keep(v : Vertex) -> output : bool
    output = true;
end

func main()
    var frontier : vertexset{{Vertex}} = new vertexset{{Vertex}}(0);
    frontier.addVertex(0);
    {op}
end
"#
        )
    }

    const COUNT: &str = "    tri[dst] += intersect_count(src, dst);";
    const APPLY: &str = "#s1# edges.apply(countEdge);";

    /// The property `run` marks on the program's one edge operator.
    fn marked(src: &str) -> Option<String> {
        marked_with(src, None)
    }

    fn marked_with(src: &str, sched: Option<CpuSchedule>) -> Option<String> {
        let mut p = ugc_midend::frontend_to_ir(src).unwrap();
        if let Some(s) = sched {
            apply_schedule(&mut p, "s1", ScheduleRef::simple(s)).unwrap();
        }
        ugc_midend::run_passes(&mut p).unwrap();
        run(&mut p);
        let s1 = ugc_graphir::visit::find_labeled(&p, "s1").expect("labeled operator");
        s1.meta.get_str(keys::ORIENTED_TC).map(str::to_string)
    }

    #[test]
    fn marks_both_argument_orders_and_both_targets() {
        for body in [
            "    tri[dst] += intersect_count(src, dst);",
            "    tri[dst] += intersect_count(dst, src);",
            "    tri[src] += intersect_count(src, dst);",
            "    tri[src] += intersect_count(dst, src);",
        ] {
            assert_eq!(
                marked(&tc("int", body, APPLY)).as_deref(),
                Some("tri"),
                "{body}"
            );
        }
    }

    #[test]
    fn marks_under_any_direction() {
        let pull = CpuSchedule::new().with_direction(ugc_schedule::SchedDirection::Pull);
        assert_eq!(
            marked_with(&tc("int", COUNT, APPLY), Some(pull)).as_deref(),
            Some("tri")
        );
    }

    #[test]
    fn leaves_everything_else_unmarked() {
        let cases = [
            (
                "a frontier",
                tc("int", COUNT, "#s1# edges.from(frontier).apply(countEdge);"),
            ),
            (
                "a filter",
                tc("int", COUNT, "#s1# edges.to(keep).apply(countEdge);"),
            ),
            (
                "an output",
                tc(
                    "int",
                    COUNT,
                    "#s1# var out : vertexset{Vertex} = edges.applyModified(countEdge, tri, true);",
                ),
            ),
            (
                "a transposed edge set",
                tc("int", COUNT, "#s1# t_edges.apply(countEdge);"),
            ),
            ("a float property", tc("float", COUNT, APPLY)),
            (
                "a min= reduction",
                tc("int", "    tri[dst] min= intersect_count(src, dst);", APPLY),
            ),
            (
                "a second statement",
                tc("int", &format!("{COUNT}\n    seen[dst] += 1;"), APPLY),
            ),
            (
                "intersect_count(src, src)",
                tc("int", "    tri[dst] += intersect_count(src, src);", APPLY),
            ),
            (
                "a non-endpoint index",
                tc("int", "    tri[0] += intersect_count(src, dst);", APPLY),
            ),
        ];
        for (what, src) in cases {
            assert_eq!(marked(&src), None, "{what}");
        }
    }
}
