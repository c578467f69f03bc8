//! Traversal-direction lowering, including hybrid and composite schedules.
//!
//! Every `EdgeSetIterator` ends up with a concrete
//! [`ugc_graphir::types::Direction`] in its metadata. Schedules
//! requesting `Hybrid` direction, and [`CompositeSchedule`]s, are lowered
//! into host-side runtime conditions exactly as the paper's Fig. 7: the
//! statement is cloned per branch, each clone carrying its leaf schedule.
//!
//! [`CompositeSchedule`]: ugc_schedule::CompositeSchedule

use std::sync::Arc;

use ugc_graphir::ir::{Expr, Program, Stmt, StmtKind};
use ugc_graphir::keys;
use ugc_graphir::types::{BinOp, Direction, Intrinsic, VertexSetRepr};
use ugc_schedule::{
    schedule_of, CompositeCriteria, Parallelization, PullFrontierRepr, SchedDirection, ScheduleRef,
    SimpleSchedule,
};

use crate::MidendError;

/// Runs the pass. See the module docs.
///
/// # Errors
///
/// Currently infallible in practice; returns `Result` for pipeline
/// uniformity.
pub fn run(prog: &mut Program) -> Result<(), MidendError> {
    let main = std::mem::take(&mut prog.main);
    prog.main = rewrite_block(main);
    Ok(())
}

fn rewrite_block(stmts: Vec<Stmt>) -> Vec<Stmt> {
    stmts
        .into_iter()
        .map(|mut s| match &mut s.kind {
            StmtKind::EdgeSetIterator(_) => expand(s),
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                *then_body = rewrite_block(std::mem::take(then_body));
                *else_body = rewrite_block(std::mem::take(else_body));
                s
            }
            StmtKind::While { body, .. } | StmtKind::For { body, .. } => {
                *body = rewrite_block(std::mem::take(body));
                s
            }
            _ => s,
        })
        .collect()
}

fn expand(stmt: Stmt) -> Stmt {
    let Some(sched) = schedule_of(&stmt) else {
        let mut s = stmt;
        configure(&mut s, None);
        return s;
    };
    let label = stmt.label.clone();
    let mut out = resolve(&stmt, &sched);
    out.label = label;
    out
}

fn resolve(base: &Stmt, sched: &ScheduleRef) -> Stmt {
    match sched {
        ScheduleRef::Simple(s) if s.direction() != SchedDirection::Hybrid => {
            concrete(base, sched, s)
        }
        ScheduleRef::Simple(s) => {
            // Hybrid: push while sparse, pull when dense.
            let push = concrete_with_direction(base, sched, s, Direction::Push);
            let pull = concrete_with_direction(base, sched, s, Direction::Pull);
            branch(base, s.hybrid_threshold(), push, pull)
        }
        ScheduleRef::Composite(c) => {
            let CompositeCriteria::InputSetSize { threshold } = c.criteria();
            let first = resolve(base, c.first_schedule());
            let second = resolve(base, c.second_schedule());
            branch(base, threshold, first, second)
        }
    }
}

/// Builds `if |input| < threshold * |V| { first } else { second }`.
/// An all-edges operator (no input frontier) has `|input| = |V|`, so the
/// condition is decided at compile time: `first` only when
/// `threshold > 1`.
fn branch(base: &Stmt, threshold: f64, first: Stmt, second: Stmt) -> Stmt {
    let StmtKind::EdgeSetIterator(d) = &base.kind else {
        unreachable!("direction lowering only branches on EdgeSetIterator");
    };
    let Some(input) = &d.input else {
        return if threshold > 1.0 { first } else { second };
    };
    let cond = Expr::bin(
        BinOp::Lt,
        Expr::intrinsic(Intrinsic::VertexSetSize, vec![Expr::var(input.clone())]),
        Expr::bin(
            BinOp::Mul,
            Expr::float(threshold),
            Expr::intrinsic(Intrinsic::NumVertices, vec![Expr::var(d.graph.clone())]),
        ),
    );
    Stmt::new(StmtKind::If {
        cond,
        then_body: vec![first],
        else_body: vec![second],
    })
}

fn concrete(base: &Stmt, sref: &ScheduleRef, s: &Arc<dyn SimpleSchedule>) -> Stmt {
    let dir = match s.direction() {
        SchedDirection::Pull => Direction::Pull,
        _ => Direction::Push,
    };
    concrete_with_direction(base, sref, s, dir)
}

fn concrete_with_direction(
    base: &Stmt,
    sref: &ScheduleRef,
    s: &Arc<dyn SimpleSchedule>,
    dir: Direction,
) -> Stmt {
    let mut out = base.clone();
    out.label = None;
    // Re-attach the leaf schedule so backends see concrete options.
    out.meta
        .set_any(keys::SCHEDULE, Arc::new(clone_leaf(sref, s)));
    configure_leaf(&mut out, s, dir);
    out
}

fn clone_leaf(_sref: &ScheduleRef, s: &Arc<dyn SimpleSchedule>) -> ScheduleRef {
    ScheduleRef::Simple(Arc::clone(s))
}

fn configure(stmt: &mut Stmt, sched: Option<&Arc<dyn SimpleSchedule>>) {
    match sched {
        Some(s) => {
            let dir = match s.direction() {
                SchedDirection::Pull => Direction::Pull,
                _ => Direction::Push,
            };
            configure_leaf(stmt, s, dir)
        }
        None => {
            stmt.meta.set(keys::DIRECTION, Direction::Push);
            stmt.meta.set(keys::IS_EDGE_PARALLEL, false);
        }
    }
}

fn configure_leaf(stmt: &mut Stmt, s: &Arc<dyn SimpleSchedule>, dir: Direction) {
    stmt.meta.set(keys::DIRECTION, dir);
    stmt.meta.set(
        keys::IS_EDGE_PARALLEL,
        s.parallelization() == Parallelization::EdgeBased,
    );
    stmt.meta.set(
        "parallelization",
        match s.parallelization() {
            Parallelization::VertexBased => "VERTEX_BASED",
            Parallelization::EdgeBased => "EDGE_BASED",
            Parallelization::EdgeAwareVertexBased => "EDGE_AWARE_VERTEX_BASED",
        },
    );
    if dir == Direction::Pull {
        stmt.meta.set(
            keys::PULL_INPUT_FRONTIER,
            match s.pull_frontier() {
                PullFrontierRepr::Bitmap => VertexSetRepr::Bitmap,
                PullFrontierRepr::Boolmap => VertexSetRepr::Boolmap,
            },
        );
    }
    if s.deduplication() {
        stmt.meta.set(keys::APPLY_DEDUPLICATION, true);
    }
    if !stmt.meta.contains(keys::OUTPUT_REPRESENTATION) {
        stmt.meta
            .set(keys::OUTPUT_REPRESENTATION, VertexSetRepr::Sparse);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use ugc_graphir::visit::{find_labeled, walk_stmts};
    use ugc_schedule::{apply_schedule, CompositeSchedule, DefaultSchedule};

    const BFS: &str = r#"
element Vertex end
element Edge end
const edges : edgeset{Edge}(Vertex,Vertex) = load("g");
const parent : vector{Vertex}(int) = -1;
const start_vertex : Vertex;
func updateEdge(src : Vertex, dst : Vertex)
    parent[dst] = src;
end
func main()
    var frontier : vertexset{Vertex} = new vertexset{Vertex}(0);
    frontier.addVertex(start_vertex);
    #s0# while (frontier.getVertexSetSize() != 0)
        #s1# var output : vertexset{Vertex} = edges.from(frontier).applyModified(updateEdge, parent, true);
        delete frontier;
        frontier = output;
    end
end
"#;

    #[derive(Debug)]
    struct Sched(SchedDirection);
    impl SimpleSchedule for Sched {
        fn direction(&self) -> SchedDirection {
            self.0
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    fn lowered() -> Program {
        let ast = ugc_frontend::parse_and_check(BFS).unwrap();
        lower(&ast).unwrap()
    }

    fn count_iterators(p: &Program) -> (usize, Vec<Direction>) {
        let mut n = 0;
        let mut dirs = Vec::new();
        walk_stmts(&p.main, &mut |s| {
            if matches!(s.kind, StmtKind::EdgeSetIterator(_)) {
                n += 1;
                dirs.push(s.meta.get_direction(keys::DIRECTION).unwrap());
            }
        });
        (n, dirs)
    }

    #[test]
    fn default_gets_push() {
        let mut p = lowered();
        run(&mut p).unwrap();
        let (n, dirs) = count_iterators(&p);
        assert_eq!(n, 1);
        assert_eq!(dirs, vec![Direction::Push]);
    }

    #[test]
    fn simple_pull_schedule() {
        let mut p = lowered();
        apply_schedule(
            &mut p,
            "s0:s1",
            ScheduleRef::simple(Sched(SchedDirection::Pull)),
        )
        .unwrap();
        run(&mut p).unwrap();
        let (n, dirs) = count_iterators(&p);
        assert_eq!(n, 1);
        assert_eq!(dirs, vec![Direction::Pull]);
        // Pull input frontier representation recorded.
        let mut found = false;
        walk_stmts(&p.main, &mut |s| {
            if matches!(s.kind, StmtKind::EdgeSetIterator(_)) {
                found = s.meta.get_repr(keys::PULL_INPUT_FRONTIER).is_some();
            }
        });
        assert!(found);
    }

    #[test]
    fn hybrid_becomes_runtime_branch() {
        let mut p = lowered();
        apply_schedule(
            &mut p,
            "s0:s1",
            ScheduleRef::simple(Sched(SchedDirection::Hybrid)),
        )
        .unwrap();
        run(&mut p).unwrap();
        let (n, dirs) = count_iterators(&p);
        assert_eq!(n, 2);
        assert_eq!(dirs, vec![Direction::Push, Direction::Pull]);
        // The branch keeps the original label on the If.
        let s1 = find_labeled(&p, "s1").unwrap();
        assert!(matches!(s1.kind, StmtKind::If { .. }));
    }

    #[test]
    fn composite_becomes_nested_condition() {
        let mut p = lowered();
        let comp = CompositeSchedule::new(
            CompositeCriteria::InputSetSize { threshold: 0.15 },
            ScheduleRef::simple(Sched(SchedDirection::Push)),
            ScheduleRef::simple(Sched(SchedDirection::Pull)),
        );
        apply_schedule(&mut p, "s0:s1", ScheduleRef::composite(comp)).unwrap();
        run(&mut p).unwrap();
        let (n, dirs) = count_iterators(&p);
        assert_eq!(n, 2);
        assert_eq!(dirs, vec![Direction::Push, Direction::Pull]);
        // Condition references VertexSetSize and NumVertices.
        let text = ugc_graphir::printer::print_program(&p);
        assert!(text.contains("VertexSetSize(frontier)"), "{text}");
        assert!(text.contains("NumVertices(edges)"), "{text}");
        assert!(text.contains("0.15"), "{text}");
    }

    /// Lowers the all-edges `r[dst] += 1.0` under a push/pull composite
    /// with `threshold`, returning the directions of the iterators left.
    fn all_edges_composite(threshold: f64) -> (usize, Vec<Direction>) {
        let src = r#"
element Vertex end
element Edge end
const edges : edgeset{Edge}(Vertex,Vertex) = load("g");
const r : vector{Vertex}(float) = 0.0;
func f(src : Vertex, dst : Vertex)
    r[dst] += 1.0;
end
func main()
    #s1# edges.apply(f);
end
"#;
        let ast = ugc_frontend::parse_and_check(src).unwrap();
        let mut p = lower(&ast).unwrap();
        let comp = CompositeSchedule::new(
            CompositeCriteria::InputSetSize { threshold },
            ScheduleRef::simple(DefaultSchedule),
            ScheduleRef::simple(Sched(SchedDirection::Pull)),
        );
        apply_schedule(&mut p, "s1", ScheduleRef::composite(comp)).unwrap();
        run(&mut p).unwrap();
        count_iterators(&p)
    }

    #[test]
    fn all_edges_composite_degenerates_to_first() {
        // |V| < 1.5·|V| always holds: Fig. 7's check would take `first`.
        assert_eq!(all_edges_composite(1.5), (1, vec![Direction::Push]));
    }

    #[test]
    fn all_edges_composite_below_one_degenerates_to_second() {
        // |V| < t·|V| never holds for t ≤ 1: the whole edge set is dense.
        assert_eq!(all_edges_composite(0.5), (1, vec![Direction::Pull]));
        assert_eq!(all_edges_composite(1.0), (1, vec![Direction::Pull]));
    }
}
