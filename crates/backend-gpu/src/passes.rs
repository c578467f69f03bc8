//! GPU-specific GraphIR passes (paper §III-C2, "Code generation for kernel
//! fusion").
//!
//! The kernel-fusion pass scans `while` loops: when an inner
//! `EdgeSetIterator`'s attached [`GpuSchedule`] requests fusion, the loop
//! statement is marked [`keys::NEEDS_FUSION`] and the loop-local variables
//! are recorded as [`keys::HOISTED_VARS`] (the paper hoists these into
//! device-resident state so the megakernel never returns to the host).

use ugc_graphir::ir::{Program, Stmt, StmtKind};
use ugc_graphir::keys;
use ugc_graphir::visit::{walk_stmts, walk_stmts_mut};
use ugc_schedule::schedule_as;

use crate::schedule::GpuSchedule;

/// Runs the GPU GraphVM's hardware-specific passes.
pub fn run(prog: &mut Program) {
    mark_fusion(prog);
}

/// Marks fusable loops. See the module docs.
pub fn mark_fusion(prog: &mut Program) {
    walk_stmts_mut(&mut prog.main, &mut |s| {
        if let StmtKind::While { body, .. } = &s.kind {
            let mut wants_fusion = false;
            let mut wants_async = false;
            let mut hoisted: Vec<String> = Vec::new();
            walk_stmts(body, &mut |inner: &Stmt| {
                if matches!(
                    inner.kind,
                    StmtKind::EdgeSetIterator(_) | StmtKind::VertexSetIterator { .. }
                ) {
                    if let Some(g) = schedule_as::<GpuSchedule>(inner) {
                        wants_fusion |= g.kernel_fusion();
                        wants_async |= g.async_execution();
                    }
                }
                match &inner.kind {
                    StmtKind::VarDecl { name, .. } => hoisted.push(name.clone()),
                    StmtKind::EdgeSetIterator(d) => {
                        if let Some(o) = &d.output {
                            hoisted.push(o.clone());
                        }
                    }
                    _ => {}
                }
            });
            if wants_fusion {
                s.meta.set(keys::NEEDS_FUSION, true);
                s.meta.set(keys::HOISTED_VARS, hoisted);
            }
            if wants_async {
                s.meta.set("async_execution", true);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugc_schedule::{apply_schedule, ScheduleRef};

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

    #[test]
    fn fusion_marked_when_schedule_requests() {
        let mut p = ugc_midend::frontend_to_ir(BFS).unwrap();
        apply_schedule(
            &mut p,
            "s0:s1",
            ScheduleRef::simple(GpuSchedule::new().with_kernel_fusion(true)),
        )
        .unwrap();
        ugc_midend::run_passes(&mut p).unwrap();
        run(&mut p);
        let s0 = ugc_graphir::visit::find_labeled(&p, "s0").unwrap();
        assert!(s0.meta.flag(keys::NEEDS_FUSION));
        let hoisted = s0.meta.get_str_list(keys::HOISTED_VARS).unwrap();
        assert!(hoisted.contains(&"output".to_string()), "{hoisted:?}");
    }

    #[test]
    fn no_fusion_without_request() {
        let mut p = ugc_midend::frontend_to_ir(BFS).unwrap();
        apply_schedule(&mut p, "s0:s1", ScheduleRef::simple(GpuSchedule::new())).unwrap();
        ugc_midend::run_passes(&mut p).unwrap();
        run(&mut p);
        let s0 = ugc_graphir::visit::find_labeled(&p, "s0").unwrap();
        assert!(!s0.meta.flag(keys::NEEDS_FUSION));
    }
}
