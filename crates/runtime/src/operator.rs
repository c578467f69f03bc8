//! The operator prologue and epilogue every GraphVM shares.
//!
//! What an `EdgeSetIterator` *means* — which UDF and filters it names,
//! which CSR is "forward" under `transposed`, which set gates a pull, how
//! its output frontier is built — is the same on every architecture, so it
//! is resolved here, once, into an [`EdgeOp`]. What differs per
//! architecture is the order in which a backend walks the edges and what
//! it charges for each access; that walk stays in the backend and calls
//! back into [`Evaluator::passes`], [`Evaluator::apply_edge`] and
//! [`Evaluator::apply_vertex`] with its own recorder.

use std::collections::HashMap;

use ugc_graph::Csr;
use ugc_graphir::ir::{EdgeSetIteratorData, Stmt};
use ugc_graphir::keys;
use ugc_graphir::types::{Direction, Type, VertexSetRepr};

use crate::bytecode::UdfId;
use crate::eval::{BufferedOutput, Evaluator};
use crate::interp::{ExecError, ProgramState};
use crate::properties::PropId;
use crate::vertexset::VertexSet;

/// One `EdgeSetIterator`, resolved once against the program state.
#[derive(Debug)]
pub struct EdgeOp<'g> {
    /// The apply UDF, called as `(src, dst)` or `(src, dst, weight)`.
    pub udf: UdfId,
    /// Whether the apply UDF takes the edge weight as a third argument.
    pub takes_weight: bool,
    /// Filter on an edge's source endpoint (`edges.from(func)`).
    pub src_filter: Option<UdfId>,
    /// Filter on an edge's destination endpoint (`edges.to(func)`).
    pub dst_filter: Option<UdfId>,
    /// Whether the operator produces an output frontier.
    pub requires_output: bool,
    /// Whether the output frontier is deduplicated.
    pub dedup: bool,
    /// Representation the output frontier is converted to.
    pub out_repr: VertexSetRepr,
    /// Traversal direction chosen by the midend.
    pub direction: Direction,
    /// Source → destination adjacency, honouring `transposed`.
    pub fwd: &'g Csr,
    /// Destination → source adjacency, honouring `transposed`.
    pub bwd: &'g Csr,
    /// Under pull, the input frontier in its scheduled membership layout;
    /// `None` when every vertex is a source (or under push).
    pub pull_membership: Option<VertexSet>,
}

impl<'g> EdgeOp<'g> {
    /// Resolves the operator `stmt`/`data` against `state`.
    ///
    /// # Errors
    ///
    /// Fails on an unknown apply UDF or filter, and under pull on an
    /// unbound input frontier.
    pub fn resolve(
        state: &ProgramState<'g>,
        stmt: &Stmt,
        data: &EdgeSetIteratorData,
    ) -> Result<Self, ExecError> {
        let udf = state.udf_id(&data.apply)?;
        let filter = |name: &Option<String>| match name {
            None => Ok(None),
            Some(n) => state
                .udfs
                .id_of(n)
                .map(Some)
                .ok_or_else(|| ExecError::new(format!("unknown filter `{n}`"))),
        };
        let src_filter = filter(&data.src_filter)?;
        let dst_filter = filter(&data.dst_filter)?;
        let direction = stmt
            .meta
            .get_direction(keys::DIRECTION)
            .unwrap_or(Direction::Push);
        let (fwd, bwd) = if data.transposed {
            (state.graph.in_csr(), state.graph.out_csr())
        } else {
            (state.graph.out_csr(), state.graph.in_csr())
        };
        let pull_membership = if direction == Direction::Pull && data.input.is_some() {
            let repr = stmt
                .meta
                .get_repr(keys::PULL_INPUT_FRONTIER)
                .unwrap_or(VertexSetRepr::Boolmap);
            Some(state.input_set(&data.input)?.to_repr(repr))
        } else {
            None
        };
        Ok(EdgeOp {
            udf,
            takes_weight: state.udfs.get(udf).num_params == 3,
            src_filter,
            dst_filter,
            requires_output: data.output.is_some(),
            dedup: stmt.meta.flag(keys::APPLY_DEDUPLICATION),
            out_repr: stmt
                .meta
                .get_repr(keys::OUTPUT_REPRESENTATION)
                .unwrap_or(VertexSetRepr::Sparse),
            direction,
            fwd,
            bwd,
            pull_membership,
        })
    }
}

impl ProgramState<'_> {
    /// Looks up an apply UDF by name.
    ///
    /// # Errors
    ///
    /// Fails when the program has no such function.
    pub fn udf_id(&self, name: &str) -> Result<UdfId, ExecError> {
        self.udfs
            .id_of(name)
            .ok_or_else(|| ExecError::new(format!("unknown UDF `{name}`")))
    }

    /// An evaluator over this state with real atomics — for backends that
    /// run UDFs on concurrent host threads.
    pub fn evaluator(&self) -> Evaluator<'_> {
        Evaluator::new(&self.udfs, &self.props, &self.globals, self.graph)
    }

    /// An evaluator over this state whose atomics execute relaxed — for
    /// simulators, which run UDFs on one host thread and model the cost of
    /// an atomic rather than its interleaving.
    pub fn relaxed_evaluator(&self) -> Evaluator<'_> {
        Evaluator {
            really_atomic: false,
            ..self.evaluator()
        }
    }

    /// Members of the named set in ascending order; `None` is every vertex.
    ///
    /// # Errors
    ///
    /// Fails when the named set is unbound.
    pub fn members(&self, set: Option<&str>) -> Result<Vec<u32>, ExecError> {
        match set {
            None => Ok((0..self.graph.num_vertices() as u32).collect()),
            Some(n) => self
                .env
                .set(n)
                .map(VertexSet::iter)
                .ok_or_else(|| ExecError::new(format!("set `{n}` is not bound"))),
        }
    }

    /// The prologue of a `VertexSetFilter`: the filter UDF and the
    /// candidate vertices in arrival order (`None` is every vertex).
    ///
    /// # Errors
    ///
    /// Fails on an unknown filter UDF or an unbound input set.
    pub fn filter_candidates(
        &self,
        input: Option<&str>,
        filter: &str,
    ) -> Result<(UdfId, Vec<u32>), ExecError> {
        let id = self
            .udfs
            .id_of(filter)
            .ok_or_else(|| ExecError::new(format!("unknown filter function `{filter}`")))?;
        let candidates = match input {
            None => self.members(None)?,
            Some(name) => self
                .env
                .set(name)
                .ok_or_else(|| ExecError::new(format!("set `{name}` is not bound")))?
                .members_in_order(),
        };
        Ok((id, candidates))
    }

    /// Hands buffered `(queue, vertex, priority)` updates to their queues.
    pub fn push_priorities(&mut self, updates: Vec<(usize, u32, i64)>) {
        for (q, v, p) in updates {
            self.queues[q].push(v, p);
        }
    }

    /// The epilogue of an edge operator: pushes the priority updates of
    /// every buffer in `outs` (in order) and, when the operator produces
    /// one, builds its output frontier — deduplicated and converted as
    /// `op` says.
    pub fn finish_edge_op(
        &mut self,
        op: &EdgeOp<'_>,
        outs: impl IntoIterator<Item = BufferedOutput>,
    ) -> Option<VertexSet> {
        let mut enqueued = Vec::new();
        for out in outs {
            self.push_priorities(out.priority_updates);
            enqueued.extend(out.enqueued);
        }
        if !op.requires_output {
            return None;
        }
        let mut set = VertexSet::from_members(self.graph.num_vertices(), enqueued);
        if op.dedup {
            set.dedup();
        }
        if set.repr() != op.out_repr {
            set = set.to_repr(op.out_repr);
        }
        Some(set)
    }

    /// Snapshot of a property by name as integers.
    ///
    /// # Panics
    ///
    /// Panics if the property does not exist (a compile bug, not a data
    /// error).
    pub fn property_ints(&self, name: &str) -> Vec<i64> {
        let id = self.props.id_of(name).expect("property exists");
        self.ints_of(id)
    }

    /// Snapshot of a property by name as floats.
    ///
    /// # Panics
    ///
    /// Panics if the property does not exist.
    pub fn property_floats(&self, name: &str) -> Vec<f64> {
        let id = self.props.id_of(name).expect("property exists");
        self.floats_of(id)
    }

    /// Every property by name, consuming the state: float-typed ones in
    /// the second map, everything else as integers in the first. Each
    /// vector is the property's own storage reinterpreted in place, so the
    /// snapshot copies nothing.
    pub fn into_snapshot(self) -> (HashMap<String, Vec<i64>>, HashMap<String, Vec<f64>>) {
        let mut ints = HashMap::new();
        let mut floats = HashMap::new();
        for (name, ty, cells) in self.props.into_columns() {
            // `Value::to_bits` stores a float's IEEE bits and every other
            // type as its integer (a bool as 0 or 1).
            match ty {
                Type::Float => {
                    floats.insert(name, cells.into_iter().map(f64::from_bits).collect());
                }
                _ => {
                    ints.insert(name, cells.into_iter().map(|b| b as i64).collect());
                }
            }
        }
        (ints, floats)
    }

    // Both collect from a borrowed iterator on purpose: collecting the
    // 16-byte `Value`s by value reuses their allocation in place and leaves
    // every snapshot holding twice the capacity it needs.
    fn ints_of(&self, id: PropId) -> Vec<i64> {
        let vals = self.props.snapshot(id);
        vals.iter().map(|v| v.as_int()).collect()
    }

    fn floats_of(&self, id: PropId) -> Vec<f64> {
        let vals = self.props.snapshot(id);
        vals.iter().map(|v| v.as_float()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::CountingMemory;
    use crate::host::HostValue;
    use ugc_graph::Graph;
    use ugc_graphir::ir::{Expr, Function, LValue, Param, Program, StmtKind};
    use ugc_graphir::types::ReduceOp;

    /// `acc[dst] += 1` as a two-parameter UDF, `acc[dst] += weight` as a
    /// three-parameter one, and a boolean filter.
    fn program() -> Program {
        let mut p = Program::new();
        p.add_property("acc", Type::Int, Expr::int(0));
        let add = |name: &str, weighted: bool| {
            let mut params = vec![
                Param::new("src", Type::Vertex),
                Param::new("dst", Type::Vertex),
            ];
            if weighted {
                params.push(Param::new("weight", Type::Int));
            }
            let mut f = Function::new(name, params, None);
            f.body.push(Stmt::new(StmtKind::Reduce {
                target: LValue::prop("acc", Expr::var("dst")),
                op: ReduceOp::Sum,
                value: if weighted {
                    Expr::var("weight")
                } else {
                    Expr::int(1)
                },
                tracking: None,
            }));
            f.body.push(Stmt::new(StmtKind::EnqueueVertex {
                set: None,
                vertex: Expr::var("dst"),
            }));
            f
        };
        p.add_function(add("count", false));
        p.add_function(add("sum", true));
        let mut keep = Function::new(
            "keep",
            vec![Param::new("v", Type::Vertex)],
            Some(Param::new("output", Type::Bool)),
        );
        keep.body.push(Stmt::new(StmtKind::Assign {
            target: LValue::Var("output".into()),
            value: Expr::bool(true),
        }));
        p.add_function(keep);
        p
    }

    fn state(graph: &Graph) -> ProgramState<'_> {
        ProgramState::new(program(), graph, &HashMap::new()).unwrap()
    }

    fn iterator(apply: &str) -> (Stmt, EdgeSetIteratorData) {
        let data = EdgeSetIteratorData::all_edges("edges", apply);
        (Stmt::new(StmtKind::EdgeSetIterator(data.clone())), data)
    }

    #[test]
    fn resolve_picks_csrs_by_transposition_and_arity_by_udf() {
        // 0 → 1 only, so the two CSRs are distinguishable by degree.
        let graph = Graph::from_edges(2, &[(0, 1)]);
        let state = state(&graph);
        let (stmt, mut data) = iterator("count");
        let op = EdgeOp::resolve(&state, &stmt, &data).unwrap();
        assert_eq!((op.fwd.degree(0), op.bwd.degree(0)), (1, 0));
        assert!(!op.takes_weight && !op.requires_output && !op.dedup);
        assert_eq!(op.direction, Direction::Push);
        assert_eq!(op.out_repr, VertexSetRepr::Sparse);

        data.transposed = true;
        data.apply = "sum".into();
        data.dst_filter = Some("keep".into());
        let op = EdgeOp::resolve(&state, &stmt, &data).unwrap();
        assert_eq!((op.fwd.degree(0), op.bwd.degree(0)), (0, 1));
        assert!(op.takes_weight);
        assert_eq!(op.dst_filter, state.udfs.id_of("keep"));
        assert_eq!(op.src_filter, None);
    }

    #[test]
    fn resolve_reports_unknown_names_as_typed_errors() {
        let graph = Graph::from_edges(2, &[(0, 1)]);
        let state = state(&graph);
        let (stmt, mut data) = iterator("nope");
        let e = EdgeOp::resolve(&state, &stmt, &data).unwrap_err();
        assert_eq!(e, ExecError::new("unknown UDF `nope`"));
        data.apply = "count".into();
        data.src_filter = Some("missing".into());
        let e = EdgeOp::resolve(&state, &stmt, &data).unwrap_err();
        assert_eq!(e, ExecError::new("unknown filter `missing`"));
        assert_eq!(
            state.filter_candidates(None, "missing").unwrap_err(),
            ExecError::new("unknown filter function `missing`")
        );
        assert_eq!(
            state.members(Some("ghost")).unwrap_err(),
            ExecError::new("set `ghost` is not bound")
        );
    }

    #[test]
    fn pull_membership_exists_only_for_a_pulled_input_frontier() {
        let graph = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut state = state(&graph);
        state.env.declare(
            "frontier",
            HostValue::Set(VertexSet::from_members(4, vec![2, 0])),
        );
        let (mut stmt, mut data) = iterator("count");
        stmt.meta.set(keys::DIRECTION, Direction::Pull);
        // Every vertex is a source: nothing to test membership against.
        let op = EdgeOp::resolve(&state, &stmt, &data).unwrap();
        assert_eq!(op.direction, Direction::Pull);
        assert!(op.pull_membership.is_none());

        data.input = Some("frontier".into());
        let op = EdgeOp::resolve(&state, &stmt, &data).unwrap();
        let m = op.pull_membership.expect("pulled frontier");
        assert_eq!(m.repr(), VertexSetRepr::Boolmap);
        assert_eq!(m.iter(), vec![0, 2]);
        stmt.meta
            .set(keys::PULL_INPUT_FRONTIER, VertexSetRepr::Bitmap);
        let op = EdgeOp::resolve(&state, &stmt, &data).unwrap();
        assert_eq!(op.pull_membership.unwrap().repr(), VertexSetRepr::Bitmap);

        // Push never builds one, and an unbound pulled frontier is an error.
        stmt.meta.set(keys::DIRECTION, Direction::Push);
        let op = EdgeOp::resolve(&state, &stmt, &data).unwrap();
        assert!(op.pull_membership.is_none());
        stmt.meta.set(keys::DIRECTION, Direction::Pull);
        data.input = Some("ghost".into());
        assert!(EdgeOp::resolve(&state, &stmt, &data).is_err());
    }

    #[test]
    fn finish_builds_the_output_frontier_the_operator_asked_for() {
        let graph = Graph::from_edges(4, &[(0, 1)]);
        let mut state = state(&graph);
        let (mut stmt, mut data) = iterator("count");
        let outs = || {
            [3u32, 1, 3].map(|v| {
                let mut out = BufferedOutput::default();
                out.enqueued.push(v);
                out
            })
        };
        // No output requested: buffers are consumed, nothing is built.
        let op = EdgeOp::resolve(&state, &stmt, &data).unwrap();
        assert!(state.finish_edge_op(&op, outs()).is_none());

        data.output = Some("out".into());
        let op = EdgeOp::resolve(&state, &stmt, &data).unwrap();
        let set = state.finish_edge_op(&op, outs()).unwrap();
        assert_eq!(set.members_in_order(), vec![3, 1, 3], "arrival order, kept");

        stmt.meta.set(keys::APPLY_DEDUPLICATION, true);
        let op = EdgeOp::resolve(&state, &stmt, &data).unwrap();
        let set = state.finish_edge_op(&op, outs()).unwrap();
        assert_eq!(set.members_in_order(), vec![3, 1]);

        stmt.meta
            .set(keys::OUTPUT_REPRESENTATION, VertexSetRepr::Bitmap);
        let op = EdgeOp::resolve(&state, &stmt, &data).unwrap();
        let set = state.finish_edge_op(&op, outs()).unwrap();
        assert_eq!(set.repr(), VertexSetRepr::Bitmap);
        assert_eq!(set.iter(), vec![1, 3]);
    }

    #[test]
    fn apply_edge_passes_the_weight_only_to_three_parameter_udfs() {
        let graph = Graph::from_edges(3, &[(0, 1), (0, 2)]);
        let state = state(&graph);
        let ev = state.relaxed_evaluator();
        let mut out = BufferedOutput::default();
        let (stmt, mut data) = iterator("count");
        let count = EdgeOp::resolve(&state, &stmt, &data).unwrap();
        data.apply = "sum".into();
        let sum = EdgeOp::resolve(&state, &stmt, &data).unwrap();

        let mut mem = CountingMemory::default();
        ev.apply_edge(&count, 0, 1, 9, &mut out, &mut mem);
        ev.apply_edge(&sum, 0, 2, 9, &mut out, &mut mem);
        assert_eq!(state.property_ints("acc"), vec![0, 1, 9]);
        assert_eq!(out.enqueued, vec![1, 2]);
        // Each call is one effective non-atomic reduction: a load and a
        // store on the recorder the caller handed in.
        assert_eq!((mem.loads, mem.stores, mem.atomics), (2, 2, 0));
        assert!(mem.computes > 0);

        let mut mem = CountingMemory::default();
        assert!(ev.passes(None, 0, &mut mem));
        assert_eq!(mem, CountingMemory::default(), "no filter, no charge");
        assert!(ev.passes(state.udfs.id_of("keep"), 0, &mut mem));
        assert!(mem.computes > 0);
        let (ints, floats) = state.into_snapshot();
        assert_eq!(ints["acc"], vec![0, 1, 9]);
        assert!(floats.is_empty());
    }
}
