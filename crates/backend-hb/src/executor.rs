//! The HammerBlade operator executor: lowers operators to manycore kernel
//! phases.

use ugc_graph::Csr;
use ugc_graphir::ir::{EdgeSetIteratorData, Stmt};
use ugc_graphir::types::Direction;
use ugc_runtime::bytecode::Instr;
use ugc_runtime::eval::{BufferedOutput, MemoryModel};
use ugc_runtime::interp::{ExecError, OperatorExecutor, ProgramState};
use ugc_runtime::properties::PropId;
use ugc_runtime::vertexset::VertexSet;
use ugc_runtime::EdgeOp;
use ugc_schedule::schedule_as;
use ugc_sim_hb::{CoreTrace, HbAccess, HbSim};

use crate::schedule::{HbLoadBalance, HbSchedule};

/// Synthetic array ids (property ids are small; no collisions).
pub mod arrays {
    /// CSR offsets.
    pub const GRAPH_OFFSETS: u32 = 0x100;
    /// CSR targets.
    pub const GRAPH_TARGETS: u32 = 0x101;
    /// CSR weights.
    pub const GRAPH_WEIGHTS: u32 = 0x102;
    /// Sparse frontier array.
    pub const FRONTIER_IN: u32 = 0x110;
    /// Membership map for pull traversal.
    pub const FRONTIER_MAP: u32 = 0x113;
}

/// Records one core's accesses; loads of scratchpad-resident data cost a
/// scalar instruction instead of a memory request.
struct HbRecorder<'a> {
    trace: CoreTrace,
    /// `(props, id range)` currently resident in the scratchpad.
    scratch: Option<(&'a [PropId], std::ops::Range<u32>)>,
}

impl MemoryModel for HbRecorder<'_> {
    fn load(&mut self, prop: PropId, idx: u32) {
        if let Some((props, range)) = &self.scratch {
            if props.contains(&prop) && range.contains(&idx) {
                self.trace.computes += 1; // scratchpad hit
                return;
            }
        }
        self.trace.accesses.push(HbAccess::Demand {
            prop: prop.0 as u32,
            idx,
            write: false,
        });
    }
    fn store(&mut self, prop: PropId, idx: u32) {
        self.trace.accesses.push(HbAccess::Demand {
            prop: prop.0 as u32,
            idx,
            write: true,
        });
    }
    fn atomic(&mut self, prop: PropId, idx: u32) {
        // Global atomics are lock-based on the manycore (§III-C4):
        // acquire + data + release.
        self.trace.accesses.push(HbAccess::Demand {
            prop: prop.0 as u32,
            idx,
            write: true,
        });
        self.trace.accesses.push(HbAccess::Demand {
            prop: prop.0 as u32,
            idx,
            write: true,
        });
        self.trace.computes += 4;
    }
    fn compute(&mut self, n: u32) {
        self.trace.computes += n as u64;
    }
}

impl HbRecorder<'_> {
    fn raw(&mut self, a: HbAccess) {
        self.trace.accesses.push(a);
    }
}

/// Executes GraphIR operators as manycore kernel phases.
#[derive(Debug)]
pub struct HbExecutor {
    /// The simulated machine.
    pub sim: HbSim,
}

impl HbExecutor {
    /// Creates an executor over a simulator.
    pub fn new(sim: HbSim) -> Self {
        HbExecutor { sim }
    }
}

/// The HammerBlade schedule of one edge operator plus what the blocked
/// access method needs from its UDF.
struct HbPlan {
    sched: HbSchedule,
    /// Properties indexed by the UDF's first parameter, ascending and
    /// distinct — the candidates for scratchpad prefetch under the blocked
    /// access method.
    owned_props: Vec<PropId>,
}

fn plan(state: &ProgramState<'_>, stmt: &Stmt, op: &EdgeOp<'_>) -> HbPlan {
    // Scan the UDF bytecode for loads indexed by parameter 0 (the owned
    // vertex) — those are safe to prefetch per work block.
    let mut owned_props: Vec<PropId> = state
        .udfs
        .get(op.udf)
        .instrs
        .iter()
        .filter_map(|i| match i {
            Instr::LoadProp { prop, idx: 0, .. } => Some(*prop),
            _ => None,
        })
        .collect();
    owned_props.sort_unstable();
    owned_props.dedup();
    HbPlan {
        sched: schedule_as::<HbSchedule>(stmt).unwrap_or_default(),
        owned_props,
    }
}

/// Partitions members into per-core work lists under a strategy.
fn partition(
    csr: &Csr,
    members: &[u32],
    lb: HbLoadBalance,
    block_size: u32,
    num_cores: usize,
) -> Vec<Vec<Vec<u32>>> {
    // result[core] = list of work blocks (each a member list).
    let mut cores: Vec<Vec<Vec<u32>>> = vec![Vec::new(); num_cores];
    match lb {
        HbLoadBalance::VertexBased => {
            let chunk = members.len().div_ceil(num_cores).max(1);
            for (i, block) in members.chunks(chunk).enumerate() {
                cores[i % num_cores].push(block.to_vec());
            }
        }
        HbLoadBalance::EdgeBased => {
            // Degree-balanced contiguous chunks.
            let total: usize = members.iter().map(|&v| csr.degree(v)).sum();
            let per_core = (total / num_cores).max(1);
            let mut cur = Vec::new();
            let mut acc = 0usize;
            let mut core = 0usize;
            for &v in members {
                cur.push(v);
                acc += csr.degree(v);
                if acc >= per_core {
                    cores[core % num_cores].push(std::mem::take(&mut cur));
                    core += 1;
                    acc = 0;
                }
            }
            if !cur.is_empty() {
                cores[core % num_cores].push(cur);
            }
        }
        HbLoadBalance::Aligned => {
            // Blocks of consecutive vertex ids aligned to `block_size`,
            // handed to cores round-robin (the paper's V/b work blocks).
            // Shrink b when the frontier is small so every core gets work
            // (b stays a multiple of the 8-element cache line).
            // Target ≥ ~8 blocks per core so LPT assignment can balance
            // (the paper's V/b >> cores regime), while staying a multiple
            // of the 8-element cache line.
            let ideal = (members.len() / (8 * num_cores)).max(8) as u32;
            let block_size = block_size.min(ideal.next_power_of_two()).max(8);
            let mut blocks: Vec<Vec<u32>> = Vec::new();
            let mut cur_block: Option<(u32, Vec<u32>)> = None;
            let mut sorted = members.to_vec();
            sorted.sort_unstable();
            for v in sorted {
                let b = v / block_size;
                match &mut cur_block {
                    Some((bid, list)) if *bid == b => list.push(v),
                    _ => {
                        if let Some((_, list)) = cur_block.take() {
                            blocks.push(list);
                        }
                        cur_block = Some((b, vec![v]));
                    }
                }
            }
            if let Some((_, list)) = cur_block {
                blocks.push(list);
            }
            // "Cores work on these blocks until all work blocks have been
            // processed": dynamic block grabbing, modeled as longest-
            // processing-time-first assignment to the least-loaded core.
            blocks.sort_by_cached_key(|b| {
                std::cmp::Reverse(b.iter().map(|&v| csr.degree(v)).sum::<usize>())
            });
            let mut load = vec![0usize; num_cores];
            for b in blocks {
                let w: usize = b.iter().map(|&v| csr.degree(v)).sum::<usize>() + b.len();
                let (c, _) = load
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &l)| l)
                    .expect("cores > 0");
                load[c] += w;
                cores[c].push(b);
            }
        }
    }
    cores
}

impl HbExecutor {
    /// Runs one traversal phase over `members`: the frontier under push,
    /// every destination under pull.
    fn traversal_phase(
        &mut self,
        state: &ProgramState<'_>,
        op: &EdgeOp<'_>,
        members: &[u32],
        plan: &HbPlan,
        name: &str,
    ) -> BufferedOutput {
        let ev = state.relaxed_evaluator();
        let pull = op.direction == Direction::Pull;
        let csr = if pull { op.bwd } else { op.fwd };
        let pull_membership = op.pull_membership.as_ref();
        let num_cores = self.sim.cfg.num_cores();
        let assignment = partition(
            csr,
            members,
            plan.sched.load_balance(),
            plan.sched.block_size(),
            num_cores,
        );
        let mut merged = BufferedOutput::default();
        let blocked = plan.sched.blocked_access() && !plan.owned_props.is_empty();
        let mut traces = Vec::with_capacity(num_cores);
        for core_blocks in &assignment {
            let mut rec = HbRecorder {
                trace: CoreTrace::default(),
                scratch: None,
            };
            for block in core_blocks {
                if block.is_empty() {
                    continue;
                }
                if blocked {
                    // Prefetch the block's owned-property range into the
                    // scratchpad in one burst.
                    let lo = *block.iter().min().expect("non-empty");
                    let hi = *block.iter().max().expect("non-empty");
                    for p in &plan.owned_props {
                        rec.raw(HbAccess::Bulk {
                            prop: p.0 as u32,
                            start: lo,
                            count: hi - lo + 1,
                            write: false,
                        });
                    }
                    rec.scratch = Some((plan.owned_props.as_slice(), lo..hi + 1));
                } else {
                    rec.scratch = None;
                }
                for &v in block {
                    // Work-list fetch and offsets lookup.
                    rec.raw(HbAccess::Demand {
                        prop: arrays::FRONTIER_IN,
                        idx: v,
                        write: false,
                    });
                    rec.raw(HbAccess::Demand {
                        prop: arrays::GRAPH_OFFSETS,
                        idx: v,
                        write: false,
                    });
                    rec.trace.computes += 6;
                    if !pull && !ev.passes(op.src_filter, v, &mut rec) {
                        continue;
                    }
                    let deg = csr.degree(v);
                    let lo_e = csr.edge_offset(v);
                    if deg > 0 {
                        // Neighbor list scan is a pipelined sequential read.
                        rec.raw(HbAccess::Bulk {
                            prop: arrays::GRAPH_TARGETS,
                            start: lo_e as u32,
                            count: deg as u32,
                            write: false,
                        });
                        if op.takes_weight {
                            rec.raw(HbAccess::Bulk {
                                prop: arrays::GRAPH_WEIGHTS,
                                start: lo_e as u32,
                                count: deg as u32,
                                write: false,
                            });
                        }
                    }
                    let weights = csr.neighbor_weights(v);
                    for (k, &other) in csr.neighbors(v).iter().enumerate() {
                        let (src, dst) = if pull { (other, v) } else { (v, other) };
                        if let Some(m) = pull_membership {
                            rec.raw(HbAccess::Demand {
                                prop: arrays::FRONTIER_MAP,
                                idx: src / 4,
                                write: false,
                            });
                            if !m.contains(src) {
                                continue;
                            }
                        }
                        if pull && !ev.passes(op.src_filter, src, &mut rec) {
                            continue;
                        }
                        if !ev.passes(op.dst_filter, dst, &mut rec) {
                            continue;
                        }
                        let w = weights.map_or(1, |ws| ws[k]) as i64;
                        ev.apply_edge(op, src, dst, w, &mut merged, &mut rec);
                    }
                }
            }
            rec.scratch = None;
            traces.push(rec.trace);
        }
        self.sim.run_phase(name, traces);
        merged
    }
}

impl OperatorExecutor for HbExecutor {
    fn edge_iterator(
        &mut self,
        state: &mut ProgramState<'_>,
        stmt: &Stmt,
        data: &EdgeSetIteratorData,
    ) -> Result<Option<VertexSet>, ExecError> {
        let op = EdgeOp::resolve(state, stmt, data)?;
        let plan = plan(state, stmt, &op);
        let out = match op.direction {
            Direction::Push => {
                // Arrival order: sparse frontiers are unsorted on the real
                // machine — exactly what alignment-based partitioning fixes.
                let members = state.input_set(&data.input)?.members_in_order();
                self.traversal_phase(state, &op, &members, &plan, "push")
            }
            Direction::Pull => {
                let all = state.members(None)?;
                self.traversal_phase(state, &op, &all, &plan, "pull")
            }
        };
        Ok(state.finish_edge_op(&op, [out]))
    }

    fn vertex_iterator(
        &mut self,
        state: &mut ProgramState<'_>,
        _stmt: &Stmt,
        set: Option<&str>,
        apply: &str,
    ) -> Result<(), ExecError> {
        let udf = state.udf_id(apply)?;
        let members = state.members(set)?;
        let ev = state.relaxed_evaluator();
        let num_cores = self.sim.cfg.num_cores();
        let chunk = members.len().div_ceil(num_cores).max(1);
        let mut merged = BufferedOutput::default();
        let mut traces = Vec::with_capacity(num_cores);
        for block in members.chunks(chunk) {
            let mut rec = HbRecorder {
                trace: CoreTrace::default(),
                scratch: None,
            };
            for &v in block {
                rec.raw(HbAccess::Demand {
                    prop: arrays::FRONTIER_IN,
                    idx: v,
                    write: false,
                });
                ev.apply_vertex(udf, v, &mut merged, &mut rec);
            }
            traces.push(rec.trace);
        }
        self.sim.run_phase("vertex_apply", traces);
        state.push_priorities(merged.priority_updates);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugc_graph::generators;

    fn flatten(cores: &[Vec<Vec<u32>>]) -> Vec<u32> {
        let mut all: Vec<u32> = cores
            .iter()
            .flat_map(|c| c.iter())
            .flat_map(|b| b.iter().copied())
            .collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn every_strategy_partitions_all_members() {
        let g = generators::rmat(8, 5, 2, false);
        let members: Vec<u32> = (0..g.num_vertices() as u32).collect();
        for lb in [
            HbLoadBalance::VertexBased,
            HbLoadBalance::EdgeBased,
            HbLoadBalance::Aligned,
        ] {
            let cores = partition(g.out_csr(), &members, lb, 64, 128);
            assert_eq!(flatten(&cores), members, "{lb:?}");
        }
    }

    #[test]
    fn aligned_blocks_are_id_contiguous_ranges() {
        let g = generators::road_grid(16, 16, 0.0, 1, false);
        let members: Vec<u32> = (0..256).rev().collect(); // arrival order reversed
        let cores = partition(g.out_csr(), &members, HbLoadBalance::Aligned, 8, 4);
        for core in &cores {
            for block in core {
                let lo = *block.iter().min().unwrap();
                let hi = *block.iter().max().unwrap();
                // One block never spans two aligned ranges.
                assert_eq!(lo / 8, hi / 8, "block {block:?} spans ranges");
            }
        }
    }

    #[test]
    fn edge_based_balances_degree() {
        let g = generators::star(512);
        let members: Vec<u32> = (0..512).collect();
        let cores = partition(g.out_csr(), &members, HbLoadBalance::EdgeBased, 64, 8);
        let loads: Vec<usize> = cores
            .iter()
            .map(|c| {
                c.iter()
                    .flat_map(|b| b.iter())
                    .map(|&v| g.out_degree(v))
                    .sum()
            })
            .collect();
        let max = *loads.iter().max().unwrap();
        let nonzero = loads.iter().filter(|&&l| l > 0).count();
        assert!(nonzero >= 2, "{loads:?}");
        // The hub (511 edges) is one vertex — max load is the hub's chunk;
        // every other chunk is small.
        assert!(max >= 511, "{loads:?}");
    }

    #[test]
    fn partition_handles_empty_members() {
        let g = generators::path(4);
        for lb in [
            HbLoadBalance::VertexBased,
            HbLoadBalance::EdgeBased,
            HbLoadBalance::Aligned,
        ] {
            let cores = partition(g.out_csr(), &[], lb, 64, 8);
            assert!(flatten(&cores).is_empty(), "{lb:?}");
        }
    }
}
