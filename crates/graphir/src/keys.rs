//! Well-known metadata labels attached by the hardware-independent compiler
//! and consumed (or extended) by GraphVMs.
//!
//! The label space is deliberately open — backends add their own labels —
//! but the stock passes agree on the names below, matching the paper's
//! Fig. 4 and Table II.

/// On `EdgeSetIterator`: traversal [`Direction`](crate::types::Direction).
pub const DIRECTION: &str = "direction";

/// On `EdgeSetIterator`: whether the operator produces an output frontier.
pub const REQUIRES_OUTPUT: &str = "requires_output";

/// On `EdgeSetIterator`: result of the frontier-reuse (liveness) analysis —
/// the input frontier's storage may be reused for the output.
pub const CAN_REUSE_FRONTIER: &str = "can_reuse_frontier";

/// On `EdgeSetIterator`: parallelize over edges rather than vertices.
pub const IS_EDGE_PARALLEL: &str = "is_edge_parallel";

/// On `EdgeSetIterator`: iterate all edges (topology-driven operator).
pub const IS_ALL_EDGES: &str = "is_all_edges";

/// On `EdgeSetIterator`: run the source-vertex deduplication pass on the
/// output frontier.
pub const APPLY_DEDUPLICATION: &str = "apply_deduplication";

/// On `EdgeSetIterator`: representation of the output frontier
/// ([`VertexSetRepr`](crate::types::VertexSetRepr)).
pub const OUTPUT_REPRESENTATION: &str = "output_representation";

/// On `EdgeSetIterator`: representation of the input frontier when pulling.
pub const PULL_INPUT_FRONTIER: &str = "pull_input_frontier";

/// On `EdgeSetIterator`: name of the priority queue this operator updates
/// (ordered algorithms such as ∆-stepping SSSP).
pub const QUEUE_UPDATED: &str = "queue_updated";

/// On `WhileLoopStmt`: the GPU GraphVM will fuse the whole loop into a
/// single device kernel.
pub const NEEDS_FUSION: &str = "needs_fusion";

/// On `WhileLoopStmt`: variables the kernel-fusion pass hoisted into
/// device-resident state.
pub const HOISTED_VARS: &str = "hoisted_vars";

/// On `EdgeSetIterator`: the int property a triangle count sums into. Set
/// by the CPU GraphVM's pass on an all-edges operator whose whole effect is
/// `p[v] += intersect_count(src, dst)`, so that its executor may count each
/// triangle once on a symmetric simple graph.
pub const ORIENTED_TC: &str = "oriented_tc";

/// On `CompareAndSwap` / `Reduce` / `UpdatePriority*`: the operation needs
/// hardware synchronization (set by the atomics-insertion pass).
pub const IS_ATOMIC: &str = "is_atomic";

/// On `EnqueueVertex`: representation of the frontier being appended to.
pub const OUTPUT_FORMAT: &str = "output_format";

/// On `VertexSetIterator`: iterate all vertices rather than a frontier.
pub const IS_ALL_VERTS: &str = "is_all_verts";

/// On `VertexSetIterator`: run the apply function in parallel.
pub const IS_PARALLEL: &str = "is_parallel";

/// On any statement: the scheduling object attached by
/// `apply*Schedule(label, sched)` (an `Any` payload).
pub const SCHEDULE: &str = "schedule";

/// On `Function`: where the function runs (`"HOST"`, `"DEVICE"` or
/// `"BOTH"`).
pub const PLACEMENT: &str = "placement";

/// On `EdgeSetIterator`: this operator was produced by ordered-processing
/// lowering and drains one priority bucket per invocation.
pub const IS_ORDERED: &str = "is_ordered";

/// On `ListAppend`: destroy the appended set when the list is destroyed.
pub const TO_DESTROY: &str = "to_destroy";

/// On `ListRetrieve`: allocate the output set before copying into it.
pub const NEEDS_ALLOCATION: &str = "needs_allocation";
