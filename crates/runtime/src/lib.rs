#![warn(missing_docs)]

//! Shared runtime substrate for every UGC GraphVM.
//!
//! The paper's GraphVMs each ship a runtime library (Table III). In this
//! reproduction large parts of those libraries are shared — exactly the
//! pieces whose semantics must agree across backends for a program to
//! produce the same answer everywhere:
//!
//! * [`value::Value`] — the scalar value domain of GraphIR programs,
//! * [`properties::PropertyStorage`] — per-vertex property vectors with
//!   atomic operations (the `VertexData` arrays of Table II),
//! * [`vertexset::VertexSet`] — frontier representations (SPARSE / BITMAP /
//!   BOOLMAP) with conversions,
//! * [`buckets::BucketQueue`] — the ∆-stepping bucketed priority queue,
//! * [`frontier_list::FrontierList`] — the list-of-frontiers used by BC,
//! * [`bytecode`] / [`eval`] — compilation of user-defined functions to a
//!   register bytecode and its evaluator with a pluggable
//!   [`eval::MemoryModel`], so architecture simulators observe every
//!   load/store/atomic with its address while the real CPU backend pays no
//!   observation cost,
//! * [`udf`] — the UDF compiler: bytecode lowered once per run to typed,
//!   closure-threaded bodies, which run the CPU's operators and every
//!   GraphVM's host-side vertex filter,
//! * [`pool`] — work-distribution primitives for the CPU backend: a
//!   std-only persistent worker pool (`UGC_THREADS=1`
//!   forces deterministic serial execution),
//! * [`host`] — host-side variable environment shared by backend
//!   interpreters,
//! * [`operator`] — the operator prologue and epilogue ([`EdgeOp`], output
//!   frontier construction, property snapshots) that every GraphVM's
//!   executor starts and ends with.

pub mod buckets;
pub mod bytecode;
pub mod eval;
pub mod frontier_list;
pub mod host;
pub mod interp;
pub mod operator;
pub mod pool;
pub mod properties;
pub mod udf;
pub mod value;
pub mod vertexset;

pub use buckets::BucketQueue;
pub use bytecode::{compile_udfs, UdfId, UdfProgram, UdfSet};
pub use eval::{EdgeCtx, MemoryModel, NullMemory, UdfOutput};
pub use frontier_list::FrontierList;
pub use interp::{contain, ExecError};
pub use operator::EdgeOp;
pub use properties::{GlobalTable, PropId, PropertyStorage};
pub use ugc_resilience::ErrorClass;
pub use value::Value;
pub use vertexset::VertexSet;
