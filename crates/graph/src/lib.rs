#![warn(missing_docs)]

//! Graph data structures, loaders and synthetic generators for the UGC
//! reproduction.
//!
//! This crate is the substrate every other UGC crate builds on. It provides:
//!
//! * [`Csr`] — compressed sparse row adjacency, the canonical in-memory
//!   format consumed by all backends,
//! * [`Graph`] — a directed graph with lazily materialized transpose
//!   (in-edges), optionally weighted,
//! * [`GraphBuilder`] — incremental construction with deduplication and
//!   symmetrization,
//! * [`generators`] — deterministic synthetic generators (R-MAT power-law
//!   graphs, road-network-like grids, Erdős–Rényi, and small fixtures),
//! * [`datasets`] — scaled-down stand-ins for the ten input graphs of the
//!   paper's Table VIII,
//! * [`io`] — plain-text edge-list loading and saving,
//! * [`stats`] — degree statistics used by scheduling heuristics,
//! * [`prng`] — in-tree deterministic PRNG (splitmix64-seeded xoshiro256++)
//!   so the whole workspace builds offline with zero external crates.
//!
//! # Example
//!
//! ```
//! use ugc_graph::{GraphBuilder, Graph};
//!
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1);
//! b.add_edge(1, 2);
//! b.add_edge(2, 3);
//! let g: Graph = b.into_graph();
//! assert_eq!(g.num_vertices(), 4);
//! assert_eq!(g.out_degree(1), 1);
//! assert_eq!(g.out_neighbors(0), &[1]);
//! ```

pub mod builder;
pub mod coo;
pub mod csr;
pub mod datasets;
pub mod generators;
pub mod io;
pub mod prng;
pub mod stats;

pub use builder::GraphBuilder;
pub use coo::EdgeList;
pub use csr::{Csr, Graph, IntersectScratch};
pub use datasets::{Dataset, Scale};

/// Identifier of a vertex. Vertices of an `n`-vertex graph are `0..n`.
pub type VertexId = u32;

/// Edge weight type used by weighted algorithms (SSSP with ∆-stepping).
pub type Weight = i32;
