//! Compressed sparse row adjacency and the [`Graph`] façade.

use std::fmt;
use std::sync::OnceLock;

use crate::{VertexId, Weight};

/// Compressed sparse row adjacency structure.
///
/// Stores, for each source vertex, a contiguous slice of neighbor ids and
/// (optionally) parallel edge weights. `offsets` has `num_vertices + 1`
/// entries; neighbors of `v` live at `targets[offsets[v]..offsets[v + 1]]`.
///
/// # Example
///
/// ```
/// use ugc_graph::Csr;
///
/// let csr = Csr::from_edges(3, &[(0, 1), (0, 2), (2, 0)]);
/// assert_eq!(csr.neighbors(0), &[1, 2]);
/// assert_eq!(csr.degree(1), 0);
/// assert_eq!(csr.num_edges(), 3);
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Csr {
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
    weights: Option<Vec<Weight>>,
    /// Whether some neighbor slice repeats a target (a multi-edge).
    repeats: bool,
}

impl Csr {
    /// Builds a CSR from `(src, dst)` pairs. Neighbor lists are sorted.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= num_vertices`.
    pub fn from_edges(num_vertices: usize, edges: &[(VertexId, VertexId)]) -> Self {
        Self::from_weighted_iter(num_vertices, edges.iter().map(|&(s, d)| (s, d, 1)), false)
    }

    /// Builds a weighted CSR from `(src, dst, weight)` triples.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= num_vertices`.
    pub fn from_weighted_edges(
        num_vertices: usize,
        edges: &[(VertexId, VertexId, Weight)],
    ) -> Self {
        Self::from_weighted_iter(num_vertices, edges.iter().copied(), true)
    }

    fn from_weighted_iter(
        num_vertices: usize,
        edges: impl Iterator<Item = (VertexId, VertexId, Weight)> + Clone,
        weighted: bool,
    ) -> Self {
        let mut degrees = vec![0usize; num_vertices];
        let mut num_edges = 0usize;
        for (s, d, _) in edges.clone() {
            assert!(
                (s as usize) < num_vertices && (d as usize) < num_vertices,
                "edge ({s}, {d}) out of bounds for {num_vertices} vertices"
            );
            degrees[s as usize] += 1;
            num_edges += 1;
        }
        let mut offsets = Vec::with_capacity(num_vertices + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for &d in &degrees {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets[..num_vertices].to_vec();
        let mut targets = vec![0 as VertexId; num_edges];
        let mut weights = if weighted {
            vec![0; num_edges]
        } else {
            Vec::new()
        };
        for (s, d, w) in edges {
            let at = cursor[s as usize];
            targets[at] = d;
            if weighted {
                weights[at] = w;
            }
            cursor[s as usize] += 1;
        }
        // Sort each neighbor slice (with weights kept parallel), noting
        // whether any slice repeats a target.
        let mut repeats = false;
        for v in 0..num_vertices {
            let (lo, hi) = (offsets[v], offsets[v + 1]);
            if weighted {
                let mut pairs: Vec<(VertexId, Weight)> = targets[lo..hi]
                    .iter()
                    .copied()
                    .zip(weights[lo..hi].iter().copied())
                    .collect();
                pairs.sort_unstable();
                for (i, (t, w)) in pairs.into_iter().enumerate() {
                    targets[lo + i] = t;
                    weights[lo + i] = w;
                }
            } else {
                targets[lo..hi].sort_unstable();
            }
            repeats = repeats || targets[lo..hi].windows(2).any(|w| w[0] == w[1]);
        }
        Csr {
            offsets,
            targets,
            weights: if weighted { Some(weights) } else { None },
            repeats,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of (directed) edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Neighbor slice of `v`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Whether some neighbor slice lists a target more than once (the
    /// graph has multi-edges). Self-loops alone do not count.
    pub fn has_repeated_targets(&self) -> bool {
        self.repeats
    }

    /// Size of the sorted-merge intersection of the neighbor lists of `a`
    /// and `b`. Duplicate entries (multi-edges) pair up positionally, so
    /// the count is deterministic for any CSR. This merge *defines* "common
    /// neighbors": the interpreter and the sequential reference call it,
    /// and [`IntersectScratch::count`] — a different algorithm, which the
    /// compiled CPU path runs — is tested equal to it on every call.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of bounds.
    pub fn intersect_count(&self, a: VertexId, b: VertexId) -> usize {
        let (na, nb) = (self.neighbors(a), self.neighbors(b));
        let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
        while i < na.len() && j < nb.len() {
            match na[i].cmp(&nb[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        count
    }

    /// Weight slice parallel to [`Csr::neighbors`], or `None` if unweighted.
    pub fn neighbor_weights(&self, v: VertexId) -> Option<&[Weight]> {
        self.weights
            .as_ref()
            .map(|w| &w[self.offsets[v as usize]..self.offsets[v as usize + 1]])
    }

    /// Offset of the first edge of `v` in the flat edge arrays.
    pub fn edge_offset(&self, v: VertexId) -> usize {
        self.offsets[v as usize]
    }

    /// The full offsets array (`num_vertices + 1` entries).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The flat targets array (one entry per edge).
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// The flat weights array, if weighted.
    pub fn weights(&self) -> Option<&[Weight]> {
        self.weights.as_deref()
    }

    /// Whether edges carry weights.
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Weight of the `i`-th edge in flat order; `1` if unweighted.
    pub fn edge_weight_at(&self, i: usize) -> Weight {
        self.weights.as_ref().map_or(1, |w| w[i])
    }

    /// Heap bytes held by the flat arrays (offsets + targets + weights).
    /// Element counts × element sizes; capacity slack is not counted —
    /// builders shrink-to-fit by construction.
    pub fn resident_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.targets.len() * std::mem::size_of::<VertexId>()
            + self
                .weights
                .as_ref()
                .map_or(0, |w| w.len() * std::mem::size_of::<Weight>())
    }

    /// The reverse graph: every edge `(s, d)` becomes `(d, s)`.
    pub fn transpose(&self) -> Csr {
        let n = self.num_vertices();
        let weighted = self.is_weighted();
        let iter = TransposeIter {
            csr: self,
            v: 0,
            i: 0,
        };
        Csr::from_weighted_iter(n, iter, weighted)
    }

    /// Iterates over all edges as `(src, dst, weight)` (weight 1 if
    /// unweighted) in flat CSR order.
    pub fn iter_edges(&self) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + '_ {
        (0..self.num_vertices() as VertexId).flat_map(move |v| {
            let lo = self.offsets[v as usize];
            self.neighbors(v)
                .iter()
                .enumerate()
                .map(move |(i, &d)| (v, d, self.edge_weight_at(lo + i)))
        })
    }
}

/// Per-worker state that answers [`Csr::intersect_count`] exactly, faster
/// when one endpoint repeats from call to call.
///
/// An edge walker calls `intersect_count(src, dst)` with the same `src` for
/// every out-edge in push order, and the same `dst` for every in-edge in
/// pull order. The scratch marks that endpoint's neighbors in a bitmap
/// once, then answers each call with branch-free bit tests over the other
/// endpoint's list — or, when the marked list is much the shorter, with a
/// binary search of each marked neighbor in the other list. A call whose
/// endpoints are neither marked nor in the previous call, and every call
/// on a CSR with repeated targets (whose positional pairing a bitmap
/// cannot reproduce), runs the plain merge.
///
/// One scratch serves one CSR: its marks describe that CSR's lists. It
/// allocates nothing until its first mark, and then `⌈n/64⌉` words.
///
/// ```
/// use ugc_graph::{Csr, IntersectScratch};
///
/// let csr = Csr::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]);
/// let mut scratch = IntersectScratch::default();
/// for &d in csr.neighbors(0) {
///     assert_eq!(scratch.count(&csr, 0, d), csr.intersect_count(0, d));
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct IntersectScratch {
    /// Bit `w` is set iff `w` is a neighbor of `marked`.
    bits: Vec<u64>,
    marked: Option<VertexId>,
    last: Option<(VertexId, VertexId)>,
    paths: IntersectPaths,
}

/// How many calls an [`IntersectScratch`] answered by each method.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntersectPaths {
    /// Plain sorted merges.
    pub merge: u64,
    /// Bit tests of the other list against the marked endpoint's bitmap.
    pub probe: u64,
    /// Binary searches of the marked list's entries in the other list.
    pub search: u64,
    /// Times an endpoint was (re-)marked.
    pub mark: u64,
}

impl IntersectScratch {
    /// `csr.intersect_count(a, b)`, by whichever exact method is cheapest
    /// given the previous calls.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of bounds.
    pub fn count(&mut self, csr: &Csr, a: VertexId, b: VertexId) -> usize {
        let last = self.last.replace((a, b));
        if csr.has_repeated_targets() {
            return self.merge(csr, a, b);
        }
        let (marked, other) = if self.marked == Some(a) {
            (a, b)
        } else if self.marked == Some(b) {
            (b, a)
        } else {
            let repeats = |v| last.is_some_and(|(x, y)| v == x || v == y);
            let m = if repeats(a) {
                a
            } else if repeats(b) {
                b
            } else {
                return self.merge(csr, a, b);
            };
            self.mark(csr, m);
            (m, a ^ b ^ m)
        };
        let (mine, theirs) = (csr.neighbors(marked), csr.neighbors(other));
        if Self::searches(mine.len(), theirs.len()) {
            self.paths.search += 1;
            mine.iter()
                .filter(|w| theirs.binary_search(w).is_ok())
                .count()
        } else {
            self.paths.probe += 1;
            let bits = &self.bits;
            theirs
                .iter()
                .map(|&w| (bits[w as usize >> 6] >> (w & 63) & 1) as usize)
                .sum()
        }
    }

    /// Whether a marked list of `mine` entries is searched in the other
    /// list of `theirs` entries rather than probing all of `theirs`: when
    /// `mine · log2(theirs)` is well below `theirs`.
    fn searches(mine: usize, theirs: usize) -> bool {
        let log2 = (usize::BITS - theirs.leading_zeros()) as usize;
        4 * mine * log2 < theirs
    }

    /// The calls answered so far, by method.
    pub fn paths(&self) -> IntersectPaths {
        self.paths
    }

    fn merge(&mut self, csr: &Csr, a: VertexId, b: VertexId) -> usize {
        self.paths.merge += 1;
        csr.intersect_count(a, b)
    }

    /// Marks `v`'s neighbors, first clearing the previous marks by walking
    /// the previously marked list rather than the whole bitmap.
    fn mark(&mut self, csr: &Csr, v: VertexId) {
        self.paths.mark += 1;
        let words = csr.num_vertices().div_ceil(64);
        if self.bits.len() != words {
            self.bits = vec![0; words];
        } else if let Some(old) = self.marked {
            for &w in csr.neighbors(old) {
                self.bits[w as usize >> 6] = 0;
            }
        }
        for &w in csr.neighbors(v) {
            self.bits[w as usize >> 6] |= 1 << (w & 63);
        }
        self.marked = Some(v);
    }
}

#[derive(Clone)]
struct TransposeIter<'a> {
    csr: &'a Csr,
    v: usize,
    i: usize,
}

impl Iterator for TransposeIter<'_> {
    type Item = (VertexId, VertexId, Weight);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.v >= self.csr.num_vertices() {
                return None;
            }
            let (lo, hi) = (self.csr.offsets[self.v], self.csr.offsets[self.v + 1]);
            if lo + self.i < hi {
                let at = lo + self.i;
                let d = self.csr.targets[at];
                let w = self.csr.edge_weight_at(at);
                self.i += 1;
                return Some((d, self.v as VertexId, w));
            }
            self.v += 1;
            self.i = 0;
        }
    }
}

impl fmt::Debug for Csr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Csr")
            .field("num_vertices", &self.num_vertices())
            .field("num_edges", &self.num_edges())
            .field("weighted", &self.is_weighted())
            .finish()
    }
}

/// A directed graph in CSR form with a lazily materialized transpose.
///
/// Push-direction traversals read out-edges; pull-direction traversals read
/// in-edges, which are materialized on first use and cached.
///
/// # Example
///
/// ```
/// use ugc_graph::Graph;
///
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
/// assert_eq!(g.out_neighbors(0), &[1]);
/// assert_eq!(g.in_neighbors(2), &[1]);
/// ```
#[derive(Debug, Default)]
pub struct Graph {
    out: Csr,
    inn: OnceLock<Csr>,
    /// [`Graph::is_symmetric_simple`], checked on first call.
    symmetric_simple: OnceLock<bool>,
}

impl Clone for Graph {
    fn clone(&self) -> Self {
        Graph {
            out: self.out.clone(),
            inn: self.inn.clone(),
            symmetric_simple: self.symmetric_simple.clone(),
        }
    }
}

impl Graph {
    /// Wraps an out-edge CSR as a graph.
    pub fn new(out: Csr) -> Self {
        Graph {
            out,
            inn: OnceLock::new(),
            symmetric_simple: OnceLock::new(),
        }
    }

    /// Builds a graph from directed `(src, dst)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= num_vertices`.
    pub fn from_edges(num_vertices: usize, edges: &[(VertexId, VertexId)]) -> Self {
        Graph::new(Csr::from_edges(num_vertices, edges))
    }

    /// Builds a weighted graph from `(src, dst, weight)` triples.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= num_vertices`.
    pub fn from_weighted_edges(
        num_vertices: usize,
        edges: &[(VertexId, VertexId, Weight)],
    ) -> Self {
        Graph::new(Csr::from_weighted_edges(num_vertices, edges))
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.out.num_vertices()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.out.num_edges()
    }

    /// Whether edges carry weights.
    pub fn is_weighted(&self) -> bool {
        self.out.is_weighted()
    }

    /// The out-edge CSR.
    pub fn out_csr(&self) -> &Csr {
        &self.out
    }

    /// The in-edge CSR (transpose), materialized on first call.
    pub fn in_csr(&self) -> &Csr {
        self.inn.get_or_init(|| self.out.transpose())
    }

    /// The worst-case heap bytes this graph can come to hold: out-CSR
    /// plus its (same-sized) transpose, whether or not the transpose is
    /// materialized yet. Cache byte-accounting must use the *eventual*
    /// footprint — the transpose materializes lazily behind a shared
    /// `Arc<Graph>`, long after admission decisions were made.
    pub fn resident_bytes(&self) -> usize {
        2 * self.out.resident_bytes()
    }

    /// Whether the graph is an undirected simple graph stored in both
    /// directions: every edge `(s, d)` has its reverse `(d, s)`, no list
    /// repeats a target, and no vertex is its own neighbour. Checked on the
    /// first call, by binary-searching each edge's reverse in the target's
    /// sorted list, so the transpose is never materialized; later calls
    /// read the cached answer.
    pub fn is_symmetric_simple(&self) -> bool {
        *self.symmetric_simple.get_or_init(|| {
            let out = &self.out;
            !out.has_repeated_targets()
                && (0..out.num_vertices() as VertexId).all(|s| {
                    out.neighbors(s)
                        .iter()
                        .all(|&d| d != s && out.neighbors(d).binary_search(&s).is_ok())
                })
        })
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out.degree(v)
    }

    /// In-degree of `v` (materializes the transpose on first call).
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_csr().degree(v)
    }

    /// Out-neighbors of `v`, sorted.
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.out.neighbors(v)
    }

    /// In-neighbors of `v`, sorted (materializes the transpose).
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.in_csr().neighbors(v)
    }

    /// Number of common out-neighbors of `a` and `b` — see
    /// [`Csr::intersect_count`].
    pub fn intersect_count(&self, a: VertexId, b: VertexId) -> usize {
        self.out.intersect_count(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Csr {
        Csr::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn csr_basic_shape() {
        let c = diamond();
        assert_eq!(c.num_vertices(), 4);
        assert_eq!(c.num_edges(), 4);
        assert_eq!(c.neighbors(0), &[1, 2]);
        assert_eq!(c.neighbors(3), &[] as &[VertexId]);
        assert_eq!(c.degree(0), 2);
        assert_eq!(c.offsets(), &[0, 2, 3, 4, 4]);
    }

    #[test]
    fn csr_sorts_neighbors() {
        let c = Csr::from_edges(3, &[(0, 2), (0, 1)]);
        assert_eq!(c.neighbors(0), &[1, 2]);
    }

    #[test]
    fn intersect_count_merges_sorted_lists() {
        let c = diamond();
        // N(0) = {1,2}, N(1) = {3}: disjoint.
        assert_eq!(c.intersect_count(0, 1), 0);
        // N(1) = {3}, N(2) = {3}: one common neighbor.
        assert_eq!(c.intersect_count(1, 2), 1);
        assert_eq!(c.intersect_count(1, 1), 1);
    }

    #[test]
    fn intersect_count_pairs_up_duplicates() {
        // Multi-edges: N(0) = [2,2], N(1) = [2,2,3].
        let c = Csr::from_edges(4, &[(0, 2), (0, 2), (1, 2), (1, 2), (1, 3)]);
        assert_eq!(c.intersect_count(0, 1), 2);
    }

    #[test]
    fn csr_weighted_keeps_weight_parallel() {
        let c = Csr::from_weighted_edges(3, &[(0, 2, 7), (0, 1, 3)]);
        assert_eq!(c.neighbors(0), &[1, 2]);
        assert_eq!(c.neighbor_weights(0).unwrap(), &[3, 7]);
        assert_eq!(c.edge_weight_at(0), 3);
        assert_eq!(c.edge_weight_at(1), 7);
    }

    #[test]
    fn csr_unweighted_weight_is_one() {
        let c = diamond();
        assert!(!c.is_weighted());
        assert_eq!(c.edge_weight_at(2), 1);
        assert!(c.neighbor_weights(0).is_none());
    }

    #[test]
    fn transpose_reverses_edges() {
        let c = diamond();
        let t = c.transpose();
        assert_eq!(t.neighbors(3), &[1, 2]);
        assert_eq!(t.neighbors(0), &[] as &[VertexId]);
        assert_eq!(t.num_edges(), c.num_edges());
    }

    #[test]
    fn transpose_twice_is_identity() {
        let c = diamond();
        assert_eq!(c.transpose().transpose(), c);
    }

    #[test]
    fn transpose_keeps_weights() {
        let c = Csr::from_weighted_edges(3, &[(0, 1, 5), (2, 1, 9)]);
        let t = c.transpose();
        assert_eq!(t.neighbors(1), &[0, 2]);
        assert_eq!(t.neighbor_weights(1).unwrap(), &[5, 9]);
    }

    #[test]
    fn iter_edges_yields_all() {
        let c = diamond();
        let edges: Vec<_> = c.iter_edges().collect();
        assert_eq!(edges, vec![(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)]);
    }

    #[test]
    fn graph_lazy_transpose() {
        let g = Graph::from_edges(3, &[(0, 1), (2, 1)]);
        assert_eq!(g.in_neighbors(1), &[0, 2]);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.out_degree(0), 1);
    }

    #[test]
    fn graph_clone_preserves_transpose() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let _ = g.in_csr();
        let g2 = g.clone();
        assert_eq!(g2.in_neighbors(1), &[0]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_edge_panics() {
        let _ = Csr::from_edges(2, &[(0, 2)]);
    }

    #[test]
    fn symmetric_simple_accepts_undirected_graphs() {
        let tri = Graph::from_edges(3, &[(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]);
        assert!(tri.is_symmetric_simple());
        assert!(Graph::from_edges(4, &[]).is_symmetric_simple());
        assert!(Graph::from_edges(0, &[]).is_symmetric_simple());
    }

    #[test]
    fn symmetric_simple_rejects_each_failing_shape() {
        let shapes: [(&str, Vec<(VertexId, VertexId)>); 3] = [
            ("missing reverse", vec![(0, 1), (1, 0), (1, 2)]),
            ("repeated target", vec![(0, 1), (0, 1), (1, 0), (1, 0)]),
            ("self-loop", vec![(0, 1), (1, 0), (2, 2)]),
        ];
        for (shape, edges) in shapes {
            let g = Graph::from_edges(3, &edges);
            assert!(!g.is_symmetric_simple(), "{shape}");
            // The answer is cached, and leaves the transpose unbuilt.
            assert!(!g.is_symmetric_simple(), "{shape}");
            assert!(g.inn.get().is_none(), "{shape}");
        }
    }

    #[test]
    fn symmetric_simple_survives_clone() {
        let g = Graph::from_edges(2, &[(0, 1), (1, 0)]);
        assert!(g.is_symmetric_simple());
        let before = g.resident_bytes();
        let g2 = g.clone();
        assert_eq!(g2.symmetric_simple.get(), Some(&true));
        assert_eq!(g2.resident_bytes(), before);
    }

    #[test]
    fn self_loops_and_parallel_edges_preserved() {
        let c = Csr::from_edges(2, &[(0, 0), (0, 1), (0, 1)]);
        assert_eq!(c.neighbors(0), &[0, 1, 1]);
        assert_eq!(c.num_edges(), 3);
    }
}
