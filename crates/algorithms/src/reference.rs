//! Sequential reference implementations used to validate every backend.

use std::collections::VecDeque;

use ugc_graph::{Graph, VertexId};

/// The DSL's "infinite distance" marker (`int` max).
pub const INF: i64 = i32::MAX as i64;

/// BFS levels from `src`; `-1` for unreachable vertices.
pub fn bfs_levels(g: &Graph, src: VertexId) -> Vec<i64> {
    let mut level = vec![-1i64; g.num_vertices()];
    let mut q = VecDeque::new();
    level[src as usize] = 0;
    q.push_back(src);
    while let Some(v) = q.pop_front() {
        for &u in g.out_neighbors(v) {
            if level[u as usize] == -1 {
                level[u as usize] = level[v as usize] + 1;
                q.push_back(u);
            }
        }
    }
    level
}

/// BFS parent pointers from `src` (the BFS algorithm's `parent` vector):
/// `parent[src] == src`, `-1` for unreachable vertices. Any valid BFS
/// tree passes the validators; this one is the first-discovered tree.
pub fn bfs_parents(g: &Graph, src: VertexId) -> Vec<i64> {
    let mut parent = vec![-1i64; g.num_vertices()];
    let mut q = VecDeque::new();
    parent[src as usize] = src as i64;
    q.push_back(src);
    while let Some(v) = q.pop_front() {
        for &u in g.out_neighbors(v) {
            if parent[u as usize] == -1 {
                parent[u as usize] = v as i64;
                q.push_back(u);
            }
        }
    }
    parent
}

/// Dijkstra distances from `src`; [`INF`] for unreachable vertices.
pub fn dijkstra(g: &Graph, src: VertexId) -> Vec<i64> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut dist = vec![INF; g.num_vertices()];
    let mut heap = BinaryHeap::new();
    dist[src as usize] = 0;
    heap.push(Reverse((0i64, src)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        let weights = g.out_csr().neighbor_weights(v);
        for (k, &u) in g.out_neighbors(v).iter().enumerate() {
            let w = weights.map_or(1, |ws| ws[k]) as i64;
            let nd = d + w;
            if nd < dist[u as usize] {
                dist[u as usize] = nd;
                heap.push(Reverse((nd, u)));
            }
        }
    }
    dist
}

/// Connected-component labels: each vertex gets the minimum vertex id of
/// its (weakly) connected component — the fixpoint of min-label
/// propagation on symmetric graphs.
pub fn cc_labels(g: &Graph) -> Vec<i64> {
    let n = g.num_vertices();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for (s, d, _) in g.out_csr().iter_edges() {
        let (rs, rd) = (find(&mut parent, s as usize), find(&mut parent, d as usize));
        if rs != rd {
            // Union by smaller root id so the representative is the min.
            let (lo, hi) = if rs < rd { (rs, rd) } else { (rd, rs) };
            parent[hi] = lo;
        }
    }
    (0..n).map(|v| find(&mut parent, v) as i64).collect()
}

/// PageRank with `iters` damped iterations (the DSL source's exact
/// update schedule, including zero-out-degree handling).
pub fn pagerank(g: &Graph, iters: usize, damp: f64) -> Vec<f64> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let beta = (1.0 - damp) / n as f64;
    let mut old_rank = vec![1.0 / n as f64; n];
    let mut new_rank = vec![0.0f64; n];
    for _ in 0..iters {
        let contrib: Vec<f64> = (0..n as VertexId)
            .map(|v| {
                let d = g.out_degree(v);
                if d == 0 {
                    0.0
                } else {
                    old_rank[v as usize] / d as f64
                }
            })
            .collect();
        for (s, d, _) in g.out_csr().iter_edges() {
            new_rank[d as usize] += contrib[s as usize];
        }
        for v in 0..n {
            old_rank[v] = beta + damp * new_rank[v];
            new_rank[v] = 0.0;
        }
    }
    old_rank
}

/// Brandes single-source dependency scores from `src`: for every vertex
/// `v`, `delta[v] = Σ_{w : v precedes w} σ_v/σ_w · (1 + delta[w])`,
/// the quantity the BC algorithm's `centrality` vector holds.
pub fn bc_dependencies(g: &Graph, src: VertexId) -> Vec<f64> {
    let n = g.num_vertices();
    let mut sigma = vec![0u64; n];
    let mut level = vec![-1i64; n];
    let mut order: Vec<VertexId> = Vec::new();
    sigma[src as usize] = 1;
    level[src as usize] = 0;
    let mut q = VecDeque::new();
    q.push_back(src);
    while let Some(v) = q.pop_front() {
        order.push(v);
        for &u in g.out_neighbors(v) {
            if level[u as usize] == -1 {
                level[u as usize] = level[v as usize] + 1;
                q.push_back(u);
            }
            if level[u as usize] == level[v as usize] + 1 {
                sigma[u as usize] += sigma[v as usize];
            }
        }
    }
    let mut delta = vec![0.0f64; n];
    for &w in order.iter().rev() {
        for &v in g.in_neighbors(w) {
            if level[v as usize] >= 0 && level[v as usize] + 1 == level[w as usize] {
                delta[v as usize] +=
                    sigma[v as usize] as f64 / sigma[w as usize] as f64 * (1.0 + delta[w as usize]);
            }
        }
    }
    delta
}

/// Per-vertex triangle counts mirroring the TC source exactly: every
/// directed edge `(s, d)` adds `|N_out(s) ∩ N_out(d)|` to `tri[d]`, via
/// [`ugc_graph::Csr::intersect_count`]'s merge, which defines the count,
/// duplicate-edge pairing included. The interpreter runs the same merge;
/// the compiled CPU path counts each triangle once on a symmetric simple
/// graph and runs [`ugc_graph::IntersectScratch`] per edge on any other —
/// different algorithms, both checked against this one.
pub fn triangle_counts(g: &Graph) -> Vec<i64> {
    let mut tri = vec![0i64; g.num_vertices()];
    for (s, d, _) in g.out_csr().iter_edges() {
        tri[d as usize] += g.intersect_count(s, d) as i64;
    }
    tri
}

/// Total triangles on a symmetric simple graph: each triangle is counted
/// once per direction of each of its three edges in [`triangle_counts`].
pub fn total_triangles(g: &Graph) -> i64 {
    triangle_counts(g).iter().sum::<i64>() / 6
}

/// Coreness of every vertex, mirroring the KCORE source's peeling order:
/// degrees start at out-degree, a vertex killed while `cur_k` is the
/// active stage gets coreness `cur_k - 1`, and each kill decrements the
/// degree of every out-neighbor (multi-edges decrement repeatedly).
pub fn coreness(g: &Graph) -> Vec<i64> {
    let n = g.num_vertices();
    let mut deg: Vec<i64> = (0..n as VertexId).map(|v| g.out_degree(v) as i64).collect();
    let mut core = vec![0i64; n];
    let mut alive = vec![true; n];
    let mut remaining = n;
    let mut cur_k = 1i64;
    while remaining > 0 {
        let peel: Vec<VertexId> = (0..n as VertexId)
            .filter(|&v| alive[v as usize] && deg[v as usize] < cur_k)
            .collect();
        if peel.is_empty() {
            cur_k += 1;
            continue;
        }
        for &v in &peel {
            alive[v as usize] = false;
            core[v as usize] = cur_k - 1;
        }
        for &v in &peel {
            for &u in g.out_neighbors(v) {
                deg[u as usize] -= 1;
            }
        }
        remaining -= peel.len();
    }
    core
}

/// Labels after synchronous min-label propagation, mirroring the LP
/// source: init `labels[v] = (v + seed) mod n`, then up to `max_iters`
/// rounds of `next[d] = min(labels[d], min over in-edges of labels[s])`
/// adopted synchronously, stopping when a round changes nothing.
pub fn label_propagation(g: &Graph, max_iters: i64, seed: i64) -> Vec<i64> {
    let n = g.num_vertices() as i64;
    if n == 0 {
        return Vec::new();
    }
    // Truncated `%`, matching the runtime's `BinOp::Mod` exactly.
    let mut labels: Vec<i64> = (0..n).map(|v| (v + seed) % n).collect();
    for _ in 0..max_iters {
        let mut next = labels.clone();
        for (s, d, _) in g.out_csr().iter_edges() {
            next[d as usize] = next[d as usize].min(labels[s as usize]);
        }
        if next == labels {
            break;
        }
        labels = next;
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugc_graph::generators;

    #[test]
    fn bfs_levels_on_path() {
        let g = generators::path(4);
        assert_eq!(bfs_levels(&g, 0), vec![0, 1, 2, 3]);
        assert_eq!(bfs_levels(&g, 2), vec![-1, -1, 0, 1]);
    }

    #[test]
    fn bfs_parents_on_path() {
        let g = generators::path(4);
        assert_eq!(bfs_parents(&g, 0), vec![0, 0, 1, 2]);
        assert_eq!(bfs_parents(&g, 2), vec![-1, -1, 2, 2]);
    }

    #[test]
    fn dijkstra_on_two_communities() {
        let g = generators::two_communities();
        let d = dijkstra(&g, 0);
        assert_eq!(d[0], 0);
        // 0->1 weight 1 (first pushed edge).
        assert_eq!(d[1], 1);
        assert!(d.iter().all(|&x| x < INF));
    }

    #[test]
    fn dijkstra_unreachable_is_inf() {
        let g = ugc_graph::Graph::from_edges(3, &[(0, 1)]);
        let d = dijkstra(&g, 0);
        assert_eq!(d[2], INF);
    }

    #[test]
    fn cc_labels_two_components() {
        let g = ugc_graph::Graph::from_edges(5, &[(0, 1), (1, 0), (2, 3), (3, 2)]);
        let l = cc_labels(&g);
        assert_eq!(l, vec![0, 0, 2, 2, 4]);
    }

    #[test]
    fn pagerank_sums_to_one() {
        let g = generators::rmat(8, 4, 1, false);
        let pr = pagerank(&g, 20, 0.85);
        let s: f64 = pr.iter().sum();
        // Dangling mass leaks, so <= 1, but should be near 1 on a
        // symmetrized graph with few isolated vertices.
        assert!(s > 0.5 && s <= 1.0 + 1e-9, "sum {s}");
    }

    #[test]
    fn bc_star_center_dominates() {
        let g = generators::star(6);
        let d = bc_dependencies(&g, 1);
        // From leaf 1, all shortest paths go through the hub 0.
        assert!(d[0] > d[2], "{d:?}");
    }

    #[test]
    fn bc_path_dependencies() {
        let g = generators::path(4);
        let d = bc_dependencies(&g, 0);
        // delta[2] = 1 (for 3), delta[1] = 1*(1+1) = 2, delta[0] = 3.
        assert_eq!(d, vec![3.0, 2.0, 1.0, 0.0]);
    }

    #[test]
    fn triangles_on_cliques_and_bipartite() {
        // K4 has C(4,3) = 4 triangles; three disjoint K4s have 12.
        let g = generators::clique_batch(3, 4);
        assert_eq!(total_triangles(&g), 12);
        // Each vertex of a K4 is in C(3,2) = 3 triangles; tri[v] counts
        // each twice per incident edge pair: 6 per vertex here.
        assert!(triangle_counts(&g).iter().all(|&t| t == 6));
        // Complete bipartite graphs are triangle-free.
        let b = generators::bipartite(3, 4);
        assert_eq!(total_triangles(&b), 0);
        assert!(triangle_counts(&b).iter().all(|&t| t == 0));
    }

    #[test]
    fn coreness_on_barbell_and_path() {
        // Two K5s bridged by 3 path vertices: clique vertices sit in the
        // 4-core; the bridge (and the clique endpoints' bridge edges)
        // peel at coreness <= 2.
        let g = generators::barbell(5, 3);
        let c = coreness(&g);
        for v in [0usize, 1, 2, 3] {
            assert_eq!(c[v], 4, "clique interior {v}: {c:?}");
        }
        for v in [5usize, 6, 7] {
            assert!(c[v] <= 2, "bridge {v}: {c:?}");
        }
        // A symmetric path is entirely coreness 1.
        let mut edges = Vec::new();
        for v in 0..5u32 {
            edges.push((v, v + 1));
            edges.push((v + 1, v));
        }
        let p = ugc_graph::Graph::from_edges(6, &edges);
        let cp = coreness(&p);
        assert!(cp.iter().all(|&k| k == 1), "{cp:?}");
    }

    #[test]
    fn lp_converges_to_component_minimum() {
        // With seed 0 the init is the identity labeling, so the fixpoint
        // is the component-min — CC's answer.
        let g = generators::two_communities();
        assert_eq!(label_propagation(&g, 50, 0), cc_labels(&g));
        // Seed rotation relabels but preserves the partition.
        let rotated = label_propagation(&g, 50, 3);
        let cc = cc_labels(&g);
        let n = g.num_vertices();
        for a in 0..n {
            for b in 0..n {
                assert_eq!(
                    rotated[a] == rotated[b],
                    cc[a] == cc[b],
                    "partition mismatch at ({a},{b})"
                );
            }
        }
    }

    #[test]
    fn lp_zero_iters_is_initial_labeling() {
        let g = generators::path(4);
        assert_eq!(label_propagation(&g, 0, 1), vec![1, 2, 3, 0]);
    }
}
