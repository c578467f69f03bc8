//! The correctness gate. A cell's cold op is validated in full against the
//! sequential references (`ugc_algorithms::{reference, validate}` — never
//! the path under test); every timed op then re-checks a cheap invariant
//! derived from that validated answer.

use ugc::{Algorithm, RunResult};
use ugc_algorithms::{reference, validate};
use ugc_graph::Graph;

use crate::stats::Rng;

/// FNV-1a over the little-endian bytes of each value: the checksum the wire
/// protocol documents for its `checksum=` field, written out here so the
/// benchmark's side of the comparison shares no code with the daemon.
pub fn checksum_ints(vals: &[i64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in vals.iter().flat_map(|v| v.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Reached count and depth of the reference BFS from `v`.
fn bfs_profile(g: &Graph, v: u32) -> (usize, i64) {
    let levels = reference::bfs_levels(g, v);
    let reached = levels.iter().filter(|&&l| l >= 0).count();
    (reached, levels.iter().copied().max().unwrap_or(0))
}

/// Draws start vertices that stand for the same amount of traversal work
/// whatever the seed: the reference BFS from each reaches at least half
/// the graph (no draw lands on an isolated vertex) and is as deep as the
/// graph's typical BFS, give or take 2 %. Without the second condition a
/// corner and the centre of a road grid differ by a factor of two in
/// rounds, and the seed would move every traversal cell by more than any
/// bound.
pub struct SourcePicker<'g> {
    g: &'g Graph,
    depth: i64,
}

impl<'g> SourcePicker<'g> {
    /// Profiles the graph: the typical depth is the median over a fixed
    /// sample of vertices, so it is a property of the graph, not of the
    /// seed.
    pub fn new(g: &'g Graph) -> SourcePicker<'g> {
        let n = g.num_vertices();
        let mut rng = Rng::new(n as u64, 0x0DE9);
        let mut depths: Vec<i64> = (0..24)
            .map(|_| bfs_profile(g, rng.below(n) as u32))
            .filter(|&(reached, _)| 2 * reached >= n)
            .map(|(_, depth)| depth)
            .collect();
        assert!(
            !depths.is_empty(),
            "no sampled vertex reaches half of a {n}-vertex graph"
        );
        depths.sort_unstable();
        SourcePicker {
            g,
            depth: depths[depths.len() / 2],
        }
    }

    /// `count` distinct start vertices from the seeded generator.
    pub fn pick(&self, rng: &mut Rng, count: usize) -> Vec<u32> {
        let n = self.g.num_vertices();
        let mut picked = Vec::with_capacity(count);
        // One draw in eight fits on the road grids, more elsewhere.
        for _ in 0..256 * count {
            if picked.len() == count {
                break;
            }
            let v = rng.below(n) as u32;
            let (reached, depth) = bfs_profile(self.g, v);
            if 2 * reached >= n
                && 50 * (depth - self.depth).abs() <= self.depth
                && !picked.contains(&v)
            {
                picked.push(v);
            }
        }
        assert_eq!(
            picked.len(),
            count,
            "too few vertices with a BFS of depth {}",
            self.depth
        );
        picked
    }
}

/// What every later run of a cell must reproduce, taken from its validated
/// cold op: a checksum where the answer is unique, the strongest invariant
/// that is unique otherwise.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// SSSP distances, CC labels, triangle counts, coreness: bit-exact.
    Checksum(u64),
    /// BFS: any valid tree is right, the reached set is unique.
    Reached(usize),
    /// PR and BC: float sums differ in the last bits with summation order.
    Sum(f64),
    /// LP: right up to renaming, so the number of classes is unique.
    Classes(usize),
}

fn expect_of(algo: Algorithm, r: &RunResult) -> Expect {
    let distinct = |v: &[i64]| {
        let mut s = v.to_vec();
        s.sort_unstable();
        s.dedup();
        s.len()
    };
    match algo {
        Algorithm::Bfs => Expect::Reached(
            r.property_ints("parent")
                .iter()
                .filter(|&&p| p != -1)
                .count(),
        ),
        Algorithm::Sssp => Expect::Checksum(checksum_ints(r.property_ints("dist"))),
        Algorithm::Cc => Expect::Checksum(checksum_ints(r.property_ints("IDs"))),
        Algorithm::Tc => Expect::Checksum(checksum_ints(r.property_ints("tri"))),
        Algorithm::KCore => Expect::Checksum(checksum_ints(r.property_ints("core"))),
        Algorithm::PageRank => Expect::Sum(r.property_floats("old_rank").iter().sum()),
        Algorithm::Bc => Expect::Sum(r.property_floats("centrality").iter().sum()),
        Algorithm::Lp => Expect::Classes(distinct(r.property_ints("labels"))),
    }
}

/// A benchmark op must be the first attempt on the requested GraphVM: a
/// retry or a fallback would time something else.
fn unsupervised(r: &RunResult) -> Result<(), String> {
    if r.degraded_to.is_some() || r.attempts != 1 {
        return Err(format!(
            "supervisor stepped in (attempts {}, degraded to {:?})",
            r.attempts, r.degraded_to
        ));
    }
    Ok(())
}

/// Full validation of a cold op; returns what timed ops must reproduce.
pub fn validate_cold(
    algo: Algorithm,
    g: &Graph,
    source: u32,
    r: &RunResult,
) -> Result<Expect, String> {
    unsupervised(r)?;
    match algo {
        Algorithm::Bfs => validate::check_bfs_parents(g, source, r.property_ints("parent")),
        Algorithm::Sssp => validate::check_sssp_distances(g, source, r.property_ints("dist")),
        Algorithm::Cc => validate::check_cc_labels(g, r.property_ints("IDs")),
        Algorithm::PageRank => validate::check_pagerank(g, r.property_floats("old_rank"), 1e-7),
        Algorithm::Bc => {
            // The repo's tests use 1e-6 absolute on graphs whose scores stay
            // near 1; dependencies here reach the vertex count, so the
            // tolerance scales with the largest reference score.
            let scores = r.property_floats("centrality");
            let top = scores.iter().fold(1.0f64, |m, &s| m.max(s.abs()));
            validate::check_bc(g, source, scores, 1e-9 * top)
        }
        Algorithm::Tc => validate::check_triangle_counts(g, r.property_ints("tri")),
        Algorithm::KCore => validate::check_coreness(g, r.property_ints("core")),
        Algorithm::Lp => {
            let ext = |name: &str| {
                algo.default_externs()
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|&(_, v)| v)
                    .expect("LP declares this extern")
            };
            validate::check_lp_labels(
                g,
                r.property_ints("labels"),
                ext("max_iters"),
                ext("lp_seed"),
            )
        }
    }?;
    Ok(expect_of(algo, r))
}

/// The cheap per-op check.
pub fn check_timed(algo: Algorithm, r: &RunResult, expect: &Expect) -> Result<(), String> {
    unsupervised(r)?;
    let got = expect_of(algo, r);
    let same = match (&got, expect) {
        (Expect::Sum(a), Expect::Sum(b)) => (a - b).abs() <= 1e-9 * b.abs().max(1.0),
        (a, b) => a == b,
    };
    if same {
        Ok(())
    } else {
        Err(format!("got {got:?}, the validated run gave {expect:?}"))
    }
}
