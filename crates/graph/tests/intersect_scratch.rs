//! `IntersectScratch` is exact by contract: on every CSR and for every call
//! sequence, `scratch.count(csr, a, b) == csr.intersect_count(a, b)`.
//!
//! Seeded random CSRs carry self-loops, empty lists and a hub of degree
//! ≥ 2048, with and without multi-edges. Each is driven in push order, pull
//! order, random order and with three walkers interleaved, and every call is
//! compared against the merge. The path counts show that the bitmap probe,
//! the binary search, the re-mark and the plain merge all ran, and that a
//! CSR with repeated targets never leaves the merge.

use ugc_graph::csr::IntersectPaths;
use ugc_graph::prng::Prng;
use ugc_graph::{Csr, IntersectScratch, VertexId};

const N: u32 = 3000;
const HUB: u32 = 7;
const HUB_DEGREE: usize = 2100;

/// Random edges over `N` vertices: a hub with `HUB_DEGREE` distinct
/// out-neighbors that all point back at it, uniform edges from every vertex
/// below `N - 200` (the rest keep empty lists), and a self-loop on every
/// tenth vertex. With `multi`, a tenth of the edges are doubled; without,
/// repeats are removed.
fn random_csr(seed: u64, multi: bool) -> Csr {
    let mut rng = Prng::new(seed);
    let mut others: Vec<u32> = (0..N).filter(|&v| v != HUB).collect();
    rng.shuffle(&mut others);
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for &v in &others[..HUB_DEGREE] {
        edges.push((HUB, v));
        edges.push((v, HUB));
    }
    for _ in 0..6 * N {
        edges.push((rng.gen_range(0..N - 200), rng.gen_range(0..N)));
    }
    edges.extend((0..N).step_by(10).map(|v| (v, v)));
    if multi {
        let doubled: Vec<_> = edges.iter().copied().step_by(10).collect();
        edges.extend(doubled);
    } else {
        edges.sort_unstable();
        edges.dedup();
    }
    Csr::from_edges(N as usize, &edges)
}

/// Runs `calls` through one scratch, checking each against the merge.
fn drive(csr: &Csr, calls: impl IntoIterator<Item = (VertexId, VertexId)>) -> IntersectPaths {
    let mut scratch = IntersectScratch::default();
    for (a, b) in calls {
        assert_eq!(
            scratch.count(csr, a, b),
            csr.intersect_count(a, b),
            "intersect_count({a}, {b})"
        );
    }
    scratch.paths()
}

/// Every edge in push order: `src` repeats.
fn push_order(csr: &Csr) -> Vec<(VertexId, VertexId)> {
    csr.iter_edges().map(|(s, d, _)| (s, d)).collect()
}

/// Every edge in pull order: `dst` repeats.
fn pull_order(csr: &Csr) -> Vec<(VertexId, VertexId)> {
    let t = csr.transpose();
    (0..N)
        .flat_map(|d| t.neighbors(d).iter().map(move |&s| (s, d)))
        .collect()
}

/// Random pairs, a third of which reuse an endpoint of the pair before.
fn random_order(seed: u64) -> Vec<(VertexId, VertexId)> {
    let mut rng = Prng::new(seed);
    let mut calls = vec![(HUB, 0)];
    for _ in 0..20_000 {
        let (pa, pb) = *calls.last().unwrap();
        let fresh = rng.gen_range(0..N);
        calls.push(match rng.gen_range(0..6u32) {
            0 => (pa, fresh),
            1 => (fresh, pb),
            2 => (pb, fresh),
            _ => (fresh, rng.gen_range(0..N)),
        });
    }
    calls
}

/// Two push walkers and a pull walker, interleaved call by call.
fn interleaved(csr: &Csr) -> Vec<(VertexId, VertexId)> {
    let push = push_order(csr);
    let (front, back) = push.split_at(push.len() / 2);
    let pull = pull_order(csr);
    let mut calls = Vec::new();
    for i in 0..front.len().max(back.len()) {
        calls.extend(front.get(i));
        calls.extend(back.get(i));
        calls.extend(pull.get(i));
    }
    calls
}

#[test]
fn scratch_matches_the_merge_on_simple_graphs() {
    for seed in [1, 2, 3] {
        let csr = random_csr(seed, false);
        assert!(!csr.has_repeated_targets());
        assert!(csr.degree(HUB) >= 2048);
        assert!((N - 200..N).any(|v| csr.degree(v) == 0));
        let push = drive(&csr, push_order(&csr));
        let pull = drive(&csr, pull_order(&csr));
        let random = drive(&csr, random_order(seed));
        let mixed = drive(&csr, interleaved(&csr));
        for (order, p) in [
            ("push", push),
            ("pull", pull),
            ("random", random),
            ("interleaved", mixed),
        ] {
            assert!(
                p.merge > 0 && p.mark > 0 && p.probe > 0 && p.search > 0,
                "{order}: {p:?}"
            );
        }
    }
}

#[test]
fn scratch_merges_every_call_on_multigraphs() {
    for seed in [4, 5] {
        let csr = random_csr(seed, true);
        assert!(csr.has_repeated_targets());
        for calls in [push_order(&csr), pull_order(&csr), random_order(seed)] {
            let len = calls.len() as u64;
            let p = drive(&csr, calls);
            assert_eq!(
                p,
                IntersectPaths {
                    merge: len,
                    ..Default::default()
                }
            );
        }
    }
}

#[test]
fn repeated_targets_flag_is_exact() {
    let mut rng = Prng::new(9);
    for case in 0..300 {
        let n = rng.gen_range(1..40u32);
        let edges: Vec<(u32, u32, i32)> = (0..rng.gen_range(0..80usize))
            .map(|_| {
                let (s, d) = (rng.gen_range(0..n), rng.gen_range(0..n));
                (s, d, rng.gen_range(1..9i32))
            })
            .collect();
        let mut pairs: Vec<_> = edges.iter().map(|&(s, d, _)| (s, d)).collect();
        pairs.sort_unstable();
        let repeats = pairs.windows(2).any(|w| w[0] == w[1]);
        let unweighted = Csr::from_edges(n as usize, &pairs);
        let weighted = Csr::from_weighted_edges(n as usize, &edges);
        for csr in [&unweighted, &weighted] {
            assert_eq!(csr.has_repeated_targets(), repeats, "case {case}");
            assert_eq!(
                csr.transpose().has_repeated_targets(),
                repeats,
                "case {case}"
            );
        }
    }
}
