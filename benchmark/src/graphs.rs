//! Generating a workload's graphs, with the time the graph layer takes.

use std::time::{Duration, Instant};

use ugc_graph::{Dataset, Graph, Scale};

/// The distinct graphs among `keys`, in order of first use.
pub fn distinct(keys: impl IntoIterator<Item = (Dataset, Scale)>) -> Vec<(Dataset, Scale)> {
    let mut out = Vec::new();
    for k in keys {
        if !out.contains(&k) {
            out.push(k);
        }
    }
    out
}

/// Generates a graph and forces its transpose, timing each: program work,
/// part of `setup_s`.
pub fn build((dataset, scale): (Dataset, Scale)) -> (Graph, Duration, Duration) {
    let t = Instant::now();
    let g = dataset.generate(scale);
    let generate = t.elapsed();
    let t = Instant::now();
    g.in_csr();
    (g, generate, t.elapsed())
}
