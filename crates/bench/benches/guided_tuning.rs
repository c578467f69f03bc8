//! Blind vs guided autotuning: the budget-vs-quality comparison behind
//! the ROADMAP's telemetry-guided-search claim.
//!
//! For each (architecture, algorithm, graph-family) cell the bench runs
//! the same greedy search twice over the backend's declared schedule
//! space:
//!
//! * **blind** — cost model off, three cold random restarts (the search
//!   as it was before attribution-guided pruning existed);
//! * **guided** — cost model on (dominant attribution components prune
//!   declared axes) plus a fingerprint warm start: the winner point of a
//!   same-family *donor* dataset seeds the first restart, exactly like a
//!   nearest-fingerprint cache hit would.
//!
//! Both runs rank the pinned baseline/hand-tuned candidates alongside
//! the space's own points, so neither winner can lose to the hand-tuned
//! schedule. The interesting numbers are `measurements` (distinct space
//! points evaluated — the tuning budget actually spent) and `winner_ns`
//! (the winner's per-run time): guided must match the blind winner while
//! measuring several times fewer points.
//!
//! Output is one JSON line per run on stdout; timing is the simulator's
//! own cycle count (or wall clock on the CPU backend), not a harness loop —
//! a tuning run *is* the measurement.

use ugc::{Algorithm, Target};
use ugc_bench::{autotune, autotune_warm, Strategy, TuneOutcome, Tuner};
use ugc_graph::{Dataset, Scale};

/// Budget cap shared by both runs so the comparison is about how much of
/// the budget each strategy *needs*, not how much it is given.
const BUDGET: usize = 64;
const SEED: u64 = 0xF1_6813;

fn blind_tuner() -> Tuner {
    Tuner {
        seed: SEED,
        budget: BUDGET,
        strategy: Strategy::GreedyDescent,
        restarts: 3,
        cost_model: false,
    }
}

fn guided_tuner() -> Tuner {
    Tuner {
        seed: SEED,
        budget: BUDGET,
        strategy: Strategy::GreedyDescent,
        restarts: 1,
        cost_model: true,
    }
}

/// Best ranked entry that is an actual space point (pinned candidates
/// carry no level indices and cannot seed a warm start).
fn best_space_point(out: &TuneOutcome) -> Option<Vec<usize>> {
    out.ranked.iter().find_map(|r| r.point.clone())
}

fn json_line(group: &str, label: &str, out: &TuneOutcome, warm: bool) {
    println!(
        r#"{{"group":{group:?},"label":{label:?},"measurements":{},"pruned_saved":{},"winner_ns":{},"warm_start":{warm}}}"#,
        out.explored,
        out.saved(),
        out.winner().sample.time_ms * 1e6,
    );
}

fn bench_cell(
    filter: Option<&str>,
    target: Target,
    algo: Algorithm,
    donor: Dataset,
    probe: Dataset,
) {
    let group = format!(
        "guided_tuning/{}/{}/{}",
        target.name(),
        algo.name(),
        probe.abbrev()
    );
    if let Some(f) = filter {
        if !group.to_lowercase().contains(&f.to_lowercase()) {
            return;
        }
    }
    let donor_graph = donor.generate(Scale::Tiny);
    let probe_graph = probe.generate(Scale::Tiny);

    // The donor tune stands in for a prior session's cache entry; its
    // winner point is what `nearest()` would hand back for the probe.
    let donor_out =
        autotune(target, algo, &donor_graph, &guided_tuner()).expect("donor tuning failed");
    let warm = best_space_point(&donor_out);

    let blind = autotune(target, algo, &probe_graph, &blind_tuner()).expect("blind tuning failed");
    let guided = autotune_warm(target, algo, &probe_graph, &guided_tuner(), warm.as_deref())
        .expect("guided tuning failed");

    json_line(&group, "blind", &blind, false);
    json_line(&group, "guided", &guided, warm.is_some());
    eprintln!(
        "bench {group:<44} blind {:>3} meas ({:.3} ms) vs guided {:>3} meas ({:.3} ms, {} pruned-saved)",
        blind.explored,
        blind.winner().sample.time_ms,
        guided.explored,
        guided.winner().sample.time_ms,
        guided.saved(),
    );
}

fn main() {
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    let f = filter.as_deref();
    // One road and one social family per architecture; the donor is the
    // probe's same-family neighbour, never the probe itself.
    for target in Target::ALL {
        bench_cell(
            f,
            target,
            Algorithm::Bfs,
            Dataset::RoadCentral,
            Dataset::RoadNetCa,
        );
        bench_cell(
            f,
            target,
            Algorithm::Sssp,
            Dataset::RoadCentral,
            Dataset::RoadNetCa,
        );
        bench_cell(
            f,
            target,
            Algorithm::PageRank,
            Dataset::LiveJournal,
            Dataset::Pokec,
        );
    }
}
