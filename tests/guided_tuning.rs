//! Quality contract of the telemetry-guided search: attribution-based
//! pruning and fingerprint warm starts change how much *budget* a tuning
//! run spends, never the *winner's* quality beyond measurement noise.
//!
//! Two properties, both over fresh random graphs on every backend:
//!
//! * **Pruning is quality-neutral** — a cost-model-guided run and an
//!   otherwise identical blind run (same seed, budget, restarts) must end
//!   within a small noise factor of each other. Both rank the pinned
//!   baseline/hand-tuned candidates, so neither can lose to the hand-tuned
//!   schedule — the property bites on the space points the pruned run
//!   never measured.
//! * **Fingerprint transfer saves measurements** — warm-starting greedy
//!   descent from a same-family donor's winner must converge in strictly
//!   fewer measurements than the identical cold search, at equal-or-noise
//!   winner quality. Deterministic on the simulated targets (cycle-exact
//!   costs), so the strict inequality cannot flake.
//!
//! The tests of this binary tune concurrently. That is safe because each
//! measured candidate carries its own run's attribution; a third test
//! pins it down.

use ugc::{Algorithm, Target};
use ugc_autotune::TuneOutcome;
use ugc_bench::{autotune, autotune_warm, measure, Strategy, Tuner};
use ugc_graph::{Dataset, Graph, Scale};
use ugc_testkit::{check, Config, Prng};

const BUDGET: usize = 64;

fn tuner(cost_model: bool, restarts: usize, seed: u64) -> Tuner {
    Tuner {
        seed,
        budget: BUDGET,
        strategy: Strategy::GreedyDescent,
        restarts,
        cost_model,
    }
}

fn family_graph(seed: u64) -> Graph {
    ugc_graph::generators::uniform_random(96, 320, seed, true)
}

/// Noise tolerance on the winner comparison: the simulators are
/// deterministic but the graphs differ per case, and the CPU backend
/// times wall clock.
fn tolerance(target: Target) -> f64 {
    match target {
        Target::Cpu => 1.5,
        _ => 1.25,
    }
}

fn best_space_point(out: &TuneOutcome) -> Option<Vec<usize>> {
    out.ranked.iter().find_map(|r| r.point.clone())
}

/// Reps per side when CPU winners are re-measured head to head.
const CPU_REMEASURE_REPS: u32 = 9;

/// The two winners' times to compare. Simulated times are exact, so the
/// tuning runs' own samples are used. A CPU sample is one wall-clock run
/// of well under a millisecond, so two of them taken at different moments
/// can differ by more than the tolerance on noise alone, so on the CPU
/// both winners' schedules are re-measured side by side, alternating which
/// runs first, and each keeps its fastest rep.
fn winner_times(
    target: Target,
    algo: Algorithm,
    graph: &Graph,
    fast: &TuneOutcome,
    full: &TuneOutcome,
) -> (f64, f64) {
    if target != Target::Cpu {
        return (fast.winner().sample.time_ms, full.winner().sample.time_ms);
    }
    let time = |out: &TuneOutcome| {
        measure(Target::Cpu, algo, graph, out.winner().schedule.clone(), 1).time_ms
    };
    let (mut f, mut b) = (f64::INFINITY, f64::INFINITY);
    for rep in 0..CPU_REMEASURE_REPS {
        if rep % 2 == 0 {
            f = f.min(time(fast));
            b = b.min(time(full));
        } else {
            b = b.min(time(full));
            f = f.min(time(fast));
        }
    }
    (f, b)
}

fn assert_quality(
    target: Target,
    algo: Algorithm,
    graph: &Graph,
    fast: &TuneOutcome,
    full: &TuneOutcome,
) {
    let tol = tolerance(target);
    let (f, b) = winner_times(target, algo, graph, fast, full);
    assert!(
        f <= b * tol,
        "{target:?}/{}: guided winner {f} ms vs blind {b} ms exceeds {tol}x noise",
        algo.name(),
    );
}

/// Pruned and unpruned greedy descent agree on winner quality.
fn check_pruning_neutral(target: Target, cases: u32) {
    check(
        &format!("pruning_quality_neutral_{target:?}"),
        Config::with_cases(cases),
        |rng: &mut Prng| rng.gen_range(0..1_000_000u64),
        |&seed| {
            let graph = family_graph(seed);
            for algo in [Algorithm::Bfs, Algorithm::Sssp, Algorithm::PageRank] {
                let blind =
                    autotune(target, algo, &graph, &tuner(false, 2, seed)).expect("blind tune");
                let guided =
                    autotune(target, algo, &graph, &tuner(true, 2, seed)).expect("guided tune");
                assert_quality(target, algo, &graph, &guided, &blind);
                // Pruned sweeps may reroute the descent, so per-run counts
                // can go either way — but the budget cap must still hold
                // and the skipped sweeps must be accounted, not lost.
                assert!(
                    guided.explored <= BUDGET,
                    "{target:?}/{}: budget cap violated",
                    algo.name(),
                );
            }
        },
    );
}

#[test]
fn cpu_pruning_is_quality_neutral() {
    check_pruning_neutral(Target::Cpu, 2);
}

#[test]
fn gpu_pruning_is_quality_neutral() {
    check_pruning_neutral(Target::Gpu, 2);
}

#[test]
fn swarm_pruning_is_quality_neutral() {
    check_pruning_neutral(Target::Swarm, 2);
}

#[test]
fn hb_pruning_is_quality_neutral() {
    check_pruning_neutral(Target::HammerBlade, 2);
}

/// Warm-starting from a same-family donor's winner converges in strictly
/// fewer measurements than the cold search it replaces, without losing
/// winner quality. "Cold" here is the search as it runs on a cache miss
/// with no fingerprint neighbour: multiple random restarts; the warm hit
/// is what lets a run drop to a single restart. Simulated targets only:
/// cycle-exact costs make the measurement counts deterministic for a
/// fixed graph pair.
fn check_transfer(target: Target, algo: Algorithm, seed: u64) {
    let donor = family_graph(seed);
    let probe = family_graph(seed + 1);
    let donor_out = autotune(target, algo, &donor, &tuner(true, 2, seed)).expect("donor tune");
    let warm = best_space_point(&donor_out).expect("donor produced no space point");

    let cold = autotune(target, algo, &probe, &tuner(true, 2, seed)).expect("cold tune");
    let warm_out =
        autotune_warm(target, algo, &probe, &tuner(true, 1, seed), Some(&warm)).expect("warm tune");

    assert!(
        warm_out.warm_start.is_some(),
        "{target:?}/{}: warm point was rejected",
        algo.name()
    );
    assert!(
        warm_out.explored < cold.explored,
        "{target:?}/{}: warm start did not save measurements ({} vs {})",
        algo.name(),
        warm_out.explored,
        cold.explored,
    );
    assert_quality(target, algo, &probe, &warm_out, &cold);
}

#[test]
fn gpu_fingerprint_transfer_saves_measurements() {
    check_transfer(Target::Gpu, Algorithm::Bfs, 11);
}

#[test]
fn swarm_fingerprint_transfer_saves_measurements() {
    check_transfer(Target::Swarm, Algorithm::Sssp, 23);
}

#[test]
fn hb_fingerprint_transfer_saves_measurements() {
    check_transfer(Target::HammerBlade, Algorithm::PageRank, 37);
}

/// Tunings running at once prune exactly like the same tunings run one
/// after another: each search ranks and prunes on its own runs'
/// attributions, which another search in flight cannot touch. Two Swarm
/// SSSP tunings race each other and a GPU BFS tuning; the pruned axes,
/// the measured budget and the winner must all match the sequential runs.
#[test]
fn concurrent_tunings_prune_like_sequential_ones() {
    let graph = Dataset::Pokec.generate(Scale::Tiny);
    let t = Tuner {
        seed: 7,
        budget: 24,
        strategy: Strategy::GreedyDescent,
        restarts: 1,
        cost_model: true,
    };
    let triples = [
        (Target::Swarm, Algorithm::Sssp),
        (Target::Swarm, Algorithm::Sssp),
        (Target::Gpu, Algorithm::Bfs),
    ];
    let tune = |(target, algo): (Target, Algorithm)| {
        let out = autotune(target, algo, &graph, &t).expect("tune");
        (out.pruned.clone(), out.explored, out.winner().name.clone())
    };
    let sequential: Vec<_> = triples.into_iter().map(tune).collect();
    assert!(
        !sequential[0].0.is_empty(),
        "the Swarm SSSP tuning must prune, or this test proves nothing"
    );
    // All three start together, so their measurements overlap.
    let start = std::sync::Barrier::new(triples.len());
    let concurrent: Vec<_> = std::thread::scope(|s| {
        let runs: Vec<_> = triples
            .map(|triple| {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    tune(triple)
                })
            })
            .into();
        runs.into_iter()
            .map(|run| run.join().expect("tuning thread"))
            .collect()
    });
    assert_eq!(concurrent, sequential);
}
