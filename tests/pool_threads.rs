//! Thread-count invariance of the CPU GraphVM on the persistent pool:
//! for random graphs, BFS and SSSP answers are identical whether the
//! pool runs 1, 2, or 8 threads.
//!
//! SSSP distances are compared exactly (monotone min-relaxation converges
//! to shortest distances under any interleaving). BFS parent arrays are
//! race-dependent across thread counts — any same-level predecessor is a
//! valid parent — so the comparison is on the derived level of each
//! vertex (parent-chain depth), which every valid BFS tree agrees on.

use ugc_algorithms::Algorithm;
use ugc_backend_cpu::{CpuGraphVm, CpuSchedule};
use ugc_graph::{EdgeList, Graph};
use ugc_integration::{compile, externs_for};
use ugc_schedule::{Parallelization, ScheduleRef};
use ugc_testkit::{check, Config, Prng};

type RawGraph = (usize, Vec<(u32, u32, i32)>);

fn gen_raw(rng: &mut Prng) -> RawGraph {
    // Sizes reach well past the executor chunk hints (64/128 vertices,
    // 2048 edges per degree chunk) so frontiers really split across
    // multiple pool participants; the low end still covers tiny graphs.
    let n = rng.gen_range(4..320usize);
    let len = rng.gen_range(1..4096usize);
    let edges = (0..len)
        .map(|_| {
            (
                rng.gen_range(0..n as u32),
                rng.gen_range(0..n as u32),
                rng.gen_range(1i32..32),
            )
        })
        .collect();
    (n, edges)
}

fn build(raw: &RawGraph) -> Graph {
    let (n, edges) = raw;
    let mut el = EdgeList::new(*n);
    for &(s, d, w) in edges {
        el.push_weighted(s, d, w);
    }
    el.symmetrize();
    el.dedup_and_strip_loops();
    el.into_graph()
}

/// Depth of each vertex's parent chain: the BFS level, which is identical
/// for every valid BFS tree of the same graph. `-1` stays unreachable.
fn levels_from_parents(parents: &[i64], start: u32) -> Vec<i64> {
    let n = parents.len();
    parents
        .iter()
        .enumerate()
        .map(|(v, &p)| {
            if p == -1 {
                return -1;
            }
            let mut cur = v as u32;
            let mut depth = 0i64;
            while cur != start {
                let pv = parents[cur as usize];
                assert!(pv >= 0, "vertex {v}: broken parent chain at {cur}");
                cur = pv as u32;
                depth += 1;
                assert!(depth <= n as i64, "vertex {v}: parent cycle");
            }
            depth
        })
        .collect()
}

/// Runs `algo` once per thread count and returns the named property.
fn runs_for_threads(
    algo: Algorithm,
    sched: ScheduleRef,
    graph: &Graph,
    prop: &str,
) -> Vec<Vec<i64>> {
    [1usize, 2, 8]
        .iter()
        .map(|&t| {
            let prog = compile(algo, Some(sched.clone()));
            let vm = CpuGraphVm::with_threads(t);
            let run = vm
                .execute(prog, graph, &externs_for(algo, 0))
                .unwrap_or_else(|e| panic!("{} with {t} threads: {e}", algo.name()));
            run.property_ints(prop)
        })
        .collect()
}

/// Schedules that actually engage the parallel paths on small graphs
/// (serial_threshold 0), with and without edge-aware chunking.
fn parallel_scheds() -> Vec<ScheduleRef> {
    vec![
        ScheduleRef::simple(CpuSchedule::new().with_serial_threshold(0)),
        ScheduleRef::simple(
            CpuSchedule::new()
                .with_serial_threshold(0)
                .with_parallelization(Parallelization::EdgeAwareVertexBased),
        ),
    ]
}

#[test]
fn bfs_levels_invariant_across_thread_counts() {
    check(
        "bfs_levels_invariant_across_thread_counts",
        Config::with_cases(12),
        gen_raw,
        |raw| {
            let graph = build(raw);
            for sched in parallel_scheds() {
                let runs = runs_for_threads(Algorithm::Bfs, sched, &graph, "parent");
                let levels: Vec<Vec<i64>> = runs
                    .iter()
                    .map(|parents| levels_from_parents(parents, 0))
                    .collect();
                assert_eq!(levels[0], levels[1], "1 vs 2 threads");
                assert_eq!(levels[0], levels[2], "1 vs 8 threads");
            }
        },
    );
}

#[test]
fn sssp_distances_invariant_across_thread_counts() {
    check(
        "sssp_distances_invariant_across_thread_counts",
        Config::with_cases(12),
        gen_raw,
        |raw| {
            let graph = build(raw);
            for sched in parallel_scheds() {
                let runs = runs_for_threads(Algorithm::Sssp, sched, &graph, "dist");
                assert_eq!(runs[0], runs[1], "1 vs 2 threads");
                assert_eq!(runs[0], runs[2], "1 vs 8 threads");
            }
        },
    );
}

/// The global `UGC_THREADS` cap, as the pool reads it: `None` means
/// uncapped, `Some(1)` (or 0, which the pool clamps up) means every
/// `parallel_for` in this process runs inline on the caller.
fn threads_cap() -> Option<usize> {
    std::env::var("UGC_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
}

/// Skewed work is shared: 8 participants, chunk hint 1, and the first 64
/// indices slow — a slow index waits until another participant has run a
/// chunk, so the interleaving is forced, not timed. Every index runs once,
/// at least two participants execute chunks, and the call counts at least
/// 4·8 = 32 chunks. Under `UGC_THREADS=1`, where dispatch is impossible,
/// jobs and parks are exactly zero for the whole process no matter what
/// the sibling tests in this binary did.
#[test]
fn steal_and_park_counters_consistent_under_forced_stealing() {
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
    use ugc_runtime::pool::{telemetry, PoolTelemetry};

    let total = 4096usize;
    let inline = threads_cap().is_some_and(|cap| cap <= 1);
    let hits: Vec<AtomicU32> = (0..total).map(|_| AtomicU32::new(0)).collect();
    let ran: Vec<AtomicBool> = (0..8).map(|_| AtomicBool::new(false)).collect();
    let others_ran = |tid: usize| {
        ran.iter()
            .enumerate()
            .any(|(t, r)| t != tid && r.load(Ordering::SeqCst))
    };
    let before = telemetry();
    ugc_runtime::pool::parallel_for(8, total, 1, |tid, range| {
        ran[tid].store(true, Ordering::SeqCst);
        if range.start < 64 && !inline {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            while !others_ran(tid) && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
        }
        for i in range {
            hits[i].fetch_add(1, Ordering::Relaxed);
        }
    });
    let after = telemetry();
    assert!(
        hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
        "every index must run exactly once"
    );
    if !inline {
        let participants = ran.iter().filter(|r| r.load(Ordering::SeqCst)).count();
        assert!(
            participants >= 2,
            "skewed work must reach a second participant"
        );
    }

    if !ugc_telemetry::enabled() {
        // UGC_TELEMETRY=0: every pool counter is dead by design.
        assert_eq!(after, PoolTelemetry::default());
        return;
    }
    if inline {
        // UGC_THREADS=1: inline execution only — no job was ever
        // dispatched in this process, so no worker can have parked.
        assert_eq!(after.jobs, 0, "single-thread cap must never dispatch");
        assert_eq!(after.parks, 0, "single-thread cap must never park");
        assert!(
            after.serial_runs > before.serial_runs,
            "the inline fallback must be counted"
        );
        return;
    }
    // Multi-threaded: the job dispatched and the range was cut into at
    // least eight chunks per participant (hint 1 is below
    // total / (8 · 8) = 64).
    assert!(after.jobs > before.jobs, "dispatch must be counted");
    assert!(
        after.chunks - before.chunks >= 32,
        "8 participants must count at least 32 chunks (delta {})",
        after.chunks - before.chunks
    );
    assert!(after.parks >= before.parks, "park counter went backwards");
}

/// A panicking job must close its `pool.job` telemetry span before the
/// payload is re-raised to the caller: `pool.job.calls` stays balanced
/// against `pool.jobs` no matter how the job ended. Sibling tests may
/// have jobs in flight, so the balance is polled to quiescence — a leaked
/// span never converges and times the assertion out.
#[test]
fn panicking_job_leaves_job_span_balanced() {
    // Total sits above SERIAL_DISPATCH_THRESHOLD so the call really
    // dispatches to the pool — a serial inline run would re-raise the
    // panic without ever opening a job span.
    let result = std::panic::catch_unwind(|| {
        ugc_runtime::pool::parallel_for(8, 2048, 1, |_tid, range| {
            for i in range {
                if i == 1024 {
                    panic!("injected job panic");
                }
            }
        });
    });
    assert!(result.is_err(), "the panic must propagate to the caller");
    if !ugc_telemetry::enabled() || threads_cap().is_some_and(|cap| cap <= 1) {
        // Disabled counters or inline execution: nothing to balance.
        return;
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let snap = ugc_telemetry::snapshot();
        let closes = snap.get("pool.job.calls").unwrap_or(0);
        let jobs = snap.get("pool.jobs").unwrap_or(0);
        assert!(
            closes <= jobs,
            "span closes ({closes}) exceed dispatched jobs ({jobs})"
        );
        if closes == jobs {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "pool.job span left open: {closes} closes vs {jobs} jobs"
        );
        std::thread::yield_now();
    }
}

/// Under `UGC_THREADS=1` every `parallel_for` runs inline on the caller,
/// so repeated runs and different requested thread counts all produce
/// byte-identical raw results. The comparison is on the raw parent array
/// (not derived levels): serial execution has exactly one valid
/// interleaving, so even race-dependent properties must match.
#[test]
fn inline_runs_are_byte_identical_under_thread_cap() {
    if !threads_cap().is_some_and(|cap| cap <= 1) {
        // Only meaningful when the cap forces inline execution; the
        // uncapped run of this binary exercises the parallel paths via
        // the invariance tests above.
        return;
    }
    let mut rng = Prng::new(0x5eed_c41f);
    for _ in 0..4 {
        let raw = gen_raw(&mut rng);
        let graph = build(&raw);
        for sched in parallel_scheds() {
            let mut first: Option<Vec<i64>> = None;
            for _ in 0..3 {
                for parents in runs_for_threads(Algorithm::Bfs, sched.clone(), &graph, "parent") {
                    match &first {
                        None => first = Some(parents),
                        Some(f) => {
                            assert_eq!(f, &parents, "inline runs must be byte-identical")
                        }
                    }
                }
            }
        }
    }
}

/// One participant never dispatches or parks, regardless of the
/// `UGC_THREADS` setting.
#[test]
fn one_participant_never_dispatches() {
    use ugc_runtime::pool::telemetry;

    let before = telemetry();
    let hits = std::sync::atomic::AtomicUsize::new(0);
    ugc_runtime::pool::parallel_for(1, 512, 1, |tid, range| {
        assert_eq!(tid, 0, "serial run must stay on the caller");
        hits.fetch_add(range.len(), std::sync::atomic::Ordering::Relaxed);
    });
    assert_eq!(hits.load(std::sync::atomic::Ordering::Relaxed), 512);
    let after = telemetry();
    if !ugc_telemetry::enabled() {
        return;
    }
    assert!(
        after.serial_runs > before.serial_runs,
        "one participant must take the serial path"
    );
    if threads_cap().is_some_and(|cap| cap <= 1) {
        // With the process-wide cap at 1, nothing in this binary may
        // have dispatched — the counters are exactly zero, not merely
        // stable.
        assert_eq!(after.jobs, 0);
        assert_eq!(after.parks, 0);
    }
}
