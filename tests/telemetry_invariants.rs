//! Telemetry invariants, cross-layer:
//!
//! 1. Per-component attributions sum to each backend's reported total
//!    *exactly* (the simulators account every cycle; the CPU backend
//!    accounts every nanosecond of `main`).
//! 2. Registry counters are monotonic across iterations.
//! 3. With `UGC_TELEMETRY=0` the registry stays empty and algorithm
//!    results are unaffected (CI runs this binary under both settings).
//! 4. Snapshots of the deterministic simulators are byte-stable across
//!    two identical seeded runs.
//! 5. The attribution a run returns matches the registry's delta over the
//!    same run, label for label.
//! 6. `cpu.direction_switches` counts push/pull flips within one run, never
//!    across runs.
//!
//! Registry deltas are only exact while no other thread is mid-
//! measurement, so every measuring test in this binary serializes on
//! [`measure_lock`].

use std::sync::{Mutex, MutexGuard, OnceLock};

use ugc::{Algorithm, Target};
use ugc_backend_cpu::{CpuGraphVm, CpuSchedule};
use ugc_bench::profile::{attribution_from, component_keys, counter_prefix};
use ugc_bench::{baseline_schedule, try_measure};
use ugc_graph::{Dataset, Graph, Scale};
use ugc_integration::{compile, externs_for};
use ugc_runtime::GraphVm;
use ugc_schedule::{SchedDirection, ScheduleRef};
use ugc_telemetry::Collector;

fn measure_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    // A poisoned lock only means another test failed; the registry is
    // still usable.
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

fn workload_graph() -> Graph {
    Dataset::Pokec.generate(Scale::Tiny)
}

fn run_workload(target: Target, algo: Algorithm, graph: &Graph) {
    try_measure(target, algo, graph, baseline_schedule(target, algo), 1)
        .unwrap_or_else(|e| panic!("{}/{}: {e}", target.name(), algo.name()));
}

#[test]
fn attribution_components_sum_to_each_backends_total() {
    let _guard = measure_lock();
    let graph = workload_graph();
    for target in Target::ALL {
        let col = Collector::start();
        // The mix spans every operator family: push/pull traversals (BFS,
        // SSSP), dense sweeps (PR), neighbor intersection (TC), active-set
        // peeling via vertex filters (k-core), and min-reduction label
        // exchange (LP) — so attribution must balance for all of them.
        for algo in [
            Algorithm::PageRank,
            Algorithm::Bfs,
            Algorithm::Sssp,
            Algorithm::Tc,
            Algorithm::KCore,
            Algorithm::Lp,
        ] {
            run_workload(target, algo, &graph);
        }
        let attr = attribution_from(target, &col.snapshot());
        if ugc_telemetry::enabled() {
            assert!(attr.total > 0, "{}: nothing attributed", target.name());
            assert_eq!(
                attr.component_sum(),
                attr.total,
                "{}: components {:?} do not sum to total {}",
                target.name(),
                attr.components,
                attr.total
            );
        } else {
            assert_eq!(attr.total, 0);
            assert_eq!(attr.component_sum(), 0);
        }
    }
}

#[test]
fn run_attribution_matches_the_registry_delta() {
    let _guard = measure_lock();
    let graph = workload_graph();
    for target in Target::ALL {
        let algo = Algorithm::Bfs;
        let col = Collector::start();
        let run = try_measure(target, algo, &graph, baseline_schedule(target, algo), 1)
            .unwrap_or_else(|e| panic!("{}: {e}", target.name()));
        let record = run.attribution;
        let keyed: Vec<_> = component_keys(target).iter().map(|&(l, _)| l).collect();
        let recorded: Vec<_> = record.components.iter().map(|&(l, _)| l).collect();
        assert_eq!(
            keyed,
            recorded,
            "{}: component labels drifted",
            target.name()
        );
        assert_eq!(record.target, target);
        if ugc_telemetry::enabled() {
            assert_eq!(attribution_from(target, &col.snapshot()), record);
        } else if target != Target::Cpu {
            // The simulators account every cycle with telemetry off too.
            assert!(record.total > 0, "{}: empty attribution", target.name());
        }
    }
}

#[test]
fn counters_are_monotonic_across_iterations() {
    let _guard = measure_lock();
    let graph = workload_graph();
    let mut previous = ugc_telemetry::snapshot();
    for _ in 0..3 {
        for target in Target::ALL {
            run_workload(target, Algorithm::Bfs, &graph);
        }
        let current = ugc_telemetry::snapshot();
        for (name, value) in previous.entries() {
            let now = current.value(name);
            assert!(
                now >= *value,
                "counter `{name}` went backwards: {value} -> {now}"
            );
        }
        previous = current;
    }
}

#[test]
fn disabled_telemetry_keeps_registry_empty_and_results_intact() {
    let _guard = measure_lock();
    let graph = workload_graph();
    // The run must produce correct results in either mode...
    let mut c = ugc::Compiler::new(Algorithm::Bfs);
    c.start_vertex(0);
    let run = c.run(Target::Cpu, &graph).expect("runs");
    ugc_algorithms::validate::check_bfs_parents(&graph, 0, run.property_ints("parent"))
        .expect("valid BFS tree regardless of telemetry mode");
    // ...and with UGC_TELEMETRY=0 nothing may ever have been registered.
    if !ugc_telemetry::enabled() {
        assert!(
            ugc_telemetry::Registry::global().is_empty(),
            "disabled telemetry must register no counters"
        );
        assert!(ugc_telemetry::snapshot().is_empty());
    }
}

/// Serving accounting invariant: every query the admission gate accepts
/// settles as exactly one of served (`ok`), errored, or shed — so
/// `serve.ok + serve.errored + serve.shed.* == serve.admitted`, both on
/// the wire `stats` line and (when telemetry is on) in the registry
/// delta. The traffic mix deliberately spans all the ledger's columns:
/// clean queries, permanent errors (which also trip a circuit, adding
/// `err circuit_open` rejections to `errored`), and tight deadlines.
#[test]
fn serve_accounting_balances_served_plus_errored_plus_shed() {
    use std::io::{BufRead, BufReader, Write};

    let _guard = measure_lock();
    let col = Collector::start();
    let handle = ugc_serve::Server::start(ugc_serve::ServeConfig {
        bind: ugc_serve::Bind::Tcp(0),
        admit: 1,
        queue_cap: 32,
        ..ugc_serve::ServeConfig::default()
    })
    .expect("server starts");
    let addr = match handle.addr() {
        ugc_serve::ServeAddr::Tcp(a) => *a,
        other => panic!("expected TCP, bound {other}"),
    };
    let ask = |line: &str| -> String {
        let mut s = std::net::TcpStream::connect(addr).expect("connect");
        s.write_all(format!("{line}\n").as_bytes()).expect("send");
        let mut reply = String::new();
        BufReader::new(s).read_line(&mut reply).expect("reply");
        reply.trim_end().to_string()
    };

    for q in [
        "query bfs RN source=0",
        "query sssp RN source=1",
        "query bfs RN source=0 deadline_ms=30000", // generous: executes
        "query bfs PK source=999999999",           // err permanent ×4 →
        "query bfs PK source=999999999",           //   the circuit opens,
        "query bfs PK source=999999999",           //   so the last one is
        "query bfs PK source=999999999",           //   err circuit_open
        "query cc RN",
    ] {
        let reply = ask(q);
        assert!(
            reply.starts_with("ok ") || reply.starts_with("err "),
            "`{q}` got an untyped reply: {reply}"
        );
    }

    let stats = ask("stats");
    let get = |key: &str| -> u64 {
        stats
            .split_whitespace()
            .find_map(|w| w.strip_prefix(&format!("{key}=")[..]))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no `{key}=` in stats: {stats}"))
    };
    let settled = get("ok")
        + get("errored")
        + get("shed_deadline")
        + get("shed_overload")
        + get("shed_drain");
    assert_eq!(settled, get("admitted"), "wire stats imbalance: {stats}");
    assert!(
        get("errored") >= 4,
        "permanent errors must be in the ledger: {stats}"
    );
    // The gate's linger decisions: a query can only join a pop that
    // waited, and only a batchable pop waits. The seven BFS/SSSP queries
    // above arrived one at a time, so each was its own batchable batch —
    // and only the fresh gate's first one found the window still armed.
    let (lingers, linger_joined) = (get("lingers"), get("linger_joined"));
    assert!(
        linger_joined <= lingers && lingers <= 7,
        "linger ledger out of order: {stats}"
    );
    assert_eq!((lingers, linger_joined), (1, 0), "linger rule: {stats}");

    ask("shutdown");
    handle.join();

    if ugc_telemetry::enabled() {
        let snap = col.snapshot();
        let sum = |keys: &[&str]| -> u64 { keys.iter().map(|k| snap.get(k).unwrap_or(0)).sum() };
        assert_eq!(
            sum(&[
                "serve.ok",
                "serve.errored",
                "serve.shed.deadline",
                "serve.shed.overload",
                "serve.shed.drain",
            ]),
            sum(&["serve.admitted"]),
            "registry delta imbalance: {snap:?}"
        );
        assert!(
            sum(&["serve.admitted"]) > 0,
            "the soak admitted nothing — the invariant was vacuous"
        );
        assert_eq!(
            (
                sum(&["serve.gate.lingers"]),
                sum(&["serve.gate.linger_joined"])
            ),
            (lingers, linger_joined),
            "registry and wire disagree on the linger ledger: {snap:?}"
        );
    }
}

#[test]
fn direction_switches_do_not_carry_across_runs() {
    let _guard = measure_lock();
    let graph = workload_graph();
    let col = Collector::start();
    for direction in [SchedDirection::Pull, SchedDirection::Push] {
        let sched = ScheduleRef::simple(CpuSchedule::new().with_direction(direction));
        CpuGraphVm::with_threads(2)
            .execute(
                compile(Algorithm::Bfs, Some(sched)),
                &graph,
                &externs_for(Algorithm::Bfs, 0),
            )
            .expect("bfs runs");
    }
    assert_eq!(col.snapshot().value("cpu.direction_switches"), 0);
}

#[test]
fn simulator_snapshots_are_byte_stable_across_identical_runs() {
    let _guard = measure_lock();
    let graph = workload_graph();
    // Wall-clock counters (cpu.*, pool.*, frontend/midend spans) are
    // legitimately noisy; the simulators are deterministic and their
    // snapshots must match byte-for-byte between identical seeded runs.
    let sim_targets = [Target::Gpu, Target::Swarm, Target::HammerBlade];
    let mut passes = Vec::new();
    for _ in 0..2 {
        let mut lines = String::new();
        for target in sim_targets {
            let col = Collector::start();
            run_workload(target, Algorithm::Sssp, &graph);
            run_workload(target, Algorithm::Cc, &graph);
            lines.push_str(&col.snapshot_prefix(counter_prefix(target)).to_json_lines());
        }
        passes.push(lines);
    }
    assert_eq!(
        passes[0], passes[1],
        "simulator telemetry must be byte-stable across identical runs"
    );
    if ugc_telemetry::enabled() {
        assert!(!passes[0].is_empty());
        assert!(passes[0].lines().all(|l| l.starts_with("{\"counter\":\"")));
    } else {
        assert!(passes[0].is_empty());
    }
}
