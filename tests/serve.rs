//! The `ugc-serve` daemon: batching correctness, admission behavior, and
//! protocol round-trips over a live server.
//!
//! Three guarantees:
//!
//! 1. **Batching is invisible** — a multi-source traversal answers every
//!    lane bit-identically to the per-request single-source runs, across
//!    the graph menagerie, and a live server returns the same checksum for
//!    a query whether it was coalesced into a batch or served alone.
//! 2. **Batching saves work** — a coalesced pair scans measurably fewer
//!    edges than two sequential runs of the same traversal.
//! 3. **Concurrency is safe** — N client threads × M queries all receive
//!    reference-equal answers, and the daemon shuts down cleanly.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use ugc_algorithms::multi_source::{
    bfs_levels_counted, ms_bfs_levels, ms_sssp_distances, sssp_distances_counted,
};
use ugc_integration::test_graphs;
use ugc_serve::{Bind, ServeConfig, Server, ServerHandle};

// ---------------------------------------------------------------------------
// Guarantee 1a: the multi-source engine against per-request traversals.
// ---------------------------------------------------------------------------

/// Batched BFS levels and SSSP distances are bit-equal to the per-request
/// single-source answers, lane by lane, across the whole menagerie.
#[test]
fn batched_traversals_bit_equal_per_request_across_menagerie() {
    for (gname, graph) in test_graphs() {
        let n = graph.num_vertices() as u32;
        let sources: Vec<u32> = [0u32, 1, n / 2, n - 1]
            .iter()
            .copied()
            .filter(|&s| s < n)
            .collect();
        let (batched_bfs, _) = ms_bfs_levels(&graph, &sources);
        let (batched_sssp, _) = ms_sssp_distances(&graph, &sources);
        for (lane, &src) in sources.iter().enumerate() {
            let (single_bfs, _) = bfs_levels_counted(&graph, src);
            assert_eq!(
                batched_bfs[lane], single_bfs,
                "{gname}: BFS lane for source {src} diverges from the single-source run"
            );
            let (single_sssp, _) = sssp_distances_counted(&graph, src);
            assert_eq!(
                batched_sssp[lane], single_sssp,
                "{gname}: SSSP lane for source {src} diverges from the single-source run"
            );
        }
    }
}

/// Guarantee 2: a coalesced pair never traverses more edges than the two
/// sequential runs it replaces, and strictly fewer on the well-connected
/// menagerie graphs where lanes structurally overlap in the same rounds.
/// The adversarial shapes are allowed to tie: MS-BFS only shares scans
/// when two lanes reach a vertex in the *same* round, which disjoint
/// cliques and offset path/barbell sources never do.
#[test]
fn batched_pair_does_less_work_than_two_sequential_runs() {
    let overlapping = ["two_communities", "road_16x16", "rmat_8", "uniform_200"];
    for (gname, graph) in test_graphs() {
        let n = graph.num_vertices() as u32;
        let (a, b) = (0u32, n / 2);
        let (_, batched) = ms_bfs_levels(&graph, &[a, b]);
        let (_, first) = bfs_levels_counted(&graph, a);
        let (_, second) = bfs_levels_counted(&graph, b);
        let sequential = first.edge_scans + second.edge_scans;
        if overlapping.contains(&gname) {
            assert!(
                batched.edge_scans < sequential,
                "{gname}: batched pair scanned {} edges, sequential pair {} + {}",
                batched.edge_scans,
                first.edge_scans,
                second.edge_scans
            );
        } else {
            assert!(
                batched.edge_scans <= sequential,
                "{gname}: batching must not add work ({} > {sequential})",
                batched.edge_scans
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Live-server helpers.
// ---------------------------------------------------------------------------

fn start_server(config: ServeConfig) -> (ServerHandle, std::net::SocketAddr) {
    let handle = Server::start(config).expect("server starts");
    let addr = match handle.addr() {
        ugc_serve::ServeAddr::Tcp(a) => *a,
        other => panic!("expected a TCP server, bound {other}"),
    };
    (handle, addr)
}

/// Sends one request as one buffer and one write: `writeln!` on a raw
/// socket is two segments, and the second waits on a delayed ACK.
fn send_line(stream: &mut TcpStream, line: &str) -> std::io::Result<()> {
    stream.write_all(format!("{line}\n").as_bytes())
}

/// One request → one reply line over a fresh connection.
fn roundtrip(addr: std::net::SocketAddr, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    send_line(&mut stream, line).expect("send");
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).expect("reply");
    reply.trim_end().to_string()
}

/// Extracts a `key=value` field from a reply line.
fn field<'a>(reply: &'a str, key: &str) -> &'a str {
    reply
        .split_whitespace()
        .find_map(|w| w.strip_prefix(&format!("{key}=")[..]))
        .unwrap_or_else(|| panic!("no `{key}=` field in reply: {reply}"))
}

// ---------------------------------------------------------------------------
// Guarantee 1b: a live server answers coalesced queries identically to
// sequential ones.
// ---------------------------------------------------------------------------

#[test]
fn coalesced_replies_match_sequential_replies() {
    // Reference pass on a server that cannot batch: every query is served
    // alone, whatever the arrival timing.
    let (solo, solo_addr) = start_server(ServeConfig {
        bind: Bind::Tcp(0),
        admit: 1,
        batch_max: 1,
        ..ServeConfig::default()
    });
    let sources = [0u32, 1, 2, 3];
    let mut reference = HashMap::new();
    for &s in &sources {
        let reply = roundtrip(solo_addr, &format!("query bfs RN source={s}"));
        assert!(reply.starts_with("ok "), "reference query failed: {reply}");
        assert_eq!(field(&reply, "batch"), "1", "reference ran batched");
        reference.insert(s, field(&reply, "checksum").to_string());
    }
    assert_eq!(roundtrip(solo_addr, "shutdown"), "ok shutdown");
    solo.join();

    // A fresh server lingers on its first batchable head (the gate only
    // stops waiting out the window after a fruitless one), so the burst
    // below coalesces by construction, not by arrival luck.
    let (handle, addr) = start_server(ServeConfig {
        bind: Bind::Tcp(0),
        admit: 1,
        batch_max: 8,
        batch_window: Duration::from_millis(300),
        ..ServeConfig::default()
    });

    // Concurrent pass: all four released together against a single worker,
    // so late arrivals coalesce into the first arrival's batch window.
    let barrier = Arc::new(Barrier::new(sources.len()));
    let replies: Vec<String> = sources
        .iter()
        .map(|&s| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                roundtrip(addr, &format!("query bfs RN source={s}"))
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();

    for reply in &replies {
        assert!(reply.starts_with("ok "), "concurrent query failed: {reply}");
        let s: u32 = field(reply, "source").parse().expect("source field");
        assert_eq!(
            field(reply, "checksum"),
            reference[&s],
            "source {s}: coalesced answer diverges from the sequential one"
        );
    }

    let stats = roundtrip(addr, "stats");
    assert!(stats.starts_with("ok stats"), "stats failed: {stats}");
    let coalesced: u64 = field(&stats, "coalesced").parse().expect("coalesced");
    assert!(
        coalesced > 0,
        "no queries were coalesced under a single worker: {stats}"
    );

    assert_eq!(roundtrip(addr, "shutdown"), "ok shutdown");
    handle.join();
}

// ---------------------------------------------------------------------------
// Guarantee 3: concurrent-clients soak.
// ---------------------------------------------------------------------------

#[test]
fn concurrent_clients_soak_reference_equal() {
    const CLIENTS: usize = 6;
    const QUERIES: usize = 8;

    let (handle, addr) = start_server(ServeConfig {
        bind: Bind::Tcp(0),
        admit: 2,
        queue_cap: 64,
        batch_max: 8,
        batch_window: Duration::from_millis(2),
        ..ServeConfig::default()
    });

    // The request mix: batchable traversals plus a supervised non-batchable
    // algorithm, over two datasets so the cache serves more than one graph.
    let requests = [
        "query bfs RN source=0",
        "query bfs RN source=5",
        "query sssp RN source=0",
        "query bfs PK source=1",
        "query cc RN",
    ];
    let mut reference = HashMap::new();
    for req in requests {
        let reply = roundtrip(addr, req);
        assert!(
            reply.starts_with("ok "),
            "reference `{req}` failed: {reply}"
        );
        reference.insert(req, field(&reply, "checksum").to_string());
    }
    let reference = Arc::new(reference);

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            let reference = Arc::clone(&reference);
            std::thread::spawn(move || {
                barrier.wait();
                for q in 0..QUERIES {
                    let req = requests[(c + q) % requests.len()];
                    let reply = roundtrip(addr, req);
                    assert!(
                        reply.starts_with("ok "),
                        "client {c} query {q} `{req}` failed: {reply}"
                    );
                    assert_eq!(
                        field(&reply, "checksum"),
                        reference[req],
                        "client {c} query {q} `{req}`: answer diverges from reference"
                    );
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("soak client");
    }

    let stats = roundtrip(addr, "stats");
    let queries: u64 = field(&stats, "queries").parse().expect("queries");
    let ok: u64 = field(&stats, "ok").parse().expect("ok");
    let expected = (CLIENTS * QUERIES + requests.len()) as u64;
    assert_eq!(queries, expected, "query count drifted: {stats}");
    assert_eq!(ok, expected, "some queries failed silently: {stats}");
    let errors: u64 = field(&stats, "errors").parse().expect("errors");
    assert_eq!(errors, 0, "soak produced errors: {stats}");

    assert_eq!(roundtrip(addr, "shutdown"), "ok shutdown");
    handle.join();
}

// ---------------------------------------------------------------------------
// Protocol edges over a live server.
// ---------------------------------------------------------------------------

#[test]
fn protocol_errors_and_domain_validation() {
    let (handle, addr) = start_server(ServeConfig {
        bind: Bind::Tcp(0),
        ..ServeConfig::default()
    });

    // Unknown verb, unknown algorithm, unknown dataset, malformed arg.
    for (req, kind) in [
        ("frobnicate", "err protocol"),
        ("query nosuchalgo RN", "err protocol"),
        ("query bfs NOPE", "err protocol"),
        ("query bfs RN source=banana", "err protocol"),
        ("query bfs RN scale=cosmic", "err protocol"),
    ] {
        let reply = roundtrip(addr, req);
        assert!(
            reply.starts_with(kind),
            "`{req}` must answer `{kind} …`, got: {reply}"
        );
    }

    // A source beyond the dataset's vertex count is a permanent error, not
    // a panic or a hang.
    let reply = roundtrip(addr, "query bfs RN source=999999999");
    assert!(
        reply.starts_with("err permanent"),
        "out-of-range source must be a permanent error, got: {reply}"
    );

    // Errors must not poison the next request on a fresh connection.
    let reply = roundtrip(addr, "query bfs RN source=0");
    assert!(
        reply.starts_with("ok "),
        "server wedged after errors: {reply}"
    );

    assert_eq!(roundtrip(addr, "shutdown"), "ok shutdown");
    handle.join();
}

// ---------------------------------------------------------------------------
// The expanded algorithm suite over the wire: TC / k-core / LP take the
// supervised single-query path (they are whitelist-excluded from MS-BFS
// coalescing), honor their per-algorithm arguments, and mix cleanly with
// traversals in a soak.
// ---------------------------------------------------------------------------

#[test]
fn new_algorithms_answer_supervised_and_never_coalesce() {
    // Single worker + a generous window: if TC were batchable, the
    // concurrent pass below would coalesce it. It must not.
    let (handle, addr) = start_server(ServeConfig {
        bind: Bind::Tcp(0),
        admit: 1,
        batch_max: 8,
        batch_window: Duration::from_millis(100),
        ..ServeConfig::default()
    });

    // Deterministic answers: each algorithm's checksum is stable across
    // repeat queries of the same spec.
    for req in ["query tc RN", "query kcore RN", "query lp RN"] {
        let first = roundtrip(addr, req);
        assert!(first.starts_with("ok "), "`{req}` failed: {first}");
        assert_eq!(field(&first, "batch"), "1", "`{req}` must run solo");
        let second = roundtrip(addr, req);
        assert_eq!(
            field(&first, "checksum"),
            field(&second, "checksum"),
            "`{req}` must answer identically on repeat"
        );
    }

    // Per-algorithm arguments: k= adds a membership count bounded by n;
    // max_iters= is accepted and still answers deterministically.
    let kc = roundtrip(addr, "query kcore RN k=2");
    assert!(kc.starts_with("ok "), "kcore k=2 failed: {kc}");
    let n: usize = field(&kc, "n").parse().expect("n field");
    let size: usize = field(&kc, "kcore_size").parse().expect("kcore_size");
    assert!(size <= n, "kcore_size {size} exceeds n {n}");
    let bare = roundtrip(addr, "query kcore RN");
    assert!(
        !bare.contains("kcore_size="),
        "kcore without k= must not report a membership count: {bare}"
    );
    let lp5 = roundtrip(addr, "query lp RN max_iters=5");
    assert!(lp5.starts_with("ok "), "lp max_iters=5 failed: {lp5}");
    assert_eq!(
        field(&lp5, "checksum"),
        field(&roundtrip(addr, "query lp RN max_iters=5"), "checksum"),
        "lp with an explicit iteration cap must stay deterministic"
    );

    // Concurrent identical TC queries against the single worker: every
    // reply must still be batch=1 and the coalesced counter must not move.
    let clients = 4;
    let barrier = Arc::new(Barrier::new(clients));
    let replies: Vec<String> = (0..clients)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                roundtrip(addr, "query tc RN")
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();
    for reply in &replies {
        assert!(reply.starts_with("ok "), "concurrent tc failed: {reply}");
        assert_eq!(field(reply, "batch"), "1", "tc must never coalesce");
    }
    let stats = roundtrip(addr, "stats");
    let coalesced: u64 = field(&stats, "coalesced").parse().expect("coalesced");
    assert_eq!(coalesced, 0, "non-batchable queries coalesced: {stats}");

    assert_eq!(roundtrip(addr, "shutdown"), "ok shutdown");
    handle.join();
}

/// Bad per-algorithm arguments get an `err protocol` reply on the same
/// connection — the handler must not disconnect, and the next request on
/// that very connection must succeed.
#[test]
fn bad_algorithm_arguments_err_without_disconnecting() {
    let (handle, addr) = start_server(ServeConfig {
        bind: Bind::Tcp(0),
        ..ServeConfig::default()
    });

    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut ask = |line: &str| -> String {
        send_line(&mut stream, line).expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        reply.trim_end().to_string()
    };

    for bad in [
        "query kcore RN k=0",
        "query kcore RN k=-3",
        "query lp RN max_iters=0",
        "query tc RN k=2",          // k= only applies to kcore
        "query bfs RN max_iters=5", // max_iters= only applies to lp
        "query kcoer RN",           // misspelling → suggestion, still an err
    ] {
        let reply = ask(bad);
        assert!(
            reply.starts_with("err protocol"),
            "`{bad}` must answer `err protocol …`, got: {reply}"
        );
    }
    let suggestion = ask("query kcoer RN");
    assert!(
        suggestion.contains("did you mean `kcore`?"),
        "misspelling must carry a suggestion: {suggestion}"
    );

    // Same connection, next request: still served.
    let reply = ask("query kcore RN k=2");
    assert!(reply.starts_with("ok "), "connection wedged: {reply}");

    assert_eq!(ask("shutdown"), "ok shutdown");
    handle.join();
}

/// Soak mixing the new algorithms with BFS on one cached graph: every
/// reply reference-equal, exact `stats` accounting, one cache build.
#[test]
fn mixed_algorithm_soak_on_one_cached_graph() {
    const CLIENTS: usize = 4;
    const QUERIES: usize = 6;

    let (handle, addr) = start_server(ServeConfig {
        bind: Bind::Tcp(0),
        admit: 2,
        queue_cap: 64,
        batch_max: 8,
        batch_window: Duration::from_millis(2),
        ..ServeConfig::default()
    });

    let requests = [
        "query bfs RN source=0",
        "query tc RN",
        "query kcore RN k=2",
        "query lp RN max_iters=10",
    ];
    let mut reference = HashMap::new();
    for req in requests {
        let reply = roundtrip(addr, req);
        assert!(
            reply.starts_with("ok "),
            "reference `{req}` failed: {reply}"
        );
        reference.insert(req, field(&reply, "checksum").to_string());
    }
    let reference = Arc::new(reference);

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            let reference = Arc::clone(&reference);
            std::thread::spawn(move || {
                barrier.wait();
                for q in 0..QUERIES {
                    let req = requests[(c + q) % requests.len()];
                    let reply = roundtrip(addr, req);
                    assert!(
                        reply.starts_with("ok "),
                        "client {c} query {q} `{req}` failed: {reply}"
                    );
                    assert_eq!(
                        field(&reply, "checksum"),
                        reference[req],
                        "client {c} query {q} `{req}`: answer diverges from reference"
                    );
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("soak client");
    }

    let stats = roundtrip(addr, "stats");
    let queries: u64 = field(&stats, "queries").parse().expect("queries");
    let ok: u64 = field(&stats, "ok").parse().expect("ok");
    let expected = (CLIENTS * QUERIES + requests.len()) as u64;
    assert_eq!(queries, expected, "query count drifted: {stats}");
    assert_eq!(ok, expected, "some queries failed silently: {stats}");
    let errors: u64 = field(&stats, "errors").parse().expect("errors");
    assert_eq!(errors, 0, "soak produced errors: {stats}");
    let builds: u64 = field(&stats, "cache_builds").parse().expect("builds");
    assert_eq!(builds, 1, "RN tiny must be built exactly once: {stats}");

    assert_eq!(roundtrip(addr, "shutdown"), "ok shutdown");
    handle.join();
}

// ---------------------------------------------------------------------------
// Shutdown vs. admission race (regression).
// ---------------------------------------------------------------------------

/// `Gate::close()` racing `next_batch()` and `submit()` must never drop
/// an admitted query on the floor: every query the gate accepts settles
/// as executed (`ok`), shed (`err deadline`/`err draining`), or a
/// classified error — and `shutdown` arriving at any point in the burst
/// only changes *which* of those it gets. Regression for the drain
/// redesign: the close/next_batch handoff is lock-serialized, so a batch
/// grabbed concurrently with close is executed (or drained), not lost; and
/// for the close path: connections queued at shutdown are still handed to
/// a handler, and a handler half-closes and reads its peer out before
/// closing, so no written reply is destroyed by a reset.
#[test]
fn shutdown_racing_a_query_burst_never_drops_an_admitted_query() {
    // Several rounds with different shutdown offsets to vary the
    // interleaving: before, amid, and after the burst lands in the gate.
    for (round, delay_us) in [0u64, 200, 2_000, 20_000].into_iter().enumerate() {
        const CLIENTS: usize = 8;
        let (handle, addr) = start_server(ServeConfig {
            bind: Bind::Tcp(0),
            admit: 1,
            queue_cap: 16,
            batch_max: 4,
            batch_window: Duration::from_millis(1),
            drain: Duration::from_millis(200),
            ..ServeConfig::default()
        });

        let barrier = Arc::new(Barrier::new(CLIENTS + 1));
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || -> Result<String, String> {
                    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    barrier.wait();
                    send_line(&mut s, &format!("query bfs RN source={}", c % 4))
                        .map_err(|e| format!("send: {e}"))?;
                    let mut reply = String::new();
                    BufReader::new(s)
                        .read_line(&mut reply)
                        .map_err(|e| format!("read: {e}"))?;
                    if reply.is_empty() {
                        return Err("closed without a reply".into());
                    }
                    Ok(reply.trim_end().to_string())
                })
            })
            .collect();
        barrier.wait();
        std::thread::sleep(Duration::from_micros(delay_us));
        handle.shutdown();

        // Every client is exactly one of: never accepted (it died at the
        // transport layer and the server never parsed its query), refused
        // with a typed line at the closed or full gate, or admitted — and
        // an admitted query must have been answered.
        let (mut never_accepted, mut refused, mut answered) = (0u64, 0u64, 0u64);
        for (c, t) in clients.into_iter().enumerate() {
            match t.join().expect("client thread") {
                Ok(reply)
                    if reply.starts_with("err busy")
                        || reply.starts_with("err draining: server shutting down") =>
                {
                    refused += 1
                }
                Ok(reply) => {
                    assert!(
                        reply.starts_with("ok ") || reply.starts_with("err "),
                        "round {round} client {c}: untyped reply: {reply}"
                    );
                    answered += 1;
                }
                Err(_) => never_accepted += 1,
            }
        }

        // Everything admitted must have settled exactly once.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let counters = handle.counters();
            let settled = counters.ok.get()
                + counters.errored.get()
                + counters.shed_deadline.get()
                + counters.shed_overload.get()
                + counters.shed_drain.get();
            if settled == counters.admitted.get() {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "round {round}: gate dropped admitted queries (settled {settled}, admitted {})",
                counters.admitted.get()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let counters = handle.counters();
        assert_eq!(
            answered,
            counters.admitted.get(),
            "round {round}: an admitted query lost its reply \
             (refused {refused}, never accepted {never_accepted})"
        );
        assert_eq!(
            refused,
            counters.rejected.get(),
            "round {round}: a typed refusal never reached its client"
        );
        assert_eq!(
            never_accepted,
            CLIENTS as u64 - counters.queries.get(),
            "round {round}: a parsed query's client saw a transport failure"
        );
        handle.join();
    }
}

/// A reply is one write on a no-delay socket, so a keep-alive client that
/// never set `TCP_NODELAY` itself still gets it at once. With the reply
/// split in two writes, the second waited ≈40 ms on this client's delayed
/// ACK as soon as the kernel's quick-ACK credit ran out (≈2 s for these 50).
#[test]
fn keep_alive_replies_do_not_wait_on_delayed_ack() {
    let (handle, addr) = start_server(ServeConfig {
        bind: Bind::Tcp(0),
        ..ServeConfig::default()
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let start = std::time::Instant::now();
    for _ in 0..50 {
        send_line(&mut stream, "stats").expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        assert!(reply.starts_with("ok stats"), "stats failed: {reply}");
    }
    let took = start.elapsed();
    assert!(
        took < Duration::from_millis(500),
        "50 stats round-trips on one connection took {took:?}"
    );
    handle.shutdown();
    handle.join();
}

/// Tuning jobs go only to classes that can read the winner: BFS/SSSP run
/// the multi-source engine, which takes no schedule, so their first
/// queries enqueue nothing; a first PageRank query still does, and later
/// ones run under the tuned schedule.
#[test]
fn only_schedule_taking_classes_enqueue_tuning_jobs() {
    let (handle, addr) = start_server(ServeConfig {
        bind: Bind::Tcp(0),
        ..ServeConfig::default()
    });
    for req in [
        "query bfs RN source=0",
        "query sssp RN source=0",
        "query bfs RN source=1",
    ] {
        let reply = roundtrip(addr, req);
        assert!(reply.starts_with("ok "), "`{req}` failed: {reply}");
        let stats = roundtrip(addr, "stats");
        assert_eq!(
            field(&stats, "tuned_pending"),
            "0",
            "`{req}` enqueued a tuning job nobody can read: {stats}"
        );
    }
    // The tuner waits for an idle gate, so poll: the job the first PR
    // query enqueued resolves and a later PR query hits its winner.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let reply = roundtrip(addr, "query pr RN");
        assert!(reply.starts_with("ok "), "pr failed: {reply}");
        let stats = roundtrip(addr, "stats");
        if field(&stats, "tuned_hits") != "0" {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "PageRank was never tuned: {stats}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.shutdown();
    handle.join();
}

/// One connection can issue several requests; `stats` reflects them; the
/// cache builds each dataset once.
#[test]
fn single_connection_pipelining_and_cache_reuse() {
    let (handle, addr) = start_server(ServeConfig {
        bind: Bind::Tcp(0),
        ..ServeConfig::default()
    });

    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut ask = |line: &str| -> String {
        send_line(&mut stream, line).expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        reply.trim_end().to_string()
    };

    let first = ask("query bfs RN source=0");
    let second = ask("query bfs RN source=0");
    // Timing fields differ run to run; the answer itself must not.
    assert_eq!(
        field(&first, "checksum"),
        field(&second, "checksum"),
        "same query must answer identically: {first} vs {second}"
    );
    let third = ask("query sssp RN source=0");
    assert!(third.starts_with("ok "), "sssp over same graph: {third}");

    let stats = ask("stats");
    let builds: u64 = field(&stats, "cache_builds").parse().expect("builds");
    assert_eq!(builds, 1, "RN tiny must be built exactly once: {stats}");
    let hits: u64 = field(&stats, "cache_hits").parse().expect("hits");
    assert!(hits >= 2, "repeat queries must hit the cache: {stats}");

    assert_eq!(ask("shutdown"), "ok shutdown");
    handle.join();
}
