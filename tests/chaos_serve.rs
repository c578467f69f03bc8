//! Daemon chaos suite: `ugc-serve` under hostile clients, injected
//! faults, shutdown races, and memory pressure.
//!
//! The contract under test, end to end over live sockets:
//!
//! 1. **No wedge, no panic** — fuzzed protocol bytes (oversize lines,
//!    interior NULs, truncated frames, seeded garbage) always end in a
//!    typed `err` reply or a clean close, and the daemon keeps serving.
//! 2. **Hostile clients are bounded** — a client that stalls mid-frame or
//!    vanishes without reading its reply costs one read-timeout, not a
//!    handler thread forever.
//! 3. **Chaos-correct answers** — with `serve:batch_abort` faults
//!    injected, every query is either reference-equal `ok` or a typed
//!    `err`; never a silent wrong answer, and the books still balance.
//! 4. **Graceful drain** — shutdown under load answers every admitted
//!    query (executed or `err draining`), is idempotent, and terminates.
//! 5. **Bounded cache** — resident graph bytes never exceed
//!    `UGC_CACHE_BYTES`; pressure evicts idle graphs, and a graph that
//!    can never fit sheds `err overloaded` instead of building.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use ugc_graph::{Dataset, Scale};
use ugc_resilience::fault;
use ugc_serve::{Bind, ServeConfig, Server, ServerHandle, MAX_LINE_BYTES};

fn start_server(config: ServeConfig) -> (ServerHandle, std::net::SocketAddr) {
    let handle = Server::start(config).expect("server starts");
    let addr = match handle.addr() {
        ugc_serve::ServeAddr::Tcp(a) => *a,
        other => panic!("expected a TCP server, bound {other}"),
    };
    (handle, addr)
}

/// One request → one reply line over a fresh connection. The request is
/// one buffer and one write, so no segment waits on a delayed ACK.
fn roundtrip(addr: std::net::SocketAddr, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("send");
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

fn stat(reply: &str, key: &str) -> u64 {
    field(reply, key).parse().unwrap_or_else(|_| {
        panic!("`{key}` is not a number in reply: {reply}");
    })
}

/// `ok + errored + shed = admitted`: nothing admitted is ever dropped on
/// the floor, and nothing is double-counted.
fn assert_books_balance(stats: &str) {
    let admitted = stat(stats, "admitted");
    let settled = stat(stats, "ok")
        + stat(stats, "errored")
        + stat(stats, "shed_deadline")
        + stat(stats, "shed_overload")
        + stat(stats, "shed_drain");
    assert_eq!(
        settled, admitted,
        "accounting imbalance (ok+errored+shed != admitted): {stats}"
    );
}

// ---------------------------------------------------------------------------
// 1. Fuzzed protocol frames.
// ---------------------------------------------------------------------------

/// Deterministic byte soup; newline-free so each case is one frame.
fn garbage(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed;
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let b = (state >> 33) as u8;
        if b != b'\n' {
            out.push(b);
        }
    }
    out
}

/// Writes raw frames, half-closes, and collects every reply line until
/// the server closes. A hang here fails via the read timeout. The server
/// is allowed to hang up on a hostile frame before we finish sending, so
/// write-side errors that mean "peer already closed" are tolerated — the
/// reply loop below still proves the close was clean.
fn hostile_conn(addr: std::net::SocketAddr, frames: &[&[u8]]) -> Vec<String> {
    use std::io::ErrorKind;
    let peer_closed = |e: &std::io::Error| {
        matches!(
            e.kind(),
            ErrorKind::BrokenPipe | ErrorKind::ConnectionReset | ErrorKind::NotConnected
        )
    };
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    for f in frames {
        if let Err(e) = s.write_all(f) {
            assert!(peer_closed(&e), "write frame: {e}");
            break;
        }
    }
    if let Err(e) = s.flush() {
        assert!(peer_closed(&e), "flush: {e}");
    }
    if let Err(e) = s.shutdown(std::net::Shutdown::Write) {
        assert!(peer_closed(&e), "half-close: {e}");
    }
    let mut reader = BufReader::new(s);
    let mut replies = Vec::new();
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => replies.push(line.trim_end().to_string()),
            Err(e) => panic!("hostile connection hung instead of closing: {e}"),
        }
    }
    replies
}

#[test]
fn fuzzed_frames_always_err_or_close_and_never_wedge() {
    let (handle, addr) = start_server(ServeConfig {
        bind: Bind::Tcp(0),
        ..ServeConfig::default()
    });

    let oversize = vec![b'x'; MAX_LINE_BYTES + 7];
    let mut cases: Vec<(String, Vec<Vec<u8>>)> = vec![
        ("oversize line".into(), vec![oversize, b"\n".to_vec()]),
        ("interior NUL".into(), vec![b"query bfs\0RN\n".to_vec()]),
        (
            "NUL then valid stats on the same connection".into(),
            vec![b"que\0ry\n".to_vec(), b"stats\n".to_vec()],
        ),
        ("truncated frame".into(), vec![b"query bf".to_vec()]),
        ("empty line".into(), vec![b"\n".to_vec()]),
        ("bare CR".into(), vec![b"\r\n".to_vec()]),
    ];
    for seed in 0..8u64 {
        let mut frame = garbage(0x5EED_0000 + seed, 64 + (seed as usize) * 37);
        frame.push(b'\n');
        cases.push((format!("seeded garbage #{seed}"), vec![frame]));
    }

    for (name, frames) in &cases {
        let borrowed: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        let replies = hostile_conn(addr, &borrowed);
        for (i, reply) in replies.iter().enumerate() {
            let ok = reply.starts_with("err")
                // The one deliberately valid follow-up frame proves a NUL
                // reply does not poison its connection.
                || (name.contains("valid stats") && i == 1 && reply.starts_with("ok stats"));
            assert!(
                ok,
                "fuzz `{name}` reply {i} is neither typed err nor the expected ok: {reply}"
            );
        }
        if name.contains("valid stats") {
            assert_eq!(
                replies.len(),
                2,
                "fuzz `{name}` must get both replies: {replies:?}"
            );
        }
    }

    // The daemon must still be fully alive afterwards.
    let reply = roundtrip(addr, "query bfs RN source=0");
    assert!(
        reply.starts_with("ok "),
        "daemon wedged after fuzzing: {reply}"
    );
    let stats = roundtrip(addr, "stats");
    assert_books_balance(&stats);

    assert_eq!(roundtrip(addr, "shutdown"), "ok shutdown");
    handle.join();
}

// ---------------------------------------------------------------------------
// 2. Stalling and vanishing clients.
// ---------------------------------------------------------------------------

#[test]
fn stalled_and_vanishing_clients_cost_a_timeout_not_a_thread() {
    let (handle, addr) = start_server(ServeConfig {
        bind: Bind::Tcp(0),
        read_timeout: Some(Duration::from_millis(150)),
        ..ServeConfig::default()
    });

    // A client that connects and never sends a byte: the daemon must hang
    // up on it (EOF from the client's side) within the read timeout.
    let mut silent = TcpStream::connect(addr).expect("connect");
    silent
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut sink = Vec::new();
    match silent.read_to_end(&mut sink) {
        Ok(0) => {}
        Ok(n) => panic!("daemon sent {n} unsolicited bytes to a silent client"),
        Err(e) => panic!("daemon held a silent client past its read timeout: {e}"),
    }

    // A client that stalls mid-frame is the same story.
    let mut staller = TcpStream::connect(addr).expect("connect");
    staller.write_all(b"query bfs R").expect("partial frame");
    staller.flush().expect("flush");
    staller
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut sink = Vec::new();
    assert!(
        matches!(staller.read_to_end(&mut sink), Ok(0)),
        "daemon held a mid-frame staller past its read timeout"
    );

    // A client that fires a query and vanishes without reading the reply:
    // the daemon's failed write must close quietly, not panic.
    for _ in 0..3 {
        let mut ghost = TcpStream::connect(addr).expect("connect");
        ghost.write_all(b"query bfs RN source=0\n").expect("send");
        drop(ghost);
    }

    // After all of the above the daemon still answers promptly.
    let reply = roundtrip(addr, "query bfs RN source=0");
    assert!(
        reply.starts_with("ok "),
        "daemon wedged by hostile clients: {reply}"
    );
    assert_books_balance(&roundtrip(addr, "stats"));

    assert_eq!(roundtrip(addr, "shutdown"), "ok shutdown");
    handle.join();
}

// ---------------------------------------------------------------------------
// 3. Chaos soak: injected batch aborts.
// ---------------------------------------------------------------------------

/// The injector is process-global: tests that arm it must not overlap.
fn injector_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn chaos_soak_under_injected_batch_aborts_is_reference_equal_or_typed_err() {
    const CLIENTS: usize = 4;
    const QUERIES: usize = 6;
    let _injector = injector_lock();

    let (handle, addr) = start_server(ServeConfig {
        bind: Bind::Tcp(0),
        admit: 2,
        batch_max: 8,
        batch_window: Duration::from_millis(2),
        ..ServeConfig::default()
    });

    // Reference answers before any fault is armed.
    let requests = [
        "query bfs RN source=0",
        "query bfs RN source=3",
        "query sssp RN source=0",
        "query sssp PK source=1",
    ];
    let mut reference = std::collections::HashMap::new();
    for req in requests {
        let reply = roundtrip(addr, req);
        assert!(
            reply.starts_with("ok "),
            "reference `{req}` failed: {reply}"
        );
        reference.insert(req, field(&reply, "checksum").to_string());
    }
    let reference = Arc::new(reference);

    // Arm the injector: most batch attempts abort, so the soak exercises
    // retry, re-roll, and degrade-to-singles on every worker.
    fault::install(
        fault::parse_faults("serve:batch_abort:p=0.7:seed=11").expect("valid fault spec"),
    );

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
                    if reply.starts_with("ok ") {
                        assert_eq!(
                            field(&reply, "checksum"),
                            reference[req],
                            "client {c} query {q} `{req}`: SILENT WRONG ANSWER under chaos"
                        );
                    } else {
                        assert!(
                            reply.starts_with("err "),
                            "client {c} query {q} `{req}`: untyped reply: {reply}"
                        );
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("chaos soak client");
    }
    fault::clear();

    let stats = roundtrip(addr, "stats");
    assert_books_balance(&stats);

    assert_eq!(roundtrip(addr, "shutdown"), "ok shutdown");
    handle.join();
}

/// A traversal whose every attempt aborts degrades to the supervised CPU
/// run under the *default* schedule — and that run still answers.
#[test]
fn degraded_traversals_run_supervised_under_the_default_schedule() {
    let _injector = injector_lock();
    let (handle, addr) = start_server(ServeConfig {
        bind: Bind::Tcp(0),
        ..ServeConfig::default()
    });
    let healthy_bfs = roundtrip(addr, "query bfs RN source=0");
    let healthy_sssp = roundtrip(addr, "query sssp RN source=0");
    for reply in [&healthy_bfs, &healthy_sssp] {
        assert!(reply.starts_with("ok "), "healthy query failed: {reply}");
        assert!(
            reply.contains(" rounds="),
            "not the traversal path: {reply}"
        );
    }

    fault::install(fault::parse_faults("serve:batch_abort:p=1:seed=3").expect("valid fault spec"));
    let bfs = roundtrip(addr, "query bfs RN source=0");
    let sssp = roundtrip(addr, "query sssp RN source=0");
    fault::clear();

    for reply in [&bfs, &sssp] {
        assert!(reply.starts_with("ok "), "degraded query failed: {reply}");
        assert!(
            reply.contains(" attempts="),
            "not the supervised path: {reply}"
        );
        assert_eq!(field(reply, "n"), field(&healthy_bfs, "n"));
    }
    // Distances are unique, so the supervised answer must equal the
    // traversal's (BFS reports a parent tree there, levels here).
    assert_eq!(field(&sssp, "checksum"), field(&healthy_sssp, "checksum"));
    let stats = roundtrip(addr, "stats");
    assert_books_balance(&stats);

    assert_eq!(roundtrip(addr, "shutdown"), "ok shutdown");
    handle.join();
}

// ---------------------------------------------------------------------------
// 4. Graceful drain under load.
// ---------------------------------------------------------------------------

#[test]
fn drain_under_load_settles_every_admitted_query_and_terminates() {
    const CLIENTS: usize = 12;

    let (handle, addr) = start_server(ServeConfig {
        bind: Bind::Tcp(0),
        admit: 1,
        queue_cap: 16,
        batch_max: 4,
        batch_window: Duration::from_millis(2),
        drain: Duration::from_millis(300),
        read_timeout: Some(Duration::from_secs(5)),
        ..ServeConfig::default()
    });

    // Warm the cache so in-drain queries don't each pay a graph build.
    let warm = roundtrip(addr, "query bfs RN source=0");
    assert!(warm.starts_with("ok "), "warmup failed: {warm}");

    let barrier = Arc::new(Barrier::new(CLIENTS + 1));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || -> Result<String, String> {
                let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
                barrier.wait();
                s.write_all(format!("query bfs RN source={}\n", c % 4).as_bytes())
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
    // Let some queries land in the gate, then pull the plug — twice, to
    // prove shutdown is idempotent.
    std::thread::sleep(Duration::from_millis(10));
    handle.shutdown();
    handle.shutdown();

    for (c, t) in clients.into_iter().enumerate() {
        match t.join().expect("drain client thread") {
            // Every connection the daemon accepted must settle with a
            // typed reply: executed, shed, or refused — never dropped.
            Ok(reply) => assert!(
                reply.starts_with("ok ") || reply.starts_with("err "),
                "client {c}: untyped reply during drain: {reply}"
            ),
            // A connection the daemon never accepted (listener already
            // closed) may die at the transport layer; that is a clean
            // refusal, not a dropped admitted query.
            Err(e) => assert!(
                e.starts_with("connect:") || e.contains("closed without a reply"),
                "client {c}: unexpected transport failure: {e}"
            ),
        }
    }

    // With every client answered, no new admissions are possible; the
    // workers must settle each admitted query (executed or shed) within
    // the drain window — poll briefly, then the books must balance.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let c = handle.counters();
        let settled = c.ok.get()
            + c.errored.get()
            + c.shed_deadline.get()
            + c.shed_overload.get()
            + c.shed_drain.get();
        if settled == c.admitted.get() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "drain dropped admitted queries: ok {} errored {} shed {}/{}/{} admitted {}",
            c.ok.get(),
            c.errored.get(),
            c.shed_deadline.get(),
            c.shed_overload.get(),
            c.shed_drain.get(),
            c.admitted.get()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // join() terminating at all is the drain-deadline guarantee.
    handle.join();
}

// ---------------------------------------------------------------------------
// 5. Bounded cache under pressure.
// ---------------------------------------------------------------------------

#[test]
fn cache_pressure_evicts_within_cap_and_never_exceeds_it() {
    // Size the cap from the real graphs: room for the larger of the two,
    // but never both at once.
    let rn = Dataset::RoadNetCa.generate(Scale::Tiny).resident_bytes();
    let pk = Dataset::Pokec.generate(Scale::Tiny).resident_bytes();
    let cap = rn.max(pk) + rn.min(pk) / 2;

    let (handle, addr) = start_server(ServeConfig {
        bind: Bind::Tcp(0),
        admit: 1, // one worker → pins are always released between batches
        cache_bytes: Some(cap),
        ..ServeConfig::default()
    });

    let check = |req: &str| {
        let reply = roundtrip(addr, req);
        assert!(
            reply.starts_with("ok "),
            "`{req}` failed under the cap: {reply}"
        );
        let stats = roundtrip(addr, "stats");
        let resident = stat(&stats, "cache_resident_bytes");
        assert!(
            resident <= cap as u64,
            "resident bytes {resident} exceed the cap {cap}: {stats}"
        );
        stats
    };

    check("query bfs RN source=0");
    // PK does not fit next to RN: the idle RN graph must be evicted.
    let stats = check("query bfs PK source=0");
    assert_eq!(
        stat(&stats, "cache_evictions"),
        1,
        "PK must evict RN: {stats}"
    );
    // Touching RN again rebuilds it (and evicts PK in turn).
    let stats = check("query bfs RN source=1");
    assert_eq!(
        stat(&stats, "cache_builds"),
        3,
        "RN must rebuild after eviction: {stats}"
    );
    assert_eq!(
        stat(&stats, "cache_evictions"),
        2,
        "RN must evict PK in turn: {stats}"
    );
    assert_books_balance(&stats);

    assert_eq!(roundtrip(addr, "shutdown"), "ok shutdown");
    handle.join();
}

#[test]
fn graph_that_can_never_fit_sheds_overloaded_instead_of_building() {
    let (handle, addr) = start_server(ServeConfig {
        bind: Bind::Tcp(0),
        cache_bytes: Some(1024), // no generated graph fits in 1 KiB
        ..ServeConfig::default()
    });

    let reply = roundtrip(addr, "query bfs RN source=0");
    assert!(
        reply.starts_with("err overloaded"),
        "an unbuildable graph must shed `err overloaded`, got: {reply}"
    );
    // The daemon keeps serving protocol-level requests afterwards.
    let stats = roundtrip(addr, "stats");
    assert!(
        stat(&stats, "shed_overload") >= 1,
        "shed not counted: {stats}"
    );
    assert_eq!(
        stat(&stats, "cache_resident_bytes"),
        0,
        "nothing may be resident: {stats}"
    );
    assert_books_balance(&stats);

    assert_eq!(roundtrip(addr, "shutdown"), "ok shutdown");
    handle.join();
}
