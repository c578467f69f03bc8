//! The child process of `serve-mix`: an in-process `ugc_serve::Server` on
//! TCP loopback and two closed-loop clients, one connection each (one per
//! core of the sandbox, no more), a point-query stream beside an analytics
//! stream.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use ugc::{Algorithm, Target};
use ugc_algorithms::reference;
use ugc_serve::{ServeAddr, ServeConfig, Server};
use ugc_telemetry::Collector;

use crate::check;
use crate::spec::{Class, Stream, Workload};
use crate::stats::Rng;
use crate::trace::{self, Trace};
use crate::{emit, graphs, ChildOpts};

/// Start vertices drawn per class that takes one.
const SOURCES_PER_CLASS: usize = 4;

/// A class with its seeded inputs and what a right answer looks like.
#[derive(Clone)]
struct Prepared {
    class: Class,
    vertices: usize,
    edges: f64,
    sources: Vec<u32>,
    /// Reference checksum per source (BFS levels, SSSP distances) or one
    /// for the whole graph (CC labels); empty where the reply's checksum
    /// is not unique (float sums, label names).
    checksums: Vec<u64>,
}

impl Prepared {
    fn request(&self, pick: usize) -> String {
        let c = &self.class;
        let mut line = format!(
            "query {} {} scale={}",
            c.algo.name().to_ascii_lowercase(),
            c.dataset.abbrev(),
            c.scale.name()
        );
        if c.algo.needs_start_vertex() {
            line.push_str(&format!(" source={}", self.sources[pick]));
        }
        line.push('\n');
        line
    }

    /// Checks a reply; returns the `ms=` the daemon reports for the
    /// execution.
    fn check(&self, pick: usize, reply: &str) -> Result<f64, String> {
        if !reply.starts_with("ok ") {
            return Err(format!("not ok: {}", reply.trim()));
        }
        let field =
            |key| field(reply, key).ok_or_else(|| format!("no {key}= in: {}", reply.trim()));
        if field("n")? != self.vertices.to_string() {
            return Err(format!("wrong n: {}", reply.trim()));
        }
        if field("batch").is_err() {
            return Err(format!("no batch=: {}", reply.trim()));
        }
        let want = match self.class.algo {
            Algorithm::Bfs | Algorithm::Sssp => Some(self.checksums[pick]),
            Algorithm::Cc => Some(self.checksums[0]),
            _ => None,
        };
        if let Some(want) = want {
            if field("checksum")? != format!("{want:#018x}") {
                return Err(format!(
                    "checksum differs from the reference {want:#018x}: {}",
                    reply.trim()
                ));
            }
        }
        field("ms")?
            .parse::<f64>()
            .map_err(|e| format!("bad ms=: {e}"))
    }
}

/// Builds the client's side of every class: graphs (dropped again before
/// the daemon starts), start vertices from the seed, reference answers.
/// Returns the classes and the time the graph layer took, which is the
/// same work the daemon's cache does on first touch.
fn prepare(classes: &[Class], seed: u64) -> (Vec<Prepared>, Duration, Duration) {
    let (mut generate, mut transpose) = (Duration::ZERO, Duration::ZERO);
    let mut out = vec![None; classes.len()];
    for key in graphs::distinct(classes.iter().map(|c| (c.dataset, c.scale))) {
        let (g, gen, tr) = graphs::build(key);
        generate += gen;
        transpose += tr;
        let picker = classes
            .iter()
            .any(|c| (c.dataset, c.scale) == key && c.algo.needs_start_vertex())
            .then(|| check::SourcePicker::new(&g));
        for (i, c) in classes.iter().enumerate() {
            if (c.dataset, c.scale) != key {
                continue;
            }
            let sources = match &picker {
                Some(picker) if c.algo.needs_start_vertex() => {
                    picker.pick(&mut Rng::new(seed, i as u64), SOURCES_PER_CLASS)
                }
                _ => Vec::new(),
            };
            let checksums = match c.algo {
                Algorithm::Bfs => sources
                    .iter()
                    .map(|&s| check::checksum_ints(&reference::bfs_levels(&g, s)))
                    .collect(),
                Algorithm::Sssp => sources
                    .iter()
                    .map(|&s| check::checksum_ints(&reference::dijkstra(&g, s)))
                    .collect(),
                Algorithm::Cc => vec![check::checksum_ints(&reference::cc_labels(&g))],
                _ => Vec::new(),
            };
            out[i] = Some(Prepared {
                class: *c,
                vertices: g.num_vertices(),
                edges: g.num_edges() as f64,
                sources,
                checksums,
            });
        }
    }
    let out = out
        .into_iter()
        .map(|p| p.expect("every class has a graph"))
        .collect();
    (out, generate, transpose)
}

/// One connection. Every request is a single `write` on a `TCP_NODELAY`
/// socket, so a stall between send and reply belongs to the daemon.
struct Conn {
    w: TcpStream,
    r: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let w = TcpStream::connect(addr)?;
        w.set_nodelay(true)?;
        w.set_read_timeout(Some(Duration::from_secs(60)))?;
        let r = BufReader::new(w.try_clone()?);
        Ok(Conn { w, r })
    }

    fn ask(&mut self, line: &str) -> std::io::Result<String> {
        self.w.write_all(line.as_bytes())?;
        let mut reply = String::new();
        self.r.read_line(&mut reply)?;
        Ok(reply)
    }
}

/// One timed query as the client saw it.
struct Sample {
    class: usize,
    latency_ms: f64,
    exec_ms: f64,
    traced: bool,
}

struct ClientOut {
    samples: Vec<Sample>,
    failures: Vec<String>,
    attempted: u64,
    trace: Trace,
    started: Instant,
    ended: Instant,
}

/// A closed-loop client: the next query goes out when the reply arrives.
/// The order within each cycle of the stream and the start vertices come
/// from the seed.
fn client(
    addr: SocketAddr,
    prepared: &[Prepared],
    stream: Stream,
    opts: &ChildOpts,
    go: &Barrier,
    origin: Instant,
) -> ClientOut {
    let (budget, trace_on) = (Duration::from_secs_f64(opts.seconds), opts.trace);
    let mut rng = Rng::new(opts.seed, 0x5EED + stream as u64);
    let mut cycle: Vec<usize> = prepared
        .iter()
        .enumerate()
        .filter(|(_, p)| p.class.stream == stream)
        .flat_map(|(i, p)| std::iter::repeat_n(i, p.class.weight))
        .collect();
    let mut conn = Conn::open(addr).expect("connect to the in-process daemon");
    go.wait();
    let start = Instant::now();
    let mut out = ClientOut {
        samples: Vec::new(),
        failures: Vec::new(),
        attempted: 0,
        trace: Trace::new(origin),
        started: start,
        ended: start,
    };
    // With tracing on, quarters of the budget alternate between untraced
    // and traced, so the two are compared under the same conditions.
    let quarter = budget / 4;
    // At least one whole cycle, so every class has a sample.
    loop {
        rng.shuffle(&mut cycle);
        for &i in &cycle {
            let p = &prepared[i];
            let pick = if p.sources.is_empty() {
                0
            } else {
                rng.below(p.sources.len())
            };
            let request = p.request(pick);
            let traced =
                trace_on && (start.elapsed().as_nanos() / quarter.as_nanos().max(1)) % 2 == 1;
            out.attempted += 1;
            let op = (out.attempted as u32) << 1 | stream as u32;
            let t = Instant::now();
            let span = traced.then(|| out.trace.begin("query", op, None));
            let reply = conn.ask(&request);
            if let Some(s) = span {
                out.trace.end(s);
            }
            let latency_ms = t.elapsed().as_secs_f64() * 1e3;
            match reply
                .map_err(|e| e.to_string())
                .and_then(|r| p.check(pick, &r))
            {
                Ok(exec_ms) => {
                    if let Some(s) = span {
                        out.trace
                            .reported("serve.exec", op, s, (exec_ms * 1e6) as u64);
                    }
                    out.samples.push(Sample {
                        class: i,
                        latency_ms,
                        exec_ms,
                        traced,
                    });
                }
                Err(e) => out.failures.push(format!("{} {}", p.class.label(), e)),
            }
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    out.ended = Instant::now();
    out
}

/// The value of `key=` in a reply or `stats` line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
}

/// A counter of the `stats` line.
fn stat(line: &str, key: &str) -> f64 {
    field(line, key)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {key}= in the stats line: {line}"))
}

pub fn run(opts: &ChildOpts) {
    let classes = Workload::ServeMix.classes(opts.tiny);
    let (prepared, generate, transpose) = prepare(&classes, opts.seed);
    let mut attempted = 0u64;
    let mut failures: Vec<String> = Vec::new();

    // Set-up: start the daemon, send the first query of every class (graph
    // builds, first compiles, tuning jobs), and wait until the background
    // tuner is idle so that it cannot run inside the timed part.
    let t_setup = Instant::now();
    let handle = Server::start(ServeConfig::default()).expect("start the daemon");
    let ServeAddr::Tcp(addr) = handle.addr().clone() else {
        unreachable!("the default configuration binds TCP")
    };
    let mut control = Conn::open(addr).expect("connect to the in-process daemon");
    for p in &prepared {
        attempted += 1;
        if let Err(e) = control
            .ask(&p.request(0))
            .map_err(|e| e.to_string())
            .and_then(|r| p.check(0, &r))
        {
            failures.push(format!("{} first query: {e}", p.class.label()));
        }
    }
    let t_settle = Instant::now();
    while stat(&control.ask("stats\n").expect("stats"), "tuned_pending") > 0.0 {
        std::thread::sleep(Duration::from_millis(10));
    }
    let settle = t_settle.elapsed();
    let setup = t_setup.elapsed();

    // Timed part.
    let collector = Collector::start();
    let pool_before = ugc_runtime::pool::telemetry();
    let go = Barrier::new(3);
    let origin = Instant::now();
    let outs: Vec<ClientOut> = std::thread::scope(|s| {
        let handles: Vec<_> = Stream::BOTH
            .into_iter()
            .map(|stream| {
                let (go, prepared) = (&go, &prepared);
                s.spawn(move || client(addr, prepared, stream, opts, go, origin))
            })
            .collect();
        go.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    // From the barrier's release to the last reply of the slower client.
    let timed = outs
        .iter()
        .map(|o| o.ended.duration_since(o.started))
        .max()
        .expect("two clients")
        .as_secs_f64();
    let stats_line = control.ask("stats\n").expect("stats");
    let counters = collector.snapshot();
    let pool_after = ugc_runtime::pool::telemetry();
    handle.shutdown();
    handle.join();

    for o in &outs {
        attempted += o.attempted;
        failures.extend(o.failures.iter().cloned());
    }
    for f in &failures {
        emit::fail(f);
    }
    emit::ops(attempted, failures.len() as u64);

    // The parent pools the samples of all children: a class's latency is
    // the median over its queries, its execution time the least `ms=`.
    for p in &prepared {
        emit::class(&p.class.label(), p.edges as usize);
    }
    for s in outs.iter().flat_map(|o| &o.samples) {
        let c = &prepared[s.class].class;
        emit::sample(
            c.stream.name(),
            &c.label(),
            s.latency_ms,
            s.exec_ms,
            s.traced,
        );
    }
    emit::kv("setup_s", setup.as_secs_f64());
    emit::kv("peak_rss_mb", crate::peak_rss_mb());
    emit::kv("timed_s", timed);
    if !opts.trace {
        return;
    }

    // Per-layer values this child can see.
    emit::kv("graph.generate_ms", generate.as_secs_f64() * 1e3);
    emit::kv("graph.transpose_ms", transpose.as_secs_f64() * 1e3);
    emit::kv(
        "graph.resident_mb",
        stat(&stats_line, "cache_resident_bytes") / 1e6,
    );
    emit::kv(
        "serve.tuner.settle_share",
        settle.as_secs_f64() / setup.as_secs_f64(),
    );
    emit::kv("serve.tuner.settle_s", settle.as_secs_f64());
    let ok: usize = outs.iter().map(|o| o.samples.len()).sum();
    emit::runtime_counters(&pool_before, &pool_after, &counters, ok as u64);
    emit::attribution(Target::Cpu, &counters);
    for (name, key) in [
        ("serve.coalesced", "coalesced"),
        ("serve.batches", "batches"),
        ("serve.tuned_hits", "tuned_hits"),
        ("serve.cache_hits", "cache_hits"),
        ("serve.errors", "errors"),
        ("serve.rejected", "rejected"),
    ] {
        emit::kv(name, stat(&stats_line, key));
    }
    emit::kv(
        "serve.shed",
        ["shed_deadline", "shed_overload", "shed_drain"]
            .iter()
            .map(|k| stat(&stats_line, k))
            .sum(),
    );
    emit::kv(
        "resilience.retries",
        counters.value("resilience.retries") as f64,
    );
    emit::kv(
        "resilience.fallbacks",
        counters.value("resilience.fallbacks") as f64,
    );
    let traces: Vec<&Trace> = outs.iter().map(|o| &o.trace).collect();
    // The client cannot see a compile; `ms=` is the execution and the rest
    // of a query's latency (queue, linger, reply path) is `other`.
    let sh = trace::shares(&traces, &[], &["serve.exec"]);
    emit::shares(&sh);
    crate::write_trace(Workload::ServeMix, opts, &traces);
}
