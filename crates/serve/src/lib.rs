//! `ugc-serve` — a long-lived graph-analytics query daemon.
//!
//! The rest of the workspace is a one-shot batch pipeline: build a graph,
//! compile a program, run it, exit. This crate adds the resident form the
//! ROADMAP's north star asks for: a std-only TCP/unix-socket daemon that
//! loads each dataset once into a shared [`cache::GraphCache`], bounds
//! concurrent work behind an admission [`gate::Gate`], and **coalesces**
//! concurrent BFS/SSSP queries against the same graph into one
//! multi-source traversal ([`ugc_algorithms::multi_source`]) with one
//! answer lane per query.
//!
//! The protocol is one line per request ([`protocol`]); `repro serve`
//! launches the daemon and `repro client` speaks to it. Request metrics
//! (latency, queue depth, batch size, coalescing) flow through
//! [`ugc_telemetry`] under the `serve.` prefix and are also readable over
//! the wire via `stats`.
//!
//! ```no_run
//! use ugc_serve::{Bind, ServeConfig, Server};
//!
//! let mut config = ServeConfig::default();
//! config.bind = Bind::Tcp(0); // ephemeral port
//! let handle = Server::start(config).unwrap();
//! println!("serving on {}", handle.addr());
//! handle.shutdown();
//! handle.join();
//! ```

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ugc::Policy;
use ugc_telemetry::{Counter, Histogram};

pub mod cache;
pub mod exec;
pub mod gate;
pub mod protocol;
mod signal;
pub mod tuned;

pub use cache::GraphCache;
pub use exec::ServeBreaker;
pub use protocol::{QuerySpec, Request};
pub use tuned::TunedSchedules;

use gate::{Gate, Pending, Rejected};
use protocol::err_line;
use ugc_resilience::breaker::BreakerConfig;

/// Hard cap on one request line; longer lines are answered
/// `err protocol` and the connection is closed (the daemon cannot
/// resynchronize a frame it refused to buffer).
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// How long a closing connection waits for the peer's end of stream after
/// half-closing its own side (see [`close_gracefully`]).
const CLOSE_LINGER: Duration = Duration::from_millis(250);

/// A monotone counter that is readable locally (`stats` must work even
/// with telemetry disabled) and mirrored into the [`ugc_telemetry`]
/// registry for `repro --profile`.
pub struct Stat {
    raw: AtomicU64,
    tele: Counter,
}

impl Stat {
    fn new(name: &str) -> Stat {
        Stat {
            raw: AtomicU64::new(0),
            tele: Counter::new(name),
        }
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.raw.fetch_add(n, Ordering::Relaxed);
        self.tele.add(n);
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Subtracts one from the locally readable value, turning this stat
    /// into a gauge (e.g. tuning jobs still pending). The mirrored
    /// telemetry counter stays monotone — it keeps counting enqueues, as
    /// telemetry counters must — so only `stats` sees the level.
    pub fn dec(&self) {
        self.raw.fetch_sub(1, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.raw.load(Ordering::Relaxed)
    }
}

/// All serving counters, shared by handlers, workers, and `stats`.
pub struct ServeCounters {
    /// Queries received (parsed successfully).
    pub queries: Stat,
    /// Queries answered `ok`.
    pub ok: Stat,
    /// Queries answered `err` (including protocol errors).
    pub errors: Stat,
    /// Queries refused by admission control (`err busy` / `err draining`
    /// at the gate; never enqueued, so excluded from the admitted
    /// accounting below).
    pub rejected: Stat,
    /// Queries accepted by the gate. Every admitted query settles as
    /// exactly one of `ok`, `errored`, or a `shed_*` — the accounting
    /// invariant `tests/telemetry_invariants.rs` checks.
    pub admitted: Stat,
    /// Admitted queries that executed and failed (classified errors and
    /// circuit rejections; sheds are counted separately).
    pub errored: Stat,
    /// Admitted queries shed because their deadline expired in queue.
    pub shed_deadline: Stat,
    /// Admitted queries shed because the graph build would break the
    /// cache byte cap.
    pub shed_overload: Stat,
    /// Admitted queries shed because the drain deadline passed before
    /// they executed.
    pub shed_drain: Stat,
    /// Multi-query batches executed.
    pub batches: Stat,
    /// Queries that rode another query's traversal (batch size minus one,
    /// summed) — the headline coalescing win.
    pub coalesced: Stat,
    /// Batches that failed and were degraded to single-query runs.
    pub degraded: Stat,
    /// Edge scans performed by the traversal engine.
    pub work: Stat,
    /// Supervised queries that executed under a background-tuned schedule.
    pub tuned_hits: Stat,
    /// Tuning jobs enqueued but not yet resolved (a gauge: `stats` shows
    /// the level, telemetry counts cumulative enqueues).
    pub tuned_pending: Stat,
    /// Batch sizes at execution time.
    pub batch_size: Histogram,
    /// Queue depth observed at each admission.
    pub queue_depth: Histogram,
    /// End-to-end request latency in microseconds (admission to reply).
    pub latency: Histogram,
}

impl Default for ServeCounters {
    fn default() -> Self {
        ServeCounters::new()
    }
}

impl ServeCounters {
    /// Fresh counters registered under the `serve.` telemetry prefix.
    pub fn new() -> ServeCounters {
        ServeCounters {
            queries: Stat::new("serve.queries"),
            ok: Stat::new("serve.ok"),
            errors: Stat::new("serve.errors"),
            rejected: Stat::new("serve.rejected"),
            admitted: Stat::new("serve.admitted"),
            errored: Stat::new("serve.errored"),
            shed_deadline: Stat::new("serve.shed.deadline"),
            shed_overload: Stat::new("serve.shed.overload"),
            shed_drain: Stat::new("serve.shed.drain"),
            batches: Stat::new("serve.batches"),
            coalesced: Stat::new("serve.batch.coalesced"),
            degraded: Stat::new("serve.batch.degraded"),
            work: Stat::new("serve.work.edge_scans"),
            tuned_hits: Stat::new("serve.tuned_hits"),
            tuned_pending: Stat::new("serve.tuned_pending"),
            batch_size: Histogram::new("serve.batch.size"),
            queue_depth: Histogram::new("serve.queue.depth"),
            latency: Histogram::new("serve.latency_us"),
        }
    }
}

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Bind {
    /// TCP on 127.0.0.1; port 0 picks an ephemeral port.
    Tcp(u16),
    /// A unix-domain socket at this path (created on start, removed on
    /// clean shutdown).
    Unix(PathBuf),
}

/// Daemon configuration; [`ServeConfig::validate`] is what `repro serve`
/// flag errors come from.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address.
    pub bind: Bind,
    /// Worker threads = maximum batches in flight (the admission limit).
    pub admit: usize,
    /// Maximum queries waiting behind the in-flight ones; submissions
    /// beyond this are answered `err busy`.
    pub queue_cap: usize,
    /// Maximum queries coalesced into one traversal.
    pub batch_max: usize,
    /// How long a worker lingers collecting batch-mates for a batchable
    /// head query (waited only while the previous batchable batch had
    /// company; see [`gate`]).
    pub batch_window: Duration,
    /// Per-request supervisor policy (watchdog budgets, retries,
    /// fallback chain).
    pub policy: Policy,
    /// GraphCache byte cap (`UGC_CACHE_BYTES`); `None` is unbounded.
    pub cache_bytes: Option<usize>,
    /// Grace window for executing already-queued work after shutdown;
    /// batches still queued past it are shed `err draining`.
    pub drain: Duration,
    /// Default deadline applied to queries that carry no `deadline_ms=`
    /// (`repro serve --deadline-ms`); `None` leaves them unbounded.
    pub default_deadline: Option<Duration>,
    /// Per-connection read timeout: a client that stalls mid-frame for
    /// longer is disconnected instead of holding a handler thread
    /// hostage. `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// Install a SIGTERM handler (self-pipe) that triggers the same
    /// graceful drain as the wire `shutdown`. Only `repro serve` sets
    /// this — in-process test servers must not trap process signals.
    pub install_sigterm: bool,
    /// Circuit-breaker tuning for the per-(algo, dataset, scale)
    /// circuits.
    pub breaker: BreakerConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            bind: Bind::Tcp(0),
            admit: 2,
            queue_cap: 64,
            batch_max: 16,
            batch_window: Duration::from_millis(5),
            policy: Policy::default(),
            cache_bytes: None,
            drain: Duration::from_secs(2),
            default_deadline: None,
            read_timeout: Some(Duration::from_secs(30)),
            install_sigterm: false,
            breaker: BreakerConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Rejects nonsensical configurations with a message naming the
    /// offending knob.
    ///
    /// # Errors
    ///
    /// Non-positive admission limit, queue, or batch cap; a batch cap
    /// beyond the lane budget; a unix socket path that already exists or
    /// whose parent directory does not.
    pub fn validate(&self) -> Result<(), String> {
        if self.admit == 0 {
            return Err("admission limit must be positive (--admit)".into());
        }
        if self.queue_cap == 0 {
            return Err("queue capacity must be positive (--queue)".into());
        }
        if self.batch_max == 0 {
            return Err("batch cap must be positive (--batch-max)".into());
        }
        if self.batch_max > ugc_algorithms::multi_source::MAX_LANES {
            return Err(format!(
                "batch cap {} exceeds the {}-lane traversal budget (--batch-max)",
                self.batch_max,
                ugc_algorithms::multi_source::MAX_LANES
            ));
        }
        if self.cache_bytes == Some(0) {
            return Err("cache byte cap must be positive (UGC_CACHE_BYTES)".into());
        }
        if self.default_deadline == Some(Duration::ZERO) {
            return Err("default deadline must be positive (--deadline-ms)".into());
        }
        if self.drain > Duration::from_secs(600) {
            return Err("drain window above 600000ms is not a drain (--drain-ms)".into());
        }
        if let Bind::Unix(path) = &self.bind {
            if path.as_os_str().is_empty() {
                return Err("socket path must not be empty (--socket)".into());
            }
            if path.exists() {
                return Err(format!(
                    "socket path {} already exists (stale socket? remove it first)",
                    path.display()
                ));
            }
            let parent = if path.parent().map_or(true, |p| p.as_os_str().is_empty()) {
                PathBuf::from(".")
            } else {
                path.parent().expect("checked").to_path_buf()
            };
            if !parent.is_dir() {
                return Err(format!(
                    "socket directory {} does not exist (--socket)",
                    parent.display()
                ));
            }
        }
        Ok(())
    }

    /// Parses the `UGC_CACHE_BYTES` cap from the environment (`repro
    /// serve` calls this before [`Server::start`]). Unset or empty means
    /// unbounded.
    ///
    /// # Errors
    ///
    /// A message naming the variable when the value is not a positive
    /// integer; `repro` turns it into a usage error (exit 2).
    pub fn cache_bytes_from_env() -> Result<Option<usize>, String> {
        match std::env::var("UGC_CACHE_BYTES") {
            Err(_) => Ok(None),
            Ok(v) if v.trim().is_empty() => Ok(None),
            Ok(v) => {
                let n: u64 = v.trim().parse().map_err(|_| {
                    format!("UGC_CACHE_BYTES must be a positive integer of bytes, got `{v}`")
                })?;
                if n == 0 {
                    return Err("UGC_CACHE_BYTES must be positive (unset it for unbounded)".into());
                }
                Ok(Some(n as usize))
            }
        }
    }
}

/// The daemon's resolved listen address.
#[derive(Debug, Clone)]
pub enum ServeAddr {
    /// Bound TCP address (with the resolved ephemeral port).
    Tcp(SocketAddr),
    /// Bound unix socket path.
    Unix(PathBuf),
}

impl std::fmt::Display for ServeAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeAddr::Tcp(a) => write!(f, "tcp {a}"),
            ServeAddr::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

enum ListenerKind {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl ListenerKind {
    fn accept(&self) -> std::io::Result<StreamKind> {
        match self {
            // Replies are single small writes: sending them at once costs
            // nothing and never waits on the client's delayed ACK.
            ListenerKind::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nodelay(true);
                StreamKind::Tcp(s)
            }),
            ListenerKind::Unix(l) => l.accept().map(|(s, _)| StreamKind::Unix(s)),
        }
    }

    fn set_nonblocking(&self) -> std::io::Result<()> {
        match self {
            ListenerKind::Tcp(l) => l.set_nonblocking(true),
            ListenerKind::Unix(l) => l.set_nonblocking(true),
        }
    }
}

/// One accepted client connection (TCP or unix), unified for the handler.
pub enum StreamKind {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-socket connection.
    Unix(UnixStream),
}

impl StreamKind {
    fn try_clone(&self) -> std::io::Result<StreamKind> {
        match self {
            StreamKind::Tcp(s) => s.try_clone().map(StreamKind::Tcp),
            StreamKind::Unix(s) => s.try_clone().map(StreamKind::Unix),
        }
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            StreamKind::Tcp(s) => s.set_read_timeout(t),
            StreamKind::Unix(s) => s.set_read_timeout(t),
        }
    }

    fn shutdown_write(&self) -> std::io::Result<()> {
        match self {
            StreamKind::Tcp(s) => s.shutdown(Shutdown::Write),
            StreamKind::Unix(s) => s.shutdown(Shutdown::Write),
        }
    }
}

impl Read for StreamKind {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            StreamKind::Tcp(s) => s.read(buf),
            StreamKind::Unix(s) => s.read(buf),
        }
    }
}

impl Write for StreamKind {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            StreamKind::Tcp(s) => s.write(buf),
            StreamKind::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            StreamKind::Tcp(s) => s.flush(),
            StreamKind::Unix(s) => s.flush(),
        }
    }
}

/// Shared state every connection handler sees.
struct Shared {
    gate: Gate,
    counters: Arc<ServeCounters>,
    cache: Arc<GraphCache>,
    breaker: Arc<ServeBreaker>,
    shutting_down: AtomicBool,
    /// Set once by [`Shared::begin_shutdown`]; executors shed queued
    /// batches `err draining` after it passes.
    drain_deadline: Arc<std::sync::Mutex<Option<Instant>>>,
    drain: Duration,
    default_deadline: Option<Duration>,
    read_timeout: Option<Duration>,
    addr: ServeAddr,
    started: Instant,
}

impl Shared {
    /// The one-line `stats` response. `pool_workers` is the shared thread
    /// pool's lifetime worker count — the CI smoke asserts it is stable
    /// across queries to prove the daemon leaks no background threads.
    fn stats_line(&self) -> String {
        let c = &self.counters;
        let pool = ugc_runtime::pool::telemetry();
        let (circuit_closed, circuit_half_open, circuit_open) = self.breaker.state_counts();
        format!(
            "ok stats uptime_ms={} queries={} ok={} errors={} rejected={} admitted={} \
             errored={} shed_deadline={} shed_overload={} shed_drain={} queued={} \
             batches={} coalesced={} degraded={} work={} cache_builds={} cache_hits={} \
             cache_evictions={} cache_resident_bytes={} cache_cap_bytes={} \
             resident_graphs={} circuit_closed={circuit_closed} \
             circuit_half_open={circuit_half_open} circuit_open={circuit_open} \
             pool_workers={} tuned_hits={} tuned_pending={} lingers={} linger_joined={}",
            self.started.elapsed().as_millis(),
            c.queries.get(),
            c.ok.get(),
            c.errors.get(),
            c.rejected.get(),
            c.admitted.get(),
            c.errored.get(),
            c.shed_deadline.get(),
            c.shed_overload.get(),
            c.shed_drain.get(),
            self.gate.depth(),
            c.batches.get(),
            c.coalesced.get(),
            c.degraded.get(),
            c.work.get(),
            self.cache.builds(),
            self.cache.hits(),
            self.cache.evictions(),
            self.cache.resident_bytes(),
            self.cache.cap_bytes().unwrap_or(0),
            self.cache.resident(),
            pool.workers_spawned,
            c.tuned_hits.get(),
            c.tuned_pending.get(),
            self.gate.lingers.get(),
            self.gate.linger_joined.get(),
        )
    }

    /// Stops admission, arms the drain deadline, and unblocks the accept
    /// loop. Idempotent — the wire `shutdown`, SIGTERM, and
    /// [`ServerHandle::shutdown`] all funnel here, and only the first
    /// call acts.
    fn begin_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Arm the drain deadline *before* closing the gate so a worker
        // cannot observe a closed gate with an unarmed deadline.
        {
            let mut dd = self
                .drain_deadline
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            *dd = Some(Instant::now() + self.drain);
        }
        self.gate.close();
        // A throwaway self-connection unblocks the blocking accept().
        match &self.addr {
            ServeAddr::Tcp(a) => drop(TcpStream::connect(a)),
            ServeAddr::Unix(p) => drop(UnixStream::connect(p)),
        }
    }
}

/// The daemon. [`Server::start`] spawns the accept loop and worker
/// threads and returns a handle.
pub struct Server;

/// A running daemon: its address, counters, and join/shutdown controls.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    sock_path: Option<PathBuf>,
}

impl Server {
    /// Validates the configuration, binds the listener, and spawns the
    /// accept loop plus `config.admit` worker threads.
    ///
    /// # Errors
    ///
    /// Configuration rejections ([`ServeConfig::validate`]), bind
    /// failures, and malformed supervisor environment (`UGC_FAULTS`).
    pub fn start(config: ServeConfig) -> Result<ServerHandle, String> {
        config.validate()?;
        ugc_resilience::fault::init_from_env()?;
        let (listener, addr, sock_path) = match &config.bind {
            Bind::Tcp(port) => {
                let l = TcpListener::bind(("127.0.0.1", *port))
                    .map_err(|e| format!("cannot bind 127.0.0.1:{port}: {e}"))?;
                let a = l.local_addr().map_err(|e| format!("local_addr: {e}"))?;
                (ListenerKind::Tcp(l), ServeAddr::Tcp(a), None)
            }
            Bind::Unix(path) => {
                let l = UnixListener::bind(path)
                    .map_err(|e| format!("cannot bind {}: {e}", path.display()))?;
                (
                    ListenerKind::Unix(l),
                    ServeAddr::Unix(path.clone()),
                    Some(path.clone()),
                )
            }
        };
        let counters = Arc::new(ServeCounters::new());
        let cache = Arc::new(GraphCache::with_cap(config.cache_bytes));
        let tuned = Arc::new(TunedSchedules::new());
        let breaker = Arc::new(ServeBreaker::new(config.breaker));
        let drain_deadline = Arc::new(std::sync::Mutex::new(None));
        let shared = Arc::new(Shared {
            gate: Gate::new(config.queue_cap, config.batch_max, config.batch_window),
            counters: counters.clone(),
            cache: cache.clone(),
            breaker: breaker.clone(),
            shutting_down: AtomicBool::new(false),
            drain_deadline: drain_deadline.clone(),
            drain: config.drain,
            default_deadline: config.default_deadline,
            read_timeout: config.read_timeout,
            addr,
            started: Instant::now(),
        });
        if config.install_sigterm {
            signal::spawn_sigterm_drain(shared.clone())?;
        }
        // Tuning jobs flow from the executors to one background tuner
        // thread. The sender lives only in the executors: when the gate
        // closes and the workers exit, the channel disconnects and the
        // tuner thread follows them down.
        let (tuner_tx, tuner_rx) = mpsc::channel::<tuned::TuneJob>();
        let mut workers = (0..config.admit)
            .map(|i| {
                let sh = shared.clone();
                let executor = exec::Executor {
                    cache: cache.clone(),
                    policy: config.policy.clone(),
                    counters: counters.clone(),
                    tuned: tuned.clone(),
                    tuner_tx: tuner_tx.clone(),
                    breaker: breaker.clone(),
                    drain_deadline: drain_deadline.clone(),
                };
                std::thread::Builder::new()
                    .name(format!("ugc-serve-worker-{i}"))
                    .spawn(move || {
                        while let Some(batch) = sh.gate.next_batch() {
                            executor.run_batch(batch);
                        }
                    })
                    .map_err(|e| format!("cannot spawn worker: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        drop(tuner_tx);
        {
            let sh = shared.clone();
            let tuned = tuned.clone();
            let tuner = std::thread::Builder::new()
                .name("ugc-serve-tuner".into())
                .spawn(move || background_tuner(&tuner_rx, &sh, &tuned))
                .map_err(|e| format!("cannot spawn tuner: {e}"))?;
            workers.push(tuner);
        }
        let accept = {
            let sh = shared.clone();
            std::thread::Builder::new()
                .name("ugc-serve-accept".into())
                .spawn(move || accept_loop(&listener, &sh))
                .map_err(|e| format!("cannot spawn accept loop: {e}"))?
        };
        Ok(ServerHandle {
            shared,
            accept: Some(accept),
            workers,
            sock_path,
        })
    }
}

impl ServerHandle {
    /// The resolved listen address (ephemeral TCP ports included).
    pub fn addr(&self) -> &ServeAddr {
        &self.shared.addr
    }

    /// The live counters (for in-process tests and `repro --profile`).
    pub fn counters(&self) -> &ServeCounters {
        &self.shared.counters
    }

    /// Requests shutdown, as the wire `shutdown` command does: admission
    /// closes, queued work drains, threads exit.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Waits for the accept loop and all workers, then removes the unix
    /// socket file. Returns only after a shutdown was requested.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(p) = &self.sock_path {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// The background tuner: drains [`tuned::TuneJob`]s whenever the
/// admission gate is idle, so tuning never competes with live queries for
/// the CPU. Each job runs the autotuner over the CPU schedule space on
/// the already-resident graph with a small fixed budget; the winner is
/// stored for every later supervised query of that triple. Exits when the
/// executors drop their senders (worker shutdown) or shutdown is flagged.
fn background_tuner(
    rx: &mpsc::Receiver<tuned::TuneJob>,
    shared: &Arc<Shared>,
    tuned: &TunedSchedules,
) {
    loop {
        let job = match rx.recv_timeout(Duration::from_millis(200)) {
            Ok(job) => job,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        };
        // Idle-slot bound: wait until no queries are queued before
        // spending cycles on search. Shutdown aborts the wait (and the
        // job — the daemon is going away).
        while shared.gate.depth() > 0 {
            if shared.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let key = (job.dataset, job.scale, job.algo);
        if shared.shutting_down.load(Ordering::SeqCst) {
            tuned.store(key, None);
            shared.counters.tuned_pending.dec();
            continue;
        }
        let space = ugc_autotune::space_for(ugc::Target::Cpu);
        let params = ugc_autotune::space_params(job.algo, &job.graph);
        let tuner = ugc_autotune::Tuner {
            seed: 0xBACC_6E55,
            budget: 8,
            restarts: 1,
            ..ugc_autotune::Tuner::default()
        };
        let mut eval = ugc_autotune::compiler_evaluator(ugc::Target::Cpu, job.algo, &job.graph, 0);
        let winner = ugc_autotune::tune(space, &params, &[], &tuner, &mut eval)
            .ok()
            .map(|out| out.winner().schedule.clone());
        tuned.store(key, winner);
        shared.counters.tuned_pending.dec();
    }
}

/// Accepts connections until shutdown, then drains the backlog: every
/// connection the kernel had already queued still gets a handler (whose
/// `gate.submit` answers `err draining`) instead of a reset when the
/// listener drops.
fn accept_loop(listener: &ListenerKind, shared: &Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok(s) => s,
            Err(_) => {
                // Once draining the listener is non-blocking, so an error
                // here is the empty backlog.
                if shared.shutting_down.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        // Draining: from here on take only what is already queued. If the
        // listener cannot be made non-blocking this connection is the last,
        // or the next accept() would block forever.
        let last =
            shared.shutting_down.load(Ordering::SeqCst) && listener.set_nonblocking().is_err();
        let sh = shared.clone();
        let spawned = std::thread::Builder::new()
            .name("ugc-serve-conn".into())
            .spawn(move || handle_conn(stream, &sh));
        drop(spawned);
        if last {
            break;
        }
    }
}

/// One bounded-read request line.
enum LineRead {
    /// A complete line (newline stripped, may be the unterminated tail
    /// at EOF).
    Line(Vec<u8>),
    /// Clean end of stream.
    Eof,
    /// The line outgrew [`MAX_LINE_BYTES`] before its newline arrived.
    TooLong,
}

/// Reads one `\n`-terminated line without ever buffering more than
/// [`MAX_LINE_BYTES`] — the unbounded-`read_line` OOM vector a hostile
/// or broken client could otherwise drive.
fn read_line_bounded<R: BufRead>(r: &mut R) -> std::io::Result<LineRead> {
    let mut buf = Vec::new();
    loop {
        let chunk = r.fill_buf()?;
        if chunk.is_empty() {
            return Ok(if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line(buf)
            });
        }
        if let Some(nl) = chunk.iter().position(|&b| b == b'\n') {
            buf.extend_from_slice(&chunk[..nl]);
            r.consume(nl + 1);
            if buf.len() > MAX_LINE_BYTES {
                return Ok(LineRead::TooLong);
            }
            return Ok(LineRead::Line(buf));
        }
        let taken = chunk.len();
        buf.extend_from_slice(chunk);
        r.consume(taken);
        if buf.len() > MAX_LINE_BYTES {
            return Ok(LineRead::TooLong);
        }
    }
}

/// Closes a connection so that nothing already written to it is lost:
/// half-close the write side, read the peer out to end of stream (or
/// [`CLOSE_LINGER`]), then drop. Closing with request bytes still unread
/// makes the kernel answer with a reset, which can destroy a reply the
/// client has not read yet.
fn close_gracefully(writer: &StreamKind, reader: &mut impl Read) {
    let _ = writer.shutdown_write();
    let _ = writer.set_read_timeout(Some(CLOSE_LINGER));
    let deadline = Instant::now() + CLOSE_LINGER;
    let mut sink = [0u8; 4096];
    while Instant::now() < deadline && matches!(reader.read(&mut sink), Ok(n) if n > 0) {}
}

/// Sends one reply as a single write: the line and its newline leave in
/// one buffer, so no segment waits on the peer's delayed ACK.
fn write_line(w: &mut impl Write, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// One connection: read request lines, write one response line each.
/// Closes the connection (gracefully, see [`close_gracefully`]) on
/// `shutdown`, read errors/timeouts, oversize frames, or EOF.
fn handle_conn(stream: StreamKind, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(shared.read_timeout);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    let mut reader = BufReader::new(read_half);
    serve_requests(&mut writer, &mut reader, shared);
    close_gracefully(&writer, &mut reader);
}

fn serve_requests(
    writer: &mut StreamKind,
    reader: &mut BufReader<StreamKind>,
    shared: &Arc<Shared>,
) {
    loop {
        let raw = match read_line_bounded(reader) {
            Ok(LineRead::Line(raw)) => raw,
            Ok(LineRead::Eof) => break,
            Ok(LineRead::TooLong) => {
                // Reply, then close: the rest of the oversize frame is
                // still in flight and cannot be resynchronized.
                shared.counters.errors.incr();
                let e = err_line(
                    "protocol",
                    &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                );
                let _ = write_line(writer, e);
                break;
            }
            // Read errors and timeouts (stalled client) close quietly.
            Err(_) => break,
        };
        // Interior NULs and broken UTF-8 are protocol errors, not
        // grounds to kill the connection.
        let line = String::from_utf8_lossy(&raw);
        if line.trim().is_empty() {
            continue;
        }
        let mut close_after = false;
        let reply = if raw.contains(&0) {
            shared.counters.errors.incr();
            err_line("protocol", "request contains NUL bytes")
        } else {
            match protocol::parse_request(&line) {
                Err(e) => {
                    shared.counters.errors.incr();
                    err_line("protocol", &e)
                }
                Ok(Request::Stats) => shared.stats_line(),
                Ok(Request::Shutdown) => {
                    close_after = true;
                    "ok shutdown".to_string()
                }
                Ok(Request::Query(spec)) => {
                    shared.counters.queries.incr();
                    let (tx, rx) = mpsc::channel();
                    let now = Instant::now();
                    let deadline = spec
                        .deadline_ms
                        .map(Duration::from_millis)
                        .or(shared.default_deadline)
                        .map(|d| now + d);
                    let pending = Pending {
                        spec,
                        reply: tx,
                        enqueued: now,
                        deadline,
                    };
                    match shared.gate.submit(pending) {
                        Ok(depth) => {
                            shared.counters.admitted.incr();
                            shared.counters.queue_depth.record(depth as u64);
                            match rx.recv() {
                                Ok(answer) => answer,
                                Err(_) => {
                                    shared.counters.errors.incr();
                                    err_line("internal", "worker dropped the reply channel")
                                }
                            }
                        }
                        Err(Rejected::Full(_)) => {
                            shared.counters.rejected.incr();
                            shared.counters.errors.incr();
                            err_line("busy", "admission queue full; retry later")
                        }
                        Err(Rejected::Draining(_)) => {
                            shared.counters.rejected.incr();
                            shared.counters.errors.incr();
                            err_line("draining", "server shutting down; no new work admitted")
                        }
                    }
                }
            }
        };
        if write_line(writer, reply).is_err() {
            break;
        }
        if close_after {
            shared.begin_shutdown();
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every `write` call it is handed, taking all of it.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_line_is_one_write_of_line_and_newline() {
        let mut w = CountingWriter::default();
        write_line(&mut w, "ok stats queries=0".to_string()).expect("write");
        assert_eq!(w.writes, vec![b"ok stats queries=0\n".to_vec()]);
    }
}
