//! Batch execution: turns a [`Pending`] batch into response lines.
//!
//! Batchable queries (BFS/SSSP) run on the multi-source engine
//! ([`ugc_algorithms::multi_source`]) — one traversal, one answer lane per
//! query — inside a containment boundary with the per-request watchdog
//! budget. Transient failures retry with the supervisor's jittered
//! deterministic backoff; a failing multi-query batch **degrades to
//! singles** (so one poisoned query cannot take its batch-mates down),
//! and a failing single falls through to [`Compiler::run_with_policy`],
//! whose fallback chain (CPU backend, then sequential reference) is the
//! same supervisor every other entry point of the workspace uses.
//! Non-batchable queries (PR/CC/BC) take that supervised path directly,
//! exercising the shared thread pool.
//!
//! # The shed-before-execute ladder
//!
//! Every batch walks the same ladder before any cycles are spent:
//!
//! 1. **Drain** — past the drain deadline, queued batches are answered
//!    `err draining` rather than executed.
//! 2. **Deadline** — lanes whose `deadline_ms=` expired in the queue are
//!    shed with `err deadline` (checked again after a graph build, which
//!    can be the slowest step on the path).
//! 3. **Cache admission** — a build that cannot fit under the byte cap
//!    sheds the batch with `err overloaded`.
//! 4. **Circuit breaker** — an open `(algo, dataset, scale)` circuit
//!    fails the batch fast with `err circuit_open`.
//!
//! Execution outcomes feed the breaker back through [`Executor::respond`]:
//! `ok` (and non-circuit-worthy errors) record success, classified
//! `permanent`/`invariant` replies record failure. Shed replies record
//! nothing — the combo never ran.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ugc::{Algorithm, Compiler, Policy, Target};
use ugc_algorithms::multi_source::{self as ms, TraversalStats};
use ugc_algorithms::reference::INF;
use ugc_graph::{Dataset, Graph, Scale};
use ugc_resilience::breaker::{Admission, Breaker};
use ugc_resilience::{backoff_ms, budget, count_fallback, count_retry, fault, ErrorClass};
use ugc_runtime::{contain, ExecError};

use crate::cache::GraphCache;
use crate::gate::Pending;
use crate::protocol::{checksum_floats, checksum_ints, err_line, QuerySpec};
use crate::ServeCounters;

/// The serve-side breaker keying: one circuit per work combination.
pub type ServeBreaker = Breaker<(Algorithm, Dataset, Scale)>;

/// Shared execution context handed to every worker thread.
pub struct Executor {
    /// The build-once, byte-bounded graph store.
    pub cache: Arc<GraphCache>,
    /// Per-request supervisor policy (budgets, retries, fallback chain).
    pub policy: Policy,
    /// The server's counters.
    pub counters: Arc<ServeCounters>,
    /// Per-(algo, dataset, scale) circuit breakers.
    pub breaker: Arc<ServeBreaker>,
    /// Set by shutdown: once this instant passes, still-queued batches
    /// are shed `err draining` instead of executed.
    pub drain_deadline: Arc<Mutex<Option<Instant>>>,
}

impl Executor {
    /// Runs one batch to completion, answering every member with exactly
    /// one reply (served, classified error, or shed).
    pub fn run_batch(&self, batch: Vec<Pending>) {
        if batch.is_empty() {
            return;
        }
        // 1. Drain deadline: the grace window for executing queued work
        // after shutdown has closed.
        if self.drain_expired() {
            for p in batch {
                self.respond(
                    p,
                    err_line("draining", "drain deadline passed before execution"),
                );
            }
            return;
        }
        // 2. Shed lanes that expired while queued.
        let batch = self.shed_expired(batch);
        if batch.is_empty() {
            return;
        }
        let spec0 = batch[0].spec;
        // 3. Cache admission (the build, when it is a first touch, is the
        // slowest step on this path — hence the re-shed right after).
        let pinned = match self.cache.get(spec0.dataset, spec0.scale) {
            Ok(p) => p,
            Err(of) => {
                for p in batch {
                    self.respond(p, err_line("overloaded", &of.to_string()));
                }
                return;
            }
        };
        let graph = pinned.graph();
        let batch = self.shed_expired(batch);
        if batch.is_empty() {
            return;
        }
        // 4. Circuit breaker: every batch shares one (algo, dataset,
        // scale) key — coalescing requires it.
        let key = (spec0.algo, spec0.dataset, spec0.scale);
        match self.breaker.admit(key) {
            Admission::Reject => {
                for p in batch {
                    self.respond(
                        p,
                        err_line(
                            "circuit_open",
                            "recent failures opened this (algo, dataset, scale) circuit; retry later",
                        ),
                    );
                }
                return;
            }
            // A probe's outcome is recorded by respond() like any other
            // execution — every executed lane reports, so the probe
            // always resolves.
            Admission::Allow | Admission::Probe => {}
        }
        let n = graph.num_vertices();
        let mut valid = Vec::with_capacity(batch.len());
        for p in batch {
            if p.spec.algo.needs_start_vertex() && p.spec.source as usize >= n {
                let msg = format!(
                    "source {} out of range (graph has {n} vertices)",
                    p.spec.source
                );
                self.respond(p, err_line(ErrorClass::Permanent.label(), &msg));
            } else {
                valid.push(p);
            }
        }
        if valid.is_empty() {
            return;
        }
        if spec0.batchable() {
            self.counters.batch_size.record(valid.len() as u64);
            self.run_traversal(graph, valid);
        } else {
            for p in valid {
                self.counters.batch_size.record(1);
                self.run_supervised(graph, p);
            }
        }
        // `pinned` drops here: the entry stays resident through the whole
        // batch and only then becomes evictable.
    }

    fn drain_expired(&self) -> bool {
        self.drain_deadline
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_some_and(|d| Instant::now() >= d)
    }

    /// Answers expired lanes `err deadline`, returning the survivors.
    fn shed_expired(&self, batch: Vec<Pending>) -> Vec<Pending> {
        let now = Instant::now();
        let mut alive = Vec::with_capacity(batch.len());
        for p in batch {
            if p.expired(now) {
                let waited = now.duration_since(p.enqueued).as_millis();
                self.respond(
                    p,
                    err_line(
                        "deadline",
                        &format!("deadline expired after {waited}ms in queue"),
                    ),
                );
            } else {
                alive.push(p);
            }
        }
        alive
    }

    /// The wall budget for work with an absolute deadline: the policy's
    /// budget tightened by the remaining allowance.
    fn tightened_wall(&self, deadline: Option<Instant>) -> Option<Duration> {
        let remaining = deadline.map(|d| d.saturating_duration_since(Instant::now()));
        match (self.policy.wall_budget, remaining) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        }
    }

    /// Multi-source (or single fast-path) traversal for a BFS/SSSP batch.
    fn run_traversal(&self, graph: &Arc<Graph>, batch: Vec<Pending>) {
        if batch.len() > 1 {
            self.counters.batches.incr();
            self.counters.coalesced.add(batch.len() as u64 - 1);
        }
        let spec0 = batch[0].spec;
        let sources: Vec<u32> = batch.iter().map(|p| p.spec.source).collect();
        // The batch runs as one unit under the tightest lane deadline.
        let tightest = batch.iter().filter_map(|p| p.deadline).min();
        // Jitter salt: distinct per (head source, width), so two batches
        // retrying the same injected fault don't sleep in lockstep.
        let salt = u64::from(spec0.source) ^ ((sources.len() as u64) << 32);
        let started = Instant::now();
        let mut attempt = 0u32;
        let outcome = loop {
            let result = {
                let _watchdog =
                    budget::scope(self.tightened_wall(tightest), self.policy.cycle_budget);
                fault::begin_attempt(u64::from(attempt));
                let g = graph.clone();
                let srcs = sources.clone();
                contain(std::panic::AssertUnwindSafe(move || {
                    // The serving path's own fault site: `UGC_FAULTS=serve:batch_abort:...`
                    // aborts the attempt here, exactly like a simulator fault.
                    fault::roll_fatal(fault::Domain::Serve, fault::FaultKind::BatchAbort);
                    let out = traverse(&g, spec0.algo, &srcs);
                    if let Some(msg) = budget::wall_exceeded() {
                        return Err(ExecError::classified(ErrorClass::Budget, msg));
                    }
                    Ok(out)
                }))
            };
            match result {
                Ok(out) => break Ok(out),
                Err(e) if e.class == ErrorClass::Transient && attempt < self.policy.max_retries => {
                    attempt += 1;
                    count_retry();
                    std::thread::sleep(std::time::Duration::from_millis(backoff_ms(attempt, salt)));
                }
                Err(e) => break Err(e),
            }
        };
        match outcome {
            Ok((lanes, stats)) => {
                let ms_elapsed = started.elapsed().as_secs_f64() * 1e3;
                self.counters.work.add(stats.edge_scans);
                let batch_len = batch.len();
                for (lane, p) in batch.into_iter().enumerate() {
                    let line =
                        traversal_ok_line(&p.spec, &lanes[lane], batch_len, &stats, ms_elapsed);
                    self.respond(p, line);
                }
            }
            Err(_) if batch.len() > 1 => {
                // Degrade: split the batch and give every member its own
                // (still supervised) run.
                count_fallback();
                self.counters.degraded.incr();
                for p in batch {
                    self.run_traversal(graph, vec![p]);
                }
            }
            Err(_) => {
                // Single query: hand it to the full supervisor chain (CPU
                // backend, then the sequential reference).
                count_fallback();
                let p = batch.into_iter().next().expect("single");
                self.run_supervised(graph, p);
            }
        }
    }

    /// One query through the workspace supervisor ([`Compiler::run_with_policy`]),
    /// under the CPU GraphVM's default schedule.
    fn run_supervised(&self, graph: &Arc<Graph>, p: Pending) {
        let spec = p.spec;
        let mut c = Compiler::new(spec.algo);
        if spec.algo.needs_start_vertex() {
            c.start_vertex(spec.source);
        }
        if let Some(mi) = spec.max_iters {
            c.bind("max_iters", ugc_runtime::value::Value::Int(mi));
        }
        // The request deadline tightens the supervisor's wall budget.
        let mut policy = self.policy.clone();
        policy.wall_budget = self.tightened_wall(p.deadline);
        let line = match c.run_with_policy(Target::Cpu, graph, &policy) {
            Ok(r) => {
                let checksum = match spec.algo {
                    Algorithm::Bfs => checksum_ints(r.property_ints("parent")),
                    Algorithm::Sssp => checksum_ints(r.property_ints("dist")),
                    Algorithm::Cc => checksum_ints(r.property_ints("IDs")),
                    Algorithm::PageRank => checksum_floats(r.property_floats("old_rank")),
                    Algorithm::Bc => checksum_floats(r.property_floats("centrality")),
                    Algorithm::Tc => checksum_ints(r.property_ints("tri")),
                    Algorithm::KCore => checksum_ints(r.property_ints("core")),
                    Algorithm::Lp => checksum_ints(r.property_ints("labels")),
                };
                let mut line = format!(
                    "ok algo={} dataset={} scale={} source={} n={} checksum={checksum:#018x} \
                     batch=1 attempts={} ms={:.3}",
                    spec.algo.name(),
                    spec.dataset.abbrev(),
                    spec.scale.name(),
                    spec.source,
                    graph.num_vertices(),
                    r.attempts,
                    r.time_ms,
                );
                if let Some(d) = &r.degraded_to {
                    line.push_str(&format!(" degraded={d}"));
                }
                // The k= argument reports the membership count at level k
                // on top of the full coreness checksum.
                if let (Algorithm::KCore, Some(k)) = (spec.algo, spec.k) {
                    let size = r.property_ints("core").iter().filter(|&&c| c >= k).count();
                    line.push_str(&format!(" kcore_size={size}"));
                }
                line
            }
            Err(e) => err_line(e.class.label(), &e.message),
        };
        self.respond(p, line);
    }

    /// Sends the response, settling the accounting counters, the breaker,
    /// and the end-to-end latency histogram. Reply-prefix classification
    /// keeps the accounting invariant exact:
    /// `ok + errored + shed_* == admitted` (see `tests/telemetry_invariants.rs`).
    fn respond(&self, p: Pending, line: String) {
        let key = (p.spec.algo, p.spec.dataset, p.spec.scale);
        if line.starts_with("ok") {
            self.counters.ok.incr();
            self.breaker.record_success(key);
        } else {
            self.counters.errors.incr();
            if line.starts_with("err deadline") {
                self.counters.shed_deadline.incr();
            } else if line.starts_with("err overloaded") {
                self.counters.shed_overload.incr();
            } else if line.starts_with("err draining") {
                self.counters.shed_drain.incr();
            } else if line.starts_with("err circuit_open") {
                // Failed fast without executing: counts as an error
                // outcome but records no breaker outcome.
                self.counters.errored.incr();
            } else {
                self.counters.errored.incr();
                // Only classified permanent/invariant failures are
                // circuit-worthy; transient/budget outcomes resolve the
                // (possible) probe as a success so the circuit never
                // wedges half-open.
                if line.starts_with("err permanent") || line.starts_with("err invariant") {
                    self.breaker.record_failure(key);
                } else {
                    self.breaker.record_success(key);
                }
            }
        }
        self.counters
            .latency
            .record(p.enqueued.elapsed().as_micros() as u64);
        // A handler that gave up (dropped connection) is not an error.
        let _ = p.reply.send(line);
    }
}

/// The traversal itself: single-query fast path or multi-source lanes.
fn traverse(g: &Graph, algo: Algorithm, sources: &[u32]) -> (Vec<Vec<i64>>, TraversalStats) {
    match (algo, sources) {
        (Algorithm::Bfs, [s]) => {
            let (levels, stats) = ms::bfs_levels_counted(g, *s);
            (vec![levels], stats)
        }
        (Algorithm::Bfs, _) => ms::ms_bfs_levels(g, sources),
        (Algorithm::Sssp, [s]) => {
            let (dist, stats) = ms::sssp_distances_counted(g, *s);
            (vec![dist], stats)
        }
        (Algorithm::Sssp, _) => ms::ms_sssp_distances(g, sources),
        (other, _) => unreachable!("{} is not batchable", other.name()),
    }
}

fn traversal_ok_line(
    spec: &QuerySpec,
    lane: &[i64],
    batch: usize,
    stats: &TraversalStats,
    ms_elapsed: f64,
) -> String {
    let reached = match spec.algo {
        Algorithm::Bfs => lane.iter().filter(|&&l| l >= 0).count(),
        _ => lane.iter().filter(|&&d| d < INF).count(),
    };
    format!(
        "ok algo={} dataset={} scale={} source={} n={} reached={reached} \
         checksum={:#018x} batch={batch} work={} rounds={} ms={ms_elapsed:.3}",
        spec.algo.name(),
        spec.dataset.abbrev(),
        spec.scale.name(),
        spec.source,
        lane.len(),
        checksum_ints(lane),
        stats.edge_scans,
        stats.rounds,
    )
}
