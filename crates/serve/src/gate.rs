//! Admission control: a bounded queue feeding a fixed set of worker
//! threads, with opportunistic batch formation at the head.
//!
//! In-flight work is bounded by the worker count (one batch per worker);
//! waiting work is bounded by the queue capacity, beyond which
//! [`Gate::submit`] rejects with [`Rejected::Full`] and the connection
//! handler replies `err busy` — backpressure the client can see instead
//! of an unbounded pile-up. A closed (draining) gate rejects with
//! [`Rejected::Draining`] instead, which the handler maps to
//! `err draining`.
//!
//! When a worker pops a batchable head query (BFS/SSSP), it lingers for
//! the *batch window*, collecting queries that
//! [coalesce](crate::protocol::QuerySpec::coalesces_with) with it (same
//! traversal, same cached graph) up to the batch cap. The window is the
//! latency price of coalescing and is deliberately small; a window of
//! zero degrades to strict one-query-per-traversal service. The linger
//! additionally respects the *tightest deadline* across the batch: a
//! lane due in 3ms will not sit out a 5ms window waiting for joiners.
//!
//! The window must pay for itself: a worker waits it out only while the
//! previous batchable batch left with company (and on a fresh gate).
//! Whatever is already queued at pop always coalesces, so a loaded daemon
//! keeps batching and re-arms the window, while a lone closed-loop client
//! pays for one fruitless window, not one per query.
//!
//! # Close vs. in-flight `next_batch` (drain semantics)
//!
//! [`Gate::close`] and [`Gate::next_batch`] serialize on the gate mutex,
//! which makes the race semantics exact:
//!
//! * Every `submit` that returned `Ok` before `close` acquired the lock
//!   left its entry in the queue; `close` only flips `open` — it never
//!   removes entries. Workers keep popping until the queue is empty and
//!   only then observe `open == false` and return `None`.
//! * A worker lingering in a batch window when `close` lands is woken by
//!   the `notify_all`, takes one final coalescing pass, and dispatches
//!   what it has.
//!
//! Net effect, asserted by `drain_executes_every_admitted_query` below
//! and the regression test in `tests/serve.rs`: **an admitted query is
//! always handed to a worker — drain may answer it `err draining`, but
//! the gate itself never silently drops it.** The only queries that see
//! `Rejected::Draining` are those submitted *after* close won the lock,
//! and those are handed back to the caller, never enqueued.

use std::collections::VecDeque;
use std::sync::mpsc::Sender;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::protocol::QuerySpec;
use crate::Stat;

/// One admitted query waiting for (or riding) a traversal.
pub struct Pending {
    /// What to run.
    pub spec: QuerySpec,
    /// Where the response line goes (the connection handler blocks on the
    /// other end).
    pub reply: Sender<String>,
    /// Admission time, for the end-to-end latency histogram.
    pub enqueued: Instant,
    /// Absolute shed deadline (from `deadline_ms=` or the server
    /// default), or `None` for an infinitely patient request.
    pub deadline: Option<Instant>,
}

impl Pending {
    /// True once the deadline (if any) has passed.
    pub fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }
}

/// Why [`Gate::submit`] handed a query back.
pub enum Rejected {
    /// The waiting queue is at capacity; reply `err busy`.
    Full(Pending),
    /// The gate is closed (daemon draining); reply `err draining`.
    Draining(Pending),
}

impl Rejected {
    /// The rejected query, whatever the reason.
    pub fn into_pending(self) -> Pending {
        match self {
            Rejected::Full(p) | Rejected::Draining(p) => p,
        }
    }
}

struct GateState {
    queue: VecDeque<Pending>,
    open: bool,
    /// Whether the last batchable batch had company: the next batchable
    /// head waits out the window only while this holds.
    lingering: bool,
}

/// The admission gate shared by connection handlers (producers) and
/// workers (consumers).
pub struct Gate {
    state: Mutex<GateState>,
    ready: Condvar,
    queue_cap: usize,
    batch_max: usize,
    batch_window: Duration,
    /// Batchable pops that waited on the window.
    pub(crate) lingers: Stat,
    /// Of those, the ones a query joined while they waited.
    pub(crate) linger_joined: Stat,
}

impl Gate {
    /// A gate holding at most `queue_cap` waiting queries and forming
    /// batches of at most `batch_max` over a `batch_window` linger.
    pub fn new(queue_cap: usize, batch_max: usize, batch_window: Duration) -> Gate {
        Gate {
            state: Mutex::new(GateState {
                queue: VecDeque::new(),
                open: true,
                lingering: true,
            }),
            ready: Condvar::new(),
            queue_cap,
            batch_max,
            batch_window,
            lingers: Stat::new("serve.gate.lingers"),
            linger_joined: Stat::new("serve.gate.linger_joined"),
        }
    }

    /// Admits a query, returning the queue depth after admission.
    ///
    /// # Errors
    ///
    /// Hands the query back as [`Rejected::Full`] (queue at capacity,
    /// reply `err busy`) or [`Rejected::Draining`] (gate closed, reply
    /// `err draining`).
    pub fn submit(&self, p: Pending) -> Result<usize, Rejected> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if !st.open {
            return Err(Rejected::Draining(p));
        }
        if st.queue.len() >= self.queue_cap {
            return Err(Rejected::Full(p));
        }
        st.queue.push_back(p);
        let depth = st.queue.len();
        // All waiters: an idle worker needs the new head, and a worker
        // lingering in a batch window needs to re-scan for a joiner.
        self.ready.notify_all();
        Ok(depth)
    }

    /// Stops admission; workers drain what is already queued, then their
    /// [`Gate::next_batch`] calls return `None`. Idempotent. See the
    /// module docs for the exact close/next_batch race semantics.
    pub fn close(&self) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.open = false;
        self.ready.notify_all();
    }

    /// Whether the gate still admits work.
    pub fn is_open(&self) -> bool {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .open
    }

    /// Queries currently waiting (excludes in-flight batches).
    pub fn depth(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .queue
            .len()
    }

    /// Blocks for the next unit of work: one query, plus every queued
    /// query that coalesces with it (collected over the batch window,
    /// clamped to the tightest member deadline). Returns `None` once the
    /// gate is closed *and* drained.
    pub fn next_batch(&self) -> Option<Vec<Pending>> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let head = loop {
            if let Some(head) = st.queue.pop_front() {
                break head;
            }
            if !st.open {
                return None;
            }
            st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
        };
        let mut batch = vec![head];
        if batch[0].spec.batchable() && self.batch_max > 1 {
            let window_end = Instant::now() + self.batch_window;
            let linger = st.lingering;
            // Batch size when the wait began, once this pop has waited.
            let mut waited_from = None;
            loop {
                let mut i = 0;
                while i < st.queue.len() && batch.len() < self.batch_max {
                    if batch[0].spec.coalesces_with(&st.queue[i].spec) {
                        batch.push(st.queue.remove(i).expect("index in range"));
                    } else {
                        i += 1;
                    }
                }
                if batch.len() >= self.batch_max || !st.open || !linger {
                    break;
                }
                // The linger ends at the window — or earlier, at the
                // tightest deadline any collected lane carries. A lane
                // about to expire must dispatch now, not wait out the
                // window and get shed for latency the gate added.
                let deadline = batch
                    .iter()
                    .filter_map(|p| p.deadline)
                    .min()
                    .map_or(window_end, |d| d.min(window_end));
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                if waited_from.is_none() {
                    waited_from = Some(batch.len());
                    self.lingers.incr();
                }
                // A timeout takes one final coalescing pass at the top of
                // the loop; the deadline check then exits.
                st = self
                    .ready
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
            if waited_from.is_some_and(|n| batch.len() > n) {
                self.linger_joined.incr();
            }
            st.lingering = batch.len() > 1;
        }
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::sync::Arc;
    use ugc::Algorithm;
    use ugc_graph::{Dataset, Scale};

    fn pending(algo: Algorithm, source: u32) -> Pending {
        // The receiver is dropped: these unit tests only exercise queueing.
        let (tx, _rx) = channel();
        Pending {
            spec: QuerySpec {
                algo,
                dataset: Dataset::RoadNetCa,
                scale: Scale::Tiny,
                source,
                k: None,
                max_iters: None,
                deadline_ms: None,
            },
            reply: tx,
            enqueued: Instant::now(),
            deadline: None,
        }
    }

    #[test]
    fn rejects_when_full_and_when_closed() {
        let gate = Gate::new(2, 4, Duration::ZERO);
        assert!(gate.submit(pending(Algorithm::Bfs, 0)).is_ok());
        assert!(gate.submit(pending(Algorithm::Bfs, 1)).is_ok());
        assert!(matches!(
            gate.submit(pending(Algorithm::Bfs, 2)),
            Err(Rejected::Full(_))
        ));
        gate.close();
        assert!(matches!(
            gate.submit(pending(Algorithm::Bfs, 3)),
            Err(Rejected::Draining(_))
        ));
        assert_eq!(gate.depth(), 2);
    }

    #[test]
    fn coalesces_compatible_queue_entries() {
        let gate = Gate::new(16, 8, Duration::ZERO);
        gate.submit(pending(Algorithm::Bfs, 0)).ok().unwrap();
        gate.submit(pending(Algorithm::Cc, 0)).ok().unwrap();
        gate.submit(pending(Algorithm::Bfs, 5)).ok().unwrap();
        let batch = gate.next_batch().unwrap();
        let sources: Vec<u32> = batch.iter().map(|p| p.spec.source).collect();
        assert_eq!(sources, vec![0, 5], "bfs pair coalesces around the cc");
        let batch = gate.next_batch().unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].spec.algo, Algorithm::Cc);
    }

    #[test]
    fn window_waits_for_a_late_joiner() {
        let gate = Arc::new(Gate::new(16, 8, Duration::from_millis(200)));
        let g = gate.clone();
        let joiner = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            g.submit(pending(Algorithm::Bfs, 7)).ok().unwrap();
        });
        gate.submit(pending(Algorithm::Bfs, 0)).ok().unwrap();
        let batch = gate.next_batch().unwrap();
        joiner.join().unwrap();
        assert_eq!(batch.len(), 2, "late joiner rode the window");
    }

    #[test]
    fn the_window_is_waited_only_while_it_pays() {
        let gate = Arc::new(Gate::new(16, 8, Duration::from_millis(200)));
        let counts = |g: &Gate| (g.lingers.get(), g.linger_joined.get());

        // A fresh gate lingers; nobody joins, so the window stops paying.
        gate.submit(pending(Algorithm::Bfs, 0)).ok().unwrap();
        assert_eq!(gate.next_batch().unwrap().len(), 1);
        assert_eq!(counts(&gate), (1, 0));

        // The next lone query is handed over at once.
        gate.submit(pending(Algorithm::Bfs, 1)).ok().unwrap();
        let start = Instant::now();
        assert_eq!(gate.next_batch().unwrap().len(), 1);
        assert!(
            start.elapsed() < Duration::from_millis(50),
            "a lone query sat out a window that had stopped paying: {:?}",
            start.elapsed()
        );
        assert_eq!(counts(&gate), (1, 0));

        // Queued mates coalesce at pop without a wait, and re-arm the window.
        gate.submit(pending(Algorithm::Bfs, 2)).ok().unwrap();
        gate.submit(pending(Algorithm::Bfs, 3)).ok().unwrap();
        assert_eq!(gate.next_batch().unwrap().len(), 2);
        assert_eq!(counts(&gate), (1, 0));

        let g = gate.clone();
        let joiner = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            g.submit(pending(Algorithm::Bfs, 5)).ok().unwrap();
        });
        gate.submit(pending(Algorithm::Bfs, 4)).ok().unwrap();
        let batch = gate.next_batch().unwrap();
        joiner.join().unwrap();
        assert_eq!(batch.len(), 2, "the re-armed window caught a late joiner");
        assert_eq!(counts(&gate), (2, 1));
    }

    #[test]
    fn tight_deadline_clamps_the_batch_window() {
        // A 10-second window would sink the test if the deadline clamp
        // regressed; the 5ms lane deadline must cut the linger short.
        let gate = Gate::new(16, 8, Duration::from_secs(10));
        let mut p = pending(Algorithm::Bfs, 0);
        p.deadline = Some(Instant::now() + Duration::from_millis(5));
        gate.submit(p).ok().unwrap();
        let start = Instant::now();
        let batch = gate.next_batch().unwrap();
        assert_eq!(batch.len(), 1);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "deadline must clamp the linger, waited {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn drains_after_close_then_ends() {
        let gate = Gate::new(16, 8, Duration::from_millis(50));
        gate.submit(pending(Algorithm::PageRank, 0)).ok().unwrap();
        gate.close();
        assert_eq!(gate.next_batch().unwrap().len(), 1);
        assert!(gate.next_batch().is_none());
    }

    #[test]
    fn drain_executes_every_admitted_query() {
        // The close/next_batch race contract: whatever was admitted
        // before close is handed to a worker afterwards — nothing is
        // silently dropped, regardless of interleaving.
        let gate = Arc::new(Gate::new(64, 8, Duration::from_millis(5)));
        let admitted: usize = (0..32)
            .map(|s| {
                usize::from(
                    gate.submit(pending(
                        if s % 2 == 0 {
                            Algorithm::Bfs
                        } else {
                            Algorithm::Cc
                        },
                        s,
                    ))
                    .is_ok(),
                )
            })
            .sum();
        assert_eq!(admitted, 32);
        // Close concurrently with workers mid-drain.
        let g = gate.clone();
        let closer = std::thread::spawn(move || g.close());
        let mut handed_out = 0usize;
        while let Some(batch) = gate.next_batch() {
            handed_out += batch.len();
        }
        closer.join().unwrap();
        assert_eq!(handed_out, admitted, "close must never drop queue entries");
        assert!(gate.next_batch().is_none(), "close is terminal");
    }

    #[test]
    fn batch_cap_is_respected() {
        let gate = Gate::new(64, 3, Duration::ZERO);
        for s in 0..5 {
            gate.submit(pending(Algorithm::Sssp, s)).ok().unwrap();
        }
        assert_eq!(gate.next_batch().unwrap().len(), 3);
        assert_eq!(gate.next_batch().unwrap().len(), 2);
    }
}
