//! Persistent worker pool for the runtime hot path.
//!
//! The CPU GraphVM calls a parallel-for once per edge/vertex operator per
//! traversal iteration. Spawning and joining OS threads at every call (the
//! previous [`std::thread::scope`] implementation) charges a full
//! thread-creation round-trip to every operator — hundreds of them for a
//! single BFS run. GraphIt's CPU runtime amortizes that cost
//! with a persistent OpenMP worker team; this module is the equivalent for
//! the UGC reproduction, std-only per the hermetic-workspace policy.
//!
//! # Design
//!
//! * **Lazily initialized, process-wide pool.** Workers are spawned on
//!   first use and grow on demand up to the largest thread count any call
//!   site requests (call sites may deliberately oversubscribe, e.g. tests
//!   on small machines), hard-capped at [`MAX_WORKERS`]. Workers park on a
//!   condvar between jobs.
//! * **One job at a time.** A submission mutex serializes concurrent
//!   top-level `parallel_for` calls; GraphVM execution is single-threaded
//!   between operators, so jobs never queue in practice. A nested
//!   `parallel_for` issued from inside a running task executes inline
//!   (serially) on the calling worker — no deadlock, no re-entry.
//! * **One shared cursor over chunks cut once per call.** A dispatched
//!   call cuts its range into chunks of
//!   `max(chunk_hint, total / (participants · 8))`, or takes the caller's
//!   pre-cut chunks ([`parallel_for_chunks_with_local`], e.g.
//!   degree-balanced ranges); every participant claims the next chunk
//!   index with one atomic `fetch_add` until none are left. How a call is
//!   chunked depends only on its own arguments, never on earlier calls.
//!   Totals at or under [`SERIAL_DISPATCH_THRESHOLD`] never dispatch at
//!   all — the handoff round-trip costs more than the loop.
//! * **Scoped borrows.** The caller blocks until every participant has
//!   finished, so closures may borrow from the caller's stack exactly like
//!   the scoped-thread API this replaces. Internally the closure reference
//!   is lifetime-erased while the job is in flight; safety rests on the
//!   caller never returning before the last participant decrements the
//!   job's `remaining` count.
//! * **Panic propagation without poisoning.** A panicking task is caught
//!   on the worker, the first payload is stored, every other participant
//!   drains remaining work, and the caller re-raises the original payload
//!   via [`std::panic::resume_unwind`]. Workers survive; the next
//!   `parallel_for` call runs normally.
//! * **Telemetry.** Cheap relaxed counters ([`telemetry`]) expose jobs,
//!   serial fallbacks, chunks executed, parks, and spawned worker
//!   threads, so benches can print dispatch behaviour.
//!
//! `UGC_THREADS` overrides the machine's available parallelism for
//! [`default_threads`] *and* caps the pool globally: `UGC_THREADS=1` forces
//! fully deterministic serial execution through every backend.

use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

use ugc_telemetry::{Counter, Histogram, Span};

/// Hard cap on persistent worker threads (a runaway-request backstop far
/// above any real machine this targets).
pub const MAX_WORKERS: usize = 128;

/// Below this many items a `parallel_for` call never dispatches to the
/// pool: the parking/handoff round-trip costs ~100ns while a tiny loop
/// finishes in ~10ns (the benchmark's `runtime.pool.dispatch_us` probe
/// measures the round-trip). Mirrors the CPU schedule's default serial
/// threshold (`ugc_backend_cpu::CpuSchedule::serial_threshold`), applied
/// here so every call site is protected, not just the executor's.
pub const SERIAL_DISPATCH_THRESHOLD: usize = 512;

/// Number of worker threads used by default: `UGC_THREADS` when set to a
/// positive integer, otherwise the machine's available parallelism.
pub fn default_threads() -> usize {
    if let Some(n) = env_threads() {
        return n;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `UGC_THREADS` override, when set and valid. Read once per process:
/// every `parallel_for` consults it, and nothing sets it at run time.
fn env_threads() -> Option<usize> {
    static THREADS: OnceLock<Option<usize>> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("UGC_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    })
}

/// A snapshot of the pool's counters since process start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolTelemetry {
    /// Persistent worker threads spawned so far.
    pub workers_spawned: u64,
    /// Jobs dispatched to the pool (parallel executions).
    pub jobs: u64,
    /// Calls that ran inline without dispatch (small totals, one thread,
    /// nested calls, `UGC_THREADS=1`).
    pub serial_runs: u64,
    /// Chunks of iteration space executed by participants.
    pub chunks: u64,
    /// Always 0: participants share one cursor and never steal. The field
    /// stays because the benchmark's `runtime.pool.steals` row reads it.
    pub steals: u64,
    /// Times a worker parked on the idle condvar.
    pub parks: u64,
}

/// The pool's counters, registered in the [`ugc_telemetry`] registry
/// under the `pool.` prefix (the old private `AtomicU64`s re-homed).
/// `pool.chunk_size` is a histogram of executed chunk lengths — its
/// spread is the chunk-imbalance signal `repro --profile` reports.
struct Counters {
    workers_spawned: Counter,
    jobs: Counter,
    serial_runs: Counter,
    chunks: Counter,
    parks: Counter,
    chunk_size: Histogram,
    /// Wall time per dispatched job (`pool.job.ns` / `pool.job.calls`).
    /// `pool.job.calls` must stay equal to `pool.jobs` even when a job
    /// body panics — see the explicit guard drop in [`run_job`].
    job_span: Span,
}

fn counters() -> &'static Counters {
    static COUNTERS: OnceLock<Counters> = OnceLock::new();
    COUNTERS.get_or_init(|| Counters {
        workers_spawned: Counter::new("pool.workers_spawned"),
        jobs: Counter::new("pool.jobs"),
        serial_runs: Counter::new("pool.serial_runs"),
        chunks: Counter::new("pool.chunks"),
        parks: Counter::new("pool.parks"),
        chunk_size: Histogram::new("pool.chunk_size"),
        job_span: Span::new("pool.job"),
    })
}

/// Marks one executed chunk: the count plus its length for the
/// imbalance histogram.
#[inline]
fn count_chunk(range: &Range<usize>) {
    let c = counters();
    c.chunks.incr();
    c.chunk_size.record(range.len() as u64);
}

/// Reads the pool's telemetry counters (relaxed; for reporting only).
/// All zeros when telemetry is disabled via `UGC_TELEMETRY=0`.
pub fn telemetry() -> PoolTelemetry {
    let c = counters();
    PoolTelemetry {
        workers_spawned: c.workers_spawned.get(),
        jobs: c.jobs.get(),
        serial_runs: c.serial_runs.get(),
        chunks: c.chunks.get(),
        steals: 0,
        parks: c.parks.get(),
    }
}

thread_local! {
    /// Set while this thread is executing a pool job body (as a worker or
    /// as the submitting caller); nested parallel calls run inline.
    static IN_POOL_JOB: Cell<bool> = const { Cell::new(false) };
}

fn in_pool_job() -> bool {
    IN_POOL_JOB.with(|f| f.get())
}

/// Runs `f` with the in-job flag set, restoring it afterwards (the caller
/// participates in its own job, and workers serve many jobs).
fn with_job_flag<R>(f: impl FnOnce() -> R) -> R {
    IN_POOL_JOB.with(|flag| {
        let prev = flag.replace(true);
        let r = f();
        flag.set(prev);
        r
    })
}

/// The participant body of one job, called exactly once per participant
/// with ids `1..participants` on workers (`0` runs on the caller).
type JobBody<'a> = &'a (dyn Fn(usize) + Sync);

/// A lifetime-erased in-flight job. The pointee lives on the submitting
/// caller's stack; it is only dereferenced while `remaining > 0`, and the
/// caller blocks until `remaining == 0` before returning.
struct ErasedJob {
    body: *const (dyn Fn(usize) + Sync),
    participants: usize,
    remaining: usize,
}

// SAFETY: the raw pointer is only sent to pool workers that finish using
// it before the owning caller unblocks (see `remaining` accounting).
unsafe impl Send for ErasedJob {}

#[derive(Default)]
struct PoolState {
    /// Bumped once per dispatched job; workers wait for a change.
    epoch: u64,
    job: Option<ErasedJob>,
    /// First panic payload raised by any participant of the current job.
    panic: Option<Box<dyn Any + Send>>,
    /// Worker threads spawned so far.
    spawned: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    /// Workers park here waiting for a new epoch.
    work_cv: Condvar,
    /// The caller parks here waiting for `remaining == 0`.
    done_cv: Condvar,
    /// Serializes top-level job submissions.
    submit: Mutex<()>,
}

/// Locks ignoring poison: the pool never panics while holding its locks,
/// but a poisoned submit mutex (caller panicked with the guard alive during
/// unwind) must not disable the pool forever.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState::default()),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
        submit: Mutex::new(()),
    })
}

fn worker_loop(pool: &'static Pool, index: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let mut guard = lock(&pool.state);
        let job = loop {
            if guard.epoch != seen_epoch {
                seen_epoch = guard.epoch;
                if let Some(job) = &guard.job {
                    // Participant 0 is the caller; workers take 1.. .
                    if index + 1 < job.participants {
                        break job.body;
                    }
                }
            }
            counters().parks.incr();
            guard = pool.work_cv.wait(guard).unwrap_or_else(|e| e.into_inner());
        };
        drop(guard);
        // SAFETY: the job stays alive until `remaining` hits zero, which
        // cannot happen before this participant's decrement below.
        let body: JobBody<'_> = unsafe { &*job };
        let result = catch_unwind(AssertUnwindSafe(|| with_job_flag(|| body(index + 1))));
        let mut guard = lock(&pool.state);
        if let Err(payload) = result {
            guard.panic.get_or_insert(payload);
        }
        if let Some(job) = &mut guard.job {
            job.remaining -= 1;
            if job.remaining == 0 {
                pool.done_cv.notify_all();
            }
        }
    }
}

/// Dispatches `body` to `participants` threads (the caller plus
/// `participants - 1` pool workers), blocking until all have returned and
/// re-raising the first panic payload, if any. `participants >= 2`.
fn run_job(participants: usize, body: JobBody<'_>) {
    let job_guard = counters().job_span.start();
    let pool = pool();
    let _submit = lock(&pool.submit);
    {
        let mut st = lock(&pool.state);
        // Grow the worker set to the requested width.
        while st.spawned < participants - 1 {
            let index = st.spawned;
            std::thread::Builder::new()
                .name(format!("ugc-pool-{index}"))
                .spawn(move || worker_loop(pool, index))
                .expect("spawning pool worker");
            st.spawned += 1;
            counters().workers_spawned.incr();
        }
        st.epoch += 1;
        st.panic = None;
        // SAFETY: lifetime erasure; the job is cleared below before this
        // frame (and thus the pointee) can go away.
        let body: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(body) };
        st.job = Some(ErasedJob {
            body,
            participants,
            remaining: participants,
        });
        counters().jobs.incr();
        pool.work_cv.notify_all();
    }
    // The caller is participant 0.
    let result = catch_unwind(AssertUnwindSafe(|| with_job_flag(|| body(0))));
    let mut st = lock(&pool.state);
    if let Err(payload) = result {
        st.panic.get_or_insert(payload);
    }
    st.job.as_mut().expect("job in flight").remaining -= 1;
    while st.job.as_ref().expect("job in flight").remaining > 0 {
        st = pool.done_cv.wait(st).unwrap_or_else(|e| e.into_inner());
    }
    st.job = None;
    let panic = st.panic.take();
    drop(st);
    drop(_submit);
    // Close the job span before re-raising: a panicking job must not
    // leave `pool.job.calls` unbalanced against `pool.jobs`.
    drop(job_guard);
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
}

/// How many participants a call may use: the request, clamped by the
/// global `UGC_THREADS` cap and the worker backstop.
fn clamp_participants(requested: usize) -> usize {
    let capped = match env_threads() {
        Some(cap) => requested.min(cap),
        None => requested,
    };
    capped.clamp(1, MAX_WORKERS + 1)
}

/// A dispatched range is cut into about this many chunks per participant:
/// enough that a participant held up by a slow chunk leaves the rest to
/// the others, few enough that claiming a chunk stays cheap next to
/// running it. The caller's `chunk_hint` is a floor on the chunk length,
/// so a 1M-element call at hint 64 makes 16 handoffs on two participants,
/// not 16 384.
const CHUNKS_PER_PARTICIPANT: usize = 8;

/// Runs `f` over the chunks `piece(0)..piece(count)` on `t >= 2`
/// participants, one `T::default()` accumulator each. Every participant
/// claims the next chunk index from one shared cursor until none are
/// left (the `schedule(dynamic)` shape of GraphIt's OpenMP runtime).
fn run_pieces<T, F>(
    t: usize,
    count: usize,
    piece: impl Fn(usize) -> Range<usize> + Sync,
    f: &F,
) -> Vec<T>
where
    T: Default + Send,
    F: Fn(usize, Range<usize>, &mut T) + Sync,
{
    let cursor = AtomicUsize::new(0);
    let results: Mutex<Vec<T>> = Mutex::new(Vec::with_capacity(t));
    run_job(t, &|tid| {
        let mut local = T::default();
        loop {
            // Relaxed: the read-modify-write alone makes each index unique
            // to one claimant; the cursor publishes no other data (the
            // chunks and `f` reach the workers through the pool's state
            // mutex).
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                break;
            }
            let range = piece(i);
            count_chunk(&range);
            f(tid, range, &mut local);
        }
        lock(&results).push(local);
    });
    results.into_inner().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f(thread_id, start..end)` over chunks of `0..total` on up to
/// `num_threads` participants of the persistent pool.
///
/// `f` must be safe to call concurrently. `chunk_hint` is the caller's
/// granularity floor; each dispatched call cuts `0..total` into chunks of
/// `max(chunk_hint, total / (participants · 8))` that participants claim
/// in order from a shared cursor. Runs inline (serially) when one
/// participant suffices, when `total` is at or under
/// [`SERIAL_DISPATCH_THRESHOLD`], when called from inside a pool task,
/// or under `UGC_THREADS=1`.
///
/// # Example
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use ugc_runtime::pool::parallel_for;
///
/// let sum = AtomicUsize::new(0);
/// parallel_for(4, 1000, 64, |_tid, range| {
///     sum.fetch_add(range.len(), Ordering::Relaxed);
/// });
/// assert_eq!(sum.load(Ordering::Relaxed), 1000);
/// ```
pub fn parallel_for<F>(num_threads: usize, total: usize, chunk_hint: usize, f: F)
where
    F: Fn(usize, Range<usize>) + Sync,
{
    parallel_for_with_local::<(), _>(num_threads, total, chunk_hint, |tid, range, _| {
        f(tid, range)
    });
}

/// Runs `f(thread_id, start..end, &mut local)` like [`parallel_for`] but
/// gives each participant a `T::default()` accumulator, returning all
/// accumulators (useful for building output frontiers without contention).
///
/// Accumulator order is unspecified beyond being one per participant that
/// ran; with one participant (including `UGC_THREADS=1`) the result is a
/// single deterministic accumulator.
pub fn parallel_for_with_local<T, F>(
    num_threads: usize,
    total: usize,
    chunk_hint: usize,
    f: F,
) -> Vec<T>
where
    T: Default + Send,
    F: Fn(usize, Range<usize>, &mut T) + Sync,
{
    if total == 0 {
        return Vec::new();
    }
    let hint = chunk_hint.max(1);
    let t = clamp_participants(num_threads.max(1).min(total.div_ceil(hint)));
    if t <= 1 || total <= SERIAL_DISPATCH_THRESHOLD || in_pool_job() {
        counters().serial_runs.incr();
        let mut local = T::default();
        f(0, 0..total, &mut local);
        return vec![local];
    }
    let chunk = hint.max(total / (t * CHUNKS_PER_PARTICIPANT));
    let piece = |i: usize| i * chunk..((i + 1) * chunk).min(total);
    run_pieces(t, total.div_ceil(chunk), piece, &f)
}

/// Like [`parallel_for_with_local`], but over caller-provided chunks
/// (e.g. degree-balanced member ranges), claimed in the caller's order
/// from the same shared cursor.
pub fn parallel_for_chunks_with_local<T, F>(
    num_threads: usize,
    chunks: Vec<Range<usize>>,
    f: F,
) -> Vec<T>
where
    T: Default + Send,
    F: Fn(usize, Range<usize>, &mut T) + Sync,
{
    if chunks.is_empty() {
        return Vec::new();
    }
    let t = clamp_participants(num_threads.max(1).min(chunks.len()));
    if t <= 1 || in_pool_job() {
        counters().serial_runs.incr();
        let mut local = T::default();
        for c in chunks {
            f(0, c, &mut local);
        }
        return vec![local];
    }
    run_pieces(t, chunks.len(), |i| chunks[i].clone(), &f)
}

/// Covariant-free wrapper making a raw slice pointer shareable across
/// participants; soundness comes from handing out disjoint subslices.
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Method (rather than field) access, so closures capture the whole
    /// `Sync` wrapper instead of the raw pointer field (edition-2021
    /// closures capture disjoint fields).
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Mutates `items` in parallel: each participant receives disjoint
/// `&mut [T]` windows, cut as in [`parallel_for`], along with the
/// window's starting index within `items`.
pub fn parallel_for_each_mut<T, F>(num_threads: usize, items: &mut [T], chunk_hint: usize, f: F)
where
    T: Send,
    F: Fn(usize, usize, &mut [T]) + Sync,
{
    let len = items.len();
    let base = SendPtr(items.as_mut_ptr());
    parallel_for(num_threads, len, chunk_hint, move |tid, range| {
        // SAFETY: chunk ranges partition `0..len` disjointly, so each
        // subslice is exclusively owned by one participant at a time.
        let slice =
            unsafe { std::slice::from_raw_parts_mut(base.get().add(range.start), range.len()) };
        f(tid, range.start, slice);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn covers_every_index_exactly_once_under_stealing() {
        // Skewed per-element cost provokes stealing between blocks.
        let hits: Vec<AtomicU64> = (0..5000).map(|_| AtomicU64::new(0)).collect();
        parallel_for(8, 5000, 7, |_tid, range| {
            for i in range {
                if i < 100 {
                    std::thread::sleep(std::time::Duration::from_micros(20));
                }
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn chunk_queues_cover_every_chunk_exactly_once() {
        let chunks: Vec<Range<usize>> = (0..97).map(|i| i * 10..(i + 1) * 10).collect();
        let locals =
            parallel_for_chunks_with_local::<Vec<usize>, _>(8, chunks, |_tid, range, local| {
                local.extend(range)
            });
        let mut all: Vec<usize> = locals.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..970).collect::<Vec<_>>());
    }

    #[test]
    fn nested_parallel_for_runs_inline() {
        let sum = AtomicUsize::new(0);
        parallel_for(4, 64, 4, |_tid, range| {
            for _ in range {
                // A nested call from inside a task must neither deadlock
                // nor re-enter the pool.
                parallel_for(4, 10, 2, |tid, inner| {
                    assert_eq!(tid, 0, "nested call must be inline");
                    sum.fetch_add(inner.len(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 64 * 10);
    }

    #[test]
    fn oversubscription_threads_exceed_items() {
        let locals = parallel_for_with_local::<Vec<usize>, _>(16, 3, 1, |_tid, r, local| {
            local.extend(r);
        });
        let mut all: Vec<usize> = locals.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2]);
    }

    #[test]
    fn panic_payload_propagates_and_pool_survives() {
        let err = std::panic::catch_unwind(|| {
            parallel_for(4, 100, 1, |_tid, range| {
                if range.contains(&37) {
                    panic!("boom at 37");
                }
            });
        })
        .expect_err("must propagate");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_string)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .expect("original payload");
        assert!(msg.contains("boom at 37"), "got: {msg}");
        // The pool must keep working after a panicking job.
        let sum = AtomicUsize::new(0);
        parallel_for(4, 1000, 8, |_tid, range| {
            sum.fetch_add(range.len(), Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn with_local_panic_does_not_deadlock() {
        let err = std::panic::catch_unwind(|| {
            parallel_for_with_local::<usize, _>(4, 100, 1, |_tid, range, _local| {
                if range.contains(&11) {
                    panic!("local boom");
                }
            });
        })
        .expect_err("must propagate");
        assert!(format!("{err:?}").len() > 0);
        let locals = parallel_for_with_local::<usize, _>(4, 100, 4, |_t, r, l| *l += r.len());
        assert_eq!(locals.into_iter().sum::<usize>(), 100);
    }

    #[test]
    fn parallel_for_each_mut_writes_disjoint_windows() {
        let mut items = vec![0usize; 4096];
        parallel_for_each_mut(8, &mut items, 64, |_tid, start, window| {
            for (i, x) in window.iter_mut().enumerate() {
                *x = start + i;
            }
        });
        assert!(items.iter().enumerate().all(|(i, &x)| x == i));
    }

    #[test]
    fn telemetry_counts_dispatch_and_parks() {
        if !ugc_telemetry::enabled() {
            // UGC_TELEMETRY=0: the counters are dead by design.
            assert_eq!(telemetry(), PoolTelemetry::default());
            return;
        }
        let before = telemetry();
        parallel_for(4, 10_000, 16, |_tid, _range| {});
        let after = telemetry();
        if clamp_participants(4) == 1 {
            // UGC_THREADS=1: everything runs inline.
            assert!(
                after.serial_runs > before.serial_runs,
                "serial fallback counted"
            );
            assert_eq!(after.jobs, before.jobs);
        } else {
            assert!(after.jobs > before.jobs, "dispatch must be counted");
            assert!(after.chunks > before.chunks);
            assert!(after.workers_spawned >= 3);
        }
    }

    #[test]
    fn zero_total_is_noop() {
        parallel_for(4, 0, 16, |_, _| panic!("must not run"));
        assert!(parallel_for_with_local::<usize, _>(4, 0, 16, |_, _, _| {}).is_empty());
        assert!(parallel_for_chunks_with_local::<usize, _>(4, Vec::new(), |_, _, _| {}).is_empty());
    }

    #[test]
    fn local_accumulators_merge() {
        let locals = parallel_for_with_local::<Vec<usize>, _>(4, 100, 3, |_tid, range, local| {
            local.extend(range);
        });
        let mut all: Vec<usize> = locals.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    /// Chunking depends only on the call: the ranges a dispatched call
    /// hands out stay the same after calls of the same size with slow and
    /// fast bodies, whose timings must not steer the next call's chunks.
    #[test]
    fn dispatched_ranges_depend_only_on_the_call() {
        let ranges = || {
            let locals = parallel_for_with_local::<Vec<Range<usize>>, _>(
                2,
                100_000,
                64,
                |_tid, range, local| local.push(range),
            );
            let mut all: Vec<Range<usize>> = locals.into_iter().flatten().collect();
            all.sort_unstable_by_key(|r| r.start);
            all
        };
        let first = ranges();
        assert_eq!(first.first().map(|r| r.start), Some(0));
        assert!(first.windows(2).all(|w| w[0].end == w[1].start));
        assert_eq!(first.last().map(|r| r.end), Some(100_000));
        for _ in 0..3 {
            parallel_for(2, 100_000, 64, |_tid, range| {
                for i in range {
                    std::hint::black_box(i);
                }
            });
            parallel_for(2, 100_000, 64, |_tid, _range| {});
            assert_eq!(ranges(), first);
        }
    }

    #[test]
    fn single_thread_is_serial_and_deterministic() {
        let locals = parallel_for_with_local::<Vec<usize>, _>(1, 10, 3, |tid, range, local| {
            assert_eq!(tid, 0);
            local.extend(range);
        });
        assert_eq!(locals, vec![(0..10).collect::<Vec<_>>()]);
    }
}
