//! A discrete-event simulator of the Swarm architecture (paper §II-B3).
//!
//! Swarm executes tiny timestamped **tasks** speculatively and out of
//! order, committing them in timestamp order; the coherence protocol
//! detects order violations and aborts offending tasks. This simulator
//! models the mechanisms the Swarm GraphVM's optimizations manipulate:
//!
//! * a pool of cores greedily dispatching the lowest-timestamp ready task,
//! * a bounded **commit queue** (speculation window) — dispatch stalls when
//!   it fills,
//! * a bounded **task queue** — overflow spills to memory,
//! * **conflict detection** on cache-line read/write sets: when a task
//!   commits, later-ordered tasks that overlapped it in time and touched
//!   its written lines are aborted (with cascading aborts of their
//!   children) and re-executed,
//! * **spatial hints**: tasks carrying the same hint are serialized instead
//!   of speculated against each other, trading parallelism for aborts
//!   (paper §III-C3 "Fine-grained splitting and spatial hints"),
//! * an optional **barrier mode** modelling software work queues (one round
//!   may only start when the previous round fully committed) — the
//!   baseline that "vertex-set→tasks" eliminates.
//!
//! The simulation is two-phase: the GraphVM executes program logic
//! *functionally* in timestamp order (so memory state is always exact) and
//! records each task's duration, read/write lines, and spawned children;
//! [`SwarmSim::simulate`] then replays the task graph for timing. Aborted
//! tasks re-execute with identical footprints, which is exact for the
//! monotone graph updates UGC generates.
//!
//! Per-core time breakdowns (committed / aborted / idle variants / spill)
//! feed the paper's Fig. 11.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

use ugc_resilience::{budget, fault};
use ugc_telemetry::{Counter, Histogram};

/// Where the simulated wall-clock cycles went, cumulatively per simulator.
///
/// Components always sum to [`SwarmSim::time_cycles`]. Each phase's
/// elapsed time is split proportionally to the phase's per-core cycle
/// categories (Fig. 11's breakdown), so the attribution reflects what the
/// cores were doing while the clock advanced without changing the timing
/// model itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwarmAttribution {
    /// Time dominated by committed work.
    pub commit: u64,
    /// Time dominated by aborted/re-executed work (plus penalties).
    pub abort: u64,
    /// Time cores idled with no ready task.
    pub idle_no_task: u64,
    /// Time cores stalled on a full commit queue.
    pub idle_cq_full: u64,
    /// Time spent spilling overflowing task queues.
    pub spill: u64,
    /// Sequential host cycles between phases.
    pub host: u64,
}

impl SwarmAttribution {
    /// Sum of all components — always equals the simulator's total time.
    pub fn total(&self) -> u64 {
        self.commit + self.abort + self.idle_no_task + self.idle_cq_full + self.spill + self.host
    }

    /// Named components in display order.
    pub fn components(&self) -> [(&'static str, u64); 6] {
        [
            ("commit", self.commit),
            ("abort", self.abort),
            ("idle_no_task", self.idle_no_task),
            ("idle_cq_full", self.idle_cq_full),
            ("spill", self.spill),
            ("host", self.host),
        ]
    }
}

/// Registry handles for the `sim_swarm.` counter namespace.
struct Counters {
    commit: Counter,
    abort: Counter,
    idle_no_task: Counter,
    idle_cq_full: Counter,
    spill: Counter,
    host: Counter,
    total: Counter,
    tasks_spawned: Counter,
    commits: Counter,
    aborts: Counter,
    commit_order_merges: Counter,
    queue_occupancy: Histogram,
}

fn counters() -> &'static Counters {
    static COUNTERS: OnceLock<Counters> = OnceLock::new();
    COUNTERS.get_or_init(|| Counters {
        commit: Counter::new("sim_swarm.cycles.commit"),
        abort: Counter::new("sim_swarm.cycles.abort"),
        idle_no_task: Counter::new("sim_swarm.cycles.idle_no_task"),
        idle_cq_full: Counter::new("sim_swarm.cycles.idle_cq_full"),
        spill: Counter::new("sim_swarm.cycles.spill"),
        host: Counter::new("sim_swarm.cycles.host"),
        total: Counter::new("sim_swarm.cycles.total"),
        tasks_spawned: Counter::new("sim_swarm.tasks_spawned"),
        commits: Counter::new("sim_swarm.commits"),
        aborts: Counter::new("sim_swarm.aborts"),
        commit_order_merges: Counter::new("sim_swarm.commit_order_merges"),
        queue_occupancy: Histogram::new("sim_swarm.queue_occupancy"),
    })
}

/// Identifier of a task within one simulation.
pub type TaskId = usize;

/// A hasher for the simulator's `u64` keys (cache lines, hints): one
/// multiply and a fold, where the default SipHash costs tens of cycles per
/// lookup. The maps it serves are only ever probed by key — their
/// iteration order is never observed — so the hash cannot move a cycle.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, k: u64) {
        let x = (self.0 ^ k).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = x ^ (x >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by cache line or hint.
type KeyMap<V> = HashMap<u64, V, BuildHasherDefault<KeyHasher>>;

/// A runnable entry: `(timestamp, task)`, dispatched lowest first.
type Entry = (u64, TaskId);

/// Runnable entries found hint-blocked, parked until their hint frees.
///
/// Each event's dispatch walk visits runnable entries in `(ts, id)` order.
/// A hint-blocked entry it reaches stays runnable and is a no-op, so
/// re-examining every blocked entry on every event is pure host cost.
/// Parked entries are skipped instead, which is exact because reaching one
/// matters in only two ways, both kept:
///
/// * with the commit queue full, the first entry reached may squash the
///   latest speculative task, blocked or not;
/// * parked entries still count towards the task queue's occupancy.
///
/// (A barrier never stops the walk at one: it passed the barrier when it
/// was parked, and the barrier only moves later.) Every parked entry is
/// blocked and its task ready. Entries return to the runnable heap, where
/// the walk treats them as before, when their hint frees — before any walk
/// could dispatch their task through another entry — or when an abort
/// squashes their task back to waiting.
struct Parked {
    /// Parked keys; `copies[t]` counts task `t`'s parked entries (a task
    /// spawned twice can have two).
    keys: BTreeSet<Entry>,
    copies: Vec<u32>,
    len: usize,
    /// Parked tasks by hint. A hint with parked tasks has one wake-up
    /// `(time, hint)` pending.
    by_hint: KeyMap<Vec<TaskId>>,
    wakeups: BinaryHeap<Reverse<(u64, u64)>>,
}

impl Parked {
    fn new(num_tasks: usize) -> Self {
        Parked {
            keys: BTreeSet::new(),
            copies: vec![0; num_tasks],
            len: 0,
            by_hint: KeyMap::default(),
            wakeups: BinaryHeap::new(),
        }
    }

    /// Parks `entry`, blocked on `hint` until `busy_until`.
    fn park(&mut self, entry: Entry, hint: u64, busy_until: u64) {
        self.keys.insert(entry);
        self.copies[entry.1] += 1;
        self.len += 1;
        let waiting = self.by_hint.entry(hint).or_default();
        if waiting.is_empty() {
            self.wakeups.push(Reverse((busy_until, hint)));
        }
        waiting.push(entry.1);
    }

    /// Removes task `entry.1`'s parked entries, returning how many.
    fn take(&mut self, entry: Entry) -> u32 {
        let n = std::mem::take(&mut self.copies[entry.1]);
        if n > 0 {
            self.keys.remove(&entry);
            self.len -= n as usize;
        }
        n
    }

    /// The first parked entry after `after` (from the start on `None`).
    fn first_after(&self, after: Option<Entry>) -> Option<Entry> {
        use std::ops::Bound::{Excluded, Unbounded};
        match after {
            Some(a) => self.keys.range((Excluded(a), Unbounded)).next(),
            None => self.keys.first(),
        }
        .copied()
    }

    /// Returns the entries of every hint free at `now` to `runnable`.
    fn wake(
        &mut self,
        now: u64,
        hint_busy: &KeyMap<u64>,
        tasks: &[TaskSpec],
        runnable: &mut BinaryHeap<Reverse<Entry>>,
    ) {
        while let Some(&Reverse((at, hint))) = self.wakeups.peek() {
            if at > now {
                break;
            }
            self.wakeups.pop();
            let busy = hint_busy.get(&hint).copied().unwrap_or(0);
            if busy > now {
                // Taken again since: wake when that task finishes.
                self.wakeups.push(Reverse((busy, hint)));
                continue;
            }
            for t in self.by_hint.remove(&hint).unwrap_or_default() {
                let entry = (tasks[t].ts, t);
                for _ in 0..self.take(entry) {
                    runnable.push(Reverse(entry));
                }
            }
        }
    }

    /// Unparks the entries of `reset`'s tasks, squashed back to waiting:
    /// those the current walk has gone past (at or before `passed`) into
    /// `stash`, the rest into `runnable`, as the walk would have left them.
    fn release(
        &mut self,
        reset: &mut Vec<TaskId>,
        tasks: &[TaskSpec],
        passed: Option<Entry>,
        runnable: &mut BinaryHeap<Reverse<Entry>>,
        stash: &mut Vec<Entry>,
    ) {
        for c in reset.drain(..) {
            let entry = (tasks[c].ts, c);
            for _ in 0..self.take(entry) {
                if passed.is_some_and(|p| entry <= p) {
                    stash.push(entry);
                } else {
                    runnable.push(Reverse(entry));
                }
            }
        }
    }
}

/// Configuration of the simulated Swarm machine (Table VI flavored).
#[derive(Debug, Clone)]
pub struct SwarmConfig {
    /// Worker cores.
    pub num_cores: usize,
    /// Chip tiles (spatial-hint homes).
    pub num_tiles: usize,
    /// Commit-queue entries (speculation window).
    pub commit_queue_capacity: usize,
    /// Task-queue entries before spilling.
    pub task_queue_capacity: usize,
    /// Dispatch overhead per task.
    pub dispatch_cycles: u64,
    /// Extra penalty per abort (rollback, re-dispatch).
    pub abort_penalty_cycles: u64,
    /// Penalty per task spilled to memory.
    pub spill_cycles: u64,
    /// Clock in GHz for reports.
    pub clock_ghz: f64,
}

impl Default for SwarmConfig {
    fn default() -> Self {
        SwarmConfig {
            num_cores: 64,
            num_tiles: 16,
            commit_queue_capacity: 2048,
            task_queue_capacity: 8192,
            dispatch_cycles: 6,
            abort_penalty_cycles: 30,
            spill_cycles: 40,
            clock_ghz: 3.5,
        }
    }
}

impl SwarmConfig {
    /// A configuration with `n` cores (tiles scale proportionally).
    pub fn with_cores(mut self, n: usize) -> Self {
        self.num_tiles = (n / 4).max(1);
        self.commit_queue_capacity = 32 * n;
        self.task_queue_capacity = 128 * n;
        self.num_cores = n;
        self
    }
}

/// One task recorded by the GraphVM's functional execution.
#[derive(Debug, Clone, Default)]
pub struct TaskSpec {
    /// Commit-order timestamp (round or priority).
    pub ts: u64,
    /// Execution cycles (excluding dispatch).
    pub duration: u64,
    /// Cache lines read.
    pub reads: Vec<u64>,
    /// Cache lines written.
    pub writes: Vec<u64>,
    /// Spatial hint: tasks with equal hints serialize instead of
    /// conflicting.
    pub hint: Option<u64>,
    /// Tasks spawned when this task finishes.
    pub children: Vec<TaskId>,
}

/// Task graphs below this size are sorted serially (pool dispatch and the
/// merge pass would cost more than the sort).
const PARALLEL_SORT_MIN: usize = 1 << 14;

/// The commit order `(ts, id)` of a task graph. Large graphs are sorted
/// as per-worker runs on the persistent pool followed by a serial k-way
/// merge; keys are unique, so the result is deterministic and identical
/// to a serial sort.
fn sorted_commit_order(tasks: &[TaskSpec]) -> Vec<TaskId> {
    sorted_commit_order_on(tasks, ugc_runtime::pool::default_threads())
}

fn sorted_commit_order_on(tasks: &[TaskSpec], threads: usize) -> Vec<TaskId> {
    let n = tasks.len();
    let mut order: Vec<TaskId> = (0..n).collect();
    if n < PARALLEL_SORT_MIN || threads < 2 {
        order.sort_unstable_by_key(|&t| (tasks[t].ts, t));
        return order;
    }
    counters().commit_order_merges.incr();
    let runs = threads.min(8);
    let run_len = n.div_ceil(runs);
    let mut slices: Vec<&mut [TaskId]> = order.chunks_mut(run_len).collect();
    ugc_runtime::pool::parallel_for_each_mut(threads, &mut slices, 1, |_tid, _start, window| {
        for run in window {
            run.sort_unstable_by_key(|&t| (tasks[t].ts, t));
        }
    });
    // Serial k-way merge of the sorted runs.
    let bounds: Vec<(usize, usize)> = (0..slices.len())
        .map(|r| (r * run_len, (r * run_len + slices[r].len())))
        .collect();
    drop(slices);
    let mut cursors: Vec<usize> = bounds.iter().map(|&(s, _)| s).collect();
    let mut heap: BinaryHeap<Reverse<((u64, TaskId), usize)>> = BinaryHeap::new();
    for (r, &(s, e)) in bounds.iter().enumerate() {
        if s < e {
            let t = order[s];
            heap.push(Reverse(((tasks[t].ts, t), r)));
        }
    }
    let mut merged = Vec::with_capacity(n);
    while let Some(Reverse(((_, t), r))) = heap.pop() {
        merged.push(t);
        cursors[r] += 1;
        if cursors[r] < bounds[r].1 {
            let nt = order[cursors[r]];
            heap.push(Reverse(((tasks[nt].ts, nt), r)));
        }
    }
    merged
}

/// Aggregate statistics of one simulation (Fig. 11's categories).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwarmStats {
    /// Cycles spent executing work that committed.
    pub commit_cycles: u64,
    /// Cycles wasted on work that was aborted (plus penalties).
    pub abort_cycles: u64,
    /// Core-cycles idle with no ready task.
    pub idle_no_task_cycles: u64,
    /// Core-cycles stalled on a full commit queue.
    pub idle_cq_full_cycles: u64,
    /// Cycles spent spilling overflowing task queues.
    pub spill_cycles: u64,
    /// Tasks committed.
    pub commits: u64,
    /// Tasks aborted (counting repeats).
    pub aborts: u64,
}

impl SwarmStats {
    /// Total core-cycles across all categories.
    pub fn total_core_cycles(&self) -> u64 {
        self.commit_cycles
            + self.abort_cycles
            + self.idle_no_task_cycles
            + self.idle_cq_full_cycles
            + self.spill_cycles
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    /// Parent not finished yet.
    Waiting,
    /// Spawned; may start at `.0`.
    Ready(u64),
    /// On a core since `.0`, finishing at `.1`.
    Running(u64, u64),
    /// Executed (started `.0`, finished `.1`), awaiting commit.
    Finished(u64, u64),
    Committed,
}

/// The Swarm timing simulator.
#[derive(Debug)]
pub struct SwarmSim {
    /// Machine configuration.
    pub cfg: SwarmConfig,
    /// Statistics accumulated across [`SwarmSim::simulate`] calls.
    pub stats: SwarmStats,
    /// Wall-clock attribution; components sum to [`SwarmSim::time_cycles`].
    pub attr: SwarmAttribution,
    time: u64,
}

impl SwarmSim {
    /// Creates a simulator.
    pub fn new(cfg: SwarmConfig) -> Self {
        SwarmSim {
            cfg,
            stats: SwarmStats::default(),
            attr: SwarmAttribution::default(),
            time: 0,
        }
    }

    /// Records an attribution increment (the caller advances `time` by the
    /// same total) and mirrors it into the telemetry registry.
    fn attribute(&mut self, delta: SwarmAttribution) {
        self.attr.commit += delta.commit;
        self.attr.abort += delta.abort;
        self.attr.idle_no_task += delta.idle_no_task;
        self.attr.idle_cq_full += delta.idle_cq_full;
        self.attr.spill += delta.spill;
        self.attr.host += delta.host;
        let c = counters();
        c.commit.add(delta.commit);
        c.abort.add(delta.abort);
        c.idle_no_task.add(delta.idle_no_task);
        c.idle_cq_full.add(delta.idle_cq_full);
        c.spill.add(delta.spill);
        c.host.add(delta.host);
        c.total.add(delta.total());
    }

    /// Total simulated cycles so far.
    pub fn time_cycles(&self) -> u64 {
        self.time
    }

    /// Simulated milliseconds.
    pub fn time_ms(&self) -> f64 {
        self.time as f64 / (self.cfg.clock_ghz * 1e6)
    }

    /// Charges sequential host cycles (setup between task phases).
    pub fn host_cycles(&mut self, cycles: u64) {
        self.attribute(SwarmAttribution {
            host: cycles,
            ..SwarmAttribution::default()
        });
        self.time += cycles;
        budget::check_cycles(self.time);
    }

    /// Simulates a task graph. `roots` are initially ready; other tasks
    /// become ready when their parent finishes. With `barrier` set, a task
    /// may only start once every strictly-earlier-timestamp task has
    /// committed (software work-queue semantics).
    ///
    /// Returns the cycles this phase took; also advances total time.
    pub fn simulate(&mut self, tasks: &[TaskSpec], roots: &[TaskId], barrier: bool) -> u64 {
        if tasks.is_empty() {
            return 0;
        }
        // Injected abort storm: cascading aborts collapse the speculative
        // commit window for this phase — fatal to the attempt, retried by
        // the supervisor with a fresh draw stream.
        fault::roll_fatal(fault::Domain::Swarm, fault::FaultKind::TaskAbortStorm);
        counters().tasks_spawned.add(tasks.len() as u64);
        let n = tasks.len();
        let mut state = vec![TaskState::Waiting; n];
        // Commit order: (ts, id).
        let commit_order = sorted_commit_order(tasks);
        let order_pos: Vec<usize> = {
            let mut p = vec![0usize; n];
            for (i, &t) in commit_order.iter().enumerate() {
                p[t] = i;
            }
            p
        };
        let mut next_commit = 0usize; // index into commit_order

        // `runnable`: available now, ordered by (ts, id). `pending`:
        // spawned but not yet available, ordered by availability time.
        let mut runnable: BinaryHeap<Reverse<(u64, TaskId)>> = BinaryHeap::new();
        let mut pending: BinaryHeap<Reverse<(u64, TaskId)>> = BinaryHeap::new();
        for &r in roots {
            state[r] = TaskState::Ready(0);
            runnable.push(Reverse((tasks[r].ts, r)));
        }
        let mut finish_events: BinaryHeap<Reverse<(u64, TaskId)>> = BinaryHeap::new();
        let mut line_index: KeyMap<Vec<TaskId>> = KeyMap::default();
        let mut hint_busy: KeyMap<u64> = KeyMap::default();
        // Started (running or finished) uncommitted tasks by commit order —
        // the hardware commit queue.
        let mut window: BTreeSet<(usize, TaskId)> = BTreeSet::new();

        let mut now = 0u64;
        let mut idle_cores = self.cfg.num_cores;
        let mut uncommitted_started = 0usize; // running + finished
        #[allow(unused_assignments)]
        let mut window_was_full = false;

        let mut stats = SwarmStats::default();

        // Entries the current walk found hint-blocked (parked after it), and
        // tasks an abort squashed back to waiting.
        let mut stash: Vec<Entry> = Vec::new();
        let mut parked = Parked::new(n);
        let mut reset: Vec<TaskId> = Vec::new();

        loop {
            // One histogram sample of task-queue pressure per event-loop
            // iteration (deterministic: the event loop is single-threaded).
            counters()
                .queue_occupancy
                .record((runnable.len() + parked.len + pending.len()) as u64);
            // Promote pending tasks that became available.
            while let Some(&Reverse((avail, t))) = pending.peek() {
                if avail > now {
                    break;
                }
                pending.pop();
                if matches!(state[t], TaskState::Ready(a) if a <= now) {
                    runnable.push(Reverse((tasks[t].ts, t)));
                }
            }
            parked.wake(now, &hint_busy, tasks, &mut runnable);
            // Dispatch phase at `now`: walk the runnable entries in order.
            // Parked entries at or before `passed` are behind the walk.
            let barrier_ts = if barrier {
                commit_order.get(next_commit).map(|&t| tasks[t].ts)
            } else {
                None
            };
            let window_full =
                |started: usize, cfg: &SwarmConfig| started >= cfg.commit_queue_capacity;
            stash.clear();
            let mut passed: Option<Entry> = None;
            while idle_cores > 0 {
                let full = window_full(uncommitted_started, &self.cfg);
                let top = runnable.peek().map(|&Reverse(e)| e);
                // The walk reaches a parked entry before `top` only to
                // evict for it: a parked entry passed the barrier once,
                // and the barrier only ever moves later.
                let parked_next = full
                    .then(|| parked.first_after(passed))
                    .flatten()
                    .filter(|&p| top.is_none_or(|a| p < a));
                let Some((ts, t)) = parked_next.or(top) else {
                    break;
                };
                if parked_next.is_none() {
                    let TaskState::Ready(avail) = state[t] else {
                        runnable.pop();
                        passed = Some((ts, t));
                        continue; // stale heap entry
                    };
                    if avail > now {
                        runnable.pop();
                        pending.push(Reverse((avail, t)));
                        passed = Some((ts, t));
                        continue; // re-aborted with a delay; requeue
                    }
                }
                if full {
                    // The commit queue is full. Real Swarm admits a task
                    // with earlier commit order by squashing the latest
                    // speculative task; otherwise dispatch stalls.
                    // (Cascaded aborts can leave stale window entries;
                    // drop them before picking a victim.)
                    while let Some(&(opos, cand)) = window.iter().next_back() {
                        if matches!(
                            state[cand],
                            TaskState::Running(..) | TaskState::Finished(..)
                        ) {
                            break;
                        }
                        window.remove(&(opos, cand));
                    }
                    let evict = window.iter().next_back().copied();
                    match evict {
                        Some((opos, victim)) if order_pos[t] < opos => {
                            window.remove(&(opos, victim));
                            abort_recursive(
                                victim,
                                tasks,
                                &mut state,
                                &mut line_index,
                                &mut pending,
                                &mut idle_cores,
                                &mut uncommitted_started,
                                &mut stats,
                                &mut reset,
                                now,
                                self.cfg.abort_penalty_cycles,
                            );
                            parked.release(&mut reset, tasks, passed, &mut runnable, &mut stash);
                            // Retry this candidate with a free slot.
                            continue;
                        }
                        _ => break,
                    }
                }
                if let Some(bts) = barrier_ts {
                    if ts > bts {
                        break; // barrier: later rounds must wait
                    }
                }
                passed = Some((ts, t));
                // Hint serialization.
                if let Some(h) = tasks[t].hint {
                    if hint_busy.get(&h).copied().unwrap_or(0) > now {
                        runnable.pop();
                        stash.push((ts, t));
                        continue;
                    }
                }
                runnable.pop();
                let finish = now + self.cfg.dispatch_cycles + tasks[t].duration;
                state[t] = TaskState::Running(now, finish);
                if let Some(h) = tasks[t].hint {
                    hint_busy.insert(h, finish);
                }
                for &l in tasks[t].reads.iter().chain(tasks[t].writes.iter()) {
                    line_index.entry(l).or_default().push(t);
                }
                finish_events.push(Reverse((finish, t)));
                window.insert((order_pos[t], t));
                idle_cores -= 1;
                uncommitted_started += 1;
            }
            // Blocked entries of ready tasks wait for their hint; the rest
            // (squashed during the walk) are stale and go back as they are.
            for &(ts, t) in &stash {
                match (state[t], tasks[t].hint) {
                    (TaskState::Ready(a), Some(h)) if a <= now => {
                        parked.park((ts, t), h, hint_busy.get(&h).copied().unwrap_or(0));
                    }
                    _ => runnable.push(Reverse((ts, t))),
                }
            }
            window_was_full = window_full(uncommitted_started, &self.cfg) && idle_cores > 0;

            // Advance to the next event.
            let next_finish = finish_events.peek().map(|Reverse((f, _))| *f);
            let next_ready = pending.peek().map(|Reverse((a, _))| *a);
            let next_time = match (next_finish, next_ready) {
                (Some(f), Some(r)) => f.min(r),
                (Some(f), None) => f,
                (None, Some(r)) => r,
                (None, None) => break,
            };
            if next_time > now {
                let delta = next_time - now;
                let idle = idle_cores as u64 * delta;
                if window_was_full {
                    stats.idle_cq_full_cycles += idle;
                } else {
                    stats.idle_no_task_cycles += idle;
                }
                now = next_time;
            }

            // Process finishes at `now`.
            while let Some(&Reverse((f, t))) = finish_events.peek() {
                if f > now {
                    break;
                }
                finish_events.pop();
                let TaskState::Running(start, finish) = state[t] else {
                    continue; // aborted while running; stale event
                };
                if finish != f {
                    continue; // stale event from a pre-abort schedule
                }
                state[t] = TaskState::Finished(start, finish);
                idle_cores += 1;
                // Spawn children.
                let spill = tasks[t].children.len() + runnable.len() + parked.len + pending.len()
                    > self.cfg.task_queue_capacity;
                for &c in &tasks[t].children {
                    if state[c] == TaskState::Waiting {
                        let avail = if spill {
                            stats.spill_cycles += self.cfg.spill_cycles;
                            now + self.cfg.spill_cycles
                        } else {
                            now
                        };
                        state[c] = TaskState::Ready(avail);
                        if avail <= now {
                            runnable.push(Reverse((tasks[c].ts, c)));
                        } else {
                            pending.push(Reverse((avail, c)));
                        }
                    }
                }
            }

            // Commit in order; abort conflicting later tasks.
            while next_commit < commit_order.len() {
                let t = commit_order[next_commit];
                match state[t] {
                    TaskState::Finished(start, finish) => {
                        state[t] = TaskState::Committed;
                        next_commit += 1;
                        uncommitted_started -= 1;
                        window.remove(&(order_pos[t], t));
                        stats.commits += 1;
                        stats.commit_cycles += finish - start;
                        // Conflict detection on written lines.
                        let mut victims: Vec<TaskId> = Vec::new();
                        for &l in &tasks[t].writes {
                            if let Some(list) = line_index.get(&l) {
                                for &o in list {
                                    if o == t || order_pos[o] < order_pos[t] {
                                        continue;
                                    }
                                    let overlapped = match state[o] {
                                        TaskState::Running(s, _) => s < finish,
                                        TaskState::Finished(s, _) => s < finish,
                                        _ => false,
                                    };
                                    if overlapped {
                                        victims.push(o);
                                    }
                                }
                            }
                            // Committed task's lines leave the index.
                        }
                        for &l in tasks[t].reads.iter().chain(tasks[t].writes.iter()) {
                            if let Some(list) = line_index.get_mut(&l) {
                                list.retain(|&o| o != t);
                            }
                        }
                        for v in victims {
                            window.remove(&(order_pos[v], v));
                            abort_recursive(
                                v,
                                tasks,
                                &mut state,
                                &mut line_index,
                                &mut pending,
                                &mut idle_cores,
                                &mut uncommitted_started,
                                &mut stats,
                                &mut reset,
                                now,
                                self.cfg.abort_penalty_cycles,
                            );
                            parked.release(&mut reset, tasks, None, &mut runnable, &mut stash);
                        }
                    }
                    _ => break,
                }
            }
        }

        let elapsed = now;
        self.time += elapsed;
        // Attribute this phase's elapsed wall-clock proportionally to its
        // per-core cycle categories; the commit component takes the
        // integer-division remainder so the parts sum to `elapsed` exactly.
        let core_total = stats.total_core_cycles();
        let scale = |part: u64| {
            if core_total == 0 {
                0
            } else {
                ((elapsed as u128 * part as u128) / core_total as u128) as u64
            }
        };
        let mut delta = SwarmAttribution {
            commit: 0,
            abort: scale(stats.abort_cycles),
            idle_no_task: scale(stats.idle_no_task_cycles),
            idle_cq_full: scale(stats.idle_cq_full_cycles),
            spill: scale(stats.spill_cycles),
            host: 0,
        };
        delta.commit = elapsed - delta.total();
        self.attribute(delta);
        let c = counters();
        c.commits.add(stats.commits);
        c.aborts.add(stats.aborts);
        self.stats.commit_cycles += stats.commit_cycles;
        self.stats.abort_cycles += stats.abort_cycles;
        self.stats.idle_no_task_cycles += stats.idle_no_task_cycles;
        self.stats.idle_cq_full_cycles += stats.idle_cq_full_cycles;
        self.stats.spill_cycles += stats.spill_cycles;
        self.stats.commits += stats.commits;
        self.stats.aborts += stats.aborts;
        budget::check_cycles(self.time);
        elapsed
    }
}

#[allow(clippy::too_many_arguments)]
fn abort_recursive(
    t: TaskId,
    tasks: &[TaskSpec],
    state: &mut [TaskState],
    line_index: &mut KeyMap<Vec<TaskId>>,
    pending: &mut BinaryHeap<Reverse<(u64, TaskId)>>,
    idle_cores: &mut usize,
    uncommitted_started: &mut usize,
    stats: &mut SwarmStats,
    reset: &mut Vec<TaskId>,
    now: u64,
    penalty: u64,
) {
    let wasted = match state[t] {
        TaskState::Running(start, _) => {
            *idle_cores += 1; // core freed by the squash
            now.saturating_sub(start)
        }
        TaskState::Finished(start, finish) => {
            // Children may have started; squash them first.
            for &c in &tasks[t].children {
                match state[c] {
                    TaskState::Waiting | TaskState::Committed => {}
                    _ => abort_recursive(
                        c,
                        tasks,
                        state,
                        line_index,
                        pending,
                        idle_cores,
                        uncommitted_started,
                        stats,
                        reset,
                        now,
                        penalty,
                    ),
                }
            }
            finish - start
        }
        TaskState::Ready(_) | TaskState::Waiting | TaskState::Committed => return,
    };
    stats.aborts += 1;
    stats.abort_cycles += wasted + penalty;
    *uncommitted_started -= 1;
    for &l in tasks[t].reads.iter().chain(tasks[t].writes.iter()) {
        if let Some(list) = line_index.get_mut(&l) {
            list.retain(|&o| o != t);
        }
    }
    // Children of a squashed finished task go back to Waiting.
    for &c in &tasks[t].children {
        if matches!(state[c], TaskState::Ready(_)) {
            state[c] = TaskState::Waiting;
            reset.push(c);
        }
    }
    state[t] = TaskState::Ready(now + penalty);
    pending.push(Reverse((now + penalty, t)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_commit_order_matches_serial_sort() {
        // Big enough to take the parallel run-sort + merge path.
        let n = PARALLEL_SORT_MIN + 123;
        let tasks: Vec<TaskSpec> = (0..n)
            .map(|i| TaskSpec {
                // Scrambled, heavily duplicated timestamps.
                ts: ((i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 56) % 97,
                ..Default::default()
            })
            .collect();
        let mut expect: Vec<TaskId> = (0..n).collect();
        expect.sort_unstable_by_key(|&t| (tasks[t].ts, t));
        // Force the parallel run-sort + merge path regardless of host CPUs.
        assert_eq!(sorted_commit_order_on(&tasks, 4), expect);
        assert_eq!(sorted_commit_order(&tasks), expect);
    }

    fn task(ts: u64, duration: u64) -> TaskSpec {
        TaskSpec {
            ts,
            duration,
            ..Default::default()
        }
    }

    #[test]
    fn independent_tasks_run_in_parallel() {
        let tasks: Vec<TaskSpec> = (0..64).map(|_| task(0, 100)).collect();
        let roots: Vec<TaskId> = (0..64).collect();
        let mut sim = SwarmSim::new(SwarmConfig::default());
        let cycles = sim.simulate(&tasks, &roots, false);
        // 64 cores, 64 tasks: one wave.
        assert!(cycles < 150, "{cycles}");
        assert_eq!(sim.stats.commits, 64);
        assert_eq!(sim.stats.aborts, 0);
    }

    #[test]
    fn single_core_serializes() {
        let tasks: Vec<TaskSpec> = (0..8).map(|_| task(0, 100)).collect();
        let roots: Vec<TaskId> = (0..8).collect();
        let mut sim = SwarmSim::new(SwarmConfig::default().with_cores(1));
        let cycles = sim.simulate(&tasks, &roots, false);
        assert!(cycles >= 800, "{cycles}");
    }

    #[test]
    fn children_wait_for_parents() {
        let mut t0 = task(0, 50);
        t0.children = vec![1];
        let t1 = task(1, 50);
        let mut sim = SwarmSim::new(SwarmConfig::default());
        let cycles = sim.simulate(&[t0, t1], &[0], false);
        assert!(cycles >= 100, "{cycles}");
        assert_eq!(sim.stats.commits, 2);
    }

    #[test]
    fn write_read_conflict_aborts_later_task() {
        // Task 0 (ts 0, long) writes line 7; task 1 (ts 1, short) reads it
        // and starts speculatively before 0 finishes → abort + re-run.
        let mut t0 = task(0, 1000);
        t0.writes = vec![7];
        let mut t1 = task(1, 10);
        t1.reads = vec![7];
        let mut sim = SwarmSim::new(SwarmConfig::default());
        sim.simulate(&[t0, t1], &[0, 1], false);
        assert_eq!(sim.stats.aborts, 1);
        assert_eq!(sim.stats.commits, 2);
        assert!(sim.stats.abort_cycles > 0);
    }

    #[test]
    fn no_conflict_when_disjoint_lines() {
        let mut t0 = task(0, 1000);
        t0.writes = vec![7];
        let mut t1 = task(1, 10);
        t1.reads = vec![8];
        let mut sim = SwarmSim::new(SwarmConfig::default());
        sim.simulate(&[t0, t1], &[0, 1], false);
        assert_eq!(sim.stats.aborts, 0);
    }

    #[test]
    fn hints_serialize_instead_of_aborting() {
        // Two same-line writers with the same hint never overlap.
        let mk = || {
            let mut t = task(0, 500);
            t.writes = vec![7];
            t.hint = Some(7);
            t
        };
        let mut t0 = mk();
        t0.ts = 0;
        let mut t1 = mk();
        t1.ts = 1;
        let mut sim = SwarmSim::new(SwarmConfig::default());
        let cycles = sim.simulate(&[t0, t1], &[0, 1], false);
        assert_eq!(sim.stats.aborts, 0);
        assert!(cycles >= 1000, "serialized: {cycles}");
    }

    #[test]
    fn barrier_blocks_cross_round_speculation() {
        // Without barrier, round-1 task overlaps round-0 tasks.
        let mut t0 = task(0, 1000);
        t0.children = vec![];
        let t1 = task(1, 1000);
        let mut sim_free = SwarmSim::new(SwarmConfig::default());
        let free = sim_free.simulate(&[t0.clone(), t1.clone()], &[0, 1], false);
        let mut sim_bar = SwarmSim::new(SwarmConfig::default());
        let barred = sim_bar.simulate(&[t0, t1], &[0, 1], true);
        assert!(free < barred, "free {free} vs barrier {barred}");
    }

    #[test]
    fn commit_queue_limit_stalls() {
        let cfg = SwarmConfig {
            num_cores: 4,
            commit_queue_capacity: 2,
            ..Default::default()
        };
        // Task 0 is long; later tasks finish fast but can't commit (order)
        // and the window of 2 stalls dispatch.
        let mut tasks = vec![task(0, 10_000)];
        for _ in 0..6 {
            tasks.push(task(1, 10));
        }
        let roots: Vec<TaskId> = (0..tasks.len()).collect();
        let mut sim = SwarmSim::new(cfg);
        sim.simulate(&tasks, &roots, false);
        assert!(sim.stats.idle_cq_full_cycles > 0);
    }

    #[test]
    fn cascading_abort_squashes_children() {
        // t0 (ts 0, slow) writes line L. t1 (ts 1, fast) reads L and spawns
        // t2; all must be squashed and re-run.
        let mut t0 = task(0, 1000);
        t0.writes = vec![5];
        let mut t1 = task(1, 10);
        t1.reads = vec![5];
        t1.children = vec![2];
        let t2 = task(2, 10);
        let mut sim = SwarmSim::new(SwarmConfig::default());
        sim.simulate(&[t0, t1, t2], &[0, 1], false);
        assert!(sim.stats.aborts >= 1);
        assert_eq!(sim.stats.commits, 3);
    }

    #[test]
    fn task_queue_overflow_spills() {
        let cfg = SwarmConfig {
            num_cores: 2,
            task_queue_capacity: 4,
            ..Default::default()
        };
        // A root that fans out far beyond the task queue.
        let mut tasks = vec![TaskSpec {
            ts: 0,
            duration: 10,
            children: (1..64).collect(),
            ..Default::default()
        }];
        for _ in 1..64 {
            tasks.push(TaskSpec {
                ts: 1,
                duration: 10,
                ..Default::default()
            });
        }
        let mut sim = SwarmSim::new(cfg);
        sim.simulate(&tasks, &[0], false);
        assert!(sim.stats.spill_cycles > 0, "{:?}", sim.stats);
        assert_eq!(sim.stats.commits, 64);
    }

    #[test]
    fn window_eviction_admits_earlier_order() {
        // The commit queue fills with later-ordered speculation while
        // commit is blocked on a long-running earliest task; a
        // late-arriving earlier-ordered child must be admitted by
        // squashing the latest speculation rather than deadlocking.
        let cfg = SwarmConfig {
            num_cores: 4,
            commit_queue_capacity: 4,
            ..Default::default()
        };
        let mut long_blocker = task(0, 10_000);
        long_blocker.children = vec![];
        let mut spawner = task(1, 10);
        spawner.children = vec![2];
        let child = task(2, 10);
        let filler_a = task(3, 10_000);
        let filler_b = task(3, 10_000);
        let tasks = vec![long_blocker, spawner, child, filler_a, filler_b];
        let mut sim = SwarmSim::new(cfg);
        sim.simulate(&tasks, &[0, 1, 3, 4], false);
        assert_eq!(sim.stats.commits, 5);
        assert!(
            sim.stats.aborts > 0,
            "eviction should have squashed: {:?}",
            sim.stats
        );
    }

    #[test]
    fn attribution_components_sum_to_total_time() {
        let mut sim = SwarmSim::new(SwarmConfig::default().with_cores(4));
        sim.host_cycles(123);
        // A conflicting workload (aborts), a fan-out (spills with a tiny
        // queue would need config; idle shows up regardless), two phases.
        let mut t0 = task(0, 1000);
        t0.writes = vec![7];
        let mut t1 = task(1, 10);
        t1.reads = vec![7];
        sim.simulate(&[t0, t1], &[0, 1], false);
        sim.simulate(
            &(0..32).map(|_| task(0, 50)).collect::<Vec<_>>(),
            &(0..32).collect::<Vec<_>>(),
            false,
        );
        sim.host_cycles(7);
        assert_eq!(sim.attr.total(), sim.time_cycles());
        assert_eq!(sim.attr.host, 130);
        assert!(sim.attr.commit > 0);
    }

    #[test]
    fn stats_accumulate_across_phases() {
        let mut sim = SwarmSim::new(SwarmConfig::default());
        sim.simulate(&[task(0, 10)], &[0], false);
        sim.simulate(&[task(0, 10)], &[0], false);
        assert_eq!(sim.stats.commits, 2);
        assert!(sim.time_cycles() > 0);
        assert!(sim.time_ms() > 0.0);
    }

    #[test]
    fn empty_graph_is_zero_cycles() {
        let mut sim = SwarmSim::new(SwarmConfig::default());
        assert_eq!(sim.simulate(&[], &[], false), 0);
    }
}
