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
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

use ugc_resilience::fault;
use ugc_resilience::sim_kit::apportion;
use ugc_telemetry::{Counter, Histogram};

ugc_resilience::cycle_ledger! {
    /// Where the simulated wall-clock cycles went, cumulatively per
    /// simulator.
    ///
    /// [`SwarmSim::time_cycles`] is the sum of the components. Each phase's
    /// elapsed time is split proportionally to the phase's per-core cycle
    /// categories (Fig. 11's breakdown), so the attribution reflects what
    /// the cores were doing while the clock advanced without changing the
    /// timing model itself.
    pub struct SwarmAttribution in "sim_swarm" {
        /// Time dominated by committed work.
        commit,
        /// Time dominated by aborted/re-executed work (plus penalties).
        abort,
        /// Time cores idled with no ready task.
        idle_no_task,
        /// Time cores stalled on a full commit queue.
        idle_cq_full,
        /// Time spent spilling overflowing task queues.
        spill,
        /// Sequential host cycles between phases.
        host,
    }
}

/// Registry handles for the `sim_swarm.` counters beside the cycle ledger.
struct Counters {
    tasks_spawned: Counter,
    commits: Counter,
    aborts: Counter,
    queue_occupancy: Histogram,
}

fn counters() -> &'static Counters {
    static COUNTERS: OnceLock<Counters> = OnceLock::new();
    COUNTERS.get_or_init(|| Counters {
        tasks_spawned: Counter::new("sim_swarm.tasks_spawned"),
        commits: Counter::new("sim_swarm.commits"),
        aborts: Counter::new("sim_swarm.aborts"),
        queue_occupancy: Histogram::new("sim_swarm.queue_occupancy"),
    })
}

/// Identifier of a task within one simulation.
pub type TaskId = usize;

/// A hasher for the `u64` keys (cache lines, hints) interned on entry to
/// [`SwarmSim::simulate`]: one multiply and a fold, where the default
/// SipHash costs tens of cycles per lookup. The maps it serves are only
/// ever probed by key, so the hash cannot move a cycle.
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

/// Dense ids for `keys`, numbered in order of first appearance.
#[derive(Default)]
struct Interner(HashMap<u64, u32, BuildHasherDefault<KeyHasher>>);

impl Interner {
    fn id(&mut self, key: u64) -> u32 {
        let next = self.0.len() as u32;
        *self.0.entry(key).or_insert(next)
    }
}

/// A task's hint id when it has none.
const NO_HINT: u32 = u32::MAX;

/// A set of commit positions: a bitset with a summary level, whose bit `w`
/// is set while word `w` is nonzero. Insert and remove are O(1); the
/// highest member and the lowest from a position skip 4 096 positions per
/// summary bit.
struct PosSet {
    words: Vec<u64>,
    summary: Vec<u64>,
}

impl PosSet {
    fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        PosSet {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
        }
    }

    fn insert(&mut self, p: u32) {
        let w = p as usize / 64;
        self.words[w] |= 1 << (p % 64);
        self.summary[w / 64] |= 1 << (w % 64);
    }

    fn remove(&mut self, p: u32) {
        let w = p as usize / 64;
        self.words[w] &= !(1 << (p % 64));
        if self.words[w] == 0 {
            self.summary[w / 64] &= !(1 << (w % 64));
        }
    }

    /// The highest member.
    fn max(&self) -> Option<u32> {
        let s = self.summary.iter().rposition(|&s| s != 0)?;
        let w = s * 64 + 63 - self.summary[s].leading_zeros() as usize;
        Some((w * 64 + 63 - self.words[w].leading_zeros() as usize) as u32)
    }

    /// The lowest member at or above `from`.
    fn first_from(&self, from: usize) -> Option<u32> {
        let mut w = from / 64;
        let bits = self.words.get(w)? & (!0u64 << (from % 64));
        if bits != 0 {
            return Some((w * 64 + bits.trailing_zeros() as usize) as u32);
        }
        w += 1;
        let mut s = w / 64;
        let mut live = self.summary.get(s)? & (!0u64 << (w % 64));
        while live == 0 {
            s += 1;
            live = *self.summary.get(s)?;
        }
        let w = s * 64 + live.trailing_zeros() as usize;
        Some((w * 64 + self.words[w].trailing_zeros() as usize) as u32)
    }
}

/// A multiset of commit positions: the [`PosSet`] of positions held, and
/// how many copies of each.
struct PosBag {
    set: PosSet,
    copies: Vec<u32>,
    len: usize,
    /// No member is below `low`.
    low: u32,
}

impl PosBag {
    fn new(n: usize) -> Self {
        PosBag {
            set: PosSet::new(n),
            copies: vec![0; n],
            len: 0,
            low: 0,
        }
    }

    fn push(&mut self, p: u32) {
        if self.copies[p as usize] == 0 {
            self.set.insert(p);
        }
        self.copies[p as usize] += 1;
        self.len += 1;
        self.low = self.low.min(p);
    }

    /// The lowest member.
    fn peek(&self) -> Option<u32> {
        self.set.first_from(self.low as usize)
    }

    /// Removes one copy of the lowest member, `p`.
    fn pop(&mut self, p: u32) {
        self.low = p;
        self.copies[p as usize] -= 1;
        self.len -= 1;
        if self.copies[p as usize] == 0 {
            self.set.remove(p);
        }
    }

    /// Removes every copy of `p`, returning how many.
    fn take(&mut self, p: u32) -> u32 {
        let n = std::mem::take(&mut self.copies[p as usize]);
        if n > 0 {
            self.set.remove(p);
            self.len -= n as usize;
        }
        n
    }
}

/// A line-list entry: a task and the dispatch generation that added it.
#[derive(Clone, Copy)]
struct Slot {
    task: u32,
    gen: u32,
}

/// Each task's cache lines as dense ids, and for each line the tasks that
/// touch it, in the order they were dispatched.
///
/// Removing a task bumps its generation, which kills every entry it has in
/// O(1); scans skip dead entries, and a list is compacted (its live entries
/// kept in order) once its dead entries outnumber its live ones. The live
/// entries are exactly those a `retain` on every removal would leave, in
/// the same order.
struct LineIndex {
    /// Task `t`'s reads then writes are `ids[start[t]..start[t + 1]]`; its
    /// writes begin at `writes_at[t]`.
    ids: Vec<u32>,
    start: Vec<u32>,
    writes_at: Vec<u32>,
    lists: Vec<Vec<Slot>>,
    /// Live entries per line.
    live: Vec<u32>,
    /// Current generation per task.
    gen: Vec<u32>,
}

impl LineIndex {
    fn new(tasks: &[TaskSpec]) -> Self {
        let mut lines = Interner::default();
        let total = tasks.iter().map(|s| s.reads.len() + s.writes.len()).sum();
        let mut ids = Vec::with_capacity(total);
        let mut start = Vec::with_capacity(tasks.len() + 1);
        let mut writes_at = Vec::with_capacity(tasks.len());
        start.push(0);
        for s in tasks {
            ids.extend(s.reads.iter().map(|&l| lines.id(l)));
            writes_at.push(ids.len() as u32);
            ids.extend(s.writes.iter().map(|&l| lines.id(l)));
            start.push(ids.len() as u32);
        }
        let n = lines.0.len();
        LineIndex {
            ids,
            start,
            writes_at,
            lists: vec![Vec::new(); n],
            live: vec![0; n],
            gen: vec![0; tasks.len()],
        }
    }

    /// Where task `t`'s lines sit in `ids`.
    fn span(&self, t: TaskId) -> std::ops::Range<usize> {
        self.start[t] as usize..self.start[t + 1] as usize
    }

    fn writes(&self, t: TaskId) -> &[u32] {
        &self.ids[self.writes_at[t] as usize..self.start[t + 1] as usize]
    }

    /// Adds a dispatched task to the lists of its lines.
    fn add(&mut self, t: TaskId) {
        let slot = Slot {
            task: t as u32,
            gen: self.gen[t],
        };
        for i in self.span(t) {
            let l = self.ids[i] as usize;
            self.lists[l].push(slot);
            self.live[l] += 1;
        }
    }

    /// Removes a committed or squashed task from the lists of its lines.
    fn remove(&mut self, t: TaskId) {
        self.gen[t] = self.gen[t].wrapping_add(1);
        for i in self.span(t) {
            let l = self.ids[i] as usize;
            let (list, live, gen) = (&mut self.lists[l], &mut self.live[l], &self.gen);
            *live -= 1;
            if list.len() - *live as usize > *live as usize {
                list.retain(|s| s.gen == gen[s.task as usize]);
            }
        }
    }

    /// The tasks with a live entry for line `l`, in list order.
    fn tasks_on(&self, l: u32) -> impl Iterator<Item = TaskId> + '_ {
        self.lists[l as usize]
            .iter()
            .filter(|s| s.gen == self.gen[s.task as usize])
            .map(|s| s.task as TaskId)
    }
}

/// Runnable entries found hint-blocked, parked until their hint frees.
///
/// Each event's dispatch walk visits runnable entries in commit order. A
/// hint-blocked entry it reaches stays runnable and is a no-op, so
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
/// blocked and its task ready. Entries become runnable again, and the walk
/// treats them as before, when their hint frees — before any walk
/// could dispatch their task through another entry — or when an abort
/// squashes their task back to waiting.
struct Parked {
    /// Parked commit positions (a task spawned twice can have two
    /// entries).
    entries: PosBag,
    /// Parked tasks by hint id. A hint with parked tasks has one wake-up
    /// `(time, hint)` pending.
    by_hint: Vec<Vec<TaskId>>,
    wakeups: BinaryHeap<Reverse<(u64, u32)>>,
}

impl Parked {
    fn new(num_tasks: usize, num_hints: usize) -> Self {
        Parked {
            entries: PosBag::new(num_tasks),
            by_hint: vec![Vec::new(); num_hints],
            wakeups: BinaryHeap::new(),
        }
    }

    /// Parks task `t`'s entry at commit position `pos`, blocked on `hint`
    /// until `busy_until`.
    fn park(&mut self, pos: u32, t: TaskId, hint: u32, busy_until: u64) {
        self.entries.push(pos);
        let waiting = &mut self.by_hint[hint as usize];
        if waiting.is_empty() {
            self.wakeups.push(Reverse((busy_until, hint)));
        }
        waiting.push(t);
    }

    /// Returns the entries of every hint free at `now` to `runnable`.
    fn wake(&mut self, now: u64, hint_busy: &[u64], order_pos: &[u32], runnable: &mut PosBag) {
        while let Some(&Reverse((at, hint))) = self.wakeups.peek() {
            if at > now {
                break;
            }
            self.wakeups.pop();
            let busy = hint_busy[hint as usize];
            if busy > now {
                // Taken again since: wake when that task finishes.
                self.wakeups.push(Reverse((busy, hint)));
                continue;
            }
            let mut waiting = std::mem::take(&mut self.by_hint[hint as usize]);
            for t in waiting.drain(..) {
                let pos = order_pos[t];
                for _ in 0..self.entries.take(pos) {
                    runnable.push(pos);
                }
            }
            self.by_hint[hint as usize] = waiting;
        }
    }

    /// Unparks the entries of `reset`'s tasks, squashed back to waiting:
    /// those the current walk has gone past (at or before `passed`) into
    /// `stash`, the rest into `runnable`, as the walk would have left them.
    fn release(
        &mut self,
        reset: &mut Vec<TaskId>,
        order_pos: &[u32],
        passed: Option<u32>,
        runnable: &mut PosBag,
        stash: &mut Vec<u32>,
    ) {
        for c in reset.drain(..) {
            let pos = order_pos[c];
            for _ in 0..self.entries.take(pos) {
                if passed.is_some_and(|p| pos <= p) {
                    stash.push(pos);
                } else {
                    runnable.push(pos);
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

/// Task ids in commit order: `(ts, id)` ascending, sorted as packed keys.
/// Ids fit in 32 bits, as every dense index of [`SwarmSim::simulate`]
/// assumes.
fn sorted_commit_order(tasks: &[TaskSpec]) -> Vec<u32> {
    let mut keys: Vec<u128> = tasks
        .iter()
        .enumerate()
        .map(|(t, s)| (u128::from(s.ts) << 32) | t as u128)
        .collect();
    keys.sort_unstable();
    keys.into_iter().map(|k| k as u32).collect()
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
    /// Wall-clock attribution; its total is [`SwarmSim::time_cycles`].
    pub attr: SwarmAttribution,
}

impl SwarmSim {
    /// Creates a simulator.
    pub fn new(cfg: SwarmConfig) -> Self {
        SwarmSim {
            cfg,
            stats: SwarmStats::default(),
            attr: SwarmAttribution::default(),
        }
    }

    /// Total simulated cycles so far.
    pub fn time_cycles(&self) -> u64 {
        self.attr.total()
    }

    /// Simulated milliseconds.
    pub fn time_ms(&self) -> f64 {
        self.time_cycles() as f64 / (self.cfg.clock_ghz * 1e6)
    }

    /// Charges sequential host cycles (setup between task phases).
    pub fn host_cycles(&mut self, cycles: u64) {
        self.attr.charge(SwarmAttribution {
            host: cycles,
            ..SwarmAttribution::default()
        });
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
        // Every index below is dense: tasks by id or by commit position,
        // lines and hints by the ids interned here.
        let commit_order = sorted_commit_order(tasks);
        let mut order_pos = vec![0u32; n];
        for (p, &t) in commit_order.iter().enumerate() {
            order_pos[t as usize] = p as u32;
        }
        let mut next_commit = 0usize; // index into commit_order
        let mut lines = LineIndex::new(tasks);
        let (hint, num_hints) = {
            let mut hints = Interner::default();
            let hint: Vec<u32> = tasks
                .iter()
                .map(|s| s.hint.map_or(NO_HINT, |h| hints.id(h)))
                .collect();
            (hint, hints.0.len())
        };
        let mut hint_busy = vec![0u64; num_hints];

        // `runnable`: available now, by commit position. `pending`: spawned
        // but not yet available, ordered by availability time.
        let mut runnable = PosBag::new(n);
        let mut pending: BinaryHeap<Reverse<(u64, TaskId)>> = BinaryHeap::new();
        for &r in roots {
            state[r] = TaskState::Ready(0);
            runnable.push(order_pos[r]);
        }
        let mut finish_events: BinaryHeap<Reverse<(u64, TaskId)>> = BinaryHeap::new();
        // Started (running or finished) uncommitted tasks by commit
        // position — the hardware commit queue.
        let mut window = PosSet::new(n);

        let mut now = 0u64;
        let mut idle_cores = self.cfg.num_cores;
        let mut uncommitted_started = 0usize; // running + finished
        #[allow(unused_assignments)]
        let mut window_was_full = false;

        let mut stats = SwarmStats::default();

        // Entries the current walk found hint-blocked (parked after it),
        // tasks an abort squashed back to waiting, and a commit's victims.
        let mut stash: Vec<u32> = Vec::new();
        let mut parked = Parked::new(n, num_hints);
        let mut reset: Vec<TaskId> = Vec::new();
        let mut victims: Vec<TaskId> = Vec::new();

        loop {
            // One histogram sample of task-queue pressure per event-loop
            // iteration (deterministic: the event loop is single-threaded).
            counters()
                .queue_occupancy
                .record((runnable.len + parked.entries.len + pending.len()) as u64);
            // Promote pending tasks that became available.
            while let Some(&Reverse((avail, t))) = pending.peek() {
                if avail > now {
                    break;
                }
                pending.pop();
                if matches!(state[t], TaskState::Ready(a) if a <= now) {
                    runnable.push(order_pos[t]);
                }
            }
            parked.wake(now, &hint_busy, &order_pos, &mut runnable);
            // Dispatch phase at `now`: walk the runnable entries in order.
            // Parked entries at or before `passed` are behind the walk.
            let barrier_ts = if barrier {
                commit_order.get(next_commit).map(|&t| tasks[t as usize].ts)
            } else {
                None
            };
            let window_full =
                |started: usize, cfg: &SwarmConfig| started >= cfg.commit_queue_capacity;
            stash.clear();
            let mut passed: Option<u32> = None;
            while idle_cores > 0 {
                let full = window_full(uncommitted_started, &self.cfg);
                let top = runnable.peek();
                // The walk reaches a parked entry before `top` only to
                // evict for it: a parked entry passed the barrier once,
                // and the barrier only ever moves later.
                let parked_next = full
                    .then(|| {
                        let from = passed.map_or(0, |p| p as usize + 1);
                        parked.entries.set.first_from(from)
                    })
                    .flatten()
                    .filter(|&p| top.is_none_or(|a| p < a));
                let Some(pos) = parked_next.or(top) else {
                    break;
                };
                let t = commit_order[pos as usize] as TaskId;
                if parked_next.is_none() {
                    let TaskState::Ready(avail) = state[t] else {
                        runnable.pop(pos);
                        passed = Some(pos);
                        continue; // stale entry
                    };
                    if avail > now {
                        runnable.pop(pos);
                        pending.push(Reverse((avail, t)));
                        passed = Some(pos);
                        continue; // re-aborted with a delay; requeue
                    }
                }
                if full {
                    // The commit queue is full. Real Swarm admits a task
                    // with earlier commit order by squashing the latest
                    // speculative task; otherwise dispatch stalls.
                    // (Cascaded aborts can leave stale window entries;
                    // drop them before picking a victim.)
                    while let Some(latest) = window.max() {
                        if matches!(
                            state[commit_order[latest as usize] as usize],
                            TaskState::Running(..) | TaskState::Finished(..)
                        ) {
                            break;
                        }
                        window.remove(latest);
                    }
                    match window.max() {
                        Some(latest) if pos < latest => {
                            window.remove(latest);
                            abort_recursive(
                                commit_order[latest as usize] as TaskId,
                                tasks,
                                &mut state,
                                &mut lines,
                                &mut pending,
                                &mut idle_cores,
                                &mut uncommitted_started,
                                &mut stats,
                                &mut reset,
                                now,
                                self.cfg.abort_penalty_cycles,
                            );
                            parked.release(
                                &mut reset,
                                &order_pos,
                                passed,
                                &mut runnable,
                                &mut stash,
                            );
                            // Retry this candidate with a free slot.
                            continue;
                        }
                        _ => break,
                    }
                }
                if let Some(bts) = barrier_ts {
                    if tasks[t].ts > bts {
                        break; // barrier: later rounds must wait
                    }
                }
                passed = Some(pos);
                // Hint serialization.
                let h = hint[t];
                if h != NO_HINT && hint_busy[h as usize] > now {
                    runnable.pop(pos);
                    stash.push(pos);
                    continue;
                }
                runnable.pop(pos);
                let finish = now + self.cfg.dispatch_cycles + tasks[t].duration;
                state[t] = TaskState::Running(now, finish);
                if h != NO_HINT {
                    hint_busy[h as usize] = finish;
                }
                lines.add(t);
                finish_events.push(Reverse((finish, t)));
                window.insert(pos);
                idle_cores -= 1;
                uncommitted_started += 1;
            }
            // Blocked entries of ready tasks wait for their hint; the rest
            // (squashed during the walk) are stale and go back as they are.
            for &pos in &stash {
                let t = commit_order[pos as usize] as TaskId;
                match (state[t], hint[t]) {
                    (TaskState::Ready(a), h) if h != NO_HINT && a <= now => {
                        parked.park(pos, t, h, hint_busy[h as usize]);
                    }
                    _ => runnable.push(pos),
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
                let spill =
                    tasks[t].children.len() + runnable.len + parked.entries.len + pending.len()
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
                            runnable.push(order_pos[c]);
                        } else {
                            pending.push(Reverse((avail, c)));
                        }
                    }
                }
            }

            // Commit in order; abort conflicting later tasks.
            while next_commit < n {
                let t = commit_order[next_commit] as TaskId;
                let TaskState::Finished(start, finish) = state[t] else {
                    break;
                };
                state[t] = TaskState::Committed;
                window.remove(next_commit as u32);
                next_commit += 1;
                uncommitted_started -= 1;
                stats.commits += 1;
                stats.commit_cycles += finish - start;
                // Conflict detection on written lines.
                victims.clear();
                for &l in lines.writes(t) {
                    for o in lines.tasks_on(l) {
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
                lines.remove(t);
                for &v in &victims {
                    window.remove(order_pos[v]);
                    abort_recursive(
                        v,
                        tasks,
                        &mut state,
                        &mut lines,
                        &mut pending,
                        &mut idle_cores,
                        &mut uncommitted_started,
                        &mut stats,
                        &mut reset,
                        now,
                        self.cfg.abort_penalty_cycles,
                    );
                    parked.release(&mut reset, &order_pos, None, &mut runnable, &mut stash);
                }
            }
        }

        let elapsed = now;
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
        // Attribute this phase's elapsed wall-clock proportionally to its
        // per-core cycle categories; the commit component takes the
        // integer-division remainder so the parts sum to `elapsed` exactly.
        let [commit, abort, idle_no_task, idle_cq_full, spill] = apportion(
            elapsed,
            [
                stats.commit_cycles,
                stats.abort_cycles,
                stats.idle_no_task_cycles,
                stats.idle_cq_full_cycles,
                stats.spill_cycles,
            ],
            0,
        );
        self.attr.charge(SwarmAttribution {
            commit,
            abort,
            idle_no_task,
            idle_cq_full,
            spill,
            host: 0,
        });
        elapsed
    }
}

#[allow(clippy::too_many_arguments)]
fn abort_recursive(
    t: TaskId,
    tasks: &[TaskSpec],
    state: &mut [TaskState],
    lines: &mut LineIndex,
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
                        lines,
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
    lines.remove(t);
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
