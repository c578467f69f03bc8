//! The three simulators against reference copies of the code they replaced.
//!
//! `GpuSim::run_kernel`, `HbSim::run_phase` and `SwarmSim::simulate` keep
//! flat tag arrays, sorted buffers, linear lists and an in-crate hasher
//! where they used per-set `Vec`s and SipHash maps, and Swarm parks
//! hint-blocked tasks instead of re-examining them on every event. Those
//! are host-time choices: no simulated cycle may move. The reference
//! models below are the map-based code as it was — the GPU copy walks a
//! warp's segments out of a `BTreeSet`, the ascending order the simulator
//! now guarantees — and seeded traces drive reference and simulator
//! through small machines where LRU eviction, bank and line sharing,
//! same-address atomics, full commit and task queues, spills, hints,
//! barriers and cascading aborts all fire. Cycles, statistics and
//! attribution must agree after every call.

use ugc_sim_gpu::{AccessKind, GpuConfig, GpuSim, LaneTrace, MemAccess, WarpTrace};
use ugc_sim_hb::{CoreTrace, HbAccess, HbConfig, HbSim};
use ugc_sim_swarm::{SwarmConfig, SwarmSim, TaskId, TaskSpec};
use ugc_testkit::{check, gen, Config, NoShrink, Prng};

/// A set-associative LRU cache as the simulators kept it: one MRU-first
/// `Vec` per set.
struct RefCache {
    sets: Vec<Vec<u64>>,
    ways: usize,
    num_sets: u64,
}

impl RefCache {
    fn new(capacity: u64, block: u64, ways: usize) -> Self {
        let lines = (capacity / block).max(1);
        let num_sets = (lines / ways as u64).max(1);
        RefCache {
            sets: vec![Vec::with_capacity(ways); num_sets as usize],
            ways,
            num_sets,
        }
    }

    fn access(&mut self, tag: u64) -> bool {
        let set = &mut self.sets[(tag % self.num_sets) as usize];
        if let Some(pos) = set.iter().position(|&s| s == tag) {
            let t = set.remove(pos);
            set.insert(0, t);
            true
        } else {
            if set.len() == self.ways {
                set.pop();
            }
            set.insert(0, tag);
            false
        }
    }
}

mod gpu_ref {
    use std::collections::{BTreeSet, HashMap};

    use ugc_sim_gpu::{AccessKind, GpuAttribution, GpuConfig, GpuStats, WarpTrace};

    use super::RefCache;

    /// `GpuSim` with its per-warp `HashMap`s, segments walked in order.
    pub struct RefGpu {
        pub cfg: GpuConfig,
        pub stats: GpuStats,
        pub attr: GpuAttribution,
        pub time: u64,
        l2: RefCache,
    }

    impl RefGpu {
        pub fn new(cfg: GpuConfig) -> Self {
            RefGpu {
                l2: RefCache::new(cfg.l2_bytes, cfg.txn_bytes, cfg.l2_ways),
                cfg,
                stats: GpuStats::default(),
                attr: GpuAttribution::default(),
                time: 0,
            }
        }

        fn attribute(&mut self, d: GpuAttribution) {
            self.attr.compute += d.compute;
            self.attr.divergence += d.divergence;
            self.attr.mem_stall += d.mem_stall;
            self.attr.launch += d.launch;
            self.attr.host += d.host;
        }

        pub fn flush_l2(&mut self) {
            self.l2 = RefCache::new(
                self.l2.num_sets * self.l2.ways as u64 * self.cfg.txn_bytes,
                self.cfg.txn_bytes,
                self.l2.ways,
            );
        }

        pub fn run_kernel(&mut self, warps: &[WarpTrace], fused: bool) -> u64 {
            let mut total_warp_cycles: u64 = 0;
            let mut max_warp_cycles: u64 = 0;
            let mut kernel_dram_bytes: u64 = 0;
            let mut num_warps: u64 = 0;
            let mut compute_raw: u64 = 0;
            let mut divergence_raw: u64 = 0;
            let mut mem_raw: u64 = 0;
            for warp in warps {
                num_warps += 1;
                let mut compute_max: u64 = 0;
                let mut lane_compute_sum: u64 = 0;
                let mut segments: BTreeSet<u64> = BTreeSet::new();
                let mut atomic_groups: HashMap<u64, u64> = HashMap::new();
                for lane in &warp.lanes {
                    compute_max = compute_max.max(lane.computes as u64);
                    lane_compute_sum += lane.computes as u64;
                    for a in &lane.mem {
                        segments.insert(a.segment(self.cfg.txn_bytes));
                        if a.kind == AccessKind::Atomic {
                            let addr = ((a.prop as u64) << 28) + (a.idx as u64) * 4;
                            *atomic_groups.entry(addr).or_insert(0) += 1;
                            self.stats.atomics += 1;
                        }
                    }
                }
                let mut txn_cycles: u64 = 0;
                for &seg in &segments {
                    self.stats.transactions += 1;
                    if self.l2.access(seg) {
                        self.stats.l2_hits += 1;
                        txn_cycles += self.cfg.txn_issue_cycles;
                    } else {
                        self.stats.l2_misses += 1;
                        txn_cycles += self.cfg.txn_issue_cycles + self.cfg.dram_extra_cycles;
                        kernel_dram_bytes += self.cfg.txn_bytes;
                    }
                }
                let mut atomic_cycles: u64 = 0;
                for (_, count) in atomic_groups {
                    atomic_cycles +=
                        self.cfg.atomic_cycles + (count - 1) * self.cfg.atomic_conflict_cycles;
                }
                let warp_cycles = compute_max + txn_cycles + atomic_cycles;
                total_warp_cycles += warp_cycles;
                max_warp_cycles = max_warp_cycles.max(warp_cycles);
                let mean_compute = lane_compute_sum / warp.lanes.len().max(1) as u64;
                compute_raw += mean_compute;
                divergence_raw += (compute_max - mean_compute) + atomic_cycles;
                mem_raw += txn_cycles;
            }
            self.stats.warps += num_warps;
            self.stats.warp_cycles += total_warp_cycles;
            self.stats.dram_bytes += kernel_dram_bytes;
            let issue = total_warp_cycles / self.cfg.num_sms;
            let bw = kernel_dram_bytes / self.cfg.dram_bytes_per_cycle;
            let work = issue.max(max_warp_cycles).max(bw);
            let mut cycles = work;
            let launch = if fused {
                0
            } else {
                self.stats.kernels += 1;
                cycles += self.cfg.kernel_launch_cycles;
                self.cfg.kernel_launch_cycles
            };
            let raw_total = compute_raw + divergence_raw + mem_raw;
            let scale = |part: u64| {
                if raw_total == 0 {
                    0
                } else {
                    ((work as u128 * part as u128) / raw_total as u128) as u64
                }
            };
            let (compute, divergence) = (scale(compute_raw), scale(divergence_raw));
            self.attribute(GpuAttribution {
                compute,
                divergence,
                mem_stall: work - compute - divergence,
                launch,
                host: 0,
            });
            self.time += cycles;
            cycles
        }

        pub fn charge_launch(&mut self) {
            self.stats.kernels += 1;
            self.attribute(GpuAttribution {
                launch: self.cfg.kernel_launch_cycles,
                ..GpuAttribution::default()
            });
            self.time += self.cfg.kernel_launch_cycles;
        }

        pub fn grid_sync(&mut self) {
            self.stats.grid_syncs += 1;
            self.attribute(GpuAttribution {
                launch: self.cfg.grid_sync_cycles,
                ..GpuAttribution::default()
            });
            self.time += self.cfg.grid_sync_cycles;
        }

        pub fn host_cycles(&mut self, cycles: u64) {
            self.attribute(GpuAttribution {
                host: cycles,
                ..GpuAttribution::default()
            });
            self.time += cycles;
        }
    }
}

mod hb_ref {
    use std::collections::HashMap;

    use ugc_sim_hb::{CoreTrace, HbAccess, HbAttribution, HbConfig, HbStats};

    use super::RefCache;

    /// `HbSim` with its `HashMap` bank loads, line users and stream buffers.
    pub struct RefHb {
        pub cfg: HbConfig,
        pub stats: HbStats,
        pub attr: HbAttribution,
        pub time: u64,
        llc: RefCache,
    }

    impl RefHb {
        pub fn new(cfg: HbConfig) -> Self {
            RefHb {
                llc: RefCache::new(cfg.llc_bytes, cfg.line_bytes, cfg.llc_ways),
                cfg,
                stats: HbStats::default(),
                attr: HbAttribution::default(),
                time: 0,
            }
        }

        fn attribute(&mut self, d: HbAttribution) {
            self.attr.compute += d.compute;
            self.attr.llc_access += d.llc_access;
            self.attr.dram_stall += d.dram_stall;
            self.attr.bank += d.bank;
            self.attr.barrier += d.barrier;
            self.attr.host += d.host;
        }

        pub fn host_cycles(&mut self, cycles: u64) {
            self.attribute(HbAttribution {
                host: cycles,
                ..HbAttribution::default()
            });
            self.time += cycles;
        }

        fn line_of(&self, prop: u32, idx: u32) -> u64 {
            (((prop as u64) << 28) + (idx as u64) * 4) / self.cfg.line_bytes
        }

        pub fn run_phase(&mut self, cores: &[CoreTrace]) -> u64 {
            self.stats.phases += 1;
            let mut max_core: u64 = 0;
            let mut bank_load: HashMap<usize, u64> = HashMap::new();
            let mut phase_dram_bytes: u64 = 0;
            let mut compute_raw: u64 = 0;
            let mut llc_raw: u64 = 0;
            let mut dram_raw: u64 = 0;
            let mut line_users: HashMap<u64, (usize, bool)> = HashMap::new();
            for (core_id, trace) in cores.iter().enumerate() {
                let mut core_time = trace.computes;
                let mut stream: HashMap<u32, u64> = HashMap::new();
                self.stats.compute_cycles += trace.computes;
                compute_raw += trace.computes;
                for a in &trace.accesses {
                    match *a {
                        HbAccess::Demand { prop, idx, write } => {
                            let line = self.line_of(prop, idx);
                            if !write && stream.get(&prop) == Some(&line) {
                                compute_raw += 1;
                                core_time += 1;
                                continue;
                            }
                            stream.insert(prop, line);
                            let user = line_users.entry(line).or_insert((core_id, false));
                            if user.0 != core_id {
                                user.1 = true;
                            }
                            let hit = self.llc.access(line);
                            *bank_load
                                .entry((line % self.cfg.llc_banks as u64) as usize)
                                .or_insert(0) += self.cfg.bank_cycles;
                            let (lat, miss_stall) = if hit {
                                self.stats.llc_hits += 1;
                                (self.cfg.llc_hit_cycles, 0)
                            } else {
                                self.stats.llc_misses += 1;
                                phase_dram_bytes += self.cfg.line_bytes;
                                let stall = self.cfg.dram_cycles;
                                self.stats.dram_stall_cycles += stall / self.cfg.demand_overlap;
                                (
                                    self.cfg.llc_hit_cycles + stall,
                                    stall / self.cfg.demand_overlap,
                                )
                            };
                            let added = if write {
                                2
                            } else {
                                lat / self.cfg.demand_overlap
                            };
                            let dram_part = miss_stall.min(added);
                            dram_raw += dram_part;
                            llc_raw += added - dram_part;
                            core_time += added;
                        }
                        HbAccess::Bulk {
                            prop,
                            start,
                            count,
                            write,
                        } => {
                            if count == 0 {
                                continue;
                            }
                            let first = self.line_of(prop, start);
                            let last = self.line_of(prop, start + count - 1);
                            let mut lines = 0u64;
                            let mut misses = 0u64;
                            for line in first..=last {
                                lines += 1;
                                let hit = self.llc.access(line);
                                *bank_load
                                    .entry((line % self.cfg.llc_banks as u64) as usize)
                                    .or_insert(0) += self.cfg.bank_cycles.div_ceil(2);
                                if hit {
                                    self.stats.llc_hits += 1;
                                } else {
                                    self.stats.llc_misses += 1;
                                    phase_dram_bytes += self.cfg.line_bytes;
                                    misses += 1;
                                }
                            }
                            let lat =
                                lines * self.cfg.llc_hit_cycles + misses * self.cfg.dram_cycles;
                            let stall = lat / self.cfg.bulk_overlap;
                            let miss_stall = misses * self.cfg.dram_cycles / self.cfg.bulk_overlap;
                            self.stats.dram_stall_cycles += miss_stall;
                            let added = if write { lines * 2 } else { stall.max(lines) };
                            let dram_part = if write { 0 } else { miss_stall.min(added) };
                            dram_raw += dram_part;
                            llc_raw += added - dram_part;
                            core_time += added;
                        }
                    }
                }
                max_core = max_core.max(core_time);
            }
            for (line, (_, shared)) in &line_users {
                if *shared {
                    *bank_load
                        .entry((line % self.cfg.llc_banks as u64) as usize)
                        .or_insert(0) += self.cfg.line_contention_cycles;
                }
            }
            let bank_bound = bank_load.values().copied().max().unwrap_or(0);
            let bw_bound = phase_dram_bytes
                / (self.cfg.hbm_channels as u64 * self.cfg.channel_bytes_per_cycle).max(1);
            self.stats.dram_bytes += phase_dram_bytes;
            let work = max_core.max(bank_bound).max(bw_bound);
            let cycles = work + self.cfg.barrier_cycles;
            let raw_total = compute_raw + llc_raw + dram_raw + bank_bound;
            let scale = |part: u64| {
                if raw_total == 0 {
                    0
                } else {
                    ((work as u128 * part as u128) / raw_total as u128) as u64
                }
            };
            let (compute, llc_access, bank) =
                (scale(compute_raw), scale(llc_raw), scale(bank_bound));
            self.attribute(HbAttribution {
                compute,
                llc_access,
                dram_stall: work - compute - llc_access - bank,
                bank,
                barrier: self.cfg.barrier_cycles,
                host: 0,
            });
            self.time += cycles;
            cycles
        }
    }
}

mod swarm_ref {
    use std::cmp::Reverse;
    use std::collections::{BTreeSet, BinaryHeap, HashMap};

    use ugc_sim_swarm::{SwarmAttribution, SwarmConfig, SwarmStats, TaskId, TaskSpec};

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum TaskState {
        Waiting,
        Ready(u64),
        Running(u64, u64),
        Finished(u64, u64),
        Committed,
    }

    /// `SwarmSim` with its SipHash maps and its dispatch loop that pops and
    /// re-pushes every hint-blocked task on every event.
    pub struct RefSwarm {
        pub cfg: SwarmConfig,
        pub stats: SwarmStats,
        pub attr: SwarmAttribution,
        pub time: u64,
    }

    impl RefSwarm {
        pub fn new(cfg: SwarmConfig) -> Self {
            RefSwarm {
                cfg,
                stats: SwarmStats::default(),
                attr: SwarmAttribution::default(),
                time: 0,
            }
        }

        fn attribute(&mut self, d: SwarmAttribution) {
            self.attr.commit += d.commit;
            self.attr.abort += d.abort;
            self.attr.idle_no_task += d.idle_no_task;
            self.attr.idle_cq_full += d.idle_cq_full;
            self.attr.spill += d.spill;
            self.attr.host += d.host;
        }

        pub fn host_cycles(&mut self, cycles: u64) {
            self.attribute(SwarmAttribution {
                host: cycles,
                ..SwarmAttribution::default()
            });
            self.time += cycles;
        }

        /// `SwarmSim::simulate`, or `None` once the event loop has run
        /// `max_events` times: a graph whose children order before their
        /// parents can squash and respawn the same tasks forever.
        pub fn simulate(
            &mut self,
            tasks: &[TaskSpec],
            roots: &[TaskId],
            barrier: bool,
            max_events: usize,
        ) -> Option<u64> {
            if tasks.is_empty() {
                return Some(0);
            }
            let n = tasks.len();
            let mut state = vec![TaskState::Waiting; n];
            let mut commit_order: Vec<TaskId> = (0..n).collect();
            commit_order.sort_unstable_by_key(|&t| (tasks[t].ts, t));
            let mut order_pos = vec![0usize; n];
            for (i, &t) in commit_order.iter().enumerate() {
                order_pos[t] = i;
            }
            let mut next_commit = 0usize;
            let mut runnable: BinaryHeap<Reverse<(u64, TaskId)>> = BinaryHeap::new();
            let mut pending: BinaryHeap<Reverse<(u64, TaskId)>> = BinaryHeap::new();
            for &r in roots {
                state[r] = TaskState::Ready(0);
                runnable.push(Reverse((tasks[r].ts, r)));
            }
            let mut finish_events: BinaryHeap<Reverse<(u64, TaskId)>> = BinaryHeap::new();
            let mut line_index: HashMap<u64, Vec<TaskId>> = HashMap::new();
            let mut hint_busy: HashMap<u64, u64> = HashMap::new();
            let mut window: BTreeSet<(usize, TaskId)> = BTreeSet::new();
            let mut now = 0u64;
            let mut idle_cores = self.cfg.num_cores;
            let mut uncommitted_started = 0usize;
            let mut stats = SwarmStats::default();
            let mut stash: Vec<(u64, TaskId)> = Vec::new();
            for event in 0.. {
                if event == max_events {
                    return None;
                }
                while let Some(&Reverse((avail, t))) = pending.peek() {
                    if avail > now {
                        break;
                    }
                    pending.pop();
                    if matches!(state[t], TaskState::Ready(a) if a <= now) {
                        runnable.push(Reverse((tasks[t].ts, t)));
                    }
                }
                let barrier_ts = if barrier {
                    commit_order.get(next_commit).map(|&t| tasks[t].ts)
                } else {
                    None
                };
                let window_full =
                    |started: usize, cfg: &SwarmConfig| started >= cfg.commit_queue_capacity;
                stash.clear();
                while idle_cores > 0 {
                    let Some(&Reverse((ts, t))) = runnable.peek() else {
                        break;
                    };
                    let TaskState::Ready(avail) = state[t] else {
                        runnable.pop();
                        continue;
                    };
                    if avail > now {
                        runnable.pop();
                        pending.push(Reverse((avail, t)));
                        continue;
                    }
                    if window_full(uncommitted_started, &self.cfg) {
                        while let Some(&(opos, cand)) = window.iter().next_back() {
                            if matches!(
                                state[cand],
                                TaskState::Running(..) | TaskState::Finished(..)
                            ) {
                                break;
                            }
                            window.remove(&(opos, cand));
                        }
                        match window.iter().next_back().copied() {
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
                                    now,
                                    self.cfg.abort_penalty_cycles,
                                );
                                continue;
                            }
                            _ => break,
                        }
                    }
                    if let Some(bts) = barrier_ts {
                        if ts > bts {
                            break;
                        }
                    }
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
                for &(_, t) in &stash {
                    runnable.push(Reverse((tasks[t].ts, t)));
                }
                let window_was_full = window_full(uncommitted_started, &self.cfg) && idle_cores > 0;
                let next_finish = finish_events.peek().map(|Reverse((f, _))| *f);
                let next_ready = pending.peek().map(|Reverse((a, _))| *a);
                let next_time = match (next_finish, next_ready) {
                    (Some(f), Some(r)) => f.min(r),
                    (Some(f), None) => f,
                    (None, Some(r)) => r,
                    (None, None) => break,
                };
                if next_time > now {
                    let idle = idle_cores as u64 * (next_time - now);
                    if window_was_full {
                        stats.idle_cq_full_cycles += idle;
                    } else {
                        stats.idle_no_task_cycles += idle;
                    }
                    now = next_time;
                }
                while let Some(&Reverse((f, t))) = finish_events.peek() {
                    if f > now {
                        break;
                    }
                    finish_events.pop();
                    let TaskState::Running(start, finish) = state[t] else {
                        continue;
                    };
                    if finish != f {
                        continue;
                    }
                    state[t] = TaskState::Finished(start, finish);
                    idle_cores += 1;
                    let spill = tasks[t].children.len() + runnable.len() + pending.len()
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
                while next_commit < commit_order.len() {
                    let t = commit_order[next_commit];
                    let TaskState::Finished(start, finish) = state[t] else {
                        break;
                    };
                    state[t] = TaskState::Committed;
                    next_commit += 1;
                    uncommitted_started -= 1;
                    window.remove(&(order_pos[t], t));
                    stats.commits += 1;
                    stats.commit_cycles += finish - start;
                    let mut victims: Vec<TaskId> = Vec::new();
                    for &l in &tasks[t].writes {
                        if let Some(list) = line_index.get(&l) {
                            for &o in list {
                                if o == t || order_pos[o] < order_pos[t] {
                                    continue;
                                }
                                let overlapped = match state[o] {
                                    TaskState::Running(s, _) | TaskState::Finished(s, _) => {
                                        s < finish
                                    }
                                    _ => false,
                                };
                                if overlapped {
                                    victims.push(o);
                                }
                            }
                        }
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
                            now,
                            self.cfg.abort_penalty_cycles,
                        );
                    }
                }
            }
            let elapsed = now;
            self.time += elapsed;
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
            self.stats.commit_cycles += stats.commit_cycles;
            self.stats.abort_cycles += stats.abort_cycles;
            self.stats.idle_no_task_cycles += stats.idle_no_task_cycles;
            self.stats.idle_cq_full_cycles += stats.idle_cq_full_cycles;
            self.stats.spill_cycles += stats.spill_cycles;
            self.stats.commits += stats.commits;
            self.stats.aborts += stats.aborts;
            Some(elapsed)
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn abort_recursive(
        t: TaskId,
        tasks: &[TaskSpec],
        state: &mut [TaskState],
        line_index: &mut HashMap<u64, Vec<TaskId>>,
        pending: &mut BinaryHeap<Reverse<(u64, TaskId)>>,
        idle_cores: &mut usize,
        uncommitted_started: &mut usize,
        stats: &mut SwarmStats,
        now: u64,
        penalty: u64,
    ) {
        let wasted = match state[t] {
            TaskState::Running(start, _) => {
                *idle_cores += 1;
                now.saturating_sub(start)
            }
            TaskState::Finished(start, finish) => {
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
        for &c in &tasks[t].children {
            if matches!(state[c], TaskState::Ready(_)) {
                state[c] = TaskState::Waiting;
            }
        }
        state[t] = TaskState::Ready(now + penalty);
        pending.push(Reverse((now + penalty, t)));
    }
}

// ---------------------------------------------------------------------------
// GPU
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum GpuOp {
    Kernel(Vec<WarpTrace>, bool),
    Launch,
    GridSync,
    Host(u64),
    Flush,
}

fn gpu_case(rng: &mut Prng) -> (GpuConfig, Vec<GpuOp>) {
    let ways = rng.gen_range(1..=4usize);
    let sets = rng.gen_range(1..=4u64);
    let cfg = GpuConfig {
        num_sms: rng.gen_range(1..=4u64),
        l2_ways: ways,
        l2_bytes: sets * ways as u64 * 32,
        atomic_conflict_cycles: rng.gen_range(1..=6u64),
        ..GpuConfig::default()
    };
    let lane = |rng: &mut Prng| LaneTrace {
        computes: rng.gen_range(0..24u32),
        mem: gen::vec_of(rng, 0..5, |rng| MemAccess {
            kind: gen::one_of(
                rng,
                &[AccessKind::Load, AccessKind::Store, AccessKind::Atomic],
            ),
            prop: rng.gen_range(0..3u32),
            // Eight elements per segment: a few dozen segments in all.
            idx: rng.gen_range(0..48u32),
        }),
    };
    let ops = gen::vec_of(rng, 1..8, |rng| match rng.gen_range(0..8u32) {
        0 => GpuOp::Launch,
        1 => GpuOp::GridSync,
        2 => GpuOp::Host(rng.gen_range(0..100u64)),
        3 => GpuOp::Flush,
        _ => {
            let warps = gen::vec_of(rng, 0..6, |rng| {
                let lanes = if rng.gen_bool(0.2) { 32 } else { 6 };
                WarpTrace {
                    lanes: gen::vec_of(rng, 1..lanes + 1, lane),
                }
            });
            GpuOp::Kernel(warps, rng.gen_bool(0.5))
        }
    });
    (cfg, ops)
}

#[test]
fn gpu_run_kernel_matches_the_map_based_reference() {
    check(
        "gpu_run_kernel_matches_the_map_based_reference",
        Config::with_cases(256),
        |rng| NoShrink(gpu_case(rng)),
        |NoShrink((cfg, ops))| {
            let mut sim = GpuSim::new(cfg.clone());
            let mut reference = gpu_ref::RefGpu::new(cfg.clone());
            for (i, op) in ops.iter().enumerate() {
                match op {
                    GpuOp::Kernel(warps, fused) => {
                        let got = sim.run_kernel("k", warps.clone().into_iter(), *fused);
                        assert_eq!(got, reference.run_kernel(warps, *fused), "op {i}");
                    }
                    GpuOp::Launch => {
                        sim.charge_launch();
                        reference.charge_launch();
                    }
                    GpuOp::GridSync => {
                        sim.grid_sync();
                        reference.grid_sync();
                    }
                    GpuOp::Host(c) => {
                        sim.host_cycles(*c);
                        reference.host_cycles(*c);
                    }
                    GpuOp::Flush => {
                        sim.flush_l2();
                        reference.flush_l2();
                    }
                }
                assert_eq!(sim.time_cycles(), reference.time, "op {i}");
                assert_eq!(sim.stats, reference.stats, "op {i}");
                assert_eq!(sim.attr, reference.attr, "op {i}");
            }
        },
    );
}

// ---------------------------------------------------------------------------
// HammerBlade
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum HbOp {
    Phase(Vec<CoreTrace>),
    Host(u64),
}

fn hb_case(rng: &mut Prng) -> (HbConfig, Vec<HbOp>) {
    let ways = rng.gen_range(1..=4usize);
    let sets = rng.gen_range(1..=4u64);
    let cfg = HbConfig {
        llc_banks: rng.gen_range(1..=4usize),
        llc_ways: ways,
        llc_bytes: sets * ways as u64 * 32,
        bank_cycles: rng.gen_range(1..=3u64),
        ..HbConfig::default()
    };
    let access = |rng: &mut Prng| {
        let (prop, write) = (rng.gen_range(0..3u32), rng.gen_bool(0.3));
        if rng.gen_bool(0.8) {
            HbAccess::Demand {
                prop,
                idx: rng.gen_range(0..64u32),
                write,
            }
        } else {
            HbAccess::Bulk {
                prop,
                start: rng.gen_range(0..64u32),
                count: rng.gen_range(0..20u32),
                write,
            }
        }
    };
    let ops = gen::vec_of(rng, 1..6, |rng| {
        if rng.gen_bool(0.2) {
            HbOp::Host(rng.gen_range(0..100u64))
        } else {
            HbOp::Phase(gen::vec_of(rng, 0..7, |rng| CoreTrace {
                computes: rng.gen_range(0..50u64),
                accesses: gen::vec_of(rng, 0..16, access),
            }))
        }
    });
    (cfg, ops)
}

#[test]
fn hb_run_phase_matches_the_map_based_reference() {
    check(
        "hb_run_phase_matches_the_map_based_reference",
        Config::with_cases(256),
        |rng| NoShrink(hb_case(rng)),
        |NoShrink((cfg, ops))| {
            let mut sim = HbSim::new(cfg.clone());
            let mut reference = hb_ref::RefHb::new(cfg.clone());
            for (i, op) in ops.iter().enumerate() {
                match op {
                    HbOp::Phase(cores) => {
                        let got = sim.run_phase("p", cores.clone());
                        assert_eq!(got, reference.run_phase(cores), "op {i}");
                    }
                    HbOp::Host(c) => {
                        sim.host_cycles(*c);
                        reference.host_cycles(*c);
                    }
                }
                assert_eq!(sim.time_cycles(), reference.time, "op {i}");
                assert_eq!(sim.stats, reference.stats, "op {i}");
                assert_eq!(sim.attr, reference.attr, "op {i}");
            }
        },
    );
}

// ---------------------------------------------------------------------------
// Swarm
// ---------------------------------------------------------------------------

/// One `simulate` call: tasks, roots, barrier mode.
type SwarmPhase = (Vec<TaskSpec>, Vec<TaskId>, bool);

/// Event-loop iterations after which a reference run counts as a livelock:
/// far above what any generated forest needs to finish.
const MAX_EVENTS: usize = 20_000;

/// A task forest as the GraphVM records it: a child's id and timestamp are
/// never below its parent's, footprints are sorted and distinct, and a few
/// lines and hints are shared by many tasks. One forest in four also has
/// children timestamped before their parents, which `simulate` accepts
/// and the GraphVM never builds: only there can an abort squash a task the
/// dispatch walk has already gone past.
fn swarm_phase(rng: &mut Prng) -> SwarmPhase {
    let n = rng.gen_range(1..48usize);
    let backward = rng.gen_bool(0.25);
    let mut tasks: Vec<TaskSpec> = Vec::with_capacity(n);
    let mut roots = Vec::new();
    let lines = |rng: &mut Prng, max: usize| {
        let mut v = gen::vec_of(rng, 0..max, |rng| rng.gen_range(0..10u64));
        v.sort_unstable();
        v.dedup();
        v
    };
    for i in 0..n {
        let parent = (i > 0 && rng.gen_bool(0.6)).then(|| rng.gen_range(0..i));
        let ts = match parent {
            Some(p) if backward && rng.gen_bool(0.5) => tasks[p].ts.saturating_sub(1),
            Some(p) => tasks[p].ts + rng.gen_range(0..=1u64),
            None => rng.gen_range(0..4u64),
        };
        match parent {
            Some(p) => tasks[p].children.push(i),
            None => roots.push(i),
        }
        tasks.push(TaskSpec {
            ts,
            duration: rng.gen_range(1..60u64),
            reads: lines(rng, 4),
            writes: lines(rng, 3),
            hint: rng.gen_bool(0.6).then(|| rng.gen_range(0..4u64)),
            children: Vec::new(),
        });
    }
    (tasks, roots, rng.gen_bool(0.3))
}

fn swarm_case(rng: &mut Prng) -> (SwarmConfig, Vec<Option<SwarmPhase>>) {
    let cfg = SwarmConfig {
        num_cores: rng.gen_range(1..=4usize),
        commit_queue_capacity: rng.gen_range(2..=8usize),
        task_queue_capacity: 4,
        dispatch_cycles: rng.gen_range(1..=6u64),
        abort_penalty_cycles: rng.gen_range(1..=30u64),
        spill_cycles: rng.gen_range(0..=40u64),
        ..SwarmConfig::default()
    };
    // `None` charges host cycles between phases.
    let phases = gen::vec_of(rng, 1..4, |rng| {
        (!rng.gen_bool(0.2)).then(|| swarm_phase(rng))
    });
    (cfg, phases)
}

#[test]
fn swarm_simulate_matches_the_map_based_reference() {
    check(
        "swarm_simulate_matches_the_map_based_reference",
        Config::with_cases(512),
        |rng| NoShrink(swarm_case(rng)),
        |NoShrink((cfg, phases))| {
            let mut sim = SwarmSim::new(cfg.clone());
            let mut reference = swarm_ref::RefSwarm::new(cfg.clone());
            for (i, phase) in phases.iter().enumerate() {
                match phase {
                    Some((tasks, roots, barrier)) => {
                        let Some(want) = reference.simulate(tasks, roots, *barrier, MAX_EVENTS)
                        else {
                            return; // livelocked: nothing to compare
                        };
                        assert_eq!(sim.simulate(tasks, roots, *barrier), want, "phase {i}");
                    }
                    None => {
                        sim.host_cycles(17);
                        reference.host_cycles(17);
                    }
                }
                assert_eq!(sim.time_cycles(), reference.time, "phase {i}");
                assert_eq!(sim.stats, reference.stats, "phase {i}");
                assert_eq!(sim.attr, reference.attr, "phase {i}");
            }
        },
    );
}

/// An abort squashes a parked task that the current dispatch walk has
/// already gone past. Only a child ordered before its parent makes that
/// possible, so random forests almost never build it. Timeline (3 cores,
/// commit queue 4, task queue 3):
///
/// * t=0: `y` (hint 1, long), `p` and `v` start;
/// * t=6: `v` finishes and spawns `x` (hint 1, ordered before `v`); `y`
///   holds the hint, so `x` is parked;
/// * t=11: `p` spawns `d` and `c`. The walk passes `x`, starts `d` (the
///   commit queue is now full), and `c` squashes the latest task, `v`,
///   which sends `x` back to waiting;
/// * t=15: `d` finishes with two children. `x`'s stale entry is still
///   queued, as the reference left it, so they spill.
///
/// The forest never finishes — `x` must commit before `v`, which it waits
/// on — and both models stop at the same partial run.
#[test]
fn swarm_squash_behind_the_walk_matches_the_reference() {
    let task = |ts: u64, duration: u64, hint: Option<u64>, children: Vec<TaskId>| TaskSpec {
        ts,
        duration,
        reads: Vec::new(),
        writes: Vec::new(),
        hint,
        children,
    };
    let tasks = vec![
        task(0, 100, Some(1), vec![]), // y
        task(1, 10, None, vec![4, 5]), // p
        task(5, 5, None, vec![3]),     // v
        task(0, 5, Some(1), vec![]),   // x
        task(2, 3, None, vec![6, 7]),  // d
        task(3, 20, None, vec![]),     // c
        task(2, 1, None, vec![]),
        task(2, 1, None, vec![]),
    ];
    let cfg = SwarmConfig {
        num_cores: 3,
        commit_queue_capacity: 4,
        task_queue_capacity: 3,
        dispatch_cycles: 1,
        abort_penalty_cycles: 5,
        spill_cycles: 5,
        ..SwarmConfig::default()
    };
    let mut reference = swarm_ref::RefSwarm::new(cfg.clone());
    let want = reference.simulate(&tasks, &[0, 1, 2], false, MAX_EVENTS);
    assert!(reference.stats.spill_cycles > 0, "{:?}", reference.stats);
    let mut sim = SwarmSim::new(cfg);
    assert_eq!(Some(sim.simulate(&tasks, &[0, 1, 2], false)), want);
    assert_eq!(sim.stats, reference.stats);
    assert_eq!(sim.attr, reference.attr);
}

/// The generators reach the corners the oracles exist for: without these
/// the three properties above could pass on traces that never evict,
/// contend, spill or abort.
#[test]
fn oracle_traces_reach_the_corners() {
    let mut rng = Prng::with_stream(0x5EED, 0);
    let (mut evictions, mut shared, mut conflicts) = (0, 0, 0);
    let (mut spills, mut aborts, mut cq_full) = (0, 0, 0);
    for _ in 0..64 {
        let (cfg, ops) = gpu_case(&mut rng);
        let mut reference = gpu_ref::RefGpu::new(cfg.clone());
        for op in &ops {
            if let GpuOp::Kernel(warps, fused) = op {
                reference.run_kernel(warps, *fused);
            }
        }
        evictions += u64::from(reference.stats.l2_misses > 3 * (cfg.l2_bytes / 32));
        conflicts += u64::from(reference.attr.divergence > 0);
        let (cfg, ops) = hb_case(&mut rng);
        let mut reference = hb_ref::RefHb::new(cfg);
        for op in &ops {
            if let HbOp::Phase(cores) = op {
                let solo = reference.attr.bank;
                reference.run_phase(cores);
                shared += u64::from(reference.attr.bank > solo);
            }
        }
        let (cfg, phases) = swarm_case(&mut rng);
        let mut reference = swarm_ref::RefSwarm::new(cfg);
        for (tasks, roots, barrier) in phases.iter().flatten() {
            reference.simulate(tasks, roots, *barrier, MAX_EVENTS);
        }
        spills += u64::from(reference.stats.spill_cycles > 0);
        aborts += u64::from(reference.stats.aborts > 0);
        cq_full += u64::from(reference.stats.idle_cq_full_cycles > 0);
    }
    for (what, n) in [
        ("GPU L2 evictions", evictions),
        ("GPU atomic or lockstep serialization", conflicts),
        ("HB bank occupancy", shared),
        ("Swarm spills", spills),
        ("Swarm aborts", aborts),
        ("Swarm full commit queues", cq_full),
    ] {
        assert!(n >= 8, "{what}: only {n} of 64 cases");
    }
}
