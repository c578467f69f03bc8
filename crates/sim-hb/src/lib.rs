//! A timing simulator of the HammerBlade manycore (paper §II-B4, Fig. 3b,
//! Table VII).
//!
//! HammerBlade is a grid of simple RISC-V cores with software-managed
//! scratchpads, a banked last-level cache, and HBM channels. The paper's
//! HammerBlade GraphVM optimizations are entirely about the memory system,
//! so that is what this model captures:
//!
//! * **non-blocking memory operations**: a core overlaps independent
//!   requests; *bulk* (prefetch) requests pipeline deeply while *demand*
//!   requests overlap only a little — the mechanism behind the
//!   blocked-access optimization,
//! * a **banked LLC** (line-granular, set-associative): alignment-based
//!   partitioning pays off as line reuse and reduced bank contention,
//! * **HBM bandwidth** as a throughput roof,
//! * a **barrier** per kernel phase (SPMD execution).
//!
//! The simulator reports the Table IX metrics natively: DRAM stall cycles
//! and achieved memory bandwidth.

use std::sync::OnceLock;

use ugc_resilience::{budget, fault};
use ugc_telemetry::Counter;

/// Where the simulated cycles went, cumulatively per simulator instance.
///
/// Components always sum to [`HbSim::time_cycles`]. Each phase's charge
/// beyond the fixed barrier is split proportionally to the raw cycle
/// classification accumulated while costing the traces (core compute,
/// LLC access latency, DRAM stall, bank occupancy), so the model's
/// timing math is classified, never changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HbAttribution {
    /// Core-local scalar work (including scratchpad/stream-buffer hits).
    pub compute: u64,
    /// LLC access latency (network hop + hit service).
    pub llc_access: u64,
    /// DRAM stalls (miss latency and bandwidth-roofline excess).
    pub dram_stall: u64,
    /// LLC bank occupancy/contention serialization.
    pub bank: u64,
    /// Per-phase SPMD barrier and dispatch.
    pub barrier: u64,
    /// Sequential host cycles.
    pub host: u64,
}

impl HbAttribution {
    /// Sum of all components — always equals the simulator's total time.
    pub fn total(&self) -> u64 {
        self.compute + self.llc_access + self.dram_stall + self.bank + self.barrier + self.host
    }

    /// Named components in display order.
    pub fn components(&self) -> [(&'static str, u64); 6] {
        [
            ("compute", self.compute),
            ("llc_access", self.llc_access),
            ("dram_stall", self.dram_stall),
            ("bank", self.bank),
            ("barrier", self.barrier),
            ("host", self.host),
        ]
    }
}

/// Registry handles for the `sim_hb.` counter namespace.
struct Counters {
    compute: Counter,
    llc_access: Counter,
    dram_stall: Counter,
    bank: Counter,
    barrier: Counter,
    host: Counter,
    total: Counter,
    phases: Counter,
    network_hops: Counter,
    llc_hits: Counter,
    llc_misses: Counter,
    scratchpad_hits: Counter,
    dram_bytes: Counter,
}

fn counters() -> &'static Counters {
    static COUNTERS: OnceLock<Counters> = OnceLock::new();
    COUNTERS.get_or_init(|| Counters {
        compute: Counter::new("sim_hb.cycles.compute"),
        llc_access: Counter::new("sim_hb.cycles.llc_access"),
        dram_stall: Counter::new("sim_hb.cycles.dram_stall"),
        bank: Counter::new("sim_hb.cycles.bank"),
        barrier: Counter::new("sim_hb.cycles.barrier"),
        host: Counter::new("sim_hb.cycles.host"),
        total: Counter::new("sim_hb.cycles.total"),
        phases: Counter::new("sim_hb.phases"),
        network_hops: Counter::new("sim_hb.network_hops"),
        llc_hits: Counter::new("sim_hb.llc_hits"),
        llc_misses: Counter::new("sim_hb.llc_misses"),
        scratchpad_hits: Counter::new("sim_hb.scratchpad_hits"),
        dram_bytes: Counter::new("sim_hb.dram_bytes"),
    })
}

/// Configuration of the simulated manycore (Table VII flavored).
#[derive(Debug, Clone)]
pub struct HbConfig {
    /// Grid columns (fixed at 16 in the paper's scaling study).
    pub cols: usize,
    /// Grid rows (2/4/8/16 in the scaling study).
    pub rows: usize,
    /// LLC banks.
    pub llc_banks: usize,
    /// LLC capacity in bytes.
    pub llc_bytes: u64,
    /// LLC associativity.
    pub llc_ways: usize,
    /// Bytes per cache line.
    pub line_bytes: u64,
    /// LLC hit latency (cycles).
    pub llc_hit_cycles: u64,
    /// Additional DRAM latency on a miss (cycles).
    pub dram_cycles: u64,
    /// Bank occupancy per access (cycles).
    pub bank_cycles: u64,
    /// HBM channels.
    pub hbm_channels: usize,
    /// Bytes per cycle per channel.
    pub channel_bytes_per_cycle: u64,
    /// Outstanding non-blocking requests a core can overlap on demand
    /// accesses.
    pub demand_overlap: u64,
    /// Outstanding requests during bulk (prefetch) transfers.
    pub bulk_overlap: u64,
    /// Extra bank occupancy when multiple cores touch the same line in one
    /// phase (NoC/merge contention).
    pub line_contention_cycles: u64,
    /// Host dispatch + barrier cost per kernel phase.
    pub barrier_cycles: u64,
    /// Clock in GHz.
    pub clock_ghz: f64,
}

impl Default for HbConfig {
    fn default() -> Self {
        HbConfig {
            cols: 16,
            rows: 8,
            llc_banks: 32,
            llc_bytes: 128 << 10,
            llc_ways: 8,
            line_bytes: 32,
            llc_hit_cycles: 20,
            dram_cycles: 100,
            bank_cycles: 1,
            hbm_channels: 2,
            channel_bytes_per_cycle: 32,
            demand_overlap: 2,
            bulk_overlap: 8,
            line_contention_cycles: 6,
            barrier_cycles: 1500,
            clock_ghz: 1.0,
        }
    }
}

impl HbConfig {
    /// Number of cores in the grid.
    pub fn num_cores(&self) -> usize {
        self.cols * self.rows
    }

    /// A configuration with the given number of rows (16 columns fixed, as
    /// in the paper's Fig. 10a sweep).
    pub fn with_rows(mut self, rows: usize) -> Self {
        self.rows = rows;
        self
    }
}

/// One memory access (or bulk transfer) issued by a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HbAccess {
    /// A dependent (pointer-chasing style) access to one element.
    Demand {
        /// Array id.
        prop: u32,
        /// Element index.
        idx: u32,
        /// Whether it writes.
        write: bool,
    },
    /// A pipelined sequential transfer of `count` elements starting at
    /// `start` (scratchpad prefetch, neighbor-list scan).
    Bulk {
        /// Array id.
        prop: u32,
        /// First element index.
        start: u32,
        /// Elements transferred.
        count: u32,
        /// Whether it writes.
        write: bool,
    },
}

/// Execution trace of one core within a phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoreTrace {
    /// Scalar instructions (including scratchpad accesses).
    pub computes: u64,
    /// Memory operations in order.
    pub accesses: Vec<HbAccess>,
}

/// Aggregate statistics (Table IX's inputs).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HbStats {
    /// Kernel phases executed.
    pub phases: u64,
    /// LLC hits.
    pub llc_hits: u64,
    /// LLC misses.
    pub llc_misses: u64,
    /// Bytes moved from HBM.
    pub dram_bytes: u64,
    /// Core-cycles stalled waiting on DRAM.
    pub dram_stall_cycles: u64,
    /// Core-cycles of compute.
    pub compute_cycles: u64,
}

impl HbStats {
    /// Achieved DRAM bandwidth over `cycles` of simulated time, as a
    /// fraction of `cfg`'s peak.
    pub fn bandwidth_utilization(&self, cycles: u64, cfg: &HbConfig) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        let peak = (cfg.hbm_channels as u64 * cfg.channel_bytes_per_cycle) as f64;
        (self.dram_bytes as f64 / cycles as f64) / peak
    }
}

/// Line-granular set-associative LLC with LRU replacement: one flat
/// `num_sets × ways` tag array, each set's occupied ways kept MRU-first.
#[derive(Debug)]
struct Llc {
    tags: Vec<u64>,
    lens: Vec<u32>,
    ways: usize,
    num_sets: u64,
}

impl Llc {
    fn new(capacity: u64, line: u64, ways: usize) -> Self {
        let lines = (capacity / line).max(1);
        let num_sets = (lines / ways as u64).max(1);
        Llc {
            tags: vec![0; num_sets as usize * ways],
            lens: vec![0; num_sets as usize],
            ways,
            num_sets,
        }
    }

    /// Touches a line; returns whether it hit.
    fn access(&mut self, line: u64) -> bool {
        let s = (line % self.num_sets) as usize;
        let len = self.lens[s] as usize;
        let set = &mut self.tags[s * self.ways..(s + 1) * self.ways];
        if let Some(pos) = set[..len].iter().position(|&l| l == line) {
            set[..=pos].rotate_right(1);
            true
        } else {
            // The LRU way falls off the end when the set is full.
            let kept = len.min(self.ways - 1);
            set.copy_within(..kept, 1);
            set[0] = line;
            self.lens[s] = (kept + 1) as u32;
            false
        }
    }
}

/// The HammerBlade timing simulator.
#[derive(Debug)]
pub struct HbSim {
    /// Machine configuration.
    pub cfg: HbConfig,
    /// Aggregate statistics.
    pub stats: HbStats,
    /// Cycle attribution; components sum to [`HbSim::time_cycles`].
    pub attr: HbAttribution,
    llc: Llc,
    time: u64,
    /// Per-phase buffers, reused across phases: occupancy per LLC bank,
    /// `(line, core)` pairs of demand accesses, one core's demand lines,
    /// and one core's per-array stream buffers `(array, line)`.
    bank_load: Vec<u64>,
    line_users: Vec<(u64, usize)>,
    core_lines: Vec<u64>,
    stream: Vec<(u32, u64)>,
}

impl HbSim {
    /// Creates a simulator.
    pub fn new(cfg: HbConfig) -> Self {
        let llc = Llc::new(cfg.llc_bytes, cfg.line_bytes, cfg.llc_ways);
        HbSim {
            cfg,
            stats: HbStats::default(),
            attr: HbAttribution::default(),
            llc,
            time: 0,
            bank_load: Vec::new(),
            line_users: Vec::new(),
            core_lines: Vec::new(),
            stream: Vec::new(),
        }
    }

    /// Records an attribution increment (the caller advances `time` by the
    /// same total) and mirrors it into the telemetry registry.
    fn attribute(&mut self, delta: HbAttribution) {
        self.attr.compute += delta.compute;
        self.attr.llc_access += delta.llc_access;
        self.attr.dram_stall += delta.dram_stall;
        self.attr.bank += delta.bank;
        self.attr.barrier += delta.barrier;
        self.attr.host += delta.host;
        let c = counters();
        c.compute.add(delta.compute);
        c.llc_access.add(delta.llc_access);
        c.dram_stall.add(delta.dram_stall);
        c.bank.add(delta.bank);
        c.barrier.add(delta.barrier);
        c.host.add(delta.host);
        c.total.add(delta.total());
    }

    /// Total simulated cycles.
    pub fn time_cycles(&self) -> u64 {
        self.time
    }

    /// Simulated milliseconds.
    pub fn time_ms(&self) -> f64 {
        self.time as f64 / (self.cfg.clock_ghz * 1e6)
    }

    /// Charges sequential host cycles.
    pub fn host_cycles(&mut self, cycles: u64) {
        self.attribute(HbAttribution {
            host: cycles,
            ..HbAttribution::default()
        });
        self.time += cycles;
        budget::check_cycles(self.time);
    }

    fn line_of(&self, prop: u32, idx: u32) -> u64 {
        (((prop as u64) << 28) + (idx as u64) * 4) / self.cfg.line_bytes
    }

    /// Runs one SPMD kernel phase from per-core traces; returns the cycles
    /// charged (including the end-of-phase barrier).
    pub fn run_phase(&mut self, _name: &str, cores: Vec<CoreTrace>) -> u64 {
        self.stats.phases += 1;
        let stats_before = self.stats;
        let mut max_core: u64 = 0;
        let banks = self.cfg.llc_banks as u64;
        self.bank_load.clear();
        self.bank_load.resize(self.cfg.llc_banks, 0);
        let mut phase_dram_bytes: u64 = 0;
        // Raw attribution sums in core-cycles, classifying every addition
        // to `core_time`; scaled to the phase's actual charge below.
        let mut compute_raw: u64 = 0;
        let mut llc_raw: u64 = 0;
        let mut dram_raw: u64 = 0;
        let mut scratch_hits: u64 = 0;
        // Distinct (line, core) demand pairs, for contention accounting.
        self.line_users.clear();

        for (core_id, trace) in cores.iter().enumerate() {
            let mut core_time = trace.computes;
            // Per-array stream buffers (MSHR-like): repeated accesses to the
            // line most recently fetched from each array are free — the
            // locality that alignment-based partitioning creates. A core
            // touches a handful of arrays, so a linear list serves.
            self.stream.clear();
            self.core_lines.clear();
            self.stats.compute_cycles += trace.computes;
            compute_raw += trace.computes;
            for a in &trace.accesses {
                match *a {
                    HbAccess::Demand { prop, idx, write } => {
                        let line = self.line_of(prop, idx);
                        let slot = self.stream.iter().position(|&(p, _)| p == prop);
                        match slot {
                            Some(i) if !write && self.stream[i].1 == line => {
                                // Scratchpad/stream-buffer hit: core-local.
                                scratch_hits += 1;
                                compute_raw += 1;
                                core_time += 1;
                                continue;
                            }
                            Some(i) => self.stream[i].1 = line,
                            None => self.stream.push((prop, line)),
                        }
                        self.core_lines.push(line);
                        let hit = self.llc.access(line);
                        self.bank_load[(line % banks) as usize] += self.cfg.bank_cycles;
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
                        // Non-blocking loads overlap a little; writes post.
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
                            // Burst transfers occupy banks at half rate.
                            self.bank_load[(line % banks) as usize] +=
                                self.cfg.bank_cycles.div_ceil(2);
                            if hit {
                                self.stats.llc_hits += 1;
                            } else {
                                self.stats.llc_misses += 1;
                                phase_dram_bytes += self.cfg.line_bytes;
                                misses += 1;
                            }
                        }
                        // Deeply pipelined: latency amortized over the
                        // outstanding-request window.
                        let lat = lines * self.cfg.llc_hit_cycles + misses * self.cfg.dram_cycles;
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
            self.core_lines.sort_unstable();
            self.core_lines.dedup();
            self.line_users
                .extend(self.core_lines.iter().map(|&l| (l, core_id)));
        }

        // Lines shared across cores in one phase serialize at their bank.
        self.line_users.sort_unstable();
        for users in self.line_users.chunk_by(|a, b| a.0 == b.0) {
            if users.len() > 1 {
                self.bank_load[(users[0].0 % banks) as usize] += self.cfg.line_contention_cycles;
            }
        }
        let bank_bound = self.bank_load.iter().copied().max().unwrap_or(0);
        let bw_bound = phase_dram_bytes
            / (self.cfg.hbm_channels as u64 * self.cfg.channel_bytes_per_cycle).max(1);
        self.stats.dram_bytes += phase_dram_bytes;
        let work = max_core.max(bank_bound).max(bw_bound);
        // Injected DRAM bit error: the affected reads are retried, costing
        // extra DRAM latency (degraded, absorbed as dram_stall).
        let bit_error_retry = if fault::roll(fault::Domain::Hb, fault::FaultKind::DramBitError) {
            self.cfg.dram_cycles * 64
        } else {
            0
        };
        self.stats.dram_stall_cycles += bit_error_retry;
        let cycles = work + self.cfg.barrier_cycles + bit_error_retry;
        // Scale the raw classification to the phase's actual charge;
        // dram_stall takes the remainder (absorbing rounding and any
        // bandwidth-roofline excess), the barrier is charged exactly.
        let bank_raw = bank_bound;
        let raw_total = compute_raw + llc_raw + dram_raw + bank_raw;
        let scale = |part: u64| {
            if raw_total == 0 {
                0
            } else {
                ((work as u128 * part as u128) / raw_total as u128) as u64
            }
        };
        let (compute, llc_access, bank) = (scale(compute_raw), scale(llc_raw), scale(bank_raw));
        self.attribute(HbAttribution {
            compute,
            llc_access,
            dram_stall: work - compute - llc_access - bank + bit_error_retry,
            bank,
            barrier: self.cfg.barrier_cycles,
            host: 0,
        });
        let c = counters();
        let hits = self.stats.llc_hits - stats_before.llc_hits;
        let misses = self.stats.llc_misses - stats_before.llc_misses;
        c.phases.incr();
        c.network_hops.add(hits + misses);
        c.llc_hits.add(hits);
        c.llc_misses.add(misses);
        c.scratchpad_hits.add(scratch_hits);
        c.dram_bytes.add(phase_dram_bytes);
        self.time += cycles;
        budget::check_cycles(self.time);
        cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(prop: u32, idx: u32) -> HbAccess {
        HbAccess::Demand {
            prop,
            idx,
            write: false,
        }
    }

    #[test]
    fn bulk_prefetch_beats_demand_chain() {
        // Fetching 256 scattered elements on demand vs one bulk range.
        let demand_trace = CoreTrace {
            computes: 0,
            accesses: (0..256).map(|i| demand(1, i * 97 % 4096)).collect(),
        };
        let bulk_trace = CoreTrace {
            computes: 0,
            accesses: vec![HbAccess::Bulk {
                prop: 1,
                start: 0,
                count: 256,
                write: false,
            }],
        };
        let mut s1 = HbSim::new(HbConfig::default());
        let c1 = s1.run_phase("demand", vec![demand_trace]);
        let mut s2 = HbSim::new(HbConfig::default());
        let c2 = s2.run_phase("bulk", vec![bulk_trace]);
        assert!(c2 < c1, "bulk {c2} must beat demand {c1}");
        assert!(s2.stats.dram_stall_cycles < s1.stats.dram_stall_cycles);
    }

    #[test]
    fn phase_time_is_slowest_core_plus_barrier() {
        let light = CoreTrace {
            computes: 10,
            accesses: vec![],
        };
        let heavy = CoreTrace {
            computes: 10_000,
            accesses: vec![],
        };
        let mut sim = HbSim::new(HbConfig::default());
        let c = sim.run_phase("p", vec![light, heavy]);
        assert_eq!(c, 10_000 + HbConfig::default().barrier_cycles);
    }

    #[test]
    fn llc_reuse_hits() {
        // Stride by a full line so the core's line buffer cannot coalesce.
        let t = || CoreTrace {
            computes: 0,
            accesses: (0..64).map(|i| demand(2, i * 8)).collect(),
        };
        let mut sim = HbSim::new(HbConfig::default());
        sim.run_phase("cold", vec![t()]);
        let misses_cold = sim.stats.llc_misses;
        assert_eq!(misses_cold, 64);
        sim.run_phase("warm", vec![t()]);
        assert_eq!(sim.stats.llc_misses, misses_cold, "warm pass must hit");
        assert!(sim.stats.llc_hits >= 64);
    }

    #[test]
    fn line_buffer_coalesces_consecutive_same_line_loads() {
        let t = CoreTrace {
            computes: 0,
            accesses: (0..64).map(|i| demand(2, i)).collect(), // 8 lines
        };
        let mut sim = HbSim::new(HbConfig::default());
        sim.run_phase("seq", vec![t]);
        assert_eq!(sim.stats.llc_hits + sim.stats.llc_misses, 8);
    }

    #[test]
    fn bandwidth_utilization_reported() {
        let t = CoreTrace {
            computes: 0,
            accesses: (0..1000).map(|i| demand(3, i * 8)).collect(),
        };
        let mut sim = HbSim::new(HbConfig::default());
        sim.run_phase("bw", vec![t]);
        let u = sim.stats.bandwidth_utilization(sim.time_cycles(), &sim.cfg);
        assert!(u > 0.0 && u <= 1.0, "{u}");
        assert!(sim.stats.dram_bytes > 0);
        assert!(sim.time_ms() > 0.0);
    }

    #[test]
    fn attribution_components_sum_to_total_time() {
        let mut sim = HbSim::new(HbConfig::default());
        sim.host_cycles(55);
        for p in 0..4u32 {
            let cores: Vec<CoreTrace> = (0..16u32)
                .map(|c| CoreTrace {
                    computes: 100 + c as u64 * 7,
                    accesses: (0..64)
                        .map(|i| {
                            if i % 5 == 0 {
                                HbAccess::Bulk {
                                    prop: 1,
                                    start: p * 4096 + i * 32,
                                    count: 32,
                                    write: i % 10 == 5,
                                }
                            } else {
                                HbAccess::Demand {
                                    prop: 2,
                                    idx: (c * 997 + i * 131 + p * 13) % 65536,
                                    write: i % 7 == 3,
                                }
                            }
                        })
                        .collect(),
                })
                .collect();
            sim.run_phase("mixed", cores);
        }
        assert_eq!(sim.attr.total(), sim.time_cycles());
        assert_eq!(sim.attr.host, 55);
        assert_eq!(sim.attr.barrier, 4 * HbConfig::default().barrier_cycles);
        assert!(sim.attr.compute > 0);
        assert!(sim.attr.llc_access > 0);
        assert!(sim.attr.dram_stall > 0);
    }

    #[test]
    fn more_rows_means_more_cores() {
        assert_eq!(HbConfig::default().with_rows(2).num_cores(), 32);
        assert_eq!(HbConfig::default().with_rows(16).num_cores(), 256);
    }

    #[test]
    fn bank_contention_bounds_phase() {
        // Many cores hammering two alternating lines in the same bank →
        // that bank serializes.
        let cores: Vec<CoreTrace> = (0..128)
            .map(|_| CoreTrace {
                computes: 1,
                accesses: (0..64)
                    .map(|i| demand(1, if i % 2 == 0 { 0 } else { 256 * 8 }))
                    .collect(),
            })
            .collect();
        let mut sim = HbSim::new(HbConfig::default());
        let c = sim.run_phase("contended", cores);
        // Both lines map to bank 0: 128 cores × 64 accesses × bank_cycles.
        let bank_cycles = 128 * 64 * HbConfig::default().bank_cycles;
        assert!(c >= bank_cycles, "{c} vs {bank_cycles}");
    }

    #[test]
    fn shared_lines_cost_contention() {
        let mk = |idx: u32| CoreTrace {
            computes: 0,
            accesses: vec![demand(1, idx)],
        };
        // 64 cores all touching one line vs 64 cores touching 64 lines
        // spread across banks.
        let shared: Vec<CoreTrace> = (0..64).map(|_| mk(0)).collect();
        let spread: Vec<CoreTrace> = (0..64).map(|i| mk(i * 8)).collect();
        let mut s1 = HbSim::new(HbConfig::default());
        let c1 = s1.run_phase("shared", shared);
        let mut s2 = HbSim::new(HbConfig::default());
        let c2 = s2.run_phase("spread", spread);
        assert!(c1 > c2, "shared {c1} must exceed spread {c2}");
    }
}
