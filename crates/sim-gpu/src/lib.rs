//! A SIMT GPU timing simulator (the "hardware" under the GPU GraphVM).
//!
//! The paper evaluates its GPU GraphVM on an NVIDIA V100. No GPU is
//! available in this reproduction, so this crate models the performance
//! mechanisms that the paper's GPU optimizations exploit:
//!
//! * **warps** of 32 lanes executing in lockstep — a warp's issue time is
//!   its slowest lane, which is what load-balancing schedules (TWC/WM/CM/
//!   STRICT/ETWC) attack,
//! * **memory coalescing** — each warp's accesses are grouped into 32-byte
//!   transactions; adjacent lanes touching adjacent addresses cost one
//!   transaction, scattered lanes cost one each. A warp's transactions
//!   reach the L2 in ascending segment order,
//! * **an L2 cache** (segment-granular, set-associative) — reuse captured
//!   here is what EdgeBlocking buys,
//! * **DRAM bandwidth** — a hard roof on kernel throughput,
//! * **atomics** — same-address atomics within a warp serialize,
//! * **kernel launch overhead and grid synchronization** — the costs that
//!   kernel fusion trades against each other (launch per operator vs one
//!   launch plus a grid sync per operator).
//!
//! The simulator is trace-driven: the GraphVM executes UDFs with a
//! recording memory model, packages per-lane traces into [`WarpTrace`]s,
//! and [`GpuSim::run_kernel`] charges time. Absolute numbers are not
//! calibrated to any silicon; *relative* behavior (who wins, where the
//! crossovers are) is what the model preserves.
//!
//! # Example
//!
//! ```
//! use ugc_sim_gpu::{GpuConfig, GpuSim, LaneTrace, MemAccess, AccessKind, WarpTrace};
//!
//! let mut sim = GpuSim::new(GpuConfig::default());
//! let lane = LaneTrace { computes: 10, mem: vec![MemAccess {
//!     kind: AccessKind::Load, prop: 0, idx: 0 }] };
//! let warp = WarpTrace { lanes: vec![lane; 32] };
//! let cycles = sim.run_kernel("demo", vec![warp].into_iter(), false);
//! assert!(cycles > 0);
//! ```

use std::sync::OnceLock;

use ugc_resilience::{budget, fault};
use ugc_telemetry::Counter;

/// Where the simulated cycles went, cumulatively per simulator instance.
///
/// The five components partition [`GpuSim::time_cycles`] exactly:
/// `compute + divergence + mem_stall + launch + host == time_cycles()`
/// at every instant (asserted by `tests/telemetry_invariants.rs`). The
/// split classifies the existing timing math without changing it — each
/// kernel's cycle charge is decomposed proportionally to the per-warp
/// mean lane compute (compute), lockstep serialization above the mean
/// plus atomic serialization (divergence), and coalescing/transaction
/// cycles (mem_stall, which also absorbs any bandwidth-bound excess).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GpuAttribution {
    /// Useful lane work: per-warp mean lane compute cycles.
    pub compute: u64,
    /// SIMT divergence serialization (slowest-lane excess over the mean)
    /// plus same-address atomic serialization.
    pub divergence: u64,
    /// Memory-coalescing stalls: transaction issue + DRAM miss cycles,
    /// plus bandwidth-roofline excess.
    pub mem_stall: u64,
    /// Kernel launch overhead and cooperative grid synchronizations.
    pub launch: u64,
    /// Host-side cycles between kernels.
    pub host: u64,
}

impl GpuAttribution {
    /// Sum of all components — always equals the simulator's total time.
    pub fn total(&self) -> u64 {
        self.compute + self.divergence + self.mem_stall + self.launch + self.host
    }

    /// Named components in display order.
    pub fn components(&self) -> [(&'static str, u64); 5] {
        [
            ("compute", self.compute),
            ("divergence", self.divergence),
            ("mem_stall", self.mem_stall),
            ("launch", self.launch),
            ("host", self.host),
        ]
    }
}

/// Registry handles for the `sim_gpu.` counter namespace.
struct Counters {
    compute: Counter,
    divergence: Counter,
    mem_stall: Counter,
    launch: Counter,
    host: Counter,
    total: Counter,
    kernels: Counter,
    warps: Counter,
    transactions: Counter,
    l2_hits: Counter,
    l2_misses: Counter,
    dram_bytes: Counter,
    atomics: Counter,
}

fn counters() -> &'static Counters {
    static COUNTERS: OnceLock<Counters> = OnceLock::new();
    COUNTERS.get_or_init(|| Counters {
        compute: Counter::new("sim_gpu.cycles.compute"),
        divergence: Counter::new("sim_gpu.cycles.divergence"),
        mem_stall: Counter::new("sim_gpu.cycles.mem_stall"),
        launch: Counter::new("sim_gpu.cycles.launch"),
        host: Counter::new("sim_gpu.cycles.host"),
        total: Counter::new("sim_gpu.cycles.total"),
        kernels: Counter::new("sim_gpu.kernels"),
        warps: Counter::new("sim_gpu.warps"),
        transactions: Counter::new("sim_gpu.transactions"),
        l2_hits: Counter::new("sim_gpu.l2_hits"),
        l2_misses: Counter::new("sim_gpu.l2_misses"),
        dram_bytes: Counter::new("sim_gpu.dram_bytes"),
        atomics: Counter::new("sim_gpu.atomics"),
    })
}

/// Configuration of the simulated GPU (defaults are V100-flavored).
#[derive(Debug, Clone)]
pub struct GpuConfig {
    /// Streaming multiprocessors.
    pub num_sms: u64,
    /// Lanes per warp.
    pub warp_size: usize,
    /// Cycles to launch a kernel from the host.
    pub kernel_launch_cycles: u64,
    /// Cycles for a cooperative grid synchronization (fused kernels).
    pub grid_sync_cycles: u64,
    /// Issue cost of one memory transaction.
    pub txn_issue_cycles: u64,
    /// Extra cycles for an L2 miss (DRAM access), amortized.
    pub dram_extra_cycles: u64,
    /// Bytes per memory transaction (V100 sector).
    pub txn_bytes: u64,
    /// DRAM bandwidth in bytes per cycle.
    pub dram_bytes_per_cycle: u64,
    /// L2 capacity in bytes.
    pub l2_bytes: u64,
    /// L2 associativity (ways per set).
    pub l2_ways: usize,
    /// Base cost of an atomic operation.
    pub atomic_cycles: u64,
    /// Additional serialization per same-address conflicting atomic.
    pub atomic_conflict_cycles: u64,
    /// Clock in GHz (for converting cycles to seconds in reports).
    pub clock_ghz: f64,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            num_sms: 80,
            warp_size: 32,
            kernel_launch_cycles: 6000,
            grid_sync_cycles: 1200,
            txn_issue_cycles: 4,
            dram_extra_cycles: 8,
            txn_bytes: 32,
            dram_bytes_per_cycle: 640,
            l2_bytes: 6 << 20,
            l2_ways: 16,
            atomic_cycles: 12,
            atomic_conflict_cycles: 4,
            clock_ghz: 1.4,
        }
    }
}

/// Kind of a recorded memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Plain load.
    Load,
    /// Plain store.
    Store,
    /// Atomic read-modify-write.
    Atomic,
}

/// One recorded access: 4 bytes at `prop`-array element `idx`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Which access.
    pub kind: AccessKind,
    /// Array identifier (property id or a synthetic id for graph
    /// structure / frontier buffers).
    pub prop: u32,
    /// Element index within the array.
    pub idx: u32,
}

impl MemAccess {
    /// The 32-byte segment this access falls in. Arrays are placed 256 MB
    /// apart so segments never alias across arrays.
    pub fn segment(&self, txn_bytes: u64) -> u64 {
        let addr = ((self.prop as u64) << 28) + (self.idx as u64) * 4;
        addr / txn_bytes
    }
}

/// Execution trace of one lane (thread) within a kernel.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LaneTrace {
    /// Scalar instructions executed.
    pub computes: u32,
    /// Memory accesses in program order.
    pub mem: Vec<MemAccess>,
}

/// Execution trace of one warp (≤ 32 lanes).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WarpTrace {
    /// The lanes of this warp (missing lanes are inactive).
    pub lanes: Vec<LaneTrace>,
}

/// Aggregate statistics of a simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GpuStats {
    /// Kernels launched from the host.
    pub kernels: u64,
    /// Grid synchronizations inside fused kernels.
    pub grid_syncs: u64,
    /// Warps executed.
    pub warps: u64,
    /// Total warp-issue cycles (before SM parallelism).
    pub warp_cycles: u64,
    /// Memory transactions issued.
    pub transactions: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Bytes moved from DRAM.
    pub dram_bytes: u64,
    /// Atomic operations.
    pub atomics: u64,
}

/// Segment-granular set-associative cache with LRU replacement: one flat
/// `num_sets × ways` tag array, each set's occupied ways kept MRU-first.
#[derive(Debug)]
struct L2Cache {
    tags: Vec<u64>,
    lens: Vec<u32>,
    ways: usize,
    num_sets: u64,
}

impl L2Cache {
    fn new(capacity_bytes: u64, txn_bytes: u64, ways: usize) -> Self {
        let lines = (capacity_bytes / txn_bytes).max(1);
        let num_sets = (lines / ways as u64).max(1);
        L2Cache {
            tags: vec![0; num_sets as usize * ways],
            lens: vec![0; num_sets as usize],
            ways,
            num_sets,
        }
    }

    /// Touches a segment; returns whether it hit.
    fn access(&mut self, segment: u64) -> bool {
        let s = (segment % self.num_sets) as usize;
        let len = self.lens[s] as usize;
        let set = &mut self.tags[s * self.ways..(s + 1) * self.ways];
        if let Some(pos) = set[..len].iter().position(|&t| t == segment) {
            set[..=pos].rotate_right(1);
            true
        } else {
            // The LRU way falls off the end when the set is full.
            let kept = len.min(self.ways - 1);
            set.copy_within(..kept, 1);
            set[0] = segment;
            self.lens[s] = (kept + 1) as u32;
            false
        }
    }
}

/// The GPU simulator: accumulates time and statistics across kernels.
#[derive(Debug)]
pub struct GpuSim {
    /// The machine configuration.
    pub cfg: GpuConfig,
    /// Aggregate statistics.
    pub stats: GpuStats,
    /// Cycle attribution; components always sum to [`GpuSim::time_cycles`].
    pub attr: GpuAttribution,
    l2: L2Cache,
    time: u64,
    /// One warp's segments, then its atomic addresses: buffers reused
    /// across warps and kernels.
    segments: Vec<u64>,
    atomic_addrs: Vec<u64>,
}

impl GpuSim {
    /// Creates a simulator for the given configuration.
    pub fn new(cfg: GpuConfig) -> Self {
        let l2 = L2Cache::new(cfg.l2_bytes, cfg.txn_bytes, cfg.l2_ways);
        GpuSim {
            cfg,
            stats: GpuStats::default(),
            attr: GpuAttribution::default(),
            l2,
            time: 0,
            segments: Vec::new(),
            atomic_addrs: Vec::new(),
        }
    }

    /// Records an attribution increment in lockstep with `self.time` (the
    /// caller adds the same total to `time`); mirrors into the registry.
    fn attribute(&mut self, delta: GpuAttribution) {
        self.attr.compute += delta.compute;
        self.attr.divergence += delta.divergence;
        self.attr.mem_stall += delta.mem_stall;
        self.attr.launch += delta.launch;
        self.attr.host += delta.host;
        let c = counters();
        c.compute.add(delta.compute);
        c.divergence.add(delta.divergence);
        c.mem_stall.add(delta.mem_stall);
        c.launch.add(delta.launch);
        c.host.add(delta.host);
        c.total.add(delta.total());
    }

    /// Total simulated cycles so far.
    pub fn time_cycles(&self) -> u64 {
        self.time
    }

    /// Simulated time in milliseconds.
    pub fn time_ms(&self) -> f64 {
        self.time as f64 / (self.cfg.clock_ghz * 1e6)
    }

    /// Resets time and statistics (the L2 stays warm unless
    /// [`GpuSim::flush_l2`] is called).
    pub fn reset(&mut self) {
        self.stats = GpuStats::default();
        self.attr = GpuAttribution::default();
        self.time = 0;
    }

    /// Empties the L2 cache.
    pub fn flush_l2(&mut self) {
        self.l2.lens.fill(0);
    }

    /// Runs a kernel over the given warp traces, advancing simulated time.
    /// When `fused` is true the kernel is part of an already-launched fused
    /// megakernel: no launch overhead is charged (callers charge grid syncs
    /// between fused steps via [`GpuSim::grid_sync`]).
    ///
    /// Returns the cycles this kernel contributed.
    pub fn run_kernel(
        &mut self,
        _name: &str,
        warps: impl Iterator<Item = WarpTrace>,
        fused: bool,
    ) -> u64 {
        let stats_before = self.stats;
        let mut total_warp_cycles: u64 = 0;
        let mut max_warp_cycles: u64 = 0;
        let mut kernel_dram_bytes: u64 = 0;
        let mut num_warps: u64 = 0;
        // Raw attribution sums in warp-issue cycles; their total equals
        // `total_warp_cycles`, so scaling them to the kernel's actual
        // charge preserves the proportions the model computed.
        let mut compute_raw: u64 = 0;
        let mut divergence_raw: u64 = 0;
        let mut mem_raw: u64 = 0;

        for warp in warps {
            num_warps += 1;
            let mut compute_max: u64 = 0;
            let mut lane_compute_sum: u64 = 0;
            // Coalesce: group this warp's accesses into transactions.
            self.segments.clear();
            self.atomic_addrs.clear();
            for lane in &warp.lanes {
                compute_max = compute_max.max(lane.computes as u64);
                lane_compute_sum += lane.computes as u64;
                for a in &lane.mem {
                    self.segments.push(a.segment(self.cfg.txn_bytes));
                    if a.kind == AccessKind::Atomic {
                        self.atomic_addrs
                            .push(((a.prop as u64) << 28) + (a.idx as u64) * 4);
                    }
                }
            }
            self.stats.atomics += self.atomic_addrs.len() as u64;
            // Charge transactions through the L2, in ascending segment
            // order so the LRU state never depends on anything but the
            // trace.
            self.segments.sort_unstable();
            self.segments.dedup();
            let mut txn_cycles: u64 = 0;
            for &seg in &self.segments {
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
            // Atomics: base cost per distinct address plus serialization
            // for same-address conflicts.
            self.atomic_addrs.sort_unstable();
            let mut atomic_cycles: u64 = 0;
            for run in self.atomic_addrs.chunk_by(|a, b| a == b) {
                atomic_cycles += self.cfg.atomic_cycles
                    + (run.len() as u64 - 1) * self.cfg.atomic_conflict_cycles;
            }
            let warp_cycles = compute_max + txn_cycles + atomic_cycles;
            total_warp_cycles += warp_cycles;
            max_warp_cycles = max_warp_cycles.max(warp_cycles);
            // Classify this warp's issue cycles: the mean lane compute is
            // useful work, the slowest-lane excess over it is lockstep
            // (divergence) serialization, atomics serialize too, and the
            // transaction cycles are coalescing/memory stalls.
            let mean_compute = lane_compute_sum / warp.lanes.len().max(1) as u64;
            compute_raw += mean_compute;
            divergence_raw += (compute_max - mean_compute) + atomic_cycles;
            mem_raw += txn_cycles;
        }

        self.stats.warps += num_warps;
        self.stats.warp_cycles += total_warp_cycles;
        self.stats.dram_bytes += kernel_dram_bytes;

        // Kernel time: throughput bound (SMs issue warps in parallel),
        // critical path bound, and DRAM bandwidth bound.
        let issue = total_warp_cycles / self.cfg.num_sms;
        let bw = kernel_dram_bytes / self.cfg.dram_bytes_per_cycle;
        let work = issue.max(max_warp_cycles).max(bw);
        let mut cycles = work;
        let launch = if fused {
            self.stats.grid_syncs += 0; // syncs charged separately
            0
        } else {
            // Injected launch failure: fatal to this attempt, transported
            // as a typed payload and retried by the supervisor.
            fault::roll_fatal(fault::Domain::Gpu, fault::FaultKind::KernelLaunchFail);
            self.stats.kernels += 1;
            cycles += self.cfg.kernel_launch_cycles;
            self.cfg.kernel_launch_cycles
        };
        // Scale the raw per-warp classification to the kernel's actual
        // charge. mem_stall takes the remainder, which also absorbs any
        // bandwidth-roofline excess over the issue/critical-path bounds.
        let raw_total = compute_raw + divergence_raw + mem_raw;
        let scale = |part: u64| {
            if raw_total == 0 {
                0
            } else {
                ((work as u128 * part as u128) / raw_total as u128) as u64
            }
        };
        let (compute, divergence) = (scale(compute_raw), scale(divergence_raw));
        // Injected memory-stall spike: the kernel completes, but pays a
        // launch-sized extra stall (degraded, absorbed as mem_stall).
        let spike = if fault::roll(fault::Domain::Gpu, fault::FaultKind::MemStallSpike) {
            self.cfg.kernel_launch_cycles
        } else {
            0
        };
        let cycles = cycles + spike;
        self.attribute(GpuAttribution {
            compute,
            divergence,
            mem_stall: work - compute - divergence + spike,
            launch,
            host: 0,
        });
        let c = counters();
        c.kernels.add(u64::from(!fused));
        c.warps.add(num_warps);
        c.transactions
            .add(self.stats.transactions - stats_before.transactions);
        c.l2_hits.add(self.stats.l2_hits - stats_before.l2_hits);
        c.l2_misses
            .add(self.stats.l2_misses - stats_before.l2_misses);
        c.dram_bytes.add(kernel_dram_bytes);
        c.atomics.add(self.stats.atomics - stats_before.atomics);
        self.time += cycles;
        budget::check_cycles(self.time);
        cycles
    }

    /// Charges a kernel launch with no work (the megakernel entry of a
    /// fused loop; its per-step work is charged via fused
    /// [`GpuSim::run_kernel`] calls plus [`GpuSim::grid_sync`]).
    pub fn charge_launch(&mut self) {
        fault::roll_fatal(fault::Domain::Gpu, fault::FaultKind::KernelLaunchFail);
        self.stats.kernels += 1;
        counters().kernels.incr();
        self.attribute(GpuAttribution {
            launch: self.cfg.kernel_launch_cycles,
            ..GpuAttribution::default()
        });
        self.time += self.cfg.kernel_launch_cycles;
        budget::check_cycles(self.time);
    }

    /// Charges one cooperative grid synchronization (fused kernels).
    /// Attributed to launch overhead: grid syncs are what fusion pays
    /// instead of per-operator launches.
    pub fn grid_sync(&mut self) {
        self.stats.grid_syncs += 1;
        self.attribute(GpuAttribution {
            launch: self.cfg.grid_sync_cycles,
            ..GpuAttribution::default()
        });
        self.time += self.cfg.grid_sync_cycles;
        budget::check_cycles(self.time);
    }

    /// Charges host-side work between kernels (e.g. swap/size checks).
    pub fn host_cycles(&mut self, cycles: u64) {
        self.attribute(GpuAttribution {
            host: cycles,
            ..GpuAttribution::default()
        });
        self.time += cycles;
        budget::check_cycles(self.time);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane_with_accesses(idxs: &[u32]) -> LaneTrace {
        LaneTrace {
            computes: 5,
            mem: idxs
                .iter()
                .map(|&i| MemAccess {
                    kind: AccessKind::Load,
                    prop: 0,
                    idx: i,
                })
                .collect(),
        }
    }

    #[test]
    fn coalesced_cheaper_than_scattered() {
        let cfg = GpuConfig::default();
        // 32 lanes reading consecutive elements: 4 segments (8 elems/seg).
        let coalesced = WarpTrace {
            lanes: (0..32).map(|i| lane_with_accesses(&[i])).collect(),
        };
        // 32 lanes reading strided elements: 32 segments.
        let scattered = WarpTrace {
            lanes: (0..32).map(|i| lane_with_accesses(&[i * 1000])).collect(),
        };
        let mut sim = GpuSim::new(cfg.clone());
        let c1 = sim.run_kernel("c", vec![coalesced].into_iter(), true);
        let mut sim2 = GpuSim::new(cfg);
        let c2 = sim2.run_kernel("s", vec![scattered].into_iter(), true);
        assert!(c2 > c1 * 4, "scattered {c2} vs coalesced {c1}");
    }

    #[test]
    fn warp_time_is_slowest_lane() {
        let mut heavy = WarpTrace::default();
        heavy.lanes.push(LaneTrace {
            computes: 10_000,
            mem: vec![],
        });
        for _ in 0..31 {
            heavy.lanes.push(LaneTrace {
                computes: 1,
                mem: vec![],
            });
        }
        let mut sim = GpuSim::new(GpuConfig::default());
        let c = sim.run_kernel("h", vec![heavy].into_iter(), true);
        assert!(c >= 10_000);
    }

    #[test]
    fn launch_overhead_only_unfused() {
        let cfg = GpuConfig::default();
        let w = WarpTrace {
            lanes: vec![lane_with_accesses(&[0])],
        };
        let mut sim = GpuSim::new(cfg.clone());
        let unfused = sim.run_kernel("u", vec![w.clone()].into_iter(), false);
        let mut sim2 = GpuSim::new(cfg.clone());
        let fused = sim2.run_kernel("f", vec![w].into_iter(), true);
        assert_eq!(unfused - fused, cfg.kernel_launch_cycles);
        assert_eq!(sim.stats.kernels, 1);
        assert_eq!(sim2.stats.kernels, 0);
    }

    #[test]
    fn l2_reuse_reduces_dram_traffic() {
        let cfg = GpuConfig::default();
        let w = || WarpTrace {
            lanes: (0..32).map(|i| lane_with_accesses(&[i])).collect(),
        };
        let mut sim = GpuSim::new(cfg);
        sim.run_kernel("first", vec![w()].into_iter(), true);
        let cold_bytes = sim.stats.dram_bytes;
        sim.run_kernel("second", vec![w()].into_iter(), true);
        assert_eq!(sim.stats.dram_bytes, cold_bytes, "second pass must hit L2");
        assert!(sim.stats.l2_hits > 0);
    }

    #[test]
    fn same_address_atomics_serialize() {
        let contended = WarpTrace {
            lanes: (0..32)
                .map(|_| LaneTrace {
                    computes: 0,
                    mem: vec![MemAccess {
                        kind: AccessKind::Atomic,
                        prop: 1,
                        idx: 0,
                    }],
                })
                .collect(),
        };
        let spread = WarpTrace {
            lanes: (0..32)
                .map(|i| LaneTrace {
                    computes: 0,
                    mem: vec![MemAccess {
                        kind: AccessKind::Atomic,
                        prop: 1,
                        idx: i * 1000,
                    }],
                })
                .collect(),
        };
        let mut s1 = GpuSim::new(GpuConfig::default());
        let c1 = s1.run_kernel("contended", vec![contended].into_iter(), true);
        let mut s2 = GpuSim::new(GpuConfig::default());
        let c2 = s2.run_kernel("spread", vec![spread].into_iter(), true);
        // Same-address serialization must cost more than the spread case's
        // extra transactions are worth comparing within atomics only:
        assert!(c1 > GpuConfig::default().atomic_conflict_cycles * 31);
        assert_eq!(s1.stats.atomics, 32);
        assert_eq!(s2.stats.atomics, 32);
        let _ = c2;
    }

    #[test]
    fn bandwidth_roofline_applies() {
        // A kernel with enormous DRAM traffic must be bandwidth-bound.
        let cfg = GpuConfig::default();
        let warps = (0..10_000u32).map(|w| WarpTrace {
            lanes: (0..32)
                .map(|l| lane_with_accesses(&[w * 320_000 + l * 10_000]))
                .collect(),
        });
        let mut sim = GpuSim::new(cfg.clone());
        let cycles = sim.run_kernel("big", warps, true);
        let bw_bound = sim.stats.dram_bytes / cfg.dram_bytes_per_cycle;
        assert!(cycles >= bw_bound);
        assert!(sim.stats.dram_bytes >= 10_000 * 32 * 32);
    }

    #[test]
    fn attribution_components_sum_to_total_time() {
        let mut sim = GpuSim::new(GpuConfig::default());
        sim.charge_launch();
        for k in 0..8u32 {
            let warps = (0..40u32).map(|w| WarpTrace {
                lanes: (0..32)
                    .map(|l| LaneTrace {
                        computes: (l * w) % 17,
                        mem: vec![
                            MemAccess {
                                kind: AccessKind::Load,
                                prop: 0,
                                idx: w * 320 + l * 10,
                            },
                            MemAccess {
                                kind: AccessKind::Atomic,
                                prop: 1,
                                idx: (l % 3) * 1000,
                            },
                        ],
                    })
                    .collect(),
            });
            sim.run_kernel("mixed", warps, k % 2 == 0);
            sim.grid_sync();
            sim.host_cycles(37);
        }
        assert_eq!(sim.attr.total(), sim.time_cycles());
        assert!(sim.attr.compute > 0);
        assert!(sim.attr.divergence > 0);
        assert!(sim.attr.mem_stall > 0);
        assert!(sim.attr.launch > 0);
        assert_eq!(sim.attr.host, 8 * 37);
        sim.reset();
        assert_eq!(sim.attr.total(), 0);
    }

    #[test]
    fn attribution_does_not_change_timing() {
        // The decomposition must classify the existing math, not alter it:
        // launch delta between fused and unfused is still exact.
        let cfg = GpuConfig::default();
        let w = WarpTrace {
            lanes: vec![lane_with_accesses(&[0])],
        };
        let mut a = GpuSim::new(cfg.clone());
        let unfused = a.run_kernel("u", vec![w.clone()].into_iter(), false);
        let mut b = GpuSim::new(cfg.clone());
        let fused = b.run_kernel("f", vec![w].into_iter(), true);
        assert_eq!(unfused - fused, cfg.kernel_launch_cycles);
        assert_eq!(a.attr.launch, cfg.kernel_launch_cycles);
        assert_eq!(b.attr.launch, 0);
        assert_eq!(a.attr.total(), a.time_cycles());
        assert_eq!(b.attr.total(), b.time_cycles());
    }

    #[test]
    fn l2_order_within_a_warp_is_the_segment_order() {
        // One warp touches 17 segments of one 16-way set, so exactly one of
        // them is evicted by the others; a probe then loads the lowest.
        // Ascending order inserts it first, so it is the one evicted: the
        // probe misses in every fresh simulator.
        let cfg = GpuConfig::default();
        let sets = cfg.l2_bytes / cfg.txn_bytes / cfg.l2_ways as u64;
        let elems_per_segment = (cfg.txn_bytes / 4) as u32;
        let idx = |k: u32| k * sets as u32 * elems_per_segment;
        let lane = |i: u32| LaneTrace {
            computes: 1,
            mem: vec![MemAccess {
                kind: AccessKind::Load,
                prop: 0,
                idx: idx(i),
            }],
        };
        for _ in 0..20 {
            let mut sim = GpuSim::new(cfg.clone());
            let fill = WarpTrace {
                lanes: (0..17).rev().map(lane).collect(),
            };
            sim.run_kernel("fill", vec![fill].into_iter(), true);
            let probe = WarpTrace {
                lanes: vec![lane(0)],
            };
            let cycles = sim.run_kernel("probe", vec![probe].into_iter(), true);
            assert_eq!(cycles, 13, "1 compute + 4 issue + 8 DRAM");
        }
    }

    #[test]
    fn time_accumulates_and_resets() {
        let mut sim = GpuSim::new(GpuConfig::default());
        sim.host_cycles(100);
        sim.grid_sync();
        assert_eq!(
            sim.time_cycles(),
            100 + GpuConfig::default().grid_sync_cycles
        );
        assert!(sim.time_ms() > 0.0);
        sim.reset();
        assert_eq!(sim.time_cycles(), 0);
    }
}
