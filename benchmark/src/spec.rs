//! What the benchmark runs and what it reports: the four workloads, their
//! cells and query classes, and the metric tables `BENCHMARK.json` is
//! generated from (`run.sh --manifest`). README.md says why each was chosen.

use ugc::{Algorithm, Target};
use ugc_graph::{Dataset, Scale};

use Algorithm::{Bc, Bfs, Cc, KCore, Lp, PageRank, Sssp, Tc};
use Dataset::{LiveJournal, Pokec, RoadNetCa, RoadUsa, Twitter};

/// One workload; the names are fixed because later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CpuKernels,
    CpuInterp,
    SimZoo,
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CpuKernels,
        Workload::CpuInterp,
        Workload::SimZoo,
        Workload::ServeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CpuKernels => "cpu-kernels",
            Workload::CpuInterp => "cpu-interp",
            Workload::SimZoo => "sim-zoo",
            Workload::ServeMix => "serve-mix",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// One line for `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Workload::CpuKernels => {
                "CPU GraphVM on the UDF shapes the recogniser compiles: kernels and pool do the work; interpreter, simulators and serve do none"
            }
            Workload::CpuInterp => {
                "CPU GraphVM on TC and k-core, which fall back to one interpreter call per edge: the compiled kernels are bypassed"
            }
            Workload::SimZoo => {
                "GPU, Swarm and HammerBlade GraphVMs: exact simulated time of the modelled hardware and host time of the simulators"
            }
            Workload::ServeMix => {
                "ugc-serve over TCP, closed loop, a point-query client beside an analytics client: protocol, gate, cache, exec and the reply path carry weight"
            }
        }
    }

    /// The (GraphVM, algorithm, dataset) grid of a cell workload; empty for
    /// `serve-mix`, whose unit is the query class.
    pub fn cells(self, tiny: bool) -> Vec<Cell> {
        let cpu = |algo, dataset| Cell {
            target: Target::Cpu,
            algo,
            dataset,
            scale: Scale::Medium,
        };
        let mut cells = match self {
            Workload::CpuKernels => vec![
                cpu(Bfs, RoadUsa),
                cpu(Sssp, RoadUsa),
                cpu(Cc, RoadUsa),
                cpu(Bc, RoadUsa),
                cpu(Bfs, Twitter),
                cpu(Sssp, Twitter),
                cpu(Cc, Twitter),
                cpu(Bc, Twitter),
                cpu(Lp, Twitter),
                cpu(PageRank, LiveJournal),
            ],
            Workload::CpuInterp => vec![
                cpu(Tc, Pokec),
                cpu(KCore, Pokec),
                cpu(Tc, LiveJournal),
                cpu(KCore, LiveJournal),
                cpu(Tc, RoadUsa),
                cpu(KCore, RoadNetCa),
            ],
            Workload::SimZoo => {
                let mut v = Vec::new();
                for target in [Target::Gpu, Target::Swarm, Target::HammerBlade] {
                    for algo in [Bfs, Sssp, Cc, Bc, KCore] {
                        for dataset in [RoadNetCa, Pokec] {
                            // Swarm BC on PK costs 1.9 s of host time alone.
                            if (target, algo, dataset) != (Target::Swarm, Bc, Pokec) {
                                v.push(Cell {
                                    target,
                                    algo,
                                    dataset,
                                    scale: Scale::Small,
                                });
                            }
                        }
                    }
                }
                for target in [Target::Gpu, Target::HammerBlade] {
                    v.push(Cell {
                        target,
                        algo: PageRank,
                        dataset: RoadNetCa,
                        scale: Scale::Small,
                    });
                }
                v
            }
            Workload::ServeMix => Vec::new(),
        };
        if tiny {
            for c in &mut cells {
                c.scale = Scale::Tiny;
            }
        }
        cells
    }

    /// The query classes of `serve-mix` (empty for the cell workloads).
    /// `weight` is how often the class appears in one cycle of its stream;
    /// the heaviest class of each stream carries at least a fifth of it,
    /// so a stream's p95 falls inside one class.
    pub fn classes(self, tiny: bool) -> Vec<Class> {
        if self != Workload::ServeMix {
            return Vec::new();
        }
        let class = |stream, algo, dataset, scale, weight| Class {
            stream,
            algo,
            dataset,
            scale: if tiny { Scale::Tiny } else { scale },
            weight,
        };
        use Scale::{Medium, Small};
        use Stream::{Analytics, Point};
        vec![
            class(Point, Bfs, Twitter, Medium, 4),
            class(Point, Sssp, Twitter, Medium, 3),
            class(Point, Bfs, RoadUsa, Medium, 3),
            class(Point, Bfs, Pokec, Medium, 2),
            class(Point, Sssp, Pokec, Medium, 2),
            class(Analytics, Cc, Pokec, Medium, 4),
            class(Analytics, Bc, LiveJournal, Medium, 3),
            class(Analytics, Lp, Pokec, Medium, 3),
            class(Analytics, PageRank, Pokec, Small, 3),
            class(Analytics, Cc, RoadNetCa, Medium, 2),
        ]
    }
}

/// One (GraphVM, algorithm, dataset/scale) of the paper's evaluation grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    pub target: Target,
    pub algo: Algorithm,
    pub dataset: Dataset,
    pub scale: Scale,
}

impl Cell {
    /// `BFS-RU`: unique within a GraphVM.
    pub fn short(&self) -> String {
        format!("{}-{}", self.algo.name(), self.dataset.abbrev())
    }

    /// `CPU-BFS-RU`: unique within the benchmark.
    pub fn label(&self) -> String {
        format!("{}-{}", vm_name(self.target), self.short())
    }
}

/// The layer (crate) name of a GraphVM, as used in metric names.
pub fn vm_layer(target: Target) -> &'static str {
    match target {
        Target::Cpu => "backend-cpu",
        Target::Gpu => "backend-gpu",
        Target::Swarm => "backend-swarm",
        Target::HammerBlade => "backend-hb",
    }
}

fn vm_name(target: Target) -> &'static str {
    match target {
        Target::Cpu => "CPU",
        Target::Gpu => "GPU",
        Target::Swarm => "SWARM",
        Target::HammerBlade => "HB",
    }
}

/// Which `serve-mix` client sends a class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// BFS/SSSP: answered by `algorithms::multi_source` on the worker thread.
    Point,
    /// CC/BC/LP/PR: the compiled CPU GraphVM on the shared pool.
    Analytics,
}

impl Stream {
    pub const BOTH: [Stream; 2] = [Stream::Point, Stream::Analytics];

    pub fn name(self) -> &'static str {
        match self {
            Stream::Point => "point",
            Stream::Analytics => "analytics",
        }
    }
}

/// One wire query class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Class {
    pub stream: Stream,
    pub algo: Algorithm,
    pub dataset: Dataset,
    pub scale: Scale,
    pub weight: usize,
}

impl Class {
    /// `bfs-TW`.
    pub fn label(&self) -> String {
        format!(
            "{}-{}",
            self.algo.name().to_ascii_lowercase(),
            self.dataset.abbrev()
        )
    }
}

/// Direction of a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One declared metric. `bound` is set for end-to-end metrics only.
#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees; every workload reports every one.
/// Definitions are in README.md.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let bounded = |name: &str, unit, better, bound| MetricDef {
        bound: Some(bound),
        ..def(name, unit, better)
    };
    // All at the contract's ceiling: README.md, "Why the minimum", has the
    // spreads that leave no room for less on this sandbox.
    vec![
        bounded("run_ms_geomean", "ms", Lower, 0.25),
        bounded("medges_per_s", "Medges/s", Higher, 0.25),
        bounded("qps", "1/s", Higher, 0.25),
        bounded("vm_ms_geomean", "ms", Lower, 0.25),
        bounded("peak_rss_mb", "MB", Lower, 0.25),
        bounded("setup_s", "s", Lower, 0.25),
    ]
}

/// Every CPU cell of the two CPU workloads, for the per-cell layer rows.
pub fn cpu_cells() -> Vec<Cell> {
    let mut v = Workload::CpuKernels.cells(false);
    v.extend(Workload::CpuInterp.cells(false));
    v
}

/// The cycle-attribution components of each simulator, as
/// `ugc_bench::profile::component_keys` names them.
pub fn sim_components(target: Target) -> Vec<&'static str> {
    ugc_bench::profile::component_keys(target)
        .iter()
        .map(|&(label, _)| label)
        .collect()
}

/// Single-layer metrics, from the `--trace 1` run. A metric with a time
/// unit is a probe that runs the same way in every workload; everything
/// that depends on the workload is a count, share, ratio or rate and reads
/// 0 on a workload that bypasses the layer.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut v = vec![
        def("frontend.parse_check_us", "us", Lower),
        def("midend.lower_us", "us", Lower),
        def("midend.passes_us", "us", Lower),
        def("midend.ir_nodes", "count", Lower),
        def("core.compile_us", "us", Lower),
        def("core.snapshot_ms", "ms", Lower),
        def("graph.generate_ms", "ms", Lower),
        def("graph.transpose_ms", "ms", Lower),
        def("graph.resident_mb", "MB", Lower),
        def("runtime.pool.dispatch_us", "us", Lower),
        def("runtime.pool.steals", "1/op", Lower),
        def("runtime.pool.parks", "1/op", Lower),
    ];
    for c in cpu_cells() {
        v.push(def(
            format!("backend-cpu.cell.{}.medges_per_s", c.short()),
            "Medges/s",
            Higher,
        ));
    }
    v.extend([
        def("backend-cpu.kernel.specialized", "1/op", Higher),
        def("backend-cpu.kernel.fallback", "1/op", Lower),
        def("backend-cpu.edge_push_share", "share", Lower),
        def("backend-cpu.edge_pull_share", "share", Lower),
        def("backend-cpu.vertex_apply_share", "share", Lower),
        def("backend-cpu.speedup_2t", "x", Higher),
    ]);
    for target in [Target::Gpu, Target::Swarm, Target::HammerBlade] {
        let layer = vm_layer(target);
        v.push(def(format!("{layer}.mcycles_geomean"), "Mcycles", Lower));
        v.push(def(
            format!("{layer}.cycles_per_host_us"),
            "cycles/us",
            Higher,
        ));
        for comp in sim_components(target) {
            v.push(def(format!("{layer}.{comp}_share"), "share", Lower));
        }
    }
    v.extend([
        def("algorithms.multi_source.bfs1_ms", "ms", Lower),
        def("algorithms.multi_source.bfs8_ms", "ms", Lower),
        def("algorithms.multi_source.sssp1_ms", "ms", Lower),
        def("algorithms.multi_source.sssp8_ms", "ms", Lower),
        def("algorithms.multi_source.batch8_gain", "x", Higher),
        def("serve.protocol.parse_ns", "ns", Lower),
        def("serve.cache.build_ms", "ms", Lower),
        def("serve.cache.hit_us", "us", Lower),
        def("serve.gate.handoff_us", "us", Lower),
        def("serve.gate.linger_ms", "ms", Lower),
        def("serve.tuner.settle_share", "share", Lower),
    ]);
    for s in Stream::BOTH {
        v.push(def(format!("serve.{}.qps", s.name()), "1/s", Higher));
        v.push(def(
            format!("serve.{}.overhead_share", s.name()),
            "share",
            Lower,
        ));
        v.push(def(format!("serve.{}.p95_over_p50", s.name()), "x", Lower));
    }
    for name in [
        "serve.coalesced",
        "serve.batches",
        "serve.tuned_hits",
        "serve.cache_hits",
    ] {
        v.push(def(name, "count", Higher));
    }
    for name in [
        "serve.errors",
        "serve.rejected",
        "serve.shed",
        "resilience.retries",
        "resilience.fallbacks",
    ] {
        v.push(def(name, "count", Lower));
    }
    v.extend([
        def("trace.compile_share", "share", Lower),
        def("trace.execute_share", "share", Higher),
        def("trace.other_share", "share", Lower),
        def("trace.self_sum_err", "share", Lower),
        def("trace.overhead_share", "share", Lower),
    ]);
    v
}
