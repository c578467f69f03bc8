//! The multicore-CPU GraphVM (paper §III-C1).
//!
//! Unlike the three simulated architectures, this backend runs GraphIR
//! programs on the *host* machine with real threads, matching how the
//! paper's CPU GraphVM emits OpenMP/Cilk C++. It supports the CPU
//! scheduling space of the original GraphIt compiler: push/pull/hybrid
//! traversal, vertex-based / edge-aware vertex-based / edge-based
//! parallelism, pull-frontier representations, output deduplication, and
//! ∆-stepping bucket widths.
//!
//! # Example
//!
//! ```no_run
//! use ugc_backend_cpu::{CpuGraphVm, CpuSchedule};
//! use ugc_runtime::GraphVm;
//! use ugc_schedule::{apply_schedule, ScheduleRef};
//!
//! let src = "...algorithm...";
//! let mut prog = ugc_midend::frontend_to_ir(src).unwrap();
//! let sched = CpuSchedule::new().with_direction(ugc_schedule::SchedDirection::Hybrid);
//! apply_schedule(&mut prog, "s1", ScheduleRef::simple(sched)).unwrap();
//! ugc_midend::run_passes(&mut prog).unwrap();
//! let graph = ugc_graph::generators::path(8);
//! let vm = CpuGraphVm::default();
//! let run = vm.execute(prog, &graph, &Default::default()).unwrap();
//! println!("took {} ms", run.time_ms);
//! ```

pub mod emitter;
pub mod executor;
pub mod kernels;
pub mod passes;
pub mod schedule;
pub mod vm;

pub use executor::{CpuAttribution, CpuExecutor, CpuStats, KernelDispatch};
pub use kernels::{EdgeKernel, KernelKey, Tier};
pub use schedule::{CpuSchedule, CpuScheduleSpace};
pub use vm::CpuGraphVm;
