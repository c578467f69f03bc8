//! The Swarm GraphVM (paper §III-C3).
//!
//! Swarm extracts parallelism by speculating across timestamped tasks, so
//! this GraphVM "focuses a great deal on eliminating false dependencies
//! between memory accesses". Its passes and execution strategies:
//!
//! * **From vertex sets to tasks** ([`executor`]'s loop conversion): the
//!   canonical `while (frontier not empty)` loop is replaced by task
//!   spawns — a vertex visited in round `r` spawns its neighbors at
//!   timestamp `r + 1`, letting rounds overlap speculatively instead of
//!   being separated by software work queues. Priority-driven loops
//!   (∆-stepping) become tasks timestamped by priority bucket.
//! * **Fine-grained splitting with spatial hints**: per-edge-chunk subtasks
//!   carrying the written cache line as a hint, so the hardware serializes
//!   same-line updates instead of aborting them (Fig. 5's
//!   `#pragma task hint(&(parent[dst]))`).
//! * **From shared to private state**: round counters are passed
//!   functionally instead of read from a shared location.
//! * **Edge shuffling** for topology-driven algorithms, trading locality
//!   for fewer same-line overlaps.
//!
//! The GraphVM executes program logic functionally (exact results) while
//! recording task footprints for the [`ugc_sim_swarm`] timing model, and
//! emits T4-flavored C++ ([`emitter`]).

pub mod emitter;
pub mod executor;
pub mod schedule;
pub mod vm;

pub use executor::SwarmExecutor;
pub use schedule::{Frontiers, SwarmSchedule, SwarmScheduleSpace, TaskGranularity};
pub use vm::SwarmGraphVm;
