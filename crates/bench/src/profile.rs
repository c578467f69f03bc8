//! `repro --profile` support: per-backend [`Attribution`] tables built
//! from telemetry snapshot deltas, summed over a whole workload. A single
//! run carries its own attribution in `RunResult::attribution`; this
//! module maps the registry's counter names to the same component sets.

pub use ugc::Attribution;
use ugc::{Algorithm, Target};
use ugc_graph::{Dataset, Scale};
use ugc_sim_gpu::GpuAttribution;
use ugc_sim_hb::HbAttribution;
use ugc_sim_swarm::SwarmAttribution;
use ugc_telemetry::{Collector, Snapshot};

use crate::{baseline_schedule, try_measure};

/// The component counters of one target: `(label, registry key)`.
/// The label order matches each simulator's `components()` accessor; the
/// simulators' tables come from their cycle ledgers.
#[must_use]
pub fn component_keys(target: Target) -> &'static [(&'static str, &'static str)] {
    match target {
        Target::Cpu => &[
            ("edge_push", "cpu.edge_push.ns"),
            ("edge_pull", "cpu.edge_pull.ns"),
            ("vertex_apply", "cpu.vertex_apply.ns"),
            ("other", "cpu.other.ns"),
        ],
        Target::Gpu => &GpuAttribution::COMPONENT_KEYS,
        Target::Swarm => &SwarmAttribution::COMPONENT_KEYS,
        Target::HammerBlade => &HbAttribution::COMPONENT_KEYS,
    }
}

/// The registry key holding the target's reported total.
#[must_use]
pub fn total_key(target: Target) -> &'static str {
    match target {
        Target::Cpu => "cpu.elapsed.ns",
        Target::Gpu => GpuAttribution::TOTAL_KEY,
        Target::Swarm => SwarmAttribution::TOTAL_KEY,
        Target::HammerBlade => HbAttribution::TOTAL_KEY,
    }
}

/// The registry prefix all of a target's counters share.
#[must_use]
pub fn counter_prefix(target: Target) -> &'static str {
    match target {
        Target::Cpu => "cpu.",
        Target::Gpu => GpuAttribution::COUNTER_PREFIX,
        Target::Swarm => SwarmAttribution::COUNTER_PREFIX,
        Target::HammerBlade => HbAttribution::COUNTER_PREFIX,
    }
}

/// Extracts `target`'s attribution from a snapshot delta: the registry's
/// components against the registry's total.
#[must_use]
pub fn attribution_from(target: Target, delta: &Snapshot) -> Attribution {
    let components = component_keys(target)
        .iter()
        .map(|&(label, key)| (label, delta.value(key)))
        .collect();
    Attribution {
        total: delta.value(total_key(target)),
        ..Attribution::of(target, components)
    }
}

/// The workload `repro --profile` runs per backend: PageRank (all-active,
/// bandwidth-shaped) plus BFS (frontier-driven) on a power-law graph, each
/// under the backend's default schedule.
///
/// Returns the attribution plus the full backend-prefixed snapshot delta
/// (attribution, events, and histograms) for appending to `BENCH_*.json`.
///
/// # Panics
///
/// Panics if a default-schedule run fails — that is a build bug, not a
/// usage error.
#[must_use]
pub fn profile_backend(target: Target, scale: Scale) -> (Attribution, Snapshot) {
    let graph = Dataset::Pokec.generate(scale);
    let col = Collector::start();
    for algo in [Algorithm::PageRank, Algorithm::Bfs] {
        let sched = baseline_schedule(target, algo);
        try_measure(target, algo, &graph, sched, 1).expect("profile workload runs");
    }
    let delta = col.snapshot_prefix(counter_prefix(target));
    (attribution_from(target, &delta), delta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_backend_accounts_for_every_cycle() {
        // Exact component-sum == total is asserted in
        // tests/telemetry_invariants.rs, whose binary serializes its
        // measurements; here sibling tests run backends concurrently, so a
        // registry delta may straddle another thread's update.
        for target in Target::ALL {
            let (attr, delta) = profile_backend(target, Scale::Tiny);
            if ugc_telemetry::enabled() {
                assert!(attr.total > 0, "{}: empty profile", target.name());
                assert!(!attr.summary().is_empty());
                assert!(!delta.is_empty());
            } else {
                assert_eq!(attr.total, 0);
                assert!(attr.summary().is_empty());
                assert!(delta.is_empty());
            }
        }
    }

    #[test]
    fn simulator_keys_are_the_registry_names() {
        // The benchmark reads these names; the ledgers must keep them.
        let keys = |t| {
            component_keys(t)
                .iter()
                .map(|&(l, k)| format!("{l}={k}"))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            keys(Target::Gpu).join(" "),
            "compute=sim_gpu.cycles.compute divergence=sim_gpu.cycles.divergence \
             mem_stall=sim_gpu.cycles.mem_stall launch=sim_gpu.cycles.launch \
             host=sim_gpu.cycles.host"
        );
        assert_eq!(
            keys(Target::Swarm).join(" "),
            "commit=sim_swarm.cycles.commit abort=sim_swarm.cycles.abort \
             idle_no_task=sim_swarm.cycles.idle_no_task \
             idle_cq_full=sim_swarm.cycles.idle_cq_full spill=sim_swarm.cycles.spill \
             host=sim_swarm.cycles.host"
        );
        assert_eq!(
            keys(Target::HammerBlade).join(" "),
            "compute=sim_hb.cycles.compute llc_access=sim_hb.cycles.llc_access \
             dram_stall=sim_hb.cycles.dram_stall bank=sim_hb.cycles.bank \
             barrier=sim_hb.cycles.barrier host=sim_hb.cycles.host"
        );
        for (target, ns) in [
            (Target::Gpu, "sim_gpu"),
            (Target::Swarm, "sim_swarm"),
            (Target::HammerBlade, "sim_hb"),
        ] {
            assert_eq!(total_key(target), format!("{ns}.cycles.total"));
            assert_eq!(counter_prefix(target), format!("{ns}."));
        }
    }

    #[test]
    fn summary_names_the_dominant_component() {
        let attr = Attribution {
            target: Target::Gpu,
            unit: "cycles",
            components: vec![("compute", 25), ("mem_stall", 70), ("launch", 5)],
            total: 100,
        };
        assert!(attr.is_consistent());
        assert_eq!(attr.summary(), "mem_stall 70% + compute 25% of 100 cycles");
    }
}
