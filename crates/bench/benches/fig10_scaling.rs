//! Regenerates Fig. 10: BFS strong scaling on the HammerBlade manycore
//! (32→256 cores) and on Swarm (1→64 cores).
//!
//! Runs on the in-tree timing harness (warmup + median-of-N + one JSON
//! line per core count on stdout).

use std::time::Duration;

use ugc::{Algorithm, Compiler, Target};
use ugc_backend_hb::HbGraphVm;
use ugc_backend_swarm::SwarmGraphVm;
use ugc_bench::{tuned_schedule_for, Harness};
use ugc_graph::{Dataset, Scale};
use ugc_runtime::GraphVm;

fn externs() -> std::collections::HashMap<String, ugc_runtime::value::Value> {
    let mut m = std::collections::HashMap::new();
    m.insert(
        "start_vertex".to_string(),
        ugc_runtime::value::Value::Int(0),
    );
    m
}

/// Times tuned BFS on RC at tiny scale on each `(cores, vm)` machine, in
/// simulated cycles.
fn bfs_scaling<V: GraphVm>(h: &Harness, group: &str, target: Target, machines: [(usize, V); 4]) {
    let graph = Dataset::RoadCentral.generate(Scale::Tiny);
    for (cores, vm) in machines {
        h.bench(group, &format!("{cores}cores"), || {
            let mut comp = Compiler::new(Algorithm::Bfs);
            comp.start_vertex(0).schedule(
                Algorithm::Bfs.schedule_path(),
                tuned_schedule_for(target, Algorithm::Bfs, &graph),
            );
            let prog = comp.compile().expect("compiles");
            let run = vm.execute(prog, &graph, &externs()).expect("runs");
            Duration::from_nanos(run.cycles)
        });
    }
}

fn main() {
    let h = Harness::from_args();
    bfs_scaling(
        &h,
        "fig10a/hammerblade_bfs",
        Target::HammerBlade,
        [2usize, 4, 8, 16].map(|rows| (rows * 16, HbGraphVm::with_rows(rows))),
    );
    bfs_scaling(
        &h,
        "fig10b/swarm_bfs",
        Target::Swarm,
        [1usize, 4, 16, 64].map(|cores| (cores, SwarmGraphVm::with_cores(cores))),
    );
}
