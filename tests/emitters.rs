//! Emitter tests: every GraphVM emits its architecture's C++ dialect for
//! every algorithm, with the expected architectural markers, and the
//! output is deterministic.

use ugc::{Algorithm, Compiler, Target};

fn emit(algo: Algorithm, target: Target) -> String {
    Compiler::new(algo)
        .emit(target)
        .unwrap_or_else(|e| panic!("{} on {}: {e}", algo.name(), target.name()))
}

#[test]
fn all_algorithms_emit_for_all_targets() {
    for algo in Algorithm::ALL {
        for target in Target::ALL {
            let text = emit(algo, target);
            // TC's single-statement main keeps some dialects under 300
            // bytes, so the floor only guards against empty emission; the
            // structural check is the `main` entry point.
            assert!(
                text.len() > 150,
                "{} for {} suspiciously short",
                algo.name(),
                target.name()
            );
            // CPU/GPU/Swarm emit `int main(`; HammerBlade `kernel_main(`.
            assert!(
                text.contains("main("),
                "{} for {} has no entry point:\n{text}",
                algo.name(),
                target.name()
            );
        }
    }
}

#[test]
fn emission_is_deterministic() {
    for target in Target::ALL {
        assert_eq!(
            emit(Algorithm::Bc, target),
            emit(Algorithm::Bc, target),
            "{}",
            target.name()
        );
    }
}

#[test]
fn cpu_emitter_markers() {
    let text = emit(Algorithm::Bfs, Target::Cpu);
    assert!(text.contains("#include \"ugc_cpu_runtime.h\""), "{text}");
    assert!(text.contains("edgeset_apply_push"), "{text}");
    assert!(text.contains("int main(int argc, char* argv[])"), "{text}");
}

#[test]
fn cpu_emitter_marks_oriented_tc() {
    // The CPU pass marks TC's edge operator, and the emitter says so; no
    // other algorithm's operator is marked.
    let text = emit(Algorithm::Tc, Target::Cpu);
    assert!(
        text.contains("oriented: each triangle once into tri on a symmetric simple graph"),
        "{text}"
    );
    for algo in Algorithm::ALL.into_iter().filter(|&a| a != Algorithm::Tc) {
        assert!(
            !emit(algo, Target::Cpu).contains("oriented:"),
            "{}",
            algo.name()
        );
    }
    assert!(!emit(Algorithm::Tc, Target::Gpu).contains("oriented"));
}

#[test]
fn cuda_emitter_markers() {
    let text = emit(Algorithm::Bfs, Target::Gpu);
    assert!(text.contains("__device__"), "{text}");
    assert!(text.contains("<<<GRID, BLOCK>>>"), "{text}");
    assert!(text.contains("cudaDeviceSynchronize()"), "{text}");
}

#[test]
fn t4_emitter_markers() {
    let text = emit(Algorithm::Sssp, Target::Swarm);
    assert!(text.contains("#include \"swarm/api.h\""), "{text}");
    assert!(text.contains("swarm::run()"), "{text}");
}

#[test]
fn hb_emitter_markers() {
    let text = emit(Algorithm::PageRank, Target::HammerBlade);
    assert!(text.contains("bsg_manycore.h"), "{text}");
    assert!(text.contains("launch_edge_kernel"), "{text}");
    assert!(text.contains("device_barrier()"), "{text}");
    assert!(text.contains(".dram"), "{text}");
}

#[test]
fn atomics_marked_in_device_code() {
    // The atomics-insertion pass's output is visible in CUDA for PR's
    // push-mode rank accumulation.
    let text = emit(Algorithm::PageRank, Target::Gpu);
    assert!(text.contains("atomicAdd"), "{text}");
}

#[test]
fn bc_emits_transposed_traversal() {
    let text = emit(Algorithm::Bc, Target::Cpu);
    assert!(text.contains("transposed"), "{text}");
}
