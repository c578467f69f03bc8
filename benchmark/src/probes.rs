//! Layer probes: each times one layer through its public functions, the
//! same way in every workload, so a number here names its layer without
//! the rest of the system in the way. Run once per `--trace 1` run, in a
//! child of their own.

use std::hint::black_box;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ugc::{Algorithm, Compiler, Target};
use ugc_algorithms::multi_source as ms;
use ugc_graph::stats::DegreeProfile;
use ugc_graph::{Dataset, Scale};
use ugc_serve::gate::{Gate, Pending};
use ugc_serve::protocol::{parse_request, Request};
use ugc_serve::{GraphCache, ServeConfig};

use crate::check;
use crate::spec::Workload;
use crate::stats::{geomean, median_of, Rng};
use crate::{emit, ChildOpts};

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms_of(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Frontend, midend and `Compiler::compile` over the eight algorithm
/// sources: mean time per source. Lowering is `frontend_to_ir` minus the
/// parse and check it starts with.
fn compile_layers(iters: usize) {
    let (mut parse, mut to_ir, mut passes, mut compile) = (
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
    );
    let mut nodes = 0u64;
    for algo in Algorithm::ALL {
        let src = algo.source();
        let mut c = Compiler::new(algo);
        c.schedule(
            algo.schedule_path(),
            ugc_bench::tuned_schedule(Target::Cpu, algo, DegreeProfile::PowerLaw),
        );
        for _ in 0..iters {
            let t = Instant::now();
            black_box(ugc_frontend::parse_and_check(black_box(src)).expect("source checks"));
            parse += t.elapsed();
            let t = Instant::now();
            let mut prog = ugc_midend::frontend_to_ir(black_box(src)).expect("source lowers");
            to_ir += t.elapsed();
            let t = Instant::now();
            ugc_midend::run_passes(&mut prog).expect("passes run");
            passes += t.elapsed();
            black_box(&prog);
            let t = Instant::now();
            black_box(c.compile().expect("source compiles"));
            compile += t.elapsed();
        }
        nodes += ugc_midend::ir_size(&c.compile().expect("source compiles"));
    }
    let per = (iters * Algorithm::ALL.len()) as f64;
    emit::kv("frontend.parse_check_us", us(parse) / per);
    emit::kv("midend.lower_us", us(to_ir.saturating_sub(parse)) / per);
    emit::kv("midend.passes_us", us(passes) / per);
    emit::kv("midend.ir_nodes", nodes as f64);
    emit::kv("core.compile_us", us(compile) / per);
}

/// An empty-body `parallel_for` over 65536 indices on the default thread
/// count: what one parallel round costs before it does anything.
fn pool_dispatch(iters: usize) {
    let threads = ugc_runtime::pool::default_threads();
    let run = || {
        ugc_runtime::pool::parallel_for(threads, 65536, 1, |_, range| {
            black_box(range);
        })
    };
    for _ in 0..iters / 10 {
        run();
    }
    let t = Instant::now();
    for _ in 0..iters {
        run();
    }
    emit::kv("runtime.pool.dispatch_us", us(t.elapsed()) / iters as f64);
}

/// `run_compiled` wall time minus the time the CPU GraphVM reports for
/// itself: state set-up plus the property snapshot, on the workload's
/// first graph.
fn snapshot(w: Workload, tiny: bool) {
    let (dataset, scale) = match w.cells(tiny).first() {
        Some(c) => (c.dataset, c.scale),
        None => {
            let c = w.classes(tiny)[0];
            (c.dataset, c.scale)
        }
    };
    let g = dataset.generate(scale);
    let c = Compiler::new(Algorithm::Cc);
    let prog = c.compile().expect("CC compiles");
    let mut outside = Vec::new();
    for i in 0..6 {
        let p = prog.clone();
        let t = Instant::now();
        let r = c.run_compiled(Target::Cpu, p, &g).expect("CC runs");
        let wall = ms_of(t.elapsed());
        // The first run warms the transpose and the pool.
        if i > 0 {
            outside.push(wall - r.time_ms);
        }
    }
    emit::kv("core.snapshot_ms", median_of(outside));
}

/// Eight single-source traversals against one eight-lane batched
/// traversal of the same sources: the engine `serve` coalesces into, which
/// two connections almost never reach end to end.
fn multi_source(seed: u64, tiny: bool) {
    let scale = if tiny { Scale::Tiny } else { Scale::Medium };
    let g = Dataset::Twitter.generate(scale);
    let sources = check::SourcePicker::new(&g).pick(&mut Rng::new(seed, 0xB47C), 8);
    let time = |f: &dyn Fn()| {
        median_of((0..5).map(|_| {
            let t = Instant::now();
            f();
            ms_of(t.elapsed())
        }))
    };
    let bfs1 = time(&|| {
        for &s in &sources {
            black_box(ms::bfs_levels_counted(&g, s));
        }
    }) / 8.0;
    let bfs8 = time(&|| {
        black_box(ms::ms_bfs_levels(&g, &sources));
    });
    let sssp1 = time(&|| {
        for &s in &sources {
            black_box(ms::sssp_distances_counted(&g, s));
        }
    }) / 8.0;
    let sssp8 = time(&|| {
        black_box(ms::ms_sssp_distances(&g, &sources));
    });
    emit::kv("algorithms.multi_source.bfs1_ms", bfs1);
    emit::kv("algorithms.multi_source.bfs8_ms", bfs8);
    emit::kv("algorithms.multi_source.sssp1_ms", sssp1);
    emit::kv("algorithms.multi_source.sssp8_ms", sssp8);
    emit::kv(
        "algorithms.multi_source.batch8_gain",
        geomean([8.0 * bfs1 / bfs8, 8.0 * sssp1 / sssp8]),
    );
}

fn spec_of(line: &str) -> ugc_serve::QuerySpec {
    match parse_request(line) {
        Ok(Request::Query(spec)) => spec,
        other => panic!("`{line}` is a query, got {other:?}"),
    }
}

/// Time from `Gate::submit` to `next_batch` handing the query to a waiting
/// worker, with the daemon's default queue, batch cap and linger window.
fn gate_handoff(line: &str, iters: usize) -> Vec<Duration> {
    let cfg = ServeConfig::default();
    let gate = Gate::new(cfg.queue_cap, cfg.batch_max, cfg.batch_window);
    let spec = spec_of(line);
    let (taken_tx, taken_rx) = mpsc::channel::<Instant>();
    std::thread::scope(|s| {
        s.spawn(|| {
            while let Some(batch) = gate.next_batch() {
                let now = Instant::now();
                drop(batch);
                if taken_tx.send(now).is_err() {
                    break;
                }
            }
        });
        let mut out = Vec::with_capacity(iters);
        for _ in 0..iters {
            let (reply, _keep) = mpsc::channel();
            let submitted = Instant::now();
            let admitted = gate.submit(Pending {
                spec,
                reply,
                enqueued: submitted,
                deadline: None,
            });
            assert!(admitted.is_ok(), "an empty gate admits");
            let taken = taken_rx.recv().expect("the worker takes the query");
            out.push(taken.duration_since(submitted));
        }
        gate.close();
        out
    })
}

/// Protocol, cache and gate of `ugc-serve`, each alone.
fn serve_layers(iters: usize) {
    let lines = [
        "query bfs TW scale=medium source=4242",
        "query sssp PK scale=medium source=17 deadline_ms=500",
        "query cc RN scale=medium",
        "query lp PK scale=medium max_iters=20",
        "query kcore LJ scale=small k=3",
        "stats",
    ];
    let t = Instant::now();
    for _ in 0..iters {
        for line in lines {
            black_box(parse_request(black_box(line)).expect("a valid request"));
        }
    }
    emit::kv(
        "serve.protocol.parse_ns",
        t.elapsed().as_secs_f64() * 1e9 / (iters * lines.len()) as f64,
    );

    let cache = Arc::new(GraphCache::new());
    let t = Instant::now();
    drop(cache.get(Dataset::Pokec, Scale::Small).expect("no cap"));
    emit::kv("serve.cache.build_ms", ms_of(t.elapsed()));
    let t = Instant::now();
    for _ in 0..iters {
        black_box(cache.get(Dataset::Pokec, Scale::Small).expect("no cap"));
    }
    emit::kv("serve.cache.hit_us", us(t.elapsed()) / iters as f64);

    // CC never lingers for batch-mates; a lone BFS waits out the window.
    emit::kv(
        "serve.gate.handoff_us",
        median_of(gate_handoff("query cc PK", iters).into_iter().map(us)),
    );
    emit::kv(
        "serve.gate.linger_ms",
        median_of(gate_handoff("query bfs PK", 20).into_iter().map(ms_of)),
    );
}

pub fn run(w: Workload, opts: &ChildOpts) {
    let iters = if opts.tiny { 20 } else { 200 };
    compile_layers(iters);
    pool_dispatch(10 * iters);
    snapshot(w, opts.tiny);
    multi_source(opts.seed, opts.tiny);
    serve_layers(10 * iters);
    emit::ops(0, 0);
}
