//! The child process of a cell workload: set-up, then timed interleaved
//! sweeps (every cell once per sweep, so a noisy second costs each cell one
//! sample instead of costing one cell all of them).

use std::time::{Duration, Instant};

use ugc::{Compiler, RunResult, Target, UgcError};
use ugc_graph::Graph;
use ugc_schedule::ScheduleRef;
use ugc_telemetry::Collector;

use crate::check::{self, Expect};
use crate::spec::{Cell, Workload};
use crate::stats::Rng;
use crate::trace::{self, Trace};
use crate::{emit, graphs, ChildOpts};

/// A cell with the inputs a user would prepare for it.
struct Prepared<'g> {
    cell: Cell,
    graph: &'g Graph,
    schedule: ScheduleRef,
    source: u32,
}

impl Prepared<'_> {
    fn compiler(&self) -> Compiler {
        let mut c = Compiler::new(self.cell.algo);
        c.schedule(self.cell.algo.schedule_path(), self.schedule.clone());
        if self.cell.algo.needs_start_vertex() {
            c.start_vertex(self.source);
        }
        c
    }

    /// One op as a user makes it: compile, supervised run, property
    /// snapshot, in a single call.
    fn op(&self) -> (Result<RunResult, UgcError>, Duration) {
        let t = Instant::now();
        let r = self.compiler().run(self.cell.target, self.graph);
        (r, t.elapsed())
    }

    /// The same op through the two public calls `run` is made of, each in
    /// a span. On the CPU the GraphVM reports its own wall time, which
    /// becomes a child span; the simulators report simulated time, so
    /// their host time stays one span.
    fn traced_op(&self, trace: &mut Trace, op: u32) -> (Result<RunResult, UgcError>, Duration) {
        let root = trace.begin("op", op, None);
        let c = self.compiler();
        let s = trace.begin("core.compile", op, Some(root));
        let prog = c.compile();
        trace.end(s);
        let r = prog.and_then(|prog| {
            let s = trace.begin("core.run_compiled", op, Some(root));
            let r = c.run_compiled(self.cell.target, prog, self.graph);
            trace.end(s);
            if let (Target::Cpu, Ok(r)) = (self.cell.target, &r) {
                trace.reported("backend.execute", op, s, (r.time_ms * 1e6) as u64);
            }
            r
        });
        trace.end(root);
        let span = &trace.spans[root];
        (r, Duration::from_nanos(span.end_ns - span.start_ns))
    }
}

/// Samples of one cell within this child.
#[derive(Default)]
struct Samples {
    ms: Vec<f64>,
    traced_ms: Vec<f64>,
    vm_ms: Vec<f64>,
    cycles: Option<u64>,
}

pub fn run(w: Workload, opts: &ChildOpts) {
    let cells = w.cells(opts.tiny);
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut fail = |what: String| {
        failed += 1;
        emit::fail(&what);
    };

    // Set-up, part 1: the graphs. Program work, so it is timed.
    let keys = graphs::distinct(cells.iter().map(|c| (c.dataset, c.scale)));
    let (mut generate, mut transpose) = (Duration::ZERO, Duration::ZERO);
    let mut built: Vec<Graph> = Vec::new();
    for &key in &keys {
        let (g, gen, tr) = graphs::build(key);
        generate += gen;
        transpose += tr;
        built.push(g);
    }
    let resident: usize = built.iter().map(Graph::resident_bytes).sum();

    // Inputs, from the seed: one start vertex per graph that a traversal
    // runs on. Not program work.
    let prepared: Vec<Prepared<'_>> = {
        let sources: Vec<u32> = keys
            .iter()
            .zip(&built)
            .enumerate()
            .map(|(i, (&key, g))| {
                let wanted = cells
                    .iter()
                    .any(|c| (c.dataset, c.scale) == key && c.algo.needs_start_vertex());
                if wanted {
                    check::SourcePicker::new(g).pick(&mut Rng::new(opts.seed, i as u64), 1)[0]
                } else {
                    0
                }
            })
            .collect();
        cells
            .iter()
            .map(|&cell| {
                let i = keys
                    .iter()
                    .position(|&k| k == (cell.dataset, cell.scale))
                    .expect("every cell's graph was generated");
                Prepared {
                    cell,
                    graph: &built[i],
                    schedule: ugc_bench::tuned_schedule_for(cell.target, cell.algo, &built[i]),
                    source: sources[i],
                }
            })
            .collect()
    };

    // Set-up, part 2: the cold first op of every cell, validated in full
    // (outside the timing).
    let mut cold = Duration::ZERO;
    let mut expects: Vec<Option<Expect>> = Vec::new();
    let mut samples: Vec<Samples> = Vec::new();
    for p in &prepared {
        attempted += 1;
        let (r, took) = p.op();
        cold += took;
        let mut s = Samples::default();
        expects.push(match r {
            Ok(r) => {
                s.cycles = Some(r.cycles);
                match check::validate_cold(p.cell.algo, p.graph, p.source, &r) {
                    Ok(e) => Some(e),
                    Err(e) => {
                        fail(format!("{} cold op: {e}", p.cell.label()));
                        None
                    }
                }
            }
            Err(e) => {
                fail(format!("{} cold op: {e}", p.cell.label()));
                None
            }
        });
        samples.push(s);
    }
    let setup = generate + transpose + cold;

    // Timed sweeps.
    let origin = Instant::now();
    let mut trace = Trace::new(origin);
    let collector = Collector::start();
    let pool_before = ugc_runtime::pool::telemetry();
    let budget = Duration::from_secs_f64(opts.seconds);
    // Sweeps come in rounds: one sweep, or with tracing on an untraced
    // and a traced one, so the two kinds are compared under the same
    // conditions and on the same number of samples.
    let round = if opts.trace { 2 } else { 1 };
    let mut sweeps = 0usize;
    let mut timed_ops = 0u64;
    let mut last_sweep = Duration::ZERO;
    // There is always one round; a further one is not started if it would
    // end past the budget.
    while sweeps < round
        || !sweeps.is_multiple_of(round)
        || (sweeps < opts.max_sweeps && origin.elapsed() + last_sweep * round as u32 <= budget)
    {
        let sweep_start = Instant::now();
        let traced = opts.trace && sweeps % 2 == 1;
        for (i, p) in prepared.iter().enumerate() {
            let Some(expect) = &expects[i] else { continue };
            attempted += 1;
            timed_ops += 1;
            let (r, took) = if traced {
                p.traced_op(&mut trace, attempted as u32)
            } else {
                p.op()
            };
            let s = &mut samples[i];
            let ms = took.as_secs_f64() * 1e3;
            match r {
                Ok(r) => {
                    if traced { &mut s.traced_ms } else { &mut s.ms }.push(ms);
                    s.vm_ms.push(r.time_ms);
                    if let Err(e) = check::check_timed(p.cell.algo, &r, expect) {
                        fail(format!("{} sweep {sweeps}: {e}", p.cell.label()));
                    }
                    // Simulated time is exact: any drift is a failure.
                    if s.cycles != Some(r.cycles) {
                        fail(format!(
                            "{} sweep {sweeps}: {} cycles, the cold op took {:?}",
                            p.cell.label(),
                            r.cycles,
                            s.cycles
                        ));
                    }
                }
                Err(e) => fail(format!("{} sweep {sweeps}: {e}", p.cell.label())),
            }
        }
        last_sweep = sweep_start.elapsed();
        sweeps += 1;
    }
    let counters = collector.snapshot();
    let pool_after = ugc_runtime::pool::telemetry();

    emit::ops(attempted, failed);
    // A cell's time is the least of its samples: the host only ever adds
    // time to an op (README.md, "Why the minimum"). The parent takes the
    // least over the children too.
    let least = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    for (p, s) in prepared.iter().zip(&samples) {
        if s.ms.is_empty() {
            // Already counted as a failed op; the parent sees the gap.
            continue;
        }
        emit::cell(
            &p.cell.label(),
            p.graph.num_edges(),
            least(&s.ms),
            least(&s.vm_ms),
            s.cycles.unwrap_or(0),
            (!s.traced_ms.is_empty()).then(|| least(&s.traced_ms)),
        );
    }
    emit::kv("setup_s", setup.as_secs_f64());
    emit::kv("peak_rss_mb", crate::peak_rss_mb());
    emit::kv("sweeps", sweeps as f64);
    if !opts.trace {
        return;
    }

    // Per-layer values this child can see.
    emit::kv("graph.generate_ms", generate.as_secs_f64() * 1e3);
    emit::kv("graph.transpose_ms", transpose.as_secs_f64() * 1e3);
    emit::kv("graph.resident_mb", resident as f64 / 1e6);
    emit::runtime_counters(&pool_before, &pool_after, &counters, timed_ops);
    for target in Target::ALL {
        if cells.iter().any(|c| c.target == target) {
            emit::attribution(target, &counters);
        }
    }
    // The CPU GraphVM reports its own wall time; on the simulators
    // `run_compiled` is the execution, with no inner span to tell the
    // snapshot from it.
    let execute = if cells.iter().all(|c| c.target == Target::Cpu) {
        "backend.execute"
    } else {
        "core.run_compiled"
    };
    let sh = trace::shares(&[&trace], &["core.compile"], &[execute]);
    emit::shares(&sh);
    crate::write_trace(w, opts, &[&trace]);
}
