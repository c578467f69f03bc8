//! The repo benchmark: four workloads, measured from outside the program.
//! README.md has the design; `run.sh` builds and runs this binary.
//!
//! A run of one workload is two fresh child processes of this binary
//! (`--child`), one after the other, each doing its own set-up and half of
//! the timed seconds; the parent folds what they print into the metrics.
//! With `--trace 1` two more children follow: one with `UGC_THREADS=1`
//! (CPU cell workloads only) and one for the layer probes.

mod cells;
mod check;
mod graphs;
mod probes;
mod serve;
mod spec;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use spec::{Better, MetricDef, Stream, Workload};
use stats::{geomean, median_of, percentile};

/// Fresh processes per run; each gets an equal share of `--seconds`.
const CHILDREN: usize = 2;
/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
const RUN_SECONDS: u64 = 22;

/// What a child is told to do.
pub struct ChildOpts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    pub max_sweeps: usize,
    /// Position among the run's children, for the trace file.
    pub child: usize,
    pub out_dir: PathBuf,
}

/// The line protocol from child to parent, on the child's standard output.
pub mod emit {
    /// A named value; the parent takes the median over children.
    pub fn kv(name: &str, value: f64) {
        println!("@kv {name} {value}");
    }

    /// A cell: the least of its samples in this child.
    pub fn cell(label: &str, edges: usize, ms: f64, vm_ms: f64, cycles: u64, traced: Option<f64>) {
        let traced = traced.unwrap_or(f64::NAN);
        println!("@cell {label} {edges} {ms} {vm_ms} {cycles} {traced}");
    }

    /// A query class of `serve-mix`.
    pub fn class(label: &str, edges: usize) {
        println!("@class {label} {edges}");
    }

    /// One wire query; the parent pools them over the children.
    pub fn sample(stream: &str, class: &str, latency_ms: f64, exec_ms: f64, traced: bool) {
        println!(
            "@sample {stream} {class} {latency_ms} {exec_ms} {}",
            u8::from(traced)
        );
    }

    pub fn ops(attempted: u64, failed: u64) {
        println!("@ops {attempted} {failed}");
    }

    pub fn fail(what: &str) {
        println!("@fail {}", what.replace('\n', " "));
    }

    /// What the shared runtime did per timed op: pool traffic and which
    /// kind of CPU kernel ran.
    pub fn runtime_counters(
        before: &ugc_runtime::pool::PoolTelemetry,
        after: &ugc_runtime::pool::PoolTelemetry,
        delta: &ugc_telemetry::Snapshot,
        ops: u64,
    ) {
        let per_op = |n: u64| n as f64 / ops as f64;
        kv("runtime.pool.steals", per_op(after.steals - before.steals));
        kv("runtime.pool.parks", per_op(after.parks - before.parks));
        for kind in ["specialized", "fallback"] {
            kv(
                &format!("backend-cpu.kernel.{kind}"),
                per_op(delta.value(&format!("cpu.kernel.{kind}"))),
            );
        }
    }

    /// Where the traced ops' wall time went.
    pub fn shares(sh: &crate::trace::Shares) {
        kv("trace.compile_share", sh.compile);
        kv("trace.execute_share", sh.execute);
        kv("trace.other_share", sh.other);
        kv("trace.self_sum_err", sh.self_sum_err);
    }

    /// A GraphVM's time attribution over the timed part, as shares of its
    /// total. The CPU's `other` is the remainder and is left out.
    pub fn attribution(target: ugc::Target, delta: &ugc_telemetry::Snapshot) {
        let attr = ugc_bench::attribution_from(target, delta);
        let layer = crate::spec::vm_layer(target);
        for (label, amount) in &attr.components {
            if *label != "other" {
                kv(
                    &format!("{layer}.{label}_share"),
                    *amount as f64 / attr.total.max(1) as f64,
                );
            }
        }
    }
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1e3
}

fn trace_path(out_dir: &std::path::Path, w: Workload) -> PathBuf {
    out_dir.join(format!("trace-{}.jsonl", w.name()))
}

/// Appends a child's spans to the workload's trace file.
pub fn write_trace(w: Workload, opts: &ChildOpts, traces: &[&trace::Trace]) {
    let path = trace_path(&opts.out_dir, w);
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .unwrap_or_else(|e| panic!("open {}: {e}", path.display()));
    let mut out = std::io::BufWriter::new(file);
    for t in traces {
        t.write_jsonl(&mut out, opts.child)
            .and_then(|()| out.flush())
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }
}

/// A cell or query class with its times.
#[derive(Debug, Clone)]
struct Row {
    label: String,
    edges: f64,
    ms: f64,
    vm_ms: f64,
    cycles: u64,
    traced_ms: Option<f64>,
}

/// One wire query.
struct Sample {
    stream: String,
    class: String,
    latency_ms: f64,
    exec_ms: f64,
    traced: bool,
}

/// What one child printed.
#[derive(Default)]
struct ChildData {
    kv: BTreeMap<String, f64>,
    cells: Vec<Row>,
    /// (label, edges)
    classes: Vec<(String, f64)>,
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    fails: Vec<String>,
}

fn parse_child(stdout: &str) -> Result<ChildData, String> {
    let mut d = ChildData::default();
    let mut saw_ops = false;
    for line in stdout.lines() {
        let mut it = line.split(' ');
        let bad = || format!("malformed child line: {line}");
        let word = |s: Option<&str>| s.map(str::to_string).ok_or_else(bad);
        let num = |s: Option<&str>| s.and_then(|s| s.parse::<f64>().ok()).ok_or_else(bad);
        match it.next() {
            Some("@kv") => {
                d.kv.insert(word(it.next())?, num(it.next())?);
            }
            Some("@cell") => {
                let (label, edges) = (word(it.next())?, num(it.next())?);
                let (ms, vm_ms) = (num(it.next())?, num(it.next())?);
                let cycles = num(it.next())? as u64;
                let traced_ms = Some(num(it.next())?).filter(|t| t.is_finite());
                d.cells.push(Row {
                    label,
                    edges,
                    ms,
                    vm_ms,
                    cycles,
                    traced_ms,
                });
            }
            Some("@class") => d.classes.push((word(it.next())?, num(it.next())?)),
            Some("@sample") => d.samples.push(Sample {
                stream: word(it.next())?,
                class: word(it.next())?,
                latency_ms: num(it.next())?,
                exec_ms: num(it.next())?,
                traced: it.next() == Some("1"),
            }),
            Some("@ops") => {
                saw_ops = true;
                d.attempted += num(it.next())? as u64;
                d.failed += num(it.next())? as u64;
            }
            Some("@fail") => d.fails.push(line["@fail".len()..].trim().to_string()),
            _ => {}
        }
    }
    if saw_ops {
        Ok(d)
    } else {
        Err("child printed no @ops line".into())
    }
}

/// Settings of one parent invocation.
#[derive(Clone)]
struct Opts {
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out_dir: PathBuf,
}

/// Runs one child of this binary to its end and parses what it printed.
/// `what` is `measure` or `probes`.
fn spawn_child(
    what: &str,
    w: Workload,
    c: &ChildOpts,
    one_thread: bool,
) -> Result<ChildData, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let flag = |on: bool| if on { "1" } else { "0" };
    let mut cmd = Command::new(exe);
    cmd.args(["--child", what, "--workload", w.name()])
        .args(["--seed", &c.seed.to_string()])
        .args(["--seconds", &c.seconds.to_string()])
        .args(["--trace", flag(c.trace), "--tiny", flag(c.tiny)])
        .args(["--max-sweeps", &c.max_sweeps.to_string()])
        .args(["--index", &c.child.to_string()])
        .arg("--out-dir")
        .arg(&c.out_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    // The program's knobs come from its defaults, not from whoever runs
    // the benchmark.
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("UGC_") {
            cmd.env_remove(k);
        }
    }
    if one_thread {
        cmd.env("UGC_THREADS", "1");
    }
    let out = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child {what} #{} ended with {}",
            c.child, out.status
        ));
    }
    parse_child(&String::from_utf8_lossy(&out.stdout))
}

/// The outcome of one run of one workload.
struct RunOutcome {
    /// Every named value seen, declared or not.
    values: BTreeMap<String, f64>,
    /// Cells or query classes, for the table.
    rows: Vec<Row>,
    attempted: u64,
    failed: u64,
    fails: Vec<String>,
}

fn least(it: impl IntoIterator<Item = f64>) -> f64 {
    it.into_iter().fold(f64::INFINITY, f64::min)
}

/// Folds the children's cells into one row per cell: the least time any
/// child saw. Simulated cycles must agree between children to the cycle.
fn cell_rows(data: &[ChildData], out: &mut RunOutcome) {
    for first in &data[0].cells {
        let all: Vec<&Row> = data
            .iter()
            .flat_map(|d| d.cells.iter().filter(|c| c.label == first.label))
            .collect();
        if all.len() != data.len() {
            out.failed += 1;
            out.fails
                .push(format!("{}: a child has no sample", first.label));
        }
        if all.iter().any(|r| r.cycles != first.cycles) {
            out.failed += 1;
            out.fails.push(format!(
                "{}: children disagree on simulated cycles: {:?}",
                first.label,
                all.iter().map(|r| r.cycles).collect::<Vec<_>>()
            ));
        }
        out.rows.push(Row {
            ms: least(all.iter().map(|r| r.ms)),
            vm_ms: least(all.iter().map(|r| r.vm_ms)),
            traced_ms: Some(least(all.iter().filter_map(|r| r.traced_ms)))
                .filter(|t| t.is_finite()),
            ..first.clone()
        });
    }
}

/// Folds the children's wire samples into one row per query class (median
/// latency, least `ms=`) and the per-stream values.
fn class_rows(data: &[ChildData], out: &mut RunOutcome) {
    let samples: Vec<&Sample> = data.iter().flat_map(|d| &d.samples).collect();
    for (label, edges) in &data[0].classes {
        let mine: Vec<&&Sample> = samples.iter().filter(|s| &s.class == label).collect();
        if mine.is_empty() {
            out.failed += 1;
            out.fails.push(format!("{label}: no query succeeded"));
            continue;
        }
        let latency = |traced: bool| -> Vec<f64> {
            mine.iter()
                .filter(|s| s.traced == traced)
                .map(|s| s.latency_ms)
                .collect()
        };
        let (plain, traced) = (latency(false), latency(true));
        out.rows.push(Row {
            label: label.clone(),
            edges: *edges,
            // With tracing on, the untraced queries stand for the class, as
            // long as there are any.
            ms: median_of(if plain.is_empty() {
                traced.clone()
            } else {
                plain
            }),
            // `ms=` has three decimals; half its resolution stands in for
            // a zero.
            vm_ms: least(mine.iter().map(|s| s.exec_ms)).max(0.0005),
            cycles: 0,
            traced_ms: (!traced.is_empty()).then(|| median_of(traced)),
        });
    }
    let timed: f64 = data.iter().filter_map(|d| d.kv.get("timed_s")).sum();
    out.values
        .insert("qps".into(), samples.len() as f64 / timed);
    // Stream percentiles pool the children's samples, so that p95 has at
    // least ten samples beyond it.
    for s in Stream::BOTH {
        let name = s.name();
        let mine: Vec<&&Sample> = samples.iter().filter(|x| x.stream == name).collect();
        if mine.is_empty() {
            continue;
        }
        let mut lat: Vec<f64> = mine.iter().map(|x| x.latency_ms).collect();
        let (p50, p95) = (percentile(&mut lat, 50.0), percentile(&mut lat, 95.0));
        let exec = median_of(mine.iter().map(|x| x.exec_ms));
        let overhead = median_of(mine.iter().map(|x| x.latency_ms - x.exec_ms));
        for (key, v) in [
            ("latency_ms_p50", p50),
            ("latency_ms_p95", p95),
            ("p95_over_p50", p95 / p50),
            ("samples", lat.len() as f64),
            ("qps", lat.len() as f64 / timed),
            ("exec_ms_p50", exec),
            ("overhead_ms_p50", overhead),
            ("overhead_share", overhead / p50),
        ] {
            out.values.insert(format!("serve.{name}.{key}"), v);
        }
    }
}

fn run_workload(w: Workload, o: &Opts) -> Result<RunOutcome, String> {
    let children = if o.smoke { 1 } else { CHILDREN };
    let max_sweeps = if o.smoke { 1 } else { usize::MAX };
    let per_child = o.seconds / children as f64;
    if o.trace {
        std::fs::create_dir_all(&o.out_dir).map_err(|e| format!("create out dir: {e}"))?;
        std::fs::write(trace_path(&o.out_dir, w), "").map_err(|e| format!("trace file: {e}"))?;
    }
    let child = |index: usize, seconds: f64, trace: bool, max_sweeps: usize| ChildOpts {
        seed: o.seed,
        seconds,
        trace,
        tiny: o.smoke,
        max_sweeps,
        child: index,
        out_dir: o.out_dir.clone(),
    };
    let data = (0..children)
        .map(|i| {
            spawn_child(
                "measure",
                w,
                &child(i, per_child, o.trace, max_sweeps),
                false,
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut out = RunOutcome {
        values: BTreeMap::new(),
        rows: Vec::new(),
        attempted: data.iter().map(|d| d.attempted).sum(),
        failed: data.iter().map(|d| d.failed).sum(),
        fails: data.iter().flat_map(|d| d.fails.iter().cloned()).collect(),
    };

    // Set-up time and the memory high-water mark are the least over the
    // children, like every other measure of a fixed amount of work;
    // anything else is the median.
    let names: std::collections::BTreeSet<&String> =
        data.iter().flat_map(|d| d.kv.keys()).collect();
    for name in names {
        let vals = data.iter().filter_map(|d| d.kv.get(name).copied());
        let v = if ["setup_s", "peak_rss_mb"].contains(&name.as_str()) {
            least(vals)
        } else {
            median_of(vals)
        };
        out.values.insert(name.clone(), v);
    }
    let is_serve = w == Workload::ServeMix;
    if is_serve {
        class_rows(&data, &mut out);
    } else {
        cell_rows(&data, &mut out);
    }
    // One of the two is empty.
    if out.rows.len() != w.cells(false).len() + w.classes(false).len() {
        // Already counted as failed ops; there is no honest mean over the
        // cells that are left.
        return Err(format!(
            "{} of the workload's cells have no sample: {:?}",
            w.name(),
            out.fails
        ));
    }
    let total_ms: f64 = out.rows.iter().map(|r| r.ms).sum();
    let v = &mut out.values;
    v.insert(
        "run_ms_geomean".into(),
        geomean(out.rows.iter().map(|r| r.ms)),
    );
    v.insert(
        "medges_per_s".into(),
        out.rows.iter().map(|r| r.edges).sum::<f64>() / total_ms / 1e3,
    );
    v.insert(
        "vm_ms_geomean".into(),
        geomean(out.rows.iter().map(|r| r.vm_ms)),
    );
    if !is_serve {
        v.insert("qps".into(), out.rows.len() as f64 / total_ms * 1e3);
    }
    if !o.trace {
        return Ok(out);
    }

    // Per-layer values that come from the rows.
    let both: Vec<(f64, f64)> = out
        .rows
        .iter()
        .filter_map(|r| Some((r.ms, r.traced_ms?)))
        .collect();
    if !both.is_empty() {
        v.insert(
            "trace.overhead_share".into(),
            geomean(both.iter().map(|p| p.1)) / geomean(both.iter().map(|p| p.0)) - 1.0,
        );
    }
    for (prefix, layer) in [
        ("GPU-", "backend-gpu"),
        ("SWARM-", "backend-swarm"),
        ("HB-", "backend-hb"),
    ] {
        let mine: Vec<&Row> = out
            .rows
            .iter()
            .filter(|r| r.label.starts_with(prefix))
            .collect();
        if mine.is_empty() {
            continue;
        }
        let cycles: f64 = mine.iter().map(|r| r.cycles as f64).sum();
        v.insert(
            format!("{layer}.mcycles_geomean"),
            geomean(mine.iter().map(|r| r.cycles as f64 / 1e6)),
        );
        v.insert(
            format!("{layer}.cycles_per_host_us"),
            cycles / mine.iter().map(|r| r.ms * 1e3).sum::<f64>(),
        );
        v.insert(
            format!("{layer}.host_ms_geomean"),
            geomean(mine.iter().map(|r| r.ms)),
        );
    }
    for r in out.rows.iter().filter(|r| r.label.starts_with("CPU-")) {
        v.insert(
            format!("backend-cpu.cell.{}.medges_per_s", &r.label["CPU-".len()..]),
            r.edges / r.ms / 1e3,
        );
    }
    for r in out.rows.iter().filter(|_| is_serve) {
        v.insert(format!("serve.class.{}.latency_ms_p50", r.label), r.ms);
    }

    // The same ops on one thread, for the parallel speed-up.
    let cpu_cells = out.rows.iter().all(|r| r.label.starts_with("CPU-"));
    if cpu_cells && host_threads() > 1 {
        let one = spawn_child("measure", w, &child(children, 0.0, false, 1), true)?;
        out.attempted += one.attempted;
        out.failed += one.failed;
        out.fails.extend(one.fails);
        let ratios: Vec<f64> = one
            .cells
            .iter()
            .filter_map(|c| Some(c.ms / out.rows.iter().find(|r| r.label == c.label)?.ms))
            .collect();
        if ratios.len() == out.rows.len() {
            out.values
                .insert("backend-cpu.speedup_2t".into(), geomean(ratios));
            out.values.insert(
                "backend-cpu.threads1_ms_geomean".into(),
                geomean(one.cells.iter().map(|c| c.ms)),
            );
        }
    }
    let probes = spawn_child("probes", w, &child(children + 1, 0.0, true, 1), false)?;
    out.values.extend(probes.kv);
    Ok(out)
}

fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn fmt_json_metrics(defs: &[MetricDef], values: &BTreeMap<String, f64>) -> String {
    let body: Vec<String> = defs
        .iter()
        .map(|d| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name, values[&d.name], d.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Prints the table and the result line of one run; returns whether the
/// run counts as correct.
fn report(w: Workload, o: &Opts, run: &RunOutcome) -> Result<bool, String> {
    let defs = if o.trace {
        spec::per_layer()
    } else {
        spec::end_to_end()
    };
    let mut values = run.values.clone();
    for d in &defs {
        match values.get(&d.name) {
            Some(v) if v.is_finite() => {}
            Some(v) => return Err(format!("{} is {v}", d.name)),
            // A layer the workload bypasses did no work.
            None if o.trace => {
                values.insert(d.name.clone(), 0.0);
            }
            None => return Err(format!("no child reported {}", d.name)),
        }
    }
    println!(
        "# workload {} seed {} seconds {} trace {} host_threads {}{}",
        w.name(),
        o.seed,
        o.seconds,
        u8::from(o.trace),
        host_threads(),
        if o.smoke { " (smoke: tiny scale)" } else { "" }
    );
    for d in &defs {
        println!("{:<44} {:>16.6} {}", d.name, values[&d.name], d.unit);
    }
    println!("# rows below are detail, not declared metrics");
    for r in &run.rows {
        println!(
            "cell {:<20} {:>12.4} ms   vm {:>12.4} ms   cycles {}",
            r.label, r.ms, r.vm_ms, r.cycles
        );
    }
    for (name, v) in &values {
        if !defs.iter().any(|d| &d.name == name) {
            println!("{name:<44} {v:>16.6}");
        }
    }
    for f in &run.fails {
        println!("FAILED {f}");
    }
    let correct = run.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.attempted,
        run.failed,
        fmt_json_metrics(&defs, &values)
    );
    Ok(correct)
}

/// `BENCHMARK.json`, generated from the tables in `spec`.
fn manifest() -> String {
    let metric = |d: &MetricDef| {
        let better = match d.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        let bound = d
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"{bound}}}",
            d.name, d.unit
        )
    };
    let list = |defs: Vec<MetricDef>| defs.iter().map(metric).collect::<Vec<_>>().join(",\n");
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        list(spec::end_to_end()),
        list(spec::per_layer())
    )
}

/// `--aa`: every workload twice, back to back; fails if any end-to-end
/// metric of the second run is worse than the first by more than its bound.
fn aa(o: &Opts) -> Result<bool, String> {
    let mut ok = true;
    for w in Workload::ALL {
        let a = run_workload(w, o)?;
        let b = run_workload(w, o)?;
        ok &= a.failed == 0 && b.failed == 0;
        println!(
            "# A/A {} (failed ops: {} and {})",
            w.name(),
            a.failed,
            b.failed
        );
        for d in spec::end_to_end() {
            let (x, y) = (a.values[&d.name], b.values[&d.name]);
            let worse = match d.better {
                Better::Lower => y / x - 1.0,
                Better::Higher => x / y - 1.0,
            };
            let bound = d.bound.expect("end-to-end metrics have bounds");
            let verdict = if worse > bound { "EXCEEDS" } else { "ok" };
            ok &= worse <= bound;
            println!(
                "{:<18} {:>14.6} {:>14.6} {:<9} worse by {:>+7.2}%  bound {:>4.0}%  {verdict}",
                d.name,
                x,
                y,
                d.unit,
                worse * 100.0,
                bound * 100.0
            );
        }
        if w == Workload::SimZoo {
            let same = a.values["vm_ms_geomean"].to_bits() == b.values["vm_ms_geomean"].to_bits();
            ok &= same;
            println!(
                "simulated time bit-identical between the two runs: {}",
                if same { "yes" } else { "NO" }
            );
        }
    }
    Ok(ok)
}

/// `--smoke`: the same code at tiny scale, one child, one sweep; checks
/// that every declared metric comes out and every answer is right.
fn smoke(o: &Opts, manifest_path: Option<PathBuf>) -> Result<bool, String> {
    if let Some(p) = manifest_path.filter(|p| p.exists()) {
        let on_disk = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        if on_disk != manifest() {
            return Err(format!(
                "{} differs from `run.sh --manifest`; regenerate it",
                p.display()
            ));
        }
    }
    let mut ok = true;
    for w in Workload::ALL {
        for trace in [false, true] {
            let o = Opts { trace, ..o.clone() };
            let run = run_workload(w, &o)?;
            ok &= report(w, &o, &run)?;
            // A probe runs in every workload, so a missing one is a bug in
            // the harness, not a layer the workload bypasses.
            for d in spec::per_layer().iter().filter(|_| trace) {
                let probe = ["s", "ms", "us", "ns"].contains(&d.unit);
                if probe && run.values.get(&d.name).is_none_or(|v| *v <= 0.0) {
                    return Err(format!("{}: probe {} reported nothing", w.name(), d.name));
                }
            }
        }
    }
    Ok(ok)
}

fn usage() -> ! {
    eprintln!(
        "usage: run.sh [--workload cpu-kernels|cpu-interp|sim-zoo|serve-mix] [--seed N] \
         [--seconds S] [--trace 0|1] | --aa | --smoke | --manifest"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut o = Opts {
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let (mut child, mut mode) = (None, "run");
    let (mut tiny, mut max_sweeps, mut index) = (false, usize::MAX, 0usize);
    let mut manifest_path = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage()).as_str();
        match a.as_str() {
            "--workload" => workload = Some(Workload::from_name(val()).unwrap_or_else(|| usage())),
            "--seed" => o.seed = val().parse().unwrap_or_else(|_| usage()),
            "--seconds" => o.seconds = val().parse().unwrap_or_else(|_| usage()),
            "--trace" => o.trace = val() == "1",
            "--out-dir" => o.out_dir = PathBuf::from(val()),
            "--check-manifest" => manifest_path = Some(PathBuf::from(val())),
            "--aa" => mode = "aa",
            "--smoke" => mode = "smoke",
            "--manifest" => mode = "manifest",
            "--child" => child = Some(val().to_string()),
            "--tiny" => tiny = val() == "1",
            "--max-sweeps" => max_sweeps = val().parse().unwrap_or_else(|_| usage()),
            "--index" => index = val().parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }

    if let Some(what) = child {
        let w = workload.unwrap_or_else(|| usage());
        let opts = ChildOpts {
            seed: o.seed,
            seconds: o.seconds,
            trace: o.trace,
            tiny,
            max_sweeps,
            child: index,
            out_dir: o.out_dir,
        };
        match (what.as_str(), w) {
            ("probes", _) => probes::run(w, &opts),
            (_, Workload::ServeMix) => serve::run(&opts),
            _ => cells::run(w, &opts),
        }
        return ExitCode::SUCCESS;
    }

    let outcome = match mode {
        "manifest" => {
            print!("{}", manifest());
            Ok(true)
        }
        "aa" => aa(&o),
        "smoke" => {
            o.smoke = true;
            o.seconds = 1.5;
            smoke(&o, manifest_path)
        }
        _ => {
            let list = workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
            list.into_iter().try_fold(true, |ok, w| {
                let run = run_workload(w, &o)?;
                Ok(report(w, &o, &run)? && ok)
            })
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// The limits the benchmark contract puts on `BENCHMARK.json`.
    #[test]
    fn manifest_is_within_the_contract() {
        let (e2e, layers) = (spec::end_to_end(), spec::per_layer());
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()), "{}", layers.len());
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.extend(e2e.iter().chain(&layers).map(|d| d.name.as_str()));
        for n in &names {
            assert!(name_ok(n), "{n}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for d in e2e.iter().chain(&layers) {
            assert!(unit_ok(d.unit), "{}", d.unit);
        }
        for d in &e2e {
            let b = d.bound.expect("end-to-end metrics have bounds");
            assert!((0.0..=0.25).contains(&b));
        }
        assert!(layers.iter().all(|d| d.bound.is_none()));
        let setup = e2e.iter().find(|d| d.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for w in Workload::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest().len() <= 64 * 1024);
    }

    /// A time unit is only for probes, which run in every workload: the
    /// values that depend on the workload must be able to read 0.
    #[test]
    fn workload_dependent_layer_metrics_have_no_time_unit() {
        for d in spec::per_layer() {
            let depends = d.name.contains(".cell.")
                || d.name.starts_with("backend-gpu")
                || d.name.starts_with("backend-swarm")
                || d.name.starts_with("backend-hb")
                || d.name.starts_with("trace.");
            if depends {
                assert!(!["s", "ms", "us", "ns"].contains(&d.unit), "{}", d.name);
            }
        }
    }

    #[test]
    fn workloads_have_the_cells_the_readme_names() {
        assert_eq!(Workload::CpuKernels.cells(false).len(), 10);
        assert_eq!(Workload::CpuInterp.cells(false).len(), 6);
        assert_eq!(Workload::SimZoo.cells(false).len(), 31);
        assert_eq!(Workload::ServeMix.classes(false).len(), 10);
        assert_eq!(spec::cpu_cells().len(), 16);
        for s in Stream::BOTH {
            let mine: Vec<_> = Workload::ServeMix
                .classes(false)
                .into_iter()
                .filter(|c| c.stream == s)
                .collect();
            let total: usize = mine.iter().map(|c| c.weight).sum();
            let heaviest = mine.iter().map(|c| c.weight).max().unwrap();
            assert!(5 * heaviest >= total, "{}", s.name());
        }
    }

    #[test]
    fn child_lines_parse_back() {
        let d = parse_child(
            "noise\n@kv setup_s 1.5\n@cell CPU-BFS-RU 963430 27.5 24.1 0 NaN\n\
             @cell GPU-BFS-RN 41488 20.5 0.08 120552 21\n@class bfs-TW 1395528\n\
             @sample point bfs-TW 52.1 5.5 1\n@fail CPU-X cold op: boom\n@ops 7 1\n",
        )
        .unwrap();
        assert_eq!(d.kv["setup_s"], 1.5);
        assert_eq!(d.cells[0].traced_ms, None);
        assert_eq!(
            (d.cells[1].cycles, d.cells[1].traced_ms),
            (120552, Some(21.0))
        );
        assert_eq!(d.classes[0], ("bfs-TW".to_string(), 1395528.0));
        assert!(d.samples[0].traced && d.samples[0].class == "bfs-TW");
        assert_eq!((d.attempted, d.failed), (7, 1));
        assert_eq!(d.fails, ["CPU-X cold op: boom"]);
        assert!(parse_child("@kv a 1\n").is_err(), "no @ops line");
        assert!(parse_child("@kv a x\n@ops 1 0\n").is_err());
    }
}
