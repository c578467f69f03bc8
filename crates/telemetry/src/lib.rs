//! Unified telemetry layer (paper §IV observability substrate).
//!
//! Every crate that used to keep ad-hoc private `AtomicU64` perf counters
//! (the runtime pool, the three timing simulators, the CPU executor) now
//! publishes through this one registry, so cycle-attribution claims are
//! checkable by tests and reportable by `repro --profile`.
//!
//! Design constraints, in order:
//!
//! 1. **Hermetic**: std only, like the rest of the workspace.
//! 2. **Cheap enough to stay on in release builds**: a counter bump is one
//!    relaxed `fetch_add`; a disabled counter is a `None` check.
//! 3. **Near-no-op when disabled**: `UGC_TELEMETRY=0` makes every
//!    constructor hand out unregistered handles whose operations are a
//!    single branch, and the global registry stays empty.
//! 4. **Stable snapshots**: [`Registry::snapshot`] returns a sorted
//!    key/value model; [`Snapshot::to_json_lines`] serializes to the same
//!    one-object-per-line JSON the bench harness emits, so profile data
//!    appends straight into `BENCH_*.json`.
//!
//! Counters are identified by dotted string names (`sim_gpu.cycles.compute`,
//! `pool.parks`). Registration is idempotent — constructing a [`Counter`]
//! with an existing name returns a handle to the same cell, which keeps
//! per-run executor clones and re-entrant VMs from double-counting setup.
//!
//! The names are a flat namespace; the convention used across the
//! workspace is `<component>.<group>.<metric>` with cycle attributions
//! under `<sim>.cycles.<component>` summing exactly to
//! `<sim>.cycles.total` (asserted by `tests/telemetry_invariants.rs`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Whether telemetry is collected in this process.
///
/// Reads `UGC_TELEMETRY` once (first call wins, cached for the process
/// lifetime): unset, `1`, or anything else truthy means **on**; `0`,
/// `false`, or `off` (case-insensitive) means **off**. Defaulting to on is
/// deliberate — the whole layer is cheap enough for release builds, and
/// profiling data that exists only in special builds never gets looked at.
pub fn enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| match std::env::var("UGC_TELEMETRY") {
        Ok(v) => {
            let v = v.trim().to_ascii_lowercase();
            !(v == "0" || v == "false" || v == "off")
        }
        Err(_) => true,
    })
}

struct Inner {
    cells: BTreeMap<String, &'static AtomicU64>,
}

/// The process-wide counter registry.
///
/// Cells are `&'static AtomicU64` leaked on first registration: the set of
/// counter names is small and fixed by the code, so the "leak" is a
/// one-time allocation that buys lock-free increments forever after.
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// The global registry every [`Counter`] registers into.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(|| Registry {
            inner: Mutex::new(Inner {
                cells: BTreeMap::new(),
            }),
        })
    }

    /// The cell for `name`, creating it at zero if new.
    fn cell(&self, name: &str) -> &'static AtomicU64 {
        let mut inner = self.inner.lock().unwrap();
        if let Some(c) = inner.cells.get(name) {
            return c;
        }
        let cell: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
        inner.cells.insert(name.to_string(), cell);
        cell
    }

    /// A stable, sorted point-in-time copy of every registered counter.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().unwrap();
        Snapshot {
            entries: inner
                .cells
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
        }
    }

    /// Number of registered counters (0 when telemetry is disabled).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().cells.len()
    }

    /// True when nothing has registered (always true when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Shorthand for [`Registry::global`]`().snapshot()`.
pub fn snapshot() -> Snapshot {
    Registry::global().snapshot()
}

/// A monotonically increasing relaxed counter.
///
/// `Counter::new` is the only constructor that touches the registry lock;
/// call it once (typically behind a `OnceLock` holding the component's
/// counter struct) and keep the handle. When telemetry is disabled the
/// handle is empty and every operation is a single branch.
#[derive(Clone, Copy)]
pub struct Counter {
    cell: Option<&'static AtomicU64>,
}

impl Counter {
    /// Registers (or re-attaches to) the counter named `name`.
    pub fn new(name: &str) -> Counter {
        Counter {
            cell: enabled().then(|| Registry::global().cell(name)),
        }
    }

    /// A handle that never counts, regardless of `UGC_TELEMETRY`.
    pub const fn disabled() -> Counter {
        Counter { cell: None }
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = self.cell {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (0 when disabled).
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// True when this handle actually records.
    #[inline]
    pub fn is_live(&self) -> bool {
        self.cell.is_some()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Counter")
            .field("live", &self.is_live())
            .field("value", &self.get())
            .finish()
    }
}

/// A monotonic wall-clock span timer: `<name>.ns` accumulates elapsed
/// nanoseconds, `<name>.calls` counts completed spans.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    ns: Counter,
    calls: Counter,
}

impl Span {
    /// Registers the `<name>.ns` / `<name>.calls` counter pair.
    pub fn new(name: &str) -> Span {
        Span {
            ns: Counter::new(&format!("{name}.ns")),
            calls: Counter::new(&format!("{name}.calls")),
        }
    }

    /// Starts timing; the guard records on drop. When telemetry is
    /// disabled this never reads the clock.
    #[inline]
    pub fn start(&self) -> SpanGuard<'_> {
        SpanGuard {
            span: self,
            t0: self.ns.is_live().then(Instant::now),
        }
    }

    /// Records an externally measured duration.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.ns.add(ns);
        self.calls.incr();
    }

    /// Total nanoseconds recorded so far.
    pub fn total_ns(&self) -> u64 {
        self.ns.get()
    }
}

/// RAII guard from [`Span::start`]; records the elapsed time when dropped.
pub struct SpanGuard<'a> {
    span: &'a Span,
    t0: Option<Instant>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(t0) = self.t0 {
            self.span.record_ns(t0.elapsed().as_nanos() as u64);
        }
    }
}

/// Number of power-of-two buckets in a [`Histogram`] (values above
/// `2^(BUCKETS-2)` land in the last, open-ended bucket).
pub const HIST_BUCKETS: usize = 18;

/// A labeled log2 histogram backed by plain counters.
///
/// Bucket `k` (key `<name>.le{k:02}`) counts samples `v` with
/// `v <= 2^k`, except the last bucket which is open-ended. `<name>.count`
/// and `<name>.sum` ride along so tests can derive means. Everything is a
/// counter underneath, so histograms inherit monotonicity and snapshot
/// stability for free.
#[derive(Clone, Copy, Debug)]
pub struct Histogram {
    buckets: [Counter; HIST_BUCKETS],
    count: Counter,
    sum: Counter,
}

impl Histogram {
    /// Registers the histogram's bucket and aggregate counters.
    pub fn new(name: &str) -> Histogram {
        let mut buckets = [Counter::disabled(); HIST_BUCKETS];
        if enabled() {
            for (k, b) in buckets.iter_mut().enumerate() {
                *b = Counter::new(&format!("{name}.le{k:02}"));
            }
        }
        Histogram {
            buckets,
            count: Counter::new(&format!("{name}.count")),
            sum: Counter::new(&format!("{name}.sum")),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        if !self.count.is_live() {
            return;
        }
        let k = if v <= 1 {
            0
        } else {
            let exp = (64 - (v - 1).leading_zeros()) as usize;
            exp.min(HIST_BUCKETS - 1)
        };
        self.buckets[k].incr();
        self.count.incr();
        self.sum.add(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.get()
    }
}

/// A sorted point-in-time key/value view of the registry.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    entries: Vec<(String, u64)>,
}

impl Snapshot {
    /// The sorted `(name, value)` pairs.
    pub fn entries(&self) -> &[(String, u64)] {
        &self.entries
    }

    /// Value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.entries
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Value of `name`, defaulting to 0 when absent.
    pub fn value(&self, name: &str) -> u64 {
        self.get(name).unwrap_or(0)
    }

    /// Sum of every counter whose name starts with `prefix`.
    pub fn sum_prefix(&self, prefix: &str) -> u64 {
        self.entries
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Mean of the samples recorded into histogram `name`
    /// (`<name>.sum / <name>.count`), or `None` when the histogram is
    /// absent or empty. This is the read side of [`Histogram`]'s
    /// aggregate counters — profile reports use it to summarize e.g.
    /// the executed `pool.chunk_size` distribution in one number.
    pub fn histogram_mean(&self, name: &str) -> Option<f64> {
        let count = self.get(&format!("{name}.count"))?;
        if count == 0 {
            return None;
        }
        let sum = self.get(&format!("{name}.sum")).unwrap_or(0);
        Some(sum as f64 / count as f64)
    }

    /// The entries whose names start with `prefix`, as a new snapshot.
    pub fn filter_prefix(&self, prefix: &str) -> Snapshot {
        Snapshot {
            entries: self
                .entries
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .cloned()
                .collect(),
        }
    }

    /// True when no counters are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of counters present.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Per-key difference `self - earlier`, dropping keys that did not
    /// move. Counters are monotonic, so a key present in both snapshots
    /// never goes negative; keys new in `self` keep their full value.
    pub fn diff(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            entries: self
                .entries
                .iter()
                .filter_map(|(k, v)| {
                    let d = v - earlier.value(k);
                    (d != 0).then(|| (k.clone(), d))
                })
                .collect(),
        }
    }

    /// One JSON object per counter, one per line, in sorted key order —
    /// the same line-oriented shape the bench harness emits, so profile
    /// snapshots append directly into `BENCH_*.json` collections.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.entries {
            out.push_str(&format!(
                "{{\"counter\":\"{}\",\"value\":{}}}\n",
                json_str(k),
                v
            ));
        }
        out
    }
}

/// Minimal JSON string escaper (same dialect as the bench harness).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Scoped delta collector: captures a baseline snapshot at construction
/// and reports only what moved since. Global counters accumulate for the
/// life of the process; collectors are how callers get per-run numbers
/// (and how two identical seeded runs produce byte-identical snapshots).
#[derive(Debug, Clone)]
pub struct Collector {
    base: Snapshot,
}

impl Collector {
    /// Starts a collection scope at the current counter values.
    pub fn start() -> Collector {
        Collector { base: snapshot() }
    }

    /// Everything that moved since [`Collector::start`].
    pub fn snapshot(&self) -> Snapshot {
        snapshot().diff(&self.base)
    }

    /// The delta restricted to counters under `prefix`.
    pub fn snapshot_prefix(&self, prefix: &str) -> Snapshot {
        self.snapshot().filter_prefix(prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The whole suite honors UGC_TELEMETRY: when the process runs with it
    // disabled, constructors hand out dead handles and the registry stays
    // empty, which is itself the property worth checking.

    #[test]
    fn counter_accumulates_or_stays_dead() {
        let c = Counter::new("telemetry_test.counter_accumulates");
        let before = c.get();
        c.incr();
        c.add(4);
        if enabled() {
            assert_eq!(c.get(), before + 5);
            assert_eq!(
                snapshot().value("telemetry_test.counter_accumulates"),
                c.get()
            );
        } else {
            assert_eq!(c.get(), 0);
            assert!(Registry::global().is_empty());
            assert!(snapshot().is_empty());
        }
    }

    #[test]
    fn same_name_is_same_cell() {
        let a = Counter::new("telemetry_test.same_cell");
        let b = Counter::new("telemetry_test.same_cell");
        a.add(3);
        assert_eq!(b.get(), a.get());
    }

    #[test]
    fn disabled_handle_never_registers() {
        let c = Counter::disabled();
        c.add(7);
        assert_eq!(c.get(), 0);
        assert!(!c.is_live());
        assert_eq!(snapshot().get("telemetry_test.never_registered"), None);
    }

    #[test]
    fn span_records_calls_and_time() {
        let s = Span::new("telemetry_test.span");
        {
            let _g = s.start();
        }
        s.record_ns(250);
        if enabled() {
            let snap = snapshot();
            assert_eq!(snap.value("telemetry_test.span.calls"), 2);
            assert!(snap.value("telemetry_test.span.ns") >= 250);
        } else {
            assert_eq!(s.total_ns(), 0);
        }
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let h = Histogram::new("telemetry_test.hist");
        for v in [0, 1, 2, 3, 4, 1024, u64::MAX] {
            h.record(v);
        }
        if enabled() {
            let snap = snapshot();
            assert_eq!(snap.value("telemetry_test.hist.count"), 7);
            // 0 and 1 in bucket 0; 2 in bucket 1; 3 and 4 in bucket 2.
            assert_eq!(snap.value("telemetry_test.hist.le00"), 2);
            assert_eq!(snap.value("telemetry_test.hist.le01"), 1);
            assert_eq!(snap.value("telemetry_test.hist.le02"), 2);
            assert_eq!(snap.value("telemetry_test.hist.le10"), 1);
            assert_eq!(
                snap.value(&format!("telemetry_test.hist.le{:02}", HIST_BUCKETS - 1)),
                1
            );
        } else {
            assert_eq!(h.count(), 0);
        }
    }

    #[test]
    fn histogram_mean_derives_from_aggregates() {
        let h = Histogram::new("telemetry_test.mean_hist");
        for v in [10, 20, 30] {
            h.record(v);
        }
        let snap = snapshot();
        if enabled() {
            assert_eq!(snap.histogram_mean("telemetry_test.mean_hist"), Some(20.0));
        } else {
            assert_eq!(snap.histogram_mean("telemetry_test.mean_hist"), None);
        }
        assert_eq!(snap.histogram_mean("telemetry_test.no_such_hist"), None);
    }

    #[test]
    fn collector_reports_only_deltas() {
        let c = Counter::new("telemetry_test.delta");
        c.add(10);
        let scope = Collector::start();
        assert!(scope.snapshot_prefix("telemetry_test.delta").is_empty());
        c.add(32);
        if enabled() {
            let delta = scope.snapshot_prefix("telemetry_test.delta");
            assert_eq!(delta.value("telemetry_test.delta"), 32);
            assert_eq!(delta.len(), 1);
        } else {
            assert!(scope.snapshot().is_empty());
        }
    }

    #[test]
    fn snapshot_is_sorted_and_diff_drops_unmoved() {
        let a = Counter::new("telemetry_test.sorted.a");
        let b = Counter::new("telemetry_test.sorted.b");
        a.incr();
        b.incr();
        let before = snapshot();
        a.incr();
        let delta = snapshot().diff(&before);
        let keys: Vec<_> = snapshot()
            .entries()
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "snapshot keys must be sorted");
        if enabled() {
            assert_eq!(delta.value("telemetry_test.sorted.a"), 1);
            assert_eq!(delta.get("telemetry_test.sorted.b"), None);
        }
    }

    #[test]
    fn json_lines_shape_and_escaping() {
        let snap = Snapshot {
            entries: vec![("weird\"name\\x".to_string(), 3), ("z".to_string(), 0)],
        };
        let text = snap.to_json_lines();
        assert_eq!(
            text,
            "{\"counter\":\"weird\\\"name\\\\x\",\"value\":3}\n{\"counter\":\"z\",\"value\":0}\n"
        );
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }
}
