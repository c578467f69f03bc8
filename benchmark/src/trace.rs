//! In-memory spans around the calls into each layer, written out when the
//! child ends. Recorded from the benchmark's side only: spans inside the
//! program are a later change.

use std::io::Write;
use std::time::Instant;

/// One span: a call into a layer, or a stretch a layer reports about
/// itself (`ms=` of a wire reply, `RunResult.time_ms` of the CPU GraphVM).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The op (user call or wire query) this span belongs to.
    pub op: u32,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span buffer with its own clock origin; one per thread that records.
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(origin: Instant) -> Trace {
        Trace {
            origin,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Trace::end`].
    pub fn begin(&mut self, name: &'static str, op: u32, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Records a stretch of `dur_ns` that the layer below reported about
    /// itself. Only its length was measured; it is placed at the start of
    /// its parent, and clipped to it, so self times still add up.
    pub fn reported(&mut self, name: &'static str, op: u32, parent: usize, dur_ns: u64) {
        let (start_ns, parent_end) = (self.spans[parent].start_ns, self.spans[parent].end_ns);
        self.spans.push(Span {
            name,
            op,
            parent: Some(parent),
            start_ns,
            end_ns: (start_ns + dur_ns).min(parent_end),
        });
    }

    /// Self time of every span: its length minus the part its children
    /// cover. Children of one parent never overlap here (calls are
    /// sequential within an op), so covering is plain addition.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Appends the spans to `out` as JSON lines (see README.md, "Reading
    /// the trace file").
    pub fn write_jsonl(&self, out: &mut impl Write, child: usize) -> std::io::Result<()> {
        let own = self.self_ns();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"child\":{child},\"id\":{i},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns, own[i]
            )?;
        }
        Ok(())
    }
}

/// Where an op's wall time went, summed over a trace's ops by span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct Shares {
    pub compile: f64,
    pub execute: f64,
    pub other: f64,
    /// Largest relative gap between an op's wall time and the self times
    /// of its spans.
    pub self_sum_err: f64,
}

/// Splits the traced ops' wall time into compile / execute / everything
/// else by self time. `compile` and `execute` name the spans that count as
/// such; the rest (op glue, snapshot, queueing, reply path) is `other`.
pub fn shares(traces: &[&Trace], compile: &[&str], execute: &[&str]) -> Shares {
    let (mut wall, mut c, mut e) = (0u64, 0u64, 0u64);
    let mut err = 0.0f64;
    for t in traces {
        let own = t.self_ns();
        let mut per_op: std::collections::BTreeMap<u32, (u64, u64)> = Default::default();
        for (s, &o) in t.spans.iter().zip(&own) {
            let slot = per_op.entry(s.op).or_default();
            slot.1 += o;
            if s.parent.is_none() {
                slot.0 += s.end_ns - s.start_ns;
                wall += s.end_ns - s.start_ns;
            }
            if compile.contains(&s.name) {
                c += o;
            } else if execute.contains(&s.name) {
                e += o;
            }
        }
        for (w, selfs) in per_op.values() {
            if *w > 0 {
                err = err.max((*w as f64 - *selfs as f64).abs() / *w as f64);
            }
        }
    }
    if wall == 0 {
        return Shares::default();
    }
    let wall = wall as f64;
    Shares {
        compile: c as f64 / wall,
        execute: e as f64 / wall,
        other: 1.0 - (c + e) as f64 / wall,
        self_sum_err: err,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        op: u32,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            name,
            op,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_length_minus_children_and_sums_to_the_op() {
        let mut t = Trace::new(Instant::now());
        t.spans = vec![
            span("op", 1, None, 0, 100),
            span("core.compile", 1, Some(0), 5, 15),
            span("core.run_compiled", 1, Some(0), 15, 95),
        ];
        // The GraphVM reports 60 of run_compiled's 80.
        t.reported("backend.execute", 1, 2, 60);
        assert_eq!(t.self_ns(), vec![10, 10, 20, 60]);
        let sh = shares(&[&t], &["core.compile"], &["backend.execute"]);
        assert!((sh.compile - 0.10).abs() < 1e-12);
        assert!((sh.execute - 0.60).abs() < 1e-12);
        assert!((sh.other - 0.30).abs() < 1e-12);
        assert_eq!(sh.self_sum_err, 0.0);
    }

    #[test]
    fn a_reported_stretch_is_clipped_to_its_parent() {
        let mut t = Trace::new(Instant::now());
        t.spans = vec![span("query", 1, None, 10, 50)];
        t.reported("serve.exec", 1, 0, 1_000);
        assert_eq!(t.spans[1].end_ns, 50);
        assert_eq!(t.self_ns(), vec![0, 40]);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut t = Trace::new(Instant::now());
        t.spans = vec![
            span("op", 3, None, 0, 9),
            span("core.compile", 3, Some(0), 1, 4),
        ];
        let mut out = Vec::new();
        t.write_jsonl(&mut out, 2).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text.lines().nth(1).unwrap(),
            "{\"child\":2,\"id\":1,\"op\":3,\"name\":\"core.compile\",\"parent\":0,\
             \"start_ns\":1,\"end_ns\":4,\"self_ns\":3}"
        );
    }
}
