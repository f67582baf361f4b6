//! In-memory span recording for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call into
//! a layer (crate); the synthesis pass spans are rebuilt from the
//! `PassStat`s that `compile` returns. Nothing is recorded inside the
//! program. With tracing off every call is a plain pass-through.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.what`, e.g. `rtl.elaborate` or `synth.cutmap`.
    pub name: String,
    /// Start, in ns since the tracer's epoch; `None` for a span known only
    /// by its duration (a synthesis pass, rebuilt from its `PassStat`).
    pub start: Option<u64>,
    /// Duration, ns.
    pub dur: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The job the span belongs to.
    pub job: usize,
}

/// A per-client span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; with `on == false` nothing is kept.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span (closed by [`Tracer::close`]); `None` when off.
    pub fn open(&mut self, name: &str, parent: Option<usize>, job: usize) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            start: Some(now),
            dur: 0,
            parent,
            job,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            let now = self.ns(Instant::now());
            let span = &mut self.spans[id];
            span.dur = now - span.start.expect("opened spans are placed");
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        job: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, job);
        let out = f();
        self.close(id);
        out
    }

    /// Records a child span known only by its duration.
    pub fn record(&mut self, name: String, dur: Duration, parent: Option<usize>, job: usize) {
        if self.on {
            self.spans.push(Span {
                name,
                start: None,
                dur: dur.as_nanos() as u64,
                parent,
                job,
            });
        }
    }

    /// Moves the spans out (their parent indices are relative to this
    /// tracer).
    pub fn take(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-layer totals over a set of spans: busy time per span name and self
/// time per layer (a span's duration minus the time its children cover).
#[derive(Debug, Default)]
pub struct SpanTotals {
    /// Total ns per span name.
    pub by_name: BTreeMap<String, u64>,
    /// Total self ns per layer (the span-name prefix before the first `.`).
    pub self_by_layer: BTreeMap<String, u64>,
}

/// Aggregates spans recorded by one tracer.
pub fn totals(spans: &[Span], into: &mut SpanTotals) {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            // Children of one span run one after another, so their
            // durations add up to the part of the parent they cover.
            child_ns[p] += s.dur;
        }
    }
    for (i, s) in spans.iter().enumerate() {
        *into.by_name.entry(s.name.clone()).or_default() += s.dur;
        let layer = s.name.split('.').next().unwrap_or(&s.name).to_string();
        *into.self_by_layer.entry(layer).or_default() += s.dur.saturating_sub(child_ns[i]);
    }
}

/// Writes spans as JSON lines:
/// `{"client","job","name","start_ns","end_ns","dur_ns","parent"}`.
/// `parent` is the span's index within the same client's block, or -1.
/// Synthesis pass spans carry a duration only (`start_ns` and `end_ns` are
/// `null`): the flow runs checks between passes, so where a pass sat inside
/// `synth.compile` is not known.
pub fn write_jsonl(path: &std::path::Path, clients: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (c, spans) in clients.iter().enumerate() {
        for s in spans {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let (start, end) = s.start.map_or(("null".into(), "null".into()), |t| {
                (t.to_string(), (t + s.dur).to_string())
            });
            writeln!(
                w,
                "{{\"client\":{c},\"job\":{},\"name\":\"{}\",\"start_ns\":{start},\"end_ns\":{end},\"dur_ns\":{},\"parent\":{parent}}}",
                s.job, s.name, s.dur
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "job".into(),
                start: Some(0),
                dur: 100,
                parent: None,
                job: 0,
            },
            Span {
                name: "synth.compile".into(),
                start: Some(10),
                dur: 80,
                parent: Some(0),
                job: 0,
            },
            Span {
                name: "synth.cutmap".into(),
                start: None,
                dur: 30,
                parent: Some(1),
                job: 0,
            },
        ];
        let mut t = SpanTotals::default();
        totals(&spans, &mut t);
        assert_eq!(t.self_by_layer["job"], 20);
        assert_eq!(t.self_by_layer["synth"], 50 + 30);
        assert_eq!(t.by_name["synth.compile"], 80);
    }
}
