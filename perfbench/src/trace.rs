//! Tracing from the benchmark's own files: spans around the calls it
//! makes into each layer's public API, plus deltas of the registry
//! series the program already exports. Nothing inside the program is
//! instrumented by the benchmark.
//!
//! Spans are kept in memory and written out as JSON lines when the run
//! ends. A traced run traces every other batch (or uplink) and leaves
//! the rest untraced, so the two halves see the same input mix and
//! their latency difference is the tracing overhead.

use softlora_telemetry::{HistogramSnapshot, RegistrySnapshot};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One span: a timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The uplink id the call concerns (a batch's first uplink).
    pub uplink: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    /// Whether this run is a traced run at all.
    pub active: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(active: bool) -> Tracer {
        Tracer { active, origin: Instant::now(), spans: Vec::new() }
    }

    /// Whether item `k` (a batch or an uplink) of the timed window is
    /// traced: odd items of a traced run.
    pub fn traces(&self, k: usize) -> bool {
        self.active && k % 2 == 1
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index (a parent handle).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        uplink: u64,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, start_ns, end_ns, parent, uplink });
        self.spans.len() - 1
    }

    /// Opens a span whose children are recorded before it ends.
    pub fn open(
        &mut self,
        name: &'static str,
        start: Instant,
        parent: Option<usize>,
        uplink: u64,
    ) -> usize {
        self.record(name, start, start, parent, uplink)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&mut self, span: usize, end: Instant) {
        self.spans[span].end_ns = self.ns(end);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::ms).collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"uplink\":{}}}",
                s.name, s.start_ns, s.end_ns, s.uplink
            )?;
        }
        out.flush()
    }
}

/// Registry deltas between two snapshots of the process-wide registry.
pub struct RegistryDelta {
    before: RegistrySnapshot,
    after: RegistrySnapshot,
}

impl RegistryDelta {
    pub fn new(before: RegistrySnapshot, after: RegistrySnapshot) -> RegistryDelta {
        RegistryDelta { before, after }
    }

    /// Merged `(count, sum)` delta of every histogram series called
    /// `name` whose labels include `label` (when given).
    pub fn histogram(&self, name: &str, label: Option<(&str, &str)>) -> (u64, u64) {
        let merged = |snap: &RegistrySnapshot| {
            let mut total = HistogramSnapshot::default();
            for s in snap.series.iter().filter(|s| s.name == name) {
                if label.is_some_and(|(k, v)| s.label(k) != Some(v)) {
                    continue;
                }
                if let Some(h) = s.value.as_histogram() {
                    total.merge(h);
                }
            }
            (total.count, total.sum)
        };
        let (c0, s0) = merged(&self.before);
        let (c1, s1) = merged(&self.after);
        (c1 - c0, s1 - s0)
    }

    /// Delta of the sum of every counter series called `name`.
    pub fn counter(&self, name: &str) -> u64 {
        self.after.counter_sum(name) - self.before.counter_sum(name)
    }
}

pub fn registry_snapshot() -> RegistrySnapshot {
    softlora_telemetry::global().snapshot()
}
