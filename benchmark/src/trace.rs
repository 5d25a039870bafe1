//! Spans recorded by the benchmark around public engine calls.
//!
//! The engine has no tracing of its own yet, so the benchmark times each
//! layer from outside: it calls the layer's public entry point inside a
//! span. Spans stay in memory during the run and are written out once, at
//! exit, so recording never does I/O between two measured calls.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` is the index of the span that caused it;
/// all spans of one operation share `op`.
#[derive(Debug, Clone)]
struct Span {
    /// Layer name (a module path such as `query.lineage`) or `op` for the
    /// root span of an operation.
    name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    end_ns: u64,
    /// Index of the causing span, `None` for roots and probes.
    parent: Option<u32>,
    /// Operation id shared by the spans of one request.
    op: u32,
}

impl Span {
    fn duration_ns(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<u32>, op: u32) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
        });
        id
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.ns(Instant::now());
    }

    /// Times `f` as one leaf span.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        op: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, op);
        let out = f();
        self.end(id);
        out
    }

    /// Records a span whose endpoints were measured elsewhere (the serving
    /// layer reports queue wait and service time per reply).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        op: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op,
        });
        id
    }

    /// Durations, in nanoseconds, of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Total duration, in nanoseconds, of every span called `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum()
    }

    /// Self time per span name: a span's duration minus the part of it its
    /// child spans cover.
    pub fn self_time_ns(&self) -> BTreeMap<&'static str, f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p as usize] -= span.duration_ns();
            }
        }
        let mut by_name = BTreeMap::new();
        for (span, t) in self.spans.iter().zip(own) {
            *by_name.entry(span.name).or_insert(0.0) += t.max(0.0);
        }
        by_name
    }

    /// Writes every span as JSON. Streams through a buffered writer: a
    /// serving run records a few hundred thousand spans.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(File::create(path)?);
        writeln!(
            out,
            "{{\"schema_version\": 1, \"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": ["
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let origin = Instant::now();
        let at = |ms: u64| origin + Duration::from_millis(ms);
        let root = t.record("op", None, 0, at(0), at(10));
        t.record("a", Some(root), 0, at(1), at(4));
        t.record("b", Some(root), 0, at(4), at(9));
        let own = t.self_time_ns();
        assert_eq!(own["a"], 3e6);
        assert_eq!(own["b"], 5e6);
        assert_eq!(own["op"], 2e6);
        assert_eq!(t.total_ns("op"), 1e7);
    }
}
