//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span holds a name, start, end, its parent span and the id of the
//! operation it belongs to. Spans stay in memory while the run measures and
//! are written out as JSON lines when it ends. A disabled tracer records
//! nothing, so traced and untraced operations can share one code path.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `mpsim.exec`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (multiplication, job, selection) the span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// Whether this tracer records spans.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one; returns its id.
    pub fn begin(&mut self, name: &'static str, op: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, renaming it to `name` — for spans whose layer is
    /// known only from the call's result. Spans opened inside it and left
    /// open by an early error return are abandoned with zero length.
    pub fn end_as(&mut self, id: usize, name: &'static str) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        while self.open.pop().is_some_and(|top| top != id) {}
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.name = name;
    }

    /// Close span `id`.
    pub fn end(&mut self, id: usize) {
        if self.enabled {
            let name = self.spans[id].name;
            self.end_as(id, name);
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of the spans named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::ms).collect()
    }

    /// Total self time per span name, in milliseconds: each span's
    /// duration minus the part its child spans cover.
    pub fn self_times_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ms) {
            *out.entry(s.name).or_insert(0.0) += s.ms() - covered;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new();
        let outer = tr.begin("outer", 0);
        tr.span("inner", 0, || std::thread::sleep(std::time::Duration::from_millis(5)));
        tr.end(outer);
        let spans = tr.spans();
        assert_eq!(spans[1].parent, Some(0));
        let self_ms = tr.self_times_ms();
        assert!((self_ms["outer"] - (spans[0].ms() - spans[1].ms())).abs() < 1e-9);
        assert!(self_ms["inner"] >= 5.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::disabled();
        let v = tr.span("x", 0, || 7);
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty());
    }
}
