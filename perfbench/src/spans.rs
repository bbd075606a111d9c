//! In-memory span recording around the benchmark's calls into the
//! simulator crates.
//!
//! A span is a name, a start and an end (nanoseconds since the tracer
//! was created), the span open around it when it began (its parent) and
//! the operation it belongs to. Spans are only kept while the tracer is
//! on; [`Tracer::to_json`] renders them once the run is over.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called (`CoSim::run`, `assemble`, …).
    pub name: &'static str,
    /// Design or app the call worked on (may be empty).
    pub subject: String,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch (`u64::MAX` while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Operation id (`u64::MAX` for set-up and probes outside any op).
    pub op: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// The span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Switches recording on or off (open spans must be closed first).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled with spans open");
        self.on = on;
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, subject: &str, op: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            subject: subject.to_string(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: u64::MAX,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `id` opened.
    pub fn end(&mut self, id: SpanId) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans closed out of order");
        }
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the durations of its
    /// direct children.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans.iter().zip(child).map(|(s, c)| s.dur_ns().saturating_sub(c)).collect()
    }

    /// The spans as a JSON array, each with its self time.
    pub fn to_json(&self) -> String {
        let self_ns = self.self_ns();
        let mut out = String::from("[\n");
        for (i, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let op = if s.op == u64::MAX { "null".to_string() } else { s.op.to_string() };
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"subject\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"self_ns\":{own},\"parent\":{parent},\"op\":{op}}}",
                s.name, s.subject, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() { ",\n" } else { "\n" });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let op = t.begin("op", "", 0);
        let child = t.begin("CoSim::run", "d", 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.end(op);
        let own = t.self_ns();
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(own[0] + t.spans()[1].dur_ns(), t.spans()[0].dur_ns());
        assert!(t.to_json().contains("\"name\":\"CoSim::run\""));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("op", "", 0);
        t.end(s);
        assert!(t.spans().is_empty());
    }
}
