//! In-memory spans around the calls the traced run makes into each
//! layer, written out as JSON when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

use crate::host::{nanos_since, now};

/// One timed call, or one timed loop of identical calls, into a layer's
/// public interface.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span.
    parent: Option<usize>,
}

pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn elapsed_ns(&self) -> u64 {
        nanos_since(self.origin)
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let start_ns = self.elapsed_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `span`; returns its
    /// seconds.
    pub fn close(&mut self, span: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(span), "spans close innermost first");
        let end_ns = self.elapsed_ns();
        self.spans[span].end_ns = end_ns;
        (end_ns - self.spans[span].start_ns) as f64 / 1e9
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's seconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self.open(name);
        let out = f();
        (out, self.close(span))
    }

    /// The spans as a JSON document; `parent` is an index into `spans`.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}{comma}",
                s.name, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("]}\n");
        out
    }
}
