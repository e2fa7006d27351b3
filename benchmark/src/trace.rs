//! Outside-in spans: every call the harness makes into a layer's public
//! API is wrapped in a span, kept in a pre-sized buffer and written out
//! when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Spans of one request share `req` (the global batch
/// index); `parent` names the span of the same request that caused this
/// one (empty for a root).
pub struct Span {
    pub req: u64,
    pub name: &'static str,
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Units of work the span covers (events, deliveries, bytes).
    pub count: u64,
}

/// The span buffer of one traced run.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    /// Spans that did not fit the buffer (the totals below still count
    /// them).
    pub overflowed: u64,
    totals: Vec<(&'static str, u64, u64, u64)>,
}

impl Trace {
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            overflowed: 0,
            totals: Vec::new(),
        }
    }

    pub fn span(
        &mut self,
        req: u64,
        name: &'static str,
        parent: &'static str,
        start: Instant,
        end: Instant,
        count: u64,
    ) {
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.duration_since(self.origin).as_nanos() as u64;
        match self.totals.iter_mut().find(|t| t.0 == name) {
            Some(t) => {
                t.1 += end_ns - start_ns;
                t.2 += 1;
                t.3 += count;
            }
            None => self.totals.push((name, end_ns - start_ns, 1, count)),
        }
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(Span {
                req,
                name,
                parent,
                start_ns,
                end_ns,
                count,
            });
        } else {
            self.overflowed += 1;
        }
    }

    /// `(total ns, spans, total count)` of every span named `name`.
    pub fn total(&self, name: &str) -> (u64, u64, u64) {
        self.totals
            .iter()
            .find(|t| t.0 == name)
            .map_or((0, 0, 0), |t| (t.1, t.2, t.3))
    }

    /// Durations of the buffered spans named `name`, nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"req\":{},\"name\":\"{}\",\"parent\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.req, s.name, s.parent, s.start_ns, s.end_ns, s.count
            )?;
        }
        out.flush()
    }
}
