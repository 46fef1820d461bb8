//! In-memory span recording for the traced replays.
//!
//! A replay opens one root span per request and one child span around
//! each call into a layer's public function. Spans stay in memory and
//! are written out as NDJSON when the run ends. A disabled recorder
//! calls straight through, so the same replay code also gives the
//! untraced baseline that the tracing overhead is measured against.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the recorder, `None` for a root.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Calls and summed self time of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub calls: u64,
    pub self_ns: u64,
}

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// The open root span and its request id.
    open: Option<(usize, u64)>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: None,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a root span of `request`; spans opened by `f`
    /// through the recorder become its children.
    pub fn request<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        assert!(self.open.is_none(), "request spans do not nest");
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: None,
            request,
        });
        self.open = Some((index, request));
        let out = f(self);
        self.open = None;
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Runs `f` inside a child span of the open request.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let (parent, request) = self.open.expect("layer spans live inside a request span");
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            request,
        });
        out
    }

    /// Calls and self time (duration minus the children's durations)
    /// per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = totals.entry(span.name).or_default();
            entry.calls += 1;
            entry.self_ns += span.duration_ns().saturating_sub(children);
        }
        totals
    }

    /// Writes every span as one NDJSON line.
    pub fn write_ndjson(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.request, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new(true);
        rec.request("root", 7, |rec| {
            rec.span("a", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            rec.span("b", || ());
        });
        let totals = rec.totals();
        assert_eq!(totals["a"].calls, 1);
        assert_eq!(totals["b"].calls, 1);
        assert!(totals["a"].self_ns >= 2_000_000);
        assert!(totals["root"].self_ns < totals["a"].self_ns);
        assert!(rec.spans.iter().all(|s| s.request == 7));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let out = rec.request("root", 1, |rec| rec.span("a", || 41) + 1);
        assert_eq!(out, 42);
        assert!(rec.totals().is_empty());
    }
}
