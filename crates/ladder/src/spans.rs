//! Spans recorded by the benchmark around its calls into each layer:
//! name, start, end, the span that caused it, and the query it belongs
//! to. Kept in memory and written as one JSON object per line when the
//! traced run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    /// Id of the causing span; 0 for the root.
    parent: u32,
    query: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// The in-memory span log. A span's id is its position plus one.
pub(crate) struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub(crate) fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        u32::try_from(self.spans.len()).expect("fewer than 2^32 spans")
    }

    /// Start a span that encloses later ones; end it with [`close`](Self::close).
    pub(crate) fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let now = self.ns(Instant::now());
        self.push(Span {
            name,
            parent,
            query: None,
            start_ns: now,
            end_ns: now,
        })
    }

    pub(crate) fn close(&mut self, id: u32) {
        let now = self.ns(Instant::now());
        self.spans[id as usize - 1].end_ns = now;
    }

    /// Log a span whose interval the caller already measured.
    pub(crate) fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        query: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(Span {
            name,
            parent,
            query,
            start_ns,
            end_ns,
        })
    }

    pub(crate) fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span to `path`, replacing it atomically so a reader
    /// never sees a half-written file.
    pub(crate) fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                text,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"query\":",
                i + 1,
                s.parent,
                s.name
            );
            match s.query {
                Some(q) => {
                    let _ = write!(text, "{q}");
                }
                None => text.push_str("null"),
            }
            let _ = writeln!(
                text,
                ",\"start_ns\":{},\"end_ns\":{}}}",
                s.start_ns, s.end_ns
            );
        }
        let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, path)
    }
}
