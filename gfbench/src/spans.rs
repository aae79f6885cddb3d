//! In-memory spans for the traced run: name, start, end, parent and
//! request id, written out as JSON Lines once the run is over.

use crate::{Report, RunArgs};
use serde_json::json;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Spans`] log.
pub type SpanId = usize;

/// One span.  Times are microseconds since the log's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary, e.g. `engine.run` or `store.append`.
    pub name: &'static str,
    /// Entry.
    pub start_us: f64,
    /// Exit.
    pub end_us: f64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Shared by the spans of one request: a case label or a request
    /// index.
    pub request: Option<String>,
}

/// A span log, kept in memory until [`Spans::write`].
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty log whose origin is now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Open a span starting now; [`Spans::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.record(name, now, now, parent, None)
    }

    /// End an open span now.
    pub fn close(&mut self, id: SpanId) {
        let end = self.us(Instant::now());
        self.spans[id].end_us = end;
    }

    /// Record a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: Option<String>,
    ) -> SpanId {
        let span = Span {
            name,
            start_us: self.us(start),
            end_us: self.us(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Write one JSON object per span to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let line = json!({
                "id": id,
                "name": s.name,
                "start_us": s.start_us,
                "end_us": s.end_us,
                "parent": s.parent,
                "request": s.request,
            });
            out.push_str(&line.to_string());
            out.push('\n');
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Write a traced run's spans to `spans-<workload>-seed<n>.jsonl` in the
/// run's output directory and note the path in the record.
pub(crate) fn write_spans(args: &RunArgs, workload: &str, spans: &Spans, report: &mut Report) {
    let path = args
        .out_dir
        .join(format!("spans-{workload}-seed{}.jsonl", args.seed));
    match spans.write(&path) {
        Ok(()) => report.note("spans", path.display().to_string()),
        Err(e) => report.problem(format!("could not write {}: {e}", path.display())),
    }
}
