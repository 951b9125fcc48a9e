//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer (no span is taken inside the program). They are kept in memory
//! and written out once, when the run ends.

use crate::stats::self_time;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Spans of one request share this id (a transaction's first row id, a
    /// query's sequence number, a recovery cycle's number).
    pub req: u64,
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start) as f64 / 1e6
    }
}

/// An open span; close it with [`Tracer::close`].
pub struct Open {
    id: u64,
    parent: Option<u64>,
    req: u64,
    name: &'static str,
    start: u64,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Shared span recorder. A disabled tracer records nothing and costs one
/// branch per call.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

struct Inner {
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            inner: enabled.then(|| {
                Arc::new(Inner {
                    t0: Instant::now(),
                    next_id: AtomicU64::new(1),
                    spans: Mutex::new(Vec::new()),
                })
            }),
        }
    }

    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Nanoseconds since the tracer started (0 when disabled).
    pub fn now(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.t0.elapsed().as_nanos() as u64)
    }

    pub fn open(&self, name: &'static str, req: u64, parent: Option<u64>) -> Option<Open> {
        let inner = self.inner.as_ref()?;
        Some(Open {
            id: inner.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            req,
            name,
            start: inner.t0.elapsed().as_nanos() as u64,
        })
    }

    pub fn close(&self, open: Option<Open>) {
        let (Some(inner), Some(o)) = (&self.inner, open) else {
            return;
        };
        let end = inner.t0.elapsed().as_nanos() as u64;
        inner.spans.lock().expect("span list poisoned").push(Span {
            id: o.id,
            parent: o.parent,
            req: o.req,
            name: o.name,
            start: o.start,
            end,
        });
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        req: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(name, req, parent);
        let out = f();
        self.close(open);
        out
    }

    /// Every recorded span. Spans opened on the far side of a connection
    /// cannot know their parent's id; they name the parent layer instead,
    /// and are linked here to that layer's span of the same request.
    pub fn spans(&self, links: &[(&str, &str)]) -> Vec<Span> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut spans = inner.spans.lock().expect("span list poisoned").clone();
        for (child, parent) in links {
            let mut by_req: HashMap<u64, Vec<(u64, u64, u64)>> = HashMap::new();
            for s in spans.iter().filter(|s| s.name == *parent) {
                by_req
                    .entry(s.req)
                    .or_default()
                    .push((s.start, s.end, s.id));
            }
            for s in spans
                .iter_mut()
                .filter(|s| s.name == *child && s.parent.is_none())
            {
                // Request ids repeat across set-ups of one run: the parent is
                // the span of that request that encloses the child.
                s.parent = by_req.get(&s.req).and_then(|cands| {
                    cands
                        .iter()
                        .find(|(start, end, _)| *start <= s.start && s.end <= *end)
                        .map(|c| c.2)
                });
            }
        }
        spans.sort_by_key(|s| (s.start, s.id));
        spans
    }
}

/// Self time of every span, by span id.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
            (s.id, self_time(s.start, s.end, kids))
        })
        .collect()
}

/// Writes one JSON object per span.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id, parent, s.req, s.name, s.start, s.end, selfs[&s.id]
        )?;
    }
    out.flush()
}
