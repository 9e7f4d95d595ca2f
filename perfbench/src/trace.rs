//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer: name, start, end, parent, and the id of the request (or probe)
//! they belong to. Each thread fills its own [`SpanBuf`]; buffers are merged
//! when the run ends, written as Chrome trace JSON, read back and checked
//! with `dex_telemetry::validate_chrome_trace`, and reduced to self time per
//! span name.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds from the run's trace origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub tid: u64,
}

/// An open span; close it with [`SpanBuf::close`].
#[must_use]
pub struct Open {
    id: u64,
    parent: u64,
    req: u64,
    name: &'static str,
    start_ns: u64,
}

/// A per-thread span buffer. When tracing is off, opening and closing are
/// a clock read each and nothing is kept.
pub struct SpanBuf {
    on: bool,
    tid: u64,
    origin: Instant,
    next: u64,
    spans: Vec<Span>,
}

impl SpanBuf {
    /// A buffer for track `tid` (ids are unique across tracks).
    pub fn new(on: bool, tid: u64, origin: Instant) -> SpanBuf {
        SpanBuf {
            on,
            tid,
            origin,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Opens a root span: the start of a request (or probe) of its own id.
    pub fn root(&mut self, name: &'static str) -> Open {
        self.open(name, 0, 0)
    }

    /// Opens a span under `parent`, in the same request.
    pub fn child(&mut self, name: &'static str, parent: &Open) -> Open {
        self.open(name, parent.id, parent.req)
    }

    fn open(&mut self, name: &'static str, parent: u64, req: u64) -> Open {
        self.next += 1;
        let id = (self.tid << 40) | self.next;
        Open {
            id,
            parent,
            req: if req == 0 { id } else { req },
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
        }
    }

    pub fn close(&mut self, open: Open) {
        if self.on {
            self.spans.push(Span {
                id: open.id,
                parent: open.parent,
                req: open.req,
                name: open.name,
                start_ns: open.start_ns,
                end_ns: self.origin.elapsed().as_nanos() as u64,
                tid: self.tid,
            });
        }
    }

    /// Runs `f` inside a leaf span named `name` under `parent`.
    pub fn time<T>(&mut self, name: &'static str, parent: &Open, f: impl FnOnce() -> T) -> T {
        let open = self.child(name, parent);
        let out = f();
        self.close(open);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time and count per span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time per span name: each span's duration minus the part of its
/// interval that its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur.saturating_sub(covered);
    }
    out
}

/// Writes `spans` as a Chrome trace-event array (complete `X` events,
/// microsecond times, one track per recording thread, span/parent/request
/// ids in `args`), ordered so every track's timestamps are non-decreasing.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut order: Vec<&Span> = spans.iter().collect();
    order.sort_by_key(|s| (s.tid, s.start_ns, s.id));
    let origin = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let mut out = String::from("[\n");
    for (i, s) in order.iter().enumerate() {
        let sep = if i + 1 < order.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "  {{\"name\": \"{}\", \"cat\": \"span\", \"ph\": \"X\", \"ts\": {:?}, \"dur\": {:?}, \
             \"pid\": 1, \"tid\": {}, \"args\": {{\"id\": {}, \"parent\": {}, \"req\": {}}}}}{sep}",
            s.name,
            (s.start_ns - origin) as f64 / 1000.0,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1000.0,
            s.tid,
            s.id,
            s.parent,
            s.req
        );
    }
    out.push(']');
    out
}

/// Reads a written trace back, event by event, and returns its structural
/// defects as the repository's trace validator reports them.
///
/// Each event sits on a line of its own; parsing line by line keeps the
/// read-back linear in the file size.
pub fn validate(json: &str) -> Result<Vec<String>, String> {
    let mut events = Vec::new();
    for line in json.lines() {
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() || line == "[" || line == "]" {
            continue;
        }
        let event: dex_telemetry::trace::TraceEvent =
            serde_json::from_str(line).map_err(|e| e.to_string())?;
        events.push(event);
    }
    Ok(dex_telemetry::validate_chrome_trace(&events)
        .iter()
        .map(|d| d.to_string())
        .collect())
}
