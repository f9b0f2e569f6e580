//! The benchmark's own spans: one around every call into a layer, kept in
//! memory and written out when the run ends.
//!
//! Untraced passes only time the calls.  Traced passes also keep a record
//! per span (name, start, end, parent, unit, pass), from which each
//! layer's self time is derived: a span's duration minus the part its
//! child spans cover.  The layer is the span name's prefix (`core.plan` →
//! `core`); `unit` spans are roots, and their self time is the part of a
//! unit no layer span covers.

use rcp_json::json;
use std::collections::BTreeMap;
use std::time::Instant;

struct SpanRec {
    name: &'static str,
    parent: Option<usize>,
    unit: usize,
    pass: usize,
    start_ns: u64,
    end_ns: u64,
}

pub struct Recorder {
    origin: Instant,
    keep: bool,
    unit: usize,
    pass: usize,
    stack: Vec<usize>,
    spans: Vec<SpanRec>,
}

/// An open span: its start, and its record's index when spans are kept.
pub struct Open {
    start: Instant,
    id: Option<usize>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            keep: false,
            unit: 0,
            pass: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn keeps_spans(&self) -> bool {
        self.keep
    }

    /// Sets whether the following spans are kept, and which unit and pass
    /// they belong to.
    pub fn set_context(&mut self, keep: bool, unit: usize, pass: usize) {
        self.keep = keep;
        self.unit = unit;
        self.pass = pass;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let id = self.keep.then(|| {
            self.spans.push(SpanRec {
                name,
                parent: self.stack.last().copied(),
                unit: self.unit,
                pass: self.pass,
                start_ns: 0,
                end_ns: 0,
            });
            let id = self.spans.len() - 1;
            self.stack.push(id);
            id
        });
        let start = Instant::now();
        if let Some(id) = id {
            self.spans[id].start_ns = self.ns(start);
        }
        Open { start, id }
    }

    /// Closes `open`, returning its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(id) = open.id {
            self.spans[id].end_ns = self.ns(end);
            self.stack.pop();
        }
        (end - open.start).as_secs_f64()
    }

    /// How many spans are open.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Closes every span opened beyond `depth` (left open by a unit that
    /// unwound), at the current time.
    pub fn close_to(&mut self, depth: usize) {
        let now = self.ns(Instant::now());
        while self.stack.len() > depth {
            if let Some(id) = self.stack.pop() {
                self.spans[id].end_ns = now;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.begin(name);
        let out = std::hint::black_box(f());
        (out, self.end(open))
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from((at - self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Self seconds per layer of every traced (unit, pass); the roots'
    /// self time is reported under `uncovered`.
    pub fn self_times(&self) -> BTreeMap<(usize, usize), BTreeMap<&'static str, f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut layers = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(child_ns) {
            let layer = match span.parent {
                None => "uncovered",
                Some(_) => layer_of(span.name),
            };
            let own = (span.end_ns - span.start_ns).saturating_sub(covered);
            *layers
                .entry((span.unit, span.pass))
                .or_insert_with(BTreeMap::new)
                .entry(layer)
                .or_insert(0.0) += own as f64 * 1e-9;
        }
        layers
    }

    /// The kept spans, one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let line = json!({
                "id": id,
                "name": span.name,
                "parent": span.parent,
                "unit": span.unit,
                "pass": span.pass,
                "start_ns": span.start_ns,
                "end_ns": span.end_ns,
            });
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }
}

fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}
