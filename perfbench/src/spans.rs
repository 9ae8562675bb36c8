//! Layer spans recorded by the benchmark around its calls into the
//! program's crates: name, start, end and parent, kept in memory and
//! written out once when the run ends.

use crate::json::{array, Obj};
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed or open span; times are nanoseconds since the recorder began.
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The span recorder. A disabled recorder keeps nothing and reads no clock.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle to an open span, closed with [`Spans::exit`].
#[must_use]
pub struct Open(Option<usize>);

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`Spans::enter`]; spans close innermost first.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end_ns = self.now();
        self.spans[id].end_ns = end_ns;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Per name: span count, total seconds, and self seconds (total minus
    /// the time covered by child spans).
    fn by_name(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let total = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += total as f64 * 1e-9;
            entry.2 += total.saturating_sub(children) as f64 * 1e-9;
        }
        out
    }

    /// Every span and a per-name summary, as one JSON document.
    pub fn to_json(&self, header: Obj) -> String {
        let summary = array(
            self.by_name()
                .into_iter()
                .map(|(name, (count, total, own))| {
                    Obj::new()
                        .str("name", name)
                        .int("count", count)
                        .num("total_s", total)
                        .num("self_s", own)
                        .finish()
                }),
        );
        let spans = array(self.spans.iter().enumerate().map(|(id, s)| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "[{id}, {}, {parent}, {}, {}]",
                crate::json::quote(s.name),
                s.start_ns,
                s.end_ns
            )
        }));
        header
            .str("span_columns", "id, name, parent, start_ns, end_ns")
            .raw("summary", &summary)
            .raw("spans", &spans)
            .finish()
    }
}
