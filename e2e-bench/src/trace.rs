//! Spans recorded by the benchmark around its calls into each layer, kept
//! in memory until the run ends.
//!
//! A span has a name, a start and a duration relative to a shared origin,
//! the request it belongs to, and the span that caused it. A layer's self
//! time is its span's duration minus the part of that interval its child
//! spans cover.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// The request this span belongs to.
    pub request: u64,
    /// Index of the causing span in the same [`Trace`], if any.
    pub parent: Option<usize>,
    /// Layer name, e.g. `smtlib.parse`.
    pub name: &'static str,
    /// Offset of the start from the trace origin.
    pub start: Duration,
    /// Length of the interval.
    pub len: Duration,
}

/// Per-layer totals: self time and number of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Summed self time.
    pub self_time: Duration,
    /// Spans recorded.
    pub count: u64,
}

impl LayerTime {
    /// Mean self time per span in microseconds (0 without spans).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_time.as_secs_f64() * 1e6 / self.count as f64
        }
    }
}

/// An in-memory span store.
#[derive(Debug, Clone)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose offsets count from `origin`.
    pub fn new(origin: Instant) -> Trace {
        Trace {
            origin,
            spans: Vec::new(),
        }
    }

    /// Records an interval measured by the caller; returns its index.
    pub fn record(
        &mut self,
        request: u64,
        parent: Option<usize>,
        name: &'static str,
        start: Instant,
        len: Duration,
    ) -> usize {
        self.spans.push(Span {
            request,
            parent,
            name,
            start: start.saturating_duration_since(self.origin),
            len,
        });
        self.spans.len() - 1
    }

    /// Starts a span now; [`Trace::close`] sets its length.
    pub fn open(&mut self, request: u64, parent: Option<usize>, name: &'static str) -> usize {
        self.record(request, parent, name, Instant::now(), Duration::ZERO)
    }

    /// Ends a span started with [`Trace::open`].
    pub fn close(&mut self, span: usize) {
        let end = Instant::now().saturating_duration_since(self.origin);
        let span = &mut self.spans[span];
        span.len = end.saturating_sub(span.start);
    }

    /// Runs `f` as a span.
    pub fn time<T>(
        &mut self,
        request: u64,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(request, parent, name);
        let out = f();
        self.close(span);
        out
    }

    /// Spans recorded and distinct requests they belong to.
    pub fn counts(&self) -> (usize, usize) {
        let requests: std::collections::HashSet<u64> =
            self.spans.iter().map(|s| s.request).collect();
        (self.spans.len(), requests.len())
    }

    /// Summed length of the spans without a parent.
    pub fn root_time(&self) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.len)
            .sum()
    }

    /// Self time and span count per layer name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(p) = span.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let (lo, hi) = (span.start, span.start + span.len);
            let mut covered: Vec<(Duration, Duration)> = children[i]
                .iter()
                .map(|&c| {
                    let child = &self.spans[c];
                    (
                        child.start.clamp(lo, hi),
                        (child.start + child.len).clamp(lo, hi),
                    )
                })
                .collect();
            covered.sort();
            let mut union = Duration::ZERO;
            let mut reach = lo;
            for (a, b) in covered {
                let a = a.max(reach);
                if b > a {
                    union += b - a;
                    reach = b;
                }
            }
            let layer = out.entry(span.name).or_default();
            layer.self_time += span.len.saturating_sub(union);
            layer.count += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let origin = Instant::now();
        let ms = Duration::from_millis;
        let mut t = Trace::new(origin);
        let root = t.record(1, None, "root", origin, ms(10));
        // Two overlapping children covering [1, 6) and one past the end.
        t.record(1, Some(root), "a", origin + ms(1), ms(3));
        t.record(1, Some(root), "a", origin + ms(2), ms(4));
        t.record(1, Some(root), "b", origin + ms(8), ms(5));
        let layers = t.layers();
        assert_eq!(layers["root"].self_time, ms(10 - 5 - 2));
        assert_eq!(layers["a"].count, 2);
        assert_eq!(layers["a"].self_time, ms(7));
        assert_eq!(t.root_time(), ms(10));
        assert_eq!(t.counts(), (4, 1));
    }
}
