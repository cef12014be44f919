//! Spans recorded around the public calls the benchmark makes.
//!
//! A span has an id, the id of the span open when it started, and start
//! and end offsets from the tracer's origin. Spans stay in memory; the run
//! folds them into per-layer metrics when it ends.

use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Run `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Summed duration of every span called `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        // Adding 0.0 turns the empty sum's -0.0 into 0.
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .sum::<f64>()
            + 0.0
    }

    /// Summed self time of every span called `name`, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| self_ns(&self.spans, s.id) as f64 / 1e6)
            .sum::<f64>()
            + 0.0
    }
}

/// A span's duration minus the durations of its direct children. The
/// tracer is single-threaded and strictly nested, so children never overlap
/// and never outlast their parent.
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(Span::dur_ns)
        .sum();
    spans[id].dur_ns() - children
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 40, 70),
            // A grandchild is part of its parent's duration, not counted
            // against the root again.
            span(3, Some(2), 45, 60),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 20 - 30);
        assert_eq!(self_ns(&spans, 2), 30 - 15);
        assert_eq!(self_ns(&spans, 1), 20);
    }

    #[test]
    fn tracer_nests_and_totals() {
        let mut t = Tracer::default();
        let v = t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner", |_| 7)
        });
        assert_eq!(v, 7);
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert!(t.total_ms("inner") >= 2.0);
        let outer = t.total_ms("outer");
        let own = t.self_ms("outer");
        assert!(own >= 0.0 && own <= outer);
        assert!((outer - own - t.total_ms("inner")).abs() < 1e-6);
    }
}
