//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions.
//!
//! A disabled [`Tracer`] only times whole ops; an enabled one records a
//! root `op` span per op plus one span per layer call, each with its
//! parent, and keeps them in memory until the run ends. A span's self time
//! is its duration minus the durations of its children.

use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the root span wrapped around every op.
pub const OP: &str = "op";

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    parent: u32,
    start: Instant,
    end: Instant,
}

/// Span recorder; see the module docs.
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer that records spans when `on`, and otherwise only times ops.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans in one run");
        let now = Instant::now();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            start: now,
            end: now,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id as usize].end = Instant::now();
        out
    }

    /// Run one op: `f` inside the root [`OP`] span, returning its result
    /// and its latency in milliseconds.
    pub fn op<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let start = Instant::now();
        let out = self.span(OP, f);
        (out, start.elapsed().as_secs_f64() * 1e3)
    }

    /// Total self time per span name, in milliseconds.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ms[s.parent as usize] += duration_ms(s);
            }
        }
        let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ms) {
            *totals.entry(s.name).or_default() += duration_ms(s) - children;
        }
        totals
    }

    /// Share of the time inside [`OP`] spans that their named child spans
    /// cover (1.0 when no op was traced).
    pub fn coverage(&self) -> f64 {
        let (mut op_ms, mut covered_ms) = (0.0, 0.0);
        for s in &self.spans {
            if s.name == OP {
                op_ms += duration_ms(s);
            } else if s.parent != NO_PARENT && self.spans[s.parent as usize].name == OP {
                covered_ms += duration_ms(s);
            }
        }
        if op_ms > 0.0 {
            covered_ms / op_ms
        } else {
            1.0
        }
    }
}

fn duration_ms(s: &Span) -> f64 {
    s.end.duration_since(s.start).as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::sleep;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children_and_coverage_counts_them() {
        let mut t = Tracer::new(true);
        let ((), op_ms) = t.op(|t| {
            t.span("outer", |t| {
                sleep(Duration::from_millis(4));
                t.span("inner", |_| sleep(Duration::from_millis(6)));
            });
        });
        let totals = t.self_ms();
        assert!(totals["inner"] >= 6.0);
        assert!(totals["outer"] >= 4.0);
        assert!(
            totals["outer"] < 6.0 + 4.0,
            "inner time is not outer's self time"
        );
        assert!(op_ms >= 10.0);
        assert!(t.coverage() > 0.9 && t.coverage() <= 1.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, ms) = t.op(|t| t.span("x", |_| 7));
        assert_eq!(v, 7);
        assert!(ms >= 0.0);
        assert!(t.self_ms().is_empty());
        assert_eq!(t.coverage(), 1.0);
    }
}
