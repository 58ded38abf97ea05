//! Spans recorded by the benchmark around its calls into each layer. The
//! program itself is not instrumented: a span brackets one public call, is
//! kept in memory, and is written out when the run ends. A layer's figure
//! is its spans' self time, the part of each span no child span covers.

use std::io::Write;
use std::time::Instant;

/// One bracketed call. Times are nanoseconds from the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The fit or request this span belongs to.
    pub op: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// A tracer that is off runs the same calls and records nothing; the
    /// untraced pass that prices tracing uses one.
    on: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            on: true,
        }
    }
}

impl Tracer {
    pub fn off() -> Self {
        Tracer {
            on: false,
            ..Tracer::default()
        }
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let id = self.enter(name, op);
        let out = f();
        self.exit(id);
        out
    }

    pub fn enter(&mut self, name: &'static str, op: u64) -> usize {
        let now = self.now();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now();
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed self time, in seconds, of every span named `name`.
    pub fn self_secs(&self, name: &str) -> f64 {
        let own = self_times_ns(&self.spans);
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e9)
            .sum()
    }

    /// Summed self time in seconds of `name`'s spans belonging to `op`.
    pub fn self_secs_of(&self, name: &str, op: u64) -> f64 {
        let own = self_times_ns(&self.spans);
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name && s.op == op)
            .map(|(_, ns)| ns as f64 / 1e9)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        let own = self_times_ns(&self.spans);
        for (i, (s, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Each span's duration minus the union of its children's intervals,
/// clipped to the span (children may overlap each other).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),  // overlaps a: union is [10, 50)
            span("c", 80, 120, Some(0)), // clipped to the parent's end
            span("a.inner", 12, 18, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 14, 30, 40, 6]);
    }

    #[test]
    fn leaf_self_time_is_its_duration_and_sums_by_name() {
        let mut t = Tracer::default();
        let v = t.span("outer", 1, || 5);
        assert_eq!(v, 5);
        let o = t.enter("outer", 2);
        t.span("inner", 2, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(o);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(1));
        let inner = t.self_secs("inner");
        assert!(inner >= 0.002);
        let outer_total: f64 = self_times_ns(spans)[..2]
            .iter()
            .map(|&n| n as f64 / 1e9)
            .sum();
        assert!((t.self_secs("outer") - outer_total).abs() < 1e-12);
        assert!(t.self_secs_of("inner", 1) == 0.0 && t.self_secs_of("inner", 2) == inner);
        let mut off = Tracer::off();
        assert_eq!(off.span("x", 0, || 3), 3);
        assert!(off.spans().is_empty());
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            dfp_obs::json::parse(line).expect("each span line is JSON");
        }
    }
}
