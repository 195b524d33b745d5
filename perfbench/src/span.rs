//! In-memory spans around the replay's calls into each layer.
//!
//! A span has a name, a parent, a start, an end and a work count (events,
//! instructions, frames) that per-unit metrics divide by. Spans are kept
//! in memory and summarised when the replay ends. A span's self time is
//! its duration minus the part of its interval that its direct children
//! cover, so nested spans are never counted twice.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `trace.fill`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Units of work done inside the span.
    pub work: u64,
}

/// Handle to an open span, passed to the calls nested inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// The handle of the top level: spans opened under it are roots.
    pub const ROOT: SpanId = SpanId(None);
}

/// Collects spans from any number of threads. When off, [`Tracer::span`]
/// runs its closure and records nothing, not even a clock read.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`on`) or only runs the closures.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` under `parent`, crediting it
    /// with `work` units.
    pub fn span<R>(
        &self,
        parent: SpanId,
        name: &'static str,
        work: u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        if !self.on {
            return f(SpanId::ROOT);
        }
        let id = {
            let mut spans = self.spans.lock().expect("span list poisoned");
            spans.push(Span {
                name,
                parent: parent.0,
                start_ns: 0,
                end_ns: 0,
                work,
            });
            spans.len() - 1
        };
        let start = self.now_ns();
        let out = f(SpanId(Some(id)));
        let end = self.now_ns();
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans[id].start_ns = start;
        spans[id].end_ns = end;
        out
    }

    /// Every span recorded, in opening order.
    pub fn finish(self) -> Vec<Span> {
        self.spans.into_inner().expect("span list poisoned")
    }
}

/// Direct children of every span.
fn children(spans: &[Span]) -> Vec<Vec<usize>> {
    let mut kids = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            kids[p].push(i);
        }
    }
    kids
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let kids = children(spans);
    spans
        .iter()
        .zip(&kids)
        .map(|(s, k)| {
            let iv = k
                .iter()
                .map(|&c| (spans[c].start_ns, spans[c].end_ns))
                .collect();
            (s.end_ns - s.start_ns) - covered(iv, s.start_ns, s.end_ns)
        })
        .collect()
}

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Summed self time.
    pub self_ns: u64,
    /// Summed work units.
    pub work: u64,
    /// Spans with this name.
    pub count: u64,
}

impl NameTotals {
    /// Self nanoseconds per unit of work.
    pub fn ns_per_unit(&self) -> f64 {
        self.self_ns as f64 / self.work.max(1) as f64
    }
}

/// Self time and work summed by span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.self_ns += own;
        t.work += s.work;
        t.count += 1;
    }
    out
}

/// Share of the root spans' time that their children cover: how much of
/// the replay the layer spans account for.
pub fn closure(spans: &[Span]) -> f64 {
    let own = self_times(spans);
    let (mut total, mut uncovered) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(own) {
        if s.parent.is_none() {
            total += s.end_ns - s.start_ns;
            uncovered += own;
        }
    }
    if total == 0 {
        return 0.0;
    }
    1.0 - uncovered as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            start_ns: start,
            end_ns: end,
            work: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 50),
            span("c", Some(0), 90, 120),
            span("grand", Some(1), 12, 38),
        ];
        let own = self_times(&spans);
        // Children cover 10..50 and 90..100 (c clipped to the parent).
        assert_eq!(own[0], 100 - 40 - 10);
        // a's grandchild is subtracted from a, not again from root.
        assert_eq!(own[1], 30 - 26);
        assert_eq!(own[2], 20);
        assert_eq!(own[4], 26);
    }

    #[test]
    fn closure_is_the_covered_share_of_roots() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 0, 60),
            span("root", None, 200, 300),
            span("b", Some(2), 200, 300),
        ];
        assert!((closure(&spans) - 160.0 / 200.0).abs() < 1e-12);
        assert_eq!(closure(&[]), 0.0);
    }

    #[test]
    fn totals_sum_self_time_and_work_by_name() {
        let mut spans = vec![
            span("root", None, 0, 100),
            span("x", Some(0), 0, 10),
            span("x", Some(0), 20, 50),
        ];
        spans[1].work = 5;
        spans[2].work = 15;
        let t = totals_by_name(&spans);
        assert_eq!(
            t["x"],
            NameTotals {
                self_ns: 40,
                work: 20,
                count: 2
            }
        );
        assert_eq!(t["x"].ns_per_unit(), 2.0);
        assert_eq!(t["root"].self_ns, 60);
    }

    #[test]
    fn tracer_records_nesting_and_off_records_nothing() {
        let t = Tracer::new(true);
        let v = t.span(SpanId::ROOT, "outer", 0, |p| {
            t.span(p, "inner", 3, |_| 7) + t.span(p, "inner", 4, |_| 1)
        });
        assert_eq!(v, 8);
        let spans = t.finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[2].end_ns <= spans[0].end_ns);

        let off = Tracer::new(false);
        assert_eq!(off.span(SpanId::ROOT, "outer", 0, |_| 5), 5);
        assert!(off.finish().is_empty());
    }
}
