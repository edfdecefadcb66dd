//! In-memory span recorder for the traced run.
//!
//! A span is a named interval with the id of the span that caused it; the
//! spans of one measured operation share the tracer's run id. Spans stay
//! in memory while the operation runs and are written out once it ends,
//! so recording costs two clock reads and one short critical section.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a root span (real ids start at 1).
pub const NO_PARENT: u64 = 0;

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects the spans of one run.
pub struct Tracer {
    run_id: String,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    #[must_use]
    pub fn new(run_id: impl Into<String>) -> Self {
        Tracer {
            run_id: run_id.into(),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Every finished span, ordered by id.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("a span closure panicked while recording")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// The spans as one JSON object: `{"run_id": ..., "spans": [...]}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"run_id\":\"{}\",\"spans\":[", self.run_id);
        for (i, s) in self.spans().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}");
        out
    }
}

/// Runs `f` inside a span named `name` under `parent`, handing `f` the new
/// span's id so it can open children. Without a tracer `f` runs with id
/// [`NO_PARENT`] and nothing is recorded.
pub fn span<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: u64,
    f: impl FnOnce(u64) -> T,
) -> T {
    let Some(t) = tracer else {
        return f(NO_PARENT);
    };
    let id = t.next_id.fetch_add(1, Ordering::Relaxed);
    let start_ns = t.now_ns();
    let out = f(id);
    let end_ns = t.now_ns();
    t.spans
        .lock()
        .expect("a span closure panicked while recording")
        .push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
    out
}

/// Length of the part of `[start, end)` that the union of `children`
/// covers. Children may nest, overlap each other (parallel workers) or
/// stick out of the parent; only the covered part of the parent counts.
#[must_use]
pub fn covered_ns(start: u64, end: u64, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(start), c.end_ns.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    covered
}

/// Per-span self time: duration minus the time its children cover.
#[must_use]
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push(s);
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            (
                s.id,
                s.duration_ns() - covered_ns(s.start_ns, s.end_ns, kids),
            )
        })
        .collect()
}

/// Summed self time of every span name.
#[must_use]
pub fn self_ns_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_default() += selfs[&s.id];
    }
    out
}

/// Time the direct children of span `root` cover, counting overlaps once:
/// how much of a traced operation the top-level layer spans account for.
/// The caller compares it with the operation's wall measured outside the
/// spans, so time no top-level span covers (start-up, output) shows.
#[must_use]
pub fn top_level_ns(spans: &[Span], root: u64) -> u64 {
    let kids: Vec<&Span> = spans.iter().filter(|s| s.parent == root).collect();
    covered_ns(0, u64::MAX, &kids)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_leave_exact_self_times() {
        let spans = [sp(1, 0, 0, 100), sp(2, 1, 10, 40), sp(3, 2, 20, 30)];
        let st = self_times(&spans);
        assert_eq!((st[&1], st[&2], st[&3]), (70, 20, 10));
        // Sequential nesting: self times partition the root's duration.
        assert_eq!(st.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_count_their_union_once() {
        let spans = [sp(1, 0, 0, 100), sp(2, 1, 10, 50), sp(3, 1, 30, 70)];
        assert_eq!(self_times(&spans)[&1], 40);
    }

    #[test]
    fn contained_and_disjoint_children_merge() {
        let spans = [
            sp(1, 0, 0, 100),
            sp(2, 1, 0, 10),
            sp(3, 1, 20, 30),
            sp(4, 1, 22, 25),
            sp(5, 1, 90, 100),
        ];
        assert_eq!(self_times(&spans)[&1], 70);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [sp(1, 0, 50, 100), sp(2, 1, 90, 130), sp(3, 1, 0, 60)];
        assert_eq!(self_times(&spans)[&1], 30);
    }

    #[test]
    fn top_level_time_leaves_gaps_uncovered() {
        // Two overlapping top-level layers and a gap of 30 before the last;
        // the grandchild adds nothing.
        let spans = [
            sp(1, 0, 0, 100),
            sp(2, 1, 0, 40),
            sp(3, 1, 20, 50),
            sp(4, 2, 10, 30),
            sp(5, 1, 80, 100),
        ];
        assert_eq!(top_level_ns(&spans, 1), 70);
        assert_eq!(top_level_ns(&spans, 5), 0);
    }

    #[test]
    fn self_time_sums_per_name() {
        let mut spans = vec![sp(1, 0, 0, 100), sp(2, 1, 10, 40), sp(3, 1, 50, 60)];
        spans[1].name = "y";
        spans[2].name = "y";
        let t = self_ns_by_name(&spans);
        assert_eq!((t["x"], t["y"]), (60, 40));
    }

    #[test]
    fn recorder_links_children_to_their_parent() {
        let t = Tracer::new("run-1");
        let v = span(Some(&t), "outer", NO_PARENT, |outer| {
            span(Some(&t), "inner", outer, |_| 7) + 1
        });
        assert_eq!(v, 8);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert!(t.to_json().starts_with("{\"run_id\":\"run-1\""));
        assert_eq!(span(None, "untraced", NO_PARENT, |id| id), NO_PARENT);
    }
}
