//! In-memory spans for the traced run: name, start, end, parent, and one
//! id per unit or job. Spans are kept in memory and written out when the
//! benchmark ends; per-layer numbers are self times (a span's duration
//! minus the part of it its children cover).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are seconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `sim.run`.
    pub name: &'static str,
    /// The unit or job this span belongs to.
    pub id: u64,
    /// Start, seconds since the epoch.
    pub start: f64,
    /// End, seconds since the epoch.
    pub end: f64,
    /// Index of the enclosing span, `None` for a top-level span.
    pub parent: Option<usize>,
}

/// A span recorder. When off it records nothing and reads no clock, so
/// the untraced run pays one branch per layer call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer measuring from `epoch`; records only when `on`.
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            start: self.epoch.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// Run `f` with recording paused: the untraced half of the traced
    /// run's interleaved passes, timed against the traced half.
    pub fn muted<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let was = self.on;
        self.on = false;
        let out = f(self);
        self.on = was;
        out
    }

    /// Append another tracer's spans (a client thread's) as top-level
    /// trees of this one. Both must share the epoch.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds since the epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Write the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let io = |e: std::io::Error| format!("writing {}: {e}", path.display());
        let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(io)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"start_s\":{},\"end_s\":{},\"parent\":{parent}}}",
                s.name, s.id, s.start, s.end
            )
            .map_err(io)?;
        }
        out.flush().map_err(io)
    }
}

/// Total length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Each span's self time: its duration minus the union of its children's
/// intervals within it. Overlapping children (concurrent work under one
/// parent) are counted once.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| (s.end - s.start) - covered(kids, s.start, s.end))
        .collect()
}

/// Self time summed per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += t;
    }
    out
}

/// Durations of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end - s.start)
        .collect()
}

/// The share of `[lo, hi]` that top-level spans cover.
pub fn top_level_coverage(spans: &[Span], lo: f64, hi: f64) -> f64 {
    let mut top: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start, s.end))
        .collect();
    covered(&mut top, lo, hi) / (hi - lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            id: 0,
            start,
            end,
            parent,
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span("unit", 0.0, 10.0, None),
            span("sim.run", 1.0, 4.0, Some(0)),
            span("campaign.run", 5.0, 9.0, Some(0)),
            // A grandchild is its parent's business, not the unit's.
            span("sim.run", 6.0, 8.0, Some(2)),
        ];
        let t = self_times(&spans);
        assert!(close(t[0], 3.0));
        assert!(close(t[1], 3.0));
        assert!(close(t[2], 2.0));
        assert!(close(t[3], 2.0));
        let by = self_time_by_name(&spans);
        assert!(close(by["sim.run"], 5.0));
        assert!(close(by["unit"], 3.0));
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two client threads' jobs under one loop span overlap in time.
        let spans = vec![
            span("loop", 0.0, 10.0, None),
            span("job", 1.0, 6.0, Some(0)),
            span("job", 4.0, 8.0, Some(0)),
            span("job", 7.5, 9.0, Some(0)),
        ];
        assert!(close(self_times(&spans)[0], 2.0));
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A child recorded on another clock edge may poke out of its
        // parent; only the inside part is covered.
        let spans = vec![span("p", 2.0, 4.0, None), span("c", 1.0, 3.0, Some(0))];
        assert!(close(self_times(&spans)[0], 1.0));
    }

    #[test]
    fn coverage_of_top_level_spans() {
        let spans = vec![
            span("setup", 0.0, 2.0, None),
            span("pass", 2.5, 9.5, None),
            span("sim.run", 3.0, 4.0, Some(1)),
        ];
        assert!(close(top_level_coverage(&spans, 0.0, 10.0), 0.9));
    }

    #[test]
    fn tracer_nests_and_absorbs() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch);
        t.span("outer", 1, |t| t.span("inner", 2, |_| ()));
        let mut other = Tracer::new(true, epoch);
        other.span("job", 3, |t| t.span("service.submit", 3, |_| ()));
        t.absorb(other);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, None);
        assert_eq!(s[3].parent, Some(2));
        assert!(s.iter().all(|s| s.end >= s.start));
    }

    #[test]
    fn muted_and_off_tracers_record_nothing() {
        let mut t = Tracer::new(true, Instant::now());
        t.muted(|t| t.span("hidden", 0, |_| ()));
        assert!(t.spans().is_empty());
        let mut off = Tracer::new(false, Instant::now());
        assert_eq!(off.span("x", 0, |_| 5), 5);
        assert!(off.spans().is_empty());
    }
}
