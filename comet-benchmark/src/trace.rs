//! Spans recorded around the benchmark's own calls into each layer,
//! kept in memory and written out as `trace.jsonl` when the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// Layer and call, e.g. `http.parse`.
    pub name: &'static str,
    /// Request (or replayed input) the span belongs to.
    pub req: u64,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span recorder shared by every thread of a run.
pub struct Tracer {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer { origin: Instant::now(), next: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }
}

impl Tracer {
    /// Reserve a span id before the span ends, so children recorded
    /// first can name it as their parent.
    pub fn reserve(&self) -> u64 {
        self.next.fetch_add(1, Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span under a reserved id.
    pub fn record_as(
        &self,
        id: u64,
        name: &'static str,
        req: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span { id, parent, name, req, start: self.ns(start), end: self.ns(end) };
        self.spans.lock().expect("span list poisoned by a panicking recorder").push(span);
    }

    /// Record a span under a fresh id and return the id.
    pub fn record(
        &self,
        name: &'static str,
        req: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, req, parent, start, end);
        id
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned by a panicking recorder").clone()
    }

    /// Write at most `cap` spans, one JSON object per line, and return
    /// how many were left out.
    pub fn write_jsonl(&self, path: &Path, cap: usize) -> std::io::Result<usize> {
        let spans = self.spans();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter().take(cap) {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.req, s.start, s.end
            )?;
        }
        out.flush()?;
        Ok(spans.len().saturating_sub(cap))
    }
}

/// Self time of `parent`: its duration minus the part of its interval
/// that `children` cover (overlapping children count once, and time
/// outside the parent counts not at all).
pub fn self_time_ns(parent: &Span, children: &[Span]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start.max(parent.start), c.end.min(parent.end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut reach = parent.start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    parent.ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64) -> Span {
        Span { id: 0, parent: 0, name: "t", req: 0, start, end }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let parent = span(0, 100);
        assert_eq!(self_time_ns(&parent, &[]), 100);
        assert_eq!(self_time_ns(&parent, &[span(10, 20), span(50, 80)]), 60);
    }

    #[test]
    fn self_time_counts_overlap_once_and_clips_to_the_parent() {
        let parent = span(100, 200);
        let children = [span(150, 190), span(120, 160), span(90, 110), span(195, 260)];
        // Covered: 100–110, 120–190, 195–200 = 10 + 70 + 5.
        assert_eq!(self_time_ns(&parent, &children), 15);
        assert_eq!(self_time_ns(&parent, &[span(0, 1000)]), 0);
        assert_eq!(self_time_ns(&parent, &[span(0, 50), span(300, 400)]), 100);
    }

    #[test]
    fn tracer_links_children_to_a_reserved_parent() {
        let tracer = Tracer::default();
        let t0 = Instant::now();
        let parent = tracer.reserve();
        let child = tracer.record("child", 7, parent, t0, t0);
        tracer.record_as(parent, "parent", 7, 0, t0, Instant::now());
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_ne!(child, parent);
        assert_eq!(spans[0].parent, parent);
        assert_eq!(spans[1].id, parent);
    }
}
