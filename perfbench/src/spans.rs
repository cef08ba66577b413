//! In-memory span recording for the traced run.
//!
//! A span is a named interval with a parent and an id shared by the spans
//! of one job or request. Spans are recorded around calls into the
//! workspace's public functions, kept in memory, and written out as JSON
//! lines when the run ends. A disabled tracer records nothing and costs
//! one branch per call site, so the untraced rounds measure the program
//! alone.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span covers.
    pub name: &'static str,
    /// Job or request the span belongs to.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created (0 while open).
    pub end_ns: u64,
}

/// Handle to an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records when `on`, and does nothing otherwise.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Opens a span under `parent`.
    pub fn open(&self, name: &'static str, id: u64, parent: SpanId) -> SpanId {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: 0,
        });
        Some(spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&self, span: SpanId) {
        if let Some(i) = span {
            let end_ns = self.now_ns();
            self.lock()[i].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span, handing it the span as a parent.
    pub fn span<T>(
        &self,
        name: &'static str,
        id: u64,
        parent: SpanId,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let span = self.open(name, id, parent);
        let out = f(span);
        self.close(span);
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Seconds of self time per span name: each span's duration minus
    /// the part of it that its children cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.lock();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in spans.iter().zip(children.iter_mut()) {
            let own = s.end_ns.saturating_sub(s.start_ns);
            let self_ns = own.saturating_sub(covered_ns(kids, s.start_ns, s.end_ns));
            *out.entry(s.name).or_insert(0.0) += self_ns as f64 / 1e9;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.lock().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_children() {
        let mut kids = vec![(10, 20), (15, 30), (40, 50)];
        assert_eq!(covered_ns(&mut kids, 0, 45), 25);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        let v = t.span("x", 0, None, |p| {
            assert!(p.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(t.is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        t.span("outer", 1, None, |p| {
            t.span("inner", 1, p, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let s = t.self_seconds();
        assert!(s["inner"] >= 0.019);
        assert!(s["outer"] < s["inner"]);
    }
}
