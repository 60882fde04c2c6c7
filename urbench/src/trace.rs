//! Benchmark-side spans: one per call into a layer of the program.
//!
//! Spans are recorded from the benchmark's own files around the calls
//! into each layer, kept in memory, and written out as JSON lines when the
//! traced child exits. The program under test is not instrumented.

use crate::alloc;
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder was made.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Allocation calls and bytes requested while the span was open, and
    /// the high-water mark of live bytes it reached (all zero unless the
    /// counting allocator is armed).
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub peak_live: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn duration_ms(&self) -> f64 {
        self.duration_ns() as f64 / 1e6
    }
}

/// A span's self time: its duration minus its direct children's. The
/// recorder keeps stack discipline on one thread, so children lie inside
/// their parent and never overlap.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(Span::duration_ns)
        .sum();
    spans[id].duration_ns() - children
}

/// Where the staged child of `workload` writes its spans.
pub fn file_for(workload: &str) -> PathBuf {
    PathBuf::from("target/urbench").join(format!("trace-{workload}.jsonl"))
}

/// Records spans on one thread with stack discipline.
pub struct Recorder {
    run_id: String,
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last: index, counters at entry, and the
    /// highest live-bytes mark seen so far inside the span.
    open: Vec<(usize, alloc::Snapshot, u64)>,
}

impl Recorder {
    pub fn new(run_id: String) -> Self {
        Recorder {
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, a child of whichever span is
    /// open.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let id = self.spans.len();
        // The mark reached so far belongs to the enclosing span.
        let mark = alloc::reset_peak();
        let parent = self.open.last_mut().map(|(p, _, peak)| {
            *peak = (*peak).max(mark);
            *p
        });
        self.open.push((id, alloc::snapshot(), 0));
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            allocs: 0,
            alloc_bytes: 0,
            peak_live: 0,
        });
        self.spans[id].start_ns = self.now_ns();
        let out = f(self);
        let end = self.now_ns();
        let (_, before, peak) = self.open.pop().expect("span stack is balanced");
        let after = alloc::snapshot();
        let peak = peak.max(alloc::reset_peak());
        if let Some((_, _, outer)) = self.open.last_mut() {
            *outer = (*outer).max(peak);
        }
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.allocs = after.allocs - before.allocs;
        span.alloc_bytes = after.bytes - before.bytes;
        span.peak_live = peak;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":\"{}\",\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"self_ns\":{},\"allocs\":{},\"alloc_bytes\":{},\
                 \"peak_live_bytes\":{}}}",
                self.run_id,
                s.name,
                s.start_ns,
                s.end_ns,
                self_time_ns(&self.spans, id),
                s.allocs,
                s.alloc_bytes,
                s.peak_live
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            allocs: 0,
            alloc_bytes: 0,
            peak_live: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(40, 90, Some(0)),
            // A grandchild belongs to its own parent, not to the root.
            span(50, 60, Some(2)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 20 - 50);
        assert_eq!(self_time_ns(&spans, 2), 40);
        assert_eq!(self_time_ns(&spans, 1), 20);
    }

    #[test]
    fn recorder_nests_spans_under_the_open_one() {
        let mut rec = Recorder::new("t".into());
        rec.span("root", |rec| {
            rec.span("a", |_| ());
            rec.span("b", |rec| rec.span("c", |_| ()));
        });
        let parents: Vec<_> = rec.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            [
                ("root", None),
                ("a", Some(0)),
                ("b", Some(0)),
                ("c", Some(2))
            ]
        );
        assert!(rec.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert!(self_time_ns(rec.spans(), 0) <= rec.spans()[0].duration_ns());
    }
}
