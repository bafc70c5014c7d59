//! Spans recorded by the harness around its calls into each layer.
//!
//! A span has a name, a start and an end on the harness clock, the span
//! that caused it, and the identifier of the operation it belongs to.
//! Spans live in memory while the benchmark runs and are written out as
//! one JSON object per line when it ends. A span's *self time* is its
//! duration minus the part of that interval its children cover.

use ensemble_obs::now_ns;
use std::io::Write;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `<crate>.<function>` of the call the span wraps.
    pub name: &'static str,
    /// Start, nanoseconds on the process-wide clock.
    pub start_ns: u64,
    /// End, nanoseconds on the process-wide clock.
    pub end_ns: u64,
    /// Index (in the same log) of the span that caused this one.
    pub parent: Option<usize>,
    /// The operation the span belongs to.
    pub op: u64,
}

impl Span {
    /// End minus start.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span log owned by one thread. Timestamps are
/// `ensemble_obs::now_ns`, the process-wide monotonic clock, so logs of
/// several threads can be concatenated at exit.
#[derive(Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log.
    pub fn new() -> SpanLog {
        SpanLog::default()
    }

    /// Records a finished span and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Opens a span now; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let t = now_ns();
        self.push(name, t, t, parent, op)
    }

    /// Ends span `idx` now.
    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = now_ns();
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let idx = self.open(name, parent, op);
        let out = f();
        self.close(idx);
        out
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's log, re-basing its parent links.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Writes `spans` to `path`, one JSON object per line, self time
/// included. The parent is the zero-based line number of the causing
/// span, or `null`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"self_ns\":{}}}",
            s.name, s.op, s.start_ns, s.end_ns, parent, self_ns
        )?;
    }
    w.flush()
}

/// Self-tests: `cargo test` and `--selftest` both run them.
pub mod checks {
    use super::*;

    fn log_of(spans: &[(&'static str, u64, u64, Option<usize>)]) -> SpanLog {
        let mut log = SpanLog::new();
        for &(name, s, e, p) in spans {
            log.push(name, s, e, p, 1);
        }
        log
    }

    crate::checks! {
        fn self_time_subtracts_the_union_of_children() {
            let log = log_of(&[
                ("op", 0, 100, None),
                ("a", 10, 30, Some(0)),
                // Overlaps `a` by 10 and sticks out of the parent by 20.
                ("b", 20, 60, Some(0)),
                ("c", 90, 120, Some(0)),
                ("a.inner", 12, 18, Some(1)),
            ]);
            // Children cover [10,60) and [90,100): 60 of the parent's 100.
            assert_eq!(self_times(log.spans()), vec![40, 14, 40, 30, 6]);
        }

        fn absorb_rebases_parent_links() {
            let mut a = log_of(&[("x", 0, 10, None)]);
            let b = log_of(&[("y", 0, 10, None), ("y.child", 2, 4, Some(0))]);
            a.absorb(b);
            assert_eq!(a.spans()[2].parent, Some(1));
            assert_eq!(self_times(a.spans()), vec![10, 8, 2]);
        }

        fn timed_closure_nests_under_its_parent() {
            let mut log = SpanLog::new();
            let op = log.open("op", None, 7);
            let got = log.time("stage", Some(op), 7, || 41 + 1);
            log.close(op);
            assert_eq!(got, 42);
            let s = log.spans();
            assert_eq!((s[1].parent, s[1].op), (Some(0), 7));
            assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        }
    }
}
