//! In-memory span recorder for the traced shadow round.
//!
//! Spans are timed from outside the library, around each public call,
//! and kept in a `Vec` preallocated before tracing starts, so recording
//! never touches the heap inside a measured round. They are written out
//! as JSON lines when the run ends.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub round: u32,
    pub name: &'static str,
    /// Index of the enclosing span in the recorder, or [`ROOT`].
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn with_capacity(capacity: usize) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Free slots left before recording would reallocate.
    pub fn remaining(&self) -> usize {
        self.spans.capacity() - self.spans.len()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn clear(&mut self) {
        self.spans.clear();
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`Recorder::close`].
    pub fn open(&mut self, round: u32, name: &'static str, parent: u32) -> u32 {
        debug_assert!(self.remaining() > 0, "span buffer sized too small");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            round,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        let end = self.now_ns();
        self.spans[id as usize].end_ns = end;
    }

    /// Time `f` as a span named `name` under `parent`.
    pub fn time<R>(
        &mut self,
        round: u32,
        name: &'static str,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(round, name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// One JSON object per line: `id`, `round`, `name`, `parent` (−1 for
    /// a root), `start_ns`, `end_ns`, `self_ns`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self_times(&self.spans);
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{{\"id\":{id},\"round\":{},\"name\":\"{}\",\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.round, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover. Children of one parent run one after
/// another (the shadow round is single-lane), so their clipped
/// durations add up without double counting.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent == ROOT {
            continue;
        }
        let p = &spans[s.parent as usize];
        let start = s.start_ns.max(p.start_ns);
        let end = s.end_ns.min(p.end_ns);
        covered[s.parent as usize] += end.saturating_sub(start);
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, &c)| s.duration_ns().saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            round: 0,
            name: "t",
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_covered_part_only() {
        let spans = [
            span(ROOT, 0, 100), // root: children cover 30 + 25
            span(0, 10, 40),    // child 1, with a grandchild of 10
            span(1, 20, 30),    // grandchild
            span(0, 60, 85),    // child 2
            span(0, 90, 120),   // child 3 overruns the root: 10 counted
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 25 - 10, 20, 10, 25, 30]);
    }

    #[test]
    fn recorder_keeps_spans_nested_and_ordered() {
        let mut rec = Recorder::with_capacity(4);
        let root = rec.open(7, "round", ROOT);
        let x = rec.time(7, "child", root, || 41 + 1);
        rec.close(root);
        assert_eq!(x, 42);
        assert_eq!(rec.remaining(), 2);
        let s = rec.spans();
        assert_eq!((s[0].name, s[0].parent, s[0].round), ("round", ROOT, 7));
        assert_eq!((s[1].name, s[1].parent), ("child", root));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let selfs = self_times(s);
        assert_eq!(selfs[0] + selfs[1], s[0].duration_ns());
    }
}
