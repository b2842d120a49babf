//! Outside-in tracing: spans around the benchmark's own calls into the
//! program's layers, recorded on the calling thread.
//!
//! A span is a name, a start, an end, the span that caused it and the
//! identifier of the repetition (or request) it belongs to. Spans live in
//! a buffer allocated before the clock starts and are written out as JSON
//! lines when the run ends. A layer's *self time* is its span's duration
//! minus the part its child spans cover. With tracing off, `enter` and
//! `exit` are one branch each, so the untraced run pays nothing else.

use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `u32::MAX` at the top level.
    pub parent: u32,
    /// Repetition or request this span belongs to.
    pub rep: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Spans::enter`]; pass it back to [`Spans::exit`].
#[derive(Clone, Copy)]
pub struct Open(u32);

pub struct Spans {
    on: bool,
    epoch: Instant,
    buf: Vec<Span>,
    /// Innermost open span, `NO_PARENT` outside any.
    current: u32,
    /// Spans that did not fit the preallocated buffer.
    pub dropped: u64,
}

impl Spans {
    /// A recorder with room for `capacity` spans; `on = false` records
    /// nothing.
    pub fn new(on: bool, capacity: usize) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            buf: Vec::with_capacity(if on { capacity } else { 0 }),
            current: NO_PARENT,
            dropped: 0,
        }
    }

    #[inline]
    pub fn enter(&mut self, name: &'static str, rep: u32) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        if self.buf.len() == self.buf.capacity() {
            self.dropped += 1;
            return Open(NO_PARENT);
        }
        let idx = self.buf.len() as u32;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.buf.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.current,
            rep,
        });
        self.current = idx;
        Open(idx)
    }

    #[inline]
    pub fn exit(&mut self, open: Open) {
        if open.0 == NO_PARENT {
            return;
        }
        let span = &mut self.buf[open.0 as usize];
        span.end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.current = span.parent;
    }

    pub fn all(&self) -> &[Span] {
        &self.buf
    }

    /// Per span: its duration minus the time its direct children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        self_times(&self.buf)
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.buf
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Self times (ns) of every span called `name`.
    pub fn self_durations(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        self.buf
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, d)| d as f64)
            .collect()
    }

    /// One JSON object per line: name, start, end, self time, parent, rep.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, own)) in self.buf.iter().zip(self.self_ns()).enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{parent},\"rep\":{}}}",
                s.name, s.start_ns, s.end_ns, s.rep
            )?;
        }
        out.flush()
    }
}

fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // rep [0,100] > spawn [10,40] > inner [20,25]; rep > barrier [40,90]
        let spans = [
            span("rep", 0, 100, NO_PARENT),
            span("spawn", 10, 40, 0),
            span("inner", 20, 25, 1),
            span("barrier", 40, 90, 0),
        ];
        assert_eq!(self_times(&spans), vec![20, 25, 5, 50]);
    }

    #[test]
    fn nesting_follows_enter_and_exit_order() {
        let mut s = Spans::new(true, 8);
        let rep = s.enter("rep", 3);
        let spawn = s.enter("spawn", 3);
        s.exit(spawn);
        let barrier = s.enter("barrier", 3);
        s.exit(barrier);
        s.exit(rep);
        let top = s.enter("rep", 4);
        s.exit(top);
        let parents: Vec<u32> = s.all().iter().map(|x| x.parent).collect();
        assert_eq!(parents, vec![NO_PARENT, 0, 0, NO_PARENT]);
        assert_eq!(s.all()[1].rep, 3);
        assert!(s.all().iter().all(|x| x.end_ns >= x.start_ns));
        assert_eq!(s.durations("rep").len(), 2);
        assert_eq!(s.self_durations("spawn").len(), 1);
    }

    #[test]
    fn a_full_buffer_drops_spans_and_off_records_nothing() {
        let mut s = Spans::new(true, 1);
        let a = s.enter("a", 0);
        let b = s.enter("b", 0);
        s.exit(b);
        s.exit(a);
        assert_eq!((s.all().len(), s.dropped), (1, 1));
        let mut off = Spans::new(false, 1024);
        let a = off.enter("a", 0);
        off.exit(a);
        assert!(off.all().is_empty());
    }
}
