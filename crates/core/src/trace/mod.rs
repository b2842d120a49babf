//! The tracing runtime.
//!
//! §VII.C: "SMPSs is composed of … a standard runtime and a tracing-enabled
//! runtime. The tracing-enabled version records events related to task
//! creation and execution for post-mortem analysis with the Paraver tool."
//!
//! With [`tracing`](crate::RuntimeBuilder::tracing) enabled, every compute
//! thread appends events to its own buffer (uncontended in the common
//! case); [`Runtime::take_trace`](crate::Runtime::take_trace) merges them
//! into a [`Trace`] that can be summarised or exported in a Paraver-style
//! `.prv` text format.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use parking_lot::Mutex;

use crate::ids::TaskId;

/// What happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A task instance was created (dependency analysis done).
    Spawn(TaskId),
    /// A task body started executing.
    Start(TaskId, &'static str),
    /// A task body finished.
    End(TaskId),
    /// A task was stolen from `victim`'s ready list.
    Steal { victim: usize },
    /// The thread entered a barrier / blocking condition.
    BarrierBegin,
    /// The thread left the barrier.
    BarrierEnd,
}

/// One timestamped event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the runtime started.
    pub t_ns: u64,
    /// Compute thread (0 = main).
    pub thread: usize,
    pub kind: EventKind,
}

/// Per-thread event collection.
pub(crate) struct TraceCollector {
    start: Instant,
    buffers: Vec<Mutex<Vec<Event>>>,
}

impl TraceCollector {
    pub(crate) fn new(threads: usize) -> Self {
        TraceCollector {
            start: Instant::now(),
            buffers: (0..threads).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    pub(crate) fn record(&self, thread: usize, kind: EventKind) {
        let t_ns = self.start.elapsed().as_nanos() as u64;
        self.buffers[thread]
            .lock()
            .push(Event { t_ns, thread, kind });
    }

    pub(crate) fn drain(&self) -> Trace {
        let mut events = Vec::new();
        for b in &self.buffers {
            events.append(&mut b.lock());
        }
        events.sort_by_key(|e| e.t_ns);
        Trace {
            threads: self.buffers.len(),
            events,
        }
    }
}

/// Per-thread activity summary derived from a [`Trace`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ThreadSummary {
    pub tasks_run: usize,
    pub busy_ns: u64,
    pub steals: usize,
}

/// A merged, time-ordered event log.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    threads: usize,
    events: Vec<Event>,
}

impl Trace {
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    pub fn thread_count(&self) -> usize {
        self.threads
    }

    /// Wall-clock span covered by the trace (first to last event).
    pub fn span_ns(&self) -> u64 {
        match (self.events.first(), self.events.last()) {
            (Some(a), Some(b)) => b.t_ns - a.t_ns,
            _ => 0,
        }
    }

    /// Busy time, task counts and steals per thread.
    pub fn summaries(&self) -> Vec<ThreadSummary> {
        let mut out = vec![ThreadSummary::default(); self.threads];
        let mut open: Vec<Option<u64>> = vec![None; self.threads];
        for e in &self.events {
            match e.kind {
                EventKind::Start(..) => open[e.thread] = Some(e.t_ns),
                EventKind::End(_) => {
                    if let Some(t0) = open[e.thread].take() {
                        out[e.thread].busy_ns += e.t_ns - t0;
                        out[e.thread].tasks_run += 1;
                    }
                }
                EventKind::Steal { .. } => out[e.thread].steals += 1,
                _ => {}
            }
        }
        out
    }

    /// Fraction of `threads x span` spent inside task bodies.
    pub fn utilization(&self) -> f64 {
        let span = self.span_ns();
        if span == 0 || self.threads == 0 {
            return 0.0;
        }
        let busy: u64 = self.summaries().iter().map(|s| s.busy_ns).sum();
        busy as f64 / (span as f64 * self.threads as f64)
    }

    /// Per-task-type profile: (executions, total ns inside bodies) —
    /// the aggregate view a Paraver analysis of the paper's traces
    /// starts from.
    pub fn type_histogram(&self) -> BTreeMap<&'static str, (usize, u64)> {
        let mut open: Vec<Option<(u64, &'static str)>> = vec![None; self.threads];
        let mut out: BTreeMap<&'static str, (usize, u64)> = BTreeMap::new();
        for e in &self.events {
            match e.kind {
                EventKind::Start(_, name) => open[e.thread] = Some((e.t_ns, name)),
                EventKind::End(_) => {
                    if let Some((t0, name)) = open[e.thread].take() {
                        let entry = out.entry(name).or_insert((0, 0));
                        entry.0 += 1;
                        entry.1 += e.t_ns - t0;
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// Paraver-style `.prv` text. Uses state records
    /// (`1:cpu:appl:task:thread:begin:end:state`) with the running state
    /// encoded as the task id, plus event records (`2:…:time:type:value`)
    /// for spawns and steals — a simplified but tool-parsable subset.
    pub fn to_paraver(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "#Paraver (smpss-rs):{}_ns:1({}):1:1({}:1)",
            self.span_ns(),
            self.threads,
            self.threads
        );
        let mut open: Vec<Option<(u64, TaskId)>> = vec![None; self.threads];
        for e in &self.events {
            match e.kind {
                EventKind::Start(id, _) => open[e.thread] = Some((e.t_ns, id)),
                EventKind::End(id) => {
                    if let Some((t0, id0)) = open[e.thread].take() {
                        debug_assert_eq!(id0, id);
                        let _ = writeln!(
                            out,
                            "1:{}:1:1:{}:{}:{}:{}",
                            e.thread + 1,
                            e.thread + 1,
                            t0,
                            e.t_ns,
                            id.0
                        );
                    }
                }
                EventKind::Spawn(id) => {
                    let _ = writeln!(
                        out,
                        "2:{}:1:1:{}:{}:50000001:{}",
                        e.thread + 1,
                        e.thread + 1,
                        e.t_ns,
                        id.0
                    );
                }
                EventKind::Steal { victim } => {
                    let _ = writeln!(
                        out,
                        "2:{}:1:1:{}:{}:50000002:{}",
                        e.thread + 1,
                        e.thread + 1,
                        e.t_ns,
                        victim + 1
                    );
                }
                _ => {}
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collector_with_events() -> TraceCollector {
        let c = TraceCollector::new(2);
        c.record(0, EventKind::Spawn(TaskId(1)));
        c.record(1, EventKind::Start(TaskId(1), "t"));
        std::thread::sleep(std::time::Duration::from_millis(1));
        c.record(1, EventKind::End(TaskId(1)));
        c.record(1, EventKind::Steal { victim: 0 });
        c
    }

    #[test]
    fn drain_merges_and_sorts() {
        let trace = collector_with_events().drain();
        assert_eq!(trace.events().len(), 4);
        assert!(trace.events().windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        assert_eq!(trace.thread_count(), 2);
    }

    #[test]
    fn summaries_count_busy_time() {
        let trace = collector_with_events().drain();
        let s = trace.summaries();
        assert_eq!(s[1].tasks_run, 1);
        assert!(s[1].busy_ns >= 1_000_000, "slept ≥1ms inside the task");
        assert_eq!(s[1].steals, 1);
        assert_eq!(s[0].tasks_run, 0);
        assert!(trace.utilization() > 0.0);
    }

    #[test]
    fn paraver_export_has_header_and_records() {
        let trace = collector_with_events().drain();
        let prv = trace.to_paraver();
        assert!(prv.starts_with("#Paraver"));
        assert!(prv.contains(":50000001:1"), "spawn event for task 1");
        assert!(prv.contains(":50000002:1"), "steal event from thread 1");
        // One state record for the Start/End pair.
        assert_eq!(prv.lines().filter(|l| l.starts_with("1:")).count(), 1);
    }

    #[test]
    fn empty_trace_is_harmless() {
        let trace = TraceCollector::new(1).drain();
        assert_eq!(trace.span_ns(), 0);
        assert_eq!(trace.utilization(), 0.0);
        assert!(trace.to_paraver().starts_with("#Paraver"));
    }
}
