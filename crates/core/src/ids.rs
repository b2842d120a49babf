//! Small identifier types used throughout the runtime.

use std::fmt;

/// Identifier of a task instance.
///
/// Tasks are numbered by **invocation order starting at 1**, exactly like the
/// node numbering of Figure 5 in the paper ("each node … is numbered
/// according to its invocation order"). This makes graph-shape assertions in
/// tests directly comparable to the paper's figures.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u64);

impl TaskId {
    /// Zero-based index (for dense per-task arrays).
    #[inline]
    pub fn index(self) -> usize {
        (self.0 - 1) as usize
    }
}

impl fmt::Debug for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Identifier of a logical data object (a [`Handle`](crate::Handle),
/// [`RegionHandle`](crate::RegionHandle) or representant).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u64);

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D{}", self.0)
    }
}

/// Identifier of a submission session (one tenant of the multi-session
/// front door — see [`Session`](crate::Session)).
///
/// Session 0 is the runtime itself: tasks spawned through
/// [`Runtime::task`](crate::Runtime::task) carry it and are subject to
/// no per-session quota. Real sessions are numbered from 1 in creation
/// order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SessionId(pub u32);

impl SessionId {
    /// The runtime's own pseudo-session (no quotas, never cancellable).
    pub const NONE: SessionId = SessionId(0);

    /// Is this a real tenant session (as opposed to the runtime's own
    /// unscoped spawns)?
    #[inline]
    pub fn is_session(self) -> bool {
        self.0 != 0
    }
}

impl fmt::Debug for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Index of a compute thread. Thread 0 is the main thread (which helps run
/// tasks when blocked); threads `1..n` are the spawned workers.
pub type ThreadIdx = usize;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_id_is_one_based() {
        assert_eq!(TaskId(1).index(), 0);
        assert_eq!(format!("{:?}", TaskId(7)), "T7");
        assert_eq!(format!("{}", TaskId(7)), "7");
    }

    #[test]
    fn object_id_debug() {
        assert_eq!(format!("{:?}", ObjectId(3)), "D3");
    }
}
