//! The scheduler (§III of the paper).
//!
//! > "There are two main ready lists, one for high priority tasks and one
//! > for normal priority tasks. … Each worker thread has its own ready list
//! > that contains tasks whose last input dependency has been removed by
//! > that thread. … Threads look up ready tasks first in the high priority
//! > list. If it is empty, then they look up their own ready list. If they
//! > do not succeed, they proceed to check out the main ready list. In case
//! > of failure, they proceed to steal work from other threads in creation
//! > order starting from the next one. Threads consume tasks from their own
//! > list in LIFO order, they get tasks from the main list in FIFO order,
//! > and they steal from other threads in FIFO order."
//!
//! The implementation maps directly onto `crossbeam-deque`: each thread
//! owns a Chase-Lev deque (owner pops LIFO, stealers take the opposite —
//! oldest — end, i.e. FIFO steals), and the main and high-priority lists
//! are FIFO injectors. Thread 0 is the main thread, which "also contributes
//! to run tasks" whenever it blocks on a barrier or on the graph-size
//! limit.

pub mod completion;
pub(crate) mod cost;
pub mod queues;
pub mod worker;

pub use queues::{Job, SleepCtl, TaskSource};
pub use worker::{enqueue_ready, find_task, run_task, worker_loop, WorkerCtx};
