//! The dependency analyser.
//!
//! This is the runtime half of §II: at every task invocation, "the runtime
//! takes the memory address, size and directionality of each parameter …
//! and uses them to analyze the dependencies". Each function here handles
//! one directionality for one parameter; the [`TaskSpawner`] calls them in
//! parameter-declaration order.
//!
//! ## Renaming (default)
//!
//! "In order to reduce dependencies, the SMPSs runtime is capable of
//! renaming the data, leaving only the true dependencies. This is the same
//! technique used by superscalar processors and optimizing compilers."
//!
//! * `input` — a true edge from the producer of the current version.
//! * `output` — the old value is dead to us: if the current version is
//!   quiescent (producer finished, no pending readers) we reuse its buffer
//!   in place; otherwise we take a **fresh version** — a dead spare of
//!   the same shape from the runtime's version slab when there is one,
//!   allocated otherwise — and leave the old one to its readers. Either way, *no edge* is created.
//! * `inout` — a true edge from the producer. If the current version has
//!   pending readers, writing in place would be a WAR hazard, so we rename:
//!   fresh buffer + deferred copy-in of the predecessor value (performed by
//!   the task body once the producer has finished). Otherwise in place.
//!
//! Either writer displaces the object's previous producer, and hands it
//! back to the spawn host: that slot is what keeps a finished task's
//! node from the pool, so this is where most nodes return to it.
//!
//! ## Renaming disabled (ablation; SuperMatrix-style, §VII.C)
//!
//! Writers get anti-edges from all pending readers and an output edge from
//! the previous producer; everything stays in place. Same results, more
//! edges, less parallelism — measured by `ablation_renaming`.
//!
//! ## Critical sections
//!
//! The **completion side never locks at all**: a worker finishing a
//! task closes each read window through the lock-free
//! [`ReadWindow`](crate::data::version) protocol (one Release
//! `fetch_sub` per `input` parameter). Object version state is
//! therefore *single-owner* — only the spawning thread touches it — and
//! is kept in a [`SpawnerCell`](crate::data::object) rather than a
//! mutex: entering it costs two unfenced flag ops, so the analyser now
//! links edges (including the producer edge, borrowed in place — no
//! `Arc` clone per parameter) while *inside* the cell. The cell is not
//! a lock, so no lock-ordering concern arises from taking the
//! structural-recording mutex within it. The region frontier's mutex is
//! a real lock, but workers never take it: only the spawners (here,
//! in `region_deps`) and the main thread's `with_region` /
//! `update_region` waits do. The analyser takes the graph mutex inside
//! it, and nothing acquires the frontier mutex while holding the graph
//! mutex.

use std::sync::Arc;

use crate::data::object::{CurrentVersion, Handle, ObjState};
use crate::data::region::Region;
use crate::data::region_handle::{RegionData, RegionHandle, RegionReadBinding, RegionWriteBinding};
use crate::data::region_log::Linker;
use crate::data::version::{ReadBinding, VBuf, WriteBinding};
use crate::data::TaskData;
use crate::graph::node::TaskNode;
use crate::graph::record::EdgeKind;
use crate::ids::TaskId;
use crate::runtime::spawner::{SpawnHost, TaskSpawner};

/// Analyse an `input` parameter.
pub(crate) fn read<T: TaskData, H: SpawnHost>(
    sp: &TaskSpawner<'_, H>,
    h: &Handle<T>,
) -> ReadBinding<T> {
    let _lane = sp.lane_enter();
    let mut st = h.obj.state.lock();
    if !sp.renaming() {
        st.readers_list.push(Arc::clone(sp.node()));
    }
    // The producer edge is linked in place, borrowing the producer from
    // the (single-owner, cost-free) state cell — the per-parameter
    // `Arc` clone/drop pair the mutex-era code paid is gone.
    if let Some(p) = &st.current.producer {
        sp.link(p, EdgeKind::True);
    }
    ReadBinding::new(Arc::clone(&st.current.buf))
}

/// Analyse an `output` parameter.
pub(crate) fn write<T: TaskData, H: SpawnHost>(
    sp: &TaskSpawner<'_, H>,
    h: &Handle<T>,
) -> WriteBinding<T> {
    let _lane = sp.lane_enter();
    if sp.renaming() {
        let mut renamed = false;
        let binding = {
            let mut st = h.obj.state.lock();
            if quiescent(&st.current) {
                write_in_place(sp, &mut st)
            } else {
                let (buf, _old) = rename(sp, h, &mut st);
                renamed = true;
                WriteBinding::new(buf, None)
            }
        };
        if renamed {
            // Whether the slab served the buffer never changes the
            // analysis: the graph is decided before the buffer's origin
            // is known. The slab counts its own hits.
            sp.stats().renames();
        }
        binding
    } else {
        let mut st = h.obj.state.lock();
        let self_alias = link_hazards(sp, &mut st);
        if self_alias {
            // This task also *reads* the object (same pointer passed as
            // input and output — e.g. `c = a + b` with `c == a`). The
            // read must observe the pre-task value, so even the
            // no-renaming ablation needs one fresh version here; the
            // paper's C runtime faces the same aliasing and resolves it
            // the same way (renaming is what makes the declaration
            // well-defined).
            sp.stats().renames();
            let (buf, _old) = rename(sp, h, &mut st);
            WriteBinding::new(buf, None)
        } else {
            write_in_place(sp, &mut st)
        }
    }
}

/// Analyse an `inout` parameter.
pub(crate) fn inout<T: TaskData, H: SpawnHost>(
    sp: &TaskSpawner<'_, H>,
    h: &Handle<T>,
) -> WriteBinding<T> {
    let _lane = sp.lane_enter();
    if sp.renaming() {
        let mut renamed = false;
        let mut st = h.obj.state.lock();
        // Linked in place, as in `read`: the borrow ends before the
        // version switch below rewrites `current`.
        if let Some(p) = &st.current.producer {
            sp.link(p, EdgeKind::True);
        }
        let readers = st.current.buf.window().pending_acquire();
        let binding = if readers > 0 {
            // WAR hazard: rename with deferred copy-in.
            let (buf, old_buf) = rename(sp, h, &mut st);
            renamed = true;
            WriteBinding::new(buf, Some(old_buf))
        } else {
            write_in_place(sp, &mut st)
        };
        drop(st);
        if renamed {
            sp.stats().renames();
            sp.stats().copy_ins();
        }
        binding
    } else {
        let mut st = h.obj.state.lock();
        if let Some(p) = &st.current.producer {
            sp.link(p, EdgeKind::True);
        }
        let self_alias = link_hazards(sp, &mut st);
        if self_alias {
            // See `write`: a self-aliased inout needs a fresh version
            // with a copy-in so the read half observes the old value.
            sp.stats().renames();
            sp.stats().copy_ins();
            let (buf, old_buf) = rename(sp, h, &mut st);
            WriteBinding::new(buf, Some(old_buf))
        } else {
            write_in_place(sp, &mut st)
        }
    }
}

/// Write the current version in place: the spawning task becomes its
/// producer, and the producer it displaces goes back to the spawn host,
/// whose node cache keeps it once nothing else holds it.
fn write_in_place<T: TaskData, H: SpawnHost>(
    sp: &TaskSpawner<'_, H>,
    st: &mut ObjState<T>,
) -> WriteBinding<T> {
    let displaced = st.current.producer.replace(Arc::clone(sp.node()));
    sp.release_producer(displaced);
    WriteBinding::new(Arc::clone(&st.current.buf), None)
}

/// Switch the object to a fresh (or recycled) version produced by the
/// spawning task; the displaced producer goes back to the spawn host as
/// in [`write_in_place`]. Returns `DataObject::rename_current`'s
/// `(new buffer, displaced buffer)`.
fn rename<T: TaskData, H: SpawnHost>(
    sp: &TaskSpawner<'_, H>,
    h: &Handle<T>,
    st: &mut ObjState<T>,
) -> (Arc<VBuf<T>>, Arc<VBuf<T>>) {
    let displaced = st.current.producer.take();
    let switched = h
        .obj
        .rename_current(st, Arc::clone(sp.node()), sp.ticket_charge());
    sp.release_producer(displaced);
    switched
}

/// Is the current version settled (producer done, nobody still reading)?
///
/// Both probes are relaxed; one Acquire fence on the settled path orders
/// the producer's completion and the last reader's buffer accesses
/// before the in-place reuse that follows (one acquire per call instead
/// of one per load).
fn quiescent<T>(cur: &CurrentVersion<T>) -> bool {
    let settled = cur
        .producer
        .as_ref()
        .is_none_or(|p| p.is_finished_relaxed())
        && cur.buf.window().pending_relaxed() == 0;
    if settled {
        std::sync::atomic::fence(std::sync::atomic::Ordering::Acquire);
    }
    settled
}

/// Renaming-disabled hazard edges: WAR from every pending reader, WAW
/// from the previous producer. Returns whether the spawning task itself
/// is among the readers (self-aliased input+write declaration).
///
/// Unlike the renaming fast path above, these links happen **under**
/// the object lock: the ablation path is not perf-critical, and
/// draining in place keeps `readers_list`'s capacity (and the path
/// allocation-free) instead of stealing the buffer per writer.
fn link_hazards<T, H: SpawnHost>(sp: &TaskSpawner<'_, H>, st: &mut ObjState<T>) -> bool {
    let mut self_alias = false;
    for r in st.readers_list.drain(..) {
        if Arc::ptr_eq(&r, sp.node()) {
            self_alias = true;
        } else {
            sp.link(&r, EdgeKind::Anti);
        }
    }
    if let Some(p) = &st.current.producer {
        sp.link(p, EdgeKind::Output);
    }
    self_alias
}

/// Analyse a region `input`.
pub(crate) fn read_region<T: RegionData, H: SpawnHost>(
    sp: &TaskSpawner<'_, H>,
    h: &RegionHandle<T>,
    region: Region,
) -> RegionReadBinding<T> {
    region_deps(sp, h, &region, false);
    RegionReadBinding::new(Arc::clone(&h.obj), region)
}

/// Analyse a region `output`/`inout`. The region analyser does not rename
/// (see module docs), so both directions produce identical edges; the
/// distinction only matters for documentation and the access API.
pub(crate) fn write_region<T: RegionData, H: SpawnHost>(
    sp: &TaskSpawner<'_, H>,
    h: &RegionHandle<T>,
    region: Region,
) -> RegionWriteBinding<T> {
    region_deps(sp, h, &region, true);
    RegionWriteBinding::new(Arc::clone(&h.obj), region)
}

fn region_deps<T: RegionData, H: SpawnHost>(
    sp: &TaskSpawner<'_, H>,
    h: &RegionHandle<T>,
    region: &Region,
    write: bool,
) {
    // Region analysis enters the analysis gate like scalar analysis
    // does: the frontier mutex alone would keep the data safe, but the
    // gate keeps one region's analysis ordered with respect to every
    // other spawner's once sessions are open.
    let _lane = sp.lane_enter();
    // Finished producers can no longer gate anything; the frontier lets
    // them go unless the structural recorder needs the history.
    let prune = !sp.record_graph();
    let mut linker = sp;
    h.obj
        .frontier
        .lock()
        .record(region, write, sp.node(), prune, &mut linker);
}

/// The frontier's view of the spawning task: its three ways of linking
/// a producer (direct, through a fresh join, through a memoised join),
/// and the way back into the spawner's cache for the nodes the frontier lets
/// go of — the same rule as for a producer a writer displaces.
impl<H: SpawnHost> Linker for &TaskSpawner<'_, H> {
    fn link(&mut self, producer: &Arc<TaskNode>, kind: EdgeKind) {
        TaskSpawner::link(self, producer, kind);
    }

    fn gate(&mut self, producer: &Arc<TaskNode>, kind: EdgeKind) {
        TaskSpawner::gate(self, producer, kind);
    }

    fn link_new_join(
        &mut self,
        members: &[(Arc<TaskNode>, EdgeKind)],
        kind: EdgeKind,
        recorded: &[(TaskId, EdgeKind)],
    ) -> Arc<TaskNode> {
        TaskSpawner::link_new_join(self, members, kind, recorded)
    }

    fn link_join(&mut self, join: &Arc<TaskNode>, kind: EdgeKind, recorded: &[(TaskId, EdgeKind)]) {
        TaskSpawner::link_join(self, join, kind, recorded);
    }

    fn release(&mut self, node: Arc<TaskNode>) {
        self.release_producer(Some(node));
    }
}
