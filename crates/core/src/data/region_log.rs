//! The region frontier: overlap analysis for §V.A array regions.
//!
//! Every region access must be ordered after the earlier accesses of the
//! same buffer it conflicts with (write/read, read/write, write/write on
//! overlapping regions). A log that keeps history and scans it pays for
//! every access ever made; this module keeps only what can still gate a
//! future access.
//!
//! ## The structure
//!
//! A per-buffer [`RegionFrontier`] keeps two maps of **disjoint dim-0
//! pieces**, each tiling `0..=usize::MAX` (a linked list in index order
//! with a finger at the last piece touched, see `Tiles`):
//!
//! * the **written** map: per piece, its *writer* — the last write that
//!   covered the piece in every dimension (any 1-D write does) — and a
//!   *writes* list of the later writes that did not (N-d writes bounded
//!   in a later dimension, such as the stencil's 2-D bands);
//! * the **reads** map: per piece, the *reads* list since the piece was
//!   last covered by a write.
//!
//! An access cuts a map at its own dim-0 bounds before it changes it, so
//! it covers whole pieces; queries do not cut. A covering write merges
//! the adjacent pieces it leaves in the same state, so a thousand tasks
//! reading the same source range share one reads piece however many
//! writers the range has.
//!
//! The lists are **persistent and shared**: an entry is one access,
//! prepended once to each run of pieces it covers that had the same list
//! head. Entries live in a reference-counted arena. A per-query stamp
//! lets each entry be visited at most once per access: lists only ever
//! share tails, so a walk stops at the first entry this access already
//! saw.
//!
//! ## Invariants
//!
//! 1. Every list entry covers its pieces in dim 0, and a writer covers
//!    its pieces in every dimension. Within a piece an access overlapping
//!    it therefore conflicts with an entry exactly when
//!    [`Region::overlaps`] holds past dim 0 (always, for 1-D entries).
//! 2. For every earlier access *e* that a later access conflicts with,
//!    the maps hold *e* or something *e* has a path to. A covering write
//!    therefore **retires** its pieces: their lists are dropped (every
//!    entry in them became a producer of that write) and the pieces merge
//!    into one. A write that contains an earlier entry's whole region
//!    supersedes it the same way. So the structure's size follows the
//!    live intervals, not history.
//! 3. Finished producers gate nothing: unless the graph is being
//!    recorded, they are skipped and leave the lists as walks meet them,
//!    **once** for every piece sharing them: one behind a kept entry is
//!    spliced out of the shared chain; a leading run leaves the walking
//!    piece, and the old head — still the head of the other pieces — is
//!    relinked past the run, so each of them drops it in one step (a
//!    producer that finished *poisoned* is still linked, so a late
//!    consumer is cancelled like a directly linked one). Without the
//!    relink, every chunk write into a range whose whole-range readers
//!    had finished walked all of them again.
//!
//! The unit tests check all of it against the retired linear scan as an
//! oracle: every edge the frontier makes, joins expanded, is a
//! conflicting earlier→later pair, and the two graphs have the same
//! transitive closure.
//!
//! ## Join nodes
//!
//! When one access would link more than [`JOIN_MIN`] distinct unfinished
//! producers, the producers are linked once into a bodiless join node
//! and the consumer to the join (see `TaskNode::new_join`). A join is
//! **memoised** where it can be reused:
//!
//! * *writer side* — a read's join, keyed on the exact read region, lives
//!   until the buffer's next write (the write epoch): until then the
//!   same region has the same producers;
//! * *reader side* — a write's join over a reads list is stored on the
//!   list's head entry: the list below a head never gains an entry.
//!
//! A memo hit links the consumer to the join and touches no producer.
//! The chunked merge of `par_merge` is the case this is for: 1 024 chunk
//! tasks each read both full source halves, which 1 024 tasks wrote —
//! a million edges through direct links, a few thousand through
//! memoised joins. Only joins that stand for *all* of an access's
//! producers are memoised (no self-access, no other session's producer,
//! no poisoned one left out), and only a task spawned after every member
//! may take one: two spawners can be open at once, so an earlier task
//! may be a member itself, and linking it to the join would close a
//! cycle.
//!
//! `JOIN_MIN` is 8: a join costs one node and one extra link, so an
//! access with more than 8 producers pays at most a quarter more for a
//! join that is never reused, and one reuse repays it. Below that,
//! direct links are cheap, and capping them at 8 per access keeps
//! `dep.true_edges_per_task` single-digit on the workloads that fan in.
//!
//! ## What the frontier lets go of
//!
//! Every node the frontier drops — a retired writer, a superseded or
//! spent entry, a memo's join, a join it did not memoise — is handed to
//! [`Linker::release`] once the access is analysed, so the spawner's
//! cache can reuse it and its spare successor links. A join dropped
//! before it finished has no worker to hand it back, so it waits in
//! `retiring` until it is spent. Its own storage — list entries,
//! reader-side memos and pieces — lives in slabs whose freed slots are
//! reused; only the piece index allocates, when a map grows.
//!
//! **Concurrent spawners:** once sessions are open, `dep::region_deps`
//! enters the runtime's one analysis gate before touching a frontier,
//! so all analysis of one buffer stays serialised.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use crate::data::region::{Region, RegionBound};
use crate::graph::node::TaskNode;
use crate::graph::record::EdgeKind;
use crate::ids::TaskId;

/// One access links more than this many distinct unfinished producers
/// through a join node instead of directly (rationale in the module
/// docs).
const JOIN_MIN: usize = 8;

/// Writer-side memos kept per write epoch (distinct read regions; the
/// chunked merge needs two).
const READ_MEMOS: usize = 8;

/// The null entry index.
const NIL: u32 = u32::MAX;

/// What the frontier asks of the spawning task while analysing one of
/// its accesses. The runtime implements it on the task spawner; the
/// tests implement it with an edge recorder.
pub(crate) trait Linker {
    /// Gate the consumer on `producer` directly, recording the edge.
    fn link(&mut self, producer: &Arc<TaskNode>, kind: EdgeKind);
    /// Gate the consumer on `producer` directly without recording the
    /// edge: the join path records its access's edges all at once.
    fn gate(&mut self, producer: &Arc<TaskNode>, kind: EdgeKind);
    /// Gate the consumer on a fresh join over `members` (linked with
    /// their own kinds), the consumer→join link being `kind`.
    /// `recorded` are the producer edges of the whole access, in spawn
    /// order (kept only while the graph is recorded).
    fn link_new_join(
        &mut self,
        members: &[(Arc<TaskNode>, EdgeKind)],
        kind: EdgeKind,
        recorded: &[(TaskId, EdgeKind)],
    ) -> Arc<TaskNode>;
    /// Gate the consumer on a memoised join. `recorded` are the producer
    /// edges it stands for (kept only while the graph is recorded).
    fn link_join(&mut self, join: &Arc<TaskNode>, kind: EdgeKind, recorded: &[(TaskId, EdgeKind)]);
    /// Take back a node the frontier let go of: a retired or superseded
    /// access, a spent producer, or a join it no longer keeps.
    fn release(&mut self, node: Arc<TaskNode>);
}

/// A join kept for reuse, with the producer edges it stands for when
/// the graph is being recorded.
struct Memo {
    join: Arc<TaskNode>,
    /// The join's latest-spawned member. Only a consumer spawned after
    /// it may take the memo: an earlier one may be a member itself (two
    /// spawners can be live at once), and linking it to the join would
    /// close a cycle.
    newest: TaskId,
    recorded: Vec<(TaskId, EdgeKind)>,
}

impl Memo {
    /// May `consumer` link to this join instead of walking?
    fn serves(&self, consumer: &TaskNode) -> bool {
        consumer.id() > self.newest && self.join.same_session(consumer)
    }
}

/// One access in a list (an arena slot; `node` is `None` when the slot
/// is free).
struct Entry {
    node: Option<Arc<TaskNode>>,
    /// The access's region when it is bounded past dim 0; `None` means
    /// whole in every later dimension, which is all a 1-D access needs
    /// (its dim-0 extent covers every piece it is in).
    rest: Option<Region>,
    next: u32,
    /// References from piece heads and other entries' `next`.
    rc: u32,
    /// Last query that visited this entry.
    stamp: u64,
    /// Reads lists only: the reader-side join memo of the list headed
    /// here, a slot of [`Arena::memos`] (or `NIL`).
    memo: u32,
}

impl Entry {
    /// The accessing task of an entry reachable from a list.
    fn task(&self) -> &Arc<TaskNode> {
        self.node.as_ref().expect("list entries are live")
    }
}

/// The reference-counted entry store.
#[derive(Default)]
struct Arena {
    entries: Vec<Entry>,
    free: Vec<u32>,
    /// Reader-side memos, slots reused like entries' (`None` when free).
    memos: Vec<Option<Memo>>,
    free_memos: Vec<u32>,
    /// Nodes the frontier let go of during the current access, handed
    /// to the [`Linker`] when it is done (see [`RegionFrontier::record`]).
    released: Vec<Arc<TaskNode>>,
}

impl Arena {
    fn alloc(&mut self, node: &Arc<TaskNode>, rest: Option<&Region>, next: u32) -> u32 {
        self.inc(next);
        let entry = Entry {
            node: Some(Arc::clone(node)),
            rest: rest.cloned(),
            next,
            rc: 0,
            stamp: 0,
            memo: NIL,
        };
        match self.free.pop() {
            Some(i) => {
                self.entries[i as usize] = entry;
                i
            }
            None => {
                self.entries.push(entry);
                (self.entries.len() - 1) as u32
            }
        }
    }

    fn inc(&mut self, e: u32) {
        if e != NIL {
            self.entries[e as usize].rc += 1;
        }
    }

    /// Drop one reference; frees the entry (and, iteratively, the chain
    /// it alone kept alive) when it was the last.
    fn dec(&mut self, mut e: u32) {
        while e != NIL {
            let entry = &mut self.entries[e as usize];
            entry.rc -= 1;
            if entry.rc > 0 {
                return;
            }
            let next = entry.next;
            let node = entry.node.take();
            let memo = std::mem::replace(&mut entry.memo, NIL);
            entry.rest = None;
            self.released.extend(node);
            self.drop_memo(memo);
            self.free.push(e);
            e = next;
        }
    }

    /// The memo of the list headed at `e`, if any.
    fn memo(&self, e: u32) -> Option<&Memo> {
        match self.entries[e as usize].memo {
            NIL => None,
            m => self.memos[m as usize].as_ref(),
        }
    }

    /// Store `memo` in a free slot; returns the slot (`NIL` for none).
    fn store_memo(&mut self, memo: Option<Memo>) -> u32 {
        let Some(memo) = memo else {
            return NIL;
        };
        match self.free_memos.pop() {
            Some(m) => {
                self.memos[m as usize] = Some(memo);
                m
            }
            None => {
                self.memos.push(Some(memo));
                (self.memos.len() - 1) as u32
            }
        }
    }

    /// Free memo slot `m` (`NIL`: none), letting its join go.
    fn drop_memo(&mut self, m: u32) {
        if m != NIL {
            let memo = self.memos[m as usize].take().expect("a live memo slot");
            self.released.push(memo.join);
            self.free_memos.push(m);
        }
    }

    fn node(&self, e: u32) -> &Arc<TaskNode> {
        self.entries[e as usize].task()
    }

    /// Point the list head `*head` at `new`, releasing the old head.
    fn set(&mut self, head: &mut u32, new: u32) {
        self.inc(new);
        let old = std::mem::replace(head, new);
        self.dec(old);
    }
}

/// Finished cleanly (not poisoned): can gate nothing any more.
fn spent(n: &TaskNode) -> bool {
    n.is_finished() && !n.finished_poisoned()
}

/// The state a piece of one of the two maps carries.
trait PieceState {
    /// The state of a fresh map: nothing accessed yet.
    fn empty() -> Self;
    /// A copy for the other half of a split piece.
    fn share(&self, arena: &mut Arena) -> Self;
    /// Give up this copy's references.
    fn release(self, arena: &mut Arena);
    /// Adjacent pieces in the same state merge.
    fn same(&self, other: &Self) -> bool;
}

/// A piece of the written map.
struct Written {
    /// The last covering writer.
    writer: Option<Arc<TaskNode>>,
    writes: u32,
}

impl PieceState for Written {
    fn empty() -> Self {
        Written {
            writer: None,
            writes: NIL,
        }
    }

    fn share(&self, arena: &mut Arena) -> Self {
        arena.inc(self.writes);
        Written {
            writer: self.writer.clone(),
            writes: self.writes,
        }
    }

    fn release(self, arena: &mut Arena) {
        arena.released.extend(self.writer);
        arena.dec(self.writes);
    }

    fn same(&self, other: &Self) -> bool {
        let writer = match (&self.writer, &other.writer) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        writer && self.writes == other.writes
    }
}

/// A piece of the reads map: its list head.
struct Reads(u32);

impl PieceState for Reads {
    fn empty() -> Self {
        Reads(NIL)
    }

    fn share(&self, arena: &mut Arena) -> Self {
        arena.inc(self.0);
        Reads(self.0)
    }

    fn release(self, arena: &mut Arena) {
        arena.dec(self.0);
    }

    fn same(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

struct Piece<S> {
    start: usize,
    /// Inclusive.
    end: usize,
    /// Neighbour slots in index order (`NIL` at either end).
    prev: u32,
    next: u32,
    state: S,
}

/// Disjoint pieces tiling `0..=usize::MAX`: a doubly linked list of
/// slab slots in index order, with a **finger** at the last piece
/// touched and a start-keyed search index.
///
/// The multisort walks each buffer left to right over boundaries that
/// mostly exist already, so nearly every lookup lands on the finger or
/// one of its neighbours and costs no descent; only a miss searches the
/// index. Splits and merges are O(1) in the list plus one index update,
/// O(log pieces) wherever they fall — no position is costlier than
/// another. Slots are reused, so in steady state the map allocates only
/// when the index itself grows.
struct Tiles<S> {
    pieces: Vec<Piece<S>>,
    free: Vec<u32>,
    /// Piece start → slot, for lookups the finger misses.
    index: BTreeMap<usize, u32>,
    finger: u32,
}

impl<S: PieceState> Tiles<S> {
    fn new() -> Self {
        let first = Piece {
            start: 0,
            end: usize::MAX,
            prev: NIL,
            next: NIL,
            state: S::empty(),
        };
        Tiles {
            pieces: vec![first],
            free: Vec::new(),
            index: BTreeMap::from([(0, 0)]),
            finger: 0,
        }
    }

    fn piece(&self, p: u32) -> &Piece<S> {
        &self.pieces[p as usize]
    }

    fn state_mut(&mut self, p: u32) -> &mut S {
        &mut self.pieces[p as usize].state
    }

    /// The piece holding `x`: the finger or a neighbour of it, or else
    /// an index search. Moves the finger there.
    fn find(&mut self, x: usize) -> u32 {
        let holds = |p: u32| p != NIL && (self.piece(p).start..=self.piece(p).end).contains(&x);
        let f = self.piece(self.finger);
        let p = [self.finger, f.next, f.prev]
            .into_iter()
            .find(|&p| holds(p))
            .unwrap_or_else(|| {
                *self
                    .index
                    .range(..=x)
                    .next_back()
                    .expect("pieces tile the index space")
                    .1
            });
        self.finger = p;
        p
    }

    /// The piece after `p`, if it still overlaps `..=hi`.
    fn next_within(&self, p: u32, hi: usize) -> Option<u32> {
        let piece = self.piece(p);
        (piece.end < hi).then_some(piece.next)
    }

    /// A fresh unlinked slot.
    fn alloc(&mut self, piece: Piece<S>) -> u32 {
        match self.free.pop() {
            Some(p) => {
                self.pieces[p as usize] = piece;
                p
            }
            None => {
                self.pieces.push(piece);
                (self.pieces.len() - 1) as u32
            }
        }
    }

    /// Make `x` the start of a piece; returns that piece.
    fn split_at(&mut self, x: usize, arena: &mut Arena) -> u32 {
        let p = self.find(x);
        let piece = self.piece(p);
        if piece.start == x {
            return p;
        }
        let tail = Piece {
            start: x,
            end: piece.end,
            prev: p,
            next: piece.next,
            state: piece.state.share(arena),
        };
        let q = self.alloc(tail);
        let next = self.piece(q).next;
        if next != NIL {
            self.pieces[next as usize].prev = q;
        }
        let piece = &mut self.pieces[p as usize];
        piece.end = x - 1;
        piece.next = q;
        self.index.insert(x, q);
        self.finger = q;
        q
    }

    /// Make `lo..=hi` a union of whole pieces; returns the first.
    fn cut(&mut self, lo: usize, hi: usize, arena: &mut Arena) -> u32 {
        let first = self.split_at(lo, arena);
        if hi < usize::MAX {
            self.split_at(hi + 1, arena);
        }
        first
    }

    /// Unlink piece `p` (not the first) and free its slot, releasing
    /// its state.
    fn remove(&mut self, p: u32, arena: &mut Arena) {
        let Piece {
            start, prev, next, ..
        } = *self.piece(p);
        self.pieces[prev as usize].next = next;
        if next != NIL {
            self.pieces[next as usize].prev = prev;
        }
        self.index.remove(&start);
        std::mem::replace(self.state_mut(p), S::empty()).release(arena);
        self.free.push(p);
        if self.finger == p {
            self.finger = prev;
        }
    }

    /// Make the cut pieces from `first` through `hi` one piece in
    /// `state`, then merge it with its neighbours where they are in the
    /// same state. (A prepend gives each run of equal heads one fresh
    /// entry, so it never makes neighbours equal; a walk that drops
    /// spent heads can, and those stay apart until a covering write
    /// merges them — a size cost only.)
    fn replace(&mut self, first: u32, hi: usize, state: S, arena: &mut Arena) {
        loop {
            let next = self.piece(first).next;
            if next == NIL || self.piece(next).start > hi {
                break;
            }
            self.remove(next, arena);
        }
        let piece = &mut self.pieces[first as usize];
        piece.end = hi;
        std::mem::replace(&mut piece.state, state).release(arena);
        let mut p = first;
        let prev = self.piece(p).prev;
        if prev != NIL && self.piece(prev).state.same(&self.piece(p).state) {
            self.pieces[prev as usize].end = hi;
            self.remove(p, arena);
            p = prev;
        }
        let next = self.piece(p).next;
        if next != NIL && self.piece(next).state.same(&self.piece(p).state) {
            self.pieces[p as usize].end = self.piece(next).end;
            self.remove(next, arena);
        }
        self.finger = p;
    }

    /// Every piece's state, in index order.
    fn states(&self) -> impl Iterator<Item = &S> {
        let mut p = 0;
        std::iter::from_fn(move || {
            (p != NIL).then(|| {
                let piece = self.piece(p);
                p = piece.next;
                &piece.state
            })
        })
    }
}

/// The access being analysed.
struct Access<'a> {
    region: &'a Region,
    write: bool,
    /// Whole in every dimension past the first.
    rest_full: bool,
    node: &'a Arc<TaskNode>,
    prune: bool,
}

impl Access<'_> {
    /// Does the access conflict with `entry` inside a piece both
    /// overlap? (Invariant 1.)
    fn overlaps(&self, entry: &Entry) -> bool {
        self.rest_full || entry.rest.as_ref().is_none_or(|r| r.overlaps(self.region))
    }

    /// Does a *partial* write's region contain `entry`'s whole region?
    /// (Entries whole past dim 0 are never inside a bounded one.)
    fn supersedes(&self, entry: &Entry) -> bool {
        self.write && entry.rest.as_ref().is_some_and(|r| self.region.contains(r))
    }
}

/// What one query gathers: producers, and what stops their join from
/// being memoised.
#[derive(Default)]
struct Gather {
    producers: Vec<(Arc<TaskNode>, EdgeKind)>,
    /// The consumer's own earlier access was among the conflicts.
    saw_self: bool,
}

impl Gather {
    /// Offer one conflicting earlier access. Returns whether it is spent
    /// — a walk may unlink it when pruning.
    fn offer(&mut self, acc: &Access<'_>, p: &Arc<TaskNode>, kind: EdgeKind) -> bool {
        if Arc::ptr_eq(p, acc.node) {
            self.saw_self = true;
            return false;
        }
        let spent = spent(p);
        if !(acc.prune && spent) {
            self.producers.push((Arc::clone(p), kind));
        }
        spent
    }
}

/// A per-buffer region frontier; see the module docs.
pub(crate) struct RegionFrontier {
    written: Tiles<Written>,
    reads: Tiles<Reads>,
    arena: Arena,
    /// Query stamp.
    query: u64,
    /// Writer-side memos of the current write epoch: cleared by every
    /// write access.
    read_memos: Vec<(Region, Memo)>,
    gather: Gather,
    /// One reads list's producers, while a write decides its join.
    list: Gather,
    members: Vec<(Arc<TaskNode>, EdgeKind)>,
    /// Joins let go of before they finished, oldest first. Nothing runs a
    /// join, so no worker hands it back; the frontier does, once it is
    /// spent (checking only the oldest keeps that O(1) per access).
    retiring: VecDeque<Arc<TaskNode>>,
    /// Pieces and list entries visited (the history-independence test),
    /// and the entries alone.
    #[cfg(test)]
    pub(crate) work: u64,
    #[cfg(test)]
    pub(crate) entries_visited: u64,
}

impl Default for RegionFrontier {
    fn default() -> Self {
        RegionFrontier {
            written: Tiles::new(),
            reads: Tiles::new(),
            arena: Arena::default(),
            query: 0,
            read_memos: Vec::new(),
            gather: Gather::default(),
            list: Gather::default(),
            members: Vec::new(),
            retiring: VecDeque::new(),
            #[cfg(test)]
            work: 0,
            #[cfg(test)]
            entries_visited: 0,
        }
    }
}

/// The dim-0 interval of a region; missing dimensions are full
/// (mirrors [`Region::overlaps`]' conservative arity handling).
fn dim0(region: &Region) -> (usize, usize) {
    match region.dims().first().copied().unwrap_or(RegionBound::Full) {
        RegionBound::Full => (0, usize::MAX),
        RegionBound::Bounds(l, u) => (l, u),
    }
}

/// Walk the list at `*head`, visiting every entry this query has not
/// seen yet (a seen entry's tail was seen with it). `visit` returns
/// whether the entry may go. One behind a kept entry is spliced out of
/// the chain, which every piece sharing the chain sees. A leading run
/// that may go leaves this piece (`*head` moves past it), and the old
/// head — which other pieces may still hold as their head — is relinked
/// past the rest of the run, so each of them drops the whole run in one
/// step when it meets the old head (see [`drop_run`]). Returns whether
/// the walk reached the end of the list, and how many entries it
/// visited.
fn walk(
    arena: &mut Arena,
    head: &mut u32,
    query: u64,
    mut visit: impl FnMut(&mut Entry) -> bool,
) -> (bool, u64) {
    let mut prev = NIL;
    let mut e = *head;
    let mut visited = 0;
    let mut whole = true;
    while e != NIL {
        let entry = &mut arena.entries[e as usize];
        if entry.stamp == query {
            whole = false;
            break;
        }
        entry.stamp = query;
        visited += 1;
        let next = entry.next;
        if !visit(entry) {
            if prev == NIL {
                drop_run(arena, head, e);
            }
            prev = e;
        } else if prev != NIL {
            arena.inc(next);
            arena.entries[prev as usize].next = next;
            arena.dec(e);
        }
        e = next;
    }
    if prev == NIL {
        drop_run(arena, head, e);
    }
    (whole, visited)
}

/// Drop the leading run `*head ..` up to (not including) `rest` from
/// the list at `*head`: relink the old head past the run, then move the
/// head to `rest`. The run's entries are finished or superseded, so
/// every piece still headed at the old head may skip them too.
fn drop_run(arena: &mut Arena, head: &mut u32, rest: u32) {
    let old = *head;
    if old == rest {
        return;
    }
    let mut link = arena.entries[old as usize].next;
    if link != rest {
        arena.set(&mut link, rest);
        arena.entries[old as usize].next = link;
    }
    arena.set(head, rest);
}

/// Link `gather`'s producers for one access as `kind`: through a join
/// when more than [`JOIN_MIN`] of them are unfinished and of the
/// consumer's session, directly otherwise. Either way the graph records
/// every producer's edge in spawn order, whichever had finished, so the
/// record does not depend on timing. Returns the join as a memo when it
/// stands for every producer, and lets it go into `released` otherwise.
fn link_producers(
    gather: &mut Gather,
    members: &mut Vec<(Arc<TaskNode>, EdgeKind)>,
    consumer: &TaskNode,
    kind: EdgeKind,
    record: bool,
    linker: &mut dyn Linker,
    released: &mut Vec<Arc<TaskNode>>,
) -> Option<Memo> {
    // A producer comes up once per piece it conflicts in, and once per
    // access of it: in spawn order, each (producer, kind) is linked once
    // and `JOIN_MIN` counts distinct producers.
    let producers = &mut gather.producers;
    if producers.is_empty() {
        return None;
    }
    producers.sort_by_key(|(p, k)| (p.id(), *k == EdgeKind::Anti));
    producers.dedup_by(|a, b| Arc::ptr_eq(&a.0, &b.0) && a.1 == b.1);
    let joinable = |p: &TaskNode| !p.is_finished() && p.same_session(consumer);
    let repeat = |i: usize| i > 0 && Arc::ptr_eq(&producers[i - 1].0, &producers[i].0);
    let n = (0..producers.len())
        .filter(|&i| !repeat(i) && joinable(&producers[i].0))
        .count();
    if n <= JOIN_MIN {
        for (p, k) in producers.drain(..) {
            linker.link(&p, k);
        }
        return None;
    }
    let mut complete = !gather.saw_self;
    let recorded: Vec<(TaskId, EdgeKind)> = if record {
        producers.iter().map(|(p, k)| (p.id(), *k)).collect()
    } else {
        Vec::new()
    };
    members.clear();
    for (p, k) in producers.drain(..) {
        if members.last().is_some_and(|(q, _)| Arc::ptr_eq(q, &p)) {
            // The join already waits for this producer.
        } else if joinable(&p) {
            members.push((p, k));
        } else {
            complete &= spent(&p) && p.same_session(consumer);
            linker.gate(&p, k);
        }
    }
    let newest = members.last().map_or(TaskId(0), |(p, _)| p.id());
    let join = linker.link_new_join(members, kind, &recorded);
    members.clear();
    if !complete {
        released.push(join);
        return None;
    }
    Some(Memo {
        join,
        newest,
        recorded,
    })
}

impl RegionFrontier {
    /// Analyse one access of task `node`: link it after every earlier
    /// access it conflicts with (through `linker`), then record it.
    /// `prune` (graph not recorded) lets finished producers go. Every
    /// node the frontier lets go of meanwhile goes back through
    /// [`Linker::release`], so the spawner can reuse it and its links.
    pub(crate) fn record(
        &mut self,
        region: &Region,
        write: bool,
        node: &Arc<TaskNode>,
        prune: bool,
        linker: &mut dyn Linker,
    ) {
        self.analyse(region, write, node, prune, linker);
        let RegionFrontier {
            arena, retiring, ..
        } = self;
        for n in arena.released.drain(..) {
            if n.is_join() && !n.is_finished() {
                retiring.push_back(n);
            } else {
                linker.release(n);
            }
        }
        while retiring.front().is_some_and(|j| j.is_finished()) {
            linker.release(retiring.pop_front().expect("front checked"));
        }
    }

    fn analyse(
        &mut self,
        region: &Region,
        write: bool,
        node: &Arc<TaskNode>,
        prune: bool,
        linker: &mut dyn Linker,
    ) {
        self.query += 1;
        let (lo, hi) = dim0(region);
        let acc = Access {
            region,
            write,
            rest_full: region
                .dims()
                .iter()
                .skip(1)
                .all(|d| *d == RegionBound::Full),
            node,
            prune,
        };
        if write {
            let memos = self.read_memos.drain(..).map(|(_, m)| m.join);
            self.arena.released.extend(memos);
        } else if let Some((_, memo)) = self
            .read_memos
            .iter()
            .find(|(r, m)| r == region && m.serves(node))
        {
            linker.link_join(&memo.join, EdgeKind::True, &memo.recorded);
            self.add_read(&acc, lo, hi);
            return;
        }

        let kind = if write {
            EdgeKind::Output
        } else {
            EdgeKind::True
        };
        let query = self.query;
        let (mut visited, mut entries) = (0u64, 0u64);
        let RegionFrontier {
            written,
            reads,
            arena,
            gather,
            list,
            members,
            ..
        } = self;
        gather.saw_self = false;
        let w_first = if write {
            written.cut(lo, hi, arena)
        } else {
            written.find(lo)
        };
        // A partial write joins the pieces' writes lists in the same pass
        // (a covering one replaces the pieces once the walks are done).
        let mut prepend = (write && !acc.rest_full).then(|| Prepend::new(&acc));
        let mut cursor = Some(w_first);
        while let Some(p) = cursor {
            cursor = written.next_within(p, hi);
            let state = written.state_mut(p);
            visited += 1;
            if let Some(w) = &state.writer {
                gather.offer(&acc, w, kind);
            }
            entries += walk(arena, &mut state.writes, query, |e| {
                if !acc.overlaps(e) {
                    return false;
                }
                let spent = gather.offer(&acc, e.task(), kind);
                (acc.prune && spent) || acc.supersedes(e)
            })
            .1;
            if let Some(prepend) = &mut prepend {
                prepend.to(&mut state.writes, arena);
            }
        }
        let mut r_first = NIL;
        if write {
            r_first = if acc.rest_full {
                reads.cut(lo, hi, arena)
            } else {
                reads.find(lo)
            };
            let mut cursor = Some(r_first);
            while let Some(p) = cursor {
                cursor = reads.next_within(p, hi);
                let state = reads.state_mut(p);
                visited += 1;
                // Reads to order this write after: seen already, one
                // memo hit, or a walk whose producers may become the
                // list head's memo.
                if state.0 == NIL {
                    continue;
                }
                let h = state.0;
                if arena.entries[h as usize].stamp == query {
                    continue;
                }
                if let Some(memo) = arena.memo(h).filter(|m| m.serves(node)) {
                    linker.link_join(&memo.join, EdgeKind::Anti, &memo.recorded);
                    arena.entries[h as usize].stamp = query;
                    continue;
                }
                list.saw_self = false;
                let mut one_dim = true;
                let (whole, n) = walk(arena, &mut state.0, query, |e| {
                    one_dim &= e.rest.is_none();
                    if !acc.overlaps(e) {
                        return false;
                    }
                    let spent = list.offer(&acc, e.task(), EdgeKind::Anti);
                    (acc.prune && spent) || acc.supersedes(e)
                });
                entries += n;
                gather.saw_self |= list.saw_self;
                if whole && one_dim {
                    // The list's membership does not depend on this
                    // write's region (invariant 1), so its join can
                    // serve every later write of any piece sharing this
                    // head.
                    let memo = link_producers(
                        list,
                        members,
                        node,
                        EdgeKind::Anti,
                        !prune,
                        linker,
                        &mut arena.released,
                    );
                    if state.0 == NIL {
                        arena.released.extend(memo.map(|m| m.join));
                    } else {
                        let h = state.0 as usize;
                        arena.drop_memo(arena.entries[h].memo);
                        arena.entries[h].memo = arena.store_memo(memo);
                    }
                } else {
                    gather.producers.append(&mut list.producers);
                }
            }
        }
        #[cfg(test)]
        {
            self.work += visited + entries;
            self.entries_visited += entries;
        }
        let _ = (visited, entries); // only the tests read the counts
        let memo = link_producers(
            &mut self.gather,
            &mut self.members,
            node,
            kind,
            !prune,
            linker,
            &mut self.arena.released,
        );
        if !write {
            if let Some(memo) = memo {
                if self.read_memos.len() == READ_MEMOS {
                    let (_, old) = self.read_memos.remove(0);
                    self.arena.released.push(old.join);
                }
                self.read_memos.push((region.clone(), memo));
            }
            self.add_read(&acc, lo, hi);
        } else if acc.rest_full {
            // Invariant 2: the covered pieces retire into one.
            let writer = Written {
                writer: Some(Arc::clone(node)),
                writes: NIL,
            };
            self.written.replace(w_first, hi, writer, &mut self.arena);
            self.reads.replace(r_first, hi, Reads(NIL), &mut self.arena);
        }
    }

    /// Add a read to the reads map.
    fn add_read(&mut self, acc: &Access<'_>, lo: usize, hi: usize) {
        let RegionFrontier { reads, arena, .. } = self;
        let mut prepend = Prepend::new(acc);
        let mut cursor = Some(reads.cut(lo, hi, arena));
        while let Some(p) = cursor {
            cursor = reads.next_within(p, hi);
            prepend.to(&mut reads.state_mut(p).0, arena);
        }
    }

    /// Have all tracked accessors finished? (The `with_region` wait.)
    pub(crate) fn all_finished(&self) -> bool {
        self.written
            .states()
            .all(|s| s.writer.as_ref().is_none_or(|w| w.is_finished()))
            && self
                .arena
                .entries
                .iter()
                .all(|e| e.node.as_ref().is_none_or(|n| n.is_finished()))
    }

    /// Live list entries (test observability).
    #[cfg(test)]
    pub(crate) fn live_len(&self) -> usize {
        self.arena
            .entries
            .iter()
            .filter(|e| e.node.is_some())
            .count()
    }

    /// Pieces of the written and the reads map (test observability).
    #[cfg(test)]
    pub(crate) fn piece_counts(&self) -> (usize, usize) {
        (self.written.index.len(), self.reads.index.len())
    }
}

/// Prepends one access to the lists of the pieces it covers, visited in
/// order: one entry per run of pieces that shared a head. When pruning,
/// the new entry skips a spent prefix of the list, which leaves the
/// list the way a walk drops a leading run ([`drop_run`]): the next
/// piece sharing the old head skips the prefix in one step.
struct Prepend<'a, 'r> {
    acc: &'a Access<'r>,
    /// The last run's old head and its new entry.
    last: Option<(u32, u32)>,
}

impl<'a, 'r> Prepend<'a, 'r> {
    fn new(acc: &'a Access<'r>) -> Self {
        Prepend { acc, last: None }
    }

    /// Prepend to the next piece's list, at `head`.
    fn to(&mut self, head: &mut u32, arena: &mut Arena) {
        let old = *head;
        let new = match self.last {
            Some((o, n)) if o == old => n,
            _ => {
                if self.acc.prune && old != NIL && spent(arena.node(old)) {
                    let mut after = arena.entries[old as usize].next;
                    while after != NIL && spent(arena.node(after)) {
                        after = arena.entries[after as usize].next;
                    }
                    drop_run(arena, head, after);
                }
                let rest = (!self.acc.rest_full).then_some(self.acc.region);
                let n = arena.alloc(self.acc.node, rest, *head);
                self.last = Some((old, n));
                n
            }
        };
        arena.set(head, new);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Priority;
    use std::collections::HashMap;

    fn node(id: u64) -> Arc<TaskNode> {
        TaskNode::new(TaskId(id), "t", Priority::Normal)
    }

    fn finish(n: &Arc<TaskNode>) {
        n.install_body(|| {});
        n.take_body().run_in_place();
        let _ = n.complete(false, |_| {});
    }

    /// The retired linear scan, kept as the oracle: every earlier access
    /// of the buffer, in order.
    #[derive(Default)]
    struct LinearOracle {
        entries: Vec<(Region, bool, u64)>,
    }

    impl LinearOracle {
        /// Every earlier access `(region, write)` conflicts with: the
        /// full, unreduced edge set.
        fn record(&mut self, region: &Region, write: bool, id: u64) -> Vec<u64> {
            let preds = self
                .entries
                .iter()
                .filter(|(r, w, p)| *p != id && (*w || write) && r.overlaps(region))
                .map(|&(_, _, p)| p)
                .collect();
            self.entries.push((region.clone(), write, id));
            preds
        }
    }

    /// A [`Linker`] that records the edges it is asked to make, joins
    /// expanded to their members, and counts links and joins.
    #[derive(Default)]
    struct Recorder {
        consumer: u64,
        edges: Vec<(u64, u64, EdgeKind)>,
        joins: HashMap<*const TaskNode, Vec<(u64, EdgeKind)>>,
        links: usize,
    }

    impl Linker for Recorder {
        fn link(&mut self, producer: &Arc<TaskNode>, kind: EdgeKind) {
            self.links += 1;
            self.edges.push((producer.id().0, self.consumer, kind));
        }

        fn gate(&mut self, producer: &Arc<TaskNode>, kind: EdgeKind) {
            self.link(producer, kind);
        }

        fn link_new_join(
            &mut self,
            members: &[(Arc<TaskNode>, EdgeKind)],
            kind: EdgeKind,
            recorded: &[(TaskId, EdgeKind)],
        ) -> Arc<TaskNode> {
            let join = TaskNode::new_join(&node(0));
            let m: Vec<_> = members.iter().map(|(p, k)| (p.id().0, *k)).collect();
            self.joins.insert(Arc::as_ptr(&join), m);
            self.links += members.len();
            self.link_join(&join, kind, recorded);
            join
        }

        fn link_join(
            &mut self,
            join: &Arc<TaskNode>,
            _: EdgeKind,
            recorded: &[(TaskId, EdgeKind)],
        ) {
            self.links += 1;
            let members = &self.joins[&Arc::as_ptr(join)];
            if !recorded.is_empty() {
                // Recording keeps the full producer set, a superset of
                // the members (finished producers are linked directly).
                for m in members {
                    assert!(recorded.iter().any(|&(id, k)| (id.0, k) == *m));
                }
            }
            for &(m, k) in members {
                self.edges.push((m, self.consumer, k));
            }
        }

        fn release(&mut self, _: Arc<TaskNode>) {}
    }

    fn record(
        f: &mut RegionFrontier,
        r: &mut Recorder,
        region: &Region,
        write: bool,
        n: &Arc<TaskNode>,
        prune: bool,
    ) -> Vec<u64> {
        r.consumer = n.id().0;
        let before = r.edges.len();
        f.record(region, write, n, prune, r);
        let mut preds: Vec<u64> = r.edges[before..].iter().map(|e| e.0).collect();
        preds.sort_unstable();
        preds.dedup();
        preds
    }

    /// Transitive closure of a DAG over ids `1..=n` whose edges point
    /// forward: `reach[j]` has bit `i` when `i` reaches `j`.
    fn closure(n: usize, edges: &[(u64, u64)]) -> Vec<Vec<bool>> {
        let mut preds = vec![Vec::new(); n + 1];
        for &(f, t) in edges {
            preds[t as usize].push(f as usize);
        }
        let mut reach = vec![vec![false; n + 1]; n + 1];
        for j in 1..=n {
            for &p in &preds[j] {
                reach[j][p] = true;
                let (lo, hi) = reach.split_at_mut(j);
                for (i, r) in lo[p].iter().enumerate() {
                    if *r {
                        hi[0][i] = true;
                    }
                }
            }
        }
        reach
    }

    /// The reachability oracle for one access sequence. Every frontier
    /// edge, joins expanded, must be a conflicting, overlapping
    /// earlier→later pair of the linear oracle; and every oracle pair
    /// whose producer was still unfinished at the later access (all of
    /// them, without pruning) must be reachable in the frontier graph —
    /// so the two transitive closures agree.
    struct Check {
        frontier: RegionFrontier,
        recorder: Recorder,
        oracle: LinearOracle,
        oracle_edges: Vec<(u64, u64)>,
        nodes: Vec<Arc<TaskNode>>,
        prune: bool,
    }

    impl Check {
        fn new(prune: bool) -> Self {
            Check {
                frontier: RegionFrontier::default(),
                recorder: Recorder::default(),
                oracle: LinearOracle::default(),
                oracle_edges: Vec::new(),
                nodes: Vec::new(),
                prune,
            }
        }

        fn access(&mut self, region: &Region, write: bool) -> Arc<TaskNode> {
            let n = node(self.nodes.len() as u64 + 1);
            self.nodes.push(Arc::clone(&n));
            let id = n.id().0;
            let got = record(
                &mut self.frontier,
                &mut self.recorder,
                region,
                write,
                &n,
                self.prune,
            );
            let want = self.oracle.record(region, write, id);
            for p in &got {
                assert!(want.contains(p), "edge {p}->{id} is not a conflicting pair");
            }
            for p in want {
                // Pruning may drop a finished producer: it gates nothing.
                if !self.prune || !self.nodes[p as usize - 1].is_finished() {
                    self.oracle_edges.push((p, id));
                }
            }
            n
        }

        /// Complete every node up to and including id `upto`, in order
        /// (a legal schedule: producers precede consumers).
        fn finish_upto(&mut self, upto: usize) {
            for n in self.nodes.iter().take(upto) {
                if !n.is_finished() {
                    finish(n);
                }
            }
        }

        fn assert_closures_equal(&self) {
            let n = self.nodes.len();
            let mine: Vec<(u64, u64)> = self
                .recorder
                .edges
                .iter()
                .map(|&(f, t, _)| (f, t))
                .collect();
            let got = closure(n, &mine);
            let want = closure(n, &self.oracle_edges);
            for j in 1..=n {
                for i in 1..j {
                    if want[j][i] {
                        assert!(got[j][i], "{i} must reach {j}");
                    }
                }
            }
        }
    }

    #[test]
    fn indexed_matches_linear_on_a_block_pattern() {
        let mut c = Check::new(false);
        for i in 0..40usize {
            let b = i % 8;
            c.access(&Region::d1(b * 10..=b * 10 + 9), i % 3 != 0);
        }
        c.assert_closures_equal();
        // Eight disjoint blocks: the frontier holds eight written pieces
        // plus the untouched tail, whatever the history length, and at
        // most one reads piece per block and gap.
        let (written, reads) = c.frontier.piece_counts();
        assert_eq!(written, 9);
        assert!(reads <= 17, "{reads} reads pieces");
    }

    #[test]
    fn indexed_matches_linear_with_full_and_2d_regions() {
        let regions = [
            Region::all(),
            Region::d1(0..=9),
            Region::d2(0..=3, 0..=3),
            Region::d2(2..=5, 4..=7),
            Region::d1(100..=220),
            Region::d2(0..=100, 2..=2),
        ];
        for prune in [false, true] {
            let mut c = Check::new(prune);
            for i in 0..30 {
                c.access(&regions[i % regions.len()], i % 2 == 0);
            }
            c.assert_closures_equal();
        }
    }

    #[test]
    fn pruning_drops_finished_entries_and_preserves_edges() {
        let live_after = |accesses: usize| {
            let mut c = Check::new(true);
            for i in 0..accesses {
                if i >= 4 {
                    c.finish_upto(i - 4); // trailing completion frontier
                }
                // Overlapping 1-D reads and 2-D band writes: lists, not
                // writers, carry the history.
                let k = (i % 5) * 8;
                if i % 2 == 0 {
                    c.access(&Region::d1(k..=k + 11), false);
                } else {
                    c.access(&Region::d2(k..=k + 11, 0..=3), true);
                }
            }
            c.assert_closures_equal();
            c.frontier.live_len()
        };
        // Finished entries leave the lists: what stays is the unfinished
        // tail plus at most a head per piece, however long the history.
        let (short, long) = (live_after(40), live_after(400));
        assert!(
            long <= short,
            "{short} live entries after 40 accesses, {long} after 400"
        );
    }

    #[test]
    fn self_accesses_do_not_self_depend() {
        for prune in [false, true] {
            let mut f = RegionFrontier::default();
            let mut r = Recorder::default();
            let n = node(1);
            record(&mut f, &mut r, &Region::d1(0..=9), true, &n, prune);
            record(&mut f, &mut r, &Region::d1(5..=14), false, &n, prune);
            record(&mut f, &mut r, &Region::d1(5..=14), true, &n, prune);
            assert_eq!(r.links, 0, "prune={prune}");
        }
    }

    #[test]
    fn all_finished_tracks_completion() {
        let mut f = RegionFrontier::default();
        let mut r = Recorder::default();
        let (a, b) = (node(1), node(2));
        record(&mut f, &mut r, &Region::d1(0..=3), true, &a, true);
        record(&mut f, &mut r, &Region::d2(2..=5, 0..=1), false, &b, true);
        assert!(!f.all_finished());
        finish(&a);
        assert!(!f.all_finished(), "the reader is still running");
        finish(&b);
        assert!(f.all_finished());
    }

    /// The reachability property over random access sequences — random
    /// 1-D/2-D/full regions, directions, completion interleavings, and
    /// pruning on and off (graph recording off and on). The runtime-level
    /// twin (recorded graphs through the public API, renaming on/off)
    /// lives in `tests/regions.rs`.
    mod equivalence {
        use super::*;
        use proptest::prelude::*;

        /// One scripted access: region shape, position, length,
        /// direction, and how many of the oldest unfinished accessors
        /// complete first (`3`: every one).
        type Op = (usize, usize, usize, usize, usize);

        fn op() -> impl Strategy<Value = Op> {
            (0..8usize, 0..90usize, 1..24usize, 0..2usize, 0..4usize)
        }

        fn region_of(kind: usize, a: usize, len: usize) -> Region {
            match kind {
                0 => Region::d1(a..=a + len - 1),
                1 => Region::all(),
                2 => Region::d2(a..=a + len - 1, a / 2..=a / 2 + len),
                3 => Region::d2(RegionBound::Full, RegionBound::Bounds(a, a + len)),
                4 => Region::d1(a * 100..=a * 100 + len),
                5 => Region::d2(a..=a + 2 * len, RegionBound::Full),
                // Aligned blocks: wide fan-ins that form joins.
                6 => Region::d1((a % 4) * 32..=(a % 4) * 32 + 31),
                // Aligned eighths of those blocks: a block read whole,
                // then overwritten chunk by chunk.
                _ => {
                    let lo = (a % 4) * 32 + (len % 8) * 4;
                    Region::d1(lo..=lo + 3)
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn indexed_log_emits_exactly_the_linear_edge_sequence(
                ops in proptest::collection::vec(op(), 1..80),
                prune in 0..2usize,
            ) {
                let mut c = Check::new(prune == 1);
                let mut finished = 0usize;
                for &(kind, a, len, write, fin) in &ops {
                    finished = if fin == 3 {
                        c.nodes.len()
                    } else {
                        (finished + fin).min(c.nodes.len())
                    };
                    c.finish_upto(finished);
                    c.access(&region_of(kind, a, len), write == 1);
                }
                c.assert_closures_equal();
                // Liveness agrees too: the frontier is done exactly when
                // every accessor is.
                prop_assert_eq!(
                    c.frontier.all_finished(),
                    c.nodes.iter().all(|n| n.is_finished())
                );
            }
        }
    }

    #[test]
    fn range_growth_rebuilds_and_keeps_entries_queryable() {
        let mut f = RegionFrontier::default();
        let mut r = Recorder::default();
        let (n1, n2, n3) = (node(1), node(2), node(3));
        record(&mut f, &mut r, &Region::d1(0..=9), true, &n1, false);
        // Far from the first access: just two more pieces.
        record(
            &mut f,
            &mut r,
            &Region::d1(100_000..=100_009),
            true,
            &n2,
            false,
        );
        let hit = record(&mut f, &mut r, &Region::d1(5..=6), false, &n3, false);
        assert_eq!(hit, vec![1]);
        assert_eq!(r.edges, vec![(1, 3, EdgeKind::True)]);
        // A read at the very top of the index space.
        let n4 = node(4);
        let hit = record(
            &mut f,
            &mut r,
            &Region::d1(usize::MAX - 1..=usize::MAX),
            false,
            &n4,
            false,
        );
        assert!(hit.is_empty());
    }

    /// A fan-in of 64 writers read whole by 64 readers, then overwritten
    /// chunk by chunk: one writer-side join serves every reader and one
    /// reader-side join every overwrite.
    #[test]
    fn wide_fan_in_shares_one_join_per_side() {
        let mut f = RegionFrontier::default();
        let mut r = Recorder::default();
        let mut id = 0u64;
        let mut next = || {
            id += 1;
            node(id)
        };
        let writers: Vec<_> = (0..64).map(|_| next()).collect();
        for (i, w) in writers.iter().enumerate() {
            record(
                &mut f,
                &mut r,
                &Region::d1(i * 16..=i * 16 + 15),
                true,
                w,
                true,
            );
        }
        for _ in 0..64 {
            let n = next();
            let preds = record(&mut f, &mut r, &Region::d1(0..=1023), false, &n, true);
            assert_eq!(preds.len(), 64);
        }
        for i in 0..64 {
            let n = next();
            let preds = record(
                &mut f,
                &mut r,
                &Region::d1(i * 16..=i * 16 + 15),
                true,
                &n,
                true,
            );
            assert_eq!(preds.len(), 65, "its old writer and every reader");
        }
        assert_eq!(r.joins.len(), 2);
        // 64 + 64 readers' links, 64 + 64 overwriters' members/links,
        // and each overwrite's direct output edge.
        assert!(r.links <= 5 * 64, "{} links", r.links);
    }

    /// A writer met in several pieces is one producer: it is linked
    /// once and counts once against `JOIN_MIN`.
    #[test]
    fn a_producer_spanning_pieces_counts_once() {
        let mut f = RegionFrontier::default();
        let mut r = Recorder::default();
        let whole = node(1);
        record(&mut f, &mut r, &Region::d1(0..=89), true, &whole, true);
        // Seven partial writes cut its piece into eight, each with its
        // own writes list.
        for k in 0..7 {
            let n = node(k as u64 + 2);
            let band = Region::d2(k * 10..=k * 10 + 9, 0..=3);
            record(&mut f, &mut r, &band, true, &n, true);
        }
        let before = r.links;
        let preds = record(&mut f, &mut r, &Region::d1(0..=89), false, &node(9), true);
        assert_eq!(preds, (1..=8).collect::<Vec<_>>());
        assert_eq!(r.links - before, 8, "eight producers, eight direct links");
        assert!(r.joins.is_empty(), "eight distinct producers make no join");
    }

    /// A reads list that one write walks only in part — its tail was
    /// already walked under another piece's head in the same query — must
    /// not get a reader-side memo: a later write hitting it would miss the
    /// tail's readers.
    #[test]
    fn a_list_walked_in_part_is_not_memoised() {
        for prune in [false, true] {
            let mut c = Check::new(prune);
            // Ten readers of the whole range: the shared tail.
            for _ in 0..10 {
                c.access(&Region::d1(0..=99), false);
            }
            // Nine more of the upper half only: that half's list is its
            // own nine entries on top of the shared tail.
            for _ in 0..9 {
                c.access(&Region::d1(50..=99), false);
            }
            // This write walks the lower half's list (the tail) first,
            // then the upper half's, which stops at the tail.
            c.access(&Region::d1(0..=79), true);
            // The rest of the upper half still has the upper head.
            c.access(&Region::d1(80..=99), true);
            c.assert_closures_equal();
        }
    }

    /// ROADMAP aim 3, "no input size at which analysis goes
    /// superlinear": a 1-D program costs the same frontier work per
    /// access at N, 2N and 4N accesses — banded, when nothing retires
    /// during the spawn (one thread); banded, when a barrier between
    /// rounds lets every reader finish before the next round's band
    /// writes overwrite the buffer they read whole; and with random
    /// boundaries, which keep the piece maps large and ragged.
    #[test]
    fn per_access_work_is_independent_of_history() {
        use crate::Runtime;
        #[derive(Clone, Copy, Debug, PartialEq)]
        enum Shape {
            Banded,
            Barrier,
            Random,
        }
        const LEN: usize = 16 * 64;
        let per_access = |rounds: usize, shape: Shape| {
            let rt = Runtime::builder().threads(1).build();
            let h = rt.region_data(vec![0u32; LEN]);
            let mut rng = 0x9e37_79b9_7f4a_7c15u64;
            let mut range = |len: usize| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let lo = (rng >> 32) as usize % (LEN - len);
                (lo, lo + 1 + (rng as usize % len))
            };
            let mut accesses = 0u64;
            let read = |rlo: usize, rhi: usize| {
                let mut sp = rt.task("read");
                let mut r = sp.read_region(&h, Region::d1(rlo..=rhi));
                sp.submit(move || {
                    std::hint::black_box(r.slice(rlo, rhi)[0]);
                });
            };
            for round in 0..rounds {
                for b in 0..16 {
                    let (lo, hi) = match shape {
                        Shape::Random => range(64),
                        _ => (b * 64, b * 64 + 63),
                    };
                    let mut sp = rt.task("write");
                    let mut w = sp.write_region(&h, Region::d1(lo..=hi));
                    sp.submit(move || w.slice_mut(lo, hi)[0] = round as u32);
                    match shape {
                        // A reader straddling the band and the next one.
                        Shape::Banded => read(lo + 32, (hi + 32).min(LEN - 1)),
                        Shape::Random => {
                            let (lo, hi) = range(96);
                            read(lo, hi);
                        }
                        Shape::Barrier => {}
                    }
                    accesses += 2;
                }
                if shape == Shape::Barrier {
                    // Readers of the whole buffer, finished before the
                    // next round's band writes.
                    for _ in 0..16 {
                        read(0, LEN - 1);
                    }
                    rt.barrier();
                }
            }
            let work = h.obj.frontier.lock().work;
            if shape != Shape::Barrier {
                assert_eq!(rt.stats().tasks_executed, 0, "nothing ran during the spawn");
            }
            rt.barrier();
            work as f64 / accesses as f64
        };
        let n = 64;
        for shape in [Shape::Banded, Shape::Barrier, Shape::Random] {
            let w1 = per_access(n, shape);
            for (k, label) in [(2, "2N"), (4, "4N")] {
                let w = per_access(k * n, shape);
                assert!(
                    w <= 1.3 * w1 && w1 <= 1.3 * w,
                    "per-access work {w1} at N vs {w} at {label} ({shape:?})"
                );
            }
            if shape == Shape::Barrier {
                // A band write meets the finished readers of the whole
                // buffer once per round, not once per band.
                assert!(w1 <= 6.0, "per-access work {w1} ({shape:?})");
            }
        }
    }

    /// The multisort's access shape (Figure 7 with `par_merge`'s chunked
    /// merges) at 256 Ki elements on one thread: in a steady-state
    /// repetition, whose writes meet the previous one's finished readers
    /// and writers, the frontier visits a few pieces and entries per
    /// task, not the ~95 it did while each chunk write walked the whole
    /// finished reads list again.
    #[test]
    fn a_multisort_repetition_visits_few_entries_per_task() {
        use crate::{RegionHandle, Runtime};
        type H = RegionHandle<Vec<u32>>;
        const LEAF: usize = 1024;
        fn merge(rt: &Runtime, src: &H, a: (usize, usize), b: (usize, usize), dst: &H, d: usize) {
            let total = (a.1 - a.0 + 1) + (b.1 - b.0 + 1);
            for k in (0..total).step_by(LEAF) {
                let (lo, hi) = (d + k, d + (k + LEAF).min(total) - 1);
                let mut sp = rt.task("merge");
                let mut ra = sp.read_region(src, Region::d1(a.0..=a.1));
                let mut rb = sp.read_region(src, Region::d1(b.0..=b.1));
                let mut w = sp.write_region(dst, Region::d1(lo..=hi));
                sp.submit(move || {
                    let x = ra.slice(a.0, a.0)[0] ^ rb.slice(b.0, b.0)[0];
                    w.slice_mut(lo, lo)[0] = x;
                });
            }
        }
        fn sort(rt: &Runtime, data: &H, tmp: &H, lo: usize, hi: usize) {
            let size = hi - lo + 1;
            if size <= LEAF {
                let mut sp = rt.task("leaf");
                let mut w = sp.inout_region(data, Region::d1(lo..=hi));
                sp.submit(move || w.slice_mut(lo, hi).reverse());
                return;
            }
            let q = size / 4;
            let b = [lo, lo + q, lo + 2 * q, lo + 3 * q, hi + 1];
            for i in 0..4 {
                sort(rt, data, tmp, b[i], b[i + 1] - 1);
            }
            merge(rt, data, (b[0], b[1] - 1), (b[1], b[2] - 1), tmp, b[0]);
            merge(rt, data, (b[2], b[3] - 1), (b[3], b[4] - 1), tmp, b[2]);
            merge(rt, tmp, (b[0], b[2] - 1), (b[2], hi), data, b[0]);
        }
        const N: usize = 1 << 18;
        let rt = Runtime::builder().threads(1).build();
        let data = rt.region_data(vec![0u32; N]);
        let tmp = rt.region_data(vec![0u32; N]);
        let work = || {
            let (d, t) = (data.obj.frontier.lock(), tmp.obj.frontier.lock());
            (d.work + t.work, d.entries_visited + t.entries_visited)
        };
        let mut per_task = Vec::new();
        for _ in 0..3 {
            let (w0, t0) = (work(), rt.stats().tasks_spawned);
            sort(&rt, &data, &tmp, 0, N - 1);
            let (w1, tasks) = (work(), (rt.stats().tasks_spawned - t0) as f64);
            per_task.push(((w1.0 - w0.0) as f64 / tasks, (w1.1 - w0.1) as f64 / tasks));
            rt.barrier();
        }
        // (pieces and entries, entries) per task
        let (all, entries) = per_task[2];
        assert!(
            entries <= 5.0 && all <= 12.0,
            "visits per task by repetition: {per_task:?}"
        );
    }

    /// 1 024 finished readers of one range, then the range overwritten in
    /// 1 024 chunks: the first write drops the finished run for every
    /// piece that shares it, so the chunk writes cost a few visits each,
    /// not a walk of the whole run apiece.
    #[test]
    fn a_finished_run_leaves_its_shared_list_once() {
        const N: usize = 1024;
        let mut f = RegionFrontier::default();
        let mut r = Recorder::default();
        let readers: Vec<_> = (1..=N as u64).map(node).collect();
        for n in &readers {
            record(&mut f, &mut r, &Region::d1(0..=N * 4 - 1), false, n, true);
        }
        for n in &readers {
            finish(n);
        }
        let before = f.work;
        for c in 0..N {
            let w = node((N + 1 + c) as u64);
            let preds = record(
                &mut f,
                &mut r,
                &Region::d1(c * 4..=c * 4 + 3),
                true,
                &w,
                true,
            );
            assert!(preds.is_empty(), "finished readers gate nothing");
        }
        let per_write = (f.work - before) as f64 / N as f64;
        assert!(per_write <= 8.0, "{per_write} visits per chunk write");
        assert!(f.live_len() <= 2, "{} live entries", f.live_len());
    }

    /// One access whose producers take the join path, some of them
    /// finished when it is analysed: the recorded edges come in the
    /// producers' spawn order all the same, so the graph of a run where
    /// they had finished equals the graph of a run where none had. At
    /// one thread nothing runs unless the main thread helps, and a
    /// help runs the high-priority writers first.
    #[test]
    fn recorded_edges_do_not_depend_on_which_producers_finished() {
        const ELEMS: usize = 16;
        let recorded = |finish_some: bool| {
            let rt = crate::Runtime::builder()
                .threads(1)
                .record_graph(true)
                .build();
            let buf = rt.region_data(vec![0u32; ELEMS]);
            let flag = rt.data(0u32);
            for i in 0..ELEMS - 2 {
                let mut sp = rt.task("writer");
                if (1..=4).contains(&i) {
                    sp.high_priority(); // writers 2..=5
                }
                let w = sp.write_region(&buf, Region::d1(i..=i));
                let f = (i == 4).then(|| sp.write(&flag)); // writer 5
                sp.submit(move || drop((w, f)));
                if finish_some && i == 4 {
                    rt.wait_on(&flag); // runs writers 2..=5, not writer 1
                }
            }
            let mut sp = rt.task("reader");
            let r = sp.read_region(&buf, Region::d1(0..=ELEMS - 1));
            sp.submit(move || drop(r));
            rt.barrier();
            rt.graph().expect("recording").edges().to_vec()
        };
        let edges = recorded(false);
        let into_reader: Vec<u64> = edges.iter().map(|e| e.0 .0).collect();
        assert_eq!(into_reader, (1..=ELEMS as u64 - 2).collect::<Vec<_>>());
        assert_eq!(recorded(true), edges);
    }
}
