//! Region-tracked data objects — the §V.A language extension, implemented.
//!
//! The paper *proposes* array regions but notes that "our runtime
//! implementation does not yet include support for array regions" (§V.B),
//! forcing the representant workaround. Here the extension is implemented in
//! full: a [`RegionHandle`] names a single buffer on which every task access
//! declares the sub-region it touches; the analyser serialises exactly the
//! accesses whose regions overlap.
//!
//! Like the paper's design, the region analyser does **not** rename
//! (renaming a partially-written array would require merging versions), so
//! it emits anti- and output-dependency edges where needed.
//!
//! ## Safety model
//!
//! Region tasks may run concurrently on *disjoint* regions of the same
//! buffer, so the API never hands out `&mut T` to the whole buffer. Instead
//! the bindings expose element slices that are bounds-checked against the
//! **declared** region. The dependency graph serialises overlapping
//! accesses, so two live mutable slices are always disjoint. Dishonest
//! declarations are caught by the slice bounds checks (access outside the
//! declared region panics) — the same trust boundary as the paper's
//! pragmas, but enforced at run time.

use std::sync::Arc;

use parking_lot::Mutex;

use super::region::{Region, RegionBound};
use super::region_log::RegionFrontier;
use super::version::VBuf;
use crate::ids::ObjectId;

/// Buffers usable with region-level dependency tracking: a linear array of
/// elements that tasks access through disjoint sub-slices.
///
/// # Safety
///
/// Implementations must guarantee that `base_ptr` points to at least
/// `region_len()` contiguous, initialised elements, and that the pointer
/// stays valid while the value is not moved or dropped (the runtime keeps
/// the value boxed inside a version buffer and never moves it while tasks
/// are live).
pub unsafe trait RegionData: Send + 'static {
    type Elem: Send + 'static;

    /// Number of addressable elements.
    fn region_len(&self) -> usize;

    /// Base pointer to the element storage.
    fn base_ptr(&self) -> *const Self::Elem;
}

// SAFETY: Vec's buffer is contiguous and stable while the Vec is not
// resized; region tasks only read/write elements, never resize.
unsafe impl<E: Send + 'static> RegionData for Vec<E> {
    type Elem = E;

    fn region_len(&self) -> usize {
        self.len()
    }

    fn base_ptr(&self) -> *const E {
        self.as_ptr()
    }
}

// SAFETY: boxed slices are contiguous and never reallocate.
unsafe impl<E: Send + 'static> RegionData for Box<[E]> {
    type Elem = E;

    fn region_len(&self) -> usize {
        self.len()
    }

    fn base_ptr(&self) -> *const E {
        self.as_ptr()
    }
}

pub(crate) struct RegionObject<T: RegionData> {
    pub(crate) id: ObjectId,
    pub(crate) buf: Arc<VBuf<T>>,
    /// The live accesses dependency analysis orders new ones after (see
    /// [`RegionFrontier`]). Taken only by the spawners and by
    /// `with_region`/`update_region`; finished accesses leave it unless
    /// the runtime records graphs.
    pub(crate) frontier: Mutex<RegionFrontier>,
    /// Dynamic validation of the disjointness invariant (see module docs):
    /// the regions of the live bindings, with their write flags. Equal
    /// entries are interchangeable, so a binding is removed by value.
    pub(crate) active: Mutex<Vec<(Region, bool)>>,
}

impl<T: RegionData> RegionObject<T> {
    pub(crate) fn new(id: ObjectId, value: T) -> Self {
        RegionObject {
            id,
            buf: Arc::new(VBuf::new(value)),
            frontier: Mutex::new(RegionFrontier::default()),
            active: Mutex::new(Vec::new()),
        }
    }

    /// Check a binding's region against every live conflicting one and
    /// register it. This is the one run-time check of region analysis,
    /// so it stays on in release builds; regions are values and the list
    /// keeps its capacity, so it does not allocate.
    fn activate(&self, region: &Region, write: bool) {
        let mut act = self.active.lock();
        for (r, w) in act.iter() {
            let conflict = (write || *w) && r.overlaps(region);
            assert!(
                !conflict,
                "SMPSs region invariant violated: concurrent conflicting accesses \
                 to {} and {} (dependency analysis bug or dishonest declaration)",
                r, region
            );
        }
        act.push((region.clone(), write));
    }

    fn deactivate(&self, region: &Region, write: bool) {
        let mut act = self.active.lock();
        if let Some(pos) = act.iter().position(|(r, w)| *w == write && r == region) {
            act.swap_remove(pos);
        }
    }
}

/// Handle to a region-tracked buffer; created with
/// [`Runtime::region_data`](crate::Runtime::region_data).
pub struct RegionHandle<T: RegionData> {
    pub(crate) obj: Arc<RegionObject<T>>,
}

impl<T: RegionData> Clone for RegionHandle<T> {
    fn clone(&self) -> Self {
        RegionHandle {
            obj: Arc::clone(&self.obj),
        }
    }
}

impl<T: RegionData> RegionHandle<T> {
    pub fn id(&self) -> ObjectId {
        self.obj.id
    }
}

impl<T: RegionData> std::fmt::Debug for RegionHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RegionHandle({:?})", self.obj.id)
    }
}

/// Read access to a declared region (1-D slice API).
pub struct RegionReadBinding<T: RegionData> {
    obj: Arc<RegionObject<T>>,
    region: Region,
    active: bool,
}

impl<T: RegionData> RegionReadBinding<T> {
    pub(crate) fn new(obj: Arc<RegionObject<T>>, region: Region) -> Self {
        RegionReadBinding {
            obj,
            region,
            active: false,
        }
    }

    /// The declared region.
    pub fn region(&self) -> &Region {
        &self.region
    }

    fn ensure_active(&mut self) {
        if !self.active {
            self.obj.activate(&self.region, false);
            self.active = true;
        }
    }

    /// Borrow elements `lo..=hi` (inclusive, like the paper's `{l..u}`).
    /// Panics if the range is outside the declared region or the buffer.
    pub fn slice(&mut self, lo: usize, hi: usize) -> &[T::Elem] {
        self.ensure_active();
        check_declared(&self.region, lo, hi);
        // SAFETY: range is inside the buffer (checked) and the dependency
        // graph orders all overlapping writers before this task.
        unsafe {
            let data = &*self.obj.buf.get();
            assert!(hi < data.region_len(), "region read past end of buffer");
            std::slice::from_raw_parts(data.base_ptr().add(lo), hi - lo + 1)
        }
    }

    /// Borrow columns `c0..=c1` of `row` in a row-major 2-D layout with
    /// the given `stride` (row length). The access is checked against the
    /// declared 2-D region: `(row, c0..=c1)` must be contained in it.
    pub fn row_slice(&mut self, stride: usize, row: usize, c0: usize, c1: usize) -> &[T::Elem] {
        self.ensure_active();
        check_declared_2d(&self.region, stride, row, c0, c1);
        // SAFETY: flat range checked against buffer; overlapping writers
        // are ordered before us by the 2-D region dependency analysis.
        unsafe {
            let data = &*self.obj.buf.get();
            let lo = row * stride + c0;
            let hi = row * stride + c1;
            assert!(hi < data.region_len(), "region read past end of buffer");
            std::slice::from_raw_parts(data.base_ptr().add(lo), hi - lo + 1)
        }
    }
}

impl<T: RegionData> Drop for RegionReadBinding<T> {
    fn drop(&mut self) {
        if self.active {
            self.obj.deactivate(&self.region, false);
        }
    }
}

/// Write (or read-write) access to a declared region (1-D slice API).
pub struct RegionWriteBinding<T: RegionData> {
    obj: Arc<RegionObject<T>>,
    region: Region,
    active: bool,
}

impl<T: RegionData> RegionWriteBinding<T> {
    pub(crate) fn new(obj: Arc<RegionObject<T>>, region: Region) -> Self {
        RegionWriteBinding {
            obj,
            region,
            active: false,
        }
    }

    pub fn region(&self) -> &Region {
        &self.region
    }

    fn ensure_active(&mut self) {
        if !self.active {
            self.obj.activate(&self.region, true);
            self.active = true;
        }
    }

    /// Mutably borrow elements `lo..=hi` (inclusive). Panics outside the
    /// declared region.
    pub fn slice_mut(&mut self, lo: usize, hi: usize) -> &mut [T::Elem] {
        self.ensure_active();
        check_declared(&self.region, lo, hi);
        // SAFETY: range is inside the buffer and the declared region; the
        // graph serialises overlapping accesses, so live mutable slices on
        // this buffer are pairwise disjoint (validated by `activate`).
        unsafe {
            let data = &*self.obj.buf.get();
            assert!(hi < data.region_len(), "region write past end of buffer");
            std::slice::from_raw_parts_mut(data.base_ptr().add(lo) as *mut T::Elem, hi - lo + 1)
        }
    }

    /// Mutably borrow the whole declared 1-D region. Panics if the
    /// region is not one bounded dimension.
    pub fn declared_mut(&mut self) -> &mut [T::Elem] {
        let &[RegionBound::Bounds(lo, hi)] = self.region.dims() else {
            panic!(
                "declared_mut needs a bounded 1-D region, not {}",
                self.region
            );
        };
        self.slice_mut(lo, hi)
    }

    /// Read elements `lo..=hi` (for `inout` regions).
    pub fn slice(&mut self, lo: usize, hi: usize) -> &[T::Elem] {
        &*self.slice_mut(lo, hi)
    }

    /// Mutably borrow columns `c0..=c1` of `row` in a row-major 2-D
    /// layout with the given `stride`. Checked against the declared
    /// region like [`RegionReadBinding::row_slice`].
    pub fn row_slice_mut(
        &mut self,
        stride: usize,
        row: usize,
        c0: usize,
        c1: usize,
    ) -> &mut [T::Elem] {
        self.ensure_active();
        check_declared_2d(&self.region, stride, row, c0, c1);
        // SAFETY: see `slice_mut`; rows of disjoint declared 2-D regions
        // map to disjoint flat ranges when `stride` is the true row
        // length (column bounds are checked against the stride).
        unsafe {
            let data = &*self.obj.buf.get();
            let lo = row * stride + c0;
            let hi = row * stride + c1;
            assert!(hi < data.region_len(), "region write past end of buffer");
            std::slice::from_raw_parts_mut(data.base_ptr().add(lo) as *mut T::Elem, hi - lo + 1)
        }
    }
}

impl<T: RegionData> Drop for RegionWriteBinding<T> {
    fn drop(&mut self) {
        if self.active {
            self.obj.deactivate(&self.region, true);
        }
    }
}

fn check_declared(region: &Region, lo: usize, hi: usize) {
    assert!(lo <= hi, "empty slice request {lo}..={hi}");
    let req = Region::d1(lo..=hi);
    assert!(
        region.contains(&req),
        "access {req} outside the declared region {region} \
         (the task's directionality clause was dishonest)"
    );
}

fn check_declared_2d(region: &Region, stride: usize, row: usize, c0: usize, c1: usize) {
    assert!(c0 <= c1, "empty row slice {c0}..={c1}");
    assert!(c1 < stride, "column range exceeds the row stride");
    let req = Region::d2(row..=row, c0..=c1);
    assert!(
        region.contains(&req),
        "access {req} outside the declared region {region} \
         (the task's directionality clause was dishonest)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(n: usize) -> Arc<RegionObject<Vec<i32>>> {
        Arc::new(RegionObject::new(ObjectId(1), (0..n as i32).collect()))
    }

    #[test]
    fn read_within_region() {
        let o = obj(10);
        let mut r = RegionReadBinding::new(o, Region::d1(2..=5));
        assert_eq!(r.slice(2, 5), &[2, 3, 4, 5]);
        assert_eq!(r.slice(3, 3), &[3]);
    }

    #[test]
    #[should_panic(expected = "outside the declared region")]
    fn read_outside_region_panics() {
        let o = obj(10);
        let mut r = RegionReadBinding::new(o, Region::d1(2..=5));
        let _ = r.slice(2, 6);
    }

    #[test]
    fn declared_mut_is_the_whole_declared_range() {
        let o = obj(10);
        let mut w = RegionWriteBinding::new(o.clone(), Region::d1(3..=5));
        w.declared_mut().fill(-1);
        drop(w);
        let mut r = RegionReadBinding::new(o, Region::d1(0..=9));
        assert_eq!(r.slice(2, 6), &[2, -1, -1, -1, 6]);
    }

    #[test]
    fn disjoint_writes_coexist() {
        let o = obj(10);
        let mut w1 = RegionWriteBinding::new(o.clone(), Region::d1(0..=4));
        let mut w2 = RegionWriteBinding::new(o.clone(), Region::d1(5..=9));
        w1.slice_mut(0, 4).fill(7);
        w2.slice_mut(5, 9).fill(8);
        drop((w1, w2));
        let mut r = RegionReadBinding::new(o, Region::d1(0..=9));
        assert_eq!(r.slice(0, 9), &[7, 7, 7, 7, 7, 8, 8, 8, 8, 8]);
    }

    #[test]
    #[should_panic(expected = "region invariant violated")]
    fn overlapping_writes_trip_validation() {
        let o = obj(10);
        let mut w1 = RegionWriteBinding::new(o.clone(), Region::d1(0..=5));
        let mut w2 = RegionWriteBinding::new(o, Region::d1(5..=9));
        let _ = w1.slice_mut(0, 5);
        let _ = w2.slice_mut(5, 9);
    }

    #[test]
    #[should_panic(expected = "region invariant violated")]
    fn write_overlapping_read_trips_validation() {
        let o = obj(10);
        let mut r = RegionReadBinding::new(o.clone(), Region::d1(0..=9));
        let _ = r.slice(0, 0);
        let mut w = RegionWriteBinding::new(o, Region::d1(3..=4));
        let _ = w.slice_mut(3, 4);
    }

    #[test]
    fn concurrent_reads_allowed() {
        let o = obj(10);
        let mut r1 = RegionReadBinding::new(o.clone(), Region::d1(0..=9));
        let mut r2 = RegionReadBinding::new(o, Region::d1(0..=9));
        assert_eq!(r1.slice(0, 1), r2.slice(0, 1));
    }

    #[test]
    fn drop_releases_window() {
        let o = obj(10);
        {
            let mut w = RegionWriteBinding::new(o.clone(), Region::d1(0..=9));
            let _ = w.slice_mut(0, 9);
        }
        let mut w2 = RegionWriteBinding::new(o, Region::d1(0..=9));
        let _ = w2.slice_mut(0, 9); // must not panic
    }

    #[test]
    #[should_panic(expected = "past end of buffer")]
    fn slice_past_buffer_end_panics() {
        let o = obj(4);
        let mut r = RegionReadBinding::new(o, Region::d1(0..=100));
        let _ = r.slice(0, 50);
    }

    #[test]
    fn box_slice_impl() {
        let data: Box<[u8]> = vec![1, 2, 3].into_boxed_slice();
        assert_eq!(data.region_len(), 3);
        let o = Arc::new(RegionObject::new(ObjectId(2), data));
        let mut r = RegionReadBinding::new(o, Region::d1(0..=2));
        assert_eq!(r.slice(0, 2), &[1, 2, 3]);
    }
}
