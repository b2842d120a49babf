//! N-dimensional array regions (§V.A of the paper).
//!
//! > "Given an N-dimensional array A with dimensions d1..dN, we define an
//! > array region R from A as a list of pairs {p1..pN} such that each pair
//! > pj = (lj, uj) specifies a lower bound lj and an upper bound uj on the
//! > corresponding dimension j" — bounds are **inclusive**.
//!
//! The paper's three specifier forms map to [`RegionBound`] constructors:
//!
//! | paper    | meaning              | Rust                                   |
//! |----------|----------------------|----------------------------------------|
//! | `{l..u}` | bounds, inclusive    | `(l..=u).into()`                       |
//! | `{l:L}`  | lower bound + length | `RegionBound::at(l, len)`              |
//! | `{}`     | whole dimension      | `(..).into()` / `RegionBound::full()`  |
//!
//! `l..u` (exclusive upper) Rust ranges are also accepted for convenience.

use std::fmt;
use std::ops::{Range, RangeFull, RangeInclusive};

/// Bounds for one dimension of a region. Inclusive on both ends; `Full`
/// means the whole dimension (the paper's empty specifier `{}`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RegionBound {
    /// `lower..=upper`, inclusive.
    Bounds(usize, usize),
    /// The entire dimension.
    Full,
}

impl RegionBound {
    /// The paper's `{l:L}` form: lower bound and length.
    pub fn at(lower: usize, len: usize) -> Self {
        assert!(len > 0, "region length must be positive");
        RegionBound::Bounds(lower, lower + len - 1)
    }

    /// The paper's `{}` form.
    pub fn full() -> Self {
        RegionBound::Full
    }

    /// Do two bounds share at least one index?
    pub fn overlaps(self, other: RegionBound) -> bool {
        match (self, other) {
            (RegionBound::Full, _) | (_, RegionBound::Full) => true,
            (RegionBound::Bounds(l1, u1), RegionBound::Bounds(l2, u2)) => l1 <= u2 && l2 <= u1,
        }
    }

    /// Is `other` fully inside `self`?
    pub fn contains(self, other: RegionBound) -> bool {
        match (self, other) {
            (RegionBound::Full, _) => true,
            (RegionBound::Bounds(..), RegionBound::Full) => false,
            (RegionBound::Bounds(l1, u1), RegionBound::Bounds(l2, u2)) => l1 <= l2 && u2 <= u1,
        }
    }

    /// Number of indices, if bounded.
    pub fn len(self) -> Option<usize> {
        match self {
            RegionBound::Full => None,
            RegionBound::Bounds(l, u) => Some(u - l + 1),
        }
    }

    pub fn is_empty(self) -> bool {
        false // bounds are validated non-empty on construction
    }
}

impl From<RangeInclusive<usize>> for RegionBound {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty region bound {r:?}");
        RegionBound::Bounds(*r.start(), *r.end())
    }
}

impl From<Range<usize>> for RegionBound {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty region bound {r:?}");
        RegionBound::Bounds(r.start, r.end - 1)
    }
}

impl From<RangeFull> for RegionBound {
    fn from(_: RangeFull) -> Self {
        RegionBound::Full
    }
}

impl fmt::Display for RegionBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionBound::Bounds(l, u) => write!(f, "{{{l}..{u}}}"),
            RegionBound::Full => write!(f, "{{}}"),
        }
    }
}

/// An N-dimensional region: one [`RegionBound`] per dimension, interpreted
/// "in the same order as the dimension specifiers" (§V.A).
///
/// A region is a plain value: up to two dimensions (every region the
/// paper's kernels declare) are stored inline, so building, cloning and
/// comparing one never allocates. Three or more spill to the heap.
#[derive(Clone)]
pub struct Region {
    dims: Dims,
}

/// The bounds of a [`Region`]; [`Region::dims`] is the one view of them,
/// so a region's identity never depends on which variant holds it.
#[derive(Clone)]
enum Dims {
    One(RegionBound),
    Two([RegionBound; 2]),
    /// Three or more dimensions.
    Many(Box<[RegionBound]>),
}

impl Region {
    pub fn new(dims: Vec<RegionBound>) -> Self {
        match *dims {
            [d] => Region::d1(d),
            [r, c] => Region::d2(r, c),
            _ => Region::spilled(dims.into_boxed_slice()),
        }
    }

    fn spilled(dims: Box<[RegionBound]>) -> Self {
        assert!(!dims.is_empty(), "a region needs at least one dimension");
        Region {
            dims: Dims::Many(dims),
        }
    }

    /// 1-D region over an inclusive index range.
    pub fn d1(bound: impl Into<RegionBound>) -> Self {
        Region {
            dims: Dims::One(bound.into()),
        }
    }

    /// 2-D region (rows, cols).
    pub fn d2(rows: impl Into<RegionBound>, cols: impl Into<RegionBound>) -> Self {
        Region {
            dims: Dims::Two([rows.into(), cols.into()]),
        }
    }

    /// Region covering everything, any dimensionality.
    pub fn all() -> Self {
        Region::d1(RegionBound::Full)
    }

    pub fn ndims(&self) -> usize {
        self.dims().len()
    }

    pub fn dims(&self) -> &[RegionBound] {
        match &self.dims {
            Dims::One(d) => std::slice::from_ref(d),
            Dims::Two(ds) => ds,
            Dims::Many(ds) => ds,
        }
    }

    /// Two regions overlap iff they overlap in **every** dimension.
    /// Regions of different arity are compared conservatively: missing
    /// dimensions are treated as full (so `Region::all()` overlaps
    /// anything).
    pub fn overlaps(&self, other: &Region) -> bool {
        let (a, b) = (self.dims(), other.dims());
        (0..a.len().max(b.len())).all(|i| {
            let x = a.get(i).copied().unwrap_or(RegionBound::Full);
            let y = b.get(i).copied().unwrap_or(RegionBound::Full);
            x.overlaps(y)
        })
    }

    /// Is `other` contained in `self` in every dimension?
    pub fn contains(&self, other: &Region) -> bool {
        let (a, b) = (self.dims(), other.dims());
        (0..a.len().max(b.len())).all(|i| {
            let x = a.get(i).copied().unwrap_or(RegionBound::Full);
            let y = b.get(i).copied().unwrap_or(RegionBound::Full);
            x.contains(y)
        })
    }

    /// Total element count, if every dimension is bounded.
    pub fn volume(&self) -> Option<usize> {
        self.dims()
            .iter()
            .try_fold(1usize, |acc, d| d.len().map(|l| acc.saturating_mul(l)))
    }
}

/// The array form `region!` expands to: built in place, no allocation
/// up to two dimensions.
impl<const N: usize> From<[RegionBound; N]> for Region {
    fn from(dims: [RegionBound; N]) -> Self {
        match dims.as_slice() {
            &[d] => Region::d1(d),
            &[r, c] => Region::d2(r, c),
            ds => Region::spilled(ds.into()),
        }
    }
}

impl PartialEq for Region {
    fn eq(&self, other: &Region) -> bool {
        self.dims() == other.dims()
    }
}

impl Eq for Region {}

impl std::hash::Hash for Region {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.dims().hash(state);
    }
}

impl fmt::Debug for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Region")
            .field("dims", &self.dims())
            .finish()
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in self.dims() {
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

/// Build a [`Region`] from per-dimension range expressions, mirroring the
/// paper's specifier list. The bounds are collected into an array, so a
/// region of up to two dimensions is built in place.
///
/// ```
/// use smpss::{region, Region, RegionBound};
/// let r = region![0..=9, .., 4..8];
/// assert_eq!(r.ndims(), 3);
/// assert_eq!(r.dims()[0], RegionBound::Bounds(0, 9));
/// assert_eq!(r.dims()[1], RegionBound::Full);
/// assert_eq!(r.dims()[2], RegionBound::Bounds(4, 7));
/// ```
#[macro_export]
macro_rules! region {
    ($($bound:expr),+ $(,)?) => {
        $crate::Region::from([$($crate::RegionBound::from($bound)),+])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_constructors() {
        assert_eq!(RegionBound::from(2..=5), RegionBound::Bounds(2, 5));
        assert_eq!(RegionBound::from(2..5), RegionBound::Bounds(2, 4));
        assert_eq!(RegionBound::from(..), RegionBound::Full);
        assert_eq!(RegionBound::at(3, 4), RegionBound::Bounds(3, 6));
    }

    #[test]
    #[should_panic(expected = "empty region bound")]
    fn empty_range_rejected() {
        let _ = RegionBound::from(5..5);
    }

    #[test]
    fn bound_overlap() {
        let a = RegionBound::Bounds(0, 4);
        let b = RegionBound::Bounds(4, 8);
        let c = RegionBound::Bounds(5, 8);
        assert!(a.overlaps(b)); // inclusive bounds share index 4
        assert!(!a.overlaps(c));
        assert!(RegionBound::Full.overlaps(c));
        assert!(c.overlaps(RegionBound::Full));
    }

    #[test]
    fn bound_contains() {
        let a = RegionBound::Bounds(0, 9);
        assert!(a.contains(RegionBound::Bounds(3, 7)));
        assert!(!a.contains(RegionBound::Bounds(3, 10)));
        assert!(RegionBound::Full.contains(a));
        assert!(!a.contains(RegionBound::Full));
    }

    #[test]
    fn region_overlap_requires_all_dims() {
        // Two 2-D regions that overlap in rows but not in columns: disjoint.
        let a = Region::d2(0..=3, 0..=3);
        let b = Region::d2(2..=5, 4..=7);
        assert!(!a.overlaps(&b));
        let c = Region::d2(2..=5, 3..=7);
        assert!(a.overlaps(&c));
    }

    #[test]
    fn mixed_arity_is_conservative() {
        let whole = Region::all();
        let part = Region::d2(0..=1, 0..=1);
        assert!(whole.overlaps(&part));
        assert!(part.overlaps(&whole));
        assert!(whole.contains(&part));
        assert!(!part.contains(&whole));
    }

    #[test]
    fn volume() {
        assert_eq!(Region::d2(0..=3, 0..=4).volume(), Some(20));
        assert_eq!(Region::all().volume(), None);
        assert_eq!(region![1..=1].volume(), Some(1));
    }

    #[test]
    fn display_matches_paper_flavour() {
        assert_eq!(format!("{}", region![2..=5, ..]), "{2..5}{}");
    }

    fn hash_of(r: &Region) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        r.hash(&mut h);
        h.finish()
    }

    #[test]
    fn inline_and_vec_built_regions_are_one_value() {
        use RegionBound::{Bounds, Full};
        let pairs = [
            (region![3..=9], Region::new(vec![Bounds(3, 9)])),
            (region![2..=5, ..], Region::new(vec![Bounds(2, 5), Full])),
            (
                Region::d2(0..=1, 4..8),
                Region::new(vec![Bounds(0, 1), Bounds(4, 7)]),
            ),
            (
                region![0..=1, .., 4..8],
                Region::new(vec![Bounds(0, 1), Full, Bounds(4, 7)]),
            ),
        ];
        for (a, b) in pairs {
            assert_eq!(a, b);
            assert_eq!(hash_of(&a), hash_of(&b), "{a}");
            assert_eq!(a.clone(), b);
        }
        assert_ne!(region![0..=1], region![0..=1, ..]);
    }

    #[test]
    fn spilled_regions_overlap_and_contain() {
        let a = region![0..=3, 0..=3, 0..=3];
        assert_eq!(a.ndims(), 3);
        // Disjoint in the last dimension only.
        assert!(!a.overlaps(&region![2..=5, 2..=5, 4..=7]));
        let b = region![2..=5, 2..=5, 3..=7];
        assert!(a.overlaps(&b) && b.overlaps(&a));
        assert!(region![0..=9, .., 0..=9].contains(&a));
        assert!(!a.contains(&b));
        // Against inline regions, missing dimensions are whole.
        assert!(Region::d2(0..=1, 0..=1).overlaps(&a));
        assert!(Region::d2(0..=3, 0..=3).contains(&a));
        assert!(!a.contains(&Region::d2(0..=3, 0..=3)));
        assert_eq!(a.volume(), Some(64));
    }

    #[test]
    fn spilled_regions_go_through_region_deps() {
        use crate::graph::record::EdgeKind;
        use crate::ids::TaskId;
        let rt = crate::Runtime::builder()
            .threads(1)
            .record_graph(true)
            .build();
        let data = rt.region_data(vec![0u8; 64]);
        let accesses = [
            (region![0..=3, 0..=3, 0..=3], true),
            (region![2..=5, 2..=5, 3..=7], false),
            (region![0..=3, 0..=3, 4..=7], false),
            (region![.., .., 3..=3], true),
        ];
        for (r, write) in accesses {
            let mut sp = rt.task("cube");
            if write {
                let w = sp.write_region(&data, r);
                sp.submit(move || drop(w));
            } else {
                let rd = sp.read_region(&data, r);
                sp.submit(move || drop(rd));
            }
        }
        rt.barrier();
        let mut edges = rt.graph().unwrap().edges().to_vec();
        edges.sort_by_key(|&(a, b, _)| (a, b));
        let t = TaskId;
        assert_eq!(
            edges,
            [
                (t(1), t(2), EdgeKind::True),
                (t(1), t(4), EdgeKind::Output),
                (t(2), t(4), EdgeKind::Anti),
            ]
        );
    }

    #[test]
    fn mergesort_quarters_are_disjoint() {
        // The Figure 7 decomposition: four quarters of [0, 4q).
        let q = 256;
        let quarters: Vec<Region> = (0..4)
            .map(|k| Region::d1(k * q..=(k + 1) * q - 1))
            .collect();
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(quarters[i].overlaps(&quarters[j]), i == j);
            }
        }
        // The first merge reads quarters 0 and 1 and writes {i1..j2} of tmp,
        // which overlaps both inputs' index space.
        let merge_out = Region::d1(0..=2 * q - 1);
        assert!(merge_out.overlaps(&quarters[0]));
        assert!(merge_out.overlaps(&quarters[1]));
        assert!(!merge_out.overlaps(&quarters[2]));
    }
}
