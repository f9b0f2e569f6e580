//! The array store: the memory the generated loops compute on.
//!
//! An array is normally a dense row-major slab over a box — an origin and
//! an extent per dimension — with one written flag per slot.  Boxes may
//! start at negative subscripts (the Cholesky kernel), and arrays are keyed
//! by name *and* rank, so `a[i]` and `a[i,j]` in one program stay distinct
//! arrays.  The executor sizes every box up front from the schedule's
//! write [`Footprint`]; writes through `&mut` outside a box grow it, so
//! stores built without a footprint (a replay of instances into
//! [`ArrayStore::new`]) need no sizing either.  A box is only laid out
//! while it holds at most 32 slots per element written (beyond a fixed
//! allowance): an affine program may write a hundred elements
//! `a(100000*I, 100000*J)` apart, and a slab over their box would not fit
//! in memory.  Such an array keeps its elements in an ordered map instead and
//! is laid out densely again once enough of its box is written.  Elements
//! that were never written read as a deterministic, index-dependent initial
//! value so that result comparison between the sequential and the parallel
//! execution is meaningful even for partially-initialised arrays.
//!
//! Slots are `AtomicU64`s holding `f64` bits: `&mut` access goes through
//! `get_mut`, shared access through relaxed loads and stores (a sparse
//! array's map through its lock).  That lets the trusted parallel path
//! write straight into one shared store without `unsafe`; an invalid
//! schedule there yields a wrong store (which the verification diff
//! catches), never undefined behaviour.

use rcp_intlin::IVec;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{PoisonError, RwLock};

/// The most slots a dense box may hold per element written into it, beyond
/// `DENSE_SLOTS_ALLOWANCE`.  A slot costs 9 bytes, so a dense array never
/// takes more than a few hundred bytes per written element — the order of
/// a map entry.
const DENSE_SLOTS_PER_ELEMENT: usize = 32;

/// Slots any array may hold densely however few of them are written.
const DENSE_SLOTS_ALLOWANCE: usize = 1 << 16;

/// True when a box of `extents` is small enough to lay out densely for
/// `elements` written elements (`per_element` slots each).
fn dense_enough(extents: &[usize], elements: usize, per_element: usize) -> bool {
    let limit = elements
        .saturating_mul(per_element)
        .saturating_add(DENSE_SLOTS_ALLOWANCE);
    box_slots(extents).is_some_and(|slots| slots <= limit)
}

/// The number of slots of a box, or `None` when it overflows `usize`.
fn box_slots(extents: &[usize]) -> Option<usize> {
    extents.iter().try_fold(1usize, |n, &e| n.checked_mul(e))
}

/// The extents of the box `lo ..= hi`, or `None` when one does not fit a
/// `usize`.
fn box_extents(lo: &[i64], hi: &[i64]) -> Option<Vec<usize>> {
    lo.iter()
        .zip(hi)
        .map(|(&l, &h)| usize::try_from(i128::from(h) - i128::from(l) + 1).ok())
        .collect()
}

/// A single multi-dimensional array of `f64`.
#[derive(Debug)]
pub struct Array {
    rank: usize,
    layout: Layout,
}

#[derive(Debug)]
enum Layout {
    Dense(Slab),
    /// The written elements of an array whose box is too sparse for a slab.
    Sparse(RwLock<BTreeMap<IVec, f64>>),
}

/// A row-major slab over the box `origin .. origin + extents`.
#[derive(Debug)]
struct Slab {
    origin: Vec<i64>,
    extents: Vec<usize>,
    values: Vec<AtomicU64>,
    written: Vec<AtomicBool>,
}

impl Slab {
    /// A slab of no written elements.  The caller checked that the box is
    /// [`dense_enough`], so its slot count fits.
    fn new(origin: Vec<i64>, extents: Vec<usize>) -> Self {
        let slots = extents.iter().product();
        Slab {
            origin,
            extents,
            values: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            written: (0..slots).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// The row-major slot of `index`, or `None` outside the box.
    fn slot(&self, index: &[i64]) -> Option<usize> {
        let mut slot = 0usize;
        for ((&x, &lo), &extent) in index.iter().zip(&self.origin).zip(&self.extents) {
            // Below the origin wraps to a huge offset, so one compare
            // rejects both sides of the box.
            let offset = x.wrapping_sub(lo) as u64;
            if offset >= extent as u64 {
                return None;
            }
            slot = slot * extent + offset as usize;
        }
        Some(slot)
    }

    /// The value of a written slot, or `None` when it was never written.
    fn written_value(&self, slot: usize) -> Option<f64> {
        self.written[slot]
            .load(Relaxed)
            .then(|| f64::from_bits(self.values[slot].load(Relaxed)))
    }

    fn put(&mut self, slot: usize, value: f64) {
        *self.values[slot].get_mut() = value.to_bits();
        *self.written[slot].get_mut() = true;
    }

    fn written_len(&self) -> usize {
        self.written.iter().filter(|w| w.load(Relaxed)).count()
    }

    /// Visits the written elements in lexicographic index order.
    fn for_each_written(&self, mut f: impl FnMut(&[i64], f64)) {
        let mut index = vec![0i64; self.origin.len()];
        for slot in 0..self.values.len() {
            if let Some(value) = self.written_value(slot) {
                // The subscripts of row-major `slot`.
                let mut rest = slot;
                for d in (0..index.len()).rev() {
                    index[d] = self.origin[d] + (rest % self.extents[d]) as i64;
                    rest /= self.extents[d];
                }
                f(&index, value);
            }
        }
    }
}

impl Array {
    /// An empty array of the given rank laid out over the box `lo ..= hi`,
    /// or kept sparse when that box is too large for `elements` elements.
    fn over_box(lo: &[i64], hi: &[i64], elements: usize) -> Self {
        let layout = match box_extents(lo, hi) {
            Some(extents) if dense_enough(&extents, elements, DENSE_SLOTS_PER_ELEMENT) => {
                Layout::Dense(Slab::new(lo.to_vec(), extents))
            }
            _ => Layout::Sparse(RwLock::default()),
        };
        Array {
            rank: lo.len(),
            layout,
        }
    }

    /// The number of subscripts of an element.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// True while the array is laid out as a dense slab rather than kept as
    /// a map of its written elements.
    pub fn is_dense(&self) -> bool {
        matches!(self.layout, Layout::Dense(_))
    }

    /// The value of `index`, or `None` when it was never written.
    fn written_at(&self, index: &[i64]) -> Option<f64> {
        if index.len() != self.rank {
            return None;
        }
        match &self.layout {
            Layout::Dense(slab) => slab.slot(index).and_then(|slot| slab.written_value(slot)),
            Layout::Sparse(map) => map
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .get(index)
                .copied(),
        }
    }

    /// Reads an element; unwritten elements return a deterministic initial
    /// value derived from the index (a stand-in for "whatever the program
    /// initialised the array with").
    pub fn get(&self, index: &[i64]) -> f64 {
        self.written_at(index)
            .unwrap_or_else(|| Self::initial_value(index))
    }

    /// Writes an element, growing the box when `index` lies outside it.
    ///
    /// # Panics
    /// Panics when `index` does not have the array's rank.
    pub fn set(&mut self, index: &[i64], value: f64) {
        assert_eq!(index.len(), self.rank, "subscript rank mismatch");
        match &mut self.layout {
            Layout::Dense(slab) => match slab.slot(index) {
                Some(slot) => slab.put(slot, value),
                None => {
                    // The grown array covers `index`, as a slab or a map.
                    self.grow_to(index);
                    self.set(index, value);
                }
            },
            Layout::Sparse(map) => {
                let map = map.get_mut().unwrap_or_else(PoisonError::into_inner);
                let added = map.insert(index.to_vec(), value).is_none();
                // Checking at every doubling keeps the check's walk
                // amortised constant per write.
                if added && map.len().is_power_of_two() {
                    self.densify_if_dense_enough();
                }
            }
        }
    }

    /// Writes an element through a shared reference; returns `false` (and
    /// writes nothing) when `index` lies outside a dense array's box.
    fn set_shared(&self, index: &[i64], value: f64) -> bool {
        match &self.layout {
            Layout::Dense(slab) => match slab.slot(index) {
                Some(slot) => {
                    slab.values[slot].store(value.to_bits(), Relaxed);
                    slab.written[slot].store(true, Relaxed);
                    true
                }
                None => false,
            },
            Layout::Sparse(map) => {
                map.write()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(index.to_vec(), value);
                true
            }
        }
    }

    /// Re-lays a dense array over a box that also covers `index`.  Only the
    /// dimensions `index` lies outside of grow, only towards `index`, with
    /// a quarter of the new extent as slack so a run of writes walking
    /// outwards re-lays geometrically rarely.  When the grown box would be
    /// too sparse, the array keeps its elements in a map instead.
    fn grow_to(&mut self, index: &[i64]) {
        let Layout::Dense(old) = &mut self.layout else {
            return;
        };
        let mut origin = old.origin.clone();
        let mut extents = Some(old.extents.clone());
        for (d, &x) in index.iter().enumerate() {
            let (lo, extent) = (i128::from(old.origin[d]), old.extents[d] as i128);
            let x = i128::from(x);
            let (need, below) = if x < lo {
                (lo + extent - x, true)
            } else if x >= lo + extent {
                (x - lo + 1, false)
            } else {
                continue;
            };
            let grown = need + need / 4;
            let start = if below { x - need / 4 } else { lo };
            match (i64::try_from(start), usize::try_from(grown), &mut extents) {
                (Ok(start), Ok(grown), Some(extents))
                    if i64::try_from(i128::from(start) + grown as i128 - 1).is_ok() =>
                {
                    origin[d] = start;
                    extents[d] = grown;
                }
                _ => extents = None,
            }
        }
        let written = old.written_len();
        let new = match extents {
            Some(extents) if dense_enough(&extents, written + 1, DENSE_SLOTS_PER_ELEMENT) => {
                let mut new = Slab::new(origin, extents);
                old.for_each_written(|at, value| {
                    if let Some(slot) = new.slot(at) {
                        new.put(slot, value);
                    }
                });
                Layout::Dense(new)
            }
            _ => {
                let mut map = BTreeMap::new();
                old.for_each_written(|at, value| {
                    map.insert(at.to_vec(), value);
                });
                Layout::Sparse(RwLock::new(map))
            }
        };
        self.layout = new;
    }

    /// Lays a sparse array out densely over the exact box of its elements
    /// once that box holds at most half the slots per element a dense array
    /// may grow to, so the slack of the next growth keeps it dense.
    fn densify_if_dense_enough(&mut self) {
        let Layout::Sparse(map) = &mut self.layout else {
            return;
        };
        let map = map.get_mut().unwrap_or_else(PoisonError::into_inner);
        let Some(first) = map.keys().next() else {
            return;
        };
        let (mut lo, mut hi) = (first.clone(), first.clone());
        for index in map.keys() {
            for ((&x, lo), hi) in index.iter().zip(&mut lo).zip(&mut hi) {
                *lo = (*lo).min(x);
                *hi = (*hi).max(x);
            }
        }
        let Some(extents) = box_extents(&lo, &hi) else {
            return;
        };
        if !dense_enough(&extents, map.len(), DENSE_SLOTS_PER_ELEMENT / 2) {
            return;
        }
        let mut slab = Slab::new(lo, extents);
        for (index, &value) in map.iter() {
            if let Some(slot) = slab.slot(index) {
                slab.put(slot, value);
            }
        }
        self.layout = Layout::Dense(slab);
    }

    /// Number of elements that have been written.
    pub fn written_len(&self) -> usize {
        match &self.layout {
            Layout::Dense(slab) => slab.written_len(),
            Layout::Sparse(map) => map.read().unwrap_or_else(PoisonError::into_inner).len(),
        }
    }

    /// The deterministic initial value of an element.
    pub fn initial_value(index: &[i64]) -> f64 {
        // A small, smooth, index-dependent value keeps kernels numerically
        // tame while making distinct elements distinguishable.
        let mut acc = 1.0f64;
        for (k, &x) in index.iter().enumerate() {
            acc += (x as f64) * 0.01 * (k as f64 + 1.0);
        }
        acc
    }

    /// Visits the written elements in lexicographic index order.
    pub fn for_each_written(&self, mut f: impl FnMut(&[i64], f64)) {
        match &self.layout {
            Layout::Dense(slab) => slab.for_each_written(f),
            Layout::Sparse(map) => {
                for (index, &value) in map.read().unwrap_or_else(PoisonError::into_inner).iter() {
                    f(index, value);
                }
            }
        }
    }
}

impl Clone for Array {
    fn clone(&self) -> Self {
        let layout = match &self.layout {
            Layout::Dense(slab) => Layout::Dense(Slab {
                origin: slab.origin.clone(),
                extents: slab.extents.clone(),
                values: slab
                    .values
                    .iter()
                    .map(|v| AtomicU64::new(v.load(Relaxed)))
                    .collect(),
                written: slab
                    .written
                    .iter()
                    .map(|w| AtomicBool::new(w.load(Relaxed)))
                    .collect(),
            }),
            Layout::Sparse(map) => Layout::Sparse(RwLock::new(
                map.read().unwrap_or_else(PoisonError::into_inner).clone(),
            )),
        };
        Array {
            rank: self.rank,
            layout,
        }
    }
}

/// Two arrays are equal when they wrote the same elements with equal
/// values; their layouts do not matter.
impl PartialEq for Array {
    fn eq(&self, other: &Self) -> bool {
        if self.rank != other.rank || self.written_len() != other.written_len() {
            return false;
        }
        let mut equal = true;
        self.for_each_written(|index, value| {
            equal &= other.written_at(index) == Some(value);
        });
        equal
    }
}

/// The bounding boxes of the elements a schedule writes, per array name and
/// rank, with the number of writes into each: what
/// [`ArrayStore::with_footprint`] sizes a store from.
///
/// It is also a [`StoreView`] that records writes and answers reads with
/// initial values, which is how the default [`crate::Kernel::footprint`]
/// observes a kernel.
#[derive(Clone, Debug, Default)]
pub struct Footprint {
    /// `(array, lowest, highest, writes)` per written array.
    boxes: Vec<(String, IVec, IVec, usize)>,
}

impl Footprint {
    /// An empty footprint.
    pub fn new() -> Self {
        Footprint::default()
    }

    /// Widens the footprint to cover a write of `array[index]`.
    pub fn include(&mut self, array: &str, index: &[i64]) {
        let found = self
            .boxes
            .iter_mut()
            .find(|(name, lo, _, _)| lo.len() == index.len() && name == array);
        match found {
            Some((_, lo, hi, writes)) => {
                for ((&x, lo), hi) in index.iter().zip(lo.iter_mut()).zip(hi.iter_mut()) {
                    *lo = (*lo).min(x);
                    *hi = (*hi).max(x);
                }
                *writes += 1;
            }
            None => self
                .boxes
                .push((array.to_string(), index.to_vec(), index.to_vec(), 1)),
        }
    }
}

impl StoreView for Footprint {
    fn read(&self, _array: &str, index: &[i64]) -> f64 {
        Array::initial_value(index)
    }
    fn write(&mut self, array: &str, index: &[i64], _value: f64) {
        self.include(array, index);
    }
}

/// A collection of arrays, keyed by name and rank.
///
/// The arrays live in a short vector searched by name, so an access to an
/// existing array hashes and allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct ArrayStore {
    arrays: Vec<(String, Array)>,
}

impl ArrayStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ArrayStore::default()
    }

    /// An empty store holding every array of `footprint`, so shared writes
    /// inside the footprint always land.  An array is laid out over exactly
    /// its box, unless the box is too sparse for the writes counted into it
    /// (over 32 slots per write, see the module docs); then it starts as
    /// a map.
    pub fn with_footprint(footprint: &Footprint) -> Self {
        let arrays = footprint
            .boxes
            .iter()
            .map(|(name, lo, hi, writes)| (name.clone(), Array::over_box(lo, hi, *writes)))
            .collect();
        ArrayStore { arrays }
    }

    /// The array `name` of the given rank, if the store holds one.
    pub fn array(&self, name: &str, rank: usize) -> Option<&Array> {
        self.arrays
            .iter()
            .find(|(n, a)| a.rank() == rank && n == name)
            .map(|(_, a)| a)
    }

    /// Reads `array[index]`.
    pub fn get(&self, array: &str, index: &[i64]) -> f64 {
        match self.array(array, index.len()) {
            Some(a) => a.get(index),
            None => Array::initial_value(index),
        }
    }

    /// Writes `array[index] = value`, creating or growing the array.
    pub fn set(&mut self, array: &str, index: &[i64], value: f64) {
        let found = self
            .arrays
            .iter_mut()
            .find(|(n, a)| a.rank() == index.len() && n == array);
        match found {
            Some((_, a)) => a.set(index, value),
            None => {
                let mut a = Array::over_box(index, index, 1);
                a.set(index, value);
                self.arrays.push((array.to_string(), a));
            }
        }
    }

    /// Writes `array[index] = value` through a shared reference; returns
    /// `false` (and writes nothing) when the store holds no such array or
    /// the element lies outside its dense box.  Concurrent writers of distinct elements never
    /// interfere; concurrent writers of one element leave one of the values.
    pub(crate) fn set_shared(&self, array: &str, index: &[i64], value: f64) -> bool {
        self.array(array, index.len())
            .is_some_and(|a| a.set_shared(index, value))
    }

    /// Total number of written elements across all arrays.
    pub fn written_len(&self) -> usize {
        self.arrays.iter().map(|(_, a)| a.written_len()).sum()
    }

    /// Compares two stores element-wise over the union of their written
    /// elements; returns the mismatching `(array, index, left, right)`
    /// tuples in lexicographic `(array, index)` order.  Two values match
    /// when they differ by at most `tolerance`.
    pub fn diff(&self, other: &ArrayStore, tolerance: f64) -> Vec<(String, IVec, f64, f64)> {
        let mut mismatches = Vec::new();
        let mut keys: Vec<(&str, usize)> = self
            .arrays
            .iter()
            .chain(&other.arrays)
            .map(|(name, a)| (name.as_str(), a.rank()))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        for (name, rank) in keys {
            let left = self.array(name, rank);
            let right = other.array(name, rank);
            let mut check = |index: &[i64], a: f64, b: f64| {
                if (a - b).abs() > tolerance {
                    mismatches.push((name.to_string(), index.to_vec(), a, b));
                }
            };
            if let Some(left) = left {
                left.for_each_written(|index, a| {
                    let b = right.map_or_else(|| Array::initial_value(index), |r| r.get(index));
                    check(index, a, b);
                });
            }
            if let Some(right) = right {
                right.for_each_written(|index, b| {
                    if left.and_then(|l| l.written_at(index)).is_none() {
                        check(index, Array::initial_value(index), b);
                    }
                });
            }
        }
        // Each array is walked in index order; the two passes and arrays
        // sharing a name at different ranks interleave, so order the
        // (usually empty) mismatch list once at the end.
        mismatches.sort_by(|x, y| (&x.0, &x.1).cmp(&(&y.0, &y.1)));
        mismatches
    }
}

/// Two stores are equal when they wrote the same elements with equal
/// values; array boxes and arrays with no written element do not matter.
impl PartialEq for ArrayStore {
    fn eq(&self, other: &Self) -> bool {
        let covered = |a: &ArrayStore, b: &ArrayStore| {
            a.arrays
                .iter()
                .all(|(name, array)| match b.array(name, array.rank()) {
                    Some(theirs) => array == theirs,
                    None => array.written_len() == 0,
                })
        };
        covered(self, other) && covered(other, self)
    }
}

/// A read/write view of the store used by kernels.  The plain store
/// implements it directly; the parallel executor supplies views that
/// buffer writes until the end of a phase or write into a shared store.
pub trait StoreView {
    /// Reads `array[index]`.
    fn read(&self, array: &str, index: &[i64]) -> f64;
    /// Writes `array[index] = value`.
    fn write(&mut self, array: &str, index: &[i64], value: f64);
}

impl StoreView for ArrayStore {
    fn read(&self, array: &str, index: &[i64]) -> f64 {
        self.get(array, index)
    }
    fn write(&mut self, array: &str, index: &[i64], value: f64) {
        self.set(array, index, value);
    }
}

/// A view that reads through to a frozen base store but keeps all writes in
/// a local overlay: used by the race-detecting executor for units executed
/// concurrently with others in the same phase.
///
/// The overlay is keyed per array so that the hot read path needs no
/// allocation (a `&str` array name and `&[i64]` index borrow straight into
/// the maps).
pub struct BufferedView<'a> {
    base: &'a ArrayStore,
    overlay: HashMap<String, HashMap<IVec, f64>>,
}

impl<'a> BufferedView<'a> {
    /// Creates a view over a frozen base store.
    pub fn new(base: &'a ArrayStore) -> Self {
        BufferedView {
            base,
            overlay: HashMap::new(),
        }
    }

    /// The buffered writes grouped by array, in insertion-independent
    /// (sorted) order.
    pub fn into_writes(self) -> Vec<(String, Vec<(IVec, f64)>)> {
        let mut writes: Vec<(String, Vec<(IVec, f64)>)> = self
            .overlay
            .into_iter()
            .map(|(array, elements)| {
                let mut elements: Vec<(IVec, f64)> = elements.into_iter().collect();
                elements.sort_by(|x, y| x.0.cmp(&y.0));
                (array, elements)
            })
            .collect();
        writes.sort_by(|x, y| x.0.cmp(&y.0));
        writes
    }

    /// Total number of buffered writes.
    pub fn n_writes(&self) -> usize {
        self.overlay.values().map(|m| m.len()).sum()
    }
}

impl StoreView for BufferedView<'_> {
    fn read(&self, array: &str, index: &[i64]) -> f64 {
        match self.overlay.get(array).and_then(|m| m.get(index)) {
            Some(&v) => v,
            None => self.base.get(array, index),
        }
    }
    fn write(&mut self, array: &str, index: &[i64], value: f64) {
        match self.overlay.get_mut(array) {
            Some(m) => {
                m.insert(index.to_vec(), value);
            }
            None => {
                let mut m = HashMap::new();
                m.insert(index.to_vec(), value);
                self.overlay.insert(array.to_string(), m);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_values_are_deterministic() {
        let s = ArrayStore::new();
        assert_eq!(s.get("a", &[3, 4]), s.get("a", &[3, 4]));
        assert_ne!(s.get("a", &[3, 4]), s.get("a", &[4, 3]));
        assert_eq!(s.get("a", &[3, 4]), s.get("b", &[3, 4])); // array-independent init
    }

    #[test]
    fn read_write_round_trip() {
        let mut s = ArrayStore::new();
        s.set("a", &[1, 2], 42.0);
        assert_eq!(s.get("a", &[1, 2]), 42.0);
        assert_ne!(s.get("a", &[2, 1]), 42.0);
        s.set("a", &[-3, 0], 7.0); // negative subscripts are fine
        assert_eq!(s.get("a", &[-3, 0]), 7.0);
        assert_eq!(s.written_len(), 2);
    }

    #[test]
    fn ranks_key_distinct_arrays() {
        let mut s = ArrayStore::new();
        s.set("a", &[1], 1.0);
        s.set("a", &[1, 0], 2.0);
        assert_eq!(s.get("a", &[1]), 1.0);
        assert_eq!(s.get("a", &[1, 0]), 2.0);
        assert_eq!(s.written_len(), 2);
        let d = s.diff(&ArrayStore::new(), 0.0);
        let indices: Vec<&IVec> = d.iter().map(|m| &m.1).collect();
        assert_eq!(
            indices,
            [&vec![1], &vec![1, 0]],
            "lexicographic across ranks"
        );
    }

    fn slab(a: &Array) -> &Slab {
        match &a.layout {
            Layout::Dense(slab) => slab,
            Layout::Sparse(_) => panic!("array is not dense"),
        }
    }

    #[test]
    fn growth_keeps_written_elements_and_stays_within_a_quarter_of_slack() {
        // Rows walk downwards from 0, columns upwards from -7.
        let mut a = Array::over_box(&[0, -7], &[0, -7], 1);
        for i in (-39..=0).rev() {
            for j in 0..10 {
                a.set(&[i, j * 3 - 7], (i * 100 + j) as f64);
            }
        }
        for i in -39..=0 {
            for j in 0..10 {
                assert_eq!(a.get(&[i, j * 3 - 7]), (i * 100 + j) as f64);
            }
        }
        assert_eq!(a.written_len(), 400);
        // Each dimension grew only towards its writes, by at most a quarter.
        let slab = slab(&a);
        assert_eq!(slab.origin[0] + slab.extents[0] as i64 - 1, 0);
        assert!(
            slab.extents[0] >= 40 && slab.extents[0] <= 50,
            "{:?}",
            slab.extents
        );
        assert_eq!(slab.origin[1], -7);
        assert!(
            slab.extents[1] >= 28 && slab.extents[1] <= 35,
            "{:?}",
            slab.extents
        );
    }

    #[test]
    fn far_apart_writes_keep_a_map_until_their_box_fills() {
        // a(100000*I, 100000*J), I, J in 1..=10: a hundred elements over a
        // box of about 1e12 slots.
        let mut a = Array::over_box(&[100_000, 100_000], &[100_000, 100_000], 1);
        for i in 1..=10 {
            for j in 1..=10 {
                a.set(&[100_000 * i, 100_000 * j], (i * 10 + j) as f64);
            }
        }
        assert!(!a.is_dense());
        assert_eq!(a.written_len(), 100);
        assert_eq!(a.get(&[200_000, 300_000]), 23.0);
        assert_eq!(a.get(&[1, 1]), Array::initial_value(&[1, 1]));
        let mut order = Vec::new();
        a.for_each_written(|index, _| order.push(index.to_vec()));
        assert!(order.windows(2).all(|w| w[0] < w[1]), "lexicographic");
        // Filling a dense region makes the array dense again, elements kept.
        let mut b = Array::over_box(&[0], &[0], 1);
        b.set(&[0], 1.5);
        b.set(&[1_000_000], 2.0);
        assert!(!b.is_dense());
        for x in 1..=100_000 {
            b.set(&[x], 3.0);
        }
        b.set(&[-5], 4.0);
        assert!(b.is_dense());
        assert_eq!(b.written_len(), 100_003);
        assert_eq!((b.get(&[0]), b.get(&[1_000_000])), (1.5, 2.0));
        assert_eq!((b.get(&[77]), b.get(&[-5])), (3.0, 4.0));
        // Subscripts at the ends of i64 have a box no usize can count.
        let mut c = Array::over_box(&[i64::MIN], &[i64::MIN], 1);
        c.set(&[i64::MIN], 1.0);
        c.set(&[i64::MAX], 2.0);
        assert_eq!((c.get(&[i64::MIN]), c.get(&[i64::MAX])), (1.0, 2.0));
    }

    #[test]
    fn sparse_footprints_start_as_maps_that_take_shared_writes() {
        let mut footprint = Footprint::new();
        for i in 1..=10 {
            footprint.include("a", &[100_000 * i]);
        }
        footprint.include("b", &[0]);
        footprint.include("b", &[99]);
        let store = ArrayStore::with_footprint(&footprint);
        assert!(!store.array("a", 1).unwrap().is_dense());
        assert!(store.array("b", 1).unwrap().is_dense());
        assert!(store.set_shared("a", &[300_000], 5.0));
        assert_eq!(store.get("a", &[300_000]), 5.0);
        assert_eq!(store.written_len(), 1);
        let mut grown = ArrayStore::new();
        grown.set("a", &[300_000], 5.0);
        assert_eq!(store, grown);
        assert!(store.diff(&grown, 0.0).is_empty());
    }

    #[test]
    fn footprint_sized_stores_accept_shared_writes_inside_the_box_only() {
        let mut footprint = Footprint::new();
        footprint.include("a", &[2, -1]);
        footprint.include("a", &[-2, 3]);
        let store = ArrayStore::with_footprint(&footprint);
        assert!(store.set_shared("a", &[0, 0], 5.0));
        assert!(!store.set_shared("a", &[3, 0], 5.0));
        assert!(!store.set_shared("b", &[0, 0], 5.0));
        assert_eq!(store.get("a", &[0, 0]), 5.0);
        assert_eq!(store.written_len(), 1);
    }

    #[test]
    fn equality_ignores_boxes() {
        let mut footprint = Footprint::new();
        footprint.include("x", &[-5]);
        footprint.include("x", &[5]);
        footprint.include("y", &[0, 0]);
        let mut sized = ArrayStore::with_footprint(&footprint);
        let mut grown = ArrayStore::new();
        sized.set("x", &[1], 1.0);
        grown.set("x", &[1], 1.0);
        assert_eq!(sized, grown);
        grown.set("x", &[2], 1.0);
        assert_ne!(sized, grown);
    }

    #[test]
    fn diff_detects_mismatches() {
        let mut a = ArrayStore::new();
        let mut b = ArrayStore::new();
        a.set("x", &[1], 1.0);
        b.set("x", &[1], 1.0);
        assert!(a.diff(&b, 1e-9).is_empty());
        b.set("x", &[2], 5.0);
        let d = a.diff(&b, 1e-9);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].1, vec![2]);
        // within tolerance
        let mut c = ArrayStore::new();
        c.set("x", &[1], 1.0 + 1e-12);
        assert!(a.diff(&c, 1e-9).is_empty());
    }

    #[test]
    fn buffered_view_semantics() {
        let mut base = ArrayStore::new();
        base.set("a", &[1], 10.0);
        let mut view = BufferedView::new(&base);
        // reads fall through
        assert_eq!(view.read("a", &[1]), 10.0);
        // writes are visible to later reads through the view…
        view.write("a", &[1], 20.0);
        view.write("a", &[2], 30.0);
        assert_eq!(view.read("a", &[1]), 20.0);
        // …but do not touch the base store
        assert_eq!(base.get("a", &[1]), 10.0);
        assert_eq!(view.n_writes(), 2);
        let writes = BufferedView::into_writes(view);
        assert_eq!(writes.len(), 1, "one array was written");
        assert_eq!(writes[0].1, vec![(vec![1], 20.0), (vec![2], 30.0)]);
    }
}
