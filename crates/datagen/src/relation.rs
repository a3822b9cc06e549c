//! The relation container: a column-oriented table of `<rid, key>` pairs.
//!
//! Both input relations of the paper consist of two four-byte integer
//! attributes: the record ID and the key value.  They can be understood as
//! base relations of a column store, or as the `<key, rid>` extracts a
//! row store would feed into a join (Section 5.1).

/// Size of one `<rid, key>` tuple in bytes (two 4-byte integers).
pub const TUPLE_BYTES: usize = 8;

/// A column-oriented relation of `<rid, key>` tuples.
///
/// Keys and record IDs are stored as parallel `Vec<u32>` columns so that
/// per-step kernels can stream over exactly the attribute they need, as an
/// OpenCL kernel over a zero-copy buffer would.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Relation {
    keys: Vec<u32>,
    rids: Vec<u32>,
}

impl Relation {
    /// Creates an empty relation.
    pub fn new() -> Self {
        Relation::default()
    }

    /// Creates an empty relation with capacity for `n` tuples.
    pub fn with_capacity(n: usize) -> Self {
        Relation {
            keys: Vec::with_capacity(n),
            rids: Vec::with_capacity(n),
        }
    }

    /// Builds a relation from a key column; record IDs are assigned densely
    /// from 0.
    pub fn from_keys(keys: Vec<u32>) -> Self {
        let rids = (0..keys.len() as u32).collect();
        Relation { keys, rids }
    }

    /// Builds a relation from explicit columns.
    ///
    /// # Panics
    /// Panics if the columns have different lengths.
    pub fn from_columns(rids: Vec<u32>, keys: Vec<u32>) -> Self {
        assert_eq!(rids.len(), keys.len(), "column length mismatch");
        Relation { keys, rids }
    }

    /// Appends one tuple.
    #[inline]
    pub fn push(&mut self, rid: u32, key: u32) {
        self.rids.push(rid);
        self.keys.push(key);
    }

    /// Number of tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when the relation has no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Removes every tuple, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.rids.clear();
    }

    /// The key column.
    #[inline]
    pub fn keys(&self) -> &[u32] {
        &self.keys
    }

    /// The record-ID column.
    #[inline]
    pub fn rids(&self) -> &[u32] {
        &self.rids
    }

    /// The key of tuple `i`.
    #[inline]
    pub fn key(&self, i: usize) -> u32 {
        self.keys[i]
    }

    /// The record ID of tuple `i`.
    #[inline]
    pub fn rid(&self, i: usize) -> u32 {
        self.rids[i]
    }

    /// Total size of the relation in bytes (what it occupies in the
    /// zero-copy buffer).
    pub fn bytes(&self) -> usize {
        self.len() * TUPLE_BYTES
    }

    /// Iterates over `(rid, key)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.rids.iter().copied().zip(self.keys.iter().copied())
    }

    /// Returns a new relation containing the tuples at `range`.
    ///
    /// Used by the out-of-core join to carve chunks that fit the zero-copy
    /// buffer, and by schemes that split the input between devices.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Relation {
        Relation {
            keys: self.keys[range.clone()].to_vec(),
            rids: self.rids[range].to_vec(),
        }
    }

    /// Appends whole columns, each in one reservation when the iterators
    /// know their length (the bulk counterpart of [`push`](Self::push)).
    ///
    /// # Panics
    /// Panics if the columns have different lengths.
    pub fn extend_columns(
        &mut self,
        rids: impl IntoIterator<Item = u32>,
        keys: impl IntoIterator<Item = u32>,
    ) {
        self.rids.extend(rids);
        self.keys.extend(keys);
        assert_eq!(self.rids.len(), self.keys.len(), "column length mismatch");
    }

    /// Concatenates another relation onto this one.
    pub fn extend_from(&mut self, other: &Relation) {
        self.keys.extend_from_slice(&other.keys);
        self.rids.extend_from_slice(&other.rids);
    }
}

impl FromIterator<(u32, u32)> for Relation {
    fn from_iter<T: IntoIterator<Item = (u32, u32)>>(iter: T) -> Self {
        let mut rel = Relation::new();
        for (rid, key) in iter {
            rel.push(rid, key);
        }
        rel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_access() {
        let mut r = Relation::with_capacity(2);
        r.push(0, 42);
        r.push(1, 7);
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.key(0), 42);
        assert_eq!(r.rid(1), 1);
        assert_eq!(r.bytes(), 16);
        assert_eq!(r.keys(), &[42, 7]);
        assert_eq!(r.rids(), &[0, 1]);
    }

    #[test]
    fn from_keys_assigns_dense_rids() {
        let r = Relation::from_keys(vec![5, 6, 7]);
        assert_eq!(r.rids(), &[0, 1, 2]);
    }

    #[test]
    #[should_panic]
    fn from_columns_rejects_mismatched_lengths() {
        let _ = Relation::from_columns(vec![0], vec![1, 2]);
    }

    #[test]
    fn slice_and_extend_round_trip() {
        let r = Relation::from_keys((0..100).collect());
        let mut left = r.slice(0..40);
        let right = r.slice(40..100);
        left.extend_from(&right);
        assert_eq!(left, r);
    }

    #[test]
    fn iter_yields_pairs_in_order() {
        let r = Relation::from_columns(vec![10, 11], vec![1, 2]);
        let pairs: Vec<_> = r.iter().collect();
        assert_eq!(pairs, vec![(10, 1), (11, 2)]);
    }

    #[test]
    fn from_iterator_collects() {
        let r: Relation = vec![(3u32, 30u32), (4, 40)].into_iter().collect();
        assert_eq!(r.len(), 2);
        assert_eq!(r.key(1), 40);
    }
}
