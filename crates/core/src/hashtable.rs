//! The paper's hash-table layout: bucket headers → key lists → rid lists.
//!
//! Section 3.1: "A hash table consists of an array of bucket headers.  Each
//! bucket header contains two fields: total number of tuples within that
//! bucket and the pointer to a key list.  The key list contains all the
//! unique keys with the same hash value, each of which links a rid list
//! storing the IDs for all tuples with the same key."
//!
//! Nodes live in index-based arenas (`u32` indices with a NIL sentinel); each
//! node creation is accounted through the simulated
//! [`KernelAllocator`] so the latch overhead of
//! dynamic allocation (Figures 11 and 12) is charged faithfully.
//!
//! The build and probe phases do their table work in host passes over a
//! whole relation — `count_tuples`, `insert_tuples` and `probe_tuples` —
//! that resolve each tuple's chain once and prefetch ahead of it, as Chen,
//! Ailamaki, Gibbons and Mowry prefetch real hash joins ("Improving Hash
//! Join Performance through Prefetching", ICDE 2004).  They leave the
//! allocator alone and record what each tuple did, so the step kernels can
//! replay the allocations in the simulated order.  The per-tuple primitives
//! serve the merge and the coarse (one kernel per phase) joins.

use crate::prefetch;
use mem_alloc::KernelAllocator;
use std::ops::Range;

/// Tuples a host pass looks ahead: it prefetches a tuple's bucket header
/// `2 * PREFETCH_AHEAD` tuples before resolving it, and the head of its key
/// list `PREFETCH_AHEAD` tuples before.
const PREFETCH_AHEAD: usize = 16;

/// Sentinel index meaning "null pointer".
pub(crate) const NIL: u32 = u32::MAX;

/// Bytes occupied by one bucket header (count + key-list head).
pub(crate) const BUCKET_HEADER_BYTES: usize = 8;
/// Bytes occupied by one key-list node (key, rid-list head, next).
pub(crate) const KEY_NODE_BYTES: usize = 12;
/// Bytes occupied by one rid-list node (rid, next).
pub(crate) const RID_NODE_BYTES: usize = 8;

/// A bucket header: tuple count plus the head of the key list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BucketHeader {
    /// Number of tuples inserted into this bucket.
    pub count: u32,
    /// Index of the first key node, or [`NIL`].
    pub key_head: u32,
}

impl Default for BucketHeader {
    fn default() -> Self {
        BucketHeader {
            count: 0,
            key_head: NIL,
        }
    }
}

/// A node of a bucket's key list: one distinct key and its rid list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct KeyNode {
    /// The key value.
    pub key: u32,
    /// Index of the first rid node, or [`NIL`].
    pub rid_head: u32,
    /// Next key node in the bucket, or [`NIL`].
    pub next: u32,
    /// Rids in the rid list: kept on the host so a probe learns its output
    /// size without walking the list; not part of the simulated node
    /// ([`KEY_NODE_BYTES`]).
    pub rid_count: u32,
}

/// A node of a key's rid list: one build-tuple record ID.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RidNode {
    /// The record ID.
    pub rid: u32,
    /// Next rid node, or [`NIL`].
    pub next: u32,
}

/// Error returned when the pre-allocated arena backing the table is
/// exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TableFull;

impl std::fmt::Display for TableFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("hash-table arena exhausted")
    }
}

impl std::error::Error for TableFull {}

/// Statistics of merging one hash table into another (the *merge* overhead
/// of separate hash tables, Figure 3 / Figure 10).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct MergeStats {
    /// Key nodes moved.
    pub keys_moved: u64,
    /// Rid nodes moved.
    pub rids_moved: u64,
}

/// What `HashTable::insert_tuples` did for each build tuple, indexed by
/// the tuple's place in the insert order: the facts steps `b3` and `b4`
/// replay.
#[derive(Debug, Clone, Default)]
pub(crate) struct Inserted {
    /// The tuple's key node.
    pub(crate) key_node: Vec<u32>,
    /// Key nodes the tuple's `b3` visited, the created one included.
    pub(crate) visited: Vec<u32>,
    /// Whether the tuple created its key node.
    pub(crate) created: Vec<bool>,
}

impl Inserted {
    /// Room for the facts of `tuples` tuples.
    pub(crate) fn new(tuples: usize) -> Self {
        Inserted {
            key_node: vec![NIL; tuples],
            visited: vec![0; tuples],
            created: vec![false; tuples],
        }
    }
}

/// What `HashTable::probe_tuples` found for each probe tuple, indexed by
/// tuple: the facts steps `p2`–`p4` replay.
#[derive(Debug, Clone, Default)]
pub(crate) struct Probed {
    /// The tuple's bucket.
    pub(crate) bucket: Vec<u32>,
    /// The bucket's tuple count.
    pub(crate) bucket_count: Vec<u32>,
    /// The matching key node, or [`NIL`].
    pub(crate) key_node: Vec<u32>,
    /// Key nodes visited looking for the key.
    pub(crate) visited: Vec<u32>,
    /// Rids under the matching key node (0 without a match).
    pub(crate) rids: Vec<u32>,
}

/// The chained hash table of the paper.
#[derive(Debug, Clone)]
pub struct HashTable {
    buckets: Vec<BucketHeader>,
    key_nodes: Vec<KeyNode>,
    rid_nodes: Vec<RidNode>,
    /// Right-shift applied to the 32-bit hash to obtain the bucket index.
    ///
    /// Buckets are addressed by the *high* bits of the hash because the radix
    /// partitioning of PHJ consumes the low bits (Section 3.1); using the low
    /// bits again inside a partition would collapse every tuple of the
    /// partition into a handful of buckets.
    shift: u32,
    /// Synthetic base address used when feeding a cache simulator.
    base_addr: u64,
}

impl HashTable {
    /// Creates a table with at least `num_buckets` buckets (rounded up to a
    /// power of two).
    pub(crate) fn with_buckets(num_buckets: usize) -> Self {
        let n = num_buckets.max(1).next_power_of_two();
        HashTable {
            buckets: vec![BucketHeader::default(); n],
            key_nodes: Vec::new(),
            rid_nodes: Vec::new(),
            shift: 32 - n.trailing_zeros(),
            base_addr: 0x1000_0000,
        }
    }

    /// Creates a table sized for a build relation of `build_tuples` tuples
    /// (one bucket per expected tuple, as in the paper's implementation).
    pub fn for_build_size(build_tuples: usize) -> Self {
        Self::with_buckets(build_tuples.max(1))
    }

    /// Sets the synthetic base address used for cache simulation, returning
    /// `self` for chaining.
    pub(crate) fn with_base_addr(mut self, base: u64) -> Self {
        self.base_addr = base;
        self
    }

    /// Maps a hash value to its bucket index (high hash bits, disjoint from
    /// the low bits that radix partitioning consumes).
    #[inline]
    pub(crate) fn bucket_index(&self, hash: u32) -> usize {
        if self.shift >= 32 {
            0
        } else {
            (hash >> self.shift) as usize
        }
    }

    /// Step `b2` primitive: visits the bucket header, increments its tuple
    /// count, and returns the previous key-list head.
    #[inline]
    pub(crate) fn visit_bucket_for_build(&mut self, idx: usize) -> u32 {
        let b = &mut self.buckets[idx];
        b.count += 1;
        b.key_head
    }

    /// Step `b3` primitive: walks bucket `idx`'s key list looking for `key`,
    /// creating a new key node at the list head if absent.
    ///
    /// Returns `(key_node_index, created, nodes_visited)`; `nodes_visited`
    /// feeds the divergence accounting (skewed keys make long lists).
    pub(crate) fn find_or_create_key(
        &mut self,
        idx: usize,
        key: u32,
        alloc: &mut dyn KernelAllocator,
        group: usize,
    ) -> Result<(u32, bool, u32), TableFull> {
        let (found, visited) = self.find_key(idx, key);
        if let Some(node) = found {
            return Ok((node, false, visited));
        }
        alloc.alloc(group, KEY_NODE_BYTES).ok_or(TableFull)?;
        Ok((self.push_key(idx, key), true, visited + 1))
    }

    /// Creates a key node for `key` at the head of bucket `idx`'s list.
    fn push_key(&mut self, idx: usize, key: u32) -> u32 {
        let node = self.key_nodes.len() as u32;
        self.key_nodes.push(KeyNode {
            key,
            rid_head: NIL,
            next: self.buckets[idx].key_head,
            rid_count: 0,
        });
        self.buckets[idx].key_head = node;
        node
    }

    /// Step `p3` primitive: walks bucket `idx`'s key list looking for `key`.
    ///
    /// Returns `(matching key node if any, nodes_visited)`.
    pub(crate) fn find_key(&self, idx: usize, key: u32) -> (Option<u32>, u32) {
        let mut visited = 0u32;
        let mut cur = self.buckets[idx].key_head;
        while cur != NIL {
            visited += 1;
            let node = self.key_nodes[cur as usize];
            if node.key == key {
                return (Some(cur), visited);
            }
            cur = node.next;
        }
        (None, visited)
    }

    /// Step `b4` primitive: prepends `rid` to the rid list of `key_node`.
    pub(crate) fn insert_rid(
        &mut self,
        key_node: u32,
        rid: u32,
        alloc: &mut dyn KernelAllocator,
        group: usize,
    ) -> Result<(), TableFull> {
        alloc.alloc(group, RID_NODE_BYTES).ok_or(TableFull)?;
        self.push_rid(key_node, rid);
        Ok(())
    }

    fn push_rid(&mut self, key_node: u32, rid: u32) {
        let node = self.rid_nodes.len() as u32;
        let key = &mut self.key_nodes[key_node as usize];
        self.rid_nodes.push(RidNode {
            rid,
            next: key.rid_head,
        });
        key.rid_head = node;
        key.rid_count += 1;
    }

    /// Step `b2`'s table work for a run of build tuples: counts each tuple
    /// into its bucket `buckets[k]`.
    pub(crate) fn count_tuples(&mut self, buckets: &[u32]) {
        for (k, &idx) in buckets.iter().enumerate() {
            if let Some(&ahead) = buckets.get(k + PREFETCH_AHEAD) {
                prefetch(&self.buckets, ahead as usize);
            }
            self.buckets[idx as usize].count += 1;
        }
    }

    /// The tuple count of each bucket `buckets[k]`, into `out[k]`.
    pub(crate) fn counts_of(&self, buckets: &[u32], out: &mut [u32]) {
        for (k, &idx) in buckets.iter().enumerate() {
            if let Some(&ahead) = buckets.get(k + PREFETCH_AHEAD) {
                prefetch(&self.buckets, ahead as usize);
            }
            out[k] = self.buckets[idx as usize].count;
        }
    }

    /// Steps `b3` and `b4`'s table work: inserts tuple `i` of `(keys, rids)`
    /// into bucket `buckets[i]` for each `i` of `order` that lies in `own`,
    /// in that order — finding or creating its key node, then prepending
    /// its rid — and records what the insert at place `k` of `order` did at
    /// `out[k]`.
    ///
    /// The table ends exactly as the per-tuple primitives would leave it
    /// after all of `b3` and then all of `b4` in the same order: key nodes
    /// and rid nodes are numbered in `order`, and a key's rid list holds
    /// its rids newest first.  Nothing is allocated; the caller replays
    /// each created node's allocation.
    pub(crate) fn insert_tuples(
        &mut self,
        keys: &[u32],
        rids: &[u32],
        buckets: &[u32],
        order: &[u32],
        own: Range<usize>,
        out: &mut Inserted,
    ) {
        let bucket_at = |k: usize| {
            let i = *order.get(k)? as usize;
            own.contains(&i).then(|| buckets[i])
        };
        for (k, &i) in order.iter().enumerate() {
            let i = i as usize;
            if !own.contains(&i) {
                continue;
            }
            self.prefetch_for(
                bucket_at(k + 2 * PREFETCH_AHEAD),
                bucket_at(k + PREFETCH_AHEAD),
            );
            let idx = buckets[i] as usize;
            let key = keys[i];
            let (node, visited) = match self.find_key(idx, key) {
                (Some(node), visited) => (node, visited),
                (None, visited) => {
                    out.created[k] = true;
                    (self.push_key(idx, key), visited + 1)
                }
            };
            out.key_node[k] = node;
            out.visited[k] = visited;
            self.push_rid(node, rids[i]);
        }
    }

    /// Steps `p1`–`p4`'s table work: looks up every key of `keys`, in order,
    /// without walking any rid list.
    pub(crate) fn probe_tuples(&self, keys: &[u32]) -> Probed {
        let n = keys.len();
        let bucket: Vec<u32> = keys
            .iter()
            .map(|&key| self.bucket_index(crate::hash::hash_key(key)) as u32)
            .collect();
        let mut out = Probed {
            bucket_count: vec![0; n],
            key_node: vec![NIL; n],
            visited: vec![0; n],
            rids: vec![0; n],
            bucket: Vec::new(),
        };
        for (i, &key) in keys.iter().enumerate() {
            let ahead = |k: usize| bucket.get(k).copied();
            self.prefetch_for(ahead(i + 2 * PREFETCH_AHEAD), ahead(i + PREFETCH_AHEAD));
            let idx = bucket[i] as usize;
            out.bucket_count[i] = self.buckets[idx].count;
            let (found, visited) = self.find_key(idx, key);
            out.visited[i] = visited;
            if let Some(node) = found {
                out.key_node[i] = node;
                out.rids[i] = self.key_nodes[node as usize].rid_count;
            }
        }
        out.bucket = bucket;
        out
    }

    /// Prefetches bucket `far`'s header, and the head of bucket `near`'s
    /// key list (whose header an earlier call prefetched).
    #[inline]
    fn prefetch_for(&self, far: Option<u32>, near: Option<u32>) {
        if let Some(idx) = far {
            prefetch(&self.buckets, idx as usize);
        }
        if let Some(idx) = near {
            let head = self.buckets[idx as usize].key_head;
            if head != NIL {
                prefetch(&self.key_nodes, head as usize);
            }
        }
    }

    /// Step `p4` primitive: iterates the rids stored under `key_node`.
    pub(crate) fn rids_of(&self, key_node: u32) -> impl Iterator<Item = u32> + '_ {
        let mut cur = self.key_nodes[key_node as usize].rid_head;
        std::iter::from_fn(move || {
            if cur == NIL {
                None
            } else {
                let node = self.rid_nodes[cur as usize];
                cur = node.next;
                Some(node.rid)
            }
        })
    }

    /// Number of key nodes created so far.
    pub(crate) fn key_node_count(&self) -> usize {
        self.key_nodes.len()
    }

    /// Number of rid nodes created so far.
    pub(crate) fn rid_node_count(&self) -> usize {
        self.rid_nodes.len()
    }

    /// Total tuples inserted (sum of bucket counts).
    pub fn tuple_count(&self) -> u64 {
        self.buckets.iter().map(|b| b.count as u64).sum()
    }

    /// Bytes of the bucket-header array.
    pub(crate) fn bucket_array_bytes(&self) -> usize {
        self.buckets.len() * BUCKET_HEADER_BYTES
    }

    /// Total bytes of the table (headers plus nodes) — the probe-time working
    /// set used by the analytic cache model.
    pub(crate) fn total_bytes(&self) -> usize {
        self.bucket_array_bytes()
            + self.key_nodes.len() * KEY_NODE_BYTES
            + self.rid_nodes.len() * RID_NODE_BYTES
    }

    /// Synthetic address of bucket `idx` (for cache simulation).
    pub(crate) fn bucket_addr(&self, idx: usize) -> u64 {
        self.base_addr + (idx * BUCKET_HEADER_BYTES) as u64
    }

    /// Synthetic address of key node `idx` (for cache simulation).
    pub(crate) fn key_node_addr(&self, idx: u32) -> u64 {
        self.base_addr + self.bucket_array_bytes() as u64 + (idx as usize * KEY_NODE_BYTES) as u64
    }

    /// Synthetic address of rid node `idx` (for cache simulation).
    pub(crate) fn rid_node_addr(&self, idx: u32) -> u64 {
        self.base_addr
            + (self.bucket_array_bytes() + (64 << 20)) as u64
            + (idx as usize * RID_NODE_BYTES) as u64
    }

    /// Merges `other` into `self` (the merge step required by separate hash
    /// tables), re-inserting every `(key, rid)` pair.
    ///
    /// A key's pairs are re-inserted together: its bucket is counted once
    /// per pair, its key node found or created with the first, and every
    /// rid prepended to it — the table and the allocator requests of
    /// inserting the pairs one by one.
    pub(crate) fn merge_from(
        &mut self,
        other: &HashTable,
        alloc: &mut dyn KernelAllocator,
        group: usize,
    ) -> Result<MergeStats, TableFull> {
        let mut stats = MergeStats::default();
        for bucket in &other.buckets {
            let mut key_cur = bucket.key_head;
            while key_cur != NIL {
                let key_node = other.key_nodes[key_cur as usize];
                stats.keys_moved += 1;
                let rids = key_node.rid_count;
                if rids > 0 {
                    let idx = self.bucket_index(crate::hash::hash_key(key_node.key));
                    self.buckets[idx].count += rids;
                    let (node, _, _) = self.find_or_create_key(idx, key_node.key, alloc, group)?;
                    if alloc.alloc_many(group, RID_NODE_BYTES, rids as usize) < rids as usize {
                        return Err(TableFull);
                    }
                    for rid in other.rids_of(key_cur) {
                        self.push_rid(node, rid);
                    }
                    stats.rids_moved += u64::from(rids);
                }
                key_cur = key_node.next;
            }
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hash_key;
    use mem_alloc::BumpAllocator;

    fn alloc() -> BumpAllocator {
        BumpAllocator::new(1 << 20)
    }

    fn insert(table: &mut HashTable, alloc: &mut dyn KernelAllocator, key: u32, rid: u32) {
        let idx = table.bucket_index(hash_key(key));
        table.visit_bucket_for_build(idx);
        let (kn, _, _) = table.find_or_create_key(idx, key, alloc, 0).unwrap();
        table.insert_rid(kn, rid, alloc, 0).unwrap();
    }

    #[test]
    fn bucket_count_rounds_to_power_of_two() {
        assert_eq!(HashTable::with_buckets(1000).buckets.len(), 1024);
        assert_eq!(HashTable::for_build_size(3).buckets.len(), 4);
        assert_eq!(HashTable::with_buckets(0).buckets.len(), 1);
    }

    #[test]
    fn insert_and_probe_single_key() {
        let mut t = HashTable::for_build_size(16);
        let mut a = alloc();
        insert(&mut t, &mut a, 42, 7);
        let idx = t.bucket_index(hash_key(42));
        let (found, visited) = t.find_key(idx, 42);
        assert!(found.is_some());
        assert_eq!(visited, 1);
        let rids: Vec<_> = t.rids_of(found.unwrap()).collect();
        assert_eq!(rids, vec![7]);
        assert_eq!(t.tuple_count(), 1);
    }

    #[test]
    fn duplicate_keys_share_one_key_node() {
        let mut t = HashTable::for_build_size(16);
        let mut a = alloc();
        insert(&mut t, &mut a, 5, 100);
        insert(&mut t, &mut a, 5, 101);
        insert(&mut t, &mut a, 5, 102);
        assert_eq!(t.key_node_count(), 1);
        assert_eq!(t.rid_node_count(), 3);
        let idx = t.bucket_index(hash_key(5));
        let (kn, _) = t.find_key(idx, 5);
        let mut rids: Vec<_> = t.rids_of(kn.unwrap()).collect();
        rids.sort_unstable();
        assert_eq!(rids, vec![100, 101, 102]);
    }

    #[test]
    fn colliding_keys_chain_in_the_same_bucket() {
        // A single-bucket table forces every key into one chain.
        let mut t = HashTable::with_buckets(1);
        let mut a = alloc();
        for k in 0..20u32 {
            insert(&mut t, &mut a, k, k + 1000);
        }
        assert_eq!(t.key_node_count(), 20);
        let (found, visited) = t.find_key(0, 0);
        assert!(found.is_some());
        assert!((1..=20).contains(&visited));
        let (missing, visited_all) = t.find_key(0, 999);
        assert!(missing.is_none());
        assert_eq!(visited_all, 20);
    }

    #[test]
    fn probe_misses_on_absent_key() {
        let mut t = HashTable::for_build_size(8);
        let mut a = alloc();
        insert(&mut t, &mut a, 1, 1);
        let idx = t.bucket_index(hash_key(777));
        let (found, _) = t.find_key(idx, 777);
        assert!(found.is_none());
    }

    #[test]
    fn arena_exhaustion_reports_table_full() {
        let mut t = HashTable::for_build_size(8);
        let mut tiny = BumpAllocator::new(KEY_NODE_BYTES); // room for exactly one key node
        let idx = t.bucket_index(hash_key(1));
        t.visit_bucket_for_build(idx);
        let (kn, created, _) = t.find_or_create_key(idx, 1, &mut tiny, 0).unwrap();
        assert!(created);
        assert_eq!(t.insert_rid(kn, 9, &mut tiny, 0), Err(TableFull));
    }

    #[test]
    fn sizes_track_contents() {
        let mut t = HashTable::for_build_size(4);
        let mut a = alloc();
        insert(&mut t, &mut a, 1, 1);
        insert(&mut t, &mut a, 2, 2);
        assert_eq!(t.bucket_array_bytes(), 4 * BUCKET_HEADER_BYTES);
        assert_eq!(
            t.total_bytes(),
            4 * BUCKET_HEADER_BYTES + 2 * KEY_NODE_BYTES + 2 * RID_NODE_BYTES
        );
    }

    #[test]
    fn merge_moves_every_pair() {
        let mut a_table = HashTable::for_build_size(16);
        let mut b_table = HashTable::for_build_size(16);
        let mut a = alloc();
        insert(&mut a_table, &mut a, 1, 10);
        insert(&mut b_table, &mut a, 1, 11);
        insert(&mut b_table, &mut a, 2, 20);
        let stats = a_table.merge_from(&b_table, &mut a, 0).unwrap();
        assert_eq!(stats.rids_moved, 2);
        assert_eq!(a_table.tuple_count(), 3);
        let idx = a_table.bucket_index(hash_key(1));
        let (kn, _) = a_table.find_key(idx, 1);
        let mut rids: Vec<_> = a_table.rids_of(kn.unwrap()).collect();
        rids.sort_unstable();
        assert_eq!(rids, vec![10, 11]);
    }

    /// Keys with duplicates and collisions (a small table), inserted in a
    /// shuffled order.
    fn skewed_tuples(n: u32) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let keys: Vec<u32> = (0..n).map(|i| ((i * 7919) % (n / 3)) ^ (i % 5)).collect();
        let rids: Vec<u32> = (0..n).map(|i| i + 1000).collect();
        let mut order: Vec<u32> = (0..n).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, (i * 2_654_435_761) % (i + 1));
        }
        (keys, rids, order)
    }

    #[test]
    fn host_passes_build_the_table_the_per_tuple_steps_build() {
        let (keys, rids, order) = skewed_tuples(600);
        let mut a = alloc();
        let mut by_step = HashTable::with_buckets(64);
        let buckets: Vec<u32> = keys
            .iter()
            .map(|&k| by_step.bucket_index(hash_key(k)) as u32)
            .collect();
        for &b in &buckets {
            by_step.visit_bucket_for_build(b as usize);
        }
        let mut facts = Vec::new();
        for &i in &order {
            let i = i as usize;
            let kn = by_step.find_or_create_key(buckets[i] as usize, keys[i], &mut a, 0);
            facts.push(kn.unwrap());
        }
        for (k, &i) in order.iter().enumerate() {
            by_step
                .insert_rid(facts[k].0, rids[i as usize], &mut a, 0)
                .unwrap();
        }

        let mut by_pass = HashTable::with_buckets(64);
        by_pass.count_tuples(&buckets);
        let mut inserted = Inserted::new(keys.len());
        by_pass.insert_tuples(&keys, &rids, &buckets, &order, 0..keys.len(), &mut inserted);

        assert_eq!(by_step.buckets, by_pass.buckets);
        assert_eq!(by_step.key_nodes, by_pass.key_nodes);
        assert_eq!(by_step.rid_nodes, by_pass.rid_nodes);
        for (k, &(node, created, visited)) in facts.iter().enumerate() {
            assert_eq!(inserted.key_node[k], node);
            assert_eq!(inserted.created[k], created);
            assert_eq!(inserted.visited[k], visited);
        }

        let probes: Vec<u32> = (0..400).map(|i| i * 3 % 250).collect();
        let probed = by_pass.probe_tuples(&probes);
        for (i, &key) in probes.iter().enumerate() {
            let idx = by_pass.bucket_index(hash_key(key));
            let (found, visited) = by_pass.find_key(idx, key);
            assert_eq!(probed.bucket[i] as usize, idx);
            assert_eq!(probed.bucket_count[i], by_pass.buckets[idx].count);
            assert_eq!(probed.key_node[i], found.unwrap_or(NIL));
            assert_eq!(probed.visited[i], visited);
            let rids = found.map_or(0, |node| by_pass.rids_of(node).count());
            assert_eq!(probed.rids[i] as usize, rids);
        }
    }

    #[test]
    fn insert_tuples_leaves_other_tables_tuples_alone() {
        let (keys, rids, order) = skewed_tuples(300);
        let buckets = vec![0u32; keys.len()];
        let mut low = HashTable::with_buckets(1);
        let mut high = HashTable::with_buckets(1);
        let mut inserted = Inserted::new(keys.len());
        low.insert_tuples(&keys, &rids, &buckets, &order, 0..100, &mut inserted);
        high.insert_tuples(&keys, &rids, &buckets, &order, 100..300, &mut inserted);
        assert_eq!(low.rid_node_count(), 100);
        assert_eq!(high.rid_node_count(), 200);
        for (k, &i) in order.iter().enumerate() {
            let table = if i < 100 { &low } else { &high };
            let node = inserted.key_node[k];
            assert_eq!(table.key_nodes[node as usize].key, keys[i as usize]);
            assert!(table.rids_of(node).any(|rid| rid == rids[i as usize]));
        }
    }

    #[test]
    fn addresses_are_disjoint_between_regions() {
        let mut t = HashTable::for_build_size(8);
        let mut a = alloc();
        insert(&mut t, &mut a, 3, 30);
        let b_addr = t.bucket_addr(7);
        let k_addr = t.key_node_addr(0);
        let r_addr = t.rid_node_addr(0);
        assert!(k_addr > b_addr);
        assert!(r_addr > k_addr);
    }
}
