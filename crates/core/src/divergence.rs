//! Grouping-based workload-divergence reduction (Section 3.3).
//!
//! Work items of a wavefront run in lock-step, so a wavefront mixing light
//! and heavy tuples (short and long key lists) costs as much as its heaviest
//! tuple.  The paper adopts the grouping approach of He & Yu: order the input
//! by estimated workload so that tuples with similar work land in the same
//! wavefront.  The number of groups trades grouping overhead against the
//! divergence saved; the paper reports a 5–10 % overall gain.

/// Computes a processing order that groups items with similar workload.
///
/// `work[i]` is the estimated work of item `i` (e.g. the key-list length of
/// its bucket); `num_groups` is the number of workload classes (items are
/// bucketed by `min(work, num_groups - 1)`).  Returns a permutation of item
/// indices; applying it before a divergence-sensitive step reduces the
/// wavefront max/mean ratio.
pub(crate) fn grouping_order(work: &[u32], num_groups: usize) -> Vec<u32> {
    let num_groups = num_groups.max(1);
    let mut counts = vec![0usize; num_groups];
    for &w in work {
        counts[(w as usize).min(num_groups - 1)] += 1;
    }
    // Exclusive prefix sum -> starting offset of each group.
    let mut offsets = vec![0usize; num_groups];
    let mut acc = 0;
    for (g, &c) in counts.iter().enumerate() {
        offsets[g] = acc;
        acc += c;
    }
    let mut order = vec![0u32; work.len()];
    for (i, &w) in work.iter().enumerate() {
        let g = (w as usize).min(num_groups - 1);
        order[offsets[g]] = i as u32;
        offsets[g] += 1;
    }
    order
}

/// Default number of workload groups used by the join executor.
pub(crate) const DEFAULT_GROUPS: usize = 32;

#[cfg(test)]
mod tests {
    use super::*;
    use apu_sim::divergence_factor;

    #[test]
    fn order_is_a_permutation() {
        let work = vec![3, 1, 4, 1, 5, 9, 2, 6];
        let mut order = grouping_order(&work, 4);
        order.sort_unstable();
        assert_eq!(order, (0..work.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn grouping_reduces_divergence() {
        // Alternate light and heavy items, the worst case for a wavefront.
        let work: Vec<u32> = (0..4096).map(|i| if i % 2 == 0 { 1 } else { 40 }).collect();
        let before = divergence_factor(&work, 64);
        let order = grouping_order(&work, DEFAULT_GROUPS);
        let reordered: Vec<u32> = order.iter().map(|&i| work[i as usize]).collect();
        let after = divergence_factor(&reordered, 64);
        assert!(
            after < before * 0.7,
            "grouping should cut divergence substantially: before {before:.2}, after {after:.2}"
        );
    }

    #[test]
    fn grouped_items_are_sorted_by_class() {
        let work = vec![9, 0, 9, 0, 9, 0];
        let order = grouping_order(&work, 16);
        let reordered: Vec<u32> = order.iter().map(|&i| work[i as usize]).collect();
        assert_eq!(reordered, vec![0, 0, 0, 9, 9, 9]);
    }

    #[test]
    fn single_group_keeps_original_order() {
        let work = vec![5, 2, 7];
        assert_eq!(grouping_order(&work, 1), vec![0, 1, 2]);
    }

    #[test]
    fn empty_input_is_fine() {
        assert!(grouping_order(&[], 8).is_empty());
    }
}
