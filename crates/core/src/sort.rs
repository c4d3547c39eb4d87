//! Sorting and top-n kernels (order-by / limit fusion).

use crate::rows::cmp_cells;
use monetlite_storage::Bat;
use std::cmp::Ordering;

/// Stable multi-key sort: returns the permutation of row ids ordering the
/// key columns (NULLs first ascending, last descending — MonetDB
/// semantics fall out of treating NULL as the smallest value).
pub fn sort_perm(keys: &[(&Bat, bool)], rows: usize) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..rows as u32).collect();
    perm.sort_by(|&a, &b| cmp_rows(keys, a as usize, b as usize));
    perm
}

/// Top-n: the first `n` rows of the sorted permutation, computed with a
/// partial sort (select_nth + sort of the prefix) so large inputs don't
/// pay a full sort.
///
/// Ties are broken by input row id, making the result a total order and
/// therefore exactly the prefix of the stable [`sort_perm`]. The
/// pipeline engine relies on this: per-morsel top-n compaction followed
/// by a top-n over the packed survivors yields the same rows as a
/// single-pass top-n, even when sort keys tie at the cut-off.
pub fn topn_perm(keys: &[(&Bat, bool)], rows: usize, n: usize) -> Vec<u32> {
    let total = |a: &u32, b: &u32| cmp_rows(keys, *a as usize, *b as usize).then_with(|| a.cmp(b));
    let mut perm: Vec<u32> = (0..rows as u32).collect();
    if n >= rows {
        perm.sort_by(total);
        return perm;
    }
    if n == 0 {
        return Vec::new();
    }
    perm.select_nth_unstable_by(n - 1, |a, b| total(a, b));
    perm.truncate(n);
    perm.sort_by(total);
    perm
}

#[inline]
fn cmp_rows(keys: &[(&Bat, bool)], a: usize, b: usize) -> Ordering {
    for (col, desc) in keys {
        let ord = cmp_cells(col, a, col, b);
        let ord = if *desc { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use monetlite_types::nulls::NULL_I32;
    use monetlite_types::ColumnBuffer;
    use proptest::prelude::*;

    #[test]
    fn single_key_ascending() {
        let k = Bat::Int(vec![3, 1, 2]);
        assert_eq!(sort_perm(&[(&k, false)], 3), vec![1, 2, 0]);
    }

    #[test]
    fn descending_and_nulls() {
        let k = Bat::Int(vec![3, NULL_I32, 2]);
        // Ascending: NULL first.
        assert_eq!(sort_perm(&[(&k, false)], 3), vec![1, 2, 0]);
        // Descending: NULL last (reverse of smallest).
        assert_eq!(sort_perm(&[(&k, true)], 3), vec![0, 2, 1]);
    }

    #[test]
    fn multi_key_tie_break() {
        let k1 = Bat::Int(vec![1, 1, 0]);
        let k2 = Bat::Int(vec![5, 3, 9]);
        assert_eq!(sort_perm(&[(&k1, false), (&k2, false)], 3), vec![2, 1, 0]);
        assert_eq!(sort_perm(&[(&k1, false), (&k2, true)], 3), vec![2, 0, 1]);
    }

    #[test]
    fn stability_on_equal_keys() {
        let k = Bat::Int(vec![7, 7, 7]);
        assert_eq!(sort_perm(&[(&k, false)], 3), vec![0, 1, 2]);
    }

    #[test]
    fn string_sort() {
        let k = Bat::from_buffer(&ColumnBuffer::Varchar(vec![
            Some("pear".into()),
            Some("apple".into()),
            None,
        ]));
        assert_eq!(sort_perm(&[(&k, false)], 3), vec![2, 1, 0]);
    }

    #[test]
    fn topn_prefix_of_sort() {
        let k = Bat::Int(vec![9, 1, 8, 2, 7, 3]);
        let full = sort_perm(&[(&k, false)], 6);
        let top3 = topn_perm(&[(&k, false)], 6, 3);
        assert_eq!(top3, full[..3]);
        assert_eq!(topn_perm(&[(&k, false)], 6, 0), Vec::<u32>::new());
        assert_eq!(topn_perm(&[(&k, false)], 6, 100), full);
    }

    proptest! {
        #[test]
        fn prop_sort_is_ordered(v in proptest::collection::vec(-100i32..100, 0..80)) {
            let k = Bat::Int(v.clone());
            let perm = sort_perm(&[(&k, false)], v.len());
            let sorted: Vec<i32> = perm.iter().map(|&i| v[i as usize]).collect();
            prop_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
            prop_assert_eq!(perm.len(), v.len());
        }

        #[test]
        fn prop_topn_matches_sort_prefix(v in proptest::collection::vec(-100i32..100, 1..80), n in 0usize..20) {
            let k = Bat::Int(v.clone());
            let full = sort_perm(&[(&k, false)], v.len());
            let top = topn_perm(&[(&k, false)], v.len(), n);
            let a: Vec<i32> = full.iter().take(n).map(|&i| v[i as usize]).collect();
            let b: Vec<i32> = top.iter().map(|&i| v[i as usize]).collect();
            // Values must match (row ids may differ on ties).
            prop_assert_eq!(a, b);
        }
    }
}
