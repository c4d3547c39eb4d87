//! Sorted per-column string dictionaries: dense integer codes for VARCHAR.
//!
//! A [`StrDict`] maps every row of a VARCHAR column to a `u32` code into a
//! *sorted* table of the column's distinct values. Sorting makes the code
//! domain order-preserving under the same byte-wise `str` ordering the
//! comparison kernels use, so:
//!
//! * equality and range predicates against a string literal become integer
//!   range checks over codes (`kernels::cmp_const` agrees row-for-row);
//! * any other filter over the column alone (IN lists, `<>`, LIKE, OR/NOT
//!   trees, functions of the column) evaluates once per *distinct value*
//!   ([`StrDict::values`]) instead of once per row, into a bitmask over the
//!   (small) dictionary domain — LIKE prefixes reduce to a code range;
//! * the codes are the VARCHAR column's zonemap keys
//!   ([`Zonemap::of_codes`](crate::index::Zonemap::of_codes)): per-zone
//!   min/max codes skip morsels for any dictionary-served predicate, as
//!   a fixed-width column's zonemap does for a range.
//!
//! Like the other column caches the dictionary is disposable: it is built
//! lazily (or loaded from the checkpoint's `.dict` sidecar), carried
//! forward across consolidation by a sorted merge + code remap, and a
//! corrupt or stale sidecar is a cache miss, never an error.

use crate::bat::Bat;
use crate::heap::{StringHeap, NULL_OFFSET};
use monetlite_types::nulls::NULL_I32;
use std::collections::HashMap;

/// Code denoting a NULL row (never a valid dictionary index).
pub const NULL_CODE: u32 = u32::MAX;

/// A sorted dictionary over one VARCHAR column plus the per-row encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrDict {
    /// Concatenated distinct values, byte-sorted ascending.
    val_buf: Vec<u8>,
    /// `len()+1` byte offsets into `val_buf` delimiting each value.
    val_offs: Vec<u32>,
    /// One code per physical row ([`NULL_CODE`] for NULL rows).
    codes: Vec<u32>,
}

impl StrDict {
    /// Build over a VARCHAR column; `None` for any other type.
    pub fn build(bat: &Bat) -> Option<StrDict> {
        let Bat::Varchar { offsets, heap } = bat else {
            return None;
        };
        // Distinct heap offsets first: with duplicate elimination active
        // the per-row loop mostly hits the small offset map, not strings.
        let mut by_off: HashMap<u32, u32> = HashMap::new();
        let mut distinct: Vec<&str> = Vec::new();
        for &o in offsets {
            if o == NULL_OFFSET {
                continue;
            }
            by_off.entry(o).or_insert_with(|| {
                distinct.push(heap.get(o));
                0
            });
        }
        distinct.sort_unstable();
        distinct.dedup();
        let code_of: HashMap<&str, u32> =
            distinct.iter().enumerate().map(|(c, &s)| (s, c as u32)).collect();
        for (&o, code) in by_off.iter_mut() {
            *code = code_of[heap.get(o)];
        }
        let codes: Vec<u32> = offsets
            .iter()
            .map(|&o| if o == NULL_OFFSET { NULL_CODE } else { by_off[&o] })
            .collect();
        let (val_buf, val_offs) = pack_values(&distinct);
        Some(StrDict { val_buf, val_offs, codes })
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.val_offs.len() - 1
    }

    /// True when the dictionary has no values (all-NULL or empty column).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of encoded rows.
    pub fn rows(&self) -> usize {
        self.codes.len()
    }

    /// The per-row codes.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The per-row codes as an INT column, NULL rows NULL: the group key a
    /// scan hands an aggregate in place of the strings. `None` when the
    /// codes do not fit the INT domain.
    pub fn code_column(&self) -> Option<Bat> {
        (self.len() < i32::MAX as usize).then(|| {
            Bat::Int(
                self.codes
                    .iter()
                    .map(|&c| if c == NULL_CODE { NULL_I32 } else { c as i32 })
                    .collect(),
            )
        })
    }

    /// The value of a code.
    pub fn value(&self, code: u32) -> &str {
        let (lo, hi) = (self.val_offs[code as usize], self.val_offs[code as usize + 1]);
        // Values are only ever packed from &str.
        std::str::from_utf8(&self.val_buf[lo as usize..hi as usize]).expect("dict utf-8")
    }

    /// The distinct values as a VARCHAR column in code order (row `c`
    /// holds `value(c)`), for evaluating an expression once per value.
    pub fn values(&self) -> Bat {
        // Values are distinct: a dedup table would never hit.
        let mut heap = StringHeap::with_dedup_limit(0);
        let offsets = (0..self.len() as u32).map(|c| heap.add(self.value(c))).collect();
        Bat::Varchar { offsets, heap }
    }

    /// Number of values strictly below `s` — the half-open lower bound of
    /// the code range matching `>= s`, and the insertion point of `s`.
    pub fn lower_bound(&self, s: &str) -> u32 {
        self.partition(|v| v < s)
    }

    /// Number of values at or below `s` (upper bound of `<= s`).
    pub fn upper_bound(&self, s: &str) -> u32 {
        self.partition(|v| v <= s)
    }

    /// The exact code of `s`, if present.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        let c = self.lower_bound(s);
        ((c as usize) < self.len() && self.value(c) == s).then_some(c)
    }

    /// Half-open code range of values starting with `prefix` (sorted
    /// byte-wise, such values form one contiguous run).
    pub fn prefix_range(&self, prefix: &str) -> (u32, u32) {
        let lo = self.lower_bound(prefix);
        let hi = self.partition(|v| v < prefix || v.as_bytes().starts_with(prefix.as_bytes()));
        (lo, hi)
    }

    fn partition(&self, pred: impl Fn(&str) -> bool) -> u32 {
        let (mut lo, mut hi) = (0usize, self.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if pred(self.value(mid as u32)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo as u32
    }

    /// New dictionary covering this column plus appended VARCHAR segments
    /// (consolidation carry-forward): a sorted merge of the value tables
    /// and a code remap, never a rescan of the base rows' strings.
    pub fn extended(&self, tails: &[&Bat]) -> Option<StrDict> {
        // Distinct new values not already present.
        let mut fresh: Vec<&str> = Vec::new();
        let mut tail_offs: Vec<Vec<u32>> = Vec::with_capacity(tails.len());
        for t in tails {
            let Bat::Varchar { offsets, heap } = t else {
                return None;
            };
            for &o in offsets {
                if o != NULL_OFFSET {
                    fresh.push(heap.get(o));
                }
            }
            tail_offs.push(offsets.clone());
        }
        fresh.sort_unstable();
        fresh.dedup();
        fresh.retain(|s| self.code_of(s).is_none());
        // Merge the two sorted value lists; old code -> new code is a
        // shift by the number of fresh values inserted before it.
        let mut merged: Vec<&str> = Vec::with_capacity(self.len() + fresh.len());
        let mut shift: Vec<u32> = Vec::with_capacity(self.len());
        let mut fi = 0usize;
        for c in 0..self.len() {
            let v = self.value(c as u32);
            while fi < fresh.len() && fresh[fi] < v {
                merged.push(fresh[fi]);
                fi += 1;
            }
            shift.push(fi as u32);
            merged.push(v);
        }
        merged.extend_from_slice(&fresh[fi..]);
        let code_of: HashMap<&str, u32> =
            merged.iter().enumerate().map(|(c, &s)| (s, c as u32)).collect();
        let mut codes: Vec<u32> = self
            .codes
            .iter()
            .map(|&c| if c == NULL_CODE { NULL_CODE } else { c + shift[c as usize] })
            .collect();
        for (t, offs) in tails.iter().zip(&tail_offs) {
            let Bat::Varchar { heap, .. } = t else { unreachable!() };
            for &o in offs {
                codes.push(if o == NULL_OFFSET { NULL_CODE } else { code_of[heap.get(o)] });
            }
        }
        let (val_buf, val_offs) = pack_values(&merged);
        Some(StrDict { val_buf, val_offs, codes })
    }

    /// Approximate size in bytes (cache accounting).
    pub fn size_bytes(&self) -> usize {
        self.val_buf.len() + self.val_offs.len() * 4 + self.codes.len() * 4
    }

    /// The raw parts for persistence: (value offsets, value bytes, codes).
    pub fn raw_parts(&self) -> (&[u32], &[u8], &[u32]) {
        (&self.val_offs, &self.val_buf, &self.codes)
    }

    /// Reassemble from persisted parts, revalidating every invariant a
    /// sidecar could violate (shape, UTF-8, sortedness, code bounds);
    /// `None` on any mismatch — callers treat it as a cache miss.
    pub fn from_parts(val_offs: Vec<u32>, val_buf: Vec<u8>, codes: Vec<u32>) -> Option<StrDict> {
        if val_offs.first() != Some(&0) || *val_offs.last()? as usize != val_buf.len() {
            return None;
        }
        let n = val_offs.len() - 1;
        for w in val_offs.windows(2) {
            if w[0] > w[1] {
                return None;
            }
        }
        let d = StrDict { val_buf, val_offs, codes };
        for c in 0..n {
            let (lo, hi) = (d.val_offs[c] as usize, d.val_offs[c + 1] as usize);
            std::str::from_utf8(&d.val_buf[lo..hi]).ok()?;
            if c > 0 && d.value(c as u32 - 1) >= d.value(c as u32) {
                return None;
            }
        }
        if d.codes.iter().any(|&c| c != NULL_CODE && c as usize >= n) {
            return None;
        }
        Some(d)
    }
}

fn pack_values(sorted: &[&str]) -> (Vec<u8>, Vec<u32>) {
    let mut buf = Vec::with_capacity(sorted.iter().map(|s| s.len()).sum());
    let mut offs = Vec::with_capacity(sorted.len() + 1);
    offs.push(0u32);
    for s in sorted {
        buf.extend_from_slice(s.as_bytes());
        offs.push(buf.len() as u32);
    }
    (buf, offs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use monetlite_types::ColumnBuffer;
    use proptest::prelude::*;

    fn vc(vals: Vec<Option<&str>>) -> Bat {
        Bat::from_buffer(&ColumnBuffer::Varchar(
            vals.into_iter().map(|s| s.map(String::from)).collect(),
        ))
    }

    #[test]
    fn build_sorts_and_encodes() {
        let bat = vc(vec![Some("pear"), Some("apple"), None, Some("pear"), Some("fig")]);
        let d = StrDict::build(&bat).unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!((d.value(0), d.value(1), d.value(2)), ("apple", "fig", "pear"));
        assert_eq!(d.codes(), &[2, 0, NULL_CODE, 2, 1]);
        assert_eq!(d.rows(), 5);
        let vals = d.values();
        assert_eq!(vals.len(), 3);
        assert_eq!((vals.str_at(0), vals.str_at(2)), (Some("apple"), Some("pear")));
        assert!(StrDict::build(&Bat::Int(vec![1])).is_none());
    }

    #[test]
    fn code_order_matches_str_order() {
        let bat = vc(vec![Some("b"), Some("a"), Some("ab"), Some(""), Some("ba")]);
        let d = StrDict::build(&bat).unwrap();
        for a in 0..d.len() as u32 {
            for b in 0..d.len() as u32 {
                assert_eq!(a.cmp(&b), d.value(a).cmp(d.value(b)), "codes must mirror str order");
            }
        }
    }

    #[test]
    fn bounds_and_prefix_ranges() {
        let bat = vc(vec![Some("ant"), Some("antler"), Some("bee"), Some("cat"), None]);
        let d = StrDict::build(&bat).unwrap();
        assert_eq!(d.code_of("bee"), Some(2));
        assert_eq!(d.code_of("bat"), None);
        assert_eq!(d.lower_bound("b"), 2);
        assert_eq!(d.upper_bound("bee"), 3);
        assert_eq!(d.prefix_range("ant"), (0, 2));
        assert_eq!(d.prefix_range("bee"), (2, 3));
        assert_eq!(d.prefix_range("z"), (4, 4), "empty range past the end");
        assert_eq!(d.prefix_range(""), (0, 4), "empty prefix covers everything");
    }

    #[test]
    fn extended_remaps_and_inserts() {
        let base = vc(vec![Some("b"), Some("d"), None]);
        let d = StrDict::build(&base).unwrap();
        let tail = vc(vec![Some("c"), Some("a"), Some("d")]);
        let e = d.extended(&[&tail]).unwrap();
        assert_eq!(e.len(), 4);
        assert_eq!((e.value(0), e.value(1), e.value(2), e.value(3)), ("a", "b", "c", "d"));
        // Base rows remapped, tail rows encoded.
        assert_eq!(e.codes(), &[1, 3, NULL_CODE, 2, 0, 3]);
        assert_eq!(e.rows(), 6);
    }

    #[test]
    fn parts_roundtrip_and_validation() {
        let bat = vc(vec![Some("x"), None, Some("héllo"), Some("x"), Some("")]);
        let d = StrDict::build(&bat).unwrap();
        let (offs, buf, codes) = d.raw_parts();
        let rt = StrDict::from_parts(offs.to_vec(), buf.to_vec(), codes.to_vec()).unwrap();
        assert_eq!(rt, d);
        // Unsorted values rejected.
        assert!(StrDict::from_parts(vec![0, 1, 2], b"ba".to_vec(), vec![0]).is_none());
        // Duplicate values rejected.
        assert!(StrDict::from_parts(vec![0, 1, 2], b"aa".to_vec(), vec![0]).is_none());
        // Out-of-range code rejected.
        assert!(StrDict::from_parts(vec![0, 1], b"a".to_vec(), vec![5]).is_none());
        // Offsets not covering the buffer rejected.
        assert!(StrDict::from_parts(vec![0, 1], b"ab".to_vec(), vec![0]).is_none());
        // Invalid UTF-8 rejected.
        assert!(StrDict::from_parts(vec![0, 1], vec![0xFF], vec![0]).is_none());
    }

    #[test]
    fn empty_and_all_null_columns() {
        let d = StrDict::build(&vc(vec![])).unwrap();
        assert!(d.is_empty());
        assert_eq!(d.rows(), 0);
        let d = StrDict::build(&vc(vec![None, None])).unwrap();
        assert!(d.is_empty());
        assert_eq!(d.codes(), &[NULL_CODE, NULL_CODE]);
    }

    proptest! {
        #[test]
        fn prop_codes_roundtrip_values(vals in proptest::collection::vec(
            proptest::option::of("[a-e]{0,4}"), 0..120))
        {
            let bat = Bat::from_buffer(&ColumnBuffer::Varchar(vals.clone()));
            let d = StrDict::build(&bat).unwrap();
            for (i, v) in vals.iter().enumerate() {
                match v {
                    None => prop_assert_eq!(d.codes()[i], NULL_CODE),
                    Some(s) => prop_assert_eq!(d.value(d.codes()[i]), s.as_str()),
                }
            }
            // Sorted and duplicate-free.
            for c in 1..d.len() as u32 {
                prop_assert!(d.value(c - 1) < d.value(c));
            }
        }

        #[test]
        fn prop_extended_equals_rebuild(
            base in proptest::collection::vec(proptest::option::of("[a-d]{0,3}"), 0..60),
            tail in proptest::collection::vec(proptest::option::of("[a-f]{0,3}"), 0..60))
        {
            let b = Bat::from_buffer(&ColumnBuffer::Varchar(base.clone()));
            let t = Bat::from_buffer(&ColumnBuffer::Varchar(tail.clone()));
            let ext = StrDict::build(&b).unwrap().extended(&[&t]).unwrap();
            let mut cat = base;
            cat.extend(tail);
            let whole = StrDict::build(&Bat::from_buffer(&ColumnBuffer::Varchar(cat))).unwrap();
            prop_assert_eq!(ext, whole, "carry-forward must equal a fresh build");
        }

        #[test]
        fn prop_prefix_range_matches_scan(
            vals in proptest::collection::vec("[ab]{0,4}", 1..60),
            prefix in "[ab]{0,3}")
        {
            let bat = Bat::from_buffer(&ColumnBuffer::Varchar(
                vals.iter().cloned().map(Some).collect()));
            let d = StrDict::build(&bat).unwrap();
            let (lo, hi) = d.prefix_range(&prefix);
            for c in 0..d.len() as u32 {
                let expect = d.value(c).starts_with(&prefix);
                prop_assert_eq!((lo..hi).contains(&c), expect,
                    "code {} value {:?} prefix {:?}", c, d.value(c), &prefix);
            }
        }
    }
}
