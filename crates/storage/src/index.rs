//! Secondary index structures (paper §3.1 *Automatic Indexing* / *Order
//! Index*).
//!
//! * [`Imprints`] — the cache-line bitmap index of Sidirourgos & Kersten:
//!   per 64-value "cache line" a 64-bit mask of the value-range bins
//!   present in that line. Built automatically on the first range select
//!   over a persistent column; destroyed when the column is modified.
//! * [`HashIndex`] — row-ids by key hash, built automatically when a
//!   persistent column is used as an equi-join key; *updated* on appends,
//!   destroyed on updates/deletes. It is a prebuilt [`HashTable`], the
//!   same chained table every transient join and grouping uses.
//! * [`OrderIndex`] — a row-number permutation in sort order, created only
//!   by `CREATE ORDER INDEX`; answers point/range queries by binary search
//!   and feeds merge joins.
//! * [`Zonemap`] — per-zone min/max summaries ([`ZONE_ROWS`] rows per
//!   zone) that let vectorized scans skip whole vectors *before* any
//!   kernel runs: a constant range predicate over a fixed-width column,
//!   or any dictionary-served predicate over a VARCHAR column's codes.
//!   Coarser but far cheaper than imprints (16 bytes per zone), checked
//!   per morsel, and the only index that is persisted (as a `.zm`
//!   sidecar at checkpoint, fixed-width columns only) so a restarted
//!   process can skip vectors without faulting the column in.
//!
//! Imprints, zonemaps and the order index work over a uniform
//! order-preserving `i64` key domain ([`bat_keys`]; a VARCHAR zonemap
//! over dictionary codes); the hash index over the hash-key domain of
//! [`crate::hash::hash_rows`], with caller-side verification (exactly
//! the "candidates, then check" discipline MonetDB uses).

use crate::bat::Bat;
use crate::dict::NULL_CODE;
use crate::hash::HashTable;
use crate::heap::NULL_OFFSET;
use std::ops::Range;

/// Values per imprint "cache line". MonetDB uses the hardware line size /
/// value width; we fix 64 values per line, which keeps masks cheap and
/// pruning behaviour equivalent.
pub const IMPRINT_LINE: usize = 64;

/// Number of histogram bins (= bits in the mask).
pub const IMPRINT_BINS: usize = 64;

/// Order-preserving map from f64 to i64 (IEEE total-order trick): negative
/// floats flip all bits, positive floats set the sign bit, then the result
/// is shifted back into signed order. NaN is excluded by callers (it maps
/// to the NULL key `i64::MIN` in [`key_at`]).
#[inline]
pub fn f64_ordered(f: f64) -> i64 {
    let b = f.to_bits();
    let u = if b >> 63 == 1 { !b } else { b | (1 << 63) };
    (u ^ (1 << 63)) as i64
}

/// FNV-1a hash (shared with the string heap's dedup map).
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Extract the order-preserving i64 key for `row` of a column.
///
/// NULL maps to `i64::MIN`, which sorts first and never matches a bounded
/// range probe (callers exclude NULLs explicitly where SQL requires it).
/// Strings hash (order *not* preserved) — only [`HashIndex`] may be built
/// over them.
#[inline]
pub fn key_at(bat: &Bat, row: usize) -> i64 {
    match bat {
        Bat::Bool(v) => {
            if v[row] == i8::MIN {
                i64::MIN
            } else {
                v[row] as i64
            }
        }
        Bat::Int(v) | Bat::Date(v) => {
            if v[row] == i32::MIN {
                i64::MIN
            } else {
                v[row] as i64
            }
        }
        Bat::Bigint(v) => v[row],
        Bat::Decimal { data, .. } => data[row],
        Bat::Double(v) => {
            if v[row].is_nan() {
                i64::MIN
            } else {
                f64_ordered(v[row])
            }
        }
        Bat::Varchar { offsets, heap } => {
            if offsets[row] == NULL_OFFSET {
                i64::MIN
            } else {
                fnv1a(heap.get_bytes(offsets[row])) as i64
            }
        }
    }
}

/// All keys of a column (see [`key_at`]).
pub fn bat_keys(bat: &Bat) -> Vec<i64> {
    (0..bat.len()).map(|i| key_at(bat, i)).collect()
}

/// True when the column type admits order-based indexes (imprints, order
/// index): every fixed-width type; strings only hash.
pub fn orderable(bat: &Bat) -> bool {
    !matches!(bat, Bat::Varchar { .. })
}

// ---------------------------------------------------------------------------
// Imprints
// ---------------------------------------------------------------------------

/// Column imprints: equi-depth bins from a sample, one bitmask per line.
#[derive(Debug, Clone)]
pub struct Imprints {
    /// 63 ascending bin bounds; bin(v) = # bounds ≤ v, in 0..64.
    bounds: Vec<i64>,
    /// One mask per line of [`IMPRINT_LINE`] values.
    masks: Vec<u64>,
    rows: usize,
}

impl Imprints {
    /// Build imprints over a key column.
    pub fn build(keys: &[i64]) -> Imprints {
        // Sample up to 4096 values for the histogram bounds.
        let step = (keys.len() / 4096).max(1);
        let mut sample: Vec<i64> = keys.iter().step_by(step).copied().collect();
        sample.sort_unstable();
        sample.dedup();
        let mut bounds = Vec::with_capacity(IMPRINT_BINS - 1);
        if !sample.is_empty() {
            for b in 1..IMPRINT_BINS {
                let idx = b * sample.len() / IMPRINT_BINS;
                let v = sample[idx.min(sample.len() - 1)];
                if bounds.last() != Some(&v) {
                    bounds.push(v);
                }
            }
        }
        let mut masks = Vec::with_capacity(keys.len().div_ceil(IMPRINT_LINE));
        for line in keys.chunks(IMPRINT_LINE) {
            let mut m = 0u64;
            for &k in line {
                m |= 1u64 << bin_of(&bounds, k);
            }
            masks.push(m);
        }
        Imprints { bounds, masks, rows: keys.len() }
    }

    /// Rows covered.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Approximate size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bounds.len() * 8 + self.masks.len() * 8
    }

    /// Indices of the lines in `lines` that *may* contain a value in
    /// `[lo, hi]` (inclusive; `None` = unbounded). Guaranteed superset of
    /// the truth. Only the masks of `lines` are read, so a probe over one
    /// morsel's lines costs what the morsel costs.
    pub fn candidate_lines(
        &self,
        lo: Option<i64>,
        hi: Option<i64>,
        lines: Range<usize>,
    ) -> Vec<u32> {
        let lo_bin = lo.map_or(0, |v| bin_of(&self.bounds, v));
        let hi_bin = hi.map_or(IMPRINT_BINS - 1, |v| bin_of(&self.bounds, v));
        let mask = range_mask(lo_bin, hi_bin);
        let lines = lines.start.min(self.masks.len())..lines.end.min(self.masks.len());
        self.masks[lines.clone()]
            .iter()
            .zip(lines)
            .filter(|(&m, _)| m & mask != 0)
            .map(|(_, i)| i as u32)
            .collect()
    }

    /// Fraction of lines pruned by a probe (for EXPLAIN / stats output).
    pub fn selectivity(&self, lo: Option<i64>, hi: Option<i64>) -> f64 {
        if self.masks.is_empty() {
            return 0.0;
        }
        self.candidate_lines(lo, hi, 0..self.masks.len()).len() as f64 / self.masks.len() as f64
    }
}

#[inline]
fn bin_of(bounds: &[i64], v: i64) -> usize {
    bounds.partition_point(|&b| b <= v)
}

#[inline]
fn range_mask(lo_bin: usize, hi_bin: usize) -> u64 {
    debug_assert!(lo_bin <= hi_bin && hi_bin < 64);
    let hi = if hi_bin == 63 { u64::MAX } else { (1u64 << (hi_bin + 1)) - 1 };
    let lo = (1u64 << lo_bin) - 1;
    hi & !lo
}

// ---------------------------------------------------------------------------
// Zonemaps
// ---------------------------------------------------------------------------

/// Rows per zonemap zone. Fine enough that a date-clustered fact table
/// skips most zones on a range probe, coarse enough that the summary is
/// negligible (16 bytes per 8Ki rows ≈ 0.0002% of an i64 column).
pub const ZONE_ROWS: usize = 8 * 1024;

/// Per-zone min/max of the non-NULL keys of a column: the one per-zone
/// summary every scan filter skips by. A fixed-width column's keys are
/// the order-preserving `i64` domain of [`key_at`]; a VARCHAR column's
/// are its dictionary's codes ([`Zonemap::of_codes`]), which sort as the
/// strings do.
///
/// A zone whose every row is NULL stores the empty range
/// `(i64::MAX, i64::MIN)`: NULL never satisfies a filter the scan skips
/// by, so such a zone is always skippable.
#[derive(Debug, Clone)]
pub struct Zonemap {
    mins: Vec<i64>,
    maxs: Vec<i64>,
    rows: usize,
}

impl Zonemap {
    /// Build the zonemap of a fixed-width column (one pass, NULLs
    /// excluded).
    pub fn build(bat: &Bat) -> Zonemap {
        assert!(orderable(bat), "a VARCHAR zonemap is built over dictionary codes");
        Zonemap::of_zones(bat.len(), |lo, hi| bat.key_range(lo, hi))
    }

    /// Build the zonemap of a VARCHAR column over its dictionary codes
    /// ([`StrDict::codes`](crate::dict::StrDict::codes); [`NULL_CODE`]
    /// rows excluded).
    pub fn of_codes(codes: &[u32]) -> Zonemap {
        Zonemap::of_zones(codes.len(), |lo, hi| {
            let (mut mn, mut mx) = (NULL_CODE, 0);
            for &c in codes[lo..hi].iter().filter(|&&c| c != NULL_CODE) {
                (mn, mx) = (mn.min(c), mx.max(c));
            }
            (mn <= mx).then_some((mn as i64, mx as i64))
        })
    }

    /// One `[min, max]` per zone of `rows` rows, from `range` over each
    /// zone's row span (`None`: every row is NULL).
    fn of_zones(rows: usize, range: impl Fn(usize, usize) -> Option<(i64, i64)>) -> Zonemap {
        let (mins, maxs) = (0..rows.div_ceil(ZONE_ROWS))
            .map(|z| {
                range(z * ZONE_ROWS, ((z + 1) * ZONE_ROWS).min(rows))
                    .unwrap_or((i64::MAX, i64::MIN))
            })
            .unzip();
        Zonemap { mins, maxs, rows }
    }

    /// Reassemble from persisted parts; `None` when the shapes disagree
    /// (e.g. a sidecar written under a different [`ZONE_ROWS`]).
    pub fn from_parts(rows: usize, mins: Vec<i64>, maxs: Vec<i64>) -> Option<Zonemap> {
        if mins.len() != maxs.len() || mins.len() != rows.div_ceil(ZONE_ROWS) {
            return None;
        }
        Some(Zonemap { mins, maxs, rows })
    }

    /// Rows covered.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of zones.
    pub fn n_zones(&self) -> usize {
        self.mins.len()
    }

    /// Per-zone minimum keys (persistence).
    pub fn mins(&self) -> &[i64] {
        &self.mins
    }

    /// Per-zone maximum keys (persistence).
    pub fn maxs(&self) -> &[i64] {
        &self.maxs
    }

    /// Approximate size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.mins.len() * 16
    }

    /// Whether some zone overlapping `[row_lo, row_hi)` holds a non-NULL
    /// row and passes `may` on its inclusive key range `(min, max)`. With
    /// `may` true whenever a key in that range could satisfy a filter,
    /// `false` proves the rows free of matches and the caller can skip
    /// them; `true` is a guaranteed superset of the truth.
    pub fn any_zone(
        &self,
        row_lo: usize,
        row_hi: usize,
        mut may: impl FnMut(i64, i64) -> bool,
    ) -> bool {
        if self.rows == 0 || row_lo >= row_hi || self.mins.is_empty() {
            return false;
        }
        let z0 = (row_lo / ZONE_ROWS).min(self.n_zones() - 1);
        let z1 = ((row_hi - 1) / ZONE_ROWS).min(self.n_zones() - 1);
        (z0..=z1).any(|z| self.mins[z] <= self.maxs[z] && may(self.mins[z], self.maxs[z]))
    }

    /// Whether any row in `[row_lo, row_hi)` *may* have a key in the
    /// inclusive range `[lo, hi]` (`None` = unbounded) — [`any_zone`]
    /// for a range predicate.
    ///
    /// [`any_zone`]: Zonemap::any_zone
    pub fn range_may_match(
        &self,
        row_lo: usize,
        row_hi: usize,
        lo: Option<i64>,
        hi: Option<i64>,
    ) -> bool {
        self.any_zone(row_lo, row_hi, |zmin, zmax| {
            lo.is_none_or(|lo| zmax >= lo) && hi.is_none_or(|hi| zmin <= hi)
        })
    }
}

// ---------------------------------------------------------------------------
// Hash index
// ---------------------------------------------------------------------------

/// The automatic per-column hash index: a [`HashTable`] built over one
/// persistent column ([`HashTable::build`]) and extended in place of a
/// rebuild when the column is appended to ([`HashTable::append`]).
pub type HashIndex = HashTable;

// ---------------------------------------------------------------------------
// Order index
// ---------------------------------------------------------------------------

/// `CREATE ORDER INDEX`: "an array of row numbers in the sort order
/// specified by the user".
#[derive(Debug, Clone)]
pub struct OrderIndex {
    /// Row numbers, ordered so keys\[perm\[i\]\] is non-decreasing.
    perm: Vec<u32>,
    /// Keys in permutation order (kept for binary search without touching
    /// the column).
    sorted_keys: Vec<i64>,
}

impl OrderIndex {
    /// Build by sorting row numbers on the key column.
    pub fn build(keys: &[i64]) -> OrderIndex {
        let mut perm: Vec<u32> = (0..keys.len() as u32).collect();
        perm.sort_by_key(|&r| keys[r as usize]);
        let sorted_keys = perm.iter().map(|&r| keys[r as usize]).collect();
        OrderIndex { perm, sorted_keys }
    }

    /// Row ids whose key lies in `[lo, hi]` (inclusive bounds, `None` =
    /// unbounded), answered by binary search on the sorted key array.
    pub fn range(&self, lo: Option<i64>, hi: Option<i64>) -> &[u32] {
        let start = match lo {
            None => 0,
            Some(lo) => self.sorted_keys.partition_point(|&k| k < lo),
        };
        let end = match hi {
            None => self.sorted_keys.len(),
            Some(hi) => self.sorted_keys.partition_point(|&k| k <= hi),
        };
        &self.perm[start..end.max(start)]
    }

    /// Row ids with key exactly `k` (point query).
    pub fn point(&self, k: i64) -> &[u32] {
        self.range(Some(k), Some(k))
    }

    /// Approximate size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.perm.len() * 12
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive_range(keys: &[i64], lo: Option<i64>, hi: Option<i64>) -> Vec<u32> {
        let mut v: Vec<u32> = keys
            .iter()
            .enumerate()
            .filter(|(_, &k)| lo.is_none_or(|lo| k >= lo) && hi.is_none_or(|hi| k <= hi))
            .map(|(i, _)| i as u32)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn f64_ordering_preserved() {
        let vals = [-f64::INFINITY, -100.5, -0.0, 0.0, 1.0, 2.5, f64::INFINITY];
        for w in vals.windows(2) {
            assert!(f64_ordered(w[0]) <= f64_ordered(w[1]), "{} vs {}", w[0], w[1]);
        }
        assert!(f64_ordered(-1.0) < f64_ordered(1.0));
    }

    #[test]
    fn range_mask_bits() {
        assert_eq!(range_mask(0, 63), u64::MAX);
        assert_eq!(range_mask(0, 0), 1);
        assert_eq!(range_mask(63, 63), 1u64 << 63);
        assert_eq!(range_mask(2, 3), 0b1100);
    }

    #[test]
    fn imprints_never_lose_rows() {
        let keys: Vec<i64> = (0..1000).map(|i| (i * 37) % 500).collect();
        let imp = Imprints::build(&keys);
        let lines = imp.candidate_lines(Some(100), Some(120), 0..usize::MAX);
        // Every truly matching row must live in a candidate line.
        for (row, &k) in keys.iter().enumerate() {
            if (100..=120).contains(&k) {
                let line = (row / IMPRINT_LINE) as u32;
                assert!(lines.contains(&line), "row {row} lost");
            }
        }
        // No pruning assertion here: values are scattered across every
        // line, so all lines are genuine candidates (imprints only help
        // when value ranges cluster per line — see the next test).
    }

    #[test]
    fn imprints_probe_per_morsel_reads_only_its_lines() {
        // 176 morsels of 1,024 rows (SF 0.03 lineitem's size): each probe
        // reads the morsel's 16 masks, so the scan reads every mask once,
        // and the morsels' candidates together are the whole answer.
        let rows = 176 * 1024;
        let keys: Vec<i64> = (0..rows as i64).map(|i| (i * 7) % 5000 + i / 64).collect();
        let imp = Imprints::build(&keys);
        let whole = imp.candidate_lines(Some(1000), Some(1200), 0..usize::MAX);
        let mut joined = Vec::new();
        let mut read = 0;
        for lo in (0..rows).step_by(1024) {
            let lines = lo / IMPRINT_LINE..(lo + 1024).div_ceil(IMPRINT_LINE);
            read += lines.len();
            let got = imp.candidate_lines(Some(1000), Some(1200), lines.clone());
            assert!(got.len() <= 16 && got.iter().all(|&l| lines.contains(&(l as usize))));
            joined.extend(got);
        }
        assert_eq!(read, rows / IMPRINT_LINE);
        assert_eq!(joined, whole);
    }

    #[test]
    fn imprints_prune_sorted_data_hard() {
        let keys: Vec<i64> = (0..10_000).collect();
        let imp = Imprints::build(&keys);
        let sel = imp.selectivity(Some(0), Some(100));
        assert!(sel < 0.1, "sorted data should prune >90%, got {sel}");
    }

    #[test]
    fn imprints_unbounded_probe() {
        let keys: Vec<i64> = (0..256).collect();
        let imp = Imprints::build(&keys);
        assert_eq!(imp.candidate_lines(None, None, 0..usize::MAX).len(), 4);
        let below = imp.candidate_lines(None, Some(63), 0..usize::MAX);
        assert!(below.contains(&0));
        assert!(!below.contains(&3));
    }

    #[test]
    fn zonemap_skips_clustered_ranges() {
        // Clustered (sorted) data: each zone covers a narrow value band.
        let n = ZONE_ROWS * 4;
        let bat = Bat::Int((0..n as i32).collect());
        let zm = Zonemap::build(&bat);
        assert_eq!(zm.n_zones(), 4);
        assert_eq!(zm.rows(), n);
        // Probe entirely inside zone 0: zones 1..4 must not match.
        assert!(zm.range_may_match(0, ZONE_ROWS, Some(0), Some(10)));
        assert!(!zm.range_may_match(ZONE_ROWS, n, Some(0), Some(10)));
        // Unbounded side.
        assert!(!zm.range_may_match(0, ZONE_ROWS, Some(ZONE_ROWS as i64), None));
        assert!(zm.range_may_match(0, ZONE_ROWS, None, Some(0)));
    }

    #[test]
    fn zonemap_null_zones_always_skip() {
        let bat = Bat::Int(vec![i32::MIN; 100]); // all NULL
        let zm = Zonemap::build(&bat);
        assert!(!zm.range_may_match(0, 100, Some(i64::MIN), None));
        assert!(!zm.range_may_match(0, 100, None, None));
    }

    #[test]
    fn zonemap_over_codes_skips_all_null_zones() {
        use crate::dict::StrDict;
        use monetlite_types::ColumnBuffer;
        let codes_of = |vals: Vec<Option<String>>| {
            StrDict::build(&Bat::from_buffer(&ColumnBuffer::Varchar(vals)))
                .unwrap()
                .codes()
                .to_vec()
        };
        // Two zones: first all-NULL, second holds values.
        let mut vals: Vec<Option<String>> = vec![None; ZONE_ROWS];
        vals.extend((0..10).map(|i| Some(format!("v{i}"))));
        let zm = Zonemap::of_codes(&codes_of(vals));
        let bounds = |lo, hi| {
            let mut seen = Vec::new();
            zm.any_zone(lo, hi, |mn, mx| {
                seen.push((mn, mx));
                false
            });
            seen
        };
        assert_eq!(bounds(0, ZONE_ROWS), [], "all-NULL zone matches nothing");
        assert_eq!(bounds(ZONE_ROWS, ZONE_ROWS + 10), [(0, 9)]);
        assert_eq!(bounds(0, ZONE_ROWS + 10), [(0, 9)], "the NULL zone is never tested");
        // Empty and all-NULL columns: nothing to test either.
        for codes in [codes_of(vec![]), codes_of(vec![None, None])] {
            let zm = Zonemap::of_codes(&codes);
            assert!(!zm.any_zone(0, codes.len(), |_, _| true));
        }
    }

    #[test]
    fn zonemap_parts_roundtrip_and_shape_check() {
        let bat = Bat::Int((0..100).collect());
        let zm = Zonemap::build(&bat);
        let rt = Zonemap::from_parts(zm.rows(), zm.mins().to_vec(), zm.maxs().to_vec()).unwrap();
        assert_eq!(rt.n_zones(), zm.n_zones());
        assert!(Zonemap::from_parts(100, vec![0; 3], vec![0; 3]).is_none(), "bad zone count");
        assert!(Zonemap::from_parts(100, vec![0], vec![0, 1]).is_none(), "mismatched lens");
    }

    /// Rows of `idx` whose key equals `v` (an Int column's value).
    fn lookup(idx: &HashIndex, col: &Bat, v: i32) -> Vec<u32> {
        let h = crate::hash::hash_rows(&[&Bat::Int(vec![v])], None)[0];
        idx.candidates(h).filter(|&r| key_at(col, r as usize) == v as i64).collect()
    }

    #[test]
    fn hash_index_build_and_probe() {
        let col = Bat::Int(vec![5, 7, 5, 9, 5]);
        let idx = HashIndex::build(&[&col]);
        assert_eq!(lookup(&idx, &col, 5), vec![0, 2, 4]);
        assert_eq!(lookup(&idx, &col, 9), vec![3]);
        assert_eq!(lookup(&idx, &col, 42), Vec::<u32>::new());
        assert_eq!(idx.len(), 5);
    }

    #[test]
    fn hash_index_append_maintains() {
        let mut idx = HashIndex::build(&[&Bat::Int(vec![1, 2])]);
        idx.append([&Bat::Int(vec![2, 3])]);
        let col = Bat::Int(vec![1, 2, 2, 3]);
        assert_eq!(lookup(&idx, &col, 2), vec![1, 2]);
        assert_eq!(lookup(&idx, &col, 3), vec![3]);
        assert_eq!(idx.len(), 4);
    }

    #[test]
    fn order_index_range_and_point() {
        let keys = vec![30, 10, 20, 10, 40];
        let idx = OrderIndex::build(&keys);
        assert_eq!(idx.point(10), &[1, 3]);
        let mut r = idx.range(Some(10), Some(30)).to_vec();
        r.sort_unstable();
        assert_eq!(r, vec![0, 1, 2, 3]);
        assert_eq!(idx.range(Some(100), None), &[] as &[u32]);
        assert_eq!(idx.range(None, None).len(), 5);
    }

    #[test]
    fn order_index_perm_is_sorted() {
        let keys = vec![3, 1, 4, 1, 5, 9, 2, 6];
        let idx = OrderIndex::build(&keys);
        let sorted: Vec<i64> = idx.range(None, None).iter().map(|&r| keys[r as usize]).collect();
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn string_keys_hash_consistently() {
        use monetlite_types::ColumnBuffer;
        let bat = Bat::from_buffer(&ColumnBuffer::Varchar(vec![
            Some("apple".into()),
            Some("pear".into()),
            Some("apple".into()),
            None,
        ]));
        let keys = bat_keys(&bat);
        assert_eq!(keys[0], keys[2]);
        assert_ne!(keys[0], keys[1]);
        assert_eq!(keys[3], i64::MIN);
        assert!(!orderable(&bat));
    }

    proptest! {
        #[test]
        fn prop_imprints_superset(keys in proptest::collection::vec(-500i64..500, 1..400),
                                  lo in -500i64..500, width in 0i64..200) {
            let hi = lo + width;
            let imp = Imprints::build(&keys);
            let lines = imp.candidate_lines(Some(lo), Some(hi), 0..usize::MAX);
            for &row in &naive_range(&keys, Some(lo), Some(hi)) {
                let line = (row as usize / IMPRINT_LINE) as u32;
                prop_assert!(lines.contains(&line));
            }
        }

        #[test]
        fn prop_imprints_over_lines_clip_the_whole_answer(
            keys in proptest::collection::vec(-500i64..500, 1..900),
            lo in -500i64..500, width in 0i64..300, first in 0usize..16, span in 0usize..18,
        ) {
            // A line range answers what the whole column's answer clipped
            // to it is; a range past the end clips to the lines that exist.
            let hi = lo + width;
            let imp = Imprints::build(&keys);
            let whole = imp.candidate_lines(Some(lo), Some(hi), 0..usize::MAX);
            let range = first..first + span;
            let got = imp.candidate_lines(Some(lo), Some(hi), range.clone());
            let want: Vec<u32> =
                whole.into_iter().filter(|&l| range.contains(&(l as usize))).collect();
            prop_assert_eq!(got, want);
        }

        #[test]
        fn prop_order_index_matches_naive(keys in proptest::collection::vec(-100i64..100, 0..200),
                                          lo in -100i64..100, width in 0i64..100) {
            let hi = lo + width;
            let idx = OrderIndex::build(&keys);
            let mut got = idx.range(Some(lo), Some(hi)).to_vec();
            got.sort_unstable();
            prop_assert_eq!(got, naive_range(&keys, Some(lo), Some(hi)));
        }

        // Neither summary loses a row: an INT column and its dictionary
        // codes (`(k + 500) / 10`, order-preserving), in runs of equal
        // keys spanning several zones, with NULL rows (keys below -500)
        // and, when it exists, zone `null_zone` all NULL; probed over a
        // row range that is not zone-aligned by a key range, a code range
        // and a code mask.
        #[test]
        fn prop_zonemap_never_loses_rows(vals in proptest::collection::vec(-600i32..500, 1..12),
                                         run in 1usize..30_000, null_zone in 0usize..8,
                                         lo in -500i64..500, width in 0i64..200,
                                         from in 0usize..1000, span in 1usize..20_000,
                                         mask in any::<u64>()) {
            let mut keys: Vec<Option<i32>> = vals
                .iter()
                .flat_map(|&v| std::iter::repeat_n((v >= -500).then_some(v), run))
                .collect();
            let n = keys.len();
            let z = (null_zone * ZONE_ROWS).min(n);
            keys[z..(z + ZONE_ROWS).min(n)].fill(None);
            let row_lo = from * n / 1000;
            let row_hi = (row_lo + span).min(n);
            let hit = |pred: &dyn Fn(i64) -> bool| {
                keys[row_lo..row_hi].iter().flatten().any(|&k| pred(k as i64))
            };
            let hi = lo + width;
            let zm = Zonemap::build(&Bat::Int(keys.iter().map(|k| k.unwrap_or(i32::MIN)).collect()));
            if hit(&|k| (lo..=hi).contains(&k)) {
                prop_assert!(zm.range_may_match(row_lo, row_hi, Some(lo), Some(hi)),
                    "zonemap lost a matching row");
            }
            let code = |k: i64| (k + 500) / 10;
            let codes: Vec<u32> =
                keys.iter().map(|k| k.map_or(NULL_CODE, |k| code(k as i64) as u32)).collect();
            let zc = Zonemap::of_codes(&codes);
            // A code range [clo, chi), tested as a dictionary range is.
            let (clo, chi) = (code(lo), code(hi) + 1);
            if hit(&|k| (clo..chi).contains(&code(k))) {
                prop_assert!(zc.any_zone(row_lo, row_hi, |mn, mx| mn < chi && mx >= clo),
                    "code zonemap lost a row matching a range");
            }
            // A code mask, tested as a dictionary mask is.
            let bit = |c: i64| mask.rotate_right(c as u32) & 1 == 1;
            if hit(&|k| bit(code(k))) {
                prop_assert!(zc.any_zone(row_lo, row_hi, |mn, mx| (mn..=mx).any(bit)),
                    "code zonemap lost a row matching a mask");
            }
        }

        #[test]
        fn prop_hash_index_complete(keys in proptest::collection::vec(-20i32..20, 0..200)) {
            let col = Bat::Int(keys.clone());
            let idx = HashIndex::build(&[&col]);
            for (row, &k) in keys.iter().enumerate() {
                prop_assert!(lookup(&idx, &col, k).contains(&(row as u32)));
            }
        }
    }
}
