//! The engine's one hash table, and the one way rows are hashed.
//!
//! MonetDB's tactical hash tables are two arrays: a *bucket* array of
//! chain heads and a *link* array with one slot per row. [`HashTable`]
//! is that layout plus the 64-bit hash of every entry:
//!
//! * `heads` — a power-of-two array of chain heads, indexed by a
//!   multiplicative (Fibonacci) mix of the hash;
//! * `next` — one link per id, chaining ids that share a bucket;
//! * `hashes` — one stored hash per id, compared before any key is
//!   (different keys share a bucket far more often than a hash).
//!
//! Ids are dense `u32`s: build-side row ids for a join table, group ids
//! for grouping, physical row ids for the persistent per-column hash
//! index ([`crate::index::HashIndex`] is this type). Nothing is allocated
//! per key, and a table with no entries allocates nothing at all.
//!
//! **Chains are ascending.** A table built from rows ([`HashTable::build`],
//! [`HashTable::from_hashes`]) or extended by [`HashTable::append`] lists
//! every chain in ascending id order, so a join probe emits its matches in
//! build-row order — the order the goldens were recorded in. Only
//! [`HashTable::intern`], which assigns group ids whose order inside a
//! chain nobody observes, links new ids at the front.
//!
//! **The hash-key domain.** [`hash_rows`] hashes a block of rows one typed
//! loop per key column. Fixed-width values hash their order key
//! ([`crate::index::key_at`]) with one exception: `-0.0` folds into `0.0`,
//! because the two compare equal and so must land in one group, one
//! DISTINCT row and one join match. The order-key domain itself keeps
//! them apart — zonemaps, imprints, the order index and the persisted
//! `.zm`/`.st` sidecars depend on it, and range selections over it
//! already answer correctly. Strings hash their bytes (FNV-1a), NULLs a
//! fixed tag per type.

use crate::bat::Bat;
use crate::heap::NULL_OFFSET;
use crate::index::{f64_ordered, fnv1a};
use monetlite_types::nulls::{NULL_I32, NULL_I64, NULL_I8};

/// Initial value of every row hash before the first key column folds in.
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Hash of a NULL fixed-width key (the order key `i64::MIN`).
const NULL_KEY: u64 = i64::MIN as u64;

/// Hash of a NULL string ("null").
const NULL_STR: u64 = 0x6e75_6c6c;

/// End of a chain.
const EMPTY: u32 = u32::MAX;

/// Link value of an id that was never linked (a NULL join key).
const UNLINKED: u32 = u32::MAX - 1;

/// Smallest bucket array of a non-empty table.
const MIN_BUCKETS: usize = 16;

/// Fold one column's key into a row hash.
#[inline]
fn combine(h: u64, v: u64) -> u64 {
    h ^ v.wrapping_add(SEED).wrapping_add(h << 6).wrapping_add(h >> 2)
}

/// The hash key of a DOUBLE: its order key, with `-0.0` folded into
/// `0.0` (see the module docs) and NaN (NULL) as [`NULL_KEY`].
#[inline]
fn double_key(x: f64) -> u64 {
    if x.is_nan() {
        NULL_KEY
    } else if x == 0.0 {
        f64_ordered(0.0) as u64
    } else {
        f64_ordered(x) as u64
    }
}

/// Combined hash of every row of `cols` (aligned key columns), or of the
/// positions `sel` only. One typed loop per column; strings of a heap
/// that is small against the row count are hashed once per distinct heap
/// entry, not once per row.
pub fn hash_rows(cols: &[&Bat], sel: Option<&[u32]>) -> Vec<u64> {
    let n = sel.map_or_else(|| cols.first().map_or(0, |c| c.len()), |s| s.len());
    let mut hashes = vec![SEED; n];
    for col in cols {
        match col {
            Bat::Bool(v) => {
                fold(&mut hashes, v, sel, |x| if x == NULL_I8 { NULL_KEY } else { x as i64 as u64 })
            }
            Bat::Int(v) | Bat::Date(v) => {
                fold(
                    &mut hashes,
                    v,
                    sel,
                    |x| if x == NULL_I32 { NULL_KEY } else { x as i64 as u64 },
                )
            }
            Bat::Bigint(v) => fold(&mut hashes, v, sel, |x| x as u64),
            Bat::Decimal { data, .. } => fold(&mut hashes, data, sel, |x| x as u64),
            Bat::Double(v) => fold(&mut hashes, v, sel, double_key),
            Bat::Varchar { offsets, heap } => {
                // 0 = not hashed yet (a string whose FNV is 0 is simply
                // rehashed each time).
                let mut memo =
                    if heap.size_bytes() <= n { vec![0u64; heap.size_bytes()] } else { Vec::new() };
                fold(&mut hashes, offsets, sel, |o| {
                    if o == NULL_OFFSET {
                        return NULL_STR;
                    }
                    match memo.get_mut(o as usize) {
                        Some(m) if *m != 0 => *m,
                        Some(m) => {
                            *m = fnv1a(heap.get_bytes(o));
                            *m
                        }
                        None => fnv1a(heap.get_bytes(o)),
                    }
                })
            }
        }
    }
    hashes
}

/// The hash [`hash_rows`] gives a one-column row whose non-NULL key, in
/// the order-key domain of [`crate::index::key_at`], is `key`: INT, DATE,
/// BIGINT and DECIMAL columns hash their order key unchanged (DOUBLE folds
/// `-0.0`, so it is not covered). A point select reads the column's hash
/// index with it.
pub fn hash_key(key: i64) -> u64 {
    combine(SEED, key as u64)
}

#[inline]
fn fold<T: Copy>(
    hashes: &mut [u64],
    vals: &[T],
    sel: Option<&[u32]>,
    mut key: impl FnMut(T) -> u64,
) {
    match sel {
        None => {
            for (h, &x) in hashes.iter_mut().zip(vals) {
                *h = combine(*h, key(x));
            }
        }
        Some(sel) => {
            for (h, &p) in hashes.iter_mut().zip(sel) {
                *h = combine(*h, key(vals[p as usize]));
            }
        }
    }
}

/// Call `f` with every row at which `col` is NULL (one typed loop).
fn for_each_null(col: &Bat, mut f: impl FnMut(usize)) {
    fn run<T: Copy>(v: &[T], is_null: impl Fn(T) -> bool, f: &mut impl FnMut(usize)) {
        for (i, &x) in v.iter().enumerate() {
            if is_null(x) {
                f(i);
            }
        }
    }
    match col {
        Bat::Bool(v) => run(v, |x| x == NULL_I8, &mut f),
        Bat::Int(v) | Bat::Date(v) => run(v, |x| x == NULL_I32, &mut f),
        Bat::Bigint(v) => run(v, |x| x == NULL_I64, &mut f),
        Bat::Decimal { data, .. } => run(data, |x| x == NULL_I64, &mut f),
        Bat::Double(v) => run(v, |x: f64| x.is_nan(), &mut f),
        Bat::Varchar { offsets, .. } => run(offsets, |o| o == NULL_OFFSET, &mut f),
    }
}

/// A chained hash table over dense `u32` ids (see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HashTable {
    /// Chain head per bucket ([`EMPTY`] = none); empty until an id links.
    heads: Vec<u32>,
    /// Next id in the chain per id ([`EMPTY`] = end, [`UNLINKED`] = the
    /// id is not in any chain).
    next: Vec<u32>,
    /// Stored hash per id.
    hashes: Vec<u64>,
    /// `64 - log2(heads.len())`: the bucket is the top bits of the mix.
    shift: u32,
    /// Ids in some chain.
    linked: usize,
}

impl HashTable {
    /// Table over every row of the key columns `keys`, skipping rows with
    /// a NULL key (they never join). Chains are ascending.
    pub fn build(keys: &[&Bat]) -> HashTable {
        HashTable::from_hashes(hash_rows(keys, None), keys)
    }

    /// [`HashTable::build`] from hashes already computed by
    /// [`hash_rows`] over the same `keys` (a caller that also fills a
    /// bloom filter or routes spill partitions hashes once).
    pub fn from_hashes(hashes: Vec<u64>, keys: &[&Bat]) -> HashTable {
        let mut t = HashTable::default();
        t.extend(hashes, keys);
        t.relink();
        t
    }

    /// Extend the table with appended rows of its (single) key column, one
    /// segment after another — the paper's hash tables "are updated on
    /// appends". The new ids follow the old ones, and every chain stays
    /// ascending.
    pub(crate) fn append<'a>(&mut self, segments: impl IntoIterator<Item = &'a Bat>) {
        for seg in segments {
            self.extend(hash_rows(&[seg], None), &[seg]);
        }
        self.relink();
    }

    /// Add ids for `hashes` (unlinked where a key in `keys` is NULL).
    fn extend(&mut self, hashes: Vec<u64>, keys: &[&Bat]) {
        let base = self.next.len();
        self.next.resize(base + hashes.len(), EMPTY);
        for col in keys {
            for_each_null(col, |i| self.next[base + i] = UNLINKED);
        }
        self.linked += self.next[base..].iter().filter(|&&l| l != UNLINKED).count();
        if self.hashes.is_empty() {
            self.hashes = hashes;
        } else {
            self.hashes.extend_from_slice(&hashes);
        }
    }

    /// Rebuild the bucket array for the current ids: walking ids downwards
    /// and linking each at the front of its chain leaves every chain in
    /// ascending order. No key is rehashed.
    fn relink(&mut self) {
        if self.linked == 0 {
            return;
        }
        let buckets = self.linked.next_power_of_two().max(MIN_BUCKETS);
        self.heads.clear();
        self.heads.resize(buckets, EMPTY);
        self.shift = 64 - buckets.trailing_zeros();
        for id in (0..self.hashes.len()).rev() {
            if self.next[id] == UNLINKED {
                continue;
            }
            let b = self.bucket(self.hashes[id]);
            self.next[id] = self.heads[b];
            self.heads[b] = id as u32;
        }
    }

    #[inline]
    fn bucket(&self, h: u64) -> usize {
        (h.wrapping_mul(SEED) >> self.shift) as usize
    }

    /// The ids whose stored hash is `h`, in chain order (ascending for a
    /// built table). Callers verify the keys.
    #[inline]
    pub fn candidates(&self, h: u64) -> Candidates<'_> {
        let cur = if self.heads.is_empty() { EMPTY } else { self.heads[self.bucket(h)] };
        Candidates { table: self, h, cur }
    }

    /// Group interning: the first id with hash `h` for which `eq` holds,
    /// or a new id (the next dense one) when there is none. Returns the id
    /// and whether it is new.
    pub fn intern(&mut self, h: u64, mut eq: impl FnMut(u32) -> bool) -> (u32, bool) {
        if let Some(id) = self.candidates(h).find(|&id| eq(id)) {
            return (id, false);
        }
        let id = self.hashes.len() as u32;
        self.hashes.push(h);
        self.next.push(EMPTY);
        self.linked += 1;
        if self.linked > self.heads.len() {
            self.relink(); // grows the bucket array; links `id` too
        } else {
            let b = self.bucket(h);
            self.next[id as usize] = self.heads[b];
            self.heads[b] = id;
        }
        (id, true)
    }

    /// Number of ids (rows of a built table, groups of an interning one).
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True when the table holds no ids.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// The stored hash of every id.
    pub fn hashes(&self) -> &[u64] {
        &self.hashes
    }

    /// Allocated bytes: bucket array, links and stored hashes at their
    /// capacity — the figure spill decisions and the index cache read.
    pub fn size_bytes(&self) -> usize {
        self.heads.capacity() * 4 + self.next.capacity() * 4 + self.hashes.capacity() * 8
    }
}

/// Iterator over the ids of one hash (see [`HashTable::candidates`]).
pub struct Candidates<'a> {
    table: &'a HashTable,
    h: u64,
    cur: u32,
}

impl Iterator for Candidates<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        while self.cur != EMPTY {
            let id = self.cur;
            self.cur = self.table.next[id as usize];
            if self.table.hashes[id as usize] == self.h {
                return Some(id);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::key_at;
    use monetlite_types::ColumnBuffer;
    use proptest::prelude::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::collections::HashMap;

    // -----------------------------------------------------------------
    // A per-thread counting allocator, so memory figures can be pinned
    // against what was really allocated.
    // -----------------------------------------------------------------

    struct CountingAlloc;

    thread_local! {
        static LIVE: Cell<isize> = const { Cell::new(0) };
    }

    fn count(delta: isize) {
        let _ = LIVE.try_with(|c| c.set(c.get() + delta));
    }

    // SAFETY: every method forwards to `System` with the caller's
    // arguments unchanged and only adds bookkeeping.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            // SAFETY: forwarded contract.
            let p = unsafe { System.alloc(layout) };
            if !p.is_null() {
                count(layout.size() as isize);
            }
            p
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            // SAFETY: forwarded contract.
            let p = unsafe { System.alloc_zeroed(layout) };
            if !p.is_null() {
                count(layout.size() as isize);
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: forwarded contract.
            unsafe { System.dealloc(ptr, layout) };
            count(-(layout.size() as isize));
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            // SAFETY: forwarded contract.
            let p = unsafe { System.realloc(ptr, layout, new_size) };
            if !p.is_null() {
                count(new_size as isize - layout.size() as isize);
            }
            p
        }
    }

    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    /// Bytes this thread holds after `f` beyond what it held before.
    fn live_after<T>(f: impl FnOnce() -> T) -> (T, isize) {
        let before = LIVE.with(|c| c.get());
        let out = f();
        (out, LIVE.with(|c| c.get()) - before)
    }

    // -----------------------------------------------------------------
    // Reference models: the per-row hash and the bucket map the table
    // replaced.
    // -----------------------------------------------------------------

    /// The per-row composite hash the engine used before [`hash_rows`]
    /// (one type dispatch per row and column), with the `-0.0` fold.
    fn row_hash(cols: &[&Bat], row: usize) -> u64 {
        let mut h = SEED;
        for c in cols {
            let v = match c {
                Bat::Varchar { offsets, heap } => {
                    if offsets[row] == NULL_OFFSET {
                        NULL_STR
                    } else {
                        fnv1a(heap.get(offsets[row]).as_bytes())
                    }
                }
                Bat::Double(v) if v[row] == 0.0 => 0,
                other => key_at(other, row) as u64,
            };
            h ^= v.wrapping_add(SEED).wrapping_add(h << 6).wrapping_add(h >> 2);
        }
        h
    }

    /// The old build: `HashMap<u64, Vec<u32>>`, NULL keys skipped.
    fn bucket_map(hashes: &[u64], null: &[bool]) -> HashMap<u64, Vec<u32>> {
        let mut m: HashMap<u64, Vec<u32>> = HashMap::new();
        for (i, &h) in hashes.iter().enumerate() {
            if !null[i] {
                m.entry(h).or_default().push(i as u32);
            }
        }
        m
    }

    fn chain(t: &HashTable, h: u64) -> Vec<u32> {
        t.candidates(h).collect()
    }

    /// One column of every physical type from the same row seeds; seeds
    /// divisible by 7 are NULL, some doubles are `-0.0`.
    fn columns(seeds: &[i16]) -> Vec<Bat> {
        let null = |s: i16| s % 7 == 0;
        vec![
            Bat::Bool(
                seeds.iter().map(|&s| if null(s) { NULL_I8 } else { (s & 1) as i8 }).collect(),
            ),
            Bat::Int(
                seeds.iter().map(|&s| if null(s) { NULL_I32 } else { s as i32 % 50 }).collect(),
            ),
            Bat::Date(seeds.iter().map(|&s| if null(s) { NULL_I32 } else { s as i32 }).collect()),
            Bat::Bigint(
                seeds
                    .iter()
                    .map(|&s| if null(s) { NULL_I64 } else { s as i64 * 1_000_003 })
                    .collect(),
            ),
            Bat::Decimal {
                data: seeds
                    .iter()
                    .map(|&s| if null(s) { NULL_I64 } else { s as i64 % 9 })
                    .collect(),
                scale: 2,
            },
            Bat::Double(
                seeds
                    .iter()
                    .map(|&s| match s % 5 {
                        _ if null(s) => f64::NAN,
                        0 => -0.0,
                        1 => 0.0,
                        _ => s as f64 / 4.0,
                    })
                    .collect(),
            ),
            Bat::from_buffer(&ColumnBuffer::Varchar(
                seeds.iter().map(|&s| (!null(s)).then(|| format!("v{}", s % 11))).collect(),
            )),
        ]
    }

    #[test]
    fn negative_zero_hashes_with_zero_and_keeps_its_order_key() {
        let d = Bat::Double(vec![0.0, -0.0, 1.5]);
        let h = hash_rows(&[&d], None);
        assert_eq!(h[0], h[1]);
        assert_ne!(h[0], h[2]);
        assert_ne!(key_at(&d, 0), key_at(&d, 1), "the order-key domain is untouched");
    }

    #[test]
    fn hash_key_is_the_row_hash_of_every_integer_backed_type() {
        let cols = [
            Bat::Int(vec![-7, 0, 42]),
            Bat::Date(vec![-7, 0, 42]),
            Bat::Bigint(vec![-7, 0, i64::MAX]),
            Bat::Decimal { data: vec![-7, 0, 12_345], scale: 2 },
        ];
        for col in &cols {
            let h = hash_rows(&[col], None);
            for (row, &want) in h.iter().enumerate() {
                assert_eq!(hash_key(key_at(col, row)), want, "{col:?} row {row}");
            }
        }
    }

    #[test]
    fn built_chains_are_ascending_and_skip_nulls() {
        let keys = Bat::Int(vec![5, NULL_I32, 7, 5, NULL_I32, 5, 7]);
        let t = HashTable::build(&[&keys]);
        let h = hash_rows(&[&keys], None);
        assert_eq!(chain(&t, h[0]), vec![0, 3, 5]);
        assert_eq!(chain(&t, h[2]), vec![2, 6]);
        assert_eq!(chain(&t, h[1]), Vec::<u32>::new(), "NULL keys are not linked");
        assert_eq!(t.len(), 7);
    }

    #[test]
    fn append_keeps_chains_ascending() {
        let mut t = HashTable::build(&[&Bat::Int(vec![10, 20, 10])]);
        t.append([&Bat::Int(vec![20]), &Bat::Int(vec![NULL_I32, 10])]);
        let whole = Bat::Int(vec![10, 20, 10, 20, NULL_I32, 10]);
        let h = hash_rows(&[&whole], None);
        assert_eq!(chain(&t, h[0]), vec![0, 2, 5]);
        assert_eq!(chain(&t, h[1]), vec![1, 3]);
        assert_eq!(t.hashes(), &h[..]);
    }

    #[test]
    fn an_empty_table_allocates_nothing() {
        let (t, bytes) = live_after(|| HashTable::build(&[&Bat::Int(Vec::new())]));
        assert_eq!(bytes, 0);
        assert_eq!(t.size_bytes(), 0);
        let (t, bytes) = live_after(HashTable::default);
        assert_eq!((bytes, t.size_bytes()), (0, 0));
        assert_eq!(t.candidates(42).count(), 0);
    }

    #[test]
    fn size_bytes_covers_the_allocation() {
        for n in [1usize, 17, 1000, 40_000] {
            let keys = Bat::Int((0..n as i32).map(|i| i % 300).collect());
            let (mut t, bytes) = live_after(|| HashTable::build(&[&keys]));
            assert!(t.size_bytes() as isize >= bytes, "build of {n}: {} < {bytes}", t.size_bytes());
            let tail = Bat::Int(vec![3; 333]);
            let (_, grown) = live_after(|| t.append([&tail]));
            assert!(t.size_bytes() as isize >= bytes + grown, "append to {n}");
            let (g, bytes) = live_after(|| {
                let mut g = HashTable::default();
                for i in 0..n as u64 {
                    g.intern(i.wrapping_mul(0x1234_5678_9abc_def1), |_| false);
                }
                g
            });
            assert!(
                g.size_bytes() as isize >= bytes,
                "interning {n}: {} < {bytes}",
                g.size_bytes()
            );
        }
    }

    proptest! {
        #[test]
        fn prop_hash_rows_equals_row_hash(
            seeds in proptest::collection::vec(any::<i16>(), 0..200),
            picks in proptest::collection::vec(any::<u16>(), 0..50),
            mask in 1u8..128,
        ) {
            let cols = columns(&seeds);
            // Every type alone, and a composite of the types `mask` picks.
            let mut sets: Vec<Vec<&Bat>> = cols.iter().map(|c| vec![c]).collect();
            sets.push(cols.iter().enumerate().filter(|(i, _)| mask >> i & 1 == 1).map(|(_, c)| c).collect());
            let sel: Vec<u32> = if seeds.is_empty() {
                Vec::new()
            } else {
                let mut s: Vec<u32> = picks.iter().map(|&p| p as u32 % seeds.len() as u32).collect();
                s.sort_unstable();
                s
            };
            for set in &sets {
                let dense = hash_rows(set, None);
                let want: Vec<u64> = (0..seeds.len()).map(|r| row_hash(set, r)).collect();
                prop_assert_eq!(&dense, &want);
                let at = hash_rows(set, Some(&sel));
                let want: Vec<u64> = sel.iter().map(|&r| row_hash(set, r as usize)).collect();
                prop_assert_eq!(at, want);
            }
        }

        #[test]
        fn prop_table_matches_the_bucket_map_model(
            rows in proptest::collection::vec(0u64..400, 0..300),
            split in 0usize..300,
            spread in 1u64..5,
        ) {
            // Hashes from a tiny domain force shared buckets and equal
            // hashes; `spread` varies how many distinct hashes there are.
            // One row in five has a NULL key.
            let hashes: Vec<u64> = rows.iter().map(|&r| r % (spread * 8)).collect();
            let null: Vec<bool> = rows.iter().map(|&r| r / 80 == 0).collect();
            let key = Bat::Int(null.iter().map(|&n| if n { NULL_I32 } else { 1 }).collect());
            let model = bucket_map(&hashes, &null);
            let t = HashTable::from_hashes(hashes.clone(), &[&key]);
            for h in 0..spread * 8 {
                prop_assert_eq!(chain(&t, h), model.get(&h).cloned().unwrap_or_default());
            }
            // Appending the rows after `split` to a table of the rows
            // before it: the chains of building everything at once.
            let split = split.min(rows.len());
            let head = key.take(&(0..split as u32).collect::<Vec<_>>());
            let tail = key.take(&(split as u32..rows.len() as u32).collect::<Vec<_>>());
            let mut grown = HashTable::from_hashes(hashes[..split].to_vec(), &[&head]);
            grown.extend(hashes[split..].to_vec(), &[&tail]);
            grown.relink();
            for h in 0..spread * 8 {
                prop_assert_eq!(chain(&grown, h), model.get(&h).cloned().unwrap_or_default());
            }
        }

        #[test]
        fn prop_interning_matches_the_model_across_growth(
            keys in proptest::collection::vec(0u64..500, 0..2000),
        ) {
            // Hash = key / 4: four keys share every hash, so the equality
            // callback decides; the table grows through many relinks.
            let mut t = HashTable::default();
            let mut groups: Vec<u64> = Vec::new();
            let mut model: HashMap<u64, u32> = HashMap::new();
            for &k in &keys {
                let seen = model.get(&k).copied();
                let (g, new) = t.intern(k / 4, |g| groups[g as usize] == k);
                if new {
                    groups.push(k);
                }
                prop_assert_eq!(new, seen.is_none());
                let next_id = model.len() as u32;
                prop_assert_eq!(g, *model.entry(k).or_insert(next_id));
            }
            prop_assert_eq!(t.len(), model.len());
            prop_assert!(t.heads.len() >= t.len());
        }
    }
}
