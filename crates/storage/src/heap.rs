//! Variable-sized string heaps with duplicate elimination (paper §3.1).
//!
//! "Columns that store variable-length fields ... are stored using a
//! variable-sized heap. The actual values are inserted into the heap. The
//! main column is a tightly packed array of offsets into that heap. These
//! heaps also perform duplicate elimination if the amount of distinct
//! values is below a threshold; if two fields share the same value it will
//! only appear once in the heap."
//!
//! Entry layout: `[len: u32 LE][bytes]`, entries start at offset 1 (offset
//! 0 is the reserved NULL marker byte). While duplicate elimination is
//! active a flat open-addressed table (value hash → entry offset) resolves
//! existing entries without storing the strings twice; once the distinct
//! count exceeds the threshold the table is dropped and the heap degrades
//! to append-only (exactly MonetDB's behaviour).
//!
//! A heap is copy-on-write: [`Clone`] shares the buffer and the dedup
//! table in O(1) (gathers and column clones hand the same heap to their
//! result), and the first [`StringHeap::add`] on a shared heap copies both
//! (two `memcpy`s) — so the interning state, and therefore every offset
//! and the persisted bytes, are exactly what an eager deep copy would have
//! produced.

use std::sync::Arc;

/// Default distinct-value threshold beyond which dedup is abandoned.
pub const DEFAULT_DEDUP_LIMIT: usize = 1 << 16;

/// Offset value denoting NULL in the offsets array.
pub const NULL_OFFSET: u32 = 0;

/// FNV-1a, used for the dedup table (fast, dependency-free; HashDoS is
/// not a concern for a private heap).
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The duplicate-elimination index: linear probing over a power-of-two
/// array of `(hash tag << 32) | entry offset` slots, 0 = empty (no entry
/// lives at offset 0). The tag filters probes before any string compare
/// and re-places entries on growth without touching the heap, so a clone
/// is one `memcpy` and an insertion never allocates per string.
#[derive(Debug, Clone, Default)]
struct DedupTable {
    slots: Vec<u64>,
    len: usize,
}

impl DedupTable {
    /// FNV-1a mixes upwards only (bit k of the hash depends on bits <= k
    /// of the input), so fold the well-mixed high half into the tag.
    #[inline]
    fn tag(hash: u64) -> u32 {
        (hash ^ (hash >> 32)) as u32
    }

    /// The offset of the entry equal to `s`, if interned.
    #[inline]
    fn find(&self, buf: &[u8], s: &[u8], hash: u64) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let tag = Self::tag(hash);
        let mask = self.slots.len() - 1;
        let mut i = tag as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                return None;
            }
            if (slot >> 32) as u32 == tag && entry_bytes(buf, slot as u32) == s {
                return Some(slot as u32);
            }
            i = (i + 1) & mask;
        }
    }

    /// Record a new entry (the caller has checked it is absent). Load
    /// factor stays at or below one half.
    fn insert(&mut self, hash: u64, off: u32) {
        if (self.len + 1) * 2 > self.slots.len() {
            let grown = vec![0u64; (self.slots.len() * 2).max(8)];
            for slot in std::mem::replace(&mut self.slots, grown) {
                if slot != 0 {
                    self.place(slot);
                }
            }
        }
        self.place((Self::tag(hash) as u64) << 32 | off as u64);
        self.len += 1;
    }

    fn place(&mut self, slot: u64) {
        let mask = self.slots.len() - 1;
        let mut i = (slot >> 32) as usize & mask;
        while self.slots[i] != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i] = slot;
    }
}

/// A string heap: concatenated length-prefixed entries plus an optional
/// duplicate-elimination map. Cloning is O(1); see the module docs.
#[derive(Debug, Clone)]
pub struct StringHeap {
    inner: Arc<HeapInner>,
}

#[derive(Debug, Clone)]
struct HeapInner {
    buf: Vec<u8>,
    /// Index of the interned entries; `None` once dedup is off.
    dedup: Option<DedupTable>,
    distinct: usize,
    dedup_limit: usize,
}

impl Default for StringHeap {
    fn default() -> Self {
        Self::new()
    }
}

impl StringHeap {
    /// Fresh heap with the default dedup threshold.
    pub fn new() -> StringHeap {
        Self::with_dedup_limit(DEFAULT_DEDUP_LIMIT)
    }

    /// Fresh heap with an explicit dedup threshold (0 disables dedup; used
    /// by the dedup ablation bench).
    pub fn with_dedup_limit(limit: usize) -> StringHeap {
        StringHeap::from_inner(HeapInner {
            buf: vec![0xFF], // offset 0 reserved for NULL
            dedup: (limit != 0).then(DedupTable::default),
            distinct: 0,
            dedup_limit: limit,
        })
    }

    fn from_inner(inner: HeapInner) -> StringHeap {
        StringHeap { inner: Arc::new(inner) }
    }

    /// Insert a string, returning its offset. Re-uses an existing entry when
    /// duplicate elimination is still active. A dedup hit never copies a
    /// shared heap; an actual insertion un-shares it first.
    pub fn add(&mut self, s: &str) -> u32 {
        self.add_hashed(s.as_bytes(), fnv1a)
    }

    /// [`StringHeap::add`] for bytes that are an entry of another heap
    /// (re-interning skips the UTF-8 check [`StringHeap::get`] repeats).
    pub(crate) fn add_entry_of(&mut self, other: &StringHeap, offset: u32) -> u32 {
        self.add_hashed(other.get_bytes(offset), fnv1a)
    }

    /// The interning step, with the hash function as a parameter so the
    /// model tests can force collisions.
    fn add_hashed(&mut self, bytes: &[u8], hasher: fn(&[u8]) -> u64) -> u32 {
        let hash = self.inner.dedup.as_ref().map(|_| hasher(bytes));
        if let (Some(table), Some(h)) = (&self.inner.dedup, hash) {
            if let Some(off) = table.find(&self.inner.buf, bytes, h) {
                return off;
            }
        }
        let inner = Arc::make_mut(&mut self.inner);
        let off = append_entry(&mut inner.buf, bytes);
        if let (Some(table), Some(h)) = (&mut inner.dedup, hash) {
            table.insert(h, off);
            inner.distinct += 1;
            if inner.distinct > inner.dedup_limit {
                // Threshold exceeded: abandon dedup from now on.
                inner.dedup = None;
            }
        }
        off
    }

    /// Read the entry at `offset`. Panics on NULL_OFFSET (callers check the
    /// offsets array first) and on out-of-range offsets in debug builds.
    #[inline]
    pub fn get(&self, offset: u32) -> &str {
        // Heap entries are only ever written from &str, so they are valid UTF-8.
        std::str::from_utf8(self.get_bytes(offset)).expect("heap corruption: invalid utf-8")
    }

    /// The entry at `offset` as bytes, for callers that only hash or copy
    /// it. Same preconditions as [`StringHeap::get`].
    #[inline]
    pub fn get_bytes(&self, offset: u32) -> &[u8] {
        debug_assert_ne!(offset, NULL_OFFSET, "NULL offset dereferenced");
        entry_bytes(&self.inner.buf, offset)
    }

    /// Whether `self` and `other` are one buffer (a clone, or a gather's
    /// heap, not yet written to): an offset valid in one then names the
    /// same entry in the other.
    #[inline]
    pub fn shares_buffer_with(&self, other: &StringHeap) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Number of distinct entries inserted while dedup was active (after
    /// dedup is dropped this is a lower bound).
    pub fn distinct_seen(&self) -> usize {
        self.inner.distinct
    }

    /// Whether duplicate elimination is still active.
    pub fn dedup_active(&self) -> bool {
        self.inner.dedup.is_some()
    }

    /// Total heap bytes (entry payloads + length prefixes).
    pub fn size_bytes(&self) -> usize {
        self.inner.buf.len()
    }

    /// Approximate *resident* bytes: the packed heap plus the transient
    /// dedup table. [`StringHeap::size_bytes`] is the persisted image the
    /// vmem budget accounts; memory-budget decisions in the execution
    /// engine (spill-or-not) must also count the table (8 bytes per slot,
    /// at least two slots per distinct string), which can dominate for
    /// short strings.
    pub fn mem_bytes(&self) -> usize {
        let table = self.inner.dedup.as_ref().map_or(0, |t| t.slots.capacity() * 8);
        // `capacity`, not `len`: a heap past the dedup threshold grows
        // append-only through doubling, and the spill budget must see the
        // resident allocation, not just the packed image.
        self.inner.buf.capacity() + table
    }

    /// Raw heap bytes, for persistence.
    pub fn raw(&self) -> &[u8] {
        &self.inner.buf
    }

    /// Rebuild a heap from persisted raw bytes. The dedup table is *not*
    /// reconstructed (matching MonetDB: reloaded heaps are append-only
    /// until rewritten); offsets from the old heap stay valid.
    pub fn from_raw(buf: Vec<u8>) -> StringHeap {
        StringHeap::from_inner(HeapInner {
            buf,
            dedup: None,
            distinct: 0,
            dedup_limit: DEFAULT_DEDUP_LIMIT,
        })
    }
}

#[inline]
fn entry_bytes(buf: &[u8], offset: u32) -> &[u8] {
    let off = offset as usize;
    let len = u32::from_le_bytes(buf[off..off + 4].try_into().unwrap()) as usize;
    &buf[off + 4..off + 4 + len]
}

fn append_entry(buf: &mut Vec<u8>, bytes: &[u8]) -> u32 {
    let off = buf.len() as u32;
    buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    buf.extend_from_slice(bytes);
    off
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn add_get_roundtrip() {
        let mut h = StringHeap::new();
        let a = h.add("hello");
        let b = h.add("world");
        assert_eq!(h.get(a), "hello");
        assert_eq!(h.get(b), "world");
        assert_ne!(a, NULL_OFFSET);
    }

    #[test]
    fn duplicates_share_storage() {
        let mut h = StringHeap::new();
        let a = h.add("FRANCE");
        let size_after_one = h.size_bytes();
        let b = h.add("FRANCE");
        assert_eq!(a, b);
        assert_eq!(h.size_bytes(), size_after_one);
        assert_eq!(h.distinct_seen(), 1);
    }

    #[test]
    fn empty_string_is_a_value_not_null() {
        let mut h = StringHeap::new();
        let off = h.add("");
        assert_ne!(off, NULL_OFFSET);
        assert_eq!(h.get(off), "");
    }

    #[test]
    fn dedup_abandoned_past_threshold() {
        let mut h = StringHeap::with_dedup_limit(4);
        for i in 0..5 {
            h.add(&format!("v{i}"));
        }
        assert!(!h.dedup_active());
        // Now identical values get fresh entries.
        let a = h.add("dup");
        let b = h.add("dup");
        assert_ne!(a, b);
        assert_eq!(h.get(a), "dup");
        assert_eq!(h.get(b), "dup");
    }

    #[test]
    fn mem_bytes_covers_resident_allocation_after_dedup_drop() {
        let mut h = StringHeap::with_dedup_limit(4);
        for i in 0..5 {
            h.add(&format!("v{i}"));
        }
        assert!(!h.dedup_active());
        // Append-only duplicates grow the buffer through doubling; make sure
        // we land mid-allocation so packed length and capacity differ.
        for _ in 0..1000 {
            h.add("abcdefghij");
        }
        while h.inner.buf.len() == h.inner.buf.capacity() {
            h.add("pad");
        }
        assert!(
            h.mem_bytes() >= h.inner.buf.capacity(),
            "spill accounting must cover the resident allocation, not just buf.len()"
        );
    }

    #[test]
    fn mem_bytes_counts_the_dedup_table_while_dedup_active() {
        let mut h = StringHeap::new();
        for i in 0..1024 {
            h.add(&format!("{i:04}"));
        }
        assert!(h.dedup_active());
        // 1024 entries at load factor <= 1/2: at least 2048 slots of 8
        // bytes on top of the packed heap.
        let table_lower_bound = 2048 * 8;
        assert!(
            h.mem_bytes() >= h.size_bytes() + table_lower_bound,
            "dedup table under-counted: mem={} packed={} need>={}",
            h.mem_bytes(),
            h.size_bytes(),
            h.size_bytes() + table_lower_bound
        );
        // ... and it is gone from the account once dedup is abandoned.
        let mut small = StringHeap::with_dedup_limit(2);
        for s in ["a", "b", "c"] {
            small.add(s);
        }
        assert!(!small.dedup_active());
        assert_eq!(small.mem_bytes(), small.inner.buf.capacity());
    }

    #[test]
    fn zero_limit_disables_dedup() {
        let mut h = StringHeap::with_dedup_limit(0);
        let a = h.add("x");
        let b = h.add("x");
        assert_ne!(a, b);
    }

    #[test]
    fn raw_roundtrip_preserves_offsets() {
        let mut h = StringHeap::new();
        let offs: Vec<u32> = ["alpha", "beta", "gamma", "beta"].iter().map(|s| h.add(s)).collect();
        let h2 = StringHeap::from_raw(h.raw().to_vec());
        assert_eq!(h2.get(offs[0]), "alpha");
        assert_eq!(h2.get(offs[1]), "beta");
        assert_eq!(h2.get(offs[2]), "gamma");
        assert_eq!(offs[1], offs[3]); // dedup had collapsed them
    }

    #[test]
    fn clone_shares_the_buffer_until_written() {
        let mut a = StringHeap::new();
        let x = a.add("x");
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.inner, &b.inner), "clone must be O(1): one shared buffer");
        // A dedup hit is a read: it must not un-share.
        assert_eq!(b.add("x"), x);
        assert!(Arc::ptr_eq(&a.inner, &b.inner));
        // The first insertion copies; the original is untouched.
        let y = b.add("y");
        assert!(!Arc::ptr_eq(&a.inner, &b.inner));
        assert_eq!(a.size_bytes(), 1 + 4 + 1);
        assert_eq!(a.distinct_seen(), 1);
        assert_eq!((b.get(x), b.get(y)), ("x", "y"));
        // ... and gets the same offset for "y" as the clone did: the two
        // heaps diverged from identical interning state.
        assert_eq!(a.add("y"), y);
    }

    #[test]
    fn dedup_survives_copy_on_write() {
        let mut a = StringHeap::new();
        let off = a.add("shared");
        let mut b = a.clone();
        b.add("fresh"); // un-shares: buffer *and* dedup table are copied
        assert!(b.dedup_active());
        let size = b.size_bytes();
        assert_eq!(b.add("shared"), off, "pre-share entries still dedup after the copy");
        assert_eq!(b.add("fresh"), b.add("fresh"));
        assert_eq!(b.size_bytes(), size);
        assert_eq!(b.distinct_seen(), 2);
    }

    #[test]
    fn raw_bytes_pinned_for_a_fixed_add_sequence() {
        // The persisted image (column files, WAL frames) of this add
        // sequence, as written by the eager-copy heap this one replaced:
        // NULL marker, then `[len u32 LE][bytes]` per *distinct* value in
        // first-appearance order. A clone taken mid-sequence must not
        // change a byte.
        let mut h = StringHeap::new();
        h.add("ab");
        h.add("");
        let snapshot = h.clone();
        h.add("ab");
        h.add("c\u{e9}");
        let want: &[u8] = &[0xFF, 2, 0, 0, 0, b'a', b'b', 0, 0, 0, 0, 3, 0, 0, 0, b'c', 0xC3, 0xA9];
        assert_eq!(h.raw(), want);
        assert_eq!(snapshot.raw(), &want[..11]);
    }

    #[test]
    fn hash_collisions_resolved_by_comparison() {
        // Different strings, same bucket is possible; correctness must not
        // depend on hash uniqueness. Force it by inserting many strings.
        let mut h = StringHeap::new();
        let mut offs = Vec::new();
        for i in 0..1000 {
            offs.push((format!("key-{i}"), h.add(&format!("key-{i}"))));
        }
        for (s, off) in offs {
            assert_eq!(h.get(off), s);
        }
        assert_eq!(h.distinct_seen(), 1000);
    }

    /// The bucket-map heap the flat table replaced, kept as the model the
    /// proptest below holds the real one to: hash -> offsets of the
    /// entries with that hash, an eager deep copy on clone.
    #[derive(Clone)]
    struct ModelHeap {
        buf: Vec<u8>,
        dedup: Option<std::collections::HashMap<u64, Vec<u32>>>,
        distinct: usize,
        limit: usize,
    }

    impl ModelHeap {
        fn new(limit: usize) -> ModelHeap {
            let dedup = (limit != 0).then(std::collections::HashMap::new);
            ModelHeap { buf: vec![0xFF], dedup, distinct: 0, limit }
        }

        fn add(&mut self, s: &str, hasher: fn(&[u8]) -> u64) -> u32 {
            let h = hasher(s.as_bytes());
            if let Some(bucket) = self.dedup.as_ref().and_then(|m| m.get(&h)) {
                let same = |&&off: &&u32| entry_bytes(&self.buf, off) == s.as_bytes();
                if let Some(&off) = bucket.iter().find(same) {
                    return off;
                }
            }
            let off = append_entry(&mut self.buf, s.as_bytes());
            if let Some(m) = &mut self.dedup {
                m.entry(h).or_default().push(off);
                self.distinct += 1;
                if self.distinct > self.limit {
                    self.dedup = None;
                }
            }
            off
        }
    }

    /// Two buckets for every string: each probe sequence is one long
    /// collision chain, and equal tags force the string compare.
    fn colliding(bytes: &[u8]) -> u64 {
        bytes.len() as u64 % 2
    }

    proptest! {
        #[test]
        fn prop_flat_table_matches_the_bucket_map_model(
            // One word per add: string id, which of two diverging heaps,
            // whether the other heap is first re-cloned from this one.
            ops in proptest::collection::vec(any::<u32>(), 1..300),
            limit in 0usize..24,
            collide in 0u8..2,
        ) {
            let hasher: fn(&[u8]) -> u64 = if collide == 1 { colliding } else { fnv1a };
            let mut real = [StringHeap::with_dedup_limit(limit), StringHeap::with_dedup_limit(limit)];
            let mut model = [ModelHeap::new(limit), ModelHeap::new(limit)];
            for op in ops {
                let (id, w, fork) = (op as usize % 40, (op >> 8) as usize % 2, (op >> 12) % 8 == 0);
                let other = 1 - w;
                if fork {
                    // Copy-on-write clone: the other heap restarts from
                    // this one's state and the two then diverge.
                    real[other] = real[w].clone();
                    model[other] = model[w].clone();
                }
                let s = format!("{}{id}", "x".repeat(id % 5));
                prop_assert_eq!(real[w].add_hashed(s.as_bytes(), hasher), model[w].add(&s, hasher));
                for i in 0..2 {
                    prop_assert_eq!(real[i].raw(), model[i].buf.as_slice());
                    prop_assert_eq!(real[i].dedup_active(), model[i].dedup.is_some());
                    prop_assert_eq!(real[i].distinct_seen(), model[i].distinct);
                }
            }
        }

        #[test]
        fn prop_roundtrip_arbitrary_strings(strings in proptest::collection::vec(".{0,40}", 1..60)) {
            let mut h = StringHeap::new();
            let offs: Vec<u32> = strings.iter().map(|s| h.add(s)).collect();
            for (s, &off) in strings.iter().zip(&offs) {
                prop_assert_eq!(h.get(off), s.as_str());
            }
        }

        #[test]
        fn prop_dedup_returns_same_offset(s in ".{0,24}", n in 2usize..6) {
            let mut h = StringHeap::new();
            let first = h.add(&s);
            for _ in 1..n {
                prop_assert_eq!(h.add(&s), first);
            }
            prop_assert_eq!(h.distinct_seen(), 1);
        }

        #[test]
        fn prop_heap_size_bounded_by_input(strings in proptest::collection::vec("[a-c]{1,3}", 1..200)) {
            // With ≤ 39 possible distinct strings, dedup keeps the heap tiny.
            let mut h = StringHeap::new();
            for s in &strings {
                h.add(s);
            }
            prop_assert!(h.distinct_seen() <= 39);
            prop_assert!(h.size_bytes() <= 1 + 39 * (4 + 3));
        }
    }
}
