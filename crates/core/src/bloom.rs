//! Join-side bloom filters for sideways information passing.
//!
//! A hash-join build side summarises its key hashes into a small bitmap;
//! the planner pushes the filter into the probe-side scan, where it runs
//! as a per-morsel pre-filter *before* the join (composing with zonemap
//! skipping). Rows whose key hash is definitely absent from the build
//! side are dropped at the scan, so they never travel through the
//! pipeline only to miss in the hash table. False positives are fine —
//! the join still verifies candidates exactly; false negatives are
//! impossible, so results are unchanged.
//!
//! Keys enter as the executor's 64-bit composite row hashes
//! ([`monetlite_storage::hash::hash_rows`]), so the filter and the join table always
//! agree on the hash of a row.

/// A register-blocked bloom filter over pre-hashed `u64` keys.
///
/// One re-mix of the key hash picks a single `u64` word and [`K`] bit
/// positions inside it, so an insert is one OR and a membership test is
/// one load and one mask compare — one cache line per key, where a
/// classic filter touches `k` of them. Sized at roughly 10 bits per
/// distinct key (rounded up to a power of two), for a ~1.2 %
/// false-positive rate at design load (a classic k=6 filter of the same
/// size reaches ~0.4 %, at several times the probe cost).
#[derive(Debug, Clone)]
pub struct Bloom {
    /// Bitmap words, always a power-of-two count.
    words: Vec<u64>,
    /// `words.len() - 1`, used to mask the word index.
    mask: u64,
    /// Number of keys inserted (diagnostics only).
    keys: u64,
}

/// Bits set per key, all within one word.
const K: u32 = 5;

/// Bits budgeted per expected key.
const BITS_PER_KEY: usize = 10;

impl Bloom {
    /// A filter sized for `expected` keys (at least 1024 bits so tiny
    /// build sides do not saturate).
    pub fn with_capacity(expected: usize) -> Bloom {
        let nbits = (expected.saturating_mul(BITS_PER_KEY)).next_power_of_two().max(1024);
        Bloom { words: vec![0u64; nbits / 64], mask: (nbits / 64 - 1) as u64, keys: 0 }
    }

    /// The word index and in-word bit mask of a key hash. The executor's
    /// row hash is only lightly avalanched, so one splitmix finisher
    /// re-mixes it; its low `6·K` bits pick the bit positions and the
    /// bits above them pick the word.
    #[inline]
    fn locate(&self, h: u64) -> (usize, u64) {
        let mut z = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let mut bits = 0u64;
        for i in 0..K {
            bits |= 1u64 << ((z >> (6 * i)) & 63);
        }
        (((z >> (6 * K)) & self.mask) as usize, bits)
    }

    /// Insert one pre-hashed key.
    pub fn insert(&mut self, h: u64) {
        let (w, bits) = self.locate(h);
        self.words[w] |= bits;
        self.keys += 1;
    }

    /// Membership test: `false` means the key is definitely absent;
    /// `true` means it may be present.
    #[inline]
    pub fn contains(&self, h: u64) -> bool {
        let (w, bits) = self.locate(h);
        self.words[w] & bits == bits
    }

    /// Number of inserted keys.
    pub fn keys(&self) -> u64 {
        self.keys
    }

    /// Bitmap size in bits.
    pub fn nbits(&self) -> usize {
        self.words.len() * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monetlite_storage::hash::hash_rows;
    use monetlite_storage::Bat;
    use monetlite_types::ColumnBuffer;

    fn mix(x: u64) -> u64 {
        // splitmix64 with a different increment than the filter's re-mix.
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn no_false_negatives() {
        let mut b = Bloom::with_capacity(10_000);
        for i in 0..10_000u64 {
            b.insert(mix(i));
        }
        assert_eq!(b.keys(), 10_000);
        for i in 0..10_000u64 {
            assert!(b.contains(mix(i)), "inserted key {i} reported absent");
        }
    }

    #[test]
    fn false_positive_rate_at_design_load() {
        let mut b = Bloom::with_capacity(10_000);
        // Fill to exactly 10 bits per key (sizing rounds up to a power of
        // two, so `with_capacity(10_000)` alone would be under-loaded).
        let n = (b.nbits() / BITS_PER_KEY) as u64;
        for i in 0..n {
            b.insert(mix(i));
        }
        let probes = 200_000u64;
        let fp = (1 << 40..(1 << 40) + probes).filter(|&i| b.contains(mix(i))).count();
        // ~1.2 % by design.
        assert!((fp as u64) * 50 < probes, "false-positive rate too high: {fp}/{probes}");
    }

    /// Row hashes straight from `hash_rows` (lightly avalanched, unlike
    /// `mix`) over every key type a join can push a bloom for, single and
    /// composite: an inserted key is always found.
    #[test]
    fn no_false_negatives_over_row_hashes_of_every_key_type() {
        let n = 5_000i64;
        let cols: Vec<Bat> = vec![
            Bat::from_buffer(&ColumnBuffer::Int((0..n as i32).map(|i| i * 7 - 900).collect())),
            Bat::from_buffer(&ColumnBuffer::Bigint((0..n).map(|i| i << 33 | i).collect())),
            Bat::from_buffer(&ColumnBuffer::Date((0..n as i32).map(|i| 9_000 + i).collect())),
            Bat::from_buffer(&ColumnBuffer::Decimal {
                data: (0..n).map(|i| i * 101 - 5).collect(),
                scale: 2,
            }),
            Bat::from_buffer(&ColumnBuffer::Varchar(
                (0..n).map(|i| Some(format!("kéy-{i}-{}", i % 13))).collect(),
            )),
        ];
        let mut sets: Vec<Vec<&Bat>> = cols.iter().map(|c| vec![c]).collect();
        sets.push(vec![&cols[0], &cols[4]]);
        sets.push(vec![&cols[2], &cols[3], &cols[1]]);
        for keys in sets {
            let hashes = hash_rows(&keys, None);
            let mut b = Bloom::with_capacity(hashes.len());
            for &h in &hashes {
                b.insert(h);
            }
            let types: Vec<_> = keys.iter().map(|k| k.logical_type()).collect();
            assert!(hashes.iter().all(|&h| b.contains(h)), "false negative over {types:?}");
        }
    }

    #[test]
    fn tiny_build_sides_get_floor_size() {
        let b = Bloom::with_capacity(0);
        assert!(b.nbits() >= 1024);
        let mut b = Bloom::with_capacity(3);
        b.insert(mix(7));
        assert!(b.contains(mix(7)));
        // With 1024+ bits and 3 keys, almost everything else misses.
        let fp = (100..1100u64).filter(|&i| b.contains(mix(i))).count();
        assert!(fp < 100, "{fp}");
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let b = Bloom::with_capacity(100);
        assert!((0..1000u64).all(|i| !b.contains(mix(i))));
    }
}
