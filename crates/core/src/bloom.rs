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

/// A split-block style bloom filter over pre-hashed `u64` keys.
///
/// Sized at roughly 10 bits per distinct key (rounded up to a power of
/// two) with `k = 6` probes, for a ~1% false-positive rate at design
/// load.
#[derive(Debug, Clone)]
pub struct Bloom {
    /// Bitmap, always a power-of-two number of bits.
    bits: Vec<u64>,
    /// `bits_len - 1`, used to mask probe positions.
    mask: u64,
    /// Number of keys inserted (diagnostics only).
    keys: u64,
}

/// Probes per key.
const K: u32 = 6;

/// Bits budgeted per expected key.
const BITS_PER_KEY: usize = 10;

impl Bloom {
    /// A filter sized for `expected` keys (at least 1024 bits so tiny
    /// build sides do not saturate).
    pub fn with_capacity(expected: usize) -> Bloom {
        let nbits = (expected.saturating_mul(BITS_PER_KEY)).next_power_of_two().max(1024);
        Bloom { bits: vec![0u64; nbits / 64], mask: (nbits - 1) as u64, keys: 0 }
    }

    /// Derive the `i`-th probe position from a key hash. The multiplier
    /// re-mixes the hash so probes are decorrelated even though the
    /// executor's row hash is only lightly avalanched.
    #[inline]
    fn probe(&self, h: u64, i: u32) -> u64 {
        let mut z = h ^ (u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        (z ^ (z >> 27)) & self.mask
    }

    /// Insert one pre-hashed key.
    pub fn insert(&mut self, h: u64) {
        for i in 0..K {
            let p = self.probe(h, i);
            self.bits[(p / 64) as usize] |= 1u64 << (p % 64);
        }
        self.keys += 1;
    }

    /// Membership test: `false` means the key is definitely absent;
    /// `true` means it may be present.
    #[inline]
    pub fn contains(&self, h: u64) -> bool {
        (0..K).all(|i| {
            let p = self.probe(h, i);
            self.bits[(p / 64) as usize] & (1u64 << (p % 64)) != 0
        })
    }

    /// Number of inserted keys.
    pub fn keys(&self) -> u64 {
        self.keys
    }

    /// Bitmap size in bits.
    pub fn nbits(&self) -> usize {
        self.bits.len() * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(x: u64) -> u64 {
        // splitmix64 finisher: independent from the filter's probe mixer.
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
        for i in 0..10_000u64 {
            b.insert(mix(i));
        }
        let fp = (10_000..110_000u64).filter(|&i| b.contains(mix(i))).count();
        // ~1% by design; allow generous slack for hash luck.
        assert!(fp < 5_000, "false-positive rate too high: {fp}/100000");
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
