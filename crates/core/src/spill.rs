//! Disk spilling for pipeline breakers (out-of-core execution).
//!
//! MonetDBLite runs *inside* the host process and shares memory with the
//! analytical environment (paper §1), so operators whose transient state
//! outgrows the memory budget must degrade gracefully instead of OOMing
//! the host. This module provides the low-level machinery the streaming
//! engine's breakers use when [`crate::exec::ExecContext::spill_budget`]
//! is exceeded:
//!
//! * [`SpillDir`] — a lazily created per-execution temp directory; every
//!   spill file lives (and dies) with the query.
//! * [`SpillFile`] / [`SpillReader`] — append-only sequences of column
//!   frames, reusing the column-file BAT encoding of
//!   [`monetlite_storage::persist`].
//! * [`PartitionWriter`] — hash-partitions incoming vectors into
//!   buffered partition files by the rows' key hashes
//!   ([`monetlite_storage::hash::hash_rows`], the hashes the join table
//!   and the blooms use). A spilling breaker partitions once: the
//!   fan-out comes from the bytes it must shed ([`fanout`]), sized
//!   before the first row is routed, the way a Grace hash join sizes its
//!   partition count from |R| / M. No partition is split again; one
//!   still over budget (a key heavier than the budget, or a low
//!   estimate) is processed in memory.
//!
//! The orchestration — spillable hash aggregation, grace hash join and
//! external merge sort — lives in [`crate::pipeline`].

use crate::exec::Chunk;
use monetlite_storage::fault;
use monetlite_storage::persist::{read_chunk_frame, write_chunk_frame};
use monetlite_storage::Bat;
use monetlite_types::{MlError, Result};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Largest fan-out of one partitioning pass. It bounds the spill files
/// a grace join holds open at once (one per partition on each side).
pub const MAX_FANOUT: usize = 256;

/// Buffered bytes per partition before a flush to its file.
const PART_FLUSH_BYTES: usize = 256 * 1024;

/// Fan-out of one partitioning pass over `bytes` of state under
/// `budget`: the smallest power of two `F >= 2` with
/// `bytes <= F * budget`, clamped at [`MAX_FANOUT`].
pub(crate) fn fanout(bytes: usize, budget: usize) -> usize {
    bytes.div_ceil(budget.max(1)).min(MAX_FANOUT).next_power_of_two().max(2)
}

/// Partition id of a row with key hash `hash` among `fanout` (a power of
/// two) partitions. The bits come from a product with a multiplier other
/// than the one whose top bits pick a [`monetlite_storage::hash::HashTable`]
/// bucket, so the rows of one partition still spread over every bucket
/// of the table built on them.
pub(crate) fn partition_of(hash: u64, fanout: usize) -> usize {
    debug_assert!(fanout.is_power_of_two());
    (hash.wrapping_mul(0xD1B5_4A32_D192_ED03) >> 32) as usize & (fanout - 1)
}

/// Lazily created spill directory, one per [`crate::exec::ExecContext`].
/// The directory (and every file still in it) is removed when the
/// context is dropped — spill state never outlives its query.
pub(crate) struct SpillDir {
    dir: Mutex<Option<Arc<tempfile::TempDir>>>,
    next: AtomicU64,
    /// Bytes written by every file of this directory, against `quota`.
    used: Arc<AtomicU64>,
    /// Per-query temp-disk cap (`ExecOptions::spill_quota`); exceeding it
    /// aborts the owning query with [`MlError::SpillQuota`].
    quota: u64,
}

impl Default for SpillDir {
    fn default() -> Self {
        SpillDir {
            dir: Mutex::new(None),
            next: AtomicU64::new(0),
            used: Arc::new(AtomicU64::new(0)),
            quota: u64::MAX,
        }
    }
}

impl SpillDir {
    /// A directory whose files may hold at most `quota` bytes in total.
    pub fn with_quota(quota: u64) -> SpillDir {
        SpillDir { quota, ..SpillDir::default() }
    }

    /// A fresh unique file path inside the (lazily created) directory.
    fn fresh_path(&self) -> Result<PathBuf> {
        // Poison recovery is sound here: the slot is a single lazily set
        // Option, so no panic can leave it half-updated.
        let mut g = self.dir.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let dir = match &*g {
            Some(d) => d.clone(),
            None => {
                fault::hit("spill.tempdir")?;
                let d = Arc::new(tempfile::tempdir()?);
                *g = Some(d.clone());
                d
            }
        };
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        Ok(dir.path().join(format!("spill-{n}.bin")))
    }

    /// Create a new spill file.
    pub fn file(&self) -> Result<SpillFile> {
        let path = self.fresh_path()?;
        let w = BufWriter::new(fault::create("spill.create", &path)?);
        Ok(SpillFile {
            path,
            w: Some(w),
            bytes: 0,
            rows: 0,
            used: self.used.clone(),
            quota: self.quota,
        })
    }
}

/// An append-only sequence of column frames on disk.
pub(crate) struct SpillFile {
    path: PathBuf,
    w: Option<BufWriter<File>>,
    /// Bytes written so far (drives the `spill_bytes` counter).
    pub bytes: u64,
    /// Rows written so far.
    pub rows: u64,
    /// Shared byte counter of the owning [`SpillDir`].
    used: Arc<AtomicU64>,
    /// Copy of the owning directory's quota.
    quota: u64,
}

impl SpillFile {
    /// Append one frame of aligned columns. Fails with
    /// [`MlError::SpillQuota`] when the query's cumulative spill volume
    /// exceeds the directory's quota.
    ///
    /// A frame holds its VARCHAR columns' whole heaps, and a column
    /// gathered out of a table shares that table's heap, so a string
    /// column whose heap exceeds [`crate::host::MAX_HEAP_PIN_RATIO`] times
    /// the bytes its rows hold is first re-interned into a heap of its
    /// own, the rule a zero-copy host import applies.
    pub fn write(&mut self, cols: &[&Bat]) -> Result<u64> {
        let w = self
            .w
            .as_mut()
            .ok_or_else(|| MlError::Execution("write into sealed spill file".into()))?;
        let compact: Vec<Option<Bat>> = cols.iter().map(|c| c.compacted()).collect();
        let cols: Vec<&Bat> =
            cols.iter().zip(&compact).map(|(&c, own)| own.as_ref().unwrap_or(c)).collect();
        let n = write_chunk_frame(w, &cols)?;
        self.bytes += n;
        self.rows += cols.first().map_or(0, |c| c.len()) as u64;
        let used = self.used.fetch_add(n, Ordering::Relaxed) + n;
        if used > self.quota {
            return Err(MlError::SpillQuota { used, quota: self.quota });
        }
        Ok(n)
    }

    /// Seal the file and reopen it for sequential reads. The underlying
    /// file is deleted when the reader is dropped.
    pub fn into_reader(mut self) -> Result<SpillReader> {
        let res = (|| -> Result<BufReader<File>> {
            if let Some(mut w) = self.w.take() {
                fault::flush("spill.seal.flush", &mut w)?;
            }
            Ok(BufReader::new(fault::open("spill.open", &self.path)?))
        })();
        match res {
            Ok(r) => Ok(SpillReader { r, path: std::mem::take(&mut self.path) }),
            // `self` still owns the path: its Drop removes the partial
            // file, so a failed seal leaves nothing behind.
            Err(e) => Err(e),
        }
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        // Reached only on error paths: a successful `into_reader` moved
        // the path out. Remove the partial file now instead of letting it
        // sit until the whole SpillDir goes away (a long-lived context
        // could otherwise pin dead bytes for its entire session).
        if !self.path.as_os_str().is_empty() {
            self.w = None;
            let _ = fault::remove_file("spill.remove", &self.path);
        }
    }
}

/// Sequential reader over a sealed [`SpillFile`]; removes the file when
/// dropped, so a partition's file is gone once it has been joined or
/// aggregated.
pub(crate) struct SpillReader {
    r: BufReader<File>,
    path: PathBuf,
}

impl SpillReader {
    /// The next frame as a chunk, or `None` at end of file.
    pub fn next(&mut self) -> Result<Option<Chunk>> {
        match read_chunk_frame(&mut self.r)? {
            None => Ok(None),
            Some(cols) => {
                let rows = cols.first().map_or(0, |c| c.len());
                Ok(Some(Chunk::dense(cols.into_iter().map(Arc::new).collect(), rows)))
            }
        }
    }
}

impl Drop for SpillReader {
    fn drop(&mut self) {
        let _ = fault::remove_file("spill.remove", &self.path);
    }
}

/// One partition's buffered tail: rows accumulate in memory and flush to
/// the partition file in coarse frames (frame-per-vector files would pay
/// per-row framing overhead).
#[derive(Default)]
struct PartBuf {
    bufs: Option<Vec<Bat>>,
    file: Option<SpillFile>,
}

impl PartBuf {
    /// Gather the rows `sel` of `chunk` into the buffers, which hold
    /// compact heaps of their own, and flush once the bytes they own reach
    /// [`PART_FLUSH_BYTES`]. A table heap the routed columns share does not
    /// count: it is neither buffered nor written.
    fn append(&mut self, dir: &SpillDir, chunk: &Chunk, sel: &[u32]) -> Result<()> {
        let bufs = self
            .bufs
            .get_or_insert_with(|| chunk.cols.iter().map(|c| Bat::new(c.logical_type())).collect());
        for (dst, src) in bufs.iter_mut().zip(&chunk.cols) {
            dst.append_rows(src, sel)?;
        }
        if bufs.iter().map(Bat::mem_bytes).sum::<usize>() >= PART_FLUSH_BYTES {
            self.flush(dir)?;
        }
        Ok(())
    }

    fn flush(&mut self, dir: &SpillDir) -> Result<()> {
        let Some(bufs) = self.bufs.take() else {
            return Ok(());
        };
        if bufs.first().is_none_or(|b| b.is_empty()) {
            return Ok(());
        }
        let file = match &mut self.file {
            Some(f) => f,
            slot => slot.insert(dir.file()?),
        };
        let refs: Vec<&Bat> = bufs.iter().collect();
        file.write(&refs)?;
        Ok(())
    }
}

/// Hash-partitions vectors into a fixed number of spill files by the hash
/// of their key columns ([`partition_of`]).
pub(crate) struct PartitionWriter {
    parts: Vec<PartBuf>,
}

impl PartitionWriter {
    /// Empty writer over `fanout` partitions, a power of two (see
    /// [`fanout`]).
    pub fn new(fanout: usize) -> PartitionWriter {
        PartitionWriter { parts: (0..fanout).map(|_| PartBuf::default()).collect() }
    }

    /// Route rows of the dense `chunk`, given as (row, key hash) pairs, to
    /// their partitions. The hashes are
    /// [`monetlite_storage::hash::hash_rows`] over the partitioning key
    /// columns.
    pub fn route(
        &mut self,
        dir: &SpillDir,
        chunk: &Chunk,
        rows: impl IntoIterator<Item = (u32, u64)>,
    ) -> Result<()> {
        debug_assert!(chunk.sel.is_none(), "routed chunks are dense");
        let fanout = self.parts.len();
        let mut sels: Vec<Vec<u32>> = vec![Vec::new(); fanout];
        for (row, h) in rows {
            sels[partition_of(h, fanout)].push(row);
        }
        for (part, sel) in self.parts.iter_mut().zip(&sels) {
            if !sel.is_empty() {
                part.append(dir, chunk, sel)?;
            }
        }
        Ok(())
    }

    /// Flush all buffers and return the partition files (`None` for
    /// partitions that never received a row) plus total bytes written.
    pub fn finish(mut self, dir: &SpillDir) -> Result<(Vec<Option<SpillFile>>, u64)> {
        let mut out = Vec::with_capacity(self.parts.len());
        let mut total = 0u64;
        for part in self.parts.iter_mut() {
            part.flush(dir)?;
            let f = part.file.take();
            if let Some(f) = &f {
                total += f.bytes;
            }
            out.push(f);
        }
        Ok((out, total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monetlite_storage::hash::hash_rows;
    use monetlite_types::Value;

    fn chunk(vals: Vec<i32>) -> Chunk {
        let rows = vals.len();
        Chunk::dense(vec![Arc::new(Bat::Int(vals))], rows)
    }

    #[test]
    fn spill_file_roundtrips_chunks() {
        let dir = SpillDir::default();
        let mut f = dir.file().unwrap();
        f.write(&[&Bat::Int(vec![1, 2, 3])]).unwrap();
        f.write(&[&Bat::Int(vec![4])]).unwrap();
        assert!(f.bytes > 0);
        assert_eq!(f.rows, 4);
        let mut r = f.into_reader().unwrap();
        assert_eq!(r.next().unwrap().unwrap().rows, 3);
        let c2 = r.next().unwrap().unwrap();
        assert_eq!(c2.cols[0].get(0), Value::Int(4));
        assert!(r.next().unwrap().is_none());
    }

    #[test]
    fn partitions_cover_input_exactly_once() {
        let dir = SpillDir::default();
        let mut w = PartitionWriter::new(16);
        let n = 10_000;
        let c = chunk((0..n).collect());
        let hashes = hash_rows(&[&*c.cols[0]], None);
        // Two calls, the second starting mid-chunk.
        w.route(&dir, &c, (0..).zip(hashes[..4_000].iter().copied())).unwrap();
        w.route(&dir, &c, (4_000..).zip(hashes[4_000..].iter().copied())).unwrap();
        let (parts, bytes) = w.finish(&dir).unwrap();
        assert!(bytes > 0);
        let mut seen = Vec::new();
        let mut nonempty = 0;
        for f in parts.into_iter().flatten() {
            nonempty += 1;
            let mut r = f.into_reader().unwrap();
            while let Some(c) = r.next().unwrap() {
                for i in 0..c.rows {
                    match c.cols[0].get(i) {
                        Value::Int(v) => seen.push(v),
                        v => panic!("unexpected {v:?}"),
                    }
                }
            }
        }
        assert!(nonempty > 1, "10k distinct keys should span partitions");
        seen.sort_unstable();
        assert_eq!(seen, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn fanout_is_the_smallest_power_of_two_that_covers_the_bytes() {
        let budget = 24 * 1024;
        for bytes in [0, 1, budget, budget + 1, 3 * budget, 100 * budget, 255 * budget + 7] {
            let f = fanout(bytes, budget);
            assert!(f.is_power_of_two() && f >= 2, "{bytes}: {f}");
            assert!(bytes <= f * budget, "{bytes}: {f} partitions of {budget} do not cover it");
            assert!(f == 2 || bytes > f / 2 * budget, "{bytes}: {f} is not the smallest");
        }
        assert_eq!(fanout(256 * budget + 1, budget), MAX_FANOUT);
        assert_eq!(fanout(usize::MAX, 1), MAX_FANOUT);
        assert_eq!(fanout(usize::MAX, 0), MAX_FANOUT);
        assert_eq!(fanout(1 << 20, usize::MAX), 2);
    }

    #[test]
    fn partition_bits_are_independent_of_hash_table_buckets() {
        // The rows of one partition must still spread over the buckets a
        // `HashTable` built on them picks by the top bits of
        // `hash * 0x9E37_79B9_7F4A_7C15`, or every chain of that table
        // would be `fanout` times longer.
        let hashes = hash_rows(&[&Bat::Int((0..200_000).collect())], None);
        let fanout = MAX_FANOUT;
        let bucket_bits = 8;
        let mut buckets = std::collections::HashSet::new();
        let mut rows = 0;
        for &h in &hashes {
            if partition_of(h, fanout) == 3 {
                rows += 1;
                buckets.insert(h.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bucket_bits));
            }
        }
        assert!(rows > 200_000 / fanout / 2, "partition 3 holds {rows} rows");
        // ~780 rows thrown at random reach ~244 buckets.
        assert!(buckets.len() > 220, "one partition reaches {} of 256 buckets", buckets.len());
        // And the partitions themselves are balanced.
        let mut sizes = vec![0usize; fanout];
        for &h in &hashes {
            sizes[partition_of(h, fanout)] += 1;
        }
        let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(*lo > 0 && hi / lo < 2, "partition sizes {lo}..{hi}");
    }

    #[test]
    fn partitions_flush_on_owned_bytes_not_a_shared_heap() {
        // 8,192 distinct 200-byte strings in one heap of ~1.6 MiB, routed
        // as 128-row gathers that share it, the way a scan's VARCHAR
        // column reaches a spilling breaker.
        let mut col = Bat::new(monetlite_types::LogicalType::Varchar);
        for i in 0..8_192 {
            col.push(&Value::Str(format!("{i:0>200}"))).unwrap();
        }
        let Bat::Varchar { heap, .. } = &col else { unreachable!() };
        assert!(heap.size_bytes() >= 1 << 20);
        let col = Arc::new(col);
        let dir = SpillDir::default();
        let mut w = PartitionWriter::new(2);
        for lo in (0..8_192u32).step_by(128) {
            let sel: Vec<u32> = (lo..lo + 128).collect();
            let c = Chunk::dense(vec![Arc::new(col.take(&sel))], sel.len());
            let hashes = hash_rows(&[&*c.cols[0]], None);
            w.route(&dir, &c, (0..).zip(hashes)).unwrap();
        }
        let (parts, _) = w.finish(&dir).unwrap();
        let mut rows = 0;
        for f in parts.into_iter().flatten() {
            let written = f.bytes as usize;
            let mut frames = 0;
            let mut r = f.into_reader().unwrap();
            while let Some(c) = r.next().unwrap() {
                frames += 1;
                rows += c.rows;
            }
            // A partition's buffers own at most twice what they write
            // (capacity doubling, the dedup table), so a flush at
            // `PART_FLUSH_BYTES` owned writes at least half of it; only
            // the last frame may be smaller.
            assert!(frames >= 2, "{written} bytes in {frames} frame");
            assert!(
                frames <= 1 + 2 * written / PART_FLUSH_BYTES,
                "{written} bytes in {frames} frames: a shared heap counted toward the flush"
            );
        }
        assert_eq!(rows, 8_192);
    }

    // -----------------------------------------------------------------
    // Reader robustness: a damaged spill file must surface as an error
    // from `SpillReader::next`, never a panic or a misread — the same
    // corruption discipline the persistent sidecars follow.
    // -----------------------------------------------------------------

    /// Write one valid frame, let `mangle` damage the raw bytes, then
    /// read it back through a [`SpillReader`].
    fn read_mangled(mangle: impl Fn(&mut Vec<u8>)) -> Result<Option<Chunk>> {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("frame.bin");
        let mut buf = Vec::new();
        write_chunk_frame(&mut buf, &[&Bat::Int(vec![1, 2, 3, 4])]).unwrap();
        mangle(&mut buf);
        std::fs::write(&path, &buf).unwrap();
        let mut r =
            SpillReader { r: BufReader::new(File::open(&path).unwrap()), path: path.clone() };
        r.next()
    }

    #[test]
    fn truncated_frame_header_is_an_error() {
        // EOF in the middle of the length header is not a clean end.
        let res = read_mangled(|buf| buf.truncate(4));
        assert!(res.is_err(), "partial frame header must error, got {res:?}");
    }

    #[test]
    fn corrupt_frame_length_is_an_error() {
        // A length field past the sanity bound must be rejected before
        // any allocation or payload read.
        let res = read_mangled(|buf| buf[..8].copy_from_slice(&u64::MAX.to_le_bytes()));
        assert!(res.is_err(), "absurd frame length must error, got {res:?}");
        // A plausible length that overruns the actual payload must fail
        // the payload read, not misparse trailing garbage.
        let res = read_mangled(|buf| {
            let claimed = (buf.len() as u64) + 64;
            buf[..8].copy_from_slice(&claimed.to_le_bytes());
        });
        assert!(res.is_err(), "overlong frame length must error, got {res:?}");
    }

    #[test]
    fn short_read_mid_frame_is_an_error() {
        let res = read_mangled(|buf| {
            let n = buf.len();
            buf.truncate(n - 3);
        });
        assert!(res.is_err(), "short read mid-frame must error, got {res:?}");
    }

    #[test]
    fn valid_frame_then_truncated_frame_errors_on_the_second() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("frames.bin");
        let mut buf = Vec::new();
        write_chunk_frame(&mut buf, &[&Bat::Int(vec![1, 2])]).unwrap();
        let first_len = buf.len();
        write_chunk_frame(&mut buf, &[&Bat::Int(vec![3, 4])]).unwrap();
        buf.truncate(first_len + 9); // header + 1 byte of the second frame
        std::fs::write(&path, &buf).unwrap();
        let mut r =
            SpillReader { r: BufReader::new(File::open(&path).unwrap()), path: path.clone() };
        assert_eq!(r.next().unwrap().unwrap().rows, 2, "first frame intact");
        assert!(r.next().is_err(), "truncated second frame must error");
    }

    #[test]
    fn quota_exceeded_fails_the_write_with_both_numbers() {
        let dir = SpillDir::with_quota(16);
        let mut f = dir.file().unwrap();
        let err = f.write(&[&Bat::Int((0..1000).collect())]).unwrap_err();
        match err {
            MlError::SpillQuota { used, quota } => {
                assert_eq!(quota, 16);
                assert!(used > 16, "used {used} must exceed the quota");
            }
            e => panic!("unexpected {e:?}"),
        }
    }

    #[test]
    fn quota_is_shared_across_files_of_one_directory() {
        let dir = SpillDir::with_quota(100);
        let mut a = dir.file().unwrap();
        let mut b = dir.file().unwrap();
        // Each file stays under the cap on its own; together they cross it.
        a.write(&[&Bat::Int((0..15).collect())]).unwrap();
        let err = b.write(&[&Bat::Int((0..15).collect())]).unwrap_err();
        assert!(matches!(err, MlError::SpillQuota { .. }), "unexpected {err:?}");
    }

    #[test]
    fn dropped_unsealed_file_is_removed() {
        let dir = SpillDir::default();
        let mut f = dir.file().unwrap();
        f.write(&[&Bat::Int(vec![1])]).unwrap();
        let path = f.path.clone();
        assert!(path.exists());
        drop(f);
        assert!(!path.exists(), "error-path spill file removed on drop");
    }

    #[test]
    fn readers_remove_their_files() {
        let dir = SpillDir::default();
        let mut f = dir.file().unwrap();
        f.write(&[&Bat::Int(vec![1])]).unwrap();
        let path = f.path.clone();
        let r = f.into_reader().unwrap();
        assert!(path.exists());
        drop(r);
        assert!(!path.exists(), "spill file removed when reader drops");
    }
}
