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
//!   [`SPILL_FANOUT`] buffered partition files by a depth-seeded fold of
//!   the rows' key hashes ([`monetlite_storage::hash::hash_rows`], the
//!   hashes the join table and the blooms use). Re-seeding by depth lets
//!   an oversized partition be split again ([`MAX_SPILL_DEPTH`] caps the
//!   recursion).
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

/// Fan-out of one hash-partitioning pass.
pub const SPILL_FANOUT: usize = 16;

/// Maximum re-partitioning depth. A partition that still exceeds the
/// budget after this many re-seeded splits is processed in memory anyway
/// (the alternative is unbounded recursion on pathological key sets, e.g.
/// a single group larger than the budget).
pub const MAX_SPILL_DEPTH: u32 = 4;

/// Buffered bytes per partition before a flush to its file.
const PART_FLUSH_BYTES: usize = 256 * 1024;

/// Partition id of a row with key hash `hash` at a given recursion depth.
/// The seed is folded over the hash so rows that collided into one
/// partition at depth `d` scatter differently at depth `d + 1`.
pub(crate) fn partition_of(hash: u64, depth: u32) -> usize {
    let h = hash ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(depth as u64 + 1);
    (h.wrapping_mul(0xD1B5_4A32_D192_ED03) >> 33) as usize % SPILL_FANOUT
}

/// Lazily created spill directory, one per [`crate::exec::ExecContext`].
/// The directory (and every file still in it) is removed when the
/// context is dropped — spill state never outlives its query.
pub(crate) struct SpillDir {
    dir: Mutex<Option<Arc<tempfile::TempDir>>>,
    next: AtomicU64,
    /// Bytes written by every file of this directory, against `quota`.
    used: Arc<AtomicU64>,
    /// Per-query temp-disk cap (`MONETLITE_SPILL_QUOTA`); exceeding it
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
        let compact: Vec<Option<Bat>> = cols.iter().map(|c| crate::host::compacted(c)).collect();
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
/// dropped so re-partitioning recursion does not accumulate dead files.
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
    buffered: usize,
    file: Option<SpillFile>,
}

impl PartBuf {
    fn append(&mut self, dir: &SpillDir, gathered: &Chunk) -> Result<()> {
        let bufs = self.bufs.get_or_insert_with(|| {
            gathered.cols.iter().map(|c| Bat::new(c.logical_type())).collect()
        });
        for (dst, src) in bufs.iter_mut().zip(&gathered.cols) {
            dst.append_bat(src)?;
        }
        self.buffered += gathered.mem_bytes();
        if self.buffered >= PART_FLUSH_BYTES {
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
        self.buffered = 0;
        Ok(())
    }
}

/// Hash-partitions vectors into [`SPILL_FANOUT`] spill files by the
/// depth-seeded hash of their key columns.
pub(crate) struct PartitionWriter {
    parts: Vec<PartBuf>,
    depth: u32,
}

impl PartitionWriter {
    /// Empty writer partitioning at the given recursion depth.
    pub fn new(depth: u32) -> PartitionWriter {
        PartitionWriter { parts: (0..SPILL_FANOUT).map(|_| PartBuf::default()).collect(), depth }
    }

    /// Route every row of `chunk` to its partition. `hashes` are the
    /// rows' key hashes ([`monetlite_storage::hash::hash_rows`] over the
    /// partitioning key columns), aligned with the chunk's rows.
    pub fn route(&mut self, dir: &SpillDir, chunk: &Chunk, hashes: &[u64]) -> Result<()> {
        debug_assert_eq!(hashes.len(), chunk.rows);
        let mut sels: Vec<Vec<u32>> = vec![Vec::new(); SPILL_FANOUT];
        for (row, &h) in hashes.iter().enumerate() {
            sels[partition_of(h, self.depth)].push(row as u32);
        }
        for (p, sel) in sels.iter().enumerate() {
            if sel.is_empty() {
                continue;
            }
            let gathered = if sel.len() == chunk.rows { chunk.clone() } else { chunk.take(sel) };
            self.parts[p].append(dir, &gathered)?;
        }
        Ok(())
    }

    /// Flush all buffers and return the partition files (`None` for
    /// partitions that never received a row) plus total bytes written.
    pub fn finish(mut self, dir: &SpillDir) -> Result<(Vec<Option<SpillFile>>, u64)> {
        let mut out = Vec::with_capacity(SPILL_FANOUT);
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
        let mut w = PartitionWriter::new(0);
        let n = 10_000;
        let c = chunk((0..n).collect());
        let hashes = hash_rows(&[&*c.cols[0]], None);
        w.route(&dir, &c, &hashes).unwrap();
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
    fn reseeded_depth_splits_a_partition() {
        // All rows of one depth-0 partition must scatter at depth 1.
        let hashes = hash_rows(&[&Bat::Int((0..100_000).collect())], None);
        let target = partition_of(hashes[0], 0);
        let mut depth1 = std::collections::HashSet::new();
        for &h in &hashes {
            if partition_of(h, 0) == target {
                depth1.insert(partition_of(h, 1));
            }
        }
        assert!(depth1.len() > 1, "re-seeded hash must split the partition");
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
