//! On-disk column-file format and binary (de)serialisation of BATs.
//!
//! Layout of a column file:
//!
//! ```text
//! [magic "MLB2"][endian u16 = 0xBEEF][bat payload][checksum u64 (lane_sum)]
//! ```
//!
//! The same BAT payload encoding is reused by the write-ahead log for
//! append records. Fixed-width arrays are written as raw native-endian
//! bytes (the endian marker detects foreign files and reports
//! [`MlError::Corrupt`] instead of misreading them); VARCHAR columns write
//! the offsets array followed by the raw heap.
//!
//! Column files are the bulk of a checkpoint's bytes, so their checksum is
//! the word-wise [`LaneSum`] (computed while the file streams out; the
//! WAL's bulk `Append` frames use it too) rather than the byte-serial
//! FNV-1a the small catalog and sidecar files keep.

use crate::bat::Bat;
use crate::dict::StrDict;
use crate::fault;
use crate::heap::StringHeap;
use crate::index::{fnv1a, Zonemap};
use crate::stats::{ColumnStats, NdvSketch, HLL_REGS};
use monetlite_types::{MlError, Result};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

// Bumped MLB1 -> MLB2 when the trailing checksum changed from FNV-1a to
// `lane_sum`: an old-format file must fail with a clear "bad magic"
// instead of a checksum mismatch that reads like corruption.
const MAGIC: &[u8; 4] = b"MLB2";
/// Zonemap sidecar magic ([`write_zonemap_file`]).
const ZM_MAGIC: &[u8; 4] = b"MLZ1";
/// Column-statistics sidecar magic ([`write_stats_file`]).
const ST_MAGIC: &[u8; 4] = b"MLS1";
/// String-dictionary sidecar magic ([`write_dict_file`]).
const DC_MAGIC: &[u8; 4] = b"MLD1";
const ENDIAN_MARK: u16 = 0xBEEF;

/// Sanity cap on any decoded length field (a corrupt length must not
/// trigger an enormous allocation).
const MAX_LEN: u64 = 1 << 34;

const TAG_BOOL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_BIGINT: u8 = 2;
const TAG_DOUBLE: u8 = 3;
const TAG_DECIMAL: u8 = 4;
const TAG_VARCHAR: u8 = 5;
const TAG_DATE: u8 = 6;

/// Marker for the plain-old-data numeric types the column format stores.
/// Sealed to exactly these primitives so the raw-slice casts below carry
/// a *compiler-checked* precondition instead of a convention: every
/// implementor has no padding, no invalid bit patterns, and no drop glue.
trait Pod: Copy + Default {}
impl Pod for i8 {}
impl Pod for i32 {}
impl Pod for u32 {}
impl Pod for i64 {}
impl Pod for u64 {}
impl Pod for f64 {}

/// View a POD slice as raw bytes (native endian).
fn pod_bytes<T: Pod>(v: &[T]) -> &[u8] {
    // SAFETY: the sealed `Pod` bound restricts `T` to primitive numerics
    // (i8/i32/u32/i64/u64/f64): no padding bytes, so every byte of the
    // slice is initialized; the pointer and length come from a live
    // borrow of `v`, so the view is in-bounds and outlives nothing.
    unsafe { std::slice::from_raw_parts(v.as_ptr() as *const u8, std::mem::size_of_val(v)) }
}

fn read_pod_vec<T: Pod>(r: &mut impl Read, len: usize) -> Result<Vec<T>> {
    let mut v = vec![T::default(); len];
    // SAFETY: the buffer is fully initialized by `vec!` before being
    // exposed as bytes, and the sealed `Pod` bound guarantees any byte
    // pattern written into it is a valid `T` (primitive numerics have no
    // invalid bit patterns); length is exactly the allocation's size.
    let bytes = unsafe {
        std::slice::from_raw_parts_mut(v.as_mut_ptr() as *mut u8, len * std::mem::size_of::<T>())
    };
    r.read_exact(bytes)?;
    Ok(v)
}

/// Four-lane word-wise checksum: each 32-byte block feeds one
/// little-endian `u64` to each of four independent FNV-1a-style lanes
/// (xor, multiply by an odd constant), so the multiplies overlap instead
/// of forming the one dependency chain per *byte* of [`fnv1a`]. Every step
/// is a bijection of its lane and the final fold is a bijection in each
/// lane, so any change confined to one word — a flipped byte, say — always
/// changes the sum. Streaming: the sum does not depend on how the input is
/// cut into [`LaneSum::update`] calls.
pub struct LaneSum {
    lanes: [u64; 4],
    /// Bytes of an incomplete block, carried to the next `update`.
    pending: [u8; 32],
    pending_len: usize,
    total: u64,
}

const LANE_SEEDS: [u64; 4] =
    [0xcbf2_9ce4_8422_2325, 0x9e37_79b9_7f4a_7c15, 0xbf58_476d_1ce4_e5b9, 0x94d0_49bb_1331_11eb];
const LANE_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for LaneSum {
    fn default() -> Self {
        LaneSum { lanes: LANE_SEEDS, pending: [0; 32], pending_len: 0, total: 0 }
    }
}

impl LaneSum {
    #[inline]
    fn block(lanes: &mut [u64; 4], block: &[u8]) {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
            *lane = (*lane ^ word).wrapping_mul(LANE_PRIME);
        }
    }

    /// Feed more bytes.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = bytes.len().min(32 - self.pending_len);
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < 32 {
                return;
            }
            Self::block(&mut self.lanes, &self.pending);
            self.pending_len = 0;
        }
        let mut lanes = self.lanes;
        let mut blocks = bytes.chunks_exact(32);
        for block in &mut blocks {
            Self::block(&mut lanes, block);
        }
        self.lanes = lanes;
        let rest = blocks.remainder();
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    /// The checksum of everything fed so far: the last partial block is
    /// zero-padded and the byte count folded in, so trailing zeros count.
    pub fn finish(&self) -> u64 {
        let mut lanes = self.lanes;
        if self.pending_len > 0 {
            let mut last = [0u8; 32];
            last[..self.pending_len].copy_from_slice(&self.pending[..self.pending_len]);
            Self::block(&mut lanes, &last);
        }
        let folded = lanes.iter().fold(self.total, |h, lane| (h ^ lane).wrapping_mul(LANE_PRIME));
        crate::stats::mix64(folded)
    }
}

/// [`LaneSum`] of one contiguous buffer.
pub fn lane_sum(bytes: &[u8]) -> u64 {
    let mut sum = LaneSum::default();
    sum.update(bytes);
    sum.finish()
}

/// Hand the pieces of a BAT payload (tag, length, data) to `sink`, in
/// order, without assembling them: the bulk pieces are the column's own
/// arrays.
pub(crate) fn bat_parts(bat: &Bat, mut sink: impl FnMut(&[u8]) -> Result<()>) -> Result<()> {
    let (tag, len, data) = match bat {
        Bat::Bool(v) => (TAG_BOOL, v.len(), pod_bytes(v)),
        Bat::Int(v) => (TAG_INT, v.len(), pod_bytes(v)),
        Bat::Bigint(v) => (TAG_BIGINT, v.len(), pod_bytes(v)),
        Bat::Double(v) => (TAG_DOUBLE, v.len(), pod_bytes(v)),
        Bat::Decimal { data, .. } => (TAG_DECIMAL, data.len(), pod_bytes(data)),
        Bat::Varchar { offsets, .. } => (TAG_VARCHAR, offsets.len(), pod_bytes(offsets)),
        Bat::Date(v) => (TAG_DATE, v.len(), pod_bytes(v)),
    };
    // Tag, the decimal scale if any, then the row count.
    let mut header = [0u8; 10];
    header[0] = tag;
    let at = match bat {
        Bat::Decimal { scale, .. } => {
            header[1] = *scale;
            2
        }
        _ => 1,
    };
    header[at..at + 8].copy_from_slice(&(len as u64).to_le_bytes());
    sink(&header[..at + 8])?;
    sink(data)?;
    if let Bat::Varchar { heap, .. } = bat {
        let raw = heap.raw();
        sink(&(raw.len() as u64).to_le_bytes())?;
        sink(raw)?;
    }
    Ok(())
}

/// Serialise a BAT payload (tag, length, data) into `out`.
pub fn encode_bat(out: &mut Vec<u8>, bat: &Bat) {
    let appended = bat_parts(bat, |part| {
        out.extend_from_slice(part);
        Ok(())
    });
    debug_assert!(appended.is_ok(), "appending to a Vec cannot fail");
}

fn read_u64(r: &mut impl Read) -> Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_u8(r: &mut impl Read) -> Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

/// Deserialise one BAT payload from `r`. Lengths are sanity-capped so a
/// corrupt length cannot trigger an enormous allocation.
pub fn decode_bat(r: &mut impl Read) -> Result<Bat> {
    let tag = read_u8(r)?;
    let scale = if tag == TAG_DECIMAL { read_u8(r)? } else { 0 };
    let len = read_u64(r)?;
    if len > MAX_LEN {
        return Err(MlError::Corrupt(format!("column length {len} exceeds sanity bound")));
    }
    let len = len as usize;
    Ok(match tag {
        TAG_BOOL => Bat::Bool(read_pod_vec(r, len)?),
        TAG_INT => Bat::Int(read_pod_vec(r, len)?),
        TAG_BIGINT => Bat::Bigint(read_pod_vec(r, len)?),
        TAG_DOUBLE => Bat::Double(read_pod_vec(r, len)?),
        TAG_DECIMAL => Bat::Decimal { data: read_pod_vec(r, len)?, scale },
        TAG_VARCHAR => {
            let offsets: Vec<u32> = read_pod_vec(r, len)?;
            let heap_len = read_u64(r)?;
            if heap_len > MAX_LEN {
                return Err(MlError::Corrupt("heap length exceeds sanity bound".into()));
            }
            let mut heap = vec![0u8; heap_len as usize];
            r.read_exact(&mut heap)?;
            for &o in &offsets {
                if o as u64 + 4 > heap_len && o != 0 {
                    return Err(MlError::Corrupt(format!("string offset {o} out of heap")));
                }
            }
            Bat::Varchar { offsets, heap: StringHeap::from_raw(heap) }
        }
        TAG_DATE => Bat::Date(read_pod_vec(r, len)?),
        t => return Err(MlError::Corrupt(format!("unknown column tag {t}"))),
    })
}

/// Serialise a block of aligned columns as one length-prefixed frame —
/// the record format of execution-time spill files (pipeline breakers
/// writing partitions/runs to disk reuse the column-file BAT encoding).
/// Returns the number of bytes written.
pub fn write_chunk_frame(w: &mut impl Write, cols: &[&Bat]) -> Result<u64> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&(cols.len() as u32).to_le_bytes());
    for c in cols {
        encode_bat(&mut payload, c);
    }
    fault::write_all("spill.frame.write", w, &(payload.len() as u64).to_le_bytes())?;
    fault::write_all("spill.frame.write", w, &payload)?;
    Ok(8 + payload.len() as u64)
}

/// Read one frame written by [`write_chunk_frame`]. `Ok(None)` signals a
/// clean end-of-file (no partial frame bytes).
pub fn read_chunk_frame(r: &mut impl Read) -> Result<Option<Vec<Bat>>> {
    let mut lenb = [0u8; 8];
    let mut filled = 0usize;
    while filled < lenb.len() {
        match fault::read("spill.frame.read", r, &mut lenb[filled..]) {
            // EOF on a frame boundary is the clean end of the file; EOF
            // inside the header means the file was truncated mid-frame.
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(MlError::Corrupt("spill frame header truncated".into())),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let len = u64::from_le_bytes(lenb);
    if len > MAX_LEN {
        return Err(MlError::Corrupt(format!("spill frame length {len} exceeds sanity bound")));
    }
    let mut payload = vec![0u8; len as usize];
    fault::read_exact("spill.frame.read", r, &mut payload)?;
    let mut cursor = payload.as_slice();
    let mut nb = [0u8; 4];
    cursor.read_exact(&mut nb)?;
    let ncols = u32::from_le_bytes(nb) as usize;
    if ncols > 100_000 {
        return Err(MlError::Corrupt("spill frame too wide".into()));
    }
    let mut cols = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        cols.push(decode_bat(&mut cursor)?);
    }
    Ok(Some(cols))
}

/// Write a BAT to a column file (atomically: temp file + rename), the
/// checksum accumulating as the column's arrays stream out — no staged
/// copy of the payload. A failure anywhere removes the temp file — no
/// `.tmp` orphans survive an errored write.
pub fn write_column_file(path: &Path, bat: &Bat) -> Result<()> {
    let tmp = path.with_extension("tmp");
    let res = (|| -> Result<()> {
        let mut w = BufWriter::new(fault::create("persist.column.create", &tmp)?);
        fault::write_all("persist.column.write", &mut w, MAGIC)?;
        fault::write_all("persist.column.write", &mut w, &ENDIAN_MARK.to_ne_bytes())?;
        let mut sum = LaneSum::default();
        bat_parts(bat, |part| {
            sum.update(part);
            Ok(fault::write_all("persist.column.write", &mut w, part)?)
        })?;
        fault::write_all("persist.column.write", &mut w, &sum.finish().to_le_bytes())?;
        fault::flush("persist.column.flush", &mut w)?;
        drop(w);
        fault::rename("persist.column.rename", &tmp, path)?;
        Ok(())
    })();
    if res.is_err() {
        let _ = fault::remove_file("persist.column.cleanup", &tmp);
    }
    res
}

/// Read a BAT from a column file, validating magic, endianness and
/// checksum. Any failure is reported as [`MlError::Corrupt`] — never a
/// panic or abort (paper §3.4: a corrupt database must surface as an
/// error to the embedding process).
pub fn read_column_file(path: &Path) -> Result<Bat> {
    let mut r = BufReader::new(fault::open("persist.column.open", path)?);
    let mut magic = [0u8; 4];
    fault::read_exact("persist.column.read", &mut r, &mut magic)?;
    if &magic != MAGIC {
        return Err(MlError::Corrupt(format!("{}: bad magic", path.display())));
    }
    let mut em = [0u8; 2];
    fault::read_exact("persist.column.read", &mut r, &mut em)?;
    if u16::from_ne_bytes(em) != ENDIAN_MARK {
        return Err(MlError::Corrupt(format!("{}: foreign endianness", path.display())));
    }
    let mut rest = Vec::new();
    fault::read_to_end("persist.column.read", &mut r, &mut rest)?;
    if rest.len() < 8 {
        return Err(MlError::Corrupt(format!("{}: truncated", path.display())));
    }
    let (payload, ck) = rest.split_at(rest.len() - 8);
    if lane_sum(payload) != u64::from_le_bytes(ck.try_into().unwrap()) {
        return Err(MlError::Corrupt(format!("{}: checksum mismatch", path.display())));
    }
    let mut cursor = payload;
    decode_bat(&mut cursor)
}

// ---------------------------------------------------------------------------
// Zonemap sidecars
// ---------------------------------------------------------------------------

/// The sidecar path of a column file's zonemap (`<file>.zm`).
pub fn zonemap_sidecar(column_path: &Path) -> PathBuf {
    let mut os = column_path.as_os_str().to_os_string();
    os.push(".zm");
    PathBuf::from(os)
}

/// Write a zonemap sidecar:
/// `[magic "MLZ1"][endian][rows u64][nzones u64][mins][maxs][fnv checksum]`,
/// atomically via temp file + rename. Sidecars are pure caches — readers
/// fall back to rebuilding from the column on any validation failure.
pub fn write_zonemap_file(path: &Path, zm: &Zonemap) -> Result<()> {
    let tmp = path.with_extension("zmtmp");
    let res = (|| -> Result<()> {
        let mut w = BufWriter::new(fault::create("persist.zonemap.create", &tmp)?);
        let mut payload = Vec::with_capacity(16 + zm.n_zones() * 16);
        payload.extend_from_slice(&(zm.rows() as u64).to_le_bytes());
        payload.extend_from_slice(&(zm.n_zones() as u64).to_le_bytes());
        payload.extend_from_slice(pod_bytes(zm.mins()));
        payload.extend_from_slice(pod_bytes(zm.maxs()));
        fault::write_all("persist.zonemap.write", &mut w, ZM_MAGIC)?;
        fault::write_all("persist.zonemap.write", &mut w, &ENDIAN_MARK.to_ne_bytes())?;
        fault::write_all("persist.zonemap.write", &mut w, &payload)?;
        fault::write_all("persist.zonemap.write", &mut w, &fnv1a(&payload).to_le_bytes())?;
        fault::flush("persist.zonemap.flush", &mut w)?;
        drop(w);
        fault::rename("persist.zonemap.rename", &tmp, path)?;
        Ok(())
    })();
    if res.is_err() {
        let _ = fault::remove_file("persist.zonemap.cleanup", &tmp);
    }
    res
}

/// Read a zonemap sidecar, validating magic, endianness, checksum and
/// shape. Any failure is [`MlError::Corrupt`]; callers treat it as a
/// cache miss and rebuild from the column data.
pub fn read_zonemap_file(path: &Path) -> Result<Zonemap> {
    let mut r = BufReader::new(fault::open("persist.zonemap.open", path)?);
    let mut magic = [0u8; 4];
    fault::read_exact("persist.zonemap.read", &mut r, &mut magic)?;
    if &magic != ZM_MAGIC {
        return Err(MlError::Corrupt(format!("{}: bad zonemap magic", path.display())));
    }
    let mut em = [0u8; 2];
    fault::read_exact("persist.zonemap.read", &mut r, &mut em)?;
    if u16::from_ne_bytes(em) != ENDIAN_MARK {
        return Err(MlError::Corrupt(format!("{}: foreign endianness", path.display())));
    }
    let mut rest = Vec::new();
    fault::read_to_end("persist.zonemap.read", &mut r, &mut rest)?;
    if rest.len() < 8 {
        return Err(MlError::Corrupt(format!("{}: truncated zonemap", path.display())));
    }
    let (payload, ck) = rest.split_at(rest.len() - 8);
    if fnv1a(payload) != u64::from_le_bytes(ck.try_into().unwrap()) {
        return Err(MlError::Corrupt(format!("{}: zonemap checksum mismatch", path.display())));
    }
    let mut cursor = payload;
    let rows = read_u64(&mut cursor)?;
    let nz = read_u64(&mut cursor)?;
    if rows > MAX_LEN || nz > MAX_LEN {
        return Err(MlError::Corrupt("zonemap length exceeds sanity bound".into()));
    }
    let mins: Vec<i64> = read_pod_vec(&mut cursor, nz as usize)?;
    let maxs: Vec<i64> = read_pod_vec(&mut cursor, nz as usize)?;
    Zonemap::from_parts(rows as usize, mins, maxs)
        .ok_or_else(|| MlError::Corrupt(format!("{}: zonemap shape mismatch", path.display())))
}

// ---------------------------------------------------------------------------
// Column-statistics sidecars
// ---------------------------------------------------------------------------

/// The sidecar path of a column file's statistics (`<file>.st`).
pub fn stats_sidecar(column_path: &Path) -> PathBuf {
    let mut os = column_path.as_os_str().to_os_string();
    os.push(".st");
    PathBuf::from(os)
}

/// Write a column-statistics sidecar:
/// `[magic "MLS1"][endian][rows u64][nulls u64][has_range u8][min i64]
/// [max i64][nregs u64][registers][fnv checksum]`, atomically via temp
/// file + rename. Like zonemap sidecars these are pure caches — readers
/// fall back to rebuilding from the column on any validation failure.
pub fn write_stats_file(path: &Path, st: &ColumnStats) -> Result<()> {
    let tmp = path.with_extension("sttmp");
    let res = (|| -> Result<()> {
        let mut w = BufWriter::new(fault::create("persist.stats.create", &tmp)?);
        let regs = st.sketch.registers();
        let mut payload = Vec::with_capacity(41 + regs.len());
        payload.extend_from_slice(&(st.rows as u64).to_le_bytes());
        payload.extend_from_slice(&(st.nulls as u64).to_le_bytes());
        payload.push(st.has_range as u8);
        payload.extend_from_slice(&st.min_key.to_le_bytes());
        payload.extend_from_slice(&st.max_key.to_le_bytes());
        payload.extend_from_slice(&(regs.len() as u64).to_le_bytes());
        payload.extend_from_slice(regs);
        fault::write_all("persist.stats.write", &mut w, ST_MAGIC)?;
        fault::write_all("persist.stats.write", &mut w, &ENDIAN_MARK.to_ne_bytes())?;
        fault::write_all("persist.stats.write", &mut w, &payload)?;
        fault::write_all("persist.stats.write", &mut w, &fnv1a(&payload).to_le_bytes())?;
        fault::flush("persist.stats.flush", &mut w)?;
        drop(w);
        fault::rename("persist.stats.rename", &tmp, path)?;
        Ok(())
    })();
    if res.is_err() {
        let _ = fault::remove_file("persist.stats.cleanup", &tmp);
    }
    res
}

/// Read a column-statistics sidecar, validating magic, endianness,
/// checksum and register-count shape. Any failure is [`MlError::Corrupt`];
/// callers treat it as a cache miss and rebuild from the column data.
pub fn read_stats_file(path: &Path) -> Result<ColumnStats> {
    let mut r = BufReader::new(fault::open("persist.stats.open", path)?);
    let mut magic = [0u8; 4];
    fault::read_exact("persist.stats.read", &mut r, &mut magic)?;
    if &magic != ST_MAGIC {
        return Err(MlError::Corrupt(format!("{}: bad stats magic", path.display())));
    }
    let mut em = [0u8; 2];
    fault::read_exact("persist.stats.read", &mut r, &mut em)?;
    if u16::from_ne_bytes(em) != ENDIAN_MARK {
        return Err(MlError::Corrupt(format!("{}: foreign endianness", path.display())));
    }
    let mut rest = Vec::new();
    fault::read_to_end("persist.stats.read", &mut r, &mut rest)?;
    if rest.len() < 8 {
        return Err(MlError::Corrupt(format!("{}: truncated stats", path.display())));
    }
    let (payload, ck) = rest.split_at(rest.len() - 8);
    if fnv1a(payload) != u64::from_le_bytes(ck.try_into().unwrap()) {
        return Err(MlError::Corrupt(format!("{}: stats checksum mismatch", path.display())));
    }
    let mut cursor = payload;
    let rows = read_u64(&mut cursor)?;
    let nulls = read_u64(&mut cursor)?;
    let has_range = read_u8(&mut cursor)? != 0;
    let mut b8 = [0u8; 8];
    cursor.read_exact(&mut b8)?;
    let min_key = i64::from_le_bytes(b8);
    cursor.read_exact(&mut b8)?;
    let max_key = i64::from_le_bytes(b8);
    let nregs = read_u64(&mut cursor)?;
    if rows > MAX_LEN || nulls > rows || nregs as usize != HLL_REGS {
        return Err(MlError::Corrupt(format!("{}: stats shape mismatch", path.display())));
    }
    let mut regs = vec![0u8; nregs as usize];
    cursor.read_exact(&mut regs)?;
    let sketch = NdvSketch::from_registers(regs)
        .ok_or_else(|| MlError::Corrupt(format!("{}: bad register count", path.display())))?;
    Ok(ColumnStats {
        rows: rows as usize,
        nulls: nulls as usize,
        min_key,
        max_key,
        has_range,
        sketch,
    })
}

// ---------------------------------------------------------------------------
// String-dictionary sidecars
// ---------------------------------------------------------------------------

/// The sidecar path of a column file's string dictionary (`<file>.dict`).
pub fn dict_sidecar(column_path: &Path) -> PathBuf {
    let mut os = column_path.as_os_str().to_os_string();
    os.push(".dict");
    PathBuf::from(os)
}

/// Write a string-dictionary sidecar:
/// `[magic "MLD1"][endian][rows u64][nvals u64][val_offs (nvals+1) u32]
/// [val_buf_len u64][val_buf][codes (rows) u32][fnv checksum]`, atomically
/// via temp file + rename. Zone summaries are rebuilt on load rather than
/// persisted. Like the other sidecars these are pure caches — readers
/// fall back to rebuilding from the column on any validation failure.
pub fn write_dict_file(path: &Path, d: &StrDict) -> Result<()> {
    let tmp = path.with_extension("dicttmp");
    let res = (|| -> Result<()> {
        let mut w = BufWriter::new(fault::create("persist.dict.create", &tmp)?);
        let (val_offs, val_buf, codes) = d.raw_parts();
        let mut payload =
            Vec::with_capacity(24 + val_offs.len() * 4 + val_buf.len() + codes.len() * 4);
        payload.extend_from_slice(&(codes.len() as u64).to_le_bytes());
        payload.extend_from_slice(&(d.len() as u64).to_le_bytes());
        payload.extend_from_slice(pod_bytes(val_offs));
        payload.extend_from_slice(&(val_buf.len() as u64).to_le_bytes());
        payload.extend_from_slice(val_buf);
        payload.extend_from_slice(pod_bytes(codes));
        fault::write_all("persist.dict.write", &mut w, DC_MAGIC)?;
        fault::write_all("persist.dict.write", &mut w, &ENDIAN_MARK.to_ne_bytes())?;
        fault::write_all("persist.dict.write", &mut w, &payload)?;
        fault::write_all("persist.dict.write", &mut w, &fnv1a(&payload).to_le_bytes())?;
        fault::flush("persist.dict.flush", &mut w)?;
        drop(w);
        fault::rename("persist.dict.rename", &tmp, path)?;
        Ok(())
    })();
    if res.is_err() {
        let _ = fault::remove_file("persist.dict.cleanup", &tmp);
    }
    res
}

/// Read a string-dictionary sidecar, validating magic, endianness,
/// checksum and the dictionary invariants (sorted distinct values, codes
/// in range). Any failure is [`MlError::Corrupt`]; callers treat it as a
/// cache miss and rebuild from the column data.
pub fn read_dict_file(path: &Path) -> Result<StrDict> {
    let mut r = BufReader::new(fault::open("persist.dict.open", path)?);
    let mut magic = [0u8; 4];
    fault::read_exact("persist.dict.read", &mut r, &mut magic)?;
    if &magic != DC_MAGIC {
        return Err(MlError::Corrupt(format!("{}: bad dict magic", path.display())));
    }
    let mut em = [0u8; 2];
    fault::read_exact("persist.dict.read", &mut r, &mut em)?;
    if u16::from_ne_bytes(em) != ENDIAN_MARK {
        return Err(MlError::Corrupt(format!("{}: foreign endianness", path.display())));
    }
    let mut rest = Vec::new();
    fault::read_to_end("persist.dict.read", &mut r, &mut rest)?;
    if rest.len() < 8 {
        return Err(MlError::Corrupt(format!("{}: truncated dict", path.display())));
    }
    let (payload, ck) = rest.split_at(rest.len() - 8);
    if fnv1a(payload) != u64::from_le_bytes(ck.try_into().unwrap()) {
        return Err(MlError::Corrupt(format!("{}: dict checksum mismatch", path.display())));
    }
    let mut cursor = payload;
    let rows = read_u64(&mut cursor)?;
    let nvals = read_u64(&mut cursor)?;
    if rows > MAX_LEN || nvals > rows.max(1) {
        return Err(MlError::Corrupt("dict length exceeds sanity bound".into()));
    }
    let val_offs: Vec<u32> = read_pod_vec(&mut cursor, nvals as usize + 1)?;
    let buf_len = read_u64(&mut cursor)?;
    if buf_len > MAX_LEN {
        return Err(MlError::Corrupt("dict value-buffer length exceeds sanity bound".into()));
    }
    let mut val_buf = vec![0u8; buf_len as usize];
    cursor.read_exact(&mut val_buf)?;
    let codes: Vec<u32> = read_pod_vec(&mut cursor, rows as usize)?;
    StrDict::from_parts(val_offs, val_buf, codes)
        .ok_or_else(|| MlError::Corrupt(format!("{}: dict invariants violated", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use monetlite_types::ColumnBuffer;

    fn roundtrip(bat: &Bat) {
        let mut buf = Vec::new();
        encode_bat(&mut buf, bat);
        let got = decode_bat(&mut buf.as_slice()).unwrap();
        assert_eq!(got.to_buffer(None), bat.to_buffer(None));
    }

    #[test]
    fn encode_decode_all_types() {
        roundtrip(&Bat::Bool(vec![0, 1, i8::MIN]));
        roundtrip(&Bat::Int(vec![1, -5, i32::MIN]));
        roundtrip(&Bat::Bigint(vec![i64::MAX, 0, i64::MIN]));
        roundtrip(&Bat::Double(vec![1.5, -2.25]));
        roundtrip(&Bat::Decimal { data: vec![150, -75], scale: 2 });
        roundtrip(&Bat::Date(vec![0, 10_000]));
        roundtrip(&Bat::from_buffer(&ColumnBuffer::Varchar(vec![
            Some("hello".into()),
            None,
            Some("hello".into()),
            Some("".into()),
        ])));
    }

    #[test]
    fn chunk_frames_roundtrip_and_eof_cleanly() {
        let a = Bat::Int(vec![1, 2, 3]);
        let b = Bat::from_buffer(&ColumnBuffer::Varchar(vec![Some("x".into()), None]));
        let mut buf = Vec::new();
        let n1 = write_chunk_frame(&mut buf, &[&a, &b]).unwrap();
        let n2 = write_chunk_frame(&mut buf, &[&a]).unwrap();
        assert_eq!(buf.len() as u64, n1 + n2);
        let mut r = buf.as_slice();
        let f1 = read_chunk_frame(&mut r).unwrap().unwrap();
        assert_eq!(f1.len(), 2);
        assert_eq!(f1[0].to_buffer(None), a.to_buffer(None));
        assert_eq!(f1[1].to_buffer(None), b.to_buffer(None));
        let f2 = read_chunk_frame(&mut r).unwrap().unwrap();
        assert_eq!(f2.len(), 1);
        assert!(read_chunk_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_chunk_frame_is_an_error() {
        let mut buf = Vec::new();
        write_chunk_frame(&mut buf, &[&Bat::Int(vec![1, 2, 3])]).unwrap();
        let cut = &buf[..buf.len() - 2];
        let mut r = cut;
        assert!(read_chunk_frame(&mut r).is_err(), "torn frame must not decode");
    }

    #[test]
    fn file_roundtrip() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("c1.bat");
        let bat = Bat::Int((0..10_000).collect());
        write_column_file(&path, &bat).unwrap();
        let got = read_column_file(&path).unwrap();
        assert_eq!(got.to_buffer(None), bat.to_buffer(None));
    }

    #[test]
    fn corruption_is_an_error_not_a_crash() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("c1.bat");
        write_column_file(&path, &Bat::Int(vec![1, 2, 3])).unwrap();
        // Flip a payload byte.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        match read_column_file(&path) {
            Err(MlError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("c1.bat");
        std::fs::write(&path, b"NOTADATABASEFILE").unwrap();
        assert!(matches!(read_column_file(&path), Err(MlError::Corrupt(_))));
    }

    #[test]
    fn previous_format_column_file_is_rejected_by_magic() {
        // What the MLB1 writer produced: same payload, FNV-1a trailer.
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("c1.bat");
        let mut payload = Vec::new();
        encode_bat(&mut payload, &Bat::Int(vec![1, 2, 3]));
        let mut file = b"MLB1".to_vec();
        file.extend_from_slice(&ENDIAN_MARK.to_ne_bytes());
        file.extend_from_slice(&payload);
        file.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        std::fs::write(&path, &file).unwrap();
        match read_column_file(&path) {
            Err(MlError::Corrupt(m)) => assert!(m.contains("bad magic"), "{m}"),
            other => panic!("expected a bad-magic error, got {other:?}"),
        }
    }

    #[test]
    fn every_single_byte_flip_of_a_column_file_is_corrupt() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("c1.bat");
        let bat = Bat::from_buffer(&ColumnBuffer::Varchar(
            (0..150).map(|i| (i % 6 != 0).then(|| format!("val-{}", i % 23))).collect(),
        ));
        write_column_file(&path, &bat).unwrap();
        let good = std::fs::read(&path).unwrap();
        assert!((800..1400).contains(&good.len()), "fixture is ~1 KiB, got {}", good.len());
        assert_eq!(read_column_file(&path).unwrap().to_buffer(None), bat.to_buffer(None));
        for at in 0..good.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut bad = good.clone();
                bad[at] ^= flip;
                std::fs::write(&path, &bad).unwrap();
                match read_column_file(&path) {
                    Err(MlError::Corrupt(_)) => {}
                    other => panic!("byte {at} ^ {flip:#x} went unnoticed: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn lane_sum_is_independent_of_how_the_input_is_cut() {
        let data: Vec<u8> =
            (0..1000u32).map(|i| (i.wrapping_mul(2654435761) >> 24) as u8).collect();
        for len in [0, 1, 7, 8, 31, 32, 33, 64, 95, 1000] {
            let whole = lane_sum(&data[..len]);
            for step in [1, 3, 8, 31, 32, 50] {
                let mut sum = LaneSum::default();
                for piece in data[..len].chunks(step) {
                    sum.update(piece);
                }
                assert_eq!(sum.finish(), whole, "len {len} in pieces of {step}");
            }
        }
        // Length is part of the sum: trailing zeros are not free.
        assert_ne!(lane_sum(&[0u8; 31]), lane_sum(&[0u8; 32]));
        assert_ne!(lane_sum(&[]), lane_sum(&[0]));
    }

    #[test]
    fn truncated_file_rejected() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("c1.bat");
        write_column_file(&path, &Bat::Int(vec![1, 2, 3])).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 6]).unwrap();
        assert!(read_column_file(&path).is_err());
    }

    #[test]
    fn insane_length_rejected() {
        let mut buf = vec![TAG_INT];
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(decode_bat(&mut buf.as_slice()), Err(MlError::Corrupt(_))));
    }

    #[test]
    fn zonemap_file_roundtrip_and_corruption() {
        let dir = tempfile::tempdir().unwrap();
        let col = dir.path().join("c1.bat");
        let zp = zonemap_sidecar(&col);
        assert!(zp.to_string_lossy().ends_with("c1.bat.zm"));
        let bat = Bat::Int((0..20_000).collect());
        let zm = Zonemap::build(&bat);
        write_zonemap_file(&zp, &zm).unwrap();
        let got = read_zonemap_file(&zp).unwrap();
        assert_eq!(got.rows(), zm.rows());
        assert_eq!(got.mins(), zm.mins());
        assert_eq!(got.maxs(), zm.maxs());
        // Corruption surfaces as Corrupt (callers rebuild).
        let mut bytes = std::fs::read(&zp).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&zp, &bytes).unwrap();
        assert!(matches!(read_zonemap_file(&zp), Err(MlError::Corrupt(_))));
    }

    #[test]
    fn stats_file_roundtrip_and_corruption() {
        let dir = tempfile::tempdir().unwrap();
        let col = dir.path().join("c1.bat");
        let sp = stats_sidecar(&col);
        assert!(sp.to_string_lossy().ends_with("c1.bat.st"));
        let bat =
            Bat::Int((0..50_000).map(|i| if i % 7 == 0 { i32::MIN } else { i % 999 }).collect());
        let st = ColumnStats::build(&bat);
        write_stats_file(&sp, &st).unwrap();
        let got = read_stats_file(&sp).unwrap();
        assert_eq!(got.rows, st.rows);
        assert_eq!(got.nulls, st.nulls);
        assert_eq!((got.min_key, got.max_key, got.has_range), (st.min_key, st.max_key, true));
        assert_eq!(got.sketch, st.sketch, "registers roundtrip bit-exactly");
        // Corruption surfaces as Corrupt (callers rebuild).
        let mut bytes = std::fs::read(&sp).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&sp, &bytes).unwrap();
        assert!(matches!(read_stats_file(&sp), Err(MlError::Corrupt(_))));
        // Truncation too.
        write_stats_file(&sp, &st).unwrap();
        let bytes = std::fs::read(&sp).unwrap();
        std::fs::write(&sp, &bytes[..bytes.len() - 10]).unwrap();
        assert!(read_stats_file(&sp).is_err());
    }

    #[test]
    fn stats_file_no_range_and_bad_magic() {
        let dir = tempfile::tempdir().unwrap();
        let sp = dir.path().join("c2.bat.st");
        let st = ColumnStats::build(&Bat::Int(vec![i32::MIN; 4])); // all NULL
        write_stats_file(&sp, &st).unwrap();
        let got = read_stats_file(&sp).unwrap();
        assert!(!got.has_range);
        assert_eq!((got.rows, got.nulls), (4, 4));
        std::fs::write(&sp, b"NOTSTATS").unwrap();
        assert!(matches!(read_stats_file(&sp), Err(MlError::Corrupt(_))));
    }

    #[test]
    fn dict_file_roundtrip_and_corruption() {
        let dir = tempfile::tempdir().unwrap();
        let col = dir.path().join("c1.bat");
        let dp = dict_sidecar(&col);
        assert!(dp.to_string_lossy().ends_with("c1.bat.dict"));
        let bat = Bat::from_buffer(&ColumnBuffer::Varchar(
            (0..5000)
                .map(|i| if i % 11 == 0 { None } else { Some(format!("v{:04}", i % 300)) })
                .collect(),
        ));
        let d = StrDict::build(&bat).unwrap();
        write_dict_file(&dp, &d).unwrap();
        let got = read_dict_file(&dp).unwrap();
        assert_eq!(got, d, "dictionary roundtrips bit-exactly");
        // Corruption surfaces as Corrupt (callers rebuild).
        let mut bytes = std::fs::read(&dp).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&dp, &bytes).unwrap();
        assert!(matches!(read_dict_file(&dp), Err(MlError::Corrupt(_))));
        // Truncation too.
        write_dict_file(&dp, &d).unwrap();
        let bytes = std::fs::read(&dp).unwrap();
        std::fs::write(&dp, &bytes[..bytes.len() - 9]).unwrap();
        assert!(read_dict_file(&dp).is_err());
        // Bad magic.
        std::fs::write(&dp, b"NOTADICT").unwrap();
        assert!(matches!(read_dict_file(&dp), Err(MlError::Corrupt(_))));
    }

    #[test]
    fn varchar_offset_out_of_heap_rejected() {
        // Hand-craft: one offset pointing past the heap.
        let mut buf = vec![TAG_VARCHAR];
        buf.extend_from_slice(&1u64.to_le_bytes()); // 1 offset
        buf.extend_from_slice(&999u32.to_le_bytes()); // bogus offset
        buf.extend_from_slice(&1u64.to_le_bytes()); // heap of 1 byte
        buf.push(0xFF);
        assert!(matches!(decode_bat(&mut buf.as_slice()), Err(MlError::Corrupt(_))));
    }
}
