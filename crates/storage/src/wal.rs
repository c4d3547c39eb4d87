//! Write-ahead logging and recovery.
//!
//! Committed transactions append framed records to `wal.log`; a checkpoint
//! writes all table data to column files, rewrites the catalog file and
//! truncates the log. On startup the log is replayed on top of the last
//! checkpoint: only transactions whose `Commit` record made it to disk are
//! applied, so a torn tail (crash mid-write) silently rolls back — this is
//! what gives the embedded database "the transactional guarantees and ACID
//! properties of a standard relational system" (paper §1) without a
//! server.
//!
//! Frame format: `[len: u32][payload][checksum(payload): u64]`, where
//! payload starts with a one-byte record tag. The tag also selects the
//! checksum ([`frame_sum`]): bulk `Append` frames — nearly all of a log's
//! bytes — use the word-wise [`lane_sum`], everything else FNV-1a.

use crate::bat::Bat;
use crate::fault;
use crate::index::fnv1a;
use crate::persist::{bat_parts, decode_bat, lane_sum, LaneSum};
use monetlite_types::{Field, LogicalType, MlError, Result, Schema};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One logical write operation, as logged and as applied to the catalog.
#[derive(Debug)]
pub enum WalRecord {
    /// Transaction start.
    Begin(u64),
    /// Transaction end; everything since the matching Begin becomes
    /// durable.
    Commit(u64),
    /// CREATE TABLE.
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        schema: Schema,
    },
    /// DROP TABLE.
    DropTable {
        /// Table name.
        name: String,
    },
    /// Bulk append of column data.
    Append {
        /// Target table.
        table: String,
        /// One BAT per schema column, shared (not copied) by the
        /// transaction overlay, the committed snapshot and the frame
        /// encoder.
        cols: Vec<Arc<Bat>>,
    },
    /// Row deletions by physical row id.
    Delete {
        /// Target table.
        table: String,
        /// Physical row ids.
        rows: Vec<u32>,
    },
    /// CREATE ORDER INDEX marker (so the index is re-created after
    /// restart).
    CreateOrderIndex {
        /// Target table.
        table: String,
        /// Column position.
        col: u32,
    },
}

const TAG_BEGIN: u8 = 1;
const TAG_COMMIT: u8 = 2;
const TAG_CREATE: u8 = 3;
const TAG_DROP: u8 = 4;
/// `Append` as written up to PR 15: FNV-1a checksum. Still replayed (a
/// log of that build is a test fixture), no longer written.
const TAG_APPEND_FNV: u8 = 5;
const TAG_DELETE: u8 = 6;
const TAG_ORDERIDX: u8 = 7;
/// `Append` with a [`lane_sum`] checksum; same payload layout.
const TAG_APPEND: u8 = 8;

/// The checksum of a frame's payload, chosen by its tag byte. A corrupted
/// tag selects the wrong function, which fails like any other corruption.
fn frame_sum(payload: &[u8]) -> u64 {
    match payload.first() {
        Some(&TAG_APPEND) => lane_sum(payload),
        _ => fnv1a(payload),
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn get_str(r: &mut &[u8]) -> Result<String> {
    let len = get_u32(r)? as usize;
    if r.len() < len {
        return Err(MlError::Corrupt("truncated string in wal".into()));
    }
    let (s, rest) = r.split_at(len);
    *r = rest;
    String::from_utf8(s.to_vec()).map_err(|_| MlError::Corrupt("invalid utf-8 in wal".into()))
}

fn get_u32(r: &mut &[u8]) -> Result<u32> {
    if r.len() < 4 {
        return Err(MlError::Corrupt("truncated u32 in wal".into()));
    }
    let (b, rest) = r.split_at(4);
    *r = rest;
    Ok(u32::from_le_bytes(b.try_into().unwrap()))
}

fn get_u64(r: &mut &[u8]) -> Result<u64> {
    if r.len() < 8 {
        return Err(MlError::Corrupt("truncated u64 in wal".into()));
    }
    let (b, rest) = r.split_at(8);
    *r = rest;
    Ok(u64::from_le_bytes(b.try_into().unwrap()))
}

/// Encode a logical type (paired with [`decode_type`]).
pub fn encode_type(out: &mut Vec<u8>, ty: LogicalType) {
    match ty {
        LogicalType::Bool => out.push(0),
        LogicalType::Int => out.push(1),
        LogicalType::Bigint => out.push(2),
        LogicalType::Double => out.push(3),
        LogicalType::Decimal { width, scale } => {
            out.push(4);
            out.push(width);
            out.push(scale);
        }
        LogicalType::Varchar => out.push(5),
        LogicalType::Date => out.push(6),
    }
}

/// Decode a logical type.
pub fn decode_type(r: &mut &[u8]) -> Result<LogicalType> {
    let bad = || MlError::Corrupt("truncated type in wal".into());
    if r.is_empty() {
        return Err(bad());
    }
    let (tag, rest) = r.split_at(1);
    *r = rest;
    Ok(match tag[0] {
        0 => LogicalType::Bool,
        1 => LogicalType::Int,
        2 => LogicalType::Bigint,
        3 => LogicalType::Double,
        4 => {
            if r.len() < 2 {
                return Err(bad());
            }
            let (ws, rest) = r.split_at(2);
            *r = rest;
            LogicalType::Decimal { width: ws[0], scale: ws[1] }
        }
        5 => LogicalType::Varchar,
        6 => LogicalType::Date,
        t => return Err(MlError::Corrupt(format!("unknown type tag {t}"))),
    })
}

/// Encode a schema (paired with [`decode_schema`]).
pub fn encode_schema(out: &mut Vec<u8>, schema: &Schema) {
    out.extend_from_slice(&(schema.len() as u32).to_le_bytes());
    for f in schema.fields() {
        put_str(out, &f.name);
        encode_type(out, f.ty);
        out.push(f.nullable as u8);
    }
}

/// Decode a schema.
pub fn decode_schema(r: &mut &[u8]) -> Result<Schema> {
    let n = get_u32(r)? as usize;
    if n > 100_000 {
        return Err(MlError::Corrupt("schema too wide".into()));
    }
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        let name = get_str(r)?;
        let ty = decode_type(r)?;
        if r.is_empty() {
            return Err(MlError::Corrupt("truncated field".into()));
        }
        let (nb, rest) = r.split_at(1);
        *r = rest;
        let f = if nb[0] != 0 { Field::new(name, ty) } else { Field::not_null(name, ty) };
        fields.push(f);
    }
    Schema::new(fields)
}

/// Hand the pieces of an `Append` payload to `sink`, in order: tag, table
/// name, column count, then each column's BAT payload, whose bulk pieces
/// are the column's own arrays.
fn append_parts(
    table: &str,
    cols: &[Arc<Bat>],
    mut sink: impl FnMut(&[u8]) -> Result<()>,
) -> Result<()> {
    let mut head = Vec::with_capacity(9 + table.len());
    head.push(TAG_APPEND);
    put_str(&mut head, table);
    head.extend_from_slice(&(cols.len() as u32).to_le_bytes());
    sink(&head)?;
    for c in cols {
        bat_parts(c, &mut sink)?;
    }
    Ok(())
}

/// A record's payload, assembled in one buffer. [`WalWriter::append`]
/// streams an `Append` instead ([`write_append_frame`]): same bytes, no
/// copy of its columns.
fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    match rec {
        WalRecord::Begin(tx) => {
            out.push(TAG_BEGIN);
            out.extend_from_slice(&tx.to_le_bytes());
        }
        WalRecord::Commit(tx) => {
            out.push(TAG_COMMIT);
            out.extend_from_slice(&tx.to_le_bytes());
        }
        WalRecord::CreateTable { name, schema } => {
            out.push(TAG_CREATE);
            put_str(&mut out, name);
            encode_schema(&mut out, schema);
        }
        WalRecord::DropTable { name } => {
            out.push(TAG_DROP);
            put_str(&mut out, name);
        }
        WalRecord::Append { table, cols } => {
            let appended = append_parts(table, cols, |part| {
                out.extend_from_slice(part);
                Ok(())
            });
            debug_assert!(appended.is_ok(), "appending to a Vec cannot fail");
        }
        WalRecord::Delete { table, rows } => {
            out.push(TAG_DELETE);
            put_str(&mut out, table);
            out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
            for r in rows {
                out.extend_from_slice(&r.to_le_bytes());
            }
        }
        WalRecord::CreateOrderIndex { table, col } => {
            out.push(TAG_ORDERIDX);
            put_str(&mut out, table);
            out.extend_from_slice(&col.to_le_bytes());
        }
    }
    out
}

fn decode_record(mut payload: &[u8]) -> Result<WalRecord> {
    let r = &mut payload;
    if r.is_empty() {
        return Err(MlError::Corrupt("empty wal record".into()));
    }
    let (tag, rest) = r.split_at(1);
    *r = rest;
    Ok(match tag[0] {
        TAG_BEGIN => WalRecord::Begin(get_u64(r)?),
        TAG_COMMIT => WalRecord::Commit(get_u64(r)?),
        TAG_CREATE => {
            let name = get_str(r)?;
            let schema = decode_schema(r)?;
            WalRecord::CreateTable { name, schema }
        }
        TAG_DROP => WalRecord::DropTable { name: get_str(r)? },
        TAG_APPEND | TAG_APPEND_FNV => {
            let table = get_str(r)?;
            let n = get_u32(r)? as usize;
            if n > 100_000 {
                return Err(MlError::Corrupt("append too wide".into()));
            }
            let mut cols = Vec::with_capacity(n);
            let mut cursor = std::io::Cursor::new(*r);
            for _ in 0..n {
                cols.push(Arc::new(decode_bat(&mut cursor)?));
            }
            WalRecord::Append { table, cols }
        }
        TAG_DELETE => {
            let table = get_str(r)?;
            let n = get_u32(r)? as usize;
            let mut rows = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                rows.push(get_u32(r)?);
            }
            WalRecord::Delete { table, rows }
        }
        TAG_ORDERIDX => {
            let table = get_str(r)?;
            let col = get_u32(r)?;
            WalRecord::CreateOrderIndex { table, col }
        }
        t => return Err(MlError::Corrupt(format!("unknown wal tag {t}"))),
    })
}

/// Write one frame around an assembled payload; returns the bytes written.
/// The length, the payload and the checksum are one failpoint operation
/// each.
fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<u64> {
    fault::write_all("wal.append", w, &(payload.len() as u32).to_le_bytes())?;
    fault::write_all("wal.append", w, payload)?;
    fault::write_all("wal.append", w, &frame_sum(payload).to_le_bytes())?;
    Ok(4 + payload.len() as u64 + 8)
}

/// Write an `Append` frame straight from its columns' arrays: the payload
/// is never assembled, and its [`LaneSum`] accumulates as the pieces go
/// out, as in [`crate::persist::write_column_file`]. The bytes and the
/// failpoint operations are [`write_frame`]'s over [`encode_record`]: the
/// payload's pieces are one operation ([`fault::write_parts`]), torn as a
/// whole.
fn write_append_frame(w: &mut impl Write, table: &str, cols: &[Arc<Bat>]) -> Result<u64> {
    let mut len = 0;
    append_parts(table, cols, |part| {
        len += part.len();
        Ok(())
    })?;
    let framed = u32::try_from(len)
        .map_err(|_| MlError::Execution(format!("append of {len} bytes exceeds a WAL frame")))?;
    fault::write_all("wal.append", w, &framed.to_le_bytes())?;
    let mut sum = LaneSum::default();
    fault::write_parts("wal.append", w, len, |put| {
        append_parts(table, cols, |part| {
            sum.update(part);
            put(part)
        })
    })?;
    fault::write_all("wal.append", w, &sum.finish().to_le_bytes())?;
    Ok(4 + len as u64 + 8)
}

/// Appends framed records to the log file.
///
/// A failed append or flush may have left *part* of a frame on disk (the
/// `BufWriter` flushes whenever its buffer fills, so even a buffered
/// `append` can do real I/O). If we kept appending after that, every later
/// commit would land behind the torn frame and replay — which stops at the
/// first bad frame — would silently drop acknowledged transactions. So on
/// any append/flush error the writer discards its buffer and truncates the
/// file back to `synced`, the length at the last successful flush. If even
/// that repair fails the writer poisons itself: all further operations
/// error until the database is reopened.
pub struct WalWriter {
    path: PathBuf,
    /// `None` after an unrecoverable I/O failure (poisoned).
    w: Option<BufWriter<File>>,
    bytes: u64,
    /// File length at the last successful flush — the truncation target
    /// when a later write fails partway through a frame.
    synced: u64,
}

impl WalWriter {
    /// Open (appending) or create the log at `path`.
    pub fn open(path: &Path) -> Result<WalWriter> {
        let f = fault::open_append("wal.open", path)?;
        let bytes = fault::file_len("wal.len", &f)?;
        Ok(WalWriter { path: path.to_path_buf(), w: Some(BufWriter::new(f)), bytes, synced: bytes })
    }

    fn poisoned() -> MlError {
        MlError::Io("wal writer poisoned after an earlier I/O failure; reopen the database".into())
    }

    /// Discard buffered (possibly half-written) frames and truncate the
    /// log back to the last flushed length. On success the writer is ready
    /// for new appends; on failure it stays poisoned.
    fn recover(&mut self) {
        // into_parts() hands back the File *without* flushing, dropping
        // whatever partial frame is still buffered. Letting the BufWriter
        // drop normally would flush those stale bytes after truncation.
        if let Some(w) = self.w.take() {
            let (_f, _buf) = w.into_parts();
        }
        let res = (|| -> Result<File> {
            let f = fault::open_append("wal.recover.open", &self.path)?;
            fault::set_len("wal.recover.truncate", &f, self.synced)?;
            Ok(f)
        })();
        if let Ok(f) = res {
            self.w = Some(BufWriter::new(f));
            self.bytes = self.synced;
        }
    }

    /// Append one record (buffered; call [`WalWriter::flush`] at commit).
    pub fn append(&mut self, rec: &WalRecord) -> Result<()> {
        let w = self.w.as_mut().ok_or_else(Self::poisoned)?;
        let res = match rec {
            WalRecord::Append { table, cols } => write_append_frame(w, table, cols),
            rec => write_frame(w, &encode_record(rec)),
        };
        match res {
            Ok(written) => {
                self.bytes += written;
                Ok(())
            }
            Err(e) => {
                self.recover();
                Err(e)
            }
        }
    }

    /// Flush buffered records to the OS.
    pub fn flush(&mut self) -> Result<()> {
        let w = self.w.as_mut().ok_or_else(Self::poisoned)?;
        match fault::flush("wal.flush", w) {
            Ok(()) => {
                self.synced = self.bytes;
                Ok(())
            }
            Err(e) => {
                self.recover();
                Err(e.into())
            }
        }
    }

    /// Bytes written since the log was created/truncated (drives the
    /// auto-checkpoint policy).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// What [`replay`] found in a log.
#[derive(Debug, Default)]
pub struct Replay {
    /// The committed transactions in log order, each tagged with its id.
    pub txns: Vec<(u64, Vec<WalRecord>)>,
    /// Length of the prefix made of whole, checksum-valid frames.
    pub valid_len: u64,
    /// Length of the file. Anything beyond `valid_len` is a torn tail: it
    /// must be cut off ([`truncate`]) before a writer appends, or replay —
    /// which stops at the first bad frame — would never reach what the
    /// writer adds behind it.
    pub file_len: u64,
}

/// Read all *committed* transactions from a log, each tagged with its
/// transaction id. Torn tails (truncated or checksum-failing trailing
/// records) end replay silently; a missing trailing `Commit` discards
/// that transaction's records — uncommitted work never becomes visible.
///
/// The ids are what make replay idempotent across a checkpoint crash
/// window: the catalog file records the highest transaction id included
/// in its image, and recovery skips replayed transactions at or below
/// that watermark instead of double-applying them.
pub fn replay(path: &Path) -> Result<Replay> {
    let mut f = match fault::open("wal.replay.open", path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Replay::default()),
        Err(e) => return Err(e.into()),
    };
    let mut buf = Vec::new();
    fault::read_to_end("wal.replay.read", &mut f, &mut buf)?;
    let mut committed = Vec::new();
    let mut pending: Option<Vec<WalRecord>> = None;
    let mut pos = 0usize;
    while pos + 4 <= buf.len() {
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
        if pos + 4 + len + 8 > buf.len() {
            break; // torn tail
        }
        let payload = &buf[pos + 4..pos + 4 + len];
        let ck = u64::from_le_bytes(buf[pos + 4 + len..pos + 4 + len + 8].try_into().unwrap());
        if frame_sum(payload) != ck {
            break; // torn/corrupt tail: stop applying
        }
        pos += 4 + len + 8;
        match decode_record(payload)? {
            WalRecord::Begin(_) => pending = Some(Vec::new()),
            WalRecord::Commit(tx) => {
                if let Some(recs) = pending.take() {
                    committed.push((tx, recs));
                }
            }
            rec => {
                if let Some(p) = &mut pending {
                    p.push(rec);
                }
            }
        }
    }
    Ok(Replay { txns: committed, valid_len: pos as u64, file_len: buf.len() as u64 })
}

/// Cut a log back to `len` bytes (recovery drops a torn tail with this
/// before the writer opens).
pub fn truncate(path: &Path, len: u64) -> Result<()> {
    let f = fault::open_append("wal.tail.open", path)?;
    fault::set_len("wal.tail.truncate", &f, len)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::encode_bat;
    use monetlite_types::ColumnBuffer;

    fn sample_schema() -> Schema {
        Schema::new(vec![
            Field::not_null("id", LogicalType::Int),
            Field::new("name", LogicalType::Varchar),
            Field::new("price", LogicalType::Decimal { width: 15, scale: 2 }),
        ])
        .unwrap()
    }

    #[test]
    fn schema_roundtrip() {
        let s = sample_schema();
        let mut buf = Vec::new();
        encode_schema(&mut buf, &s);
        let got = decode_schema(&mut buf.as_slice()).unwrap();
        assert_eq!(got, s);
    }

    #[test]
    fn committed_txns_replay() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("wal.log");
        {
            let mut w = WalWriter::open(&path).unwrap();
            w.append(&WalRecord::Begin(1)).unwrap();
            w.append(&WalRecord::CreateTable { name: "t".into(), schema: sample_schema() })
                .unwrap();
            w.append(&WalRecord::Commit(1)).unwrap();
            w.append(&WalRecord::Begin(2)).unwrap();
            w.append(&WalRecord::Append {
                table: "t".into(),
                cols: vec![
                    Arc::new(Bat::Int(vec![1, 2])),
                    Arc::new(Bat::from_buffer(&ColumnBuffer::Varchar(vec![
                        Some("a".into()),
                        None,
                    ]))),
                    Arc::new(Bat::Decimal { data: vec![100, 250], scale: 2 }),
                ],
            })
            .unwrap();
            w.append(&WalRecord::Commit(2)).unwrap();
            w.flush().unwrap();
        }
        let txns = replay(&path).unwrap().txns;
        assert_eq!(txns.len(), 2);
        assert_eq!(txns[0].0, 1, "commit tx id surfaces for the watermark check");
        assert_eq!(txns[1].0, 2);
        assert!(matches!(&txns[0].1[0], WalRecord::CreateTable { name, .. } if name == "t"));
        match &txns[1].1[0] {
            WalRecord::Append { table, cols } => {
                assert_eq!(table, "t");
                assert_eq!(cols.len(), 3);
                assert_eq!(cols[0].len(), 2);
            }
            r => panic!("unexpected {r:?}"),
        }
    }

    #[test]
    fn a_streamed_append_frame_is_the_assembled_frame_byte_for_byte() {
        use monetlite_types::nulls::{NULL_I32, NULL_I64, NULL_I8};
        let strs = |v: &[Option<&str>]| {
            Bat::from_buffer(&ColumnBuffer::Varchar(
                v.iter().map(|s| s.map(String::from)).collect(),
            ))
        };
        // Every column type with NULLs, then every type with zero rows.
        let full = vec![
            Bat::Bool(vec![1, NULL_I8, 0]),
            Bat::Int(vec![7, NULL_I32, -1]),
            Bat::Bigint(vec![NULL_I64, 1 << 40, 0]),
            Bat::Double(vec![1.5, f64::NAN, -0.0]),
            Bat::Decimal { data: vec![100, NULL_I64, -250], scale: 2 },
            strs(&[Some("a"), None, Some("a")]),
            Bat::Date(vec![NULL_I32, 0, 19_000]),
        ];
        let empty: Vec<Bat> = full.iter().map(|b| Bat::new(b.logical_type())).collect();
        for cols in [full, empty] {
            let cols: Vec<Arc<Bat>> = cols.into_iter().map(Arc::new).collect();
            // The payload as it was assembled before frames streamed.
            let mut payload = vec![TAG_APPEND];
            put_str(&mut payload, "tbl");
            payload.extend_from_slice(&(cols.len() as u32).to_le_bytes());
            for c in &cols {
                encode_bat(&mut payload, c);
            }
            let rec = WalRecord::Append { table: "tbl".into(), cols };
            assert_eq!(encode_record(&rec), payload);
            let mut want = (payload.len() as u32).to_le_bytes().to_vec();
            want.extend_from_slice(&payload);
            want.extend_from_slice(&lane_sum(&payload).to_le_bytes());
            let dir = tempfile::tempdir().unwrap();
            let path = dir.path().join("wal.log");
            let mut w = WalWriter::open(&path).unwrap();
            w.append(&rec).unwrap();
            w.flush().unwrap();
            assert_eq!(w.bytes(), want.len() as u64);
            assert_eq!(std::fs::read(&path).unwrap(), want);
        }
    }

    #[test]
    fn uncommitted_tail_discarded() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("wal.log");
        {
            let mut w = WalWriter::open(&path).unwrap();
            w.append(&WalRecord::Begin(1)).unwrap();
            w.append(&WalRecord::DropTable { name: "t".into() }).unwrap();
            // No commit: crash before commit record.
            w.flush().unwrap();
        }
        assert!(replay(&path).unwrap().txns.is_empty());
    }

    #[test]
    fn torn_record_stops_replay() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("wal.log");
        {
            let mut w = WalWriter::open(&path).unwrap();
            w.append(&WalRecord::Begin(1)).unwrap();
            w.append(&WalRecord::DropTable { name: "a".into() }).unwrap();
            w.append(&WalRecord::Commit(1)).unwrap();
            w.append(&WalRecord::Begin(2)).unwrap();
            w.append(&WalRecord::DropTable { name: "b".into() }).unwrap();
            w.append(&WalRecord::Commit(2)).unwrap();
            w.flush().unwrap();
        }
        // Truncate mid-way through the last commit record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let txns = replay(&path).unwrap().txns;
        assert_eq!(txns.len(), 1, "only the first fully-committed txn survives");
    }

    #[test]
    fn missing_wal_is_empty() {
        let dir = tempfile::tempdir().unwrap();
        assert!(replay(&dir.path().join("nope.log")).unwrap().txns.is_empty());
    }

    #[test]
    fn corrupt_checksum_stops_replay_cleanly() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("wal.log");
        {
            let mut w = WalWriter::open(&path).unwrap();
            w.append(&WalRecord::Begin(1)).unwrap();
            w.append(&WalRecord::Commit(1)).unwrap();
            w.flush().unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF; // corrupt last checksum
        std::fs::write(&path, &bytes).unwrap();
        let txns = replay(&path).unwrap().txns;
        assert!(txns.is_empty());
    }

    #[test]
    fn wal_bytes_counter_grows() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("wal.log");
        let mut w = WalWriter::open(&path).unwrap();
        let b0 = w.bytes();
        w.append(&WalRecord::Begin(1)).unwrap();
        assert!(w.bytes() > b0);
    }
}
