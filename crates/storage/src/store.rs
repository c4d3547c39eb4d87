//! The shared database state: snapshot publication, optimistic commits,
//! checkpointing and recovery.
//!
//! Concurrency model (paper §3.1 *Concurrency Control*): "MonetDB uses an
//! optimistic concurrency control model. Individual transactions operate
//! on a snapshot of the database. When attempting to commit a transaction,
//! it will either commit successfully or abort when potential write
//! conflicts are detected." Here, a transaction records the version of
//! every table it writes; [`Store::commit`] validates those versions under
//! a global commit lock and aborts with
//! [`MlError::TransactionConflict`] when any differ.
//!
//! Durability: committed write operations are WAL-logged; a checkpoint
//! writes consolidated columns to individual column files (then managed by
//! [`Vmem`], the OS-paging simulation) and truncates the log.
//!
//! Like MonetDB(Lite), a persistent database directory is protected by a
//! lock file: a second `Store` opening the same directory fails with
//! "database locked" (the paper discusses exactly this limitation in §5).

use crate::bat::Bat;
use crate::catalog::{CatalogSnapshot, ColumnEntry, SegColumn, TableData, TableMeta};
use crate::fault;
use crate::persist;
use crate::vmem::Vmem;
use crate::wal::{self, WalRecord, WalWriter};
use monetlite_types::{LogicalType, MlError, Result, Schema};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

// Bumped MLC1 -> MLC2 when the checkpoint-tx watermark was inserted into
// the payload: an old-format file must fail with a clear "bad magic"
// instead of misparsing its table count as a watermark.
const CATALOG_MAGIC: &[u8; 4] = b"MLC2";
const ENDIAN_MARK: u16 = 0xBEEF;

/// Configuration for opening a [`Store`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Database directory; `None` = in-memory only (all data discarded on
    /// shutdown, exactly the paper's in-memory mode).
    pub path: Option<PathBuf>,
    /// Resident-byte budget for the vmem paging simulation.
    pub vmem_budget: usize,
    /// WAL size (bytes) that triggers an automatic checkpoint at commit.
    pub wal_autocheckpoint: u64,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions { path: None, vmem_budget: usize::MAX, wal_autocheckpoint: 64 << 20 }
    }
}

/// First table id of the per-transaction temporary range. Tables created
/// inside a transaction carry ids from here up until commit assigns a
/// real id; the ranges never overlap, so `id < TEMP_TABLE_ID_BASE`
/// certifies committed content — the test the query caches use before
/// trusting a `(table id, version)` pair as a content fingerprint
/// (temp ids are reused across transactions; committed ids never are).
pub const TEMP_TABLE_ID_BASE: u64 = u64::MAX / 2;

/// The write set of one transaction, applied atomically at commit.
///
/// Ops reuse the WAL record type so logging never copies column data.
#[derive(Default, Debug)]
pub struct TxWrites {
    /// Logical write operations in statement order.
    pub ops: Vec<WalRecord>,
    /// Version of each written table at transaction start (conflict
    /// detection baseline).
    pub base_versions: HashMap<String, u64>,
}

impl TxWrites {
    /// True when the transaction performed no writes.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

struct CommitInner {
    wal: Option<WalWriter>,
    next_table_id: u64,
    next_tx: u64,
    autocheckpoint: u64,
}

/// Where a simulated crash interrupts a checkpoint. Test instrumentation
/// for the recovery-equivalence suite: the checkpoint stops *before* the
/// named step, exactly as if the process had been killed there, and the
/// store must then be dropped and re-opened.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointCrash {
    /// Column files written; the catalog rename has not happened.
    BeforeCatalogRename,
    /// New catalog in place; the WAL has not been truncated.
    BeforeWalTruncate,
    /// WAL truncated; stale column files have not been removed.
    BeforeFileGc,
}

/// The shared, process-local database state. Cheap to share via `Arc`;
/// multiple stores may coexist in one process (lifting the paper's
/// single-database-per-process limitation, which it lists as future work).
pub struct Store {
    path: Option<PathBuf>,
    vmem: Arc<Vmem>,
    catalog: RwLock<Arc<CatalogSnapshot>>,
    commit_lock: Mutex<CommitInner>,
    /// Present when this store holds the directory lock file.
    lock_path: Option<PathBuf>,
}

impl Drop for Store {
    fn drop(&mut self) {
        if let Some(p) = &self.lock_path {
            let _ = fault::remove_file("store.lock.remove", p);
        }
    }
}

impl Store {
    /// Open an in-memory store (paper: `monetdb_startup(NULL)`).
    pub fn in_memory() -> Store {
        Self::open(StoreOptions::default()).expect("in-memory store cannot fail to open")
    }

    /// Open a store per options, running recovery when a directory is
    /// given.
    pub fn open(opts: StoreOptions) -> Result<Store> {
        let vmem = Arc::new(Vmem::new(opts.vmem_budget));
        let Some(dir) = opts.path.clone() else {
            return Ok(Store {
                path: None,
                vmem,
                catalog: RwLock::new(Arc::new(CatalogSnapshot::default())),
                commit_lock: Mutex::new(CommitInner {
                    wal: None,
                    next_table_id: 1,
                    next_tx: 1,
                    autocheckpoint: opts.wal_autocheckpoint,
                }),
                lock_path: None,
            });
        };
        fault::create_dir_all("store.open.mkdir", &dir.join("cols"))?;
        // Paper §5: a database directory may be used by one server at a
        // time ("database locked").
        let lock_path = dir.join("db.lock");
        match fault::create_new("store.lock.create", &lock_path) {
            Ok(mut f) => {
                let _ = writeln!(f, "{}", std::process::id());
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                return Err(MlError::Catalog(format!(
                    "database locked: {} exists (another server is using this database)",
                    lock_path.display()
                )));
            }
            Err(e) => return Err(e.into()),
        }
        let open_inner = || -> Result<Store> {
            let (mut tables, mut next_table_id, checkpoint_tx) = load_catalog(&dir, &vmem)?;
            // Replay committed WAL transactions on top of the checkpoint.
            // Transactions at or below the catalog's checkpoint watermark
            // are already part of the checkpoint image: a crash between
            // the catalog rename and the WAL truncation must not apply
            // them a second time (appends would duplicate rows, deletes
            // would hit renumbered rows after compaction).
            let wal_path = dir.join("wal.log");
            let log = wal::replay(&wal_path)?;
            // A torn tail (crash mid-append) is cut off before the writer
            // opens: frames appended behind it would be acknowledged now
            // and unreachable by the next replay, which stops at the first
            // bad frame. (The recovery checkpoint below empties the log,
            // but only runs when a transaction was replayed.)
            if log.valid_len < log.file_len {
                wal::truncate(&wal_path, log.valid_len)?;
            }
            let mut max_tx = checkpoint_tx;
            let mut replayed = false;
            for (tx, recs) in log.txns {
                if tx <= checkpoint_tx {
                    continue;
                }
                replayed = true;
                max_tx = max_tx.max(tx);
                for rec in recs {
                    apply_record(&mut tables, &rec, &mut next_table_id)?;
                }
            }
            let store = Store {
                path: Some(dir.clone()),
                vmem: vmem.clone(),
                catalog: RwLock::new(Arc::new(CatalogSnapshot { tables })),
                commit_lock: Mutex::new(CommitInner {
                    wal: Some(WalWriter::open(&wal_path)?),
                    next_table_id,
                    // Transaction ids stay monotonic across restarts so
                    // the watermark comparison is always meaningful.
                    next_tx: max_tx + 1,
                    autocheckpoint: opts.wal_autocheckpoint,
                }),
                lock_path: None, // set by caller on success
            };
            // Replayed data is unbacked (it cannot be paged out) and every
            // later open would replay it again: make it the checkpoint.
            if replayed {
                store.checkpoint()?;
            }
            Ok(store)
        };
        match open_inner() {
            Ok(mut s) => {
                s.lock_path = Some(lock_path);
                Ok(s)
            }
            Err(e) => {
                // Never leave a stale lock behind on a failed open, and —
                // paper §3.4 — report corruption as an error instead of
                // exiting the host process.
                let _ = fault::remove_file("store.lock.remove", &lock_path);
                Err(e)
            }
        }
    }

    /// The current catalog snapshot (transactions hold this `Arc`).
    pub fn snapshot(&self) -> Arc<CatalogSnapshot> {
        self.catalog.read().clone()
    }

    /// The paging simulation attached to this store.
    pub fn vmem(&self) -> &Arc<Vmem> {
        &self.vmem
    }

    /// The database directory (None = in-memory).
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Atomically validate and apply a transaction's writes.
    pub fn commit(&self, writes: TxWrites) -> Result<()> {
        if writes.is_empty() {
            return Ok(());
        }
        let mut ci = self.commit_lock.lock();
        let snap = self.catalog.read().clone();
        // Optimistic validation: every written table must still be at the
        // version observed at transaction start.
        for (name, base) in &writes.base_versions {
            match snap.tables.get(name) {
                Some(t) if t.version == *base => {}
                Some(t) => {
                    return Err(MlError::TransactionConflict(format!(
                        "table '{name}' changed (version {} -> {})",
                        base, t.version
                    )))
                }
                None => {
                    return Err(MlError::TransactionConflict(format!(
                        "table '{name}' was dropped concurrently"
                    )))
                }
            }
        }
        let mut tables = snap.tables.clone();
        for op in &writes.ops {
            apply_record(&mut tables, op, &mut ci.next_table_id)?;
        }
        // WAL: harden before publishing.
        let tx = ci.next_tx;
        ci.next_tx += 1;
        if let Some(w) = &mut ci.wal {
            w.append(&WalRecord::Begin(tx))?;
            for op in &writes.ops {
                w.append(op)?;
            }
            w.append(&WalRecord::Commit(tx))?;
            w.flush()?;
        }
        *self.catalog.write() = Arc::new(CatalogSnapshot { tables });
        let wal_bytes = ci.wal.as_ref().map_or(0, |w| w.bytes());
        if wal_bytes > ci.autocheckpoint {
            self.checkpoint_locked(&mut ci, None)?;
        }
        Ok(())
    }

    /// Write all table data to column files, rewrite the catalog file, and
    /// truncate the WAL. No-op for in-memory stores.
    ///
    /// Crash safety: the steps are ordered so a kill at any point leaves a
    /// recoverable state — (1) column files are written under fresh names
    /// and the old catalog still references the old ones; (2) the catalog
    /// rewrite is a temp-file + fsync + rename, atomically switching to
    /// the new image *including its transaction watermark*; (3) only then
    /// is the WAL truncated (a crash in between replays nothing twice
    /// because recovery skips transactions at or below the watermark);
    /// (4) unreferenced column files are removed last (a crash leaves
    /// harmless orphans that the next checkpoint collects).
    pub fn checkpoint(&self) -> Result<()> {
        let mut ci = self.commit_lock.lock();
        self.checkpoint_locked(&mut ci, None)
    }

    /// Run a checkpoint that stops (as if killed) before the given step.
    /// Test instrumentation: the store must be dropped and re-opened
    /// afterwards; see the crash-injection tests.
    #[doc(hidden)]
    pub fn checkpoint_crashing(&self, at: CheckpointCrash) -> Result<()> {
        let mut ci = self.commit_lock.lock();
        self.checkpoint_locked(&mut ci, Some(at))
    }

    fn checkpoint_locked(
        &self,
        ci: &mut CommitInner,
        crash: Option<CheckpointCrash>,
    ) -> Result<()> {
        let Some(dir) = &self.path else {
            return Ok(());
        };
        let snap = self.catalog.read().clone();
        let colsdir = dir.join("cols");
        let mut new_tables = HashMap::new();
        let mut referenced: HashSet<String> = HashSet::new();
        for (name, meta) in &snap.tables {
            let compacting = meta.data.deleted_count > 0;
            let sel: Option<Vec<u32>> = if compacting {
                let deleted = meta.data.deleted.as_ref().unwrap();
                Some((0..meta.data.rows as u32).filter(|&r| !deleted[r as usize]).collect())
            } else {
                None
            };
            let mut new_cols = Vec::with_capacity(meta.data.cols.len());
            for segcol in &meta.data.cols {
                let entry = segcol.entry()?;
                // The surviving rows of a string column share the old
                // heap, deleted rows' strings too; a heap they would pin
                // past `MAX_HEAP_PIN_RATIO` is rewritten without them.
                let entry = match &sel {
                    Some(sel) => {
                        let kept = entry.bat()?.take(sel);
                        Arc::new(ColumnEntry::from_bat(kept.compacted().unwrap_or(kept)))
                    }
                    None => entry,
                };
                let fresh = !entry.is_backed();
                if fresh {
                    let fname = format!("c{}.bat", entry.id);
                    let fpath = colsdir.join(&fname);
                    let bat = entry.bat()?;
                    persist::write_column_file(&fpath, bat.as_ref())?;
                    // Zonemap and statistics sidecars are built eagerly:
                    // a restarted process reads them before its first
                    // query (the optimizer costs plans and scans skip
                    // vectors without faulting the column back in). A
                    // summary cached by earlier scans is reused — entries
                    // are immutable between consolidations. Sidecars are
                    // caches: a write failure must not fail the checkpoint.
                    if LogicalType::Varchar != entry.ty() && !bat.is_empty() {
                        let zm = entry.zonemap_opt().unwrap_or_else(|| {
                            Arc::new(crate::index::Zonemap::build(bat.as_ref()))
                        });
                        let _ = persist::write_zonemap_file(&persist::zonemap_sidecar(&fpath), &zm);
                        entry.install_zonemap(zm);
                    }
                    // Statistics cover all types (NDV matters for string
                    // join/group keys too).
                    if !bat.is_empty() {
                        let st = entry.stats_opt().unwrap_or_else(|| {
                            Arc::new(crate::stats::ColumnStats::build(bat.as_ref()))
                        });
                        let _ = persist::write_stats_file(&persist::stats_sidecar(&fpath), &st);
                        entry.install_stats(st);
                    }
                    entry.attach_backing(fpath, self.vmem.clone());
                }
                // String-dictionary sidecar: persisted if present, never
                // built here — a checkpoint does not sort. A dictionary a
                // query built (or consolidation carried forward) is saved
                // so a restart scans on codes without paying the sort,
                // also when the column was backed before it got one.
                if let (Some(d), Some(p)) = (entry.dict_opt(), entry.backing_path()) {
                    let dp = persist::dict_sidecar(&p);
                    if fresh || !dp.exists() {
                        let _ = persist::write_dict_file(&dp, &d);
                    }
                }
                if let Some(p) = entry.backing_path() {
                    if let Some(f) = p.file_name() {
                        let f = f.to_string_lossy().into_owned();
                        referenced.insert(format!("{f}.zm"));
                        referenced.insert(format!("{f}.st"));
                        referenced.insert(format!("{f}.dict"));
                        referenced.insert(f);
                    }
                }
                new_cols.push(SegColumn::from_entry(entry));
            }
            let rows = sel.as_ref().map_or(meta.data.rows, |s| s.len());
            new_tables.insert(
                name.clone(),
                Arc::new(TableMeta {
                    id: meta.id,
                    name: meta.name.clone(),
                    schema: meta.schema.clone(),
                    data: TableData { cols: new_cols, deleted: None, rows, deleted_count: 0 },
                    // Compaction renumbers physical rows: bump the version
                    // so in-flight transactions holding stale row ids
                    // conflict instead of deleting the wrong rows.
                    version: meta.version + compacting as u64,
                    ordered_cols: meta.ordered_cols.clone(),
                }),
            );
        }
        let snap2 = CatalogSnapshot { tables: new_tables };
        if crash == Some(CheckpointCrash::BeforeCatalogRename) {
            return Ok(());
        }
        // Atomically publish the new image together with the watermark of
        // the last transaction it contains.
        write_catalog(dir, &snap2, ci.next_table_id, ci.next_tx - 1)?;
        if crash == Some(CheckpointCrash::BeforeWalTruncate) {
            return Ok(());
        }
        // Truncate and reopen the WAL (everything in it is at or below
        // the watermark now, so this step is idempotent for recovery).
        ci.wal = None;
        fault::create("store.wal.truncate", &dir.join("wal.log"))?;
        ci.wal = Some(WalWriter::open(&dir.join("wal.log"))?);
        if crash == Some(CheckpointCrash::BeforeFileGc) {
            return Ok(());
        }
        // Remove column files no longer referenced by the catalog — last,
        // so a crash anywhere above never deletes files a surviving
        // catalog still points at.
        for e in fault::read_dir("store.gc.readdir", &colsdir)? {
            let fname = e.file_name().to_string_lossy().into_owned();
            if !referenced.contains(&fname) {
                let _ = fault::remove_file("store.gc.remove", &e.path());
            }
        }
        *self.catalog.write() = Arc::new(snap2);
        Ok(())
    }
}

/// Apply one logged/requested write op to a mutable table map (shared
/// with the engine's transaction-local overlay).
pub fn apply_record(
    tables: &mut HashMap<String, Arc<TableMeta>>,
    rec: &WalRecord,
    next_table_id: &mut u64,
) -> Result<()> {
    match rec {
        WalRecord::Begin(_) | WalRecord::Commit(_) => {}
        WalRecord::CreateTable { name, schema } => {
            if tables.contains_key(name) {
                return Err(MlError::Catalog(format!("table '{name}' already exists")));
            }
            let id = *next_table_id;
            *next_table_id += 1;
            tables.insert(
                name.clone(),
                Arc::new(TableMeta {
                    id,
                    name: name.clone(),
                    schema: schema.clone(),
                    data: TableData::empty(schema),
                    version: 1,
                    ordered_cols: vec![],
                }),
            );
        }
        WalRecord::DropTable { name } => {
            if tables.remove(name).is_none() {
                return Err(MlError::Catalog(format!("unknown table '{name}'")));
            }
        }
        WalRecord::Append { table, cols } => {
            let meta = tables
                .get(table)
                .ok_or_else(|| MlError::Catalog(format!("unknown table '{table}'")))?;
            check_append_types(&meta.schema, cols)?;
            let new = Arc::new(TableMeta {
                id: meta.id,
                name: meta.name.clone(),
                schema: meta.schema.clone(),
                data: meta.data.appended(cols.iter().cloned())?,
                version: meta.version + 1,
                ordered_cols: meta.ordered_cols.clone(),
            });
            tables.insert(table.clone(), new);
        }
        WalRecord::Delete { table, rows } => {
            let meta = tables
                .get(table)
                .ok_or_else(|| MlError::Catalog(format!("unknown table '{table}'")))?;
            let new = Arc::new(TableMeta {
                id: meta.id,
                name: meta.name.clone(),
                schema: meta.schema.clone(),
                data: meta.data.with_deleted(rows),
                version: meta.version + 1,
                ordered_cols: meta.ordered_cols.clone(),
            });
            tables.insert(table.clone(), new);
        }
        WalRecord::CreateOrderIndex { table, col } => {
            let meta = tables
                .get(table)
                .ok_or_else(|| MlError::Catalog(format!("unknown table '{table}'")))?;
            if *col as usize >= meta.schema.len() {
                return Err(MlError::Catalog(format!(
                    "order index column {col} out of range for '{table}'"
                )));
            }
            let mut ordered = meta.ordered_cols.clone();
            if !ordered.contains(&(*col as usize)) {
                ordered.push(*col as usize);
            }
            let new = Arc::new(TableMeta {
                id: meta.id,
                name: meta.name.clone(),
                schema: meta.schema.clone(),
                data: meta.data.clone(),
                version: meta.version,
                ordered_cols: ordered,
            });
            tables.insert(table.clone(), new);
        }
    }
    Ok(())
}

fn check_append_types(schema: &Schema, cols: &[Arc<Bat>]) -> Result<()> {
    if cols.len() != schema.len() {
        return Err(MlError::Execution(format!(
            "append expects {} columns, got {}",
            schema.len(),
            cols.len()
        )));
    }
    for (f, c) in schema.fields().iter().zip(cols) {
        let compatible = matches!(
            (f.ty, c.logical_type()),
            (LogicalType::Bool, LogicalType::Bool)
                | (LogicalType::Int, LogicalType::Int)
                | (LogicalType::Bigint, LogicalType::Bigint)
                | (LogicalType::Double, LogicalType::Double)
                | (LogicalType::Decimal { .. }, LogicalType::Decimal { .. })
                | (LogicalType::Varchar, LogicalType::Varchar)
                | (LogicalType::Date, LogicalType::Date)
        );
        if !compatible {
            return Err(MlError::TypeMismatch(format!(
                "column '{}' expects {}, got {}",
                f.name,
                f.ty,
                c.logical_type()
            )));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Catalog file
// ---------------------------------------------------------------------------

fn write_catalog(
    dir: &Path,
    snap: &CatalogSnapshot,
    next_table_id: u64,
    checkpoint_tx: u64,
) -> Result<()> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&next_table_id.to_le_bytes());
    // Watermark: the highest committed transaction id contained in this
    // image. Recovery skips WAL transactions at or below it.
    payload.extend_from_slice(&checkpoint_tx.to_le_bytes());
    let names = snap.table_names();
    payload.extend_from_slice(&(names.len() as u32).to_le_bytes());
    for name in &names {
        let meta = &snap.tables[name];
        payload.extend_from_slice(&meta.id.to_le_bytes());
        payload.extend_from_slice(&(name.len() as u32).to_le_bytes());
        payload.extend_from_slice(name.as_bytes());
        wal::encode_schema(&mut payload, &meta.schema);
        payload.extend_from_slice(&meta.version.to_le_bytes());
        payload.extend_from_slice(&(meta.data.rows as u64).to_le_bytes());
        for col in &meta.data.cols {
            let entry = col.entry()?;
            let p = entry.backing_path().ok_or_else(|| {
                MlError::Io(format!("column of '{name}' has no backing file at checkpoint"))
            })?;
            let fname = p.file_name().unwrap().to_string_lossy();
            payload.extend_from_slice(&(fname.len() as u32).to_le_bytes());
            payload.extend_from_slice(fname.as_bytes());
        }
        payload.extend_from_slice(&(meta.ordered_cols.len() as u32).to_le_bytes());
        for &c in &meta.ordered_cols {
            payload.extend_from_slice(&(c as u32).to_le_bytes());
        }
    }
    let tmp = dir.join("catalog.tmp");
    let res = (|| -> Result<()> {
        let mut f = fault::create("catalog.create", &tmp)?;
        fault::write_all("catalog.write", &mut f, CATALOG_MAGIC)?;
        fault::write_all("catalog.write", &mut f, &ENDIAN_MARK.to_ne_bytes())?;
        fault::write_all("catalog.write", &mut f, &payload)?;
        fault::write_all("catalog.write", &mut f, &crate::index::fnv1a(&payload).to_le_bytes())?;
        fault::sync_all("catalog.sync", &f)?;
        drop(f);
        fault::rename("catalog.rename", &tmp, &dir.join("catalog.bin"))?;
        Ok(())
    })();
    // `catalog.tmp` lives in the db root, outside the cols/ GC sweep — a
    // failed checkpoint must clean it up itself or it leaks forever.
    if res.is_err() {
        let _ = fault::remove_file("catalog.cleanup", &tmp);
    }
    res
}

type LoadedCatalog = (HashMap<String, Arc<TableMeta>>, u64, u64);

fn load_catalog(dir: &Path, vmem: &Arc<Vmem>) -> Result<LoadedCatalog> {
    let path = dir.join("catalog.bin");
    let mut f = match fault::open("catalog.open", &path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok((HashMap::new(), 1, 0));
        }
        Err(e) => return Err(e.into()),
    };
    let mut buf = Vec::new();
    fault::read_to_end("catalog.read", &mut f, &mut buf)?;
    if buf.len() < 4 + 2 + 8 || &buf[..4] != CATALOG_MAGIC {
        return Err(MlError::Corrupt("catalog.bin: bad magic or truncated".into()));
    }
    if u16::from_ne_bytes(buf[4..6].try_into().unwrap()) != ENDIAN_MARK {
        return Err(MlError::Corrupt("catalog.bin: foreign endianness".into()));
    }
    let (payload, ck) = buf[6..].split_at(buf.len() - 6 - 8);
    if crate::index::fnv1a(payload) != u64::from_le_bytes(ck.try_into().unwrap()) {
        return Err(MlError::Corrupt("catalog.bin: checksum mismatch".into()));
    }
    let mut r = payload;
    let next_table_id = take_u64(&mut r)?;
    let checkpoint_tx = take_u64(&mut r)?;
    let ntables = take_u32(&mut r)? as usize;
    if ntables > 1_000_000 {
        return Err(MlError::Corrupt("catalog.bin: implausible table count".into()));
    }
    let mut tables = HashMap::with_capacity(ntables);
    for _ in 0..ntables {
        let id = take_u64(&mut r)?;
        let name = take_str(&mut r)?;
        let schema = wal::decode_schema(&mut r)?;
        let version = take_u64(&mut r)?;
        let rows = take_u64(&mut r)? as usize;
        let mut cols = Vec::with_capacity(schema.len());
        for field in schema.fields() {
            let fname = take_str(&mut r)?;
            let entry = Arc::new(ColumnEntry::from_file(
                dir.join("cols").join(&fname),
                field.ty,
                rows,
                vmem.clone(),
            ));
            cols.push(SegColumn::from_entry(entry));
        }
        let nord = take_u32(&mut r)? as usize;
        let mut ordered_cols = Vec::with_capacity(nord.min(schema.len()));
        for _ in 0..nord {
            ordered_cols.push(take_u32(&mut r)? as usize);
        }
        tables.insert(
            name.clone(),
            Arc::new(TableMeta {
                id,
                name,
                schema,
                data: TableData { cols, deleted: None, rows, deleted_count: 0 },
                version,
                ordered_cols,
            }),
        );
    }
    Ok((tables, next_table_id, checkpoint_tx))
}

fn take_u32(r: &mut &[u8]) -> Result<u32> {
    if r.len() < 4 {
        return Err(MlError::Corrupt("catalog.bin truncated".into()));
    }
    let (b, rest) = r.split_at(4);
    *r = rest;
    Ok(u32::from_le_bytes(b.try_into().unwrap()))
}

fn take_u64(r: &mut &[u8]) -> Result<u64> {
    if r.len() < 8 {
        return Err(MlError::Corrupt("catalog.bin truncated".into()));
    }
    let (b, rest) = r.split_at(8);
    *r = rest;
    Ok(u64::from_le_bytes(b.try_into().unwrap()))
}

fn take_str(r: &mut &[u8]) -> Result<String> {
    let len = take_u32(r)? as usize;
    if r.len() < len {
        return Err(MlError::Corrupt("catalog.bin truncated".into()));
    }
    let (s, rest) = r.split_at(len);
    *r = rest;
    String::from_utf8(s.to_vec()).map_err(|_| MlError::Corrupt("catalog.bin bad utf-8".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use monetlite_types::{ColumnBuffer, Field, Value};

    fn schema_ab() -> Schema {
        Schema::new(vec![
            Field::not_null("a", LogicalType::Int),
            Field::new("b", LogicalType::Varchar),
        ])
        .unwrap()
    }

    fn shared(bats: Vec<Bat>) -> Vec<Arc<Bat>> {
        bats.into_iter().map(Arc::new).collect()
    }

    fn create_and_fill(store: &Store, rows: Vec<i32>) {
        let mut w = TxWrites::default();
        w.ops.push(WalRecord::CreateTable { name: "t".into(), schema: schema_ab() });
        let strs: Vec<Option<String>> = rows.iter().map(|i| Some(format!("s{i}"))).collect();
        w.ops.push(WalRecord::Append {
            table: "t".into(),
            cols: shared(vec![Bat::Int(rows), Bat::from_buffer(&ColumnBuffer::Varchar(strs))]),
        });
        store.commit(w).unwrap();
    }

    #[test]
    fn in_memory_create_append_read() {
        let store = Store::in_memory();
        create_and_fill(&store, vec![1, 2, 3]);
        let snap = store.snapshot();
        let t = snap.table("t").unwrap();
        assert_eq!(t.data.visible_rows(), 3);
        let bat = t.data.cols[0].entry().unwrap().bat().unwrap();
        assert_eq!(bat.get(2), Value::Int(3));
    }

    #[test]
    fn append_shares_its_bats_with_the_overlay_and_the_snapshot() {
        let store = Store::in_memory();
        create_and_fill(&store, vec![1]);
        let strs = ColumnBuffer::Varchar(vec![Some("s2".into())]);
        let cols = shared(vec![Bat::Int(vec![2]), Bat::from_buffer(&strs)]);
        let rec = WalRecord::Append { table: "t".into(), cols: cols.clone() };
        // A transaction's overlay and the commit apply the same record.
        let mut overlay = store.snapshot().tables.clone();
        apply_record(&mut overlay, &rec, &mut 1).unwrap();
        store.commit(TxWrites { ops: vec![rec], ..Default::default() }).unwrap();
        let snap = store.snapshot();
        for tables in [&overlay, &snap.tables] {
            for (col, bat) in tables["t"].data.cols.iter().zip(&cols) {
                assert!(Arc::ptr_eq(&col.last_segment().bat().unwrap(), bat), "BAT copied");
            }
        }
    }

    #[test]
    fn snapshot_isolation_across_commits() {
        let store = Store::in_memory();
        create_and_fill(&store, vec![1]);
        let old = store.snapshot();
        let mut w = TxWrites::default();
        w.base_versions.insert("t".into(), old.table("t").unwrap().version);
        w.ops.push(WalRecord::Append {
            table: "t".into(),
            cols: shared(vec![
                Bat::Int(vec![2]),
                Bat::from_buffer(&ColumnBuffer::Varchar(vec![None])),
            ]),
        });
        store.commit(w).unwrap();
        assert_eq!(old.table("t").unwrap().data.visible_rows(), 1);
        assert_eq!(store.snapshot().table("t").unwrap().data.visible_rows(), 2);
    }

    #[test]
    fn write_write_conflict_aborts() {
        let store = Store::in_memory();
        create_and_fill(&store, vec![1]);
        let base = store.snapshot().table("t").unwrap().version;
        // First writer commits.
        let mut w1 = TxWrites::default();
        w1.base_versions.insert("t".into(), base);
        w1.ops.push(WalRecord::Delete { table: "t".into(), rows: vec![0] });
        store.commit(w1).unwrap();
        // Second writer started from the same version: must abort.
        let mut w2 = TxWrites::default();
        w2.base_versions.insert("t".into(), base);
        w2.ops.push(WalRecord::Delete { table: "t".into(), rows: vec![0] });
        match store.commit(w2) {
            Err(MlError::TransactionConflict(_)) => {}
            other => panic!("expected conflict, got {other:?}"),
        }
    }

    #[test]
    fn persistent_roundtrip_via_checkpoint() {
        let dir = tempfile::tempdir().unwrap();
        {
            let store = Store::open(StoreOptions {
                path: Some(dir.path().to_path_buf()),
                ..Default::default()
            })
            .unwrap();
            create_and_fill(&store, vec![10, 20]);
            store.checkpoint().unwrap();
        }
        let store = Store::open(StoreOptions {
            path: Some(dir.path().to_path_buf()),
            ..Default::default()
        })
        .unwrap();
        let snap = store.snapshot();
        let t = snap.table("t").unwrap();
        assert_eq!(t.data.visible_rows(), 2);
        let bat = t.data.cols[1].entry().unwrap().bat().unwrap();
        assert_eq!(bat.str_at(1), Some("s20"));
    }

    #[test]
    fn checkpoint_writes_zonemap_sidecars_readable_after_restart() {
        let dir = tempfile::tempdir().unwrap();
        {
            let store = Store::open(StoreOptions {
                path: Some(dir.path().to_path_buf()),
                ..Default::default()
            })
            .unwrap();
            create_and_fill(&store, (0..20_000).collect());
            store.checkpoint().unwrap();
            // The INTEGER column gets a sidecar; the VARCHAR column does
            // not (strings have no order-preserving key domain).
            let snap = store.snapshot();
            let t = snap.table("t").unwrap();
            let int_path = t.data.cols[0].entry().unwrap().backing_path().unwrap();
            let str_path = t.data.cols[1].entry().unwrap().backing_path().unwrap();
            assert!(persist::zonemap_sidecar(&int_path).exists());
            assert!(!persist::zonemap_sidecar(&str_path).exists());
        }
        // After restart the sidecar resolves without rebuilding.
        let store = Store::open(StoreOptions {
            path: Some(dir.path().to_path_buf()),
            ..Default::default()
        })
        .unwrap();
        let snap = store.snapshot();
        let entry = snap.table("t").unwrap().data.cols[0].entry().unwrap();
        let zm = entry.zonemap().unwrap();
        assert_eq!(zm.rows(), 20_000);
        assert_eq!(zm.n_zones(), 20_000usize.div_ceil(crate::index::ZONE_ROWS));
        // Clustered ints: a probe below the first value matches nowhere.
        assert!(!zm.range_may_match(0, 20_000, Some(20_001), None));
        // A checkpoint with no new columns keeps the sidecar (GC must
        // treat it as referenced).
        store.checkpoint().unwrap();
        let int_path = snap.table("t").unwrap().data.cols[0].entry().unwrap();
        assert!(persist::zonemap_sidecar(&int_path.backing_path().unwrap()).exists());
    }

    #[test]
    fn checkpoint_writes_stats_sidecars_survive_restart_and_corruption() {
        let dir = tempfile::tempdir().unwrap();
        {
            let store = Store::open(StoreOptions {
                path: Some(dir.path().to_path_buf()),
                ..Default::default()
            })
            .unwrap();
            create_and_fill(&store, (0..30_000).map(|i| i % 5000).collect());
            store.checkpoint().unwrap();
            let snap = store.snapshot();
            let t = snap.table("t").unwrap();
            // Both the INTEGER and the VARCHAR column get a stats sidecar
            // (NDV matters for string keys even without a value range).
            for c in 0..2 {
                let p = t.data.cols[c].entry().unwrap().backing_path().unwrap();
                assert!(persist::stats_sidecar(&p).exists(), "col {c} missing .st");
            }
        }
        // After restart the sidecar resolves without rebuilding (and
        // without faulting the column data in).
        let store = Store::open(StoreOptions {
            path: Some(dir.path().to_path_buf()),
            ..Default::default()
        })
        .unwrap();
        let snap = store.snapshot();
        let entry = snap.table("t").unwrap().data.cols[0].entry().unwrap();
        let st = entry.stats().unwrap();
        assert_eq!(st.rows, 30_000);
        assert_eq!((st.min_key, st.max_key), (0, 4999));
        let ndv = st.ndv();
        assert!((4250.0..=5750.0).contains(&ndv), "5000 distinct, est {ndv}");
        // A checkpoint with no new columns keeps the sidecar (GC must
        // treat it as referenced).
        store.checkpoint().unwrap();
        let path = entry.backing_path().unwrap();
        assert!(persist::stats_sidecar(&path).exists());
        drop(store);
        // Corrupt the sidecar: the next open must recompute from the
        // column (corruption is a cache miss, never an error).
        let sp = persist::stats_sidecar(&path);
        let mut bytes = std::fs::read(&sp).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&sp, &bytes).unwrap();
        let store = Store::open(StoreOptions {
            path: Some(dir.path().to_path_buf()),
            ..Default::default()
        })
        .unwrap();
        let snap = store.snapshot();
        let entry = snap.table("t").unwrap().data.cols[0].entry().unwrap();
        let st = entry.stats().unwrap();
        assert_eq!(st.rows, 30_000, "recomputed after corruption");
        assert_eq!((st.min_key, st.max_key), (0, 4999));
    }

    #[test]
    fn checkpoint_writes_dict_sidecars_survive_restart_and_corruption() {
        let dir = tempfile::tempdir().unwrap();
        let str_path = {
            let store = Store::open(StoreOptions {
                path: Some(dir.path().to_path_buf()),
                ..Default::default()
            })
            .unwrap();
            create_and_fill(&store, (0..10_000).map(|i| i % 50).collect());
            store.checkpoint().unwrap();
            let snap = store.snapshot();
            let t = snap.table("t").unwrap();
            // A checkpoint does not sort: nobody asked for a dictionary,
            // so neither column has a dictionary sidecar.
            let int_path = t.data.cols[0].entry().unwrap().backing_path().unwrap();
            let str_path = t.data.cols[1].entry().unwrap().backing_path().unwrap();
            assert!(!persist::dict_sidecar(&int_path).exists());
            assert!(!persist::dict_sidecar(&str_path).exists());
            // A scan builds one on the already-backed column; the next
            // checkpoint persists it, and its GC keeps it.
            let entry = t.data.cols[1].entry().unwrap();
            assert!(entry.dict_opt().is_none());
            assert_eq!(entry.dict().unwrap().len(), 50);
            store.checkpoint().unwrap();
            assert!(persist::dict_sidecar(&str_path).exists());
            assert_eq!(entry.backing_path().unwrap(), str_path, "column file not rewritten");
            str_path
        };
        // After restart the sidecar resolves without re-sorting.
        let store = Store::open(StoreOptions {
            path: Some(dir.path().to_path_buf()),
            ..Default::default()
        })
        .unwrap();
        let snap = store.snapshot();
        let entry = snap.table("t").unwrap().data.cols[1].entry().unwrap();
        let d = entry.dict().unwrap();
        assert_eq!(d.rows(), 10_000);
        assert_eq!(d.len(), 50, "50 distinct strings");
        assert_eq!(d.code_of("s0"), Some(0), "byte-sorted: \"s0\" first");
        assert_eq!(store.vmem().stats().loads, 0, "dictionary came from the sidecar");
        // A checkpoint with no new columns keeps the sidecar (GC must
        // treat it as referenced).
        store.checkpoint().unwrap();
        let path = entry.backing_path().unwrap();
        assert_eq!(path, str_path);
        assert!(persist::dict_sidecar(&path).exists());
        drop(store);
        // Corrupt the sidecar: the next open must rebuild from the column
        // (corruption is a cache miss, never an error).
        let dp = persist::dict_sidecar(&path);
        let mut bytes = std::fs::read(&dp).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&dp, &bytes).unwrap();
        let store = Store::open(StoreOptions {
            path: Some(dir.path().to_path_buf()),
            ..Default::default()
        })
        .unwrap();
        let snap = store.snapshot();
        let entry = snap.table("t").unwrap().data.cols[1].entry().unwrap();
        let d = entry.dict().unwrap();
        assert_eq!((d.rows(), d.len()), (10_000, 50), "rebuilt after corruption");
    }

    #[test]
    fn wal_recovery_without_checkpoint() {
        let dir = tempfile::tempdir().unwrap();
        {
            let store = Store::open(StoreOptions {
                path: Some(dir.path().to_path_buf()),
                ..Default::default()
            })
            .unwrap();
            create_and_fill(&store, vec![7, 8, 9]);
            // No explicit checkpoint: data lives only in the WAL.
        }
        let store = Store::open(StoreOptions {
            path: Some(dir.path().to_path_buf()),
            ..Default::default()
        })
        .unwrap();
        let snap = store.snapshot();
        assert_eq!(snap.table("t").unwrap().data.visible_rows(), 3);
        let bat = snap.table("t").unwrap().data.cols[0].entry().unwrap().bat().unwrap();
        assert_eq!(bat.get(0), Value::Int(7));
    }

    #[test]
    fn deletes_compacted_at_checkpoint() {
        let dir = tempfile::tempdir().unwrap();
        {
            let store = Store::open(StoreOptions {
                path: Some(dir.path().to_path_buf()),
                ..Default::default()
            })
            .unwrap();
            create_and_fill(&store, vec![1, 2, 3, 4]);
            let mut w = TxWrites::default();
            w.ops.push(WalRecord::Delete { table: "t".into(), rows: vec![0, 2] });
            store.commit(w).unwrap();
            store.checkpoint().unwrap();
            let snap = store.snapshot();
            assert_eq!(snap.table("t").unwrap().data.rows, 2, "checkpoint compacts deletes");
        }
        let store = Store::open(StoreOptions {
            path: Some(dir.path().to_path_buf()),
            ..Default::default()
        })
        .unwrap();
        let snap = store.snapshot();
        let bat = snap.table("t").unwrap().data.cols[0].entry().unwrap().bat().unwrap();
        assert_eq!(bat.to_buffer(None), ColumnBuffer::Int(vec![2, 4]));
    }

    #[test]
    fn database_locked_error() {
        let dir = tempfile::tempdir().unwrap();
        let opts = StoreOptions { path: Some(dir.path().to_path_buf()), ..Default::default() };
        let _s1 = Store::open(opts.clone()).unwrap();
        match Store::open(opts) {
            Err(MlError::Catalog(msg)) => assert!(msg.contains("database locked"), "{msg}"),
            Err(other) => panic!("expected locked error, got {other:?}"),
            Ok(_) => panic!("expected locked error, got a second store"),
        }
    }

    #[test]
    fn lock_released_on_drop() {
        let dir = tempfile::tempdir().unwrap();
        let opts = StoreOptions { path: Some(dir.path().to_path_buf()), ..Default::default() };
        {
            let _s1 = Store::open(opts.clone()).unwrap();
        }
        assert!(Store::open(opts).is_ok());
    }

    #[test]
    fn drop_table_removes_files_at_checkpoint() {
        let dir = tempfile::tempdir().unwrap();
        let store = Store::open(StoreOptions {
            path: Some(dir.path().to_path_buf()),
            ..Default::default()
        })
        .unwrap();
        create_and_fill(&store, vec![1]);
        store.checkpoint().unwrap();
        let files_before = std::fs::read_dir(dir.path().join("cols")).unwrap().count();
        assert!(files_before >= 2);
        let mut w = TxWrites::default();
        w.base_versions.insert("t".into(), store.snapshot().table("t").unwrap().version);
        w.ops.push(WalRecord::DropTable { name: "t".into() });
        store.commit(w).unwrap();
        store.checkpoint().unwrap();
        let files_after = std::fs::read_dir(dir.path().join("cols")).unwrap().count();
        assert_eq!(files_after, 0, "orphan column files must be removed");
    }

    #[test]
    fn create_duplicate_table_rejected() {
        let store = Store::in_memory();
        create_and_fill(&store, vec![1]);
        let mut w = TxWrites::default();
        w.ops.push(WalRecord::CreateTable { name: "t".into(), schema: schema_ab() });
        assert!(matches!(store.commit(w), Err(MlError::Catalog(_))));
    }

    #[test]
    fn append_type_mismatch_rejected() {
        let store = Store::in_memory();
        create_and_fill(&store, vec![1]);
        let mut w = TxWrites::default();
        w.ops.push(WalRecord::Append {
            table: "t".into(),
            cols: shared(vec![
                Bat::Double(vec![1.0]),
                Bat::from_buffer(&ColumnBuffer::Varchar(vec![None])),
            ]),
        });
        assert!(matches!(store.commit(w), Err(MlError::TypeMismatch(_))));
    }

    /// The full visible contents of table `t`, column 0, as a buffer.
    fn col0(store: &Store) -> ColumnBuffer {
        let snap = store.snapshot();
        let t = snap.table("t").unwrap();
        let bat = t.data.cols[0].entry().unwrap().bat().unwrap();
        match &t.data.deleted {
            None => bat.to_buffer(None),
            Some(d) => {
                let sel: Vec<u32> = (0..t.data.rows as u32).filter(|&r| !d[r as usize]).collect();
                bat.take(&sel).to_buffer(None)
            }
        }
    }

    fn reopen(dir: &Path) -> Store {
        Store::open(StoreOptions { path: Some(dir.to_path_buf()), ..Default::default() }).unwrap()
    }

    #[test]
    fn checkpoint_crash_at_every_step_recovers_equivalently() {
        // Reference sequence: create+fill, checkpoint, append, delete —
        // then crash the second checkpoint before each of its steps and
        // assert the re-opened store sees exactly the committed state.
        for at in [
            CheckpointCrash::BeforeCatalogRename,
            CheckpointCrash::BeforeWalTruncate,
            CheckpointCrash::BeforeFileGc,
        ] {
            let dir = tempfile::tempdir().unwrap();
            {
                let store = reopen(dir.path());
                create_and_fill(&store, vec![1, 2, 3]);
                store.checkpoint().unwrap();
                let mut w = TxWrites::default();
                w.ops.push(WalRecord::Append {
                    table: "t".into(),
                    cols: shared(vec![
                        Bat::Int(vec![4, 5]),
                        Bat::from_buffer(&ColumnBuffer::Varchar(vec![None, None])),
                    ]),
                });
                store.commit(w).unwrap();
                let mut w = TxWrites::default();
                w.ops.push(WalRecord::Delete { table: "t".into(), rows: vec![1] });
                store.commit(w).unwrap();
                store.checkpoint_crashing(at).unwrap();
                // Simulated kill: the store is dropped without finishing.
            }
            let store = reopen(dir.path());
            assert_eq!(
                col0(&store),
                ColumnBuffer::Int(vec![1, 3, 4, 5]),
                "recovery after crash {at:?} must see each committed txn exactly once"
            );
            // A post-recovery checkpoint + reopen converges to the same state.
            store.checkpoint().unwrap();
            drop(store);
            let store = reopen(dir.path());
            assert_eq!(col0(&store), ColumnBuffer::Int(vec![1, 3, 4, 5]), "after {at:?}");
        }
    }

    #[test]
    fn crash_between_catalog_and_wal_truncate_does_not_double_apply() {
        // The historical bug: the catalog image already contains the
        // appended rows, and the un-truncated WAL replays them again.
        let dir = tempfile::tempdir().unwrap();
        {
            let store = reopen(dir.path());
            create_and_fill(&store, vec![10]);
            store.checkpoint_crashing(CheckpointCrash::BeforeWalTruncate).unwrap();
        }
        let store = reopen(dir.path());
        assert_eq!(
            col0(&store),
            ColumnBuffer::Int(vec![10]),
            "append must not be applied twice after a mid-checkpoint crash"
        );
    }

    #[test]
    fn crash_after_compaction_does_not_replay_stale_deletes() {
        // Deletes compacted into the catalog renumber physical rows; a
        // replayed Delete record with old row ids would remove the wrong
        // rows without the watermark skip.
        let dir = tempfile::tempdir().unwrap();
        {
            let store = reopen(dir.path());
            create_and_fill(&store, vec![1, 2, 3, 4]);
            let mut w = TxWrites::default();
            w.ops.push(WalRecord::Delete { table: "t".into(), rows: vec![0] });
            store.commit(w).unwrap();
            store.checkpoint_crashing(CheckpointCrash::BeforeWalTruncate).unwrap();
        }
        let store = reopen(dir.path());
        assert_eq!(col0(&store), ColumnBuffer::Int(vec![2, 3, 4]));
    }

    #[test]
    fn tx_ids_stay_monotonic_across_restart() {
        let dir = tempfile::tempdir().unwrap();
        {
            let store = reopen(dir.path());
            create_and_fill(&store, vec![1]);
            store.checkpoint().unwrap();
        }
        {
            // New commits after restart get ids above the watermark; a
            // crashless checkpoint keeps everything consistent.
            let store = reopen(dir.path());
            let mut w = TxWrites::default();
            w.ops.push(WalRecord::Append {
                table: "t".into(),
                cols: shared(vec![
                    Bat::Int(vec![2]),
                    Bat::from_buffer(&ColumnBuffer::Varchar(vec![None])),
                ]),
            });
            store.commit(w).unwrap();
        }
        let store = reopen(dir.path());
        assert_eq!(col0(&store), ColumnBuffer::Int(vec![1, 2]));
    }

    #[test]
    fn vmem_eviction_under_pressure_with_reload() {
        let dir = tempfile::tempdir().unwrap();
        let store = Store::open(StoreOptions {
            path: Some(dir.path().to_path_buf()),
            vmem_budget: 6000, // bytes: forces eviction between two 4kB columns
            ..Default::default()
        })
        .unwrap();
        // Two tables with one 1000-row int column each (4 kB).
        for name in ["x", "y"] {
            let mut w = TxWrites::default();
            let schema = Schema::new(vec![Field::not_null("v", LogicalType::Int)]).unwrap();
            w.ops.push(WalRecord::CreateTable { name: name.into(), schema });
            w.ops.push(WalRecord::Append {
                table: name.into(),
                cols: shared(vec![Bat::Int((0..1000).collect())]),
            });
            store.commit(w).unwrap();
        }
        store.checkpoint().unwrap();
        let snap = store.snapshot();
        // Touch x then y: y's touch should evict x under the 6 kB budget.
        let _ = snap.table("x").unwrap().data.cols[0].entry().unwrap().bat().unwrap();
        let _ = snap.table("y").unwrap().data.cols[0].entry().unwrap().bat().unwrap();
        // Touch x again: reload from disk.
        let bat = snap.table("x").unwrap().data.cols[0].entry().unwrap().bat().unwrap();
        assert_eq!(bat.get(999), Value::Int(999));
        let stats = store.vmem().stats();
        assert!(stats.evictions >= 1, "expected evictions, got {stats:?}");
        assert!(stats.loads >= 1, "expected reloads, got {stats:?}");
    }
}
