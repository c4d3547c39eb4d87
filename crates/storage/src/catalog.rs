//! Immutable catalog snapshots and column handles.
//!
//! Following MonetDB's optimistic model (paper §3.1 *Concurrency
//! Control*), "individual transactions operate on a snapshot of the
//! database". A [`CatalogSnapshot`] is an immutable map of table metadata;
//! connections hold an `Arc` to the snapshot current at transaction start
//! and never observe later commits.
//!
//! Columns are held through [`ColumnEntry`] handles that combine the
//! (possibly off-loaded) BAT with its attached secondary-index caches, and
//! through [`SegColumn`] — a persistent (structurally shared) chain of
//! appended segments that makes commit-time appends O(1) while reads see a
//! consolidated contiguous array.

use crate::bat::Bat;
use crate::dict::StrDict;
use crate::heap::DEFAULT_DEDUP_LIMIT;
use crate::index::{bat_keys, HashIndex, Imprints, OrderIndex, Zonemap};
use crate::persist;
use crate::stats::ColumnStats;
use crate::vmem::{ResidentSlot, Vmem};
use monetlite_types::{LogicalType, MlError, Result, Schema};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Global column-id allocator (ids are unique per process; persisted ids
/// are namespaced by file name so uniqueness per store is what matters).
static NEXT_COLUMN_ID: AtomicU64 = AtomicU64::new(1);

fn next_column_id() -> u64 {
    NEXT_COLUMN_ID.fetch_add(1, Ordering::Relaxed)
}

/// Secondary indexes attached to a column (paper §3.1 *Automatic
/// Indexing*). All three are caches: they can be dropped at any time
/// without affecting correctness.
#[derive(Default)]
pub struct IdxCache {
    /// Column imprints — built on first range select, destroyed on any
    /// modification of the column.
    pub imprints: Option<Arc<Imprints>>,
    /// Hash table — built on first equi-join use, *updated* on appends,
    /// destroyed on updates and deletes.
    pub hash: Option<Arc<HashIndex>>,
    /// Order index — only ever created via `CREATE ORDER INDEX`.
    pub order: Option<Arc<OrderIndex>>,
    /// Per-zone min/max summary — built on the first zonemap-eligible
    /// scan (or loaded from the checkpoint's `.zm` sidecar; a VARCHAR
    /// column's, over its dictionary codes, is never persisted), used to
    /// skip whole vectors before any kernel runs.
    pub zonemap: Option<Arc<Zonemap>>,
    /// Column statistics (row/null counts, NDV sketch, min/max) — built
    /// on first optimizer use (or loaded from the checkpoint's `.st`
    /// sidecar), merged forward across appends at consolidation.
    pub stats: Option<Arc<ColumnStats>>,
    /// Sorted string dictionary (VARCHAR only) — built on first
    /// dictionary-eligible scan (or loaded from the checkpoint's `.dict`
    /// sidecar), extended forward across appends at consolidation.
    pub dict: Option<Arc<StrDict>>,
    /// The dictionary's codes as an INT column ([`StrDict::code_column`]),
    /// built on the first group-by over the column and dropped with the
    /// dictionary it was read from.
    pub dict_codes: Option<Arc<Bat>>,
}

/// A handle to one physical column: its data (resident or off-loaded to a
/// backing file under vmem control) plus attached index caches.
pub struct ColumnEntry {
    /// Unique id (keys the vmem registry).
    pub id: u64,
    ty: LogicalType,
    len: usize,
    slot: Arc<ResidentSlot>,
    backing: Mutex<Option<PathBuf>>,
    vmem: Mutex<Option<Arc<Vmem>>>,
    idx: Mutex<IdxCache>,
}

impl std::fmt::Debug for ColumnEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColumnEntry")
            .field("id", &self.id)
            .field("ty", &self.ty)
            .field("len", &self.len)
            .finish()
    }
}

impl ColumnEntry {
    /// Wrap an in-memory BAT (fresh table data or consolidation result).
    /// An `Arc<Bat>` is adopted as it is: the entry shares it, never copies.
    pub fn from_bat(bat: impl Into<Arc<Bat>>) -> ColumnEntry {
        let bat = bat.into();
        ColumnEntry {
            id: next_column_id(),
            ty: bat.logical_type(),
            len: bat.len(),
            slot: Arc::new(Mutex::new(Some(bat))),
            backing: Mutex::new(None),
            vmem: Mutex::new(None),
            idx: Mutex::new(IdxCache::default()),
        }
    }

    /// Create a handle to a persisted column that starts off-loaded; the
    /// data loads on first touch (startup never reads cold columns — the
    /// "near-instantaneous" open of the paper's embedded startup).
    pub fn from_file(path: PathBuf, ty: LogicalType, len: usize, vmem: Arc<Vmem>) -> ColumnEntry {
        ColumnEntry {
            id: next_column_id(),
            ty,
            len,
            slot: Arc::new(Mutex::new(None)),
            backing: Mutex::new(Some(path)),
            vmem: Mutex::new(Some(vmem)),
            idx: Mutex::new(IdxCache::default()),
        }
    }

    /// Logical type.
    pub fn ty(&self) -> LogicalType {
        self.ty
    }

    /// Row count (known without touching the data).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Get the column data, transparently reloading from the backing file
    /// when it was evicted, and informing the vmem clock of the touch.
    pub fn bat(&self) -> Result<Arc<Bat>> {
        // Fast path: resident. The slot lock is dropped before vmem is
        // touched — slot locks and the vmem registry lock are never held
        // together on this path (the evictor holds them in the opposite
        // order).
        let resident = self.slot.lock().clone();
        if let Some(bat) = resident {
            if let Some(vm) = self.vmem.lock().clone() {
                vm.touch(self.id, &self.slot, bat.size_bytes(), false);
            }
            return Ok(bat);
        }
        let path = self
            .backing
            .lock()
            .clone()
            .ok_or_else(|| MlError::Corrupt("column evicted without backing file".into()))?;
        let bat = Arc::new(persist::read_column_file(&path)?);
        if bat.len() != self.len {
            return Err(MlError::Corrupt(format!(
                "{}: expected {} rows, found {}",
                path.display(),
                self.len,
                bat.len()
            )));
        }
        *self.slot.lock() = Some(bat.clone());
        if let Some(vm) = self.vmem.lock().clone() {
            vm.touch(self.id, &self.slot, bat.size_bytes(), true);
        }
        Ok(bat)
    }

    /// Attach a backing file after checkpointing this column, placing it
    /// under vmem eviction control.
    pub fn attach_backing(&self, path: PathBuf, vmem: Arc<Vmem>) {
        *self.backing.lock() = Some(path);
        let bytes = self.slot.lock().as_ref().map(|b| b.size_bytes());
        *self.vmem.lock() = Some(vmem.clone());
        if let Some(bytes) = bytes {
            vmem.touch(self.id, &self.slot, bytes, false);
        }
    }

    /// Whether a backing file exists (the column survives restart).
    pub fn is_backed(&self) -> bool {
        self.backing.lock().is_some()
    }

    /// The backing file path, if any.
    pub fn backing_path(&self) -> Option<PathBuf> {
        self.backing.lock().clone()
    }

    /// Get or build the hash index for this column.
    pub fn hash_index(&self) -> Result<Arc<HashIndex>> {
        if let Some(h) = &self.idx.lock().hash {
            return Ok(h.clone());
        }
        let bat = self.bat()?;
        let built = Arc::new(HashIndex::build(&[&bat]));
        let mut g = self.idx.lock();
        // Another thread may have raced us; keep whichever is present.
        Ok(g.hash.get_or_insert(built).clone())
    }

    /// Get or build column imprints (only meaningful for orderable types;
    /// callers check [`crate::index::orderable`]).
    pub fn imprints(&self) -> Result<Arc<Imprints>> {
        if let Some(im) = &self.idx.lock().imprints {
            return Ok(im.clone());
        }
        let bat = self.bat()?;
        let built = Arc::new(Imprints::build(&bat_keys(&bat)));
        let mut g = self.idx.lock();
        Ok(g.imprints.get_or_insert(built).clone())
    }

    /// Get or build the column's zonemap. Resolution order: in-memory
    /// cache, then the checkpoint's `.zm` sidecar (so a cold column can
    /// be skipped without faulting its data in), then a one-pass build
    /// from the column. Sidecar validation failures are cache misses, not
    /// errors. A VARCHAR column's zonemap is built over its dictionary's
    /// codes ([`ColumnEntry::dict`]) and kept in memory only.
    pub fn zonemap(&self) -> Result<Arc<Zonemap>> {
        if let Some(z) = &self.idx.lock().zonemap {
            return Ok(z.clone());
        }
        if self.ty == LogicalType::Varchar {
            let built = Arc::new(Zonemap::of_codes(self.dict()?.codes()));
            let mut g = self.idx.lock();
            return Ok(g.zonemap.get_or_insert(built).clone());
        }
        if let Some(p) = self.backing_path() {
            let zp = crate::persist::zonemap_sidecar(&p);
            if zp.exists() {
                if let Ok(zm) = crate::persist::read_zonemap_file(&zp) {
                    if zm.rows() == self.len {
                        let mut g = self.idx.lock();
                        return Ok(g.zonemap.get_or_insert(Arc::new(zm)).clone());
                    }
                }
            }
        }
        let bat = self.bat()?;
        let built = Arc::new(Zonemap::build(&bat));
        let mut g = self.idx.lock();
        Ok(g.zonemap.get_or_insert(built).clone())
    }

    /// Install a pre-built zonemap (checkpoint writes the sidecar from
    /// the freshly consolidated column and caches it here).
    pub fn install_zonemap(&self, z: Arc<Zonemap>) {
        self.idx.lock().zonemap = Some(z);
    }

    /// Get or build the column's statistics. Resolution order: in-memory
    /// cache, then the checkpoint's `.st` sidecar (so the optimizer can
    /// cost a cold column without faulting its data in), then a one-pass
    /// build from the column. Sidecar validation failures are cache
    /// misses, not errors.
    pub fn stats(&self) -> Result<Arc<ColumnStats>> {
        if let Some(s) = &self.idx.lock().stats {
            return Ok(s.clone());
        }
        if let Some(p) = self.backing_path() {
            let sp = crate::persist::stats_sidecar(&p);
            if sp.exists() {
                if let Ok(st) = crate::persist::read_stats_file(&sp) {
                    if st.rows == self.len {
                        let mut g = self.idx.lock();
                        return Ok(g.stats.get_or_insert(Arc::new(st)).clone());
                    }
                }
            }
        }
        let bat = self.bat()?;
        let built = Arc::new(ColumnStats::build(&bat));
        let mut g = self.idx.lock();
        Ok(g.stats.get_or_insert(built).clone())
    }

    /// Peek at existing statistics without building them.
    pub fn stats_opt(&self) -> Option<Arc<ColumnStats>> {
        self.idx.lock().stats.clone()
    }

    /// Install pre-built statistics (consolidation merges the base
    /// segment's cached stats with the appended segments'; checkpoint
    /// caches what it writes to the sidecar).
    pub fn install_stats(&self, s: Arc<ColumnStats>) {
        self.idx.lock().stats = Some(s);
    }

    /// Peek at an existing zonemap without building one.
    pub fn zonemap_opt(&self) -> Option<Arc<Zonemap>> {
        self.idx.lock().zonemap.clone()
    }

    /// Get or build the column's string dictionary (VARCHAR only; other
    /// types error — callers check the type first). Resolution order:
    /// in-memory cache, then the checkpoint's `.dict` sidecar (validated
    /// against the row count — corruption or staleness is a cache miss),
    /// then a sort-and-encode pass over the column.
    pub fn dict(&self) -> Result<Arc<StrDict>> {
        if let Some(d) = &self.idx.lock().dict {
            return Ok(d.clone());
        }
        if let Some(p) = self.backing_path() {
            let dp = crate::persist::dict_sidecar(&p);
            if dp.exists() {
                if let Ok(d) = crate::persist::read_dict_file(&dp) {
                    if d.rows() == self.len {
                        let mut g = self.idx.lock();
                        return Ok(g.dict.get_or_insert(Arc::new(d)).clone());
                    }
                }
            }
        }
        let bat = self.bat()?;
        let built = StrDict::build(&bat)
            .ok_or_else(|| MlError::Execution("dictionary over non-VARCHAR column".into()))?;
        let mut g = self.idx.lock();
        Ok(g.dict.get_or_insert(Arc::new(built)).clone())
    }

    /// Peek at an existing dictionary without building one.
    pub fn dict_opt(&self) -> Option<Arc<StrDict>> {
        self.idx.lock().dict.clone()
    }

    /// Install a pre-built dictionary (consolidation extends the base
    /// segment's dictionary; checkpoint caches what it writes to the
    /// sidecar).
    pub fn install_dict(&self, d: Arc<StrDict>) {
        let mut g = self.idx.lock();
        g.dict = Some(d);
        g.dict_codes = None;
    }

    /// The dictionary's codes as an INT column, built once per dictionary
    /// and shared by every aggregate that groups on the column; `None`
    /// when the codes do not fit the INT domain.
    pub fn dict_codes(&self) -> Result<Option<Arc<Bat>>> {
        if let Some(c) = &self.idx.lock().dict_codes {
            return Ok(Some(c.clone()));
        }
        let Some(built) = self.dict()?.code_column() else {
            return Ok(None);
        };
        let mut g = self.idx.lock();
        Ok(Some(g.dict_codes.get_or_insert(Arc::new(built)).clone()))
    }

    /// Get or build the order index (CREATE ORDER INDEX and its users).
    pub fn order_index(&self) -> Result<Arc<OrderIndex>> {
        if let Some(o) = &self.idx.lock().order {
            return Ok(o.clone());
        }
        let bat = self.bat()?;
        let built = Arc::new(OrderIndex::build(&bat_keys(&bat)));
        let mut g = self.idx.lock();
        Ok(g.order.get_or_insert(built).clone())
    }

    /// Peek at an existing order index without building one.
    pub fn order_index_opt(&self) -> Option<Arc<OrderIndex>> {
        self.idx.lock().order.clone()
    }

    /// Peek at an existing hash index without building one.
    pub fn hash_index_opt(&self) -> Option<Arc<HashIndex>> {
        self.idx.lock().hash.clone()
    }

    /// Install a pre-built hash index (used when consolidation carries an
    /// index forward across an append, per the paper's "hash tables ...
    /// are updated on appends").
    pub fn install_hash(&self, h: Arc<HashIndex>) {
        self.idx.lock().hash = Some(h);
    }

    /// Install a pre-built order index.
    pub fn install_order(&self, o: Arc<OrderIndex>) {
        self.idx.lock().order = Some(o);
    }
}

// ---------------------------------------------------------------------------
// Segmented columns: O(1) append with structural sharing
// ---------------------------------------------------------------------------

/// A node in the append chain. `prev` points at the state before this
/// segment was appended.
pub struct SegNode {
    entry: Arc<ColumnEntry>,
    prev: Option<Arc<SegNode>>,
    total_rows: usize,
    depth: usize,
}

impl SegNode {
    /// A chain of one segment.
    fn base(entry: Arc<ColumnEntry>) -> Arc<SegNode> {
        let total_rows = entry.len();
        Arc::new(SegNode { entry, prev: None, total_rows, depth: 1 })
    }
}

impl Drop for SegNode {
    fn drop(&mut self) {
        // Iterative drop: a long append chain must not recurse.
        let mut prev = self.prev.take();
        while let Some(node) = prev {
            match Arc::try_unwrap(node) {
                Ok(mut n) => prev = n.prev.take(),
                Err(_) => break,
            }
        }
    }
}

/// Longest append chain a write leaves behind (see
/// [`SegColumn::wants_consolidation`]).
pub const MAX_CHAIN_DEPTH: usize = 4096;

/// One logical column of a table: a chain of appended segments with a
/// cached consolidated view.
pub struct SegColumn {
    head: Arc<SegNode>,
    consolidated: Mutex<Option<Arc<ColumnEntry>>>,
}

impl std::fmt::Debug for SegColumn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegColumn")
            .field("rows", &self.rows())
            .field("depth", &self.depth())
            .finish()
    }
}

impl Clone for SegColumn {
    fn clone(&self) -> Self {
        SegColumn {
            head: self.head.clone(),
            consolidated: Mutex::new(self.consolidated.lock().clone()),
        }
    }
}

impl SegColumn {
    /// Single-segment column.
    pub fn from_entry(entry: Arc<ColumnEntry>) -> SegColumn {
        SegColumn { head: SegNode::base(entry), consolidated: Mutex::new(None) }
    }

    /// Total rows across all segments.
    pub fn rows(&self) -> usize {
        self.head.total_rows
    }

    /// Chain length.
    pub fn depth(&self) -> usize {
        self.head.depth
    }

    /// Logical type.
    pub fn ty(&self) -> LogicalType {
        self.head.entry.ty()
    }

    /// O(1) append: a new chain sharing every existing segment. When a
    /// reader has already consolidated this column, the new segment chains
    /// onto that cached entry instead (depth 2, with whatever hash index,
    /// statistics and dictionary it carries), so alternating reads and
    /// appends re-consolidate from two segments, never from the whole
    /// history, and the chain depth stays bounded.
    pub fn appended(&self, bat: impl Into<Arc<Bat>>) -> SegColumn {
        let bat = bat.into();
        let rows = bat.len();
        let cached = self.consolidated.lock().clone();
        let prev = match cached {
            Some(entry) => SegNode::base(entry),
            None => self.head.clone(),
        };
        SegColumn {
            head: Arc::new(SegNode {
                entry: Arc::new(ColumnEntry::from_bat(bat)),
                total_rows: prev.total_rows + rows,
                depth: prev.depth + 1,
                prev: Some(prev),
            }),
            consolidated: Mutex::new(None),
        }
    }

    /// The newest segment's entry (test instrumentation: an append must
    /// hand the committed chain the very BAT the statement built).
    #[doc(hidden)]
    pub fn last_segment(&self) -> &Arc<ColumnEntry> {
        &self.head.entry
    }

    /// Whether a reader has consolidated this multi-segment column and the
    /// result is cached (test instrumentation for the write-path cost
    /// model: a write must not populate this for columns it does not read).
    #[doc(hidden)]
    pub fn has_cached_consolidation(&self) -> bool {
        self.consolidated.lock().is_some()
    }

    /// The rows at the ascending physical positions `rows`, as a *compact*
    /// BAT: fetched from the segments that hold them (no consolidation),
    /// with strings re-interned into a heap sized by the gathered rows.
    /// O(chain depth + rows), independent of the column's length — the
    /// UPDATE delta's building block.
    pub fn gather(&self, rows: &[u32]) -> Result<Bat> {
        if !rows.is_sorted() || rows.last().is_some_and(|&r| r as usize >= self.rows()) {
            return Err(MlError::Execution(format!(
                "gather expects ascending row ids below {}",
                self.rows()
            )));
        }
        let mut out = Bat::with_capacity(self.ty(), rows.len());
        // A reader's consolidation is resident by construction, while the
        // segments behind it may have been paged out: prefer it.
        let cached = self.consolidated.lock().clone();
        if let Some(entry) = cached {
            out.append_bat(&entry.bat()?.take(rows))?;
            return Ok(out);
        }
        // Newest segment first: each one holds a suffix of what is left.
        let mut parts = Vec::new();
        let mut rest = rows;
        let mut node = Some(&self.head);
        while let Some(n) = node {
            if rest.is_empty() {
                break;
            }
            let start = (n.total_rows - n.entry.len()) as u32;
            let cut = rest.partition_point(|&r| r < start);
            if cut < rest.len() {
                let local: Vec<u32> = rest[cut..].iter().map(|&r| r - start).collect();
                parts.push(n.entry.bat()?.take(&local));
                rest = &rest[..cut];
            }
            node = n.prev.as_ref();
        }
        for part in parts.iter().rev() {
            out.append_bat(part)?;
        }
        Ok(out)
    }

    /// Whether an append should collapse the chain it has just extended.
    /// Appends are O(batch): they never consolidate for the sake of the
    /// next reader (who consolidates once, lazily, in [`SegColumn::entry`],
    /// and whose result the next append chains onto). The one exception
    /// bounds what a stream of single-row INSERTs nobody reads can build
    /// up in per-segment overhead: a chain this long is collapsed, which
    /// amortises to one row copy per [`MAX_CHAIN_DEPTH`] appended rows.
    pub fn wants_consolidation(&self) -> bool {
        self.head.depth >= MAX_CHAIN_DEPTH
    }

    /// The contiguous view of this column. Single-segment columns return
    /// their entry directly; multi-segment columns consolidate once and
    /// cache the result. Consolidation carries the base segment's hash
    /// index forward by appending the new keys (paper: hash indexes are
    /// updated on appends; imprints and order indexes are destroyed).
    pub fn entry(&self) -> Result<Arc<ColumnEntry>> {
        if self.head.depth == 1 {
            return Ok(self.head.entry.clone());
        }
        if let Some(c) = &*self.consolidated.lock() {
            return Ok(c.clone());
        }
        let consolidated = self.consolidate()?;
        let mut g = self.consolidated.lock();
        Ok(g.get_or_insert(consolidated).clone())
    }

    /// Collapse the chain into a fresh single [`ColumnEntry`].
    pub fn consolidate(&self) -> Result<Arc<ColumnEntry>> {
        // Collect segments oldest-first.
        let mut segs = Vec::with_capacity(self.head.depth);
        let mut node = Some(&self.head);
        while let Some(n) = node {
            segs.push(n.entry.clone());
            node = n.prev.as_ref();
        }
        segs.reverse();
        let base = &segs[0];
        // A bulk-loaded table's chain is the CREATE's empty segment and one
        // appended batch. That batch is the column as it is: the copy below
        // would re-intern its strings row by row into a fresh heap, which
        // its own heap already is — unless the heap was rebuilt from disk
        // (a replayed or loaded segment), which has no dedup table, so
        // strings appended to it later would not be deduplicated. A heap
        // the segment shares with other rows is compacted if it pins more
        // than `MAX_HEAP_PIN_RATIO` times the segment's bytes. A chain of
        // two or more non-empty segments is copied: skipping only its empty
        // ones would append into such a rebuilt heap.
        let mut non_empty = segs.iter().filter(|s| !s.is_empty());
        if let (Some(lone), None) = (non_empty.next(), non_empty.next()) {
            let bat = lone.bat()?;
            if lone.ty().same_repr(base.ty()) && interned(&bat) {
                return Ok(match bat.compacted() {
                    None => lone.clone(),
                    Some(own) => Arc::new(ColumnEntry::from_bat(own)),
                });
            }
        }
        let tails: Vec<Arc<Bat>> = segs[1..].iter().map(|s| s.bat()).collect::<Result<_>>()?;
        let mut bat = (*base.bat()?).clone();
        for tail in &tails {
            bat.append_bat(tail)?;
        }
        // Carry the hash index forward across the append.
        let carried_hash = base.hash_index_opt().map(|h| {
            let mut h2 = (*h).clone();
            h2.append(tails.iter().map(|t| t.as_ref()));
            Arc::new(h2)
        });
        // Carry column statistics forward: merge the base's cached stats
        // with one-pass stats of each (small) appended segment instead of
        // rescanning the whole column.
        let carried_stats = base.stats_opt().map(|s| {
            Arc::new(tails.iter().fold((*s).clone(), |acc, t| acc.merge(&ColumnStats::build(t))))
        });
        // Carry the string dictionary forward: a sorted merge of the new
        // segments' distinct values plus a code remap — never a rescan of
        // the base rows' strings.
        let carried_dict = base.dict_opt().and_then(|d| {
            let refs: Vec<&Bat> = tails.iter().map(|b| b.as_ref()).collect();
            d.extended(&refs).map(Arc::new)
        });
        let entry = Arc::new(ColumnEntry::from_bat(bat));
        if let Some(h) = carried_hash {
            entry.install_hash(h);
        }
        if let Some(s) = carried_stats {
            entry.install_stats(s);
        }
        if let Some(d) = carried_dict {
            entry.install_dict(d);
        }
        Ok(entry)
    }
}

/// Whether `bat` is what interning its rows into a fresh heap builds: a
/// fixed-width column, or strings in a heap that still deduplicates or
/// stopped at its distinct-value limit (not one rebuilt from raw bytes).
fn interned(bat: &Bat) -> bool {
    match bat {
        Bat::Varchar { heap, .. } => {
            heap.dedup_active() || heap.distinct_seen() > DEFAULT_DEDUP_LIMIT
        }
        _ => true,
    }
}

// ---------------------------------------------------------------------------
// Tables and snapshots
// ---------------------------------------------------------------------------

/// The data of one table version: segmented columns plus a deletion mask.
#[derive(Debug, Clone)]
pub struct TableData {
    /// One segmented column per schema field.
    pub cols: Vec<SegColumn>,
    /// Deletion bitmap over physical rows (`None` = nothing deleted).
    pub deleted: Option<Arc<Vec<bool>>>,
    /// Physical rows (including deleted ones).
    pub rows: usize,
    /// Number of deleted rows.
    pub deleted_count: usize,
}

impl TableData {
    /// Empty table data for a schema.
    pub fn empty(schema: &Schema) -> TableData {
        TableData {
            cols: schema
                .fields()
                .iter()
                .map(|f| SegColumn::from_entry(Arc::new(ColumnEntry::from_bat(Bat::new(f.ty)))))
                .collect(),
            deleted: None,
            rows: 0,
            deleted_count: 0,
        }
    }

    /// Rows visible to scans.
    pub fn visible_rows(&self) -> usize {
        self.rows - self.deleted_count
    }

    /// New version with `bats` appended column-wise: O(batch), whatever
    /// the table holds — existing segments are shared, not copied (but see
    /// [`SegColumn::wants_consolidation`]), and so are the new BATs.
    pub fn appended(
        &self,
        bats: impl IntoIterator<Item = impl Into<Arc<Bat>>>,
    ) -> Result<TableData> {
        let bats: Vec<Arc<Bat>> = bats.into_iter().map(Into::into).collect();
        if bats.len() != self.cols.len() {
            return Err(MlError::Execution(format!(
                "append expects {} columns, got {}",
                self.cols.len(),
                bats.len()
            )));
        }
        let added = bats.first().map_or(0, |b| b.len());
        if bats.iter().any(|b| b.len() != added) {
            return Err(MlError::Execution("append columns have unequal lengths".into()));
        }
        let mut cols = Vec::with_capacity(self.cols.len());
        for (sc, bat) in self.cols.iter().zip(bats) {
            let appended = sc.appended(bat);
            if appended.wants_consolidation() {
                cols.push(SegColumn::from_entry(appended.consolidate()?));
            } else {
                cols.push(appended);
            }
        }
        let deleted = match &self.deleted {
            None => None,
            Some(d) => {
                let mut d2 = (**d).clone();
                d2.resize(self.rows + added, false);
                Some(Arc::new(d2))
            }
        };
        Ok(TableData { cols, deleted, rows: self.rows + added, deleted_count: self.deleted_count })
    }

    /// New version with additional rows marked deleted.
    pub fn with_deleted(&self, rows_to_delete: &[u32]) -> TableData {
        let mut d = match &self.deleted {
            Some(d) => (**d).clone(),
            None => vec![false; self.rows],
        };
        let mut newly = 0;
        for &r in rows_to_delete {
            let r = r as usize;
            if r < d.len() && !d[r] {
                d[r] = true;
                newly += 1;
            }
        }
        TableData {
            cols: self.cols.clone(),
            deleted: Some(Arc::new(d)),
            rows: self.rows,
            deleted_count: self.deleted_count + newly,
        }
    }
}

/// Metadata + data for one table version.
#[derive(Debug)]
pub struct TableMeta {
    /// Stable table id.
    pub id: u64,
    /// Lower-cased table name.
    pub name: String,
    /// Column definitions.
    pub schema: Schema,
    /// Current data version.
    pub data: TableData,
    /// Version counter, bumped by every committed write; the optimistic
    /// commit protocol validates it (write-write conflict detection).
    pub version: u64,
    /// Column positions carrying a user-created ORDER INDEX (re-built
    /// lazily after restart or append).
    pub ordered_cols: Vec<usize>,
}

/// An immutable snapshot of the whole catalog.
#[derive(Debug, Default)]
pub struct CatalogSnapshot {
    /// Tables by lower-cased name.
    pub tables: HashMap<String, Arc<TableMeta>>,
}

impl CatalogSnapshot {
    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<&Arc<TableMeta>> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| MlError::Catalog(format!("unknown table '{name}'")))
    }

    /// Table names in sorted order (for stable catalog listings).
    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tables.keys().cloned().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monetlite_types::{ColumnBuffer, Field};

    fn int_entry(vals: Vec<i32>) -> Arc<ColumnEntry> {
        Arc::new(ColumnEntry::from_bat(Bat::Int(vals)))
    }

    #[test]
    fn entry_roundtrips_bat() {
        let e = int_entry(vec![1, 2, 3]);
        assert_eq!(e.len(), 3);
        assert_eq!(e.bat().unwrap().get(1), monetlite_types::Value::Int(2));
        assert!(!e.is_backed());
    }

    #[test]
    fn seg_column_append_is_structural() {
        let c0 = SegColumn::from_entry(int_entry(vec![1, 2]));
        let c1 = c0.appended(Bat::Int(vec![3]));
        let c2 = c1.appended(Bat::Int(vec![4, 5]));
        assert_eq!(c0.rows(), 2);
        assert_eq!(c1.rows(), 3);
        assert_eq!(c2.rows(), 5);
        assert_eq!(c2.depth(), 3);
        // Consolidated view sees everything in order.
        let e = c2.entry().unwrap();
        let bat = e.bat().unwrap();
        assert_eq!(bat.to_buffer(None), ColumnBuffer::Int(vec![1, 2, 3, 4, 5]));
        // Older version unaffected.
        assert_eq!(c1.entry().unwrap().bat().unwrap().len(), 3);
    }

    #[test]
    fn consolidation_carries_hash_index() {
        let base = int_entry(vec![10, 20, 10]);
        let _ = base.hash_index().unwrap(); // build on base
        let col = SegColumn::from_entry(base).appended(Bat::Int(vec![20]));
        let e = col.entry().unwrap();
        let h = e.hash_index_opt().expect("hash index carried across append");
        let rows_of = |v: i32| {
            let key = crate::hash::hash_rows(&[&Bat::Int(vec![v])], None)[0];
            h.candidates(key).collect::<Vec<u32>>()
        };
        assert_eq!(rows_of(10), vec![0, 2]);
        assert_eq!(rows_of(20), vec![1, 3]);
        assert_eq!(*h, HashIndex::build(&[&e.bat().unwrap()]), "carried == rebuilt");
    }

    #[test]
    fn consolidation_drops_imprints_and_order() {
        let base = int_entry(vec![3, 1, 2]);
        let _ = base.imprints().unwrap();
        let _ = base.order_index().unwrap();
        let col = SegColumn::from_entry(base).appended(Bat::Int(vec![0]));
        let e = col.entry().unwrap();
        assert!(e.order_index_opt().is_none(), "order index must not survive appends");
        assert!(e.idx.lock().imprints.is_none(), "imprints must not survive appends");
        assert!(e.zonemap_opt().is_none(), "zonemaps must not survive appends");
    }

    #[test]
    fn zonemap_cached_and_dropped_on_consolidation() {
        let base = int_entry((0..100).collect());
        let z1 = base.zonemap().unwrap();
        assert_eq!(z1.rows(), 100);
        assert!(Arc::ptr_eq(&z1, &base.zonemap().unwrap()), "second call hits the cache");
        let _ = base.zonemap_opt().expect("cached");
        // Consolidation produces a fresh entry with no stale zonemap.
        let col = SegColumn::from_entry(base).appended(Bat::Int(vec![7]));
        let e = col.entry().unwrap();
        assert!(e.zonemap_opt().is_none());
        assert_eq!(e.zonemap().unwrap().rows(), 101, "rebuilt over the consolidated data");
    }

    #[test]
    fn stats_cached_and_merged_across_consolidation() {
        let base = int_entry(vec![1, 2, 2, i32::MIN]);
        let s1 = base.stats().unwrap();
        assert_eq!((s1.rows, s1.nulls), (4, 1));
        assert!(Arc::ptr_eq(&s1, &base.stats().unwrap()), "second call hits the cache");
        // Consolidation merges instead of rescanning; the result must
        // equal a fresh build over the concatenated data.
        let col = SegColumn::from_entry(base).appended(Bat::Int(vec![9, i32::MIN]));
        let e = col.entry().unwrap();
        let carried = e.stats_opt().expect("stats carried across append");
        let rebuilt = ColumnStats::build(&e.bat().unwrap());
        assert_eq!((carried.rows, carried.nulls), (rebuilt.rows, rebuilt.nulls));
        assert_eq!((carried.min_key, carried.max_key), (rebuilt.min_key, rebuilt.max_key));
        assert_eq!(carried.sketch, rebuilt.sketch, "HLL merge is order-insensitive");
    }

    #[test]
    fn dict_cached_and_extended_across_consolidation() {
        let vc = |vals: Vec<Option<&str>>| {
            Bat::from_buffer(&ColumnBuffer::Varchar(
                vals.into_iter().map(|s| s.map(String::from)).collect(),
            ))
        };
        let base = Arc::new(ColumnEntry::from_bat(vc(vec![Some("m"), Some("c"), None])));
        let d1 = base.dict().unwrap();
        assert_eq!(d1.len(), 2);
        assert!(Arc::ptr_eq(&d1, &base.dict().unwrap()), "second call hits the cache");
        // Consolidation extends instead of rebuilding from strings; the
        // result must equal a fresh build over the concatenated data.
        let col = SegColumn::from_entry(base).appended(vc(vec![Some("a"), Some("m")]));
        let e = col.entry().unwrap();
        let carried = e.dict_opt().expect("dictionary carried across append");
        let rebuilt = crate::dict::StrDict::build(&e.bat().unwrap()).unwrap();
        assert_eq!(*carried, rebuilt, "extend must equal rebuild");
        assert_eq!(carried.codes().len(), 5);
        // Without a prior dictionary touch, consolidation must not pay
        // the sort-and-encode pass.
        let col2 = SegColumn::from_entry(Arc::new(ColumnEntry::from_bat(vc(vec![Some("x")]))))
            .appended(vc(vec![Some("y")]));
        assert!(col2.entry().unwrap().dict_opt().is_none());
        // dict() on a non-VARCHAR column is an error, not a panic.
        assert!(int_entry(vec![1]).dict().is_err());
    }

    #[test]
    fn stats_not_built_eagerly_on_consolidation() {
        // Without a prior optimizer touch, consolidation must not pay a
        // stats pass; the next stats() call builds over the consolidated
        // column.
        let col = SegColumn::from_entry(int_entry(vec![1, 2])).appended(Bat::Int(vec![3]));
        let e = col.entry().unwrap();
        assert!(e.stats_opt().is_none());
        let s = e.stats().unwrap();
        assert_eq!(s.rows, 3);
        assert_eq!((s.min_key, s.max_key), (1, 3));
    }

    fn varchar(vals: &[Option<&str>]) -> Bat {
        Bat::from_buffer(&ColumnBuffer::Varchar(vals.iter().map(|s| s.map(String::from)).collect()))
    }

    #[test]
    fn append_after_read_chains_onto_the_cached_consolidation() {
        // 50 x {append 1 row; read}: every read consolidates two segments
        // (the previous consolidation + one row), and depth never grows.
        let mut col =
            SegColumn::from_entry(Arc::new(ColumnEntry::from_bat(varchar(&[Some("base"), None]))));
        let _ = col.entry().unwrap().hash_index().unwrap();
        let mut want = vec![Some("base".to_string()), None];
        for i in 0..50 {
            let v = format!("v{}", i % 7);
            col = col.appended(varchar(&[Some(&v)]));
            want.push(Some(v));
            assert!(col.depth() <= 2, "depth {} after {} appends", col.depth(), i + 1);
            assert!(!col.has_cached_consolidation());
            let e = col.entry().unwrap();
            assert_eq!(e.len(), want.len());
            assert!(e.hash_index_opt().is_some(), "hash index carried through every step");
        }
        let got = col.entry().unwrap().bat().unwrap();
        assert_eq!(got.to_buffer(None), ColumnBuffer::Varchar(want.clone()));
        // Byte-identical to consolidating the straight concatenation once.
        let mut straight =
            SegColumn::from_entry(Arc::new(ColumnEntry::from_bat(varchar(&[Some("base"), None]))));
        for v in &want[2..] {
            straight = straight.appended(varchar(&[v.as_deref()]));
        }
        assert_eq!(straight.depth(), 51);
        let straight = straight.entry().unwrap().bat().unwrap();
        let (Bat::Varchar { offsets: o1, heap: h1 }, Bat::Varchar { offsets: o2, heap: h2 }) =
            (got.as_ref(), straight.as_ref())
        else {
            panic!("varchar expected");
        };
        assert_eq!((o1, h1.raw()), (o2, h2.raw()));
        // Without a read in between, appends keep sharing the old chain.
        let c = SegColumn::from_entry(int_entry(vec![1])).appended(Bat::Int(vec![2]));
        assert_eq!(c.appended(Bat::Int(vec![3])).depth(), 3);
    }

    fn empty_column(ty: LogicalType) -> SegColumn {
        SegColumn::from_entry(Arc::new(ColumnEntry::from_bat(Bat::new(ty))))
    }

    #[test]
    fn a_lone_non_empty_segment_is_the_consolidation_itself() {
        // The CREATE's empty segment and one bulk-loaded batch.
        let col = empty_column(LogicalType::Varchar).appended(varchar(&[
            Some("a"),
            None,
            Some("b"),
            Some("a"),
        ]));
        let lone = col.last_segment().clone();
        assert!(Arc::ptr_eq(&col.consolidate().unwrap(), &lone));
        assert!(Arc::ptr_eq(&col.entry().unwrap(), &lone));
        // Empty segments on either side of it.
        let col = empty_column(LogicalType::Int).appended(Bat::Int(vec![1, 2]));
        let lone = col.last_segment().clone();
        let col = col.appended(Bat::Int(vec![]));
        assert!(Arc::ptr_eq(&col.consolidate().unwrap(), &lone));
        // Two non-empty segments are copied into one.
        let col = col.appended(Bat::Int(vec![3]));
        let e = col.consolidate().unwrap();
        assert!(!Arc::ptr_eq(&e, &lone));
        assert_eq!(e.bat().unwrap().to_buffer(None), ColumnBuffer::Int(vec![1, 2, 3]));
        // A decimal segment of another scale is rescaled to the column's.
        let col = empty_column(LogicalType::Decimal { width: 12, scale: 2 })
            .appended(Bat::Decimal { data: vec![15], scale: 1 });
        let e = col.consolidate().unwrap();
        assert_eq!(e.ty(), LogicalType::Decimal { width: 18, scale: 2 });
        assert_eq!(
            e.bat().unwrap().to_buffer(None),
            ColumnBuffer::Decimal { data: vec![150], scale: 2 }
        );
        // A heap rebuilt from raw bytes (a replayed or loaded segment) does
        // not deduplicate: copied, so later appends deduplicate again.
        let Bat::Varchar { offsets, heap } = varchar(&[Some("r"), Some("r")]) else {
            unreachable!()
        };
        let raw =
            Bat::Varchar { offsets, heap: crate::heap::StringHeap::from_raw(heap.raw().to_vec()) };
        let col = empty_column(LogicalType::Varchar).appended(raw);
        let e = col.consolidate().unwrap();
        assert!(!Arc::ptr_eq(&e, col.last_segment()));
        let Bat::Varchar { heap, .. } = &*e.bat().unwrap() else { unreachable!() };
        assert!(heap.dedup_active());
    }

    #[test]
    fn a_lone_segment_pinning_a_larger_shared_heap_is_compacted() {
        let strs: Vec<String> = (0..100).map(|i| format!("value-{i:03}")).collect();
        let big = varchar(&strs.iter().map(|s| Some(s.as_str())).collect::<Vec<_>>());
        // One row gathered out of the column shares its 100-entry heap.
        let col = empty_column(LogicalType::Varchar).appended(big.take(&[5]));
        let e = col.consolidate().unwrap();
        assert!(!Arc::ptr_eq(&e, col.last_segment()), "a pinned heap must be compacted");
        let bat = e.bat().unwrap();
        assert_eq!(bat.str_at(0), Some("value-005"));
        let Bat::Varchar { heap, .. } = &*bat else { unreachable!() };
        assert_eq!(heap.size_bytes(), 1 + 4 + 9, "the NULL marker and one entry");
        // Rows that hold most of the heap keep it as it is.
        let col =
            empty_column(LogicalType::Varchar).appended(big.take(&(0..90).collect::<Vec<_>>()));
        assert!(Arc::ptr_eq(&col.consolidate().unwrap(), col.last_segment()));
    }

    #[test]
    fn gather_reads_segments_without_consolidating() {
        let col = SegColumn::from_entry(Arc::new(ColumnEntry::from_bat(varchar(&[
            Some("a0"),
            Some("a1"),
            None,
        ]))))
        .appended(varchar(&[Some("b0")]))
        .appended(varchar(&[Some("c0"), Some("a1"), Some("c2")]));
        let got = col.gather(&[1, 2, 3, 5, 6]).unwrap();
        assert!(!col.has_cached_consolidation(), "gather must not consolidate");
        let want: Vec<Option<String>> = [Some("a1"), None, Some("b0"), Some("a1"), Some("c2")]
            .map(|s| s.map(String::from))
            .into();
        assert_eq!(got.to_buffer(None), ColumnBuffer::Varchar(want.clone()));
        // Compact: only the three distinct gathered strings are in the heap.
        assert_eq!(got.size_bytes(), 5 * 4 + 1 + 3 * (4 + 2));
        // Same answer (and still compact) through a cached consolidation.
        let _ = col.entry().unwrap();
        let cached = col.gather(&[1, 2, 3, 5, 6]).unwrap();
        assert_eq!(cached.to_buffer(None), ColumnBuffer::Varchar(want));
        assert_eq!(cached.size_bytes(), got.size_bytes());
        // Edge cases: nothing to gather; a single segment; bad row ids.
        assert!(col.gather(&[]).unwrap().is_empty());
        let single = SegColumn::from_entry(int_entry(vec![10, 20, 30]));
        assert_eq!(
            single.gather(&[0, 2]).unwrap().to_buffer(None),
            ColumnBuffer::Int(vec![10, 30])
        );
        assert!(col.gather(&[7]).is_err());
        assert!(single.gather(&[2, 0]).is_err(), "descending ids would gather the wrong rows");
    }

    #[test]
    fn deep_chain_drop_does_not_overflow() {
        let mut col = SegColumn::from_entry(int_entry(vec![0]));
        for i in 0..20_000 {
            col = col.appended(Bat::Int(vec![i]));
        }
        assert_eq!(col.depth(), 20_001);
        drop(col); // must not blow the stack
    }

    #[test]
    fn wants_consolidation_doubling() {
        // The doubling rule is gone: a tail that outgrows the base no
        // longer makes the *writer* consolidate (the first reader does,
        // once). Only the chain-length cap is left.
        let mut col = SegColumn::from_entry(int_entry((0..2048).collect()));
        col = col.appended(Bat::Int(vec![1]));
        assert!(!col.wants_consolidation());
        col = col.appended(Bat::Int((0..3000).collect()));
        assert!(!col.wants_consolidation(), "tail >= base is the reader's business now");
        for i in 3..MAX_CHAIN_DEPTH {
            assert!(!col.wants_consolidation(), "depth {i}");
            col = col.appended(Bat::Int(vec![i as i32]));
        }
        assert_eq!(col.depth(), MAX_CHAIN_DEPTH);
        assert!(col.wants_consolidation(), "the cap bounds single-row streams");
    }

    #[test]
    fn table_append_is_lazy_up_to_the_chain_cap() {
        let schema = Schema::new(vec![
            Field::new("a", LogicalType::Int),
            Field::new("b", LogicalType::Varchar),
        ])
        .unwrap();
        let row = |i: i32| vec![Bat::Int(vec![i]), varchar(&[Some(&format!("s{}", i % 3))])];
        // Bulk appends far bigger than the base stay a chain...
        let mut t = TableData::empty(&schema).appended(row(0)).unwrap();
        let big: Vec<Option<String>> = (0..5000).map(|i| Some(format!("v{i}"))).collect();
        t = t
            .appended(vec![
                Bat::Int((0..5000).collect()),
                Bat::from_buffer(&ColumnBuffer::Varchar(big)),
            ])
            .unwrap();
        assert!(t.cols.iter().all(|c| c.depth() == 3 && !c.has_cached_consolidation()));
        // ... and a single-row stream is collapsed every MAX_CHAIN_DEPTH
        // appends, so depth stays bounded and nothing is lost.
        for i in 0..2 * MAX_CHAIN_DEPTH as i32 {
            t = t.appended(row(i)).unwrap();
            assert!(t.cols.iter().all(|c| c.depth() < MAX_CHAIN_DEPTH), "append {i}");
        }
        assert_eq!(t.rows, 5001 + 2 * MAX_CHAIN_DEPTH);
        let a = t.cols[0].entry().unwrap().bat().unwrap();
        assert_eq!(a.len(), t.rows);
        assert_eq!(a.get(t.rows - 1), monetlite_types::Value::Int(2 * MAX_CHAIN_DEPTH as i32 - 1));
    }

    #[test]
    fn table_data_append_and_delete() {
        let schema = Schema::new(vec![
            Field::new("a", LogicalType::Int),
            Field::new("b", LogicalType::Varchar),
        ])
        .unwrap();
        let t0 = TableData::empty(&schema);
        let t1 = t0
            .appended(vec![
                Bat::Int(vec![1, 2, 3]),
                Bat::from_buffer(&ColumnBuffer::Varchar(vec![
                    Some("x".into()),
                    Some("y".into()),
                    None,
                ])),
            ])
            .unwrap();
        assert_eq!(t1.visible_rows(), 3);
        let t2 = t1.with_deleted(&[1]);
        assert_eq!(t2.visible_rows(), 2);
        assert_eq!(t1.visible_rows(), 3, "snapshot isolation: old version untouched");
        // Deleting the same row twice is idempotent.
        let t3 = t2.with_deleted(&[1]);
        assert_eq!(t3.visible_rows(), 2);
        // Append after delete keeps the mask consistent.
        let t4 = t2
            .appended(vec![Bat::Int(vec![9]), Bat::from_buffer(&ColumnBuffer::Varchar(vec![None]))])
            .unwrap();
        assert_eq!(t4.rows, 4);
        assert_eq!(t4.visible_rows(), 3);
    }

    #[test]
    fn append_arity_and_length_checked() {
        let schema = Schema::new(vec![Field::new("a", LogicalType::Int)]).unwrap();
        let t0 = TableData::empty(&schema);
        assert!(t0.appended(Vec::<Bat>::new()).is_err());
        let schema2 =
            Schema::new(vec![Field::new("a", LogicalType::Int), Field::new("b", LogicalType::Int)])
                .unwrap();
        let t0 = TableData::empty(&schema2);
        assert!(t0.appended(vec![Bat::Int(vec![1]), Bat::Int(vec![1, 2])]).is_err());
    }

    #[test]
    fn snapshot_lookup() {
        let mut snap = CatalogSnapshot::default();
        let schema = Schema::new(vec![Field::new("a", LogicalType::Int)]).unwrap();
        snap.tables.insert(
            "t".into(),
            Arc::new(TableMeta {
                id: 1,
                name: "t".into(),
                schema: schema.clone(),
                data: TableData::empty(&schema),
                version: 0,
                ordered_cols: vec![],
            }),
        );
        assert!(snap.table("T").is_ok(), "case-insensitive lookup");
        assert!(snap.table("missing").is_err());
        assert_eq!(snap.table_names(), vec!["t"]);
    }
}
