//! # monetlite-storage
//!
//! The storage substrate of the `monetlite` embedded analytical database,
//! reproducing the design in §3.1 of the MonetDBLite paper:
//!
//! * [`heap`] — variable-sized string heaps with duplicate elimination
//!   below a distinct-count threshold.
//! * [`bat`] — tightly packed typed column arrays ("BATs"); row numbers are
//!   implicit in array position; NULLs are in-domain sentinels.
//! * [`hash`] — the one chained hash table (bucket heads + per-row links +
//!   stored hashes) behind joins, grouping, DISTINCT and the automatic
//!   hash index, and the vectorized row hash that feeds it.
//! * [`index`] — secondary index structures: column imprints (cache-line
//!   bitmap index), the automatic hash index, and the user-created order
//!   index.
//! * [`vmem`] — a simulation of the OS page cache over memory-mapped column
//!   files: no buffer pool; hot columns stay resident, cold ones are
//!   evicted under a global byte budget and transparently reloaded.
//! * [`stats`] — per-column statistics (row/null counts, HyperLogLog NDV
//!   sketch, min/max) feeding the cost-based optimizer.
//! * [`dict`] — sorted per-column string dictionaries mapping VARCHAR rows
//!   to dense order-preserving `u32` codes (predicates, zone skipping and
//!   group-bys over flat integers; rehydration only at the sink).
//! * [`persist`] — the on-disk column-file format.
//! * [`wal`] — the write-ahead log, checkpointing and crash recovery.
//! * [`catalog`] — immutable catalog snapshots (tables, schemas, column
//!   handles with attached index caches).
//! * [`store`] — the shared database state: snapshot publication, the
//!   optimistic commit protocol (write-write conflict detection), and
//!   startup/recovery.

// The only `unsafe` in the workspace lives in `persist` (POD slice
// casts); future unsafe fns must restate their obligations explicitly.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod bat;
pub mod catalog;
pub mod dict;
pub mod fault;
pub mod hash;
pub mod heap;
pub mod index;
pub mod persist;
pub mod stats;
pub mod store;
pub mod vmem;
pub mod wal;

pub use bat::Bat;
pub use catalog::{CatalogSnapshot, ColumnEntry, TableData, TableMeta};
pub use dict::{StrDict, NULL_CODE};
pub use heap::StringHeap;
pub use store::{Store, StoreOptions, TxWrites};
pub use vmem::{Vmem, VmemStats};
