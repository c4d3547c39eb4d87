//! Result cache: full result sets for identical read-only statements,
//! keyed on the canonical statement *with* literals plus the same
//! option/stats/view fingerprint as the plan cache.
//!
//! A hit returns the stored columns by `Arc` clone — no parse, bind,
//! optimize, or execution. Correctness comes from the same lazy
//! `(name, id, version)` dependency validation as the plan cache: any
//! committed change to an input table (append, delete, compaction,
//! DROP/CREATE) moves the fingerprint and the entry is discarded on the
//! next lookup. Entries are byte-accounted via [`Bat::mem_bytes`] and
//! evicted least-recently-used past the configured budget
//! (`ExecOptions::result_cache_bytes`).

use crate::plan_cache::{deps_valid, CacheKey, Dep, Lru};
use crate::QueryResult;
use monetlite_storage::catalog::TableMeta;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One cached result set.
pub struct ResultEntry {
    /// The result as handed to the first caller; a hit clones it (shared
    /// header, shared columns).
    pub result: QueryResult,
    /// Input-table fingerprints at store time (shared with the plan
    /// template the statement ran from, when there was one).
    pub deps: Arc<[Dep]>,
}

impl ResultEntry {
    fn mem_bytes(&self) -> usize {
        let data: usize = self.result.cols.iter().map(|b| b.mem_bytes()).sum();
        let names: usize = self.result.names().iter().map(|n| n.len() + 24).sum();
        data + names + 256
    }
}

/// The shared result cache.
#[derive(Default)]
pub struct ResultCache {
    entries: Lru<ResultEntry, CacheKey>,
    /// Hits (execution skipped entirely).
    pub hits: AtomicU64,
    /// Misses (statement executed).
    pub misses: AtomicU64,
    /// Hits rejected because a dependency's id/version moved.
    pub invalidations: AtomicU64,
    /// Results evicted to stay within the byte budget.
    pub evictions: AtomicU64,
}

impl ResultCache {
    /// Fetch a result if its dependencies still hold for `tables`.
    pub fn get_valid(
        &self,
        key: &CacheKey,
        tables: &HashMap<String, Arc<TableMeta>>,
    ) -> Option<Arc<ResultEntry>> {
        self.entries.get_valid(key, |e| {
            let valid = deps_valid(&e.deps, tables);
            if !valid {
                self.invalidations.fetch_add(1, Ordering::Relaxed);
            }
            valid
        })
    }

    /// Store a result under `key` within `budget` bytes.
    pub fn put(&self, key: CacheKey, entry: ResultEntry, budget: usize) {
        let bytes = key.weight() + entry.mem_bytes();
        let evicted = self.entries.put(key, Arc::new(entry), bytes, budget);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no results are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.len() == 0
    }

    /// Total accounted bytes.
    pub fn bytes(&self) -> usize {
        self.entries.bytes()
    }

    /// Drop everything (tests).
    pub fn clear(&self) {
        self.entries.clear();
    }
}
