//! The four workloads and what they share: how one operation is timed in
//! each of the three pass modes, and what a pass reports.

pub mod adhoc;
pub mod session;
pub mod tpch;

use crate::hash;
use crate::trace::Recorder;
use crate::view::run_layered;
use monetlite::bind::ViewDef;
use monetlite::exec::CountersSnapshot;
use monetlite::host::{HostFrame, TransferMode};
use monetlite::{Connection, Database, QueryResult};
use std::collections::HashMap;
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["tpch_hot", "tpch_spill", "adhoc_small", "session_rw"];

/// How a pass runs its statements.
pub enum Mode<'r> {
    /// Public API only, nothing recorded but latencies: the mode every
    /// end-to-end metric is measured in.
    Plain,
    /// Public API with a span around each call and the engine's counters
    /// read after each statement.
    Traced(&'r mut Recorder),
    /// SELECTs go layer by layer through [`run_layered`].
    Layered(&'r mut Recorder),
}

/// One timed operation.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Index into the workload's `kinds()`.
    pub kind: usize,
    /// Latency in seconds.
    pub secs: f64,
}

/// What one pass measured.
#[derive(Default)]
pub struct Pass {
    /// Timed operations, in execution order. Their sum is the pass time:
    /// hashing, statement generation and other benchmark-side work
    /// between operations is not counted.
    pub ops: Vec<Op>,
    /// Observations named after the per-layer metric they feed.
    pub obs: Vec<(&'static str, f64)>,
    /// Operations attempted (timed or not).
    pub attempted: u64,
    /// Operations that errored or returned a wrong result.
    pub failed: u64,
    /// First few failure descriptions.
    pub failures: Vec<String>,
    /// Executor counters summed over the pass's SELECTs (traced mode).
    pub counters: CountersSnapshot,
    /// SELECTs the counters were summed over.
    pub selects: u64,
}

impl Pass {
    /// Sum of the operation latencies.
    pub fn wall(&self) -> f64 {
        self.ops.iter().map(|o| o.secs).sum()
    }

    /// Count a failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Count a failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// Time a non-SELECT operation of `kind`; an error counts as failed.
    pub fn timed<T>(
        &mut self,
        kind: usize,
        what: &str,
        f: impl FnOnce() -> monetlite::types::Result<T>,
    ) -> Option<T> {
        self.attempted += 1;
        let t = Instant::now();
        let r = f();
        self.ops.push(Op { kind, secs: t.elapsed().as_secs_f64() });
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    fn add_counters(&mut self, c: &CountersSnapshot) {
        self.selects += 1;
        let s = &mut self.counters;
        s.imprint_selects += c.imprint_selects;
        s.hash_index_joins += c.hash_index_joins;
        s.morsels += c.morsels;
        s.vectors += c.vectors;
        s.spilled_partitions += c.spilled_partitions;
        s.spill_bytes += c.spill_bytes;
        s.vectors_skipped += c.vectors_skipped;
        s.sel_vectors += c.sel_vectors;
        s.dict_hits += c.dict_hits;
        s.bloom_pruned += c.bloom_pruned;
        s.plan_cache_hits += c.plan_cache_hits;
        s.result_cache_hits += c.result_cache_hits;
    }

    /// Publish the summed counters as per-pass observations.
    pub fn publish_counters(&mut self) {
        let c = self.counters;
        let selects = self.selects.max(1) as f64;
        self.obs.extend([
            ("plan_cache.hit_ratio", c.plan_cache_hits as f64 / selects),
            ("result_cache.hit_ratio", c.result_cache_hits as f64 / selects),
            ("exec.vectors", c.vectors as f64),
            ("exec.morsels", c.morsels as f64),
            ("exec.vectors_skipped", c.vectors_skipped as f64),
            ("exec.sel_vectors", c.sel_vectors as f64),
            ("exec.dict_hits", c.dict_hits as f64),
            ("exec.bloom_pruned", c.bloom_pruned as f64),
            ("exec.hash_index_joins", c.hash_index_joins as f64),
            ("exec.imprint_selects", c.imprint_selects as f64),
            ("spill.bytes_per_pass", c.spill_bytes as f64),
            ("spill.partitions_per_pass", c.spilled_partitions as f64),
        ]);
    }
}

/// What a SELECT returned, as far as the correctness gate cares.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    /// Result hash (row-order-sensitive iff the statement has ORDER BY).
    pub hash: u64,
    /// Result rows.
    pub rows: usize,
    /// Latency of the operation in seconds.
    pub secs: f64,
}

/// The handles a SELECT needs in any mode.
pub struct Target<'a> {
    /// The open database (the layered path reads its snapshot and vmem).
    pub db: &'a Database,
    /// The measured connection.
    pub conn: &'a mut Connection,
    /// View definitions for the layered path's binder.
    pub views: &'a HashMap<String, ViewDef>,
}

/// What the host does with a result inside the timed operation.
pub enum Host<'f> {
    /// Zero-copy import, the way an embedding application takes a result.
    ZeroCopy,
    /// A caller-supplied import (eager, lazy) run in place of the default.
    Custom(&'f dyn Fn(&QueryResult)),
}

impl Host<'_> {
    fn run(&self, r: &QueryResult) {
        match self {
            Host::ZeroCopy => {
                std::hint::black_box(HostFrame::import(r, TransferMode::ZeroCopy));
            }
            Host::Custom(f) => f(r),
        }
    }
}

impl Target<'_> {
    /// Run one SELECT of `kind` and hand its result to the host. `stmt`
    /// identifies the statement in the trace. `hashed` = false skips the
    /// (untimed) result hash for results checked another way. Errors
    /// count as failed. The layered path stops at the executor's chunk,
    /// which the public API cannot turn into a `QueryResult`, so it skips
    /// the host step.
    #[allow(clippy::too_many_arguments)]
    pub fn select(
        &mut self,
        mode: &mut Mode<'_>,
        pass: &mut Pass,
        kind: usize,
        stmt: u64,
        sql: &str,
        host: Host<'_>,
        hashed: bool,
    ) -> Option<Answer> {
        pass.attempted += 1;
        let ordered = hash::is_ordered(sql);
        let answer = |r: &QueryResult, secs: f64| Answer {
            hash: if hashed { hash::hash_result(r, ordered) } else { 0 },
            rows: r.nrows(),
            secs,
        };
        let outcome = match mode {
            Mode::Plain => {
                let t = Instant::now();
                let r = self.conn.query(sql).inspect(|r| host.run(r));
                let secs = t.elapsed().as_secs_f64();
                r.map(|r| answer(&r, secs))
            }
            Mode::Traced(rec) => {
                let t = Instant::now();
                let r = rec.span("stmt", stmt, |rec| {
                    let r = rec.span("core.query", stmt, |_| self.conn.query(sql))?;
                    rec.span("host.import", stmt, |_| host.run(&r));
                    Ok(r)
                });
                let secs = t.elapsed().as_secs_f64();
                r.map(|r| {
                    if let Some(c) = self.conn.last_exec_counters() {
                        pass.add_counters(&c);
                        let (est, act) = (c.estimated_rows.max(1) as f64, r.nrows().max(1) as f64);
                        pass.obs.push(("opt.q_error_rows", (est / act).max(act / est)));
                        // A hit is a statement served without executing.
                        let name = if c.result_cache_hits > 0 {
                            "cache.hit_stmt_us"
                        } else {
                            "cache.miss_stmt_us"
                        };
                        pass.obs.push((name, secs * 1e6));
                    }
                    answer(&r, secs)
                })
            }
            Mode::Layered(rec) => {
                let t = Instant::now();
                let r = run_layered(self.db, self.views, self.conn.exec_options(), sql, stmt, rec);
                let secs = t.elapsed().as_secs_f64();
                r.map(|l| Answer {
                    hash: if hashed {
                        hash::hash_columns(&l.chunk.cols, l.chunk.rows, ordered)
                    } else {
                        0
                    },
                    rows: l.chunk.rows,
                    secs,
                })
            }
        };
        match outcome {
            Ok(a) => {
                pass.ops.push(Op { kind, secs: a.secs });
                Some(a)
            }
            Err(e) => {
                pass.fail(format!("{sql}: {e}"));
                None
            }
        }
    }
}

/// A workload: set up once, then run numbered passes.
pub trait Workload {
    /// Names of the operation kinds `Op::kind` indexes.
    fn kinds(&self) -> &[String];

    /// Run pass `idx` with `threads` executor threads. Pass 0 is the
    /// discarded warm-up. The same `idx` always issues the same
    /// operations.
    fn pass(&mut self, idx: u64, threads: usize, mode: Mode<'_>) -> Pass;

    /// The discarded passes before timing starts, one per thread setting:
    /// columns load, lazy indexes and statistics build. A workload whose
    /// steady state takes longer to reach adds what it needs.
    fn warm_up(&mut self, threads_mt: usize) -> Vec<Pass> {
        vec![self.pass(0, 1, Mode::Plain), self.pass(0, threads_mt, Mode::Plain)]
    }

    /// TPC-H scale factor of the data.
    fn sf(&self) -> f64;

    /// Seconds of set-up before the first pass (prepare + open).
    fn setup_s(&self) -> f64;

    /// Directory bytes after a checkpoint per byte of user data loaded.
    fn disk_bytes_per_user_byte(&self) -> f64;

    /// Observations about set-up and end state for the per-layer report.
    fn final_obs(&self) -> Vec<(&'static str, f64)>;

    /// The oracle's hashes for this seed, in the form `expected/` commits
    /// them for the default seed.
    fn expected(&mut self) -> Vec<u64>;
}
