//! `session_rw`: writes beside reads on a persistent database, each
//! session in a fresh directory. It uses the scan path differently from
//! the TPC-H workloads: on fresh, segmented, partly deleted data whose
//! sidecars are stale, so an optimisation that speeds consolidated scans
//! by doing more work at write or first-read time shows its cost here.

use super::{Host, Mode, Pass, Target, Workload};
use crate::expected;
use crate::fixture::{self, dir_bytes};
use crate::hash;
use crate::stats::median;
use crate::RunCfg;
use monetlite::exec::ExecOptions;
use monetlite::host::{HostFrame, TransferMode};
use monetlite::types::{ColumnBuffer, Value};
use monetlite::{Database, QueryResult};
use monetlite_tpch::queries;
use std::cell::Cell;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

/// Scale factor of the host data: lineitem is ~60k rows.
pub const SF: f64 = 0.01;
/// How much one session does.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Append batches; lineitem is cut into this many equal parts.
    pub batches: usize,
    /// Single-key autocommit UPDATEs, and as many DELETEs.
    pub writes: usize,
    /// Explicit single-UPDATE transactions (commit timed alone).
    pub txns: usize,
    /// Export rounds after the checkpoint (zero-copy, eager, lazy each).
    pub exports: usize,
}

/// The measured session.
pub const FULL: Shape = Shape { batches: 6, writes: 10, txns: 5, exports: 3 };
/// The `--smoke` session: every operation kind once or twice.
pub const SMOKE: Shape = Shape { batches: 2, writes: 2, txns: 1, exports: 1 };
/// How many times the host data is generated; the median is reported.
const SETUPS: usize = 3;

const KINDS: [&str; 14] = [
    "create",
    "append",
    "raw_q06",
    "raw_q01",
    "raw_q14",
    "update",
    "delete",
    "txn_update",
    "export_fresh",
    "reopen",
    "checkpoint",
    "export_zero_copy",
    "export_eager",
    "export_lazy",
];
const K_CREATE: usize = 0;
const K_APPEND: usize = 1;
const K_RAW: [(usize, usize); 3] = [(2, 6), (3, 1), (4, 14)];
const K_UPDATE: usize = 5;
const K_DELETE: usize = 6;
const K_TXN: usize = 7;
const K_EXPORT_FRESH: usize = 8;
const K_REOPEN: usize = 9;
const K_CHECKPOINT: usize = 10;
const K_EXPORT: [(usize, TransferMode); 3] =
    [(11, TransferMode::ZeroCopy), (12, TransferMode::Eager), (13, TransferMode::Lazy)];

const L_QUANTITY: usize = 4;
const SELECT_STAR: &str = "SELECT * FROM lineitem";
const TALLY: &str = "SELECT count(*), sum(l_quantity) FROM lineitem";

/// The session workload state: host-side data and its tally.
pub struct SessionRw {
    kinds: Vec<String>,
    shape: Shape,
    work: PathBuf,
    part: Vec<ColumnBuffer>,
    batches: Vec<Vec<ColumnBuffer>>,
    /// Order keys the UPDATEs, DELETEs and explicit transactions touch
    /// (disjoint), each with its number of lineitem rows.
    update_keys: Vec<(i32, u64)>,
    delete_keys: Vec<(i32, u64, i64)>,
    txn_keys: Vec<(i32, u64)>,
    rows_appended: u64,
    qty_appended: i64,
    user_bytes: u64,
    /// SELECT hashes of one session under the oracle options.
    oracle: Vec<u64>,
    generate_s: f64,
    disk_ratio: Cell<f64>,
    sessions: u64,
    sf: f64,
}

impl SessionRw {
    /// Generate the host data and run the oracle session.
    pub fn setup(cfg: &RunCfg) -> Result<SessionRw, String> {
        let sf = if cfg.smoke { super::tpch::SMOKE_SF } else { SF };
        let shape = if cfg.smoke { SMOKE } else { FULL };
        let repeats = if cfg.smoke { 1 } else { SETUPS };
        let mut times = Vec::new();
        let mut data = None;
        for _ in 0..repeats {
            let t = Instant::now();
            data = Some(monetlite_tpch::generate(sf, cfg.seed));
            times.push(t.elapsed().as_secs_f64());
        }
        let data = data.expect("generated");
        let li = &data.lineitem;
        let per = li.rows() / shape.batches;
        if per == 0 {
            return Err("lineitem too small to batch".into());
        }
        let batches: Vec<Vec<ColumnBuffer>> = (0..shape.batches)
            .map(|b| {
                let idx: Vec<u32> = ((b * per) as u32..((b + 1) * per) as u32).collect();
                li.cols.iter().map(|c| c.take(&idx)).collect()
            })
            .collect();
        // Per-order row counts and quantities over the appended prefix.
        let (ColumnBuffer::Int(okeys), ColumnBuffer::Decimal { data: qty, .. }) =
            (&li.cols[0], &li.cols[L_QUANTITY])
        else {
            return Err("unexpected lineitem column types".into());
        };
        let n = per * shape.batches;
        let mut per_order: Vec<(i32, u64, i64)> = Vec::new();
        for i in 0..n {
            match per_order.last_mut() {
                Some(last) if last.0 == okeys[i] => {
                    last.1 += 1;
                    last.2 += qty[i];
                }
                _ => per_order.push((okeys[i], 1, qty[i])),
            }
        }
        // The last order may straddle the cut; leave it alone.
        per_order.pop();
        // Evenly spread, disjoint keys: slot 3i updates, 3i+1 deletes and
        // (for the first `txns`) 3i+2 commits explicitly.
        let slots = 3 * shape.writes.max(shape.txns);
        if per_order.len() < slots {
            return Err("too few orders for the write keys".into());
        }
        let pick = |i: usize| per_order[i * per_order.len() / slots];
        let mut s = SessionRw {
            kinds: KINDS.iter().map(|k| k.to_string()).collect(),
            shape,
            work: cfg.work.clone(),
            part: data.part.cols.clone(),
            update_keys: (0..shape.writes).map(|i| pick(3 * i)).map(|(k, n, _)| (k, n)).collect(),
            delete_keys: (0..shape.writes).map(|i| pick(3 * i + 1)).collect(),
            txn_keys: (0..shape.txns).map(|i| pick(3 * i + 2)).map(|(k, n, _)| (k, n)).collect(),
            rows_appended: n as u64,
            qty_appended: qty[..n].iter().sum(),
            user_bytes: batches.iter().flatten().map(|c| c.size_bytes() as u64).sum(),
            batches,
            oracle: Vec::new(),
            generate_s: median(&times),
            disk_ratio: Cell::new(f64::NAN),
            sessions: 0,
            sf,
        };
        drop(data);
        let (pass, transcript) = s.session(fixture::oracle_opts(), Mode::Plain, 0);
        if pass.failed > 0 {
            return Err(format!("oracle session failed: {:?}", pass.failures));
        }
        if let Some(c) = expected::hashes(cfg, "session_rw") {
            if c[0] != hash::digest(transcript.iter().copied()) {
                return Err("oracle session transcript differs from expected/".into());
            }
        }
        s.oracle = transcript;
        Ok(s)
    }

    /// Rows and raw `sum(l_quantity)` the table must hold at the end.
    fn final_tally(&self) -> (i64, i64) {
        let mut rows = self.rows_appended as i64;
        let mut qty = self.qty_appended;
        // Quantities have scale 2, so `+ 1` adds 100 raw units per row.
        for (_, n) in self.update_keys.iter().chain(&self.txn_keys) {
            qty += 100 * *n as i64;
        }
        for (_, n, q) in &self.delete_keys {
            rows -= *n as i64;
            qty -= q;
        }
        (rows, qty)
    }

    /// One session. Returns the pass and the hashes of its SELECTs.
    fn session(&mut self, opts: ExecOptions, mut mode: Mode<'_>, idx: u64) -> (Pass, Vec<u64>) {
        let mut pass = Pass::default();
        let mut transcript = Vec::new();
        self.sessions += 1;
        let dir = self.work.join(format!("session-{}", self.sessions));
        let _ = std::fs::remove_dir_all(&dir);
        let traced = matches!(mode, Mode::Traced(_));
        if traced {
            // Armed with a fault that never fires, the failpoint layer is
            // an exact counter of the storage layer's I/O operations.
            use monetlite::storage::fault::{arm, FaultMode, FaultPolicy};
            arm(FaultPolicy::Nth(u64::MAX), FaultMode::Error);
        }
        self.script(opts, &mut mode, idx, &dir, &mut pass, &mut transcript);
        if traced {
            let ios = monetlite::storage::fault::disarm().ios;
            pass.obs.push(("store.io_ops_per_session", ios as f64));
            pass.publish_counters();
        }
        let _ = std::fs::remove_dir_all(&dir);
        (pass, transcript)
    }

    fn script(
        &self,
        opts: ExecOptions,
        mode: &mut Mode<'_>,
        idx: u64,
        dir: &std::path::Path,
        pass: &mut Pass,
        transcript: &mut Vec<u64>,
    ) {
        let views = HashMap::new();
        let mut stmt = idx * 1_000_000;
        let mut next_stmt = || {
            stmt += 1;
            stmt
        };
        let Some(db) = pass.timed(K_CREATE, "open", || {
            let db = Database::open(dir)?;
            let mut conn = db.connect();
            conn.run_script(queries::DDL)?;
            conn.append("part", self.part.clone())?;
            Ok(db)
        }) else {
            return;
        };
        let mut conn = db.connect();
        conn.set_exec_options(opts);

        // Appends, each followed by reads of the grown table.
        let mut last_q6 = f64::NAN;
        for batch in &self.batches {
            let cols = batch.clone();
            pass.timed(K_APPEND, "append", || conn.append("lineitem", cols));
            let mut target = Target { db: &db, conn: &mut conn, views: &views };
            for (kind, q) in K_RAW {
                let a = target.select(
                    mode,
                    pass,
                    kind,
                    next_stmt(),
                    queries::sql(q),
                    Host::ZeroCopy,
                    true,
                );
                transcript.push(a.map_or(0, |a| a.hash));
                if let (6, Some(a)) = (q, a) {
                    last_q6 = a.secs;
                }
            }
        }

        // Single-key writes in autocommit, then explicit transactions
        // whose commit is timed on its own.
        for (key, rows) in &self.update_keys {
            let sql =
                format!("UPDATE lineitem SET l_quantity = l_quantity + 1 WHERE l_orderkey = {key}");
            let n = pass.timed(K_UPDATE, &sql, || conn.execute(&sql));
            pass.check(n.is_none_or(|n| n == *rows), || {
                format!("{sql}: affected {n:?}, expected {rows}")
            });
        }
        for (key, rows, _) in &self.delete_keys {
            let sql = format!("DELETE FROM lineitem WHERE l_orderkey = {key}");
            let n = pass.timed(K_DELETE, &sql, || conn.execute(&sql));
            pass.check(n.is_none_or(|n| n == *rows), || {
                format!("{sql}: affected {n:?}, expected {rows}")
            });
        }
        for (key, _) in &self.txn_keys {
            let sql =
                format!("UPDATE lineitem SET l_quantity = l_quantity + 1 WHERE l_orderkey = {key}");
            let commit_s = Cell::new(f64::NAN);
            pass.timed(K_TXN, &sql, || {
                conn.begin()?;
                conn.execute(&sql)?;
                let t = Instant::now();
                conn.commit()?;
                commit_s.set(t.elapsed().as_secs_f64());
                Ok(())
            });
            pass.obs.push(("wal.commit_us", commit_s.get() * 1e6));
        }

        // Export from the unconsolidated table.
        let (rows, qty) = self.final_tally();
        {
            let mut target = Target { db: &db, conn: &mut conn, views: &views };
            let a = target.select(
                mode,
                pass,
                K_EXPORT_FRESH,
                next_stmt(),
                SELECT_STAR,
                Host::ZeroCopy,
                false,
            );
            pass.check(a.is_none_or(|a| a.rows as i64 == rows), || "SELECT * row count".into());
        }
        let wal = dir_bytes(dir).wal;
        pass.obs.push(("wal.bytes_per_user_byte", wal as f64 / self.user_bytes as f64));

        // Drop every handle and recover from the WAL tail.
        drop(conn);
        drop(db);
        let replay_s = Cell::new(f64::NAN);
        let reopened = pass.timed(K_REOPEN, "reopen", || {
            let t = Instant::now();
            let db = Database::open(dir)?;
            replay_s.set(t.elapsed().as_secs_f64());
            let mut conn = db.connect();
            let r = conn.query(TALLY)?;
            Ok((db, conn, r))
        });
        pass.obs.push(("persist.wal_replay_ms", replay_s.get() * 1e3));
        let Some((db, mut conn, tally)) = reopened else {
            return;
        };
        let want = (Value::Bigint(rows), qty);
        let got_qty = match tally.value(0, 1) {
            Value::Decimal(d) => d.raw,
            _ => i64::MIN,
        };
        pass.check((tally.value(0, 0), got_qty) == want, || {
            format!(
                "after reopen: {:?} rows, sum {got_qty}; host tally {rows} rows, sum {qty}",
                tally.value(0, 0)
            )
        });
        conn.set_exec_options(opts);

        // Recovery checkpoints what it replayed, so this explicit call
        // finds nothing to write; it would pick up the cost if recovery
        // ever stopped doing so.
        let t = Instant::now();
        pass.timed(K_CHECKPOINT, "checkpoint", || db.checkpoint());
        let checkpoint_s = t.elapsed().as_secs_f64();
        let disk = dir_bytes(dir);
        self.disk_ratio.set(disk.total as f64 / self.user_bytes as f64);
        pass.obs.extend([
            ("persist.checkpoint_ms", checkpoint_s * 1e3),
            ("persist.disk_bytes", disk.total as f64),
            ("persist.sidecar_bytes", disk.sidecars as f64),
        ]);

        // The same Q6 on consolidated data prices the fresh-scan penalty.
        // It is not an operation of the session, only a yardstick.
        let t = Instant::now();
        if conn.query(queries::sql(6)).is_ok() {
            pass.obs.push(("storage.fresh_scan_penalty", last_q6 / t.elapsed().as_secs_f64()));
        }

        // Exports after the checkpoint: Figure 6's condition.
        for _ in 0..self.shape.exports {
            for (kind, transfer) in K_EXPORT {
                let import_s = Cell::new(0.0);
                let stats = Cell::new(Default::default());
                let import = |r: &QueryResult| {
                    let t = Instant::now();
                    let frame = HostFrame::import(r, transfer);
                    if transfer == TransferMode::Lazy {
                        // A lazy frame converts a column on first touch.
                        std::hint::black_box(frame.cols[L_QUANTITY].get(0));
                    }
                    import_s.set(t.elapsed().as_secs_f64());
                    stats.set(frame.stats);
                };
                let mut target = Target { db: &db, conn: &mut conn, views: &views };
                let a = target.select(
                    mode,
                    pass,
                    kind,
                    next_stmt(),
                    SELECT_STAR,
                    Host::Custom(&import),
                    false,
                );
                let Some(a) = a else { continue };
                pass.check(a.rows as i64 == rows, || "SELECT * row count after checkpoint".into());
                if matches!(mode, Mode::Layered(_)) {
                    continue;
                }
                let s = import_s.get();
                pass.obs.push(("exec.select_star_ms", (a.secs - s) * 1e3));
                match transfer {
                    TransferMode::ZeroCopy => {
                        pass.obs.push(("host.import_zero_copy_us", s * 1e6));
                        pass.obs.push(("host.zero_copied_cols", stats.get().zero_copied as f64));
                    }
                    TransferMode::Eager => {
                        pass.obs.push(("host.import_eager_ms", s * 1e3));
                        pass.obs.push(("host.bytes_copied", stats.get().bytes_copied as f64));
                    }
                    TransferMode::Lazy => pass.obs.push(("host.import_lazy_us", s * 1e6)),
                }
            }
        }
        session_obs(pass, self.rows_appended);
    }
}

/// Per-session values of the write-side figures the paper reports.
fn session_obs(pass: &mut Pass, rows_appended: u64) {
    let of = |kinds: &[usize]| -> Vec<f64> {
        pass.ops.iter().filter(|o| kinds.contains(&o.kind)).map(|o| o.secs).collect()
    };
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let append_s: f64 = of(&[K_APPEND]).iter().sum();
    let obs = [
        ("session.append_mrows_per_s", rows_appended as f64 / 1e6 / append_s),
        ("store.append_ms_per_batch", median(&of(&[K_APPEND])) * 1e3),
        ("session.read_after_write_ms", mean(&of(&[K_RAW[0].0, K_RAW[1].0, K_RAW[2].0])) * 1e3),
        ("session.commit_p50_ms", median(&of(&[K_UPDATE, K_DELETE])) * 1e3),
        ("session.export_fresh_ms", median(&of(&[K_EXPORT_FRESH])) * 1e3),
        ("session.export_ms", median(&of(&[K_EXPORT[0].0])) * 1e3),
        ("session.reopen_ms", median(&of(&[K_REOPEN])) * 1e3),
    ];
    pass.obs.extend(obs);
}

impl Workload for SessionRw {
    fn kinds(&self) -> &[String] {
        &self.kinds
    }

    fn pass(&mut self, idx: u64, threads: usize, mode: Mode<'_>) -> Pass {
        let (mut pass, transcript) = self.session(fixture::exec_opts(threads, false), mode, idx);
        pass.check(transcript == self.oracle, || {
            let at: Vec<usize> = (0..self.oracle.len())
                .filter(|&i| transcript.get(i) != Some(&self.oracle[i]))
                .collect();
            format!("SELECT results differ from the oracle session at steps {at:?}")
        });
        pass
    }

    fn sf(&self) -> f64 {
        self.sf
    }

    fn setup_s(&self) -> f64 {
        self.generate_s
    }

    fn disk_bytes_per_user_byte(&self) -> f64 {
        self.disk_ratio.get()
    }

    fn final_obs(&self) -> Vec<(&'static str, f64)> {
        vec![("tpch.generate_s", self.generate_s)]
    }

    fn expected(&mut self) -> Vec<u64> {
        vec![hash::digest(self.oracle.iter().copied())]
    }
}
