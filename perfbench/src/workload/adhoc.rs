//! `adhoc_small`: thousands of short statements with the caches on, as
//! shipped. Statements take tens of microseconds, so the front end, the
//! connection's transaction wrapper and the two caches dominate and
//! execution is small.

use super::{Host, Mode, Pass, Target, Workload};
use crate::expected;
use crate::fixture::{self, Opened};
use crate::hash;
use crate::RunCfg;
use monetlite::types::Value;
use monetlite::Connection;
use std::collections::HashMap;

/// Scale factor: orders 15k rows, lineitem ~60k — every table is below
/// the executor's parallelism threshold.
pub const SF: f64 = 0.01;
/// Statements per pass.
pub const STATEMENTS: usize = 5_000;
/// Statements per pass under `--smoke`.
pub const SMOKE_STATEMENTS: usize = 300;
/// Share of statements that repeat an earlier statement's text exactly.
pub const REPEAT_PERCENT: u64 = 20;
/// Pass indexes of the cache-filling warm-up passes, apart from those of
/// the timed passes.
const FILL_IDX: u64 = 1 << 32;
/// Upper limit on fill passes (the shipped 256 MiB budget takes ~12).
const MAX_FILL_PASSES: u64 = 40;
/// In timed passes every n-th statement is re-run on the oracle
/// connection (all of them in the warm-up pass).
const ORACLE_EVERY: usize = 16;

const TEMPLATES: [&str; 12] = [
    "orders_pk",
    "customer_pk",
    "part_pk",
    "supplier_pk",
    "lineitem_by_order",
    "partsupp_by_part",
    "order_customer_join",
    "lineitem_part_join",
    "orders_of_customer_count",
    "orders_of_customer_by_status",
    "lineitem_of_part_by_flag",
    "orders_in_week",
];

/// splitmix64: the statement stream must not depend on the `rand` shim.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(hash::GAMMA);
        hash::finalize(self.0)
    }

    /// Uniform in `1..=n`.
    fn key(&mut self, n: u64) -> u64 {
        1 + self.next() % n.max(1)
    }
}

/// Row counts the literals are drawn from.
#[derive(Debug, Clone, Copy)]
struct Domain {
    orders: u64,
    customers: u64,
    parts: u64,
    suppliers: u64,
}

struct Stmt {
    kind: usize,
    sql: String,
    repeat_of: Option<usize>,
}

fn fresh(kind: usize, d: Domain, rng: &mut Rng) -> String {
    // Order keys are sparse (4, 8, 12, ...), as in dbgen.
    let okey = |rng: &mut Rng| 4 * rng.key(d.orders);
    match kind {
        0 => format!(
            "SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate FROM orders WHERE o_orderkey = {}",
            okey(rng)
        ),
        1 => format!(
            "SELECT c_name, c_acctbal, c_mktsegment FROM customer WHERE c_custkey = {}",
            rng.key(d.customers)
        ),
        2 => format!(
            "SELECT p_name, p_brand, p_retailprice FROM part WHERE p_partkey = {}",
            rng.key(d.parts)
        ),
        3 => format!(
            "SELECT s_name, s_acctbal FROM supplier WHERE s_suppkey = {}",
            rng.key(d.suppliers)
        ),
        4 => format!(
            "SELECT l_linenumber, l_quantity, l_extendedprice FROM lineitem \
             WHERE l_orderkey = {} ORDER BY l_linenumber",
            okey(rng)
        ),
        5 => format!(
            "SELECT ps_suppkey, ps_availqty FROM partsupp WHERE ps_partkey = {}",
            rng.key(d.parts)
        ),
        6 => format!(
            "SELECT o_orderkey, c_name FROM orders, customer \
             WHERE o_custkey = c_custkey AND o_orderkey = {}",
            okey(rng)
        ),
        7 => format!(
            "SELECT l_linenumber, p_name FROM lineitem, part \
             WHERE l_partkey = p_partkey AND l_orderkey = {}",
            okey(rng)
        ),
        8 => format!("SELECT count(*) FROM orders WHERE o_custkey = {}", rng.key(d.customers)),
        9 => format!(
            "SELECT o_orderstatus, count(*) FROM orders WHERE o_custkey = {} \
             GROUP BY o_orderstatus ORDER BY o_orderstatus",
            rng.key(d.customers)
        ),
        10 => format!(
            "SELECT l_returnflag, count(*), sum(l_quantity) FROM lineitem WHERE l_partkey = {} \
             GROUP BY l_returnflag ORDER BY l_returnflag",
            rng.key(d.parts)
        ),
        _ => {
            let (y, m, day) = (1992 + rng.next() % 7, rng.key(12), rng.key(21));
            format!(
                "SELECT count(*), sum(o_totalprice) FROM orders \
                 WHERE o_orderdate >= date '{y}-{m:02}-{day:02}' \
                 AND o_orderdate < date '{y}-{m:02}-{:02}'",
                day + 7
            )
        }
    }
}

fn statements(seed: u64, idx: u64, n: usize, d: Domain) -> Vec<Stmt> {
    let mut rng = Rng(seed ^ idx.wrapping_mul(0xa076_1d64_78bd_642f));
    let mut out: Vec<Stmt> = Vec::with_capacity(n);
    for i in 0..n {
        if i > 0 && rng.next() % 100 < REPEAT_PERCENT {
            let j = (rng.next() % i as u64) as usize;
            let origin = out[j].repeat_of.unwrap_or(j);
            out.push(Stmt { kind: out[j].kind, sql: out[j].sql.clone(), repeat_of: Some(origin) });
        } else {
            let kind = (rng.next() % TEMPLATES.len() as u64) as usize;
            out.push(Stmt { kind, sql: fresh(kind, d, &mut rng), repeat_of: None });
        }
    }
    out
}

/// The ad-hoc workload state.
pub struct Adhoc {
    kinds: Vec<String>,
    fx: Opened,
    conn: Connection,
    oracle: Connection,
    views: HashMap<String, monetlite::bind::ViewDef>,
    domain: Domain,
    seed: u64,
    per_pass: usize,
    smoke: bool,
    committed: Option<Vec<u64>>,
    /// Hashes of the last non-layered pass, which a layered pass with the
    /// same index must reproduce.
    last: (u64, Vec<u64>),
}

impl Adhoc {
    /// Prepare the SF 0.01 directory and open it with everything default.
    pub fn setup(cfg: &RunCfg) -> Result<Adhoc, String> {
        let sf = if cfg.smoke { super::tpch::SMOKE_SF } else { SF };
        let fx = Opened::new(cfg, sf, |_| usize::MAX)?;
        let conn = fx.db.connect();
        let mut oracle = fx.db.connect();
        oracle.set_exec_options(fixture::oracle_opts());
        let mut count = |table: &str| -> Result<u64, String> {
            let r = oracle
                .query(&format!("SELECT count(*) FROM {table}"))
                .map_err(|e| e.to_string())?;
            match r.value(0, 0) {
                Value::Bigint(n) if n > 0 => Ok(n as u64),
                other => Err(format!("count(*) of {table}: {other:?}")),
            }
        };
        let domain = Domain {
            orders: count("orders")?,
            customers: count("customer")?,
            parts: count("part")?,
            suppliers: count("supplier")?,
        };
        Ok(Adhoc {
            kinds: TEMPLATES.iter().map(|s| s.to_string()).collect(),
            fx,
            conn,
            oracle,
            views: HashMap::new(),
            domain,
            seed: cfg.seed,
            per_pass: if cfg.smoke { SMOKE_STATEMENTS } else { STATEMENTS },
            smoke: cfg.smoke,
            committed: expected::hashes(cfg, "adhoc_small"),
            last: (u64::MAX, Vec::new()),
        })
    }
}

impl Workload for Adhoc {
    fn kinds(&self) -> &[String] {
        &self.kinds
    }

    fn pass(&mut self, idx: u64, threads: usize, mut mode: Mode<'_>) -> Pass {
        let mut pass = Pass::default();
        let stmts = statements(self.seed, idx, self.per_pass, self.domain);
        self.conn.set_exec_options(fixture::exec_opts(threads, true));
        let layered = matches!(mode, Mode::Layered(_));
        let traced = matches!(mode, Mode::Traced(_));
        let mut hashes: Vec<Option<u64>> = Vec::with_capacity(stmts.len());
        let mut target = Target { db: &self.fx.db, conn: &mut self.conn, views: &self.views };
        for (i, s) in stmts.iter().enumerate() {
            let stmt = idx * 1_000_000 + i as u64;
            let h = target
                .select(&mut mode, &mut pass, s.kind, stmt, &s.sql, Host::ZeroCopy, true)
                .map(|a| a.hash);
            if let (Some(h), Some(j)) = (h, s.repeat_of) {
                pass.check(hashes[j] == Some(h), || {
                    format!("repeat differs from original: {}", s.sql)
                });
            }
            hashes.push(h);
        }
        // Untimed: compare with the oracle connection, and a layered pass
        // with the plain pass it replays.
        let every = if idx == 0 || self.smoke { 1 } else { ORACLE_EVERY };
        for (i, s) in stmts.iter().enumerate().step_by(every) {
            let Some(h) = hashes[i] else { continue };
            match self.oracle.query(&s.sql) {
                Ok(r) => pass.check(hash::hash_result(&r, hash::is_ordered(&s.sql)) == h, || {
                    format!("differs from the oracle: {}", s.sql)
                }),
                Err(e) => pass.fail(format!("oracle failed on {}: {e}", s.sql)),
            }
        }
        let flat: Vec<u64> = hashes.iter().map(|h| h.unwrap_or(0)).collect();
        if layered {
            if self.last.0 == idx {
                pass.check(self.last.1 == flat, || {
                    "layered results differ from Connection::query".into()
                });
            }
        } else {
            if idx == 0 {
                if let Some(c) = &self.committed {
                    pass.check(c[0] == hash::digest(flat.iter().copied()), || {
                        "warm-up transcript differs from expected/".into()
                    });
                }
            }
            self.last = (idx, flat);
        }
        if traced {
            pass.publish_counters();
        }
        pass
    }

    /// The result cache starts empty and every fresh statement adds an
    /// entry, so a long-lived embedder spends its life with the cache at
    /// its byte budget, where an insert also evicts. Fill passes run until
    /// the cache stops growing, so that every timed pass is in that
    /// steady state however many of them fit in the run.
    fn warm_up(&mut self, threads_mt: usize) -> Vec<Pass> {
        let mut passes = vec![self.pass(0, 1, Mode::Plain), self.pass(0, threads_mt, Mode::Plain)];
        let mut bytes = self.fx.db.result_cache().bytes();
        // A smoke run checks function, not the steady state.
        let fill = if self.smoke { 0 } else { MAX_FILL_PASSES };
        for i in 0..fill {
            let threads = if i % 2 == 0 { 1 } else { threads_mt };
            passes.push(self.pass(FILL_IDX + i, threads, Mode::Plain));
            let now = self.fx.db.result_cache().bytes();
            if now <= bytes + bytes / 100 {
                break;
            }
            bytes = now;
        }
        passes
    }

    fn sf(&self) -> f64 {
        if self.smoke {
            super::tpch::SMOKE_SF
        } else {
            SF
        }
    }

    fn setup_s(&self) -> f64 {
        self.fx.setup_s()
    }

    fn disk_bytes_per_user_byte(&self) -> f64 {
        self.fx.disk_bytes_per_user_byte()
    }

    fn final_obs(&self) -> Vec<(&'static str, f64)> {
        self.fx.obs()
    }

    /// The digest of the warm-up pass, every statement of which is checked
    /// against the oracle connection.
    fn expected(&mut self) -> Vec<u64> {
        self.pass(0, 1, Mode::Plain);
        vec![hash::digest(self.last.1.iter().copied())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D: Domain = Domain { orders: 1500, customers: 150, parts: 200, suppliers: 10 };

    #[test]
    fn statement_stream_is_a_function_of_seed_and_pass() {
        let a = statements(1, 3, 500, D);
        let b = statements(1, 3, 500, D);
        assert!(a.iter().zip(&b).all(|(x, y)| x.sql == y.sql && x.repeat_of == y.repeat_of));
        let c = statements(1, 4, 500, D);
        assert!(a.iter().zip(&c).any(|(x, y)| x.sql != y.sql));
        let d = statements(2, 3, 500, D);
        assert!(a.iter().zip(&d).any(|(x, y)| x.sql != y.sql));
    }

    #[test]
    fn about_a_fifth_repeat_an_earlier_text_exactly() {
        let s = statements(9, 1, 5000, D);
        let repeats = s.iter().filter(|x| x.repeat_of.is_some()).count();
        assert!((800..1200).contains(&repeats), "{repeats}");
        for x in s.iter().filter(|x| x.repeat_of.is_some()) {
            let o = &s[x.repeat_of.unwrap()];
            assert!(o.repeat_of.is_none() && o.sql == x.sql && o.kind == x.kind);
        }
        assert!((0..TEMPLATES.len()).all(|k| s.iter().any(|x| x.kind == k)));
    }

    #[test]
    fn every_template_parses() {
        let mut rng = Rng(5);
        for k in 0..TEMPLATES.len() {
            let sql = fresh(k, D, &mut rng);
            assert!(monetlite_sql::parse_statement(&sql).is_ok(), "{sql}");
        }
    }
}
