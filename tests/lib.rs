//! Shared helpers for cross-crate integration tests: the golden-answer
//! format, the configuration lattice every parity corpus runs under, and
//! the differential harness that checks each lattice row against an
//! independent oracle — the reviewed TPC-H answer goldens, the volcano
//! row store, or a hand-computed answer.
//!
//! The lattice is data: [`LATTICE`] lists every configuration under test
//! once, and the tests at the bottom of this file prove it covers every
//! pair of axis values and that its first row is the shipped defaults —
//! the engine reads no environment, so the lattice is the only
//! configuration matrix there is. A corpus contributes only
//! its statements, its oracle and a [`Corpus`] (what the tiny vector
//! class means for its tables); it never compares one configuration of
//! the engine with another.

#![forbid(unsafe_code)]

use monetlite::exec::{CountersSnapshot, ExecMode, ExecOptions};
use monetlite::opt::{OptFlags, StatsMode};
use monetlite::{Connection, Database, QueryResult};
use monetlite_rowstore::RowDb;
use monetlite_types::{ColumnBuffer, LogicalType, MlError, Value};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// The golden-answer cell format shared by the TPC-H answer goldens and
/// every comparison this harness makes: NULL spelled out, DOUBLEs at 4
/// decimal places — enough to catch any semantic change while tolerating
/// the last-bit float-sum reassociation of morsel-parallel aggregation.
fn fmt_golden_value(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        Value::Double(d) => format!("{d:.4}"),
        other => other.to_string(),
    }
}

/// A full result as golden-answer text: pipe-joined cells, one row per
/// line.
pub fn fmt_golden_rows(r: &QueryResult) -> String {
    image(&rows_of(r)).into_iter().map(|l| l + "\n").collect()
}

/// Every row of a result.
pub fn rows_of(r: &QueryResult) -> Vec<Vec<Value>> {
    (0..r.nrows()).map(|i| r.row(i)).collect()
}

/// Rows in the golden cell format, one string per row, in result order.
pub fn image(rows: &[Vec<Value>]) -> Vec<String> {
    rows.iter().map(|r| r.iter().map(fmt_golden_value).collect::<Vec<_>>().join("|")).collect()
}

/// What a statement's answer is compared by: its rows in order when the
/// statement orders them (totally: ties may come in any order), else its
/// sorted row multiset.
pub fn answer_image(sql: &str, rows: &[Vec<Value>]) -> Vec<String> {
    let mut img = image(rows);
    if !sql.to_ascii_uppercase().contains("ORDER BY") {
        img.sort();
    }
    img
}

// ---------------------------------------------------------------------------
// The configuration lattice
// ---------------------------------------------------------------------------

/// One configuration under test: the executor's options, the optimizer's
/// view of statistics and the optimizer's switches.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Names the row in every failure message.
    pub label: &'static str,
    /// Execution options. `vector_size` holds the row's vector class (the
    /// streaming morsel and the materialized policy's mitosis unit), where
    /// [`TINY`] stands for the corpus's [`Corpus::tiny`].
    pub exec: ExecOptions,
    /// Statistics; an adversarial seed is mixed with [`Corpus::seed`].
    pub stats: StatsMode,
    /// Optimizer switches.
    pub flags: OptFlags,
    /// The test that runs this row's TPC-H corpus.
    pub tpch: TpchTest,
}

/// The tests the TPC-H corpus's rows are split between, so that each row
/// runs Q1–Q22 once per test run and a mismatch is reported under the
/// test of the axis its row varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TpchTest {
    /// `tpch_golden::all_22_queries_match_golden_answers`: the shipped
    /// defaults, which bless the goldens, and the row without column
    /// statistics.
    Golden,
    /// `pipeline_parity::tpch_queries_agree_across_engines_and_threads`:
    /// the multi-threaded rows of both engines that no other test claims.
    Threads,
    /// `pipeline_parity::tpch_queries_agree_spilled_vs_unspilled`: the
    /// rows under the spilling budget with the dictionary on.
    Spill,
    /// `pipeline_parity::tpch_queries_agree_with_candidates_on_and_off`:
    /// the single- and two-threaded rows with small vectors, where
    /// candidate lists cross vector, zone and morsel boundaries.
    Candidates,
    /// `dict_parity::tpch_goldens_byte_identical_with_dict_on_and_off`.
    Dict,
    /// `dict_parity::tpch_queries_agree_dict_off_under_spill_and_candidates_off`:
    /// the materialized rows with the dictionary off under the spilling
    /// budget.
    DictSpill,
    /// `cache_parity::all_22_goldens_byte_identical_cache_on_off_and_hit`.
    Cache,
    /// `plan_golden::greedy_fallback_matches_answer_goldens`.
    Greedy,
}

/// The tiny vector class: a placeholder each corpus maps to a size that
/// crosses its own tables' boundaries.
const TINY: usize = 0;
const MID: usize = 1024;
const FULL: usize = 64 * 1024;
const UNLIMITED: usize = usize::MAX;
/// The spilling budget: breakers spill under it at the golden scale
/// factor, under either morsel policy.
const SPILL: usize = 24 * 1024;
const REAL: StatsMode = StatsMode::Real;
const ROWS: StatsMode = StatsMode::TableRowsOnly;
const ADV: StatsMode = StatsMode::Adversarial(20260727);

/// A lattice table's 1/0 column.
const fn on(bit: u8) -> bool {
    bit == 1
}

/// Expands one table line per row into a full `Config` literal: every
/// `ExecOptions` and `OptFlags` field is spelled out, none is taken from
/// a default, so a row means the same whatever the defaults become.
macro_rules! lattice {
    ($($label:literal: $mode:ident $threads:literal $vector:ident $budget:ident
        $imprints:literal $hash_index:literal $order_index:literal $dict:literal
        $plan_cache:literal $result_cache:literal $stats:ident $join_dp:literal
        $pushdown:literal $tpch:ident;)*) => {
        &[$(Config {
            label: $label,
            exec: ExecOptions {
                mode: ExecMode::$mode,
                threads: $threads,
                vector_size: $vector,
                use_imprints: on($imprints),
                use_hash_index: on($hash_index),
                use_order_index: on($order_index),
                timeout: None,
                memory_budget: $budget,
                spill_quota: usize::MAX,
                use_dict: on($dict),
                use_plan_cache: on($plan_cache),
                use_result_cache: on($result_cache),
                plan_cache_bytes: 64 << 20,
                result_cache_bytes: 256 << 20,
            },
            stats: $stats,
            flags: OptFlags {
                pushdown: on($pushdown),
                join_order: true,
                join_dp: on($join_dp),
                build_side: true,
            },
            tpch: TpchTest::$tpch,
        }),*]
    };
}

/// Every configuration under test. The first row is the shipped defaults
/// (`ExecOptions::default()` and `OptFlags::default()`, pinned by a test
/// below), which bless the goldens. The other `ci` rows carry the
/// configurations the whole suite once ran under as separate CI legs and
/// jobs: small vectors, two and four threads, the spilling budget, and
/// the dictionary, the caches and DP join ordering each off. The next two
/// run the streaming defaults at the tiny vector class on one and four
/// threads; the rest complete the pairwise cover, one of them spilling
/// single-threaded, at the least TPC-H cost found. Columns:
/// mode, threads, vector class, memory budget, then 1/0 for imprints,
/// hash index, order index, dictionary, plan cache and result cache, then
/// statistics, DP join ordering, push-down and the test that runs the
/// row's TPC-H corpus.
#[rustfmt::skip]
pub const LATTICE: &[Config] = lattice! {
    //                          mode         thr vector budget     imp hix oix dic pc rc stats dp pd tpch
    "ci default":               Streaming    1   FULL   UNLIMITED  1   1   1   1   1  1  REAL  1  1  Golden;
    "ci t1 v1024":              Streaming    1   MID    UNLIMITED  1   1   1   1   1  1  REAL  1  1  Candidates;
    "ci t4 v1024":              Streaming    4   MID    UNLIMITED  1   1   1   1   1  1  REAL  1  1  Threads;
    "ci greedy join order":     Streaming    1   FULL   UNLIMITED  1   1   1   1   1  1  REAL  0  1  Greedy;
    "ci dict off":              Streaming    1   MID    UNLIMITED  1   1   1   0   1  1  REAL  1  1  Dict;
    "ci plan cache off":        Streaming    1   MID    UNLIMITED  1   1   1   1   0  1  REAL  1  1  Cache;
    "ci result cache off":      Streaming    1   MID    UNLIMITED  1   1   1   1   1  0  REAL  1  1  Cache;
    "ci t2":                    Streaming    2   FULL   UNLIMITED  1   1   1   1   1  1  REAL  1  1  Threads;
    "ci t4":                    Streaming    4   FULL   UNLIMITED  1   1   1   1   1  1  REAL  1  1  Threads;
    "ci spilled t4":            Streaming    4   MID    SPILL      1   1   1   1   1  1  REAL  1  1  Spill;
    "ci t4 result cache off":   Streaming    4   MID    UNLIMITED  1   1   1   1   1  0  REAL  1  1  Cache;
    "t1 tiny":                  Streaming    1   TINY   UNLIMITED  1   1   1   1   1  1  REAL  1  1  Candidates;
    "t4 tiny":                  Streaming    4   TINY   UNLIMITED  1   1   1   1   1  1  REAL  1  1  Threads;
    "spilled t1 greedy":        Streaming    1   FULL   SPILL      1   0   0   1   0  1  REAL  0  1  Spill;
    "t4 no column stats":       Streaming    4   FULL   UNLIMITED  0   0   0   1   0  0  ROWS  1  0  Golden;
    "t2 tiny adversarial":      Streaming    2   TINY   UNLIMITED  1   0   1   1   0  0  ADV   0  0  Candidates;
    "materialized tiny":        Materialized 1   TINY   UNLIMITED  1   0   1   0   1  1  ROWS  1  1  Candidates;
    "materialized adversarial": Materialized 1   FULL   SPILL      0   1   1   0   1  1  ADV   1  0  DictSpill;
    "materialized t2 v1024":    Materialized 2   MID    SPILL      0   1   0   0   0  0  ROWS  0  0  DictSpill;
    "materialized t4 v1024":    Materialized 4   MID    UNLIMITED  0   0   0   0   1  1  ADV   0  1  Threads;
    "materialized t4 tiny":     Materialized 4   TINY   SPILL      0   1   0   1   0  0  REAL  1  0  Spill;
};

/// What a corpus fixes about the lattice.
#[derive(Debug, Clone, Copy)]
pub struct Corpus {
    /// The size [`TINY`] maps to: small enough to cross the corpus's own
    /// table, zone and deletion boundaries.
    pub tiny: usize,
    /// Mixed into adversarial statistics, so a fuzz case lies anew.
    pub seed: u64,
    /// Whether rows with push-down off run as written. Without push-down
    /// a comma join's predicates stay above a cross product, which only
    /// small tables afford; a corpus that cannot runs those rows with
    /// push-down on.
    pub cross_products: bool,
}

impl Corpus {
    /// A corpus of small tables with a fixed seed.
    pub const fn tiny(tiny: usize) -> Corpus {
        Corpus { tiny, seed: 0, cross_products: true }
    }
}

impl Config {
    /// Whether the row must spill somewhere in the TPC-H corpus.
    pub fn must_spill(&self) -> bool {
        self.exec.memory_budget == SPILL
    }

    /// A connection to `db` configured as this row for `corpus`.
    pub fn connect(&self, db: &Database, corpus: Corpus) -> Connection {
        let mut exec = self.exec;
        if exec.vector_size == TINY {
            exec.vector_size = corpus.tiny;
        }
        let stats = match self.stats {
            StatsMode::Adversarial(s) => StatsMode::Adversarial(s ^ corpus.seed),
            other => other,
        };
        let flags =
            OptFlags { pushdown: self.flags.pushdown || !corpus.cross_products, ..self.flags };
        let mut conn = db.connect();
        conn.set_exec_options(exec);
        conn.set_stats_mode(stats);
        conn.set_opt_flags(flags);
        conn
    }

    /// Run `sql` on `conn` as this row runs statements: twice when a
    /// cache is on, and the repeat (possibly served by a cache) must give
    /// the same answer, or the same error. Returns the first run's result
    /// and counters.
    pub fn run(
        &self,
        conn: &mut Connection,
        sql: &str,
    ) -> Result<(QueryResult, CountersSnapshot), MlError> {
        let first = conn.query(sql).map(|r| (r, conn.last_exec_counters().unwrap_or_default()));
        if self.exec.use_plan_cache || self.exec.use_result_cache {
            let again = conn.query(sql);
            match (&first, &again) {
                (Ok((a, _)), Ok(b)) => {
                    assert_eq!(
                        answer_image(sql, &rows_of(a)),
                        answer_image(sql, &rows_of(b)),
                        "{}: the repeat diverged\nsql: {sql}",
                        self.label
                    );
                    let hits = conn.last_exec_counters().unwrap_or_default().result_cache_hits;
                    assert!(
                        !self.exec.use_result_cache || hits == 1,
                        "{}: the repeat was not a result-cache hit\nsql: {sql}",
                        self.label
                    );
                }
                (Err(a), Err(b)) => assert_eq!(
                    a.to_string(),
                    b.to_string(),
                    "{}: the repeat erred differently\nsql: {sql}",
                    self.label
                ),
                _ => panic!(
                    "{}: the repeat changed success\nfirst: {:?}\nrepeat: {:?}\nsql: {sql}",
                    self.label,
                    first.as_ref().map(|(r, _)| image(&rows_of(r))),
                    again.map(|r| image(&rows_of(&r)))
                ),
            }
        }
        first
    }
}

/// `f(i)` for every `i` in `0..jobs`, in order, on one worker per core.
/// Jobs are independent configurations or statements, so a corpus runs
/// as fast as the host allows; most rows are single-threaded.
pub fn parallel<T: Send>(jobs: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()).min(jobs);
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<T>> = (0..jobs).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs {
                            return done;
                        }
                        done.push((i, f(i)));
                    }
                })
            })
            .collect();
        for h in handles {
            let done = h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, t) in done {
                out[i] = Some(t);
            }
        }
    });
    out.into_iter().map(|t| t.expect("every job ran")).collect()
}

/// `f` of every lattice row, in lattice order, on [`parallel`] workers.
pub fn each_row<T: Send>(f: impl Fn(&'static Config) -> T + Sync) -> Vec<T> {
    parallel(LATTICE.len(), |i| f(&LATTICE[i]))
}

// ---------------------------------------------------------------------------
// Pinned options for tactical tests
// ---------------------------------------------------------------------------

/// Fully literal streaming options for a tactical test: every index and
/// the dictionary on, the caches off (every statement executes), no
/// budget. Override fields with `..pinned(t, v)`.
pub const fn pinned(threads: usize, vector_size: usize) -> ExecOptions {
    ExecOptions {
        mode: ExecMode::Streaming,
        threads,
        vector_size,
        use_imprints: true,
        use_hash_index: true,
        use_order_index: true,
        timeout: None,
        memory_budget: usize::MAX,
        spill_quota: usize::MAX,
        use_dict: true,
        use_plan_cache: false,
        use_result_cache: false,
        plan_cache_bytes: 0,
        result_cache_bytes: 0,
    }
}

/// A connection with `opts`, real statistics and the default optimizer
/// flags (every pass on, DP join ordering).
pub fn connect_pinned(db: &Database, opts: ExecOptions) -> Connection {
    let mut conn = db.connect();
    conn.set_exec_options(opts);
    conn.set_stats_mode(StatsMode::Real);
    conn
}

/// The vector sizes the write-path and durability suites read under: the
/// shipped 65,536 rows, and 1,024, so that reads of segmented, partly
/// deleted data cross vector boundaries inside segments.
pub const VECTOR_SIZES: [usize; 2] = [64 * 1024, 1024];

/// A connection to `db` with the shipped options but `vector_size`-row
/// vectors.
pub fn connect_at(db: &Database, vector_size: usize) -> Connection {
    let mut conn = db.connect();
    conn.set_exec_options(ExecOptions { vector_size, ..ExecOptions::default() });
    conn
}

/// Run `sql` on a [`connect_pinned`] connection: its result and counters.
pub fn run_pinned(db: &Database, sql: &str, opts: ExecOptions) -> (QueryResult, CountersSnapshot) {
    let mut conn = connect_pinned(db, opts);
    let r = conn.query(sql).unwrap_or_else(|e| panic!("{e}\nsql: {sql}"));
    (r, conn.last_exec_counters().expect("counters after a query"))
}

// ---------------------------------------------------------------------------
// Oracle: the TPC-H answer goldens
// ---------------------------------------------------------------------------

/// Fixed golden corpus parameters. Changing either invalidates every
/// answer file — regenerate with `MONETLITE_BLESS=1` and re-review.
const GOLDEN_SF: f64 = 0.02;
/// See [`GOLDEN_SF`].
const GOLDEN_SEED: u64 = 20260727;

/// Whether this run regenerates the golden files instead of checking them.
pub fn blessing() -> bool {
    std::env::var("MONETLITE_BLESS").as_deref() == Ok("1")
}

/// `tests/golden/<rest>`.
pub fn golden_path(rest: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden").join(rest)
}

/// The reviewed answer of TPC-H query `n`, in [`fmt_golden_rows`] form.
pub fn golden_answer(n: usize) -> String {
    let path = golden_path(&format!("q{n:02}.tbl"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("Q{n}: missing golden file {} ({e}); run with MONETLITE_BLESS=1", path.display())
    })
}

/// The golden corpus's data, generated once per test binary.
pub fn tpch_data() -> &'static monetlite_tpch::TpchData {
    static DATA: OnceLock<monetlite_tpch::TpchData> = OnceLock::new();
    DATA.get_or_init(|| monetlite_tpch::generate(GOLDEN_SF, GOLDEN_SEED))
}

/// An in-memory database holding [`tpch_data`], loaded once per test
/// binary. Q15's view lives in it only while [`with_tpch_views`] runs.
pub fn tpch_db() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| {
        let db = Database::open_in_memory();
        monetlite_tpch::load_monet(&mut db.connect(), tpch_data()).unwrap();
        db
    })
}

/// Run every query's setup DDL (Q15's view, which no other query reads)
/// on `db`, then `f`, then every teardown. Calls in one test binary take
/// turns, so tests running concurrently never create the view twice.
pub fn with_tpch_views<T>(db: &Database, f: impl FnOnce() -> T) -> T {
    use monetlite_tpch::queries::{setup_sql, teardown_sql};
    static VIEWS: Mutex<()> = Mutex::new(());
    // A test that panicked inside `f` left its views behind: drop them.
    let _turn = VIEWS.lock().unwrap_or_else(|poisoned| {
        for sql in (1..=22).filter_map(teardown_sql) {
            let _ = db.connect().execute(sql);
        }
        poisoned.into_inner()
    });
    let ddl = |what: fn(usize) -> Option<&'static str>| {
        for sql in (1..=22).filter_map(what) {
            db.connect().execute(sql).unwrap_or_else(|e| panic!("{e}\n{sql}"));
        }
    };
    ddl(setup_sql);
    let out = f();
    ddl(teardown_sql);
    out
}

// ---------------------------------------------------------------------------
// The TPC-H corpus
// ---------------------------------------------------------------------------

/// TPC-H's tiny vector class is a third of a 1024-row vector, so vectors
/// and mitosis slices end mid-zone and mid-morsel. Its comma joins need
/// push-down: Q2 alone would build a 1.6 GB cross product without it.
pub const TPCH: Corpus = Corpus { tiny: 333, seed: 0, cross_products: false };

/// Check what holds for every answer to query `n` on `conn`: EXPLAIN
/// renders the plan, and `r` has the spec's arity, LIMIT and key columns.
pub fn check_shape(conn: &mut Connection, n: usize, r: &QueryResult) {
    use monetlite_tpch::queries;
    let ex = conn
        .query(&format!("EXPLAIN {}", queries::sql(n)))
        .unwrap_or_else(|e| panic!("EXPLAIN Q{n}: {e}"));
    assert!(ex.nrows() > 0, "EXPLAIN Q{n} produced no output");
    let shape = queries::shape(n);
    assert_eq!(r.ncols(), shape.cols, "Q{n}: output arity vs spec shape");
    if let Some(cap) = shape.limit {
        assert!(r.nrows() as u64 <= cap, "Q{n}: {} rows exceed LIMIT {cap}", r.nrows());
    }
    for key in shape.key_cols {
        assert!(
            r.names().iter().any(|c| c == key),
            "Q{n}: key column '{key}' missing from {:?}",
            r.names()
        );
    }
}

/// Where two answers first differ.
fn first_diff(got: &str, want: &str) -> String {
    got.lines()
        .zip(want.lines())
        .position(|(g, w)| g != w)
        .map(|i| {
            format!(
                "first diff at row {i}:\n  got:  {}\n  want: {}",
                got.lines().nth(i).unwrap_or("<eof>"),
                want.lines().nth(i).unwrap_or("<eof>")
            )
        })
        .unwrap_or_else(|| {
            format!("row counts differ: got {}, want {}", got.lines().count(), want.lines().count())
        })
}

/// The TPC-H corpus under the lattice rows `test` runs: every row must
/// return the golden answers. The shipped defaults — the lattice's first
/// row — also check EXPLAIN and the spec's shapes, and are what blessing
/// writes. Rows under the spilling budget must spill somewhere in
/// Q1–Q22.
pub fn tpch_slice_matches_goldens(test: TpchTest) {
    use monetlite_tpch::queries;
    let defaults = &LATTICE[0];
    let mut rows: Vec<&Config> = LATTICE.iter().filter(|c| c.tpch == test).collect();
    if blessing() {
        rows.retain(|c| std::ptr::eq(*c, defaults));
    }
    let db = tpch_db();
    let jobs: Vec<(usize, &str, &Config)> =
        queries::all().flat_map(|(n, sql)| rows.iter().map(move |c| (n, sql, *c))).collect();
    let answers = with_tpch_views(db, || {
        parallel(jobs.len(), |j| {
            let (n, sql, row) = jobs[j];
            let mut conn = row.connect(db, TPCH);
            let (r, counters) =
                row.run(&mut conn, sql).unwrap_or_else(|e| panic!("Q{n} ({}): {e}", row.label));
            if std::ptr::eq(row, defaults) {
                check_shape(&mut conn, n, &r);
            }
            (fmt_golden_rows(&r), counters.spilled_partitions)
        })
    });
    if blessing() {
        for ((n, _, _), (got, _)) in jobs.iter().zip(&answers) {
            let path = golden_path(&format!("q{n:02}.tbl"));
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, got).unwrap();
            eprintln!("blessed {} ({} rows)", path.display(), got.lines().count());
        }
        return;
    }
    let mut failures = Vec::new();
    let mut spilled = vec![0u64; rows.len()];
    for ((n, _, row), (got, spills)) in jobs.iter().zip(answers) {
        let want = golden_answer(*n);
        if got != want {
            failures.push(format!("Q{n} ({}): {}", row.label, first_diff(&got, &want)));
        }
        let i = rows.iter().position(|c| std::ptr::eq(*c, *row)).expect("a slice row");
        spilled[i] += spills;
    }
    assert!(failures.is_empty(), "golden mismatches:\n{}", failures.join("\n"));
    for (row, spilled) in rows.iter().zip(spilled) {
        assert!(!row.must_spill() || spilled > 0, "{}: nothing spilled in Q1–Q22", row.label);
    }
}

// ---------------------------------------------------------------------------
// Oracle: the row store
// ---------------------------------------------------------------------------

/// One configuration's answer to a statement.
#[derive(Debug)]
pub struct Answer {
    /// The lattice row's label, or `"rowstore"`.
    pub label: &'static str,
    /// The lattice row; `None` for the row store.
    pub config: Option<&'static Config>,
    /// Result column types.
    pub types: Vec<LogicalType>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
    /// Execution counters (zero for the row store).
    pub counters: CountersSnapshot,
}

/// The same tables in the engine and in the row store, built by the same
/// statements and appends.
pub struct Twin {
    /// The engine under test.
    pub db: Database,
    /// The oracle.
    pub rows: RowDb,
    /// The scripts that built both, for failure messages.
    scripts: Mutex<Vec<String>>,
}

impl Default for Twin {
    fn default() -> Self {
        Twin::new(RowDb::in_memory())
    }
}

impl Twin {
    /// Empty databases; `rows` is the oracle as the corpus configures it.
    pub fn new(rows: RowDb) -> Twin {
        Twin { db: Database::open_in_memory(), rows, scripts: Mutex::default() }
    }

    /// Run a `;`-separated script on both.
    pub fn script(&self, sql: &str) -> &Twin {
        self.db.connect().run_script(sql).unwrap_or_else(|e| panic!("engine: {e}\n{sql}"));
        self.rows.run_script(sql).unwrap_or_else(|e| panic!("rowstore: {e}\n{sql}"));
        self.scripts.lock().unwrap().push(sql.to_string());
        self
    }

    /// What a failure message says about `sql`: the statement and the
    /// scripts that built the tables it ran on.
    fn context(&self, sql: &str) -> String {
        format!("sql: {sql}\nbuilt by: {:?}", self.scripts.lock().unwrap())
    }

    /// Append the same columns to `table` on both.
    pub fn append(&self, table: &str, cols: Vec<ColumnBuffer>) -> &Twin {
        let n = cols.first().map_or(0, ColumnBuffer::len);
        let rows = (0..n).map(|i| cols.iter().map(|c| c.get(i)).collect()).collect();
        self.rows.insert_rows(table, rows).unwrap();
        self.db.connect().append(table, cols).unwrap();
        self
    }

    /// For each of `sqls`, the row store's answer, then every lattice
    /// row's. Every (statement, configuration) pair is one [`parallel`]
    /// job; the row store's, the longest, go first.
    fn answers(&self, sqls: &[&str], corpus: Corpus) -> Vec<Vec<Answer>> {
        let n = sqls.len();
        let mut flat = parallel(n * (LATTICE.len() + 1), |j| {
            let sql = sqls[j % n];
            let Some(row) = (j / n).checked_sub(1).map(|r| &LATTICE[r]) else {
                let r = self.rows.query(sql).unwrap_or_else(|e| {
                    panic!("rowstore: {e}\n{}", self.context(sql));
                });
                let counters = CountersSnapshot::default();
                let (types, rows) = (r.types, r.rows);
                return Answer { label: "rowstore", config: None, types, rows, counters };
            };
            let mut conn = row.connect(&self.db, corpus);
            let (r, counters) = row
                .run(&mut conn, sql)
                .unwrap_or_else(|e| panic!("{}: {e}\n{}", row.label, self.context(sql)));
            let (types, rows) = (r.types().to_vec(), rows_of(&r));
            Answer { label: row.label, config: Some(row), types, rows, counters }
        })
        .into_iter();
        let mut out: Vec<Vec<Answer>> = (0..n).map(|_| Vec::new()).collect();
        for j in 0..n * (LATTICE.len() + 1) {
            out[j % n].push(flat.next().expect("one answer per job"));
        }
        out
    }

    /// Every lattice row must give the row store's answer to each of
    /// `sqls`. Returns each statement's lattice answers, in lattice order,
    /// for counter assertions.
    pub fn check(&self, sqls: &[&str], corpus: Corpus) -> Vec<Vec<Answer>> {
        let mut all = self.answers(sqls, corpus);
        for (sql, answers) in sqls.iter().zip(&mut all) {
            let want = answer_image(sql, &answers.remove(0).rows);
            for a in answers.iter() {
                let got = answer_image(sql, &a.rows);
                assert_eq!(got, want, "{} vs rowstore\n{}", a.label, self.context(sql));
            }
        }
        all
    }

    /// Every lattice row and the row store must give `want`: rows in the
    /// golden cell format, in any order. Returns every answer.
    pub fn expect(&self, sql: &str, corpus: Corpus, want: &[&str]) -> Vec<Answer> {
        let mut want: Vec<String> = want.iter().map(|s| s.to_string()).collect();
        want.sort();
        let all = self.answers(&[sql], corpus).remove(0);
        for a in &all {
            let mut got = image(&a.rows);
            got.sort();
            assert_eq!(
                got,
                want,
                "{} disagrees with the expected answer\n{}",
                a.label,
                self.context(sql)
            );
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Each axis and the values it takes.
    const AXES: [(&str, &[&str]); 13] = [
        ("mode", &["Streaming", "Materialized"]),
        ("threads", &["1", "2", "4"]),
        ("vector", &["tiny", "1024", "65536"]),
        ("memory_budget", &["unlimited", "24 KiB"]),
        ("use_imprints", &["true", "false"]),
        ("use_hash_index", &["true", "false"]),
        ("use_order_index", &["true", "false"]),
        ("use_dict", &["true", "false"]),
        ("use_plan_cache", &["true", "false"]),
        ("use_result_cache", &["true", "false"]),
        ("stats", &["Real", "TableRowsOnly", "Adversarial"]),
        ("join_dp", &["true", "false"]),
        ("pushdown", &["true", "false"]),
    ];

    /// A row's value on each axis, in [`AXES`] order. Both option structs
    /// are destructured without `..`: a new field fails to compile here
    /// until it is placed on an axis or named as not affecting answers.
    fn axes(c: &Config) -> [String; 13] {
        let ExecOptions {
            mode,
            threads,
            vector_size,
            use_imprints,
            use_hash_index,
            use_order_index,
            // Only aborts a query; never changes an answer.
            timeout: _,
            memory_budget,
            // Only aborts a query whose spill files outgrow it.
            spill_quota: _,
            use_dict,
            use_plan_cache,
            use_result_cache,
            // Only decide which cache entries are evicted.
            plan_cache_bytes: _,
            result_cache_bytes: _,
        } = c.exec;
        let OptFlags {
            pushdown,
            // On in every row: join_dp is the ordering ablation suites run.
            join_order,
            join_dp,
            // On in every row: a rewrite with unit tests of its own, which
            // no suite ablates.
            build_side,
        } = c.flags;
        assert!(join_order && build_side, "{}: a pass is off", c.label);
        let vector = match vector_size {
            TINY => "tiny".to_string(),
            n => n.to_string(),
        };
        let budget = match memory_budget {
            UNLIMITED => "unlimited".to_string(),
            SPILL => "24 KiB".to_string(),
            n => n.to_string(),
        };
        let stats = match c.stats {
            StatsMode::Real => "Real",
            StatsMode::TableRowsOnly => "TableRowsOnly",
            StatsMode::Adversarial(_) => "Adversarial",
        };
        [
            format!("{mode:?}"),
            threads.to_string(),
            vector,
            budget,
            use_imprints.to_string(),
            use_hash_index.to_string(),
            use_order_index.to_string(),
            use_dict.to_string(),
            use_plan_cache.to_string(),
            use_result_cache.to_string(),
            stats.to_string(),
            join_dp.to_string(),
            pushdown.to_string(),
        ]
    }

    #[test]
    fn every_pair_of_axis_values_appears_in_some_row() {
        let rows: Vec<[String; 13]> = LATTICE.iter().map(axes).collect();
        for row in &rows {
            for (value, (axis, domain)) in row.iter().zip(AXES) {
                assert!(domain.contains(&value.as_str()), "{axis} = {value} is off its axis");
            }
        }
        let mut missing = Vec::new();
        for i in 0..AXES.len() {
            for j in i + 1..AXES.len() {
                for a in AXES[i].1 {
                    for b in AXES[j].1 {
                        if !rows.iter().any(|r| r[i] == *a && r[j] == *b) {
                            missing.push(format!("{} = {a}, {} = {b}", AXES[i].0, AXES[j].0));
                        }
                    }
                }
            }
        }
        assert!(missing.is_empty(), "pairs no row covers:\n{}", missing.join("\n"));
        let labels: BTreeSet<&str> = LATTICE.iter().map(|c| c.label).collect();
        assert_eq!(labels.len(), LATTICE.len(), "labels are unique");
    }

    #[test]
    fn the_ci_default_row_is_the_shipped_defaults() {
        let row = &LATTICE[0];
        assert_eq!(row.label, "ci default");
        assert_eq!(row.tpch, TpchTest::Golden, "the defaults bless the goldens");
        assert_eq!(row.stats, StatsMode::Real);
        // Field by field: `Debug` prints every field of both structs.
        assert_eq!(format!("{:?}", row.exec), format!("{:?}", ExecOptions::default()));
        assert_eq!(format!("{:?}", row.flags), format!("{:?}", OptFlags::default()));
    }
}
