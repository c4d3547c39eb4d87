//! # monetlite-bench
//!
//! The reproduction harness: one function per table/figure of the paper's
//! evaluation (§4), shared by the `repro` binary and the Criterion
//! benches. Recorded results are the `BENCH_*.json` files at the repository
//! root (`BENCH_perfbench.json` for the end-to-end benchmark, one file per
//! feature suite beside it); a paper-vs-measured ledger is ROADMAP item 1c.
//!
//! Systems under test (paper §4.1 → our substitutions; ARCHITECTURE.md
//! lists the crates behind them):
//!
//! | paper        | here |
//! |--------------|------|
//! | MonetDBLite  | `monetlite` embedded |
//! | SQLite       | row store, hash joins, **no join reordering**, in-process |
//! | PostgreSQL   | row store, hash joins, full optimizer, behind TCP |
//! | MariaDB      | row store, nested-loop joins, full optimizer, behind TCP |
//! | MonetDB      | `monetlite` behind TCP |
//! | data.table / dplyr / Pandas / Julia | the `monetlite-frame` library |

#![forbid(unsafe_code)]

use monetlite::exec::ExecOptions;
use monetlite::host::{HostFrame, TransferMode};
use monetlite::Database;
use monetlite_acs::survey::{self, ColumnSource};

use monetlite_frame::Session;
use monetlite_netsim::{RemoteClient, Server, ServerEngine};
use monetlite_rowstore::{JoinStrategy, RowDb, RowDbOptions};
use monetlite_tpch::{frames, queries, TpchData};
use monetlite_types::{ColumnBuffer, MlError, Result, Schema};
use std::fmt;
use std::time::{Duration, Instant};

/// Global benchmark configuration.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// TPC-H scale factor standing in for the paper's SF1 (default 0.02).
    pub sf: f64,
    /// ACS row count (default 20_000).
    pub acs_rows: usize,
    /// Hot runs per measurement (median reported; a cold run is always
    /// discarded first, like the paper's protocol).
    pub runs: usize,
    /// Per-query timeout (the paper used 5 minutes at full scale).
    pub timeout: Duration,
    /// Data seed.
    pub seed: u64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            sf: 0.02,
            acs_rows: 20_000,
            runs: 3,
            timeout: Duration::from_secs(20),
            seed: 20260611,
        }
    }
}

/// Default execution options with both caching layers disabled. Every
/// measurement loop in this crate repeats identical statements, so with
/// the caches on iteration 2+ would time a plan/result-cache hit instead
/// of planning + execution; the dedicated `cache` bench measures the
/// caches themselves.
pub fn uncached_opts() -> ExecOptions {
    ExecOptions { use_plan_cache: false, use_result_cache: false, ..Default::default() }
}

/// A connection with the caching tier disabled (see [`uncached_opts`]).
pub fn uncached_conn(db: &Database) -> monetlite::Connection {
    let mut conn = db.connect();
    conn.set_exec_options(uncached_opts());
    conn
}

/// An in-memory database whose connections default to caches-off, for
/// systems driven through opaque harnesses (the netsim server creates
/// its own connections).
pub fn uncached_db() -> Database {
    Database::open_with(monetlite::DbOptions { exec: uncached_opts(), ..Default::default() })
        .expect("in-memory open")
}

/// One measurement cell, Table-1 style: seconds, "T" or "E".
#[derive(Debug, Clone)]
pub enum Cell {
    /// Median wall-clock seconds.
    Time(f64),
    /// Timed out ("T").
    Timeout,
    /// Out of memory ("E").
    Oom,
    /// Other failure.
    Error(String),
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Time(s) => write!(f, "{s:.3}"),
            Cell::Timeout => write!(f, "T"),
            Cell::Oom => write!(f, "E"),
            Cell::Error(e) => write!(f, "ERR({e})"),
        }
    }
}

impl Cell {
    /// Seconds if this is a time.
    pub fn seconds(&self) -> Option<f64> {
        match self {
            Cell::Time(s) => Some(*s),
            _ => None,
        }
    }

    fn from_result(times: Vec<Result<f64>>) -> Cell {
        let mut oks: Vec<f64> = Vec::new();
        for t in times {
            match t {
                Ok(s) => oks.push(s),
                Err(MlError::Timeout { .. }) => return Cell::Timeout,
                Err(MlError::OutOfMemory { .. }) => return Cell::Oom,
                Err(MlError::Protocol(m)) if m.contains("timeout") => return Cell::Timeout,
                Err(MlError::Protocol(m)) if m.contains("out of memory") => return Cell::Oom,
                Err(e) => return Cell::Error(e.to_string()),
            }
        }
        oks.sort_by(|a, b| a.total_cmp(b));
        Cell::Time(oks[oks.len() / 2])
    }
}

/// Time `f` over `runs` hot runs (after one discarded cold run), median.
pub fn measure(runs: usize, mut f: impl FnMut() -> Result<()>) -> Cell {
    // Cold run (ignored unless it fails).
    if let Err(e) = f() {
        return Cell::from_result(vec![Err(e)]);
    }
    let mut times = Vec::with_capacity(runs);
    for _ in 0..runs.max(1) {
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed().as_secs_f64();
        times.push(r.map(|_| dt));
    }
    Cell::from_result(times)
}

/// Time `f` exactly once (for ingest-style one-shot phases).
pub fn measure_once(mut f: impl FnMut() -> Result<()>) -> Cell {
    let t0 = Instant::now();
    let r = f();
    let dt = t0.elapsed().as_secs_f64();
    Cell::from_result(vec![r.map(|_| dt)])
}

/// Print a labelled single-value figure (Figures 5–8 style).
pub fn print_figure(title: &str, rows: &[(String, Cell)]) {
    println!("\n=== {title} ===");
    let w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(10).max(12);
    for (label, cell) in rows {
        println!("  {label:<w$}  {cell}");
    }
}

/// Print a Table-1 style matrix.
pub fn print_matrix(title: &str, cols: &[String], rows: &[(String, Vec<Cell>)]) {
    println!("\n=== {title} ===");
    let w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(10).max(12);
    print!("  {:<w$}", "system");
    for c in cols {
        print!("  {c:>8}");
    }
    println!();
    for (label, cells) in rows {
        print!("  {label:<w$}");
        let mut total = 0.0;
        let mut clean = true;
        for c in cells {
            print!("  {:>8}", c.to_string());
            match c.seconds() {
                Some(s) => total += s,
                None => clean = false,
            }
        }
        if cols.len() > 1 {
            if clean {
                print!("  | total {total:.3}");
            } else {
                print!("  | total T/E");
            }
        }
        println!();
    }
}

// ---------------------------------------------------------------------------
// Shared system plumbing
// ---------------------------------------------------------------------------

/// Build lineitem-only host buffers (the Figure 5/6 workload).
pub fn lineitem_buffers(data: &TpchData) -> (Schema, Vec<ColumnBuffer>) {
    (data.lineitem.schema.clone(), data.lineitem.cols.clone())
}

fn map_remote_err(e: MlError) -> MlError {
    // The server stringifies errors; recover the classification.
    if let MlError::Protocol(m) = &e {
        if m.contains("timeout") {
            return MlError::Timeout { elapsed_ms: 0, limit_ms: 0 };
        }
        if m.contains("out of memory") {
            return MlError::OutOfMemory { requested: 0, budget: 0 };
        }
    }
    e
}

/// A uniform "run this SQL, discard the result" interface for Table 1.
pub enum SqlSystem {
    /// Embedded columnar engine.
    Monet(Database),
    /// Embedded row store.
    Row(RowDb),
    /// Any engine behind the socket.
    Socket(Server, RemoteClient),
}

impl SqlSystem {
    /// Execute and materialise a query.
    pub fn run_sql(&mut self, sql: &str) -> Result<()> {
        match self {
            SqlSystem::Monet(db) => {
                let mut conn = db.connect();
                conn.set_exec_options(ExecOptions {
                    timeout: None, // set by caller via with_timeout
                    use_plan_cache: false,
                    use_result_cache: false,
                    ..conn.exec_options()
                });
                conn.query(sql)?;
                Ok(())
            }
            SqlSystem::Row(db) => {
                db.query(sql)?;
                Ok(())
            }
            SqlSystem::Socket(_, client) => {
                client.query(sql).map_err(map_remote_err)?;
                Ok(())
            }
        }
    }

    /// Execute with a per-query timeout where the engine supports it.
    pub fn run_sql_timed(&mut self, sql: &str, timeout: Duration) -> Result<()> {
        match self {
            SqlSystem::Monet(db) => {
                let mut conn = db.connect();
                let mut opts = conn.exec_options();
                opts.timeout = Some(timeout);
                opts.use_plan_cache = false;
                opts.use_result_cache = false;
                conn.set_exec_options(opts);
                conn.query(sql)?;
                Ok(())
            }
            other => other.run_sql(sql),
        }
    }
}

/// The five Table-1 database systems, loaded with the dataset.
pub fn table1_systems(
    data: &TpchData,
    timeout: Duration,
    page_cache: usize,
) -> Result<Vec<(String, SqlSystem)>> {
    let mut out = Vec::new();
    // MonetDBLite: embedded columnar.
    let db = uncached_db();
    let mut conn = db.connect();
    monetlite_tpch::load_monet(&mut conn, data)?;
    drop(conn);
    out.push(("MonetDBLite".to_string(), SqlSystem::Monet(db)));
    // MonetDB: same engine behind the socket.
    let db = uncached_db();
    let mut conn = db.connect();
    monetlite_tpch::load_monet(&mut conn, data)?;
    drop(conn);
    let server = Server::start(ServerEngine::Monet(db))?;
    let client = RemoteClient::connect(server.port())?;
    out.push(("MonetDB".to_string(), SqlSystem::Socket(server, client)));
    // SQLite: embedded row store, weak planner.
    let db = RowDb::open_with(RowDbOptions {
        join_strategy: JoinStrategy::Hash,
        opt_flags: monetlite::opt::OptFlags { join_order: false, ..Default::default() },
        timeout: Some(timeout),
        page_cache_pages: page_cache,
        max_intermediate_rows: 40_000_000,
        ..Default::default()
    })?;
    monetlite_tpch::load_rowdb(&db, data)?;
    out.push(("SQLite".to_string(), SqlSystem::Row(db)));
    // PostgreSQL: row store + hash joins behind the socket.
    let db = RowDb::open_with(RowDbOptions {
        join_strategy: JoinStrategy::Hash,
        timeout: Some(timeout),
        page_cache_pages: page_cache,
        max_intermediate_rows: 40_000_000,
        ..Default::default()
    })?;
    monetlite_tpch::load_rowdb(&db, data)?;
    let server = Server::start(ServerEngine::Row(db))?;
    let client = RemoteClient::connect(server.port())?;
    out.push(("PostgreSQL".to_string(), SqlSystem::Socket(server, client)));
    // MariaDB: row store + nested loops behind the socket.
    let db = RowDb::open_with(RowDbOptions {
        join_strategy: JoinStrategy::NestedLoop,
        timeout: Some(timeout),
        page_cache_pages: page_cache,
        max_intermediate_rows: 40_000_000,
        ..Default::default()
    })?;
    monetlite_tpch::load_rowdb(&db, data)?;
    let server = Server::start(ServerEngine::Row(db))?;
    let client = RemoteClient::connect(server.port())?;
    out.push(("MariaDB".to_string(), SqlSystem::Socket(server, client)));
    Ok(out)
}

// ---------------------------------------------------------------------------
// Figure 5: data ingestion (write lineitem from the host into each DB)
// ---------------------------------------------------------------------------

/// Figure 5: `dbWriteTable(lineitem)` into each system. Embedded engines
/// use their bulk paths and flush to disk; socket systems pay the
/// per-INSERT protocol.
pub fn fig5_ingestion(cfg: &BenchConfig) -> Vec<(String, Cell)> {
    let data = monetlite_tpch::generate(cfg.sf, cfg.seed);
    let (schema, cols) = lineitem_buffers(&data);
    let ddl = lineitem_ddl(&schema);
    let mut out = Vec::new();

    // MonetDBLite: persistent dir, bulk append, checkpoint = durable.
    out.push((
        "MonetDBLite".to_string(),
        measure_once(|| {
            let dir = tempfile::tempdir().map_err(|e| MlError::Io(e.to_string()))?;
            let db = Database::open(dir.path())?;
            let mut conn = db.connect();
            conn.execute(&ddl)?;
            conn.append("lineitem", &cols)?;
            db.checkpoint()?;
            Ok(())
        }),
    ));
    // SQLite: embedded row store, row-at-a-time insert + sync.
    out.push((
        "SQLite".to_string(),
        measure_once(|| {
            let db = RowDb::in_memory();
            db.execute(&ddl)?;
            let rows: Vec<Vec<monetlite_types::Value>> =
                (0..cols[0].len()).map(|r| cols.iter().map(|c| c.get(r)).collect()).collect();
            db.insert_rows("lineitem", rows)?;
            db.sync()?;
            Ok(())
        }),
    ));
    // Socket systems: CREATE + one INSERT statement per row over TCP.
    for (label, engine) in [
        ("PostgreSQL", ServerEngine::Row(RowDb::in_memory())),
        ("MonetDB", ServerEngine::Monet(uncached_db())),
        ("MariaDB", ServerEngine::Row(RowDb::mariadb_profile())),
    ] {
        let cell = measure_once(|| {
            let server = Server::start(engine_fresh(&engine)?)?;
            let mut client = RemoteClient::connect(server.port())?;
            client.write_table("lineitem", &schema, &cols).map_err(map_remote_err)?;
            client.close();
            Ok(())
        });
        out.push((label.to_string(), cell));
    }
    out
}

// Socket ingest engines are consumed per run; rebuild them fresh.
fn engine_fresh(like: &ServerEngine) -> Result<ServerEngine> {
    Ok(match like {
        ServerEngine::Monet(_) => ServerEngine::Monet(uncached_db()),
        ServerEngine::Row(db) => ServerEngine::Row(RowDb::open_with(db.options().clone())?),
    })
}

fn lineitem_ddl(schema: &Schema) -> String {
    let cols: Vec<String> = schema
        .fields()
        .iter()
        .map(|f| {
            let ty = match f.ty {
                monetlite_types::LogicalType::Decimal { width, scale } => {
                    format!("DECIMAL({width},{scale})")
                }
                monetlite_types::LogicalType::Int => "INTEGER".to_string(),
                monetlite_types::LogicalType::Date => "DATE".to_string(),
                _ => "VARCHAR(64)".to_string(),
            };
            format!("{} {}{}", f.name, ty, if f.nullable { "" } else { " NOT NULL" })
        })
        .collect();
    format!("CREATE TABLE lineitem ({})", cols.join(", "))
}

// ---------------------------------------------------------------------------
// Figure 6: data export (read lineitem from each DB into the host)
// ---------------------------------------------------------------------------

/// Figure 6: `dbReadTable(lineitem)` from each system into host arrays.
pub fn fig6_export(cfg: &BenchConfig) -> Vec<(String, Cell)> {
    let data = monetlite_tpch::generate(cfg.sf, cfg.seed);
    let (schema, cols) = lineitem_buffers(&data);
    let ddl = lineitem_ddl(&schema);
    let mut out = Vec::new();

    // MonetDBLite: in-process query + zero-copy import.
    {
        let db = uncached_db();
        let mut conn = db.connect();
        conn.execute(&ddl).unwrap();
        conn.append("lineitem", &cols).unwrap();
        out.push((
            "MonetDBLite".to_string(),
            measure(cfg.runs, || {
                let r = conn.query("SELECT * FROM lineitem")?;
                let frame = HostFrame::import(&r, TransferMode::ZeroCopy);
                std::hint::black_box(frame.rows);
                Ok(())
            }),
        ));
    }
    // SQLite: in-process but row-major → column conversion.
    {
        let db = RowDb::in_memory();
        db.execute(&ddl).unwrap();
        let rows: Vec<Vec<monetlite_types::Value>> =
            (0..cols[0].len()).map(|r| cols.iter().map(|c| c.get(r)).collect()).collect();
        db.insert_rows("lineitem", rows).unwrap();
        out.push((
            "SQLite".to_string(),
            measure(cfg.runs, || {
                let r = db.read_table("lineitem")?;
                // Row-major to column-major conversion in the host driver.
                let mut bufs: Vec<ColumnBuffer> =
                    r.types.iter().map(|&t| ColumnBuffer::with_capacity(t, r.rows.len())).collect();
                for row in &r.rows {
                    for (b, v) in bufs.iter_mut().zip(row) {
                        b.push(v)?;
                    }
                }
                std::hint::black_box(bufs.len());
                Ok(())
            }),
        ));
    }
    // Socket systems.
    for (label, engine) in [
        ("PostgreSQL", socket_row_with_lineitem(&ddl, &cols, JoinStrategy::Hash)),
        ("MonetDB", socket_monet_with_lineitem(&ddl, &cols)),
        ("MariaDB", socket_row_with_lineitem(&ddl, &cols, JoinStrategy::NestedLoop)),
    ] {
        let (server, mut client) = engine;
        out.push((
            label.to_string(),
            measure(cfg.runs, || {
                let (_, bufs) = client.read_table("lineitem").map_err(map_remote_err)?;
                std::hint::black_box(bufs.len());
                Ok(())
            }),
        ));
        client.close();
        drop(server);
    }
    out
}

fn socket_row_with_lineitem(
    ddl: &str,
    cols: &[ColumnBuffer],
    js: JoinStrategy,
) -> (Server, RemoteClient) {
    let db = RowDb::open_with(RowDbOptions { join_strategy: js, ..Default::default() }).unwrap();
    db.execute(ddl).unwrap();
    let rows: Vec<Vec<monetlite_types::Value>> =
        (0..cols[0].len()).map(|r| cols.iter().map(|c| c.get(r)).collect()).collect();
    db.insert_rows("lineitem", rows).unwrap();
    let server = Server::start(ServerEngine::Row(db)).unwrap();
    let client = RemoteClient::connect(server.port()).unwrap();
    (server, client)
}

fn socket_monet_with_lineitem(ddl: &str, cols: &[ColumnBuffer]) -> (Server, RemoteClient) {
    let db = uncached_db();
    let mut conn = db.connect();
    conn.execute(ddl).unwrap();
    conn.append("lineitem", cols).unwrap();
    drop(conn);
    let server = Server::start(ServerEngine::Monet(db)).unwrap();
    let client = RemoteClient::connect(server.port()).unwrap();
    (server, client)
}

// ---------------------------------------------------------------------------
// Table 1: TPC-H Q1–Q10 across systems (+ the library)
// ---------------------------------------------------------------------------

/// One Table-1 run. `sf10` scales the data ×10, bounds the library's
/// memory, and restricts the row stores' page caches (the swap effect).
pub fn table1(cfg: &BenchConfig, sf10: bool) -> (Vec<String>, Vec<(String, Vec<Cell>)>) {
    let sf = if sf10 { cfg.sf * 10.0 } else { cfg.sf };
    let data = monetlite_tpch::generate(sf, cfg.seed);
    let page_cache = if sf10 {
        // Simulated memory pressure: the row stores keep only ~1/4 of the
        // dataset's pages resident.
        (data.bytes() / monetlite_rowstore::page::PAGE_SIZE / 4).max(64)
    } else {
        usize::MAX
    };
    let cols: Vec<String> = (1..=10).map(|n| format!("Q{n}")).collect();
    let mut rows = Vec::new();
    let systems = table1_systems(&data, cfg.timeout, page_cache).expect("load systems");
    for (label, mut sys) in systems {
        let mut cells = Vec::new();
        for n in 1..=10 {
            let sql = queries::sql(n);
            let timeout = cfg.timeout;
            cells.push(measure(cfg.runs, || sys.run_sql_timed(sql, timeout)));
        }
        rows.push((label, cells));
    }
    // The library baseline (one stands in for data.table/dplyr/Pandas/
    // Julia, see the table at the top of this file): memory budget = 2×
    // the dataset at "SF10".
    let budget = if sf10 { data.bytes() * 2 } else { usize::MAX };
    let session = Session::with_budget(budget);
    let loaded = frames::TpchFrames::load(&session, &data);
    let mut cells = Vec::new();
    match loaded {
        Err(MlError::OutOfMemory { .. }) => {
            cells = vec![Cell::Oom; 10];
        }
        Err(e) => cells = vec![Cell::Error(e.to_string()); 10],
        Ok(fr) => {
            for n in 1..=10 {
                cells.push(measure(cfg.runs, || {
                    frames::run(n, &fr)?;
                    Ok(())
                }));
            }
        }
    }
    rows.push(("library".to_string(), cells));
    (cols, rows)
}

// ---------------------------------------------------------------------------
// Figure 2: mitosis (SELECT MEDIAN(SQRT(i*2)) FROM tbl)
// ---------------------------------------------------------------------------

/// Figure 2: the parallel-execution example. Returns (threads, seconds),
/// the EXPLAIN text showing the packed plan, and the morsels the query
/// ran as at each thread count.
pub fn fig2_mitosis(rows: usize, threads: &[usize]) -> (Vec<(String, Cell)>, String, Vec<u64>) {
    let db = uncached_db();
    let mut conn = db.connect();
    conn.execute("CREATE TABLE tbl (i INTEGER NOT NULL)").unwrap();
    conn.append("tbl", vec![ColumnBuffer::Int((0..rows as i32).map(|x| x % 100_000).collect())])
        .unwrap();
    let sql = "SELECT median(sqrt(i * 2)) FROM tbl";
    let mut out = Vec::new();
    let mut morsels = Vec::new();
    // Figure 2 reproduces the paper's mitosis, the fan-out of the
    // operator-at-a-time policy, with 16Ki-row slices as its unit; the
    // streaming policy's parallelism is measured by the pipeline benches.
    let opts = |threads| ExecOptions {
        mode: monetlite::exec::ExecMode::Materialized,
        threads,
        vector_size: 16 * 1024,
        timeout: None,
        ..uncached_opts()
    };
    for &t in threads {
        conn.set_exec_options(opts(t));
        out.push((
            format!("{t} thread(s)"),
            measure(3, || {
                conn.query(sql)?;
                Ok(())
            }),
        ));
        morsels.push(conn.last_exec_counters().map_or(0, |c| c.morsels));
    }
    conn.set_exec_options(opts(8));
    let explain = conn.query(&format!("EXPLAIN {sql}")).unwrap();
    let text: Vec<String> = (0..explain.nrows()).map(|i| explain.value(i, 0).to_string()).collect();
    (out, text.join("\n"), morsels)
}

// ---------------------------------------------------------------------------
// Figures 7/8: the ACS benchmark
// ---------------------------------------------------------------------------

/// Figure 7: wrangle + load the 274-column census table into each DB.
pub fn fig7_acs_load(cfg: &BenchConfig) -> Vec<(String, Cell)> {
    let mut out = Vec::new();
    // MonetDBLite.
    out.push((
        "MonetDBLite".to_string(),
        measure_once(|| {
            let d = monetlite_acs::wrangle(monetlite_acs::generate(cfg.acs_rows, cfg.seed))?;
            let db = uncached_db();
            let mut conn = db.connect();
            conn.execute(&monetlite_acs::ddl(&d))?;
            conn.append("acs", &d.cols)?;
            Ok(())
        }),
    ));
    // SQLite (embedded row store).
    out.push((
        "SQLite".to_string(),
        measure_once(|| {
            let d = monetlite_acs::wrangle(monetlite_acs::generate(cfg.acs_rows, cfg.seed))?;
            let db = RowDb::in_memory();
            db.execute(&monetlite_acs::ddl(&d))?;
            let rows: Vec<Vec<monetlite_types::Value>> =
                (0..d.rows).map(|r| d.cols.iter().map(|c| c.get(r)).collect()).collect();
            db.insert_rows("acs", rows)?;
            db.sync()?;
            Ok(())
        }),
    ));
    // Socket systems (fewer rows would be dishonest: same workload, the
    // INSERT stream is simply what these systems cost).
    for (label, js) in [("PostgreSQL", JoinStrategy::Hash), ("MariaDB", JoinStrategy::NestedLoop)] {
        out.push((
            label.to_string(),
            measure_once(|| {
                let d = monetlite_acs::wrangle(monetlite_acs::generate(cfg.acs_rows, cfg.seed))?;
                let db =
                    RowDb::open_with(RowDbOptions { join_strategy: js, ..Default::default() })?;
                let server = Server::start(ServerEngine::Row(db))?;
                let mut client = RemoteClient::connect(server.port())?;
                client.write_table("acs", &d.schema, &d.cols).map_err(map_remote_err)?;
                client.close();
                Ok(())
            }),
        ));
    }
    out
}

/// A [`ColumnSource`] over an embedded monetlite connection: per-column
/// SQL export, a zero-copy import whose columns are then converted with
/// [`HostColumn::native`](monetlite::host::HostColumn::native), because the
/// survey code reads owned host buffers.
pub struct MonetSource<'a> {
    /// The connection.
    pub conn: &'a mut monetlite::Connection,
}

impl ColumnSource for MonetSource<'_> {
    fn columns(&mut self, names: &[&str]) -> Result<Vec<ColumnBuffer>> {
        let sql = format!("SELECT {} FROM acs", names.join(", "));
        let r = self.conn.query(&sql)?;
        let frame = HostFrame::import(&r, TransferMode::ZeroCopy);
        Ok(frame.cols.iter().map(|c| c.native()).collect())
    }
}

/// A [`ColumnSource`] over the row store (row-major export + conversion).
pub struct RowSource<'a> {
    /// The database.
    pub db: &'a RowDb,
}

impl ColumnSource for RowSource<'_> {
    fn columns(&mut self, names: &[&str]) -> Result<Vec<ColumnBuffer>> {
        let sql = format!("SELECT {} FROM acs", names.join(", "));
        let r = self.db.query(&sql)?;
        let mut bufs: Vec<ColumnBuffer> =
            r.types.iter().map(|&t| ColumnBuffer::with_capacity(t, r.rows.len())).collect();
        for row in &r.rows {
            for (b, v) in bufs.iter_mut().zip(row) {
                b.push(v)?;
            }
        }
        Ok(bufs)
    }
}

/// A [`ColumnSource`] over a remote client (socket export).
pub struct SocketSource {
    /// The client.
    pub client: RemoteClient,
}

impl ColumnSource for SocketSource {
    fn columns(&mut self, names: &[&str]) -> Result<Vec<ColumnBuffer>> {
        let sql = format!("SELECT {} FROM acs", names.join(", "));
        let r = self.client.query(&sql).map_err(map_remote_err)?;
        let mut bufs: Vec<ColumnBuffer> =
            r.types.iter().map(|&t| ColumnBuffer::with_capacity(t, r.rows.len())).collect();
        for row in &r.rows {
            for (b, v) in bufs.iter_mut().zip(row) {
                b.push(v)?;
            }
        }
        Ok(bufs)
    }
}

/// Figure 8: the survey-statistics battery over each backend. Most time
/// is host-side (the 80-replicate loops), so differences stay small.
pub fn fig8_acs_stats(cfg: &BenchConfig) -> Vec<(String, Cell)> {
    let d = monetlite_acs::wrangle(monetlite_acs::generate(cfg.acs_rows, cfg.seed)).unwrap();
    let mut out = Vec::new();

    // MonetDBLite.
    {
        let db = uncached_db();
        let mut conn = db.connect();
        conn.execute(&monetlite_acs::ddl(&d)).unwrap();
        conn.append("acs", &d.cols).unwrap();
        out.push((
            "MonetDBLite".to_string(),
            measure(cfg.runs, || {
                let mut src = MonetSource { conn: &mut conn };
                let stats = survey::analysis(&mut src)?;
                std::hint::black_box(stats.len());
                Ok(())
            }),
        ));
    }
    // SQLite.
    {
        let db = RowDb::in_memory();
        db.execute(&monetlite_acs::ddl(&d)).unwrap();
        let rows: Vec<Vec<monetlite_types::Value>> =
            (0..d.rows).map(|r| d.cols.iter().map(|c| c.get(r)).collect()).collect();
        db.insert_rows("acs", rows).unwrap();
        out.push((
            "SQLite".to_string(),
            measure(cfg.runs, || {
                let mut src = RowSource { db: &db };
                let stats = survey::analysis(&mut src)?;
                std::hint::black_box(stats.len());
                Ok(())
            }),
        ));
    }
    // Socket systems.
    for (label, js) in [("PostgreSQL", JoinStrategy::Hash), ("MariaDB", JoinStrategy::NestedLoop)] {
        let db =
            RowDb::open_with(RowDbOptions { join_strategy: js, ..Default::default() }).unwrap();
        db.execute(&monetlite_acs::ddl(&d)).unwrap();
        let rows: Vec<Vec<monetlite_types::Value>> =
            (0..d.rows).map(|r| d.cols.iter().map(|c| c.get(r)).collect()).collect();
        db.insert_rows("acs", rows).unwrap();
        let server = Server::start(ServerEngine::Row(db)).unwrap();
        let client = RemoteClient::connect(server.port()).unwrap();
        let mut src = SocketSource { client };
        out.push((
            label.to_string(),
            measure(cfg.runs, || {
                let stats = survey::analysis(&mut src)?;
                std::hint::black_box(stats.len());
                Ok(())
            }),
        ));
        drop(server);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::RwLock;

    /// `fig2_parallel_speedup_shape` times one thread against four, so it
    /// takes the write half and runs alone; every other test here takes
    /// the read half and may run beside its siblings.
    static CORES: RwLock<()> = RwLock::new(());

    fn tiny() -> BenchConfig {
        BenchConfig {
            sf: 0.001,
            acs_rows: 300,
            runs: 1,
            timeout: Duration::from_secs(30),
            ..Default::default()
        }
    }

    #[test]
    fn fig5_runs_all_systems() {
        let _shared = CORES.read().unwrap_or_else(|e| e.into_inner());
        let cells = fig5_ingestion(&tiny());
        assert_eq!(cells.len(), 5);
        for (label, cell) in &cells {
            assert!(cell.seconds().is_some(), "{label}: {cell}");
        }
    }

    #[test]
    fn fig6_runs_all_systems() {
        let _shared = CORES.read().unwrap_or_else(|e| e.into_inner());
        let cells = fig6_export(&tiny());
        assert_eq!(cells.len(), 5);
        for (label, cell) in &cells {
            assert!(cell.seconds().is_some(), "{label}: {cell}");
        }
    }

    #[test]
    fn table1_sf1_shape() {
        let _shared = CORES.read().unwrap_or_else(|e| e.into_inner());
        let (cols, rows) = table1(&tiny(), false);
        assert_eq!(cols.len(), 10);
        assert_eq!(rows.len(), 6); // 5 DBs + library
        for (label, cells) in &rows {
            for (i, c) in cells.iter().enumerate() {
                assert!(c.seconds().is_some(), "{label} Q{}: {c}", i + 1);
            }
        }
    }

    #[test]
    fn fig2_parallel_speedup_shape() {
        let _alone = CORES.write().unwrap_or_else(|e| e.into_inner());
        let (cells, explain, morsels) = fig2_mitosis(400_000, &[1, 4]);
        assert!(explain.contains("mitosis"), "{explain}");
        // One morsel per pipeline at one thread; four threads fan the
        // scan prefix out into more.
        assert!(morsels[1] >= 2 && morsels[1] > morsels[0], "{morsels:?}");
        let t1 = cells[0].1.seconds().unwrap();
        let t4 = cells[1].1.seconds().unwrap();
        // Parallel must not be dramatically slower (allow noise).
        assert!(t4 < t1 * 1.5, "1 thread {t1}s vs 4 threads {t4}s");
    }

    #[test]
    fn fig7_and_fig8_run() {
        let _shared = CORES.read().unwrap_or_else(|e| e.into_inner());
        let cfg = tiny();
        for (label, cell) in fig7_acs_load(&cfg) {
            assert!(cell.seconds().is_some(), "{label}: {cell}");
        }
        for (label, cell) in fig8_acs_stats(&cfg) {
            assert!(cell.seconds().is_some(), "{label}: {cell}");
        }
    }
}
