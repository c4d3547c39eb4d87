//! Fixtures shared by the workloads: the run environment, the prepared
//! TPC-H directory (built by a child process so the generator's memory
//! never counts against the engine), and process/directory probes.

use crate::hash;
use crate::json::{self, Json};
use monetlite::exec::{ExecMode, ExecOptions};
use monetlite::types::{MlError, Result};
use monetlite::{Connection, Database, DbOptions};
use monetlite_tpch::queries;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Seed used when none is given; expected hashes are committed for it.
pub const DEFAULT_SEED: u64 = 20260611;

/// Facts about the host and build, recorded in every output file.
#[derive(Debug, Clone)]
pub struct Env {
    /// `available_parallelism`.
    pub nproc: usize,
    /// Thread count of the multi-threaded passes: `min(nproc, 4)`.
    pub threads_mt: usize,
    /// `rustc --version`, or "unknown".
    pub rustc: String,
    /// `git rev-parse HEAD`, or "unknown" outside a git checkout.
    pub git_commit: String,
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

impl Env {
    /// Probe the host.
    pub fn probe() -> Env {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Env {
            nproc,
            threads_mt: nproc.min(4),
            rustc: tool_line("rustc", &["--version"]),
            git_commit: tool_line("git", &["rev-parse", "HEAD"]),
        }
    }

    /// JSON form, with the workload's scale factor and seed.
    pub fn to_json(&self, sf: f64, seed: u64) -> Json {
        Json::obj([
            ("nproc", Json::Num(self.nproc as f64)),
            ("threads_mt", Json::Num(self.threads_mt as f64)),
            ("rustc", Json::str(&self.rustc)),
            ("git_commit", Json::str(&self.git_commit)),
            ("sf", Json::Num(sf)),
            ("seed", Json::Num(seed as f64)),
            ("loop", Json::str("closed, 1 client, 1 connection")),
            (
                "flush_policy",
                Json::str(
                    "engine default: commit flushes the WAL to the OS without fsync, \
                     checkpoint fsyncs the catalog, wal_autocheckpoint = 64 MiB",
                ),
            ),
        ])
    }
}

/// Where the engine's temporary (spill) files go: inside the run's scratch
/// directory, never the system temp directory.
pub fn tmp_dir(work: &Path) -> PathBuf {
    work.join("tmp")
}

/// Make this process and its children use the shipped engine defaults and
/// keep their temporary files under `work`. Call before any thread
/// starts.
pub fn isolate_env(work: &Path) {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MONETLITE_") {
            std::env::remove_var(key);
        }
    }
    std::env::set_var("TMPDIR", tmp_dir(work));
}

/// Execution options of a measured connection. Everything not named here
/// is the engine default; `MONETLITE_*` variables are cleared at start-up
/// so the defaults are the shipped ones.
pub fn exec_opts(threads: usize, caches: bool) -> ExecOptions {
    ExecOptions { threads, use_plan_cache: caches, use_result_cache: caches, ..Default::default() }
}

/// Options of the correctness oracle: the materialized engine, one
/// thread, no caches, unlimited memory.
pub fn oracle_opts() -> ExecOptions {
    ExecOptions { mode: ExecMode::Materialized, ..exec_opts(1, false) }
}

/// Open a persisted directory with a vmem budget (`usize::MAX` = none).
pub fn open(dir: &Path, vmem_budget: usize) -> Result<Database> {
    Database::open_with(DbOptions {
        path: Some(dir.to_path_buf()),
        vmem_budget,
        ..Default::default()
    })
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Bytes in a database directory, split the way the storage layer names
/// its files.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirBytes {
    /// Every regular file.
    pub total: u64,
    /// `.zm` / `.st` / `.dict` sidecars.
    pub sidecars: u64,
    /// The write-ahead log.
    pub wal: u64,
}

/// Measure a database directory (recursively).
pub fn dir_bytes(dir: &Path) -> DirBytes {
    let mut out = DirBytes::default();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else { continue };
        for e in entries.flatten() {
            let Ok(meta) = e.metadata() else { continue };
            if meta.is_dir() {
                stack.push(e.path());
                continue;
            }
            out.total += meta.len();
            let name = e.file_name().to_string_lossy().into_owned();
            if [".zm", ".st", ".dict"].iter().any(|s| name.ends_with(s)) {
                out.sidecars += meta.len();
            }
            if name == "wal.log" {
                out.wal += meta.len();
            }
        }
    }
    out
}

/// Run all 22 TPC-H queries once on `conn`, returning each result's hash.
pub fn tpch_hashes(conn: &mut Connection) -> Result<Vec<u64>> {
    (1..=22)
        .map(|n| {
            let sql = queries::sql(n);
            Ok(hash::hash_result(&conn.query(sql)?, hash::is_ordered(sql)))
        })
        .collect()
}

/// Create the views the TPC-H queries need (Q15's `revenue0`). Views live
/// for the database handle, so this runs once per open, outside timing.
pub fn create_tpch_views(conn: &mut Connection) -> Result<()> {
    for n in 1..=22 {
        if let Some(ddl) = queries::setup_sql(n) {
            conn.execute(ddl)?;
        }
    }
    Ok(())
}

/// What the `prepare` child measured, written next to the database as
/// `prepare.json` for the parent to read.
#[derive(Debug, Clone, Default)]
pub struct Prepared {
    /// `monetlite_tpch::generate` wall time.
    pub generate_s: f64,
    /// DDL + bulk append wall time.
    pub load_s: f64,
    /// `Database::checkpoint` wall time.
    pub checkpoint_s: f64,
    /// Host-representation bytes of the generated data.
    pub user_bytes: u64,
    /// Directory bytes after the checkpoint.
    pub disk_bytes: u64,
    /// Oracle hashes of Q1..Q22 (empty unless requested).
    pub oracle: Vec<u64>,
}

impl Prepared {
    /// Total set-up time this child contributed.
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.load_s + self.checkpoint_s
    }
}

/// The database directory inside a prepared fixture directory.
pub fn db_dir(fixture: &Path) -> PathBuf {
    fixture.join("db")
}

/// Generate TPC-H at `sf`, load it into `fixture/db`, checkpoint, and —
/// when `oracle` — hash every query under [`oracle_opts`]. Runs in the
/// `prepare` child process.
pub fn prepare_tpch(fixture: &Path, sf: f64, seed: u64, oracle: bool) -> Result<Prepared> {
    let t = Instant::now();
    let data = monetlite_tpch::generate(sf, seed);
    let generate_s = t.elapsed().as_secs_f64();
    let db = Database::open(db_dir(fixture))?;
    let mut conn = db.connect();
    let t = Instant::now();
    monetlite_tpch::load_monet(&mut conn, &data)?;
    let load_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    db.checkpoint()?;
    let checkpoint_s = t.elapsed().as_secs_f64();
    let mut out = Prepared {
        generate_s,
        load_s,
        checkpoint_s,
        user_bytes: data.bytes() as u64,
        disk_bytes: dir_bytes(&db_dir(fixture)).total,
        oracle: Vec::new(),
    };
    drop(data);
    if oracle {
        conn.set_exec_options(oracle_opts());
        create_tpch_views(&mut conn)?;
        out.oracle = tpch_hashes(&mut conn)?;
    }
    let doc = Json::obj([
        ("generate_s", Json::Num(out.generate_s)),
        ("load_s", Json::Num(out.load_s)),
        ("checkpoint_s", Json::Num(out.checkpoint_s)),
        ("user_bytes", Json::Num(out.user_bytes as f64)),
        ("disk_bytes", Json::Num(out.disk_bytes as f64)),
        ("oracle", Json::Arr(out.oracle.iter().map(|h| Json::str(hash::hex(*h))).collect())),
    ]);
    std::fs::write(fixture.join("prepare.json"), doc.render())
        .map_err(|e| MlError::Io(format!("write prepare.json: {e}")))?;
    Ok(out)
}

/// Read what [`prepare_tpch`] wrote.
pub fn read_prepared(fixture: &Path) -> std::result::Result<Prepared, String> {
    let path = fixture.join("prepare.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    let num = |k: &str| doc.get(k).and_then(Json::as_f64).ok_or(format!("prepare.json: no {k}"));
    let oracle = doc
        .get("oracle")
        .and_then(Json::as_arr)
        .ok_or("prepare.json: no oracle")?
        .iter()
        .map(|h| h.as_str().and_then(|s| u64::from_str_radix(s, 16).ok()).ok_or("bad hash"))
        .collect::<std::result::Result<Vec<u64>, _>>()?;
    Ok(Prepared {
        generate_s: num("generate_s")?,
        load_s: num("load_s")?,
        checkpoint_s: num("checkpoint_s")?,
        user_bytes: num("user_bytes")? as u64,
        disk_bytes: num("disk_bytes")? as u64,
        oracle,
    })
}

/// Build the TPC-H fixture `repeats` times in child processes (fresh
/// directory each time, the last one kept, the oracle computed on the
/// last) and return the directory with each child's measurements.
pub fn prepare_in_children(
    exe: &Path,
    work: &Path,
    sf: f64,
    seed: u64,
    repeats: usize,
) -> std::result::Result<(PathBuf, Vec<Prepared>), String> {
    let fixture = work.join("fixture");
    let mut runs = Vec::with_capacity(repeats);
    for i in 0..repeats {
        let _ = std::fs::remove_dir_all(&fixture);
        std::fs::create_dir_all(&fixture).map_err(|e| format!("{}: {e}", fixture.display()))?;
        let last = i + 1 == repeats;
        let status = Command::new(exe)
            .arg("prepare")
            .args(["--dir", &fixture.to_string_lossy()])
            .args(["--sf", &sf.to_string(), "--seed", &seed.to_string()])
            .args(["--oracle", if last { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("spawn prepare: {e}"))?;
        if !status.success() {
            return Err(format!("prepare child failed: {status}"));
        }
        runs.push(read_prepared(&fixture)?);
    }
    Ok((fixture, runs))
}

/// A prepared TPC-H directory, opened: what `tpch_*` and `adhoc_small`
/// share.
pub struct Opened {
    /// The database directory.
    pub dir: PathBuf,
    /// The open database.
    pub db: Database,
    /// What each prepare child measured (the last one built `dir`).
    pub prepared: Vec<Prepared>,
    open_s: f64,
}

impl Opened {
    /// Prepare at `sf` (three times; once under `--smoke`) and open the
    /// last directory with the vmem budget `budget` derives from it.
    pub fn new(
        cfg: &crate::RunCfg,
        sf: f64,
        budget: impl FnOnce(&Prepared) -> usize,
    ) -> std::result::Result<Opened, String> {
        let repeats = if cfg.smoke { 1 } else { 3 };
        let (fixture, prepared) = prepare_in_children(&cfg.exe, &cfg.work, sf, cfg.seed, repeats)?;
        let dir = db_dir(&fixture);
        let budget = budget(prepared.last().expect("at least one prepare run"));
        let t = Instant::now();
        let db = open(&dir, budget).map_err(|e| e.to_string())?;
        Ok(Opened { dir, db, prepared, open_s: t.elapsed().as_secs_f64() })
    }

    /// The prepare run that built the directory.
    pub fn last(&self) -> &Prepared {
        self.prepared.last().expect("at least one prepare run")
    }

    fn median_of(&self, f: fn(&Prepared) -> f64) -> f64 {
        crate::stats::median(&self.prepared.iter().map(f).collect::<Vec<_>>())
    }

    /// Median prepare time plus the open.
    pub fn setup_s(&self) -> f64 {
        self.median_of(Prepared::total_s) + self.open_s
    }

    /// Directory bytes after the checkpoint per byte of generated data.
    pub fn disk_bytes_per_user_byte(&self) -> f64 {
        self.last().disk_bytes as f64 / self.last().user_bytes as f64
    }

    /// Set-up and end-state observations for the per-layer report.
    pub fn obs(&self) -> Vec<(&'static str, f64)> {
        let checkpoint_s = self.median_of(|p| p.checkpoint_s);
        let disk = self.last().disk_bytes as f64;
        vec![
            ("tpch.generate_s", self.median_of(|p| p.generate_s)),
            ("tpch.load_s", self.median_of(|p| p.load_s)),
            ("persist.prepare_checkpoint_s", checkpoint_s),
            ("persist.checkpoint_mb_per_s", disk / (1 << 20) as f64 / checkpoint_s),
            ("persist.disk_bytes", disk),
            ("persist.sidecar_bytes", dir_bytes(&self.dir).sidecars as f64),
            ("plan_cache.entries", self.db.plan_cache().len() as f64),
            ("result_cache.bytes", self.db.result_cache().bytes() as f64),
        ]
    }
}
