//! One run of one workload: set-up, warm-up, the timed rounds, and the
//! metrics computed from them.

use crate::json::Json;
use crate::metrics;
use crate::stats::{self, geomean, median};
use crate::trace::Recorder;
use crate::workload::adhoc::Adhoc;
use crate::workload::session::SessionRw;
use crate::workload::tpch::Tpch;
use crate::workload::{Mode, Pass, Workload};
use crate::{fixture, RunCfg};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

/// Rounds a traced run makes (one under `--smoke`).
pub const TRACE_ROUNDS: u64 = 3;
/// An untraced run makes at least this many rounds, and samples the
/// process's peak memory after exactly this many, so `peak_rss_mb`
/// measures the same work on every run however many rounds fit.
pub const MIN_ROUNDS: u64 = 2;

/// What a run produced.
pub struct Outcome {
    /// No operation failed and every result was right.
    pub correct: bool,
    /// Operations attempted in the timed rounds and the warm-up.
    pub attempted: u64,
    /// Operations that errored or returned a wrong result.
    pub failed: u64,
    /// `(name, value, unit)`: the end-to-end metrics of an untraced run,
    /// the per-layer metrics of a traced one.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable report.
    pub report: String,
}

impl Outcome {
    /// The result line the driver reads.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics_json(&self.metrics)),
        ])
        .render()
    }
}

fn metrics_json(metrics: &[(String, f64, &'static str)]) -> Json {
    Json::obj(metrics.iter().map(|(name, value, unit)| {
        (name.as_str(), Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]))
    }))
}

/// Set up the workload named in `cfg`.
pub fn build(cfg: &RunCfg) -> Result<Box<dyn Workload>, String> {
    Ok(match cfg.workload.as_str() {
        "tpch_hot" => Box::new(Tpch::setup(cfg, false)?),
        "tpch_spill" => Box::new(Tpch::setup(cfg, true)?),
        "adhoc_small" => Box::new(Adhoc::setup(cfg)?),
        "session_rw" => Box::new(SessionRw::setup(cfg)?),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// Failure bookkeeping across passes.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn add(&mut self, p: &Pass) {
        self.attempted += p.attempted;
        self.failed += p.failed;
        for f in &p.failures {
            if self.failures.len() < 8 {
                self.failures.push(f.clone());
            }
        }
    }
}

fn walls(passes: &[Pass]) -> Vec<f64> {
    passes.iter().map(Pass::wall).collect()
}

/// Median latency of each operation kind over `passes`, in seconds.
fn kind_medians(kinds: usize, passes: &[Pass]) -> Vec<f64> {
    let mut by_kind: Vec<Vec<f64>> = vec![Vec::new(); kinds];
    for op in passes.iter().flat_map(|p| &p.ops) {
        by_kind[op.kind].push(op.secs);
    }
    by_kind.iter().map(|v| if v.is_empty() { f64::NAN } else { median(v) }).collect()
}

/// Run the workload named in `cfg` and compute its metrics.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let _ = std::fs::remove_dir_all(&cfg.work);
    let tmp = fixture::tmp_dir(&cfg.work);
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::fs::create_dir_all(&cfg.out).map_err(|e| format!("{}: {e}", cfg.out.display()))?;
    let result = run_in(cfg);
    let _ = std::fs::remove_dir_all(&cfg.work);
    result
}

fn run_in(cfg: &RunCfg) -> Result<Outcome, String> {
    let mt = cfg.env.threads_mt;
    let mut wl = build(cfg)?;
    let mut tally = Tally::default();

    let t = Instant::now();
    wl.warm_up(mt).iter().for_each(|p| tally.add(p));
    let setup_s = wl.setup_s() + t.elapsed().as_secs_f64();

    let mut report = String::new();
    let _ = writeln!(
        report,
        "{} seed={} sf={} nproc={} threads_mt={} {} commit={}",
        cfg.workload,
        cfg.seed,
        wl.sf(),
        cfg.env.nproc,
        mt,
        cfg.env.rustc,
        cfg.env.git_commit
    );
    let metrics = if cfg.trace {
        traced(cfg, wl.as_mut(), &mut tally, &mut report)?
    } else {
        untraced(cfg, wl.as_mut(), setup_s, &mut tally, &mut report)?
    };
    for f in &tally.failures {
        let _ = writeln!(report, "FAILED: {f}");
    }
    if let Some((name, v, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is not finite ({v})"));
    }
    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        report,
    })
}

fn untraced(
    cfg: &RunCfg,
    wl: &mut dyn Workload,
    setup_s: f64,
    tally: &mut Tally,
    report: &mut String,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let mt = cfg.env.threads_mt;
    let (mut st, mut mtp) = (Vec::new(), Vec::new());
    let mut peak_rss = f64::NAN;
    let start = Instant::now();
    let mut rounds = 0u64;
    let enough = if cfg.smoke { 1 } else { MIN_ROUNDS };
    loop {
        st.push(wl.pass(1 + 2 * rounds, 1, Mode::Plain));
        mtp.push(wl.pass(2 + 2 * rounds, mt, Mode::Plain));
        rounds += 1;
        if rounds == enough {
            peak_rss = fixture::peak_rss_mib();
        }
        if rounds >= enough && (cfg.smoke || start.elapsed().as_secs_f64() >= cfg.seconds) {
            break;
        }
    }
    st.iter().chain(&mtp).for_each(|p| tally.add(p));

    let kinds = wl.kinds().to_vec();
    let per_kind = kind_medians(kinds.len(), &st);
    if let Some(i) = per_kind.iter().position(|m| !m.is_finite()) {
        return Err(format!("operation kind '{}' was never timed", kinds[i]));
    }
    let values = [
        setup_s,
        median(&walls(&st)),
        median(&walls(&mtp)),
        geomean(&per_kind) * 1e3,
        peak_rss,
        wl.disk_bytes_per_user_byte(),
    ];

    let _ = writeln!(report, "rounds={rounds} (each: one pass at threads=1, one at threads={mt})");
    let (q1, q2, q3) = stats::quartiles(&walls(&st));
    let _ = writeln!(report, "pass_s quartiles over {rounds} passes: {q1:.4} {q2:.4} {q3:.4}");
    let fmt =
        |ps: &[Pass]| walls(ps).iter().map(|w| format!("{w:.3}")).collect::<Vec<_>>().join(" ");
    let _ = writeln!(report, "passes at threads=1: {}", fmt(&st));
    let _ = writeln!(report, "passes at threads={mt}: {}", fmt(&mtp));
    for (k, m) in kinds.iter().zip(&per_kind) {
        let _ = writeln!(report, "  {k:<28} median {:>10.3} ms", m * 1e3);
    }
    let all: Vec<f64> = st.iter().flat_map(|p| &p.ops).map(|o| o.secs * 1e6).collect();
    let _ = writeln!(
        report,
        "operation latency: p50 {:.1} us over {} samples",
        median(&all),
        all.len()
    );
    if let Some(t) = stats::tail(&all) {
        let _ = writeln!(
            report,
            "operation latency: p{} {:.1} us over {} samples (ungated)",
            t.percentile, t.value, t.samples
        );
    }

    let metrics: Vec<(String, f64, &'static str)> = metrics::END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), v)| (name.to_string(), v, *unit))
        .collect();
    write_output(cfg, wl.sf(), "result", &metrics, None)?;
    Ok(metrics)
}

fn traced(
    cfg: &RunCfg,
    wl: &mut dyn Workload,
    tally: &mut Tally,
    report: &mut String,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let mt = cfg.env.threads_mt;
    let mut rec = Recorder::default();
    let (mut plain, mut tr, mut ly, mut mtp) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let rounds = if cfg.smoke { 1 } else { TRACE_ROUNDS };
    for r in 0..rounds {
        let base = 1 + 3 * r;
        plain.push(wl.pass(base, 1, Mode::Plain));
        // The layered pass replays the traced pass's statements, so the
        // two are compared statement by statement.
        tr.push(wl.pass(base + 1, 1, Mode::Traced(&mut rec)));
        ly.push(wl.pass(base + 1, 1, Mode::Layered(&mut rec)));
        mtp.push(wl.pass(base + 2, mt, Mode::Plain));
    }
    [&plain, &tr, &ly, &mtp].into_iter().flatten().for_each(|p| tally.add(p));

    let mut out: BTreeMap<String, f64> = BTreeMap::new();

    // Layer times per statement, matched by statement id across the
    // traced pass (Connection::query, import) and the layered pass.
    const LAYERS: [(&str, &str); 4] = [
        ("sql.parse_us", "sql.share"),
        ("bind.bind_us", "bind.share"),
        ("opt.optimize_us", "opt.share"),
        ("exec.execute_us", "exec.share"),
    ];
    let mut by_stmt: HashMap<u64, [f64; 6]> = HashMap::new();
    for s in rec.spans() {
        let slot = match s.name {
            "sql.parse" => 0,
            "bind.bind" => 1,
            "opt.optimize" => 2,
            "exec.execute" => 3,
            "core.query" => 4,
            "host.import" => 5,
            _ => continue,
        };
        by_stmt.entry(s.stmt).or_insert([f64::NAN; 6])[slot] = s.duration();
    }
    // Statements seen by both paths (writes and failed statements are not).
    let both: Vec<[f64; 6]> =
        by_stmt.into_values().filter(|t| t.iter().all(|x| x.is_finite())).collect();
    if both.is_empty() {
        return Err("no statement was traced through both paths".into());
    }
    let col = |i: usize| -> Vec<f64> { both.iter().map(|t| t[i]).collect() };
    let stmt_total: f64 = both.iter().map(|t| t[4] + t[5]).sum();
    for (i, (us, share)) in LAYERS.iter().enumerate() {
        out.insert(us.to_string(), median(&col(i)) * 1e6);
        out.insert(share.to_string(), col(i).iter().sum::<f64>() / stmt_total);
    }
    out.insert("host.import_us".into(), median(&col(5)) * 1e6);
    out.insert("host.share".into(), col(5).iter().sum::<f64>() / stmt_total);
    let overhead: Vec<f64> = both.iter().map(|t| t[4] - (t[0] + t[1] + t[2] + t[3])).collect();
    out.insert("core.session_overhead_us".into(), median(&overhead) * 1e6);

    // Observations the workload named after the metric they feed.
    let mut obs: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (name, v) in tr.iter().flat_map(|p| &p.obs).copied().chain(wl.final_obs()) {
        obs.entry(name).or_default().push(v);
    }
    for (name, vs) in obs {
        let v = if name == "opt.q_error_rows" { geomean(&vs) } else { median(&vs) };
        out.insert(name.to_string(), v);
    }

    // An operation kind with a per-layer metric of its own (the TPC-H
    // queries: `exec.q01_ms` ...) reports its median there.
    let declared = metrics::per_layer();
    let kinds = wl.kinds().to_vec();
    for (k, m) in kinds.iter().zip(kind_medians(kinds.len(), &plain)) {
        let name = format!("exec.{k}_ms");
        if declared.iter().any(|(n, _)| *n == name) {
            out.insert(name, m * 1e3);
        }
    }
    let plain_s = median(&walls(&plain));
    out.insert("exec.mt_speedup".into(), plain_s / median(&walls(&mtp)));
    out.insert("trace.overhead_share".into(), (median(&walls(&tr)) - plain_s) / plain_s);
    let all: Vec<f64> = plain.iter().flat_map(|p| &p.ops).map(|o| o.secs * 1e6).collect();
    out.insert("stmt.p50_us".into(), median(&all));
    out.insert("stmt.samples".into(), all.len() as f64);
    if let Some(t) = stats::tail(&all) {
        out.insert("stmt.tail_us".into(), t.value);
        out.insert("stmt.tail_percentile".into(), t.percentile);
    }
    out.insert("run.threads_mt".into(), mt as f64);

    // Where the layered path and Connection::query disagree on time, the
    // difference is the session wrapper (or, with caches on, what the
    // caches saved: then it is negative).
    let front = out["sql.share"] + out["bind.share"] + out["opt.share"];
    let _ = writeln!(report, "front-end share of statement time: {:.4}", front);
    let _ = writeln!(
        report,
        "layers + session overhead vs Connection::query: {:.1} us vs {:.1} us per statement (median)",
        LAYERS.iter().map(|(us, _)| out[*us]).sum::<f64>() + out["core.session_overhead_us"],
        median(&col(4)) * 1e6
    );
    if !cfg.smoke {
        for (what, holds) in predictions(&cfg.workload, &out) {
            let _ =
                writeln!(report, "prediction {}: {what}", if holds { "holds" } else { "BROKEN" });
        }
    }
    if let Some(extra) = out.keys().find(|k| !declared.iter().any(|(n, _)| n == *k)) {
        return Err(format!("observation '{extra}' is not a declared per-layer metric"));
    }
    let metrics: Vec<(String, f64, &'static str)> = declared
        .into_iter()
        .map(|(name, unit)| {
            let v = out.get(&name).copied().unwrap_or(0.0);
            (name, v, unit)
        })
        .collect();
    for (name, v, unit) in &metrics {
        let _ = writeln!(report, "  {name:<32} {v:>16.4} {unit}");
    }
    write_output(cfg, wl.sf(), "trace", &metrics, Some(&rec))?;
    Ok(metrics)
}

/// What each workload is predicted to bypass or exercise at full scale.
/// Reported, not enforced: a later change may legitimately move them.
fn predictions(workload: &str, m: &BTreeMap<String, f64>) -> Vec<(&'static str, bool)> {
    let get = |k: &str| m.get(k).copied().unwrap_or(0.0);
    let front = get("sql.share") + get("bind.share") + get("opt.share");
    let hits = get("plan_cache.hit_ratio") + get("result_cache.hit_ratio");
    let out_of_core = get("spill.bytes_per_pass") > 0.0 && get("vmem.evictions_per_pass") > 0.0;
    let in_core = get("spill.bytes_per_pass") == 0.0 && get("vmem.evictions_per_pass") == 0.0;
    match workload {
        "tpch_hot" => vec![
            ("front-end share of statement time < 2%", front < 0.02),
            ("0 spill bytes and 0 vmem evictions", in_core),
            ("0 cache hits (caches off)", hits == 0.0),
        ],
        "tpch_spill" => vec![
            ("> 0 spill bytes and > 0 vmem evictions", out_of_core),
            ("0 cache hits (caches off)", hits == 0.0),
        ],
        "adhoc_small" => vec![("> 0 cache hits", hits > 0.0), ("no paging or spilling", in_core)],
        _ => vec![("0 cache hits (caches off)", hits == 0.0)],
    }
}

fn write_output(
    cfg: &RunCfg,
    sf: f64,
    stem: &str,
    metrics: &[(String, f64, &'static str)],
    rec: Option<&Recorder>,
) -> Result<(), String> {
    use std::io::Write as _;
    let path = cfg.out.join(format!("{stem}-{}.json", cfg.workload));
    let write = || -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
        let head = Json::obj([
            ("workload", Json::str(&cfg.workload)),
            ("env", cfg.env.to_json(sf, cfg.seed)),
            ("metrics", metrics_json(metrics)),
        ])
        .render();
        // The spans go last, one per line, inside the same object.
        write!(w, "{}", head.strip_suffix('}').expect("an object"))?;
        if let Some(rec) = rec {
            write!(w, ", \"spans\": [")?;
            for (i, span) in rec.to_json().enumerate() {
                write!(w, "{}\n{}", if i > 0 { "," } else { "" }, span.render())?;
            }
            write!(w, "\n]")?;
        }
        writeln!(w, "}}")?;
        w.flush()
    };
    write().map_err(|e| format!("{}: {e}", path.display()))
}
