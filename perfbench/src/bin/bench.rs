//! `bench run|repeat|bless`: the repository benchmark's command line.
//! `prepare` is the child process `run` starts to build a fixture.

use monetlite_perfbench::fixture::{self, Env, DEFAULT_SEED};
use monetlite_perfbench::json::{self, Json};
use monetlite_perfbench::{expected, run, workload, RunCfg};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str =
    "usage: bench run [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
       bench repeat [--seconds S] [--smoke]
       bench bless";

/// `--key value` pairs and bare `--flag`s after the subcommand.
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i].strip_prefix("--").ok_or(format!("unexpected argument '{}'", args[i]))?;
        let value = match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => {
                i += 1;
                v.clone()
            }
            _ => "1".to_string(),
        };
        out.insert(key.to_string(), value);
        i += 1;
    }
    Ok(out)
}

fn flag<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value '{v}' for --{key}")),
    }
}

/// The build's target directory: the executable lives in `<target>/<profile>/`.
fn target_dir(exe: &Path) -> PathBuf {
    exe.parent().and_then(Path::parent).map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "repeat" | "bless" | "prepare")) => (c, &args[1..]),
        _ => ("run", &args[..]),
    };
    let outcome = parse_flags(rest).and_then(|flags| {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        match cmd {
            "prepare" => prepare(&flags),
            "repeat" => repeat(&exe, &flags),
            "bless" => bless(&exe),
            _ => run_cmd(&exe, &flags),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn prepare(flags: &HashMap<String, String>) -> Result<bool, String> {
    let dir = PathBuf::from(flags.get("dir").ok_or("prepare needs --dir")?);
    let sf: f64 = flag(flags, "sf", 0.0)?;
    let seed = flag(flags, "seed", DEFAULT_SEED)?;
    let oracle = flag(flags, "oracle", 0u8)? != 0;
    fixture::prepare_tpch(&dir, sf, seed, oracle).map_err(|e| e.to_string())?;
    Ok(true)
}

fn cfg_for(exe: &Path, workload: &str, flags: &HashMap<String, String>) -> Result<RunCfg, String> {
    let target = target_dir(exe);
    let trace = flag(flags, "trace", 0u8)? != 0;
    let tag =
        format!("{workload}-{}-{}", if trace { "traced" } else { "plain" }, std::process::id());
    Ok(RunCfg {
        workload: workload.to_string(),
        seed: flag(flags, "seed", DEFAULT_SEED)?,
        seconds: flag(flags, "seconds", 15.0)?,
        trace,
        smoke: flag(flags, "smoke", 0u8)? != 0,
        bless: false,
        exe: exe.to_path_buf(),
        work: target.join("bench-work").join(tag),
        out: target.join("bench"),
        env: Env::probe(),
    })
}

fn run_cmd(exe: &Path, flags: &HashMap<String, String>) -> Result<bool, String> {
    let Some(name) = flags.get("workload") else {
        // Every workload, each in a process of its own so that peak
        // memory is the workload's and not its predecessor's.
        let mut ok = true;
        for w in workload::NAMES {
            let (status, _) = spawn_run(exe, w, flags)?;
            ok &= status;
        }
        return Ok(ok);
    };
    if !workload::NAMES.contains(&name.as_str()) {
        return Err(format!("unknown workload '{name}' (one of {:?})", workload::NAMES));
    }
    let cfg = cfg_for(exe, name, flags)?;
    fixture::isolate_env(&cfg.work);
    let outcome = run::run(&cfg)?;
    print!("{}", outcome.report);
    println!("{}", outcome.result_line());
    Ok(outcome.correct)
}

/// Run one workload in a child `bench run`; returns its exit status and
/// the parsed result line.
fn spawn_run(
    exe: &Path,
    workload: &str,
    flags: &HashMap<String, String>,
) -> Result<(bool, Json), String> {
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload]);
    for (k, v) in flags.iter().filter(|(k, _)| k.as_str() != "workload") {
        cmd.arg(format!("--{k}")).arg(v);
    }
    let out = cmd.output().map_err(|e| format!("spawn run: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let last = text.lines().last().ok_or(format!("{workload}: no output"))?;
    let doc = json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    Ok((out.status.success(), doc))
}

fn metric_values(doc: &Json) -> HashMap<String, f64> {
    let members = doc.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
    members.iter().filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?))).collect()
}

/// Bounds of the end-to-end metrics, from `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let here = Path::new("BENCHMARK.json");
    let beside = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let path = if here.exists() { here } else { beside.as_path() };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    let list =
        doc.get("end_to_end").and_then(Json::as_arr).ok_or("BENCHMARK.json: no end_to_end")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without name")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("metric without bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// The untraced suite twice on one seed and once on another: both values
/// and their relative difference for every end-to-end metric × workload.
fn repeat(exe: &Path, flags: &HashMap<String, String>) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut flags = flags.clone();
    flags.insert("trace".into(), "0".into());
    let mut suites: Vec<HashMap<&str, HashMap<String, f64>>> = Vec::new();
    let mut ok = true;
    for seed in [DEFAULT_SEED, DEFAULT_SEED, DEFAULT_SEED + 1] {
        flags.insert("seed".into(), seed.to_string());
        let mut suite = HashMap::new();
        for w in workload::NAMES {
            let (status, doc) = spawn_run(exe, w, &flags)?;
            ok &= status;
            suite.insert(w, metric_values(&doc));
        }
        suites.push(suite);
    }
    println!();
    println!(
        "{:<12} {:<26} {:>12} {:>12} {:>8} {:>6}  {:>12}",
        "workload", "metric", "run 1", "run 2", "diff", "bound", "other seed"
    );
    for w in workload::NAMES {
        for (name, bound) in &bounds {
            let get = |i: usize| suites[i][w].get(name).copied().unwrap_or(f64::NAN);
            let (a, b, c) = (get(0), get(1), get(2));
            let diff = (b - a).abs() / a;
            // NaN (a missing metric) must fail, so test for "within".
            let within = diff <= *bound;
            ok &= within;
            println!(
                "{w:<12} {name:<26} {a:>12.5} {b:>12.5} {:>7.2}% {:>5.0}%  {c:>12.5}{}",
                diff * 100.0,
                bound * 100.0,
                if within { "" } else { "  OUTSIDE BOUND" }
            );
        }
    }
    println!("{}", if ok { "repeat: every pair within its bound" } else { "repeat: FAILED" });
    Ok(ok)
}

/// Rewrite `expected/` from the oracle, for the default seed.
fn bless(exe: &Path) -> Result<bool, String> {
    let mut groups = Vec::new();
    for (key, w) in
        [("tpch", "tpch_hot"), ("adhoc_small", "adhoc_small"), ("session_rw", "session_rw")]
    {
        let mut cfg = cfg_for(exe, w, &HashMap::new())?;
        cfg.bless = true;
        fixture::isolate_env(&cfg.work);
        let _ = std::fs::remove_dir_all(&cfg.work);
        std::fs::create_dir_all(fixture::tmp_dir(&cfg.work)).map_err(|e| e.to_string())?;
        let hashes = run::build(&cfg).map(|mut wl| wl.expected());
        let _ = std::fs::remove_dir_all(&cfg.work);
        groups.push((key, hashes?));
    }
    let path = expected::path();
    std::fs::write(&path, expected::render(&groups))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(true)
}
