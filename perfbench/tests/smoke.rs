//! `--smoke` over all four workloads, untraced and traced: every metric
//! `BENCHMARK.json` names is emitted exactly once with a finite value and
//! every named workload runs, so the benchmark cannot rot between
//! recorded runs.

use monetlite_perfbench::fixture::{self, Env, DEFAULT_SEED};
use monetlite_perfbench::json::{self, Json};
use monetlite_perfbench::{run, RunCfg};
use std::path::PathBuf;

fn declared(doc: &Json, key: &str) -> Vec<String> {
    let list = doc.get(key).and_then(Json::as_arr).expect(key);
    list.iter().map(|m| m.get("name").and_then(Json::as_str).expect("name").to_string()).collect()
}

#[test]
fn smoke_emits_every_declared_metric_on_every_workload() {
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let work = tmp.join("smoke-work");
    // One test in this binary, so no other thread exists yet.
    fixture::isolate_env(&work);
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(manifest).unwrap()).unwrap();
    let workloads = declared(&doc, "workloads");
    assert_eq!(workloads.len(), 4);
    let started = std::time::Instant::now();
    for workload in &workloads {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let cfg = RunCfg {
                workload: workload.clone(),
                seed: DEFAULT_SEED + 1,
                seconds: 0.0,
                trace,
                smoke: true,
                bless: false,
                exe: PathBuf::from(env!("CARGO_BIN_EXE_bench")),
                work: work.clone(),
                out: tmp.join("smoke-out"),
                env: Env::probe(),
            };
            let outcome =
                run::run(&cfg).unwrap_or_else(|e| panic!("{workload} trace={trace}: {e}"));
            assert!(outcome.correct, "{workload} trace={trace}:\n{}", outcome.report);
            assert!(outcome.attempted >= 1 && outcome.failed == 0);
            for name in declared(&doc, key) {
                let hits: Vec<f64> =
                    outcome.metrics.iter().filter(|(n, _, _)| *n == name).map(|m| m.1).collect();
                assert_eq!(hits.len(), 1, "{workload}: {name} emitted {} times", hits.len());
                assert!(hits[0].is_finite(), "{workload}: {name} = {}", hits[0]);
            }
            assert_eq!(
                outcome.metrics.len(),
                declared(&doc, key).len(),
                "{workload}: undeclared metric"
            );
            // The line the driver reads parses and has exactly the four keys.
            let line = json::parse(&outcome.result_line()).unwrap();
            let keys: Vec<&str> = line.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            if trace {
                let path = cfg.out.join(format!("trace-{workload}.json"));
                let trace = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
                assert!(!trace.get("spans").and_then(Json::as_arr).unwrap().is_empty());
                assert!(trace.get("env").and_then(|e| e.get("seed")).is_some());
            }
        }
    }
    assert!(!work.exists(), "scratch directory is removed after a run");
    eprintln!("smoke: {:.1}s", started.elapsed().as_secs_f64());
}
