//! Meta-tests: each lint rule must (a) fire on a synthetic tree seeded
//! with exactly one violation and (b) stay quiet on the corrected tree.
//! A linter whose rules cannot be shown to fire is indistinguishable
//! from `exit 0`. The final test runs the full linter against the real
//! workspace — the same invocation CI uses.

use std::path::Path;
use tempfile::TempDir;
use xlint::{
    check_checksum_discipline, check_counter_liveness, check_env_registry, check_no_panic,
    check_one_fan_out, check_raw_io, check_shim_exports, check_strings_as_bytes, run, RuleResult,
};

fn tree(files: &[(&str, &str)]) -> TempDir {
    let dir = tempfile::tempdir().expect("tempdir");
    for (path, contents) in files {
        let p = dir.path().join(path);
        std::fs::create_dir_all(p.parent().expect("parent")).expect("mkdir");
        std::fs::write(&p, contents).expect("write");
    }
    dir
}

fn assert_fires(res: &RuleResult, rule: &str, msg_fragment: &str) {
    assert!(
        res.violations.iter().any(|v| v.rule == rule && v.msg.contains(msg_fragment)),
        "expected a `{rule}` violation mentioning {msg_fragment:?}, got: {:#?}",
        res.violations
    );
}

fn assert_clean(res: &RuleResult) {
    assert!(res.violations.is_empty(), "expected clean, got: {:#?}", res.violations);
}

// ---------------------------------------------------------------------------
// checksum discipline
// ---------------------------------------------------------------------------

fn persist_src(body: &str) -> String {
    format!("pub fn read_stats_file(p: &Path) -> Result<Stats> {{\n{body}\n}}\n")
}

#[test]
fn checksum_rule_fires_on_reader_without_checksum() {
    let t = tree(&[(
        "crates/storage/src/persist.rs",
        &persist_src("let bytes = std::fs::read(p)?; decode(&bytes)"),
    )]);
    let res = check_checksum_discipline(t.path());
    assert_fires(&res, "checksum-discipline", "fnv1a");
    assert_fires(&res, "checksum-discipline", "MlError::Corrupt");
}

#[test]
fn checksum_rule_passes_on_validating_reader() {
    let t = tree(&[(
        "crates/storage/src/persist.rs",
        &persist_src(
            "let bytes = std::fs::read(p)?;\n\
             if fnv1a(&bytes) != ck { return Err(MlError::Corrupt(\"stats\".into())); }\n\
             decode(&bytes)",
        ),
    )]);
    assert_clean(&check_checksum_discipline(t.path()));
    // The column-file reader validates the word-wise checksum instead.
    let t = tree(&[(
        "crates/storage/src/persist.rs",
        &persist_src(
            "let bytes = std::fs::read(p)?;\n\
             if lane_sum(&bytes) != ck { return Err(MlError::Corrupt(\"column\".into())); }\n\
             decode(&bytes)",
        ),
    )]);
    assert_clean(&check_checksum_discipline(t.path()));
}

// ---------------------------------------------------------------------------
// counter liveness
// ---------------------------------------------------------------------------

fn exec_src(extra_field: &str, snapshot_extra: &str, bump_extra: &str) -> String {
    format!(
        "pub struct ExecCounters {{\n    pub morsels: AtomicU64,\n{extra_field}}}\n\
         pub struct CountersSnapshot {{\n    pub morsels: u64,\n{snapshot_extra}}}\n\
         impl ExecCounters {{\n    pub fn snapshot(&self) -> CountersSnapshot {{\n        \
         CountersSnapshot {{ morsels: g(&self.morsels), {bump_extra} }}\n    }}\n}}\n\
         fn driver(counters: &ExecCounters) {{\n    counters.morsels.fetch_add(1, Relaxed);\n}}\n"
    )
}

#[test]
fn counter_rule_fires_on_dead_counter() {
    // `dead` is declared and mirrored but never incremented anywhere.
    let t = tree(&[(
        "crates/core/src/exec.rs",
        &exec_src("    pub dead: AtomicU64,\n", "    pub dead: u64,\n", "dead: g(&self.dead)"),
    )]);
    assert_fires(&check_counter_liveness(t.path()), "counter-liveness", "never incremented");
}

#[test]
fn counter_rule_fires_on_missing_snapshot_mirror() {
    let src = exec_src("", "", "").replace("pub morsels: u64,\n", "");
    let t = tree(&[("crates/core/src/exec.rs", &src)]);
    assert_fires(&check_counter_liveness(t.path()), "counter-liveness", "CountersSnapshot");
}

#[test]
fn counter_rule_passes_on_live_surfaced_counter() {
    let t = tree(&[("crates/core/src/exec.rs", &exec_src("", "", ""))]);
    assert_clean(&check_counter_liveness(t.path()));
}

// ---------------------------------------------------------------------------
// env-var registry
// ---------------------------------------------------------------------------

const ARCH_TABLE: &str = "# Architecture\n\n\
    | Variable | Effect |\n|---|---|\n| `MONETLITE_FOO` | test knob |\n";

#[test]
fn env_rule_fires_on_undocumented_variable() {
    let t = tree(&[
        ("tests/lib.rs", "fn f() { std::env::var(\"MONETLITE_BAR\"); }\n"),
        ("ARCHITECTURE.md", ARCH_TABLE),
    ]);
    // BAR is read but not documented; FOO is documented but unread.
    let res = check_env_registry(t.path());
    assert_fires(&res, "env-registry", "`MONETLITE_BAR`");
    assert_fires(&res, "env-registry", "`MONETLITE_FOO`");
}

#[test]
fn env_rule_passes_when_registry_matches_reads() {
    let t = tree(&[
        ("tests/lib.rs", "fn f() { std::env::var(\"MONETLITE_FOO\"); }\n"),
        ("ARCHITECTURE.md", ARCH_TABLE),
    ]);
    assert_clean(&check_env_registry(t.path()));
}

#[test]
fn env_rule_fires_on_an_environment_read_in_the_engine() {
    // Documented or not, an engine crate may not read a variable; test
    // code and comments in the same file may mention one.
    let engine = "/// Reads `std::env::var(\"HOME\")`? No.\n\
                  fn f() { let _ = std::env::var_os(\"MONETLITE_FOO\"); }\n\
                  #[cfg(test)]\nmod tests { fn g() { std::env::var(\"X\").ok(); } }\n";
    let t = tree(&[("crates/storage/src/store.rs", engine), ("ARCHITECTURE.md", ARCH_TABLE)]);
    let res = check_env_registry(t.path());
    assert_fires(&res, "env-registry", "reads the environment");
    assert_eq!(res.violations.len(), 1, "{:#?}", res.violations);
    assert_eq!(res.violations[0].line, 2);
    // The same read in a harness is only held to the registry.
    let t = tree(&[("crates/bench/src/lib.rs", engine), ("ARCHITECTURE.md", ARCH_TABLE)]);
    assert_clean(&check_env_registry(t.path()));
}

// ---------------------------------------------------------------------------
// no-panic hot path
// ---------------------------------------------------------------------------

fn hot_tree(pipeline_body: &str) -> TempDir {
    let mut files: Vec<(&str, String)> =
        xlint::HOT_PATH.iter().map(|f| (*f, "pub fn ok() -> usize { 1 }\n".to_string())).collect();
    files[1].1 = pipeline_body.to_string(); // pipeline.rs
    let refs: Vec<(&str, &str)> = files.iter().map(|(p, c)| (*p, c.as_str())).collect();
    tree(&refs)
}

#[test]
fn no_panic_rule_fires_on_bare_unwrap() {
    let t = hot_tree("pub fn f(v: Vec<i32>) -> i32 { v.first().copied().unwrap() }\n");
    assert_fires(&check_no_panic(t.path()), "no-panic", ".unwrap()");
}

#[test]
fn no_panic_rule_honours_allow_annotation_and_counts_it() {
    let t = hot_tree(
        "pub fn f(v: Vec<i32>) -> i32 {\n\
         // xlint: allow(panic, callers guarantee non-empty)\n\
         v.first().copied().unwrap()\n}\n",
    );
    let res = check_no_panic(t.path());
    assert_clean(&res);
    assert!(
        res.notes.iter().any(|n| n.contains("1 annotated allow(panic)")),
        "allow sites must be counted: {:?}",
        res.notes
    );
}

#[test]
fn no_panic_rule_ignores_test_modules_and_comments() {
    let t = hot_tree(
        "pub fn f() -> i32 { 1 } // .unwrap() in a comment is fine\n\
         #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n",
    );
    assert_clean(&check_no_panic(t.path()));
}

// ---------------------------------------------------------------------------
// shim export conformance
// ---------------------------------------------------------------------------

#[test]
fn shim_rule_fires_on_invented_export() {
    let t = tree(&[("vendor/rand/src/lib.rs", "pub fn not_in_rand() -> u64 { 4 }\n")]);
    assert_fires(&check_shim_exports(t.path()), "shim-exports", "`not_in_rand`");
}

#[test]
fn shim_rule_fires_on_uncurated_vendor_crate() {
    let t = tree(&[("vendor/mystery/src/lib.rs", "pub struct Mystery;\n")]);
    assert_fires(&check_shim_exports(t.path()), "shim-exports", "`mystery`");
}

#[test]
fn shim_rule_accepts_real_surface_and_annotated_helpers() {
    let t = tree(&[(
        "vendor/rand/src/lib.rs",
        "pub trait Rng {}\n\
         // xlint: allow(shim-export, internal helper for the shim's Rng impl)\n\
         pub struct ShimState;\n",
    )]);
    let res = check_shim_exports(t.path());
    assert_clean(&res);
    assert!(
        res.notes.iter().any(|n| n.contains("1 annotated shim-internal")),
        "annotated helpers must be counted: {:?}",
        res.notes
    );
}

// ---------------------------------------------------------------------------
// failpoint coverage (raw-io)
// ---------------------------------------------------------------------------

const SPILL_OK: &str = "use std::fs::File;\n\
    pub fn f(p: &Path) -> Result<File> { fault::open(\"spill.open\", p) }\n";

#[test]
fn raw_io_rule_fires_on_unwrapped_call() {
    let t = tree(&[
        ("crates/storage/src/wal.rs", "pub fn f(p: &Path) { let _ = std::fs::remove_file(p); }\n"),
        ("crates/core/src/spill.rs", SPILL_OK),
    ]);
    assert_fires(&check_raw_io(t.path()), "raw-io", "`std::fs::`");
}

#[test]
fn raw_io_rule_skips_imports_tests_and_wrapped_calls() {
    // A `use` line naming std::fs types, a test-module raw call, and a
    // wrapped `fault::write_all` (no leading dot) must all pass.
    let t = tree(&[
        (
            "crates/storage/src/wal.rs",
            "use std::fs::File;\n\
             pub fn f(w: &mut W, b: &[u8]) -> Result<()> { fault::write_all(\"wal.append\", w, b) }\n\
             #[cfg(test)]\nmod tests {\n    fn t() { std::fs::write(\"x\", b\"y\").unwrap(); }\n}\n",
        ),
        ("crates/core/src/spill.rs", SPILL_OK),
    ]);
    assert_clean(&check_raw_io(t.path()));
}

#[test]
fn raw_io_rule_honours_allow_annotation_and_counts_it() {
    let t = tree(&[
        (
            "crates/storage/src/vmem.rs",
            "pub fn f(p: &Path) {\n\
             // xlint: allow(raw-io, best-effort cache probe, never fails a query)\n\
             let _ = std::fs::metadata(p);\n}\n",
        ),
        ("crates/core/src/spill.rs", SPILL_OK),
    ]);
    let res = check_raw_io(t.path());
    assert_clean(&res);
    assert!(
        res.notes.iter().any(|n| n.contains("1 annotated allow(raw-io)")),
        "allow sites must be counted: {:?}",
        res.notes
    );
}

#[test]
fn raw_io_rule_fires_when_scope_file_is_missing() {
    // spill.rs absent: the rule must complain instead of silently
    // shrinking its scope.
    let t = tree(&[("crates/storage/src/wal.rs", "pub fn ok() {}\n")]);
    assert_fires(&check_raw_io(t.path()), "raw-io", "missing");
}

// ---------------------------------------------------------------------------
// one fan-out
// ---------------------------------------------------------------------------

const DRIVE_OK: &str = "fn drive<P>(n: usize) -> Vec<P> {\n\
    std::thread::scope(|scope| {\n        let h = scope.spawn(|| work());\n        h.join()\n    })\n}\n";

#[test]
fn one_fan_out_rule_fires_on_a_spawn_outside_drive() {
    let t = tree(&[
        ("crates/core/src/pipeline.rs", DRIVE_OK),
        ("crates/core/src/host.rs", "pub fn f() { std::thread::spawn(|| ()); }\n"),
    ]);
    assert_fires(&check_one_fan_out(t.path()), "one-fan-out", "`thread::spawn`");
    // A scope in pipeline.rs but outside `drive` fires too.
    let elsewhere = format!("{DRIVE_OK}fn g() {{ std::thread::scope(|_| ()); }}\n");
    let t = tree(&[("crates/core/src/pipeline.rs", &elsewhere)]);
    assert_fires(&check_one_fan_out(t.path()), "one-fan-out", "`thread::scope`");
}

#[test]
fn one_fan_out_rule_passes_on_drive_tests_comments_and_counts_allows() {
    let t = tree(&[
        ("crates/core/src/pipeline.rs", DRIVE_OK),
        (
            "crates/core/src/exec.rs",
            "// thread::spawn in a comment is fine\n\
             pub fn f() {\n\
             // xlint: allow(thread, a watchdog that never runs a morsel)\n\
             std::thread::Builder::new();\n}\n\
             #[cfg(test)]\nmod tests {\n    fn t() { std::thread::spawn(|| ()); }\n}\n",
        ),
    ]);
    let res = check_one_fan_out(t.path());
    assert_clean(&res);
    assert!(
        res.notes.iter().any(|n| n.contains("1 annotated allow(thread)")),
        "allow sites must be counted: {:?}",
        res.notes
    );
}

#[test]
fn one_fan_out_rule_fires_when_drive_is_missing() {
    let t = tree(&[("crates/core/src/pipeline.rs", "pub fn ok() {}\n")]);
    assert_fires(&check_one_fan_out(t.path()), "one-fan-out", "missing");
}

// ---------------------------------------------------------------------------
// strings as bytes
// ---------------------------------------------------------------------------

/// Every file of the rule's scope, clean, with `rows.rs` replaced.
fn byte_string_tree(rows_src: &str) -> TempDir {
    let mut files: Vec<(String, &str)> = ["kernels", "join", "agg", "sort", "pipeline", "exec"]
        .iter()
        .map(|m| (format!("crates/core/src/{m}.rs"), "pub fn k() {}\n"))
        .collect();
    files.push(("crates/core/src/rows.rs".into(), rows_src));
    tree(&files.iter().map(|(p, src)| (p.as_str(), *src)).collect::<Vec<_>>())
}

#[test]
fn strings_as_bytes_rule_fires_on_a_decoded_compare() {
    let t = byte_string_tree("pub fn cmp(c: &Bat) -> Ordering { c.str_at(0).cmp(&c.str_at(1)) }\n");
    assert_fires(&check_strings_as_bytes(t.path()), "strings-as-bytes", "`.str_at(`");
    let t = byte_string_tree("pub fn s(heap: &StringHeap, o: u32) -> &str { heap.get(o) }\n");
    assert_fires(&check_strings_as_bytes(t.path()), "strings-as-bytes", "`heap.get(`");
    let t = byte_string_tree("pub fn s(b: &[u8]) -> bool { std::str::from_utf8(b).is_ok() }\n");
    assert_fires(&check_strings_as_bytes(t.path()), "strings-as-bytes", "`from_utf8`");
}

#[test]
fn strings_as_bytes_rule_passes_on_bytes_tests_comments_and_counts_allows() {
    let t = byte_string_tree(
        "// c.str_at(i) in a comment is fine\n\
         pub fn cmp(h: &StringHeap, a: u32, b: u32) -> Ordering { h.get_bytes(a).cmp(h.get_bytes(b)) }\n\
         pub fn upper(c: &Bat) {\n\
         // xlint: allow(str, case mapping is per character)\n\
         let _ = c.str_at(0);\n}\n\
         #[cfg(test)]\nmod tests {\n    fn t(c: &Bat) { c.str_at(0); }\n}\n",
    );
    let res = check_strings_as_bytes(t.path());
    assert_clean(&res);
    assert!(
        res.notes.iter().any(|n| n.contains("1 annotated allow(str)")),
        "allow sites must be counted: {:?}",
        res.notes
    );
}

#[test]
fn strings_as_bytes_rule_fires_when_a_scope_file_is_missing() {
    let t = tree(&[("crates/core/src/rows.rs", "pub fn ok() {}\n")]);
    assert_fires(&check_strings_as_bytes(t.path()), "strings-as-bytes", "missing");
}

// ---------------------------------------------------------------------------
// the real workspace
// ---------------------------------------------------------------------------

#[test]
fn workspace_passes_every_invariant() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = run(&root);
    assert!(report.is_clean(), "xlint found violations:\n{}", report.render());
}
