//! Workspace invariant linter.
//!
//! `cargo run -p xlint` enforces the engine disciplines that `rustc` and
//! clippy cannot see because they live *across* files and layers:
//!
//! 1. **Checksum discipline** — every `read_*_file` reader in
//!    `persist.rs` must validate a checksum (`fnv1a` for sidecars,
//!    `lane_sum` for column files) and report failures as
//!    `MlError::Corrupt` before constructing a value from the bytes.
//! 2. **Counter liveness** — every `ExecCounters` field must be bumped
//!    somewhere in the engine and surfaced through `CountersSnapshot`;
//!    dead counters rot into misleading EXPLAIN/bench output.
//! 3. **Env-var registry** — every `MONETLITE_*` environment variable read
//!    anywhere in the workspace (or set by CI) must appear in the options
//!    table in `ARCHITECTURE.md`, and every documented row must still have
//!    a reader. Undocumented knobs are how ablation flags get lost. The
//!    engine itself reads no environment: a `std::env::var`/`var_os`/
//!    `vars` call in the non-test code of `crates/{core,storage,sql,types}`
//!    is a violation (its configuration is `ExecOptions`, `OptFlags` and
//!    `DbOptions`; the vendored `tempfile`'s TMPDIR is a deployment path
//!    outside those crates). Only harnesses read variables.
//! 4. **No-panic hot path** — `unwrap`/`expect`/`panic!`-family macros are
//!    banned in the non-test code of the six hot-path files; a worker
//!    thread that panics should never have been able to. The escape hatch
//!    is `// xlint: allow(panic, <reason>)` on the same or preceding line,
//!    and the report counts every use of it.
//! 5. **Shim conformance** — the vendored dependency shims under `vendor/`
//!    may only export names the real crates export, so the workspace keeps
//!    compiling the day the shims are replaced by the genuine articles.
//!    Shim-internal helpers need `// xlint: allow(shim-export, <reason>)`.
//! 6. **Failpoint coverage** — non-test code in `crates/storage` and
//!    `core/spill.rs` must route file I/O through the
//!    `monetlite_storage::fault` wrappers: raw `File::`/`std::fs::`/
//!    `.write_all(`/`.sync_all(` calls are banned (else the fault-injection
//!    sweep silently loses coverage of that site). The escape hatch is
//!    `// xlint: allow(raw-io, <reason>)`, and the report counts its uses.
//! 7. **One fan-out** — `pipeline::drive` is the engine's only place that
//!    creates threads, so the morsel policy, the calling thread's share of
//!    the work and the panic policy hold for every parallel query:
//!    `thread::spawn`, `thread::scope`, `spawn_scoped` and
//!    `thread::Builder` are banned in the rest of `crates/core`'s non-test
//!    code. The escape hatch is `// xlint: allow(thread, <reason>)`, and
//!    the report counts its uses.
//! 8. **Strings as bytes** — in the non-test code of `kernels`, `rows`,
//!    `join`, `agg`, `sort`, `pipeline` and `exec` (`crates/core`), the
//!    calls that decode a heap entry to `&str` are banned: `.str_at(`,
//!    `StringHeap::get(` (also as a method on a receiver named `…heap`)
//!    and `from_utf8`. Code there reads `StringHeap::get_bytes`. The
//!    escape hatch, for code that needs characters (LIKE with `_`,
//!    UPPER/LOWER, LENGTH, SUBSTRING, the VARCHAR→DATE cast), is
//!    `// xlint: allow(str, <reason>)`, and the report counts its uses.
//!    The rule matches those tokens only: a `Value` conversion
//!    (`Bat::get`, which builds a `String` for a VARCHAR cell) is not
//!    seen; such a conversion remains per row only in the mixed-type
//!    fallback of `rows::cmp_cells`.
//!
//! Each rule is a standalone `check_*` function taking the workspace root,
//! so the meta-tests can seed one violation into a synthetic tree and
//! prove the rule still fires. All analysis is textual: a
//! length-preserving pass blanks comments and string literals so token
//! scans and brace matching cannot be fooled by either, and everything
//! from the first `#[cfg(test)]` onward is ignored (the repo convention
//! keeps the test module last in each file).

#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// One broken invariant, pointing at the offending file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier (e.g. `no-panic`).
    pub rule: &'static str,
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line, or 0 when the finding is file-scoped.
    pub line: usize,
    /// Human-readable explanation.
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "[{}] {}: {}", self.rule, self.file, self.msg)
        } else {
            write!(f, "[{}] {}:{}: {}", self.rule, self.file, self.line, self.msg)
        }
    }
}

/// Output of one rule: hard failures plus informational notes
/// (annotation counts, advisory tallies) for the report.
#[derive(Debug, Default)]
pub struct RuleResult {
    /// Failures that flip the exit code.
    pub violations: Vec<Violation>,
    /// Informational lines for the report.
    pub notes: Vec<String>,
}

impl RuleResult {
    fn fail(&mut self, rule: &'static str, file: &str, line: usize, msg: impl Into<String>) {
        self.violations.push(Violation { rule, file: file.to_string(), line, msg: msg.into() });
    }
}

/// Aggregate outcome of a full lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// All violations across rules.
    pub violations: Vec<Violation>,
    /// All notes across rules.
    pub notes: Vec<String>,
}

impl Report {
    /// True when no rule found a violation.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Render the report as printable text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            out.push_str("note: ");
            out.push_str(n);
            out.push('\n');
        }
        for v in &self.violations {
            out.push_str(&v.to_string());
            out.push('\n');
        }
        if self.is_clean() {
            out.push_str("xlint: all invariants hold\n");
        } else {
            out.push_str(&format!("xlint: {} violation(s)\n", self.violations.len()));
        }
        out
    }
}

/// Run every rule against the workspace rooted at `root`.
pub fn run(root: &Path) -> Report {
    let mut report = Report::default();
    for part in [
        check_checksum_discipline(root),
        check_counter_liveness(root),
        check_env_registry(root),
        check_no_panic(root),
        check_shim_exports(root),
        check_raw_io(root),
        check_one_fan_out(root),
        check_strings_as_bytes(root),
    ] {
        report.violations.extend(part.violations);
        report.notes.extend(part.notes);
    }
    report
}

// ---------------------------------------------------------------------------
// Source-text utilities
// ---------------------------------------------------------------------------

/// Blank out comments, string literals and char literals, preserving the
/// byte length and every newline so offsets and line numbers stay valid.
/// Handles nested block comments, raw strings with hashes, and avoids
/// mistaking lifetimes for char literals.
pub fn strip_comments_and_strings(src: &str) -> String {
    let b = src.as_bytes();
    let mut out: Vec<u8> = src.as_bytes().to_vec();
    let n = b.len();
    let mut i = 0;
    let blank = |out: &mut Vec<u8>, from: usize, to: usize| {
        for slot in &mut out[from..to] {
            if *slot != b'\n' {
                *slot = b' ';
            }
        }
    };
    while i < n {
        match b[i] {
            b'/' if i + 1 < n && b[i + 1] == b'/' => {
                let end = src[i..].find('\n').map(|p| i + p).unwrap_or(n);
                blank(&mut out, i, end);
                i = end;
            }
            b'/' if i + 1 < n && b[i + 1] == b'*' => {
                let start = i;
                let mut depth = 1usize;
                i += 2;
                while i < n && depth > 0 {
                    if i + 1 < n && b[i] == b'/' && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if i + 1 < n && b[i] == b'*' && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                blank(&mut out, start, i);
            }
            b'r' | b'b' if is_raw_string_start(b, i) => {
                let (hashes, body_start) = raw_string_open(b, i);
                let closer: Vec<u8> =
                    std::iter::once(b'"').chain(std::iter::repeat_n(b'#', hashes)).collect();
                let end = find_bytes(b, body_start, &closer).map(|p| p + closer.len()).unwrap_or(n);
                blank(&mut out, i, end);
                i = end;
            }
            b'"' => {
                let start = i;
                i += 1;
                while i < n {
                    if b[i] == b'\\' {
                        i += 2;
                    } else if b[i] == b'"' {
                        i += 1;
                        break;
                    } else {
                        i += 1;
                    }
                }
                blank(&mut out, start, i.min(n));
            }
            b'\'' => {
                // Char literal iff it closes within a few bytes; otherwise a
                // lifetime like `&'a str`, left alone.
                if let Some(end) = char_literal_end(b, i) {
                    blank(&mut out, i, end);
                    i = end;
                } else {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn is_raw_string_start(b: &[u8], i: usize) -> bool {
    // r"..."  r#"..."#  br"..."  b"..." is handled by the '"' arm.
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if j >= b.len() || b[j] != b'r' {
        return false;
    }
    // Reject identifiers ending in r (e.g. `var"` cannot happen, but `for`
    // followed by a quote could in macros): require a non-ident char before.
    if i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_') {
        return false;
    }
    j += 1;
    while j < b.len() && b[j] == b'#' {
        j += 1;
    }
    j < b.len() && b[j] == b'"'
}

fn raw_string_open(b: &[u8], i: usize) -> (usize, usize) {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    j += 1; // the 'r'
    let mut hashes = 0;
    while j < b.len() && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    (hashes, j + 1) // past the opening quote
}

fn find_bytes(hay: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    if from >= hay.len() {
        return None;
    }
    hay[from..].windows(needle.len()).position(|w| w == needle).map(|p| p + from)
}

fn char_literal_end(b: &[u8], i: usize) -> Option<usize> {
    let n = b.len();
    if i + 2 < n && b[i + 1] == b'\\' {
        // '\n', '\'', '\u{1F600}' — scan to the closing quote.
        let mut j = i + 2;
        while j < n && j < i + 12 {
            if b[j] == b'\'' {
                return Some(j + 1);
            }
            j += 1;
        }
        None
    } else if i + 2 < n && b[i + 2] == b'\'' && b[i + 1] != b'\'' {
        Some(i + 3)
    } else {
        None
    }
}

/// Byte offset where the trailing test module begins (repo convention:
/// the `#[cfg(test)]` module is the last item), or the full length.
fn non_test_len(src: &str) -> usize {
    src.find("#[cfg(test)]").unwrap_or(src.len())
}

fn line_of(src: &str, byte: usize) -> usize {
    src[..byte.min(src.len())].bytes().filter(|&b| b == b'\n').count() + 1
}

/// Does `hay` contain a call `name(` where `name` is not a suffix of a
/// longer identifier?
fn contains_call(hay: &str, name: &str) -> bool {
    let pat = format!("{name}(");
    let mut from = 0;
    while let Some(p) = hay[from..].find(&pat) {
        let at = from + p;
        let prev = hay[..at].bytes().last();
        if !matches!(prev, Some(c) if c.is_ascii_alphanumeric() || c == b'_') {
            return true;
        }
        from = at + 1;
    }
    false
}

/// Body (inside the outermost braces) of `fn name(` or `fn name<` in
/// stripped source, with its starting byte offset.
fn fn_body<'a>(stripped: &'a str, name: &str) -> Option<(usize, &'a str)> {
    let pat = format!("fn {name}");
    let mut from = 0;
    let at = loop {
        let p = stripped[from..].find(&pat)? + from;
        let prev = stripped[..p].bytes().last();
        let next = stripped.as_bytes().get(p + pat.len());
        if !matches!(prev, Some(c) if c.is_ascii_alphanumeric() || c == b'_')
            && matches!(next, Some(b'(' | b'<'))
        {
            break p;
        }
        from = p + 1;
    };
    let open = at + stripped[at..].find('{')?;
    let mut depth = 0usize;
    for (off, ch) in stripped[open..].char_indices() {
        match ch {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some((open + 1, &stripped[open + 1..open + off]));
                }
            }
            _ => {}
        }
    }
    None
}

/// Names of `fn` items whose declarations sit at brace depth 0, with the
/// byte offset of each declaration.
fn top_level_fns(stripped: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let bytes = stripped.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'{' => depth += 1,
            b'}' => depth = depth.saturating_sub(1),
            b'f' if depth == 0 && stripped[i..].starts_with("fn ") => {
                let prev = stripped[..i].bytes().last();
                if !matches!(prev, Some(c) if c.is_ascii_alphanumeric() || c == b'_') {
                    let rest = &stripped[i + 3..];
                    let name: String = rest
                        .chars()
                        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                        .collect();
                    if !name.is_empty() {
                        out.push((name, i));
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// `pub NAME: TY` field names inside `struct {name}`.
fn struct_fields(stripped: &str, name: &str, ty: &str) -> Vec<String> {
    let Some((_, body)) = fn_body_like(stripped, &format!("struct {name}")) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for line in body.lines() {
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("pub ") {
            if let Some((field, fty)) = rest.split_once(':') {
                if fty.trim().trim_end_matches(',') == ty {
                    out.push(field.trim().to_string());
                }
            }
        }
    }
    out
}

/// Like [`fn_body`] but anchored on an arbitrary `pat` rather than `fn name(`.
fn fn_body_like<'a>(stripped: &'a str, pat: &str) -> Option<(usize, &'a str)> {
    let at = stripped.find(pat)?;
    let open = at + stripped[at..].find('{')?;
    let mut depth = 0usize;
    for (off, ch) in stripped[open..].char_indices() {
        match ch {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some((open + 1, &stripped[open + 1..open + off]));
                }
            }
            _ => {}
        }
    }
    None
}

fn rust_files_under(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = fs::read_dir(&d) else { continue };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if name != "target" && name != ".git" {
                    stack.push(p);
                }
            } else if p.extension().and_then(|x| x.to_str()) == Some("rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

fn rel(root: &Path, p: &Path) -> String {
    p.strip_prefix(root).unwrap_or(p).display().to_string()
}

// ---------------------------------------------------------------------------
// Rule 1: sidecar checksum discipline
// ---------------------------------------------------------------------------

/// The checksum functions of `persist.rs`: byte-serial FNV-1a for the small
/// sidecars, the word-wise `lane_sum` for column files.
const CHECKSUM_FNS: [&str; 2] = ["fnv1a", "lane_sum"];

/// Every `read_*_file` reader in persist.rs must verify one of the
/// [`CHECKSUM_FNS`] and surface failures as `MlError::Corrupt`.
pub fn check_checksum_discipline(root: &Path) -> RuleResult {
    const RULE: &str = "checksum-discipline";
    let mut res = RuleResult::default();
    let file = "crates/storage/src/persist.rs";
    let Ok(src) = fs::read_to_string(root.join(file)) else {
        res.fail(RULE, file, 0, "file missing — persistence layer moved without updating xlint");
        return res;
    };
    let stripped = strip_comments_and_strings(&src);
    let cut = non_test_len(&src);
    let code = &stripped[..cut];
    let readers: Vec<(String, usize)> = top_level_fns(code)
        .into_iter()
        .filter(|(n, _)| n.starts_with("read_") && n.ends_with("_file"))
        .collect();
    if readers.is_empty() {
        res.fail(RULE, file, 0, "no read_*_file sidecar readers found — rule anchor lost");
        return res;
    }
    for (name, at) in &readers {
        let body = fn_body(code, name).map(|(_, b)| b).unwrap_or("");
        if !CHECKSUM_FNS.iter().any(|f| contains_call(body, f)) {
            res.fail(
                RULE,
                file,
                line_of(&src, *at),
                format!("reader `{name}` validates neither an fnv1a nor a lane_sum checksum"),
            );
        }
        if !body.contains("MlError::Corrupt") {
            res.fail(
                RULE,
                file,
                line_of(&src, *at),
                format!("reader `{name}` never reports MlError::Corrupt"),
            );
        }
    }
    res.notes.push(format!("checksum-discipline: {} file reader(s) validated", readers.len()));
    res
}

// ---------------------------------------------------------------------------
// Rule 2: counter liveness
// ---------------------------------------------------------------------------

/// Every `ExecCounters` field must be bumped somewhere in the engine and
/// mirrored into `CountersSnapshot` by `snapshot()`.
pub fn check_counter_liveness(root: &Path) -> RuleResult {
    const RULE: &str = "counter-liveness";
    let mut res = RuleResult::default();
    let file = "crates/core/src/exec.rs";
    let Ok(src) = fs::read_to_string(root.join(file)) else {
        res.fail(RULE, file, 0, "file missing — executor moved without updating xlint");
        return res;
    };
    let stripped = strip_comments_and_strings(&src);
    let fields = struct_fields(&stripped, "ExecCounters", "AtomicU64");
    if fields.is_empty() {
        res.fail(RULE, file, 0, "ExecCounters has no AtomicU64 fields — rule anchor lost");
        return res;
    }
    let snap_fields: BTreeSet<String> =
        struct_fields(&stripped, "CountersSnapshot", "u64").into_iter().collect();
    let snapshot_body = fn_body(&stripped, "snapshot").map(|(_, b)| b).unwrap_or("");

    // Bump sites: any non-test line in crates/core/src mentioning
    // `counters` and `.{field}` that is not the field declaration itself.
    let mut live: BTreeSet<String> = BTreeSet::new();
    for path in rust_files_under(&root.join("crates/core/src")) {
        let Ok(fsrc) = fs::read_to_string(&path) else { continue };
        let fstripped = strip_comments_and_strings(&fsrc);
        let fcut = non_test_len(&fsrc);
        for line in fstripped[..fcut].lines() {
            if !line.contains("counters") {
                continue;
            }
            for f in &fields {
                if !live.contains(f) && line.contains(&format!(".{f}")) {
                    live.insert(f.clone());
                }
            }
        }
    }

    for f in &fields {
        if !live.contains(f) {
            res.fail(RULE, file, 0, format!("counter `{f}` is never incremented by the engine"));
        }
        if !snap_fields.contains(f) {
            res.fail(RULE, file, 0, format!("counter `{f}` has no CountersSnapshot mirror"));
        }
        if !snapshot_body.contains(&format!(".{f}")) {
            res.fail(RULE, file, 0, format!("counter `{f}` is not copied by snapshot()"));
        }
    }
    res.notes.push(format!("counter-liveness: {} counter(s) live and surfaced", fields.len()));
    res
}

// ---------------------------------------------------------------------------
// Rule 3: env-var registry
// ---------------------------------------------------------------------------

fn collect_env_vars(text: &str, into: &mut BTreeSet<String>) {
    let mut from = 0;
    while let Some(p) = text[from..].find("MONETLITE_") {
        let at = from + p;
        let tail = &text[at..];
        let name: String = tail
            .chars()
            .take_while(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_')
            .collect();
        if name.len() > "MONETLITE_".len() {
            into.insert(name.trim_end_matches('_').to_string());
        }
        from = at + "MONETLITE_".len();
    }
}

/// Every `MONETLITE_*` variable referenced in the workspace (sources and
/// CI) must appear in the ARCHITECTURE.md options table and vice versa.
pub fn check_env_registry(root: &Path) -> RuleResult {
    const RULE: &str = "env-registry";
    let mut res = RuleResult::default();

    let mut used: BTreeSet<String> = BTreeSet::new();
    let mut use_site: std::collections::BTreeMap<String, String> = Default::default();
    let mut scan = |path: &Path, root: &Path| {
        let Ok(text) = fs::read_to_string(path) else { return };
        let mut here = BTreeSet::new();
        collect_env_vars(&text, &mut here);
        for v in here {
            use_site.entry(v.clone()).or_insert_with(|| rel(root, path));
            used.insert(v);
        }
    };
    for dir in ["crates", "tests", "examples"] {
        for path in rust_files_under(&root.join(dir)) {
            // xlint's own sources (rule text, allowlists, meta-tests)
            // mention variables without reading them.
            if path.starts_with(root.join("crates/xlint")) {
                continue;
            }
            scan(&path, root);
        }
    }
    if let Ok(entries) = fs::read_dir(root.join(".github/workflows")) {
        for e in entries.flatten() {
            let p = e.path();
            if p.extension().and_then(|x| x.to_str()).map(|x| x == "yml" || x == "yaml")
                == Some(true)
            {
                scan(&p, root);
            }
        }
    }

    let arch = "ARCHITECTURE.md";
    let Ok(doc) = fs::read_to_string(root.join(arch)) else {
        res.fail(RULE, arch, 0, "ARCHITECTURE.md missing — the env-var registry lives there");
        return res;
    };
    let mut documented: BTreeSet<String> = BTreeSet::new();
    for line in doc.lines() {
        if line.trim_start().starts_with('|') {
            collect_env_vars(line, &mut documented);
        }
    }

    for v in &used {
        if !documented.contains(v) {
            let site = use_site.get(v).cloned().unwrap_or_default();
            res.fail(
                RULE,
                arch,
                0,
                format!("`{v}` is read (first seen in {site}) but missing from the registry table"),
            );
        }
    }
    for v in &documented {
        if !used.contains(v) {
            res.fail(RULE, arch, 0, format!("`{v}` is documented but nothing reads it any more"));
        }
    }
    // The engine reads no environment at all, `MONETLITE_*` or not.
    for dir in ENGINE_SRC {
        for path in rust_files_under(&root.join(dir)) {
            let Ok(src) = fs::read_to_string(&path) else { continue };
            let stripped = strip_comments_and_strings(&src);
            let code = &stripped[..non_test_len(&src)];
            for (idx, line) in code.lines().enumerate() {
                if contains_token(line, "env::var") {
                    res.fail(
                        RULE,
                        &rel(root, &path),
                        idx + 1,
                        "the engine reads the environment; configure it through \
                         `ExecOptions`, `OptFlags` or `DbOptions`",
                    );
                }
            }
        }
    }
    res.notes.push(format!(
        "env-registry: {} variable(s) in use, {} documented",
        used.len(),
        documented.len()
    ));
    res
}

/// The engine crates' sources, whose non-test code may not read the
/// environment.
const ENGINE_SRC: [&str; 4] =
    ["crates/core/src", "crates/storage/src", "crates/sql/src", "crates/types/src"];

/// Does `hay` contain `tok` not preceded by an identifier character?
/// (`env::var` also matches `env::var_os` and `env::vars`.)
fn contains_token(hay: &str, tok: &str) -> bool {
    hay.match_indices(tok).any(|(at, _)| {
        !matches!(hay[..at].bytes().last(), Some(c) if c.is_ascii_alphanumeric() || c == b'_')
    })
}

// ---------------------------------------------------------------------------
// Rule 4: no-panic hot path
// ---------------------------------------------------------------------------

/// Files where a panic would unwind a worker thread or corrupt a spill —
/// the engine's hot path — and the statement path every fresh statement
/// takes: the lexer and the two caches.
pub const HOT_PATH: &[&str] = &[
    "crates/core/src/kernels.rs",
    "crates/core/src/pipeline.rs",
    "crates/core/src/exec.rs",
    "crates/core/src/join.rs",
    "crates/core/src/agg.rs",
    "crates/core/src/spill.rs",
    "crates/sql/src/lexer.rs",
    "crates/core/src/plan_cache.rs",
    "crates/core/src/result_cache.rs",
];

const PANIC_TOKENS: &[&str] =
    &[".unwrap()", ".expect(", "panic!(", "unreachable!(", "todo!(", "unimplemented!("];

/// Ban the panic family from non-test hot-path code. Escape hatch:
/// `// xlint: allow(panic, <reason>)` on the same or preceding line.
pub fn check_no_panic(root: &Path) -> RuleResult {
    const RULE: &str = "no-panic";
    let mut res = RuleResult::default();
    let mut allows = 0usize;
    let mut index_sites = 0usize;
    for file in HOT_PATH {
        let Ok(src) = fs::read_to_string(root.join(file)) else {
            res.fail(RULE, file, 0, "hot-path file missing — update xlint's HOT_PATH list");
            continue;
        };
        let raw_lines: Vec<&str> = src.lines().collect();
        let allow_line =
            |idx: usize| raw_lines.get(idx).is_some_and(|l| l.contains("xlint: allow(panic"));
        let stripped = strip_comments_and_strings(&src);
        let cut = non_test_len(&src);
        for (idx, line) in stripped[..cut].lines().enumerate() {
            for tok in PANIC_TOKENS {
                if line.contains(tok) {
                    if allow_line(idx) || (idx > 0 && allow_line(idx - 1)) {
                        allows += 1;
                    } else {
                        res.fail(
                            RULE,
                            file,
                            idx + 1,
                            format!("`{tok}` in hot-path code (annotate with xlint: allow(panic, ...) if provably unreachable)"),
                        );
                    }
                }
            }
            // Advisory only: direct subscripts can panic too, but most are
            // loop-bounded; counted so drift is visible, not failing.
            let b = line.as_bytes();
            index_sites += b
                .windows(2)
                .filter(|w| (w[0].is_ascii_alphanumeric() || w[0] == b'_') && w[1] == b'[')
                .count();
        }
    }
    res.notes.push(format!(
        "no-panic: {allows} annotated allow(panic) site(s); {index_sites} direct-subscript site(s) (advisory)"
    ));
    res
}

// ---------------------------------------------------------------------------
// Rule 5: vendored-shim export conformance
// ---------------------------------------------------------------------------

/// Names each real crate actually exports (including well-known modules),
/// so a shim can only grow surface that will survive un-vendoring.
const SHIM_SURFACES: &[(&str, &[&str])] = &[
    ("bytes", &["Bytes", "BytesMut", "Buf", "BufMut", "buf"]),
    (
        "criterion",
        &[
            "Criterion",
            "Bencher",
            "BenchmarkGroup",
            "BenchmarkId",
            "Throughput",
            "Measurement",
            "black_box",
            "measurement",
            "criterion_group",
            "criterion_main",
        ],
    ),
    (
        "parking_lot",
        &[
            "Mutex",
            "MutexGuard",
            "RwLock",
            "RwLockReadGuard",
            "RwLockWriteGuard",
            "Condvar",
            "Once",
        ],
    ),
    (
        "proptest",
        &[
            "Arbitrary",
            "Strategy",
            "ProptestConfig",
            "TestRng",
            "any",
            "arbitrary",
            "collection",
            "option",
            "prelude",
            "sample",
            "strategy",
            "string",
            "test_runner",
            "num",
            "prop_assert",
            "prop_assert_eq",
            "prop_assert_ne",
            "prop_compose",
            "prop_oneof",
            "proptest",
        ],
    ),
    (
        "rand",
        &[
            "Rng",
            "RngCore",
            "CryptoRng",
            "SeedableRng",
            "StdRng",
            "SampleRange",
            "Fill",
            "random",
            "thread_rng",
            "rngs",
            "seq",
            "distributions",
        ],
    ),
    (
        "tempfile",
        &[
            "TempDir",
            "TempPath",
            "NamedTempFile",
            "SpooledTempFile",
            "Builder",
            "tempdir",
            "tempfile",
        ],
    ),
];

fn top_level_exports(stripped: &str, raw: &str) -> Vec<(String, usize, bool)> {
    // (name, byte offset, allowed-by-annotation)
    let raw_lines: Vec<&str> = raw.lines().collect();
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut offset = 0usize;
    for line in stripped.lines() {
        let start_depth = depth;
        for b in line.bytes() {
            match b {
                b'{' => depth += 1,
                b'}' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        if start_depth == 0 {
            let t = line.trim_start();
            let idx = line_of(stripped, offset) - 1;
            let annotated = (idx.saturating_sub(3)..=idx)
                .any(|i| raw_lines.get(i).is_some_and(|l| l.contains("xlint: allow(shim-export")));
            let mut push = |name: &str| {
                let name = name.trim();
                if !name.is_empty() {
                    out.push((name.to_string(), offset, annotated));
                }
            };
            for kw in ["struct", "enum", "trait", "fn", "mod", "type", "const", "static", "union"] {
                let pat = format!("pub {kw} ");
                if let Some(rest) = t.strip_prefix(&pat) {
                    let name: String = rest
                        .chars()
                        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                        .collect();
                    push(&name);
                }
            }
            if let Some(rest) = t.strip_prefix("pub use ") {
                let rest = rest.trim_end_matches(';');
                let leaf = rest.rsplit("::").next().unwrap_or(rest);
                for part in leaf.trim_matches(|c| c == '{' || c == '}').split(',') {
                    let p = part.trim().rsplit("::").next().unwrap_or("").trim();
                    if p != "self" && p != "*" {
                        push(p);
                    }
                }
            }
            if let Some(rest) = t.strip_prefix("macro_rules! ") {
                let exported = (idx.saturating_sub(3)..idx)
                    .any(|i| raw_lines.get(i).is_some_and(|l| l.contains("#[macro_export]")));
                if exported {
                    let name: String = rest
                        .chars()
                        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                        .collect();
                    push(&name);
                }
            }
        }
        offset += line.len() + 1;
    }
    out
}

/// Vendored shims may only export names the real crate exports, unless a
/// helper is explicitly annotated `xlint: allow(shim-export, <reason>)`.
pub fn check_shim_exports(root: &Path) -> RuleResult {
    const RULE: &str = "shim-exports";
    let mut res = RuleResult::default();
    let vendor = root.join("vendor");
    let Ok(entries) = fs::read_dir(&vendor) else {
        res.notes.push("shim-exports: no vendor/ directory".into());
        return res;
    };
    let mut crates: Vec<PathBuf> =
        entries.flatten().map(|e| e.path()).filter(|p| p.is_dir()).collect();
    crates.sort();
    let mut checked = 0usize;
    let mut annotated = 0usize;
    for dir in crates {
        let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("").to_string();
        let lib = dir.join("src/lib.rs");
        let relname = rel(root, &lib);
        let Ok(src) = fs::read_to_string(&lib) else { continue };
        let Some((_, surface)) = SHIM_SURFACES.iter().find(|(c, _)| *c == name) else {
            res.fail(
                RULE,
                &relname,
                0,
                format!("vendored crate `{name}` has no curated export surface in xlint"),
            );
            continue;
        };
        let stripped = strip_comments_and_strings(&src);
        let cut = non_test_len(&src);
        for (export, at, allowed) in top_level_exports(&stripped[..cut], &src) {
            checked += 1;
            if surface.contains(&export.as_str()) {
                continue;
            }
            if allowed {
                annotated += 1;
                continue;
            }
            res.fail(
                RULE,
                &relname,
                line_of(&src, at),
                format!("shim exports `{export}`, which the real `{name}` crate does not"),
            );
        }
    }
    res.notes.push(format!(
        "shim-exports: {checked} export(s) checked, {annotated} annotated shim-internal helper(s)"
    ));
    res
}

// ---------------------------------------------------------------------------
// Rule 6: failpoint coverage (no raw file I/O)
// ---------------------------------------------------------------------------

/// Raw file-I/O call shapes that bypass the `fault` wrappers. The leading
/// dot keeps `fault::write_all(...)` itself from matching.
const RAW_IO_TOKENS: &[&str] = &["File::", "std::fs::", ".write_all(", ".sync_all("];

/// Every filesystem call in the storage crate and in the executor's spill
/// layer must go through `monetlite_storage::fault`, or the deterministic
/// fault-injection sweep silently loses that site. Escape hatch:
/// `// xlint: allow(raw-io, <reason>)` on the same or preceding line.
pub fn check_raw_io(root: &Path) -> RuleResult {
    const RULE: &str = "raw-io";
    let mut res = RuleResult::default();
    let mut files: Vec<PathBuf> = rust_files_under(&root.join("crates/storage/src"))
        .into_iter()
        // The wrapper module is the one legitimate home of raw calls.
        .filter(|p| p.file_name().and_then(|n| n.to_str()) != Some("fault.rs"))
        .collect();
    files.push(root.join("crates/core/src/spill.rs"));

    let mut allows = 0usize;
    let mut scanned = 0usize;
    for path in files {
        let relname = rel(root, &path);
        let Ok(src) = fs::read_to_string(&path) else {
            res.fail(
                RULE,
                &relname,
                0,
                "failpoint-scope file missing — update xlint's raw-io scope",
            );
            continue;
        };
        scanned += 1;
        let raw_lines: Vec<&str> = src.lines().collect();
        let allow_line =
            |idx: usize| raw_lines.get(idx).is_some_and(|l| l.contains("xlint: allow(raw-io"));
        let stripped = strip_comments_and_strings(&src);
        let cut = non_test_len(&src);
        for (idx, line) in stripped[..cut].lines().enumerate() {
            // Imports name types (`std::fs::File`), not calls.
            let t = line.trim_start();
            if t.starts_with("use ") || t.starts_with("pub use ") {
                continue;
            }
            for tok in RAW_IO_TOKENS {
                if line.contains(tok) {
                    if allow_line(idx) || (idx > 0 && allow_line(idx - 1)) {
                        allows += 1;
                    } else {
                        res.fail(
                            RULE,
                            &relname,
                            idx + 1,
                            format!(
                                "`{tok}` bypasses the fault-injection wrappers (route through monetlite_storage::fault, or annotate xlint: allow(raw-io, ...))"
                            ),
                        );
                    }
                }
            }
        }
    }
    res.notes.push(format!(
        "raw-io: {scanned} failpoint-scope file(s) scanned, {allows} annotated allow(raw-io) site(s)"
    ));
    res
}

// ---------------------------------------------------------------------------
// Rule 7: one fan-out
// ---------------------------------------------------------------------------

/// Thread-creation call shapes.
const THREAD_TOKENS: &[&str] =
    &["thread::spawn", "thread::scope", "spawn_scoped", "thread::Builder"];

/// The file holding the engine's one fan-out, `fn drive`.
const FAN_OUT_HOME: &str = "crates/core/src/pipeline.rs";

/// Threads are created in one place: `pipeline::drive`, where the morsel
/// policy cuts the work, the calling thread runs one worker and a worker
/// panic becomes a query error. Non-test code elsewhere in `crates/core`
/// may not spawn or scope threads. Escape hatch:
/// `// xlint: allow(thread, <reason>)` on the same or preceding line.
pub fn check_one_fan_out(root: &Path) -> RuleResult {
    const RULE: &str = "one-fan-out";
    let mut res = RuleResult::default();
    let mut files = rust_files_under(&root.join("crates/core/src"));
    files.sort();
    let mut allows = 0usize;
    let mut home = false;
    for path in &files {
        let relname = rel(root, path);
        let Ok(src) = fs::read_to_string(path) else { continue };
        let raw_lines: Vec<&str> = src.lines().collect();
        let allow_line =
            |idx: usize| raw_lines.get(idx).is_some_and(|l| l.contains("xlint: allow(thread"));
        let stripped = strip_comments_and_strings(&src);
        let code = &stripped[..non_test_len(&src)];
        // The byte range of `drive`'s body, in the home file only.
        let drive = (relname == FAN_OUT_HOME)
            .then(|| fn_body(code, "drive"))
            .flatten()
            .map(|(at, body)| at..at + body.len());
        home |= drive.is_some();
        let mut offset = 0;
        for (idx, line) in code.lines().enumerate() {
            let start = offset;
            offset += line.len() + 1;
            for tok in THREAD_TOKENS.iter().filter(|t| line.contains(*t)) {
                if drive.as_ref().is_some_and(|d| d.contains(&start)) {
                    continue;
                }
                if allow_line(idx) || (idx > 0 && allow_line(idx - 1)) {
                    allows += 1;
                } else {
                    res.fail(
                        RULE,
                        &relname,
                        idx + 1,
                        format!(
                            "`{tok}` outside pipeline::drive (fan out through drive, or annotate xlint: allow(thread, ...))"
                        ),
                    );
                }
            }
        }
    }
    if !home {
        res.fail(RULE, FAN_OUT_HOME, 0, "fn drive missing — update xlint's one-fan-out home");
    }
    res.notes.push(format!(
        "one-fan-out: {} crates/core file(s) scanned, {allows} annotated allow(thread) site(s)",
        files.len()
    ));
    res
}

// ---------------------------------------------------------------------------
// Rule 8: strings as bytes
// ---------------------------------------------------------------------------

/// The `crates/core` modules whose VARCHAR paths work on heap bytes.
const BYTE_STRING_FILES: &[&str] = &[
    "crates/core/src/kernels.rs",
    "crates/core/src/rows.rs",
    "crates/core/src/join.rs",
    "crates/core/src/agg.rs",
    "crates/core/src/sort.rs",
    "crates/core/src/pipeline.rs",
    "crates/core/src/exec.rs",
];

/// Call shapes that decode a heap entry to `&str`: `Bat::str_at`,
/// `StringHeap::get` by path or on a receiver named `…heap`, and UTF-8
/// validation.
const STR_DECODE_TOKENS: &[&str] = &[".str_at(", "StringHeap::get(", "heap.get(", "from_utf8"];

/// No call in [`STR_DECODE_TOKENS`] in the non-test code of
/// [`BYTE_STRING_FILES`]: strings there are read through
/// `StringHeap::get_bytes`. Code that needs characters is annotated
/// `// xlint: allow(str, <reason>)` on the same or preceding line. A
/// `Value` conversion (`Bat::get`) is not one of the tokens.
pub fn check_strings_as_bytes(root: &Path) -> RuleResult {
    const RULE: &str = "strings-as-bytes";
    let mut res = RuleResult::default();
    let mut allows = 0usize;
    for relname in BYTE_STRING_FILES {
        let Ok(src) = fs::read_to_string(root.join(relname)) else {
            res.fail(RULE, relname, 0, "file missing — update xlint's strings-as-bytes scope");
            continue;
        };
        let raw_lines: Vec<&str> = src.lines().collect();
        let allow_line =
            |idx: usize| raw_lines.get(idx).is_some_and(|l| l.contains("xlint: allow(str,"));
        let stripped = strip_comments_and_strings(&src);
        for (idx, line) in stripped[..non_test_len(&src)].lines().enumerate() {
            for tok in STR_DECODE_TOKENS.iter().filter(|t| line.contains(*t)) {
                if allow_line(idx) || (idx > 0 && allow_line(idx - 1)) {
                    allows += 1;
                } else {
                    res.fail(
                        RULE,
                        relname,
                        idx + 1,
                        format!(
                            "`{tok}` decodes a string per row (read StringHeap::get_bytes, or annotate xlint: allow(str, ...))"
                        ),
                    );
                }
            }
        }
    }
    res.notes.push(format!(
        "strings-as-bytes: {} file(s) scanned, {allows} annotated allow(str) site(s)",
        BYTE_STRING_FILES.len()
    ));
    res
}
