//! Dictionary-domain filtering ≡ the row kernels.
//!
//! A scan serves any filter over one VARCHAR column alone from the
//! column's sorted dictionary: the filter is evaluated once per distinct
//! value (plus one NULL row) and rows are then filtered by a code lookup.
//! This suite generates random single-column predicate trees — `=`, `<>`,
//! `<`, `>=`, IN, LIKE with `%`/`_` over non-ASCII text, `substring`,
//! `length`, `upper`, IS NULL, COALESCE (spelled as its CASE definition),
//! CASE, and AND/OR/NOT over them — and checks that both engines return
//! the same answer with dictionary execution on and off, over a column
//! with NULLs, deleted rows and several morsels. Two fixed cases pin the
//! guards: a predicate that holds on NULL is never served, and one that
//! errors only on a value held by deleted rows never raises.

use monetlite::exec::{CountersSnapshot, ExecMode, ExecOptions};
use monetlite::Database;
use monetlite_types::{ColumnBuffer, Value};

const ROWS: i32 = 3000;

/// ASCII, two-, three- and four-byte UTF-8, values that are prefixes of
/// one another, and LIKE metacharacters inside values.
const WORDS: [&str; 20] = [
    "", "a", "ab", "abc", "b", "ba", "é", "éa", "aé", "日本", "日", "ß", "Straße", "x_y", "x%y",
    "😀", "MAIL", "SHIP", "AIR", "AIR REG",
];

/// Pattern pieces for LIKE: wildcards and multi-byte text.
const PIECES: [&str; 10] = ["%", "_", "a", "é", "日", "b", "x", "AI", "ß", "%_"];

/// `s(v, n)`: every 13th value NULL, a suffix on every 5th row for a
/// larger dictionary (still ≥ 8 rows per value, so masks are served),
/// and every 11th row deleted. `dates(v, n)`: dates as text, with
/// `'oops'` held only by rows that are deleted.
fn database() -> Database {
    let db = Database::open_in_memory();
    let mut conn = db.connect();
    conn.execute("CREATE TABLE s (v VARCHAR(16), n INT)").unwrap();
    let v = (0..ROWS)
        .map(|i| {
            let w = WORDS[(i as usize * 7) % WORDS.len()];
            match (i % 13, i % 5) {
                (0, _) => None,
                (_, 0) => Some(format!("{w}{}", i % 17)),
                _ => Some(w.to_string()),
            }
        })
        .collect();
    conn.append("s", vec![ColumnBuffer::Varchar(v), ColumnBuffer::Int((0..ROWS).collect())])
        .unwrap();
    conn.execute("DELETE FROM s WHERE n % 11 = 0").unwrap();
    conn.execute("CREATE TABLE dates (v VARCHAR(10), n INT)").unwrap();
    let v = (0..ROWS)
        .map(|i| {
            Some(if i % 97 == 0 { "oops".into() } else { format!("1995-01-{:02}", i % 28 + 1) })
        })
        .collect();
    conn.append("dates", vec![ColumnBuffer::Varchar(v), ColumnBuffer::Int((0..ROWS).collect())])
        .unwrap();
    conn.execute("DELETE FROM dates WHERE n % 97 = 0").unwrap();
    db
}

/// The execution shapes compared: both engines, several morsels per
/// scan, two streaming workers, and the environment's own shape (so
/// every CI leg — threads, vector size, spill budget — runs this suite).
fn shapes() -> Vec<(&'static str, ExecOptions)> {
    let base = ExecOptions { use_result_cache: false, ..Default::default() };
    vec![
        ("env", base),
        ("streaming t1 v512", ExecOptions { threads: 1, vector_size: 512, ..base }),
        ("streaming t2 v512", ExecOptions { threads: 2, vector_size: 512, ..base }),
        ("materialized", ExecOptions { mode: ExecMode::Materialized, threads: 1, ..base }),
    ]
}

fn run(db: &Database, sql: &str, opts: ExecOptions) -> (Vec<Vec<Value>>, CountersSnapshot) {
    let mut conn = db.connect();
    conn.set_exec_options(opts);
    let r = conn.query(sql).unwrap_or_else(|e| panic!("{e} for {sql}"));
    let rows = (0..r.nrows()).map(|i| r.row(i)).collect();
    (rows, conn.last_exec_counters().expect("counters after query"))
}

/// Every shape, dictionary on and off, gives the dictionary-off
/// streaming answer. Returns whether any dictionary-on run served a
/// predicate from the dictionary.
fn check(db: &Database, table: &str, pred: &str) -> bool {
    let sql = format!("SELECT count(*), sum(n), min(v), max(v) FROM {table} WHERE {pred}");
    let off = |o: ExecOptions| ExecOptions { use_dict: false, ..o };
    let (want, _) = run(db, &sql, off(shapes()[1].1));
    let mut served = false;
    for (name, opts) in shapes() {
        for dict in [false, true] {
            let (got, counters) = run(db, &sql, ExecOptions { use_dict: dict, ..opts });
            assert_eq!(got, want, "{sql} ({name}, dict={dict})");
            if !dict {
                assert_eq!(counters.dict_hits, 0, "{sql} ({name}): dict off served a predicate");
            }
            served |= counters.dict_hits > 0;
        }
    }
    served
}

/// splitmix64: a deterministic source for predicate trees.
struct Gen(u64);

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.below(xs.len())]
    }

    fn lit(&mut self) -> String {
        let w = self.pick(&WORDS);
        if self.below(4) == 0 {
            format!("'{w}{}'", self.below(17))
        } else {
            format!("'{w}'")
        }
    }

    fn pattern(&mut self) -> String {
        let n = 1 + self.below(3);
        let p: String = (0..n).map(|_| self.pick(&PIECES)).collect();
        format!("'{p}'")
    }

    fn op(&mut self) -> &'static str {
        ["=", "<>", "<", ">="][self.below(4)]
    }

    fn not(&mut self) -> &'static str {
        ["", "NOT "][self.below(2)]
    }

    fn atom(&mut self) -> String {
        match self.below(10) {
            0 => format!("v {} {}", self.op(), self.lit()),
            1 => format!("{} {} v", self.lit(), self.op()),
            2 => {
                let list: Vec<String> = (0..1 + self.below(4)).map(|_| self.lit()).collect();
                format!("v {}IN ({})", self.not(), list.join(", "))
            }
            3 => format!("v {}LIKE {}", self.not(), self.pattern()),
            4 => {
                let (from, len) = (1 + self.below(3), 1 + self.below(2));
                format!("substring(v, {from}, {len}) {} {}", self.op(), self.lit())
            }
            5 => format!("v IS {}NULL", self.not()),
            6 => format!(
                "(CASE WHEN v IS NULL THEN {} ELSE v END) {} {}",
                self.lit(),
                self.op(),
                self.lit()
            ),
            7 => format!(
                "(CASE WHEN v LIKE {} THEN {} ELSE v END) {} {}",
                self.pattern(),
                self.lit(),
                self.op(),
                self.lit()
            ),
            8 => format!("length(v) {} {}", self.op(), self.below(5)),
            _ => format!("upper(v) {} {}", self.op(), self.lit()),
        }
    }

    fn tree(&mut self, depth: usize) -> String {
        if depth == 0 || self.below(3) == 0 {
            return self.atom();
        }
        match self.below(3) {
            0 => format!("({} AND {})", self.tree(depth - 1), self.tree(depth - 1)),
            1 => format!("({} OR {})", self.tree(depth - 1), self.tree(depth - 1)),
            _ => format!("NOT ({})", self.tree(depth - 1)),
        }
    }
}

#[test]
fn random_single_column_predicate_trees_agree_with_the_row_kernels() {
    let db = database();
    let mut gen = Gen(20260611);
    let cases = 120;
    let mut served = 0;
    for _ in 0..cases {
        let pred = gen.tree(3);
        served += check(&db, "s", &pred) as usize;
    }
    // Most trees do not hold on NULL, so the dictionary must serve many.
    assert!(served * 3 > cases, "only {served} of {cases} trees were served by the dictionary");
}

#[test]
fn in_lists_and_negations_are_served_on_both_engines() {
    let db = database();
    for pred in ["v IN ('ab', 'é', 'MAIL', '日本')", "v <> 'ab' AND v <> 'b'", "NOT (v LIKE '%é%')"]
    {
        let sql = format!("SELECT count(*), sum(n) FROM s WHERE {pred}");
        for (name, opts) in shapes() {
            let (_, counters) = run(&db, &sql, ExecOptions { use_dict: true, ..opts });
            assert!(counters.dict_hits > 0, "{pred} ({name}) not served: {counters:?}");
        }
        check(&db, "s", pred);
    }
}

#[test]
fn a_predicate_true_on_null_is_never_served() {
    let db = database();
    for pred in [
        "v IS NULL OR v = 'ab'",
        "(CASE WHEN v IS NULL THEN 'x' ELSE v END) = 'x'",
        "NOT (v IS NOT NULL)",
    ] {
        assert!(!check(&db, "s", pred), "{pred} holds on NULL rows but was served");
    }
}

#[test]
fn an_error_only_on_a_deleted_value_never_raises() {
    let db = database();
    // CAST('oops' AS DATE) fails, and 'oops' is in the dictionary, but
    // every row holding it is deleted: the row kernels never see it, so
    // the scan falls back to them silently instead of raising.
    let pred = "CAST(v AS DATE) >= DATE '1995-01-20'";
    assert!(!check(&db, "dates", pred), "an erroring dictionary evaluation was served");
    let (rows, _) = run(&db, &format!("SELECT count(*) FROM dates WHERE {pred}"), shapes()[1].1);
    let live = (0..ROWS).filter(|i| i % 97 != 0 && i % 28 >= 19).count() as i64;
    assert_eq!(rows, vec![vec![Value::Bigint(live)]]);
}
