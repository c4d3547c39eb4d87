//! Dictionary-domain filtering ≡ the row kernels.
//!
//! A scan serves any filter over one VARCHAR column alone from the
//! column's sorted dictionary: the filter is evaluated once per distinct
//! value (plus one NULL row) and rows are then filtered by a code lookup.
//! This suite generates random single-column predicate trees — `=`, `<>`,
//! `<`, `>=`, IN, LIKE with `%`/`_` over non-ASCII text, `substring`,
//! `length`, `upper`, IS NULL, COALESCE (spelled as its CASE definition),
//! CASE, and AND/OR/NOT over them — and checks that every configuration
//! of the lattice, dictionary execution on and off, returns the row
//! store's answer over a column with NULLs, deleted rows and several
//! morsels. Two fixed cases pin the guards: a predicate that holds on
//! NULL is never served, and one that errors only on a value held by
//! deleted rows never raises.

use monetlite_tests::{image, pinned, rows_of, run_pinned, Corpus, Twin};
use monetlite_types::ColumnBuffer;

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
fn database() -> Twin {
    let twin = Twin::default();
    twin.script("CREATE TABLE s (v VARCHAR(16), n INT); CREATE TABLE dates (v VARCHAR(10), n INT)");
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
    twin.append("s", vec![ColumnBuffer::Varchar(v), ColumnBuffer::Int((0..ROWS).collect())]);
    let v = (0..ROWS)
        .map(|i| {
            Some(if i % 97 == 0 { "oops".into() } else { format!("1995-01-{:02}", i % 28 + 1) })
        })
        .collect();
    twin.append("dates", vec![ColumnBuffer::Varchar(v), ColumnBuffer::Int((0..ROWS).collect())]);
    twin.script("DELETE FROM s WHERE n % 11 = 0; DELETE FROM dates WHERE n % 97 = 0");
    twin
}

/// Several 512-row morsels per 3000-row scan.
const STRINGS: Corpus = Corpus::tiny(512);

/// The statement each predicate is checked by.
fn probe(table: &str, pred: &str) -> String {
    format!("SELECT count(*), sum(n), min(v), max(v) FROM {table} WHERE {pred}")
}

/// Every lattice row, dictionary on and off, gives the row store's
/// answer for each predicate, and no row with the dictionary off consults
/// one. Returns, per predicate, whether any row served it from the
/// dictionary.
fn check(twin: &Twin, table: &str, preds: &[&str]) -> Vec<bool> {
    let sqls: Vec<String> = preds.iter().map(|p| probe(table, p)).collect();
    let sqls: Vec<&str> = sqls.iter().map(String::as_str).collect();
    let answers = twin.check(&sqls, STRINGS);
    sqls.iter()
        .zip(answers)
        .map(|(sql, answers)| {
            answers.iter().fold(false, |served, a| {
                let dict = a.config.is_some_and(|c| c.exec.use_dict);
                assert!(
                    dict || a.counters.dict_hits == 0,
                    "{sql} ({}): dict off served it",
                    a.label
                );
                served || a.counters.dict_hits > 0
            })
        })
        .collect()
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
    let twin = database();
    let mut gen = Gen(20260611);
    let cases = 120;
    let preds: Vec<String> = (0..cases).map(|_| gen.tree(3)).collect();
    let preds: Vec<&str> = preds.iter().map(String::as_str).collect();
    let served = check(&twin, "s", &preds).into_iter().filter(|&s| s).count();
    // Most trees do not hold on NULL, so the dictionary must serve many.
    assert!(served * 3 > cases, "only {served} of {cases} trees were served by the dictionary");
}

#[test]
fn in_lists_and_negations_are_served_on_both_engines() {
    let twin = database();
    let preds =
        ["v IN ('ab', 'é', 'MAIL', '日本')", "v <> 'ab' AND v <> 'b'", "NOT (v LIKE '%é%')"];
    let sqls: Vec<String> = preds.iter().map(|p| probe("s", p)).collect();
    let sqls: Vec<&str> = sqls.iter().map(String::as_str).collect();
    for (pred, answers) in preds.iter().zip(twin.check(&sqls, STRINGS)) {
        for a in answers {
            // Only a filter pushed into the scan can be served.
            let served = a.config.is_some_and(|c| c.exec.use_dict && c.flags.pushdown);
            assert!(!served || a.counters.dict_hits > 0, "{pred} ({}) not served", a.label);
        }
    }
}

#[test]
fn a_predicate_true_on_null_is_never_served() {
    let twin = database();
    let preds = [
        "v IS NULL OR v = 'ab'",
        "(CASE WHEN v IS NULL THEN 'x' ELSE v END) = 'x'",
        "NOT (v IS NOT NULL)",
    ];
    for (pred, served) in preds.iter().zip(check(&twin, "s", &preds)) {
        assert!(!served, "{pred} holds on NULL rows but was served");
    }
}

#[test]
fn an_error_only_on_a_deleted_value_never_raises() {
    let twin = database();
    // CAST('oops' AS DATE) fails, and 'oops' is in the dictionary, but
    // every row holding it is deleted: the row kernels never see it, so
    // the scan falls back to them silently instead of raising.
    let pred = "CAST(v AS DATE) >= DATE '1995-01-20'";
    assert!(!check(&twin, "dates", &[pred])[0], "an erroring dictionary evaluation was served");
    let sql = format!("SELECT count(*) FROM dates WHERE {pred}");
    let (r, _) = run_pinned(&twin.db, &sql, pinned(1, 512));
    let live = (0..ROWS).filter(|i| i % 97 != 0 && i % 28 >= 19).count();
    assert_eq!(image(&rows_of(&r)), [live.to_string()]);
}
