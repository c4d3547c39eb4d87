//! Result hashing for the correctness gate: typed raw cell values, so a
//! change to how values are *printed* never changes a committed hash.

use monetlite::storage::Bat;
use std::sync::Arc;

const SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// splitmix64's increment.
pub const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// splitmix64's output function.
pub fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn mix(h: u64, v: u64) -> u64 {
    finalize((h ^ v).wrapping_add(GAMMA))
}

fn mix_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for chunk in bytes.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        h = mix(h, u64::from_le_bytes(w));
    }
    mix(h, bytes.len() as u64)
}

fn cell(h: u64, col: &Bat, i: usize) -> u64 {
    match col {
        Bat::Bool(v) => mix(h, v[i] as u64),
        Bat::Int(v) | Bat::Date(v) => mix(h, v[i] as u64),
        Bat::Bigint(v) => mix(h, v[i] as u64),
        Bat::Double(v) => mix_bytes(h, double_key(v[i]).as_bytes()),
        Bat::Decimal { data, scale } => mix(mix(h, data[i] as u64), *scale as u64),
        Bat::Varchar { .. } => match col.str_at(i) {
            Some(s) => mix_bytes(h, s.as_bytes()),
            None => mix(h, u64::MAX),
        },
    }
}

/// Doubles hash by seven significant digits: a parallel AVG adds its
/// partial sums in a different order than a serial one, and the last few
/// bits legitimately differ. NaN is the NULL sentinel.
fn double_key(v: f64) -> String {
    if v.is_nan() {
        "null".into()
    } else {
        format!("{:.6e}", v + 0.0)
    }
}

fn type_tag(col: &Bat) -> u64 {
    match col {
        Bat::Bool(_) => 1,
        Bat::Int(_) => 2,
        Bat::Bigint(_) => 3,
        Bat::Double(_) => 4,
        Bat::Decimal { .. } => 5,
        Bat::Varchar { .. } => 6,
        Bat::Date(_) => 7,
    }
}

/// Hash `rows` rows of `cols`. `ordered` makes the hash depend on row
/// order (queries with ORDER BY); otherwise rows are combined with a
/// commutative sum so any permutation hashes equal.
pub fn hash_columns(cols: &[Arc<Bat>], rows: usize, ordered: bool) -> u64 {
    let mut h = cols.iter().fold(mix(SEED, rows as u64), |h, c| mix(h, type_tag(c)));
    let mut bag = 0u64;
    for r in 0..rows {
        let row = cols.iter().fold(SEED, |rh, c| cell(rh, c, r));
        if ordered {
            h = mix(h, row);
        } else {
            bag = bag.wrapping_add(mix(SEED, row));
        }
    }
    mix(h, bag)
}

/// Hash a query result (see [`hash_columns`]).
pub fn hash_result(r: &monetlite::QueryResult, ordered: bool) -> u64 {
    let cols: Vec<Arc<Bat>> = (0..r.ncols()).map(|i| r.col_shared(i)).collect();
    hash_columns(&cols, r.nrows(), ordered)
}

/// Whether a statement's row order is part of its answer.
pub fn is_ordered(sql: &str) -> bool {
    sql.to_ascii_lowercase().contains("order by")
}

/// Fold a sequence of hashes into one digest (a pass transcript).
pub fn digest(hashes: impl IntoIterator<Item = u64>) -> u64 {
    hashes.into_iter().fold(SEED, mix)
}

/// Fixed-width hex form used in the expected-hash files.
pub fn hex(h: u64) -> String {
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use monetlite::types::ColumnBuffer;

    fn cols(ints: Vec<i32>, strs: Vec<Option<&str>>) -> Vec<Arc<Bat>> {
        let strs = strs.into_iter().map(|s| s.map(str::to_string)).collect();
        vec![
            Arc::new(Bat::from_buffer(&ColumnBuffer::Int(ints))),
            Arc::new(Bat::from_buffer(&ColumnBuffer::Varchar(strs))),
        ]
    }

    #[test]
    fn unordered_hash_ignores_row_order_and_ordered_does_not() {
        let a = cols(vec![1, 2, 3], vec![Some("x"), None, Some("z")]);
        let b = cols(vec![3, 1, 2], vec![Some("z"), Some("x"), None]);
        assert_eq!(hash_columns(&a, 3, false), hash_columns(&b, 3, false));
        assert_ne!(hash_columns(&a, 3, true), hash_columns(&b, 3, true));
    }

    #[test]
    fn hash_sees_values_nulls_types_and_row_count() {
        let base = hash_columns(&cols(vec![1, 2], vec![Some("a"), Some("b")]), 2, true);
        assert_ne!(base, hash_columns(&cols(vec![1, 9], vec![Some("a"), Some("b")]), 2, true));
        assert_ne!(base, hash_columns(&cols(vec![1, 2], vec![Some("a"), None]), 2, true));
        assert_ne!(base, hash_columns(&cols(vec![1, 2], vec![Some("a"), Some("b")]), 1, true));
        let wide = vec![Arc::new(Bat::from_buffer(&ColumnBuffer::Bigint(vec![1, 2])))];
        let narrow = vec![Arc::new(Bat::from_buffer(&ColumnBuffer::Int(vec![1, 2])))];
        assert_ne!(hash_columns(&wide, 2, true), hash_columns(&narrow, 2, true));
    }

    #[test]
    fn doubles_hash_by_seven_significant_digits() {
        let col = |v: f64| vec![Arc::new(Bat::from_buffer(&ColumnBuffer::Double(vec![v])))];
        let h = |v: f64| hash_columns(&col(v), 1, true);
        assert_eq!(h(23703.687792267832), h(23703.687792267803));
        assert_eq!(h(0.0), h(-0.0));
        assert_ne!(h(23703.68), h(23703.69));
        assert_ne!(h(f64::NAN), h(0.0));
    }

    #[test]
    fn order_sensitivity_follows_order_by() {
        assert!(is_ordered("select a from t ORDER BY a"));
        assert!(!is_ordered("select count(*) from t"));
    }
}
