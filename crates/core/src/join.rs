//! Join kernels: hash-join probes (inner/left/semi/anti) and cross
//! products.
//!
//! The hash join "builds" on the right input: a [`HashTable`] over the
//! build keys, chains ascending so matches come out in build-row order.
//! When the build side is a bare persistent column, the executor passes
//! its automatically maintained [`HashIndex`] — the same table, prebuilt
//! (paper §3.1: "Hash tables are also automatically created for
//! persistent columns when they are used in groupings or as join keys in
//! equi-joins") — and the build phase disappears entirely. Either way one
//! probe loop runs.
//!
//! [`HashIndex`]: monetlite_storage::index::HashIndex

use crate::plan::PJoinKind;
use crate::rows::{visit_keys, KeyCols, KeyVisitor, NO_ROW};
use monetlite_storage::hash::{hash_rows, HashTable};
use monetlite_storage::Bat;
use monetlite_types::{MlError, Result};

/// Row-id pairs produced by a join; `rsel` entries may be [`NO_ROW`]
/// (left outer). For semi/anti joins `rsel` is empty.
#[derive(Debug, Default)]
pub struct JoinSel {
    /// Left row ids.
    pub lsel: Vec<u32>,
    /// Right row ids (empty for semi/anti).
    pub rsel: Vec<u32>,
}

impl JoinSel {
    /// Rewrite probe-side row ids through a candidate list: each `lsel`
    /// entry was a *logical* position into the probe vector's selection
    /// (the probe keys were compacted through it); afterwards it is the
    /// physical row id in the underlying columns, so the output gather
    /// is the candidate chain's single materialisation.
    pub fn compose_lsel(&mut self, sel: &[u32]) {
        for l in &mut self.lsel {
            *l = sel[*l as usize];
        }
    }
}

/// Probe a build table (transient or a prebuilt hash index) with a block
/// of probe-side keys, hashed once for the whole block. `lsel` entries
/// index the probe block; `rsel` entries index the full build side.
pub fn probe(lkeys: &[&Bat], rkeys: &[&Bat], table: &HashTable, kind: PJoinKind) -> JoinSel {
    probe_hashed(lkeys, &hash_rows(lkeys, None), rkeys, table, kind)
}

/// [`probe`] with the probe hashes supplied: a candidate must match the
/// stored hash before its keys are compared, one typed compare per key
/// column (see [`visit_keys`]).
fn probe_hashed(
    lkeys: &[&Bat],
    lhash: &[u64],
    rkeys: &[&Bat],
    table: &HashTable,
    kind: PJoinKind,
) -> JoinSel {
    visit_keys(lkeys, rkeys, Probe { lhash, table, kind })
}

/// The probe loop, instantiated per typed key representation.
struct Probe<'a> {
    lhash: &'a [u64],
    table: &'a HashTable,
    kind: PJoinKind,
}

impl KeyVisitor for Probe<'_> {
    type Out = JoinSel;

    fn visit<K: KeyCols>(self, lkeys: &K, rkeys: &K) -> JoinSel {
        let Probe { lhash, table, kind } = self;
        let pairs = matches!(kind, PJoinKind::Inner | PJoinKind::Left);
        let mut out = JoinSel {
            lsel: Vec::with_capacity(lhash.len()),
            rsel: Vec::with_capacity(if pairs { lhash.len() } else { 0 }),
        };
        for (l, &h) in lhash.iter().enumerate() {
            let mut matched = false;
            // NULL keys never match (their build rows are not even linked).
            if !lkeys.null(l) {
                for r in table.candidates(h) {
                    if lkeys.same(l, rkeys, r as usize) {
                        matched = true;
                        match kind {
                            PJoinKind::Inner | PJoinKind::Left => {
                                out.lsel.push(l as u32);
                                out.rsel.push(r);
                            }
                            PJoinKind::Semi | PJoinKind::Anti => break,
                            // xlint: allow(panic, planner never routes cross joins through key probes)
                            PJoinKind::Cross => unreachable!(),
                        }
                    }
                }
            }
            finish_probe(&mut out, kind, l as u32, matched);
        }
        out
    }
}

/// An index nested-loop probe: look each row of a small block of `keys`
/// up in the `index` over the (large) key column `indexed`, with the
/// block's hashes supplied. Returns `(indexed row, key row)` pairs, or
/// `None` as soon as there are more than `cap` of them (a skewed key,
/// for which a hash join beats gathering that many rows).
pub fn probe_index(
    keys: &[&Bat],
    hashes: &[u64],
    indexed: &[&Bat],
    index: &HashTable,
    cap: usize,
) -> Option<Vec<(u32, u32)>> {
    visit_keys(keys, indexed, IndexProbe { hashes, index, cap })
}

/// The index nested-loop probe, instantiated per typed key
/// representation.
struct IndexProbe<'a> {
    hashes: &'a [u64],
    index: &'a HashTable,
    cap: usize,
}

impl KeyVisitor for IndexProbe<'_> {
    type Out = Option<Vec<(u32, u32)>>;

    fn visit<K: KeyCols>(self, keys: &K, indexed: &K) -> Option<Vec<(u32, u32)>> {
        let mut pairs = Vec::new();
        for (k, &h) in self.hashes.iter().enumerate() {
            // A NULL key never matches (NULL rows are not in the index).
            if keys.null(k) {
                continue;
            }
            for r in self.index.candidates(h) {
                if keys.same(k, indexed, r as usize) {
                    if pairs.len() == self.cap {
                        return None;
                    }
                    pairs.push((r, k as u32));
                }
            }
        }
        Some(pairs)
    }
}

#[inline]
fn finish_probe(out: &mut JoinSel, kind: PJoinKind, l: u32, matched: bool) {
    match kind {
        PJoinKind::Left if !matched => {
            out.lsel.push(l);
            out.rsel.push(NO_ROW);
        }
        PJoinKind::Semi if matched => out.lsel.push(l),
        PJoinKind::Anti if !matched => out.lsel.push(l),
        _ => {}
    }
}

/// Pairs of a **scalar join** — a key-less LEFT join as planned by the
/// binder for uncorrelated scalar subqueries: the right side must hold at
/// most one row; zero rows pad every probe row with NULL (SQL's empty
/// scalar subquery answer), more than one row is the SQL error.
pub fn scalar_left_pairs(lrows: usize, rrows: usize) -> Result<JoinSel> {
    if rrows > 1 {
        return Err(MlError::Execution(format!(
            "scalar subquery returned {rrows} rows (at most one expected)"
        )));
    }
    let rid = if rrows == 0 { NO_ROW } else { 0 };
    Ok(JoinSel { lsel: (0..lrows as u32).collect(), rsel: vec![rid; lrows] })
}

/// Cross product row-id pairs.
pub fn cross_join(lrows: usize, rrows: usize) -> JoinSel {
    let mut out = JoinSel {
        lsel: Vec::with_capacity(lrows * rrows),
        rsel: Vec::with_capacity(lrows * rrows),
    };
    for l in 0..lrows {
        for r in 0..rrows {
            out.lsel.push(l as u32);
            out.rsel.push(r as u32);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::model::{any_null, key_columns, rows_eq};
    use monetlite_types::nulls::NULL_I32;

    fn pairs(sel: &JoinSel) -> Vec<(u32, u32)> {
        let mut v: Vec<(u32, u32)> =
            sel.lsel.iter().copied().zip(sel.rsel.iter().copied()).collect();
        v.sort_unstable();
        v
    }

    /// Build then probe in one call, through `prebuilt` (a build column's
    /// hash index) when given.
    fn hash_join(
        l: &[&Bat],
        r: &[&Bat],
        kind: PJoinKind,
        prebuilt: Option<&HashTable>,
    ) -> Result<JoinSel> {
        let built = HashTable::build(r);
        Ok(probe(l, r, prebuilt.unwrap_or(&built), kind))
    }

    #[test]
    fn inner_join_basic() {
        let l = Bat::Int(vec![1, 2, 3, 2]);
        let r = Bat::Int(vec![2, 4, 1]);
        let out = hash_join(&[&l], &[&r], PJoinKind::Inner, None).unwrap();
        assert_eq!(pairs(&out), vec![(0, 2), (1, 0), (3, 0)]);
    }

    #[test]
    fn left_join_pads() {
        let l = Bat::Int(vec![1, 9]);
        let r = Bat::Int(vec![1]);
        let out = hash_join(&[&l], &[&r], PJoinKind::Left, None).unwrap();
        assert_eq!(out.lsel, vec![0, 1]);
        assert_eq!(out.rsel, vec![0, NO_ROW]);
    }

    #[test]
    fn semi_and_anti() {
        let l = Bat::Int(vec![1, 2, 3]);
        let r = Bat::Int(vec![2, 2, 5]);
        let semi = hash_join(&[&l], &[&r], PJoinKind::Semi, None).unwrap();
        assert_eq!(semi.lsel, vec![1]);
        assert!(semi.rsel.is_empty());
        let anti = hash_join(&[&l], &[&r], PJoinKind::Anti, None).unwrap();
        assert_eq!(anti.lsel, vec![0, 2]);
    }

    #[test]
    fn null_keys_never_match() {
        let l = Bat::Int(vec![NULL_I32, 1]);
        let r = Bat::Int(vec![NULL_I32, 1]);
        let out = hash_join(&[&l], &[&r], PJoinKind::Inner, None).unwrap();
        assert_eq!(pairs(&out), vec![(1, 1)]);
        // Anti keeps NULL-keyed left rows (no match possible).
        let anti = hash_join(&[&l], &[&r], PJoinKind::Anti, None).unwrap();
        assert_eq!(anti.lsel, vec![0]);
        // Left join pads NULL-keyed rows.
        let left = hash_join(&[&l], &[&r], PJoinKind::Left, None).unwrap();
        assert_eq!(left.rsel, vec![NO_ROW, 1]);
    }

    #[test]
    fn multi_key_join() {
        let l1 = Bat::Int(vec![1, 1, 2]);
        let l2 = Bat::Int(vec![10, 20, 10]);
        let r1 = Bat::Int(vec![1, 2]);
        let r2 = Bat::Int(vec![20, 10]);
        let out = hash_join(&[&l1, &l2], &[&r1, &r2], PJoinKind::Inner, None).unwrap();
        assert_eq!(pairs(&out), vec![(1, 0), (2, 1)]);
    }

    #[test]
    fn prebuilt_index_path_matches_general_path() {
        let l = Bat::Int(vec![3, 1, 4, 1, 5]);
        let r = Bat::Int(vec![1, 5, 9, 1]);
        let idx = monetlite_storage::index::HashIndex::build(&[&r]);
        for kind in [PJoinKind::Inner, PJoinKind::Left, PJoinKind::Semi, PJoinKind::Anti] {
            let with_idx = hash_join(&[&l], &[&r], kind, Some(&idx)).unwrap();
            let without = hash_join(&[&l], &[&r], kind, None).unwrap();
            assert_eq!(pairs(&with_idx), pairs(&without), "{kind:?}");
            assert_eq!(with_idx.lsel.len(), without.lsel.len());
        }
    }

    #[test]
    fn index_probe_pairs_every_match_and_gives_up_past_its_cap() {
        let indexed = Bat::Int(vec![5, 1, 5, NULL_I32, 9, 5]);
        let keys = Bat::Int(vec![5, 7, NULL_I32, 1]);
        let index = monetlite_storage::index::HashIndex::build(&[&indexed]);
        let h = hash_rows(&[&keys], None);
        let pairs = probe_index(&[&keys], &h, &[&indexed], &index, 4);
        assert_eq!(pairs, Some(vec![(0, 0), (2, 0), (5, 0), (1, 3)]));
        assert_eq!(probe_index(&[&keys], &h, &[&indexed], &index, 3), None);
    }

    #[test]
    fn pairs_come_out_probe_major_in_build_row_order() {
        let l = Bat::Int(vec![2, 1, 2]);
        let r = Bat::Int(vec![2, 1, 2, 2]);
        let out = hash_join(&[&l], &[&r], PJoinKind::Inner, None).unwrap();
        assert_eq!(out.lsel, vec![0, 0, 0, 1, 2, 2, 2]);
        assert_eq!(out.rsel, vec![0, 2, 3, 1, 0, 2, 3]);
    }

    #[test]
    fn negative_zero_joins_zero() {
        let l = Bat::Double(vec![0.0, 1.5, -0.0, -1.5]);
        let r = Bat::Double(vec![0.0]);
        let out = hash_join(&[&l], &[&r], PJoinKind::Inner, None).unwrap();
        assert_eq!(pairs(&out), vec![(0, 0), (2, 0)]);
        let idx = monetlite_storage::index::HashIndex::build(&[&r]);
        let semi = hash_join(&[&l], &[&r], PJoinKind::Semi, Some(&idx)).unwrap();
        assert_eq!(semi.lsel, vec![0, 2]);
    }

    /// The nested-loop join every probe must equal.
    fn nested_loop(lkeys: &[&Bat], rkeys: &[&Bat], kind: PJoinKind) -> JoinSel {
        let (lrows, rrows) = (lkeys[0].len(), rkeys[0].len());
        let mut out = JoinSel::default();
        for l in 0..lrows {
            let hits: Vec<u32> = (0..rrows as u32)
                .filter(|&r| rows_eq(lkeys, l, rkeys, r as usize, false))
                .collect();
            match kind {
                PJoinKind::Inner | PJoinKind::Left => {
                    for &r in &hits {
                        out.lsel.push(l as u32);
                        out.rsel.push(r);
                    }
                }
                _ => {}
            }
            finish_probe(&mut out, kind, l as u32, !hits.is_empty());
        }
        out
    }

    /// The probe loop before typed keys: a type dispatch per row and column.
    fn probe_model(
        lkeys: &[&Bat],
        lhash: &[u64],
        rkeys: &[&Bat],
        table: &HashTable,
        kind: PJoinKind,
    ) -> JoinSel {
        let mut out = JoinSel::default();
        for (l, &h) in lhash.iter().enumerate() {
            let mut matched = false;
            if !any_null(lkeys, l) {
                for r in table.candidates(h) {
                    if rows_eq(lkeys, l, rkeys, r as usize, false) {
                        matched = true;
                        if matches!(kind, PJoinKind::Semi | PJoinKind::Anti) {
                            break;
                        }
                        out.lsel.push(l as u32);
                        out.rsel.push(r);
                    }
                }
            }
            finish_probe(&mut out, kind, l as u32, matched);
        }
        out
    }

    proptest::proptest! {
        #[test]
        fn prop_typed_probe_equals_the_row_model(
            lseeds in proptest::collection::vec(0u8..255, 0..40),
            rseeds in proptest::collection::vec(0u8..255, 0..40),
            picks in proptest::collection::vec(0usize..9, 2..4),
        ) {
            // Every type against every type (mismatched pairs never join),
            // composites, and strings from two different heaps; hashes
            // forced equal so the key comparison alone decides, then the
            // real hashes (a NULL or mismatched key must still be skipped).
            let (lc, rc) = (key_columns(&lseeds), key_columns(&rseeds));
            let mut sets: Vec<(Vec<&Bat>, Vec<&Bat>)> = Vec::new();
            for a in &lc {
                for b in &rc {
                    sets.push((vec![a], vec![b]));
                }
            }
            sets.push((picks.iter().map(|&p| &lc[p]).collect(), picks.iter().map(|&p| &rc[p]).collect()));
            sets.push((picks.iter().map(|&p| &lc[p]).collect(), picks.iter().rev().map(|&p| &rc[p]).collect()));
            // One fixed width throughout (INT with DATE, BIGINT with DECIMAL
            // of another scale), and the same with a pair's types crossed.
            sets.push((vec![&lc[1], &lc[2]], vec![&rc[1], &rc[2]]));
            sets.push((vec![&lc[3], &lc[4]], vec![&rc[3], &rc[5]]));
            sets.push((vec![&lc[1], &lc[2]], vec![&rc[2], &rc[1]]));
            for (lk, rk) in &sets {
                for forced in [true, false] {
                    let (lhash, rhash) = if forced {
                        (vec![7; lseeds.len()], vec![7; rseeds.len()])
                    } else {
                        (hash_rows(lk, None), hash_rows(rk, None))
                    };
                    let table = HashTable::from_hashes(rhash, rk);
                    for kind in [PJoinKind::Inner, PJoinKind::Left, PJoinKind::Semi, PJoinKind::Anti] {
                        let got = probe_hashed(lk, &lhash, rk, &table, kind);
                        let want = probe_model(lk, &lhash, rk, &table, kind);
                        proptest::prop_assert_eq!(&got.lsel, &want.lsel);
                        proptest::prop_assert_eq!(&got.rsel, &want.rsel);
                    }
                }
            }
        }

        #[test]
        fn prop_probe_matches_nested_loop_under_forced_equal_hashes(
            lv in proptest::collection::vec(-4i32..4, 0..40),
            rv in proptest::collection::vec(-4i32..4, 0..40),
            sv in proptest::collection::vec(0u8..3, 0..40),
        ) {
            use monetlite_types::ColumnBuffer;
            // -4 stands for NULL; a second VARCHAR key column makes the
            // composite comparison do real work.
            let int = |v: &[i32]| Bat::Int(v.iter().map(|&x| if x == -4 { NULL_I32 } else { x }).collect());
            let text = |n: usize| Bat::from_buffer(&ColumnBuffer::Varchar(
                (0..n).map(|i| sv.get(i).map(|&s| format!("s{s}"))).collect(),
            ));
            let (l1, r1) = (int(&lv), int(&rv));
            let (l2, r2) = (text(lv.len()), text(rv.len()));
            for (lk, rk) in [(vec![&l1], vec![&r1]), (vec![&l1, &l2], vec![&r1, &r2])] {
                // Every build row in one chain under one hash: the stored
                // hash check passes everything and the key comparison
                // alone decides.
                let table = HashTable::from_hashes(vec![7; rv.len()], &rk);
                let lhash = vec![7; lv.len()];
                for kind in [PJoinKind::Inner, PJoinKind::Left, PJoinKind::Semi, PJoinKind::Anti] {
                    let got = probe_hashed(&lk, &lhash, &rk, &table, kind);
                    let want = nested_loop(&lk, &rk, kind);
                    proptest::prop_assert_eq!(&got.lsel, &want.lsel);
                    proptest::prop_assert_eq!(&got.rsel, &want.rsel);
                    let real = hash_join(&lk, &rk, kind, None).unwrap();
                    proptest::prop_assert_eq!(&real.lsel, &want.lsel);
                    proptest::prop_assert_eq!(&real.rsel, &want.rsel);
                }
            }
        }
    }

    #[test]
    fn cross_join_counts() {
        let out = cross_join(3, 2);
        assert_eq!(out.lsel.len(), 6);
        assert_eq!(pairs(&out).len(), 6);
    }

    #[test]
    fn string_keys_join() {
        use monetlite_types::ColumnBuffer;
        let l = Bat::from_buffer(&ColumnBuffer::Varchar(vec![
            Some("FRANCE".into()),
            Some("GERMANY".into()),
            None,
        ]));
        let r = Bat::from_buffer(&ColumnBuffer::Varchar(vec![
            Some("GERMANY".into()),
            Some("FRANCE".into()),
        ]));
        let out = hash_join(&[&l], &[&r], PJoinKind::Inner, None).unwrap();
        assert_eq!(pairs(&out), vec![(0, 1), (1, 0)]);
    }
}
