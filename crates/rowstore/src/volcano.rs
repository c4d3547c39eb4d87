//! The volcano (iterator / tuple-at-a-time) executor.
//!
//! Every operator pulls one row at a time from its child — the classic
//! Graefe model used by SQLite/PostgreSQL/MariaDB, and the root cause of
//! the baseline's poor analytical performance in the paper's Table 1:
//! "Because of their tuple-at-a-time volcano processing model they invoke
//! a lot of overhead for each tuple that passes through the pipeline."
//!
//! For simplicity operators here materialise their input where a real
//! system would stream; the per-row dynamic dispatch — the dominant cost —
//! is identical.

use crate::scalar::eval_row;
use crate::table::RowTable;
use crate::JoinStrategy;
use monetlite::expr::{AggSpec, BExpr, PAggFunc};
use monetlite::plan::{PJoinKind, Plan};
use monetlite_types::{MlError, Result, Value};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// One plan execution over the row tables.
pub struct VolcanoExec<'a> {
    /// Catalog.
    pub tables: &'a HashMap<String, RowTable>,
    /// Join algorithm profile.
    pub join_strategy: JoinStrategy,
    /// Absolute deadline.
    pub deadline: Option<Instant>,
    /// Configured timeout (for the error message).
    pub timeout: Option<Duration>,
    /// Intermediate row ceiling (plan blowups count as timeouts).
    pub max_rows: usize,
}

impl VolcanoExec<'_> {
    /// Run a plan to a fully materialised row set.
    pub fn run(&mut self, plan: &Plan) -> Result<Vec<Vec<Value>>> {
        self.exec(plan)
    }

    fn check_blowup(&self, rows: usize) -> Result<()> {
        if rows > self.max_rows {
            let limit = self.timeout.unwrap_or_default().as_millis() as u64;
            return Err(MlError::Timeout { elapsed_ms: limit, limit_ms: limit });
        }
        Ok(())
    }

    fn check_deadline(&self) -> Result<()> {
        if let Some(d) = self.deadline {
            if Instant::now() > d {
                let limit = self.timeout.unwrap_or_default().as_millis() as u64;
                return Err(MlError::Timeout { elapsed_ms: limit, limit_ms: limit });
            }
        }
        Ok(())
    }

    fn exec(&mut self, plan: &Plan) -> Result<Vec<Vec<Value>>> {
        self.check_deadline()?;
        match plan {
            Plan::Scan { table, projected, filters, schema } => {
                let t = self
                    .tables
                    .get(table)
                    .ok_or_else(|| MlError::Catalog(format!("unknown table '{table}'")))?;
                let mut out = Vec::new();
                let mut ticker = 0u32;
                let mut deadline_err = None;
                t.scan(|full_row| {
                    // Row stores read the whole row no matter what;
                    // projection happens after deserialisation.
                    let mut row: Vec<Value> =
                        projected.iter().map(|&c| full_row[c].clone()).collect();
                    for f in filters {
                        if eval_row(f, &row)? != Value::Bool(true) {
                            return Ok(true);
                        }
                    }
                    // Filter-only columns trail the outputs in the read list.
                    row.truncate(schema.len());
                    out.push(row);
                    ticker += 1;
                    if ticker.is_multiple_of(4096) {
                        if let Err(e) = self.check_deadline() {
                            deadline_err = Some(e);
                            return Ok(false);
                        }
                    }
                    Ok(true)
                })?;
                match deadline_err {
                    Some(e) => Err(e),
                    None => Ok(out),
                }
            }
            Plan::Filter { input, pred } => {
                let rows = self.exec(input)?;
                let mut out = Vec::new();
                for row in rows {
                    if eval_row(pred, &row)? == Value::Bool(true) {
                        out.push(row);
                    }
                }
                Ok(out)
            }
            Plan::Project { input, exprs, .. } => {
                let rows = self.exec(input)?;
                let mut out = Vec::with_capacity(rows.len());
                let mut ticker = 0u32;
                for row in rows {
                    let mut new = Vec::with_capacity(exprs.len());
                    for e in exprs {
                        new.push(eval_row(e, &row)?);
                    }
                    out.push(new);
                    ticker += 1;
                    if ticker.is_multiple_of(8192) {
                        self.check_deadline()?;
                    }
                }
                Ok(out)
            }
            Plan::Join { left, right, kind, left_keys, right_keys, residual, .. } => {
                self.join_rows(left, right, *kind, left_keys, right_keys, residual.as_ref())
            }
            Plan::Aggregate { input, groups, aggs, .. } => {
                let rows = self.exec(input)?;
                self.aggregate_rows(rows, groups, aggs)
            }
            Plan::Sort { input, keys } => {
                let mut rows = self.exec(input)?;
                sort_rows(&mut rows, keys);
                Ok(rows)
            }
            Plan::TopN { input, keys, n } => {
                let mut rows = self.exec(input)?;
                sort_rows(&mut rows, keys);
                rows.truncate(*n as usize);
                Ok(rows)
            }
            Plan::Limit { input, n } => {
                let mut rows = self.exec(input)?;
                rows.truncate(*n as usize);
                Ok(rows)
            }
            Plan::Values { rows, .. } => {
                let mut out = Vec::with_capacity(rows.len());
                for r in rows {
                    let mut row = Vec::with_capacity(r.len());
                    for e in r {
                        row.push(eval_row(e, &[])?);
                    }
                    out.push(row);
                }
                Ok(out)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn join_rows(
        &mut self,
        left: &Plan,
        right: &Plan,
        kind: PJoinKind,
        left_keys: &[BExpr],
        right_keys: &[BExpr],
        residual: Option<&BExpr>,
    ) -> Result<Vec<Vec<Value>>> {
        let lrows = self.exec(left)?;
        let rrows = self.exec(right)?;
        let rwidth = right.schema().len();
        let semi_like = matches!(kind, PJoinKind::Semi | PJoinKind::Anti);
        let mut out = Vec::new();

        let combine = |l: &[Value], r: Option<&[Value]>| -> Vec<Value> {
            let mut row = l.to_vec();
            match r {
                Some(r) => row.extend(r.iter().cloned()),
                None => row.extend(std::iter::repeat_n(Value::Null, rwidth)),
            }
            row
        };

        let residual_ok = |row: &[Value]| -> Result<bool> {
            match residual {
                None => Ok(true),
                Some(res) => Ok(eval_row(res, row)? == Value::Bool(true)),
            }
        };

        if kind == PJoinKind::Cross || left_keys.is_empty() {
            if semi_like {
                return Err(MlError::Execution("semi/anti join requires keys".into()));
            }
            if kind == PJoinKind::Left && residual.is_none() {
                // Scalar join (binder-planned key-less LEFT): the right
                // side holds at most one row; zero rows pad NULL.
                if rrows.len() > 1 {
                    return Err(MlError::Execution(format!(
                        "scalar subquery returned {} rows (at most one expected)",
                        rrows.len()
                    )));
                }
                for l in &lrows {
                    out.push(combine(l, rrows.first().map(|r| r.as_slice())));
                }
                return Ok(out);
            }
            let mut ticker = 0u64;
            for l in &lrows {
                let mut matched = false;
                for r in &rrows {
                    ticker += 1;
                    if ticker.is_multiple_of(16384) {
                        self.check_deadline()?;
                        self.check_blowup(out.len())?;
                    }
                    let row = combine(l, Some(r));
                    if residual_ok(&row)? {
                        matched = true;
                        out.push(row);
                    }
                }
                // Key-less LEFT with a residual: pad probe rows whose
                // matches all failed.
                if kind == PJoinKind::Left && !matched {
                    out.push(combine(l, None));
                }
            }
            return Ok(out);
        }

        match self.join_strategy {
            JoinStrategy::Hash => {
                // Build on the right.
                let mut table: HashMap<String, Vec<usize>> = HashMap::new();
                for (i, r) in rrows.iter().enumerate() {
                    let keys: Vec<Value> =
                        right_keys.iter().map(|k| eval_row(k, r)).collect::<Result<_>>()?;
                    if keys.iter().any(|k| k.is_null()) {
                        continue;
                    }
                    table.entry(values_key(&keys)).or_default().push(i);
                }
                let mut ticker = 0u64;
                for l in &lrows {
                    ticker += 1;
                    if ticker.is_multiple_of(8192) {
                        self.check_deadline()?;
                        self.check_blowup(out.len())?;
                    }
                    let keys: Vec<Value> =
                        left_keys.iter().map(|k| eval_row(k, l)).collect::<Result<_>>()?;
                    let null_key = keys.iter().any(|k| k.is_null());
                    let mut matched = false;
                    if !null_key {
                        if let Some(bucket) = table.get(&values_key(&keys)) {
                            for &ri in bucket {
                                let row = combine(l, Some(&rrows[ri]));
                                if residual_ok(&row)? {
                                    matched = true;
                                    match kind {
                                        PJoinKind::Inner | PJoinKind::Left => out.push(row),
                                        PJoinKind::Semi | PJoinKind::Anti => break,
                                        PJoinKind::Cross => unreachable!(),
                                    }
                                }
                            }
                        }
                    }
                    finish(&mut out, kind, l, &combine, matched)?;
                }
            }
            JoinStrategy::NestedLoop => {
                // SQLite-style block nested loops: O(n·m) key comparisons.
                let mut ticker = 0u64;
                for l in &lrows {
                    let lkeys: Vec<Value> =
                        left_keys.iter().map(|k| eval_row(k, l)).collect::<Result<_>>()?;
                    let null_key = lkeys.iter().any(|k| k.is_null());
                    let mut matched = false;
                    if !null_key {
                        for r in &rrows {
                            ticker += 1;
                            if ticker.is_multiple_of(65536) {
                                self.check_deadline()?;
                                self.check_blowup(out.len())?;
                            }
                            let rkeys: Vec<Value> =
                                right_keys.iter().map(|k| eval_row(k, r)).collect::<Result<_>>()?;
                            if rkeys.iter().any(|k| k.is_null()) {
                                continue;
                            }
                            let eq = lkeys
                                .iter()
                                .zip(&rkeys)
                                .all(|(a, b)| a.cmp_sql(b) == std::cmp::Ordering::Equal);
                            if !eq {
                                continue;
                            }
                            let row = combine(l, Some(r));
                            if residual_ok(&row)? {
                                matched = true;
                                match kind {
                                    PJoinKind::Inner | PJoinKind::Left => out.push(row),
                                    PJoinKind::Semi | PJoinKind::Anti => break,
                                    PJoinKind::Cross => unreachable!(),
                                }
                            }
                        }
                    }
                    finish(&mut out, kind, l, &combine, matched)?;
                }
            }
        }
        Ok(out)
    }

    fn aggregate_rows(
        &mut self,
        rows: Vec<Vec<Value>>,
        groups: &[BExpr],
        aggs: &[AggSpec],
    ) -> Result<Vec<Vec<Value>>> {
        struct GroupState {
            keys: Vec<Value>,
            accs: Vec<Acc>,
        }
        enum Acc {
            Count(i64),
            CountDistinct(std::collections::HashSet<String>),
            SumF(f64, bool),
            SumDec(i128, bool, u8),
            SumInt(i128, bool),
            Avg(f64, i64),
            Best(Value, bool),
            Median(Vec<f64>),
        }
        let new_accs = |aggs: &[AggSpec]| -> Result<Vec<Acc>> {
            aggs.iter()
                .map(|a| {
                    Ok(match (a.func, a.distinct) {
                        (PAggFunc::Count, true) => {
                            Acc::CountDistinct(std::collections::HashSet::new())
                        }
                        (PAggFunc::Count, false) => Acc::Count(0),
                        (PAggFunc::Sum, _) => match a.arg.as_ref().map(|x| x.ty()) {
                            Some(monetlite_types::LogicalType::Int)
                            | Some(monetlite_types::LogicalType::Bigint) => Acc::SumInt(0, false),
                            Some(monetlite_types::LogicalType::Decimal { scale, .. }) => {
                                Acc::SumDec(0, false, scale)
                            }
                            _ => Acc::SumF(0.0, false),
                        },
                        (PAggFunc::Avg, _) => Acc::Avg(0.0, 0),
                        (PAggFunc::Min, _) => Acc::Best(Value::Null, false),
                        (PAggFunc::Max, _) => Acc::Best(Value::Null, true),
                        (PAggFunc::Median, _) => Acc::Median(Vec::new()),
                    })
                })
                .collect()
        };
        let mut table: HashMap<String, GroupState> = HashMap::new();
        let mut order: Vec<String> = Vec::new();
        for row in &rows {
            // A zero key shows as 0.0 whether -0.0 or 0.0 opened the group
            // (a float pattern compares with `==`, so -0.0 matches `0.0`).
            let keys: Vec<Value> = groups
                .iter()
                .map(|g| {
                    eval_row(g, row).map(|v| match v {
                        Value::Double(0.0) => Value::Double(0.0),
                        v => v,
                    })
                })
                .collect::<Result<_>>()?;
            let kstr = values_key(&keys);
            if !table.contains_key(&kstr) {
                table.insert(kstr.clone(), GroupState { keys, accs: new_accs(aggs)? });
                order.push(kstr.clone());
            }
            let st = table.get_mut(&kstr).unwrap();
            for (acc, spec) in st.accs.iter_mut().zip(aggs) {
                let arg = spec.arg.as_ref().map(|a| eval_row(a, row)).transpose()?;
                match acc {
                    Acc::Count(c) => {
                        if spec.arg.is_none() || !arg.as_ref().unwrap().is_null() {
                            *c += 1;
                        }
                    }
                    Acc::CountDistinct(set) => {
                        if let Some(v) = &arg {
                            if !v.is_null() {
                                set.insert(values_key(std::slice::from_ref(v)));
                            }
                        }
                    }
                    Acc::SumInt(s, seen) => {
                        if let Some(v) = &arg {
                            if !v.is_null() {
                                *s += v.as_i64()? as i128;
                                *seen = true;
                            }
                        }
                    }
                    Acc::SumDec(s, seen, scale) => {
                        if let Some(Value::Decimal(d)) = &arg {
                            *s += d.rescale(*scale)?.raw as i128;
                            *seen = true;
                        }
                    }
                    Acc::SumF(s, seen) => {
                        if let Some(v) = &arg {
                            if !v.is_null() {
                                *s += v.as_f64()?;
                                *seen = true;
                            }
                        }
                    }
                    Acc::Avg(s, c) => {
                        if let Some(v) = &arg {
                            if !v.is_null() {
                                *s += v.as_f64()?;
                                *c += 1;
                            }
                        }
                    }
                    Acc::Best(best, is_max) => {
                        if let Some(v) = &arg {
                            if !v.is_null() {
                                let replace = if best.is_null() {
                                    true
                                } else {
                                    let ord = v.cmp_sql(best);
                                    if *is_max {
                                        ord == std::cmp::Ordering::Greater
                                    } else {
                                        ord == std::cmp::Ordering::Less
                                    }
                                };
                                if replace {
                                    *best = v.clone();
                                }
                            }
                        }
                    }
                    Acc::Median(buf) => {
                        if let Some(v) = &arg {
                            if !v.is_null() {
                                buf.push(v.as_f64()?);
                            }
                        }
                    }
                }
            }
        }
        // Global aggregate over empty input still yields one row.
        if groups.is_empty() && table.is_empty() {
            table.insert(String::new(), GroupState { keys: vec![], accs: new_accs(aggs)? });
            order.push(String::new());
        }
        let mut out = Vec::with_capacity(order.len());
        for k in order {
            let st = table.remove(&k).unwrap();
            let mut row = st.keys;
            for (acc, spec) in st.accs.into_iter().zip(aggs) {
                row.push(match acc {
                    Acc::Count(c) => Value::Bigint(c),
                    Acc::CountDistinct(set) => Value::Bigint(set.len() as i64),
                    Acc::SumInt(s, seen) => {
                        if !seen {
                            Value::Null
                        } else if s > i64::MAX as i128 || s < i64::MIN as i128 {
                            return Err(MlError::Execution("SUM overflow".into()));
                        } else {
                            Value::Bigint(s as i64)
                        }
                    }
                    Acc::SumDec(s, seen, scale) => {
                        if !seen {
                            Value::Null
                        } else if s > i64::MAX as i128 || s < i64::MIN as i128 {
                            return Err(MlError::Execution("SUM overflow".into()));
                        } else {
                            Value::Decimal(monetlite_types::Decimal::new(s as i64, scale))
                        }
                    }
                    Acc::SumF(s, seen) => {
                        if seen {
                            Value::Double(s)
                        } else {
                            Value::Null
                        }
                    }
                    Acc::Avg(s, c) => {
                        if c == 0 {
                            Value::Null
                        } else {
                            Value::Double(s / c as f64)
                        }
                    }
                    Acc::Best(v, _) => v,
                    Acc::Median(mut buf) => {
                        if buf.is_empty() {
                            Value::Null
                        } else {
                            buf.sort_by(|a, b| a.partial_cmp(b).unwrap());
                            let n = buf.len();
                            Value::Double(if n % 2 == 1 {
                                buf[n / 2]
                            } else {
                                (buf[n / 2 - 1] + buf[n / 2]) / 2.0
                            })
                        }
                    }
                });
                let _ = spec;
            }
            out.push(row);
        }
        Ok(out)
    }
}

fn finish(
    out: &mut Vec<Vec<Value>>,
    kind: PJoinKind,
    l: &[Value],
    combine: &impl Fn(&[Value], Option<&[Value]>) -> Vec<Value>,
    matched: bool,
) -> Result<()> {
    match kind {
        PJoinKind::Left if !matched => out.push(combine(l, None)),
        PJoinKind::Semi if matched => out.push(l.to_vec()),
        PJoinKind::Anti if !matched => out.push(l.to_vec()),
        _ => {}
    }
    Ok(())
}

fn sort_rows(rows: &mut [Vec<Value>], keys: &[(usize, bool)]) {
    rows.sort_by(|a, b| {
        for &(c, desc) in keys {
            let ord = a[c].cmp_sql(&b[c]);
            let ord = if desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
}

/// String image of a composite key ("NULL" groups NULLs together, SQL
/// grouping semantics; join paths skip NULL keys before reaching here).
fn values_key(vals: &[Value]) -> String {
    let mut s = String::new();
    for v in vals {
        match v {
            Value::Null => s.push('\u{1}'),
            // -0.0 = 0.0: one key.
            Value::Double(d) => s.push_str(&(d + 0.0).to_string()),
            other => s.push_str(&other.to_string()),
        }
        s.push('\u{0}');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_key_distinguishes() {
        assert_ne!(values_key(&[Value::Int(1), Value::Int(2)]), values_key(&[Value::Int(12)]));
        assert_eq!(values_key(&[Value::Null]), values_key(&[Value::Null]));
        assert_ne!(values_key(&[Value::Null]), values_key(&[Value::Str("".into())]));
        assert_eq!(values_key(&[Value::Double(-0.0)]), values_key(&[Value::Double(0.0)]));
    }

    #[test]
    fn sort_rows_multi_key() {
        let mut rows = vec![
            vec![Value::Int(1), Value::Int(9)],
            vec![Value::Int(1), Value::Int(3)],
            vec![Value::Int(0), Value::Int(5)],
        ];
        sort_rows(&mut rows, &[(0, false), (1, true)]);
        assert_eq!(rows[0][0], Value::Int(0));
        assert_eq!(rows[1][1], Value::Int(9));
    }
}
