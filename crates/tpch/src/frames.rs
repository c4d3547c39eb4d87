//! Hand-optimised dataframe-library implementations of TPC-H Q1–Q10.
//!
//! These are the "library scripts" of the paper's §4.2: the high-level
//! optimisations a database would do automatically — projection/filter
//! push-down, join ordering ("using the query plans that are executed by
//! VectorWise"), constant folding — are performed *by hand* here, so the
//! numbers represent the libraries' best case.

use crate::gen::TpchData;
use monetlite_frame::ops::{self, MaskOp};
use monetlite_frame::{AggOp, DataFrame, JoinHow, Session};
use monetlite_types::{Result, Value};

/// The dataset loaded as session frames (charged against the budget,
/// like `read.csv` results in R).
pub struct TpchFrames {
    /// lineitem frame.
    pub lineitem: DataFrame,
    /// orders frame.
    pub orders: DataFrame,
    /// customer frame.
    pub customer: DataFrame,
    /// supplier frame.
    pub supplier: DataFrame,
    /// part frame.
    pub part: DataFrame,
    /// partsupp frame.
    pub partsupp: DataFrame,
    /// nation frame.
    pub nation: DataFrame,
    /// region frame.
    pub region: DataFrame,
}

impl TpchFrames {
    /// Materialise all eight tables in the session.
    pub fn load(session: &Session, data: &TpchData) -> Result<TpchFrames> {
        let load = |t: &crate::gen::Table| -> Result<DataFrame> {
            session.frame(
                t.schema.fields().iter().map(|f| f.name.to_string()).collect::<Vec<_>>(),
                t.cols.clone(),
            )
        };
        Ok(TpchFrames {
            lineitem: load(&data.lineitem)?,
            orders: load(&data.orders)?,
            customer: load(&data.customer)?,
            supplier: load(&data.supplier)?,
            part: load(&data.part)?,
            partsupp: load(&data.partsupp)?,
            nation: load(&data.nation)?,
            region: load(&data.region)?,
        })
    }
}

/// Run query `n` (1–10) and return its result frame.
pub fn run(n: usize, f: &TpchFrames) -> Result<DataFrame> {
    match n {
        1 => q1(f),
        2 => q2(f),
        3 => q3(f),
        4 => q4(f),
        5 => q5(f),
        6 => q6(f),
        7 => q7(f),
        8 => q8(f),
        9 => q9(f),
        10 => q10(f),
        _ => panic!("TPC-H queries 1-10 only"),
    }
}

/// Q1: pricing summary report (single-table scan + group).
pub fn q1(f: &TpchFrames) -> Result<DataFrame> {
    // Projection pushdown by hand: only the 7 needed columns.
    let li = f.lineitem.select(&[
        "l_returnflag",
        "l_linestatus",
        "l_quantity",
        "l_extendedprice",
        "l_discount",
        "l_tax",
        "l_shipdate",
    ])?;
    let mask = ops::mask_cmp(
        li.col("l_shipdate")?,
        MaskOp::Le,
        &Value::Date(monetlite_types::Date::parse("1998-09-02")?),
    );
    let li = li.filter(&mask)?;
    let price = ops::to_f64(li.col("l_extendedprice")?)?;
    let disc = ops::to_f64(li.col("l_discount")?)?;
    let tax = ops::to_f64(li.col("l_tax")?)?;
    let disc_price: Vec<f64> = price.iter().zip(&disc).map(|(&p, &d)| p * (1.0 - d)).collect();
    let charge = disc_price.iter().zip(&tax).map(|(&dp, &t)| dp * (1.0 + t)).collect();
    let li = li
        .with_column("disc_price", monetlite_types::ColumnBuffer::Double(disc_price))?
        .with_column("charge", monetlite_types::ColumnBuffer::Double(charge))?;
    li.group_by(
        &["l_returnflag", "l_linestatus"],
        &[
            ("l_quantity", AggOp::Sum, "sum_qty"),
            ("l_extendedprice", AggOp::Sum, "sum_base_price"),
            ("disc_price", AggOp::Sum, "sum_disc_price"),
            ("charge", AggOp::Sum, "sum_charge"),
            ("l_quantity", AggOp::Mean, "avg_qty"),
            ("l_extendedprice", AggOp::Mean, "avg_price"),
            ("l_discount", AggOp::Mean, "avg_disc"),
            ("l_quantity", AggOp::CountStar, "count_order"),
        ],
    )?
    .sort_by(&[("l_returnflag", false), ("l_linestatus", false)])
}

/// Q2: minimum-cost supplier (correlated min decorrelated by hand).
pub fn q2(f: &TpchFrames) -> Result<DataFrame> {
    // European suppliers only.
    let eu = f.region.filter(&ops::mask_cmp(
        f.region.col("r_name")?,
        MaskOp::Eq,
        &Value::Str("EUROPE".into()),
    ))?;
    let nations = f.nation.join(&eu, &["n_regionkey"], &["r_regionkey"], JoinHow::Semi)?;
    let supp = f
        .supplier
        .select(&[
            "s_suppkey",
            "s_nationkey",
            "s_acctbal",
            "s_name",
            "s_address",
            "s_phone",
            "s_comment",
        ])?
        .join(&nations, &["s_nationkey"], &["n_nationkey"], JoinHow::Semi)?;
    let ps = f.partsupp.select(&["ps_partkey", "ps_suppkey", "ps_supplycost"])?.join(
        &supp,
        &["ps_suppkey"],
        &["s_suppkey"],
        JoinHow::Semi,
    )?;
    // Per-part minimum cost among European suppliers.
    let mins = ps.group_by(&["ps_partkey"], &[("ps_supplycost", AggOp::Min, "min_cost")])?;
    // Parts of interest.
    let p = f.part.select(&["p_partkey", "p_mfgr", "p_size", "p_type"])?;
    let mask = ops::mask_and(
        &ops::mask_cmp(p.col("p_size")?, MaskOp::Eq, &Value::Int(15)),
        &ops::mask_ends_with(p.col("p_type")?, "BRASS"),
    );
    let p = p.filter(&mask)?;
    // Partsupp rows matching the per-part minimum.
    let ps2 = ps.join(&mins, &["ps_partkey"], &["ps_partkey"], JoinHow::Inner)?;
    let at_min = ops::mask_cmp_cols(ps2.col("ps_supplycost")?, MaskOp::Eq, ps2.col("min_cost")?);
    let ps2 = ps2.filter(&at_min)?;
    let hits = ps2.join(&p, &["ps_partkey"], &["p_partkey"], JoinHow::Inner)?;
    // Re-attach supplier and nation details.
    let supp_full = supp.join(
        &f.nation.select(&["n_nationkey", "n_name"])?,
        &["s_nationkey"],
        &["n_nationkey"],
        JoinHow::Inner,
    )?;
    let out = hits.join(&supp_full, &["ps_suppkey"], &["s_suppkey"], JoinHow::Inner)?;
    let out = out.with_column("p_partkey", out.col("ps_partkey")?.clone())?.select(&[
        "s_acctbal",
        "s_name",
        "n_name",
        "p_partkey",
        "p_mfgr",
        "s_address",
        "s_phone",
        "s_comment",
    ])?;
    out.sort_by(&[("s_acctbal", true), ("n_name", false), ("s_name", false), ("p_partkey", false)])?
        .head(100)
}

/// Q3: shipping priority (top unshipped orders).
pub fn q3(f: &TpchFrames) -> Result<DataFrame> {
    let cutoff = Value::Date(monetlite_types::Date::parse("1995-03-15")?);
    let cust = f.customer.select(&["c_custkey", "c_mktsegment"])?;
    let cust = cust.filter(&ops::mask_cmp(
        cust.col("c_mktsegment")?,
        MaskOp::Eq,
        &Value::Str("BUILDING".into()),
    ))?;
    let ord = f.orders.select(&["o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"])?;
    let ord = ord.filter(&ops::mask_cmp(ord.col("o_orderdate")?, MaskOp::Lt, &cutoff))?;
    let ord = ord.join(&cust, &["o_custkey"], &["c_custkey"], JoinHow::Semi)?;
    let li = f.lineitem.select(&["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"])?;
    let li = li.filter(&ops::mask_cmp(li.col("l_shipdate")?, MaskOp::Gt, &cutoff))?;
    let j = li.join(&ord, &["l_orderkey"], &["o_orderkey"], JoinHow::Inner)?;
    let price = ops::to_f64(j.col("l_extendedprice")?)?;
    let disc = ops::to_f64(j.col("l_discount")?)?;
    let j = j.with_column("rev", ops::zip_f64(&price, &disc, |p, d| p * (1.0 - d)))?;
    j.group_by(&["l_orderkey", "o_orderdate", "o_shippriority"], &[("rev", AggOp::Sum, "revenue")])?
        .sort_by(&[("revenue", true), ("o_orderdate", false)])?
        .head(10)
}

/// Q4: order priority checking (EXISTS → semi join by hand).
pub fn q4(f: &TpchFrames) -> Result<DataFrame> {
    let ord = f.orders.select(&["o_orderkey", "o_orderdate", "o_orderpriority"])?;
    let m = ops::mask_date_between(ord.col("o_orderdate")?, "1993-07-01", "1993-09-30")?;
    let ord = ord.filter(&m)?;
    let li = f.lineitem.select(&["l_orderkey", "l_commitdate", "l_receiptdate"])?;
    let late = ops::mask_cmp_cols(li.col("l_commitdate")?, MaskOp::Lt, li.col("l_receiptdate")?);
    let li = li.filter(&late)?;
    let ord = ord.join(&li, &["o_orderkey"], &["l_orderkey"], JoinHow::Semi)?;
    ord.group_by(&["o_orderpriority"], &[("o_orderkey", AggOp::CountStar, "order_count")])?
        .sort_by(&[("o_orderpriority", false)])
}

/// Q5: local supplier volume (6-way join, hand-ordered smallest-first).
pub fn q5(f: &TpchFrames) -> Result<DataFrame> {
    let asia = f.region.filter(&ops::mask_cmp(
        f.region.col("r_name")?,
        MaskOp::Eq,
        &Value::Str("ASIA".into()),
    ))?;
    let nations = f.nation.select(&["n_nationkey", "n_name", "n_regionkey"])?.join(
        &asia,
        &["n_regionkey"],
        &["r_regionkey"],
        JoinHow::Semi,
    )?;
    let ord = f.orders.select(&["o_orderkey", "o_custkey", "o_orderdate"])?;
    let m = ops::mask_date_between(ord.col("o_orderdate")?, "1994-01-01", "1994-12-31")?;
    let ord = ord.filter(&m)?;
    let cust = f.customer.select(&["c_custkey", "c_nationkey"])?;
    let oc = ord.join(&cust, &["o_custkey"], &["c_custkey"], JoinHow::Inner)?;
    let li = f.lineitem.select(&["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"])?;
    let j = li.join(&oc, &["l_orderkey"], &["o_orderkey"], JoinHow::Inner)?;
    let supp = f.supplier.select(&["s_suppkey", "s_nationkey"])?;
    // Both join conditions at once: supplier key AND same nation as the
    // customer (the "local supplier" condition).
    let j = j.join(
        &supp,
        &["l_suppkey", "c_nationkey"],
        &["s_suppkey", "s_nationkey"],
        JoinHow::Inner,
    )?;
    let j = j.join(&nations, &["c_nationkey"], &["n_nationkey"], JoinHow::Inner)?;
    let price = ops::to_f64(j.col("l_extendedprice")?)?;
    let disc = ops::to_f64(j.col("l_discount")?)?;
    let j = j.with_column("rev", ops::zip_f64(&price, &disc, |p, d| p * (1.0 - d)))?;
    j.group_by(&["n_name"], &[("rev", AggOp::Sum, "revenue")])?.sort_by(&[("revenue", true)])
}

/// Q6: forecasting revenue change (pure scan).
pub fn q6(f: &TpchFrames) -> Result<DataFrame> {
    let li = f.lineitem.select(&["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"])?;
    let m = ops::mask_date_between(li.col("l_shipdate")?, "1994-01-01", "1994-12-31")?;
    let m = ops::mask_and(
        &m,
        &ops::mask_cmp(
            li.col("l_discount")?,
            MaskOp::Ge,
            &Value::Decimal(monetlite_types::Decimal::parse("0.05")?),
        ),
    );
    let m = ops::mask_and(
        &m,
        &ops::mask_cmp(
            li.col("l_discount")?,
            MaskOp::Le,
            &Value::Decimal(monetlite_types::Decimal::parse("0.07")?),
        ),
    );
    let m = ops::mask_and(
        &m,
        &ops::mask_cmp(
            li.col("l_quantity")?,
            MaskOp::Lt,
            &Value::Decimal(monetlite_types::Decimal::parse("24")?),
        ),
    );
    let li = li.filter(&m)?;
    let price = ops::to_f64(li.col("l_extendedprice")?)?;
    let disc = ops::to_f64(li.col("l_discount")?)?;
    let li = li.with_column("rev", ops::zip_f64(&price, &disc, |p, d| p * d))?;
    li.group_by(&[], &[("rev", AggOp::Sum, "revenue")])
}

/// Q7: volume shipping between FRANCE and GERMANY.
pub fn q7(f: &TpchFrames) -> Result<DataFrame> {
    let two = f.nation.select(&["n_nationkey", "n_name"])?;
    let two = two.filter(&ops::mask_in(two.col("n_name")?, &["FRANCE", "GERMANY"]))?;
    let supp = f
        .supplier
        .select(&["s_suppkey", "s_nationkey"])?
        .join(&two, &["s_nationkey"], &["n_nationkey"], JoinHow::Inner)?
        .select(&["s_suppkey", "n_name"])?;
    let cust = f
        .customer
        .select(&["c_custkey", "c_nationkey"])?
        .join(&two, &["c_nationkey"], &["n_nationkey"], JoinHow::Inner)?
        .select(&["c_custkey", "n_name"])?;
    let li = f.lineitem.select(&[
        "l_orderkey",
        "l_suppkey",
        "l_shipdate",
        "l_extendedprice",
        "l_discount",
    ])?;
    let m = ops::mask_date_between(li.col("l_shipdate")?, "1995-01-01", "1996-12-31")?;
    let li = li.filter(&m)?;
    let li = li.join(&supp, &["l_suppkey"], &["s_suppkey"], JoinHow::Inner)?;
    let li = li.with_column("supp_nation", li.col("n_name")?.clone())?.select(&[
        "l_orderkey",
        "l_shipdate",
        "l_extendedprice",
        "l_discount",
        "supp_nation",
    ])?;
    let ord = f.orders.select(&["o_orderkey", "o_custkey"])?;
    let oc = ord.join(&cust, &["o_custkey"], &["c_custkey"], JoinHow::Inner)?;
    let oc = oc
        .with_column("cust_nation", oc.col("n_name")?.clone())?
        .select(&["o_orderkey", "cust_nation"])?;
    let j = li.join(&oc, &["l_orderkey"], &["o_orderkey"], JoinHow::Inner)?;
    // Keep only the FR→DE and DE→FR pairs.
    let fr_de = ops::mask_and(
        &ops::mask_cmp(j.col("supp_nation")?, MaskOp::Eq, &Value::Str("FRANCE".into())),
        &ops::mask_cmp(j.col("cust_nation")?, MaskOp::Eq, &Value::Str("GERMANY".into())),
    );
    let de_fr = ops::mask_and(
        &ops::mask_cmp(j.col("supp_nation")?, MaskOp::Eq, &Value::Str("GERMANY".into())),
        &ops::mask_cmp(j.col("cust_nation")?, MaskOp::Eq, &Value::Str("FRANCE".into())),
    );
    let j = j.filter(&ops::mask_or(&fr_de, &de_fr))?;
    let price = ops::to_f64(j.col("l_extendedprice")?)?;
    let disc = ops::to_f64(j.col("l_discount")?)?;
    let j = j
        .with_column("volume", ops::zip_f64(&price, &disc, |p, d| p * (1.0 - d)))?
        .with_column("l_year", ops::year(j.col("l_shipdate")?))?;
    j.group_by(&["supp_nation", "cust_nation", "l_year"], &[("volume", AggOp::Sum, "revenue")])?
        .sort_by(&[("supp_nation", false), ("cust_nation", false), ("l_year", false)])
}

/// Q8: national market share.
pub fn q8(f: &TpchFrames) -> Result<DataFrame> {
    let p = f.part.select(&["p_partkey", "p_type"])?;
    let p = p.filter(&ops::mask_cmp(
        p.col("p_type")?,
        MaskOp::Eq,
        &Value::Str("ECONOMY ANODIZED STEEL".into()),
    ))?;
    let li = f.lineitem.select(&[
        "l_orderkey",
        "l_partkey",
        "l_suppkey",
        "l_extendedprice",
        "l_discount",
    ])?;
    let li = li.join(&p, &["l_partkey"], &["p_partkey"], JoinHow::Semi)?;
    let ord = f.orders.select(&["o_orderkey", "o_custkey", "o_orderdate"])?;
    let m = ops::mask_date_between(ord.col("o_orderdate")?, "1995-01-01", "1996-12-31")?;
    let ord = ord.filter(&m)?;
    let j = li.join(&ord, &["l_orderkey"], &["o_orderkey"], JoinHow::Inner)?;
    // Customers in AMERICA.
    let america = f.region.filter(&ops::mask_cmp(
        f.region.col("r_name")?,
        MaskOp::Eq,
        &Value::Str("AMERICA".into()),
    ))?;
    let n1 = f.nation.select(&["n_nationkey", "n_regionkey"])?.join(
        &america,
        &["n_regionkey"],
        &["r_regionkey"],
        JoinHow::Semi,
    )?;
    let cust = f.customer.select(&["c_custkey", "c_nationkey"])?.join(
        &n1,
        &["c_nationkey"],
        &["n_nationkey"],
        JoinHow::Semi,
    )?;
    let j = j.join(&cust, &["o_custkey"], &["c_custkey"], JoinHow::Semi)?;
    // Supplier nation name.
    let supp = f.supplier.select(&["s_suppkey", "s_nationkey"])?;
    let j = j.join(&supp, &["l_suppkey"], &["s_suppkey"], JoinHow::Inner)?;
    let n2 = f.nation.select(&["n_nationkey", "n_name"])?;
    let j = j.join(&n2, &["s_nationkey"], &["n_nationkey"], JoinHow::Inner)?;
    let price = ops::to_f64(j.col("l_extendedprice")?)?;
    let disc = ops::to_f64(j.col("l_discount")?)?;
    let volume: Vec<f64> = price.iter().zip(&disc).map(|(&p, &d)| p * (1.0 - d)).collect();
    let brazil = ops::mask_cmp(j.col("n_name")?, MaskOp::Eq, &Value::Str("BRAZIL".into()));
    let bra_vol: Vec<f64> =
        volume.iter().zip(&brazil).map(|(&v, &b)| if b { v } else { 0.0 }).collect();
    let j = j
        .with_column("volume", monetlite_types::ColumnBuffer::Double(volume))?
        .with_column("bra_volume", monetlite_types::ColumnBuffer::Double(bra_vol))?
        .with_column("o_year", ops::year(j.col("o_orderdate")?))?;
    let g = j.group_by(
        &["o_year"],
        &[("bra_volume", AggOp::Sum, "bra"), ("volume", AggOp::Sum, "total")],
    )?;
    let bra = ops::to_f64(g.col("bra")?)?;
    let total = ops::to_f64(g.col("total")?)?;
    let g = g.with_column("mkt_share", ops::zip_f64(&bra, &total, |b, t| b / t))?;
    g.select(&["o_year", "mkt_share"])?.sort_by(&[("o_year", false)])
}

/// Q9: product-type profit measure.
pub fn q9(f: &TpchFrames) -> Result<DataFrame> {
    let p = f.part.select(&["p_partkey", "p_name"])?;
    let p = p.filter(&ops::mask_contains(p.col("p_name")?, "green"))?;
    let li = f.lineitem.select(&[
        "l_orderkey",
        "l_partkey",
        "l_suppkey",
        "l_quantity",
        "l_extendedprice",
        "l_discount",
    ])?;
    let li = li.join(&p, &["l_partkey"], &["p_partkey"], JoinHow::Semi)?;
    let ps = f.partsupp.select(&["ps_partkey", "ps_suppkey", "ps_supplycost"])?;
    let j =
        li.join(&ps, &["l_partkey", "l_suppkey"], &["ps_partkey", "ps_suppkey"], JoinHow::Inner)?;
    let supp = f.supplier.select(&["s_suppkey", "s_nationkey"])?;
    let j = j.join(&supp, &["l_suppkey"], &["s_suppkey"], JoinHow::Inner)?;
    let nat = f.nation.select(&["n_nationkey", "n_name"])?;
    let j = j.join(&nat, &["s_nationkey"], &["n_nationkey"], JoinHow::Inner)?;
    let ord = f.orders.select(&["o_orderkey", "o_orderdate"])?;
    let j = j.join(&ord, &["l_orderkey"], &["o_orderkey"], JoinHow::Inner)?;
    let price = ops::to_f64(j.col("l_extendedprice")?)?;
    let disc = ops::to_f64(j.col("l_discount")?)?;
    let cost = ops::to_f64(j.col("ps_supplycost")?)?;
    let qty = ops::to_f64(j.col("l_quantity")?)?;
    let amount: Vec<f64> =
        (0..price.len()).map(|i| price[i] * (1.0 - disc[i]) - cost[i] * qty[i]).collect();
    let j = j
        .with_column("amount", monetlite_types::ColumnBuffer::Double(amount))?
        .with_column("o_year", ops::year(j.col("o_orderdate")?))?
        .with_column("nation", j.col("n_name")?.clone())?;
    j.group_by(&["nation", "o_year"], &[("amount", AggOp::Sum, "sum_profit")])?
        .sort_by(&[("nation", false), ("o_year", true)])
}

/// Q10: returned-item reporting.
pub fn q10(f: &TpchFrames) -> Result<DataFrame> {
    let ord = f.orders.select(&["o_orderkey", "o_custkey", "o_orderdate"])?;
    let m = ops::mask_date_between(ord.col("o_orderdate")?, "1993-10-01", "1993-12-31")?;
    let ord = ord.filter(&m)?;
    let li = f.lineitem.select(&["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"])?;
    let li =
        li.filter(&ops::mask_cmp(li.col("l_returnflag")?, MaskOp::Eq, &Value::Str("R".into())))?;
    let j = li.join(&ord, &["l_orderkey"], &["o_orderkey"], JoinHow::Inner)?;
    let cust = f.customer.select(&[
        "c_custkey",
        "c_name",
        "c_acctbal",
        "c_phone",
        "c_nationkey",
        "c_address",
        "c_comment",
    ])?;
    let j = j.join(&cust, &["o_custkey"], &["c_custkey"], JoinHow::Inner)?;
    let nat = f.nation.select(&["n_nationkey", "n_name"])?;
    let j = j.join(&nat, &["c_nationkey"], &["n_nationkey"], JoinHow::Inner)?;
    let price = ops::to_f64(j.col("l_extendedprice")?)?;
    let disc = ops::to_f64(j.col("l_discount")?)?;
    let j = j
        .with_column("rev", ops::zip_f64(&price, &disc, |p, d| p * (1.0 - d)))?
        .with_column("c_custkey", j.col("o_custkey")?.clone())?;
    j.group_by(
        &["c_custkey", "c_name", "c_acctbal", "c_phone", "n_name", "c_address", "c_comment"],
        &[("rev", AggOp::Sum, "revenue")],
    )?
    .sort_by(&[("revenue", true)])?
    .head(20)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn all_queries_run_on_tiny_data() {
        let data = generate(0.002, 11);
        let session = Session::unlimited();
        let frames = TpchFrames::load(&session, &data).unwrap();
        for n in 1..=10 {
            let r = run(n, &frames);
            assert!(r.is_ok(), "frame Q{n} failed: {:?}", r.err());
        }
    }

    #[test]
    fn q1_has_expected_shape() {
        let data = generate(0.002, 11);
        let session = Session::unlimited();
        let frames = TpchFrames::load(&session, &data).unwrap();
        let r = q1(&frames).unwrap();
        assert!(r.rows() >= 3, "expect at least 3 flag/status groups");
        assert!(r.names().contains(&"sum_disc_price".to_string()));
    }

    #[test]
    fn oom_surfaces_at_load_or_query() {
        let data = generate(0.002, 11);
        let tight = Session::with_budget(100 * 1024);
        let r = TpchFrames::load(&tight, &data);
        // Either loading or the first join must exhaust the budget.
        let failed = match r {
            Err(monetlite_types::MlError::OutOfMemory { .. }) => true,
            Err(e) => panic!("unexpected error {e:?}"),
            Ok(frames) => run(5, &frames).is_err(),
        };
        assert!(failed, "tight budget must OOM somewhere");
    }
}
