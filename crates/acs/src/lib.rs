//! # monetlite-acs
//!
//! The American Community Survey workload of the paper's §4.3: a synthetic
//! census PUMS dataset with the real one's shape — **274 columns** of
//! person records (weights, 80 replicate weights, demographic codes) for a
//! handful of states — plus the survey-package analysis pipeline:
//! weighted estimates whose standard errors come from successive
//! difference replication over the replicate weights.
//!
//! The paper's experiment measures (Fig 7) loading this wide table into
//! each database and (Fig 8) running statistics where "most of the actual
//! processing happens inside R rather than inside the database" — here,
//! the replicate-weight loop in [`survey`] — so engine differences stay
//! under 2×.

#![forbid(unsafe_code)]

pub mod survey;

use monetlite_types::{ColumnBuffer, Field, LogicalType, Result, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of replicate weights (the ACS publishes 80).
pub const N_REPLICATES: usize = 80;

/// Total column count (matches the paper's "274 columns").
pub const N_COLUMNS: usize = 274;

/// The synthetic census table.
pub struct AcsData {
    /// Column definitions (274 fields).
    pub schema: Schema,
    /// Column-major data.
    pub cols: Vec<ColumnBuffer>,
    /// Row count.
    pub rows: usize,
}

impl AcsData {
    /// Total bytes of the host representation.
    pub fn bytes(&self) -> usize {
        self.cols.iter().map(|c| c.size_bytes()).sum()
    }
}

/// State codes used (5 states, like the paper's 5-state subset).
pub const STATES: [i32; 5] = [6, 36, 48, 12, 17]; // CA, NY, TX, FL, IL

/// Generate `rows` person records, deterministic in `seed`.
pub fn generate(rows: usize, seed: u64) -> AcsData {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fields = Vec::with_capacity(N_COLUMNS);
    let mut cols: Vec<ColumnBuffer> = Vec::with_capacity(N_COLUMNS);

    // Identification + core demographics.
    fields.push(Field::not_null("serialno", LogicalType::Int));
    cols.push(ColumnBuffer::Int((0..rows as i32).collect()));
    fields.push(Field::not_null("st", LogicalType::Int));
    cols.push(ColumnBuffer::Int(
        (0..rows).map(|_| STATES[rng.random_range(0..STATES.len())]).collect(),
    ));
    fields.push(Field::not_null("agep", LogicalType::Int));
    cols.push(ColumnBuffer::Int((0..rows).map(|_| rng.random_range(0..=95)).collect()));
    fields.push(Field::not_null("sex", LogicalType::Int));
    cols.push(ColumnBuffer::Int((0..rows).map(|_| rng.random_range(1..=2)).collect()));
    // Income: zero for minors, right-skewed for adults (a few NULLs).
    fields.push(Field::new("pincp", LogicalType::Double));
    let ages = match &cols[2] {
        ColumnBuffer::Int(v) => v.clone(),
        _ => unreachable!(),
    };
    cols.push(ColumnBuffer::Double(
        (0..rows)
            .map(|i| {
                if ages[i] < 16 {
                    0.0
                } else if rng.random_ratio(1, 50) {
                    f64::NAN // missing response
                } else {
                    let base: f64 = rng.random_range(8.5..12.5);
                    base.exp().min(500_000.0)
                }
            })
            .collect(),
    ));
    fields.push(Field::new("wagp", LogicalType::Double));
    cols.push(ColumnBuffer::Double(
        (0..rows)
            .map(|i| if ages[i] < 16 { 0.0 } else { rng.random_range(0.0..150_000.0) })
            .collect(),
    ));

    // The person weight and 80 replicate weights.
    fields.push(Field::not_null("pwgtp", LogicalType::Int));
    let weights: Vec<i32> = (0..rows).map(|_| rng.random_range(1..=200)).collect();
    cols.push(ColumnBuffer::Int(weights.clone()));
    for r in 1..=N_REPLICATES {
        fields.push(Field::not_null(format!("pwgtp{r}"), LogicalType::Int));
        // Replicates perturb the base weight (successive difference
        // replication keeps them near the base).
        cols.push(ColumnBuffer::Int(
            weights
                .iter()
                .map(|&w| {
                    let f = rng.random_range(0.6..1.4);
                    ((w as f64 * f) as i32).max(0)
                })
                .collect(),
        ));
    }

    // Filler survey variables (categorical codes) up to 274 columns.
    while fields.len() < N_COLUMNS {
        let i = fields.len();
        fields.push(Field::new(format!("v{i:03}"), LogicalType::Int));
        let cardinality = [2, 5, 10, 100][i % 4];
        cols.push(ColumnBuffer::Int((0..rows).map(|_| rng.random_range(0..cardinality)).collect()));
    }

    let schema = Schema::new(fields).expect("generated names are unique");
    AcsData { schema, cols, rows }
}

/// Host-side preprocessing ("the survey package performs a lot of
/// preprocessing in R that happens regardless of which database is
/// used"): derive an age-group recode column. Runs *before* any DB load
/// in the Fig 7 measurement.
pub fn wrangle(mut data: AcsData) -> Result<AcsData> {
    let agegrp: Vec<i32> = match &data.cols[2] {
        ColumnBuffer::Int(ages) => ages.iter().map(|&a| a / 5).collect(),
        _ => unreachable!(),
    };
    let mut fields: Vec<Field> = data.schema.fields().to_vec();
    fields.push(Field::not_null("agegrp", LogicalType::Int));
    data.cols.push(ColumnBuffer::Int(agegrp));
    data.schema = Schema::new(fields)?;
    Ok(data)
}

/// CREATE TABLE for the (wrangled) ACS table.
pub fn ddl(data: &AcsData) -> String {
    let cols: Vec<String> = data
        .schema
        .fields()
        .iter()
        .map(|f| {
            format!("{} {}{}", f.name, sql_type(f.ty), if f.nullable { "" } else { " NOT NULL" })
        })
        .collect();
    format!("CREATE TABLE acs ({})", cols.join(", "))
}

fn sql_type(ty: LogicalType) -> String {
    match ty {
        LogicalType::Int => "INTEGER".into(),
        LogicalType::Double => "DOUBLE".into(),
        LogicalType::Varchar => "VARCHAR(64)".into(),
        LogicalType::Bigint => "BIGINT".into(),
        LogicalType::Bool => "BOOLEAN".into(),
        LogicalType::Date => "DATE".into(),
        LogicalType::Decimal { width, scale } => format!("DECIMAL({width},{scale})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_the_paper() {
        let d = generate(500, 1);
        assert_eq!(d.schema.len(), 274);
        assert_eq!(d.cols.len(), 274);
        assert_eq!(d.rows, 500);
        // 80 replicate weights present.
        assert!(d.schema.index_of("pwgtp80").is_some());
        assert!(d.schema.index_of("pwgtp81").is_none());
    }

    #[test]
    fn deterministic() {
        let a = generate(100, 7);
        let b = generate(100, 7);
        assert_eq!(a.cols[1].get(50), b.cols[1].get(50));
        assert_eq!(a.cols[100].get(99), b.cols[100].get(99));
    }

    #[test]
    fn wrangle_appends_recode() {
        let d = wrangle(generate(100, 7)).unwrap();
        assert_eq!(d.schema.len(), 275);
        let age = d.cols[2].get(10);
        let grp = d.cols[274].get(10);
        if let (monetlite_types::Value::Int(a), monetlite_types::Value::Int(g)) = (age, grp) {
            assert_eq!(g, a / 5);
        } else {
            panic!("int columns expected");
        }
    }

    #[test]
    fn ddl_loads_into_monetlite() {
        let d = wrangle(generate(200, 3)).unwrap();
        let db = monetlite::Database::open_in_memory();
        let mut conn = db.connect();
        conn.execute(&ddl(&d)).unwrap();
        conn.append("acs", &d.cols).unwrap();
        let r = conn.query("SELECT count(*), sum(pwgtp) FROM acs").unwrap();
        assert_eq!(r.value(0, 0), monetlite_types::Value::Bigint(200));
    }
}
