//! Survey-package statistics: weighted estimates with standard errors
//! from successive difference replication (the R `survey` package's
//! `svrepdesign` path used by the paper's ACS script).
//!
//! The estimator for a statistic θ with replicate estimates θ₁..θ₈₀ is
//! `SE(θ) = sqrt(4/80 · Σᵣ (θᵣ − θ)²)`. The replicate loop is the
//! host-side compute that dominates Figure 8 regardless of the database
//! engine.

use crate::N_REPLICATES;
use monetlite_frame::ops;
use monetlite_types::{ColumnBuffer, MlError, Result};

/// A point estimate with its replication standard error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The full-sample weighted estimate.
    pub value: f64,
    /// Successive-difference-replication standard error.
    pub se: f64,
}

/// Abstracts "get me these columns of the acs table" so the same analysis
/// runs over any backend (embedded zero-copy export, row store, socket).
pub trait ColumnSource {
    /// Fetch columns by name, aligned row-wise.
    fn columns(&mut self, names: &[&str]) -> Result<Vec<ColumnBuffer>>;
}

fn replicate_names() -> Vec<String> {
    (1..=N_REPLICATES).map(|r| format!("pwgtp{r}")).collect()
}

/// Weighted total of `var` with SDR standard error.
pub fn weighted_total(src: &mut dyn ColumnSource, var: &str) -> Result<Estimate> {
    let rep_names = replicate_names();
    let mut names: Vec<&str> = vec![var, "pwgtp"];
    names.extend(rep_names.iter().map(|s| s.as_str()));
    let cols = src.columns(&names)?;
    let x = ops::to_f64(&cols[0])?;
    let w = ops::to_f64(&cols[1])?;
    let theta = dot_ignore_nan(&x, &w);
    let mut sq = 0.0;
    for rep in &cols[2..] {
        let wr = ops::to_f64(rep)?;
        let tr = dot_ignore_nan(&x, &wr);
        sq += (tr - theta) * (tr - theta);
    }
    Ok(Estimate { value: theta, se: (4.0 / N_REPLICATES as f64 * sq).sqrt() })
}

/// Weighted mean of `var` with SDR standard error.
pub fn weighted_mean(src: &mut dyn ColumnSource, var: &str) -> Result<Estimate> {
    let rep_names = replicate_names();
    let mut names: Vec<&str> = vec![var, "pwgtp"];
    names.extend(rep_names.iter().map(|s| s.as_str()));
    let cols = src.columns(&names)?;
    let x = ops::to_f64(&cols[0])?;
    let w = ops::to_f64(&cols[1])?;
    let theta = ratio_ignore_nan(&x, &w)?;
    let mut sq = 0.0;
    for rep in &cols[2..] {
        let wr = ops::to_f64(rep)?;
        let tr = ratio_ignore_nan(&x, &wr)?;
        sq += (tr - theta) * (tr - theta);
    }
    Ok(Estimate { value: theta, se: (4.0 / N_REPLICATES as f64 * sq).sqrt() })
}

/// Weighted totals of `var` per value of the (integer) `by` column —
/// returns (group value, estimate) pairs sorted by group.
pub fn grouped_total(
    src: &mut dyn ColumnSource,
    var: &str,
    by: &str,
) -> Result<Vec<(i32, Estimate)>> {
    let rep_names = replicate_names();
    let mut names: Vec<&str> = vec![var, by, "pwgtp"];
    names.extend(rep_names.iter().map(|s| s.as_str()));
    let cols = src.columns(&names)?;
    let x = ops::to_f64(&cols[0])?;
    let groups = match &cols[1] {
        ColumnBuffer::Int(v) => v,
        other => {
            return Err(MlError::TypeMismatch(format!(
                "grouping column must be INTEGER, got {}",
                other.logical_type()
            )))
        }
    };
    let mut keys: Vec<i32> = groups.to_vec();
    keys.sort_unstable();
    keys.dedup();
    let w = ops::to_f64(&cols[2])?;
    let reps: Vec<Vec<f64>> = cols[3..].iter().map(ops::to_f64).collect::<Result<_>>()?;
    let mut out = Vec::with_capacity(keys.len());
    for &k in &keys {
        let mask: Vec<bool> = groups.iter().map(|&g| g == k).collect();
        let theta = masked_dot(&x, &w, &mask);
        let mut sq = 0.0;
        for wr in &reps {
            let tr = masked_dot(&x, wr, &mask);
            sq += (tr - theta) * (tr - theta);
        }
        out.push((k, Estimate { value: theta, se: (4.0 / N_REPLICATES as f64 * sq).sqrt() }));
    }
    Ok(out)
}

/// The full Figure-8 statistics battery. Returns (label, estimate) pairs.
pub fn analysis(src: &mut dyn ColumnSource) -> Result<Vec<(String, Estimate)>> {
    let mut out = vec![
        ("total_population".into(), population_total(src)?),
        ("mean_income".into(), weighted_mean(src, "pincp")?),
        ("total_wages".into(), weighted_total(src, "wagp")?),
        ("mean_age".into(), weighted_mean(src, "agep")?),
    ];
    for (state, est) in grouped_total(src, "wagp", "st")? {
        out.push((format!("wages_state_{state}"), est));
    }
    Ok(out)
}

fn population_total(src: &mut dyn ColumnSource) -> Result<Estimate> {
    // Total population = sum of weights; SE over replicates.
    let rep_names = replicate_names();
    let mut names: Vec<&str> = vec!["pwgtp"];
    names.extend(rep_names.iter().map(|s| s.as_str()));
    let cols = src.columns(&names)?;
    let w = ops::to_f64(&cols[0])?;
    let theta: f64 = w.iter().filter(|v| !v.is_nan()).sum();
    let mut sq = 0.0;
    for rep in &cols[1..] {
        let wr = ops::to_f64(rep)?;
        let tr: f64 = wr.iter().filter(|v| !v.is_nan()).sum();
        sq += (tr - theta) * (tr - theta);
    }
    Ok(Estimate { value: theta, se: (4.0 / N_REPLICATES as f64 * sq).sqrt() })
}

fn dot_ignore_nan(x: &[f64], w: &[f64]) -> f64 {
    x.iter().zip(w).filter(|(a, b)| !a.is_nan() && !b.is_nan()).map(|(a, b)| a * b).sum()
}

fn ratio_ignore_nan(x: &[f64], w: &[f64]) -> Result<f64> {
    let mut num = 0.0;
    let mut den = 0.0;
    for (a, b) in x.iter().zip(w) {
        if !a.is_nan() && !b.is_nan() {
            num += a * b;
            den += b;
        }
    }
    if den == 0.0 {
        return Err(MlError::Execution("weighted mean over zero weights".into()));
    }
    Ok(num / den)
}

fn masked_dot(x: &[f64], w: &[f64], mask: &[bool]) -> f64 {
    let mut s = 0.0;
    for i in 0..x.len() {
        if mask[i] && !x[i].is_nan() && !w[i].is_nan() {
            s += x[i] * w[i];
        }
    }
    s
}

/// Trivial in-memory source (tests and the library baseline).
pub struct BufferSource {
    /// Column names (aligned with `cols`).
    pub names: Vec<String>,
    /// Columns.
    pub cols: Vec<ColumnBuffer>,
}

impl ColumnSource for BufferSource {
    fn columns(&mut self, names: &[&str]) -> Result<Vec<ColumnBuffer>> {
        names
            .iter()
            .map(|n| {
                let lower = n.to_lowercase();
                self.names
                    .iter()
                    .position(|x| *x == lower)
                    .map(|i| self.cols[i].clone())
                    .ok_or_else(|| MlError::Catalog(format!("unknown column '{n}'")))
            })
            .collect()
    }
}

impl BufferSource {
    /// Build from generated data.
    pub fn from_data(data: &crate::AcsData) -> BufferSource {
        BufferSource {
            names: data.schema.fields().iter().map(|f| f.name.to_string()).collect(),
            cols: data.cols.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn population_total_matches_weight_sum() {
        let d = generate(400, 5);
        let mut src = BufferSource::from_data(&d);
        let est = analysis(&mut src).unwrap();
        let (label, pop) = &est[0];
        assert_eq!(label, "total_population");
        let expected: f64 = match &d.cols[d.schema.index_of("pwgtp").unwrap()] {
            ColumnBuffer::Int(v) => v.iter().map(|&w| w as f64).sum(),
            _ => panic!(),
        };
        assert!((pop.value - expected).abs() < 1e-6);
        assert!(pop.se > 0.0, "replicates must produce a nonzero SE");
    }

    #[test]
    fn weighted_mean_is_in_range() {
        let d = generate(400, 6);
        let mut src = BufferSource::from_data(&d);
        let age = weighted_mean(&mut src, "agep").unwrap();
        assert!(age.value > 20.0 && age.value < 70.0, "{age:?}");
    }

    #[test]
    fn grouped_totals_cover_all_states() {
        let d = generate(500, 8);
        let mut src = BufferSource::from_data(&d);
        let groups = grouped_total(&mut src, "wagp", "st").unwrap();
        assert_eq!(groups.len(), crate::STATES.len());
        let sum: f64 = groups.iter().map(|(_, e)| e.value).sum();
        let total = weighted_total(&mut src, "wagp").unwrap();
        assert!((sum - total.value).abs() < 1e-6 * total.value.abs().max(1.0));
    }

    #[test]
    fn nan_incomes_ignored() {
        let d = generate(500, 9);
        let mut src = BufferSource::from_data(&d);
        let m = weighted_mean(&mut src, "pincp").unwrap();
        assert!(m.value.is_finite());
    }
}
