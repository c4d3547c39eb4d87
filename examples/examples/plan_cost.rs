//! The fixed cost of a statement: every TPC-H query run 50 times over the
//! empty TPC-H tables, with the plan and result caches off, so that each
//! run lexes, parses, binds, optimizes and executes anew while there is
//! no data to read. The per-query median is what a statement costs before
//! its data costs anything; the sum is that toll over the whole workload.
//!
//! ```sh
//! cargo run --release -p monetlite-examples --example plan_cost
//! ```
//!
//! The run checks that every query succeeds with the column count its
//! `QueryShape` declares; the times are printed, not checked.

use monetlite::exec::ExecOptions;
use monetlite::Database;
use monetlite_tpch::queries;
use std::time::{Duration, Instant};

const RUNS: usize = 50;

fn main() -> monetlite::types::Result<()> {
    let db = Database::open_in_memory();
    let mut conn = db.connect();
    conn.run_script(queries::DDL)?;
    conn.set_exec_options(ExecOptions {
        use_plan_cache: false,
        use_result_cache: false,
        ..ExecOptions::default()
    });
    let mut total = Duration::ZERO;
    for (n, sql) in queries::all() {
        if let Some(setup) = queries::setup_sql(n) {
            conn.execute(setup)?;
        }
        let mut times = Vec::with_capacity(RUNS);
        for _ in 0..RUNS {
            let started = Instant::now();
            let r = conn.query(sql)?;
            times.push(started.elapsed());
            let want = queries::shape(n).cols;
            assert_eq!(r.ncols(), want, "Q{n} returns {} columns, its shape {want}", r.ncols());
        }
        if let Some(teardown) = queries::teardown_sql(n) {
            conn.execute(teardown)?;
        }
        times.sort_unstable();
        let median = times[RUNS / 2];
        total += median;
        println!("Q{n:02}  {:>8.1} us", median.as_secs_f64() * 1e6);
    }
    println!("sum  {:>8.1} us (median per query, {RUNS} runs each)", total.as_secs_f64() * 1e6);
    Ok(())
}
