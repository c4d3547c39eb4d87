//! The paper-reproduction driver: regenerates every table and figure of
//! the evaluation section. Its output is printed, not recorded; the
//! recorded numbers are the `BENCH_*.json` files at the repository root.
//!
//! ```text
//! repro [--sf X] [--rows N] [--runs K] [--timeout SECS] <experiment...>
//! experiments: fig2 fig5 fig6 table1-sf1 table1-sf10 fig7 fig8 ablations all
//! ```

use monetlite_bench::*;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = BenchConfig::default();
    let mut experiments: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--sf" => {
                cfg.sf = args[i + 1].parse().expect("--sf takes a float");
                i += 2;
            }
            "--rows" => {
                cfg.acs_rows = args[i + 1].parse().expect("--rows takes an int");
                i += 2;
            }
            "--runs" => {
                cfg.runs = args[i + 1].parse().expect("--runs takes an int");
                i += 2;
            }
            "--timeout" => {
                cfg.timeout =
                    Duration::from_secs(args[i + 1].parse().expect("--timeout takes seconds"));
                i += 2;
            }
            other => {
                experiments.push(other.to_string());
                i += 1;
            }
        }
    }
    if experiments.is_empty() {
        eprintln!(
            "usage: repro [--sf X] [--rows N] [--runs K] [--timeout SECS] \
             <fig2|fig5|fig6|table1-sf1|table1-sf10|fig7|fig8|ablations|all>"
        );
        std::process::exit(2);
    }
    if experiments.iter().any(|e| e == "all") {
        experiments =
            ["fig2", "fig5", "fig6", "table1-sf1", "table1-sf10", "fig7", "fig8", "ablations"]
                .iter()
                .map(|s| s.to_string())
                .collect();
    }
    println!(
        "monetlite repro  sf={} acs_rows={} runs={} timeout={:?}",
        cfg.sf, cfg.acs_rows, cfg.runs, cfg.timeout
    );
    for e in &experiments {
        match e.as_str() {
            "fig5" => print_figure(
                "Figure 5: writing lineitem from the host into the database (s)",
                &fig5_ingestion(&cfg),
            ),
            "fig6" => print_figure(
                "Figure 6: loading lineitem from the database into the host (s)",
                &fig6_export(&cfg),
            ),
            "table1-sf1" => {
                let (cols, rows) = table1(&cfg, false);
                print_matrix("Table 1 (SF1-equivalent): TPC-H Q1-Q10 (s)", &cols, &rows);
            }
            "table1-sf10" => {
                let (cols, rows) = table1(&cfg, true);
                print_matrix(
                    "Table 1 (SF10-equivalent, memory-bounded): TPC-H Q1-Q10 (s)",
                    &cols,
                    &rows,
                );
            }
            "fig2" => {
                let (cells, explain, _) = fig2_mitosis(2_000_000, &[1, 2, 4, 8]);
                print_figure("Figure 2: SELECT MEDIAN(SQRT(i*2)) FROM tbl (2M rows) (s)", &cells);
                println!("\n-- EXPLAIN (8 threads) --\n{explain}");
            }
            "fig7" => {
                print_figure("Figure 7: loading the 274-column ACS table (s)", &fig7_acs_load(&cfg))
            }
            "fig8" => print_figure("Figure 8: ACS survey statistics (s)", &fig8_acs_stats(&cfg)),
            "ablations" => ablations(&cfg),
            other => eprintln!("unknown experiment '{other}' (skipped)"),
        }
    }
}

/// The paper's design choices switched off one at a time: result transfer
/// modes (§3.3), imprints, the order index, automatic hash indexes, heap
/// duplicate elimination and mitosis (§3.1).
fn ablations(cfg: &BenchConfig) {
    use monetlite::exec::ExecOptions;
    use monetlite::host::{HostFrame, TransferMode};
    use monetlite::Database;
    use monetlite_storage::heap::StringHeap;

    let data = monetlite_tpch::generate(cfg.sf, cfg.seed);
    let db = Database::open_in_memory();
    let mut conn = db.connect();
    monetlite_tpch::load_monet(&mut conn, &data).unwrap();

    // 1. Export mode: zero-copy vs eager vs lazy(1 column touched).
    let mut rows = Vec::new();
    let r = conn.query("SELECT * FROM lineitem").unwrap();
    rows.push((
        "export zero-copy".to_string(),
        measure(cfg.runs, || {
            let f = HostFrame::import(&r, TransferMode::ZeroCopy);
            std::hint::black_box(f.stats.zero_copied);
            Ok(())
        }),
    ));
    rows.push((
        "export eager".to_string(),
        measure(cfg.runs, || {
            let f = HostFrame::import(&r, TransferMode::Eager);
            std::hint::black_box(f.stats.bytes_copied);
            Ok(())
        }),
    ));
    rows.push((
        "export lazy (touch 1 col)".to_string(),
        measure(cfg.runs, || {
            let f = HostFrame::import(&r, TransferMode::Lazy);
            std::hint::black_box(f.cols[0].get(0));
            Ok(())
        }),
    ));
    print_figure("Ablation: result transfer modes (SELECT * FROM lineitem)", &rows);

    // 2. Imprints on/off for a selective range query.
    let q = "SELECT count(*) FROM lineitem WHERE l_shipdate >= date '1998-06-01'";
    let mut rows = Vec::new();
    for (label, on) in [("imprints on", true), ("imprints off", false)] {
        let mut opts =
            ExecOptions { use_imprints: on, use_order_index: false, ..Default::default() };
        opts.use_hash_index = true;
        conn.set_exec_options(opts);
        let _warm = conn.query(q).unwrap(); // builds the imprint once
        rows.push((
            label.to_string(),
            measure(cfg.runs, || {
                conn.query(q)?;
                Ok(())
            }),
        ));
    }
    print_figure("Ablation: column imprints (selective date range count)", &rows);

    // 3. Order index vs imprints for the same query.
    conn.execute("CREATE ORDER INDEX oi_ship ON lineitem (l_shipdate)").unwrap();
    conn.set_exec_options(ExecOptions::default());
    let _warm = conn.query(q).unwrap();
    let rows = vec![(
        "order index".to_string(),
        measure(cfg.runs, || {
            conn.query(q)?;
            Ok(())
        }),
    )];
    print_figure("Ablation: CREATE ORDER INDEX (same range count)", &rows);

    // 4. Automatic hash index on join keys on/off.
    let qj = "SELECT count(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey";
    let mut rows = Vec::new();
    for (label, on) in [("hash index on", true), ("hash index off", false)] {
        let opts = ExecOptions { use_hash_index: on, ..Default::default() };
        conn.set_exec_options(opts);
        let _warm = conn.query(qj).unwrap();
        rows.push((
            label.to_string(),
            measure(cfg.runs, || {
                conn.query(qj)?;
                Ok(())
            }),
        ));
    }
    print_figure("Ablation: automatic join hash index (lineitem ⋈ orders)", &rows);

    // 5. String-heap duplicate elimination on/off (build cost + size).
    let values: Vec<String> = (0..200_000).map(|i| format!("value-{}", i % 1000)).collect();
    let mut rows = Vec::new();
    for (label, limit) in [("heap dedup on", usize::MAX), ("heap dedup off", 0)] {
        let mut size = 0usize;
        let cell = measure(cfg.runs, || {
            let mut h = StringHeap::with_dedup_limit(limit);
            for v in &values {
                h.add(v);
            }
            size = h.size_bytes();
            Ok(())
        });
        rows.push((format!("{label} ({size} heap bytes)"), cell));
    }
    print_figure("Ablation: string heap duplicate elimination (200k strings, 1k distinct)", &rows);

    // 6. Mitosis thread scaling on the Figure 2 query.
    let (cells, _, _) = fig2_mitosis(1_000_000, &[1, 2, 4, 8]);
    print_figure("Ablation: mitosis thread scaling (1M-row median)", &cells);
}
