//! The metric names and units `BENCHMARK.json` declares. A unit test
//! keeps the two in step.

/// End-to-end metrics, reported by an untraced run on every workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("pass_mt_s", "s"),
    ("geomean_op_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("disk_bytes_per_user_byte", "ratio"),
];

const PER_LAYER_FIXED: [(&str, &str); 64] = [
    // Time per statement in each layer, and each layer's share of it.
    ("sql.parse_us", "us"),
    ("bind.bind_us", "us"),
    ("opt.optimize_us", "us"),
    ("exec.execute_us", "us"),
    ("host.import_us", "us"),
    ("sql.share", "ratio"),
    ("bind.share", "ratio"),
    ("opt.share", "ratio"),
    ("exec.share", "ratio"),
    ("host.share", "ratio"),
    ("core.session_overhead_us", "us"),
    // Caches.
    ("plan_cache.hit_ratio", "ratio"),
    ("result_cache.hit_ratio", "ratio"),
    ("plan_cache.entries", "count"),
    ("result_cache.bytes", "bytes"),
    ("cache.hit_stmt_us", "us"),
    ("cache.miss_stmt_us", "us"),
    // Executor.
    ("exec.mt_speedup", "ratio"),
    ("exec.vectors", "count"),
    ("exec.morsels", "count"),
    ("exec.vectors_skipped", "count"),
    ("exec.sel_vectors", "count"),
    ("exec.dict_hits", "count"),
    ("exec.bloom_pruned", "count"),
    ("exec.hash_index_joins", "count"),
    ("exec.imprint_selects", "count"),
    ("opt.q_error_rows", "ratio"),
    // Out-of-core.
    ("spill.bytes_per_pass", "bytes"),
    ("spill.partitions_per_pass", "count"),
    ("vmem.loads_per_pass", "count"),
    ("vmem.evictions_per_pass", "count"),
    ("vmem.bytes_loaded_per_pass", "bytes"),
    ("vmem.resident_mb", "MiB"),
    // Host transfer.
    ("host.import_zero_copy_us", "us"),
    ("host.import_eager_ms", "ms"),
    ("host.import_lazy_us", "us"),
    ("host.bytes_copied", "bytes"),
    ("host.zero_copied_cols", "count"),
    ("exec.select_star_ms", "ms"),
    // Write path and persistence.
    ("store.append_ms_per_batch", "ms"),
    ("wal.commit_us", "us"),
    ("wal.bytes_per_user_byte", "ratio"),
    ("store.io_ops_per_session", "count"),
    ("persist.checkpoint_ms", "ms"),
    ("persist.checkpoint_mb_per_s", "MiB/s"),
    ("persist.disk_bytes", "bytes"),
    ("persist.sidecar_bytes", "bytes"),
    ("persist.wal_replay_ms", "ms"),
    ("storage.fresh_scan_penalty", "ratio"),
    // Set-up and the trace itself.
    ("tpch.generate_s", "s"),
    ("tpch.load_s", "s"),
    ("persist.prepare_checkpoint_s", "s"),
    ("trace.overhead_share", "ratio"),
    // The write-side figures of one session.
    ("session.append_mrows_per_s", "Mrows/s"),
    ("session.read_after_write_ms", "ms"),
    ("session.commit_p50_ms", "ms"),
    ("session.export_fresh_ms", "ms"),
    ("session.export_ms", "ms"),
    ("session.reopen_ms", "ms"),
    // Statement latency over every timed operation, and its tail.
    ("stmt.p50_us", "us"),
    ("stmt.tail_us", "us"),
    ("stmt.tail_percentile", "%"),
    ("stmt.samples", "count"),
    // T of the threads=T passes.
    ("run.threads_mt", "count"),
];

/// Per-layer metrics, reported by a traced run on every workload (0 where
/// a workload does not exercise the layer).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> =
        PER_LAYER_FIXED.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    v.extend((1..=22).map(|n| (format!("exec.q{n:02}_ms"), "ms")));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        let e2e = own(END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)).collect());
        assert_eq!(declared(&doc, "end_to_end"), e2e);
        assert_eq!(declared(&doc, "per_layer"), own(per_layer()));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workload::NAMES);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(names.iter().all(|n| n.len() <= 64 && n.chars().all(ok)));
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(per_layer().len() <= 128);
    }
}
