//! The metric tables (name and unit of everything the benchmark prints)
//! and the one-line JSON result the driver reads.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("lat_p50_us", "us"),
    ("cpu_us_per_op", "us"),
    ("rss_setup_mib", "MiB"),
];

/// Per-layer metrics, reported by every workload with tracing on. A
/// metric of a layer the workload does not touch reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("stack.imp.dn_ns", "ns"),
    ("stack.imp.up_ns", "ns"),
    ("stack.func.dn_ns", "ns"),
    ("stack.func.up_ns", "ns"),
    ("stack.imp.vsync_dn_ns", "ns"),
    ("stack.imp.vsync_up_ns", "ns"),
    ("synth.mach.dn_ns", "ns"),
    ("synth.mach.up_ns", "ns"),
    ("synth.ccp_ns", "ns"),
    ("synth.synthesize_ms", "ms"),
    ("hand.dn_ns", "ns"),
    ("hand.up_ns", "ns"),
    ("transport.marshal_ns", "ns"),
    ("transport.unmarshal_ns", "ns"),
    ("transport.compressed_encode_ns", "ns"),
    ("transport.compressed_decode_ns", "ns"),
    ("transport.wire_bytes_generic", "B"),
    ("transport.wire_bytes_compressed", "B"),
    ("event.payload_copy_4k_ns", "ns"),
    ("runtime.core.cast_ns", "ns"),
    ("runtime.core.deliver_ns", "ns"),
    ("runtime.core.cast_bypass_ns", "ns"),
    ("runtime.core.deliver_bypass_ns", "ns"),
    ("runtime.core.cast_4k_ns", "ns"),
    ("runtime.core.actions_per_cast", "count"),
    ("runtime.hub.send_recv_ns", "ns"),
    ("runtime.node.hop_us", "us"),
    ("runtime.spurious_wakeups_per_op", "count"),
    ("runtime.bypass_hit_share", "share"),
    ("runtime.retransmits", "count"),
    ("runtime.defer_flushes_per_kop", "count"),
    ("runtime.transport.msgs_per_op", "count"),
    ("runtime.transport.bytes_per_op", "B"),
    ("cluster.heartbeats_per_s", "1/s"),
    ("cluster.form_ms", "ms"),
    ("cluster.views_installed", "count"),
    ("kv.proto.encode_request_ns", "ns"),
    ("kv.proto.decode_request_ns", "ns"),
    ("kv.proto.encode_cast_ns", "ns"),
    ("kv.proto.decode_cast_ns", "ns"),
    ("kv.proto.encode_response_ns", "ns"),
    ("kv.proto.decode_response_ns", "ns"),
    ("kv.store.apply_ns", "ns"),
    ("kv.store.snapshot_us", "us"),
    ("kv.wal.append_ns", "ns"),
    ("kv.wal.flush_us", "us"),
    ("kv.wal.checkpoint_us", "us"),
    ("kv.wal.recover_ms", "ms"),
    ("kv.wal.crc32_ns_per_kib", "ns"),
    ("kv.storage.appends_per_op", "count"),
    ("kv.storage.ops_per_sync", "count"),
    ("kv.storage.bytes_per_op", "B"),
    ("kv.storage.busy_share", "share"),
    ("kv.wal.checkpoints_per_kop", "count"),
    ("kv.front.submit_ns", "ns"),
    ("kv.front.wait_p50_us", "us"),
    ("kv.tcp.call_p50_us", "us"),
    ("kv.tcp.plane_overhead_us", "us"),
    ("kv.tcp.rtt_floor_us", "us"),
    ("kv.client.redirects", "count"),
    ("kv.replica.commits", "count"),
    ("kv.replica.timeouts", "count"),
    ("kv.replica.rejected", "count"),
    ("budget.attributed_us", "us"),
    ("budget.residual_share", "share"),
    ("obs.hist_record_ns", "ns"),
    ("harness.lat_p99_us", "us"),
    ("harness.lat_max_us", "us"),
    ("harness.samples", "count"),
    ("harness.slice_cv", "share"),
    ("harness.gen_cpu_share", "share"),
    ("harness.idle_cpu_pct", "%"),
    ("harness.steal_share", "share"),
    ("harness.rss_growth_b_per_op", "B"),
    ("harness.trace_overhead_share", "share"),
];

/// Values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// What one run found.
pub struct Outcome {
    /// Every output checked was right.
    pub correct: bool,
    /// Operations started in the measured phase.
    pub attempted: u64,
    /// Of those, the ones that timed out, were refused, or returned an
    /// error.
    pub failed: u64,
    /// The metrics of `table`.
    pub values: Values,
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the last holding every metric of `table` by name with its
/// unit. A metric missing from `values` (a layer the workload does not
/// touch) reads 0; a non-finite value is a harness bug.
pub fn result_line(table: &[(&str, &str)], o: &Outcome) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = o.values.get(name).copied().unwrap_or(0.0);
            assert!(v.is_finite(), "metric {name} is not a finite number");
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

/// Self-tests: `cargo test` and `--selftest` both run them.
pub mod checks {
    use super::*;
    use ensemble_obs::Json;

    crate::checks! {
        fn result_line_is_json_with_exactly_the_contracted_keys() {
            let mut values = Values::new();
            values.insert("setup_s", 1.25);
            values.insert("ops_per_s", 70123.456789);
            values.insert("lat_p50_us", 812.5);
            values.insert("cpu_us_per_op", 21.0);
            values.insert("rss_setup_mib", 9.5);
            let line = result_line(
                END_TO_END,
                &Outcome {
                    correct: true,
                    attempted: 1000,
                    failed: 0,
                    values,
                },
            );
            assert!(!line.contains('\n'));
            let json = Json::parse(&line).expect("valid JSON");
            let Json::Obj(top) = &json else {
                panic!("not an object")
            };
            let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(json.get("attempted").and_then(Json::as_int), Some(1000));
            let Some(Json::Obj(metrics)) = json.get("metrics") else {
                panic!("metrics is not an object")
            };
            assert_eq!(metrics.len(), END_TO_END.len());
            for ((name, unit), (key, m)) in END_TO_END.iter().zip(metrics) {
                assert_eq!(name, key);
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
                assert!(m.get("value").is_some());
            }
        }

        fn benchmark_json_lists_what_the_binary_prints() {
            // From the repository root (`run.sh`) or the package (`cargo test`).
            let Some(text) = ["BENCHMARK.json", "../BENCHMARK.json"]
                .iter()
                .find_map(|p| std::fs::read_to_string(p).ok())
            else {
                return;
            };
            let json = Json::parse(&text).expect("BENCHMARK.json is JSON");
            let listed = |key: &str, field: &str| -> Vec<String> {
                let items = json.get(key).and_then(Json::as_arr).expect("a list");
                items
                    .iter()
                    .map(|m| m.get(field).and_then(Json::as_str).expect("a string").to_string())
                    .collect()
            };
            let pairs = |key: &str| -> Vec<(String, String)> {
                listed(key, "name").into_iter().zip(listed(key, "unit")).collect()
            };
            let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
                table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
            };
            assert_eq!(pairs("end_to_end"), own(END_TO_END));
            assert_eq!(pairs("per_layer"), own(PER_LAYER));
            assert_eq!(listed("workloads", "name"), crate::WORKLOADS);
        }

        fn tables_obey_the_contracts_naming_rules() {
            let ok_name = |n: &str| {
                n.len() <= 64
                    && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            };
            let ok_unit = |u: &str| {
                !u.is_empty()
                    && u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            };
            let mut seen = std::collections::BTreeSet::new();
            for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
                assert!(ok_name(name), "{name}");
                assert!(ok_unit(unit), "{unit}");
                assert!(seen.insert(name), "{name} is used twice");
            }
            assert!(PER_LAYER.len() <= 128);
        }
    }
}
