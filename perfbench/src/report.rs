//! Metric names, units and the result line. `BENCHMARK.json` at the
//! repository root lists the same names; a test keeps the two equal.

use crate::episode::Values;

/// End-to-end metrics, reported from untraced episodes (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "ops/s"),
    ("op_host_p50_ns", "ns"),
    ("op_host_p99_ns", "ns"),
    ("op_virtual_p50_us", "virtual_us"),
    ("op_virtual_p99_us", "virtual_us"),
    ("allocs_per_op", "count"),
    ("wire_bytes_per_op", "B"),
    ("heap_bytes_per_home", "B"),
    ("ok_ratio", "ratio"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported from the traced run (`--trace 1`). A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("protocol.calls_per_op", "count"),
    ("protocol.call_ns", "ns"),
    ("protocol.self_ns", "ns"),
    ("protocol.allocs_per_call", "count"),
    ("protocol.batch_members_per_frame", "count"),
    ("vsg.serve_ns", "ns"),
    ("vsg.serve_allocs", "count"),
    ("vsg.client_self_ns", "ns"),
    ("vsg.local_share", "ratio"),
    ("rescache.hit_ratio", "ratio"),
    ("rescache.evictions_per_op", "count"),
    ("rescache.invalidations_per_op", "count"),
    ("vsr.resolve_ns", "ns"),
    ("vsr.resolve_allocs", "count"),
    ("vsr.write_ns", "ns"),
    ("vsr.inquiries_per_op", "count"),
    ("vsr.records_scanned_per_inquiry", "count"),
    ("vsr.publishes_per_write", "count"),
    ("app.ns", "ns"),
    ("compose.op_host_ns", "ns"),
    ("compose.steps_per_op", "count"),
    ("layer.vsr.virtual_us_per_op", "virtual_us"),
    ("layer.wire.virtual_us_per_op", "virtual_us"),
    ("layer.pcm.virtual_us_per_op", "virtual_us"),
    ("layer.app.virtual_us_per_op", "virtual_us"),
    ("layer.compose.virtual_us_per_op", "virtual_us"),
    ("simnet.run_ns", "ns"),
    ("simnet.events_per_op", "count"),
    ("simnet.ns_per_event", "ns"),
    ("simnet.allocs_per_event", "count"),
    ("simnet.pending_timers_peak", "count"),
    ("par.windows", "count"),
    ("par.busy_ns", "ns"),
    ("par.barrier_wait_ns", "ns"),
    ("par.commit_ns", "ns"),
    ("par.busy_skew", "ratio"),
    ("cloud.delivered_ratio", "ratio"),
    ("cloud.reconnects", "count"),
    ("cloud.throttled", "count"),
    ("cloud.commands_deduped", "count"),
    ("events.frames_per_event", "count"),
    ("events.dropped", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// The result line: exactly `correct`, `attempted`, `failed` and one
/// `{value, unit}` per metric of `table`, in table order.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&str, &str)],
    values: &Values,
) -> String {
    assert_eq!(
        values.len(),
        table.len(),
        "every metric is measured, and no other"
    );
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = values[name];
            assert!(v.is_finite(), "{name} = {v}");
            // `{}` prints the shortest text that reads back as the same
            // f64: every measured digit, nothing invented.
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "..."` inside the `key` array of BENCHMARK.json.
    fn declared(json: &str, key: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json declares {key}"));
        let body = &json[start..];
        let body = &body[..body.find(']').expect("the array closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|rest| {
                let rest = &rest[rest.find('"').expect("a name string") + 1..];
                rest[..rest.find('"').expect("the name closes")].to_owned()
            })
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let names = |t: &[(&str, &str)]| t.iter().map(|(n, _)| (*n).to_owned()).collect::<Vec<_>>();
        assert_eq!(declared(json, "end_to_end"), names(END_TO_END));
        assert_eq!(declared(json, "per_layer"), names(PER_LAYER));
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = &json[json.find(&format!("\"name\": \"{name}\"")).unwrap()..];
            let entry = &entry[..entry.find('}').unwrap()];
            assert!(
                entry.contains(&format!("\"unit\": \"{unit}\"")),
                "{name} declares unit {unit}"
            );
        }
    }

    #[test]
    fn result_line_has_exactly_four_keys_and_every_metric() {
        let values: Values = END_TO_END.iter().map(|(n, _)| (*n, 1.5)).collect();
        let line = result_line(true, 10, 0, END_TO_END, &values);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
    }
}
