//! The names, units and directions of everything the benchmark reports.
//! `BENCHMARK.json` lists the same names; a test keeps the two in step.

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: share of the parent's median by which the metric
    /// may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    e2e(name, unit, better, 0.0)
}

/// What a user of `dgr route` or of `dgrd` sees; reported with `--trace 0`
/// on every workload.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("guide_latency_p25_ms", "ms", "lower", 0.25),
    e2e("cost_score", "cost", "lower", 0.05),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
];

/// One layer each (the prefix is the module); reported with `--trace 1`
/// on every workload, `0` where the workload does not use the layer.
pub const PER_LAYER: &[Metric] = &[
    layer("io.parse_ms", "ms", "lower"),
    layer("io.design_bytes", "bytes", "lower"),
    layer("rsmt.candidates_ms", "ms", "lower"),
    layer("rsmt.trees_per_net", "ratio", "lower"),
    layer("rsmt.exact_nets", "count", "lower"),
    layer("rsmt.cache_lookups", "count", "lower"),
    layer("rsmt.cache_hit_ratio", "ratio", "higher"),
    layer("dag.forest_ms", "ms", "lower"),
    layer("dag.trees", "count", "lower"),
    layer("dag.subnets", "count", "lower"),
    layer("dag.paths", "count", "lower"),
    layer("dag.path_edges", "count", "lower"),
    layer("core.relax_ms", "ms", "lower"),
    layer("core.train_ms", "ms", "lower"),
    layer("core.iters_per_s", "1/s", "higher"),
    layer("core.train_other_ms_per_iter", "ms/iter", "lower"),
    layer("core.extract_ms", "ms", "lower"),
    layer("core.overflow_edges_extracted", "count", "lower"),
    layer("core.final_loss", "cost", "lower"),
    layer("autodiff.forward_ms_per_iter", "ms/iter", "lower"),
    layer("autodiff.backward_ms_per_iter", "ms/iter", "lower"),
    layer("autodiff.arena_mb", "MB", "lower"),
    layer("autodiff.iter_gbps_computed", "GB/s", "higher"),
    layer("autodiff.seg_softmax_fwd_ns_per_elem", "ns/elem", "lower"),
    layer("autodiff.seg_softmax_bwd_ns_per_elem", "ns/elem", "lower"),
    layer("autodiff.gather_ns_per_elem", "ns/elem", "lower"),
    layer("autodiff.scatter_add_ns_per_elem", "ns/elem", "lower"),
    layer("post.refine_ms", "ms", "lower"),
    layer("post.nets_rerouted", "count", "lower"),
    layer("post.overflow_edges_before", "count", "lower"),
    layer("post.overflow_edges_after", "count", "lower"),
    layer("post.assign_ms", "ms", "lower"),
    layer("post.vias", "count", "lower"),
    layer("post.overflow_edges_3d", "count", "lower"),
    layer("post.guide_ms", "ms", "lower"),
    layer("post.guide_boxes", "count", "lower"),
    layer("post.guide_bytes", "bytes", "lower"),
    layer("obs.spans_tax_ratio", "ratio", "lower"),
    layer("obs.telemetry_tax_ratio", "ratio", "lower"),
    layer("cli.overhead_ms", "ms", "lower"),
    layer("proc.cpu_s", "s", "lower"),
    layer("proc.cpu_over_wall", "ratio", "higher"),
    layer("daemon.latency_p50_ms", "ms", "lower"),
    layer("daemon.latency_p95_ms", "ms", "lower"),
    layer("daemon.jobs_per_s", "1/s", "higher"),
    layer("daemon.submit_ms", "ms", "lower"),
    layer("daemon.queue_wait_ms", "ms", "lower"),
    layer("daemon.run_ms", "ms", "lower"),
    layer("daemon.materialize_ms", "ms", "lower"),
    layer("daemon.pipeline_ms", "ms", "lower"),
    layer("daemon.train_ms", "ms", "lower"),
    layer("daemon.refine_ms", "ms", "lower"),
    layer("daemon.assign_ms", "ms", "lower"),
    layer("daemon.poll_rtt_ms", "ms", "lower"),
    layer("daemon.polls_per_job", "count", "lower"),
    layer("daemon.guide_fetch_ms", "ms", "lower"),
    layer("daemon.client_gap_ms", "ms", "lower"),
    layer("daemon.rejected_429", "count", "lower"),
    layer("daemon.burst_queue_wait_p50_ms", "ms", "lower"),
    layer("daemon.burst_makespan_ms", "ms", "lower"),
    layer("daemon.pool_seq_fallback_share", "ratio", "lower"),
    layer("daemon.latency_identity_ratio", "ratio", "higher"),
    layer("host.calib_ms", "ms", "lower"),
    layer("host.calib_spread", "ratio", "lower"),
    layer("host.steal_share", "ratio", "lower"),
    layer("host.stream_gbps", "GB/s", "higher"),
    layer("trace.traced_total_ms", "ms", "lower"),
    layer("trace.closure", "ratio", "higher"),
    layer("trace.unattributed_ms", "ms", "lower"),
    layer("trace.overhead_ratio", "ratio", "lower"),
    layer("trace.shape_ok", "count", "higher"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit, better, bound)` of every object of the JSON array
    /// under `key`, read with the flat-field scanner the daemon client
    /// uses.
    fn listed(json: &str, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let array = &json[start..start + json[start..].find(']').expect("array closes")];
        array
            .split('{')
            .skip(1)
            .map(|obj| {
                let f = |k| crate::daemon::json_field(obj, k).map(str::to_string);
                (
                    f("name").unwrap(),
                    f("unit").unwrap(),
                    f("better").unwrap(),
                    f("bound").map(|b| b.parse().unwrap()),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (key, table, bounded) in [
            ("end_to_end", END_TO_END, true),
            ("per_layer", PER_LAYER, false),
        ] {
            let want: Vec<_> = table
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        m.better.to_string(),
                        bounded.then_some(m.bound),
                    )
                })
                .collect();
            assert_eq!(listed(&json, key), want, "{key} differs from metrics.rs");
        }
        for w in crate::workloads::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m.better == "lower" || m.better == "higher");
            assert!(m.bound <= 0.25);
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
