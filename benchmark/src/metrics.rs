//! The metric catalog: every metric the benchmark reports, with its unit,
//! its direction and, for end-to-end metrics, the share of the baseline
//! median by which it may worsen before a change counts as a regression.
//!
//! `BENCHMARK.json` at the repository root carries [`END_TO_END`] and
//! [`PER_LAYER`]; a test keeps the two in step. [`EXTRA`] metrics live in
//! the result files and `compare` but not in `BENCHMARK.json`, whose
//! metrics every workload reports as a property of the program: they
//! apply to some workloads only, or describe the host.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, failures).
    Lower,
    /// Larger is better (rates, hits).
    Higher,
}

#[cfg(test)]
impl Better {
    /// The `BENCHMARK.json` spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name as printed and stored.
    pub name: &'static str,
    /// Unit as printed and stored.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound as a share of the baseline median (absolute when
    /// that median is 0); `None` for per-layer metrics, which are not gated.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics every workload reports, in `BENCHMARK.json` order.
pub const END_TO_END: [Metric; 4] = [
    gated("setup_s", "s", Lower, 0.25),
    gated("throughput_ops_per_s", "1/s", Higher, 0.25),
    gated("latency_p50_ms", "ms", Lower, 0.25),
    gated("peak_rss_mb", "MB", Lower, 0.10),
];

/// End-to-end metrics kept in result files only: the tail latency of the
/// two request workloads, the failure share, which reads 0 when healthy,
/// and the calibration kernel's median time, which says how fast the host
/// ran and turns any scaled time back into wall time.
pub const EXTRA: [Metric; 3] = [
    gated("latency_p90_ms", "ms", Lower, 0.25),
    gated("failed_ratio", "ratio", Lower, 0.0),
    layer("host_kernel_ms", "ms", Lower),
];

/// Per-layer metrics of the traced run, grouped by the workload whose
/// end-to-end numbers they explain (see README.md).
pub const PER_LAYER: [Metric; 41] = [
    layer("process.spawn_exit_ms", "ms", Lower),
    layer("paper.run_ms", "ms", Lower),
    layer("paper.render_ms", "ms", Lower),
    layer("tier1.hits", "count", Higher),
    layer("tier1.misses", "count", Lower),
    layer("tier1.hit_ratio", "ratio", Higher),
    layer("compile.incremental_hits", "count", Higher),
    layer("compile.incremental_misses", "count", Lower),
    layer("compile.patched_nodes", "count", Lower),
    layer("graph.build_us", "us", Lower),
    layer("compile.graph_hit_us", "us", Lower),
    layer("wse.compile_ms", "ms", Lower),
    layer("wse.budget_retries", "count", Lower),
    layer("rdu.profile_ms", "ms", Lower),
    layer("rdu.sections", "count", Lower),
    layer("ipu.profile_ms", "ms", Lower),
    layer("gpu.profile_ms", "ms", Lower),
    layer("infer.profile_us", "us", Lower),
    layer("gen.sample_us", "us", Lower),
    layer("gen.evaluate_train_ms", "ms", Lower),
    layer("gen.evaluate_infer_ms", "ms", Lower),
    layer("gen.render_record_us", "us", Lower),
    layer("gen.check_share", "ratio", Lower),
    layer("gen.parse_record_us", "us", Lower),
    layer("gen.ranking_ms", "ms", Lower),
    layer("gen.check_population_ms", "ms", Lower),
    layer("gen.retained_kb_per_scenario", "KB", Lower),
    layer("journal.append_us", "us", Lower),
    layer("journal.bytes_per_op", "B", Lower),
    layer("shard.merge_ms", "ms", Lower),
    layer("shard.fixed_overhead_ms", "ms", Lower),
    layer("journal.resume_ms", "ms", Lower),
    layer("serve.ping_rtt_ms", "ms", Lower),
    layer("serve.connect_ms", "ms", Lower),
    layer("serve.cached_rtt_ms", "ms", Lower),
    layer("serve.executed_rtt_ms", "ms", Lower),
    layer("serve.store_hit_ratio", "ratio", Higher),
    layer("serve.evictions", "count", Lower),
    layer("serve.shed", "count", Lower),
    layer("serve.expired", "count", Lower),
    layer("trace_overhead_pct", "%", Lower),
];

/// The catalog entry of an end-to-end metric (gated or extra).
#[must_use]
pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(&EXTRA).find(|m| m.name == name)
}

/// The catalog entry of a per-layer metric.
#[must_use]
pub fn per_layer(name: &str) -> Option<&'static Metric> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_owned();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    fn catalog(metrics: &[Metric]) -> Vec<(String, String, String, Option<f64>)> {
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    m.unit.to_owned(),
                    m.better.as_str().to_owned(),
                    m.bound,
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        assert_eq!(listed(&doc, "end_to_end"), catalog(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), catalog(&PER_LAYER));
        let run_seconds = doc.get("run_seconds").and_then(Json::as_f64);
        assert_eq!(run_seconds, Some(crate::RUN_SECONDS));
        let workloads: Vec<(&str, &str)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Json::as_str).expect(k);
                (s("name"), s("why"))
            })
            .collect();
        let ours: Vec<(&str, &str)> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| (w.name, w.why))
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&EXTRA)
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
