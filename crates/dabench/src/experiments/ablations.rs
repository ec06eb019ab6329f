//! Ablation studies on the design choices DESIGN.md calls out.
//!
//! These go beyond the paper's figures: each ablation switches one
//! mechanism of a platform model and quantifies its contribution, which is
//! exactly the kind of what-if analysis the simulators enable and the
//! hardware testbeds do not.

use super::workloads::{rdu_probe, wse_probe};
use crate::render::Table;
use dabench_model::{ModelConfig, Precision, TrainingWorkload};
use dabench_rdu::{execute_sections, partition, CompilationMode, RduCompilerParams, RduSpec};
use dabench_wse::{compile, execute, WseCompilerParams, WseSpec};
use serde::{Deserialize, Serialize};

/// One ablation observation: a parameter value and the metrics under it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationRow {
    /// Swept parameter value.
    pub value: f64,
    /// Named metrics observed at this value.
    pub metrics: Vec<(String, f64)>,
}

impl AblationRow {
    /// Look up a metric by name.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }
}

/// Ablate the WSE transmission-PE overhead: what the allocation ratio and
/// achieved TFLOPs would be if routing cost fewer (or more) PEs per
/// computation PE.
#[must_use]
pub fn wse_transmission_ratio() -> Vec<AblationRow> {
    let spec = WseSpec::cs2();
    let w = wse_probe(24);
    [0.0f64, 0.25, 0.55, 0.85]
        .iter()
        .map(|&ratio| {
            let params = WseCompilerParams {
                transmission_ratio: ratio,
                ..Default::default()
            };
            let c = compile(&spec, &params, &w, None).expect("24 layers compile");
            let e = execute(&spec, &params, &c, &w);
            AblationRow {
                value: ratio,
                metrics: vec![
                    ("allocation".to_owned(), c.allocation_ratio()),
                    ("computation_pes".to_owned(), c.computation_pes() as f64),
                    ("tflops".to_owned(), e.achieved_tflops),
                ],
            }
        })
        .collect()
}

/// Ablate the WSE config-memory growth coefficient: how deep a HS-768
/// stack compiles as routing tables grow faster or slower.
#[must_use]
pub fn wse_config_growth() -> Vec<AblationRow> {
    let spec = WseSpec::cs2();
    [0.0f64, 0.4, 0.85, 1.7]
        .iter()
        .map(|&coef| {
            let params = WseCompilerParams {
                config_quadratic_bytes: coef,
                ..Default::default()
            };
            let mut deepest = 0u64;
            let mut layers = 6u64;
            while layers <= 120 {
                if compile(&spec, &params, &wse_probe(layers), None).is_ok() {
                    deepest = layers;
                } else {
                    break;
                }
                layers += 6;
            }
            AblationRow {
                value: coef,
                metrics: vec![("max_layers".to_owned(), deepest as f64)],
            }
        })
        .collect()
}

/// Ablate operator fusion on the RDU: O0 (no fusion) vs O1 (fused) DDR
/// traffic and throughput on the same workload.
#[must_use]
pub fn rdu_fusion() -> Vec<AblationRow> {
    let spec = RduSpec::sn30();
    let params = RduCompilerParams::default();
    let w = rdu_probe(768, 12);
    [CompilationMode::O0, CompilationMode::O1]
        .iter()
        .map(|&mode| {
            let sections = partition(&w, &spec, &params, mode);
            let e = execute_sections(&sections, &w, &spec, &params);
            AblationRow {
                value: if mode == CompilationMode::O0 {
                    0.0
                } else {
                    1.0
                },
                metrics: vec![
                    (
                        "sections".to_owned(),
                        sections.iter().map(|s| s.copies).sum::<u64>() as f64,
                    ),
                    (
                        "ddr_gb_per_step".to_owned(),
                        e.ddr_bytes_per_step as f64 / 1e9,
                    ),
                    ("tflops".to_owned(), e.achieved_tflops),
                ],
            }
        })
        .collect()
}

/// Ablate the RDU per-section PCU ceiling: the paper observes SambaFlow
/// never maps a section onto the whole fabric; what would lifting that
/// ceiling buy?
#[must_use]
pub fn rdu_section_ceiling() -> Vec<AblationRow> {
    let spec = RduSpec::sn30();
    let w = rdu_probe(1600, 12);
    [260u64, 390, 520, 640]
        .iter()
        .map(|&ceiling| {
            let params = RduCompilerParams {
                max_pcus_per_section: ceiling,
                ..Default::default()
            };
            let sections = partition(&w, &spec, &params, CompilationMode::O3);
            let e = execute_sections(&sections, &w, &spec, &params);
            AblationRow {
                value: ceiling as f64,
                metrics: vec![("tflops".to_owned(), e.achieved_tflops)],
            }
        })
        .collect()
}

/// Ablate IPU activation residency (Poplar's recompute aggressiveness):
/// how many GPT-2-small layers fit on one IPU as more activations are
/// kept resident.
#[must_use]
pub fn ipu_activation_residency() -> Vec<AblationRow> {
    use dabench_ipu::{decoder_ipu_memory, IpuCompilerParams, IpuSpec};
    let spec = IpuSpec::bow2000();
    [0.0f64, 0.2, 0.5, 1.0]
        .iter()
        .map(|&residency| {
            let params = IpuCompilerParams {
                activation_residency_factor: residency,
                ..Default::default()
            };
            let mut max_layers = 0u64;
            for layers in 1..=24 {
                let w = TrainingWorkload::new(
                    ModelConfig::gpt2_probe(768, layers),
                    64,
                    1024,
                    Precision::Fp16,
                );
                if decoder_ipu_memory(&w, layers, &spec, &params).fits() {
                    max_layers = layers;
                } else {
                    break;
                }
            }
            AblationRow {
                value: residency,
                metrics: vec![("max_layers".to_owned(), max_layers as f64)],
            }
        })
        .collect()
}

/// Render one ablation series.
#[must_use]
pub fn render(title: &str, param: &str, rows: &[AblationRow]) -> Table {
    let mut t = Table::new(title);
    let metric_names: Vec<String> = rows
        .first()
        .map(|r| r.metrics.iter().map(|(k, _)| k.clone()).collect())
        .unwrap_or_default();
    t.set_headers(std::iter::once(param.to_owned()).chain(metric_names.clone()));
    for r in rows {
        t.add_row(
            std::iter::once(format!("{}", r.value)).chain(
                metric_names
                    .iter()
                    .map(|m| format!("{:.3}", r.metric(m).unwrap_or(f64::NAN))),
            ),
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transmission_pes_trade_against_computation() {
        let rows = wse_transmission_ratio();
        // With no routing overhead, more computation PEs fit the budget…
        let comp0 = rows[0].metric("computation_pes").unwrap();
        let comp55 = rows[2].metric("computation_pes").unwrap();
        assert!(comp0 > 1.3 * comp55);
        // …and achieved TFLOPs rise accordingly.
        assert!(rows[0].metric("tflops").unwrap() > rows[2].metric("tflops").unwrap());
    }

    #[test]
    fn config_growth_sets_the_depth_limit() {
        let rows = wse_config_growth();
        let depth_at = |i: usize| rows[i].metric("max_layers").unwrap();
        // No quadratic growth → much deeper models compile.
        assert!(depth_at(0) > depth_at(2));
        // The shipped coefficient lands near the paper's 72-layer limit.
        assert!((66.0..=78.0).contains(&depth_at(2)), "{}", depth_at(2));
        // Doubling the coefficient halves-ish the limit.
        assert!(depth_at(3) < depth_at(2));
    }

    #[test]
    fn fusion_cuts_traffic_and_lifts_tflops() {
        let rows = rdu_fusion();
        let o0 = &rows[0];
        let o1 = &rows[1];
        assert!(
            o0.metric("ddr_gb_per_step").unwrap() > 1.5 * o1.metric("ddr_gb_per_step").unwrap()
        );
        assert!(o1.metric("tflops").unwrap() > o0.metric("tflops").unwrap());
        assert!(o1.metric("sections").unwrap() < o0.metric("sections").unwrap());
    }

    #[test]
    fn section_ceiling_limits_throughput() {
        let rows = rdu_section_ceiling();
        let t: Vec<f64> = rows.iter().map(|r| r.metric("tflops").unwrap()).collect();
        assert!(t.windows(2).all(|w| w[1] >= w[0] * 0.999), "{t:?}");
        assert!(t.last().unwrap() > &(1.1 * t[0]), "{t:?}");
    }

    #[test]
    fn recompute_extends_ipu_capacity() {
        let rows = ipu_activation_residency();
        let m: Vec<f64> = rows
            .iter()
            .map(|r| r.metric("max_layers").unwrap())
            .collect();
        assert!(m.windows(2).all(|w| w[1] <= w[0]), "{m:?}");
        // The shipped residency (0.2) reproduces the 9-layer limit.
        assert_eq!(m[1], 9.0);
    }

    #[test]
    fn render_includes_all_metrics() {
        let s = render("t", "ratio", &wse_transmission_ratio()).to_string();
        assert!(s.contains("allocation"));
        assert!(s.contains("tflops"));
    }
}
