//! The experiment suite as a library: every paper artifact the CLI can
//! render, addressable by name.
//!
//! This used to live in the `dabench` binary; it moved here so the
//! macro-benchmark harness ([`crate::bench_suite`]) can time the *exact*
//! renderings the CLI prints, instead of maintaining parallel workload
//! definitions.

use crate::core::par_map;
use crate::experiments::{
    ablations, fig10, fig11, fig12, fig6, fig7, fig8, fig9, gen, infer, sensitivity, table1,
    table2, table3, table4,
};
use crate::render::Table;

/// All table/figure command names, in paper order.
pub const EXPERIMENTS: [&str; 11] = [
    "table1", "table2", "table3", "table4", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    "fig12",
];

/// Global point index of a supervised label: paper artifacts use their
/// [`EXPERIMENTS`] position, generated scenarios their population index.
/// Retry seeds and observability point paths key on this, so a shard
/// worker must resolve the same index a single-process run would.
#[must_use]
pub fn point_index(label: &str) -> Option<usize> {
    if let Some((_, _, index)) = dabench_core::gen::parse_label(label) {
        return usize::try_from(index).ok();
    }
    EXPERIMENTS.iter().position(|e| *e == label)
}

/// The tables behind one paper artifact; `None` when the name is unknown.
#[must_use]
pub fn experiment_tables(name: &str) -> Option<Vec<Table>> {
    Some(match name {
        "table1" => vec![table1::render(&table1::run())],
        "table2" => {
            let (a, b) = table2::render(&table2::run_o3(), &table2::run_shards());
            vec![a, b]
        }
        "table3" => vec![table3::render(&table3::run())],
        "table4" => vec![table4::render(&table4::run())],
        "fig6" => vec![fig6::render(&fig6::run())],
        "fig7" => vec![
            fig7::render(&fig7::run_layers(), "a"),
            fig7::render(&fig7::run_hidden_sizes(), "b"),
        ],
        "fig8" => vec![
            fig8::render(&fig8::run_layers(), "a"),
            fig8::render(&fig8::run_hidden_sizes(), "b"),
        ],
        "fig9" => fig9::render(
            &fig9::run_wse(),
            &fig9::run_rdu_layers(),
            &fig9::run_rdu_hidden(),
            &fig9::run_ipu(),
        ),
        "fig10" => vec![fig10::render(&fig10::run())],
        "fig11" => fig11::render(&fig11::run_wse(), &fig11::run_rdu(), &fig11::run_ipu()),
        "fig12" => vec![fig12::render(&fig12::run())],
        "infer" => vec![
            infer::render(&infer::run()),
            infer::render_batching(&infer::run_batching()),
        ],
        "ablations" => ablation_tables(),
        "sensitivity" => vec![sensitivity::render(&sensitivity::run())],
        "gen" => gen::default_tables(),
        _ => return None,
    })
}

/// Render one paper artifact to the exact text `dabench <name>` prints
/// (each table followed by a newline, table2's pair joined specially).
#[must_use]
pub fn render_experiment(name: &str) -> Option<String> {
    // `gen:<tier>:s<seed>:i<index>` labels address one generated scenario:
    // the supervised runner and shard workers resolve every point through
    // this function, so generated populations ride the same journal,
    // resume and sharding machinery as the paper artifacts.
    if let Some((tier, seed, index)) = dabench_core::gen::parse_label(name) {
        return Some(gen::render_scenario(tier, seed, index));
    }
    let tables = experiment_tables(name)?;
    let mut out = String::new();
    if name == "table2" {
        // table2 historically prints its two tables as one block.
        out.push_str(&format!("{}\n{}\n", tables[0], tables[1]));
    } else {
        for t in tables {
            out.push_str(&format!("{t}\n"));
        }
    }
    Some(out)
}

/// The five design-choice ablation tables, built in parallel.
#[must_use]
pub fn ablation_tables() -> Vec<Table> {
    let builders: [fn() -> Table; 5] = [
        || {
            ablations::render(
                "Ablation: WSE transmission-PE overhead (24 layers)",
                "ratio",
                &ablations::wse_transmission_ratio(),
            )
        },
        || {
            ablations::render(
                "Ablation: WSE config-memory growth vs max depth",
                "coef",
                &ablations::wse_config_growth(),
            )
        },
        || {
            ablations::render(
                "Ablation: RDU operator fusion",
                "fused",
                &ablations::rdu_fusion(),
            )
        },
        || {
            ablations::render(
                "Ablation: RDU per-section PCU ceiling (HS 1600)",
                "ceiling",
                &ablations::rdu_section_ceiling(),
            )
        },
        || {
            ablations::render(
                "Ablation: IPU activation residency vs capacity",
                "residency",
                &ablations::ipu_activation_residency(),
            )
        },
    ];
    par_map(&builders, |build| build())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_experiment_renders() {
        for name in EXPERIMENTS {
            assert!(render_experiment(name).is_some(), "{name}");
        }
    }

    #[test]
    fn unknown_names_are_none() {
        assert!(experiment_tables("table9").is_none());
        assert!(render_experiment("").is_none());
        assert!(render_experiment("gen:nope:s1:i0").is_none());
    }

    #[test]
    fn gen_suite_and_scenario_labels_render() {
        let tables = experiment_tables("gen").expect("gen suite");
        assert_eq!(tables.len(), 4, "population, results, ranking, invariants");
        let record = render_experiment("gen:baby:s42:i0").expect("scenario label");
        assert!(
            record.starts_with("gen-v1 label=gen:baby:s42:i0 "),
            "{record}"
        );
        // The scenario renderer must agree with a direct driver call —
        // shard workers rely on this equality for journal byte-identity.
        use crate::experiments::gen as g;
        use dabench_core::gen::Tier;
        assert_eq!(record, g::render_scenario(Tier::Baby, 42, 0));
    }

    #[test]
    fn point_index_covers_both_label_families() {
        assert_eq!(point_index("table1"), Some(0));
        assert_eq!(point_index("fig12"), Some(10));
        assert_eq!(point_index("gen:hard:s7:i5"), Some(5));
        assert_eq!(point_index("nope"), None);
    }
}
