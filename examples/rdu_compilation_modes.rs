//! SambaFlow compilation-mode shoot-out: the same GPT-2 decoder stack
//! compiled in O0 (per-operator sections), O1 (fused modules) and O3
//! (decoder-by-decoder), with the section schedules, DDR traffic and
//! resulting throughput side by side — Sec. III-B and Figs. 7-9 of the
//! paper as a runnable comparison.
//!
//! Run with:
//! ```text
//! cargo run --example rdu_compilation_modes
//! ```

use dabench::core::tier1;
use dabench::model::{ModelConfig, Precision, TrainingWorkload};
use dabench::rdu::{execute_sections, partition, CompilationMode, Rdu};

fn main() {
    let workload =
        TrainingWorkload::new(ModelConfig::gpt2_probe(768, 12), 8, 1024, Precision::Fp16);
    println!("Workload: {workload}\n");

    for mode in [
        CompilationMode::O0,
        CompilationMode::O1,
        CompilationMode::O3,
    ] {
        let rdu = Rdu::with_mode(mode);
        let sections = partition(&workload, rdu.rdu_spec(), rdu.compiler_params(), mode);
        let exec = execute_sections(&sections, &workload, rdu.rdu_spec(), rdu.compiler_params());
        let report = tier1::run(&rdu, &workload).expect("probe profiles");

        println!("=== mode {mode} ===");
        let copies: u64 = sections.iter().map(|s| s.copies).sum();
        println!("  sections               : {copies}");
        println!(
            "  DDR traffic per step   : {:.2} GB",
            exec.ddr_bytes_per_step as f64 / 1e9
        );
        println!(
            "  step time              : {:.1} ms ({:.0}% DDR-limited)",
            1e3 * exec.step_time_s,
            100.0 * exec.memory_bound_fraction
        );
        println!(
            "  achieved               : {:.2} TFLOP/s",
            exec.achieved_tflops
        );
        println!(
            "  PCU / PMU allocation   : {:.1}% / {:.1}%  (Eq. 2 weighted)",
            100.0 * report.allocation_of("pcu").unwrap_or(0.0),
            100.0 * report.allocation_of("pmu").unwrap_or(0.0)
        );
        if let Some(li) = report.load_imbalance {
            println!("  load imbalance (Eq. 4) : {li:.3}");
        }

        // The five slowest sections show where the time goes; a run of
        // identical O3 decoder sections is listed once, with its copy count.
        let mut timed: Vec<_> = sections.iter().zip(&exec.timings).collect();
        timed.sort_by(|(_, a), (_, b)| b.runtime_s.partial_cmp(&a.runtime_s).expect("finite"));
        println!("  slowest sections:");
        for (s, t) in timed.iter().take(5) {
            let name = if s.copies > 1 {
                format!("{} (x{})", t.name, s.copies)
            } else {
                t.name.clone()
            };
            println!(
                "    {:32} {:8.2} ms (compute {:.2} ms, ddr {:.2} ms per invocation)",
                name,
                1e3 * t.runtime_s,
                1e3 * t.compute_time_s,
                1e3 * t.ddr_time_s
            );
        }
        println!();
    }

    println!(
        "Takeaway (paper Sec. V): O0 pays a section load per operator and \
         spills every intermediate tensor to DDR; O1 fuses away most of the \
         traffic; O3 keeps whole decoders resident and wins on throughput, \
         at the cost of coarser operator placement (lower LI)."
    );
}
