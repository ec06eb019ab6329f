//! `ActivationMemory::for_step` reads its three sums off the step
//! template; they must equal the walk over every operator of the step,
//! on every `gen` tier menu and the paper's workloads.

use dabench_core::gen::{self, Tier};
use dabench_model::ops::{self, Phase};
use dabench_model::{ActivationMemory, ModelConfig, Precision, TrainingWorkload};

/// The walk over every operator of the step that `for_step` replaces.
fn by_walk(w: &TrainingWorkload) -> [u64; 3] {
    let step = ops::step_records(w.model(), w.batch_size(), w.seq_len());
    let elem = w.precision().bytes_per_element();
    let forward = || step.iter().filter(|r| r.phase == Phase::Forward);
    let stored: u64 = forward().map(|r| r.cost.out_elems).sum();
    let peak = step
        .iter()
        .map(|r| r.cost.out_elems.max(r.cost.in_elems))
        .max()
        .unwrap_or(0);
    let layer0: u64 = forward()
        .filter(|r| r.layer == Some(0))
        .map(|r| r.cost.out_elems)
        .sum();
    [stored * elem, peak * elem, layer0 * elem]
}

#[test]
fn template_sums_equal_the_full_walk() {
    let mut workloads: Vec<TrainingWorkload> = Tier::ALL
        .into_iter()
        .flat_map(|tier| (0..48).map(move |i| gen::sample(tier, 0xAC_0001, i)))
        .map(|s| s.training_workload())
        .collect();
    // Table I's layer sweep to the 78-layer probe, the RDU, IPU and GPU
    // probes, and LLaMA-2 7B.
    for layers in [1, 12, 48, 72, 78] {
        let model = ModelConfig::gpt2_probe(768, layers);
        workloads.push(TrainingWorkload::new(model, 256, 1024, Precision::Fp16));
    }
    workloads.extend([
        TrainingWorkload::new(ModelConfig::gpt2_probe(1600, 12), 8, 1024, Precision::Fp16),
        TrainingWorkload::new(ModelConfig::llama2_probe(8192, 4), 4, 2048, Precision::Bf16),
        TrainingWorkload::new(ModelConfig::gpt2_probe(768, 10), 64, 1024, Precision::Fp16),
        TrainingWorkload::new(ModelConfig::gpt2_xl(), 16, 1024, Precision::Fp16),
        TrainingWorkload::new(ModelConfig::llama2_7b(), 8, 4096, Precision::Bf16),
    ]);
    for w in &workloads {
        let a = ActivationMemory::for_step(w.model(), w.batch_size(), w.seq_len(), w.precision());
        let got = [
            a.stored_bytes(),
            a.peak_working_bytes(),
            a.per_layer_bytes(),
        ];
        assert_eq!(got, by_walk(w), "{w}");
    }
}
