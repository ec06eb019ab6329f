//! Property-based tests of the inference workload cost model, sampled
//! from a seeded [`SplitMix64`] stream.

use dabench_core::gen::{self, Tier};
use dabench_core::SplitMix64;
use dabench_model::{InferenceWorkload, InferenceWorkloadError, ModelConfig, Precision};

/// Sampled cases per property.
const CASES: usize = 64;

fn workload(batch: u64, prompt: u64, decode: u64) -> InferenceWorkload {
    InferenceWorkload::new(
        ModelConfig::llama2_7b(),
        batch,
        prompt,
        decode,
        Precision::Fp16,
    )
    .expect("in-range dimensions")
}

/// Decode arithmetic intensity falls monotonically as the context
/// grows for any batched workload: each cached token adds attention
/// FLOPs and KV bytes at a fixed 1 FLOP/B marginal ratio (h == kv_dim
/// at FP16), below the batch-amortized weight-stream intensity of
/// ~B FLOP/B — so long-context decode sinks toward the memory-bound
/// asymptote. At B=1 the marginal ratio equals the asymptote and the
/// curve is flat, which is exactly why batching is what creates
/// intensity headroom to lose.
#[test]
fn decode_intensity_is_monotone_decreasing_in_context() {
    let mut rng = SplitMix64::new(0x1C_0001);
    for _ in 0..CASES {
        let batch = 1u64 << (1 + rng.below(6));
        let ctx = 16 + rng.below(8176);
        let step = 1 + rng.below(2047);
        let w = workload(batch, 128, 16);
        let near = w.decode_step_cost(ctx);
        let far = w.decode_step_cost(ctx + step);
        assert!(
            far.intensity < near.intensity,
            "ctx {} -> {}: intensity {} !< {}",
            ctx,
            ctx + step,
            far.intensity,
            near.intensity
        );
    }
}

/// Phase FLOPs are exactly linear in batch size: sequences do not
/// interact, so a batch of B costs B single-sequence passes.
#[test]
fn phase_flops_are_linear_in_batch() {
    let mut rng = SplitMix64::new(0x1C_0002);
    for _ in 0..CASES {
        let batch = 2 + rng.below(126);
        let prompt = 16 + rng.below(2032);
        let decode = 1 + rng.below(255);
        let one = workload(1, prompt, decode);
        let many = workload(batch, prompt, decode);
        let b = batch as f64;
        assert!(
            (many.prefill_cost().flops - b * one.prefill_cost().flops).abs()
                <= 1e-9 * many.prefill_cost().flops
        );
        assert!(
            (many.decode_cost().flops - b * one.decode_cost().flops).abs()
                <= 1e-9 * many.decode_cost().flops
        );
    }
}

/// GQA shrinks the KV cache by exactly the head-grouping ratio:
/// LLaMA-2-70B keeps 8 KV heads of 128 dims (kv_dim 1024) against
/// 7B's full MHA kv_dim 4096 — a 4x smaller cache per layer-token at
/// any context, exactly.
#[test]
fn gqa_cache_ratio_is_pinned_by_kv_dim() {
    let small = ModelConfig::llama2_7b();
    let large = ModelConfig::llama2_70b();
    assert_eq!(small.kv_dim(), 4096);
    assert_eq!(large.kv_dim(), 1024);
    let w7 = InferenceWorkload::new(small.clone(), 1, 128, 16, Precision::Fp16).unwrap();
    let w70 = InferenceWorkload::new(large.clone(), 1, 128, 16, Precision::Fp16).unwrap();
    let mut rng = SplitMix64::new(0x1C_0003);
    for _ in 0..CASES {
        let ctx = 1 + rng.below(16383);
        let per_layer_7 = w7.kv_cache_bytes_per_seq(ctx) / small.num_layers;
        let per_layer_70 = w70.kv_cache_bytes_per_seq(ctx) / large.num_layers;
        assert_eq!(per_layer_7, 4 * per_layer_70, "ctx {ctx}");
    }
}

/// KV-cache bytes scale exactly with the storage precision while
/// weights stay at the compute precision.
#[test]
fn kv_precision_halves_cache_not_weights() {
    let mut rng = SplitMix64::new(0x1C_0004);
    for _ in 0..CASES {
        let batch = 1 + rng.below(63);
        let prompt = 16 + rng.below(2032);
        let w16 = workload(batch, prompt, 64);
        let w8 = w16.clone().with_kv_precision(Precision::Fp8);
        assert_eq!(w16.kv_cache_peak_bytes(), 2 * w8.kv_cache_peak_bytes());
        assert_eq!(w16.weight_bytes(), w8.weight_bytes());
    }
}

/// Absurd dimensions are rejected with a structured error, never a
/// panic or a silent wrap.
#[test]
fn overflow_prone_dimensions_error_cleanly() {
    let mut rng = SplitMix64::new(0x1C_0005);
    for _ in 0..CASES {
        let huge = 1u64 << (30 + rng.below(33));
        let r = InferenceWorkload::new(ModelConfig::llama2_7b(), huge, huge, 1, Precision::Fp16);
        if let Err(e) = r {
            assert!(
                matches!(e, InferenceWorkloadError::DimensionOverflow { .. }),
                "{e:?}"
            );
        }
    }
}

/// `decode_cost` computes the context-free terms once, before its loop;
/// every field must still equal, bit for bit, the sum of the per-step
/// costs it stands for. Workloads come from every `gen` tier menu, on
/// the batch ladders the population checker walks. Their power-of-two
/// dimensions keep every sum exact; on the odd-shaped workloads the FLOP
/// and KV-read sums pass 2^53 with low bits set and round, so adding each
/// step's copy differs from multiplying by the step count there. (The
/// weight and KV-write sums stay whole numbers below 2^53, exact either
/// way.)
#[test]
fn decode_cost_equals_the_per_step_walk_bit_for_bit() {
    let walk = |w: &InferenceWorkload| {
        let (mut flops, mut wb, mut kv_read, mut kv_write) = (0.0, 0.0, 0.0, 0.0);
        for i in 0..w.decode_len() {
            let c = w.decode_step_cost(w.prompt_len() + i);
            flops += c.flops;
            wb += c.weight_bytes;
            kv_read += c.kv_read_bytes;
            kv_write += c.kv_write_bytes;
        }
        [
            flops,
            wb,
            kv_read,
            kv_write,
            flops / (wb + kv_read + kv_write),
        ]
    };
    let odd = [(1599, 95, 4095), (4095, 33, 1023)].map(|(hidden, layers, prompt)| {
        let model = ModelConfig::gpt2_probe(hidden, layers);
        InferenceWorkload::new(model, 1, prompt, 256, Precision::Fp32).expect("in range")
    });
    let menus = Tier::ALL
        .into_iter()
        .flat_map(|tier| (0..48).map(move |i| gen::sample(tier, 0x1C_0005, i)))
        .map(|s| s.inference_workload());
    let mut checked = 0;
    for base in menus.chain(odd) {
        for batch in [1, 3, 64, 999, 65_535, 65_536] {
            let Ok(w) = base.with_batch_size(batch) else {
                continue;
            };
            let c = w.decode_cost();
            let got = [
                c.flops,
                c.weight_bytes,
                c.kv_read_bytes,
                c.kv_write_bytes,
                c.intensity,
            ];
            for (field, (g, want)) in got.iter().zip(walk(&w)).enumerate() {
                assert_eq!(g.to_bits(), want.to_bits(), "{w}: field {field}");
            }
            checked += 1;
        }
    }
    assert!(checked > 1000, "only {checked} workloads checked");
}
