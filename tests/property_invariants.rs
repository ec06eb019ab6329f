//! Property-based tests over the framework's core invariants, driven by
//! randomized model/workload configurations drawn from a seeded
//! [`SplitMix64`] stream, so every failure reproduces.

use dabench::core::metrics::{
    allocation_ratio, load_imbalance, weighted_allocation_ratio, weighted_load_imbalance, Roofline,
};
use dabench::core::{SplitMix64, TaskProfile};
use dabench::graph::GraphBuilder;
use dabench::ipu::{pipeline_parallel, IpuCompilerParams, IpuSpec};
use dabench::model::{ModelConfig, Precision, TrainingWorkload};
use dabench::sim::steady_state_analysis;

/// Sampled cases per property.
const CASES: usize = 64;

/// A vector of `1..max_len` values drawn uniformly from `[lo, hi)`.
fn floats(rng: &mut SplitMix64, max_len: u64, lo: f64, hi: f64) -> Vec<f64> {
    (0..1 + rng.below(max_len - 1))
        .map(|_| rng.uniform(lo, hi))
        .collect()
}

/// Any GPT-style probe builds a step whose op count is linear in depth,
/// 9 fixed operators plus 12 per layer and phase, with positive FLOPs.
#[test]
fn training_graph_node_count_is_linear_in_depth() {
    let mut rng = SplitMix64::new(0x1A_0001);
    for _ in 0..CASES {
        let hs = 64 * (1 + rng.below(7));
        let layers = 1 + rng.below(9);
        let batch = 1 + rng.below(7);
        let seq = 1 << (5 + rng.below(4));
        let cfg = ModelConfig::gpt2_probe(hs, layers);
        let g = GraphBuilder::training_step(&cfg, batch, seq);
        assert_eq!(g.node_count() as u64, 9 + 2 * 12 * layers);
        assert!(g.total_flops() > 0.0);
    }
}

/// FLOPs scale exactly linearly in batch (minus the constant optimizer
/// term).
#[test]
fn flops_linear_in_batch() {
    let mut rng = SplitMix64::new(0x1A_0002);
    for _ in 0..CASES {
        let hs = 64 * (1 + rng.below(5));
        let layers = 1 + rng.below(7);
        let b = 1 + rng.below(15);
        let cfg = ModelConfig::gpt2_probe(hs, layers);
        let w1 = TrainingWorkload::new(cfg.clone(), b, 256, Precision::Fp16);
        let w2 = TrainingWorkload::new(cfg, 2 * b, 256, Precision::Fp16);
        let opt = 10.0 * w1.model().parameter_count() as f64;
        let f1 = w1.training_flops_per_step() - opt;
        let f2 = w2.training_flops_per_step() - opt;
        assert!(
            (f2 / f1 - 2.0).abs() < 1e-9,
            "hs {hs}, layers {layers}, batch {b}"
        );
    }
}

/// The load-imbalance metric is always in (0, 1] and invariant to
/// uniform throughput scaling.
#[test]
fn li_bounds_and_scale_invariance() {
    let mut rng = SplitMix64::new(0x1A_0003);
    for _ in 0..CASES {
        let tps = floats(&mut rng, 20, 0.1, 1000.0);
        let res = floats(&mut rng, 20, 0.1, 100.0);
        let scale = rng.uniform(0.01, 100.0);
        let n = tps.len().min(res.len());
        let tasks: Vec<TaskProfile> = (0..n)
            .map(|i| TaskProfile::new(format!("t{i}"), tps[i], res[i]))
            .collect();
        let li = load_imbalance(&tasks).unwrap();
        assert!(li > 0.0 && li <= 1.0 + 1e-12);
        let scaled: Vec<TaskProfile> = tasks
            .iter()
            .map(|t| TaskProfile::new(t.name.clone(), t.throughput * scale, t.resources))
            .collect();
        let li2 = load_imbalance(&scaled).unwrap();
        assert!((li - li2).abs() < 1e-9);
    }
}

/// Weighted allocation is a convex combination: it lies between the
/// min and max per-section ratios.
#[test]
fn weighted_allocation_is_convex() {
    let mut rng = SplitMix64::new(0x1A_0004);
    for _ in 0..CASES {
        let recs: Vec<(f64, u64, u64)> = (0..1 + rng.below(19))
            .map(|_| {
                let l = rng.uniform(0.001, 100.0);
                let used = rng.below(640);
                let avail = 1 + rng.below(640);
                (l, used.min(avail), avail)
            })
            .collect();
        let w = weighted_allocation_ratio(&recs).unwrap();
        let ratios: Vec<f64> = recs
            .iter()
            .map(|&(_, u, a)| allocation_ratio(u, a).unwrap())
            .collect();
        let lo = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ratios.iter().cloned().fold(0.0f64, f64::max);
        assert!(w >= lo - 1e-12 && w <= hi + 1e-12);
    }
}

/// Weighted LI is likewise a convex combination.
#[test]
fn weighted_li_is_convex() {
    let mut rng = SplitMix64::new(0x1A_0005);
    for _ in 0..CASES {
        let sections: Vec<(f64, f64)> = (0..1 + rng.below(19))
            .map(|_| (rng.uniform(0.001, 100.0), rng.next_f64()))
            .collect();
        let w = weighted_load_imbalance(&sections).unwrap();
        let lo = sections.iter().map(|s| s.1).fold(f64::INFINITY, f64::min);
        let hi = sections.iter().map(|s| s.1).fold(0.0f64, f64::max);
        assert!(w >= lo - 1e-12 && w <= hi + 1e-12);
    }
}

/// Roofline attainable throughput is monotone in intensity and capped
/// at peak; classification flips exactly at the ridge.
#[test]
fn roofline_monotone() {
    let mut rng = SplitMix64::new(0x1A_0006);
    for _ in 0..CASES {
        let peak = rng.uniform(1.0, 1e4);
        let bw = rng.uniform(1e9, 1e16);
        let ai = rng.uniform(0.01, 1e5);
        let r = Roofline::new(peak, bw);
        let a1 = r.attainable_tflops(ai);
        let a2 = r.attainable_tflops(ai * 2.0);
        assert!(a2 >= a1 - 1e-12);
        assert!(a1 <= peak + 1e-12);
        let ridge = r.ridge_intensity();
        assert_eq!(
            r.classify(ai) == dabench::core::BoundKind::ComputeBound,
            ai >= ridge
        );
    }
}

/// The IPU's layer split over `k` decoder IPUs gives each at least one
/// layer, covers all `L` layers, and loads the heaviest with `⌈L/k⌉`, the
/// least any split of `L` identical layers can.
#[test]
fn balanced_partition_invariants() {
    let mut rng = SplitMix64::new(0x1A_0007);
    let (spec, params) = (IpuSpec::bow2000(), IpuCompilerParams::default());
    for _ in 0..CASES {
        let layers = 1 + rng.below(39);
        let k = 1 + rng.below(layers);
        let w = TrainingWorkload::new(
            ModelConfig::gpt2_probe(256, layers),
            1,
            128,
            Precision::Fp16,
        );
        let devices = u32::try_from(k + 1).unwrap();
        let plan = pipeline_parallel(&spec, &params, &w, devices).unwrap();
        let split: Vec<u64> = plan.stages[1..].iter().map(|s| s.layers).collect();
        assert_eq!(split.len() as u64, k, "L={layers}");
        assert!(split.iter().all(|&l| l >= 1), "{split:?}");
        assert_eq!(split.iter().sum::<u64>(), layers, "{split:?}");
        assert_eq!(split.iter().max(), Some(&layers.div_ceil(k)), "{split:?}");
    }
}

/// Makespan of `items` items through a linear chain with one slot per
/// stage, items in order: `f[i][s] = max(f[i-1][s], f[i][s-1]) + t[s]`.
fn chain_makespan(times: &[f64], items: u64) -> f64 {
    let mut done = vec![0.0f64; times.len()];
    for _ in 0..items {
        let mut upstream = 0.0f64;
        for (f, &t) in done.iter_mut().zip(times) {
            *f = f.max(upstream) + t;
            upstream = *f;
        }
    }
    *done.last().expect("stages")
}

/// Pipeline algebra: total time equals fill + (n-1)·bottleneck and the
/// chain's max-plus recurrence, and efficiency approaches 1 as items grow.
#[test]
fn pipeline_algebra() {
    let mut rng = SplitMix64::new(0x1A_0009);
    for _ in 0..CASES {
        let times = floats(&mut rng, 20, 0.001, 10.0);
        let items = 1 + rng.below(499);
        let r = steady_state_analysis(&times, items);
        let expect = times.iter().sum::<f64>() + (items - 1) as f64 * r.bottleneck_time;
        assert!((r.total_time - expect).abs() < 1e-9);
        let chain = chain_makespan(&times, items);
        assert!(
            (r.total_time - chain).abs() < 1e-9,
            "{} stages, {items} items: closed form {} vs recurrence {chain}",
            times.len(),
            r.total_time
        );
        assert!(r.pipeline_efficiency > 0.0 && r.pipeline_efficiency <= 1.0 + 1e-12);
        let more = steady_state_analysis(&times, items + 100);
        assert!(more.pipeline_efficiency >= r.pipeline_efficiency - 1e-12);
    }
}

/// Workload accounting: state bytes follow the precision and the
/// arithmetic intensity is finite and positive.
#[test]
fn workload_accounting() {
    const PRECISIONS: [Precision; 4] = [
        Precision::Fp32,
        Precision::Fp16,
        Precision::Bf16,
        Precision::Cb16,
    ];
    let mut rng = SplitMix64::new(0x1A_000A);
    for _ in 0..CASES {
        let hs = 64 * (1 + rng.below(7));
        let layers = 1 + rng.below(7);
        let batch = 1 + rng.below(15);
        let precision = PRECISIONS[rng.below(4) as usize];
        let w = TrainingWorkload::new(ModelConfig::gpt2_probe(hs, layers), batch, 256, precision);
        let per_param = 2 * precision.bytes_per_element() + 8;
        assert_eq!(
            w.training_state_bytes(),
            per_param * w.model().parameter_count()
        );
        let ai = w.arithmetic_intensity();
        assert!(ai.is_finite() && ai > 0.0);
    }
}
