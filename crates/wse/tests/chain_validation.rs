//! Cross-validation: the WSE runtime's closed-form pipeline timing must
//! agree with the max-plus recurrence of the same kernel chain.

use dabench_model::{ModelConfig, Precision, TrainingWorkload};
use dabench_wse::{compile, execute, Wse};

fn workload(layers: u64, batch: u64) -> TrainingWorkload {
    TrainingWorkload::new(
        ModelConfig::gpt2_probe(768, layers),
        batch,
        1024,
        Precision::Fp16,
    )
}

/// Makespan of the kernel pipeline with one slot per kernel and `batch`
/// items flowing through in order: item `i` leaves kernel `s` at
/// `f[i][s] = max(f[i-1][s], f[i][s-1]) + t[s]`.
fn chain_makespan(stage_times: &[f64], batch: u64) -> f64 {
    let mut done = vec![0.0f64; stage_times.len()];
    for _ in 0..batch {
        let mut upstream = 0.0f64;
        for (f, t) in done.iter_mut().zip(stage_times) {
            *f = f.max(upstream) + t;
            upstream = *f;
        }
    }
    *done.last().expect("stages")
}

#[test]
fn closed_form_matches_recurrence() {
    let wse = Wse::default();
    for (layers, batch) in [(6u64, 16u64), (12, 32), (24, 8)] {
        let w = workload(layers, batch);
        let c = compile(wse.wse_spec(), wse.compiler_params(), &w, None).expect("compiles");
        let e = execute(wse.wse_spec(), wse.compiler_params(), &c, &w);
        let chain_time = chain_makespan(&e.stage_times_s, batch);
        let err = (chain_time - e.step_time_s).abs() / e.step_time_s;
        assert!(
            err < 1e-9,
            "L={layers} B={batch}: closed-form {} vs recurrence {chain_time}",
            e.step_time_s
        );
    }
}

#[test]
fn recurrence_confirms_bottleneck_dominance() {
    // Artificially slowing the bottleneck stage by 2× should slow the
    // whole pipeline by nearly 2× at large batch — verified on the chain.
    let wse = Wse::default();
    let w = workload(12, 128);
    let c = compile(wse.wse_spec(), wse.compiler_params(), &w, None).expect("compiles");
    let e = execute(wse.wse_spec(), wse.compiler_params(), &c, &w);

    let base = chain_makespan(&e.stage_times_s, 128);
    let mut slowed = e.stage_times_s.clone();
    let bottleneck = slowed
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(i, _)| i)
        .expect("stages");
    slowed[bottleneck] *= 2.0;
    let slow = chain_makespan(&slowed, 128);
    let ratio = slow / base;
    assert!((1.6..2.1).contains(&ratio), "{ratio}");
}
