//! Seeded property tests for the interned-symbol table and the arena
//! graph: round-trips, dedup, no collisions, builder-vs-catalogue
//! equivalence, and the template graph and its cost patch, which back
//! incremental sweep recompilation, pinned bit for bit against the
//! full-depth build.
//!
//! Generators draw from the seeded [`SplitMix64`]: every case reproduces
//! from the printed seed.

use dabench_core::gen::{self, Tier};
use dabench_core::{training_graph, SplitMix64};
use dabench_graph::{DataflowGraph, GraphBuilder, Interner, TemplateGraph};
use dabench_model::ops::{self, Phase};
use dabench_model::{Activation, ModelConfig, PositionalEncoding, Precision, TrainingWorkload};
use std::collections::BTreeMap;

/// A uniformly chosen element of `items`.
fn pick<T: Copy>(rng: &mut SplitMix64, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize]
}

/// A random op-shaped name: dotted segments over a small alphabet, so the
/// population contains near-misses (shared prefixes/suffixes) that would
/// expose a sloppy hash or a bucket-compare bug.
fn random_name(rng: &mut SplitMix64) -> String {
    const SEGMENTS: [&str; 12] = [
        "qkv_proj", "rope", "softmax", "mlp_up", "mlp_down", "norm1", "norm2", "fwd", "bwd", "upd",
        "attn", "loss",
    ];
    let mut s = String::new();
    if rng.below(2) == 0 {
        s.push('l');
        s.push_str(&rng.below(100).to_string());
        s.push('.');
    }
    let parts = 1 + rng.below(3);
    for i in 0..parts {
        if i > 0 {
            s.push('.');
        }
        s.push_str(pick(rng, &SEGMENTS));
    }
    if rng.below(3) == 0 {
        s.push_str(&rng.below(10_000).to_string());
    }
    s
}

#[test]
fn intern_resolve_round_trips_and_dedups_10k_seeded_names() {
    let mut rng = SplitMix64::new(0xDAB3_2024);
    let mut interner = Interner::new();
    let mut by_name: std::collections::HashMap<String, dabench_graph::Symbol> =
        std::collections::HashMap::new();

    for _ in 0..10_000 {
        let name = random_name(&mut rng);
        let sym = interner.intern(&name);
        // Round trip: the symbol resolves to exactly the interned string.
        assert_eq!(interner.resolve(sym), name, "round trip failed");
        match by_name.get(&name) {
            // Dedup: re-interning an existing name returns the same symbol.
            Some(&prev) => assert_eq!(prev, sym, "dedup failed for {name:?}"),
            None => {
                by_name.insert(name, sym);
            }
        }
    }

    // No collisions: distinct names got distinct symbols, and the table
    // size equals the number of unique names seen.
    assert_eq!(interner.len(), by_name.len());
    let mut symbols: Vec<u32> = by_name.values().map(|s| s.0).collect();
    symbols.sort_unstable();
    symbols.dedup();
    assert_eq!(symbols.len(), by_name.len(), "symbol collision");

    // Non-inserting lookup agrees with the insert path.
    for (name, &sym) in &by_name {
        assert_eq!(interner.get(name), Some(sym));
    }
    assert_eq!(interner.get("never-interned-name"), None);
}

/// Random topology-preserving workload menu: the step-graph shape depends
/// only on (family, num_layers), so points sharing those differ in costs
/// alone.
fn random_workload(rng: &mut SplitMix64) -> TrainingWorkload {
    let layers = 1 + rng.below(6);
    let hidden = pick(rng, &[256u64, 512, 768]);
    let model = if rng.below(2) == 0 {
        ModelConfig::gpt2_probe(hidden, layers)
    } else {
        ModelConfig::llama2_probe(hidden, layers)
    };
    let batch = 1 + rng.below(32);
    let seq = pick(rng, &[128u64, 256, 512]);
    TrainingWorkload::new(model, batch, seq, Precision::Fp16)
}

#[test]
fn arena_graph_matches_op_catalogue_for_random_workloads() {
    let mut rng = SplitMix64::new(0x5EED_0001);
    for trial in 0..40 {
        let w = random_workload(&mut rng);
        let graph = GraphBuilder::for_workload(&w);
        let catalogue = ops::training_step_ops(w.model(), w.batch_size(), w.seq_len());

        // Node-for-node equality with the legacy string-named catalogue,
        // in catalogue order.
        assert_eq!(graph.node_count(), catalogue.len(), "trial {trial}");
        for (i, legacy) in catalogue.iter().enumerate() {
            let node = graph.op(dabench_graph::NodeId(i));
            assert_eq!(node.name(), legacy.name, "trial {trial} node {i}");
            assert_eq!(node.class(), legacy.class, "trial {trial} node {i}");
            assert_eq!(node.phase(), legacy.phase, "trial {trial} node {i}");
            assert_eq!(node.layer(), legacy.layer, "trial {trial} node {i}");
            assert!(
                node.flops() == legacy.flops
                    && node.params() == legacy.params
                    && node.in_elems() == legacy.in_elems
                    && node.out_elems() == legacy.out_elems,
                "trial {trial} node {i}: cost drift"
            );
            // The interner finds every node by its rendered name.
            assert_eq!(graph.find(&legacy.name), Some(dabench_graph::NodeId(i)));
        }

        // Every backward node twins a forward node carrying the swapped
        // suffix.
        for (id, node) in graph.iter() {
            if node.phase() == Phase::Backward {
                let twin = graph.forward_twin(id).expect("backward node has twin");
                assert_eq!(
                    graph.op(twin).name(),
                    node.name().replace(".bwd", ".fwd"),
                    "trial {trial}"
                );
            }
        }

        // The memoized summary equals direct in-order sums.
        let s = graph.summary();
        let direct_total: f64 = catalogue.iter().map(|o| o.flops).sum();
        assert!(
            s.total_flops == direct_total,
            "trial {trial}: summary drift"
        );
        let direct_fwd_elems: u64 = catalogue
            .iter()
            .filter(|o| o.phase == Phase::Forward)
            .map(|o| o.out_elems)
            .sum();
        assert_eq!(s.forward_out_elems, direct_fwd_elems, "trial {trial}");
    }
}

fn same_bits(got: f64, want: f64, ctx: &str, what: &str) {
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "{ctx}: {what} {got} vs {want}"
    );
}

/// `t` is the template of the full-depth graph `full`, bit for bit: its
/// nodes are `full`'s fixed operators and decoder layer 0, in node order,
/// with the same name, class, phase, layer, cost, forward twin and `find`
/// result, and its summary equals the one `full` summed node by node.
fn assert_template_of(t: &TemplateGraph, full: &DataflowGraph, ctx: &str) {
    let want: Vec<_> = full
        .iter()
        .filter(|(_, op)| matches!(op.layer(), None | Some(0)))
        .map(|(_, op)| op)
        .collect();
    assert_eq!(
        t.template_nodes().count(),
        want.len(),
        "{ctx}: template size"
    );
    assert_eq!(t.node_count(), full.node_count(), "{ctx}: full-depth count");
    for (got, want) in t.template_nodes().zip(&want) {
        let name = want.name();
        assert_eq!(got.name(), name, "{ctx}");
        assert_eq!(got.class(), want.class(), "{ctx}: {name}");
        assert_eq!(got.phase(), want.phase(), "{ctx}: {name}");
        assert_eq!(got.layer(), want.layer(), "{ctx}: {name}");
        same_bits(got.flops(), want.flops(), ctx, name);
        assert_eq!(got.cost(), want.cost(), "{ctx}: {name}");
        assert_eq!(t.find(name), Some(got.id()), "{ctx}: find {name}");
        assert_eq!(
            t.forward_twin(got.id()).map(|id| t.op(id).name()),
            full.forward_twin(want.id()).map(|id| full.op(id).name()),
            "{ctx}: twin of {name}"
        );
    }
    let (s, r) = (t.summary(), full.summary());
    same_bits(s.total_flops, r.total_flops, ctx, "total_flops");
    same_bits(s.layer_flops, r.layer_flops, ctx, "layer_flops");
    same_bits(
        s.layer0_forward_flops,
        r.layer0_forward_flops,
        ctx,
        "layer0_fwd",
    );
    assert_eq!(
        s.layer0_forward_out_elems, r.layer0_forward_out_elems,
        "{ctx}"
    );
    assert_eq!(s.forward_out_elems, r.forward_out_elems, "{ctx}");
    assert_eq!(
        s.forward_out_elems_no_attn_internal, r.forward_out_elems_no_attn_internal,
        "{ctx}"
    );
}

/// The template of `w`, built from scratch.
fn template_of(w: &TrainingWorkload) -> ops::StepTemplate {
    ops::step_template(w.model(), w.batch_size(), w.seq_len())
}

/// Workloads of every `gen` tier menu, both families, and the paper's
/// (Table I's layer sweep up to its 72- and 78-layer probes, the RDU and
/// IPU probes, LLaMA-2 7B and GPT-2 XL), plus two odd-shaped ones.
fn reference_workloads() -> Vec<TrainingWorkload> {
    let mut ws: Vec<TrainingWorkload> = Tier::ALL
        .into_iter()
        .flat_map(|tier| (0..48).map(move |i| gen::sample(tier, 0x5EED_0005, i)))
        .map(|s| s.training_workload())
        .collect();
    let paper = [
        (ModelConfig::gpt2_probe(480, 12), 8, 1024, Precision::Fp16),
        (ModelConfig::gpt2_probe(1600, 12), 8, 1024, Precision::Fp16),
        (ModelConfig::llama2_probe(8192, 4), 4, 2048, Precision::Bf16),
        (ModelConfig::gpt2_probe(768, 10), 64, 1024, Precision::Fp16),
        (ModelConfig::llama2_7b(), 8, 4096, Precision::Bf16),
        (ModelConfig::gpt2_xl(), 16, 1024, Precision::Fp16),
        // The menus' power-of-two dimensions keep every FLOP sum exact.
        // Odd ones take the sums past 2^53 with low bits set, so they
        // round, and adding each layer copy differs from multiplying by
        // the copies.
        (
            ModelConfig::gpt2_probe(1599, 96),
            255,
            4095,
            Precision::Fp32,
        ),
        (
            ModelConfig::llama2_probe(8191, 79),
            3,
            2047,
            Precision::Fp16,
        ),
    ];
    let table1 = [1, 6, 12, 24, 48, 72, 78].map(|layers| {
        (
            ModelConfig::gpt2_probe(768, layers),
            256,
            1024,
            Precision::Fp16,
        )
    });
    for (model, batch, seq, precision) in table1.into_iter().chain(paper) {
        ws.push(TrainingWorkload::new(model, batch, seq, precision));
    }
    ws
}

#[test]
fn template_graph_matches_the_full_depth_build_bit_for_bit() {
    let workloads = reference_workloads();
    let family = |w: &TrainingWorkload| w.model().activation == Activation::SwiGlu;
    assert!(workloads.iter().any(family) && !workloads.iter().all(family));
    assert!(workloads.iter().any(|w| w.model().num_layers == 72));
    for w in &workloads {
        let full = GraphBuilder::for_workload(w);
        let ctx = format!("{} B={} S={}", w.model().name, w.batch_size(), w.seq_len());
        // Built from the template, reduced from the full graph, and
        // through the compile cache, which patches every scenario after
        // the first of its model family.
        assert_template_of(&TemplateGraph::new(&template_of(w)), &full, &ctx);
        assert_template_of(&TemplateGraph::from_full(&full), &full, &ctx);
        assert_template_of(&training_graph(w), &full, &ctx);
    }
}

#[test]
fn cost_patch_equals_rebuild_from_scratch_on_random_deltas() {
    let mut rng = SplitMix64::new(0x5EED_0002);
    for trial in 0..40 {
        let base = random_workload(&mut rng);
        // A topology-preserving delta: batch and/or sequence change, the
        // (family, layers) shape stays — the adjacent-sweep-point case
        // the incremental compile cache patches.
        let batch = 1 + rng.below(32);
        let seq = pick(&mut rng, &[128u64, 256, 512]);
        let next = TrainingWorkload::new(base.model().clone(), batch, seq, base.precision());

        let base_graph = TemplateGraph::new(&template_of(&base));
        let patched = base_graph.patch(&template_of(&next));

        // The patch shares the base topology (no re-interning) yet is
        // observably identical to a from-scratch rebuild.
        assert!(
            patched.shares_topology(&base_graph),
            "trial {trial}: patch re-allocated topology"
        );
        let fresh = GraphBuilder::for_workload(&next);
        assert_template_of(&patched, &fresh, &format!("trial {trial}"));
    }
}

/// Every `gen` tier's training workloads, grouped by template shape
/// (rotary positions, gated MLP): within a group, layer count, hidden
/// size, heads, GQA vs MHA KV heads, FFN width, batch, sequence length
/// and precision vary as the tier menus draw them, across tiers.
fn gen_template_groups() -> BTreeMap<(bool, bool), Vec<(Tier, TrainingWorkload)>> {
    let mut groups: BTreeMap<_, Vec<_>> = BTreeMap::new();
    for tier in Tier::ALL {
        for index in 0..64 {
            let w = gen::sample(tier, 0x5EED_0003, index).training_workload();
            let m = w.model();
            let key = (
                m.positional == PositionalEncoding::Rotary,
                m.activation == Activation::SwiGlu,
            );
            groups.entry(key).or_default().push((tier, w));
        }
    }
    groups
}

#[test]
fn patch_from_any_same_topology_basis_equals_a_fresh_build() {
    let groups: Vec<_> = gen_template_groups()
        .into_values()
        .filter(|g| g.len() >= 2)
        .collect();
    let vocabs = [
        ModelConfig::gpt2_probe(768, 1).vocab_size,
        ModelConfig::llama2_probe(1024, 1).vocab_size,
    ];
    let mut rng = SplitMix64::new(0x5EED_0004);
    let (mut cross_tier, mut gqa_vs_mha, mut new_hidden, mut new_vocab) = (0, 0, 0, 0);
    let mut new_depth = 0;
    for trial in 0..64 {
        let group = &groups[rng.below(groups.len() as u64) as usize];
        let i = rng.below(group.len() as u64) as usize;
        let j = (i + 1 + rng.below(group.len() as u64 - 1) as usize) % group.len();
        let (basis_tier, basis) = &group[i];
        let (target_tier, target) = &group[j];
        // The tier menus tie vocab to the family; redraw it for half the
        // targets so vocab varies within a template shape too.
        let target = if rng.below(2) == 0 {
            let model = ModelConfig {
                vocab_size: pick(&mut rng, &vocabs),
                ..target.model().clone()
            };
            TrainingWorkload::new(
                model,
                target.batch_size(),
                target.seq_len(),
                target.precision(),
            )
        } else {
            target.clone()
        };
        let (bm, tm) = (basis.model(), target.model());
        cross_tier += usize::from(basis_tier != target_tier);
        gqa_vs_mha +=
            usize::from((bm.num_kv_heads < bm.num_heads) != (tm.num_kv_heads < tm.num_heads));
        new_hidden += usize::from(bm.hidden_size != tm.hidden_size);
        new_vocab += usize::from(bm.vocab_size != tm.vocab_size);
        new_depth += usize::from(bm.num_layers != tm.num_layers);

        let base_graph = TemplateGraph::new(&template_of(basis));
        let patched = base_graph.patch(&template_of(&target));
        assert!(
            patched.shares_topology(&base_graph),
            "trial {trial}: patch re-allocated topology"
        );
        let ctx = format!("trial {trial}: {} from {}", tm.name, bm.name);
        assert_template_of(&patched, &GraphBuilder::for_workload(&target), &ctx);
    }
    // The draw must reach the pairs the single-model deltas above cannot.
    assert!(cross_tier > 0, "no cross-tier pair drawn");
    assert!(gqa_vs_mha > 0, "no GQA-vs-MHA pair drawn");
    assert!(new_hidden > 0, "no hidden-size change drawn");
    assert!(new_vocab > 0, "no vocab change drawn");
    assert!(new_depth > 0, "no layer-count change drawn");
}
