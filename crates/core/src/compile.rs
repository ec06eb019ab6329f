//! Cached, incremental construction of training-step dataflow graphs.
//!
//! Every platform compile path used to rebuild its operator graph from
//! scratch for every sweep point, even though adjacent points in the
//! fig7/8/9/11 and `gen` sweeps share most of their graph. This module is
//! the single entry point those paths now call:
//!
//! - [`training_graph`] returns a step as its [`TemplateGraph`]: the
//!   fixed operators and decoder layer 0 (37 nodes for LLaMA-2, 33 for
//!   GPT-2), the layer count, and the full-depth summary. Building one
//!   touches the same nodes at any depth;
//! - it memoizes those graphs per [`TrainingWorkload`] (the workload is
//!   `Eq + Hash`, playing the role the tier-1 [`crate::CacheKey`] plays
//!   for profiles), and
//! - when a graph of the **same template** (same positional encoding and
//!   activation family) was built before, it *patches* that graph via
//!   [`TemplateGraph::patch`] instead of rebuilding: re-derive the
//!   template's costs with [`ops::step_template`] (no name rendering, no
//!   interning), replay the summary at the new depth, and share the
//!   frozen template names behind their `Arc`.
//!
//! # Invalidation rules
//!
//! A cached graph is keyed by the full workload, so any change hits a
//! different entry. A *patch basis* is only reused for a workload of its
//! own template shape; layer count, hidden size, heads, KV heads, FFN
//! width, vocab, batch size, sequence length, and precision changes all
//! patch, while the first graph of a model family is a template build.
//!
//! # Determinism
//!
//! The rendered output of a sweep must be byte-identical at any `--jobs`,
//! under `--shards`, and across `--resume`. Two regimes keep it so:
//!
//! - **Recorder off** (plain runs): a process-global [`LruStore`] of
//!   graphs plus a bounded [`LruStore`] of patch bases, one per template
//!   shape. Caching is invisible here because a hit or a patch returns a
//!   value bitwise equal to a rebuild (proven by the differential test
//!   layer and the `intern_props` property tests of `dabench-graph`).
//! - **Recorder on** (`--metrics`/`--trace-out`): the cache lives in the
//!   *per-point* observability context instead, so the new
//!   `compile.incremental_hits`/`misses`/`patched_nodes` and
//!   `graph.interned_symbols` counters depend only on the point's own
//!   call sequence, never on sweep scheduling. Its basis is the single
//!   most recently built graph, used only at the same layer count: which
//!   calls patch is part of those counters, and the golden traces pin
//!   them. The counters count nodes of the full-depth step, so they read
//!   what a full-depth build and patch would. This mirrors how
//!   [`crate::tier1_cached`] bypasses its global cache when the recorder
//!   is on.
//!
//! # Escape hatch
//!
//! Set `DABENCH_NO_INCREMENTAL=1` (or call [`set_incremental`]) to force
//! every call down the full rebuild path — no caching, no patching, no
//! compile counters: each call builds the full-depth graph and reduces it
//! to its template with [`TemplateGraph::from_full`], keeping the summary
//! the full graph summed node by node. The differential harness runs
//! every sweep both ways and asserts byte-identical renderings, which
//! checks the replayed summary end to end.

use crate::lru::LruStore;
use crate::obs;
use dabench_graph::{GraphBuilder, TemplateGraph};
use dabench_model::ops;
use dabench_model::{Activation, PositionalEncoding, TrainingWorkload};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

/// Per-point compile cache, stored inside the observability context when
/// the recorder is on (see [`crate::obs`]).
#[derive(Debug, Default)]
pub(crate) struct CompileScratch {
    map: HashMap<TrainingWorkload, Arc<TemplateGraph>>,
    last: Option<(TopologyKey, Arc<TemplateGraph>)>,
}

/// Incremental-compilation switch: 0 = read `DABENCH_NO_INCREMENTAL` on
/// first use, 1 = enabled, 2 = disabled.
static INCREMENTAL: AtomicU8 = AtomicU8::new(0);

/// Whole-graph memo used when the recorder is off. Capacity covers every
/// distinct workload of the largest paper sweep with headroom.
static GRAPH_CACHE: OnceLock<LruStore<TrainingWorkload, Arc<TemplateGraph>>> = OnceLock::new();

/// Patch bases used when the recorder is off: the first graph built for
/// each template shape, whose template topology every cached graph of
/// that shape shares, at any depth. Capacity covers every shape.
static PATCH_BASES: OnceLock<LruStore<TemplateKey, Arc<TemplateGraph>>> = OnceLock::new();

fn graph_cache() -> &'static LruStore<TrainingWorkload, Arc<TemplateGraph>> {
    GRAPH_CACHE.get_or_init(|| LruStore::new(256))
}

fn patch_bases() -> &'static LruStore<TemplateKey, Arc<TemplateGraph>> {
    PATCH_BASES.get_or_init(|| LruStore::new(4))
}

/// Whether incremental compilation (memoize + diff-and-patch) is active.
/// Initialized from the `DABENCH_NO_INCREMENTAL` environment variable on
/// first call: any non-empty value other than `0` disables it.
#[must_use]
pub fn is_incremental() -> bool {
    match INCREMENTAL.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let off = std::env::var("DABENCH_NO_INCREMENTAL")
                .map(|v| !v.is_empty() && v != "0")
                .unwrap_or(false);
            INCREMENTAL.store(if off { 2 } else { 1 }, Ordering::Relaxed);
            !off
        }
    }
}

/// Force incremental compilation on or off for this process, overriding
/// the environment. Tests and the differential harness use this; clears
/// the caches so the next call starts from a clean slate.
pub fn set_incremental(on: bool) {
    INCREMENTAL.store(if on { 1 } else { 2 }, Ordering::Relaxed);
    clear_compile_cache();
}

/// Drop every cached graph and patch basis (recorder-off state only; the
/// recorder-on scratch dies with its point context). The bench harness
/// calls this between cases so cold-path timings stay cold.
pub fn clear_compile_cache() {
    graph_cache().clear();
    patch_bases().clear();
}

/// The only model knobs that change a step's template (its operators):
/// rope presence (positional encoding) and gate presence (activation
/// family). Everything else, the layer count included, re-scales costs
/// or the replay only (a model has at least one layer, so every template
/// holds a layer 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TemplateKey {
    positional: PositionalEncoding,
    activation: Activation,
}

impl TemplateKey {
    fn of(w: &TrainingWorkload) -> Self {
        Self {
            positional: w.model().positional,
            activation: w.model().activation,
        }
    }
}

/// The topology of a full-depth step graph: its template and its layer
/// count. The recorder-on compile counters were defined on full-depth
/// graphs, which patch only within one topology, so that path keys its
/// basis by this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TopologyKey {
    template: TemplateKey,
    layers: u64,
}

impl TopologyKey {
    fn of(w: &TrainingWorkload) -> Self {
        Self {
            template: TemplateKey::of(w),
            layers: w.model().num_layers,
        }
    }
}

/// The graph of `w`: a patch of `basis` — a graph of the same
/// [`TemplateKey`] — when there is one, else a template build. A patch
/// shares the basis's template topology; a build never does.
fn build_or_patch(w: &TrainingWorkload, basis: Option<&TemplateGraph>) -> Arc<TemplateGraph> {
    let t = ops::step_template(w.model(), w.batch_size(), w.seq_len());
    Arc::new(match basis {
        Some(b) => b.patch(&t),
        None => TemplateGraph::new(&t),
    })
}

/// Nodes of the full-depth step whose cost differs between two graphs of
/// one topology: each changed template node times its copies.
fn changed_nodes(a: &TemplateGraph, b: &TemplateGraph) -> u64 {
    a.template_nodes()
        .zip(b.template_nodes())
        .filter(|(x, y)| x.cost() != y.cost())
        .map(|(x, _)| a.copies(x))
        .sum()
}

/// The training step of `w`, held as its [`TemplateGraph`] (the fixed
/// operators and decoder layer 0), built through the incremental compile
/// cache.
///
/// Hot path of every platform compile: WSE kernel extraction, RDU
/// sectioning, IPU pipeline accounting, and GPU parallelism ladders all
/// resolve their step (and its [`dabench_graph::StepSummary`]) here. The
/// returned graph is identical — bit-for-bit in every cost and summary
/// field — to `TemplateGraph::from_full(&GraphBuilder::for_workload(w))`,
/// which is what `DABENCH_NO_INCREMENTAL` returns; only the time to
/// produce it changes.
///
/// # Example
///
/// ```
/// use dabench_core::compile::training_graph;
/// use dabench_model::{ModelConfig, Precision, TrainingWorkload};
///
/// let w = TrainingWorkload::new(ModelConfig::gpt2_probe(768, 2), 4, 256, Precision::Fp16);
/// let g = training_graph(&w);
/// assert!((g.summary().total_flops - w.training_flops_per_step()).abs() < 1e-3);
/// ```
#[must_use]
pub fn training_graph(w: &TrainingWorkload) -> Arc<TemplateGraph> {
    if !is_incremental() {
        return Arc::new(TemplateGraph::from_full(&GraphBuilder::for_workload(w)));
    }
    if obs::is_enabled() {
        return training_graph_recorded(w);
    }
    let cache = graph_cache();
    if let Some(g) = cache.get(w) {
        return g;
    }
    let key = TemplateKey::of(w);
    let bases = patch_bases();
    let basis = bases.get(&key);
    let g = build_or_patch(w, basis.as_deref());
    if basis.is_none() {
        bases.insert(key, Arc::clone(&g));
    }
    cache.insert(w.clone(), Arc::clone(&g));
    g
}

/// Recorder-on path: per-point scratch plus compile counters. All scratch
/// borrows are short and never re-enter the recorder; counters fire after
/// the borrow is released. The counters count nodes of the full-depth
/// step, as a full-depth build and patch would have touched them.
fn training_graph_recorded(w: &TrainingWorkload) -> Arc<TemplateGraph> {
    let hit = obs::with_compile_scratch(|s| s.map.get(w).cloned());
    let Some(hit) = hit else {
        // No open point context (e.g. recorder enabled mid-call): build
        // without caching so nothing observable depends on timing.
        return build_or_patch(w, None);
    };
    if let Some(g) = hit {
        obs::counter("compile.incremental_hits", 1.0);
        return g;
    }
    let key = TopologyKey::of(w);
    let basis = obs::with_compile_scratch(|s| {
        s.last
            .as_ref()
            .filter(|(k, _)| *k == key)
            .map(|(_, g)| Arc::clone(g))
    })
    .flatten();
    let g = build_or_patch(w, basis.as_deref());
    obs::counter("compile.incremental_misses", 1.0);
    match basis {
        Some(b) => obs::counter("compile.patched_nodes", changed_nodes(&b, &g) as f64),
        None => obs::counter("graph.interned_symbols", g.node_count() as f64),
    }
    obs::with_compile_scratch(|s| {
        s.last = Some((key, Arc::clone(&g)));
        s.map.insert(w.clone(), Arc::clone(&g));
    });
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use dabench_model::{ModelConfig, Precision};
    use std::sync::Mutex as StdMutex;

    /// The incremental switch and caches are process-global.
    static TEST_LOCK: StdMutex<()> = StdMutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        let g = TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        set_incremental(true);
        g
    }

    fn w(hidden: u64, layers: u64, batch: u64) -> TrainingWorkload {
        TrainingWorkload::new(
            ModelConfig::gpt2_probe(hidden, layers),
            batch,
            256,
            Precision::Fp16,
        )
    }

    /// `g` equals the template of a fresh full-depth build of `wl`: same
    /// nodes, same costs, same summary.
    fn assert_equals_full_build(g: &TemplateGraph, wl: &TrainingWorkload) {
        let fresh = TemplateGraph::from_full(&GraphBuilder::for_workload(wl));
        assert_eq!(g.layers(), fresh.layers());
        assert!(g.template_nodes().count() == fresh.template_nodes().count());
        for (a, b) in g.template_nodes().zip(fresh.template_nodes()) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.cost(), b.cost(), "{}", a.name());
        }
        assert_eq!(g.summary(), fresh.summary());
    }

    #[test]
    fn cached_graph_equals_fresh_build() {
        let _g = locked();
        clear_compile_cache();
        let wl = w(768, 3, 4);
        let cached = training_graph(&wl);
        assert_equals_full_build(&cached, &wl);
        // Second call is a pure cache hit: same Arc.
        let again = training_graph(&wl);
        assert!(Arc::ptr_eq(&cached, &again));
    }

    #[test]
    fn adjacent_point_patches_instead_of_rebuilding() {
        let _g = locked();
        clear_compile_cache();
        let a = training_graph(&w(768, 3, 4));
        // Batch-size delta: same topology, different costs → patched.
        let b = training_graph(&w(768, 3, 8));
        assert!(a.shares_topology(&b), "batch delta must patch");
        // The patched costs are bitwise what a fresh build produces.
        assert_equals_full_build(&b, &w(768, 3, 8));
        // A layer-count delta keeps the template: patched too.
        let c = training_graph(&w(768, 4, 8));
        assert!(b.shares_topology(&c), "depth delta must patch");
        assert_equals_full_build(&c, &w(768, 4, 8));
    }

    #[test]
    fn hidden_size_delta_patches() {
        let _g = locked();
        clear_compile_cache();
        let a = training_graph(&w(768, 3, 4));
        let b = training_graph(&w(1024, 3, 4));
        assert!(a.shares_topology(&b));
        assert_equals_full_build(&b, &w(1024, 3, 4));
    }

    #[test]
    fn family_change_rebuilds() {
        let _g = locked();
        clear_compile_cache();
        let a = training_graph(&w(768, 2, 4));
        let llama =
            TrainingWorkload::new(ModelConfig::llama2_probe(768, 2), 4, 256, Precision::Fp16);
        let b = training_graph(&llama);
        assert!(!a.shares_topology(&b), "gated MLP adds nodes");
        assert_equals_full_build(&b, &llama);
    }

    #[test]
    fn disabled_incremental_always_rebuilds() {
        let _g = locked();
        set_incremental(false);
        let wl = w(768, 2, 4);
        let a = training_graph(&wl);
        let b = training_graph(&wl);
        assert!(!Arc::ptr_eq(&a, &b), "no caching when disabled");
        assert!(!a.shares_topology(&b), "no patching when disabled");
        // Results are still identical, and equal the template build.
        assert_equals_full_build(&a, &wl);
        set_incremental(true);
        assert_equals_full_build(&training_graph(&wl), &wl);
    }

    #[test]
    fn recorded_path_emits_compile_counters() {
        let _g = locked();
        clear_compile_cache();
        obs::disable();
        obs::enable();
        obs::with_point(0, "compile-counters", || {
            let a = training_graph(&w(768, 2, 4)); // template build
            let _hit = training_graph(&w(768, 2, 4)); // hit
            let b = training_graph(&w(768, 2, 8)); // patch
            assert!(a.shares_topology(&b));
        });
        let traces = obs::take();
        obs::disable();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.counter_total("compile.incremental_hits"), Some(1.0));
        assert_eq!(t.counter_total("compile.incremental_misses"), Some(2.0));
        // Counts of the full-depth step (9 fixed nodes, 2 × 12 per GPT-2
        // layer): a batch change moves every cost but the optimizer's.
        assert_eq!(t.counter_total("graph.interned_symbols"), Some(57.0));
        assert_eq!(t.counter_total("compile.patched_nodes"), Some(56.0));
    }

    #[test]
    fn returning_family_patches_from_its_first_arena() {
        let _g = locked();
        clear_compile_cache();
        // A, B, A′, B′: B's family differs, so it is a template build,
        // and A′ still patches from A rather than rebuilding.
        let llama = |hidden, layers, batch| {
            let model = ModelConfig::llama2_probe(hidden, layers);
            TrainingWorkload::new(model, batch, 256, Precision::Fp16)
        };
        let a = training_graph(&w(768, 3, 4));
        let b = training_graph(&llama(1024, 5, 4));
        assert!(!a.shares_topology(&b));
        let a2 = training_graph(&w(1024, 6, 16));
        assert!(a2.shares_topology(&a), "A′ must patch A's arena");
        let b2 = training_graph(&llama(512, 2, 2));
        assert!(b2.shares_topology(&b), "B′ must patch B's arena");
        assert_equals_full_build(&a2, &w(1024, 6, 16));
        assert_equals_full_build(&b2, &llama(512, 2, 2));
    }

    #[test]
    fn clearing_the_cache_makes_the_next_call_a_full_build() {
        let _g = locked();
        clear_compile_cache();
        let a = training_graph(&w(768, 3, 4));
        clear_compile_cache();
        // Same topology, but the bases are gone: cold cases stay cold.
        let b = training_graph(&w(768, 3, 8));
        assert!(!a.shares_topology(&b), "cleared basis was patched");
        let again = training_graph(&w(768, 3, 4));
        assert!(!Arc::ptr_eq(&a, &again), "cleared graph was returned");
        assert!(
            again.shares_topology(&b),
            "new basis is the post-clear build"
        );
    }

    #[test]
    fn recorded_path_keeps_a_single_basis() {
        let _g = locked();
        clear_compile_cache();
        obs::disable();
        obs::enable();
        obs::with_point(0, "single-basis", || {
            let a = training_graph(&w(768, 2, 4)); // template build
            let b = training_graph(&w(768, 3, 4)); // template build
            let a2 = training_graph(&w(768, 2, 8)); // basis is B: build
            assert!(!a2.shares_topology(&a));
            assert!(!a2.shares_topology(&b));
        });
        let traces = obs::take();
        obs::disable();
        let t = &traces[0];
        assert_eq!(t.counter_total("compile.incremental_misses"), Some(3.0));
        assert_eq!(t.counter_total("compile.patched_nodes"), None);
    }
}
