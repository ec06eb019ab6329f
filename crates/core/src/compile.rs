//! Cached, incremental construction of training-step dataflow graphs.
//!
//! Every platform compile path used to rebuild its operator graph from
//! scratch for every sweep point, even though adjacent points in the
//! fig7/8/9/11 and `gen` sweeps share most of their graph. This module is
//! the single entry point those paths now call:
//!
//! - [`training_graph`] memoizes whole graphs per [`TrainingWorkload`]
//!   (the workload is `Eq + Hash`, playing the role the tier-1
//!   [`crate::CacheKey`] plays for profiles), and
//! - when a graph of the **same topology** (same layer count, positional
//!   encoding, and activation family — the only model knobs that change
//!   the node/edge structure) was built before, it *patches* that graph
//!   via [`DataflowGraph::with_costs`] instead of rebuilding: re-derive
//!   the per-op costs with [`ops::step_costs`] (no name rendering, no
//!   interning, no edge construction) and share the frozen topology arena
//!   behind its `Arc`.
//!
//! # Invalidation rules
//!
//! A cached graph is keyed by the full workload, so any change hits a
//! different entry. A *patch basis* is only reused for a workload of its
//! own topology triple; hidden size, heads, KV heads, FFN width, vocab,
//! batch size, sequence length, and precision changes all patch, while
//! the first graph of a new layer count or model family is a full build.
//!
//! # Determinism
//!
//! The rendered output of a sweep must be byte-identical at any `--jobs`,
//! under `--shards`, and across `--resume`. Two regimes keep it so:
//!
//! - **Recorder off** (plain runs): a process-global [`LruStore`] of
//!   graphs plus a bounded [`LruStore`] of patch bases, one per topology
//!   triple. Caching is invisible here because a hit or a patch returns a
//!   value bitwise equal to a rebuild (proven by the differential test
//!   layer and the `intern_props` property tests).
//! - **Recorder on** (`--metrics`/`--trace-out`): the cache lives in the
//!   *per-point* observability context instead, so the new
//!   `compile.incremental_hits`/`misses`/`patched_nodes` and
//!   `graph.interned_symbols` counters depend only on the point's own
//!   call sequence, never on sweep scheduling. Its basis is the single
//!   most recently built graph: which calls patch is part of those
//!   counters, and the golden traces pin them. This mirrors how
//!   [`crate::tier1_cached`] bypasses its global cache when the recorder
//!   is on.
//!
//! # Escape hatch
//!
//! Set `DABENCH_NO_INCREMENTAL=1` (or call [`set_incremental`]) to force
//! every call down the full rebuild path — no caching, no patching, no
//! compile counters. The differential harness runs every sweep both ways
//! and asserts byte-identical renderings.

use crate::lru::LruStore;
use crate::obs;
use dabench_graph::{DataflowGraph, GraphBuilder, NodeId};
use dabench_model::ops;
use dabench_model::{Activation, PositionalEncoding, TrainingWorkload};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

/// Per-point compile cache, stored inside the observability context when
/// the recorder is on (see [`crate::obs`]).
#[derive(Debug, Default)]
pub(crate) struct CompileScratch {
    map: HashMap<TrainingWorkload, Arc<DataflowGraph>>,
    last: Option<(TopologyKey, Arc<DataflowGraph>)>,
}

/// Incremental-compilation switch: 0 = read `DABENCH_NO_INCREMENTAL` on
/// first use, 1 = enabled, 2 = disabled.
static INCREMENTAL: AtomicU8 = AtomicU8::new(0);

/// Whole-graph memo used when the recorder is off. Capacity covers every
/// distinct workload of the largest paper sweep with headroom.
static GRAPH_CACHE: OnceLock<LruStore<TrainingWorkload, Arc<DataflowGraph>>> = OnceLock::new();

/// Patch bases used when the recorder is off: the first graph built for
/// each topology triple. Capacity covers the widest `gen` tier menu
/// (medium: 16–48 layers in two families, 66 triples); a base is one
/// graph whose topology arena the cached graphs of its triple share.
static PATCH_BASES: OnceLock<LruStore<TopologyKey, Arc<DataflowGraph>>> = OnceLock::new();

fn graph_cache() -> &'static LruStore<TrainingWorkload, Arc<DataflowGraph>> {
    GRAPH_CACHE.get_or_init(|| LruStore::new(256))
}

fn patch_bases() -> &'static LruStore<TopologyKey, Arc<DataflowGraph>> {
    PATCH_BASES.get_or_init(|| LruStore::new(96))
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

/// The only model knobs that change graph *topology* (node set + edges):
/// layer count, rope presence (positional encoding), and gate presence
/// (activation family). Everything else only re-scales costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TopologyKey {
    layers: u64,
    positional: PositionalEncoding,
    activation: Activation,
}

impl TopologyKey {
    fn of(w: &TrainingWorkload) -> Self {
        let m = w.model();
        Self {
            layers: m.num_layers,
            positional: m.positional,
            activation: m.activation,
        }
    }
}

/// The graph of `w`: a patch of `basis` — a graph of the same
/// [`TopologyKey`] — when there is one, else a full build. A patch shares
/// the basis's topology arena; a full build never does.
fn build_or_patch(w: &TrainingWorkload, basis: Option<&DataflowGraph>) -> Arc<DataflowGraph> {
    if let Some(bg) = basis {
        let costs = ops::step_costs(w.model(), w.batch_size(), w.seq_len());
        if costs.len() == bg.node_count() {
            return Arc::new(bg.with_costs(costs));
        }
    }
    Arc::new(GraphBuilder::for_workload(w))
}

/// Number of nodes whose cost differs between two same-topology graphs.
fn changed_nodes(a: &DataflowGraph, b: &DataflowGraph) -> usize {
    (0..a.node_count())
        .filter(|&i| a.op(NodeId(i)).cost() != b.op(NodeId(i)).cost())
        .count()
}

/// The training-step dataflow graph of `w`, built through the incremental
/// compile cache.
///
/// Hot path of every platform compile: WSE kernel extraction, RDU
/// sectioning, IPU pipeline accounting, and GPU parallelism ladders all
/// resolve their graph (and its [`dabench_graph::StepSummary`]) here. The
/// returned graph is identical — bit-for-bit in every cost — to
/// `GraphBuilder::for_workload(w)`; only the time to produce it changes.
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
pub fn training_graph(w: &TrainingWorkload) -> Arc<DataflowGraph> {
    if !is_incremental() {
        return Arc::new(GraphBuilder::for_workload(w));
    }
    if obs::is_enabled() {
        return training_graph_recorded(w);
    }
    let cache = graph_cache();
    if let Some(g) = cache.get(w) {
        return g;
    }
    let key = TopologyKey::of(w);
    let bases = patch_bases();
    let basis = bases.get(&key);
    let g = build_or_patch(w, basis.as_deref());
    if !basis.is_some_and(|b| b.shares_topology(&g)) {
        bases.insert(key, Arc::clone(&g));
    }
    cache.insert(w.clone(), Arc::clone(&g));
    g
}

/// Recorder-on path: per-point scratch plus compile counters. All scratch
/// borrows are short and never re-enter the recorder; counters fire after
/// the borrow is released.
fn training_graph_recorded(w: &TrainingWorkload) -> Arc<DataflowGraph> {
    let hit = obs::with_compile_scratch(|s| s.map.get(w).cloned());
    let Some(hit) = hit else {
        // No open point context (e.g. recorder enabled mid-call): build
        // without caching so nothing observable depends on timing.
        return Arc::new(GraphBuilder::for_workload(w));
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
    match basis.filter(|b| b.shares_topology(&g)) {
        Some(b) => obs::counter("compile.patched_nodes", changed_nodes(&b, &g) as f64),
        None => obs::counter("graph.interned_symbols", g.interned_symbol_count() as f64),
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

    #[test]
    fn cached_graph_equals_fresh_build() {
        let _g = locked();
        clear_compile_cache();
        let wl = w(768, 3, 4);
        let cached = training_graph(&wl);
        let fresh = GraphBuilder::for_workload(&wl);
        assert_eq!(cached.node_count(), fresh.node_count());
        assert_eq!(cached.edge_count(), fresh.edge_count());
        for (id, node) in fresh.iter() {
            let c = cached.op(id);
            assert_eq!(c.name(), node.name());
            assert_eq!(c.cost(), node.cost());
        }
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
        let fresh = GraphBuilder::for_workload(&w(768, 3, 8));
        for (id, node) in fresh.iter() {
            assert_eq!(b.op(id).cost(), node.cost(), "node {id}");
        }
        // Layer-count delta changes topology → full rebuild.
        let c = training_graph(&w(768, 4, 8));
        assert!(!b.shares_topology(&c));
    }

    #[test]
    fn hidden_size_delta_patches() {
        let _g = locked();
        clear_compile_cache();
        let a = training_graph(&w(768, 3, 4));
        let b = training_graph(&w(1024, 3, 4));
        assert!(a.shares_topology(&b));
        let fresh = GraphBuilder::for_workload(&w(1024, 3, 4));
        assert!((b.summary().total_flops - fresh.summary().total_flops).abs() < f64::EPSILON);
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
        let fresh = GraphBuilder::for_workload(&llama);
        assert_eq!(b.node_count(), fresh.node_count());
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
        // Results are still identical.
        assert_eq!(a.node_count(), b.node_count());
        assert!((a.total_flops() - b.total_flops()).abs() < f64::EPSILON);
        set_incremental(true);
    }

    #[test]
    fn recorded_path_emits_compile_counters() {
        let _g = locked();
        clear_compile_cache();
        obs::disable();
        obs::enable();
        obs::with_point(0, "compile-counters", || {
            let a = training_graph(&w(768, 2, 4)); // full build
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
        assert!(t.counter_total("compile.patched_nodes").unwrap() > 0.0);
        assert!(t.counter_total("graph.interned_symbols").unwrap() > 10.0);
    }

    #[test]
    fn returning_topology_patches_from_its_first_arena() {
        let _g = locked();
        clear_compile_cache();
        // A, B, A′: B's layer count differs, so it is a full build, and
        // A′ still patches from A rather than rebuilding.
        let a = training_graph(&w(768, 3, 4));
        let b = training_graph(&w(768, 5, 4));
        assert!(!a.shares_topology(&b));
        let a2 = training_graph(&w(1024, 3, 16));
        assert!(a2.shares_topology(&a), "A′ must patch A's arena");
        let b2 = training_graph(&w(512, 5, 2));
        assert!(b2.shares_topology(&b), "B′ must patch B's arena");
        let fresh = GraphBuilder::for_workload(&w(1024, 3, 16));
        for (id, node) in fresh.iter() {
            assert_eq!(a2.op(id).name(), node.name(), "node {id}");
            assert_eq!(a2.op(id).cost(), node.cost(), "node {id}");
        }
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
            let a = training_graph(&w(768, 2, 4)); // full build
            let b = training_graph(&w(768, 3, 4)); // full build
            let a2 = training_graph(&w(768, 2, 8)); // basis is B: full build
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
