//! Memoization of Tier-1 profiling results.
//!
//! The experiment suite evaluates the same `(platform configuration,
//! workload)` pairs dozens of times: `dabench check` re-derives everything
//! Figs. 7–12 already computed, and the Fig. 7/8/9 sweeps share most of
//! their probe grid. Platform models are pure functions of their spec,
//! compiler parameters, and workload, so Tier-1 results can be cached
//! process-wide and returned verbatim on re-evaluation — a cache hit is
//! `PartialEq`-equal to a cold compile by construction.
//!
//! Platforms opt in through [`Memoizable`], whose only obligation is a
//! [`CacheKey`]: the fingerprint of a *stable configuration token*, a
//! string that changes whenever anything influencing the profile changes
//! (hardware spec, compiler parameters, compilation mode). Keying on the
//! full configuration — not just the platform name — keeps sensitivity
//! sweeps (which mutate specs) safe.
//!
//! # Storage
//!
//! Results live in a process-wide, size-bounded, concurrency-safe
//! [`LruStore`] ([`TIER1_CACHE_CAPACITY`] entries), shared by the CLI's
//! one-shot sweeps and the long-running `dabench serve` daemon (see
//! [`crate::serve`]); a daemon serving unbounded request streams must not
//! grow the cache without bound, so cold entries are evicted
//! least-recently-used first and [`CacheStats::evictions`] counts them.
//!
//! # Key representation
//!
//! The lookup key is `(CacheKey, TrainingWorkload)`: the configuration
//! token is folded into a 128-bit [`CacheKey`] fingerprint that platforms
//! precompute at construction (so the hot lookup path performs no string
//! formatting or allocation — see `docs/benchmarking.md` for the measured
//! effect), while the workload side uses *exact* equality via the
//! workload's derived `Eq`/`Hash`, so workload collisions are impossible
//! by construction. Token fingerprints use two independent 64-bit FNV-1a
//! streams; with the handful of platform configurations a process ever
//! constructs, a 128-bit collision is not a realistic concern.

use crate::error::PlatformError;
use crate::lru::LruStore;
use crate::platform::Platform;
use crate::report::Tier1Report;
use crate::tier1;
use dabench_model::TrainingWorkload;
use std::sync::OnceLock;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 128-bit fingerprint of a platform configuration token.
///
/// Two independent FNV-1a streams over the token bytes (the second
/// stream perturbs its offset basis and byte stream so the halves do not
/// co-vary). Equal tokens always produce equal keys; distinct tokens
/// produce distinct keys with overwhelming probability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    lo: u64,
    hi: u64,
}

impl CacheKey {
    /// Fingerprint `token`. Deterministic across runs and platforms.
    #[must_use]
    pub fn of_token(token: &str) -> Self {
        let mut lo = FNV_OFFSET;
        let mut hi = FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15;
        for &b in token.as_bytes() {
            lo = (lo ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            hi = (hi ^ u64::from(b ^ 0x5a)).wrapping_mul(FNV_PRIME);
        }
        CacheKey { lo, hi }
    }
}

/// Platforms whose Tier-1 results may be memoized.
///
/// Implementors must guarantee that [`Platform::profile`] is a pure
/// function of the configuration fingerprinted in
/// [`Memoizable::cache_key`] and the workload — true for every model in
/// this repository.
pub trait Memoizable: Platform {
    /// The fingerprint used as the configuration half of the cache key:
    /// [`CacheKey::of_token`] of a token uniquely identifying this
    /// platform instance's full configuration (hardware spec, compiler
    /// parameters, and where applicable compilation mode). Two instances
    /// with equal keys must produce identical profiles for every workload.
    /// The built-in platforms compute it once, at construction, so
    /// lookups allocate nothing.
    fn cache_key(&self) -> CacheKey;
}

/// Hit/miss/eviction counters of the process-wide Tier-1 cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a cold profile.
    pub misses: u64,
    /// Entries displaced to keep the cache within [`TIER1_CACHE_CAPACITY`].
    pub evictions: u64,
}

/// Capacity bound of the process-wide Tier-1 cache, in entries. Large
/// enough that a full `dabench all` sweep never evicts (the paper suite
/// touches a few hundred distinct `(configuration, workload)` pairs),
/// small enough that a long-running daemon cannot grow without bound.
pub const TIER1_CACHE_CAPACITY: usize = 4096;

type Store = LruStore<(CacheKey, TrainingWorkload), Result<Tier1Report, PlatformError>>;

static CACHE: OnceLock<Store> = OnceLock::new();

fn store() -> &'static Store {
    CACHE.get_or_init(|| LruStore::new(TIER1_CACHE_CAPACITY))
}

/// [`tier1::run`], memoized on `(cache key, workload)`.
///
/// The lock is *not* held while profiling, so concurrent [`par_map`]
/// workers never serialize on a cold cache; two workers racing on the
/// same key both compute the (identical, pure) result and the second
/// insert is a no-op in effect.
///
/// When the [`crate::obs`] recorder is enabled the cache is bypassed
/// entirely: memoization would make span/counter attribution depend on
/// which racing point happened to miss first (see `docs/observability.md`).
///
/// [`par_map`]: crate::parallel::par_map
///
/// # Errors
///
/// Propagates the platform's [`PlatformError`] exactly as [`tier1::run`]
/// does; errors are cached too (a failing configuration fails fast on
/// re-evaluation).
pub fn tier1_cached<P: Memoizable>(
    platform: &P,
    workload: &TrainingWorkload,
) -> Result<Tier1Report, PlatformError> {
    // With the recorder on, *which* point performs the cold profile (and
    // therefore records its span events) would depend on thread
    // scheduling, making traces differ across `--jobs`. Bypass the cache
    // so every point records its own complete profile deterministically.
    if crate::obs::is_enabled() {
        return tier1::run(platform, workload);
    }
    let key = (platform.cache_key(), workload.clone());
    if let Some(cached) = store().get(&key) {
        return cached;
    }
    let result = tier1::run(platform, workload);
    store().insert(key, result.clone());
    result
}

/// Current hit/miss/eviction counters (process-wide, across all
/// platforms).
#[must_use]
pub fn cache_stats() -> CacheStats {
    let stats = store().stats();
    CacheStats {
        hits: stats.hits,
        misses: stats.misses,
        evictions: stats.evictions,
    }
}

/// Drop every cached result (counters are left running).
pub fn clear_tier1_cache() {
    store().clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{ChipProfile, ComputeUnitSpec, HardwareSpec, TaskProfile};
    use dabench_model::{ModelConfig, Precision};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A chip that counts its own profile calls: tests run in parallel, so
    /// a counter shared between chips would count other tests' calls too.
    #[derive(Default)]
    struct CountingChip {
        token: String,
        tflops: f64,
        profiles: AtomicU64,
    }

    impl Platform for CountingChip {
        fn name(&self) -> &str {
            "counting-chip"
        }

        fn spec(&self) -> HardwareSpec {
            HardwareSpec {
                name: "counting-chip".into(),
                compute_units: vec![ComputeUnitSpec {
                    kind: "pe".into(),
                    count: 10,
                }],
                peak_tflops: 100.0,
                memory_levels: vec![],
            }
        }

        fn profile(&self, _w: &TrainingWorkload) -> Result<ChipProfile, PlatformError> {
            self.profiles.fetch_add(1, Ordering::SeqCst);
            Ok(ChipProfile {
                unit_usage: vec![("pe".into(), 8, 10)],
                tasks: vec![TaskProfile::new("k", 1.0, 8.0)],
                sections: vec![],
                memory: vec![],
                achieved_tflops: self.tflops,
                throughput_tokens_per_s: 1.0e4,
                step_time_s: 0.5,
            })
        }
    }

    impl Memoizable for CountingChip {
        fn cache_key(&self) -> CacheKey {
            CacheKey::of_token(&self.token)
        }
    }

    fn workload(batch: u64) -> TrainingWorkload {
        TrainingWorkload::new(ModelConfig::gpt2_probe(768, 2), batch, 512, Precision::Fp16)
    }

    #[test]
    fn hit_equals_cold_compile_and_skips_profiling() {
        let chip = CountingChip {
            token: "cache-test-hit".into(),
            tflops: 40.0,
            ..Default::default()
        };
        let w = workload(4);
        let cold = tier1_cached(&chip, &w).unwrap();
        let direct = tier1::run(&chip, &w).unwrap();
        let profiles_before = chip.profiles.load(Ordering::SeqCst);
        let hit = tier1_cached(&chip, &w).unwrap();
        assert_eq!(chip.profiles.load(Ordering::SeqCst), profiles_before);
        assert_eq!(cold, hit);
        assert_eq!(cold, direct);
    }

    #[test]
    fn distinct_tokens_do_not_collide() {
        let a = CountingChip {
            token: "cache-test-a".into(),
            tflops: 10.0,
            ..Default::default()
        };
        let b = CountingChip {
            token: "cache-test-b".into(),
            tflops: 20.0,
            ..Default::default()
        };
        let w = workload(8);
        let ra = tier1_cached(&a, &w).unwrap();
        let rb = tier1_cached(&b, &w).unwrap();
        assert!((ra.achieved_tflops - 10.0).abs() < 1e-12);
        assert!((rb.achieved_tflops - 20.0).abs() < 1e-12);
    }

    #[test]
    fn distinct_workloads_do_not_collide() {
        let chip = CountingChip {
            token: "cache-test-workloads".into(),
            tflops: 30.0,
            ..Default::default()
        };
        let ra = tier1_cached(&chip, &workload(2)).unwrap();
        let rb = tier1_cached(&chip, &workload(16)).unwrap();
        assert_ne!(ra.workload, rb.workload);
    }

    #[test]
    fn workloads_differing_only_in_precision_do_not_collide() {
        let chip = CountingChip {
            token: "cache-test-precision".into(),
            tflops: 30.0,
            ..Default::default()
        };
        let fp16 = workload(4);
        let bf16 = TrainingWorkload::new(ModelConfig::gpt2_probe(768, 2), 4, 512, Precision::Bf16);
        let ra = tier1_cached(&chip, &fp16).unwrap();
        let rb = tier1_cached(&chip, &bf16).unwrap();
        assert_ne!(ra.workload, rb.workload);
        assert_eq!(ra.workload, fp16.to_string());
        assert_eq!(rb.workload, bf16.to_string());
    }

    #[test]
    fn workloads_differing_only_in_seq_len_do_not_collide() {
        let chip = CountingChip {
            token: "cache-test-seqlen".into(),
            tflops: 30.0,
            ..Default::default()
        };
        let short = TrainingWorkload::new(ModelConfig::gpt2_probe(768, 2), 4, 512, Precision::Fp16);
        let long = TrainingWorkload::new(ModelConfig::gpt2_probe(768, 2), 4, 2048, Precision::Fp16);
        let ra = tier1_cached(&chip, &short).unwrap();
        let rb = tier1_cached(&chip, &long).unwrap();
        assert_ne!(ra.workload, rb.workload);
    }

    #[test]
    fn cache_key_is_deterministic_and_token_sensitive() {
        let a = CacheKey::of_token("wse|SpecA");
        assert_eq!(a, CacheKey::of_token("wse|SpecA"));
        assert_ne!(a, CacheKey::of_token("wse|SpecB"));
        assert_ne!(a, CacheKey::of_token("wse|SpecA "));
        assert_ne!(CacheKey::of_token(""), CacheKey::of_token("\0"));
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let chip = CountingChip {
            token: "cache-test-stats".into(),
            tflops: 5.0,
            ..Default::default()
        };
        let w = workload(32);
        let before = cache_stats();
        let _ = tier1_cached(&chip, &w);
        let _ = tier1_cached(&chip, &w);
        let after = cache_stats();
        assert!(after.misses > before.misses);
        assert!(after.hits > before.hits);
    }
}
