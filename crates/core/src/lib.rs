//! # dabench-core
//!
//! The DABench-LLM benchmarking framework: a standardized, two-tier
//! methodology for profiling dataflow AI accelerators running LLM training
//! workloads, independent of any particular chip.
//!
//! The framework (Sec. IV of the paper) consists of:
//!
//! - **Tier 1 — intra-chip profiling** ([`tier1`]): resource allocation
//!   ratio (Eqs. 1–2), load imbalance (Eqs. 3–4), and resource-utilization
//!   efficiency including a roofline analysis at the global-memory level.
//! - **Tier 2 — inter-chip scalability and deployment** ([`tier2`]):
//!   scaling strategies classified through the DP/TP/PP lens, plus batch
//!   size and precision sweeps.
//! - **Supervised sweep execution** ([`supervise`]): per-point panic
//!   isolation, wall-clock deadlines, bounded retries, and a
//!   crash-safe run journal enabling `--resume` (see
//!   `docs/supervision.md`).
//! - **Multi-process sharding** ([`shard`]): deterministic partitioning
//!   of sweep points across worker OS processes, a fleet supervisor with
//!   heartbeat liveness and bounded respawns, and a crash-safe merge of
//!   per-shard journals back into the byte-identical combined journal
//!   (see `docs/sharding.md`).
//! - **Observability** ([`obs`]): phase-scoped spans and counters with
//!   logical timestamps, deterministic under [`par_map`], exported as
//!   Chrome `trace_event` JSON and per-phase counter tables (see
//!   `docs/observability.md`).
//! - **Benchmark-as-a-service** ([`serve`]): a zero-dependency daemon
//!   speaking JSONL over TCP, with bounded-queue admission control,
//!   structured load shedding, a shared [`lru`] result store, graceful
//!   drain, and journal-backed crash-safe resume (see `docs/serve.md`).
//!
//! Chips plug in by implementing the [`Platform`] trait (and optionally
//! [`Scalable`]); the framework then derives every metric from the
//! platform-reported [`ChipProfile`].
//!
//! # Example
//!
//! ```
//! use dabench_core::metrics::load_imbalance;
//! use dabench_core::TaskProfile;
//!
//! // Two tasks with equal throughput are perfectly balanced (LI = 1).
//! let tasks = vec![
//!     TaskProfile::new("a", 100.0, 10.0),
//!     TaskProfile::new("b", 100.0, 10.0),
//! ];
//! assert!((load_imbalance(&tasks).unwrap() - 1.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod cache;
pub mod compile;
mod error;
pub mod faults;
pub mod gen;
pub mod infer;
pub mod jsonl;
pub mod lru;
pub mod metrics;
pub mod obs;
pub mod parallel;
mod platform;
mod report;
pub mod rng;
pub mod serve;
pub mod shard;
pub mod supervise;
pub mod tier1;
pub mod tier2;

pub use bench::{
    iter_plan, regressions, BenchKind, BenchRecord, BenchReport, IterPlan, Regression, Summary,
};
pub use cache::{cache_stats, tier1_cached, CacheKey, CacheStats, Memoizable};
pub use compile::{clear_compile_cache, is_incremental, set_incremental, training_graph};
pub use error::PlatformError;
pub use faults::{DeadRect, Degradable, DegradedProfile, Fault, FaultKind, FaultSet, RecoveryCost};
pub use gen::{FaultIntensity, Invariant, MemoryEdge, ModelFamily, Scenario, ScenarioKind, Tier};
pub use infer::{
    max_admissible_batch, profile_inference, AdmissionProbe, InferModel, InferenceReport,
};
pub use lru::{LruStore, StoreStats};
pub use obs::{Phase, PointTrace};
pub use parallel::{jobs, par_map, par_map_with, set_jobs};
pub use platform::{
    ChipProfile, ComputeUnitSpec, HardwareSpec, MemoryLevelSpec, MemoryLevelUsage, MemoryScope,
    ParallelStrategy, Platform, Scalable, ScalingProfile, SectionProfile, TaskProfile,
};
pub use report::{
    batch_saturation_point, BatchPoint, BoundKind, PrecisionPoint, Tier1Report, Tier2Report,
};
pub use rng::SplitMix64;
pub use serve::{JobExecutor, ServeConfig, ServeSummary, Server, PROTOCOL as SERVE_PROTOCOL};
pub use shard::{
    merge_journals, plan_shards, shard_journal_name, supervise_shards, MergeResult, MergedPoint,
    ShardConfig, ShardOutcome, ShardStatus, SyntheticFailure,
};
pub use supervise::{
    abandoned_threads, catch_labeled, parse_injections, supervise_point, with_point_label,
    InjectedErrorKind, Injection, PointOutcome, Replay, RunJournal, RunReport, SupervisePolicy,
};
