//! `dabench gen`: evaluate seeded scenario populations, rank the four
//! platforms across them, and enforce the metamorphic invariant catalog.
//!
//! The sampler itself lives in `dabench_core::gen` (pure, dependency-free
//! so shard workers can re-derive any scenario from its label alone).
//! This module is the evaluation side: map one [`Scenario`] onto all four
//! platform models, render the outcome as a machine-parsable `gen-v1`
//! record (the journaled point value — everything downstream re-parses
//! records rather than reusing in-memory floats, so `--resume` and shard
//! replay stay byte-identical), then fold a population of records into
//! the ranking report (per-tier Pareto throughput/robustness + pairwise
//! Elo) and the invariant check (fault monotonicity, FP8 KV shrinkage,
//! batch monotonicity, OOM-wall consistency, seeded determinism). See
//! `docs/generation.md`.

use crate::render::Table;
use dabench_core::gen::{
    check_batch_ladder, check_determinism, check_fault_monotone, check_fp8_kv, format_label,
    parse_label, sample, Invariant, LadderPoint, MemoryEdge, ModelFamily, Scenario, ScenarioKind,
    Tier, Violation,
};
use dabench_core::{
    catch_labeled, max_admissible_batch, par_map, profile_inference, AdmissionProbe, Degradable,
    ParallelStrategy, Platform, PlatformError, Scalable,
};
use dabench_faults::{FaultPlan, PlanSpec};
use dabench_gpu::GpuCluster;
use dabench_ipu::Ipu;
use dabench_model::{InferenceWorkload, Precision};
use dabench_rdu::Rdu;
use dabench_wse::Wse;
use std::borrow::Cow;
use std::collections::HashMap;

/// Platform column order, shared with the inference sweep.
pub use super::infer::PLATFORMS;

/// Record schema identifier; bump when the line format changes.
pub const RECORD_SCHEMA: &str = "gen-v1";
/// Default population of the `gen` suite entry (`dabench csv gen`, serve).
pub const DEFAULT_TIER: Tier = Tier::Baby;
/// Default population seed.
pub const DEFAULT_SEED: u64 = 42;
/// Default population size.
pub const DEFAULT_COUNT: u64 = 8;
/// Upper bound on admission-wall probing. Walls at this cap are treated
/// as "no wall found", not as real walls — the RDU's 512 GB DDR can sit
/// past any batch the generator would reasonably serve.
pub const PROBE_LIMIT: u64 = 65536;
/// How often the determinism invariant re-derives a full record (every
/// `DETERMINISM_STRIDE`-th scenario, plus index 0): re-evaluation doubles
/// a scenario's cost, so the sub-check samples deterministically instead
/// of running on every index.
pub const DETERMINISM_STRIDE: u64 = 8;

/// One platform's observation of one scenario, as carried by a `gen-v1`
/// record line.
#[derive(Debug, Clone, PartialEq)]
pub struct GenObs {
    /// Platform name.
    pub platform: String,
    /// Batch size actually evaluated (differs from the sampled batch for
    /// memory-edge scenarios, which resolve against this platform's wall).
    pub batch: u64,
    /// Achieved tokens/s (`None` on any error, including OOM).
    pub tokens_per_s: Option<f64>,
    /// Serving memory level (`None` for training scenarios and errors).
    pub level: Option<String>,
    /// Free-form note: the error text, or an evaluation mode remark.
    pub note: String,
}

impl GenObs {
    fn failed(platform: &str, batch: u64, note: String) -> Self {
        GenObs {
            platform: platform.to_owned(),
            batch,
            tokens_per_s: None,
            level: None,
            note,
        }
    }
}

/// The native multi-chip strategy of each platform at `degree` — the
/// DP/TP/PP lens of Sec. IV-C applied to the generator's parallelism axis.
#[must_use]
pub fn native_strategy(platform: &str, degree: u32) -> ParallelStrategy {
    match platform {
        "wse" => ParallelStrategy::DataParallel { replicas: degree },
        "rdu" | "gpu" => ParallelStrategy::TensorParallel { degree },
        "ipu" => ParallelStrategy::PipelineParallel { devices: degree },
        other => panic!("unknown platform `{other}`"),
    }
}

/// Probe `platform`'s admission wall for `workload`'s shape (the largest
/// batch that fits, searched up to [`PROBE_LIMIT`]).
#[must_use]
pub fn platform_probe(platform: &str, workload: &InferenceWorkload) -> AdmissionProbe {
    // Route through the same per-workload model builder the evaluation
    // uses, so probe and profile can never disagree about the level.
    max_admissible_batch(workload, PROBE_LIMIT, |w| {
        super::infer::platform_model(platform, w)
    })
}

/// Deterministic seed of the scenario's concrete fault plan: a pure
/// function of `(tier, seed, index)` so every process draws the same
/// fault coordinates.
fn plan_seed(s: &Scenario) -> u64 {
    dabench_core::SplitMix64::fork(s.seed ^ (0xFA17 + s.tier.rank()), s.index).next_u64()
}

fn degrade_on(platform: &(dyn Degradable + Sync), s: &Scenario) -> Result<f64, PlatformError> {
    let spec = PlanSpec::from_intensity(&s.faults)
        .map_err(|e| PlatformError::Unsupported(format!("sampled fault plan: {e}")))?;
    let plan = FaultPlan::generate(platform.fault_kind(), &spec, plan_seed(s));
    let d = platform.degrade(&s.training_workload(), &plan.fault_set())?;
    Ok(d.degraded.throughput_tokens_per_s)
}

fn train_obs(platform: &str, s: &Scenario) -> GenObs {
    let w = s.training_workload();
    let outcome: Result<(f64, String), PlatformError> = if s.parallelism > 1 {
        // Fault plans model single-chip fabric damage; under multi-chip
        // scaling the scored result is the healthy scaled throughput.
        let note = if s.faults.is_healthy() {
            format!("scaled x{}", s.parallelism)
        } else {
            format!("scaled x{} (faults not applied)", s.parallelism)
        };
        let strategy = native_strategy(platform, s.parallelism);
        let scaled = match platform {
            "wse" => Wse::default().scale(&w, strategy),
            "rdu" => Rdu::default().scale(&w, strategy),
            "ipu" => Ipu::default().scale(&w, strategy),
            "gpu" => GpuCluster::default().scale(&w, strategy),
            other => panic!("unknown platform `{other}`"),
        };
        scaled.map(|p| (p.throughput_tokens_per_s, note))
    } else if s.faults.is_healthy() {
        let profiled = match platform {
            "wse" => Wse::default().profile(&w),
            "rdu" => Rdu::default().profile(&w),
            "ipu" => Ipu::default().profile(&w),
            "gpu" => GpuCluster::default().profile(&w),
            other => panic!("unknown platform `{other}`"),
        };
        profiled.map(|p| (p.throughput_tokens_per_s, "healthy".to_owned()))
    } else {
        let degraded = match platform {
            "wse" => degrade_on(&Wse::default(), s),
            "rdu" => degrade_on(&Rdu::default(), s),
            "ipu" => degrade_on(&Ipu::default(), s),
            // A missing fault model is an explicit loss on faulted
            // scenarios, not a silent fallback to healthy numbers.
            "gpu" => Err(PlatformError::Unsupported(
                "gpu baseline has no fault model".to_owned(),
            )),
            other => panic!("unknown platform `{other}`"),
        };
        degraded.map(|t| (t, "degraded".to_owned()))
    };
    match outcome {
        Ok((tokens_per_s, note)) => GenObs {
            platform: platform.to_owned(),
            batch: s.batch,
            tokens_per_s: Some(tokens_per_s),
            level: None,
            note,
        },
        Err(e) => GenObs::failed(platform, s.batch, e.to_string()),
    }
}

fn infer_obs(platform: &str, s: &Scenario) -> GenObs {
    let base = s.inference_workload();
    let (batch, note) = match s.memory_edge {
        MemoryEdge::Off => (s.batch, String::new()),
        MemoryEdge::Under | MemoryEdge::Over => {
            let probe = platform_probe(platform, &base);
            if probe.max_batch == 0 {
                return GenObs::failed(
                    platform,
                    0,
                    format!(
                        "edge-{}: nothing fits `{}` ({} B over {} B)",
                        s.memory_edge.as_str(),
                        probe.kv_level,
                        probe.over_required_bytes,
                        probe.over_capacity_bytes
                    ),
                );
            }
            let b = match s.memory_edge {
                MemoryEdge::Under => probe.max_batch,
                _ => probe.max_batch + 1,
            };
            (
                b,
                format!("edge-{} wall={}", s.memory_edge.as_str(), probe.max_batch),
            )
        }
    };
    let w = match base.with_batch_size(batch) {
        Ok(w) => w,
        Err(e) => return GenObs::failed(platform, batch, e.to_string()),
    };
    let model = super::infer::platform_model(platform, &w);
    match profile_inference(&model, &w) {
        Ok(r) => GenObs {
            platform: platform.to_owned(),
            batch,
            tokens_per_s: Some(r.e2e_tokens_per_s),
            level: Some(r.memory.name.clone()),
            note: if note.is_empty() {
                "serving".to_owned()
            } else {
                note
            },
        },
        Err(e) => GenObs::failed(
            platform,
            batch,
            if note.is_empty() {
                e.to_string()
            } else {
                format!("{note}: {e}")
            },
        ),
    }
}

/// Evaluate `scenario` on all four platforms. A platform whose model
/// panics is recorded as a failed observation, never propagated — one
/// buggy corner of a platform model must not take down a population.
#[must_use]
pub fn evaluate(scenario: &Scenario) -> Vec<GenObs> {
    par_map(&PLATFORMS, |&platform| {
        let label = format!("{} {platform}", scenario.label());
        match catch_labeled(&label, || match scenario.kind {
            ScenarioKind::Train => train_obs(platform, scenario),
            ScenarioKind::Infer => infer_obs(platform, scenario),
        }) {
            Ok(obs) => obs,
            Err(panicked) => GenObs::failed(platform, scenario.batch, panicked),
        }
    })
}

fn fmt_opt_f64(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_owned(), |t| format!("{t:.6e}"))
}

/// Round a throughput through the record's `{:.6e}` wire format. The
/// faulted side of the fault-monotone check is parsed back from the
/// journaled record while its healthy twin is profiled live, so both
/// must sit on the same 7-significant-digit grid before comparison —
/// otherwise an exactly-equal pair reads as a violation whenever the
/// recorded value rounded up.
fn quantize_tps(tps: f64) -> f64 {
    format!("{tps:.6e}").parse().unwrap_or(tps)
}

/// Render the `gen-v1` record of one scenario: one header line plus one
/// line per platform. This text is the journaled point value — every
/// table, ranking and CSV downstream is re-derived from it by
/// [`parse_record`], never from live floats, so replayed and freshly
/// evaluated populations are byte-identical.
#[must_use]
pub fn render_record(scenario: &Scenario, observations: &[GenObs]) -> String {
    let s = scenario;
    let mut out = format!(
        "{RECORD_SCHEMA} label={} kind={} family={} hidden={} layers={} heads={} kv_heads={} \
         batch={} seq={} decode={} prec={} kv={} par={} dead={:.6} link={:.6} stalls={} drop={} \
         edge={}\n",
        s.label(),
        s.kind.as_str(),
        s.family.as_str(),
        s.hidden,
        s.layers,
        s.heads,
        s.kv_heads,
        s.batch,
        s.seq,
        s.decode,
        s.precision.as_str(),
        s.kv_precision.as_str(),
        s.parallelism,
        s.faults.dead_fraction,
        s.faults.link_retained,
        s.faults.transient_stalls,
        s.faults.dropped_devices,
        s.memory_edge.as_str(),
    );
    for o in observations {
        // `note` is free-form (error texts contain spaces) so it must be
        // the last field; newlines would break line-oriented parsing.
        out.push_str(&format!(
            "  {} batch={} tokens_per_s={} level={} note={}\n",
            o.platform,
            o.batch,
            fmt_opt_f64(o.tokens_per_s),
            o.level.as_deref().unwrap_or("-"),
            o.note.replace('\n', "; "),
        ));
    }
    out
}

/// Evaluate and render scenario `(tier, seed, index)` — the renderer
/// behind every `gen:<tier>:s<seed>:i<index>` point label.
#[must_use]
pub fn render_scenario(tier: Tier, seed: u64, index: u64) -> String {
    let scenario = sample(tier, seed, index);
    render_record(&scenario, &evaluate(&scenario))
}

fn field<'a>(token: &'a str, key: &str) -> Option<&'a str> {
    token.strip_prefix(key)?.strip_prefix('=')
}

/// Parse a `gen-v1` record back into its scenario label and platform
/// observations. Returns `None` on any malformed line — a corrupt
/// journal entry must surface, not silently contribute empty data.
#[must_use]
pub fn parse_record(record: &str) -> Option<(String, Vec<GenObs>)> {
    let mut lines = record.lines();
    let header = lines.next()?;
    let mut tokens = header.split_whitespace();
    if tokens.next()? != RECORD_SCHEMA {
        return None;
    }
    let label = field(tokens.next()?, "label")?.to_owned();
    parse_label(&label)?;
    let mut observations = Vec::new();
    for line in lines {
        let line = line.trim_start();
        if line.is_empty() {
            continue;
        }
        let mut t = line.split_whitespace();
        let platform = t.next()?.to_owned();
        let batch = field(t.next()?, "batch")?.parse().ok()?;
        let tokens_per_s = match field(t.next()?, "tokens_per_s")? {
            "-" => None,
            v => Some(v.parse().ok()?),
        };
        let level = match field(t.next()?, "level")? {
            "-" => None,
            v => Some(v.to_owned()),
        };
        let note = line.split_once(" note=").map_or("", |(_, n)| n).to_owned();
        observations.push(GenObs {
            platform,
            batch,
            tokens_per_s,
            level,
            note,
        });
    }
    if observations.is_empty() {
        return None;
    }
    Some((label, observations))
}

// ---------------------------------------------------------------------------
// Ranking: pairwise Elo + Pareto throughput/robustness
// ---------------------------------------------------------------------------

/// Elo K-factor for pairwise scenario wins.
pub const ELO_K: f64 = 32.0;
/// Elo starting rating.
pub const ELO_START: f64 = 1000.0;

/// One platform's row of the ranking report.
#[derive(Debug, Clone, PartialEq)]
pub struct RankRow {
    /// Platform name.
    pub platform: String,
    /// Elo rating after all pairwise comparisons, in scenario order.
    pub elo: f64,
    /// Pairwise wins / losses / draws.
    pub wins: u64,
    /// Pairwise losses.
    pub losses: u64,
    /// Pairwise draws.
    pub draws: u64,
    /// Fraction of ranked scenarios the platform completed (`0..=1`).
    pub robustness: f64,
    /// Mean throughput normalized to the per-scenario best (`0..=1`),
    /// over the scenarios this platform completed.
    pub norm_throughput: f64,
    /// Whether the platform sits on the robustness×throughput Pareto
    /// frontier of this population.
    pub pareto: bool,
}

/// Compute the ranking over parsed records, in scenario order.
/// Memory-edge `over` scenarios are excluded: every platform is
/// *expected* to refuse them, so they probe the admission model rather
/// than rank throughput.
#[must_use]
pub fn ranking(records: &[(Scenario, Vec<GenObs>)]) -> Vec<RankRow> {
    let n = PLATFORMS.len();
    let mut elo = vec![ELO_START; n];
    let mut wins = vec![0_u64; n];
    let mut losses = vec![0_u64; n];
    let mut draws = vec![0_u64; n];
    let mut completed = vec![0_u64; n];
    let mut norm_sum = vec![0.0_f64; n];
    let mut ranked = 0_u64;

    let index_of = |p: &str| PLATFORMS.iter().position(|q| *q == p);
    for (scenario, obs) in records {
        if scenario.memory_edge == MemoryEdge::Over {
            continue;
        }
        ranked += 1;
        let mut score: Vec<Option<f64>> = vec![None; n];
        for o in obs {
            if let Some(i) = index_of(&o.platform) {
                score[i] = o.tokens_per_s;
            }
        }
        let best = score.iter().flatten().fold(0.0_f64, |a, &b| a.max(b));
        for i in 0..n {
            if let Some(t) = score[i] {
                completed[i] += 1;
                if best > 0.0 {
                    norm_sum[i] += t / best;
                }
            }
        }
        for i in 0..n {
            for j in i + 1..n {
                // Game result for i vs j: completion beats failure,
                // then throughput decides; double failure is no game.
                let si = match (score[i], score[j]) {
                    (None, None) => continue,
                    (Some(_), None) => 1.0,
                    (None, Some(_)) => 0.0,
                    (Some(a), Some(b)) => {
                        if a > b {
                            1.0
                        } else if a < b {
                            0.0
                        } else {
                            0.5
                        }
                    }
                };
                match si {
                    x if x > 0.5 => {
                        wins[i] += 1;
                        losses[j] += 1;
                    }
                    x if x < 0.5 => {
                        losses[i] += 1;
                        wins[j] += 1;
                    }
                    _ => {
                        draws[i] += 1;
                        draws[j] += 1;
                    }
                }
                let expect_i = 1.0 / (1.0 + 10.0_f64.powf((elo[j] - elo[i]) / 400.0));
                elo[i] += ELO_K * (si - expect_i);
                elo[j] += ELO_K * ((1.0 - si) - (1.0 - expect_i));
            }
        }
    }

    let rows: Vec<RankRow> = (0..n)
        .map(|i| RankRow {
            platform: PLATFORMS[i].to_owned(),
            elo: elo[i],
            wins: wins[i],
            losses: losses[i],
            draws: draws[i],
            robustness: if ranked == 0 {
                0.0
            } else {
                completed[i] as f64 / ranked as f64
            },
            norm_throughput: if completed[i] == 0 {
                0.0
            } else {
                norm_sum[i] / completed[i] as f64
            },
            pareto: false,
        })
        .collect();
    let mut rows = rows;
    for i in 0..rows.len() {
        let dominated = rows.iter().enumerate().any(|(j, other)| {
            j != i
                && other.robustness >= rows[i].robustness
                && other.norm_throughput >= rows[i].norm_throughput
                && (other.robustness > rows[i].robustness
                    || other.norm_throughput > rows[i].norm_throughput)
        });
        rows[i].pareto = !dominated;
    }
    rows
}

// ---------------------------------------------------------------------------
// Invariant checking
// ---------------------------------------------------------------------------

/// Result of checking one population: how many checks ran per invariant,
/// and every violation found.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CheckOutcome {
    /// `(invariant, checks performed)` in catalog order.
    pub checked: Vec<(Invariant, u64)>,
    /// Every violation, in scenario order.
    pub violations: Vec<Violation>,
}

/// Position of `inv` in [`Invariant::ALL`], the index of its counters.
fn slot(inv: Invariant) -> usize {
    Invariant::ALL
        .iter()
        .position(|i| *i == inv)
        .expect("listed")
}

/// One record's share of a population check: checks run per invariant,
/// violations in check order, and the invariants with an observation a
/// `gen=violate:` injection could perturb. Only counters, flags and
/// violations: no re-rendered record outlives the check, and no batch
/// ladder outlives its shape's group.
#[derive(Default)]
struct RecordCheck {
    counts: [u64; Invariant::ALL.len()],
    violations: Vec<Violation>,
    perturbable: [bool; Invariant::ALL.len()],
    /// Pending injection; spent on the first perturbable observation.
    inject: Option<Invariant>,
}

impl RecordCheck {
    fn count(&mut self, inv: Invariant) {
        self.counts[slot(inv)] += 1;
    }

    /// Note an observation the caller can perturb for `inv`; returns
    /// whether the pending injection targets `inv` (spending it) — the
    /// caller then perturbs that observation.
    fn perturb(&mut self, inv: Invariant) -> bool {
        self.perturbable[slot(inv)] = true;
        if self.inject == Some(inv) {
            self.inject = None;
            return true;
        }
        false
    }

    fn push(&mut self, v: Option<Violation>) {
        self.violations.extend(v);
    }
}

/// The fields of a serving scenario that its inference workload reads,
/// all but the batch size. A batch ladder re-batches the workload at
/// every rung, so scenarios of one shape have the same ladders.
#[derive(PartialEq, Eq, Hash)]
struct ServingShape {
    family: ModelFamily,
    hidden: u64,
    layers: u64,
    heads: u64,
    kv_heads: u64,
    seq: u64,
    decode: u64,
    precision: Precision,
    kv_precision: Precision,
}

impl ServingShape {
    /// The shape of a serving scenario; `None` for a training one.
    fn of(s: &Scenario) -> Option<Self> {
        (s.kind == ScenarioKind::Infer).then_some(ServingShape {
            family: s.family,
            hidden: s.hidden,
            layers: s.layers,
            heads: s.heads,
            kv_heads: s.kv_heads,
            seq: s.seq,
            decode: s.decode,
            precision: s.precision,
            kv_precision: s.kv_precision,
        })
    }
}

/// One platform's batch ladder for a serving shape, before any injection
/// perturbs it: the probed admission wall and the profiled rungs.
struct ShapeLadder {
    probe: AdmissionProbe,
    rungs: Vec<LadderPoint>,
}

/// The ladders of `base`'s shape on every platform, in [`PLATFORMS`]
/// order: powers of two below the probed wall (at most 20), the wall,
/// and one past it unless the wall is the [`PROBE_LIMIT`] search cap.
fn serving_ladders(base: &InferenceWorkload) -> Vec<ShapeLadder> {
    PLATFORMS
        .into_iter()
        .map(|platform| {
            let probe = platform_probe(platform, base);
            let mut batches: Vec<u64> = Vec::new();
            let mut b = 1;
            while b < probe.max_batch && batches.len() < 20 {
                batches.push(b);
                b *= 2;
            }
            if probe.max_batch >= 1 {
                batches.push(probe.max_batch);
            }
            // A wall at PROBE_LIMIT is the search cap, not a real
            // wall — only cross the edge when the wall is genuine.
            if probe.max_batch < PROBE_LIMIT {
                batches.push(probe.max_batch + 1);
            }
            batches.dedup();
            let rungs = batches
                .into_iter()
                .map(|batch| {
                    let report = base.with_batch_size(batch).ok().and_then(|w| {
                        let m = super::infer::platform_model(platform, &w);
                        profile_inference(&m, &w).ok()
                    });
                    LadderPoint {
                        batch,
                        tokens_per_s: report.as_ref().map(|r| r.e2e_tokens_per_s),
                        level: report.map(|r| r.memory.name),
                    }
                })
                .collect();
            ShapeLadder { probe, rungs }
        })
        .collect()
}

/// Check one scenario's observations. `ladders` holds its shape's batch
/// ladders, derived here on first use.
fn check_scenario(
    ck: &mut RecordCheck,
    scenario: &Scenario,
    obs: &[GenObs],
    ladders: &mut Option<Vec<ShapeLadder>>,
) {
    let label = scenario.label();
    match scenario.kind {
        ScenarioKind::Train => {
            // Fault monotonicity: the degraded throughput recorded for a
            // faulted single-chip scenario must not beat an independently
            // profiled healthy run of the same workload.
            if scenario.parallelism == 1 && !scenario.faults.is_healthy() {
                let w = scenario.training_workload();
                for o in obs {
                    let Some(faulty) = o.tokens_per_s else {
                        continue;
                    };
                    let healthy = match o.platform.as_str() {
                        "wse" => Wse::default().profile(&w),
                        "rdu" => Rdu::default().profile(&w),
                        "ipu" => Ipu::default().profile(&w),
                        _ => continue,
                    };
                    let Ok(healthy) = healthy else { continue };
                    ck.count(Invariant::FaultMonotone);
                    let mut healthy_tps = quantize_tps(healthy.throughput_tokens_per_s);
                    if ck.perturb(Invariant::FaultMonotone) {
                        healthy_tps = faulty / 2.0;
                    }
                    ck.push(check_fault_monotone(
                        &o.platform,
                        &label,
                        healthy_tps,
                        faulty,
                    ));
                }
            }
        }
        ScenarioKind::Infer => {
            // FP8 KV shrinkage is a shape-level property of the workload
            // model; check it once per serving scenario.
            let w16 = scenario
                .inference_workload()
                .with_kv_precision(Precision::Fp16);
            let w8 = w16.clone().with_kv_precision(Precision::Fp8);
            ck.count(Invariant::Fp8KvSmaller);
            let mut fp8_bytes = w8.kv_cache_peak_bytes();
            if ck.perturb(Invariant::Fp8KvSmaller) {
                fp8_bytes = w16.kv_cache_peak_bytes();
            }
            ck.push(check_fp8_kv(
                &label,
                w16.kv_cache_peak_bytes(),
                fp8_bytes,
                w16.weight_bytes(),
                w8.weight_bytes(),
            ));

            // Batch ladder per platform: monotone throughput within a
            // memory level, consistent OOM wall. The ladders depend only
            // on the serving shape, so a group of records shares them.
            let ladders =
                ladders.get_or_insert_with(|| serving_ladders(&scenario.inference_workload()));
            for (platform, shared) in PLATFORMS.into_iter().zip(ladders.iter()) {
                let probe = &shared.probe;
                let capped = probe.max_batch >= PROBE_LIMIT;
                let mut ladder = Cow::Borrowed(shared.rungs.as_slice());
                // The perturbable observation is the second rung of the
                // first same-level fitting pair; a ladder without one
                // offers the injection nothing to halve.
                let pair = (1..ladder.len()).find(|&k| {
                    ladder[k].tokens_per_s.is_some()
                        && ladder[k].level == ladder[k - 1].level
                        && ladder[k - 1].tokens_per_s.is_some()
                });
                if let Some(k) = pair {
                    if ck.perturb(Invariant::BatchMonotone) {
                        let halved = ladder[k - 1].tokens_per_s.map(|t| t / 2.0);
                        ladder.to_mut()[k].tokens_per_s = halved;
                    }
                }
                let mut wall_violation: Option<Violation> = None;
                if ck.perturb(Invariant::OomWallConsistent) {
                    // Fabricate a fit-after-OOM pair: a rung that fails
                    // admission followed by a larger one that "fits".
                    // (A lone fitting rung would read as a monotonicity
                    // drop on ladders whose wall sits past PROBE_LIMIT.)
                    let ladder = ladder.to_mut();
                    ladder.push(LadderPoint {
                        batch: probe.max_batch.saturating_add(2),
                        level: None,
                        tokens_per_s: None,
                    });
                    ladder.push(LadderPoint {
                        batch: probe.max_batch.saturating_add(3),
                        level: Some(probe.kv_level.clone()),
                        tokens_per_s: Some(1.0),
                    });
                } else if !capped && probe.max_batch >= 1 {
                    // The probed wall must itself be exact: max_batch
                    // fits, max_batch + 1 does not.
                    let at_wall = ladder.iter().find(|p| p.batch == probe.max_batch);
                    let over_wall = ladder.iter().find(|p| p.batch == probe.max_batch + 1);
                    if let (Some(a), Some(o)) = (at_wall, over_wall) {
                        if a.tokens_per_s.is_none() {
                            wall_violation = Some(Violation {
                                invariant: Invariant::OomWallConsistent,
                                scenario: label.clone(),
                                platform: platform.to_owned(),
                                detail: format!(
                                    "probed wall B={} does not actually fit",
                                    probe.max_batch
                                ),
                            });
                        } else if o.tokens_per_s.is_some() {
                            wall_violation = Some(Violation {
                                invariant: Invariant::OomWallConsistent,
                                scenario: label.clone(),
                                platform: platform.to_owned(),
                                detail: format!(
                                    "B={} fits although the probe called B={} the wall",
                                    probe.max_batch + 1,
                                    probe.max_batch
                                ),
                            });
                        }
                    }
                }
                ck.count(Invariant::BatchMonotone);
                ck.count(Invariant::OomWallConsistent);
                ck.violations
                    .extend(check_batch_ladder(platform, &label, &ladder));
                ck.push(wall_violation);
            }
        }
    }
}

/// A population's journaled records, each parsed once: what the results
/// table, the ranking and the invariant checker read. Each record comes
/// with the scenario the population sampled at its index, so nothing here
/// samples again; only the determinism check re-renders a scenario.
pub struct Journaled<'a> {
    /// `(scenario, observations)` of every record that parses, in index
    /// order: the rows of the results table and the ranking.
    pub observed: Vec<(Scenario, Vec<GenObs>)>,
    /// Every journaled record, in index order.
    records: Vec<JournaledRecord<'a>>,
}

/// One journaled record: its population index, its text and, when it
/// parses, the label it carries and its row of [`Journaled::observed`].
struct JournaledRecord<'a> {
    index: u64,
    text: &'a str,
    parsed: Option<(String, usize)>,
}

impl<'a> Journaled<'a> {
    /// Parse every `(scenario, record text)` pair once, in index order.
    #[must_use]
    pub fn parse(records: impl IntoIterator<Item = (Scenario, &'a str)>) -> Self {
        let mut observed = Vec::new();
        let records = records
            .into_iter()
            .map(|(scenario, text)| {
                let index = scenario.index;
                let parsed = parse_record(text).map(|(label, obs)| {
                    observed.push((scenario, obs));
                    (label, observed.len() - 1)
                });
                JournaledRecord {
                    index,
                    text,
                    parsed,
                }
            })
            .collect();
        Journaled { observed, records }
    }

    /// Check the invariant catalog over these records of population
    /// `(tier, seed)`.
    ///
    /// Records are grouped by serving shape (a training record, or one
    /// that does not parse, is a group of one), and the groups are
    /// checked on the `par_map` pool: a group derives its batch ladders
    /// once, on its first record that parses and carries its label,
    /// checks every record against a copy, and drops them when it is
    /// done. Each record's check is then folded in index order, so the
    /// outcome is the same at any `--jobs` and equals checking the
    /// records one by one. `inject` carries a `gen=violate:<invariant>`
    /// clause from `DABENCH_INJECT`: the first record with an observation
    /// perturbable for it is re-checked with that observation perturbed,
    /// so the named invariant fails loudly — proof the checker is alive.
    /// If the population offers no such observation (e.g.
    /// `fault_monotone` on an all-healthy baby tier), a synthetic
    /// counterexample is fed through the same checker. The checker
    /// records nothing on the obs bus: its re-derivations are not sweep
    /// points.
    #[must_use]
    pub fn check(&self, tier: Tier, seed: u64, inject: Option<Invariant>) -> CheckOutcome {
        dabench_core::obs::muted(|| {
            let mut checks: Vec<(usize, RecordCheck)> = par_map(&self.shape_groups(), |members| {
                let mut ladders = None;
                members
                    .iter()
                    .map(|&at| (at, self.check_record(tier, seed, at, None, &mut ladders)))
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
            checks.sort_unstable_by_key(|&(at, _)| at);
            let mut counts = [0_u64; Invariant::ALL.len()];
            let mut violations = Vec::new();
            let mut pending = inject;
            for (at, mut ck) in checks {
                if let Some(inv) = pending.filter(|inv| ck.perturbable[slot(*inv)]) {
                    // The re-check derives its own ladders: an injected
                    // wall names the probe's memory level, which may
                    // depend on the record's own batch.
                    ck = self.check_record(tier, seed, at, Some(inv), &mut None);
                    pending = None;
                }
                for (total, n) in counts.iter_mut().zip(ck.counts) {
                    *total += n;
                }
                violations.extend(ck.violations);
            }
            // A requested injection that found no perturbable observation
            // still must prove the checker fires: feed a synthetic
            // counterexample through the same comparator.
            if let Some(inv) = pending {
                counts[slot(inv)] += 1;
                violations.extend(synthetic_counterexample(inv));
            }
            CheckOutcome {
                checked: Invariant::ALL.iter().copied().zip(counts).collect(),
                violations,
            }
        })
    }

    /// Check record `at`, perturbing its first observation perturbable
    /// for `inject`, if any. `ladders` is shared by the records of one
    /// serving shape (see [`check_scenario`]).
    fn check_record(
        &self,
        tier: Tier,
        seed: u64,
        at: usize,
        inject: Option<Invariant>,
        ladders: &mut Option<Vec<ShapeLadder>>,
    ) -> RecordCheck {
        let mut ck = RecordCheck {
            inject,
            ..RecordCheck::default()
        };
        let record = &self.records[at];
        let Some((label, row)) = &record.parsed else {
            ck.violations.push(Violation {
                invariant: Invariant::SeedDeterminism,
                scenario: format_label(tier, seed, record.index),
                platform: "-".to_owned(),
                detail: "journaled record is not a parsable gen-v1 block".to_owned(),
            });
            return ck;
        };
        let (scenario, obs) = &self.observed[*row];
        if *label != scenario.label() {
            ck.violations.push(Violation {
                invariant: Invariant::SeedDeterminism,
                scenario: scenario.label(),
                platform: "-".to_owned(),
                detail: format!("journaled record carries label `{label}`"),
            });
            return ck;
        }
        check_scenario(&mut ck, scenario, obs, ladders);
        // Determinism: re-derive the whole record from the label alone
        // and compare byte-for-byte. Sampled (every DETERMINISM_STRIDE-th
        // index) because it doubles the scenario's evaluation cost.
        if record.index.is_multiple_of(DETERMINISM_STRIDE) {
            ck.count(Invariant::SeedDeterminism);
            let mut fresh = render_scenario(tier, seed, record.index);
            if ck.perturb(Invariant::SeedDeterminism) {
                fresh.push('#');
            }
            ck.push(check_determinism(label, record.text, &fresh));
        }
        ck
    }

    /// Positions in the records grouped by serving shape, groups in order
    /// of first appearance; a training record, or one that does not
    /// parse, is a group of its own.
    fn shape_groups(&self) -> Vec<Vec<usize>> {
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut by_shape: HashMap<ServingShape, usize> = HashMap::new();
        for (at, record) in self.records.iter().enumerate() {
            let scenario = record
                .parsed
                .as_ref()
                .map(|(_, row)| &self.observed[*row].0);
            let Some(shape) = scenario.and_then(ServingShape::of) else {
                groups.push(vec![at]);
                continue;
            };
            let g = *by_shape.entry(shape).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[g].push(at);
        }
        groups
    }
}

/// Check the invariant catalog over a population of journaled records:
/// `records` maps scenario index → record text, in index order. Each
/// record's scenario is sampled from its index and its text parsed, then
/// [`Journaled::check`] checks them.
#[must_use]
pub fn check_population(
    tier: Tier,
    seed: u64,
    records: &[(u64, String)],
    inject: Option<Invariant>,
) -> CheckOutcome {
    let records = records
        .iter()
        .map(|(index, text)| (sample(tier, seed, *index), text.as_str()));
    Journaled::parse(records).check(tier, seed, inject)
}

/// The violations a hand-made counterexample of `inv` raises.
fn synthetic_counterexample(inv: Invariant) -> Vec<Violation> {
    let label = "gen:injected";
    match inv {
        Invariant::FaultMonotone => check_fault_monotone("injected", label, 1.0, 2.0)
            .into_iter()
            .collect(),
        Invariant::Fp8KvSmaller => check_fp8_kv(label, 100, 100, 1, 1).into_iter().collect(),
        Invariant::BatchMonotone | Invariant::OomWallConsistent => {
            let rung = |batch, tokens_per_s: Option<f64>| LadderPoint {
                batch,
                level: tokens_per_s.map(|_| "injected".to_owned()),
                tokens_per_s,
            };
            // A drop between adjacent rungs of one level, or a fit after
            // an OOM.
            let ladder = if inv == Invariant::BatchMonotone {
                vec![rung(1, Some(10.0)), rung(2, Some(5.0))]
            } else {
                vec![rung(1, Some(10.0)), rung(2, None), rung(4, Some(5.0))]
            };
            check_batch_ladder("injected", label, &ladder)
        }
        Invariant::SeedDeterminism => check_determinism(label, "a", "b").into_iter().collect(),
    }
}

// ---------------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------------

/// Render the tier catalog (`dabench gen --list-tiers`).
#[must_use]
pub fn render_tiers() -> Table {
    let mut t = Table::new("Scenario difficulty tiers");
    t.set_headers(["Tier", "Rank", "Description"]);
    for tier in Tier::ALL {
        t.add_row(vec![
            tier.as_str().to_owned(),
            tier.rank().to_string(),
            tier.describe().to_owned(),
        ]);
    }
    t
}

/// Render the sampled population table.
#[must_use]
pub fn render_population(tier: Tier, seed: u64, scenarios: &[Scenario]) -> Table {
    let mut t = Table::new(format!(
        "Generated population (tier={}, seed={seed}, count={})",
        tier.as_str(),
        scenarios.len()
    ));
    t.set_headers([
        "Idx", "Kind", "Family", "Hidden", "Layers", "KVh", "B", "Seq", "Dec", "Prec", "KV", "Par",
        "Dead", "Link", "Stalls", "Drop", "Edge",
    ]);
    for s in scenarios {
        t.add_row(vec![
            s.index.to_string(),
            s.kind.as_str().to_owned(),
            s.family.as_str().to_owned(),
            s.hidden.to_string(),
            s.layers.to_string(),
            s.kv_heads.to_string(),
            s.batch.to_string(),
            s.seq.to_string(),
            s.decode.to_string(),
            s.precision.as_str().to_owned(),
            s.kv_precision.as_str().to_owned(),
            s.parallelism.to_string(),
            format!("{:.3}", s.faults.dead_fraction),
            format!("{:.3}", s.faults.link_retained),
            s.faults.transient_stalls.to_string(),
            s.faults.dropped_devices.to_string(),
            s.memory_edge.as_str().to_owned(),
        ]);
    }
    t
}

fn obs_cell(obs: &[GenObs], platform: &str) -> String {
    let Some(o) = obs.iter().find(|o| o.platform == platform) else {
        return "?".to_owned();
    };
    match o.tokens_per_s {
        Some(t) => format!("{t:.3e}"),
        None if o.note.contains("out of memory") || o.note.contains("edge-over") => {
            "OOM".to_owned()
        }
        None => "Fail".to_owned(),
    }
}

/// Render the per-scenario results matrix (tokens/s per platform).
#[must_use]
pub fn render_results(records: &[(Scenario, Vec<GenObs>)]) -> Table {
    let mut t = Table::new("Generated results (tokens/s; OOM = admission refused)");
    t.set_headers(["Idx", "Kind", "Edge", "wse", "rdu", "ipu", "gpu"]);
    for (s, obs) in records {
        let mut cells = vec![
            s.index.to_string(),
            s.kind.as_str().to_owned(),
            s.memory_edge.as_str().to_owned(),
        ];
        for p in PLATFORMS {
            cells.push(obs_cell(obs, p));
        }
        t.add_row(cells);
    }
    t
}

/// Render the ranking report.
#[must_use]
pub fn render_ranking(tier: Tier, rows: &[RankRow]) -> Table {
    let mut t = Table::new(format!(
        "Platform ranking (tier={}): pairwise Elo + Pareto throughput/robustness",
        tier.as_str()
    ));
    t.set_headers([
        "Platform", "Elo", "W", "L", "D", "Robust", "NormTput", "Pareto",
    ]);
    for r in rows {
        t.add_row(vec![
            r.platform.clone(),
            format!("{:.0}", r.elo),
            r.wins.to_string(),
            r.losses.to_string(),
            r.draws.to_string(),
            format!("{:.0}%", 100.0 * r.robustness),
            format!("{:.3}", r.norm_throughput),
            if r.pareto { "yes" } else { "no" }.to_owned(),
        ]);
    }
    t
}

/// Render the invariant-check summary.
#[must_use]
pub fn render_invariants(outcome: &CheckOutcome) -> Table {
    let mut t = Table::new("Metamorphic invariants");
    t.set_headers(["Invariant", "Description", "Checked", "Violations"]);
    for (inv, checked) in &outcome.checked {
        let violations = outcome
            .violations
            .iter()
            .filter(|v| v.invariant == *inv)
            .count();
        t.add_row(vec![
            inv.name().to_owned(),
            inv.describe().to_owned(),
            checked.to_string(),
            violations.to_string(),
        ]);
    }
    t
}

/// Evaluate the default population inline and render every table — the
/// suite entry behind `dabench csv gen` and the serve `gen` job.
#[must_use]
pub fn default_tables() -> Vec<Table> {
    let (tier, seed, count) = (DEFAULT_TIER, DEFAULT_SEED, DEFAULT_COUNT);
    let scenarios = dabench_core::gen::population(tier, seed, count);
    let population = render_population(tier, seed, &scenarios);
    let texts: Vec<String> = scenarios
        .iter()
        .map(|s| render_record(s, &evaluate(s)))
        .collect();
    let journaled = Journaled::parse(scenarios.into_iter().zip(texts.iter().map(String::as_str)));
    vec![
        population,
        render_results(&journaled.observed),
        render_ranking(tier, &ranking(&journaled.observed)),
        render_invariants(&journaled.check(tier, seed, None)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_render_and_parse_round_trip() {
        let s = sample(Tier::Baby, 42, 0);
        let obs = evaluate(&s);
        assert_eq!(obs.len(), PLATFORMS.len());
        let record = render_record(&s, &obs);
        let (label, parsed) = parse_record(&record).expect("parses");
        assert_eq!(label, s.label());
        assert_eq!(parsed.len(), obs.len());
        for (a, b) in parsed.iter().zip(&obs) {
            assert_eq!(a.platform, b.platform);
            assert_eq!(a.batch, b.batch);
            assert_eq!(a.tokens_per_s.is_some(), b.tokens_per_s.is_some());
        }
    }

    #[test]
    fn rendering_is_deterministic() {
        for i in 0..4 {
            assert_eq!(
                render_scenario(Tier::Baby, 7, i),
                render_scenario(Tier::Baby, 7, i)
            );
        }
    }

    #[test]
    fn baby_population_passes_every_invariant() {
        let records: Vec<(u64, String)> = (0..DEFAULT_COUNT)
            .map(|i| (i, render_scenario(DEFAULT_TIER, DEFAULT_SEED, i)))
            .collect();
        let outcome = check_population(DEFAULT_TIER, DEFAULT_SEED, &records, None);
        assert!(outcome.violations.is_empty(), "{:#?}", outcome.violations);
        // Every invariant actually ran at least once on this population
        // except fault monotonicity (baby is faultless by design).
        for (inv, checked) in &outcome.checked {
            if *inv != Invariant::FaultMonotone {
                assert!(*checked > 0, "{inv} never checked");
            }
        }
    }

    /// Check `records` (scenario index → record text, in index order) as
    /// `dabench gen` does: each text paired with the scenario of the
    /// population at its index, a missing index being a failed point, and
    /// parsed once.
    fn check_as_gen(tier: Tier, seed: u64, records: &[(u64, String)]) -> CheckOutcome {
        let count = records.last().map_or(0, |(index, _)| index + 1);
        let mut texts = vec![None; usize::try_from(count).expect("small population")];
        for (index, text) in records {
            texts[usize::try_from(*index).expect("small index")] = Some(text.as_str());
        }
        let population = dabench_core::gen::population(tier, seed, count);
        let pairs = population
            .into_iter()
            .zip(texts)
            .filter_map(|(s, text)| Some((s, text?)));
        Journaled::parse(pairs).check(tier, seed, None)
    }

    /// `records` checked one at a time, folded in order: counts summed,
    /// violations concatenated.
    fn checked_one_by_one(tier: Tier, seed: u64, records: &[(u64, String)]) -> CheckOutcome {
        let mut fold = CheckOutcome {
            checked: Invariant::ALL.iter().map(|&inv| (inv, 0)).collect(),
            violations: Vec::new(),
        };
        for (index, text) in records {
            let one = Journaled::parse([(sample(tier, seed, *index), text.as_str())])
                .check(tier, seed, None);
            for ((_, total), (_, n)) in fold.checked.iter_mut().zip(one.checked) {
                *total += n;
            }
            fold.violations.extend(one.violations);
        }
        fold
    }

    #[test]
    fn grouped_check_equals_checking_records_one_by_one() {
        for (tier, count, seed) in [(Tier::Hard, 300, 1), (Tier::Cosmic, 200, 2)] {
            let records: Vec<(u64, String)> = (0..count)
                .map(|i| (i, render_scenario(tier, seed, i)))
                .collect();
            let shapes: Vec<ServingShape> = records
                .iter()
                .filter_map(|(i, _)| ServingShape::of(&sample(tier, seed, *i)))
                .collect();
            let mut distinct: Vec<&ServingShape> = Vec::new();
            for shape in &shapes {
                if !distinct.contains(&shape) {
                    distinct.push(shape);
                }
            }
            assert!(
                distinct.len() < shapes.len(),
                "{}: precondition: serving shapes repeat",
                tier.as_str()
            );
            assert_eq!(
                check_as_gen(tier, seed, &records),
                checked_one_by_one(tier, seed, &records),
                "{}",
                tier.as_str()
            );
        }
    }

    #[test]
    fn the_gen_path_and_check_population_check_alike() {
        // A corrupt record, one carrying its neighbour's label and a
        // missing one (a failed point), planted among good records: the
        // parse-once path of `dabench gen` and the sample-and-parse
        // adapter return the same outcome, which flags both bad records.
        for (tier, count, seed) in [(Tier::Hard, 300, 1), (Tier::Cosmic, 200, 2)] {
            let mut records: Vec<(u64, String)> = (0..count)
                .map(|i| (i, render_scenario(tier, seed, i)))
                .collect();
            records[8].1 = "gen-v1 label=corrupt".to_owned();
            records[16].1 = records[17].1.clone();
            records.remove(3);
            let outcome = check_as_gen(tier, seed, &records);
            assert_eq!(outcome, check_population(tier, seed, &records, None));
            let flagged: Vec<&str> = outcome
                .violations
                .iter()
                .map(|v| v.scenario.as_str())
                .collect();
            let labels = [8, 16].map(|i| format_label(tier, seed, i));
            assert_eq!(flagged, labels, "{}", tier.as_str());
        }
    }

    #[test]
    fn a_group_whose_first_record_is_bad_still_checks_the_rest() {
        // Two serving scenarios of one shape: the first record carries
        // another scenario's label, so it heads the group and derives no
        // ladder, or is corrupt, so it is a group of its own; either way
        // the second is still checked on every platform's ladder.
        let (tier, seed) = (Tier::Hard, 1);
        let mut first_of: HashMap<ServingShape, u64> = HashMap::new();
        let (a, b) = (0..)
            .find_map(|i| {
                let shape = ServingShape::of(&sample(tier, seed, i))?;
                match first_of.get(&shape) {
                    Some(&a) => Some((a, i)),
                    None => {
                        first_of.insert(shape, i);
                        None
                    }
                }
            })
            .expect("a repeated serving shape");
        let good = (b, render_scenario(tier, seed, b));
        let alone = check_as_gen(tier, seed, std::slice::from_ref(&good));
        let ladders = alone
            .checked
            .iter()
            .find(|(inv, _)| *inv == Invariant::BatchMonotone)
            .map(|(_, n)| *n);
        assert_eq!(ladders, Some(PLATFORMS.len() as u64));
        for bad in [
            "not a record".to_owned(),
            render_scenario(tier, seed, a + 1),
        ] {
            let records = [(a, bad), good.clone()];
            let outcome = check_as_gen(tier, seed, &records);
            assert_eq!(outcome.checked, alone.checked);
            assert_eq!(outcome.violations.len(), alone.violations.len() + 1);
            assert_eq!(outcome.violations[0].invariant, Invariant::SeedDeterminism);
            assert_eq!(outcome, checked_one_by_one(tier, seed, &records));
        }
    }

    #[test]
    fn serving_scenarios_of_one_shape_have_one_workload_up_to_batch() {
        // A field the workload reads but the shape omits would let two
        // scenarios share ladders they do not have.
        let mut by_shape: HashMap<ServingShape, (u64, InferenceWorkload)> = HashMap::new();
        let mut rng = dabench_core::SplitMix64::new(27);
        let mut batches_differ = 0;
        for _ in 0..4000 {
            let tier = Tier::ALL[rng.below(Tier::ALL.len() as u64) as usize];
            let s = sample(tier, rng.below(4), rng.below(2000));
            let Some(shape) = ServingShape::of(&s) else {
                continue;
            };
            let w = s.inference_workload().with_batch_size(1).expect("batch 1");
            match by_shape.get(&shape) {
                Some((batch, seen)) => {
                    assert_eq!(*seen, w, "{}", s.label());
                    batches_differ += u32::from(*batch != s.batch);
                }
                None => {
                    by_shape.insert(shape, (s.batch, w));
                }
            }
        }
        assert!(
            batches_differ > 0,
            "precondition: shapes repeat across batches"
        );
    }

    #[test]
    fn injection_fails_loudly_for_every_invariant() {
        // Every tier: on cosmic the first ladder checked (wse at index 0)
        // has no same-level fitting pair, so a `batch_monotone` injection
        // must move on to the next perturbable ladder instead of being
        // spent on nothing.
        for tier in Tier::ALL {
            let records: Vec<(u64, String)> =
                (0..2).map(|i| (i, render_scenario(tier, 42, i))).collect();
            let clean = check_population(tier, 42, &records, None);
            for inv in Invariant::ALL {
                let outcome = check_population(tier, 42, &records, Some(inv));
                assert!(
                    outcome.violations.iter().any(|v| v.invariant == inv),
                    "{} {inv}: injection did not surface",
                    tier.as_str()
                );
                // A perturbation changes what a check finds, never how
                // many checks ran; the synthetic fallback adds one.
                let synthetic = outcome
                    .violations
                    .iter()
                    .any(|v| v.scenario == "gen:injected");
                for ((i, n), (_, base)) in outcome.checked.iter().zip(&clean.checked) {
                    let extra = u64::from(synthetic && *i == inv);
                    assert_eq!(*n, base + extra, "{} {inv}: {i} count", tier.as_str());
                }
            }
        }
    }

    #[test]
    fn injection_lands_on_the_first_perturbable_record() {
        // Easy seed 42 opens with training scenarios, which carry no FP8
        // KV check: a `fp8_kv_smaller` injection skips them and perturbs
        // the first serving scenario, and only its violation appears.
        let tier = Tier::Easy;
        let records: Vec<(u64, String)> =
            (0..8).map(|i| (i, render_scenario(tier, 42, i))).collect();
        let first_infer = records
            .iter()
            .map(|(i, _)| sample(tier, 42, *i))
            .find(|s| s.kind == ScenarioKind::Infer)
            .expect("an inference scenario among the first 8");
        assert!(first_infer.index > 0, "precondition: records to skip");
        let outcome = check_population(tier, 42, &records, Some(Invariant::Fp8KvSmaller));
        let hits: Vec<&str> = outcome
            .violations
            .iter()
            .map(|v| v.scenario.as_str())
            .collect();
        assert_eq!(hits, vec![first_infer.label().as_str()]);
    }

    #[test]
    fn ranking_is_complete_and_orders_by_throughput() {
        let records: Vec<(Scenario, Vec<GenObs>)> = (0..DEFAULT_COUNT)
            .map(|i| {
                let s = sample(DEFAULT_TIER, DEFAULT_SEED, i);
                let obs = evaluate(&s);
                (s, obs)
            })
            .collect();
        let rows = ranking(&records);
        assert_eq!(rows.len(), PLATFORMS.len());
        assert!(rows.iter().any(|r| r.pareto), "frontier is never empty");
        // Baby workloads fit everywhere: full robustness all around.
        for r in &rows {
            assert!((r.robustness - 1.0).abs() < 1e-12, "{}", r.platform);
            assert!(r.norm_throughput > 0.0 && r.norm_throughput <= 1.0);
        }
        // Wins + losses + draws must balance across the population.
        let wins: u64 = rows.iter().map(|r| r.wins).sum();
        let losses: u64 = rows.iter().map(|r| r.losses).sum();
        assert_eq!(wins, losses);
    }

    #[test]
    fn default_tables_cover_all_four_reports() {
        let tables = default_tables();
        assert_eq!(tables.len(), 4);
        let text: String = tables.iter().map(ToString::to_string).collect();
        assert!(text.contains("Generated population"));
        assert!(text.contains("Platform ranking"));
        assert!(text.contains("Metamorphic invariants"));
    }

    #[test]
    fn fault_monotone_twin_is_quantized_to_the_record_grid() {
        // The faulted observation round-trips through the record's {:.6e}
        // wire format; the healthy twin is a live f64. If the recorded
        // value rounded UP, a genuinely-equal pair would read as a
        // violation unless the twin is pushed onto the same grid first
        // (tier easy, seed 1, index 103 on wse found this at count 200).
        let healthy = 123_456.78; // formats to 1.234568e5 — rounds up
        let faulted: f64 = fmt_opt_f64(Some(healthy)).parse().expect("parses");
        assert!(faulted > healthy, "precondition: record rounded up");
        assert!(
            dabench_core::gen::check_fault_monotone("wse", "s", healthy, faulted).is_some(),
            "unquantized twin must reproduce the false positive"
        );
        assert!(
            dabench_core::gen::check_fault_monotone("wse", "s", quantize_tps(healthy), faulted)
                .is_none(),
            "quantized twin must not flag an equal pair"
        );
    }
}
