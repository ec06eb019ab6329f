//! Property tests for the sharded-sweep journal merge
//! (`dabench_core::shard`).
//!
//! Properties driven by the seeded [`SplitMix64`] generator — every
//! failure reproduces from its printed seed.
//!
//! Properties covered (docs/sharding.md):
//! - merging randomly partitioned per-shard journals — with random
//!   respawn/retry noise (`started`, heartbeats, shard-meta, transient
//!   failure records), random reassignment of points between shards, and
//!   random torn tails healed by the parser — reproduces the unsharded
//!   `--jobs 1` journal **byte-identically**;
//! - the merge is idempotent: merging the merged journal (alone, or again
//!   with the original shard journals behind it) is a fixed point;
//! - the three-pass precedence (first completed source wins, synthetic
//!   failures next, first durable failure last; last record of each kind
//!   within a source wins) agrees with an independent naive reference on
//!   arbitrary record soups where sources *disagree*;
//! - `plan_shards` is a deterministic round-robin partition: every label
//!   appears exactly once, on shard `i % slots`.

use dabench_core::shard::{merge_journals, plan_shards, MergedPoint, SyntheticFailure};
use dabench_core::supervise::{
    format_record, parse_journal, JournalRecord, ParsedJournal, JOURNAL_SCHEMA,
    SHARD_CONTROL_LABEL, STATUS_HEARTBEAT, STATUS_SHARD_META, STATUS_STARTED,
};
use dabench_core::SplitMix64;
use std::collections::BTreeMap;

/// Random point data exercising every journal escape class: quotes,
/// backslashes, newlines, tabs, control bytes, non-ASCII.
fn gen_data(rng: &mut SplitMix64) -> String {
    let pieces = [
        "plain",
        "with \"quotes\"",
        "back\\slash",
        "multi\nline\n",
        "tab\there",
        "ctrl\u{1}byte",
        "unicode µs ✓",
        "",
    ];
    let n = 1 + rng.below(4);
    (0..n)
        .map(|_| pieces[rng.below(pieces.len() as u64) as usize])
        .collect::<Vec<_>>()
        .join(" ")
}

/// A randomized sweep: unique labels in canonical order, each with
/// canonical completed data and (sometimes) a metrics digest — the output
/// a deterministic worker produces no matter which process runs the point.
struct Sweep {
    order: Vec<String>,
    data: BTreeMap<String, String>,
    metrics: BTreeMap<String, String>,
}

fn gen_sweep(rng: &mut SplitMix64) -> Sweep {
    let n = 1 + rng.below(24) as usize;
    let order: Vec<String> = (0..n).map(|i| format!("point-{i:02}")).collect();
    let mut data = BTreeMap::new();
    let mut metrics = BTreeMap::new();
    for label in &order {
        data.insert(label.clone(), gen_data(rng));
        if rng.below(100) < 60 {
            metrics.insert(label.clone(), format!("digest {}", gen_data(rng)));
        }
    }
    Sweep {
        order,
        data,
        metrics,
    }
}

/// The unsharded `--jobs 1` journal: header, then per point in canonical
/// order a completed record followed by its metrics record.
fn unsharded_journal(sweep: &Sweep) -> String {
    let mut text = format!("{{\"schema\":\"{JOURNAL_SCHEMA}\"}}\n");
    for label in &sweep.order {
        text.push_str(&format_record(label, "completed", &sweep.data[label]));
        text.push('\n');
        if let Some(digest) = sweep.metrics.get(label) {
            text.push_str(&format_record(label, "metrics", digest));
            text.push('\n');
        }
    }
    text
}

/// Build one shard's journal text: shard-meta header, then each assigned
/// label's records with random worker noise — extra process lives
/// (`started` repeated after an injected transient failure), heartbeats
/// between points, and optionally a torn trailing line the parser heals.
fn shard_journal_text(
    rng: &mut SplitMix64,
    sweep: &Sweep,
    shard: usize,
    labels: &[String],
) -> String {
    let mut text = format!("{{\"schema\":\"{JOURNAL_SCHEMA}\"}}\n");
    text.push_str(&format_record(
        SHARD_CONTROL_LABEL,
        STATUS_SHARD_META,
        &format!("shard={shard}"),
    ));
    text.push('\n');
    let mut beat = 0u64;
    for label in labels {
        // Prior process lives that died before finishing the point.
        for life in 0..rng.below(3) {
            text.push_str(&format_record(
                label,
                STATUS_STARTED,
                &format!("life={life}"),
            ));
            text.push('\n');
            if rng.below(100) < 40 {
                text.push_str(&format_record(label, "failed", "transient worker death"));
                text.push('\n');
            }
        }
        if rng.below(100) < 50 {
            beat += 1;
            text.push_str(&format_record(
                SHARD_CONTROL_LABEL,
                STATUS_HEARTBEAT,
                &format!("beat={beat}"),
            ));
            text.push('\n');
        }
        text.push_str(&format_record(label, STATUS_STARTED, "life=final"));
        text.push('\n');
        text.push_str(&format_record(label, "completed", &sweep.data[label]));
        text.push('\n');
        if let Some(digest) = sweep.metrics.get(label) {
            text.push_str(&format_record(label, "metrics", digest));
            text.push('\n');
        }
    }
    text
}

/// Random torn tail: a prefix of what the next record would have been,
/// cut mid-line with no trailing newline (a crash between `write` and
/// durability). `parse_journal` must heal it.
fn append_torn_tail(rng: &mut SplitMix64, text: &mut String) {
    let full = format_record("torn-point", "completed", "never made it");
    let cut = 1 + rng.below(full.len() as u64 - 1) as usize;
    let mut cut = cut;
    while !full.is_char_boundary(cut) {
        cut -= 1;
    }
    text.push_str(&full[..cut]);
}

/// Parse shard text, asserting the torn tail (if any) was healed.
fn parse(text: &str, expect_tail: bool) -> ParsedJournal {
    let parsed = parse_journal(text).expect("generated journal parses");
    assert_eq!(
        parsed.dropped_tail.is_some(),
        expect_tail,
        "torn-tail healing mismatch"
    );
    parsed
}

#[test]
fn random_partitions_merge_byte_identical_to_unsharded() {
    for seed in 0..300u64 {
        let mut rng = SplitMix64::new(seed);
        let sweep = gen_sweep(&mut rng);
        let expected = unsharded_journal(&sweep);

        let shards = 1 + rng.below(6) as usize;
        let mut plan = plan_shards(&sweep.order, shards);
        // Random reassignment: move some points to a different shard, the
        // way the fleet supervisor reassigns a dead worker's remainder.
        if plan.len() > 1 {
            for _ in 0..rng.below(4) {
                let from = rng.below(plan.len() as u64) as usize;
                if let Some(label) = plan[from].pop() {
                    let to = rng.below(plan.len() as u64) as usize;
                    plan[to].push(label);
                }
            }
        }

        let mut sources = vec![ParsedJournal::default()]; // empty combined journal
        for (shard, labels) in plan.iter().enumerate() {
            let mut text = shard_journal_text(&mut rng, &sweep, shard, labels);
            let torn = rng.below(100) < 40;
            if torn {
                append_torn_tail(&mut rng, &mut text);
            }
            sources.push(parse(&text, torn));
        }

        let merged = merge_journals(&sweep.order, &sources, &BTreeMap::new());
        assert_eq!(
            merged.text, expected,
            "seed {seed}: merged journal differs from unsharded --jobs 1 journal"
        );
        assert_eq!(merged.points.len(), sweep.order.len(), "seed {seed}");

        // Idempotence: the merged journal alone is a fixed point, and
        // re-merging it ahead of the original shard journals changes
        // nothing (the combined journal is always source 0 on resume).
        let remerged = parse_journal(&merged.text).expect("merged journal parses");
        let alone = merge_journals(
            &sweep.order,
            std::slice::from_ref(&remerged),
            &BTreeMap::new(),
        );
        assert_eq!(alone.text, expected, "seed {seed}: merge not idempotent");
        let mut again = vec![remerged];
        again.extend(sources.into_iter().skip(1));
        let layered = merge_journals(&sweep.order, &again, &BTreeMap::new());
        assert_eq!(
            layered.text, expected,
            "seed {seed}: re-merge over shards drifts"
        );
    }
}

/// Independent naive reference for the three-pass precedence, scanning
/// every source per label the slow way.
fn naive_merge(
    order: &[String],
    sources: &[ParsedJournal],
    synthetic: &BTreeMap<String, SyntheticFailure>,
) -> BTreeMap<String, MergedPoint> {
    let mut points = BTreeMap::new();
    for label in order {
        let mut chosen: Option<MergedPoint> = None;
        for (si, src) in sources.iter().enumerate() {
            let mut completed = None;
            let mut metrics = None;
            for rec in &src.records {
                if rec.label != *label || rec.is_control() {
                    continue;
                }
                match (rec.status.as_deref(), rec.data.as_deref()) {
                    (Some("completed"), Some(d)) => completed = Some(d),
                    (Some("metrics"), Some(d)) => metrics = Some(d),
                    _ => {}
                }
            }
            if let Some(data) = completed {
                chosen = Some(MergedPoint {
                    status: "completed".to_owned(),
                    data: data.to_owned(),
                    metrics: metrics.map(str::to_owned),
                    source: si,
                });
                break;
            }
        }
        if chosen.is_none() {
            if let Some(s) = synthetic.get(label) {
                chosen = Some(MergedPoint {
                    status: s.status.clone(),
                    data: s.data.clone(),
                    metrics: None,
                    source: usize::MAX,
                });
            }
        }
        if chosen.is_none() {
            for (si, src) in sources.iter().enumerate() {
                let mut last: Option<(&str, &str)> = None;
                for rec in &src.records {
                    if rec.label != *label || !rec.is_final() {
                        continue;
                    }
                    match rec.status.as_deref() {
                        Some("completed") | None => {}
                        Some(status) => last = Some((status, rec.data.as_deref().unwrap_or(""))),
                    }
                }
                if let Some((status, data)) = last {
                    chosen = Some(MergedPoint {
                        status: status.to_owned(),
                        data: data.to_owned(),
                        metrics: None,
                        source: si,
                    });
                    break;
                }
            }
        }
        if let Some(point) = chosen {
            points.insert(label.clone(), point);
        }
    }
    points
}

/// Arbitrary record soup: sources that *disagree* — different data for the
/// same label, failures shadowing completions, control noise, labels
/// outside the canonical order — to pin the precedence rules themselves.
fn gen_soup(rng: &mut SplitMix64, order: &[String]) -> ParsedJournal {
    let statuses = [
        "completed",
        "metrics",
        "failed",
        "panicked",
        "timed-out",
        STATUS_STARTED,
    ];
    let n = rng.below(30) as usize;
    let records = (0..n)
        .map(|_| {
            if rng.below(100) < 10 {
                return JournalRecord {
                    label: SHARD_CONTROL_LABEL.to_owned(),
                    status: Some(if rng.below(100) < 50 {
                        STATUS_HEARTBEAT.to_owned()
                    } else {
                        STATUS_SHARD_META.to_owned()
                    }),
                    data: Some("noise".to_owned()),
                };
            }
            let label = if rng.below(100) < 85 {
                order[rng.below(order.len() as u64) as usize].clone()
            } else {
                "stranger".to_owned()
            };
            JournalRecord {
                label,
                status: Some(statuses[rng.below(statuses.len() as u64) as usize].to_owned()),
                data: if rng.below(100) < 85 {
                    Some(gen_data(rng))
                } else {
                    None
                },
            }
        })
        .collect();
    ParsedJournal {
        records,
        valid_bytes: 0,
        dropped_tail: None,
    }
}

#[test]
fn merge_precedence_matches_naive_reference() {
    for seed in 0..300u64 {
        let mut rng = SplitMix64::new(seed ^ 0x0D15_C04D);
        let n = 1 + rng.below(10) as usize;
        let order: Vec<String> = (0..n).map(|i| format!("p{i}")).collect();
        let sources: Vec<ParsedJournal> = (0..1 + rng.below(4))
            .map(|_| gen_soup(&mut rng, &order))
            .collect();
        let mut synthetic = BTreeMap::new();
        for label in &order {
            if rng.below(100) < 25 {
                synthetic.insert(
                    label.clone(),
                    SyntheticFailure {
                        status: "failed".to_owned(),
                        data: format!("shard died holding {label}"),
                    },
                );
            }
        }
        let fast = merge_journals(&order, &sources, &synthetic);
        let slow = naive_merge(&order, &sources, &synthetic);
        assert_eq!(
            fast.points, slow,
            "seed {seed}: folded merge disagrees with naive reference"
        );
    }
}

#[test]
fn plan_shards_is_a_deterministic_round_robin_partition() {
    for seed in 0..200u64 {
        let mut rng = SplitMix64::new(seed ^ 0x000F_1EE7);
        let n = rng.below(40) as usize;
        let labels: Vec<String> = (0..n).map(|i| format!("L{i}")).collect();
        let shards = rng.below(12) as usize;
        let plan = plan_shards(&labels, shards);
        assert_eq!(
            plan,
            plan_shards(&labels, shards),
            "seed {seed}: not deterministic"
        );
        let slots = shards.max(1).min(labels.len().max(1));
        assert_eq!(plan.len(), slots, "seed {seed}: wrong slot count");
        let mut seen = Vec::new();
        for (k, slot) in plan.iter().enumerate() {
            for label in slot {
                let i: usize = label[1..].parse().expect("label index");
                assert_eq!(
                    i % slots,
                    k,
                    "seed {seed}: {label} not on round-robin shard"
                );
                seen.push(label.clone());
            }
        }
        seen.sort();
        let mut all = labels.clone();
        all.sort();
        assert_eq!(seen, all, "seed {seed}: not a partition");
    }
}
