//! Property tests for the observability recorder (`dabench_core::obs`).
//!
//! A seeded [`SplitMix64`] stream produces random instrumentation
//! "programs" (nested spans, counters, panics), the real recorder
//! executes them — through `par_map`, exactly like production code — and
//! the resulting traces are checked against structural invariants and an
//! independently computed model.
//!
//! Invariants covered (docs/observability.md):
//! - spans are well-nested per point context, every `Begin` has a matching
//!   `End`, and logical timestamps are strictly increasing — even when the
//!   instrumented code panics mid-span;
//! - per-phase counter totals reconcile exactly with a replay of the
//!   generating program;
//! - the digest serialization round-trips every trace byte-exactly.
//!
//! The recorder is process-global, so every test takes `session()` — a
//! mutex that serializes recorder use across the harness's test threads.

use dabench_core::obs::{self, Event, Phase, PointTrace};
use dabench_core::{par_map, SplitMix64};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

/// Exclusive recorder session: drains stale state on entry, disables and
/// drains again on drop (even when the test body panics).
struct Session(#[allow(dead_code)] MutexGuard<'static, ()>);

fn session() -> Session {
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::disable();
    let _ = obs::take();
    obs::enable();
    Session(guard)
}

impl Drop for Session {
    fn drop(&mut self) {
        obs::disable();
        let _ = obs::take();
    }
}

const PHASES: [Phase; 5] = [
    Phase::Compile,
    Phase::Place,
    Phase::Partition,
    Phase::Execute,
    Phase::Collect,
];

/// Name pool; the last entries exercise every digest escape character.
const NAMES: [&str; 6] = [
    "alpha",
    "beta.gamma",
    "x",
    "pipe|and;semi",
    "colon:percent%",
    "new\nline",
];

/// One step of a random instrumentation program.
#[derive(Debug, Clone)]
enum Op {
    Span(Phase, &'static str, Vec<Op>),
    Counter(&'static str, f64),
}

fn gen_ops(rng: &mut SplitMix64, depth: u64, budget: &mut u64) -> Vec<Op> {
    let mut ops = Vec::new();
    while *budget > 0 && rng.below(4) != 0 {
        *budget -= 1;
        let op = match rng.below(if depth < 4 { 2 } else { 1 }) {
            // Dyadic values: floating sums reassociate exactly, so the
            // model total can be compared with `==`.
            0 => Op::Counter(NAMES[rng.below(6) as usize], {
                (rng.below(4000) as f64 - 2000.0) / 8.0
            }),
            _ => Op::Span(
                PHASES[rng.below(5) as usize],
                NAMES[rng.below(6) as usize],
                gen_ops(rng, depth + 1, budget),
            ),
        };
        ops.push(op);
    }
    ops
}

/// Execute a program against the real recorder.
fn exec(ops: &[Op]) {
    for op in ops {
        match op {
            Op::Span(phase, name, kids) => obs::span(*phase, name, || exec(kids)),
            Op::Counter(key, value) => obs::counter(key, *value),
        }
    }
}

/// Model of `counter_rows`: replay the program and accumulate per-phase
/// counter totals in the same (phase, key) order and the same summation
/// order the recorder uses.
fn model_counters(ops: &[Op], phase: Option<Phase>, acc: &mut BTreeMap<(&str, &str), (u64, f64)>) {
    for op in ops {
        match op {
            Op::Span(p, _, kids) => model_counters(kids, Some(*p), acc),
            Op::Counter(key, value) => {
                let cell = acc
                    .entry((phase.map_or("-", Phase::as_str), key))
                    .or_insert((0, 0.0));
                cell.0 += 1;
                cell.1 += value;
            }
        }
    }
}

#[test]
fn random_programs_produce_well_formed_traces() {
    let _s = session();
    for seed in 0..60u64 {
        let mut rng = SplitMix64::new(seed);
        let programs: Vec<Vec<Op>> = (0..4)
            .map(|_| {
                let mut budget = 24;
                gen_ops(&mut rng, 0, &mut budget)
            })
            .collect();
        par_map(&programs, |p| exec(p));
        for trace in obs::take() {
            trace
                .check_well_formed()
                .unwrap_or_else(|e| panic!("seed {seed}, point {}: {e}", trace.path_string()));
        }
    }
}

#[test]
fn counter_totals_reconcile_with_a_program_replay() {
    let _s = session();
    for seed in 100..160u64 {
        let mut rng = SplitMix64::new(seed);
        let programs: Vec<Vec<Op>> = (0..4)
            .map(|_| {
                let mut budget = 24;
                gen_ops(&mut rng, 0, &mut budget)
            })
            .collect();
        par_map(&programs, |p| exec(p));
        let traces = obs::take();

        // `take()` sorts by path = input order, and events replay in
        // program order, so model and recorder sum in the same order —
        // the totals must match bit for bit, not just approximately.
        let mut expected: BTreeMap<(&str, &str), (u64, f64)> = BTreeMap::new();
        for p in &programs {
            model_counters(p, None, &mut expected);
        }
        let rows = obs::counter_rows(&traces);
        assert_eq!(rows.len(), expected.len(), "seed {seed}");
        for (row, ((phase, key), (samples, total))) in rows.iter().zip(&expected) {
            assert_eq!(row.phase, *phase, "seed {seed}");
            assert_eq!(&row.name, key, "seed {seed}");
            assert_eq!(row.samples, *samples, "seed {seed} {key}");
            assert!(
                row.total == *total,
                "seed {seed} {key}: {} != {total}",
                row.total
            );
        }
    }
}

#[test]
fn panicking_programs_still_close_every_span() {
    let _s = session();
    for seed in 200..240u64 {
        let mut rng = SplitMix64::new(seed);
        let mut budget = 24;
        let program = gen_ops(&mut rng, 0, &mut budget);
        let fuse = rng.below(8);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            obs::with_point(seed, "prop", || {
                let mut remaining = fuse;
                burn(&program, &mut remaining);
            })
        }));
        // Deep programs panic mid-span; shallow ones run to completion.
        // Either way every flushed trace must be structurally valid.
        let _ = caught;
        for trace in obs::take() {
            trace
                .check_well_formed()
                .unwrap_or_else(|e| panic!("seed {seed} (fuse {fuse}): {e}"));
        }
    }
}

/// Like `exec`, but panics once `fuse` operations have run.
fn burn(ops: &[Op], fuse: &mut u64) {
    for op in ops {
        if *fuse == 0 {
            panic!("injected property-test panic");
        }
        *fuse -= 1;
        match op {
            Op::Span(phase, name, kids) => obs::span(*phase, name, || burn(kids, fuse)),
            Op::Counter(key, value) => obs::counter(key, *value),
        }
    }
}

#[test]
fn digests_round_trip_recorded_traces() {
    let _s = session();
    for seed in 300..360u64 {
        let mut rng = SplitMix64::new(seed);
        let programs: Vec<Vec<Op>> = (0..3)
            .map(|_| {
                let mut budget = 20;
                gen_ops(&mut rng, 0, &mut budget)
            })
            .collect();
        par_map(&programs, |p| exec(p));
        for trace in obs::take() {
            let digest = trace.digest();
            assert!(!digest.contains('\n'), "digest must be one journal line");
            let parsed = PointTrace::parse_digest(&digest)
                .unwrap_or_else(|| panic!("seed {seed}: unparseable digest {digest:?}"));
            assert_eq!(parsed, trace, "seed {seed}: digest round-trip drifted");
        }
    }
}

#[test]
fn digests_round_trip_adversarial_values() {
    // Hand-built traces cover what the generator cannot: extreme floats,
    // negative zero, subnormals, and escape-heavy labels. (NaN is excluded
    // by construction — counters record measurements, and `PointTrace`
    // equality is derived `PartialEq`.)
    let values = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        5e-324,
        f64::MAX,
        -f64::MAX,
        0.1 + 0.2,
        1.0 / 3.0,
        -123456789.015625,
    ];
    let mut events = Vec::new();
    for (i, v) in values.iter().enumerate() {
        events.push(Event::Begin {
            phase: PHASES[i % 5],
            name: format!("odd%name|{i};with:specials\nline"),
            ts: 2 * i as u64 + 1,
        });
        events.push(Event::Counter {
            phase: Some(PHASES[i % 5]),
            key: "k%7c|".to_owned(),
            value: *v,
            ts: 2 * i as u64 + 2,
        });
    }
    for (i, _) in values.iter().enumerate().rev() {
        events.push(Event::End {
            phase: PHASES[i % 5],
            name: format!("odd%name|{i};with:specials\nline"),
            ts: 100 + i as u64,
        });
    }
    let trace = PointTrace {
        path: vec![0, 7, u64::MAX],
        label: "label with %|;:\n everything".to_owned(),
        events,
    };
    let digest = trace.digest();
    assert!(!digest.contains('\n'));
    let parsed = PointTrace::parse_digest(&digest).expect("parse adversarial digest");
    assert_eq!(parsed, trace);
}
