//! Seeded fuzz harness for the persisted record formats: the flat
//! `jsonl` codec, the `dabench-journal-v1` run journal, the
//! `dabench-obs-v1` digest, `gen-v1` point records and `dabench-bench-v1`
//! reports. Every draw comes from `SplitMix64`, so a failure reproduces
//! from the seed it prints.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use dabench::core::bench::{
    iter_plan, BenchKind, BenchRecord, BenchReport, CounterRow, PhaseRow, Summary, TrajectoryEntry,
};
use dabench::core::gen::Tier;
use dabench::core::jsonl::{parse_object, write_object};
use dabench::core::obs::{Event, Phase, PointTrace};
use dabench::core::shard::{merge_journals, read_merged};
use dabench::core::supervise::{
    parse_journal, parse_journal_bytes, JournalParseError, JournalRecord, Replay, RunJournal,
};
use dabench::core::SplitMix64;
use dabench::experiments::gen::{parse_record, render_scenario};

/// Every C0 control character plus DEL: the escaper's hardest inputs.
fn controls() -> String {
    (0u8..0x20).chain([0x7f]).map(char::from).collect()
}

/// JSON metacharacters, whitespace the parser skips, and non-ASCII text
/// from two-byte Latin to astral-plane code points.
const SPECIAL: &str = "\"\\/{}:, éß中\u{a0}\u{2028}\u{feff}🦀\u{10ffff}";

/// A string of up to `max_len` characters: a quarter C0 controls, a
/// quarter [`SPECIAL`], half printable ASCII.
fn draw_string(rng: &mut SplitMix64, max_len: u64) -> String {
    (0..rng.below(max_len + 1))
        .map(|_| match rng.below(4) {
            0 => char::from(rng.below(0x20) as u8),
            1 => {
                let n = SPECIAL.chars().count() as u64;
                SPECIAL
                    .chars()
                    .nth(rng.below(n) as usize)
                    .expect("in range")
            }
            _ => char::from(b' ' + rng.below(95) as u8),
        })
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("dabench-record-codec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Write a journal of `records` (label, status, data) through
/// [`RunJournal`] and return its bytes.
fn journal_bytes(tag: &str, records: &[(String, String, String)]) -> Vec<u8> {
    let dir = temp_dir(tag);
    let mut journal = RunJournal::create(&dir).expect("create journal");
    for (label, status, data) in records {
        journal.append(label, status, data).expect("append");
    }
    let bytes = std::fs::read(journal.path()).expect("read journal");
    drop(journal);
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
    bytes
}

fn draw_records(rng: &mut SplitMix64, n: usize) -> Vec<(String, String, String)> {
    (0..n)
        .map(|_| {
            (
                draw_string(rng, 12),
                draw_string(rng, 8),
                draw_string(rng, 24),
            )
        })
        .collect()
}

fn as_journal_records(records: &[(String, String, String)]) -> Vec<JournalRecord> {
    records
        .iter()
        .map(|(label, status, data)| JournalRecord {
            label: label.clone(),
            status: Some(status.clone()),
            data: Some(data.clone()),
        })
        .collect()
}

/// Call `parse` on every single-bit flip of `original` (invalid UTF-8
/// decoded lossily, so every flip reaches the parser); a panic fails the
/// test naming the byte and bit.
fn flip_every_bit(what: &str, original: &[u8], parse: impl Fn(&str)) {
    for byte in 0..original.len() {
        for bit in 0..8 {
            let mut flipped = original.to_vec();
            flipped[byte] ^= 1 << bit;
            let text = String::from_utf8_lossy(&flipped);
            if catch_unwind(AssertUnwindSafe(|| parse(&text))).is_err() {
                panic!("{what}: parser panicked on byte {byte} bit {bit}: {text:?}");
            }
        }
    }
}

#[test]
fn drawn_strings_round_trip_through_write_and_parse() {
    let mut rng = SplitMix64::new(0x0c0d_ec01);
    for case in 0..2000 {
        let mut pairs: Vec<(String, String)> = (0..rng.below(5))
            .map(|_| (draw_string(&mut rng, 8), draw_string(&mut rng, 32)))
            .collect();
        if case == 0 {
            pairs.push((controls(), SPECIAL.to_owned()));
        }
        let borrowed: Vec<(&str, &str)> = pairs
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        let line = write_object(&borrowed);
        assert!(!line.contains('\n'), "case {case}: {line:?}");
        // Duplicate keys keep the last occurrence.
        let expected: BTreeMap<String, String> = pairs.into_iter().collect();
        assert_eq!(parse_object(&line), Some(expected), "case {case}: {line:?}");
    }
}

#[test]
fn a_journal_truncated_at_any_byte_parses_to_a_prefix() {
    for seed in 0..8 {
        let mut rng = SplitMix64::new(seed);
        let records = draw_records(&mut rng, 6);
        let bytes = journal_bytes(&format!("truncate-{seed}"), &records);
        let full = parse_journal(std::str::from_utf8(&bytes).expect("journal is UTF-8"))
            .expect("full journal parses");
        assert_eq!(full.records, as_journal_records(&records), "seed {seed}");
        assert_eq!((full.valid_bytes, &full.dropped_tail), (bytes.len(), &None));

        for cut in 0..=bytes.len() {
            let prefix = &bytes[..cut];
            let complete = prefix
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |i| i + 1);
            // Drawn strings hold non-ASCII text, so many cuts split a
            // character: the byte reader must drop that tail like any other.
            let parsed = parse_journal_bytes(prefix)
                .unwrap_or_else(|e| panic!("seed {seed} cut {cut}: {e:?}"));
            let lines = prefix[..complete].iter().filter(|&&b| b == b'\n').count();
            let kept = lines.saturating_sub(1);
            assert_eq!(
                parsed.records,
                full.records[..kept],
                "seed {seed} cut {cut}"
            );
            assert_eq!(parsed.valid_bytes, complete, "seed {seed} cut {cut}");
            assert_eq!(
                parsed.dropped_tail.is_some(),
                complete < cut,
                "seed {seed} cut {cut}"
            );
        }
    }
}

#[test]
fn a_journal_torn_inside_a_character_resumes_and_heals() {
    let records = [
        ("table1".to_owned(), "completed".to_owned(), "ok".to_owned()),
        ("fig6".to_owned(), "failed".to_owned(), "é…".to_owned()),
    ];
    let bytes = journal_bytes("torn-char", &records);
    let text = std::str::from_utf8(&bytes).expect("journal is UTF-8");
    let tail = text.rfind("é…").expect("last record holds é…");
    // Every cut strictly inside `é` (2 bytes) or `…` (3 bytes).
    for cut in [tail + 1, tail + 3, tail + 4] {
        assert!(!text.is_char_boundary(cut), "cut {cut}");
        let dir = temp_dir(&format!("torn-char-{cut}"));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = RunJournal::path_in(&dir);
        std::fs::write(&path, &bytes[..cut]).expect("torn journal");

        let (mut journal, replay) = RunJournal::resume(&dir).expect("torn tail heals");
        assert!(replay.dropped_tail.is_some(), "cut {cut}");
        assert_eq!(replay.completed.len(), 1, "cut {cut}");
        journal.append("fig6", "completed", "é…").expect("append");
        drop(journal);
        let (_, replay) = RunJournal::resume(&dir).expect("healed journal resumes");
        assert_eq!(replay.dropped_tail, None, "cut {cut}");
        assert_eq!(replay.completed["fig6"], "é…", "cut {cut}");
        std::fs::remove_dir_all(&dir).expect("remove temp dir");

        // The same torn record followed by a valid one is corruption.
        let mut mid_file = bytes[..cut].to_vec();
        mid_file.extend_from_slice(&bytes[tail + 5..]);
        mid_file.extend_from_slice(b"{\"label\":\"x\",\"status\":\"failed\",\"data\":\"\"}\n");
        let err = parse_journal_bytes(&mid_file).expect_err("mid-file corruption");
        assert!(
            matches!(err, JournalParseError::Corrupt { line: 3, .. }),
            "cut {cut}: {err:?}"
        );
    }
}

#[test]
fn a_cut_or_flipped_merged_journal_reads_as_its_parse_or_not_at_all() {
    // A merged journal of drawn records, the middle point without a
    // digest. `read_merged` of any cut or single-bit flip of it must not
    // panic, and where it reads, it must read what the general path
    // replays from the same bytes.
    let mut rng = SplitMix64::new(0x3e26_ed30);
    let order: Vec<String> = (0..3).map(|i| format!("gen:hard:s1:i{i}")).collect();
    let mut records = Vec::new();
    for (i, label) in order.iter().enumerate() {
        let data = draw_string(&mut rng, 24);
        records.push((label.clone(), "completed".to_owned(), data));
        if i != 1 {
            let digest = draw_string(&mut rng, 16);
            records.push((label.clone(), "metrics".to_owned(), digest));
        }
    }
    let source = parse_journal_bytes(&journal_bytes("merged", &records)).expect("journal parses");
    let merged = merge_journals(&order, &[source], &BTreeMap::new())
        .text
        .into_bytes();
    let reads_as_parsed = |bytes: &[u8], what: &str| -> bool {
        let read = catch_unwind(AssertUnwindSafe(|| read_merged(&order, bytes)))
            .unwrap_or_else(|_| panic!("{what}: read_merged panicked"));
        let Some(points) = read else {
            return false;
        };
        let parsed = parse_journal_bytes(bytes).unwrap_or_else(|e| panic!("{what}: {e:?}"));
        let replay = Replay::from_journal(parsed);
        assert_eq!(replay.dropped_tail, None, "{what}");
        assert!(replay.adopted_labels().is_empty(), "{what}");
        assert_eq!(replay.completed.len(), order.len(), "{what}");
        for (label, (data, digest)) in order.iter().zip(&points) {
            assert_eq!(replay.completed.get(label), Some(data), "{what}: {label}");
            assert_eq!(
                replay.metrics.get(label),
                digest.as_ref(),
                "{what}: {label}"
            );
        }
        true
    };
    assert!(reads_as_parsed(&merged, "whole journal"));
    // Of the cuts, only the one that drops the last point's digest is a
    // merged journal.
    let cuts_read = (0..merged.len())
        .filter(|&cut| reads_as_parsed(&merged[..cut], &format!("cut {cut}")))
        .count();
    assert_eq!(cuts_read, 1);
    for byte in 0..merged.len() {
        for bit in 0..8 {
            let mut flipped = merged.clone();
            flipped[byte] ^= 1 << bit;
            reads_as_parsed(&flipped, &format!("byte {byte} bit {bit}"));
        }
    }
}

/// Counter values for the float round trips: signed zeros, subnormals,
/// the extremes of the finite range, then random finite bit patterns.
fn draw_floats(rng: &mut SplitMix64) -> Vec<f64> {
    let mut floats = vec![
        0.0,
        -0.0,
        f64::from_bits(1),
        -f64::from_bits(0x000f_ffff_ffff_ffff),
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        0.1 + 0.2,
    ];
    while floats.len() < 2000 {
        let v = f64::from_bits(rng.next_u64());
        if v.is_finite() {
            floats.push(v);
        }
    }
    floats
}

#[test]
fn drawn_floats_round_trip_bit_for_bit() {
    let mut rng = SplitMix64::new(0xf10a7);
    let floats = draw_floats(&mut rng);

    let counter = |i: usize, total: f64| CounterRow {
        key: format!("k{i}"),
        total,
    };
    let report = BenchReport {
        quick: false,
        benchmarks: vec![BenchRecord {
            name: "floats".to_owned(),
            kind: BenchKind::Micro,
            plan: iter_plan(BenchKind::Micro, false),
            summary: Summary {
                kept: 1,
                median_ns: u64::MAX,
                mad_ns: 0,
                min_ns: 0,
                max_ns: u64::MAX,
            },
            phases: Vec::new(),
            counters: floats
                .iter()
                .enumerate()
                .map(|(i, &v)| counter(i, v))
                .collect(),
        }],
        trajectory: Vec::new(),
    };
    let parsed = BenchReport::parse(&report.to_json()).expect("report parses");
    for (got, want) in parsed.benchmarks[0].counters.iter().zip(&floats) {
        assert_eq!(got.total.to_bits(), want.to_bits(), "{}: {want:?}", got.key);
    }
    assert_eq!(parsed, report);

    // The digest also carries the non-finite values JSON cannot.
    let digested = floats
        .iter()
        .copied()
        .chain([f64::INFINITY, f64::NEG_INFINITY, f64::NAN]);
    let trace = PointTrace {
        path: vec![1],
        label: "floats".to_owned(),
        events: digested
            .clone()
            .enumerate()
            .map(|(ts, value)| Event::Counter {
                phase: None,
                key: format!("k{ts}"),
                value,
                ts: ts as u64,
            })
            .collect(),
    };
    let parsed = PointTrace::parse_digest(&trace.digest()).expect("digest parses");
    assert_eq!(parsed.events.len(), trace.events.len());
    for (event, want) in parsed.events.iter().zip(digested) {
        let Event::Counter { value, .. } = event else {
            panic!("not a counter: {event:?}");
        };
        if want.is_nan() {
            assert!(value.is_nan(), "{value:?}");
        } else {
            assert_eq!(value.to_bits(), want.to_bits(), "{want:?}");
        }
    }
}

#[test]
fn committed_bench_reports_reserialize_byte_for_byte() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    for name in ["BENCH_baseline.json", "BENCH_sweeps.json"] {
        let text = std::fs::read_to_string(format!("{root}/{name}")).expect("committed report");
        let report = BenchReport::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            report.to_json(),
            text,
            "{name} does not re-serialize byte for byte"
        );
    }
}

#[test]
fn single_bit_flips_never_panic_a_parser() {
    let mut rng = SplitMix64::new(0xf11b);
    let journal = journal_bytes("flips", &draw_records(&mut rng, 3));
    flip_every_bit("journal", &journal, |text| {
        let _ = parse_journal(text);
    });

    let trace = PointTrace {
        path: vec![3, 12],
        label: "fig%12|a;b:c\nd".to_owned(),
        events: vec![
            Event::Begin {
                phase: Phase::Compile,
                name: "wse.compile".to_owned(),
                ts: 0,
            },
            Event::Counter {
                phase: Some(Phase::Compile),
                key: "wse.allocated_pes".to_owned(),
                value: 0.1 + 0.2,
                ts: 1,
            },
            Event::End {
                phase: Phase::Compile,
                name: "wse.compile".to_owned(),
                ts: 2,
            },
        ],
    };
    let digest = trace.digest();
    assert_eq!(PointTrace::parse_digest(&digest), Some(trace));
    flip_every_bit("obs digest", digest.as_bytes(), |text| {
        let _ = PointTrace::parse_digest(text);
    });

    let record = render_scenario(Tier::Baby, 1, 0);
    assert!(parse_record(&record).is_some(), "{record}");
    flip_every_bit("gen-v1 record", record.as_bytes(), |text| {
        let _ = parse_record(text);
    });

    let case = |name: &str, kind: BenchKind, total: f64| BenchRecord {
        name: name.to_owned(),
        kind,
        plan: iter_plan(kind, true),
        summary: Summary {
            kept: 5,
            median_ns: 123_456,
            mad_ns: 78,
            min_ns: 120_000,
            max_ns: 130_000,
        },
        phases: vec![PhaseRow {
            phase: "compile".to_owned(),
            spans: 12,
        }],
        counters: vec![CounterRow {
            key: "wse.allocated_pes".to_owned(),
            total,
        }],
    };
    let report = BenchReport {
        quick: true,
        benchmarks: vec![
            case("table1", BenchKind::Experiment, 0.1 + 0.2),
            case("wse_compile_deep", BenchKind::Compile, 1e-300),
        ],
        trajectory: vec![TrajectoryEntry {
            bench: "table1".to_owned(),
            label: "baseline".to_owned(),
            median_ns: 42,
        }],
    };
    let json = report.to_json();
    assert_eq!(BenchReport::parse(&json), Ok(report));
    flip_every_bit("bench report", json.as_bytes(), |text| {
        let _ = BenchReport::parse(text);
    });
}

/// Byte offsets of a `write_object` line's structural bytes: every byte
/// outside a string (`{`, `}`, `:`, `,`) and each string's delimiting
/// quotes. The writer emits no whitespace, so nothing else is outside.
fn structural_offsets(line: &[u8]) -> Vec<usize> {
    let mut out = Vec::new();
    let mut in_string = false;
    let mut escaped = false;
    for (i, &b) in line.iter().enumerate() {
        if !in_string {
            out.push(i);
            in_string = b == b'"';
        } else if escaped {
            escaped = false;
        } else if b == b'\\' {
            escaped = true;
        } else if b == b'"' {
            out.push(i);
            in_string = false;
        }
    }
    out
}

#[test]
fn a_flipped_structural_byte_mid_file_is_reported_as_corruption() {
    for seed in 0..4 {
        let mut rng = SplitMix64::new(0xc0ff_ee00 + seed);
        let records = draw_records(&mut rng, 4);
        let bytes = journal_bytes(&format!("corrupt-{seed}"), &records);
        // Corrupt the second record (line 3): two more records follow it.
        let lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
        let start = lines[0].len() + lines[1].len() + 2;
        let end = start + lines[2].len();
        let structural = structural_offsets(lines[2]);
        let mut flips = 0;
        for &offset in &structural {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[start + offset] ^= 1 << bit;
                let Ok(text) = std::str::from_utf8(&flipped) else {
                    continue;
                };
                let expected = JournalParseError::Corrupt {
                    line: 3,
                    offset: start,
                    text: text[start..end].to_owned(),
                };
                assert_eq!(
                    parse_journal(text).map(|p| p.records),
                    Err(expected),
                    "seed {seed}: byte {} bit {bit} of {:?}",
                    start + offset,
                    &text[start..end]
                );
                flips += 1;
            }
        }
        // 7 of each byte's 8 flips stay ASCII; the eighth is invalid UTF-8.
        assert_eq!(flips, 7 * structural.len());
    }
}
