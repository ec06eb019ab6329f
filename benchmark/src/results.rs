//! Result files — one set of runs with the provenance that makes two sets
//! comparable — and `compare`, which judges one set against another.

use crate::json::{self, Json};
use crate::metrics::{end_to_end, per_layer, Better, Metric};
use crate::stats::{median, quartiles};
use std::fmt::Write as _;
use std::path::Path;

/// Format tag of a result file.
pub const SCHEMA: &str = "dabench-benchmark-results-v1";

/// Where and how a set of runs was taken.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// Commit of the checkout (`unknown` outside a git checkout).
    pub git_head: String,
    /// `std::thread::available_parallelism` of the host.
    pub nproc: u64,
    /// Modification time of the `dabench` binary measured, Unix seconds.
    pub binary_mtime_s: f64,
    /// First workload seed of the set.
    pub seed: u64,
    /// Seconds each run measured.
    pub seconds: f64,
}

/// One run of one workload (or one traced run).
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Workload name (`layers` for the per-layer metrics of a traced run).
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
    /// Metric values by catalog name.
    pub metrics: Vec<(String, f64)>,
}

/// A result file.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Where and how the runs were taken.
    pub provenance: Provenance,
    /// Every run, in the order taken.
    pub runs: Vec<Run>,
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key)
        .ok_or_else(|| format!("result file: missing `{key}`"))
}

fn number(doc: &Json, key: &str) -> Result<f64, String> {
    field(doc, key)?
        .as_f64()
        .ok_or_else(|| format!("result file: `{key}` is not a number"))
}

fn count(doc: &Json, key: &str) -> Result<u64, String> {
    let x = number(doc, key)?;
    if x >= 0.0 && x.fract() == 0.0 && x <= 9_007_199_254_740_992.0 {
        Ok(x as u64)
    } else {
        Err(format!("result file: `{key}` = {x} is not a whole number"))
    }
}

fn text(doc: &Json, key: &str) -> Result<String, String> {
    field(doc, key)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("result file: `{key}` is not a string"))
}

impl ResultSet {
    /// The file's JSON form.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let p = &self.provenance;
        let runs = self
            .runs
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("workload".into(), Json::Str(r.workload.clone())),
                    ("seed".into(), num(r.seed as f64)),
                    ("attempted".into(), num(r.attempted as f64)),
                    ("failed".into(), num(r.failed as f64)),
                    (
                        "metrics".into(),
                        Json::Obj(
                            r.metrics
                                .iter()
                                .map(|(k, v)| (k.clone(), num(*v)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            (
                "provenance".into(),
                Json::Obj(vec![
                    ("git_head".into(), Json::Str(p.git_head.clone())),
                    ("nproc".into(), num(p.nproc as f64)),
                    ("binary_mtime_s".into(), num(p.binary_mtime_s)),
                    ("seed".into(), num(p.seed as f64)),
                    ("seconds".into(), num(p.seconds)),
                ]),
            ),
            ("runs".into(), Json::Arr(runs)),
        ])
    }

    /// Read back what [`ResultSet::to_json`] wrote.
    ///
    /// # Errors
    ///
    /// A wrong schema tag or a missing or mistyped field.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        if text(doc, "schema")? != SCHEMA {
            return Err(format!("result file: schema is not {SCHEMA}"));
        }
        let p = field(doc, "provenance")?;
        let provenance = Provenance {
            git_head: text(p, "git_head")?,
            nproc: count(p, "nproc")?,
            binary_mtime_s: number(p, "binary_mtime_s")?,
            seed: count(p, "seed")?,
            seconds: number(p, "seconds")?,
        };
        let runs = field(doc, "runs")?
            .as_arr()
            .ok_or("result file: `runs` is not a list")?
            .iter()
            .map(|r| {
                let metrics = field(r, "metrics")?
                    .as_obj()
                    .ok_or("result file: `metrics` is not an object")?
                    .iter()
                    .map(|(k, v)| {
                        v.as_f64()
                            .map(|x| (k.clone(), x))
                            .ok_or_else(|| format!("result file: metric `{k}` is not a number"))
                    })
                    .collect::<Result<_, String>>()?;
                Ok(Run {
                    workload: text(r, "workload")?,
                    seed: count(r, "seed")?,
                    attempted: count(r, "attempted")?,
                    failed: count(r, "failed")?,
                    metrics,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Self { provenance, runs })
    }

    /// Write the file, creating its directory.
    ///
    /// # Errors
    ///
    /// The I/O error, naming the file.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let io = |e: std::io::Error| format!("{}: {e}", path.display());
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(io)?;
        }
        std::fs::write(path, self.to_json().pretty() + "\n").map_err(io)
    }

    /// Read a file written by [`ResultSet::write`].
    ///
    /// # Errors
    ///
    /// I/O, JSON or format errors, naming the file.
    pub fn read(path: &Path) -> Result<Self, String> {
        let body = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        json::parse(&body)
            .and_then(|doc| Self::from_json(&doc))
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter(|r| r.workload == workload)
            .flat_map(|r| {
                r.metrics
                    .iter()
                    .filter(|(k, _)| k == metric)
                    .map(|(_, v)| *v)
            })
            .collect()
    }
}

/// How a metric of the new set compares with the base set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows (or better in every run).
    Ok,
    /// The median worsened by more than the bound.
    Worse,
    /// The base runs spread wider than the bound, so a change within the
    /// spread cannot be told from noise.
    Unresolved,
    /// A per-layer metric: reported, not gated.
    Ungated,
    /// The base set has the metric and the new set does not: it fails,
    /// as a worse one does.
    Missing,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Ungated => "-",
            Verdict::Missing => "missing",
        }
    }

    /// Whether the verdict fails the comparison.
    #[must_use]
    pub fn fails(self) -> bool {
        matches!(self, Verdict::Worse | Verdict::Missing)
    }
}

/// How much worse `to` is than `from`: a share of `from`, or the plain
/// difference when `from` is 0. Negative means better.
fn worsening(from: f64, to: f64, better: Better) -> f64 {
    let d = match better {
        Better::Lower => to - from,
        Better::Higher => from - to,
    };
    if from == 0.0 {
        d
    } else {
        d / from.abs()
    }
}

/// Judge `new` against `base`. A base spread (interquartile distance over
/// the median, or the bare distance when the median is 0) wider than the
/// bound leaves the metric unresolved unless every new run reads better
/// than every base run; otherwise the medians decide.
#[must_use]
pub fn verdict(base: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    let [q1, mid, q3] = quartiles(base);
    let spread = if mid == 0.0 {
        q3 - q1
    } else {
        (q3 - q1) / mid.abs()
    };
    if spread > bound {
        let all_better = base
            .iter()
            .all(|&a| new.iter().all(|&b| worsening(a, b, better) < 0.0));
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(median(base), median(new), better) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// One workload × metric line of `compare`.
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// The metric.
    pub metric: &'static Metric,
    /// Base quartiles.
    pub base: [f64; 3],
    /// New quartiles.
    pub new: [f64; 3],
    /// The verdict.
    pub verdict: Verdict,
}

/// Compare every workload × metric of the base set with the new set. A
/// pair the new set lacks is [`Verdict::Missing`].
///
/// # Errors
///
/// Sets taken with another `nproc` or run length, whose numbers do not
/// compare.
pub fn compare(base: &ResultSet, new: &ResultSet) -> Result<Vec<Row>, String> {
    let (b, n) = (&base.provenance, &new.provenance);
    if b.nproc != n.nproc || b.seconds != n.seconds {
        return Err(format!(
            "the sets do not compare: base has nproc {} and {} s runs, new has nproc {} and {} s runs",
            b.nproc, b.seconds, n.nproc, n.seconds
        ));
    }
    let mut workloads: Vec<&str> = Vec::new();
    for r in &base.runs {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    let mut rows = Vec::new();
    for w in workloads {
        let mut names: Vec<&str> = Vec::new();
        for r in base.runs.iter().filter(|r| r.workload == w) {
            for (k, _) in &r.metrics {
                if !names.contains(&k.as_str()) {
                    names.push(k);
                }
            }
        }
        for name in names {
            let Some(metric) = end_to_end(name).or_else(|| per_layer(name)) else {
                continue;
            };
            let (b, n) = (base.values(w, name), new.values(w, name));
            let verdict = if n.is_empty() {
                Verdict::Missing
            } else {
                metric.bound.map_or(Verdict::Ungated, |bound| {
                    verdict(&b, &n, metric.better, bound)
                })
            };
            rows.push(Row {
                workload: w.to_owned(),
                metric,
                base: quartiles(&b),
                new: quartiles(&n),
                verdict,
            });
        }
    }
    Ok(rows)
}

/// Four significant digits, without exponent notation.
fn sig(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let digits = (3 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{v:.digits$}")
}

/// The `compare` table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<20} {:<30} {:<6} {:>30} {:>30} {:>8} {:>6}  verdict\n",
        "workload",
        "metric",
        "unit",
        "base median [q1, q3]",
        "new median [q1, q3]",
        "change",
        "bound"
    );
    for r in rows {
        let m = r.metric;
        let quart = |q: [f64; 3]| format!("{} [{}, {}]", sig(q[1]), sig(q[0]), sig(q[2]));
        let (new, change) = if r.verdict == Verdict::Missing {
            ("-".to_owned(), "-".to_owned())
        } else {
            (quart(r.new), change_of(r.base[1], r.new[1]))
        };
        let bound = m
            .bound
            .map_or("-".to_owned(), |b| format!("{:.0}%", b * 100.0));
        let _ = writeln!(
            out,
            "{:<20} {:<30} {:<6} {:>30} {:>30} {:>8} {:>6}  {}",
            r.workload,
            m.name,
            m.unit,
            quart(r.base),
            new,
            change,
            bound,
            r.verdict.as_str()
        );
    }
    out
}

/// The change of a median, in percent, or as a plain difference from 0.
fn change_of(base: f64, new: f64) -> String {
    if base == 0.0 {
        let d = new - base;
        format!("{}{}", if d < 0.0 { "" } else { "+" }, sig(d))
    } else {
        format!("{:+.1}%", (new / base - 1.0) * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn provenance(nproc: u64, seconds: f64) -> Provenance {
        Provenance {
            git_head: "0123abcd".into(),
            nproc,
            binary_mtime_s: 1_760_000_000.123_456,
            seed: 1,
            seconds,
        }
    }

    fn run(workload: &str, seed: u64, metrics: &[(&str, f64)]) -> Run {
        Run {
            workload: workload.into(),
            seed,
            attempted: 10,
            failed: 0,
            metrics: metrics.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
        }
    }

    #[test]
    fn result_files_round_trip() {
        let set = ResultSet {
            provenance: provenance(2, 10.0),
            runs: vec![Run {
                workload: "paper-all".into(),
                seed: 1,
                attempted: 412,
                failed: 0,
                metrics: vec![
                    ("setup_s".into(), 0.025_123_456_789),
                    ("throughput_ops_per_s".into(), 41.234_567_891_234),
                    ("failed_ratio".into(), 0.0),
                ],
            }],
        };
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}", std::process::id()));
        let path = dir.join("set.json");
        set.write(&path).unwrap();
        let back = ResultSet::read(&path);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(back, Ok(set.clone()));
        assert_eq!(ResultSet::from_json(&set.to_json()), Ok(set));
        assert!(ResultSet::from_json(&Json::Obj(vec![])).is_err());
    }

    #[test]
    fn verdicts_on_synthetic_sets() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Within the 10% bound, either way.
        assert_eq!(
            verdict(&base, &[104.0, 105.0, 103.0], Better::Lower, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&base, &[80.0, 82.0, 81.0], Better::Lower, 0.10),
            Verdict::Ok
        );
        // 20% slower.
        assert_eq!(
            verdict(&base, &[120.0, 121.0, 119.0], Better::Lower, 0.10),
            Verdict::Worse
        );
        // 20% lower throughput.
        assert_eq!(
            verdict(&base, &[80.0, 79.0, 81.0], Better::Higher, 0.10),
            Verdict::Worse
        );
        // The base spreads wider than the bound: unresolved, unless every
        // new run beats every base run.
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(
            verdict(&noisy, &[150.0, 90.0], Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &[40.0, 50.0], Better::Lower, 0.10),
            Verdict::Ok
        );
        // A zero median is judged on the plain difference.
        assert_eq!(
            verdict(&[0.0; 5], &[0.0, 0.0], Better::Lower, 0.0),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&[0.0; 5], &[0.01, 0.02], Better::Lower, 0.0),
            Verdict::Worse
        );
    }

    #[test]
    fn compare_fails_what_the_new_set_lacks() {
        let both = [("setup_s", 1.0), ("throughput_ops_per_s", 50.0)];
        let base = ResultSet {
            provenance: provenance(2, 10.0),
            runs: (1..=5)
                .flat_map(|s| [run("paper-all", s, &both), run("gen-cosmic", s, &both)])
                .collect(),
        };
        let verdicts = |new: &ResultSet| -> Vec<(String, &str, Verdict)> {
            compare(&base, new)
                .unwrap()
                .iter()
                .map(|r| (r.workload.clone(), r.metric.name, r.verdict))
                .collect()
        };
        assert!(verdicts(&base).iter().all(|(_, _, v)| *v == Verdict::Ok));

        // One workload only, as a partial run would leave it, and one
        // metric gone from the other.
        let partial = ResultSet {
            provenance: provenance(2, 10.0),
            runs: (1..=5).map(|s| run("paper-all", s, &both[..1])).collect(),
        };
        let got = verdicts(&partial);
        assert_eq!(got.len(), 4);
        assert_eq!(got[0], ("paper-all".into(), "setup_s", Verdict::Ok));
        for (w, m, v) in &got[1..] {
            assert_eq!(*v, Verdict::Missing, "{w} {m}");
            assert!(v.fails());
        }
        assert!(render(&compare(&base, &partial).unwrap()).contains("missing"));

        // Another host shape or run length does not compare at all.
        for (nproc, seconds) in [(4, 10.0), (2, 20.0)] {
            let other = ResultSet {
                provenance: provenance(nproc, seconds),
                runs: base.runs.clone(),
            };
            assert!(
                compare(&base, &other).is_err(),
                "nproc {nproc}, {seconds} s"
            );
        }
    }
}
