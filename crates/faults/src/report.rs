//! The resilience report: what a fault sweep found.

use crate::plan::FaultPlan;

/// Outcome of one sweep point (one fault fraction).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Dead-fabric fraction injected.
    pub fraction: f64,
    /// The concrete plan that was applied.
    pub plan: FaultPlan,
    /// Degraded / healthy throughput, when the remap succeeded.
    pub retention: Option<f64>,
    /// Degraded throughput, tokens/second, when the remap succeeded.
    pub tokens_per_s: Option<f64>,
    /// One-time recovery cost (remap + lost work), seconds; `None` when
    /// the remap failed and no recovery happened at all.
    pub recover_s: Option<f64>,
    /// Why the remap failed, when it did.
    pub error: Option<String>,
}

impl SweepPoint {
    /// Whether the platform kept running at this fault level.
    #[must_use]
    pub fn remapped(&self) -> bool {
        self.error.is_none()
    }
}

/// A full resilience sweep over fault fractions for one platform.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceReport {
    /// Platform name (from [`dabench_core::Platform::name`]).
    pub platform: String,
    /// Seed the plans were drawn from.
    pub seed: u64,
    /// One point per swept fault fraction, in sweep order.
    pub points: Vec<SweepPoint>,
}

impl ResilienceReport {
    /// Fraction of sweep points whose remap succeeded (`0..=1`).
    #[must_use]
    pub fn remap_success_rate(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().filter(|p| p.remapped()).count() as f64 / self.points.len() as f64
    }

    /// Worst throughput retention over the successful points.
    #[must_use]
    pub fn worst_retention(&self) -> Option<f64> {
        self.points
            .iter()
            .filter_map(|p| p.retention)
            .fold(None, |acc, r| Some(acc.map_or(r, |a: f64| a.min(r))))
    }

    /// Mean time-to-recover over the successful faulted points, seconds;
    /// `None` when no faulted point recovered (distinct from an actual
    /// instant recovery of `Some(0.0)`, which a healthy remap can report).
    #[must_use]
    pub fn mean_time_to_recover_s(&self) -> Option<f64> {
        let faulted: Vec<f64> = self
            .points
            .iter()
            .filter(|p| p.remapped() && !p.plan.fault_set().is_empty())
            .filter_map(|p| p.recover_s)
            .collect();
        if faulted.is_empty() {
            None
        } else {
            Some(faulted.iter().sum::<f64>() / faulted.len() as f64)
        }
    }
}

/// Render a report as a fixed-width, byte-deterministic text table.
#[must_use]
pub fn render_report(report: &ResilienceReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Resilience: {} (seed {})\n",
        report.platform, report.seed
    ));
    out.push_str(&format!(
        "{:>7}  {:>9}  {:>12}  {:>10}  {:<8}  faults\n",
        "dead%", "retention", "tokens/s", "recover_s", "status"
    ));
    for p in &report.points {
        let retention = p
            .retention
            .map_or_else(|| "-".to_owned(), |r| format!("{r:.3}"));
        let tokens = p
            .tokens_per_s
            .map_or_else(|| "-".to_owned(), |t| format!("{t:.1}"));
        let recover = p
            .recover_s
            .map_or_else(|| "-".to_owned(), |s| format!("{s:.2}"));
        let status = if p.remapped() { "ok" } else { "FAILED" };
        let labels: Vec<&str> = p.plan.faults.iter().map(|f| f.label.as_str()).collect();
        out.push_str(&format!(
            "{:>7.1}  {retention:>9}  {tokens:>12}  {recover:>10}  {status:<8}  {}\n",
            p.fraction * 100.0,
            if labels.is_empty() {
                "(none)".to_owned()
            } else {
                labels.join(" ")
            },
        ));
        if let Some(e) = &p.error {
            out.push_str(&format!("         ^ {e}\n"));
        }
    }
    out.push_str(&format!(
        "remap success rate: {}/{} ({:.0}%)",
        report.points.iter().filter(|p| p.remapped()).count(),
        report.points.len(),
        report.remap_success_rate() * 100.0
    ));
    if let Some(w) = report.worst_retention() {
        out.push_str(&format!("   worst retention: {w:.3}"));
    }
    out.push_str(&format!(
        "   mean time-to-recover: {}\n",
        report
            .mean_time_to_recover_s()
            .map_or_else(|| "-".to_owned(), |m| format!("{m:.1} s"))
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;
    use crate::spec::PlanSpec;
    use dabench_core::FaultKind;

    fn point(fraction: f64, retention: Option<f64>, error: Option<String>) -> SweepPoint {
        SweepPoint {
            fraction,
            plan: FaultPlan::generate(
                FaultKind::WaferGrid,
                &PlanSpec::default().with_dead_fraction(fraction),
                1,
            ),
            retention,
            tokens_per_s: retention.map(|r| r * 1000.0),
            recover_s: if error.is_some() {
                None
            } else if fraction > 0.0 {
                Some(40.0)
            } else {
                Some(0.0)
            },
            error,
        }
    }

    fn report() -> ResilienceReport {
        ResilienceReport {
            platform: "cerebras-wse2".to_owned(),
            seed: 42,
            points: vec![
                point(0.0, Some(1.0), None),
                point(0.05, Some(0.93), None),
                point(0.5, None, Some("device fault".to_owned())),
            ],
        }
    }

    #[test]
    fn success_rate_counts_remaps() {
        let r = report();
        assert!((r.remap_success_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.worst_retention(), Some(0.93));
    }

    #[test]
    fn mean_recover_skips_healthy_points() {
        // Only the 5% point is faulted AND remapped.
        assert!((report().mean_time_to_recover_s().unwrap() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn mean_recover_is_none_when_nothing_recovered() {
        // Healthy point + failed remap: no faulted point recovered, which
        // must be distinguishable from instant recovery.
        let r = ResilienceReport {
            platform: "cerebras-wse2".to_owned(),
            seed: 42,
            points: vec![
                point(0.0, Some(1.0), None),
                point(0.5, None, Some("device fault".to_owned())),
            ],
        };
        assert_eq!(r.mean_time_to_recover_s(), None);
        assert!(
            render_report(&r).contains("mean time-to-recover: -"),
            "{}",
            render_report(&r)
        );
    }

    #[test]
    fn render_is_deterministic_and_complete() {
        let a = render_report(&report());
        let b = render_report(&report());
        assert_eq!(a, b);
        assert!(a.contains("cerebras-wse2"));
        assert!(a.contains("FAILED"));
        assert!(a.contains("device fault"));
        assert!(a.contains("remap success rate: 2/3"));
    }

    #[test]
    fn failed_points_render_no_recovery_time() {
        let rendered = render_report(&report());
        let failed_line = rendered
            .lines()
            .find(|l| l.contains("FAILED"))
            .expect("failed point rendered");
        // A failed remap has no recovery time — the column shows "-",
        // not a fabricated 0.00 seconds.
        assert!(failed_line.contains("  -  "), "{failed_line}");
        assert!(!failed_line.contains("0.00"), "{failed_line}");
    }

    #[test]
    fn mean_recover_ignores_failed_points() {
        let mut r = report();
        // A failed point must not drag the mean toward zero even if it
        // carries a (bogus) recover value through some other path.
        r.points[2].recover_s = None;
        assert!((r.mean_time_to_recover_s().unwrap() - 40.0).abs() < 1e-12);
    }
}
