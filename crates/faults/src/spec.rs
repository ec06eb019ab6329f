//! The `--plan` specification: how much of each fault class to inject.
//!
//! A [`PlanSpec`] is the *intensity* of an experiment (fractions and
//! counts); the seeded generator in [`crate::plan`] turns it into concrete
//! fault coordinates. The textual form is a comma-separated key=value
//! list, e.g. `dead=0.05,link=0.9,stalls=2,drop=1`.
//!
//! Every construction path — the builder methods and the [`FromStr`]
//! parser — funnels through [`PlanSpec::validate`], so a spec holding a
//! NaN or out-of-range fraction cannot be smuggled into a sweep.

use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// Why a [`PlanSpec`] is invalid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanSpecError {
    /// A fractional field is NaN or infinite.
    NotFinite {
        /// Field name (`dead` or `link`).
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A fractional field is outside `0..=1`.
    OutOfRange {
        /// Field name (`dead` or `link`).
        field: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for PlanSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanSpecError::NotFinite { field, value } => {
                write!(f, "{field}: {value} is not a finite number")
            }
            PlanSpecError::OutOfRange { field, value } => {
                write!(f, "{field}: {value} outside 0..=1")
            }
        }
    }
}

impl Error for PlanSpecError {}

/// Fault intensities for one experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanSpec {
    /// Fraction of the compute fabric permanently dead (`0..=1`): WSE PE
    /// area, RDU PCUs/PMUs, IPU tiles.
    pub dead_fraction: f64,
    /// Surviving fraction of interconnect/DDR bandwidth (`0..=1`, `1.0`
    /// means healthy links).
    pub link_retained: f64,
    /// Number of transient task stalls to inject.
    pub transient_stalls: u32,
    /// Whole devices dropped (IPUs from the BSP pipeline; RDU tiles).
    pub dropped_devices: u32,
}

impl PlanSpec {
    /// Check every invariant: fractional fields must be finite and in
    /// `0..=1` (counts are unsigned and always valid).
    ///
    /// # Errors
    ///
    /// The first violated invariant, as a structured [`PlanSpecError`].
    pub fn validate(&self) -> Result<(), PlanSpecError> {
        for (field, value) in [("dead", self.dead_fraction), ("link", self.link_retained)] {
            if !value.is_finite() {
                return Err(PlanSpecError::NotFinite { field, value });
            }
            if !(0.0..=1.0).contains(&value) {
                return Err(PlanSpecError::OutOfRange { field, value });
            }
        }
        Ok(())
    }

    /// Copy of the spec with a different dead-fabric fraction, rejecting
    /// NaN and out-of-range values.
    ///
    /// # Errors
    ///
    /// [`PlanSpecError`] when `fraction` is not a finite value in `0..=1`.
    pub fn try_with_dead_fraction(mut self, fraction: f64) -> Result<Self, PlanSpecError> {
        self.dead_fraction = fraction;
        self.validate()?;
        Ok(self)
    }

    /// Copy of the spec with a different dead-fabric fraction (used by
    /// sweeps, whose fractions are trusted constants).
    ///
    /// # Panics
    ///
    /// Panics when `fraction` is NaN or outside `0..=1` — an invalid
    /// fraction silently accepted here would skew a whole sweep; use
    /// [`PlanSpec::try_with_dead_fraction`] for untrusted input.
    #[must_use]
    pub fn with_dead_fraction(self, fraction: f64) -> Self {
        match self.try_with_dead_fraction(fraction) {
            Ok(spec) => spec,
            Err(e) => panic!("with_dead_fraction: {e}"),
        }
    }

    /// Build a spec from the generator's sampled [`FaultIntensity`](dabench_core::FaultIntensity)
    /// (`dabench_core::gen`) — core cannot depend on this crate, so the
    /// sampler carries plain intensities and this bridge re-validates
    /// them on the way into a concrete fault plan.
    ///
    /// # Errors
    ///
    /// [`PlanSpecError`] when the sampled fractions are out of range —
    /// impossible for tier-menu draws, but the bridge must not trust its
    /// input any more than the CLI parser does.
    pub fn from_intensity(
        intensity: &dabench_core::gen::FaultIntensity,
    ) -> Result<Self, PlanSpecError> {
        let spec = Self {
            dead_fraction: intensity.dead_fraction,
            link_retained: intensity.link_retained,
            transient_stalls: intensity.transient_stalls,
            dropped_devices: intensity.dropped_devices,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Whether the spec injects no faults at all.
    #[must_use]
    pub fn is_healthy(&self) -> bool {
        self.dead_fraction == 0.0
            && self.link_retained == 1.0
            && self.transient_stalls == 0
            && self.dropped_devices == 0
    }
}

impl Default for PlanSpec {
    /// The acceptance-test default: 5% dead fabric, everything else
    /// healthy.
    fn default() -> Self {
        Self {
            dead_fraction: 0.05,
            link_retained: 1.0,
            transient_stalls: 0,
            dropped_devices: 0,
        }
    }
}

impl FromStr for PlanSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut spec = Self::default();
        for clause in s.split(',').filter(|c| !c.trim().is_empty()) {
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("`{clause}`: expected key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            let number = |key: &str| -> Result<f64, String> {
                value
                    .parse()
                    .map_err(|e| format!("{key}: not a number ({e})"))
            };
            match key {
                "dead" => spec.dead_fraction = number(key)?,
                "link" => spec.link_retained = number(key)?,
                "stalls" => {
                    spec.transient_stalls = value.parse().map_err(|e| format!("stalls: {e}"))?;
                }
                "drop" => {
                    spec.dropped_devices = value.parse().map_err(|e| format!("drop: {e}"))?;
                }
                other => {
                    return Err(format!(
                        "unknown plan key `{other}` (expected dead, link, stalls or drop)"
                    ))
                }
            }
        }
        spec.validate().map_err(|e| e.to_string())?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_five_percent_dead() {
        let s = PlanSpec::default();
        assert!((s.dead_fraction - 0.05).abs() < 1e-12);
        assert_eq!(s.link_retained, 1.0);
        assert!(!s.is_healthy());
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn parses_full_clause_list() {
        let s: PlanSpec = "dead=0.1, link=0.8, stalls=3, drop=2".parse().unwrap();
        assert!((s.dead_fraction - 0.1).abs() < 1e-12);
        assert!((s.link_retained - 0.8).abs() < 1e-12);
        assert_eq!(s.transient_stalls, 3);
        assert_eq!(s.dropped_devices, 2);
    }

    #[test]
    fn empty_string_is_default() {
        assert_eq!("".parse::<PlanSpec>().unwrap(), PlanSpec::default());
    }

    #[test]
    fn rejects_bad_input() {
        assert!("dead=1.5".parse::<PlanSpec>().is_err());
        assert!("dead".parse::<PlanSpec>().is_err());
        assert!("banana=1".parse::<PlanSpec>().is_err());
        assert!("stalls=-1".parse::<PlanSpec>().is_err());
    }

    #[test]
    fn parser_rejects_nan_and_infinity() {
        // "NaN" and "inf" parse as f64, so the range check alone is not
        // enough — validate() must catch them with a structured error.
        for bad in ["dead=NaN", "dead=inf", "link=-inf", "link=NaN"] {
            let err = bad.parse::<PlanSpec>().unwrap_err();
            assert!(
                err.contains("not a finite number") || err.contains("outside"),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn builder_and_parser_share_validation() {
        let nan = PlanSpec::default().try_with_dead_fraction(f64::NAN);
        assert!(matches!(
            nan,
            Err(PlanSpecError::NotFinite { field: "dead", .. })
        ));
        let out = PlanSpec::default().try_with_dead_fraction(1.5);
        assert_eq!(
            out,
            Err(PlanSpecError::OutOfRange {
                field: "dead",
                value: 1.5
            })
        );
        assert!(PlanSpec::default().try_with_dead_fraction(0.2).is_ok());
    }

    #[test]
    #[should_panic(expected = "with_dead_fraction")]
    fn panicking_builder_rejects_nan() {
        let _ = PlanSpec::default().with_dead_fraction(f64::NAN);
    }

    #[test]
    fn validate_reports_link_field_too() {
        let s = PlanSpec {
            link_retained: f64::INFINITY,
            ..PlanSpec::default()
        };
        assert!(matches!(
            s.validate(),
            Err(PlanSpecError::NotFinite { field: "link", .. })
        ));
        let s = PlanSpec {
            link_retained: -0.1,
            ..PlanSpec::default()
        };
        assert!(matches!(
            s.validate(),
            Err(PlanSpecError::OutOfRange { field: "link", .. })
        ));
    }

    #[test]
    fn intensity_bridge_round_trips_and_validates() {
        let healthy = dabench_core::gen::FaultIntensity::healthy();
        let spec = PlanSpec::from_intensity(&healthy).unwrap();
        assert!(spec.is_healthy());

        let hot = dabench_core::gen::FaultIntensity {
            dead_fraction: 0.2,
            link_retained: 0.6,
            transient_stalls: 4,
            dropped_devices: 2,
        };
        let spec = PlanSpec::from_intensity(&hot).unwrap();
        assert!((spec.dead_fraction - 0.2).abs() < 1e-12);
        assert!((spec.link_retained - 0.6).abs() < 1e-12);
        assert_eq!(spec.transient_stalls, 4);
        assert_eq!(spec.dropped_devices, 2);

        let bad = dabench_core::gen::FaultIntensity {
            dead_fraction: 1.5,
            ..healthy
        };
        assert!(PlanSpec::from_intensity(&bad).is_err());
    }

    #[test]
    fn healthy_detection() {
        let s: PlanSpec = "dead=0".parse().unwrap();
        assert!(s.is_healthy());
        assert!(!"dead=0,stalls=1".parse::<PlanSpec>().unwrap().is_healthy());
    }
}
