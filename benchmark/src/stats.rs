//! Order statistics shared by the end-to-end metrics, the per-layer
//! metrics and `compare`.

/// Fewest samples a tail percentile needs beyond it before it is reported:
/// a timing is its median plus the highest percentile with at least ten
/// samples past it.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for an even count); NaN when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let d = sorted(values);
    let n = d.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => d[n / 2],
        _ => (d[n / 2 - 1] + d[n / 2]) / 2.0,
    }
}

/// The three quartile cut points by Python's
/// `statistics.quantiles(values, n=4)` (its default, exclusive method), so
/// the spreads printed here match the ones an external check computes.
/// One value gives that value three times; none gives NaN.
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let d = sorted(values);
    let n = d.len();
    if n < 2 {
        return [d.first().copied().unwrap_or(f64::NAN); 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
    }
    out
}

/// Nearest-rank percentile `q` (in `(0, 1)`), refused when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
///
/// # Errors
///
/// Names the percentile and how many samples lie beyond it.
pub fn percentile(values: &[f64], q: f64) -> Result<f64, String> {
    let d = sorted(values);
    let rank = ((q * d.len() as f64).ceil() as usize).max(1);
    let beyond = d.len().saturating_sub(rank);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{:.0} of {} samples has {beyond} beyond it; at least {MIN_BEYOND} are needed",
            q * 100.0,
            d.len()
        ));
    }
    Ok(d[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Ok(90.0), "10 samples beyond p90");
        let ninety_nine = &hundred[..99];
        assert!(
            percentile(ninety_nine, 0.9).is_err(),
            "9 samples beyond p90"
        );
        assert!(percentile(&hundred, 0.95).is_err(), "5 samples beyond p95");
        assert!(percentile(&[], 0.5).is_err());
        assert_eq!(percentile(&hundred[..20], 0.5), Ok(10.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4)
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
