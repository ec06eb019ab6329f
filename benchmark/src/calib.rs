//! Host speed. A shared VM runs the same code tens of percent faster or
//! slower from one minute to the next, and CPU time moves with wall time,
//! so neither holds still between runs. The benchmark therefore times a
//! fixed kernel of its own right after each operation it measures and
//! scales that operation's time to a reference host: one on which the
//! kernel takes [`REFERENCE_KERNEL_S`]. The kernel is the benchmark's code,
//! not the program's, so a change to the program never moves it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Seconds one kernel takes on the reference host.
pub const REFERENCE_KERNEL_S: f64 = 1e-3;

/// Rounds of one kernel: about a millisecond on a 2 GHz Xeon core.
const ROUNDS: u64 = 7500;

/// One kernel: the kinds of work the program does (floating-point maths,
/// a sort, an ordered map, number formatting) on a few tens of KiB, so
/// it resizes neither the benchmark's resident set nor the caches much.
fn kernel(salt: u64) -> f64 {
    let mut state = salt;
    let mut values = Vec::with_capacity(ROUNDS as usize);
    let mut counts: BTreeMap<u64, u32> = BTreeMap::new();
    let mut text = String::new();
    for _ in 0..ROUNDS {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let x = (z >> 11) as f64 / (1u64 << 53) as f64;
        values.push((1.0 + 3.0 * x).ln() * x.sqrt() / (0.5 + x));
        *counts.entry(z % 251).or_default() += 1;
        if z.is_multiple_of(4) {
            text.clear();
            let _ = write!(text, "{x:.6e}");
        }
    }
    values.sort_by(f64::total_cmp);
    values[values.len() / 2] + counts.len() as f64 + text.len() as f64
}

/// Kernel timings of one run.
#[derive(Default)]
pub struct Calibration {
    kernel_s: Vec<f64>,
}

impl Calibration {
    /// Run `threads` kernels side by side, as many times as it takes for
    /// `at_least_s` seconds to pass (once at the least), and keep each
    /// kernel's time; the program runs on `threads` threads too. Returns
    /// the factor that turns a time measured just before into the time it
    /// would take on the reference host.
    pub fn sample(&mut self, threads: usize, at_least_s: f64) -> f64 {
        let first = self.kernel_s.len();
        let start = Instant::now();
        loop {
            std::thread::scope(|s| {
                let timers: Vec<_> = (0..threads as u64)
                    .map(|t| {
                        s.spawn(move || {
                            let begin = Instant::now();
                            black_box(kernel(black_box(t)));
                            begin.elapsed().as_secs_f64()
                        })
                    })
                    .collect();
                self.kernel_s
                    .extend(timers.into_iter().map(|h| h.join().expect("kernel thread")));
            });
            if start.elapsed().as_secs_f64() >= at_least_s {
                break;
            }
        }
        REFERENCE_KERNEL_S / median(&self.kernel_s[first..])
    }

    /// Median time of every kernel run so far, in seconds.
    #[must_use]
    pub fn kernel_s(&self) -> f64 {
        median(&self.kernel_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sample_scales_by_its_own_kernels() {
        // Five earlier kernels of a second each: a very slow host.
        let mut cal = Calibration {
            kernel_s: vec![1.0; 5],
        };
        let scale = cal.sample(2, 0.0);
        assert_eq!(cal.kernel_s.len(), 7, "one round of two kernels");
        let fresh = median(&cal.kernel_s[5..]);
        assert!(
            fresh < 0.1,
            "a kernel takes about a millisecond, not {fresh} s"
        );
        assert_eq!(scale, REFERENCE_KERNEL_S / fresh);
        assert_eq!(cal.kernel_s(), 1.0, "the run's median keeps every kernel");
    }
}
