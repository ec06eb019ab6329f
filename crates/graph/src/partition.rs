//! Contiguous partitioning of a weighted sequence.
//!
//! The IPU compiler groups decoder layers into *pipeline stages*
//! (`dabench_ipu::pipeline`): it splits the layers' weights into a given
//! number of contiguous groups with the lightest heaviest group
//! ([`balanced_contiguous`]). [`bottleneck`] is that heaviest group's
//! weight, the oracle the partition's tests check against.

use serde::{Deserialize, Serialize};

/// A contiguous partition of `0..n` into groups, stored as group boundaries.
///
/// # Example
///
/// ```
/// use dabench_graph::partition::Partition;
/// let p = Partition::from_sizes(&[2, 3]).unwrap();
/// assert_eq!(p.groups().collect::<Vec<_>>(), vec![(0, 2), (2, 5)]);
/// assert_eq!(p.len(), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    /// Exclusive end index of each group; the last entry equals `n`.
    ends: Vec<usize>,
}

impl Partition {
    /// Build a partition from per-group sizes.
    ///
    /// Returns `None` if any size is zero.
    #[must_use]
    pub fn from_sizes(sizes: &[usize]) -> Option<Self> {
        if sizes.contains(&0) {
            return None;
        }
        let mut ends = Vec::with_capacity(sizes.len());
        let mut acc = 0;
        for &s in sizes {
            acc += s;
            ends.push(acc);
        }
        Some(Self { ends })
    }

    /// Number of groups.
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.ends.len()
    }

    /// Total number of items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ends.last().copied().unwrap_or(0)
    }

    /// Whether the partition covers no items.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate over `(start, end)` half-open ranges of each group.
    pub fn groups(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.ends.iter().scan(0usize, |start, &end| {
            let s = *start;
            *start = end;
            Some((s, end))
        })
    }

    /// Sizes of each group.
    #[must_use]
    pub fn sizes(&self) -> Vec<usize> {
        self.groups().map(|(s, e)| e - s).collect()
    }
}

/// Split `weights` into exactly `k` contiguous groups minimizing the maximum
/// group weight (classic linear-partition problem, solved by parametric
/// search over the bottleneck value).
///
/// Returns `None` when `k == 0` or `k > weights.len()`.
///
/// # Example
///
/// ```
/// use dabench_graph::partition::balanced_contiguous;
/// let p = balanced_contiguous(&[1.0, 1.0, 1.0, 9.0], 2).unwrap();
/// // Best split isolates the heavy item.
/// assert_eq!(p.sizes(), vec![3, 1]);
/// ```
#[must_use]
pub fn balanced_contiguous(weights: &[f64], k: usize) -> Option<Partition> {
    let n = weights.len();
    if k == 0 || k > n {
        return None;
    }
    let total: f64 = weights.iter().sum();
    let max_w = weights.iter().fold(0.0f64, |a, &b| a.max(b));
    let (mut lo, mut hi) = (max_w, total);
    // Count groups needed if no group may exceed `cap` (greedy is optimal
    // for the feasibility question).
    let groups_needed = |cap: f64| -> usize {
        let mut groups = 1;
        let mut acc = 0.0;
        for &w in weights {
            if acc + w > cap {
                groups += 1;
                acc = w;
            } else {
                acc += w;
            }
        }
        groups
    };
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if groups_needed(mid) <= k {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    // Materialize a partition at bottleneck `hi` (greedy emits at most k
    // groups because the feasibility check passed at this cap), then split
    // the largest groups until exactly k remain.
    let mut sizes = Vec::with_capacity(k);
    let mut acc = 0.0;
    let mut count = 0usize;
    for &w in weights {
        if acc + w > hi * (1.0 + 1e-9) && count > 0 {
            sizes.push(count);
            acc = w;
            count = 1;
        } else {
            acc += w;
            count += 1;
        }
    }
    sizes.push(count);
    while sizes.len() < k {
        // Degenerate: split the largest group of size > 1.
        let (idx, _) = sizes
            .iter()
            .enumerate()
            .filter(|(_, &s)| s > 1)
            .max_by_key(|(_, &s)| s)?;
        sizes[idx] -= 1;
        sizes.insert(idx + 1, 1);
    }
    Partition::from_sizes(&sizes)
}

/// Maximum group weight of a partition over `weights`.
#[must_use]
pub fn bottleneck(p: &Partition, weights: &[f64]) -> f64 {
    p.groups()
        .map(|(s, e)| weights[s..e].iter().sum::<f64>())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_sizes_rejects_zero() {
        assert!(Partition::from_sizes(&[1, 0, 2]).is_none());
    }

    #[test]
    fn balanced_uniform_is_even() {
        let w = vec![1.0; 12];
        let p = balanced_contiguous(&w, 4).unwrap();
        assert_eq!(p.sizes(), vec![3, 3, 3, 3]);
    }

    #[test]
    fn balanced_respects_k() {
        let w = vec![5.0, 1.0, 1.0, 1.0, 1.0, 5.0];
        let p = balanced_contiguous(&w, 3).unwrap();
        assert_eq!(p.group_count(), 3);
        assert_eq!(p.len(), 6);
        assert!(bottleneck(&p, &w) <= 7.0 + 1e-9);
    }

    #[test]
    fn balanced_k_equals_n() {
        let w = vec![2.0, 4.0, 8.0];
        let p = balanced_contiguous(&w, 3).unwrap();
        assert_eq!(p.sizes(), vec![1, 1, 1]);
    }

    #[test]
    fn balanced_invalid_k() {
        assert!(balanced_contiguous(&[1.0], 0).is_none());
        assert!(balanced_contiguous(&[1.0], 2).is_none());
    }

    #[test]
    fn bottleneck_is_the_heaviest_group() {
        let w = [4.0, 4.0, 4.0, 4.0, 4.0];
        let p = Partition::from_sizes(&[2, 2, 1]).unwrap();
        assert!((bottleneck(&p, &w) - 8.0).abs() < 1e-12);
    }
}
