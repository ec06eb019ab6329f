//! Kernel placement on the PE grid.
//!
//! The modelled placer follows the Cerebras pipeline layout: kernels are
//! placed as full-height vertical strips, left to right in dataflow order,
//! so that data streams across the wafer and kernels with data dependencies
//! are physically adjacent (Sec. III-A: "kernels with data dependencies are
//! placed physically close to each other").

use serde::{Deserialize, Serialize};

/// One placed kernel region: a full-height strip of the grid.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacedRect {
    /// Kernel name.
    pub name: String,
    /// First column of the strip.
    pub col: u64,
    /// Strip width in columns.
    pub width: u64,
    /// Strip height in rows (the full usable grid height).
    pub rows: u64,
    /// Logical PEs the kernel actually uses inside the strip.
    pub used_pes: u64,
}

/// A complete placement of kernels on the grid.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    /// Placed strips, in dataflow order.
    pub rects: Vec<PlacedRect>,
    /// Grid rows available to the placer.
    pub grid_rows: u64,
    /// Grid columns available to the placer.
    pub grid_cols: u64,
}

impl Placement {
    /// Place `regions` (name, PE count) as adjacent full-height strips.
    ///
    /// Generic over the name type so the compiler's retry loop can pass
    /// borrowed names from a precomputed plan without cloning a `String`
    /// per kernel per attempt.
    ///
    /// Returns `None` when the strips do not fit horizontally.
    #[must_use]
    pub fn strips<S: AsRef<str>>(
        regions: &[(S, u64)],
        grid_rows: u64,
        grid_cols: u64,
    ) -> Option<Self> {
        assert!(grid_rows > 0 && grid_cols > 0, "grid must be non-empty");
        let mut rects = Vec::with_capacity(regions.len());
        let mut col = 0u64;
        for (name, pes) in regions {
            let width = pes.div_ceil(grid_rows).max(1);
            if col + width > grid_cols {
                return None;
            }
            rects.push(PlacedRect {
                name: name.as_ref().to_owned(),
                col,
                width,
                rows: grid_rows,
                used_pes: *pes,
            });
            col += width;
        }
        Some(Self {
            rects,
            grid_rows,
            grid_cols,
        })
    }

    /// Place `regions` as full-height strips while avoiding dead column
    /// intervals (half-open `[start, end)` ranges of failed fabric
    /// columns).
    ///
    /// Strips are packed first-fit into the healthy column runs left to
    /// right, preserving dataflow order; a strip never straddles a dead
    /// interval, so fragmentation can make an otherwise-fitting layout
    /// fail. Returns `None` when the healthy runs cannot host every strip.
    #[must_use]
    pub fn strips_avoiding<S: AsRef<str>>(
        regions: &[(S, u64)],
        grid_rows: u64,
        grid_cols: u64,
        dead_intervals: &[(u64, u64)],
    ) -> Option<Self> {
        assert!(grid_rows > 0 && grid_cols > 0, "grid must be non-empty");
        let runs = healthy_runs(grid_cols, dead_intervals);
        let mut rects = Vec::with_capacity(regions.len());
        let mut run_idx = 0usize;
        let mut col = runs.first()?.0;
        for (name, pes) in regions {
            let width = pes.div_ceil(grid_rows).max(1);
            // Advance to the first healthy run with enough room left.
            loop {
                let (_, run_end) = *runs.get(run_idx)?;
                if col + width <= run_end {
                    break;
                }
                run_idx += 1;
                col = runs.get(run_idx)?.0;
            }
            rects.push(PlacedRect {
                name: name.as_ref().to_owned(),
                col,
                width,
                rows: grid_rows,
                used_pes: *pes,
            });
            col += width;
        }
        Some(Self {
            rects,
            grid_rows,
            grid_cols,
        })
    }

    /// Whether any strip overlaps a dead column interval.
    #[must_use]
    pub fn overlaps_any(&self, dead_intervals: &[(u64, u64)]) -> bool {
        self.rects.iter().any(|r| {
            dead_intervals
                .iter()
                .any(|&(s, e)| r.col < e && r.col + r.width > s)
        })
    }

    /// Total logical PEs in use.
    #[must_use]
    pub fn used_pes(&self) -> u64 {
        self.rects.iter().map(|r| r.used_pes).sum()
    }
}

/// Merge `dead_intervals` and return the complementary healthy column runs
/// `[start, end)` within a `grid_cols`-wide fabric.
#[must_use]
pub fn healthy_runs(grid_cols: u64, dead_intervals: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut dead: Vec<(u64, u64)> = dead_intervals
        .iter()
        .map(|&(s, e)| (s.min(grid_cols), e.min(grid_cols)))
        .filter(|&(s, e)| s < e)
        .collect();
    dead.sort_unstable();
    let mut runs = Vec::new();
    let mut cursor = 0u64;
    for (s, e) in dead {
        if s > cursor {
            runs.push((cursor, s));
        }
        cursor = cursor.max(e);
    }
    if cursor < grid_cols {
        runs.push((cursor, grid_cols));
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Grid area the strips take, padding included.
    fn occupied_area(p: &Placement) -> u64 {
        p.rects.iter().map(|r| r.width * r.rows).sum()
    }

    fn regions(sizes: &[u64]) -> Vec<(String, u64)> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| (format!("k{i}"), s))
            .collect()
    }

    #[test]
    fn strips_fill_left_to_right() {
        let p = Placement::strips(&regions(&[100, 100]), 10, 30).unwrap();
        assert_eq!(p.rects[0].col, 0);
        assert_eq!(p.rects[0].width, 10);
        assert_eq!(p.rects[1].col, 10);
    }

    #[test]
    fn overflow_returns_none() {
        assert!(Placement::strips(&regions(&[200, 200]), 10, 30).is_none());
    }

    #[test]
    fn padding_accounts_rounding() {
        let p = Placement::strips(&regions(&[95]), 10, 30).unwrap();
        assert_eq!(p.rects[0].width, 10);
        assert_eq!(occupied_area(&p) - p.used_pes(), 5);
        assert_eq!(p.used_pes(), 95);
    }

    #[test]
    fn exact_fit_has_no_padding() {
        let p = Placement::strips(&regions(&[100, 50]), 10, 15).unwrap();
        assert_eq!(p.used_pes(), 150);
        assert_eq!(occupied_area(&p), 150);
    }

    #[test]
    fn healthy_runs_merge_and_clamp() {
        let runs = healthy_runs(100, &[(10, 20), (15, 30), (95, 200)]);
        assert_eq!(runs, vec![(0, 10), (30, 95)]);
        assert_eq!(healthy_runs(100, &[]), vec![(0, 100)]);
    }

    #[test]
    fn avoiding_skips_dead_interval() {
        // Two 100-PE strips (10 cols each) around a dead band at cols 5..12.
        let p = Placement::strips_avoiding(&regions(&[100, 100]), 10, 40, &[(5, 12)]).unwrap();
        assert!(!p.overlaps_any(&[(5, 12)]));
        assert_eq!(p.rects[0].col, 12);
        assert_eq!(p.rects[1].col, 22);
    }

    #[test]
    fn avoiding_uses_leading_run_when_it_fits() {
        let p = Placement::strips_avoiding(&regions(&[30, 100]), 10, 40, &[(5, 12)]).unwrap();
        assert_eq!(p.rects[0].col, 0); // 3 columns fit before the dead band
        assert_eq!(p.rects[1].col, 12);
        assert!(!p.overlaps_any(&[(5, 12)]));
    }

    #[test]
    fn avoiding_fails_when_fragmented() {
        // 20-column strip, but the dead band splits the grid into two
        // 15-column runs.
        assert!(Placement::strips_avoiding(&regions(&[200]), 10, 31, &[(15, 16)]).is_none());
    }

    #[test]
    fn avoiding_without_faults_matches_strips() {
        let plain = Placement::strips(&regions(&[100, 50]), 10, 30).unwrap();
        let avoid = Placement::strips_avoiding(&regions(&[100, 50]), 10, 30, &[]).unwrap();
        assert_eq!(plain, avoid);
    }

    #[test]
    fn fully_dead_grid_places_nothing() {
        assert!(Placement::strips_avoiding(&regions(&[10]), 10, 30, &[(0, 30)]).is_none());
    }
}
