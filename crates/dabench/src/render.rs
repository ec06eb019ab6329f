//! Plain-text table rendering in the paper's row/series layout.

use std::fmt::{self, Write as _};
use std::ops::Range;

/// A simple aligned ASCII table.
///
/// The data cells live in one buffer, each ending at a recorded offset,
/// so a table of any size holds three allocations however many cells it
/// has. [`Table::add_row_with`] formats cells straight into that buffer.
///
/// # Example
///
/// ```
/// use dabench::render::Table;
///
/// let mut t = Table::new("Demo");
/// t.set_headers(["x", "y"]);
/// t.add_row(["1", "2.5"]);
/// t.add_row_with(|row| {
///     row.cell(2).cell(format_args!("{:.1}", 3.25));
/// });
/// let s = t.to_string();
/// assert!(s.contains("Demo"));
/// assert!(s.contains("| 2 | 3.2 |"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    /// Every data cell's text, back to back.
    cells: String,
    /// The end offset in `cells` of each data cell, in order.
    cell_ends: Vec<usize>,
    /// The end index in `cell_ends` of each data row, in order.
    row_ends: Vec<usize>,
}

/// The row writer of [`Table::add_row_with`].
pub struct Row<'a>(&'a mut Table);

impl Row<'_> {
    /// Append a cell: `value` as `Display` formats it, written into the
    /// table's cell buffer.
    pub fn cell(&mut self, value: impl fmt::Display) -> &mut Self {
        let table = &mut *self.0;
        // Writing into a `String` cannot fail.
        let _ = write!(table.cells, "{value}");
        table.cell_ends.push(table.cells.len());
        self
    }
}

impl Table {
    /// Create an empty table with a title.
    #[must_use]
    pub fn new(title: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            ..Self::default()
        }
    }

    /// Set the column headers.
    pub fn set_headers<I, S>(&mut self, headers: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.headers = headers.into_iter().map(Into::into).collect();
    }

    /// Append a row (short rows are padded with empty cells).
    pub fn add_row<I, S>(&mut self, row: I)
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        for cell in row {
            self.cells.push_str(cell.as_ref());
            self.cell_ends.push(self.cells.len());
        }
        self.row_ends.push(self.cell_ends.len());
    }

    /// Append a row whose cells `fill` writes through [`Row::cell`].
    pub fn add_row_with(&mut self, fill: impl FnOnce(&mut Row<'_>)) {
        fill(&mut Row(self));
        self.row_ends.push(self.cell_ends.len());
    }

    /// Number of data rows.
    #[must_use]
    pub fn row_count(&self) -> usize {
        self.row_ends.len()
    }

    /// Data cell `i`, counting across rows.
    fn cell(&self, i: usize) -> &str {
        let start = i.checked_sub(1).map_or(0, |prev| self.cell_ends[prev]);
        &self.cells[start..self.cell_ends[i]]
    }

    /// The data cells of each row, as ranges of cell indices.
    fn rows(&self) -> impl Iterator<Item = Range<usize>> + Clone + '_ {
        let starts = std::iter::once(0).chain(self.row_ends.iter().copied());
        starts.zip(self.row_ends.iter().copied()).map(|(s, e)| s..e)
    }
}

/// Push one table line: each of `widths`' columns holds the next of
/// `cells` (text and character count; an empty cell once they run out),
/// right-aligned by the spaces it lacks.
fn push_line<'c>(
    line: &mut String,
    widths: &[usize],
    mut cells: impl Iterator<Item = (&'c str, usize)>,
) {
    for &width in widths {
        let (cell, chars) = cells.next().unwrap_or(("", 0));
        line.push_str("| ");
        line.extend(std::iter::repeat_n(' ', width - chars));
        line.push_str(cell);
        line.push(' ');
    }
    line.push_str("|\n");
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let header_chars: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        let chars: Vec<usize> = (0..self.cell_ends.len())
            .map(|i| self.cell(i).chars().count())
            .collect();
        let cols = self
            .rows()
            .map(|row| row.len())
            .chain(std::iter::once(self.headers.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        for counts in std::iter::once(&header_chars[..]).chain(self.rows().map(|row| &chars[row])) {
            for (width, &n) in widths.iter_mut().zip(counts) {
                *width = (*width).max(n);
            }
        }

        writeln!(f, "== {} ==", self.title)?;
        let mut line = String::new();
        if !self.headers.is_empty() {
            let headers = self
                .headers
                .iter()
                .map(String::as_str)
                .zip(header_chars.iter().copied());
            push_line(&mut line, &widths, headers);
            let total: usize = widths.iter().map(|w| w + 3).sum::<usize>() + 1;
            line.extend(std::iter::repeat_n('-', total));
            line.push('\n');
            f.write_str(&line)?;
        }
        for row in self.rows() {
            line.clear();
            push_line(&mut line, &widths, row.map(|i| (self.cell(i), chars[i])));
            f.write_str(&line)?;
        }
        Ok(())
    }
}

impl Table {
    /// Render the table as CSV (headers first), for plotting the figures
    /// with external tools.
    ///
    /// # Example
    ///
    /// ```
    /// use dabench::render::Table;
    /// let mut t = Table::new("demo");
    /// t.set_headers(["x", "y"]);
    /// t.add_row(["1", "2"]);
    /// assert_eq!(t.to_csv(), "x,y\n1,2\n");
    /// ```
    #[must_use]
    pub fn to_csv(&self) -> String {
        fn push_row<'c>(out: &mut String, cells: impl Iterator<Item = &'c str>) {
            for (i, cell) in cells.enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if cell.contains([',', '"', '\n']) {
                    out.push('"');
                    out.push_str(&cell.replace('"', "\"\""));
                    out.push('"');
                } else {
                    out.push_str(cell);
                }
            }
            out.push('\n');
        }
        let mut out = String::new();
        if !self.headers.is_empty() {
            push_row(&mut out, self.headers.iter().map(String::as_str));
        }
        for row in self.rows() {
            push_row(&mut out, row.map(|i| self.cell(i)));
        }
        out
    }
}

/// Format an optional percentage; `None` renders as the paper's "Fail".
#[must_use]
pub fn pct_or_fail(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{:.0}", 100.0 * x),
        None => "Fail".to_owned(),
    }
}

/// Format a float with `digits` decimals; `None` renders as "Fail".
#[must_use]
pub fn num_or_fail(v: Option<f64>, digits: usize) -> String {
    match v {
        Some(x) => format!("{x:.digits$}"),
        None => "Fail".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("T");
        t.set_headers(["a", "bbbb"]);
        t.add_row(["1", "2"]);
        t.add_row(["333", "4"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "== T ==");
        // All data lines share the same width.
        assert_eq!(lines[2].len(), lines[3].len());
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new("T");
        t.set_headers(["a", "b", "c"]);
        t.add_row(["1"]);
        let s = t.to_string();
        assert_eq!(s.lines().last().unwrap().matches('|').count(), 4);
    }

    #[test]
    fn csv_escapes_special_cells() {
        let mut t = Table::new("t");
        t.set_headers(["a", "b"]);
        t.add_row(["1,5", "quote\"y"]);
        let csv = t.to_csv();
        assert!(csv.contains("\"1,5\""));
        assert!(csv.contains("\"quote\"\"y\""));
    }

    /// The table as it was rendered with one `String` per cell and one
    /// `write!` per cell: `(Display, to_csv)` of a table of `headers`
    /// and `rows`.
    fn reference(title: &str, headers: &[String], rows: &[Vec<String>]) -> (String, String) {
        use std::fmt::Write as _;
        let cols = rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(headers.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        let measure = |widths: &mut [usize], cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        };
        measure(&mut widths, headers);
        for r in rows {
            measure(&mut widths, r);
        }
        let mut f = String::new();
        writeln!(f, "== {title} ==").unwrap();
        let write_cells = |f: &mut String, cells: &[String]| {
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map_or("", String::as_str);
                write!(f, "| {cell:>w$} ", w = w).unwrap();
            }
            writeln!(f, "|").unwrap();
        };
        if !headers.is_empty() {
            write_cells(&mut f, headers);
            let total: usize = widths.iter().map(|w| w + 3).sum::<usize>() + 1;
            writeln!(f, "{}", "-".repeat(total)).unwrap();
        }
        for r in rows {
            write_cells(&mut f, r);
        }

        fn escape(cell: &str) -> String {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_owned()
            }
        }
        let mut csv = String::new();
        if !headers.is_empty() {
            csv.push_str(
                &headers
                    .iter()
                    .map(|h| escape(h))
                    .collect::<Vec<_>>()
                    .join(","),
            );
            csv.push('\n');
        }
        for row in rows {
            csv.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            csv.push('\n');
        }
        (f, csv)
    }

    #[test]
    fn one_buffer_table_renders_the_per_cell_bytes() {
        // Random tables of multi-byte, empty and CSV-quoted cells, rows
        // shorter and longer than the headers, no headers or no rows:
        // `add_row` and the row writer both render the reference bytes.
        const PIECES: [&str; 10] = ["×", "—", "é", "", "1.5e3", ",", "\"", "\n", "Fail", "a b"];
        let mut rng = dabench_core::SplitMix64::new(30);
        let draw_cell = |rng: &mut dabench_core::SplitMix64| -> String {
            (0..rng.below(4))
                .map(|_| PIECES[rng.below(PIECES.len() as u64) as usize])
                .collect()
        };
        for case in 0..500 {
            let width = rng.below(6) as usize;
            let headers: Vec<String> = match case % 5 {
                0 => Vec::new(),
                _ => (0..width).map(|_| draw_cell(&mut rng)).collect(),
            };
            let rows: Vec<Vec<String>> = match case % 7 {
                0 => Vec::new(),
                _ => (0..rng.below(8))
                    .map(|_| {
                        let len = (width + rng.below(4) as usize).saturating_sub(2);
                        (0..len).map(|_| draw_cell(&mut rng)).collect()
                    })
                    .collect(),
            };
            let mut by_add_row = Table::new("T×");
            let mut by_writer = Table::new("T×");
            if !headers.is_empty() {
                by_add_row.set_headers(headers.clone());
                by_writer.set_headers(headers.iter().map(String::as_str));
            }
            for row in &rows {
                by_add_row.add_row(row);
                by_writer.add_row_with(|w| {
                    for cell in row {
                        w.cell(cell);
                    }
                });
            }
            let (display, csv) = reference("T×", &headers, &rows);
            for table in [&by_add_row, &by_writer] {
                assert_eq!(table.to_string(), display, "case {case}");
                assert_eq!(table.to_csv(), csv, "case {case}");
                assert_eq!(table.row_count(), rows.len(), "case {case}");
            }
        }
    }

    #[test]
    fn fail_formatting() {
        assert_eq!(pct_or_fail(Some(0.926)), "93");
        assert_eq!(pct_or_fail(None), "Fail");
        assert_eq!(num_or_fail(Some(1.5), 2), "1.50");
        assert_eq!(num_or_fail(None, 1), "Fail");
    }
}
