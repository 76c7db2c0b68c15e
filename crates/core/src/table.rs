//! Plain-text table rendering for the experiment harness, so `tables`
//! output reads like the paper's tables.

use std::fmt::Write as _;

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub(crate) fn new(title: impl Into<String>, header: &[&str]) -> Table {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub(crate) fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let line: usize = widths.iter().sum::<usize>() + 3 * (ncols - 1);
        let _ = writeln!(out, "{}", "=".repeat(line.max(self.title.len())));
        for (i, h) in self.header.iter().enumerate() {
            let sep = if i + 1 == ncols { "\n" } else { " | " };
            let _ = write!(out, "{:width$}{}", h, sep, width = widths[i]);
        }
        let _ = writeln!(out, "{}", "-".repeat(line.max(self.title.len())));
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                let sep = if i + 1 == ncols { "\n" } else { " | " };
                let _ = write!(out, "{:width$}{}", c, sep, width = widths[i]);
            }
        }
        out
    }
}

/// Formats a float compactly (2 significant decimals, trailing zeros
/// trimmed).
pub(crate) fn fmt_f(x: f64) -> String {
    if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.2}")
    }
}

/// Formats seconds from a `SimDuration`.
pub(crate) fn fmt_secs(d: simkit::SimDuration) -> String {
    fmt_f(d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(cells: &[&str]) -> Vec<String> {
        cells.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("Demo", &["op", "v2", "iSCSI"]);
        t.row(&strs(&["mkdir", "2", "7"]));
        t.row(&strs(&["chdir", "1", "2"]));
        let s = t.render();
        assert!(s.contains("Demo"));
        assert!(s.contains("mkdir | 2  | 7"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&strs(&["only-one"]));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(123.456), "123");
        assert_eq!(fmt_f(12.345), "12.3");
        assert_eq!(fmt_f(1.234), "1.23");
    }
}
