//! Terminal line plots for the figure experiments: a fixed-size
//! character grid with per-series glyphs, linear axes, and a legend —
//! enough to eyeball the paper's curve shapes straight from the
//! `tables` binary.

use simkit::units;
use std::fmt::Write as _;

/// One named series of `(x, y)` points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// Data points (need not be sorted).
    pub points: Vec<(f64, f64)>,
}

/// A character-grid plot.
#[derive(Debug, Clone)]
pub struct Plot {
    title: String,
    x_label: String,
    y_label: String,
    width: usize,
    height: usize,
    series: Vec<Series>,
}

const GLYPHS: [char; 8] = ['*', '+', 'o', 'x', '#', '@', '%', '&'];

impl Plot {
    /// Creates an empty plot with the given axis labels.
    pub(crate) fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Plot {
        Plot {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            width: 64,
            height: 16,
            series: Vec::new(),
        }
    }

    /// Adds a series; at most eight are distinguishable.
    pub(crate) fn series(&mut self, name: impl Into<String>, points: Vec<(f64, f64)>) -> &mut Plot {
        self.series.push(Series {
            name: name.into(),
            points,
        });
        self
    }

    /// Renders the plot.
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let pts: Vec<(f64, f64)> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().copied())
            .filter(|(x, y)| x.is_finite() && y.is_finite())
            .collect();
        if pts.is_empty() {
            out.push_str("(no data)\n");
            return out;
        }
        let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut y0, mut y1) = (0.0f64, f64::NEG_INFINITY);
        for &(x, y) in &pts {
            x0 = x0.min(x);
            x1 = x1.max(x);
            y0 = y0.min(y);
            y1 = y1.max(y);
        }
        if (x1 - x0).abs() < f64::EPSILON {
            x1 = x0 + 1.0;
        }
        if (y1 - y0).abs() < f64::EPSILON {
            y1 = y0 + 1.0;
        }
        let mut grid = vec![vec![' '; self.width]; self.height];
        for (si, s) in self.series.iter().enumerate() {
            let g = GLYPHS[si % GLYPHS.len()];
            for &(x, y) in &s.points {
                if !x.is_finite() || !y.is_finite() {
                    continue;
                }
                let cx = ((x - x0) / (x1 - x0) * units::usize_f64(self.width - 1)).round() as usize;
                let cy =
                    ((y - y0) / (y1 - y0) * units::usize_f64(self.height - 1)).round() as usize;
                let row = self.height - 1 - cy.min(self.height - 1);
                let col = cx.min(self.width - 1);
                // Later series overwrite; collisions show the newest.
                grid[row][col] = g;
            }
        }
        let ymax_s = fmt_axis(y1);
        let ymin_s = fmt_axis(y0);
        let margin = ymax_s.len().max(ymin_s.len());
        for (i, row) in grid.iter().enumerate() {
            let label = if i == 0 {
                format!("{ymax_s:>margin$}")
            } else if i == self.height - 1 {
                format!("{ymin_s:>margin$}")
            } else {
                " ".repeat(margin)
            };
            let _ = writeln!(out, "{label} |{}", row.iter().collect::<String>());
        }
        let _ = writeln!(out, "{} +{}", " ".repeat(margin), "-".repeat(self.width));
        let xmin_s = fmt_axis(x0);
        let xmax_s = fmt_axis(x1);
        let pad = self.width.saturating_sub(xmin_s.len() + xmax_s.len());
        let _ = writeln!(
            out,
            "{}  {xmin_s}{}{xmax_s}   ({})",
            " ".repeat(margin),
            " ".repeat(pad),
            self.x_label
        );
        let _ = write!(out, "{}  y: {}   ", " ".repeat(margin), self.y_label);
        for (si, s) in self.series.iter().enumerate() {
            let _ = write!(out, "[{} {}] ", GLYPHS[si % GLYPHS.len()], s.name);
        }
        out.push('\n');
        out
    }
}

fn fmt_axis(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{:.0}", v)
    } else if v.abs() >= 1.0 {
        format!("{:.1}", v)
    } else {
        format!("{:.2}", v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_points_in_bounds() {
        let mut p = Plot::new("demo", "x", "y");
        p.series("a", vec![(0.0, 0.0), (10.0, 100.0)]);
        p.series("b", vec![(5.0, 50.0)]);
        let s = p.render();
        assert!(s.contains("demo"));
        assert!(s.contains("[* a]"));
        assert!(s.contains("[+ b]"));
        // Max-y label appears.
        assert!(s.contains("100"));
    }

    #[test]
    fn empty_plot_is_graceful() {
        let p = Plot::new("empty", "x", "y");
        assert!(p.render().contains("(no data)"));
    }

    #[test]
    fn constant_series_do_not_divide_by_zero() {
        let mut p = Plot::new("flat", "x", "y");
        p.series("c", vec![(1.0, 5.0), (2.0, 5.0)]);
        let s = p.render();
        assert!(s.contains('*'));
    }

    #[test]
    fn non_finite_points_are_skipped() {
        let mut p = Plot::new("nan", "x", "y");
        p.series("n", vec![(f64::NAN, 1.0), (1.0, 2.0)]);
        assert!(p.render().contains('*'));
    }
}
