//! Named (x, y) series — the in-memory form of a figure.
//!
//! Every reproduced figure is a set of series over a common x-axis
//! (node count). [`Series`] carries the points plus optional error bars
//! (95% CI half-widths), renders to CSV, and answers shape questions the
//! experiment assertions need (monotonicity, crossover location).

use serde::{Deserialize, Serialize};

/// One plotted series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Legend label (e.g. `"ST (proposed)"`).
    pub label: String,
    /// Points as `(x, y)`.
    pub points: Vec<(f64, f64)>,
    /// Optional symmetric error bar per point (same length as `points`
    /// when present).
    pub error: Option<Vec<f64>>,
}

impl Series {
    /// An empty series.
    pub fn new(label: impl Into<String>) -> Series {
        Series {
            label: label.into(),
            points: Vec::new(),
            error: None,
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Append a point with an error bar.
    pub fn push_with_error(&mut self, x: f64, y: f64, e: f64) {
        self.points.push((x, y));
        self.error.get_or_insert_with(Vec::new).push(e);
    }

    /// y-value at the given x, if sampled.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|&&(px, _)| (px - x).abs() < 1e-9)
            .map(|&(_, y)| y)
    }

    /// The first x (of `self`) at which `self` drops strictly below
    /// `other`, comparing common x-values in order — the "crossover"
    /// the paper's Figs. 3–4 are about.
    pub fn crossover_below(&self, other: &Series) -> Option<f64> {
        for &(x, y) in &self.points {
            if let Some(oy) = other.y_at(x) {
                if y < oy {
                    return Some(x);
                }
            }
        }
        None
    }
}

/// A figure: several series over one x-axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure {
    /// Figure title (e.g. `"Fig. 3 — convergence time"`).
    pub title: String,
    /// Axis labels `(x, y)`.
    pub axes: (String, String),
    /// The plotted series.
    pub series: Vec<Series>,
}

impl Figure {
    /// A new empty figure.
    pub fn new(
        title: impl Into<String>,
        x_axis: impl Into<String>,
        y_axis: impl Into<String>,
    ) -> Figure {
        Figure {
            title: title.into(),
            axes: (x_axis.into(), y_axis.into()),
            series: Vec::new(),
        }
    }

    /// Render as CSV: header `x,<label1>,<label1>_ci,<label2>,…` and one
    /// row per x present in the first series.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.axes.0);
        for s in &self.series {
            out.push(',');
            out.push_str(&s.label);
            if s.error.is_some() {
                out.push(',');
                out.push_str(&s.label);
                out.push_str("_ci95");
            }
        }
        out.push('\n');
        if let Some(first) = self.series.first() {
            for (i, &(x, _)) in first.points.iter().enumerate() {
                out.push_str(&format!("{x}"));
                for s in &self.series {
                    let y = s.points.get(i).map(|&(_, y)| y);
                    out.push(',');
                    if let Some(y) = y {
                        out.push_str(&format!("{y}"));
                    }
                    if let Some(err) = &s.error {
                        out.push(',');
                        if let Some(e) = err.get(i) {
                            out.push_str(&format!("{e}"));
                        }
                    }
                }
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make(label: &str, ys: &[f64]) -> Series {
        let mut s = Series::new(label);
        for (i, &y) in ys.iter().enumerate() {
            s.push((i * 100) as f64, y);
        }
        s
    }

    #[test]
    fn push_and_lookup() {
        let s = make("a", &[1.0, 2.0, 3.0]);
        assert_eq!(s.y_at(100.0), Some(2.0));
        assert_eq!(s.y_at(50.0), None);
    }

    #[test]
    fn crossover_detection() {
        // st starts above fst, crosses below at x = 200.
        let st = make("st", &[10.0, 10.0, 8.0, 9.0]);
        let fst = make("fst", &[8.0, 10.0, 12.0, 20.0]);
        assert_eq!(st.crossover_below(&fst), Some(200.0));
        assert_eq!(fst.crossover_below(&st), Some(0.0));
        let flat = make("flat", &[10.0, 10.0, 12.0, 20.0]);
        assert_eq!(flat.crossover_below(&flat), None);
    }

    #[test]
    fn error_bars_align() {
        let mut s = Series::new("e");
        s.push_with_error(0.0, 1.0, 0.1);
        s.push_with_error(1.0, 2.0, 0.2);
        assert_eq!(s.error.as_ref().unwrap().len(), s.points.len());
    }

    #[test]
    fn csv_rendering() {
        let mut fig = Figure::new("Fig. X", "nodes", "time");
        fig.series.push(make("st", &[1.0, 2.0]));
        fig.series.push(make("fst", &[3.0, 4.0]));
        let csv = fig.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "nodes,st,fst");
        assert_eq!(lines[1], "0,1,3");
        assert_eq!(lines[2], "100,2,4");
    }

    #[test]
    fn csv_with_error_columns() {
        let mut fig = Figure::new("F", "x", "y");
        let mut s = Series::new("a");
        s.push_with_error(1.0, 2.0, 0.5);
        fig.series.push(s);
        let csv = fig.to_csv();
        assert!(csv.starts_with("x,a,a_ci95\n"));
        assert!(csv.contains("1,2,0.5"));
    }
}
