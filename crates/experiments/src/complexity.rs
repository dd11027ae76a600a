//! §V's complexity claim — `O(n²)` basic FFA vs. `O(n log n)` ordered.
//!
//! The paper's central analytical argument: the basic firefly algorithm
//! evaluates eq. (13) `O(n)` times per firefly per sweep (`O(n²)`
//! total), while keeping the fireflies rank-ordered reduces the search
//! for a brighter firefly to `O(log n)`. This experiment counts the
//! actual comparison work of both implementations across a population
//! sweep, producing the asymptotic-separation figure. Comparison counts
//! are exact and host-independent, which is why the claim is measured
//! in work rather than wall time.

use ffd2d_core::ffa::{ffa_naive, ffa_ranked, FfaConfig};
use ffd2d_metrics::{Figure, Series, Table};
use ffd2d_sim::rng::{StreamId, StreamRng};
use rand::Rng;

/// Parameters for the complexity sweep.
#[derive(Debug, Clone)]
pub struct ComplexityParams {
    /// Population sizes.
    pub sizes: Vec<usize>,
    /// FFA sweeps per run (small: the count scales linearly with it).
    pub iterations: u32,
    /// Master seed.
    pub seed: u64,
}

impl Default for ComplexityParams {
    fn default() -> Self {
        ComplexityParams {
            sizes: vec![50, 100, 200, 400, 800, 1600],
            iterations: 3,
            seed: 0xC0,
        }
    }
}

/// Per-size comparison counts.
#[derive(Debug, Clone)]
pub struct ComplexityReport {
    /// `(n, naive comparisons, ranked comparisons)`.
    pub rows: Vec<(usize, u64, u64)>,
}

/// Arena-scale objective: maximise PS strength toward a virtual optimum
/// (a stand-in for the brightness landscape of Algorithm 3).
fn brightness(p: [f64; 2]) -> f64 {
    -((p[0] - 50.0).powi(2) + (p[1] - 50.0).powi(2))
}

/// Run the sweep.
pub fn run(params: &ComplexityParams) -> ComplexityReport {
    let cfg = FfaConfig {
        iterations: params.iterations,
        ..FfaConfig::default()
    };
    let rows = params
        .sizes
        .iter()
        .map(|&n| {
            let mut rng = StreamRng::new(params.seed, n as u64, StreamId::Experiment);
            let mut pop: Vec<[f64; 2]> = (0..n)
                .map(|_| [rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)])
                .collect();
            let mut pop2 = pop.clone();
            let mut rng2 = rng.clone();
            let naive = ffa_naive(&mut pop, brightness, &cfg, &mut rng);
            let ranked = ffa_ranked(&mut pop2, brightness, &cfg, &mut rng2);
            (n, naive.comparisons, ranked.comparisons)
        })
        .collect();
    ComplexityReport { rows }
}

impl ComplexityReport {
    /// The figure: comparison counts vs. population size, both variants.
    pub fn to_figure(&self) -> Figure {
        let mut naive = Series::new("basic FFA O(n^2)");
        let mut ranked = Series::new("ordered FFA O(n log n)");
        for &(n, a, b) in &self.rows {
            naive.push(n as f64, a as f64);
            ranked.push(n as f64, b as f64);
        }
        let mut fig = Figure::new(
            "Firefly update work — basic vs ordered (paper §V)",
            "population size",
            "brightness comparisons",
        );
        fig.series.push(naive);
        fig.series.push(ranked);
        fig
    }

    /// Markdown table with growth factors.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(["n", "naive cmps", "ranked cmps", "naive/ranked"]);
        for &(n, a, b) in &self.rows {
            t.push_row([
                n.to_string(),
                a.to_string(),
                b.to_string(),
                format!("{:.1}x", a as f64 / b as f64),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separation_grows_with_n() {
        let report = run(&ComplexityParams {
            sizes: vec![100, 400, 1600],
            iterations: 2,
            seed: 1,
        });
        let ratios: Vec<f64> = report
            .rows
            .iter()
            .map(|&(_, a, b)| a as f64 / b as f64)
            .collect();
        assert!(ratios[0] > 1.0);
        assert!(ratios[1] > ratios[0]);
        assert!(ratios[2] > ratios[1]);
    }

    #[test]
    fn naive_is_quadratic_ranked_is_quasilinear() {
        let report = run(&ComplexityParams {
            sizes: vec![200, 800],
            iterations: 2,
            seed: 2,
        });
        let (_, naive_s, ranked_s) = report.rows[0];
        let (_, naive_l, ranked_l) = report.rows[1];
        assert!(naive_l as f64 / naive_s as f64 > 12.0, "naive not ~16x");
        assert!((ranked_l as f64 / ranked_s as f64) < 6.0, "ranked not ~4x");
    }

    #[test]
    fn outputs_render() {
        let report = run(&ComplexityParams {
            sizes: vec![64, 128],
            iterations: 1,
            seed: 3,
        });
        assert_eq!(report.to_figure().series.len(), 2);
        assert!(report.to_table().to_markdown().contains('x'));
    }
}
