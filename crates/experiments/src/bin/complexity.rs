//! §V complexity claim: O(n²) basic FFA vs. O(n log n) ordered FFA.

use ffd2d_experiments::complexity::{run, ComplexityParams};
use ffd2d_experiments::write_results_or_exit;

fn main() {
    let report = run(&ComplexityParams::default());
    println!("{}", report.to_table().to_markdown());
    write_results_or_exit(&[("complexity.csv", &report.to_figure().to_csv())]);
}
