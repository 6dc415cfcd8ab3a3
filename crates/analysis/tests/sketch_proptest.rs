//! Property tests for the streaming quantile sketch: agreement with the
//! exact [`Cdf`] at the percentiles the paper reports.

use livescope_analysis::{Cdf, QuantileSketch};
use proptest::collection::vec;
use proptest::{prop_assert, prop_assert_eq, proptest};

/// Percentiles the paper quotes in §4–§5 (Figs 3–6 commentary).
const PAPER_PERCENTILES: [f64; 4] = [0.10, 0.50, 0.90, 0.99];

fn sketch_of(values: &[f64]) -> QuantileSketch {
    let mut s = QuantileSketch::new();
    for &v in values {
        s.push(v);
    }
    s
}

/// Zero-inflate a raw sample vector the way broadcast metrics are:
/// a large point mass at exactly zero plus a heavy positive tail.
fn zero_inflate(raw: Vec<f64>) -> Vec<f64> {
    raw.into_iter()
        .map(|v| if v < 2e5 { 0.0 } else { v - 2e5 + 0.01 })
        .collect()
}

proptest! {
    #[test]
    fn sketch_matches_cdf_at_paper_percentiles(raw in vec(0.0f64..1e9, 1..400)) {
        let values = zero_inflate(raw);
        let sketch = sketch_of(&values);
        let cdf = Cdf::from_samples(values);
        for q in PAPER_PERCENTILES {
            let exact = cdf.quantile(q);
            let approx = sketch.quantile(q);
            if exact == 0.0 {
                prop_assert_eq!(approx, 0.0);
            } else {
                let rel = (approx - exact).abs() / exact;
                prop_assert!(
                    rel <= 0.005,
                    "p{}: sketch {} vs exact {} (rel {})",
                    q * 100.0, approx, exact, rel
                );
            }
        }
        prop_assert_eq!(sketch.min(), cdf.min());
        prop_assert_eq!(sketch.max(), cdf.max());
        prop_assert_eq!(sketch.len() as usize, cdf.len());
    }
}
