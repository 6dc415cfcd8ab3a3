//! Property tests for the streaming quantile sketch: agreement with the
//! exact [`Cdf`] at the percentiles the paper reports, and the merge law
//! the sharded campaign fold depends on.

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

    #[test]
    fn merge_is_equivalent_to_one_stream(
        left in vec(0.0f64..1e9, 0..200),
        right in vec(0.0f64..1e9, 0..200),
    ) {
        let left = zero_inflate(left);
        let right = zero_inflate(right);
        let mut merged = sketch_of(&left);
        merged.merge(&sketch_of(&right));
        let mut single = sketch_of(&left);
        for &v in &right {
            single.push(v);
        }
        prop_assert_eq!(merged.len(), single.len());
        prop_assert_eq!(merged.min(), single.min());
        prop_assert_eq!(merged.max(), single.max());
        if !merged.is_empty() {
            for q in [0.0, 0.10, 0.50, 0.90, 0.99, 1.0] {
                prop_assert_eq!(merged.quantile(q), single.quantile(q));
            }
            prop_assert_eq!(merged.series(120), single.series(120));
        }
    }

    #[test]
    fn merge_is_associative(
        a in vec(0.0f64..1e9, 0..120),
        b in vec(0.0f64..1e9, 0..120),
        c in vec(0.0f64..1e9, 0..120),
    ) {
        let (a, b, c) = (zero_inflate(a), zero_inflate(b), zero_inflate(c));
        // (a ⊕ b) ⊕ c
        let mut ab_c = sketch_of(&a);
        ab_c.merge(&sketch_of(&b));
        ab_c.merge(&sketch_of(&c));
        // a ⊕ (b ⊕ c)
        let mut bc = sketch_of(&b);
        bc.merge(&sketch_of(&c));
        let mut a_bc = sketch_of(&a);
        a_bc.merge(&bc);
        prop_assert_eq!(ab_c.len(), a_bc.len());
        if !ab_c.is_empty() {
            for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
                prop_assert_eq!(ab_c.quantile(q), a_bc.quantile(q));
            }
            prop_assert_eq!(ab_c.series(150), a_bc.series(150));
        }
    }
}
