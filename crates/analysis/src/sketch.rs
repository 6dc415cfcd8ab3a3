//! Mergeable streaming quantile sketch — the bounded-memory counterpart
//! of [`crate::Cdf`] for the longitudinal replay path.
//!
//! [`QuantileSketch`] is a fixed-resolution log-binned histogram: each
//! power-of-two octave of the value range is split into 128 equal-width
//! sub-bins, so any recorded value lands in a bin whose relative
//! half-width is at most `1/256 ≈ 0.39%`. Quantile queries return the
//! bin midpoint (clamped to the exact observed min/max), which keeps the
//! worst-case relative error under the 0.5% budget the paper's reported
//! percentiles (p10/p50/p90/p99) need. Memory is a fixed ~50 KiB per
//! sketch regardless of how many samples stream through, and two
//! sketches merge by adding their bin counts — the property the sharded
//! campaign fold relies on.
//!
//! # Merge semantics
//!
//! [`QuantileSketch::merge`] is *exact*, not approximate: a bin count is
//! a `u64` and addition is associative and commutative, so folding a
//! sample stream through any partition into shard sketches and merging
//! them yields bin-for-bin the state of one sequential fold — same
//! quantiles, same rendered series, byte for byte. The only `f64`
//! accumulator is the running `sum` backing [`QuantileSketch::mean`];
//! the data-parallel replay (DESIGN.md §13) merges shards in fixed
//! shard order so even that float addition happens in one canonical
//! order, and no rendered figure reads `mean()` anyway. Min/max merge
//! by `min`/`max`, which are order-free. The proptests in
//! `tests/sketch_proptest.rs` pin the merge laws (commutativity,
//! associativity, merge-equals-single-fold).
//!
//! Binning is computed from the IEEE-754 bit pattern (exponent plus the
//! top seven mantissa bits), not `log2`, so bin assignment is exact and
//! identical on every platform — a determinism-contract requirement
//! (DESIGN.md §8), since figure bytes are diffed across runs.

/// Sub-bins per power-of-two octave (2^7): bounds relative error at 1/256.
const SUB_BITS: u32 = 7;
/// Sub-bins per octave as a count.
const SUBS: usize = 1 << SUB_BITS;
/// Smallest representable exponent: values in `(0, 2^-10)` clamp into the
/// first bin. Workload metrics are counts and second-scale durations, so
/// nothing meaningful lives below `~0.001`.
const MIN_EXP: i64 = -10;
/// One-past-largest exponent: values at or above `2^40` (~10^12) clamp
/// into the last bin.
const MAX_EXP: i64 = 40;
/// Total bin count: 50 octaves × 128 sub-bins.
const BINS: usize = ((MAX_EXP - MIN_EXP) as usize) << SUB_BITS;

/// A mergeable, fixed-memory quantile sketch over non-negative samples.
///
/// Mirrors the query surface of [`crate::Cdf`] (`quantile`,
/// `fraction_at_or_below`, `series`, `mean`, `min`/`max`) so experiment
/// code can swap the exact CDF for the sketch without changing call
/// sites. Zero is tracked in its own exact bin because the paper's
/// distributions are heavily zero-inflated (90% of Meerkat broadcasts
/// have no viewers).
#[derive(Clone, Debug)]
pub struct QuantileSketch {
    /// Exact count of samples equal to zero.
    zero: u64,
    /// Log-binned counts of positive samples.
    bins: Vec<u64>,
    /// Total samples, including zeros.
    count: u64,
    /// Running sum in push order (deterministic: single fold order).
    sum: f64,
    /// Exact smallest sample (`+inf` when empty).
    min: f64,
    /// Exact largest sample (`-inf` when empty).
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// Creates an empty sketch.
    pub fn new() -> Self {
        QuantileSketch {
            zero: 0,
            bins: vec![0; BINS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Bin index for a positive finite value, derived from its IEEE-754
    /// exponent and top mantissa bits (exact — no floating transcendentals).
    fn bin_index(v: f64) -> usize {
        debug_assert!(v > 0.0 && v.is_finite());
        let bits = v.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i64 - 1023;
        if exp < MIN_EXP {
            return 0;
        }
        if exp >= MAX_EXP {
            return BINS - 1;
        }
        let sub = ((bits >> (52 - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
        (((exp - MIN_EXP) as usize) << SUB_BITS) | sub
    }

    /// Exact power of two `2^e` for in-range exponents, via the bit pattern.
    fn pow2(e: i64) -> f64 {
        f64::from_bits(((e + 1023) as u64) << 52)
    }

    /// Midpoint of bin `idx` — the value reported for any sample that
    /// landed there.
    fn representative(idx: usize) -> f64 {
        let octave = (idx >> SUB_BITS) as i64 + MIN_EXP;
        let sub = (idx & (SUBS - 1)) as f64;
        Self::pow2(octave) * (1.0 + (sub + 0.5) / SUBS as f64)
    }

    /// Records one sample.
    ///
    /// # Panics
    /// Panics on NaN, negative, or infinite input — workload metrics are
    /// all finite non-negative counts or durations, so any other value is
    /// a bug upstream.
    pub fn push(&mut self, v: f64) {
        assert!(
            v.is_finite() && v >= 0.0,
            "sketch input must be finite and non-negative, got {v}"
        );
        if v == 0.0 {
            self.zero += 1;
        } else {
            self.bins[Self::bin_index(v)] += 1;
        }
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds another sketch into this one. `merge(a, b)` is equivalent to
    /// feeding both input streams into a single sketch (bin counts add;
    /// only `mean` can differ in the last ulps from summation order).
    pub fn merge(&mut self, other: &QuantileSketch) {
        self.zero += other.zero;
        for (mine, theirs) in self.bins.iter_mut().zip(&other.bins) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples recorded.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Approximate `P(X <= x)`: exact for zeros, within one bin's mass for
    /// positive `x` (a bin is counted when its midpoint is at or below `x`).
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.count == 0 || x < 0.0 {
            return 0.0;
        }
        let mut acc = self.zero;
        if x > 0.0 {
            let idx_x = Self::bin_index(x.min(Self::pow2(MAX_EXP)));
            for &c in &self.bins[..idx_x] {
                acc += c;
            }
            if Self::representative(idx_x) <= x {
                acc += self.bins[idx_x];
            }
        }
        acc as f64 / self.count as f64
    }

    /// Inverse CDF by nearest rank, mirroring [`crate::Cdf::quantile`]'s
    /// rank convention; returns the containing bin's midpoint clamped to
    /// the exact observed `[min, max]`.
    ///
    /// # Panics
    /// Panics on an empty sketch or out-of-range `q`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(self.count > 0, "quantile of empty sketch");
        assert!((0.0..=1.0).contains(&q), "quantile order {q} out of range");
        let rank = ((self.count - 1) as f64 * q).floor() as u64 + 1;
        if rank <= self.zero {
            return 0.0;
        }
        // Rank-1 and rank-n samples are tracked exactly.
        if rank == 1 {
            return self.min;
        }
        if rank == self.count {
            return self.max;
        }
        let mut cum = self.zero;
        for (idx, &c) in self.bins.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Self::representative(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median, `quantile(0.5)`.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Mean of all samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact smallest sample (None when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact largest sample (None when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Downsamples the sketch CDF to at most `points` `(x, F(x))` pairs
    /// for plotting, pinning the first point to the exact minimum and the
    /// last to the exact maximum — the same endpoint convention as
    /// [`crate::Cdf::series`].
    pub fn series(&self, points: usize) -> Vec<(f64, f64)> {
        if self.count == 0 || points == 0 {
            return Vec::new();
        }
        // One point per occupied bin, in value order.
        let mut full: Vec<(f64, f64)> = Vec::new();
        let mut cum = 0u64;
        if self.zero > 0 {
            cum += self.zero;
            full.push((0.0, cum as f64 / self.count as f64));
        }
        for (idx, &c) in self.bins.iter().enumerate() {
            if c > 0 {
                cum += c;
                let x = Self::representative(idx).clamp(self.min, self.max);
                full.push((x, cum as f64 / self.count as f64));
            }
        }
        if let Some(first) = full.first_mut() {
            first.0 = self.min;
        }
        if let Some(last) = full.last_mut() {
            last.0 = self.max;
        }
        let n = full.len();
        let points = points.min(n);
        let mut out = Vec::with_capacity(points);
        for k in 0..points {
            let idx = if points == 1 {
                n - 1
            } else {
                k * (n - 1) / (points - 1)
            };
            out.push(full[idx]);
        }
        out.dedup_by(|a, b| a == b);
        out
    }

    /// Bytes of heap + inline storage this sketch holds — the replay
    /// bench's self-measured memory accounting (DESIGN.md §10).
    pub fn tracked_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.bins.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cdf;

    fn filled(values: &[f64]) -> (QuantileSketch, Cdf) {
        let mut s = QuantileSketch::new();
        for &v in values {
            s.push(v);
        }
        (s, Cdf::from_samples(values.to_vec()))
    }

    #[test]
    fn small_run_matches_exact_cdf() {
        let values: Vec<f64> = (1..=1000).map(|i| (i * i) as f64 / 7.0).collect();
        let (s, c) = filled(&values);
        for q in [0.1, 0.5, 0.9, 0.99] {
            let exact = c.quantile(q);
            let approx = s.quantile(q);
            assert!(
                (approx - exact).abs() / exact <= 0.005,
                "q={q}: sketch {approx} vs exact {exact}"
            );
        }
        assert_eq!(s.min(), c.min());
        assert_eq!(s.max(), c.max());
        assert!((s.mean() - c.mean()).abs() / c.mean() < 1e-9);
    }

    #[test]
    fn zeros_are_exact() {
        let (s, c) = filled(&[0.0, 0.0, 0.0, 1.0, 2.0]);
        assert_eq!(s.quantile(0.0), 0.0);
        assert_eq!(s.median(), c.median());
        assert_eq!(s.fraction_at_or_below(0.0), 0.6);
        assert_eq!(s.fraction_at_or_below(-1.0), 0.0);
        assert_eq!(s.fraction_at_or_below(10.0), 1.0);
    }

    #[test]
    fn merge_equals_single_stream() {
        let a_vals: Vec<f64> = (1..500).map(|i| i as f64 * 3.7).collect();
        let b_vals: Vec<f64> = (1..800).map(|i| i as f64 * 0.9 + 12.0).collect();
        let mut merged = QuantileSketch::new();
        let mut single = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        for &v in &a_vals {
            merged.push(v);
            single.push(v);
        }
        for &v in &b_vals {
            b.push(v);
            single.push(v);
        }
        merged.merge(&b);
        assert_eq!(merged.len(), single.len());
        assert_eq!(merged.zero, single.zero);
        assert_eq!(merged.bins, single.bins);
        assert_eq!(merged.min(), single.min());
        assert_eq!(merged.max(), single.max());
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert_eq!(merged.quantile(q), single.quantile(q));
        }
    }

    #[test]
    fn series_is_monotonic_and_pinned() {
        let values: Vec<f64> = (1..=5000).map(|i| (i as f64).powf(1.7)).collect();
        let (s, _) = filled(&values);
        let ser = s.series(120);
        assert!(ser.len() <= 120);
        assert_eq!(ser.first().unwrap().0, 1.0);
        let last = ser.last().unwrap();
        assert_eq!(last.0, 5000f64.powf(1.7));
        assert_eq!(last.1, 1.0);
        for w in ser.windows(2) {
            assert!(w[0].0 <= w[1].0, "x not monotone: {w:?}");
            assert!(w[0].1 <= w[1].1, "F not monotone: {w:?}");
        }
    }

    #[test]
    fn series_handles_degenerate_requests() {
        let (s, _) = filled(&[4.0]);
        assert!(s.series(0).is_empty());
        assert_eq!(s.series(1), vec![(4.0, 1.0)]);
        assert!(QuantileSketch::new().series(10).is_empty());
    }

    #[test]
    fn out_of_range_values_clamp() {
        let mut s = QuantileSketch::new();
        s.push(1e-9); // below 2^-10: clamps into the first bin
        s.push(1e15); // above 2^40: clamps into the last bin
        assert_eq!(s.len(), 2);
        // Exact extremes still come from min/max tracking.
        assert_eq!(s.quantile(0.0), 1e-9);
        assert_eq!(s.quantile(1.0), 1e15);
    }

    #[test]
    fn numeric_edges_land_in_the_end_bins() {
        let tiniest = 5e-324; // the smallest subnormal
        assert_eq!(QuantileSketch::bin_index(tiniest), 0);
        assert_eq!(QuantileSketch::bin_index(f64::MIN_POSITIVE), 0);
        assert_eq!(QuantileSketch::bin_index(f64::MAX), BINS - 1);

        let mut s = QuantileSketch::new();
        for v in [f64::MAX, tiniest, -0.0, f64::MIN_POSITIVE, 1.0] {
            s.push(v);
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.zero, 1, "-0.0 counts as zero");
        assert_eq!(s.bins[0], 2);
        assert_eq!(s.bins[BINS - 1], 1);
        assert_eq!(s.min(), Some(0.0));
        assert_eq!(s.max(), Some(f64::MAX));
        let (lo, hi) = (s.min().unwrap(), s.max().unwrap());
        for q in [0.0, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0] {
            let v = s.quantile(q);
            assert!(lo <= v && v <= hi, "q={q}: {v} outside [{lo}, {hi}]");
        }
        assert_eq!(s.quantile(0.0), 0.0);
        assert_eq!(s.quantile(1.0), f64::MAX);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_input_panics() {
        QuantileSketch::new().push(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn infinite_input_panics() {
        QuantileSketch::new().push(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_infinite_input_panics() {
        QuantileSketch::new().push(f64::NEG_INFINITY);
    }

    #[test]
    fn tracked_bytes_is_constant() {
        let mut s = QuantileSketch::new();
        let before = s.tracked_bytes();
        for i in 0..100_000 {
            s.push(i as f64 + 0.5);
        }
        assert_eq!(s.tracked_bytes(), before);
        assert!(before < 64 * 1024, "sketch should stay under 64 KiB");
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_input_panics() {
        QuantileSketch::new().push(-1.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_of_empty_panics() {
        QuantileSketch::new().quantile(0.5);
    }
}
