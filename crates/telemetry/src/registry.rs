//! Metrics registry: counters, gauges, and log-bucketed histograms behind
//! pre-registered `Copy` handles.
//!
//! Registration happens at component-construction time and may hash/scan
//! names; the record path is `values[id] += n` with a bounds check — no
//! hashing, no locks, no global state. Ids from one registry are
//! meaningless in another; components re-register when they attach to a
//! new [`crate::Telemetry`] handle.

use std::borrow::Cow;

/// Handle to a registered counter (monotone u64).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(pub(crate) u32);

/// Handle to a registered gauge (last-write-wins i64).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(pub(crate) u32);

/// Handle to a registered log-bucketed histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramId(pub(crate) u32);

impl CounterId {
    /// Id handed out by disabled telemetry; never indexes anything.
    pub const INERT: CounterId = CounterId(u32::MAX);
}

impl GaugeId {
    /// Id handed out by disabled telemetry; never indexes anything.
    pub const INERT: GaugeId = GaugeId(u32::MAX);
}

impl HistogramId {
    /// Id handed out by disabled telemetry; never indexes anything.
    pub const INERT: HistogramId = HistogramId(u32::MAX);
}

// Defaulting to INERT lets instrumented components derive Default and
// only become live after `attach_telemetry`.
impl Default for CounterId {
    fn default() -> Self {
        CounterId::INERT
    }
}

impl Default for GaugeId {
    fn default() -> Self {
        GaugeId::INERT
    }
}

impl Default for HistogramId {
    fn default() -> Self {
        HistogramId::INERT
    }
}

/// Power-of-two-bucketed histogram over u64 samples.
///
/// Bucket `i` holds samples whose value needs `i` significant bits
/// (bucket 0 = {0}, bucket 1 = {1}, bucket 2 = {2,3}, bucket 3 = {4..8},
/// …), giving ~2× resolution across 19 decades in 65 fixed slots.
#[derive(Clone, Debug)]
pub struct Histogram {
    /// Bucket `i` counts samples needing `i` significant bits.
    pub buckets: [u64; 65],
    /// Total samples recorded.
    pub count: u64,
    /// Saturating sum of all samples.
    pub sum: u64,
    /// Smallest sample seen (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample seen (0 when empty).
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    #[inline]
    fn bucket_index(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Exact mean of all recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile: walks buckets and returns the geometric
    /// midpoint of the one containing the target rank (exact at the
    /// recorded min/max for q=0/1).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if q <= 0.0 {
            return self.min as f64;
        }
        if q >= 1.0 {
            return self.max as f64;
        }
        let target = (q * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                if i == 0 {
                    return 0.0;
                }
                let lo = 1u64 << (i - 1);
                let hi = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
                return (lo as f64 * hi as f64)
                    .sqrt()
                    .clamp(self.min as f64, self.max as f64);
            }
        }
        self.max as f64
    }
}

#[derive(Default)]
pub(crate) struct Registry {
    counter_names: Vec<Cow<'static, str>>,
    counters: Vec<u64>,
    gauge_names: Vec<Cow<'static, str>>,
    gauges: Vec<i64>,
    histogram_names: Vec<Cow<'static, str>>,
    histograms: Vec<Histogram>,
}

impl Registry {
    pub(crate) fn counter(&mut self, name: Cow<'static, str>) -> CounterId {
        if let Some(i) = self.counter_names.iter().position(|n| *n == name) {
            return CounterId(i as u32);
        }
        self.counter_names.push(name);
        self.counters.push(0);
        CounterId((self.counters.len() - 1) as u32)
    }

    pub(crate) fn gauge(&mut self, name: Cow<'static, str>) -> GaugeId {
        if let Some(i) = self.gauge_names.iter().position(|n| *n == name) {
            return GaugeId(i as u32);
        }
        self.gauge_names.push(name);
        self.gauges.push(0);
        GaugeId((self.gauges.len() - 1) as u32)
    }

    pub(crate) fn histogram(&mut self, name: Cow<'static, str>) -> HistogramId {
        if let Some(i) = self.histogram_names.iter().position(|n| *n == name) {
            return HistogramId(i as u32);
        }
        self.histogram_names.push(name);
        self.histograms.push(Histogram::default());
        HistogramId((self.histograms.len() - 1) as u32)
    }

    #[inline]
    pub(crate) fn add(&mut self, id: CounterId, n: u64) {
        if let Some(slot) = self.counters.get_mut(id.0 as usize) {
            *slot += n;
        }
    }

    #[inline]
    pub(crate) fn set_gauge(&mut self, id: GaugeId, value: i64) {
        if let Some(slot) = self.gauges.get_mut(id.0 as usize) {
            *slot = value;
        }
    }

    #[inline]
    pub(crate) fn record(&mut self, id: HistogramId, value: u64) {
        if let Some(h) = self.histograms.get_mut(id.0 as usize) {
            h.record(value);
        }
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counter_names
                .iter()
                .zip(&self.counters)
                .map(|(n, v)| (n.to_string(), *v))
                .collect(),
            gauges: self
                .gauge_names
                .iter()
                .zip(&self.gauges)
                .map(|(n, v)| (n.to_string(), *v))
                .collect(),
            histograms: self
                .histogram_names
                .iter()
                .zip(&self.histograms)
                .map(|(n, h)| (n.to_string(), h.clone()))
                .collect(),
        }
    }
}

/// Point-in-time copy of every metric, in registration order.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` per counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, histogram)` per histogram.
    pub histograms: Vec<(String, Histogram)>,
}

impl MetricsSnapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// One metric per line, `name value` / `name count=.. mean=.. p50=..`.
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("counter   {name} = {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("gauge     {name} = {v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "histogram {name} count={} mean={:.1} p50={:.0} p99={:.0} max={}\n",
                h.count,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99),
                if h.count == 0 { 0 } else { h.max },
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_dedupes_by_name() {
        let mut r = Registry::default();
        let a = r.counter("x".into());
        let b = r.counter("x".into());
        let c = r.counter("y".into());
        assert_eq!(a, b);
        assert_ne!(a, c);
        r.add(a, 2);
        r.add(b, 3);
        assert_eq!(r.snapshot().counter("x"), Some(5));
    }

    #[test]
    fn inert_ids_do_not_index() {
        let mut r = Registry::default();
        r.add(CounterId::INERT, 10);
        r.set_gauge(GaugeId::INERT, 10);
        r.record(HistogramId::INERT, 10);
        let snap = r.snapshot();
        assert!(snap.counters.is_empty());
    }

    #[test]
    fn histogram_buckets_are_logarithmic() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count, 9);
        assert_eq!(h.buckets[0], 1, "zero bucket");
        assert_eq!(h.buckets[1], 1, "one bucket");
        assert_eq!(h.buckets[2], 2, "2..3");
        assert_eq!(h.buckets[3], 2, "4..7");
        assert_eq!(h.buckets[4], 1, "8..15");
        assert_eq!(h.buckets[10], 1, "512..1023");
        assert_eq!(h.buckets[64], 1, "top bucket");
        assert_eq!(h.min, 0);
        assert_eq!(h.max, u64::MAX);
    }

    #[test]
    fn histogram_quantiles_are_ordered_and_bounded() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let (q0, q50, q99, q100) = (
            h.quantile(0.0),
            h.quantile(0.5),
            h.quantile(0.99),
            h.quantile(1.0),
        );
        assert_eq!(q0, 1.0);
        assert_eq!(q100, 1000.0);
        assert!(q0 <= q50 && q50 <= q99 && q99 <= q100);
        // log-bucket approximation: p50 of 1..=1000 is within its 512..1023
        // neighbourhood, i.e. a factor-2 band around 500.
        assert!((250.0..=1000.0).contains(&q50), "p50 {q50}");
    }

    #[test]
    fn snapshot_renders_every_kind() {
        let mut r = Registry::default();
        let c = r.counter("frames".into());
        let g = r.gauge("depth".into());
        let h = r.histogram("delay_us".into());
        r.add(c, 3);
        r.set_gauge(g, -2);
        r.record(h, 100);
        let text = r.snapshot().render_ascii();
        assert!(text.contains("frames = 3"));
        assert!(text.contains("depth = -2"));
        assert!(text.contains("delay_us count=1"));
    }
}
