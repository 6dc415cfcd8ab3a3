//! Delay models: wide-area propagation and last-mile access links.
//!
//! One-way wide-area delay is modelled as
//!
//! ```text
//! delay = base + distance / (c_fiber / inflation) + transmission + jitter
//! ```
//!
//! where `c_fiber ≈ 200 000 km/s` (speed of light in glass), `inflation`
//! captures non-great-circle routing (typical internet paths are 1.5–2.5×
//! longer than geodesics), `transmission = bytes / bandwidth`, and jitter is
//! exponential with a configurable mean. With these defaults the
//! controlled experiment (`livescope fig11`) measures an upload of about
//! 0.024 s and a last mile of about 0.042 s (RTMP) and 0.134 s (HLS):
//! short of the paper's ~0.2 s for each, a listed miss (ROADMAP 6(b)).
//! The protocol-induced components (chunking, polling, buffering) are
//! where the paper's numbers are met.

use livescope_sim::SimDuration;
use rand::Rng;

/// Speed of light in fibre, km/s.
pub const FIBER_KM_PER_SEC: f64 = 200_000.0;

/// Wide-area one-way latency model between two geographic points.
#[derive(Clone, Copy, Debug)]
pub struct LatencyModel {
    /// Fixed per-path overhead (forwarding, queuing floors), seconds.
    pub base_s: f64,
    /// Route inflation over the great-circle path (≥ 1).
    pub route_inflation: f64,
    /// Path bandwidth in bytes/second for transmission delay.
    pub bandwidth_bps: f64,
    /// Mean of the exponential jitter term, seconds.
    pub jitter_mean_s: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            base_s: 0.010,
            route_inflation: 1.8,
            bandwidth_bps: 12.5e6, // 100 Mbit/s backbone share
            jitter_mean_s: 0.004,
        }
    }
}

impl LatencyModel {
    /// A model for well-provisioned inter-datacenter paths: lower base,
    /// straighter routes, fatter pipes. Used for Wowza→Fastly replication.
    pub fn inter_datacenter() -> Self {
        LatencyModel {
            base_s: 0.005,
            route_inflation: 1.5,
            bandwidth_bps: 125e6, // 1 Gbit/s
            jitter_mean_s: 0.002,
        }
    }

    /// Deterministic (jitter-free) one-way delay for `payload_bytes` over
    /// `distance_km`.
    pub fn expected_delay(&self, distance_km: f64, payload_bytes: usize) -> SimDuration {
        let prop = distance_km * self.route_inflation / FIBER_KM_PER_SEC;
        let tx = payload_bytes as f64 / self.bandwidth_bps;
        SimDuration::from_secs_f64(self.base_s + prop + tx)
    }

    /// Samples a one-way delay including exponential jitter.
    pub fn sample_delay<R: Rng>(
        &self,
        rng: &mut R,
        distance_km: f64,
        payload_bytes: usize,
    ) -> SimDuration {
        let jitter = sample_exponential(rng, self.jitter_mean_s);
        self.expected_delay(distance_km, payload_bytes) + SimDuration::from_secs_f64(jitter)
    }
}

/// Samples from Exp(mean) via inverse transform; returns 0 for zero mean.
pub fn sample_exponential<R: Rng>(rng: &mut R, mean: f64) -> f64 {
    if mean <= 0.0 {
        return 0.0;
    }
    // Guard the open interval so ln(0) never happens.
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -mean * u.ln()
}

/// Last-mile access-link classes the controlled experiments ran over
/// ("stable WiFi connections") plus the degraded classes used for fault
/// studies.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessLink {
    /// Stable home/office WiFi — the paper's controlled setup.
    StableWifi,
    /// LTE: slightly higher base delay, more jitter.
    Lte,
    /// Congested public WiFi: heavy jitter, occasional spikes.
    CongestedWifi,
}

impl AccessLink {
    /// (base seconds, mean jitter seconds, uplink bytes/sec) for the class.
    fn params(&self) -> (f64, f64, f64) {
        match self {
            AccessLink::StableWifi => (0.015, 0.008, 2.5e6),
            AccessLink::Lte => (0.040, 0.020, 1.5e6),
            AccessLink::CongestedWifi => (0.060, 0.120, 0.8e6),
        }
    }

    /// Samples the access-link contribution for a payload.
    pub fn sample_delay<R: Rng>(&self, rng: &mut R, payload_bytes: usize) -> SimDuration {
        let (base, jitter_mean, bw) = self.params();
        let jitter = sample_exponential(rng, jitter_mean);
        let tx = payload_bytes as f64 / bw;
        SimDuration::from_secs_f64(base + jitter + tx)
    }

    /// Jitter-free expectation, used in tests and capacity planning.
    pub fn expected_delay(&self, payload_bytes: usize) -> SimDuration {
        let (base, jitter_mean, bw) = self.params();
        SimDuration::from_secs_f64(base + jitter_mean + payload_bytes as f64 / bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn expected_delay_grows_with_distance_and_size() {
        let m = LatencyModel::default();
        let near = m.expected_delay(10.0, 1_000);
        let far = m.expected_delay(8_000.0, 1_000);
        assert!(far > near);
        let small = m.expected_delay(100.0, 100);
        let big = m.expected_delay(100.0, 1_000_000);
        assert!(big > small);
    }

    #[test]
    fn transcontinental_delay_is_tens_of_ms() {
        // SF → Ashburn ≈ 3 900 km: expect ~40-60 ms one-way with inflation.
        let m = LatencyModel::default();
        let d = m.expected_delay(3_900.0, 1_400).as_secs_f64();
        assert!((0.03..0.08).contains(&d), "one-way delay {d}");
    }

    #[test]
    fn co_located_delay_is_single_digit_ms_class() {
        let m = LatencyModel::inter_datacenter();
        let d = m.expected_delay(3.0, 10_000).as_secs_f64();
        assert!(d < 0.010, "co-located delay {d}");
    }

    #[test]
    fn sampled_delay_is_at_least_expected() {
        let m = LatencyModel::default();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            let s = m.sample_delay(&mut rng, 500.0, 1_000);
            assert!(s >= m.expected_delay(500.0, 1_000));
        }
    }

    #[test]
    fn exponential_sample_mean_converges() {
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 20_000;
        let mean = 0.05;
        let total: f64 = (0..n).map(|_| sample_exponential(&mut rng, mean)).sum();
        let observed = total / n as f64;
        assert!(
            (observed - mean).abs() < 0.005,
            "exp mean drifted: {observed}"
        );
    }

    #[test]
    fn exponential_zero_mean_is_zero() {
        let mut rng = SmallRng::seed_from_u64(7);
        assert_eq!(sample_exponential(&mut rng, 0.0), 0.0);
        assert_eq!(sample_exponential(&mut rng, -1.0), 0.0);
    }

    #[test]
    fn access_links_rank_as_expected() {
        let payload = 10_000;
        let wifi = AccessLink::StableWifi.expected_delay(payload);
        let lte = AccessLink::Lte.expected_delay(payload);
        let bad = AccessLink::CongestedWifi.expected_delay(payload);
        assert!(wifi < lte && lte < bad);
    }

    #[test]
    fn access_link_samples_are_positive_and_bounded_sane() {
        let mut rng = SmallRng::seed_from_u64(3);
        for link in [
            AccessLink::StableWifi,
            AccessLink::Lte,
            AccessLink::CongestedWifi,
        ] {
            for _ in 0..200 {
                let d = link.sample_delay(&mut rng, 5_000).as_secs_f64();
                assert!(d > 0.0 && d < 10.0, "{link:?} sample {d}");
            }
        }
    }
}
