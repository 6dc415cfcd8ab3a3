//! A simulated unidirectional link: latency model + optional access link +
//! fault injection, combined into one sampler.
//!
//! The CDN and client crates call [`Link::transmit`] for every payload and
//! schedule the arrival event (or don't, on a drop). The link itself never
//! touches the scheduler, so it can be exercised exhaustively in unit and
//! property tests.

use livescope_sim::{SimDuration, SimTime};
use rand::Rng;

use crate::fault::{FaultConfig, FaultInjector, Verdict};
use crate::geo::GeoPoint;
use crate::latency::{AccessLink, LatencyModel};

/// Outcome of pushing a payload onto a link.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Delivery {
    /// Arrives after `delay`; `corrupt_offset` is `Some` when the fault
    /// injector flipped an octet and the receiver should see mutated bytes.
    Arrives {
        delay: SimDuration,
        corrupt_offset: Option<usize>,
    },
    /// Lost in transit (random drop or rate limiting).
    Lost,
}

impl Delivery {
    /// Convenience: the delay if the payload arrives.
    pub fn delay(&self) -> Option<SimDuration> {
        match self {
            Delivery::Arrives { delay, .. } => Some(*delay),
            Delivery::Lost => None,
        }
    }
}

/// A unidirectional path between two fixed points.
#[derive(Clone, Debug)]
pub struct Link {
    /// Endpoint coordinates (used once, to fix the distance).
    distance_km: f64,
    wide_area: LatencyModel,
    /// Access link on the client end, if one endpoint is a device rather
    /// than a datacenter.
    access: Option<AccessLink>,
    faults: FaultInjector,
}

impl Link {
    /// A clean datacenter-to-datacenter link.
    pub fn between_datacenters(a: &GeoPoint, b: &GeoPoint) -> Self {
        Link {
            distance_km: a.distance_km(b),
            wide_area: LatencyModel::inter_datacenter(),
            access: None,
            faults: FaultInjector::new(FaultConfig::none()),
        }
    }

    /// A device↔datacenter link over the given access class.
    pub fn device_path(device: &GeoPoint, datacenter: &GeoPoint, access: AccessLink) -> Self {
        Link {
            distance_km: device.distance_km(datacenter),
            wide_area: LatencyModel::default(),
            access: Some(access),
            faults: FaultInjector::new(FaultConfig::none()),
        }
    }

    /// Installs fault injection on this link.
    pub fn with_faults(mut self, config: FaultConfig) -> Self {
        self.faults = FaultInjector::new(config);
        self
    }

    /// Great-circle distance of this link in km.
    pub fn distance_km(&self) -> f64 {
        self.distance_km
    }

    /// Fault counters, for observability in tests.
    pub fn fault_stats(&self) -> (u64, u64, u64, u64) {
        (
            self.faults.passed,
            self.faults.dropped,
            self.faults.corrupted,
            self.faults.rate_limited,
        )
    }

    /// Jitter- and fault-free delay for a payload: the calibration anchor.
    pub fn expected_delay(&self, payload_bytes: usize) -> SimDuration {
        let mut d = self
            .wide_area
            .expected_delay(self.distance_km, payload_bytes);
        if let Some(access) = self.access {
            d += access.expected_delay(payload_bytes);
        }
        d
    }

    /// Samples the fate of one payload sent at `now`.
    pub fn transmit<R: Rng>(
        &mut self,
        rng: &mut R,
        now: SimTime,
        payload_bytes: usize,
    ) -> Delivery {
        match self.faults.judge(rng, now, payload_bytes) {
            Verdict::Dropped | Verdict::RateLimited => Delivery::Lost,
            verdict => {
                let mut delay = self
                    .wide_area
                    .sample_delay(rng, self.distance_km, payload_bytes);
                if let Some(access) = self.access {
                    delay += access.sample_delay(rng, payload_bytes);
                }
                let corrupt_offset = match verdict {
                    Verdict::Corrupted { offset } => Some(offset),
                    _ => None,
                };
                Delivery::Arrives {
                    delay,
                    corrupt_offset,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn sf() -> GeoPoint {
        GeoPoint::new(37.7749, -122.4194)
    }
    fn ashburn() -> GeoPoint {
        GeoPoint::new(39.0438, -77.4874)
    }

    #[test]
    fn clean_link_always_arrives() {
        let mut link = Link::between_datacenters(&sf(), &ashburn());
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            match link.transmit(&mut rng, SimTime::ZERO, 1400) {
                Delivery::Arrives {
                    delay,
                    corrupt_offset,
                } => {
                    assert!(delay >= link.expected_delay(1400));
                    assert!(corrupt_offset.is_none());
                }
                Delivery::Lost => panic!("clean link lost a payload"),
            }
        }
    }

    #[test]
    fn device_path_is_slower_than_datacenter_path() {
        let dc = Link::between_datacenters(&sf(), &ashburn());
        let dev = Link::device_path(&sf(), &ashburn(), AccessLink::StableWifi);
        assert!(dev.expected_delay(1400) > dc.expected_delay(1400));
    }

    #[test]
    fn lossy_link_loses_roughly_the_configured_fraction() {
        let mut link = Link::between_datacenters(&sf(), &ashburn()).with_faults(FaultConfig {
            drop_chance: 0.25,
            ..FaultConfig::none()
        });
        let mut rng = SmallRng::seed_from_u64(2);
        let n = 10_000;
        let lost = (0..n)
            .filter(|i| link.transmit(&mut rng, SimTime::from_millis(*i), 100) == Delivery::Lost)
            .count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "loss rate {rate}");
    }

    #[test]
    fn corruption_surfaces_in_delivery() {
        let mut link = Link::between_datacenters(&sf(), &ashburn()).with_faults(FaultConfig {
            corrupt_chance: 1.0,
            ..FaultConfig::none()
        });
        let mut rng = SmallRng::seed_from_u64(3);
        match link.transmit(&mut rng, SimTime::ZERO, 64) {
            Delivery::Arrives { corrupt_offset, .. } => {
                assert!(corrupt_offset.unwrap() < 64);
            }
            Delivery::Lost => panic!("corrupting link should still deliver"),
        }
    }

    #[test]
    fn delivery_delay_accessor() {
        assert_eq!(Delivery::Lost.delay(), None);
        let d = Delivery::Arrives {
            delay: SimDuration::from_millis(5),
            corrupt_offset: None,
        };
        assert_eq!(d.delay(), Some(SimDuration::from_millis(5)));
    }
}
