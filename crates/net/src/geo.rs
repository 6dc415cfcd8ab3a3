//! Geographic primitives: points, great-circle distance, continents.

use std::fmt;

/// Mean Earth radius in kilometres (IUGG value).
pub const EARTH_RADIUS_KM: f64 = 6_371.0;

/// A point on the Earth's surface in decimal degrees.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct GeoPoint {
    /// Latitude, degrees north, in `[-90, 90]`.
    pub lat: f64,
    /// Longitude, degrees east, in `[-180, 180]`.
    pub lon: f64,
}

impl GeoPoint {
    /// Constructs a point, panicking on out-of-range coordinates — these
    /// come from static tables or generators, so a bad value is a bug.
    pub fn new(lat: f64, lon: f64) -> Self {
        assert!(
            (-90.0..=90.0).contains(&lat),
            "latitude out of range: {lat}"
        );
        assert!(
            (-180.0..=180.0).contains(&lon),
            "longitude out of range: {lon}"
        );
        GeoPoint { lat, lon }
    }

    /// Great-circle distance to `other` in kilometres (haversine formula).
    pub fn distance_km(&self, other: &GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * a.sqrt().asin()
    }
}

impl fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2})", self.lat, self.lon)
    }
}

/// Continent classification used by the Fig 15 distance-bucket analysis and
/// the Fig 9 co-location summary.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Continent {
    NorthAmerica,
    SouthAmerica,
    Europe,
    Asia,
    Oceania,
    Africa,
}

impl fmt::Display for Continent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Continent::NorthAmerica => "North America",
            Continent::SouthAmerica => "South America",
            Continent::Europe => "Europe",
            Continent::Asia => "Asia",
            Continent::Oceania => "Oceania",
            Continent::Africa => "Africa",
        };
        f.write_str(name)
    }
}

/// Distance buckets used by Fig 15 ("co-located", "(0, 500 km]", ...).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum DistanceBucket {
    /// Same city (the paper treats same-city datacenter pairs specially:
    /// the co-located Fastly site acts as the replication gateway).
    CoLocated,
    /// (0, 500] km.
    UpTo500,
    /// (500, 5 000] km.
    UpTo5000,
    /// (5 000, 10 000] km.
    UpTo10000,
    /// > 10 000 km.
    Beyond10000,
}

impl DistanceBucket {
    /// Buckets a distance, with `co_located` overriding the zero-ish range
    /// (two datacenters in the same city are a few km apart; co-location is
    /// a fact about the registry, not the raw distance).
    pub fn classify(distance_km: f64, co_located: bool) -> Self {
        if co_located {
            DistanceBucket::CoLocated
        } else if distance_km <= 500.0 {
            DistanceBucket::UpTo500
        } else if distance_km <= 5_000.0 {
            DistanceBucket::UpTo5000
        } else if distance_km <= 10_000.0 {
            DistanceBucket::UpTo10000
        } else {
            DistanceBucket::Beyond10000
        }
    }

    /// All buckets in increasing-distance order.
    pub fn all() -> [DistanceBucket; 5] {
        [
            DistanceBucket::CoLocated,
            DistanceBucket::UpTo500,
            DistanceBucket::UpTo5000,
            DistanceBucket::UpTo10000,
            DistanceBucket::Beyond10000,
        ]
    }

    /// Label matching the paper's Fig 15 legend.
    pub fn label(&self) -> &'static str {
        match self {
            DistanceBucket::CoLocated => "Co-located (0km)",
            DistanceBucket::UpTo500 => "(0, 500km]",
            DistanceBucket::UpTo5000 => "(500, 5,000km]",
            DistanceBucket::UpTo10000 => "(5,000, 10,000km]",
            DistanceBucket::Beyond10000 => ">10,000km",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sf() -> GeoPoint {
        GeoPoint::new(37.7749, -122.4194)
    }
    fn la() -> GeoPoint {
        GeoPoint::new(34.0522, -118.2437)
    }
    fn tokyo() -> GeoPoint {
        GeoPoint::new(35.6762, 139.6503)
    }

    #[test]
    fn distance_is_zero_to_self() {
        assert!(sf().distance_km(&sf()) < 1e-9);
    }

    #[test]
    fn distance_is_symmetric() {
        let d1 = sf().distance_km(&tokyo());
        let d2 = tokyo().distance_km(&sf());
        assert!((d1 - d2).abs() < 1e-9);
    }

    #[test]
    fn known_distances_are_approximately_right() {
        // SF–LA ≈ 559 km, SF–Tokyo ≈ 8 280 km.
        let sf_la = sf().distance_km(&la());
        assert!((540.0..580.0).contains(&sf_la), "SF-LA: {sf_la}");
        let sf_tokyo = sf().distance_km(&tokyo());
        assert!(
            (8_100.0..8_500.0).contains(&sf_tokyo),
            "SF-Tokyo: {sf_tokyo}"
        );
    }

    #[test]
    fn antipodal_distance_is_half_circumference() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(0.0, 180.0);
        let d = a.distance_km(&b);
        let half = std::f64::consts::PI * EARTH_RADIUS_KM;
        assert!((d - half).abs() < 1.0, "antipodal: {d} vs {half}");
    }

    #[test]
    #[should_panic(expected = "latitude")]
    fn bad_latitude_panics() {
        GeoPoint::new(91.0, 0.0);
    }

    #[test]
    fn bucket_classification_matches_fig15_legend() {
        assert_eq!(
            DistanceBucket::classify(3.0, true),
            DistanceBucket::CoLocated
        );
        assert_eq!(
            DistanceBucket::classify(3.0, false),
            DistanceBucket::UpTo500
        );
        assert_eq!(
            DistanceBucket::classify(559.0, false),
            DistanceBucket::UpTo5000
        );
        assert_eq!(
            DistanceBucket::classify(8_280.0, false),
            DistanceBucket::UpTo10000
        );
        assert_eq!(
            DistanceBucket::classify(16_000.0, false),
            DistanceBucket::Beyond10000
        );
    }

    #[test]
    fn bucket_labels_cover_all() {
        for b in DistanceBucket::all() {
            assert!(!b.label().is_empty());
        }
    }
}
