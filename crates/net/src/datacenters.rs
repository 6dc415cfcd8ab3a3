//! The datacenter map from Fig 9 of the paper.
//!
//! The paper located Periscope's video CDN at **8 Wowza sites running on
//! Amazon EC2** (found via 273 PlanetLab vantage points resolving stream
//! URLs) and **23 Fastly POPs** (from Fastly's published network map at
//! measurement time, i.e. before the December 2015 additions of Perth,
//! Wellington and São Paulo). Two facts drive the §5.3 analysis and we
//! encode them as tests here:
//!
//! * 6 of 8 Wowza sites have a Fastly POP *in the same city*;
//! * 7 of 8 are on the same continent as some Fastly POP — the exception is
//!   South America (São Paulo EC2), where Fastly had no site.

use crate::geo::{Continent, GeoPoint};
use std::fmt;

/// Which CDN operates a site.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Provider {
    /// Ingest CDN: RTMP push, runs on EC2.
    Wowza,
    /// Edge CDN: HLS chunk delivery.
    Fastly,
}

impl fmt::Display for Provider {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Provider::Wowza => "Wowza",
            Provider::Fastly => "Fastly",
        })
    }
}

/// Index of a datacenter within [`all_datacenters`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct DatacenterId(pub u16);

/// A CDN site.
#[derive(Clone, Copy, Debug)]
pub struct Datacenter {
    pub id: DatacenterId,
    pub provider: Provider,
    /// City name; same-city pairs across providers are "co-located".
    pub city: &'static str,
    pub continent: Continent,
    pub location: GeoPoint,
}

impl Datacenter {
    /// True when `other` is in the same city (the co-location relation used
    /// by the gateway replication model and Fig 15).
    pub fn co_located_with(&self, other: &Datacenter) -> bool {
        self.city == other.city
    }
}

macro_rules! dc {
    ($id:expr, $prov:ident, $city:expr, $cont:ident, $lat:expr, $lon:expr) => {
        Datacenter {
            id: DatacenterId($id),
            provider: Provider::$prov,
            city: $city,
            continent: Continent::$cont,
            location: GeoPoint {
                lat: $lat,
                lon: $lon,
            },
        }
    };
}

/// The 8 Wowza sites (2015-era EC2 regions) followed by the 23 Fastly POPs.
///
/// Coordinates are city centroids — precise enough for great-circle delay
/// modelling, where a few km inside a metro is noise against inter-city
/// distances.
pub const DATACENTERS: [Datacenter; 31] = [
    // --- Wowza on EC2 (8) ---
    dc!(0, Wowza, "Ashburn", NorthAmerica, 39.0438, -77.4874),
    dc!(1, Wowza, "San Jose", NorthAmerica, 37.3382, -121.8863),
    dc!(2, Wowza, "Portland", NorthAmerica, 45.5152, -122.6784),
    dc!(3, Wowza, "Sao Paulo", SouthAmerica, -23.5505, -46.6333),
    dc!(4, Wowza, "Dublin", Europe, 53.3498, -6.2603),
    dc!(5, Wowza, "Frankfurt", Europe, 50.1109, 8.6821),
    dc!(6, Wowza, "Singapore", Asia, 1.3521, 103.8198),
    dc!(7, Wowza, "Tokyo", Asia, 35.6762, 139.6503),
    // --- Fastly POPs (23) ---
    dc!(8, Fastly, "Ashburn", NorthAmerica, 39.0438, -77.4874),
    dc!(9, Fastly, "New York", NorthAmerica, 40.7128, -74.0060),
    dc!(10, Fastly, "Boston", NorthAmerica, 42.3601, -71.0589),
    dc!(11, Fastly, "Atlanta", NorthAmerica, 33.7490, -84.3880),
    dc!(12, Fastly, "Miami", NorthAmerica, 25.7617, -80.1918),
    dc!(13, Fastly, "Chicago", NorthAmerica, 41.8781, -87.6298),
    dc!(14, Fastly, "Dallas", NorthAmerica, 32.7767, -96.7970),
    dc!(15, Fastly, "Denver", NorthAmerica, 39.7392, -104.9903),
    dc!(16, Fastly, "Los Angeles", NorthAmerica, 34.0522, -118.2437),
    dc!(17, Fastly, "San Jose", NorthAmerica, 37.3382, -121.8863),
    dc!(18, Fastly, "Seattle", NorthAmerica, 47.6062, -122.3321),
    dc!(19, Fastly, "Minneapolis", NorthAmerica, 44.9778, -93.2650),
    dc!(20, Fastly, "Toronto", NorthAmerica, 43.6532, -79.3832),
    dc!(21, Fastly, "London", Europe, 51.5074, -0.1278),
    dc!(22, Fastly, "Amsterdam", Europe, 52.3676, 4.9041),
    dc!(23, Fastly, "Frankfurt", Europe, 50.1109, 8.6821),
    dc!(24, Fastly, "Paris", Europe, 48.8566, 2.3522),
    dc!(25, Fastly, "Stockholm", Europe, 59.3293, 18.0686),
    dc!(26, Fastly, "Dublin", Europe, 53.3498, -6.2603),
    dc!(27, Fastly, "Tokyo", Asia, 35.6762, 139.6503),
    dc!(28, Fastly, "Singapore", Asia, 1.3521, 103.8198),
    dc!(29, Fastly, "Hong Kong", Asia, 22.3193, 114.1694),
    dc!(30, Fastly, "Sydney", Oceania, -33.8688, 151.2093),
];

/// All sites.
pub fn all_datacenters() -> &'static [Datacenter] {
    &DATACENTERS
}

/// Sites operated by `provider`.
pub fn by_provider(provider: Provider) -> impl Iterator<Item = &'static Datacenter> {
    DATACENTERS.iter().filter(move |d| d.provider == provider)
}

/// Looks a site up by id.
///
/// # Panics
/// Panics on an unknown id; ids only come from this module.
pub fn datacenter(id: DatacenterId) -> &'static Datacenter {
    &DATACENTERS[id.0 as usize]
}

/// The nearest site of `provider` to `point` (IP-anycast approximation the
/// paper observed for Fastly viewers and Wowza broadcasters).
pub fn nearest(provider: Provider, point: &GeoPoint) -> &'static Datacenter {
    by_provider(provider)
        .min_by(|a, b| {
            a.location
                .distance_km(point)
                .partial_cmp(&b.location.distance_km(point))
                .expect("distances are finite")
        })
        .expect("registry is non-empty")
}

/// The Fastly POP co-located with the given Wowza site, if any. The paper
/// infers (§5.3) that chunk replication flows Wowza → co-located Fastly
/// gateway → other Fastly POPs; this lookup is that first hop.
pub fn co_located_fastly(wowza: &Datacenter) -> Option<&'static Datacenter> {
    assert_eq!(wowza.provider, Provider::Wowza);
    by_provider(Provider::Fastly).find(|f| f.co_located_with(wowza))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_8_wowza_and_23_fastly() {
        assert_eq!(by_provider(Provider::Wowza).count(), 8);
        assert_eq!(by_provider(Provider::Fastly).count(), 23);
    }

    #[test]
    fn ids_match_positions() {
        for (i, dc) in DATACENTERS.iter().enumerate() {
            assert_eq!(dc.id.0 as usize, i);
            assert_eq!(datacenter(dc.id).city, dc.city);
        }
    }

    #[test]
    fn six_of_eight_wowza_sites_are_co_located() {
        // The paper: "for 6 out of 8 Wowza datacenters, there is a Fastly
        // datacenter co-located in the same city".
        let co_located = by_provider(Provider::Wowza)
            .filter(|w| co_located_fastly(w).is_some())
            .count();
        assert_eq!(co_located, 6);
    }

    #[test]
    fn seven_of_eight_wowza_sites_share_a_continent_with_fastly() {
        // "7 out of 8 are co-located in the same continent. The only
        // exception is South America where Fastly has no site."
        let same_continent = by_provider(Provider::Wowza)
            .filter(|w| by_provider(Provider::Fastly).any(|f| f.continent == w.continent))
            .count();
        assert_eq!(same_continent, 7);
        let exception = by_provider(Provider::Wowza)
            .find(|w| !by_provider(Provider::Fastly).any(|f| f.continent == w.continent))
            .unwrap();
        assert_eq!(exception.continent, Continent::SouthAmerica);
    }

    #[test]
    fn fastly_covers_four_continents() {
        // "covering North America, Europe, Asia, and Oceania".
        use std::collections::BTreeSet;
        let continents: BTreeSet<_> = by_provider(Provider::Fastly).map(|d| d.continent).collect();
        assert_eq!(continents.len(), 4);
        assert!(continents.contains(&Continent::NorthAmerica));
        assert!(continents.contains(&Continent::Europe));
        assert!(continents.contains(&Continent::Asia));
        assert!(continents.contains(&Continent::Oceania));
        assert!(!continents.contains(&Continent::SouthAmerica));
    }

    #[test]
    fn nearest_picks_the_obvious_site() {
        // A client in Oakland should hit San Jose for both providers.
        let oakland = GeoPoint::new(37.8044, -122.2712);
        assert_eq!(nearest(Provider::Wowza, &oakland).city, "San Jose");
        assert_eq!(nearest(Provider::Fastly, &oakland).city, "San Jose");
        // A client in Rio should hit São Paulo Wowza but a US Fastly POP.
        let rio = GeoPoint::new(-22.9068, -43.1729);
        assert_eq!(nearest(Provider::Wowza, &rio).city, "Sao Paulo");
        assert_eq!(
            nearest(Provider::Fastly, &rio).continent,
            Continent::NorthAmerica
        );
    }

    #[test]
    fn co_located_lookup_is_exact_city_match() {
        let portland = by_provider(Provider::Wowza)
            .find(|d| d.city == "Portland")
            .unwrap();
        // Seattle is close to Portland but NOT co-located.
        assert!(co_located_fastly(portland).is_none());
        let tokyo = by_provider(Provider::Wowza)
            .find(|d| d.city == "Tokyo")
            .unwrap();
        assert_eq!(co_located_fastly(tokyo).unwrap().city, "Tokyo");
    }

    #[test]
    #[should_panic]
    fn co_located_fastly_rejects_fastly_input() {
        let fastly = by_provider(Provider::Fastly).next().unwrap();
        let _ = co_located_fastly(fastly);
    }
}
