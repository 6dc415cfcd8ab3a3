//! # livescope-net — geo-aware network model with fault injection
//!
//! The IMC'16 paper's delay analysis hinges on *where* things are: each
//! broadcaster uploads to the nearest Wowza datacenter, each HLS viewer is
//! anycast to the nearest Fastly POP, and chunk replication between CDNs is
//! dominated by inter-datacenter distance plus a co-located-gateway hop
//! (§5.3, Fig 15). This crate provides:
//!
//! * [`geo`] — coordinates, great-circle distances, continents;
//! * [`datacenters`] — the 8 Wowza/EC2 sites and 23 Fastly POPs the paper
//!   mapped (Fig 9), including the co-location facts it reports (6/8 same
//!   city, 7/8 same continent, the exception being South America);
//! * [`latency`] — propagation + route-inflation + jitter delay model and a
//!   last-mile access-link model (WiFi / LTE / congested);
//! * [`fault`] — smoltcp-style fault injection: drop chance, corrupt
//!   chance, token-bucket rate limiting;
//! * [`link`] — a [`link::Link`] combining all of the above into a single
//!   "what happens to this payload?" sampler that the CDN simulation feeds
//!   into the event scheduler.
//!
//! The crate is *pure*: it computes delays and verdicts but never touches
//! the scheduler, which keeps the layering simple and every sample unit
//! testable.

pub mod datacenters;
pub mod fault;
pub mod geo;
pub mod latency;
pub mod link;

pub use datacenters::{Datacenter, DatacenterId, Provider};
pub use fault::{FaultConfig, FaultInjector, Verdict};
pub use geo::{Continent, GeoPoint};
pub use latency::{AccessLink, LatencyModel};
pub use link::{Delivery, Link};
