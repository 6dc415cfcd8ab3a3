//! Frame delivery through the multicast tree: one transmission per tree
//! edge, one per attached viewer at its leaf — with sampled link delays
//! and per-node work accounting.

use std::collections::{BTreeMap, HashMap};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use livescope_net::datacenters::{self, DatacenterId};
use livescope_net::geo::GeoPoint;
use livescope_net::{AccessLink, Link};
use livescope_sim::{RngPool, SimDuration, SimTime};
use livescope_telemetry::{Section, Telemetry};

use crate::tree::MulticastTree;

/// Result of pushing one frame through the tree.
#[derive(Clone, Debug)]
pub struct DeliveryOutcome {
    /// Per-viewer end-to-end delay from the instant the root had the
    /// frame, in viewer-id order of registration.
    pub viewer_delays: Vec<(u64, SimDuration)>,
    /// Transmissions performed by the root (its scalability cost).
    pub root_sends: u64,
    /// Transmissions across all servers, viewer last-miles included.
    pub total_sends: u64,
}

/// The overlay's data plane: inter-server links, per-viewer last miles,
/// and cumulative work counters.
pub struct OverlayNetwork {
    rng: SmallRng,
    links: HashMap<(u16, u16), Link>,
    /// Viewer → (its leaf, its last-mile link), in registration order.
    viewers: Vec<(u64, DatacenterId, Link)>,
    /// Cumulative per-server forward counts (Fig 14-style accounting).
    pub forwards: BTreeMap<DatacenterId, u64>,
    /// Wall-clock sections for the relay path (`handler.overlay.*_ns`);
    /// inert unless a recording telemetry handle is attached.
    sec_tree_walk: Section,
    sec_last_mile: Section,
}

impl OverlayNetwork {
    /// A fresh network.
    pub fn new(pool: &RngPool) -> Self {
        OverlayNetwork {
            rng: SmallRng::seed_from_u64(pool.stream_seed("overlay")),
            links: HashMap::new(),
            viewers: Vec::new(),
            forwards: BTreeMap::new(),
            sec_tree_walk: Section::default(),
            sec_last_mile: Section::default(),
        }
    }

    /// Attaches telemetry: wall-clock sections over the two halves of
    /// [`OverlayNetwork::push_frame`] (the inter-server tree walk and the
    /// per-viewer last-mile loop), recorded when `telemetry` records.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.sec_tree_walk = Section::new(telemetry, "overlay", "tree_walk");
        self.sec_last_mile = Section::new(telemetry, "overlay", "last_mile");
    }

    /// Registers a viewer's last-mile link from its leaf server. Call
    /// alongside [`MulticastTree::join`].
    pub fn attach_viewer(&mut self, viewer: u64, leaf: DatacenterId, location: &GeoPoint) {
        let link = Link::device_path(
            location,
            &datacenters::datacenter(leaf).location,
            AccessLink::StableWifi,
        );
        self.viewers.push((viewer, leaf, link));
    }

    /// Removes a viewer's registration (pair with [`MulticastTree::leave`]).
    pub fn detach_viewer(&mut self, viewer: u64) {
        self.viewers.retain(|(v, _, _)| *v != viewer);
    }

    fn server_delay(
        &mut self,
        from: DatacenterId,
        to: DatacenterId,
        bytes: usize,
        now: SimTime,
    ) -> SimDuration {
        let link = self.links.entry((from.0, to.0)).or_insert_with(|| {
            Link::between_datacenters(
                &datacenters::datacenter(from).location,
                &datacenters::datacenter(to).location,
            )
        });
        link.transmit(&mut self.rng, now, bytes)
            .delay()
            .expect("inter-server links are loss-free")
    }

    /// Pushes one frame of `bytes` through `tree` at `now`.
    pub fn push_frame(
        &mut self,
        tree: &MulticastTree,
        now: SimTime,
        bytes: usize,
    ) -> DeliveryOutcome {
        // Frame arrival at each server, walking edges in forwarding order
        // (the DFS guarantees parents precede children).
        let mut at_server: HashMap<DatacenterId, SimTime> = HashMap::new();
        at_server.insert(tree.root(), now);
        let mut root_sends = 0;
        let mut total_sends = 0;
        let tree_walk = self.sec_tree_walk.clone();
        tree_walk.time(|| {
            for (parent, child) in tree.edges() {
                let parent_time = at_server[&parent];
                let delay = self.server_delay(parent, child, bytes, parent_time);
                at_server.insert(child, parent_time + delay);
                *self.forwards.entry(parent).or_default() += 1;
                total_sends += 1;
                if parent == tree.root() {
                    root_sends += 1;
                }
            }
        });
        // Leaf → viewer last miles.
        let Self {
            rng,
            viewers,
            forwards,
            sec_last_mile,
            ..
        } = self;
        let mut viewer_delays = Vec::with_capacity(viewers.len());
        sec_last_mile.time(|| {
            for (viewer, leaf, link) in viewers.iter_mut() {
                let Some(&leaf_time) = at_server.get(leaf) else {
                    continue; // leaf not in this tree (viewer of another broadcast)
                };
                let delay = link
                    .transmit(rng, leaf_time, bytes)
                    .delay()
                    // A dropped push is retransmitted by TCP; model as slow.
                    .unwrap_or(SimDuration::from_millis(500));
                *forwards.entry(*leaf).or_default() += 1;
                total_sends += 1;
                viewer_delays.push((*viewer, (leaf_time + delay).saturating_since(now)));
            }
        });
        DeliveryOutcome {
            viewer_delays,
            root_sends,
            total_sends,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::Hierarchy;

    fn world() -> (MulticastTree, OverlayNetwork) {
        let tree = MulticastTree::new(DatacenterId(0), Hierarchy::new());
        let net = OverlayNetwork::new(&RngPool::new(5));
        (tree, net)
    }

    fn join(
        tree: &mut MulticastTree,
        net: &mut OverlayNetwork,
        viewer: u64,
        lat: f64,
        lon: f64,
    ) -> DatacenterId {
        let location = GeoPoint::new(lat, lon);
        let leaf = Hierarchy::nearest_leaf(&location);
        tree.join(viewer, leaf);
        net.attach_viewer(viewer, leaf, &location);
        leaf
    }

    #[test]
    fn every_viewer_receives_each_frame_once() {
        let (mut tree, mut net) = world();
        join(&mut tree, &mut net, 1, 40.71, -74.01); // NYC
        join(&mut tree, &mut net, 2, 51.51, -0.13); // London
        join(&mut tree, &mut net, 3, 35.68, 139.65); // Tokyo
        let outcome = net.push_frame(&tree, SimTime::ZERO, 2_500);
        assert_eq!(outcome.viewer_delays.len(), 3);
        let ids: Vec<u64> = outcome.viewer_delays.iter().map(|(v, _)| *v).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        for (v, d) in &outcome.viewer_delays {
            assert!(d.as_secs_f64() > 0.0, "viewer {v}");
            assert!(d.as_secs_f64() < 1.0, "viewer {v}: {d}");
        }
    }

    #[test]
    fn root_cost_is_constant_in_audience_size() {
        let (mut tree, mut net) = world();
        for v in 0..400u64 {
            let (lat, lon) = [
                (40.71, -74.01),
                (51.51, -0.13),
                (35.68, 139.65),
                (-33.87, 151.21),
            ][v as usize % 4];
            join(&mut tree, &mut net, v, lat, lon);
        }
        let outcome = net.push_frame(&tree, SimTime::ZERO, 2_500);
        assert_eq!(outcome.viewer_delays.len(), 400);
        assert!(
            outcome.root_sends <= 4,
            "root sent {} times for 400 viewers",
            outcome.root_sends
        );
        // Total sends = edges + one last-mile per viewer.
        assert!(outcome.total_sends >= 400);
        assert!(outcome.total_sends <= 400 + 24);
    }

    #[test]
    fn nearby_viewers_hear_sooner_than_far_ones() {
        let (mut tree, mut net) = world(); // root: Ashburn
        join(&mut tree, &mut net, 1, 39.0, -77.5); // DC metro
        join(&mut tree, &mut net, 2, -33.87, 151.21); // Sydney
                                                      // Average over repeated frames to smooth jitter.
        let mut near = 0.0;
        let mut far = 0.0;
        for i in 0..50u64 {
            let outcome = net.push_frame(&tree, SimTime::from_millis(i * 40), 2_500);
            near += outcome.viewer_delays[0].1.as_secs_f64();
            far += outcome.viewer_delays[1].1.as_secs_f64();
        }
        assert!(far > near * 1.5, "far {far} vs near {near}");
    }

    #[test]
    fn detached_viewers_stop_receiving() {
        let (mut tree, mut net) = world();
        join(&mut tree, &mut net, 1, 40.71, -74.01);
        join(&mut tree, &mut net, 2, 51.51, -0.13);
        tree.leave(1);
        net.detach_viewer(1);
        let outcome = net.push_frame(&tree, SimTime::ZERO, 2_500);
        assert_eq!(outcome.viewer_delays.len(), 1);
        assert_eq!(outcome.viewer_delays[0].0, 2);
    }

    #[test]
    fn forward_counters_accumulate_per_server() {
        let (mut tree, mut net) = world();
        join(&mut tree, &mut net, 1, 35.68, 139.65);
        for i in 0..10u64 {
            net.push_frame(&tree, SimTime::from_millis(i * 40), 2_500);
        }
        let root_forwards = net.forwards[&tree.root()];
        assert_eq!(root_forwards, 10, "one send per frame at the root");
        let total: u64 = net.forwards.values().sum();
        assert!(total > root_forwards);
    }
}
