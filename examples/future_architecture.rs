//! The paper's §8 closing idea, live: replace per-viewer RTMP state and
//! HLS polling with a receiver-driven overlay multicast tree, then watch
//! a 3,000-viewer broadcast get RTMP-grade latency at HLS-grade origin
//! cost.
//!
//! ```sh
//! cargo run -p livescope-examples --release --bin future_architecture
//! ```

use livescope_core::overlay_ext::{run, OverlayConfig, VIEWER_CITIES};
use livescope_net::datacenters::{self, DatacenterId};
use livescope_net::geo::GeoPoint;
use livescope_overlay::{Hierarchy, MulticastTree};

fn main() {
    // 1. Show the forwarding hierarchy the tree grows over.
    let hierarchy = Hierarchy::new();
    println!("forwarding hierarchy (root = broadcast's ingest site):");
    for gw in hierarchy.gateways() {
        let dc = datacenters::datacenter(gw);
        println!("  gateway {:<12} ({})", dc.city, dc.continent);
    }

    // 2. Grow a tree for a 3,000-viewer global broadcast and show how
    //    little of it the origin ever sees.
    let mut tree = MulticastTree::new(DatacenterId(0), hierarchy);
    for v in 0..3_000u64 {
        let (lat, lon) = VIEWER_CITIES[v as usize % VIEWER_CITIES.len()];
        let leaf = Hierarchy::nearest_leaf(&GeoPoint::new(lat, lon));
        tree.join(v, leaf);
    }
    println!(
        "\n3,000 viewers joined: origin fan-out {} children, {} servers hold state",
        tree.root_degree(),
        tree.active_servers()
    );
    for child in tree.children(tree.root()) {
        let dc = datacenters::datacenter(child);
        println!(
            "  root -> {:<12} subtree serves {} leaf attachments downstream",
            dc.city,
            tree.children(child).len()
        );
    }

    // 3. The quantified comparison against the paper's two real paths.
    println!();
    let report = run(&OverlayConfig::default());
    println!("{}", report.render());
    println!(
        "The §8 trade: RTMP-grade delay at any audience size, paid for with\n\
         forwarding state on ~{} interior servers instead of the origin.",
        tree.active_servers()
    );
}
