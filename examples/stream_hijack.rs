//! The §7 security story as a demo: hijack an unprotected broadcast from
//! the broadcaster's WiFi, show the viewer's screen going black while the
//! broadcaster sees nothing wrong, then replay the same attack against a
//! signed stream and watch the ingest server shut it down.
//!
//! All parties are simulated; this is the paper's responsibly-disclosed
//! proof-of-concept, not a tool. The vulnerability was reported to both
//! vendors in 2015.
//!
//! ```sh
//! cargo run -p livescope-examples --bin stream_hijack
//! ```

use livescope_core::security::{run, AttackSide, SecurityConfig};
use livescope_security::SigningPolicy;

fn main() {
    println!("=== scenario: attacker on the broadcaster's coffee-shop WiFi ===\n");
    let config = SecurityConfig::default();

    let before = run(&config, false);
    println!("without the defense:");
    println!("{}\n", before.render("  broadcaster-side"));
    println!(
        "  -> the attacker read the broadcast token off the plaintext RTMP connect,\n\
         \u{20}    rewrote all {} frames, and every viewer watched black frames while\n\
         \u{20}    the broadcaster's preview showed the real camera feed.\n",
        before.frames_tampered
    );

    let after = run(&config, true);
    println!("with per-frame signatures (§7.2 defense):");
    println!("{}\n", after.render("  broadcaster-side"));
    println!(
        "  -> same interceptor, same rewrite; the ingest server verified each\n\
         \u{20}    frame's signature and rejected all {} tampered frames.\n",
        after.rejected_at_ingest
    );

    println!("=== cost of the defense (viewer-side verification) ===\n");
    for (name, policy) in [
        ("sign every frame  ", SigningPolicy::EveryFrame),
        ("sign every 10th   ", SigningPolicy::EveryKth(10)),
        ("hash-chain of 25  ", SigningPolicy::HashChain(25)),
    ] {
        let report = run(
            &SecurityConfig {
                side: AttackSide::Viewer,
                policy,
                ..SecurityConfig::default()
            },
            true,
        );
        println!(
            "  {name} {:>4} signatures for 250 frames — attack {}",
            report.signatures_produced,
            if report.attack_succeeded() {
                "SUCCEEDED"
            } else {
                "DEFEATED"
            }
        );
    }
    println!(
        "\nhash-chaining gets full coverage at 1/25th the signing cost, at the\n\
         price of detection lagging to the end of each 1-second group —\n\
         exactly the trade-off §7.2 proposes."
    );
}
