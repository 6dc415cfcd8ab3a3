//! Security integration: the §7 attack surface exercised through public
//! APIs only — token secrecy, replay, tampering, and the defense.

use bytes::Bytes;
use livescope_cdn::ids::UserId;
use livescope_cdn::wowza::IngestError;
use livescope_cdn::CdnError;
use livescope_core::security::{run, AttackSide, SecurityConfig};
use livescope_proto::control::{ControlResponse, Scheme, Sealed, StreamUrl};
use livescope_proto::rtmp::{Role, RtmpMessage};
use livescope_security::{Interceptor, SigningPolicy};
use livescope_sim::SimTime;
use livescope_tests::{live_broadcast, test_cluster};

#[test]
fn token_is_invisible_on_the_control_channel_but_leaks_on_rtmp() {
    let token = "super-secret-broadcast-token".to_string();
    let created = ControlResponse::Created {
        broadcast_id: 7,
        token: token.clone(),
        rtmp_url: StreamUrl {
            scheme: Scheme::Rtmp,
            dc: 0,
            broadcast_id: 7,
        },
        hls_url: StreamUrl {
            scheme: Scheme::Hls,
            dc: 9,
            broadcast_id: 7,
        },
    };
    // Control plane: sealed — the token is not findable in the ciphertext.
    let sealed = Sealed::seal(&created.encode(), 0xFEED, 1);
    let needle = token.as_bytes();
    assert!(
        !sealed.wire().windows(needle.len()).any(|w| w == needle),
        "control channel leaked the token"
    );
    // RTMP connect: plaintext — the same token is right there.
    let connect = RtmpMessage::Connect {
        token: token.clone(),
        role: Role::Publisher,
        user_id: 1,
    }
    .encode();
    assert!(connect.windows(needle.len()).any(|w| w == needle));
}

#[test]
fn stolen_token_cannot_double_publish_a_live_broadcast() {
    // The attacker harvested the token; trying to hijack the *session*
    // (connect as a second publisher) is refused while the victim is live.
    let mut cluster = test_cluster(11);
    let grant = live_broadcast(&mut cluster, UserId(1));
    let mut mitm = Interceptor::blackout();
    let connect = RtmpMessage::Connect {
        token: grant.token.clone(),
        role: Role::Publisher,
        user_id: 1,
    };
    mitm.process_rtmp(connect.encode());
    let stolen = mitm.stolen_tokens[0].clone();
    assert_eq!(stolen, grant.token);
    assert_eq!(
        cluster.connect_publisher(SimTime::ZERO, grant.id, &stolen),
        Err(CdnError::Ingest(IngestError::AlreadyPublishing))
    );
}

#[test]
fn tampered_wire_frames_flow_through_ingest_untouched_when_undefended() {
    let mut cluster = test_cluster(12);
    let grant = live_broadcast(&mut cluster, UserId(1));
    let mut mitm = Interceptor::blackout();
    let frame = livescope_tests::test_frame(0);
    let (tampered, _) = mitm.process_rtmp(RtmpMessage::Frame(frame).encode());
    // The server accepts the rewritten frame — that is the vulnerability.
    let outcome = cluster
        .ingest_frame(livescope_sim::SimTime::ZERO, grant.id, tampered)
        .expect("unauthenticated ingest accepts tampered frames");
    assert!(outcome.deliveries.is_empty()); // no subscribers yet, but accepted
    let origin = cluster.wowza[grant.wowza_dc.0 as usize].origin_chunks(grant.id);
    assert!(origin.is_empty()); // chunk not closed yet — frame is buffered
}

#[test]
fn corrupting_one_wire_byte_is_rejected_not_crashing() {
    let mut cluster = test_cluster(13);
    let grant = live_broadcast(&mut cluster, UserId(1));
    let wire = RtmpMessage::Frame(livescope_tests::test_frame(0)).encode();
    for position in 0..wire.len() {
        let mut corrupted = wire.to_vec();
        corrupted[position] ^= 0xFF;
        // Must never panic; may error or (payload-byte flips) be accepted.
        let _ = cluster.ingest_frame(
            livescope_sim::SimTime::ZERO,
            grant.id,
            Bytes::from(corrupted),
        );
    }
}

#[test]
fn the_full_attack_matrix_matches_the_paper() {
    for side in [AttackSide::Broadcaster, AttackSide::Viewer] {
        let undefended = run(
            &SecurityConfig {
                side,
                frames: 120,
                ..SecurityConfig::default()
            },
            false,
        );
        assert!(undefended.attack_succeeded(), "{side:?} undefended");
        let defended = run(
            &SecurityConfig {
                side,
                frames: 120,
                ..SecurityConfig::default()
            },
            true,
        );
        assert!(!defended.attack_succeeded(), "{side:?} defended");
    }
}

#[test]
fn signing_policy_cost_ladder_holds_end_to_end() {
    let cost = |policy| {
        run(
            &SecurityConfig {
                side: AttackSide::Viewer,
                policy,
                frames: 200,
                ..SecurityConfig::default()
            },
            true,
        )
        .signatures_produced
    };
    let every = cost(SigningPolicy::EveryFrame);
    let tenth = cost(SigningPolicy::EveryKth(10));
    let chain = cost(SigningPolicy::HashChain(10));
    assert_eq!(every, 200);
    assert_eq!(tenth, 20);
    assert_eq!(chain, 20);
}

#[test]
fn sealed_channel_rejects_replayed_cross_session_envelopes() {
    // An envelope sealed for session key A cannot be replayed into a
    // session keyed B — the integrity check binds key and nonce.
    let envelope = Sealed::seal(b"join grant", 0xAAAA, 5);
    assert!(envelope.unseal(0xBBBB).is_err());
    // Same key, different observed nonce state is fine (nonce travels in
    // the envelope) — replay protection above this layer would use the
    // nonce; we assert it is at least visible for that purpose.
    assert!(envelope.unseal(0xAAAA).is_ok());
}
