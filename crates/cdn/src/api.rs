//! The control plane's wire front door: sealed request in, sealed
//! response out.
//!
//! Clients never call [`crate::ControlServer`] methods directly in the
//! real system — they POST encrypted blobs over HTTPS. This module
//! provides that boundary: each client session holds a key (established
//! out of band, as TLS would), requests arrive as
//! [`livescope_proto::control::Sealed`] envelopes, and the §7 story falls
//! out naturally — everything here is opaque on-path, while the RTMP leg
//! the *same tokens* later travel is not.

use std::collections::BTreeMap;

use livescope_net::geo::GeoPoint;
use livescope_proto::control::{
    BroadcastSummary, ControlRequest, ControlResponse, Scheme, Sealed, StreamUrl,
};
use livescope_sim::SimTime;

use crate::control::ControlError;
use crate::ids::{BroadcastId, UserId};
use crate::Cluster;

/// A client's authenticated control-channel session.
#[derive(Clone, Copy, Debug)]
pub struct Session {
    pub user: UserId,
    /// Session key shared with the server (TLS stand-in).
    pub key: u64,
    /// The client's location (a real server derives this from the
    /// connection; we carry it explicitly).
    pub location: GeoPoint,
}

/// The wire-facing control API over a [`Cluster`].
pub struct ControlApi {
    sessions: BTreeMap<UserId, Session>,
    next_nonce: u64,
    /// Requests that failed to unseal or decode (attack observability).
    pub rejected_requests: u64,
}

impl ControlApi {
    /// An API with no sessions yet.
    pub fn new() -> Self {
        ControlApi {
            sessions: BTreeMap::new(),
            next_nonce: 1,
            rejected_requests: 0,
        }
    }

    /// Establishes a client session (models the TLS handshake).
    pub fn open_session(&mut self, session: Session) {
        self.sessions.insert(session.user, session);
    }

    /// Seals a request on behalf of a client (client-side helper).
    pub fn seal_request(&mut self, user: UserId, request: &ControlRequest) -> Option<Sealed> {
        let session = self.sessions.get(&user)?;
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        Some(Sealed::seal(&request.encode(), session.key, nonce))
    }

    /// Handles one sealed request from `user`, applying it to `cluster`
    /// and returning the sealed response.
    pub fn handle(
        &mut self,
        cluster: &mut Cluster,
        now: SimTime,
        user: UserId,
        envelope: &Sealed,
    ) -> Sealed {
        let Some(session) = self.sessions.get(&user).copied() else {
            self.rejected_requests += 1;
            return self.seal_error(0, "no session");
        };
        let request = match envelope
            .unseal(session.key)
            .and_then(ControlRequest::decode)
        {
            Ok(req) => req,
            Err(_) => {
                self.rejected_requests += 1;
                let nonce = self.bump_nonce();
                return Sealed::seal(
                    &ControlResponse::Error("unreadable request".into()).encode(),
                    session.key,
                    nonce,
                );
            }
        };
        let response = self.dispatch(cluster, now, &session, request);
        let nonce = self.bump_nonce();
        Sealed::seal(&response.encode(), session.key, nonce)
    }

    fn bump_nonce(&mut self) -> u64 {
        let n = self.next_nonce;
        self.next_nonce += 1;
        n
    }

    fn seal_error(&mut self, key: u64, msg: &str) -> Sealed {
        let nonce = self.bump_nonce();
        Sealed::seal(&ControlResponse::Error(msg.into()).encode(), key, nonce)
    }

    fn dispatch(
        &mut self,
        cluster: &mut Cluster,
        now: SimTime,
        session: &Session,
        request: ControlRequest,
    ) -> ControlResponse {
        match request {
            ControlRequest::CreateBroadcast { user_id } => {
                if user_id != session.user.0 {
                    return ControlResponse::Error("user mismatch".into());
                }
                let grant = cluster.create_broadcast(now, session.user, &session.location);
                ControlResponse::Created {
                    broadcast_id: grant.id.0,
                    token: grant.token,
                    rtmp_url: grant.rtmp_url,
                    hls_url: grant.hls_url,
                }
            }
            ControlRequest::Join {
                broadcast_id,
                user_id,
            } => {
                if user_id != session.user.0 {
                    return ControlResponse::Error("user mismatch".into());
                }
                match cluster.join_viewer(
                    now,
                    BroadcastId(broadcast_id),
                    session.user,
                    &session.location,
                ) {
                    Ok(grant) => ControlResponse::JoinInfo {
                        rtmp_url: grant.rtmp.map(|dc| StreamUrl {
                            scheme: Scheme::Rtmp,
                            dc: dc.0,
                            broadcast_id,
                        }),
                        hls_url: grant.hls_url,
                        can_comment: grant.can_comment,
                    },
                    Err(e) => ControlResponse::Error(control_error_text(e).into()),
                }
            }
            ControlRequest::EndBroadcast {
                broadcast_id,
                token,
            } => match cluster.end_broadcast(now, BroadcastId(broadcast_id), &token) {
                Ok(()) => ControlResponse::Ok,
                Err(e) => ControlResponse::Error(e.as_str().into()),
            },
            ControlRequest::GlobalList => {
                let list: Vec<BroadcastSummary> = cluster.control.global_list();
                ControlResponse::GlobalList(list)
            }
        }
    }
}

impl Default for ControlApi {
    fn default() -> Self {
        Self::new()
    }
}

fn control_error_text(e: ControlError) -> &'static str {
    match e {
        ControlError::UnknownBroadcast => "unknown broadcast",
        ControlError::BroadcastEnded => "broadcast ended",
        ControlError::BadToken => "bad token",
        ControlError::NotACommenter => "not a commenter",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livescope_sim::RngPool;
    use livescope_sim::SimDuration;

    fn setup() -> (Cluster, ControlApi) {
        let cluster = Cluster::new(&RngPool::new(4), SimDuration::from_secs(3), 100);
        let mut api = ControlApi::new();
        api.open_session(Session {
            user: UserId(1),
            key: 0xA11CE,
            location: GeoPoint::new(37.77, -122.42),
        });
        api.open_session(Session {
            user: UserId(2),
            key: 0xB0B,
            location: GeoPoint::new(51.51, -0.13),
        });
        (cluster, api)
    }

    fn roundtrip(
        cluster: &mut Cluster,
        api: &mut ControlApi,
        user: UserId,
        key: u64,
        request: ControlRequest,
    ) -> ControlResponse {
        let sealed = api.seal_request(user, &request).expect("session exists");
        let response = api.handle(cluster, SimTime::from_secs(1), user, &sealed);
        ControlResponse::decode(response.unseal(key).expect("client can read")).unwrap()
    }

    #[test]
    fn create_join_end_over_the_wire() {
        let (mut cluster, mut api) = setup();
        let created = roundtrip(
            &mut cluster,
            &mut api,
            UserId(1),
            0xA11CE,
            ControlRequest::CreateBroadcast { user_id: 1 },
        );
        let (id, token) = match created {
            ControlResponse::Created {
                broadcast_id,
                token,
                rtmp_url,
                ..
            } => {
                assert_eq!(rtmp_url.scheme, Scheme::Rtmp);
                (broadcast_id, token)
            }
            other => panic!("{other:?}"),
        };
        let joined = roundtrip(
            &mut cluster,
            &mut api,
            UserId(2),
            0xB0B,
            ControlRequest::Join {
                broadcast_id: id,
                user_id: 2,
            },
        );
        match joined {
            ControlResponse::JoinInfo {
                rtmp_url,
                can_comment,
                ..
            } => {
                assert!(rtmp_url.is_some(), "early viewer gets RTMP");
                assert!(can_comment);
            }
            other => panic!("{other:?}"),
        }
        let ended = roundtrip(
            &mut cluster,
            &mut api,
            UserId(1),
            0xA11CE,
            ControlRequest::EndBroadcast {
                broadcast_id: id,
                token,
            },
        );
        assert_eq!(ended, ControlResponse::Ok);
        assert_eq!(cluster.control.live_count(), 0);
    }

    #[test]
    fn global_list_travels_sealed() {
        let (mut cluster, mut api) = setup();
        for _ in 0..3 {
            roundtrip(
                &mut cluster,
                &mut api,
                UserId(1),
                0xA11CE,
                ControlRequest::CreateBroadcast { user_id: 1 },
            );
        }
        let list = roundtrip(
            &mut cluster,
            &mut api,
            UserId(2),
            0xB0B,
            ControlRequest::GlobalList,
        );
        match list {
            ControlResponse::GlobalList(items) => assert_eq!(items.len(), 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn impersonation_is_refused() {
        let (mut cluster, mut api) = setup();
        // User 2 tries to create a broadcast claiming to be user 1.
        let resp = roundtrip(
            &mut cluster,
            &mut api,
            UserId(2),
            0xB0B,
            ControlRequest::CreateBroadcast { user_id: 1 },
        );
        assert!(matches!(resp, ControlResponse::Error(_)));
        assert_eq!(cluster.control.live_count(), 0);
    }

    #[test]
    fn tampered_envelope_is_rejected_and_counted() {
        let (mut cluster, mut api) = setup();
        let sealed = api
            .seal_request(UserId(1), &ControlRequest::GlobalList)
            .unwrap();
        let mut wire = sealed.wire().to_vec();
        let last = wire.len() - 1;
        wire[last] ^= 1;
        let tampered = Sealed::from_wire(bytes::Bytes::from(wire));
        let resp = api.handle(&mut cluster, SimTime::ZERO, UserId(1), &tampered);
        assert_eq!(api.rejected_requests, 1);
        // The error response is still readable by the legitimate client.
        let plain = resp.unseal(0xA11CE).unwrap();
        assert!(matches!(
            ControlResponse::decode(plain).unwrap(),
            ControlResponse::Error(_)
        ));
    }

    #[test]
    fn wrong_key_cannot_forge_requests() {
        let (mut cluster, mut api) = setup();
        // An attacker seals a request under a guessed key.
        let forged = Sealed::seal(
            &ControlRequest::CreateBroadcast { user_id: 1 }.encode(),
            0xDEAD,
            99,
        );
        let _ = api.handle(&mut cluster, SimTime::ZERO, UserId(1), &forged);
        assert_eq!(api.rejected_requests, 1);
        assert_eq!(cluster.control.live_count(), 0);
    }

    #[test]
    fn sessionless_users_get_nothing() {
        let (mut cluster, mut api) = setup();
        let forged = Sealed::seal(&ControlRequest::GlobalList.encode(), 0x123, 1);
        let _ = api.handle(&mut cluster, SimTime::ZERO, UserId(99), &forged);
        assert_eq!(api.rejected_requests, 1);
        assert!(api
            .seal_request(UserId(99), &ControlRequest::GlobalList)
            .is_none());
    }
}
