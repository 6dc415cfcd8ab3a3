//! The Periscope control server: token issuance, join admission (RTMP →
//! HLS handoff at the slot limit), the commenter cap, and the global
//! broadcast list the crawler samples.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::SmallRng;
use rand::Rng;

use livescope_net::datacenters::{self, DatacenterId, Provider};
use livescope_net::geo::GeoPoint;
use livescope_proto::control::{BroadcastSummary, Scheme, StreamUrl};
use livescope_sim::SimTime;
use livescope_telemetry::{CounterId, GaugeId, Span, Telemetry, TraceEvent};

use crate::ids::{token_from_word, BroadcastId, UserId};

/// How many broadcasts one global-list query returns (§3.1: "the global
/// list shows 50 random selected broadcasts").
pub const GLOBAL_LIST_SAMPLE: usize = 50;

/// Control-plane record of one broadcast.
#[derive(Clone, Debug)]
pub struct BroadcastState {
    pub broadcaster: UserId,
    pub token: String,
    pub wowza_dc: DatacenterId,
    pub started: SimTime,
    pub ended: Option<SimTime>,
    /// Viewers admitted to RTMP (the first `rtmp_slots`).
    pub rtmp_viewers: u64,
    /// Viewers handed to HLS.
    pub hls_viewers: u64,
    /// Users allowed to comment (== the RTMP-admitted set).
    pub commenters: BTreeSet<UserId>,
    pub hearts: u64,
    pub comments: u64,
}

/// Join admission outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinGrant {
    /// RTMP access (with the broadcast's ingest DC) for early arrivals.
    pub rtmp: Option<DatacenterId>,
    /// Every viewer may fall back to (or is assigned) HLS.
    pub hls_url: StreamUrl,
    /// Comment rights (tied to RTMP admission, §4.1).
    pub can_comment: bool,
}

/// Result of creating a broadcast.
#[derive(Clone, Debug)]
pub struct CreateGrant {
    pub id: BroadcastId,
    pub token: String,
    pub wowza_dc: DatacenterId,
    pub rtmp_url: StreamUrl,
    pub hls_url: StreamUrl,
}

/// Control-server errors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ControlError {
    UnknownBroadcast,
    BroadcastEnded,
    BadToken,
    NotACommenter,
}

/// The control server.
pub struct ControlServer {
    next_id: u64,
    rtmp_slots: u64,
    rng: SmallRng,
    broadcasts: BTreeMap<BroadcastId, BroadcastState>,
    live: Vec<BroadcastId>,
    telemetry: Telemetry,
    c_creates: CounterId,
    c_joins_rtmp: CounterId,
    c_joins_hls: CounterId,
    g_live: GaugeId,
}

impl ControlServer {
    /// A server admitting `rtmp_slots` early viewers per broadcast.
    pub fn new(rng: SmallRng, rtmp_slots: u64) -> Self {
        ControlServer {
            next_id: 1,
            rtmp_slots,
            rng,
            broadcasts: BTreeMap::new(),
            live: Vec::new(),
            telemetry: Telemetry::disabled(),
            c_creates: CounterId::INERT,
            c_joins_rtmp: CounterId::INERT,
            c_joins_hls: CounterId::INERT,
            g_live: GaugeId::INERT,
        }
    }

    /// Attaches telemetry: admission counters, a live-broadcast gauge, and
    /// `JoinStarted` / `HandoffToHls` trace events.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.c_creates = telemetry.counter("control.broadcasts_created");
        self.c_joins_rtmp = telemetry.counter("control.joins_rtmp");
        self.c_joins_hls = telemetry.counter("control.joins_hls");
        self.g_live = telemetry.gauge("control.live_broadcasts");
        self.telemetry = telemetry.clone();
    }

    /// Creates a broadcast for `user` at `location`: assigns the nearest
    /// Wowza datacenter (§5.3 geolocation optimization #1), mints a token
    /// and both stream URLs.
    pub fn create_broadcast(
        &mut self,
        now: SimTime,
        user: UserId,
        location: &GeoPoint,
    ) -> CreateGrant {
        let id = BroadcastId(self.next_id);
        self.next_id += 1;
        let wowza = datacenters::nearest(Provider::Wowza, location);
        let token = token_from_word(self.rng.gen());
        self.broadcasts.insert(
            id,
            BroadcastState {
                broadcaster: user,
                token: token.clone(),
                wowza_dc: wowza.id,
                started: now,
                ended: None,
                rtmp_viewers: 0,
                hls_viewers: 0,
                commenters: BTreeSet::new(),
                hearts: 0,
                comments: 0,
            },
        );
        self.live.push(id);
        self.telemetry.add(self.c_creates, 1);
        self.telemetry
            .set_gauge(self.g_live, self.live.len() as i64);
        CreateGrant {
            id,
            token,
            wowza_dc: wowza.id,
            rtmp_url: StreamUrl {
                scheme: Scheme::Rtmp,
                dc: wowza.id.0,
                broadcast_id: id.0,
            },
            hls_url: StreamUrl {
                scheme: Scheme::Hls,
                dc: u16::MAX, // resolved per-viewer by anycast at join time
                broadcast_id: id.0,
            },
        }
    }

    /// Admits a viewer at `now`: the first `rtmp_slots` get RTMP + comment
    /// rights, later arrivals get HLS only. The HLS URL's datacenter is
    /// the POP nearest the viewer (IP anycast).
    pub fn join(
        &mut self,
        now: SimTime,
        broadcast: BroadcastId,
        viewer: UserId,
        viewer_location: &GeoPoint,
    ) -> Result<JoinGrant, ControlError> {
        let state = self
            .broadcasts
            .get_mut(&broadcast)
            .ok_or(ControlError::UnknownBroadcast)?;
        if state.ended.is_some() {
            return Err(ControlError::BroadcastEnded);
        }
        let pop = datacenters::nearest(Provider::Fastly, viewer_location);
        let hls_url = StreamUrl {
            scheme: Scheme::Hls,
            dc: pop.id.0,
            broadcast_id: broadcast.0,
        };
        let rtmp = state.rtmp_viewers < self.rtmp_slots;
        self.telemetry.emit(
            now.as_micros(),
            TraceEvent::JoinStarted {
                broadcast: broadcast.0,
                viewer: viewer.0,
                rtmp,
            },
        );
        self.telemetry.emit(
            now.as_micros(),
            Span::viewer_session(broadcast.0, viewer.0).open(pop.id.0),
        );
        if rtmp {
            state.rtmp_viewers += 1;
            state.commenters.insert(viewer);
            self.telemetry.add(self.c_joins_rtmp, 1);
            Ok(JoinGrant {
                rtmp: Some(state.wowza_dc),
                hls_url,
                can_comment: true,
            })
        } else {
            state.hls_viewers += 1;
            self.telemetry.add(self.c_joins_hls, 1);
            self.telemetry.emit(
                now.as_micros(),
                TraceEvent::HandoffToHls {
                    broadcast: broadcast.0,
                    viewer: viewer.0,
                    rtmp_viewers: state.rtmp_viewers,
                },
            );
            Ok(JoinGrant {
                rtmp: None,
                hls_url,
                can_comment: false,
            })
        }
    }

    /// Records a heart (any viewer may send one).
    pub fn record_heart(&mut self, broadcast: BroadcastId) -> Result<(), ControlError> {
        let state = self
            .broadcasts
            .get_mut(&broadcast)
            .ok_or(ControlError::UnknownBroadcast)?;
        state.hearts += 1;
        Ok(())
    }

    /// Records a comment, enforcing the commenter cap.
    pub fn record_comment(
        &mut self,
        broadcast: BroadcastId,
        viewer: UserId,
    ) -> Result<(), ControlError> {
        let state = self
            .broadcasts
            .get_mut(&broadcast)
            .ok_or(ControlError::UnknownBroadcast)?;
        if !state.commenters.contains(&viewer) {
            return Err(ControlError::NotACommenter);
        }
        state.comments += 1;
        Ok(())
    }

    /// Ends a broadcast (authenticated by token). Returns the Wowza
    /// datacenter that hosted it so callers can tear down the ingest side
    /// without a second lookup.
    pub fn end_broadcast(
        &mut self,
        now: SimTime,
        broadcast: BroadcastId,
        token: &str,
    ) -> Result<DatacenterId, ControlError> {
        let state = self
            .broadcasts
            .get_mut(&broadcast)
            .ok_or(ControlError::UnknownBroadcast)?;
        if state.token != token {
            return Err(ControlError::BadToken);
        }
        if state.ended.is_some() {
            return Err(ControlError::BroadcastEnded);
        }
        state.ended = Some(now);
        let wowza_dc = state.wowza_dc;
        self.live.retain(|&b| b != broadcast);
        self.telemetry
            .set_gauge(self.g_live, self.live.len() as i64);
        Ok(wowza_dc)
    }

    /// The global list: up to [`GLOBAL_LIST_SAMPLE`] random live
    /// broadcasts, freshly sampled per query (which is why the crawler
    /// needs many accounts polling in parallel to see everything).
    pub fn global_list(&mut self) -> Vec<BroadcastSummary> {
        let n = self.live.len().min(GLOBAL_LIST_SAMPLE);
        // Partial Fisher-Yates over a scratch copy: unbiased sample
        // without replacement.
        let mut scratch = self.live.clone();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let j = self.rng.gen_range(i..scratch.len());
            scratch.swap(i, j);
            let id = scratch[i];
            let state = &self.broadcasts[&id];
            out.push(BroadcastSummary {
                broadcast_id: id.0,
                broadcaster_id: state.broadcaster.0,
                started_ts_us: state.started.as_micros(),
            });
        }
        out
    }

    /// Number of currently live broadcasts.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Read access to a broadcast's control-plane state.
    pub fn broadcast(&self, id: BroadcastId) -> Option<&BroadcastState> {
        self.broadcasts.get(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn server(slots: u64) -> ControlServer {
        ControlServer::new(SmallRng::seed_from_u64(9), slots)
    }

    fn sf() -> GeoPoint {
        GeoPoint::new(37.77, -122.42)
    }

    #[test]
    fn create_assigns_nearest_wowza_and_unique_tokens() {
        let mut c = server(100);
        let g1 = c.create_broadcast(SimTime::ZERO, UserId(1), &sf());
        let g2 = c.create_broadcast(SimTime::ZERO, UserId(2), &sf());
        assert_eq!(g1.id, BroadcastId(1));
        assert_eq!(g2.id, BroadcastId(2));
        assert_ne!(g1.token, g2.token);
        // SF broadcaster → San Jose Wowza (dc 1).
        assert_eq!(datacenters::datacenter(g1.wowza_dc).city, "San Jose");
        assert_eq!(g1.rtmp_url.scheme, Scheme::Rtmp);
        assert_eq!(g1.rtmp_url.dc, g1.wowza_dc.0);
        assert_eq!(c.live_count(), 2);
    }

    #[test]
    fn first_n_viewers_get_rtmp_and_comment_rights() {
        let mut c = server(3);
        let g = c.create_broadcast(SimTime::ZERO, UserId(1), &sf());
        for v in 0..3 {
            let grant = c.join(SimTime::ZERO, g.id, UserId(100 + v), &sf()).unwrap();
            assert!(grant.rtmp.is_some(), "viewer {v} should get RTMP");
            assert!(grant.can_comment);
        }
        let late = c.join(SimTime::ZERO, g.id, UserId(999), &sf()).unwrap();
        assert!(late.rtmp.is_none(), "4th viewer is handed to HLS");
        assert!(!late.can_comment);
        let state = c.broadcast(g.id).unwrap();
        assert_eq!(state.rtmp_viewers, 3);
        assert_eq!(state.hls_viewers, 1);
    }

    #[test]
    fn hls_url_uses_viewers_nearest_pop() {
        let mut c = server(0); // force HLS for everyone
        let g = c.create_broadcast(SimTime::ZERO, UserId(1), &sf());
        let tokyo_viewer = GeoPoint::new(35.68, 139.65);
        let grant = c
            .join(SimTime::ZERO, g.id, UserId(2), &tokyo_viewer)
            .unwrap();
        assert_eq!(
            datacenters::datacenter(DatacenterId(grant.hls_url.dc)).city,
            "Tokyo"
        );
    }

    #[test]
    fn comment_cap_is_enforced() {
        let mut c = server(1);
        let g = c.create_broadcast(SimTime::ZERO, UserId(1), &sf());
        c.join(SimTime::ZERO, g.id, UserId(10), &sf()).unwrap(); // commenter
        c.join(SimTime::ZERO, g.id, UserId(11), &sf()).unwrap(); // HLS, not a commenter
        assert!(c.record_comment(g.id, UserId(10)).is_ok());
        assert_eq!(
            c.record_comment(g.id, UserId(11)),
            Err(ControlError::NotACommenter)
        );
        assert!(c.record_heart(g.id).is_ok()); // hearts are for everyone
        let s = c.broadcast(g.id).unwrap();
        assert_eq!((s.comments, s.hearts), (1, 1));
    }

    #[test]
    fn ending_requires_the_token_and_stops_joins() {
        let mut c = server(10);
        let g = c.create_broadcast(SimTime::ZERO, UserId(1), &sf());
        assert_eq!(
            c.end_broadcast(SimTime::from_secs(9), g.id, "wrong"),
            Err(ControlError::BadToken)
        );
        c.end_broadcast(SimTime::from_secs(10), g.id, &g.token)
            .unwrap();
        assert_eq!(c.live_count(), 0);
        assert_eq!(
            c.join(SimTime::ZERO, g.id, UserId(5), &sf()),
            Err(ControlError::BroadcastEnded)
        );
        assert_eq!(
            c.end_broadcast(SimTime::from_secs(11), g.id, &g.token),
            Err(ControlError::BroadcastEnded)
        );
    }

    #[test]
    fn global_list_samples_fifty_without_replacement() {
        let mut c = server(100);
        for u in 0..200 {
            c.create_broadcast(SimTime::ZERO, UserId(u), &sf());
        }
        let list = c.global_list();
        assert_eq!(list.len(), GLOBAL_LIST_SAMPLE);
        let distinct: std::collections::BTreeSet<u64> =
            list.iter().map(|s| s.broadcast_id).collect();
        assert_eq!(distinct.len(), GLOBAL_LIST_SAMPLE, "sample has duplicates");
    }

    #[test]
    fn global_list_is_random_across_queries() {
        let mut c = server(100);
        for u in 0..500 {
            c.create_broadcast(SimTime::ZERO, UserId(u), &sf());
        }
        let a: std::collections::BTreeSet<u64> =
            c.global_list().iter().map(|s| s.broadcast_id).collect();
        let b: std::collections::BTreeSet<u64> =
            c.global_list().iter().map(|s| s.broadcast_id).collect();
        assert_ne!(a, b, "two queries returned the identical sample");
    }

    #[test]
    fn global_list_returns_all_when_few_are_live() {
        let mut c = server(100);
        for u in 0..7 {
            c.create_broadcast(SimTime::ZERO, UserId(u), &sf());
        }
        assert_eq!(c.global_list().len(), 7);
    }

    #[test]
    fn unknown_broadcast_errors() {
        let mut c = server(100);
        assert_eq!(
            c.join(SimTime::ZERO, BroadcastId(404), UserId(1), &sf()),
            Err(ControlError::UnknownBroadcast)
        );
        assert_eq!(
            c.record_heart(BroadcastId(404)),
            Err(ControlError::UnknownBroadcast)
        );
    }
}
