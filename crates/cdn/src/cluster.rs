//! The whole delivery system wired together: one control server, 8 Wowza
//! ingest datacenters, 23 Fastly POPs, the message bus, and the
//! inter-datacenter links — including the co-located-gateway replication
//! routing the paper infers in §5.3.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use livescope_net::datacenters::{self, DatacenterId, Provider};
use livescope_net::geo::GeoPoint;
use livescope_net::{AccessLink, Link};
use livescope_proto::hls::Chunk;
use livescope_proto::message::ChatEvent;
use livescope_proto::rtmp::VideoFrame;
use livescope_sim::{RngPool, SimDuration, SimTime};
use livescope_telemetry::{Span, Telemetry, TraceEvent};

use crate::control::{ControlError, ControlServer, CreateGrant, JoinGrant};
use crate::fastly::{FastlyPop, FetchPlan, PollResponse};
use crate::ids::{BroadcastId, UserId};
use crate::pubnub::{MessageDelivery, PubNub};
use crate::wowza::{IngestError, IngestOutcome, WowzaServer};

/// Default coordination overhead a non-gateway POP pays on an origin
/// fetch: the gateway-mediated handshake the paper holds responsible for
/// the >0.25 s gap between co-located and merely-nearby pairs (Fig 15).
pub const GATEWAY_COORDINATION_S: f64 = 0.22;

/// Unified error for the cluster surface.
///
/// Cluster calls can fail in the control plane (the broadcast lookup, a
/// token check) or in the ingest plane; previously the control-plane half
/// was shoehorned into [`IngestError::UnknownBroadcast`]. Both planes keep
/// their own error enums — this wrapper says which plane refused.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CdnError {
    /// The control plane refused (unknown broadcast, bad token, ended).
    Control(ControlError),
    /// The ingest plane refused (not publishing, malformed frame, …).
    Ingest(IngestError),
}

impl From<ControlError> for CdnError {
    fn from(e: ControlError) -> Self {
        CdnError::Control(e)
    }
}

impl From<IngestError> for CdnError {
    fn from(e: IngestError) -> Self {
        CdnError::Ingest(e)
    }
}

impl CdnError {
    /// Stable human-readable text (wire error payloads, logs).
    pub fn as_str(&self) -> &'static str {
        match self {
            CdnError::Control(ControlError::UnknownBroadcast) => "unknown broadcast",
            CdnError::Control(ControlError::BroadcastEnded) => "broadcast ended",
            CdnError::Control(ControlError::BadToken) => "bad token",
            CdnError::Control(ControlError::NotACommenter) => "not a commenter",
            CdnError::Ingest(IngestError::UnknownBroadcast) => "unknown broadcast at ingest",
            CdnError::Ingest(IngestError::BadToken) => "bad ingest token",
            CdnError::Ingest(IngestError::Malformed) => "malformed frame",
            CdnError::Ingest(IngestError::VerificationFailed) => "frame verification failed",
            CdnError::Ingest(IngestError::AlreadyPublishing) => "already publishing",
            CdnError::Ingest(IngestError::NotPublishing) => "not publishing",
        }
    }
}

impl fmt::Display for CdnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::error::Error for CdnError {}

/// The assembled system.
pub struct Cluster {
    pub control: ControlServer,
    /// Index == Wowza datacenter id (0..8).
    pub wowza: Vec<WowzaServer>,
    /// Index == Fastly datacenter id − 8 (0..23).
    pub fastly: Vec<FastlyPop>,
    pub pubnub: PubNub,
    rng: SmallRng,
    links: HashMap<(u16, u16), Link>,
    /// Coordination overhead for non-gateway fetches, seconds.
    pub gateway_coordination_s: f64,
    telemetry: Telemetry,
    c_gateway_repl: livescope_telemetry::CounterId,
}

impl Cluster {
    /// Builds the full 8+23-site system.
    pub fn new(pool: &RngPool, chunk_duration: SimDuration, rtmp_slots: u64) -> Self {
        let wowza = datacenters::by_provider(Provider::Wowza)
            .map(|dc| WowzaServer::new(dc.id, chunk_duration))
            .collect();
        let fastly = datacenters::by_provider(Provider::Fastly)
            .map(|dc| FastlyPop::new(dc.id))
            .collect();
        Cluster {
            control: ControlServer::new(
                SmallRng::seed_from_u64(pool.stream_seed("control")),
                rtmp_slots,
            ),
            wowza,
            fastly,
            pubnub: PubNub::new(),
            rng: SmallRng::seed_from_u64(pool.stream_seed("cluster")),
            links: HashMap::new(),
            gateway_coordination_s: GATEWAY_COORDINATION_S,
            telemetry: Telemetry::disabled(),
            c_gateway_repl: livescope_telemetry::CounterId::INERT,
        }
    }

    /// Attaches one telemetry handle to every component: the control
    /// server, all 8 ingest servers, all 23 POPs, the message bus, and the
    /// cluster's own gateway-replication tracing.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.control.attach_telemetry(telemetry);
        for server in &mut self.wowza {
            server.attach_telemetry(telemetry);
        }
        for pop in &mut self.fastly {
            pop.attach_telemetry(telemetry);
        }
        self.pubnub.attach_telemetry(telemetry);
        self.c_gateway_repl = telemetry.counter("cluster.gateway_replications");
        self.telemetry = telemetry.clone();
    }

    fn wowza_index(dc: DatacenterId) -> usize {
        assert!(dc.0 < 8, "not a Wowza datacenter: {dc:?}");
        dc.0 as usize
    }

    fn fastly_index(dc: DatacenterId) -> usize {
        assert!((8..31).contains(&dc.0), "not a Fastly datacenter: {dc:?}");
        dc.0 as usize - 8
    }

    /// Creates a broadcast: control-plane grant plus ingest registration.
    pub fn create_broadcast(
        &mut self,
        now: SimTime,
        user: UserId,
        location: &GeoPoint,
    ) -> CreateGrant {
        let grant = self.control.create_broadcast(now, user, location);
        self.wowza[Self::wowza_index(grant.wowza_dc)]
            .register_broadcast(grant.id, grant.token.clone());
        grant
    }

    /// The broadcast's ingest datacenter, or the control-plane error that
    /// says why the lookup failed.
    fn wowza_dc_of(&self, broadcast: BroadcastId) -> Result<DatacenterId, CdnError> {
        Ok(self
            .control
            .broadcast(broadcast)
            .ok_or(ControlError::UnknownBroadcast)?
            .wowza_dc)
    }

    /// Publisher connects to its ingest server with the plaintext token
    /// at `now`.
    pub fn connect_publisher(
        &mut self,
        now: SimTime,
        broadcast: BroadcastId,
        token: &str,
    ) -> Result<(), CdnError> {
        let dc = self.wowza_dc_of(broadcast)?;
        self.wowza[Self::wowza_index(dc)].connect_publisher(broadcast, token)?;
        self.telemetry.emit(
            now.as_micros(),
            TraceEvent::PublisherConnected {
                broadcast: broadcast.0,
                wowza: dc.0,
            },
        );
        self.telemetry
            .emit(now.as_micros(), Span::broadcast(broadcast.0).open(dc.0));
        Ok(())
    }

    /// Admits a viewer via the control plane at `now`.
    pub fn join_viewer(
        &mut self,
        now: SimTime,
        broadcast: BroadcastId,
        viewer: UserId,
        location: &GeoPoint,
    ) -> Result<JoinGrant, ControlError> {
        self.control.join(now, broadcast, viewer, location)
    }

    /// Subscribes an admitted RTMP viewer at `location` over `access`
    /// at `now`.
    pub fn subscribe_rtmp(
        &mut self,
        now: SimTime,
        broadcast: BroadcastId,
        viewer: UserId,
        location: &GeoPoint,
        access: AccessLink,
    ) -> Result<(), CdnError> {
        let dc = self.wowza_dc_of(broadcast)?;
        let link = Link::device_path(location, &datacenters::datacenter(dc).location, access);
        self.wowza[Self::wowza_index(dc)].subscribe(broadcast, viewer, link)?;
        self.telemetry.emit(
            now.as_micros(),
            TraceEvent::RtmpSubscribed {
                broadcast: broadcast.0,
                viewer: viewer.0,
                wowza: dc.0,
            },
        );
        Ok(())
    }

    /// Ingests a frame (wire bytes) at the broadcast's ingest server.
    pub fn ingest_frame(
        &mut self,
        now: SimTime,
        broadcast: BroadcastId,
        wire: Bytes,
    ) -> Result<IngestOutcome, CdnError> {
        let dc = self.wowza_dc_of(broadcast)?;
        Ok(self.wowza[Self::wowza_index(dc)].ingest_frame(now, broadcast, wire, &mut self.rng)?)
    }

    /// Ingests an already-decoded frame (fast path).
    pub fn ingest_decoded(
        &mut self,
        now: SimTime,
        broadcast: BroadcastId,
        frame: VideoFrame,
    ) -> Result<IngestOutcome, CdnError> {
        let dc = self.wowza_dc_of(broadcast)?;
        Ok(self.wowza[Self::wowza_index(dc)].ingest_decoded(
            now,
            broadcast,
            frame,
            &mut self.rng,
        )?)
    }

    /// An HLS viewer (or the crawler) polls POP `pop_dc` for a broadcast's
    /// chunklist. Origin fetches triggered by this poll are routed through
    /// the co-located gateway per §5.3.
    pub fn poll_hls(
        &mut self,
        now: SimTime,
        broadcast: BroadcastId,
        pop_dc: DatacenterId,
    ) -> Result<PollResponse, CdnError> {
        let wowza_dc = self.wowza_dc_of(broadcast)?;
        let Cluster {
            wowza,
            fastly,
            links,
            rng,
            gateway_coordination_s,
            telemetry,
            c_gateway_repl,
            ..
        } = self;
        let origin = wowza[Self::wowza_index(wowza_dc)].origin_chunks(broadcast);
        let coordination = *gateway_coordination_s;
        let fetch = |plan: &FetchPlan| {
            // One gateway-routed transfer per poll: the whole batch rides
            // a single sampled path, so the §5.3 coordination overhead is
            // paid exactly once no matter how many chunks are pulled.
            let delay = fetch_delay(
                links,
                rng,
                now,
                wowza_dc,
                pop_dc,
                plan.total_bytes,
                coordination,
            );
            // A fetch by a non-gateway POP rides the §5.3 replication
            // detour through the co-located gateway.
            let gateway = datacenters::co_located_fastly(datacenters::datacenter(wowza_dc))
                .map(|gw| gw.id)
                .filter(|gw| *gw != pop_dc);
            if let Some(gw) = gateway {
                telemetry.add(*c_gateway_repl, 1);
                telemetry.emit(
                    now.as_micros(),
                    TraceEvent::GatewayReplicated {
                        broadcast: broadcast.0,
                        wowza: wowza_dc.0,
                        gateway: gw.0,
                        pop: pop_dc.0,
                        transfer_us: delay.as_micros(),
                    },
                );
            }
            delay
        };
        Ok(fastly[Self::fastly_index(pop_dc)].poll(now, broadcast, origin, fetch))
    }

    /// Downloads a chunk from a POP (None until it is available there).
    /// The returned chunk is a shared view of the origin's — no payload
    /// copy happens on this path.
    pub fn download_chunk(
        &mut self,
        now: SimTime,
        broadcast: BroadcastId,
        pop_dc: DatacenterId,
        seq: u64,
    ) -> Option<Arc<Chunk>> {
        self.fastly[Self::fastly_index(pop_dc)]
            .serve_chunk(now, broadcast, seq)
            .map(|served| Arc::clone(&served.chunk))
    }

    /// Publishes a chat event on the message bus.
    pub fn publish_chat(&mut self, now: SimTime, event: ChatEvent) -> Vec<MessageDelivery> {
        self.pubnub.publish(now, event, &mut self.rng)
    }

    /// Ends a broadcast everywhere: control plane, ingest flush, edge
    /// caches, message channel.
    pub fn end_broadcast(
        &mut self,
        now: SimTime,
        broadcast: BroadcastId,
        token: &str,
    ) -> Result<(), CdnError> {
        let dc = self.control.end_broadcast(now, broadcast, token)?;
        // Edge copies go first: they share the origin's chunk buffers, so
        // the ingest flush below can seal its tail chunk into the memory
        // they free instead of raising the process's peak.
        for pop in &mut self.fastly {
            pop.evict(broadcast);
        }
        self.wowza[Self::wowza_index(dc)].end_broadcast(now, broadcast);
        self.pubnub.close_channel(broadcast);
        self.telemetry
            .emit(now.as_micros(), Span::broadcast(broadcast.0).close());
        Ok(())
    }

    /// Samples one origin-fetch delay between a Wowza site and a POP with
    /// full jitter — the Fig 15 measurement primitive.
    pub fn sample_fetch_delay(
        &mut self,
        wowza_dc: DatacenterId,
        pop_dc: DatacenterId,
        bytes: usize,
        now: SimTime,
    ) -> SimDuration {
        let Cluster {
            links,
            rng,
            gateway_coordination_s,
            ..
        } = self;
        fetch_delay(
            links,
            rng,
            now,
            wowza_dc,
            pop_dc,
            bytes,
            *gateway_coordination_s,
        )
    }

    /// The deterministic expectation of the origin-fetch delay between a
    /// Wowza site and a POP (no jitter) — used by calibration tests.
    pub fn expected_fetch_delay(
        &mut self,
        wowza_dc: DatacenterId,
        pop_dc: DatacenterId,
        bytes: usize,
    ) -> SimDuration {
        let Cluster {
            links,
            gateway_coordination_s,
            ..
        } = self;
        expected_fetch_delay(links, wowza_dc, pop_dc, bytes, *gateway_coordination_s)
    }
}

fn link_between(
    links: &mut HashMap<(u16, u16), Link>,
    from: DatacenterId,
    to: DatacenterId,
) -> &mut Link {
    links.entry((from.0, to.0)).or_insert_with(|| {
        Link::between_datacenters(
            &datacenters::datacenter(from).location,
            &datacenters::datacenter(to).location,
        )
    })
}

/// Samples the origin→edge fetch delay with gateway routing:
///
/// * POP co-located with the Wowza site (it *is* the gateway): one short
///   hop;
/// * any other POP, when a gateway exists: Wowza → gateway, coordination
///   overhead, gateway → POP;
/// * no gateway on the continent (São Paulo): direct + coordination.
fn fetch_delay(
    links: &mut HashMap<(u16, u16), Link>,
    rng: &mut SmallRng,
    now: SimTime,
    wowza_dc: DatacenterId,
    pop_dc: DatacenterId,
    bytes: usize,
    coordination_s: f64,
) -> SimDuration {
    let wowza = datacenters::datacenter(wowza_dc);
    let pop = datacenters::datacenter(pop_dc);
    let gateway = datacenters::co_located_fastly(wowza);
    let sample = |links: &mut HashMap<(u16, u16), Link>,
                  rng: &mut SmallRng,
                  from: DatacenterId,
                  to: DatacenterId| {
        link_between(links, from, to)
            .transmit(rng, now, bytes)
            .delay()
            .expect("inter-DC links are loss-free")
    };
    match gateway {
        Some(gw) if gw.id == pop.id => sample(links, rng, wowza_dc, pop_dc),
        Some(gw) => {
            sample(links, rng, wowza_dc, gw.id)
                + SimDuration::from_secs_f64(coordination_s)
                + sample(links, rng, gw.id, pop_dc)
        }
        None => SimDuration::from_secs_f64(coordination_s) + sample(links, rng, wowza_dc, pop_dc),
    }
}

/// Jitter-free version of [`fetch_delay`] for calibration.
fn expected_fetch_delay(
    links: &mut HashMap<(u16, u16), Link>,
    wowza_dc: DatacenterId,
    pop_dc: DatacenterId,
    bytes: usize,
    coordination_s: f64,
) -> SimDuration {
    let wowza = datacenters::datacenter(wowza_dc);
    let pop = datacenters::datacenter(pop_dc);
    let gateway = datacenters::co_located_fastly(wowza);
    let expected = |links: &mut HashMap<(u16, u16), Link>, from: DatacenterId, to: DatacenterId| {
        link_between(links, from, to).expected_delay(bytes)
    };
    match gateway {
        Some(gw) if gw.id == pop.id => expected(links, wowza_dc, pop_dc),
        Some(gw) => {
            expected(links, wowza_dc, gw.id)
                + SimDuration::from_secs_f64(coordination_s)
                + expected(links, gw.id, pop_dc)
        }
        None => SimDuration::from_secs_f64(coordination_s) + expected(links, wowza_dc, pop_dc),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livescope_proto::rtmp::RtmpMessage;

    fn cluster() -> Cluster {
        Cluster::new(&RngPool::new(42), SimDuration::from_secs(3), 100)
    }

    fn sf() -> GeoPoint {
        GeoPoint::new(37.77, -122.42)
    }

    fn frame(seq: u64) -> VideoFrame {
        VideoFrame::new(
            seq,
            seq * 40_000,
            seq.is_multiple_of(75),
            Bytes::from(vec![3u8; 64]),
        )
    }

    #[test]
    fn cluster_has_the_paper_topology() {
        let c = cluster();
        assert_eq!(c.wowza.len(), 8);
        assert_eq!(c.fastly.len(), 23);
    }

    #[test]
    fn full_broadcast_lifecycle() {
        let mut c = cluster();
        let t0 = SimTime::ZERO;
        let grant = c.create_broadcast(t0, UserId(1), &sf());
        c.connect_publisher(t0, grant.id, &grant.token).unwrap();
        // RTMP viewer joins and subscribes.
        let join = c.join_viewer(t0, grant.id, UserId(2), &sf()).unwrap();
        let rtmp_dc = join.rtmp.expect("early viewer gets RTMP");
        assert_eq!(rtmp_dc, grant.wowza_dc);
        c.subscribe_rtmp(t0, grant.id, UserId(2), &sf(), AccessLink::StableWifi)
            .unwrap();
        // Push 80 frames: one chunk closes, the viewer gets 80 pushes.
        let mut pushes = 0;
        let mut chunks = 0;
        for i in 0..80u64 {
            let t = t0 + SimDuration::from_millis(i * 40);
            let wire = RtmpMessage::Frame(frame(i)).encode();
            let out = c.ingest_frame(t, grant.id, wire).unwrap();
            pushes += out.deliveries.len();
            chunks += out.completed_chunk.is_some() as usize;
        }
        assert_eq!(pushes, 80);
        assert_eq!(chunks, 1);
        // An HLS viewer in Tokyo polls its nearest POP.
        let hls_join = c
            .join_viewer(t0, grant.id, UserId(3), &GeoPoint::new(35.68, 139.65))
            .unwrap();
        let pop_dc = DatacenterId(hls_join.hls_url.dc);
        let t_poll = t0 + SimDuration::from_secs(4);
        let resp = c.poll_hls(t_poll, grant.id, pop_dc).unwrap();
        assert_eq!(resp.fetches_started, 1);
        // After the fetch completes a poll sees the chunk and can fetch it.
        let t_later = t0 + SimDuration::from_secs(8);
        let resp = c.poll_hls(t_later, grant.id, pop_dc).unwrap();
        assert_eq!(resp.chunklist.latest_seq(), Some(0));
        let chunk = c.download_chunk(t_later, grant.id, pop_dc, 0).unwrap();
        assert_eq!(chunk.frames.len(), 75);
        // End everywhere.
        c.end_broadcast(t_later, grant.id, &grant.token).unwrap();
        assert_eq!(c.control.live_count(), 0);
        assert!(
            c.poll_hls(t_later, grant.id, pop_dc).is_ok(),
            "poll after end is a cache miss, not an error"
        );
    }

    #[test]
    fn gateway_routing_orders_fetch_delays() {
        let mut c = cluster();
        let bytes = 200_000;
        // Ashburn Wowza (dc 0): gateway is Ashburn Fastly (dc 8).
        let co_located = c.expected_fetch_delay(DatacenterId(0), DatacenterId(8), bytes);
        // New York POP (dc 9) is near Ashburn but NOT co-located.
        let nearby = c.expected_fetch_delay(DatacenterId(0), DatacenterId(9), bytes);
        // Tokyo POP (dc 27) from Ashburn: far.
        let far = c.expected_fetch_delay(DatacenterId(0), DatacenterId(27), bytes);
        assert!(co_located < nearby, "{co_located} !< {nearby}");
        assert!(nearby < far, "{nearby} !< {far}");
        // The co-located vs nearby gap is dominated by the coordination
        // overhead (paper: >0.25 s including transfer asymmetry).
        let gap = nearby.as_secs_f64() - co_located.as_secs_f64();
        assert!(gap > 0.2, "gateway gap only {gap}s");
    }

    #[test]
    fn sao_paulo_has_no_gateway_but_still_fetches() {
        let mut c = cluster();
        // São Paulo Wowza (dc 3) → Miami POP (dc 12): direct + coordination.
        let d = c.expected_fetch_delay(DatacenterId(3), DatacenterId(12), 100_000);
        assert!(d.as_secs_f64() > GATEWAY_COORDINATION_S);
        assert!(d.as_secs_f64() < 2.0);
    }

    #[test]
    fn chat_events_flow_through_the_bus() {
        let mut c = cluster();
        let grant = c.create_broadcast(SimTime::ZERO, UserId(1), &sf());
        let link = Link::device_path(
            &sf(),
            &datacenters::datacenter(DatacenterId(8)).location,
            AccessLink::StableWifi,
        );
        c.pubnub.subscribe(grant.id, UserId(2), link);
        let deliveries = c.publish_chat(
            SimTime::from_secs(1),
            ChatEvent {
                broadcast_id: grant.id.0,
                user_id: 2,
                ts_us: 5,
                kind: livescope_proto::message::EventKind::Heart,
            },
        );
        assert_eq!(deliveries.len(), 1);
    }

    #[test]
    fn ingest_on_unknown_broadcast_errors() {
        let mut c = cluster();
        let wire = RtmpMessage::Frame(frame(0)).encode();
        assert_eq!(
            c.ingest_frame(SimTime::ZERO, BroadcastId(404), wire)
                .unwrap_err(),
            CdnError::Control(ControlError::UnknownBroadcast),
            "a missing broadcast is a control-plane error, not an ingest one"
        );
    }

    #[test]
    fn downloaded_chunk_aliases_the_origin_chunk() {
        // End-to-end zero-copy: the Arc a viewer downloads from a POP is
        // the same allocation the ingest server's chunker sealed.
        let mut c = cluster();
        let t0 = SimTime::ZERO;
        let grant = c.create_broadcast(t0, UserId(1), &sf());
        c.connect_publisher(t0, grant.id, &grant.token).unwrap();
        for i in 0..80u64 {
            let t = t0 + SimDuration::from_millis(i * 40);
            c.ingest_decoded(t, grant.id, frame(i)).unwrap();
        }
        let pop_dc = DatacenterId(8);
        c.poll_hls(SimTime::from_secs(4), grant.id, pop_dc).unwrap();
        let t_later = SimTime::from_secs(30);
        let downloaded = c
            .download_chunk(t_later, grant.id, pop_dc, 0)
            .expect("chunk fetched and available");
        let origin = &c.wowza[grant.wowza_dc.0 as usize].origin_chunks(grant.id)[0];
        assert!(
            Arc::ptr_eq(&downloaded, &origin.chunk),
            "download must alias the origin allocation"
        );
    }
}
