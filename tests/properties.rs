//! Property-based tests over the workspace's core invariants: wire codecs
//! round-trip arbitrary values, the chunker conserves frames, playback
//! metrics stay in range and respond monotonically to the pre-buffer, and
//! the statistics toolkit keeps its promises.

use bytes::Bytes;
use proptest::prelude::*;

use livescope_analysis::Cdf;
use livescope_cdn::Chunker;
use livescope_client::playback::{simulate_playback, ArrivedUnit};
use livescope_proto::control::{
    BroadcastSummary, ControlRequest, ControlResponse, Scheme, Sealed, StreamUrl,
};
use livescope_proto::hls::{Chunk, ChunkList, CHUNK_MAGIC};
use livescope_proto::message::{ChatEvent, EventKind, MAX_COMMENT_LEN, MESSAGE_MAGIC};
use livescope_proto::rtmp::{FrameMeta, Role, RtmpMessage, VideoFrame, RTMP_MAGIC, RTMP_VERSION};
use livescope_proto::wire::WireError;
use livescope_sim::{SimDuration, SimTime};

fn arb_frame() -> impl Strategy<Value = VideoFrame> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<bool>(),
        proptest::collection::vec(any::<u8>(), 0..512),
        proptest::option::of(proptest::collection::vec(any::<u8>(), 0..64)),
    )
        .prop_map(|(seq, ts, key, payload, sig)| VideoFrame {
            meta: FrameMeta {
                sequence: seq,
                capture_ts_us: ts,
                keyframe: key,
                signature: sig.map(Bytes::from),
            },
            payload: Bytes::from(payload),
        })
}

/// Every RTMP message but a frame, with tokens from the whole
/// printable range plus multi-byte characters, in both roles.
fn arb_rtmp_control() -> impl Strategy<Value = RtmpMessage> {
    prop_oneof![
        any::<u64>().prop_map(|nonce| RtmpMessage::Handshake { nonce }),
        ("[ -~é€😀]{0,64}", any::<bool>(), any::<u64>()).prop_map(|(token, publisher, user_id)| {
            RtmpMessage::Connect {
                token,
                role: if publisher {
                    Role::Publisher
                } else {
                    Role::Subscriber
                },
                user_id,
            }
        }),
        any::<u64>().prop_map(|sequence| RtmpMessage::Ack { sequence }),
        Just(RtmpMessage::Close),
    ]
}

/// Every RTMP message; half of them frames.
fn arb_message() -> impl Strategy<Value = RtmpMessage> {
    prop_oneof![arb_rtmp_control(), arb_frame().prop_map(RtmpMessage::Frame)]
}

fn arb_url() -> impl Strategy<Value = StreamUrl> {
    (any::<bool>(), any::<u16>(), any::<u64>()).prop_map(|(rtmp, dc, broadcast_id)| StreamUrl {
        scheme: if rtmp { Scheme::Rtmp } else { Scheme::Hls },
        dc,
        broadcast_id,
    })
}

fn arb_control_request() -> impl Strategy<Value = ControlRequest> {
    prop_oneof![
        any::<u64>().prop_map(|user_id| ControlRequest::CreateBroadcast { user_id }),
        (any::<u64>(), "[ -~é€😀]{0,24}").prop_map(|(broadcast_id, token)| {
            ControlRequest::EndBroadcast {
                broadcast_id,
                token,
            }
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(broadcast_id, user_id)| ControlRequest::Join {
            broadcast_id,
            user_id
        }),
        Just(ControlRequest::GlobalList),
    ]
}

/// Every response variant; `JoinInfo` with and without its RTMP URL and
/// `GlobalList` from empty to several summaries.
fn arb_control_response() -> impl Strategy<Value = ControlResponse> {
    let summary = (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
        |(broadcast_id, broadcaster_id, started_ts_us)| BroadcastSummary {
            broadcast_id,
            broadcaster_id,
            started_ts_us,
        },
    );
    prop_oneof![
        (any::<u64>(), "[ -~é€😀]{0,24}", arb_url(), arb_url()).prop_map(
            |(broadcast_id, token, rtmp_url, hls_url)| ControlResponse::Created {
                broadcast_id,
                token,
                rtmp_url,
                hls_url,
            }
        ),
        (proptest::option::of(arb_url()), arb_url(), any::<bool>()).prop_map(
            |(rtmp_url, hls_url, can_comment)| ControlResponse::JoinInfo {
                rtmp_url,
                hls_url,
                can_comment,
            }
        ),
        proptest::collection::vec(summary, 0..6).prop_map(ControlResponse::GlobalList),
        Just(ControlResponse::Ok),
        "[ -~é€😀]{0,24}".prop_map(ControlResponse::Error),
    ]
}

/// Playlist-shaped garbage, one line at a time: durations (finite, not,
/// negative, overflowing), chunk URIs, `MEDIA-SEQUENCE` tags and
/// printable noise, so appended lines reach every check of the parser.
fn arb_playlist_garbage() -> impl Strategy<Value = String> {
    let duration = prop_oneof![
        "[0-9.]{1,6}",
        "[0-9.e+-]{1,6}",
        Just("NaN".to_string()),
        Just("inf".to_string()),
        Just("1e400".to_string()),
        Just("-3.0".to_string()),
    ];
    let line = prop_oneof![
        duration.prop_map(|d| format!("#EXTINF:{d},")),
        (0u64..10_000).prop_map(|seq| format!("chunk_{seq}.lsc")),
        (0u64..10_000).prop_map(|seq| format!("#EXT-X-MEDIA-SEQUENCE:{seq}")),
        "[ -~]{0,12}",
    ];
    proptest::collection::vec(line, 0..8).prop_map(|lines| lines.join("\n"))
}

/// What `ChunkList::from_chunks` guarantees of every list it builds, which
/// `ChunkList::parse` must therefore demand: finite, non-negative
/// durations, strictly ascending seqs, `MEDIA-SEQUENCE` equal to the first
/// seq — and text that parses and re-serializes to the same text.
fn is_emittable(list: &ChunkList) -> bool {
    let text = list.serialize();
    list.entries
        .iter()
        .all(|e| e.duration_s.is_finite() && e.duration_s >= 0.0)
        && list.entries.windows(2).all(|w| w[0].seq < w[1].seq)
        && list
            .entries
            .first()
            .is_none_or(|first| first.seq == list.media_sequence)
        && ChunkList::parse(&text).map(|again| again.serialize()) == Ok(text)
}

/// Every strict prefix of `wire` must decode to an error: a cut-off
/// message is never mistaken for a shorter one.
fn every_strict_prefix_fails<T, E>(
    wire: &Bytes,
    decode: impl Fn(Bytes) -> Result<T, E>,
) -> Result<(), String> {
    for cut in 0..wire.len() {
        prop_assert!(
            decode(wire.slice(..cut)).is_err(),
            "cut at {cut} of {}",
            wire.len()
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn rtmp_messages_roundtrip(msg in arb_message()) {
        let decoded = RtmpMessage::decode(msg.encode()).unwrap();
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn rtmp_decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = RtmpMessage::decode(Bytes::from(bytes));
    }

    #[test]
    fn rtmp_garbage_behind_a_valid_header_is_an_error_or_canonical(
        garbage in proptest::collection::vec(any::<u8>(), 0..200),
        tag in 0u8..8,
    ) {
        // Random bytes die at the magic; these reach every per-tag body
        // decoder. Whatever does decode is a message this codec would
        // have sent, byte for byte.
        let mut wire = RTMP_MAGIC.to_be_bytes().to_vec();
        wire.extend([RTMP_VERSION, tag]);
        wire.extend(garbage);
        if let Ok(msg) = RtmpMessage::decode(Bytes::from(wire.clone())) {
            prop_assert_eq!(&msg.encode()[..], &wire[..]);
        }
    }

    #[test]
    fn every_truncation_of_a_frame_message_is_an_error(frame in arb_frame()) {
        let wire = RtmpMessage::encode_frame(&frame);
        prop_assert_eq!(wire.len(), 6 + frame.encoded_len());
        every_strict_prefix_fails(&wire, RtmpMessage::decode)?;
    }

    #[test]
    fn every_truncation_of_an_rtmp_control_message_is_an_error(
        msg in arb_rtmp_control(),
        trailing in any::<u8>(),
    ) {
        let wire = msg.encode();
        prop_assert_eq!(RtmpMessage::decode(wire.clone()), Ok(msg));
        every_strict_prefix_fails(&wire, RtmpMessage::decode)?;
        let mut longer = wire.to_vec();
        longer.push(trailing);
        prop_assert!(RtmpMessage::decode(Bytes::from(longer)).is_err());
    }

    #[test]
    fn a_send_buffer_never_rewrites_a_kept_push(
        pushes in proptest::collection::vec((arb_frame(), any::<bool>()), 1..16),
    ) {
        // One connection's pushes, some of which a receiver keeps.
        let mut send = Bytes::new();
        let mut kept = Vec::new();
        for (frame, keep) in &pushes {
            RtmpMessage::encode_frame_into(frame, &mut send);
            let expected = RtmpMessage::encode_frame(frame);
            prop_assert_eq!(&send, &expected);
            if *keep {
                kept.push((send.clone(), expected));
            }
        }
        for (view, expected) in kept {
            prop_assert_eq!(view, expected);
        }
    }

    #[test]
    fn every_truncation_of_a_chunk_is_an_error(
        frames in proptest::collection::vec(arb_frame(), 0..6),
    ) {
        let wire = Chunk { seq: 1, start_ts_us: 2, duration_us: 3, frames }.encode();
        every_strict_prefix_fails(&wire, Chunk::decode)?;
    }

    #[test]
    fn chunk_garbage_behind_a_valid_header_is_an_error_or_canonical(
        garbage in proptest::collection::vec(any::<u8>(), 0..300),
        count in 0u16..4,
    ) {
        let mut wire = CHUNK_MAGIC.to_be_bytes().to_vec();
        wire.extend([0; 24]);
        wire.extend(count.to_be_bytes());
        wire.extend(garbage);
        if let Ok(chunk) = Chunk::decode(Bytes::from(wire.clone())) {
            prop_assert_eq!(&chunk.encode()[..], &wire[..]);
        }
    }

    #[test]
    fn chunks_roundtrip(
        seq in any::<u64>(),
        start in any::<u64>(),
        dur in any::<u64>(),
        frames in proptest::collection::vec(arb_frame(), 0..8),
    ) {
        let chunk = Chunk { seq, start_ts_us: start, duration_us: dur, frames };
        prop_assert_eq!(Chunk::decode(chunk.encode()).unwrap(), chunk);
    }

    #[test]
    fn chunk_encoded_len_is_the_length_of_its_encoding(
        seq in any::<u64>(),
        frames in proptest::collection::vec(arb_frame(), 0..8),
    ) {
        let chunk = Chunk { seq, start_ts_us: 0, duration_us: 0, frames };
        prop_assert_eq!(chunk.encoded_len(), chunk.encode().len());
        let empty = Chunk { frames: Vec::new(), ..chunk };
        prop_assert_eq!(empty.encoded_len(), empty.encode().len());
    }

    #[test]
    fn chunklists_roundtrip(seqs in proptest::collection::btree_set(0u64..10_000, 0..12)) {
        let chunks: Vec<Chunk> = seqs
            .iter()
            .map(|&s| Chunk { seq: s, start_ts_us: s * 3_000_000, duration_us: 3_000_000, frames: vec![] })
            .collect();
        let list = ChunkList::from_chunks(&chunks, 20);
        let parsed = ChunkList::parse(&list.serialize()).unwrap();
        prop_assert_eq!(parsed, list);
    }

    #[test]
    fn chunklist_truncations_and_trailing_garbage_fail_or_reserialize(
        seqs in proptest::collection::btree_set(0u64..10_000, 0..8),
        duration_ms in 0u64..10_000,
        garbage in arb_playlist_garbage(),
    ) {
        // A cut-off or hostile playlist is a `WireError` or a list the
        // serializer could have written; a truncation never invents an
        // entry, and no input panics.
        let chunks: Vec<Chunk> = seqs
            .iter()
            .map(|&s| Chunk { seq: s, start_ts_us: 0, duration_us: duration_ms * 1_000 + s, frames: vec![] })
            .collect();
        let text = ChunkList::from_chunks(&chunks, 20).serialize();
        let whole = ChunkList::parse(&text).expect("a serialized list parses");
        for cut in 0..=text.len() {
            if let Ok(parsed) = ChunkList::parse(&text[..cut]) {
                prop_assert!(is_emittable(&parsed), "cut at {cut}: {parsed:?}");
                prop_assert!(whole.entries.starts_with(&parsed.entries), "cut at {cut}");
            }
        }
        let hostile = format!("{text}{garbage}");
        if let Ok(parsed) = ChunkList::parse(&hostile) {
            prop_assert!(is_emittable(&parsed), "{hostile:?} parsed to {parsed:?}");
        }
    }

    #[test]
    fn chat_events_roundtrip(
        broadcast in any::<u64>(),
        user in any::<u64>(),
        ts in any::<u64>(),
        comment in proptest::option::of("[ -~]{0,100}"),
    ) {
        let event = ChatEvent {
            broadcast_id: broadcast,
            user_id: user,
            ts_us: ts,
            kind: match comment {
                Some(text) => EventKind::Comment(text),
                None => EventKind::Heart,
            },
        };
        prop_assert_eq!(ChatEvent::decode(event.encode()).unwrap(), event);
    }

    #[test]
    fn every_truncation_of_a_chat_event_is_an_error(
        broadcast in any::<u64>(),
        user in any::<u64>(),
        ts in any::<u64>(),
        comment in proptest::option::of("[ -~é€😀]{0,600}"),
        extra in "[é€😀]{1,8}",
        trailing in any::<u8>(),
    ) {
        // Multi-byte text cut back to the longest prefix of whole
        // characters that fits the cap.
        let fit = |mut text: String| {
            while text.len() > MAX_COMMENT_LEN {
                text.pop();
            }
            text
        };
        let event = ChatEvent {
            broadcast_id: broadcast,
            user_id: user,
            ts_us: ts,
            kind: comment.clone().map_or(EventKind::Heart, |text| EventKind::Comment(fit(text))),
        };
        let wire = event.encode();
        prop_assert_eq!(ChatEvent::decode(wire.clone()), Ok(event));
        every_strict_prefix_fails(&wire, ChatEvent::decode)?;
        let mut longer = wire.to_vec();
        longer.push(trailing);
        prop_assert!(ChatEvent::decode(Bytes::from(longer)).is_err(), "trailing byte");
        // One over the cap: the encoder refuses it, so the wire is built by
        // hand, and the decoder must name the field.
        let mut text = fit(comment.unwrap_or_default());
        while text.len() <= MAX_COMMENT_LEN {
            text.push_str(&extra);
        }
        let mut oversized = MESSAGE_MAGIC.to_be_bytes().to_vec();
        for field in [broadcast, user, ts] {
            oversized.extend(field.to_be_bytes());
        }
        oversized.push(1);
        oversized.extend((text.len() as u16).to_be_bytes());
        oversized.extend(text.as_bytes());
        prop_assert_eq!(
            ChatEvent::decode(Bytes::from(oversized)),
            Err(WireError::OversizedField { len: text.len() })
        );
    }

    #[test]
    fn control_messages_roundtrip(user in any::<u64>(), bcast in any::<u64>(), dc in 0u16..31) {
        let reqs = [
            ControlRequest::CreateBroadcast { user_id: user },
            ControlRequest::Join { broadcast_id: bcast, user_id: user },
            ControlRequest::GlobalList,
        ];
        for req in reqs {
            prop_assert_eq!(ControlRequest::decode(req.encode()).unwrap(), req);
        }
        let resp = ControlResponse::JoinInfo {
            rtmp_url: Some(StreamUrl { scheme: Scheme::Rtmp, dc, broadcast_id: bcast }),
            hls_url: StreamUrl { scheme: Scheme::Hls, dc, broadcast_id: bcast },
            can_comment: user.is_multiple_of(2),
        };
        prop_assert_eq!(ControlResponse::decode(resp.encode()).unwrap(), resp);
    }

    #[test]
    fn every_truncation_of_a_control_message_or_its_envelope_is_an_error(
        req in arb_control_request(),
        resp in arb_control_response(),
        key in any::<u64>(),
        nonce in any::<u64>(),
    ) {
        let wire = req.encode();
        prop_assert_eq!(ControlRequest::decode(wire.clone()), Ok(req));
        every_strict_prefix_fails(&wire, ControlRequest::decode)?;
        let wire = resp.encode();
        prop_assert_eq!(ControlResponse::decode(wire.clone()), Ok(resp));
        every_strict_prefix_fails(&wire, ControlResponse::decode)?;
        let sealed = Sealed::seal(&wire, key, nonce).wire().clone();
        prop_assert_eq!(Sealed::from_wire(sealed.clone()).unseal(key), Ok(wire));
        every_strict_prefix_fails(&sealed, |cut| Sealed::from_wire(cut).unseal(key))?;
    }

    #[test]
    fn sealing_roundtrips_and_hides(payload in proptest::collection::vec(1u8..255, 1..200), key in any::<u64>(), nonce in any::<u64>()) {
        let sealed = Sealed::seal(&payload, key, nonce);
        prop_assert_eq!(&sealed.unseal(key).unwrap()[..], &payload[..]);
        if payload.len() >= 8 {
            // The plaintext must not appear in the ciphertext.
            let wire = sealed.wire();
            prop_assert!(!wire.windows(payload.len()).any(|w| w == payload));
        }
        prop_assert!(sealed.unseal(key ^ 1).is_err());
    }

    #[test]
    fn chunker_conserves_and_orders_frames(
        gaps_ms in proptest::collection::vec(1u64..500, 1..200),
        chunk_ms in prop_oneof![Just(1_000u64), Just(3_000), Just(10_000)],
    ) {
        let mut chunker = Chunker::new(SimDuration::from_millis(chunk_ms));
        let mut now = SimTime::ZERO;
        let mut emitted: Vec<u64> = Vec::new();
        for (i, gap) in gaps_ms.iter().enumerate() {
            now += SimDuration::from_millis(*gap);
            let frame = VideoFrame::new(i as u64, i as u64 * 40_000, false, Bytes::new());
            if let Some(ready) = chunker.push(now, frame) {
                emitted.extend(ready.chunk.frames.iter().map(|f| f.meta.sequence));
            }
        }
        if let Some(last) = chunker.flush(now + SimDuration::from_secs(60)) {
            emitted.extend(last.chunk.frames.iter().map(|f| f.meta.sequence));
        }
        // Every frame exactly once, in order.
        prop_assert_eq!(emitted, (0..gaps_ms.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn playback_metrics_stay_in_range(
        delays_ms in proptest::collection::vec(0u64..5_000, 1..150),
        prebuffer_ms in 0u64..12_000,
    ) {
        let units: Vec<ArrivedUnit> = delays_ms
            .iter()
            .enumerate()
            .map(|(i, &d)| ArrivedUnit {
                media_ts_us: i as u64 * 40_000,
                duration_us: 40_000,
                arrival: SimTime::from_millis(i as u64 * 40 + d),
            })
            .collect();
        let report = simulate_playback(&units, SimDuration::from_millis(prebuffer_ms));
        prop_assert_eq!(report.played + report.discarded, units.len() as u64);
        prop_assert!(report.stall_s >= 0.0);
        prop_assert!(report.avg_buffering_s >= 0.0);
        prop_assert!(report.stall_ratio >= 0.0);
    }

    #[test]
    fn bigger_prebuffer_never_stalls_more(
        delays_ms in proptest::collection::vec(0u64..3_000, 2..100),
    ) {
        let units: Vec<ArrivedUnit> = delays_ms
            .iter()
            .enumerate()
            .map(|(i, &d)| ArrivedUnit {
                media_ts_us: i as u64 * 40_000,
                duration_us: 40_000,
                arrival: SimTime::from_millis(i as u64 * 40 + d),
            })
            .collect();
        let small = simulate_playback(&units, SimDuration::ZERO);
        let big = simulate_playback(&units, SimDuration::from_secs(10));
        // A 10 s pre-buffer on a ≤3 s-jitter stream absorbs everything.
        prop_assert!(big.stall_s <= small.stall_s + 1e-9);
    }

    #[test]
    fn cdf_quantiles_are_monotone_and_bounded(samples in proptest::collection::vec(-1e6f64..1e6, 1..300)) {
        let cdf = Cdf::from_samples(samples.clone());
        let mut last = f64::NEG_INFINITY;
        for k in 0..=10 {
            let q = cdf.quantile(k as f64 / 10.0);
            prop_assert!(q >= last);
            last = q;
        }
        prop_assert_eq!(cdf.quantile(0.0), cdf.min().unwrap());
        prop_assert_eq!(cdf.quantile(1.0), cdf.max().unwrap());
        for &s in &samples {
            let f = cdf.fraction_at_or_below(s);
            prop_assert!(f > 0.0 && f <= 1.0);
        }
    }

    #[test]
    fn stream_urls_roundtrip(dc in 0u16..31, bcast in any::<u64>(), rtmp in any::<bool>()) {
        let url = StreamUrl {
            scheme: if rtmp { Scheme::Rtmp } else { Scheme::Hls },
            dc,
            broadcast_id: bcast,
        };
        let parsed: StreamUrl = url.to_string().parse().unwrap();
        prop_assert_eq!(parsed, url);
    }

    #[test]
    fn sha256_matches_incremental_arbitrary_splits(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        split in 0usize..512,
    ) {
        let split = split.min(data.len());
        let oneshot = livescope_security::sha256::digest(&data);
        let mut h = livescope_security::sha256::Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), oneshot);
    }

    #[test]
    fn overlay_tree_invariants_under_any_join_leave_sequence(
        ops in proptest::collection::vec((any::<bool>(), 0u64..40, 0usize..8), 1..120),
    ) {
        use livescope_overlay::{Hierarchy, MulticastTree};
        use livescope_net::datacenters::DatacenterId;
        let spots = [
            (40.71, -74.01), (34.05, -118.24), (51.51, -0.13), (48.86, 2.35),
            (35.68, 139.65), (1.35, 103.82), (-33.87, 151.21), (25.76, -80.19),
        ];
        let mut tree = MulticastTree::new(DatacenterId(0), Hierarchy::new());
        let mut joined = std::collections::BTreeSet::new();
        for (join, viewer, spot) in ops {
            if join && !joined.contains(&viewer) {
                let (lat, lon) = spots[spot];
                let leaf = Hierarchy::nearest_leaf(
                    &livescope_net::geo::GeoPoint::new(lat, lon),
                );
                tree.join(viewer, leaf);
                joined.insert(viewer);
            } else if !join {
                let existed = tree.leave(viewer);
                prop_assert_eq!(existed, joined.remove(&viewer));
            }
        }
        prop_assert_eq!(tree.viewer_count(), joined.len());
        // Tree shape: every edge child is unique (single parent), the
        // root never exceeds gateway fan-out, state is bounded.
        let edges = tree.edges();
        let mut children: Vec<_> = edges.iter().map(|&(_, c)| c).collect();
        let n = children.len();
        children.sort();
        children.dedup();
        prop_assert_eq!(children.len(), n);
        prop_assert!(tree.root_degree() <= 4);
        prop_assert!(tree.active_servers() <= 24);
        // Empty tree collapses back to just the root.
        if joined.is_empty() {
            prop_assert_eq!(tree.active_servers(), 1);
        }
    }

    #[test]
    fn scheduler_fires_all_events_in_time_order(
        // Quarter-second steps over ten seconds: ties are common and every
        // fourth step is a one-second epoch boundary the sprint runs through.
        steps in proptest::collection::vec(0u64..40, 1..200),
    ) {
        use livescope_sim::{RngPool, SchedulerBackend, ShardId, ShardedScheduler};
        type Log = Vec<(u64, usize)>;
        let times: Vec<u64> = steps.iter().map(|s| s * 250_000).collect();
        let mut sched = ShardedScheduler::new(RngPool::new(1), vec![Log::new()], SimDuration::from_secs(1));
        for (i, &t) in times.iter().enumerate() {
            sched.schedule(ShardId(0), SimTime::from_micros(t), Box::new(move |ctx, log: &mut Log| {
                log.push((ctx.now().as_micros(), i));
            }));
        }
        // Stable by (time, insertion order) — the determinism contract.
        let mut expected: Log = times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expected.sort();
        sched.run();
        prop_assert_eq!(sched.events_fired(), times.len() as u64);
        prop_assert_eq!(sched.into_states().pop().expect("one shard"), expected);
    }

    #[test]
    fn one_shard_sharded_scheduler_fires_in_the_same_order_as_scheduler(
        // Quarter-second grid: timestamps tie often and land on the sharded
        // kernel's one-second epoch boundaries. Each seed event carries a
        // chain of follow-up delays (0 = a tie with the firing instant).
        plan in proptest::collection::vec(
            (0u64..12, proptest::collection::vec(0u64..6, 0..4)),
            1..60,
        ),
    ) {
        use std::sync::Arc;
        use livescope_sim::{
            EventCtx, RngPool, Scheduler, SchedulerBackend, ShardId, ShardedScheduler,
        };
        const STEP_US: u64 = 250_000;
        // (fire time, seed index, depth in that seed's chain), in fire order.
        type Log = Vec<(u64, usize, usize)>;
        type Chains = Arc<Vec<Vec<u64>>>;

        fn fire_legacy(sched: &mut Scheduler<Log>, log: &mut Log, chains: Chains, i: usize, depth: usize) {
            log.push((sched.now().as_micros(), i, depth));
            if let Some(&delay) = chains[i].get(depth) {
                sched.schedule_in(SimDuration::from_micros(delay * STEP_US), move |sched, log: &mut Log| {
                    fire_legacy(sched, log, chains, i, depth + 1)
                });
            }
        }
        fn fire_sharded(ctx: &mut EventCtx<'_, Log>, log: &mut Log, chains: Chains, i: usize, depth: usize) {
            log.push((ctx.now().as_micros(), i, depth));
            if let Some(&delay) = chains[i].get(depth) {
                ctx.schedule_in(
                    SimDuration::from_micros(delay * STEP_US),
                    Box::new(move |ctx, log: &mut Log| fire_sharded(ctx, log, chains, i, depth + 1)),
                );
            }
        }

        let chains: Chains = Arc::new(plan.iter().map(|(_, chain)| chain.clone()).collect());
        let mut legacy: Scheduler<Log> = Scheduler::new();
        let mut sharded = ShardedScheduler::new(RngPool::new(1), vec![Log::new()], SimDuration::from_secs(1));
        for (i, &(t, _)) in plan.iter().enumerate() {
            let at = SimTime::from_micros(t * STEP_US);
            let c = chains.clone();
            legacy.schedule_at(at, move |sched, log: &mut Log| fire_legacy(sched, log, c, i, 0));
            let c = chains.clone();
            sharded.schedule(ShardId(0), at, Box::new(move |ctx, log: &mut Log| fire_sharded(ctx, log, c, i, 0)));
        }
        let mut legacy_log = Log::new();
        let legacy_end = legacy.run(&mut legacy_log);
        let sharded_end = sharded.run();
        prop_assert_eq!(legacy_end, sharded_end);
        prop_assert_eq!(legacy.events_fired(), sharded.events_fired());
        let sharded_log = sharded.into_states().pop().expect("one shard");
        prop_assert_eq!(sharded_log.len(), plan.iter().map(|(_, c)| 1 + c.len()).sum::<usize>());
        prop_assert_eq!(legacy_log, sharded_log);
    }

    #[test]
    fn rtmps_channel_roundtrips_and_rejects_any_bitflip(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..64), 1..12),
        flip_at in any::<usize>(),
    ) {
        use livescope_security::RtmpsChannel;
        let mut tx = RtmpsChannel::new(0xFACE);
        let mut rx = RtmpsChannel::new(0xFACE);
        let mut last_wire = None;
        for p in &payloads {
            let wire = tx.protect(p);
            last_wire = Some(wire.clone());
            prop_assert_eq!(&rx.open(wire).unwrap()[..], &p[..]);
        }
        if let Some(wire) = last_wire {
            let mut corrupted = wire.to_vec();
            let at = flip_at % corrupted.len();
            corrupted[at] ^= 0x01;
            // Either rejected as tampered, or (nonce byte flip) rejected
            // as replay/reorder — never accepted.
            prop_assert!(rx.open(bytes::Bytes::from(corrupted)).is_err());
        }
    }

    #[test]
    fn signatures_verify_only_the_signed_message(
        msg in proptest::collection::vec(any::<u8>(), 1..128),
        flip in 0usize..128,
    ) {
        use rand::SeedableRng;
        let keys = livescope_security::KeyPair::generate(
            &mut rand::rngs::SmallRng::seed_from_u64(1),
        );
        let sig = keys.sign(&msg);
        prop_assert!(keys.public().verify(&msg, &sig));
        let mut tampered = msg.clone();
        let at = flip % tampered.len();
        tampered[at] ^= 0x01;
        prop_assert!(!keys.public().verify(&tampered, &sig));
    }
}
