//! Typed, sim-time-stamped trace events and their JSONL codec.
//!
//! Every event is stamped with sim-time microseconds (`t_us`) by the
//! emitting component; wall-clock never appears in a trace, which is what
//! makes traces byte-identical for a fixed `(config, seed)`. The JSONL
//! encoding writes fields in a fixed order for the same reason.

use crate::span::SpanKind;
use std::fmt::Write as _;

/// Which delivery protocol a viewer is on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// RTMP push delivery (the first ~100 viewers).
    Rtmp,
    /// HLS chunk-and-poll delivery (everyone else).
    Hls,
}

impl Protocol {
    /// Lowercase wire label used in the JSONL encoding.
    pub fn label(self) -> &'static str {
        match self {
            Protocol::Rtmp => "rtmp",
            Protocol::Hls => "hls",
        }
    }
}

/// A structured event from one of the instrumented components.
///
/// All `*_us` fields are sim-time microseconds (`livescope_sim::SimTime`
/// values at the emitting site); durations are microsecond spans.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// Wowza re-encoded and pushed a frame to its RTMP subscribers.
    RtmpFramePushed {
        /// Broadcast (stream) id.
        broadcast: u64,
        /// Sequence number within the broadcast.
        seq: u64,
        /// Capture timestamp of the unit at the broadcaster.
        capture_us: u64,
        /// RTMP subscriber count the frame was pushed to.
        subscribers: u32,
    },
    /// Wowza's chunker sealed a chunk and appended it to the origin.
    ChunkCompleted {
        /// Broadcast (stream) id.
        broadcast: u64,
        /// Sequence number within the broadcast.
        seq: u64,
        /// Media timestamp at which the chunk starts.
        start_ts_us: u64,
        /// Span covered, in microseconds.
        duration_us: u64,
        /// Frames sealed into the chunk.
        frames: u32,
    },
    /// A Fastly POP served a chunklist with at least one entry.
    PollHit {
        /// Broadcast (stream) id.
        broadcast: u64,
        /// Fastly POP datacenter id.
        pop: u16,
        /// Chunklist entries returned by the poll.
        entries: u32,
    },
    /// A Fastly POP had nothing servable for a poll.
    PollMiss {
        /// Broadcast (stream) id.
        broadcast: u64,
        /// Fastly POP datacenter id.
        pop: u16,
    },
    /// A Fastly POP fetched a chunk from the Wowza origin; `origin_ready_us`
    /// is when the chunk was sealed, `available_at_us` when the edge copy
    /// becomes servable.
    OriginPull {
        /// Broadcast (stream) id.
        broadcast: u64,
        /// Fastly POP datacenter id.
        pop: u16,
        /// Sequence number within the broadcast.
        seq: u64,
        /// When the chunk was sealed at the origin.
        origin_ready_us: u64,
        /// When the edge copy becomes servable.
        available_at_us: u64,
        /// How many chunks the triggering poll batched into one
        /// gateway-routed transfer (≥ 1; every chunk of the batch emits
        /// its own `OriginPull` carrying the same `batch` count).
        batch: u32,
    },
    /// An origin fetch was routed through a co-located gateway POP
    /// (the paper's §4.4 replication detour).
    GatewayReplicated {
        /// Broadcast (stream) id.
        broadcast: u64,
        /// Wowza ingest datacenter id.
        wowza: u16,
        /// Gateway POP the transfer was routed through.
        gateway: u16,
        /// Fastly POP datacenter id.
        pop: u16,
        /// Origin-to-edge transfer time.
        transfer_us: u64,
    },
    /// A publisher connected to its Wowza ingest server.
    PublisherConnected {
        /// Broadcast (stream) id.
        broadcast: u64,
        /// Wowza ingest datacenter id.
        wowza: u16,
    },
    /// An admitted viewer opened its RTMP subscription at the ingest
    /// server.
    RtmpSubscribed {
        /// Broadcast (stream) id.
        broadcast: u64,
        /// Viewer (user) id.
        viewer: u64,
        /// Wowza ingest datacenter id.
        wowza: u16,
    },
    /// The control server ran out of RTMP slots and put a viewer on HLS.
    HandoffToHls {
        /// Broadcast (stream) id.
        broadcast: u64,
        /// Viewer (user) id.
        viewer: u64,
        /// RTMP viewer count at the moment of handoff.
        rtmp_viewers: u64,
    },
    /// PubNub fanned a chat event out to subscribers.
    CommentFanout {
        /// Broadcast (stream) id.
        broadcast: u64,
        /// User who posted the chat event.
        from_user: u64,
        /// Subscribers the event was fanned out to.
        receivers: u32,
    },
    /// The control server admitted a viewer.
    JoinStarted {
        /// Broadcast (stream) id.
        broadcast: u64,
        /// Viewer (user) id.
        viewer: u64,
        /// Whether the viewer was admitted on RTMP (vs HLS).
        rtmp: bool,
    },
    /// A viewer's playback simulation produced its report — the end of the
    /// join span. `avg_buffering_us` is the Fig 10 buffering component.
    JoinPlayout {
        /// Broadcast (stream) id.
        broadcast: u64,
        /// Viewer (user) id.
        viewer: u64,
        /// Protocol the viewer ended up on.
        protocol: Protocol,
        /// When playback started.
        playback_start_us: u64,
        /// Average buffering delay (the Fig 10 component).
        avg_buffering_us: u64,
        /// Total mid-playback stall time (the Periscope-QoE-paper stall
        /// component; excludes the initial join buffering).
        stall_us: u64,
        /// Stall ratio (stalled time / session time) in parts per million.
        stall_ratio_ppm: u64,
    },
    /// An RTMP push reached the viewer: upload (capture→Wowza) and
    /// last-mile (Wowza→viewer) spans for one media unit.
    RtmpUnitDelivered {
        /// Broadcast (stream) id.
        broadcast: u64,
        /// Viewer (user) id.
        viewer: u64,
        /// Sequence number within the broadcast.
        seq: u64,
        /// Capture-to-Wowza upload span.
        upload_us: u64,
        /// Wowza-to-viewer last-mile span.
        last_mile_us: u64,
    },
    /// An HLS viewer finished downloading a chunk; carries the full
    /// receipt timeline for the delay ledger.
    ChunkDelivered {
        /// Broadcast (stream) id.
        broadcast: u64,
        /// Viewer (user) id.
        viewer: u64,
        /// Sequence number within the broadcast.
        seq: u64,
        /// Fastly POP datacenter id the viewer downloaded from.
        pop: u16,
        /// When the chunk became servable at the POP.
        available_at_pop_us: u64,
        /// When the viewer's poll discovered the chunk.
        discovered_us: u64,
        /// When the download completed at the viewer.
        arrival_us: u64,
        /// Span covered, in microseconds.
        duration_us: u64,
    },
    /// Scheduler queue-depth sample (every N fired events).
    QueueDepth {
        /// Events pending in the queue.
        depth: u64,
        /// Total events fired so far.
        fired: u64,
    },
    /// The crawler's global-list sweep saw a broadcast for the first time.
    BroadcastDiscovered {
        /// Broadcast (stream) id.
        broadcast: u64,
        /// When the broadcast actually started.
        started_us: u64,
    },
    /// The high-frequency probe observed a chunk at origin and POP.
    ProbeSample {
        /// Broadcast (stream) id.
        broadcast: u64,
        /// Fastly POP datacenter id.
        pop: u16,
        /// Sequence number within the broadcast.
        seq: u64,
        /// When the chunk was sealed at the origin.
        origin_ready_us: u64,
        /// When the chunk was observed available at the POP.
        pop_available_us: u64,
    },
    /// The §8 overlay experiment pushed one frame down the multicast
    /// tree: origin cost and the slowest viewer's delivery delay.
    OverlayFrameDelivered {
        /// Audience size of the overlay run.
        audience: u64,
        /// Sequence number within the broadcast.
        seq: u64,
        /// Copies the multicast root pushed for this frame.
        root_sends: u64,
        /// Viewers reached by the frame.
        viewers: u64,
        /// Slowest viewer's delivery delay.
        max_delay_us: u64,
    },
    /// A causal span opened; `t` is the span's start time. Ids are
    /// content-addressed per [`crate::span`], so the matching
    /// [`TraceEvent::SpanClose`] and any child spans carry the same id in
    /// every run and lane count.
    SpanOpen {
        /// Deterministic span id (never 0; see [`crate::span::span_id`]).
        id: u64,
        /// Parent span id (0 = root).
        parent: u64,
        /// Span kind.
        kind: SpanKind,
        /// Broadcast the span belongs to (overlay spans carry the
        /// audience size here).
        broadcast: u64,
        /// Kind-specific subject: viewer id for `viewer_session` and
        /// `viewer_deliver`, seq for `chunk_seal` / `origin_fetch` /
        /// `overlay_frame`, 0 for `broadcast`.
        subject: u64,
        /// Datacenter locus (Wowza or POP id; 0 when not applicable).
        site: u16,
    },
    /// A causal span closed; `t` is the span's end time.
    SpanClose {
        /// Span id being closed (matches a prior [`TraceEvent::SpanOpen`]).
        id: u64,
        /// Span kind, denormalized so closes are greppable on their own.
        kind: SpanKind,
    },
}

impl TraceEvent {
    /// Stable type tag used in the JSONL encoding and summaries.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::RtmpFramePushed { .. } => "rtmp_frame_pushed",
            TraceEvent::ChunkCompleted { .. } => "chunk_completed",
            TraceEvent::PollHit { .. } => "poll_hit",
            TraceEvent::PollMiss { .. } => "poll_miss",
            TraceEvent::OriginPull { .. } => "origin_pull",
            TraceEvent::GatewayReplicated { .. } => "gateway_replicated",
            TraceEvent::PublisherConnected { .. } => "publisher_connected",
            TraceEvent::RtmpSubscribed { .. } => "rtmp_subscribed",
            TraceEvent::HandoffToHls { .. } => "handoff_to_hls",
            TraceEvent::CommentFanout { .. } => "comment_fanout",
            TraceEvent::JoinStarted { .. } => "join_started",
            TraceEvent::JoinPlayout { .. } => "join_playout",
            TraceEvent::RtmpUnitDelivered { .. } => "rtmp_unit_delivered",
            TraceEvent::ChunkDelivered { .. } => "chunk_delivered",
            TraceEvent::QueueDepth { .. } => "queue_depth",
            TraceEvent::BroadcastDiscovered { .. } => "broadcast_discovered",
            TraceEvent::ProbeSample { .. } => "probe_sample",
            TraceEvent::OverlayFrameDelivered { .. } => "overlay_frame_delivered",
            TraceEvent::SpanOpen { .. } => "span_open",
            TraceEvent::SpanClose { .. } => "span_close",
        }
    }
}

/// An event plus its sim-time stamp.
#[derive(Clone, Debug, PartialEq)]
pub struct TimedEvent {
    /// Sim-time microseconds at emission.
    pub t_us: u64,
    /// The event payload.
    pub event: TraceEvent,
}

impl TimedEvent {
    /// One JSON object, fixed field order: `t`, `type`, then the event's
    /// fields in declaration order.
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(
            s,
            "{{\"t\":{},\"type\":\"{}\"",
            self.t_us,
            self.event.kind()
        );
        macro_rules! fields {
            ($($name:literal: $value:expr),* $(,)?) => {
                { $(let _ = write!(s, ",\"{}\":{}", $name, $value);)* }
            };
        }
        match &self.event {
            TraceEvent::RtmpFramePushed {
                broadcast,
                seq,
                capture_us,
                subscribers,
            } => {
                fields!("broadcast": broadcast, "seq": seq, "capture_us": capture_us,
                        "subscribers": subscribers)
            }
            TraceEvent::ChunkCompleted {
                broadcast,
                seq,
                start_ts_us,
                duration_us,
                frames,
            } => {
                fields!("broadcast": broadcast, "seq": seq, "start_ts_us": start_ts_us,
                        "duration_us": duration_us, "frames": frames)
            }
            TraceEvent::PollHit {
                broadcast,
                pop,
                entries,
            } => {
                fields!("broadcast": broadcast, "pop": pop, "entries": entries)
            }
            TraceEvent::PollMiss { broadcast, pop } => {
                fields!("broadcast": broadcast, "pop": pop)
            }
            TraceEvent::OriginPull {
                broadcast,
                pop,
                seq,
                origin_ready_us,
                available_at_us,
                batch,
            } => {
                fields!("broadcast": broadcast, "pop": pop, "seq": seq,
                        "origin_ready_us": origin_ready_us, "available_at_us": available_at_us,
                        "batch": batch)
            }
            TraceEvent::GatewayReplicated {
                broadcast,
                wowza,
                gateway,
                pop,
                transfer_us,
            } => {
                fields!("broadcast": broadcast, "wowza": wowza, "gateway": gateway,
                        "pop": pop, "transfer_us": transfer_us)
            }
            TraceEvent::PublisherConnected { broadcast, wowza } => {
                fields!("broadcast": broadcast, "wowza": wowza)
            }
            TraceEvent::RtmpSubscribed {
                broadcast,
                viewer,
                wowza,
            } => {
                fields!("broadcast": broadcast, "viewer": viewer, "wowza": wowza)
            }
            TraceEvent::HandoffToHls {
                broadcast,
                viewer,
                rtmp_viewers,
            } => {
                fields!("broadcast": broadcast, "viewer": viewer, "rtmp_viewers": rtmp_viewers)
            }
            TraceEvent::CommentFanout {
                broadcast,
                from_user,
                receivers,
            } => {
                fields!("broadcast": broadcast, "from_user": from_user, "receivers": receivers)
            }
            TraceEvent::JoinStarted {
                broadcast,
                viewer,
                rtmp,
            } => {
                fields!("broadcast": broadcast, "viewer": viewer, "rtmp": rtmp)
            }
            TraceEvent::JoinPlayout {
                broadcast,
                viewer,
                protocol,
                playback_start_us,
                avg_buffering_us,
                stall_us,
                stall_ratio_ppm,
            } => {
                fields!("broadcast": broadcast, "viewer": viewer);
                let _ = write!(s, ",\"protocol\":\"{}\"", protocol.label());
                fields!("playback_start_us": playback_start_us,
                        "avg_buffering_us": avg_buffering_us,
                        "stall_us": stall_us, "stall_ratio_ppm": stall_ratio_ppm)
            }
            TraceEvent::RtmpUnitDelivered {
                broadcast,
                viewer,
                seq,
                upload_us,
                last_mile_us,
            } => {
                fields!("broadcast": broadcast, "viewer": viewer, "seq": seq,
                        "upload_us": upload_us, "last_mile_us": last_mile_us)
            }
            TraceEvent::ChunkDelivered {
                broadcast,
                viewer,
                seq,
                pop,
                available_at_pop_us,
                discovered_us,
                arrival_us,
                duration_us,
            } => {
                fields!("broadcast": broadcast, "viewer": viewer, "seq": seq, "pop": pop,
                        "available_at_pop_us": available_at_pop_us, "discovered_us": discovered_us,
                        "arrival_us": arrival_us, "duration_us": duration_us)
            }
            TraceEvent::QueueDepth { depth, fired } => {
                fields!("depth": depth, "fired": fired)
            }
            TraceEvent::BroadcastDiscovered {
                broadcast,
                started_us,
            } => {
                fields!("broadcast": broadcast, "started_us": started_us)
            }
            TraceEvent::ProbeSample {
                broadcast,
                pop,
                seq,
                origin_ready_us,
                pop_available_us,
            } => {
                fields!("broadcast": broadcast, "pop": pop, "seq": seq,
                        "origin_ready_us": origin_ready_us, "pop_available_us": pop_available_us)
            }
            TraceEvent::OverlayFrameDelivered {
                audience,
                seq,
                root_sends,
                viewers,
                max_delay_us,
            } => {
                fields!("audience": audience, "seq": seq, "root_sends": root_sends,
                        "viewers": viewers, "max_delay_us": max_delay_us)
            }
            TraceEvent::SpanOpen {
                id,
                parent,
                kind,
                broadcast,
                subject,
                site,
            } => {
                fields!("id": id, "parent": parent);
                let _ = write!(s, ",\"kind\":\"{}\"", kind.label());
                fields!("broadcast": broadcast, "subject": subject, "site": site)
            }
            TraceEvent::SpanClose { id, kind } => {
                fields!("id": id);
                let _ = write!(s, ",\"kind\":\"{}\"", kind.label());
            }
        }
        s.push('}');
        s
    }
}

/// Parses a JSONL trace back into events. Unknown event types are an
/// error: the trace format is versioned by this enum.
pub fn parse_jsonl(text: &str) -> Result<Vec<TimedEvent>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(parse_line)
        .collect()
}

/// A leniently parsed trace: the lines that decoded, plus an explicit
/// count of the ones that did not — nothing is dropped silently.
#[derive(Clone, Debug, Default)]
pub struct LossyTrace {
    /// Events that parsed, in line order.
    pub events: Vec<TimedEvent>,
    /// Lines skipped (unknown event type or malformed JSON).
    pub skipped_lines: u64,
    /// First skip's error message, for diagnostics (empty if none).
    pub first_skip: String,
}

/// Parses a JSONL trace, skipping (and counting) lines this build does
/// not understand — for summary tools that must survive traces written
/// by a newer event vocabulary.
pub fn parse_jsonl_lossy(text: &str) -> LossyTrace {
    let mut out = LossyTrace::default();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match parse_line(line) {
            Ok(e) => out.events.push(e),
            Err(msg) => {
                if out.skipped_lines == 0 {
                    out.first_skip = msg;
                }
                out.skipped_lines += 1;
            }
        }
    }
    out
}

fn parse_line(line: &str) -> Result<TimedEvent, String> {
    let v: serde_json::Value =
        serde_json::from_str(line).map_err(|e| format!("bad trace line: {e}"))?;
    let t_us = v["t"].as_u64().ok_or("missing t")?;
    let kind = v["type"].as_str().ok_or("missing type")?;
    let u = |k: &str| -> Result<u64, String> {
        v[k].as_u64().ok_or_else(|| format!("{kind}: missing {k}"))
    };
    let range = |k: &str| format!("{kind}: {k} out of range");
    let u16f = |k: &str| u16::try_from(u(k)?).map_err(|_| range(k));
    let u32f = |k: &str| u32::try_from(u(k)?).map_err(|_| range(k));
    let event = match kind {
        "rtmp_frame_pushed" => TraceEvent::RtmpFramePushed {
            broadcast: u("broadcast")?,
            seq: u("seq")?,
            capture_us: u("capture_us")?,
            subscribers: u32f("subscribers")?,
        },
        "chunk_completed" => TraceEvent::ChunkCompleted {
            broadcast: u("broadcast")?,
            seq: u("seq")?,
            start_ts_us: u("start_ts_us")?,
            duration_us: u("duration_us")?,
            frames: u32f("frames")?,
        },
        "poll_hit" => TraceEvent::PollHit {
            broadcast: u("broadcast")?,
            pop: u16f("pop")?,
            entries: u32f("entries")?,
        },
        "poll_miss" => TraceEvent::PollMiss {
            broadcast: u("broadcast")?,
            pop: u16f("pop")?,
        },
        "origin_pull" => TraceEvent::OriginPull {
            broadcast: u("broadcast")?,
            pop: u16f("pop")?,
            seq: u("seq")?,
            origin_ready_us: u("origin_ready_us")?,
            available_at_us: u("available_at_us")?,
            batch: u32f("batch")?,
        },
        "gateway_replicated" => TraceEvent::GatewayReplicated {
            broadcast: u("broadcast")?,
            wowza: u16f("wowza")?,
            gateway: u16f("gateway")?,
            pop: u16f("pop")?,
            transfer_us: u("transfer_us")?,
        },
        "publisher_connected" => TraceEvent::PublisherConnected {
            broadcast: u("broadcast")?,
            wowza: u16f("wowza")?,
        },
        "rtmp_subscribed" => TraceEvent::RtmpSubscribed {
            broadcast: u("broadcast")?,
            viewer: u("viewer")?,
            wowza: u16f("wowza")?,
        },
        "handoff_to_hls" => TraceEvent::HandoffToHls {
            broadcast: u("broadcast")?,
            viewer: u("viewer")?,
            rtmp_viewers: u("rtmp_viewers")?,
        },
        "comment_fanout" => TraceEvent::CommentFanout {
            broadcast: u("broadcast")?,
            from_user: u("from_user")?,
            receivers: u32f("receivers")?,
        },
        "join_started" => TraceEvent::JoinStarted {
            broadcast: u("broadcast")?,
            viewer: u("viewer")?,
            rtmp: v["rtmp"].as_bool().ok_or("join_started: missing rtmp")?,
        },
        "join_playout" => TraceEvent::JoinPlayout {
            broadcast: u("broadcast")?,
            viewer: u("viewer")?,
            protocol: match v["protocol"].as_str() {
                Some("rtmp") => Protocol::Rtmp,
                Some("hls") => Protocol::Hls,
                other => return Err(format!("join_playout: bad protocol {other:?}")),
            },
            playback_start_us: u("playback_start_us")?,
            avg_buffering_us: u("avg_buffering_us")?,
            stall_us: u("stall_us")?,
            stall_ratio_ppm: u("stall_ratio_ppm")?,
        },
        "rtmp_unit_delivered" => TraceEvent::RtmpUnitDelivered {
            broadcast: u("broadcast")?,
            viewer: u("viewer")?,
            seq: u("seq")?,
            upload_us: u("upload_us")?,
            last_mile_us: u("last_mile_us")?,
        },
        "chunk_delivered" => TraceEvent::ChunkDelivered {
            broadcast: u("broadcast")?,
            viewer: u("viewer")?,
            seq: u("seq")?,
            pop: u16f("pop")?,
            available_at_pop_us: u("available_at_pop_us")?,
            discovered_us: u("discovered_us")?,
            arrival_us: u("arrival_us")?,
            duration_us: u("duration_us")?,
        },
        "queue_depth" => TraceEvent::QueueDepth {
            depth: u("depth")?,
            fired: u("fired")?,
        },
        "broadcast_discovered" => TraceEvent::BroadcastDiscovered {
            broadcast: u("broadcast")?,
            started_us: u("started_us")?,
        },
        "probe_sample" => TraceEvent::ProbeSample {
            broadcast: u("broadcast")?,
            pop: u16f("pop")?,
            seq: u("seq")?,
            origin_ready_us: u("origin_ready_us")?,
            pop_available_us: u("pop_available_us")?,
        },
        "overlay_frame_delivered" => TraceEvent::OverlayFrameDelivered {
            audience: u("audience")?,
            seq: u("seq")?,
            root_sends: u("root_sends")?,
            viewers: u("viewers")?,
            max_delay_us: u("max_delay_us")?,
        },
        "span_open" => TraceEvent::SpanOpen {
            id: u("id")?,
            parent: u("parent")?,
            kind: match v["kind"].as_str().and_then(SpanKind::parse) {
                Some(k) => k,
                None => return Err(format!("span_open: bad kind {:?}", v["kind"])),
            },
            broadcast: u("broadcast")?,
            subject: u("subject")?,
            site: u16f("site")?,
        },
        "span_close" => TraceEvent::SpanClose {
            id: u("id")?,
            kind: match v["kind"].as_str().and_then(SpanKind::parse) {
                Some(k) => k,
                None => return Err(format!("span_close: bad kind {:?}", v["kind"])),
            },
        },
        other => return Err(format!("unknown event type {other:?}")),
    };
    Ok(TimedEvent { t_us, event })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<TimedEvent> {
        vec![
            TimedEvent {
                t_us: 0,
                event: TraceEvent::JoinStarted {
                    broadcast: 1,
                    viewer: 2,
                    rtmp: true,
                },
            },
            TimedEvent {
                t_us: 40_000,
                event: TraceEvent::RtmpFramePushed {
                    broadcast: 1,
                    seq: 0,
                    capture_us: 0,
                    subscribers: 1,
                },
            },
            TimedEvent {
                t_us: 3_000_000,
                event: TraceEvent::ChunkDelivered {
                    broadcast: 1,
                    viewer: 3,
                    seq: 0,
                    pop: 9,
                    available_at_pop_us: 3_100_000,
                    discovered_us: 3_400_000,
                    arrival_us: 3_450_000,
                    duration_us: 3_000_000,
                },
            },
            TimedEvent {
                t_us: 9_000_000,
                event: TraceEvent::JoinPlayout {
                    broadcast: 1,
                    viewer: 3,
                    protocol: Protocol::Hls,
                    playback_start_us: 12_000_000,
                    avg_buffering_us: 6_900_000,
                    stall_us: 250_000,
                    stall_ratio_ppm: 4_200,
                },
            },
            TimedEvent {
                t_us: 10,
                event: TraceEvent::QueueDepth {
                    depth: 12,
                    fired: 1024,
                },
            },
            TimedEvent {
                t_us: 500_000,
                event: TraceEvent::SpanOpen {
                    id: crate::span::chunk_seal_span(1, 0),
                    parent: crate::span::broadcast_span(1),
                    kind: SpanKind::ChunkSeal,
                    broadcast: 1,
                    subject: 0,
                    site: 3,
                },
            },
            TimedEvent {
                t_us: 3_000_000,
                event: TraceEvent::SpanClose {
                    id: crate::span::chunk_seal_span(1, 0),
                    kind: SpanKind::ChunkSeal,
                },
            },
        ]
    }

    #[test]
    fn jsonl_roundtrips_every_variant_shape() {
        let text: String = samples().iter().map(|e| e.to_json_line() + "\n").collect();
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back, samples());
    }

    #[test]
    fn json_lines_have_fixed_field_order() {
        let line = samples()[0].to_json_line();
        assert_eq!(
            line,
            r#"{"t":0,"type":"join_started","broadcast":1,"viewer":2,"rtmp":true}"#
        );
    }

    #[test]
    fn unknown_type_is_rejected() {
        assert!(parse_jsonl(r#"{"t":0,"type":"mystery"}"#).is_err());
        // A value that does not fit its field is malformed, not narrowed.
        let pop = parse_jsonl(r#"{"t":0,"type":"poll_miss","broadcast":1,"pop":70000}"#);
        assert_eq!(pop.unwrap_err(), "poll_miss: pop out of range");
        let subs = parse_jsonl(
            r#"{"t":0,"type":"rtmp_frame_pushed","broadcast":1,"seq":0,"capture_us":0,"subscribers":4294967297}"#,
        );
        assert_eq!(
            subs.unwrap_err(),
            "rtmp_frame_pushed: subscribers out of range"
        );
    }

    #[test]
    fn lossy_parse_counts_skipped_lines() {
        let mut text: String = samples().iter().map(|e| e.to_json_line() + "\n").collect();
        text.push_str("{\"t\":0,\"type\":\"mystery\"}\n");
        text.push_str("not json at all\n");
        text.push_str("{\"t\":0,\"type\":\"poll_miss\",\"broadcast\":1,\"pop\":70000}\n");
        text.push_str(
            "{\"t\":0,\"type\":\"comment_fanout\",\"broadcast\":1,\"from_user\":2,\"receivers\":4294967297}\n",
        );
        let lossy = parse_jsonl_lossy(&text);
        assert_eq!(lossy.events, samples());
        assert_eq!(lossy.skipped_lines, 4);
        assert!(lossy.first_skip.contains("mystery"), "{}", lossy.first_skip);
    }
}
