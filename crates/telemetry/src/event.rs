//! Typed, sim-time-stamped trace events and their JSONL codec.
//!
//! Every event is stamped with sim-time microseconds (`t_us`) by the
//! emitting component; wall-clock never appears in a trace, which is what
//! makes traces byte-identical for a fixed `(config, seed)`. The JSONL
//! encoding writes fields in a fixed order for the same reason.
//!
//! The vocabulary is declared once, in the `trace_events!` table below:
//! variant, wire name, and fields in wire order. The [`TraceEvent`] enum,
//! [`TraceEvent::kind`], the line writer and the line reader are all
//! generated from that table, so a new field is one edit.

use crate::span::SpanKind;
use serde_json::Value;
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

/// A type a trace-event field can have: how its value is written after
/// `"name":` in a JSONL line, and read back from the parsed line (`v` is
/// the value under `key`, `Null` when absent).
trait WireField: Sized {
    fn write(&self, out: &mut String);
    fn read(v: &Value, kind: &str, key: &str) -> Result<Self, String>;
}

impl WireField for u64 {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn read(v: &Value, kind: &str, key: &str) -> Result<Self, String> {
        v.as_u64().ok_or_else(|| format!("{kind}: missing {key}"))
    }
}

/// A value that does not fit its field is malformed, not narrowed.
macro_rules! narrow_wire_field {
    ($($t:ty),*) => {$(
        impl WireField for $t {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            fn read(v: &Value, kind: &str, key: &str) -> Result<Self, String> {
                <$t>::try_from(u64::read(v, kind, key)?)
                    .map_err(|_| format!("{kind}: {key} out of range"))
            }
        }
    )*};
}
narrow_wire_field!(u32, u16);

impl WireField for bool {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn read(v: &Value, kind: &str, key: &str) -> Result<Self, String> {
        v.as_bool().ok_or_else(|| format!("{kind}: missing {key}"))
    }
}

impl WireField for Protocol {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "\"{}\"", self.label());
    }
    fn read(v: &Value, kind: &str, key: &str) -> Result<Self, String> {
        match v.as_str() {
            Some("rtmp") => Ok(Protocol::Rtmp),
            Some("hls") => Ok(Protocol::Hls),
            other => Err(format!("{kind}: bad {key} {other:?}")),
        }
    }
}

impl WireField for SpanKind {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "\"{}\"", self.label());
    }
    fn read(v: &Value, kind: &str, key: &str) -> Result<Self, String> {
        v.as_str()
            .and_then(SpanKind::parse)
            .ok_or_else(|| format!("{kind}: bad {key} {v:?}"))
    }
}

/// Generates [`TraceEvent`], its wire names, and both directions of the
/// JSONL codec from one table: each row is a variant, its wire name, and
/// its fields in wire order.
macro_rules! trace_events {
    ($(
        $(#[$variant_doc:meta])*
        $variant:ident = $wire:literal {
            $($(#[$field_doc:meta])* $field:ident: $ty:ty,)*
        },
    )*) => {
        /// A structured event from one of the instrumented components.
        ///
        /// All `*_us` fields are sim-time microseconds (`livescope_sim::SimTime`
        /// values at the emitting site); durations are microsecond spans.
        #[derive(Clone, Debug, PartialEq)]
        pub enum TraceEvent {$(
            $(#[$variant_doc])*
            $variant {
                $($(#[$field_doc])* $field: $ty,)*
            },
        )*}

        impl TraceEvent {
            /// Stable type tag used in the JSONL encoding and summaries.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(TraceEvent::$variant { .. } => $wire,)*
                }
            }

            /// Appends `,"field":value` for every field, in wire order.
            fn write_fields(&self, out: &mut String) {
                match self {$(
                    TraceEvent::$variant { $($field,)* } => {$(
                        out.push_str(concat!(",\"", stringify!($field), "\":"));
                        $field.write(out);
                    )*}
                )*}
            }

            /// Reads the fields of a `kind` event out of one parsed line.
            fn read_fields(kind: &str, line: &Value) -> Result<TraceEvent, String> {
                match kind {
                    $($wire => Ok(TraceEvent::$variant {
                        $($field: WireField::read(
                            &line[stringify!($field)],
                            kind,
                            stringify!($field),
                        )?,)*
                    }),)*
                    other => Err(format!("unknown event type {other:?}")),
                }
            }
        }
    };
}

trace_events! {
    /// Wowza re-encoded and pushed a frame to its RTMP subscribers.
    RtmpFramePushed = "rtmp_frame_pushed" {
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
    ChunkCompleted = "chunk_completed" {
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
    PollHit = "poll_hit" {
        /// Broadcast (stream) id.
        broadcast: u64,
        /// Fastly POP datacenter id.
        pop: u16,
        /// Chunklist entries returned by the poll.
        entries: u32,
    },
    /// A Fastly POP had nothing servable for a poll.
    PollMiss = "poll_miss" {
        /// Broadcast (stream) id.
        broadcast: u64,
        /// Fastly POP datacenter id.
        pop: u16,
    },
    /// A Fastly POP fetched a chunk from the Wowza origin; `origin_ready_us`
    /// is when the chunk was sealed, `available_at_us` when the edge copy
    /// becomes servable.
    OriginPull = "origin_pull" {
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
    GatewayReplicated = "gateway_replicated" {
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
    PublisherConnected = "publisher_connected" {
        /// Broadcast (stream) id.
        broadcast: u64,
        /// Wowza ingest datacenter id.
        wowza: u16,
    },
    /// An admitted viewer opened its RTMP subscription at the ingest
    /// server.
    RtmpSubscribed = "rtmp_subscribed" {
        /// Broadcast (stream) id.
        broadcast: u64,
        /// Viewer (user) id.
        viewer: u64,
        /// Wowza ingest datacenter id.
        wowza: u16,
    },
    /// The control server ran out of RTMP slots and put a viewer on HLS.
    HandoffToHls = "handoff_to_hls" {
        /// Broadcast (stream) id.
        broadcast: u64,
        /// Viewer (user) id.
        viewer: u64,
        /// RTMP viewer count at the moment of handoff.
        rtmp_viewers: u64,
    },
    /// PubNub fanned a chat event out to subscribers.
    CommentFanout = "comment_fanout" {
        /// Broadcast (stream) id.
        broadcast: u64,
        /// User who posted the chat event.
        from_user: u64,
        /// Subscribers the event was fanned out to.
        receivers: u32,
    },
    /// The control server admitted a viewer.
    JoinStarted = "join_started" {
        /// Broadcast (stream) id.
        broadcast: u64,
        /// Viewer (user) id.
        viewer: u64,
        /// Whether the viewer was admitted on RTMP (vs HLS).
        rtmp: bool,
    },
    /// A viewer's playback simulation produced its report — the end of the
    /// join span. `avg_buffering_us` is the Fig 10 buffering component.
    JoinPlayout = "join_playout" {
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
    RtmpUnitDelivered = "rtmp_unit_delivered" {
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
    ChunkDelivered = "chunk_delivered" {
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
    /// The crawler's global-list sweep saw a broadcast for the first time.
    BroadcastDiscovered = "broadcast_discovered" {
        /// Broadcast (stream) id.
        broadcast: u64,
        /// When the broadcast actually started.
        started_us: u64,
    },
    /// The high-frequency probe observed a chunk at origin and POP.
    ProbeSample = "probe_sample" {
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
    OverlayFrameDelivered = "overlay_frame_delivered" {
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
    SpanOpen = "span_open" {
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
    SpanClose = "span_close" {
        /// Span id being closed (matches a prior [`TraceEvent::SpanOpen`]).
        id: u64,
        /// Span kind, denormalized so closes are greppable on their own.
        kind: SpanKind,
    },
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
        self.event.write_fields(&mut s);
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
    let v: Value = serde_json::from_str(line).map_err(|e| format!("bad trace line: {e}"))?;
    let t_us = v["t"].as_u64().ok_or("missing t")?;
    let kind = v["type"].as_str().ok_or("missing type")?;
    let event = TraceEvent::read_fields(kind, &v)?;
    Ok(TimedEvent { t_us, event })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span;

    /// One row per variant: a sample and the exact line the parent's
    /// hand-written encoder produced for it, so the table-generated
    /// writer is checked against bytes, not against itself.
    #[rustfmt::skip]
    fn golden() -> Vec<(&'static str, u64, TraceEvent)> {
        use TraceEvent::*;
        let seal = span::chunk_seal_span(1, 0);
        vec![
            (r#"{"t":0,"type":"join_started","broadcast":1,"viewer":2,"rtmp":true}"#,
                0, JoinStarted { broadcast: 1, viewer: 2, rtmp: true }),
            (r#"{"t":40000,"type":"rtmp_frame_pushed","broadcast":1,"seq":0,"capture_us":0,"subscribers":1}"#,
                40_000, RtmpFramePushed { broadcast: 1, seq: 0, capture_us: 0, subscribers: 1 }),
            (r#"{"t":3000000,"type":"chunk_delivered","broadcast":1,"viewer":3,"seq":0,"pop":9,"available_at_pop_us":3100000,"discovered_us":3400000,"arrival_us":3450000,"duration_us":3000000}"#,
                3_000_000, ChunkDelivered { broadcast: 1, viewer: 3, seq: 0, pop: 9, available_at_pop_us: 3_100_000, discovered_us: 3_400_000, arrival_us: 3_450_000, duration_us: 3_000_000 }),
            (r#"{"t":9000000,"type":"join_playout","broadcast":1,"viewer":3,"protocol":"hls","playback_start_us":12000000,"avg_buffering_us":6900000,"stall_us":250000,"stall_ratio_ppm":4200}"#,
                9_000_000, JoinPlayout { broadcast: 1, viewer: 3, protocol: Protocol::Hls, playback_start_us: 12_000_000, avg_buffering_us: 6_900_000, stall_us: 250_000, stall_ratio_ppm: 4_200 }),
            (r#"{"t":500000,"type":"span_open","id":6153317894576023040,"parent":16860738450190168606,"kind":"chunk_seal","broadcast":1,"subject":0,"site":3}"#,
                500_000, SpanOpen { id: seal, parent: span::broadcast_span(1), kind: SpanKind::ChunkSeal, broadcast: 1, subject: 0, site: 3 }),
            (r#"{"t":3000000,"type":"span_close","id":6153317894576023040,"kind":"chunk_seal"}"#,
                3_000_000, SpanClose { id: seal, kind: SpanKind::ChunkSeal }),
            (r#"{"t":3000001,"type":"chunk_completed","broadcast":1,"seq":2,"start_ts_us":6000000,"duration_us":3000000,"frames":75}"#,
                3_000_001, ChunkCompleted { broadcast: 1, seq: 2, start_ts_us: 6_000_000, duration_us: 3_000_000, frames: 75 }),
            (r#"{"t":11,"type":"poll_hit","broadcast":1,"pop":16,"entries":4}"#,
                11, PollHit { broadcast: 1, pop: 16, entries: 4 }),
            (r#"{"t":12,"type":"poll_miss","broadcast":1,"pop":65535}"#,
                12, PollMiss { broadcast: 1, pop: u16::MAX }),
            (r#"{"t":13,"type":"origin_pull","broadcast":1,"pop":16,"seq":2,"origin_ready_us":3000001,"available_at_us":3240000,"batch":4294967295}"#,
                13, OriginPull { broadcast: 1, pop: 16, seq: 2, origin_ready_us: 3_000_001, available_at_us: 3_240_000, batch: u32::MAX }),
            (r#"{"t":14,"type":"gateway_replicated","broadcast":1,"wowza":2,"gateway":5,"pop":16,"transfer_us":240000}"#,
                14, GatewayReplicated { broadcast: 1, wowza: 2, gateway: 5, pop: 16, transfer_us: 240_000 }),
            (r#"{"t":15,"type":"publisher_connected","broadcast":1,"wowza":2}"#,
                15, PublisherConnected { broadcast: 1, wowza: 2 }),
            (r#"{"t":16,"type":"rtmp_subscribed","broadcast":1,"viewer":2,"wowza":7}"#,
                16, RtmpSubscribed { broadcast: 1, viewer: 2, wowza: 7 }),
            (r#"{"t":17,"type":"handoff_to_hls","broadcast":1,"viewer":101,"rtmp_viewers":100}"#,
                17, HandoffToHls { broadcast: 1, viewer: 101, rtmp_viewers: 100 }),
            (r#"{"t":18,"type":"comment_fanout","broadcast":1,"from_user":8,"receivers":99}"#,
                18, CommentFanout { broadcast: 1, from_user: 8, receivers: 99 }),
            (r#"{"t":19,"type":"rtmp_unit_delivered","broadcast":1,"viewer":2,"seq":6,"upload_us":24000,"last_mile_us":41000}"#,
                19, RtmpUnitDelivered { broadcast: 1, viewer: 2, seq: 6, upload_us: 24_000, last_mile_us: 41_000 }),
            (r#"{"t":20,"type":"broadcast_discovered","broadcast":18446744073709551615,"started_us":5}"#,
                20, BroadcastDiscovered { broadcast: u64::MAX, started_us: 5 }),
            (r#"{"t":21,"type":"probe_sample","broadcast":1,"pop":16,"seq":2,"origin_ready_us":3000001,"pop_available_us":3240000}"#,
                21, ProbeSample { broadcast: 1, pop: 16, seq: 2, origin_ready_us: 3_000_001, pop_available_us: 3_240_000 }),
            (r#"{"t":22,"type":"overlay_frame_delivered","audience":500,"seq":6,"root_sends":8,"viewers":499,"max_delay_us":310000}"#,
                22, OverlayFrameDelivered { audience: 500, seq: 6, root_sends: 8, viewers: 499, max_delay_us: 310_000 }),
        ]
    }

    fn samples() -> Vec<TimedEvent> {
        golden()
            .into_iter()
            .map(|(_, t_us, event)| TimedEvent { t_us, event })
            .collect()
    }

    #[test]
    fn json_lines_have_fixed_field_order() {
        let mut kinds: Vec<&str> = samples().iter().map(|e| e.event.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), 19, "one sample per variant: {kinds:?}");
        for ((line, ..), sample) in golden().iter().zip(samples()) {
            assert_eq!(sample.to_json_line(), *line);
        }
    }

    #[test]
    fn jsonl_roundtrips_every_variant_shape() {
        let text: String = samples().iter().map(|e| e.to_json_line() + "\n").collect();
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back, samples());
    }

    /// A line cut anywhere (a crashed writer, a truncated file) is an
    /// error or a counted skip, never a panic and never a narrower event.
    #[test]
    fn every_truncated_line_is_rejected_and_counted() {
        for (line, ..) in golden() {
            for cut in 1..line.len() {
                let prefix = &line[..cut];
                assert!(parse_jsonl(prefix).is_err(), "accepted {prefix:?}");
                let lossy = parse_jsonl_lossy(prefix);
                assert!(lossy.events.is_empty(), "decoded {prefix:?}");
                assert_eq!(lossy.skipped_lines, 1, "{prefix:?}");
            }
        }
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
