//! Causal spans: deterministic ids and parent links for the broadcast
//! lifecycle, viewer sessions, and the chunk journey.
//!
//! A span is a pair of trace events — [`crate::TraceEvent::SpanOpen`] at
//! the span's start time and [`crate::TraceEvent::SpanClose`] at its end
//! — linked by a span id. Ids are **content-addressed**: they are a pure
//! hash of `(kind, identity fields)`, never a counter, so the same span
//! gets the same id in every run of a `(config, seed)` pair, at every
//! lane count. That is what lets a consumer
//! join an open to its close (and a child to its parent) across shard
//! boundaries without any shared id-allocation state.
//!
//! The id determinism contract (`crates/telemetry/DESIGN.md`):
//!
//! | kind             | identity fields                  | parent          |
//! |------------------|----------------------------------|-----------------|
//! | `broadcast`      | broadcast                        | root (0)        |
//! | `viewer_session` | broadcast, viewer                | `broadcast`     |
//! | `chunk_seal`     | broadcast, seq                   | `broadcast`     |
//! | `origin_fetch`   | broadcast, seq, pop              | `chunk_seal`    |
//! | `viewer_deliver` | broadcast, seq, viewer           | `origin_fetch`  |
//! | `overlay_frame`  | audience, seq                    | root (0)        |
//!
//! [`span_id`] never returns 0; 0 is reserved for "no parent".

/// The span kinds of the causal model, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// Publisher connect → broadcast end.
    Broadcast,
    /// Viewer admission → playout report.
    ViewerSession,
    /// Chunk media start → sealed at the Wowza origin.
    ChunkSeal,
    /// Edge poll that triggered the fetch → edge copy servable at a POP.
    OriginFetch,
    /// Viewer's poll discovered the chunk → download complete.
    ViewerDeliver,
    /// Overlay multicast frame: root push → slowest viewer reached.
    OverlayFrame,
}

impl SpanKind {
    /// All kinds, in pipeline order.
    pub fn all() -> [SpanKind; 6] {
        [
            SpanKind::Broadcast,
            SpanKind::ViewerSession,
            SpanKind::ChunkSeal,
            SpanKind::OriginFetch,
            SpanKind::ViewerDeliver,
            SpanKind::OverlayFrame,
        ]
    }

    /// Stable wire label used in the JSONL encoding.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Broadcast => "broadcast",
            SpanKind::ViewerSession => "viewer_session",
            SpanKind::ChunkSeal => "chunk_seal",
            SpanKind::OriginFetch => "origin_fetch",
            SpanKind::ViewerDeliver => "viewer_deliver",
            SpanKind::OverlayFrame => "overlay_frame",
        }
    }

    /// Parses a wire label back into a kind.
    pub fn parse(label: &str) -> Option<SpanKind> {
        SpanKind::all().into_iter().find(|k| k.label() == label)
    }

    /// Domain-separation constant mixed into every id of this kind.
    fn salt(self) -> u64 {
        match self {
            SpanKind::Broadcast => 1,
            SpanKind::ViewerSession => 2,
            SpanKind::ChunkSeal => 3,
            SpanKind::OriginFetch => 4,
            SpanKind::ViewerDeliver => 5,
            SpanKind::OverlayFrame => 6,
        }
    }
}

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Content-addressed span id: a pure hash of the kind plus its identity
/// fields, folded left-to-right so `(a, b)` and `(b, a)` differ. Never 0.
pub fn span_id(kind: SpanKind, fields: &[u64]) -> u64 {
    let mut h = mix(kind.salt());
    for &f in fields {
        h = mix(h ^ f);
    }
    if h == 0 {
        1
    } else {
        h
    }
}

/// Id of the broadcast-lifecycle span.
pub fn broadcast_span(broadcast: u64) -> u64 {
    span_id(SpanKind::Broadcast, &[broadcast])
}

/// Id of a viewer-session span.
pub fn viewer_session_span(broadcast: u64, viewer: u64) -> u64 {
    span_id(SpanKind::ViewerSession, &[broadcast, viewer])
}

/// Id of a chunk-seal span.
pub fn chunk_seal_span(broadcast: u64, seq: u64) -> u64 {
    span_id(SpanKind::ChunkSeal, &[broadcast, seq])
}

/// Id of an origin-fetch span (one per chunk per POP).
pub fn origin_fetch_span(broadcast: u64, seq: u64, pop: u16) -> u64 {
    span_id(SpanKind::OriginFetch, &[broadcast, seq, pop as u64])
}

/// Id of a viewer-deliver span (one per chunk per viewer).
pub fn viewer_deliver_span(broadcast: u64, seq: u64, viewer: u64) -> u64 {
    span_id(SpanKind::ViewerDeliver, &[broadcast, seq, viewer])
}

/// Id of an overlay frame-delivery span.
pub fn overlay_frame_span(audience: u64, seq: u64) -> u64 {
    span_id(SpanKind::OverlayFrame, &[audience, seq])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_nonzero_and_kind_separated() {
        for kind in SpanKind::all() {
            assert_ne!(span_id(kind, &[0]), 0);
            assert_ne!(span_id(kind, &[1, 2]), 0);
        }
        // Same fields, different kinds: different ids.
        let ids: Vec<u64> = SpanKind::all()
            .into_iter()
            .map(|k| span_id(k, &[7, 9]))
            .collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "kind collision: {ids:?}");
    }

    #[test]
    fn ids_are_order_sensitive() {
        assert_ne!(
            span_id(SpanKind::ViewerSession, &[1, 2]),
            span_id(SpanKind::ViewerSession, &[2, 1])
        );
    }

    #[test]
    fn ids_are_pinned() {
        // The id function is part of the trace format: changing it breaks
        // every committed baseline. These pins make that loud.
        assert_eq!(broadcast_span(1), 0xe9fd_6049_d65a_f21e);
        assert_eq!(viewer_session_span(1, 3), 0xc4b7_2f8c_e414_b6da);
        assert_eq!(chunk_seal_span(1, 0), 0x5564_fa06_0042_2600);
        assert_eq!(origin_fetch_span(1, 0, 9), 0xa5d4_2c04_33f1_8948);
        assert_eq!(viewer_deliver_span(1, 0, 3), 0x3f6a_7165_1a74_e895);
        assert_eq!(overlay_frame_span(100, 2), 0x8798_531c_f8ac_2bd9);
    }

    #[test]
    fn labels_roundtrip() {
        for kind in SpanKind::all() {
            assert_eq!(SpanKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(SpanKind::parse("mystery"), None);
    }
}
