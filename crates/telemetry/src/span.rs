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
//! A [`Span`] is a value holding a kind and that kind's identity fields;
//! it has one constructor per kind and builds both of its events, so an
//! open and its close cannot disagree on kind or id. The contract it
//! implements (`crates/telemetry/DESIGN.md`):
//!
//! | constructor                       | parent                            | subject |
//! |-----------------------------------|-----------------------------------|---------|
//! | `broadcast(b)`                    | root (0)                          | 0       |
//! | `viewer_session(b, viewer)`       | `broadcast(b)`                    | viewer  |
//! | `chunk_seal(b, seq)`              | `broadcast(b)`                    | seq     |
//! | `origin_fetch(b, seq, pop)`       | `chunk_seal(b, seq)`              | seq     |
//! | `viewer_deliver(b, seq, viewer)`  | `origin_fetch(b, seq, site)`      | viewer  |
//! | `overlay_frame(audience, seq)`    | root (0)                          | seq     |
//!
//! The event's `broadcast` field is always the first identity field (the
//! audience size for `overlay_frame`); `site` is the caller's locus,
//! passed to [`Span::open`]. Ids are never 0; 0 is reserved for "no
//! parent".

use crate::TraceEvent;

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

    /// How many identity fields a span of this kind hashes.
    fn arity(self) -> usize {
        match self {
            SpanKind::Broadcast => 1,
            SpanKind::ViewerSession | SpanKind::ChunkSeal | SpanKind::OverlayFrame => 2,
            SpanKind::OriginFetch | SpanKind::ViewerDeliver => 3,
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
fn span_id(kind: SpanKind, fields: &[u64]) -> u64 {
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

/// One causal span: a kind and that kind's identity fields (see the
/// module table). It builds both of its trace events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    kind: SpanKind,
    /// Identity fields in table order; the first `kind.arity()` count.
    fields: [u64; 3],
}

impl Span {
    /// The broadcast-lifecycle span.
    pub fn broadcast(broadcast: u64) -> Span {
        Span {
            kind: SpanKind::Broadcast,
            fields: [broadcast, 0, 0],
        }
    }

    /// A viewer-session span.
    pub fn viewer_session(broadcast: u64, viewer: u64) -> Span {
        Span {
            kind: SpanKind::ViewerSession,
            fields: [broadcast, viewer, 0],
        }
    }

    /// A chunk-seal span.
    pub fn chunk_seal(broadcast: u64, seq: u64) -> Span {
        Span {
            kind: SpanKind::ChunkSeal,
            fields: [broadcast, seq, 0],
        }
    }

    /// An origin-fetch span (one per chunk per POP).
    pub fn origin_fetch(broadcast: u64, seq: u64, pop: u16) -> Span {
        Span {
            kind: SpanKind::OriginFetch,
            fields: [broadcast, seq, pop as u64],
        }
    }

    /// A viewer-deliver span (one per chunk per viewer).
    pub fn viewer_deliver(broadcast: u64, seq: u64, viewer: u64) -> Span {
        Span {
            kind: SpanKind::ViewerDeliver,
            fields: [broadcast, seq, viewer],
        }
    }

    /// An overlay frame-delivery span.
    pub fn overlay_frame(audience: u64, seq: u64) -> Span {
        Span {
            kind: SpanKind::OverlayFrame,
            fields: [audience, seq, 0],
        }
    }

    /// The span's kind.
    pub fn kind(self) -> SpanKind {
        self.kind
    }

    /// The span's content-addressed id (never 0).
    pub fn id(self) -> u64 {
        span_id(self.kind, &self.fields[..self.kind.arity()])
    }

    /// The `span_open` event, observed at `site` (a Wowza or POP id; 0
    /// when not applicable). A `viewer_deliver` span's parent is the
    /// fetch that brought its chunk to `site`.
    pub fn open(self, site: u16) -> TraceEvent {
        let [broadcast, second, third] = self.fields;
        let (parent, subject) = match self.kind {
            SpanKind::Broadcast => (0, 0),
            SpanKind::ViewerSession | SpanKind::ChunkSeal => {
                (Span::broadcast(broadcast).id(), second)
            }
            SpanKind::OriginFetch => (Span::chunk_seal(broadcast, second).id(), second),
            SpanKind::ViewerDeliver => (Span::origin_fetch(broadcast, second, site).id(), third),
            SpanKind::OverlayFrame => (0, second),
        };
        TraceEvent::SpanOpen {
            id: self.id(),
            parent,
            kind: self.kind,
            broadcast,
            subject,
            site,
        }
    }

    /// The `span_close` event.
    pub fn close(self) -> TraceEvent {
        TraceEvent::SpanClose {
            id: self.id(),
            kind: self.kind,
        }
    }
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
            Span::viewer_session(1, 2).id(),
            Span::viewer_session(2, 1).id()
        );
    }

    #[test]
    fn ids_are_pinned() {
        // The id function is part of the trace format: changing it breaks
        // every committed baseline. These pins make that loud.
        assert_eq!(Span::broadcast(1).id(), 0xe9fd_6049_d65a_f21e);
        assert_eq!(Span::viewer_session(1, 3).id(), 0xc4b7_2f8c_e414_b6da);
        assert_eq!(Span::chunk_seal(1, 0).id(), 0x5564_fa06_0042_2600);
        assert_eq!(Span::origin_fetch(1, 0, 9).id(), 0xa5d4_2c04_33f1_8948);
        assert_eq!(Span::viewer_deliver(1, 0, 3).id(), 0x3f6a_7165_1a74_e895);
        assert_eq!(Span::overlay_frame(100, 2).id(), 0x8798_531c_f8ac_2bd9);
    }

    #[test]
    fn opens_derive_parents_from_identity() {
        let parent = |span: Span, site| match span.open(site) {
            TraceEvent::SpanOpen { parent, .. } => parent,
            other => panic!("not an open: {other:?}"),
        };
        let root = Span::broadcast(1).id();
        assert_eq!(parent(Span::broadcast(1), 2), 0);
        assert_eq!(parent(Span::viewer_session(1, 3), 9), root);
        assert_eq!(parent(Span::chunk_seal(1, 0), 2), root);
        let seal = Span::chunk_seal(1, 0).id();
        assert_eq!(parent(Span::origin_fetch(1, 0, 9), 9), seal);
        let fetch = Span::origin_fetch(1, 0, 9).id();
        assert_eq!(parent(Span::viewer_deliver(1, 0, 3), 9), fetch);
        assert_eq!(parent(Span::overlay_frame(100, 2), 0), 0);
    }

    #[test]
    fn labels_roundtrip() {
        for kind in SpanKind::all() {
            assert_eq!(SpanKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(SpanKind::parse("mystery"), None);
    }
}
