//! The delay ledger's vocabulary: the paper's six-component end-to-end
//! delay breakdown (Figs 10–11) as plain types.
//!
//! The analytic experiment (`experiments::breakdown`) computes the six
//! numbers from in-memory viewer state; [`ObsReport::derive`] recovers
//! them purely from [`TimedEvent`](crate::TimedEvent)s into a
//! [`DelayLedger`], so the two can be cross-checked: if the instrumented
//! state machines and the analytic formulas disagree, one of them is
//! lying.
//!
//! [`ObsReport::derive`]: crate::ObsReport::derive

/// The six delay components of the paper's Fig 10 pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DelayStage {
    /// Broadcaster capture to ingest arrival.
    Upload,
    /// Waiting for the chunker to seal a chunk.
    Chunking,
    /// Origin-to-edge propagation (gateway replication included).
    Wowza2Fastly,
    /// Waiting for the viewer's next poll to discover the chunk.
    Polling,
    /// Edge (or ingest) to viewer download.
    LastMile,
    /// Client-side pre-buffering before playout.
    Buffering,
}

impl DelayStage {
    /// All six stages in pipeline order.
    pub fn all() -> [DelayStage; 6] {
        [
            DelayStage::Upload,
            DelayStage::Chunking,
            DelayStage::Wowza2Fastly,
            DelayStage::Polling,
            DelayStage::LastMile,
            DelayStage::Buffering,
        ]
    }

    /// Human-readable stage label used in tables and summaries.
    pub fn label(self) -> &'static str {
        match self {
            DelayStage::Upload => "upload",
            DelayStage::Chunking => "chunking",
            DelayStage::Wowza2Fastly => "wowza2fastly",
            DelayStage::Polling => "polling",
            DelayStage::LastMile => "last-mile",
            DelayStage::Buffering => "buffering",
        }
    }
}

/// Six per-stage mean delays (seconds) for one protocol.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageDelays {
    /// Mean upload delay, seconds.
    pub upload_s: f64,
    /// Mean chunking delay, seconds.
    pub chunking_s: f64,
    /// Mean origin-to-edge delay, seconds.
    pub wowza2fastly_s: f64,
    /// Mean polling-discovery delay, seconds.
    pub polling_s: f64,
    /// Mean last-mile delay, seconds.
    pub last_mile_s: f64,
    /// Mean pre-buffering delay, seconds.
    pub buffering_s: f64,
}

impl StageDelays {
    /// The mean delay for one stage, seconds.
    pub fn stage(&self, stage: DelayStage) -> f64 {
        match stage {
            DelayStage::Upload => self.upload_s,
            DelayStage::Chunking => self.chunking_s,
            DelayStage::Wowza2Fastly => self.wowza2fastly_s,
            DelayStage::Polling => self.polling_s,
            DelayStage::LastMile => self.last_mile_s,
            DelayStage::Buffering => self.buffering_s,
        }
    }

    /// Sum of all six stages: the end-to-end delay, seconds.
    pub fn total_s(&self) -> f64 {
        DelayStage::all().iter().map(|s| self.stage(*s)).sum()
    }
}

/// The protocol-level section of an [`ObsReport`](crate::ObsReport): one
/// [`StageDelays`] per protocol, plus the sample counts behind each mean
/// (zero counts mean the trace lacked the corresponding events, not that
/// the delay was zero).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DelayLedger {
    /// Per-stage means for RTMP viewers.
    pub rtmp: StageDelays,
    /// Per-stage means for HLS viewers.
    pub hls: StageDelays,
    /// `RtmpUnitDelivered` events folded in.
    pub rtmp_units: u64,
    /// `ChunkDelivered` events folded in.
    pub hls_chunks: u64,
    /// `ChunkDelivered` events whose seq had no preceding `ChunkCompleted`
    /// (a truncated trace, e.g. a ring buffer that dropped the start);
    /// they are in every HLS mean except `wowza2fastly`.
    pub unmatched_chunks: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Protocol, TimedEvent, TraceEvent};
    use crate::ObsReport;

    fn t(t_us: u64, event: TraceEvent) -> TimedEvent {
        TimedEvent { t_us, event }
    }

    fn synthetic_trace() -> Vec<TimedEvent> {
        vec![
            t(
                100_000,
                TraceEvent::RtmpUnitDelivered {
                    broadcast: 1,
                    viewer: 2,
                    seq: 0,
                    upload_us: 200_000,
                    last_mile_us: 50_000,
                },
            ),
            t(
                140_000,
                TraceEvent::RtmpUnitDelivered {
                    broadcast: 1,
                    viewer: 2,
                    seq: 1,
                    upload_us: 400_000,
                    last_mile_us: 150_000,
                },
            ),
            t(
                3_000_000,
                TraceEvent::ChunkCompleted {
                    broadcast: 1,
                    seq: 0,
                    start_ts_us: 0,
                    duration_us: 3_000_000,
                    frames: 75,
                },
            ),
            t(
                3_600_000,
                TraceEvent::ChunkDelivered {
                    broadcast: 1,
                    viewer: 3,
                    seq: 0,
                    pop: 9,
                    available_at_pop_us: 3_100_000,
                    discovered_us: 3_500_000,
                    arrival_us: 3_600_000,
                    duration_us: 3_000_000,
                },
            ),
            t(
                9_000_000,
                TraceEvent::JoinPlayout {
                    broadcast: 1,
                    viewer: 3,
                    protocol: Protocol::Hls,
                    playback_start_us: 12_100_000,
                    avg_buffering_us: 6_900_000,
                    stall_us: 0,
                    stall_ratio_ppm: 0,
                },
            ),
            t(
                9_000_000,
                TraceEvent::JoinPlayout {
                    broadcast: 1,
                    viewer: 2,
                    protocol: Protocol::Rtmp,
                    playback_start_us: 1_100_000,
                    avg_buffering_us: 1_000_000,
                    stall_us: 0,
                    stall_ratio_ppm: 0,
                },
            ),
        ]
    }

    #[test]
    fn derives_all_six_components() {
        let b = ObsReport::derive(&synthetic_trace()).ledger;
        assert!((b.rtmp.upload_s - 0.3).abs() < 1e-9);
        assert!((b.rtmp.last_mile_s - 0.1).abs() < 1e-9);
        assert!((b.rtmp.buffering_s - 1.0).abs() < 1e-9);
        assert_eq!(b.rtmp.chunking_s, 0.0);
        assert!((b.hls.chunking_s - 3.0).abs() < 1e-9);
        assert!((b.hls.wowza2fastly_s - 0.1).abs() < 1e-9, "{b:?}");
        assert!((b.hls.polling_s - 0.4).abs() < 1e-9);
        assert!((b.hls.last_mile_s - 0.1).abs() < 1e-9);
        assert!((b.hls.buffering_s - 6.9).abs() < 1e-9);
        assert_eq!(b.rtmp_units, 2);
        assert_eq!(b.hls_chunks, 1);
        assert_eq!(b.unmatched_chunks, 0);
    }

    #[test]
    fn seq_restart_joins_against_latest_run() {
        // Two runs back to back reuse seq 0; each delivery must join
        // against its own run's ChunkCompleted.
        let mut events = Vec::new();
        for (ready, avail) in [(3_000_000u64, 3_100_000u64), (20_000_000, 20_500_000)] {
            events.push(t(
                ready,
                TraceEvent::ChunkCompleted {
                    broadcast: 1,
                    seq: 0,
                    start_ts_us: 0,
                    duration_us: 3_000_000,
                    frames: 75,
                },
            ));
            events.push(t(
                avail + 100_000,
                TraceEvent::ChunkDelivered {
                    broadcast: 1,
                    viewer: 3,
                    seq: 0,
                    pop: 9,
                    available_at_pop_us: avail,
                    discovered_us: avail,
                    arrival_us: avail,
                    duration_us: 3_000_000,
                },
            ));
        }
        let b = ObsReport::derive(&events).ledger;
        // run 1: 0.1 s, run 2: 0.5 s -> mean 0.3 s.
        assert!((b.hls.wowza2fastly_s - 0.3).abs() < 1e-9, "{b:?}");
        assert_eq!(b.unmatched_chunks, 0);
    }

    #[test]
    fn truncated_trace_counts_unmatched() {
        let events = vec![t(
            3_600_000,
            TraceEvent::ChunkDelivered {
                broadcast: 1,
                viewer: 3,
                seq: 9,
                pop: 9,
                available_at_pop_us: 3_100_000,
                discovered_us: 3_500_000,
                arrival_us: 3_600_000,
                duration_us: 3_000_000,
            },
        )];
        let b = ObsReport::derive(&events).ledger;
        assert_eq!(b.unmatched_chunks, 1);
        assert_eq!(b.hls.wowza2fastly_s, 0.0);
        assert!(b.hls.polling_s > 0.0);
    }

    #[test]
    fn stage_labels_cover_all_six() {
        let labels: Vec<_> = DelayStage::all().iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            [
                "upload",
                "chunking",
                "wowza2fastly",
                "polling",
                "last-mile",
                "buffering"
            ]
        );
    }
}
