//! The causal observability report: folds one trace into per-POP
//! six-component delay distributions (the paper's Fig-15-style regional
//! breakdown), QoE session metrics (join time and stall ratio, after the
//! Periscope QoE study), and top-k slowest chunk-journey waterfalls built
//! from the causal spans.
//!
//! Everything here is a pure function of the trace bytes: the same trace
//! produces the same [`ObsReport`], and because traces are byte-identical
//! across lane counts for a fixed `(config, seed)`, so is the report —
//! including its JSON rendering, which writes fields in a fixed order
//! ([`ObsReport::to_json`]).

use crate::event::{Protocol, TimedEvent, TraceEvent};
use crate::ledger::DelayStage;
use crate::registry::Histogram;
use crate::span::SpanKind;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// How many chunk journeys the waterfall section keeps.
pub const WATERFALL_TOP_K: usize = 5;

/// One delay component's distribution (seconds), log-bucketed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StageDist {
    /// Samples folded in.
    pub count: u64,
    /// Mean, seconds.
    pub mean_s: f64,
    /// Approximate 95th percentile, seconds.
    pub p95_s: f64,
}

impl StageDist {
    fn from_hist(h: &Histogram) -> StageDist {
        StageDist {
            count: h.count,
            mean_s: h.mean() / 1e6,
            p95_s: h.quantile(0.95) / 1e6,
        }
    }
}

/// Six-component delay distributions for one Fastly POP, HLS path.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PopBreakdown {
    /// Fastly POP datacenter id.
    pub pop: u16,
    /// `ChunkDelivered` events folded in.
    pub chunks: u64,
    /// Distinct viewers this POP served.
    pub viewers: u64,
    /// One distribution per [`DelayStage`], in `DelayStage::all()` order.
    pub stages: [StageDist; 6],
}

impl PopBreakdown {
    /// Sum of the six per-stage means: the POP's end-to-end mean, seconds.
    pub fn total_mean_s(&self) -> f64 {
        self.stages.iter().map(|s| s.mean_s).sum()
    }
}

/// QoE aggregate for one protocol cohort.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QoeCohort {
    /// Sessions (one per `JoinPlayout`).
    pub sessions: u64,
    /// Mean join time (admission to playback start), seconds.
    pub join_mean_s: f64,
    /// Worst join time, seconds.
    pub join_max_s: f64,
    /// Mean mid-playback stall time per session, seconds.
    pub stall_mean_s: f64,
    /// Mean stall ratio (stalled / session time), a fraction.
    pub stall_ratio_mean: f64,
}

/// One chunk journey reconstructed from its causal span chain
/// (`chunk_seal` → `origin_fetch` → `viewer_deliver`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Waterfall {
    /// Broadcast (stream) id.
    pub broadcast: u64,
    /// Chunk sequence number.
    pub seq: u64,
    /// Receiving viewer id.
    pub viewer: u64,
    /// Serving POP datacenter id.
    pub pop: u16,
    /// Journey start (chunk media start), sim-time µs.
    pub start_us: u64,
    /// Chunk capture + sealing, µs.
    pub seal_us: u64,
    /// Sealed at origin until the first poll from this POP, µs.
    pub origin_wait_us: u64,
    /// Origin-to-edge fetch, µs.
    pub fetch_us: u64,
    /// Servable at the POP until the viewer's poll discovered it, µs.
    pub poll_wait_us: u64,
    /// Viewer download, µs.
    pub download_us: u64,
    /// End-to-end journey, µs.
    pub total_us: u64,
}

/// Open/close bookkeeping over the span events of a trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanAudit {
    /// `span_open` events seen.
    pub opens: u64,
    /// `span_close` events seen.
    pub closes: u64,
    /// Opens with no matching close (truncated trace or a bug).
    pub unclosed: u64,
    /// Closes with no matching open.
    pub unmatched_closes: u64,
}

/// The full observability report derived from one trace.
#[derive(Clone, Debug, Default)]
pub struct ObsReport {
    /// Events in the trace.
    pub events: u64,
    /// Span open/close accounting.
    pub spans: SpanAudit,
    /// Per-POP six-component breakdown, ascending POP id.
    pub pops: Vec<PopBreakdown>,
    /// RTMP cohort QoE.
    pub qoe_rtmp: QoeCohort,
    /// HLS cohort QoE.
    pub qoe_hls: QoeCohort,
    /// Top-k slowest chunk journeys, slowest first.
    pub waterfalls: Vec<Waterfall>,
}

#[derive(Clone, Copy)]
struct OpenSpan {
    parent: u64,
    broadcast: u64,
    subject: u64,
    site: u16,
    open_us: u64,
    close_us: Option<u64>,
}

#[derive(Default)]
struct PopAcc {
    chunks: u64,
    viewers: BTreeMap<u64, ()>,
    hists: [Histogram; 6],
}

#[derive(Default)]
struct QoeAcc {
    sessions: u64,
    join_sum_s: f64,
    join_max_s: f64,
    stall_sum_s: f64,
    ratio_sum: f64,
}

impl QoeAcc {
    fn finish(&self) -> QoeCohort {
        let n = self.sessions.max(1) as f64;
        QoeCohort {
            sessions: self.sessions,
            join_mean_s: if self.sessions == 0 {
                0.0
            } else {
                self.join_sum_s / n
            },
            join_max_s: self.join_max_s,
            stall_mean_s: if self.sessions == 0 {
                0.0
            } else {
                self.stall_sum_s / n
            },
            stall_ratio_mean: if self.sessions == 0 {
                0.0
            } else {
                self.ratio_sum / n
            },
        }
    }
}

fn stage_index(stage: DelayStage) -> usize {
    DelayStage::all()
        .iter()
        .position(|s| *s == stage)
        .expect("stage is one of the six")
}

impl ObsReport {
    /// Folds a trace (in emission order) into the report.
    pub fn derive(events: &[TimedEvent]) -> ObsReport {
        // (broadcast, seq) -> seal time, maintained streamingly so traces
        // holding several repetitions (which restart seq) join correctly.
        let mut origin_ready: HashMap<(u64, u64), u64> = HashMap::new();
        // (broadcast, viewer) -> admission time.
        let mut join_started: HashMap<(u64, u64), u64> = HashMap::new();
        // viewer -> last POP that served it (for buffering attribution).
        let mut viewer_pop: HashMap<u64, u16> = HashMap::new();
        // Span table (lookup only — never iterated, so hash order is inert)
        // plus the deliver-span ids in trace order for the waterfalls.
        let mut spans: HashMap<u64, OpenSpan> = HashMap::new();
        let mut deliver_ids: Vec<u64> = Vec::new();
        let mut upload_hist = Histogram::default();
        let mut pops: BTreeMap<u16, PopAcc> = BTreeMap::new();
        let mut qoe_rtmp = QoeAcc::default();
        let mut qoe_hls = QoeAcc::default();
        let mut audit = SpanAudit::default();
        // HLS playouts buffered until the viewer->POP map is complete.
        let mut hls_buffering: Vec<(u64, u64)> = Vec::new(); // (viewer, avg_buffering_us)

        for TimedEvent { t_us, event } in events {
            match event {
                TraceEvent::ChunkCompleted { broadcast, seq, .. } => {
                    origin_ready.insert((*broadcast, *seq), *t_us);
                }
                TraceEvent::JoinStarted {
                    broadcast, viewer, ..
                } => {
                    join_started.insert((*broadcast, *viewer), *t_us);
                }
                TraceEvent::RtmpUnitDelivered { upload_us, .. } => {
                    upload_hist.record(*upload_us);
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
                    viewer_pop.insert(*viewer, *pop);
                    let acc = pops.entry(*pop).or_default();
                    acc.chunks += 1;
                    acc.viewers.insert(*viewer, ());
                    acc.hists[stage_index(DelayStage::Chunking)].record(*duration_us);
                    if let Some(ready_us) = origin_ready.get(&(*broadcast, *seq)) {
                        acc.hists[stage_index(DelayStage::Wowza2Fastly)]
                            .record(available_at_pop_us.saturating_sub(*ready_us));
                    }
                    acc.hists[stage_index(DelayStage::Polling)]
                        .record(discovered_us.saturating_sub(*available_at_pop_us));
                    acc.hists[stage_index(DelayStage::LastMile)]
                        .record(arrival_us.saturating_sub(*discovered_us));
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
                    let join_s = join_started
                        .get(&(*broadcast, *viewer))
                        .map(|t0| playback_start_us.saturating_sub(*t0) as f64 / 1e6)
                        .unwrap_or(0.0);
                    let acc = match protocol {
                        Protocol::Rtmp => &mut qoe_rtmp,
                        Protocol::Hls => &mut qoe_hls,
                    };
                    acc.sessions += 1;
                    acc.join_sum_s += join_s;
                    acc.join_max_s = acc.join_max_s.max(join_s);
                    acc.stall_sum_s += *stall_us as f64 / 1e6;
                    acc.ratio_sum += *stall_ratio_ppm as f64 / 1e6;
                    if *protocol == Protocol::Hls {
                        hls_buffering.push((*viewer, *avg_buffering_us));
                    }
                }
                TraceEvent::SpanOpen {
                    id,
                    parent,
                    kind,
                    broadcast,
                    subject,
                    site,
                } => {
                    audit.opens += 1;
                    if *kind == SpanKind::ViewerDeliver {
                        deliver_ids.push(*id);
                    }
                    spans.insert(
                        *id,
                        OpenSpan {
                            parent: *parent,
                            broadcast: *broadcast,
                            subject: *subject,
                            site: *site,
                            open_us: *t_us,
                            close_us: None,
                        },
                    );
                }
                TraceEvent::SpanClose { id, .. } => {
                    audit.closes += 1;
                    match spans.get_mut(id) {
                        Some(span) => span.close_us = Some(*t_us),
                        None => audit.unmatched_closes += 1,
                    }
                }
                _ => {}
            }
        }
        audit.unclosed = audit
            .opens
            .saturating_sub(audit.closes - audit.unmatched_closes);

        // Attribute buffering (and the global upload mean) per POP.
        for (viewer, buffering_us) in &hls_buffering {
            if let Some(pop) = viewer_pop.get(viewer) {
                if let Some(acc) = pops.get_mut(pop) {
                    acc.hists[stage_index(DelayStage::Buffering)].record(*buffering_us);
                }
            }
        }
        let upload_dist = StageDist::from_hist(&upload_hist);
        let pops: Vec<PopBreakdown> = pops
            .iter()
            .map(|(pop, acc)| {
                let mut stages: [StageDist; 6] = Default::default();
                for (i, h) in acc.hists.iter().enumerate() {
                    stages[i] = StageDist::from_hist(h);
                }
                stages[stage_index(DelayStage::Upload)] = upload_dist.clone();
                PopBreakdown {
                    pop: *pop,
                    chunks: acc.chunks,
                    viewers: acc.viewers.len() as u64,
                    stages,
                }
            })
            .collect();

        // Waterfalls: walk each complete viewer_deliver chain upward.
        let mut falls: Vec<Waterfall> = deliver_ids
            .iter()
            .filter_map(|id| {
                let deliver = spans.get(id)?;
                let deliver_close = deliver.close_us?;
                let fetch = spans.get(&deliver.parent)?;
                let fetch_close = fetch.close_us?;
                let seal = spans.get(&fetch.parent)?;
                let seal_close = seal.close_us?;
                Some(Waterfall {
                    broadcast: deliver.broadcast,
                    seq: fetch.subject,
                    viewer: deliver.subject,
                    pop: deliver.site,
                    start_us: seal.open_us,
                    seal_us: seal_close.saturating_sub(seal.open_us),
                    origin_wait_us: fetch.open_us.saturating_sub(seal_close),
                    fetch_us: fetch_close.saturating_sub(fetch.open_us),
                    poll_wait_us: deliver.open_us.saturating_sub(fetch_close),
                    download_us: deliver_close.saturating_sub(deliver.open_us),
                    total_us: deliver_close.saturating_sub(seal.open_us),
                })
            })
            .collect();
        falls.sort_by(|a, b| {
            b.total_us
                .cmp(&a.total_us)
                .then_with(|| (a.broadcast, a.seq, a.viewer).cmp(&(b.broadcast, b.seq, b.viewer)))
        });
        falls.truncate(WATERFALL_TOP_K);

        ObsReport {
            events: events.len() as u64,
            spans: audit,
            pops,
            qoe_rtmp: qoe_rtmp.finish(),
            qoe_hls: qoe_hls.finish(),
            waterfalls: falls,
        }
    }

    /// Human-readable rendering. `name_of` maps a datacenter id to a
    /// display name (pass `|pop| format!("pop{pop}")` when no topology is
    /// at hand).
    pub fn render(&self, name_of: &dyn Fn(u16) -> String) -> String {
        let mut out = String::from("causal observability report\n");
        let _ = writeln!(
            out,
            "events: {}   spans: {} opened, {} closed ({} unclosed, {} unmatched closes)\n",
            self.events,
            self.spans.opens,
            self.spans.closes,
            self.spans.unclosed,
            self.spans.unmatched_closes
        );
        out.push_str(
            "per-POP six-component delay means, HLS path (s)\n\
             pop                 chunks viewers  upload  chunking  wowza2fastly  polling  last-mile  buffering  total\n",
        );
        for p in &self.pops {
            let _ = writeln!(
                out,
                "{:<19} {:>6} {:>7}  {:>6.3}  {:>8.3}  {:>12.3}  {:>7.3}  {:>9.3}  {:>9.3}  {:>5.3}",
                format!("{} {}", p.pop, name_of(p.pop)),
                p.chunks,
                p.viewers,
                p.stages[0].mean_s,
                p.stages[1].mean_s,
                p.stages[2].mean_s,
                p.stages[3].mean_s,
                p.stages[4].mean_s,
                p.stages[5].mean_s,
                p.total_mean_s(),
            );
        }
        out.push_str("\nQoE sessions (join time per admission->playback, stalls per session)\n");
        for (label, q) in [("RTMP", &self.qoe_rtmp), ("HLS", &self.qoe_hls)] {
            let _ = writeln!(
                out,
                "  {label:<5} {} sessions  join mean {:.3}s max {:.3}s  stall mean {:.3}s  stall ratio {:.4}",
                q.sessions, q.join_mean_s, q.join_max_s, q.stall_mean_s, q.stall_ratio_mean
            );
        }
        let _ = writeln!(
            out,
            "\ntop-{} slowest chunk journeys (seal -> origin-wait -> fetch -> poll-wait -> download)",
            WATERFALL_TOP_K
        );
        for (i, w) in self.waterfalls.iter().enumerate() {
            let _ = writeln!(
                out,
                "  #{} broadcast {} seq {} viewer {} pop {}: total {:.3}s = {:.3} + {:.3} + {:.3} + {:.3} + {:.3}",
                i + 1,
                w.broadcast,
                w.seq,
                w.viewer,
                w.pop,
                w.total_us as f64 / 1e6,
                w.seal_us as f64 / 1e6,
                w.origin_wait_us as f64 / 1e6,
                w.fetch_us as f64 / 1e6,
                w.poll_wait_us as f64 / 1e6,
                w.download_us as f64 / 1e6,
            );
        }
        out
    }

    /// Machine-readable rendering with a fixed field order, so the bytes
    /// are identical whenever the report is (the `OBS_report.json`
    /// schema; see DESIGN.md §11).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"report\":\"obs\"");
        let _ = write!(s, ",\"events\":{}", self.events);
        let _ = write!(
            s,
            ",\"spans\":{{\"opens\":{},\"closes\":{},\"unclosed\":{},\"unmatched_closes\":{}}}",
            self.spans.opens, self.spans.closes, self.spans.unclosed, self.spans.unmatched_closes
        );
        s.push_str(",\"pops\":[");
        for (i, p) in self.pops.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"pop\":{},\"chunks\":{},\"viewers\":{},\"stages\":{{",
                p.pop, p.chunks, p.viewers
            );
            for (k, stage) in DelayStage::all().iter().enumerate() {
                if k > 0 {
                    s.push(',');
                }
                let d = &p.stages[k];
                let _ = write!(
                    s,
                    "\"{}\":{{\"count\":{},\"mean_s\":{:.6},\"p95_s\":{:.6}}}",
                    stage.label(),
                    d.count,
                    d.mean_s,
                    d.p95_s
                );
            }
            let _ = write!(s, "}},\"total_mean_s\":{:.6}}}", p.total_mean_s());
        }
        s.push_str("],\"qoe\":{");
        for (i, (label, q)) in [("rtmp", &self.qoe_rtmp), ("hls", &self.qoe_hls)]
            .iter()
            .enumerate()
        {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{label}\":{{\"sessions\":{},\"join_mean_s\":{:.6},\"join_max_s\":{:.6},\"stall_mean_s\":{:.6},\"stall_ratio_mean\":{:.6}}}",
                q.sessions, q.join_mean_s, q.join_max_s, q.stall_mean_s, q.stall_ratio_mean
            );
        }
        s.push_str("},\"waterfalls\":[");
        for (i, w) in self.waterfalls.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"broadcast\":{},\"seq\":{},\"viewer\":{},\"pop\":{},\"start_us\":{},\"seal_us\":{},\"origin_wait_us\":{},\"fetch_us\":{},\"poll_wait_us\":{},\"download_us\":{},\"total_us\":{}}}",
                w.broadcast,
                w.seq,
                w.viewer,
                w.pop,
                w.start_us,
                w.seal_us,
                w.origin_wait_us,
                w.fetch_us,
                w.poll_wait_us,
                w.download_us,
                w.total_us
            );
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span;

    fn t(t_us: u64, event: TraceEvent) -> TimedEvent {
        TimedEvent { t_us, event }
    }

    /// One broadcast, one chunk sealed at t=3s, fetched by pop 9 at
    /// t=3.2s (servable 3.5s), delivered to viewer 3 at t=4.0s.
    fn journey_trace() -> Vec<TimedEvent> {
        let seal = span::chunk_seal_span(1, 0);
        let fetch = span::origin_fetch_span(1, 0, 9);
        let deliver = span::viewer_deliver_span(1, 0, 3);
        vec![
            t(
                0,
                TraceEvent::JoinStarted {
                    broadcast: 1,
                    viewer: 3,
                    rtmp: false,
                },
            ),
            t(
                0,
                TraceEvent::SpanOpen {
                    id: seal,
                    parent: span::broadcast_span(1),
                    kind: SpanKind::ChunkSeal,
                    broadcast: 1,
                    subject: 0,
                    site: 2,
                },
            ),
            t(
                3_000_000,
                TraceEvent::SpanClose {
                    id: seal,
                    kind: SpanKind::ChunkSeal,
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
                3_200_000,
                TraceEvent::SpanOpen {
                    id: fetch,
                    parent: seal,
                    kind: SpanKind::OriginFetch,
                    broadcast: 1,
                    subject: 0,
                    site: 9,
                },
            ),
            t(
                3_500_000,
                TraceEvent::SpanClose {
                    id: fetch,
                    kind: SpanKind::OriginFetch,
                },
            ),
            t(
                3_800_000,
                TraceEvent::SpanOpen {
                    id: deliver,
                    parent: fetch,
                    kind: SpanKind::ViewerDeliver,
                    broadcast: 1,
                    subject: 3,
                    site: 9,
                },
            ),
            t(
                4_000_000,
                TraceEvent::SpanClose {
                    id: deliver,
                    kind: SpanKind::ViewerDeliver,
                },
            ),
            t(
                4_000_000,
                TraceEvent::ChunkDelivered {
                    broadcast: 1,
                    viewer: 3,
                    seq: 0,
                    pop: 9,
                    available_at_pop_us: 3_500_000,
                    discovered_us: 3_800_000,
                    arrival_us: 4_000_000,
                    duration_us: 3_000_000,
                },
            ),
            t(
                4_000_000,
                TraceEvent::JoinPlayout {
                    broadcast: 1,
                    viewer: 3,
                    protocol: Protocol::Hls,
                    playback_start_us: 4_000_000,
                    avg_buffering_us: 800_000,
                    stall_us: 120_000,
                    stall_ratio_ppm: 30_000,
                },
            ),
        ]
    }

    #[test]
    fn per_pop_breakdown_and_qoe_are_derived() {
        let r = ObsReport::derive(&journey_trace());
        assert_eq!(r.pops.len(), 1);
        let p = &r.pops[0];
        assert_eq!((p.pop, p.chunks, p.viewers), (9, 1, 1));
        let idx = |s| stage_index(s);
        assert!((p.stages[idx(DelayStage::Chunking)].mean_s - 3.0).abs() < 1e-9);
        assert!((p.stages[idx(DelayStage::Wowza2Fastly)].mean_s - 0.5).abs() < 1e-9);
        assert!((p.stages[idx(DelayStage::Polling)].mean_s - 0.3).abs() < 1e-9);
        assert!((p.stages[idx(DelayStage::LastMile)].mean_s - 0.2).abs() < 1e-9);
        assert!((p.stages[idx(DelayStage::Buffering)].mean_s - 0.8).abs() < 1e-9);
        assert_eq!(r.qoe_hls.sessions, 1);
        assert!((r.qoe_hls.join_mean_s - 4.0).abs() < 1e-9);
        assert!((r.qoe_hls.stall_mean_s - 0.12).abs() < 1e-9);
        assert!((r.qoe_hls.stall_ratio_mean - 0.03).abs() < 1e-9);
        assert_eq!(r.qoe_rtmp.sessions, 0);
    }

    #[test]
    fn waterfall_reconstructs_the_span_chain() {
        let r = ObsReport::derive(&journey_trace());
        assert_eq!(r.waterfalls.len(), 1);
        let w = &r.waterfalls[0];
        assert_eq!((w.broadcast, w.seq, w.viewer, w.pop), (1, 0, 3, 9));
        assert_eq!(w.seal_us, 3_000_000);
        assert_eq!(w.origin_wait_us, 200_000);
        assert_eq!(w.fetch_us, 300_000);
        assert_eq!(w.poll_wait_us, 300_000);
        assert_eq!(w.download_us, 200_000);
        assert_eq!(w.total_us, 4_000_000);
        assert_eq!(r.spans.opens, 3);
        assert_eq!(r.spans.closes, 3);
        assert_eq!(r.spans.unclosed, 0);
    }

    #[test]
    fn json_rendering_is_stable_and_self_consistent() {
        let r = ObsReport::derive(&journey_trace());
        let a = r.to_json();
        let b = ObsReport::derive(&journey_trace()).to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"report\":\"obs\",\"events\":10,"), "{a}");
        assert!(a.contains("\"pop\":9"), "{a}");
        assert!(a.contains("\"total_us\":4000000"), "{a}");
        let text = r.render(&|pop| format!("pop{pop}"));
        assert!(text.contains("9 pop9"), "{text}");
        assert!(text.contains("top-5 slowest chunk journeys"), "{text}");
    }

    #[test]
    fn truncated_spans_are_audited_not_fatal() {
        let mut events = journey_trace();
        events.retain(|e| !matches!(e.event, TraceEvent::SpanClose { .. }));
        events.push(t(
            9,
            TraceEvent::SpanClose {
                id: 0xDEAD,
                kind: SpanKind::ChunkSeal,
            },
        ));
        let r = ObsReport::derive(&events);
        assert_eq!(r.spans.opens, 3);
        assert_eq!(r.spans.unmatched_closes, 1);
        assert_eq!(r.spans.unclosed, 3);
        assert!(r.waterfalls.is_empty());
    }
}
