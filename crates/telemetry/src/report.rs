//! The observability report: the one fold of a trace. A single pass
//! yields per-kind event counts and the traced sim-time span, the
//! protocol-level delay ledger (Figs 10–11), per-POP six-component delay
//! distributions (the paper's Fig-15-style regional breakdown), QoE
//! session metrics (join time and stall ratio, after the Periscope QoE
//! study), and top-k slowest chunk-journey waterfalls built from the
//! causal spans.
//!
//! Everything here is a pure function of the trace bytes: the same trace
//! produces the same [`ObsReport`], and because traces are byte-identical
//! across lane counts for a fixed `(config, seed)`, so is the report.

use crate::event::{Protocol, TimedEvent, TraceEvent};
use crate::ledger::DelayLedger;
use crate::registry::Histogram;
use crate::span::SpanKind;
use livescope_analysis::{DelayBreakdown, DelayComponent};
use std::collections::BTreeMap;
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
    /// One distribution per [`DelayComponent`], in `DelayComponent::all()` order.
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
    /// Spans that never closed before the trace ended or their id was
    /// opened again (truncated trace or a bug).
    pub unclosed: u64,
    /// Closes whose id has no open span.
    pub unmatched_closes: u64,
}

/// The full observability report derived from one trace.
#[derive(Clone, Debug, Default)]
pub struct ObsReport {
    /// Events in the trace.
    pub events: u64,
    /// Events per kind ([`TraceEvent::kind`]), ascending name order.
    pub counts: BTreeMap<&'static str, u64>,
    /// Sim time between the earliest and the latest stamp, µs.
    pub span_us: u64,
    /// Protocol-level six-component delay means.
    pub ledger: DelayLedger,
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

/// One open→close occurrence of a span id. Ids are content addresses,
/// so a trace holding several repetitions opens the same id again; every
/// `SpanOpen` is its own occurrence, bound to the occurrence of its
/// parent id that was current when it opened.
struct SpanRecord {
    parent: Option<usize>,
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
    buffering_sum_us: u64,
}

impl QoeAcc {
    /// `sum` per session, 0 for an empty cohort.
    fn per_session(&self, sum: f64) -> f64 {
        if self.sessions == 0 {
            0.0
        } else {
            sum / self.sessions as f64
        }
    }

    fn finish(&self) -> QoeCohort {
        QoeCohort {
            sessions: self.sessions,
            join_mean_s: self.per_session(self.join_sum_s),
            join_max_s: self.join_max_s,
            stall_mean_s: self.per_session(self.stall_sum_s),
            stall_ratio_mean: self.per_session(self.ratio_sum),
        }
    }

    fn buffering_mean_s(&self) -> f64 {
        self.per_session(self.buffering_sum_us as f64 / 1e6)
    }
}

/// The six stage keys as table columns, two spaces apart.
fn stage_header() -> String {
    DelayComponent::all().map(DelayComponent::key).join("  ")
}

/// Six seconds values right-aligned under [`stage_header`]'s columns.
fn stage_cells(value: impl Fn(DelayComponent) -> f64) -> String {
    DelayComponent::all()
        .map(|c| format!("{:>w$.3}", value(c), w = c.key().len()))
        .join("  ")
}

/// Mean of the samples pooled over `hists`, seconds (0 when empty).
fn pooled_mean_s<'a>(hists: impl Iterator<Item = &'a Histogram>) -> f64 {
    let (sum, count) = hists.fold((0u64, 0u64), |(sum, count), h| {
        (sum.saturating_add(h.sum), count + h.count)
    });
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64 / 1e6
    }
}

impl ObsReport {
    /// Folds a trace (in emission order) into the report. The delay
    /// components are, per `ChunkDelivered`: chunking = `duration_us`,
    /// wowza2fastly = `available_at_pop_us` − the matching
    /// `ChunkCompleted` stamp, polling = `discovered_us` −
    /// `available_at_pop_us`, last-mile = `arrival_us` − `discovered_us`;
    /// upload and RTMP last-mile come from `RtmpUnitDelivered`, buffering
    /// from `JoinPlayout`. The per-POP histograms hold them once; the
    /// ledger's means are those histograms pooled.
    pub fn derive(events: &[TimedEvent]) -> ObsReport {
        let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
        let (mut first_us, mut last_us) = (u64::MAX, 0u64);
        // (broadcast, seq) -> seal time, maintained streamingly so traces
        // holding several repetitions (which restart seq) join correctly.
        let mut origin_ready: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        // (broadcast, viewer) -> admission time.
        let mut join_started: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        // viewer -> last POP that served it (for buffering attribution).
        let mut viewer_pop: BTreeMap<u64, u16> = BTreeMap::new();
        // Every span occurrence in open order, the current occurrence of
        // each id (lookup only — never iterated, so hash order is inert),
        // and which occurrences are deliveries, for the waterfalls.
        let mut spans: Vec<SpanRecord> = Vec::new();
        let mut current: BTreeMap<u64, usize> = BTreeMap::new();
        let mut delivers: Vec<usize> = Vec::new();
        let mut upload_hist = Histogram::default();
        let mut rtmp_last_mile_hist = Histogram::default();
        let mut pops: BTreeMap<u16, PopAcc> = BTreeMap::new();
        let mut qoe_rtmp = QoeAcc::default();
        let mut qoe_hls = QoeAcc::default();
        let mut audit = SpanAudit::default();
        // HLS playouts buffered until the viewer->POP map is complete.
        let mut hls_buffering: Vec<(u64, u64)> = Vec::new(); // (viewer, avg_buffering_us)

        for TimedEvent { t_us, event } in events {
            *counts.entry(event.kind()).or_default() += 1;
            first_us = first_us.min(*t_us);
            last_us = last_us.max(*t_us);
            match event {
                TraceEvent::ChunkCompleted { broadcast, seq, .. } => {
                    origin_ready.insert((*broadcast, *seq), *t_us);
                }
                TraceEvent::JoinStarted {
                    broadcast, viewer, ..
                } => {
                    join_started.insert((*broadcast, *viewer), *t_us);
                }
                TraceEvent::RtmpUnitDelivered {
                    upload_us,
                    last_mile_us,
                    ..
                } => {
                    upload_hist.record(*upload_us);
                    rtmp_last_mile_hist.record(*last_mile_us);
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
                    acc.hists[DelayComponent::Chunking as usize].record(*duration_us);
                    // No seal in the trace: the sample is left out here
                    // and surfaces as `DelayLedger::unmatched_chunks`.
                    if let Some(ready_us) = origin_ready.get(&(*broadcast, *seq)) {
                        acc.hists[DelayComponent::Wowza2Fastly as usize]
                            .record(available_at_pop_us.saturating_sub(*ready_us));
                    }
                    acc.hists[DelayComponent::Polling as usize]
                        .record(discovered_us.saturating_sub(*available_at_pop_us));
                    acc.hists[DelayComponent::LastMile as usize]
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
                    acc.buffering_sum_us = acc.buffering_sum_us.saturating_add(*avg_buffering_us);
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
                        delivers.push(spans.len());
                    }
                    let parent = current.get(parent).copied();
                    current.insert(*id, spans.len());
                    spans.push(SpanRecord {
                        parent,
                        broadcast: *broadcast,
                        subject: *subject,
                        site: *site,
                        open_us: *t_us,
                        close_us: None,
                    });
                }
                TraceEvent::SpanClose { id, .. } => {
                    audit.closes += 1;
                    match current.get(id).map(|&i| &mut spans[i]) {
                        Some(span) if span.close_us.is_none() => span.close_us = Some(*t_us),
                        _ => audit.unmatched_closes += 1,
                    }
                }
                _ => {}
            }
        }
        audit.unclosed = spans.iter().filter(|s| s.close_us.is_none()).count() as u64;

        // Attribute buffering (and the global upload mean) per POP.
        for (viewer, buffering_us) in &hls_buffering {
            if let Some(pop) = viewer_pop.get(viewer) {
                if let Some(acc) = pops.get_mut(pop) {
                    acc.hists[DelayComponent::Buffering as usize].record(*buffering_us);
                }
            }
        }
        let hls_mean_s =
            |c: DelayComponent| pooled_mean_s(pops.values().map(|acc| &acc.hists[c as usize]));
        let upload_dist = StageDist::from_hist(&upload_hist);
        let hls_chunks: u64 = pops.values().map(|acc| acc.chunks).sum();
        let matched_chunks: u64 = pops
            .values()
            .map(|acc| acc.hists[DelayComponent::Wowza2Fastly as usize].count)
            .sum();
        let ledger = DelayLedger {
            rtmp: DelayBreakdown {
                upload_s: upload_dist.mean_s,
                last_mile_s: rtmp_last_mile_hist.mean() / 1e6,
                buffering_s: qoe_rtmp.buffering_mean_s(),
                ..DelayBreakdown::default()
            },
            hls: DelayBreakdown {
                upload_s: upload_dist.mean_s,
                chunking_s: hls_mean_s(DelayComponent::Chunking),
                wowza2fastly_s: hls_mean_s(DelayComponent::Wowza2Fastly),
                polling_s: hls_mean_s(DelayComponent::Polling),
                last_mile_s: hls_mean_s(DelayComponent::LastMile),
                buffering_s: qoe_hls.buffering_mean_s(),
            },
            rtmp_units: upload_hist.count,
            hls_chunks,
            unmatched_chunks: hls_chunks - matched_chunks,
        };
        let pops: Vec<PopBreakdown> = pops
            .iter()
            .map(|(pop, acc)| {
                let mut stages: [StageDist; 6] = Default::default();
                for (i, h) in acc.hists.iter().enumerate() {
                    stages[i] = StageDist::from_hist(h);
                }
                stages[DelayComponent::Upload as usize] = upload_dist.clone();
                PopBreakdown {
                    pop: *pop,
                    chunks: acc.chunks,
                    viewers: acc.viewers.len() as u64,
                    stages,
                }
            })
            .collect();

        // Waterfalls: walk each complete viewer_deliver chain upward.
        let mut falls: Vec<Waterfall> = delivers
            .iter()
            .filter_map(|&i| {
                let deliver = &spans[i];
                let deliver_close = deliver.close_us?;
                let fetch = &spans[deliver.parent?];
                let fetch_close = fetch.close_us?;
                let seal = &spans[fetch.parent?];
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
            counts,
            span_us: last_us.saturating_sub(first_us),
            ledger,
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
            "{} events spanning {:.3} s of sim time   spans: {} opened, {} closed ({} unclosed, {} unmatched closes)\n",
            self.events,
            self.span_us as f64 / 1e6,
            self.spans.opens,
            self.spans.closes,
            self.spans.unclosed,
            self.spans.unmatched_closes
        );
        out.push_str("event counts:\n");
        for (kind, n) in &self.counts {
            let _ = writeln!(out, "  {kind:<22} {n}");
        }
        let header = stage_header();
        let _ = writeln!(
            out,
            "\ntrace-derived delay breakdown (s)\nprotocol  {header}  total"
        );
        for (name, d) in [("RTMP", &self.ledger.rtmp), ("HLS", &self.ledger.hls)] {
            let cells = stage_cells(|c| d.get(c));
            let _ = writeln!(out, "{name:<9} {cells}  {:>5.3}", d.total_s());
        }
        let _ = writeln!(
            out,
            "samples: {} rtmp units, {} hls chunks ({} unmatched)\n",
            self.ledger.rtmp_units, self.ledger.hls_chunks, self.ledger.unmatched_chunks
        );
        let _ = writeln!(
            out,
            "per-POP six-component delay means, HLS path (s)\n{:<19} chunks viewers  {header}  total",
            "pop"
        );
        for p in &self.pops {
            let _ = writeln!(
                out,
                "{:<19} {:>6} {:>7}  {}  {:>5.3}",
                format!("{} {}", p.pop, name_of(p.pop)),
                p.chunks,
                p.viewers,
                stage_cells(|c| p.stages[c as usize].mean_s),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Span;

    fn t(t_us: u64, event: TraceEvent) -> TimedEvent {
        TimedEvent { t_us, event }
    }

    /// One broadcast, one chunk sealed at t=3s, fetched by pop 9 at
    /// t=3.2s (servable 3.5s), delivered to viewer 3 at t=4.0s.
    fn journey_trace() -> Vec<TimedEvent> {
        let seal = Span::chunk_seal(1, 0);
        let fetch = Span::origin_fetch(1, 0, 9);
        let deliver = Span::viewer_deliver(1, 0, 3);
        vec![
            t(
                0,
                TraceEvent::JoinStarted {
                    broadcast: 1,
                    viewer: 3,
                    rtmp: false,
                },
            ),
            t(0, seal.open(2)),
            t(3_000_000, seal.close()),
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
            t(3_200_000, fetch.open(9)),
            t(3_500_000, fetch.close()),
            t(3_800_000, deliver.open(9)),
            t(4_000_000, deliver.close()),
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
        assert!((p.stages[DelayComponent::Chunking as usize].mean_s - 3.0).abs() < 1e-9);
        assert!((p.stages[DelayComponent::Wowza2Fastly as usize].mean_s - 0.5).abs() < 1e-9);
        assert!((p.stages[DelayComponent::Polling as usize].mean_s - 0.3).abs() < 1e-9);
        assert!((p.stages[DelayComponent::LastMile as usize].mean_s - 0.2).abs() < 1e-9);
        assert!((p.stages[DelayComponent::Buffering as usize].mean_s - 0.8).abs() < 1e-9);
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

    /// Span ids are content addresses, so a second repetition reopens
    /// the first one's ids: each repetition's journey must stay its own
    /// waterfall row, and a reopened, properly closed span is not a leak.
    #[test]
    fn repetitions_keep_their_own_journeys() {
        let mut events = journey_trace();
        // Repetition 2 restarts sim time; its viewer polls 0.5 s later.
        events.extend(journey_trace().into_iter().map(|mut e| {
            if let TraceEvent::SpanOpen { kind, .. } | TraceEvent::SpanClose { kind, .. } = e.event
            {
                if kind == SpanKind::ViewerDeliver {
                    e.t_us += 500_000;
                }
            }
            e
        }));
        let r = ObsReport::derive(&events);
        assert_eq!((r.spans.opens, r.spans.closes), (6, 6));
        assert_eq!((r.spans.unclosed, r.spans.unmatched_closes), (0, 0));
        let totals: Vec<u64> = r.waterfalls.iter().map(|w| w.total_us).collect();
        assert_eq!(totals, [4_500_000, 4_000_000]);
        assert_eq!(r.waterfalls[0].poll_wait_us, 800_000);
        assert_eq!(r.waterfalls[1].poll_wait_us, 300_000);
        assert_eq!(r.ledger.unmatched_chunks, 0);
        assert_eq!(r.counts["span_open"], 6);
        assert_eq!(r.span_us, 4_500_000);
    }

    /// One fold, one verdict: a delivery whose seal fell off the trace is
    /// reported unmatched by the same report that leaves it out of
    /// `wowza2fastly` (and keeps it everywhere else).
    #[test]
    fn unsealed_delivery_is_counted_where_it_is_dropped() {
        let mut events = journey_trace();
        events.retain(|e| !matches!(e.event, TraceEvent::ChunkCompleted { .. }));
        let r = ObsReport::derive(&events);
        let p = &r.pops[0];
        assert_eq!(p.stages[DelayComponent::Wowza2Fastly as usize].count, 0);
        assert_eq!(p.stages[DelayComponent::Polling as usize].count, 1);
        assert_eq!((r.ledger.hls_chunks, r.ledger.unmatched_chunks), (1, 1));
        assert_eq!(r.ledger.hls.wowza2fastly_s, 0.0);
        assert!((r.ledger.hls.polling_s - 0.3).abs() < 1e-9);
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
