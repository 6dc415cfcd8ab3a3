//! The §6 playback buffer, exactly as the paper describes the decompiled
//! strategy and evaluates it in trace-driven simulation:
//!
//! > "when the live streaming starts, the client first pre-buffers some
//! > video content (P seconds) ... newly arrived video content \[is\]
//! > organized and played by their sequence numbers ... Arrivals that come
//! > later than their scheduled play time are discarded."
//!
//! Semantics implemented:
//!
//! 1. Playback starts once `P` seconds of contiguous media (from the first
//!    unit) have arrived — or everything arrived, for streams shorter than
//!    `P`.
//! 2. Units play in media order. If the next unit is missing when its turn
//!    comes **and nothing newer is buffered**, the player *stalls*
//!    (rebuffers) until it arrives; the whole subsequent schedule shifts.
//! 3. If the next unit is missing but a **newer unit is already buffered**
//!    (out-of-order straggler), the missing unit is *discarded* and
//!    playback skips ahead — that is the paper's "arrivals later than
//!    their scheduled play time are discarded".
//!
//! The two §6 metrics fall out directly: **stalling ratio** (stalled time
//! over content duration) and **average buffering delay** (arrival →
//! play-out gap, averaged over played units).

use livescope_sim::{SimDuration, SimTime};
use livescope_telemetry::{Protocol, Span, Telemetry, TraceEvent};

/// One received media unit: a frame (RTMP) or a chunk (HLS).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArrivedUnit {
    /// Media timestamp (capture time of the first contained frame), µs.
    pub media_ts_us: u64,
    /// Content duration, µs (40 000 for a frame, ~3 000 000 for a chunk).
    pub duration_us: u64,
    /// When the unit landed on the viewer device.
    pub arrival: SimTime,
}

/// Outcome of a playback simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PlaybackReport {
    /// Units played.
    pub played: u64,
    /// Units discarded as out-of-order stragglers.
    pub discarded: u64,
    /// Total stalled (rebuffering) wall time, seconds.
    pub stall_s: f64,
    /// Stall time over content duration: the §6 "stalling ratio".
    pub stall_ratio: f64,
    /// Mean arrival→playout gap over played units, seconds.
    pub avg_buffering_s: f64,
    /// When playback started (pre-buffer filled).
    pub playback_start: SimTime,
}

/// Runs the buffering strategy over an arrival trace.
///
/// `units` may be in any order; they are played by `media_ts_us`. Units
/// absent from the slice simply never arrived (dropped upstream): the
/// player treats the media gap as a discontinuity and plays through it.
pub fn simulate_playback(units: &[ArrivedUnit], prebuffer: SimDuration) -> PlaybackReport {
    if units.is_empty() {
        return PlaybackReport::default();
    }
    let mut media: Vec<ArrivedUnit> = units.to_vec();
    media.sort_by_key(|u| (u.media_ts_us, u.arrival));

    // --- Phase 1: find the playback start instant. -----------------------
    // Content counts toward the pre-buffer only once every earlier unit
    // has arrived (the buffer is played in order, so a hole blocks it).
    let mut prefix_ready = SimTime::ZERO;
    let mut accumulated = SimDuration::ZERO;
    let mut playback_start = None;
    for u in &media {
        prefix_ready = prefix_ready.max(u.arrival);
        accumulated += SimDuration::from_micros(u.duration_us);
        if accumulated >= prebuffer {
            playback_start = Some(prefix_ready);
            break;
        }
    }
    // Shorter than P: start once everything arrived.
    let playback_start = playback_start.unwrap_or(prefix_ready);

    // Suffix-min of arrivals: "is anything newer already buffered?"
    let mut min_arrival_after = vec![SimTime::MAX; media.len() + 1];
    for i in (0..media.len()).rev() {
        min_arrival_after[i] = min_arrival_after[i + 1].min(media[i].arrival);
    }

    // --- Phase 2: play. ---------------------------------------------------
    let mut clock = playback_start;
    let mut played = 0u64;
    let mut discarded = 0u64;
    let mut stall = SimDuration::ZERO;
    let mut buffering_total = 0.0f64;
    let mut content_total = SimDuration::ZERO;
    for (i, u) in media.iter().enumerate() {
        content_total += SimDuration::from_micros(u.duration_us);
        if u.arrival <= clock {
            // In the buffer: plays on schedule.
            buffering_total += clock.saturating_since(u.arrival).as_secs_f64();
            played += 1;
            clock += SimDuration::from_micros(u.duration_us);
        } else if min_arrival_after[i + 1] <= clock {
            // Straggler: newer content is already here — skip it.
            discarded += 1;
        } else {
            // Genuine gap: rebuffer until it arrives.
            stall += u.arrival.saturating_since(clock);
            played += 1;
            clock = u.arrival + SimDuration::from_micros(u.duration_us);
        }
    }
    let content_s = content_total.as_secs_f64();
    PlaybackReport {
        played,
        discarded,
        stall_s: stall.as_secs_f64(),
        stall_ratio: if content_s > 0.0 {
            stall.as_secs_f64() / content_s
        } else {
            0.0
        },
        avg_buffering_s: if played > 0 {
            buffering_total / played as f64
        } else {
            0.0
        },
        playback_start,
    }
}

/// Emits the `JoinPlayout` trace event for a finished playback
/// simulation: the viewer's join, reduced to when playout started and
/// what the buffer cost on average. One call per (viewer, protocol) leg.
pub fn emit_playout(
    telemetry: &Telemetry,
    broadcast: u64,
    viewer: u64,
    protocol: Protocol,
    report: &PlaybackReport,
) {
    telemetry.emit(
        report.playback_start.as_micros(),
        TraceEvent::JoinPlayout {
            broadcast,
            viewer,
            protocol,
            playback_start_us: report.playback_start.as_micros(),
            avg_buffering_us: (report.avg_buffering_s * 1e6).round() as u64,
            stall_us: (report.stall_s * 1e6).round() as u64,
            stall_ratio_ppm: (report.stall_ratio * 1e6).round() as u64,
        },
    );
    // The playout report is the session's last word: close its span at
    // playback start (the QoE-relevant instant the report is stamped
    // with).
    telemetry.emit(
        report.playback_start.as_micros(),
        Span::viewer_session(broadcast, viewer).close(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` units of 40 ms media arriving with per-unit delays.
    fn trace(delays_ms: &[u64]) -> Vec<ArrivedUnit> {
        delays_ms
            .iter()
            .enumerate()
            .map(|(i, &d)| ArrivedUnit {
                media_ts_us: i as u64 * 40_000,
                duration_us: 40_000,
                arrival: SimTime::from_millis(i as u64 * 40 + d),
            })
            .collect()
    }

    #[test]
    fn empty_trace_is_a_zero_report() {
        assert_eq!(
            simulate_playback(&[], SimDuration::from_secs(1)),
            PlaybackReport::default()
        );
    }

    #[test]
    fn smooth_arrivals_with_zero_prebuffer_never_stall() {
        // Constant delay — playback locks to the arrival cadence.
        let units = trace(&[100; 50]);
        let report = simulate_playback(&units, SimDuration::ZERO);
        assert_eq!(report.played, 50);
        assert_eq!(report.discarded, 0);
        assert_eq!(report.stall_s, 0.0);
        assert_eq!(report.avg_buffering_s, 0.0);
        assert_eq!(report.playback_start, SimTime::from_millis(100));
    }

    #[test]
    fn prebuffer_delays_start_and_adds_buffering() {
        let units = trace(&[100; 100]);
        let p = SimDuration::from_secs(1);
        let report = simulate_playback(&units, p);
        // 1 s of 40 ms units = 25 units; the 25th arrives at 24*40+100.
        assert_eq!(report.playback_start, SimTime::from_millis(24 * 40 + 100));
        assert_eq!(report.stall_s, 0.0);
        // Steady state: every unit waits ≈ P − one unit duration.
        assert!(
            (report.avg_buffering_s - 0.96).abs() < 0.02,
            "avg buffering {}",
            report.avg_buffering_s
        );
    }

    #[test]
    fn jitter_without_prebuffer_causes_stalls() {
        // Every 10th unit is 500 ms late.
        let delays: Vec<u64> = (0..100)
            .map(|i| if i % 10 == 9 { 500 } else { 20 })
            .collect();
        let no_buffer = simulate_playback(&trace(&delays), SimDuration::ZERO);
        let buffered = simulate_playback(&trace(&delays), SimDuration::from_secs(1));
        assert!(no_buffer.stall_s > 0.0, "expected stalls without buffer");
        assert_eq!(
            buffered.stall_s, 0.0,
            "1 s pre-buffer absorbs 500 ms jitter"
        );
        assert!(buffered.avg_buffering_s > no_buffer.avg_buffering_s);
    }

    #[test]
    fn stall_shifts_the_schedule_and_inflates_buffering() {
        // A 5-second uplink stall at unit 50, then a burst: later units
        // arrive promptly but the schedule is now 5 s late, so they sit in
        // the buffer — the Fig 16(b) long-buffering mechanism.
        let mut units = trace(&[50; 200]);
        for u in units.iter_mut().skip(50) {
            u.arrival = u.arrival.max(SimTime::from_millis(50 * 40 + 5_000));
        }
        let report = simulate_playback(&units, SimDuration::from_secs(1));
        assert!(report.stall_s > 3.0, "stall {}", report.stall_s);
        assert!(
            report.avg_buffering_s > 2.0,
            "post-burst buffering should accumulate: {}",
            report.avg_buffering_s
        );
    }

    #[test]
    fn stragglers_are_discarded_not_waited_for() {
        // Unit 10 arrives 2 s late while later units arrive on time: by
        // the time its turn comes, newer content is buffered → discard.
        let mut units = trace(&[10; 50]);
        units[10].arrival = SimTime::from_millis(10 * 40 + 2_000);
        let report = simulate_playback(&units, SimDuration::from_millis(200));
        assert_eq!(report.discarded, 1);
        assert_eq!(report.played, 49);
        assert_eq!(report.stall_s, 0.0, "discard must not stall");
    }

    #[test]
    fn trailing_late_unit_stalls_instead_of_discarding() {
        // The very last unit is late and nothing newer exists → the player
        // must wait (there is nothing to skip ahead to).
        let mut units = trace(&[10; 20]);
        units[19].arrival = SimTime::from_millis(19 * 40 + 3_000);
        let report = simulate_playback(&units, SimDuration::ZERO);
        assert_eq!(report.discarded, 0);
        assert!(report.stall_s > 2.0);
    }

    #[test]
    fn stream_shorter_than_prebuffer_plays_after_full_arrival() {
        let units = trace(&[100; 10]); // 0.4 s of content
        let report = simulate_playback(&units, SimDuration::from_secs(9));
        assert_eq!(report.playback_start, units[9].arrival);
        assert_eq!(report.played, 10);
        assert_eq!(report.stall_s, 0.0);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let mut units = trace(&[100; 30]);
        units.reverse();
        let sorted_report = simulate_playback(&trace(&[100; 30]), SimDuration::ZERO);
        let reversed_report = simulate_playback(&units, SimDuration::ZERO);
        assert_eq!(sorted_report, reversed_report);
    }

    #[test]
    fn chunk_scale_traces_work_too() {
        // HLS-ish: 3 s chunks with polling jitter; P=6 s absorbs it.
        let units: Vec<ArrivedUnit> = (0..60u64)
            .map(|i| ArrivedUnit {
                media_ts_us: i * 3_000_000,
                duration_us: 3_000_000,
                arrival: SimTime::from_millis(i * 3_000 + 1_000 + (i % 3) * 900),
            })
            .collect();
        let p0 = simulate_playback(&units, SimDuration::ZERO);
        let p6 = simulate_playback(&units, SimDuration::from_secs(6));
        assert!(p6.stall_ratio <= p0.stall_ratio);
        assert!(p6.avg_buffering_s > p0.avg_buffering_s);
    }
}
