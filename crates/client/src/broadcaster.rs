//! The broadcaster device: frame generation and the bursty uplink.

use std::sync::LazyLock;

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::Rng;

use livescope_net::AccessLink;
use livescope_proto::rtmp::{VideoFrame, FRAME_INTERVAL_MS};
use livescope_sim::{dist, SimDuration, SimTime};

/// Keyframe cadence: one keyframe every 2 s (every 50th frame at 25 fps).
pub const KEYFRAME_EVERY: u64 = 50;
/// Typical delta-frame payload, bytes (≈600 kbit/s at 25 fps).
pub const DELTA_FRAME_BYTES: usize = 2_500;
/// Typical keyframe payload, bytes.
pub const KEYFRAME_BYTES: usize = 9_000;

/// Frames between repeats of the filler pattern; a multiple of
/// [`KEYFRAME_EVERY`], so each slot is always a keyframe or always not.
const FILL_PERIOD: u64 = 250;

/// The filler payload of every slot of the pattern, built once per
/// process on first use and shared by every source: about 657 KB.
static FILLERS: LazyLock<Vec<Bytes>> = LazyLock::new(|| {
    (0..FILL_PERIOD)
        .map(|slot| {
            let size = if slot.is_multiple_of(KEYFRAME_EVERY) {
                KEYFRAME_BYTES
            } else {
                DELTA_FRAME_BYTES
            };
            // Never zero: an all-zero payload would look like the
            // black-frame tampering attack of the security experiments.
            std::iter::repeat_n(1 + slot as u8, size).collect()
        })
        .collect()
});

/// Generates the frame sequence of one broadcast.
///
/// Payloads are deterministic filler of realistic size from one
/// process-wide 250-frame pattern of shared blocks (about 657 KB, built
/// once): frame `seq` of any source carries the block of slot
/// `seq % 250`, so a source allocates no payload at all.
#[derive(Clone, Debug)]
pub struct FrameSource {
    next_seq: u64,
    /// Capture instant of frame 0 on the device clock, µs. The paper notes
    /// device clocks are not universal; keeping an explicit epoch makes
    /// that property visible in tests.
    device_epoch_us: u64,
}

impl FrameSource {
    /// A source whose device clock starts at `device_epoch_us`.
    pub fn new(device_epoch_us: u64) -> Self {
        FrameSource {
            next_seq: 0,
            device_epoch_us,
        }
    }

    /// Produces the next frame. Content doesn't matter, size and timing
    /// do, so the payload is a shared filler block.
    pub fn next_frame(&mut self) -> VideoFrame {
        let seq = self.next_seq;
        self.next_seq += 1;
        VideoFrame::new(
            seq,
            self.capture_ts_us(seq),
            seq.is_multiple_of(KEYFRAME_EVERY),
            FILLERS[(seq % FILL_PERIOD) as usize].clone(),
        )
    }

    /// Capture instant (device clock) of frame `seq`, µs.
    pub fn capture_ts_us(&self, seq: u64) -> u64 {
        self.device_epoch_us + seq * FRAME_INTERVAL_MS * 1_000
    }

    /// Frames per second implied by the 40 ms interval.
    pub fn fps() -> f64 {
        1_000.0 / FRAME_INTERVAL_MS as f64
    }
}

/// Uplink quality classes. §6 observes ~10% of RTMP broadcasts suffer
/// multi-second buffering delays "caused by the bursty arrival of video
/// frames during uploading" — those are [`UplinkClass::Bursty`]
/// broadcasters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UplinkClass {
    /// Stable WiFi: rare, short stalls.
    Steady,
    /// Congested uplink: frequent multi-second stalls followed by bursts.
    Bursty,
}

/// The uplink: per-frame access delay plus a stall-and-burst process.
/// While stalled, captured frames queue on the device and then arrive in a
/// burst once the stall clears.
#[derive(Clone, Debug)]
pub struct UplinkModel {
    pub access: AccessLink,
    /// Probability a given frame triggers a stall.
    pub stall_prob: f64,
    /// Mean stall length, seconds.
    pub stall_mean_s: f64,
    /// Minimum spacing of queued frames when a burst drains (serialization).
    pub drain_spacing: SimDuration,
}

impl UplinkModel {
    /// The model for a quality class.
    pub fn for_class(class: UplinkClass) -> Self {
        match class {
            UplinkClass::Steady => UplinkModel {
                access: AccessLink::StableWifi,
                stall_prob: 0.0002,
                stall_mean_s: 0.8,
                drain_spacing: SimDuration::from_millis(2),
            },
            UplinkClass::Bursty => UplinkModel {
                access: AccessLink::CongestedWifi,
                stall_prob: 0.0025,
                stall_mean_s: 3.0,
                drain_spacing: SimDuration::from_millis(2),
            },
        }
    }

    /// Samples a class with the paper's ~10% bursty mix.
    pub fn sample_class(rng: &mut SmallRng) -> UplinkClass {
        if rng.gen_bool(0.10) {
            UplinkClass::Bursty
        } else {
            UplinkClass::Steady
        }
    }

    /// Maps capture instants to server-arrival instants.
    ///
    /// Invariant: arrivals are strictly increasing (a TCP uplink delivers
    /// in order) and never precede capture + minimum access delay.
    pub fn arrival_times(
        &self,
        captures: &[SimTime],
        frame_bytes: usize,
        rng: &mut SmallRng,
    ) -> Vec<SimTime> {
        let mut out = Vec::with_capacity(captures.len());
        let mut blocked_until = SimTime::ZERO;
        let mut prev_arrival = SimTime::ZERO;
        for &capture in captures {
            if self.stall_prob > 0.0 && rng.gen_bool(self.stall_prob) {
                let stall = SimDuration::from_secs_f64(dist::exponential(rng, self.stall_mean_s));
                blocked_until = blocked_until.max(capture + stall);
            }
            let base = capture + self.access.sample_delay(rng, frame_bytes);
            let mut arrival = base.max(blocked_until);
            if !out.is_empty() {
                arrival = arrival.max(prev_arrival + self.drain_spacing);
            }
            prev_arrival = arrival;
            out.push(arrival);
        }
        out
    }
}

/// Convenience: capture instants for `n` frames starting at `start`.
pub fn capture_schedule(start: SimTime, n: usize) -> Vec<SimTime> {
    (0..n as u64)
        .map(|i| start + SimDuration::from_millis(i * FRAME_INTERVAL_MS))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn frames_have_correct_cadence_and_sizes() {
        let mut src = FrameSource::new(1_000_000);
        let frames: Vec<VideoFrame> = (0..120).map(|_| src.next_frame()).collect();
        assert!(frames[0].meta.keyframe);
        assert!(!frames[1].meta.keyframe);
        assert!(frames[50].meta.keyframe);
        assert_eq!(frames[0].payload.len(), KEYFRAME_BYTES);
        assert_eq!(frames[1].payload.len(), DELTA_FRAME_BYTES);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.meta.sequence, i as u64);
            assert_eq!(f.meta.capture_ts_us, 1_000_000 + i as u64 * 40_000);
        }
        assert_eq!(FrameSource::fps(), 25.0);
    }

    #[test]
    fn filler_payloads_repeat_every_250_frames_and_share_storage() {
        let mut src = FrameSource::new(0);
        let frames: Vec<VideoFrame> = (0..=600).map(|_| src.next_frame()).collect();
        for (seq, f) in frames.iter().enumerate() {
            let size = [DELTA_FRAME_BYTES, KEYFRAME_BYTES][usize::from(seq % 50 == 0)];
            let fill = 1 + (seq % 250) as u8;
            assert!(f.payload[..] == vec![fill; size][..], "frame {seq}");
            if let Some(earlier) = seq.checked_sub(250) {
                assert_eq!(f.payload.as_ptr(), frames[earlier].payload.as_ptr());
            }
        }
        // One pattern per process: another source hands out the same blocks.
        let mut other = FrameSource::new(5);
        for f in &frames[..300] {
            assert_eq!(other.next_frame().payload.as_ptr(), f.payload.as_ptr());
        }
        assert!(format!("{src:?}").len() < 100, "Debug prints no payload");
    }

    #[test]
    fn capture_schedule_spacing_is_40ms() {
        let sched = capture_schedule(SimTime::from_secs(10), 5);
        for w in sched.windows(2) {
            assert_eq!(w[1].saturating_since(w[0]), SimDuration::from_millis(40));
        }
    }

    #[test]
    fn steady_uplink_arrivals_are_ordered_and_lowish_jitter() {
        let model = UplinkModel::for_class(UplinkClass::Steady);
        let mut rng = SmallRng::seed_from_u64(1);
        let captures = capture_schedule(SimTime::ZERO, 2_000);
        let arrivals = model.arrival_times(&captures, DELTA_FRAME_BYTES, &mut rng);
        assert_eq!(arrivals.len(), captures.len());
        for w in arrivals.windows(2) {
            assert!(w[0] < w[1], "arrivals must be strictly increasing");
        }
        for (c, a) in captures.iter().zip(&arrivals) {
            assert!(a > c, "arrival before capture");
        }
        // Typical delay stays sub-100 ms on a steady link.
        let median_delay = {
            let mut d: Vec<f64> = captures
                .iter()
                .zip(&arrivals)
                .map(|(c, a)| a.saturating_since(*c).as_secs_f64())
                .collect();
            d.sort_by(|a, b| a.partial_cmp(b).unwrap());
            d[d.len() / 2]
        };
        assert!(median_delay < 0.1, "median uplink delay {median_delay}");
    }

    #[test]
    fn bursty_uplink_stalls_then_bursts() {
        let model = UplinkModel::for_class(UplinkClass::Bursty);
        let mut rng = SmallRng::seed_from_u64(7);
        // 2 minutes of frames: expect a few stalls.
        let captures = capture_schedule(SimTime::ZERO, 3_000);
        let arrivals = model.arrival_times(&captures, DELTA_FRAME_BYTES, &mut rng);
        let max_delay = captures
            .iter()
            .zip(&arrivals)
            .map(|(c, a)| a.saturating_since(*c).as_secs_f64())
            .fold(0.0, f64::max);
        assert!(max_delay > 1.0, "no burst formed (max delay {max_delay})");
        // During a burst drain, consecutive arrivals are nearly
        // back-to-back even though captures are 40 ms apart.
        let min_gap = arrivals
            .windows(2)
            .map(|w| w[1].saturating_since(w[0]).as_secs_f64())
            .fold(f64::MAX, f64::min);
        assert!(
            min_gap < 0.01,
            "no burst drain observed (min gap {min_gap})"
        );
    }

    #[test]
    fn class_mix_is_about_ten_percent_bursty() {
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 20_000;
        let bursty = (0..n)
            .filter(|_| UplinkModel::sample_class(&mut rng) == UplinkClass::Bursty)
            .count();
        let frac = bursty as f64 / n as f64;
        assert!((frac - 0.10).abs() < 0.01, "bursty fraction {frac}");
    }

    #[test]
    fn empty_capture_list_yields_empty_arrivals() {
        let model = UplinkModel::for_class(UplinkClass::Steady);
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(model.arrival_times(&[], 100, &mut rng).is_empty());
    }
}
