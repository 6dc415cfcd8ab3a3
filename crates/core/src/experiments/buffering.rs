//! Figs 16–17: trace-driven client-buffering simulation and the §6
//! optimization claim.
//!
//! The paper replays 16,013 broadcast traces through the decompiled
//! buffering strategy while sweeping the pre-buffer size `P`:
//!
//! * **RTMP (Fig 16)**: `P ∈ {0, 0.5, 1}` s. Already smooth — bigger
//!   buffers barely reduce stalling but do add delay; ~10% of broadcasts
//!   show >5 s average buffering, caused by bursty uplinks.
//! * **HLS (Fig 17)**: `P ∈ {0, 3, 6, 9}` s. Polling variance demands
//!   6–9 s of pre-buffer for smooth playback; the paper's headline: the
//!   production `P=9 s` is conservative — **`P=6 s` stalls about the same
//!   while cutting buffering delay by ≈3 s (half)**.

use rand::rngs::SmallRng;
use rand::Rng;

use livescope_analysis::{Cdf, Figure, Series};
use livescope_client::broadcaster::{capture_schedule, UplinkClass, UplinkModel};
use livescope_client::playback::{simulate_playback, ArrivedUnit};
use livescope_sim::{dist, run_parts, RngPool, SimDuration, SimTime};

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct BufferingConfig {
    /// Broadcast traces per protocol (paper: 16,013).
    pub broadcasts: usize,
    /// RTMP pre-buffer sizes, seconds.
    pub rtmp_prebuffers_s: Vec<f64>,
    /// HLS pre-buffer sizes, seconds.
    pub hls_prebuffers_s: Vec<f64>,
    /// HLS poll interval, seconds.
    pub poll_interval_s: f64,
    /// Chunk duration, seconds.
    pub chunk_secs: f64,
    /// Duration model (Fig 3 lognormal) with a simulation cap.
    pub duration_mu: f64,
    pub duration_sigma: f64,
    pub max_duration_s: f64,
    pub seed: u64,
}

impl Default for BufferingConfig {
    fn default() -> Self {
        BufferingConfig {
            broadcasts: 16_013,
            rtmp_prebuffers_s: vec![0.0, 0.5, 1.0],
            hls_prebuffers_s: vec![0.0, 3.0, 6.0, 9.0],
            poll_interval_s: 2.8,
            chunk_secs: 3.0,
            duration_mu: 5.05,
            duration_sigma: 1.1,
            max_duration_s: 1_200.0,
            seed: 0xF1616,
        }
    }
}

/// CDFs for one pre-buffer setting.
#[derive(Clone, Debug)]
pub struct PolicyCurves {
    pub prebuffer_s: f64,
    pub stall_ratio: Cdf,
    pub avg_buffering: Cdf,
}

/// The full sweep result.
#[derive(Clone, Debug)]
pub struct BufferingReport {
    pub rtmp: Vec<PolicyCurves>,
    pub hls: Vec<PolicyCurves>,
}

impl BufferingReport {
    fn curves(set: &[PolicyCurves], p: f64) -> Option<&PolicyCurves> {
        set.iter().find(|c| (c.prebuffer_s - p).abs() < 1e-9)
    }

    /// Curves for an RTMP pre-buffer setting.
    pub fn rtmp_at(&self, p: f64) -> Option<&PolicyCurves> {
        Self::curves(&self.rtmp, p)
    }

    /// Curves for an HLS pre-buffer setting.
    pub fn hls_at(&self, p: f64) -> Option<&PolicyCurves> {
        Self::curves(&self.hls, p)
    }

    fn figure(curves: &[PolicyCurves], title: &str, metric: &str, pick_stall: bool) -> Figure {
        let mut fig = Figure::new(title, metric, "CDF of broadcasts");
        for c in curves {
            let cdf = if pick_stall {
                &c.stall_ratio
            } else {
                &c.avg_buffering
            };
            fig.push_series(Series::new(format!("{}s", c.prebuffer_s), cdf.series(120)));
        }
        fig
    }

    /// Fig 16(a).
    pub fn fig16_stall(&self) -> Figure {
        Self::figure(
            &self.rtmp,
            "Fig 16(a) — RTMP stalling ratio",
            "stalling ratio",
            true,
        )
    }

    /// Fig 16(b).
    pub fn fig16_buffering(&self) -> Figure {
        Self::figure(
            &self.rtmp,
            "Fig 16(b) — RTMP buffering delay",
            "buffering delay (s)",
            false,
        )
    }

    /// Fig 17(a).
    pub fn fig17_stall(&self) -> Figure {
        Self::figure(
            &self.hls,
            "Fig 17(a) — HLS stalling ratio",
            "stalling ratio",
            true,
        )
    }

    /// Fig 17(b).
    pub fn fig17_buffering(&self) -> Figure {
        Self::figure(
            &self.hls,
            "Fig 17(b) — HLS buffering delay",
            "buffering delay (s)",
            false,
        )
    }
}

/// Samples a broadcast duration in seconds.
fn sample_duration(rng: &mut SmallRng, config: &BufferingConfig) -> f64 {
    dist::log_normal(rng, config.duration_mu, config.duration_sigma)
        .clamp(30.0, config.max_duration_s)
}

/// Builds one RTMP frame-arrival trace (at the viewer device).
pub fn rtmp_trace(rng: &mut SmallRng, config: &BufferingConfig) -> Vec<ArrivedUnit> {
    let duration = sample_duration(rng, config);
    let frames = (duration * 25.0) as usize;
    let class = UplinkModel::sample_class(rng);
    let uplink = UplinkModel::for_class(class);
    let captures = capture_schedule(SimTime::ZERO, frames);
    let server_arrivals = uplink.arrival_times(
        &captures,
        livescope_client::broadcaster::DELTA_FRAME_BYTES,
        rng,
    );
    captures
        .iter()
        .zip(server_arrivals)
        .map(|(capture, at_server)| {
            // Server → viewer: WAN base plus light last-mile jitter.
            let last_mile = 0.03 + dist::exponential(rng, 0.008);
            ArrivedUnit {
                media_ts_us: capture.as_micros(),
                duration_us: 40_000,
                arrival: at_server + SimDuration::from_secs_f64(last_mile),
            }
        })
        .collect()
}

/// Builds one HLS chunk-arrival trace (at the viewer device), modelling
/// ready-time irregularity (uplink stalls), the viewer-triggered fetch,
/// the polling loop, and the last-mile transfer.
pub fn hls_trace(rng: &mut SmallRng, config: &BufferingConfig) -> Vec<ArrivedUnit> {
    let duration = sample_duration(rng, config);
    let chunks = ((duration / config.chunk_secs) as usize).max(2);
    let class = UplinkModel::sample_class(rng);
    let (stall_prob, stall_mean) = match class {
        UplinkClass::Steady => (0.015, 1.0),
        UplinkClass::Bursty => (0.09, 2.5),
    };
    let interval = config.poll_interval_s;
    let phase: f64 = rng.gen_range(0.0..interval);
    let poll_after = |t: f64| -> f64 {
        let k = ((t - phase) / interval).ceil().max(0.0);
        phase + k * interval
    };
    let mut out = Vec::with_capacity(chunks);
    let mut stall_until = 0.0f64;
    let mut prev_ready = 0.0f64;
    for i in 0..chunks {
        let nominal = config.chunk_secs * (i + 1) as f64;
        if rng.gen_bool(stall_prob) {
            stall_until = stall_until.max(nominal + dist::exponential(rng, stall_mean));
        }
        let jitter = dist::normal(rng, 0.0, 0.12);
        let ready = (nominal + jitter).max(stall_until).max(prev_ready + 0.3);
        prev_ready = ready;
        // The viewer's own poll triggers the origin fetch (single-viewer
        // trace, like the paper's simulation): available = first poll
        // after ready + transfer.
        let w2f = 0.08 + dist::exponential(rng, 0.08);
        let available = poll_after(ready) + w2f;
        let discovered = poll_after(available);
        let last_mile = 0.06 + dist::exponential(rng, 0.04);
        let arrival = discovered + last_mile;
        out.push(ArrivedUnit {
            media_ts_us: (nominal * 1e6) as u64 - (config.chunk_secs * 1e6) as u64,
            duration_us: (config.chunk_secs * 1e6) as u64,
            arrival: SimTime::from_secs_f64(arrival),
        });
    }
    out
}

/// Runs the full sweep.
///
/// Parallelized with [`run_parts`]: each broadcast's trace is generated
/// from an index-forked RNG stream, so the sample *multiset*
/// — and therefore every CDF — is identical regardless of thread count or
/// scheduling. 16,013 traces drop from seconds to well under one on a
/// multicore box.
pub fn run(config: &BufferingConfig) -> BufferingReport {
    let pool = RngPool::new(config.seed);
    let rtmp = sweep_parallel(
        config,
        &pool,
        "rtmp-traces",
        &config.rtmp_prebuffers_s,
        &rtmp_trace,
    );
    let hls = sweep_parallel(
        config,
        &pool,
        "hls-traces",
        &config.hls_prebuffers_s,
        &hls_trace,
    );
    BufferingReport { rtmp, hls }
}

fn sweep_parallel(
    config: &BufferingConfig,
    pool: &RngPool,
    stream_label: &str,
    prebuffers: &[f64],
    trace_fn: &(dyn Fn(&mut SmallRng, &BufferingConfig) -> Vec<ArrivedUnit> + Sync),
) -> Vec<PolicyCurves> {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(1, 8);
    let shards = run_parts((0..workers).collect(), |w| {
        let mut local: Vec<(Vec<f64>, Vec<f64>)> = vec![(Vec::new(), Vec::new()); prebuffers.len()];
        for b in (w..config.broadcasts).step_by(workers) {
            let mut rng = pool.fork_indexed(stream_label, b as u64);
            let trace = trace_fn(&mut rng, config);
            for (slot, &p) in prebuffers.iter().enumerate() {
                let report = simulate_playback(&trace, SimDuration::from_secs_f64(p));
                local[slot].0.push(report.stall_ratio);
                local[slot].1.push(report.avg_buffering_s);
            }
        }
        local
    });
    let mut per_policy: Vec<(Vec<f64>, Vec<f64>)> =
        vec![(Vec::new(), Vec::new()); prebuffers.len()];
    for shard in shards {
        for (slot, (stalls, buffering)) in shard.into_iter().enumerate() {
            per_policy[slot].0.extend(stalls);
            per_policy[slot].1.extend(buffering);
        }
    }
    prebuffers
        .iter()
        .zip(per_policy)
        .map(|(&p, (stalls, buffering))| PolicyCurves {
            prebuffer_s: p,
            stall_ratio: Cdf::from_samples(stalls),
            avg_buffering: Cdf::from_samples(buffering),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> BufferingConfig {
        BufferingConfig {
            broadcasts: 400,
            max_duration_s: 600.0,
            ..BufferingConfig::default()
        }
    }

    #[test]
    fn rtmp_is_already_smooth_and_buffers_add_little() {
        let report = run(&quick());
        let p0 = report.rtmp_at(0.0).unwrap();
        let p1 = report.rtmp_at(1.0).unwrap();
        // Most broadcasts stall barely at all even with no pre-buffer.
        assert!(
            p0.stall_ratio.quantile(0.8) < 0.1,
            "RTMP p80 stall {}",
            p0.stall_ratio.quantile(0.8)
        );
        // Pre-buffering helps a bit and costs ≈P of delay.
        assert!(p1.stall_ratio.median() <= p0.stall_ratio.median() + 1e-9);
        assert!(
            p1.avg_buffering.median() > p0.avg_buffering.median() + 0.5,
            "P=1 should add ~1s delay: {} vs {}",
            p1.avg_buffering.median(),
            p0.avg_buffering.median()
        );
    }

    #[test]
    fn ten_percent_of_rtmp_broadcasts_have_long_buffering() {
        // Fig 16(b): a small portion (~10%) exceed 5 s, caused by bursty
        // uplinks.
        let report = run(&quick());
        let p1 = report.rtmp_at(1.0).unwrap();
        let over_5s = 1.0 - p1.avg_buffering.fraction_at_or_below(5.0);
        assert!(
            (0.02..0.25).contains(&over_5s),
            "long-buffering fraction {over_5s}"
        );
    }

    #[test]
    fn hls_needs_big_buffers_for_smoothness() {
        let report = run(&quick());
        let stall_median = |p: f64| report.hls_at(p).unwrap().stall_ratio.quantile(0.9);
        assert!(
            stall_median(0.0) > stall_median(6.0) + 0.005,
            "P=0 ({}) must stall more than P=6 ({})",
            stall_median(0.0),
            stall_median(6.0)
        );
        assert!(stall_median(3.0) >= stall_median(9.0));
    }

    #[test]
    fn six_seconds_matches_nine_at_half_the_delay() {
        // The §6 headline: P=6 s ≈ P=9 s stalling, ~3 s (≈50%) less
        // buffering delay.
        let report = run(&quick());
        let p6 = report.hls_at(6.0).unwrap();
        let p9 = report.hls_at(9.0).unwrap();
        let stall_gap = p6.stall_ratio.quantile(0.9) - p9.stall_ratio.quantile(0.9);
        assert!(
            stall_gap < 0.02,
            "P=6 stalls materially more than P=9: gap {stall_gap}"
        );
        let delay_saving = p9.avg_buffering.median() - p6.avg_buffering.median();
        assert!(
            (1.5..4.5).contains(&delay_saving),
            "expected ≈3 s saving, got {delay_saving}"
        );
        let relative = delay_saving / p9.avg_buffering.median();
        assert!(
            relative > 0.3,
            "saving should be a big fraction of the delay: {relative}"
        );
    }

    #[test]
    fn traces_have_sane_structure() {
        let config = quick();
        let pool = RngPool::new(1);
        let mut rng = pool.fork("t");
        for _ in 0..20 {
            let rt = rtmp_trace(&mut rng, &config);
            assert!(rt.len() >= 30 * 25);
            for w in rt.windows(2) {
                assert!(w[1].media_ts_us > w[0].media_ts_us);
            }
            let ht = hls_trace(&mut rng, &config);
            assert!(ht.len() >= 2);
            for (i, u) in ht.iter().enumerate() {
                assert_eq!(u.media_ts_us, i as u64 * 3_000_000);
                assert!(u.arrival.as_secs_f64() > u.media_ts_us as f64 / 1e6);
            }
        }
    }

    #[test]
    fn figures_render_with_all_policies() {
        let report = run(&BufferingConfig {
            broadcasts: 60,
            ..quick()
        });
        assert_eq!(report.fig16_stall().series.len(), 3);
        assert_eq!(report.fig17_buffering().series.len(), 4);
        assert!(report.fig17_stall().render_ascii(60, 12).contains("Fig 17"));
    }

    #[test]
    fn determinism() {
        let a = run(&BufferingConfig {
            broadcasts: 50,
            ..quick()
        });
        let b = run(&BufferingConfig {
            broadcasts: 50,
            ..quick()
        });
        assert_eq!(
            a.hls_at(6.0).unwrap().avg_buffering.median(),
            b.hls_at(6.0).unwrap().avg_buffering.median()
        );
    }
}
