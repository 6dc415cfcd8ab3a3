//! Everything the benchmark reads from the host: the clock, the peak
//! resident set, a fixed probe loop that tells a slow host phase from a
//! slow program, and the order statistics the timings are reduced with.

use std::hint::black_box;
use std::time::Instant;

/// The benchmark's only clock read.
pub fn now() -> Instant {
    // detlint::allow(wall-clock) — benchmark harness measures host time; never feeds a simulation
    Instant::now()
}

/// Host nanoseconds since `start`.
pub fn nanos_since(start: Instant) -> u64 {
    now().duration_since(start).as_nanos() as u64
}

/// Host seconds since `start`.
pub fn secs_since(start: Instant) -> f64 {
    nanos_since(start) as f64 / 1e9
}

/// `VmHWM` of this process, in bytes.
pub fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib * 1024
}

/// A fixed ALU + pointer-chase loop (~100 ms on a quiet sizing host),
/// timed before and after the repetitions and never gated: when both the
/// probe and the repetitions read slow, the host was busy.
///
/// The 2 MB table lives as long as the run. Freed in between, it would
/// move glibc's self-adjusting mmap and trim thresholds, and the harness
/// would have set the allocator the workload then runs on.
pub struct HostProbe {
    table: Vec<u32>,
}

impl HostProbe {
    const SLOTS: usize = 1 << 19;
    const STEPS: usize = 1 << 23;

    pub fn new() -> HostProbe {
        // A full-period LCG over the slot indexes (a ≡ 1 mod 4, c odd), so
        // the chase visits every slot before repeating.
        let table = (0..Self::SLOTS)
            .map(|i| ((i * 1_664_525 + 1_013_904_223) & (Self::SLOTS - 1)) as u32)
            .collect();
        HostProbe { table }
    }

    /// Seconds one pass of the loop takes now.
    pub fn seconds(&self) -> f64 {
        let start = now();
        let (mut at, mut acc) = (0usize, 0u64);
        for _ in 0..Self::STEPS {
            at = self.table[at] as usize;
            acc = (acc ^ at as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(17);
        }
        black_box(acc);
        secs_since(start)
    }
}

/// The `q`-quantile of `samples` by the method of Python's
/// `statistics.quantiles` (exclusive): position `q·(n+1)`, interpolated,
/// clamped to the extremes. Sorts `samples`.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    samples.sort_by(f64::total_cmp);
    let pos = q * (samples.len() + 1) as f64 - 1.0;
    let below = pos.floor().clamp(0.0, (samples.len() - 1) as f64) as usize;
    let above = (below + 1).min(samples.len() - 1);
    let frac = (pos - below as f64).clamp(0.0, 1.0);
    samples[below] + (samples[above] - samples[below]) * frac
}
