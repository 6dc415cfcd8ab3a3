//! The workspace-wide profile convention: wall-clock section histograms
//! named `handler.<area>.<name>_ns`.
//!
//! Every crate that wants hot-path timing declares a [`Section`] per code
//! region and runs the region through [`Section::time`]. Whether a
//! section records is decided by the [`Telemetry`] handle it was built
//! on: on a recording handle each `time` reads the host clock around the
//! closure and records the elapsed nanoseconds; on a disabled handle the
//! section is inert and `time` just calls the closure. A section only
//! ever feeds a histogram, never the event stream, so traces stay a pure
//! function of `(config, seed)` either way. A reader picks the sections
//! out of a [`MetricsSnapshot`](crate::registry::MetricsSnapshot) by
//! [`SECTION_PREFIX`].

use crate::registry::HistogramId;
use crate::Telemetry;

/// Prefix shared by every profile-section histogram.
pub const SECTION_PREFIX: &str = "handler.";

/// One wall-clock profile section (`handler.<area>.<name>_ns`). The
/// default value is inert.
#[derive(Clone, Debug, Default)]
pub struct Section {
    live: Option<(Telemetry, HistogramId)>,
}

impl Section {
    /// Registers the section histogram on a recording `telemetry`; on a
    /// disabled handle returns the inert section without building the name.
    pub fn new(telemetry: &Telemetry, area: &str, name: &str) -> Section {
        if !telemetry.is_enabled() {
            return Section::default();
        }
        let hist = telemetry.histogram(format!("{SECTION_PREFIX}{area}.{name}_ns"));
        Section {
            live: Some((telemetry.clone(), hist)),
        }
    }

    /// Runs `f` and returns its value; a live section also records how
    /// many wall-clock nanoseconds `f` took.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        // One call site for `f`, so a large closure body is not duplicated
        // into an inert and a live copy.
        let start = self
            .live
            .as_ref()
            .map(|live| (live, std::time::Instant::now()));
        let out = f();
        if let Some(((telemetry, hist), t0)) = start {
            let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            telemetry.record(*hist, ns);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn section_counts(t: &Telemetry) -> Vec<(String, u64)> {
        t.snapshot()
            .histograms
            .into_iter()
            .filter(|(name, _)| name.starts_with(SECTION_PREFIX))
            .map(|(name, h)| (name, h.count))
            .collect()
    }

    #[test]
    fn recording_handle_records_one_sample_per_time() {
        let t = Telemetry::recording(16);
        let sec = Section::new(&t, "test", "work");
        assert_eq!(sec.time(|| 7), 7);
        assert_eq!(sec.time(|| "twice"), "twice");
        assert_eq!(section_counts(&t), vec![("handler.test.work_ns".into(), 2)]);
    }

    #[test]
    fn disabled_handle_registers_nothing_and_runs_the_closure_once() {
        let t = Telemetry::disabled();
        let sec = Section::new(&t, "test", "off");
        let mut calls = 0;
        assert_eq!(
            sec.time(|| {
                calls += 1;
                calls
            }),
            1
        );
        assert_eq!(calls, 1);
        assert!(section_counts(&t).is_empty());
        assert!(sec.live.is_none());
    }
}
