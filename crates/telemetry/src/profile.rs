//! The workspace-wide `profile` convention: wall-clock section
//! histograms named `handler.<area>.<name>_ns`.
//!
//! Every crate that wants hot-path timing declares a [`Section`] per code
//! region and brackets the region with [`Section::begin`] /
//! [`Section::end`]. With the `profile` feature **off** (the default) a
//! `Section` is a zero-sized no-op — no wall-clock is ever read, so
//! traces stay a pure function of `(config, seed)`. With the feature on,
//! each `end` records the elapsed nanoseconds into a log-bucketed
//! histogram on the attached [`Telemetry`](crate::Telemetry) handle.
//!
//! Downstream crates forward their own `profile` feature to
//! `livescope-telemetry/profile`, so one `--features profile` anywhere
//! lights up every section in the dependency closure under a single
//! naming scheme ([`SECTION_PREFIX`] … [`SECTION_SUFFIX`]); a reader
//! picks the sections out of a
//! [`MetricsSnapshot`](crate::registry::MetricsSnapshot) by that name.

/// Prefix shared by every profile-section histogram.
pub const SECTION_PREFIX: &str = "handler.";

/// Suffix shared by every profile-section histogram.
pub const SECTION_SUFFIX: &str = "_ns";

#[cfg(feature = "profile")]
mod imp {
    use super::{SECTION_PREFIX, SECTION_SUFFIX};
    use crate::registry::HistogramId;
    use crate::Telemetry;

    /// One wall-clock profile section (`handler.<area>.<name>_ns`).
    #[derive(Clone, Debug, Default)]
    pub struct Section {
        telemetry: Telemetry,
        hist: HistogramId,
    }

    /// An in-flight measurement started by [`Section::begin`].
    #[derive(Debug)]
    pub struct SectionStamp {
        t0: std::time::Instant,
    }

    impl Section {
        /// Registers the section histogram on `telemetry`. The name is
        /// interned for the process lifetime (registration-time only).
        pub fn new(telemetry: &Telemetry, area: &str, name: &str) -> Section {
            let full = format!("{SECTION_PREFIX}{area}.{name}{SECTION_SUFFIX}");
            let leaked: &'static str = Box::leak(full.into_boxed_str());
            Section {
                telemetry: telemetry.clone(),
                hist: telemetry.histogram(leaked),
            }
        }

        /// Starts timing the section.
        #[inline]
        pub fn begin(&self) -> SectionStamp {
            SectionStamp {
                t0: std::time::Instant::now(),
            }
        }

        /// Stops timing and records the elapsed nanoseconds.
        #[inline]
        pub fn end(&self, stamp: SectionStamp) {
            let ns = stamp.t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.telemetry.record(self.hist, ns);
        }
    }
}

#[cfg(not(feature = "profile"))]
mod imp {
    use crate::Telemetry;

    /// One wall-clock profile section; inert without the `profile`
    /// feature (zero-sized, no clock reads, no registrations). The
    /// private field keeps the struct non-unit so `Section::default()`
    /// reads the same under both feature configurations.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct Section {
        _inert: (),
    }

    /// An in-flight measurement started by [`Section::begin`]; inert
    /// without the `profile` feature.
    #[derive(Debug)]
    pub struct SectionStamp;

    impl Section {
        /// No-op registration (the `profile` feature is off).
        pub fn new(_telemetry: &Telemetry, _area: &str, _name: &str) -> Section {
            Section::default()
        }

        /// No-op begin.
        #[inline]
        pub fn begin(&self) -> SectionStamp {
            SectionStamp
        }

        /// No-op end.
        #[inline]
        pub fn end(&self, _stamp: SectionStamp) {}
    }
}

pub use imp::{Section, SectionStamp};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    #[test]
    fn section_helper_is_inert_or_recording_but_never_panics() {
        let t = Telemetry::recording(16);
        let sec = Section::new(&t, "test", "noop");
        let stamp = sec.begin();
        sec.end(stamp);
        // With `profile` off this registered nothing; with it on, exactly
        // one sample landed in the section histogram.
        let recorded: u64 = t
            .snapshot()
            .histograms
            .iter()
            .filter(|(name, _)| name.starts_with(SECTION_PREFIX))
            .map(|(_, h)| h.count)
            .sum();
        assert!(recorded <= 1);
        if cfg!(feature = "profile") {
            assert_eq!(recorded, 1);
        }
        // A disabled handle is always safe too.
        let off = Section::new(&Telemetry::disabled(), "test", "off");
        off.end(off.begin());
    }
}
