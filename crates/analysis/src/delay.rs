//! The end-to-end delay ledger of Figs 10–11.
//!
//! The paper decomposes delivery delay into six components. RTMP paths use
//! three of them (upload, last-mile, client-buffering); HLS paths use all
//! six. Delays are plain `f64` seconds here; the simulation converts from
//! its integer microsecond clock at the boundary.

use std::fmt;

/// One of the six delay components of Fig 10.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DelayComponent {
    /// Broadcaster device → Wowza.
    Upload,
    /// Waiting for a chunk to fill (HLS only; equals chunk duration).
    Chunking,
    /// Fresh chunk ready on Wowza → available on Fastly (HLS only).
    Wowza2Fastly,
    /// Chunk available on Fastly → viewer's poll discovers it (HLS only).
    Polling,
    /// Server → viewer device transfer.
    LastMile,
    /// Arrival on device → playout.
    Buffering,
}

impl DelayComponent {
    /// All components, upstream to downstream.
    pub fn all() -> [DelayComponent; 6] {
        [
            DelayComponent::Upload,
            DelayComponent::Chunking,
            DelayComponent::Wowza2Fastly,
            DelayComponent::Polling,
            DelayComponent::LastMile,
            DelayComponent::Buffering,
        ]
    }

    /// Lowercase machine key (`last-mile`, …), as used by the
    /// observability report's JSON members and table columns.
    pub fn key(self) -> &'static str {
        match self {
            DelayComponent::Upload => "upload",
            DelayComponent::Chunking => "chunking",
            DelayComponent::Wowza2Fastly => "wowza2fastly",
            DelayComponent::Polling => "polling",
            DelayComponent::LastMile => "last-mile",
            DelayComponent::Buffering => "buffering",
        }
    }

    /// Figure label.
    pub fn label(&self) -> &'static str {
        match self {
            DelayComponent::Upload => "Upload",
            DelayComponent::Chunking => "Chunking",
            DelayComponent::Wowza2Fastly => "Wowza2Fastly",
            DelayComponent::Polling => "Polling",
            DelayComponent::LastMile => "Last Mile",
            DelayComponent::Buffering => "Buffering",
        }
    }
}

impl fmt::Display for DelayComponent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A six-slot delay breakdown in seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DelayBreakdown {
    /// Broadcaster upload leg (RTMP ingest).
    pub upload_s: f64,
    /// Transcode/chunking dwell at the media server.
    pub chunking_s: f64,
    /// Wowza-to-Fastly origin fetch leg.
    pub wowza2fastly_s: f64,
    /// CDN edge polling wait.
    pub polling_s: f64,
    /// Edge-to-viewer last-mile leg.
    pub last_mile_s: f64,
    /// Client playout buffering.
    pub buffering_s: f64,
}

impl DelayBreakdown {
    /// All-zero breakdown.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Reads a component.
    pub fn get(&self, c: DelayComponent) -> f64 {
        match c {
            DelayComponent::Upload => self.upload_s,
            DelayComponent::Chunking => self.chunking_s,
            DelayComponent::Wowza2Fastly => self.wowza2fastly_s,
            DelayComponent::Polling => self.polling_s,
            DelayComponent::LastMile => self.last_mile_s,
            DelayComponent::Buffering => self.buffering_s,
        }
    }

    /// Writes a component.
    pub fn set(&mut self, c: DelayComponent, seconds: f64) {
        let slot = match c {
            DelayComponent::Upload => &mut self.upload_s,
            DelayComponent::Chunking => &mut self.chunking_s,
            DelayComponent::Wowza2Fastly => &mut self.wowza2fastly_s,
            DelayComponent::Polling => &mut self.polling_s,
            DelayComponent::LastMile => &mut self.last_mile_s,
            DelayComponent::Buffering => &mut self.buffering_s,
        };
        *slot = seconds;
    }

    /// Adds to a component.
    pub fn add(&mut self, c: DelayComponent, seconds: f64) {
        self.set(c, self.get(c) + seconds);
    }

    /// End-to-end total.
    pub fn total_s(&self) -> f64 {
        DelayComponent::all().iter().map(|&c| self.get(c)).sum()
    }

    /// Component-wise average of many breakdowns (the controlled
    /// experiment "repeated 10 times and averaged", §4.3).
    pub fn average(breakdowns: &[DelayBreakdown]) -> DelayBreakdown {
        let mut avg = DelayBreakdown::zero();
        if breakdowns.is_empty() {
            return avg;
        }
        for b in breakdowns {
            for c in DelayComponent::all() {
                avg.add(c, b.get(c));
            }
        }
        for c in DelayComponent::all() {
            avg.set(c, avg.get(c) / breakdowns.len() as f64);
        }
        avg
    }

    /// Renders an ASCII stacked-bar summary line, e.g. for Fig 11.
    pub fn render_row(&self, name: &str) -> String {
        let mut parts: Vec<String> = Vec::new();
        for c in DelayComponent::all() {
            let v = self.get(c);
            if v > 0.0005 {
                parts.push(format!("{}={:.2}s", c.label(), v));
            }
        }
        format!(
            "{:<6} total={:>6.2}s  [{}]",
            name,
            self.total_s(),
            parts.join(" ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hls_like() -> DelayBreakdown {
        DelayBreakdown {
            upload_s: 0.2,
            chunking_s: 3.0,
            wowza2fastly_s: 0.3,
            polling_s: 1.2,
            last_mile_s: 0.1,
            buffering_s: 6.9,
        }
    }

    #[test]
    fn total_sums_components() {
        assert!((hls_like().total_s() - 11.7).abs() < 1e-12);
        assert_eq!(DelayBreakdown::zero().total_s(), 0.0);
    }

    #[test]
    fn get_set_add_roundtrip_all_components() {
        let mut b = DelayBreakdown::zero();
        for (i, c) in DelayComponent::all().into_iter().enumerate() {
            b.set(c, i as f64);
            assert_eq!(b.get(c), i as f64);
            b.add(c, 1.0);
            assert_eq!(b.get(c), i as f64 + 1.0);
        }
    }

    #[test]
    fn average_is_componentwise() {
        let a = hls_like();
        let mut b = hls_like();
        b.upload_s = 0.4;
        let avg = DelayBreakdown::average(&[a, b]);
        assert!((avg.upload_s - 0.3).abs() < 1e-12);
        assert!((avg.chunking_s - 3.0).abs() < 1e-12);
        assert_eq!(DelayBreakdown::average(&[]), DelayBreakdown::zero());
    }

    #[test]
    fn render_row_omits_zero_components() {
        let rtmp = DelayBreakdown {
            upload_s: 0.2,
            last_mile_s: 0.2,
            buffering_s: 1.0,
            ..DelayBreakdown::zero()
        };
        let row = rtmp.render_row("RTMP");
        assert!(row.contains("Upload"));
        assert!(row.contains("Buffering"));
        assert!(!row.contains("Chunking"));
        assert!(row.contains("1.40s"));
    }

    #[test]
    fn component_keys_are_lowercase_and_in_pipeline_order() {
        let keys: Vec<_> = DelayComponent::all().iter().map(|c| c.key()).collect();
        assert_eq!(
            keys,
            [
                "upload",
                "chunking",
                "wowza2fastly",
                "polling",
                "last-mile",
                "buffering"
            ]
        );
        for (i, c) in DelayComponent::all().into_iter().enumerate() {
            assert_eq!(c as usize, i);
        }
    }

    #[test]
    fn component_labels_match_fig11_legend() {
        let labels: Vec<_> = DelayComponent::all().iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            vec![
                "Upload",
                "Chunking",
                "Wowza2Fastly",
                "Polling",
                "Last Mile",
                "Buffering"
            ]
        );
    }
}
