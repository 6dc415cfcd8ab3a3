//! livescope-telemetry: deterministic observability for the simulated stack.
//!
//! Three instruments, one handle:
//!
//! 1. **Metrics registry** ([`registry`]) — counters, gauges, and
//!    log-bucketed histograms behind pre-registered `Copy` handles. The hot
//!    path is an array index plus an add: no hashing, no globals, and with
//!    the sink disabled every call is a single branch on a `None`.
//! 2. **Structured event tracing** ([`event`], [`sink`]) — sim-time-stamped
//!    typed events ([`TraceEvent`]) emitted into a bounded in-memory ring or
//!    a streaming JSONL writer. All timestamps are `SimTime` microseconds,
//!    never wall clock, so a trace is bit-reproducible in `(config, seed)`.
//! 3. **One fold** ([`report`]) — [`ObsReport::derive`] is the only reader
//!    of a trace: per-kind counts, the paper's six-component delay
//!    breakdown (Fig 10/11, the [`ledger`] types) so analytic numbers can
//!    be cross-checked against what the state machines actually did,
//!    per-POP distributions, QoE cohorts, chunk-journey waterfalls and
//!    the span audit.
//!
//! The crate is foundation-level: it depends only on `serde_json` (for
//! trace parsing), so `sim`, `cdn`, `client`, and `crawler` can all
//! depend on it without cycles.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod event;
pub mod ledger;
pub mod profile;
pub mod registry;
pub mod report;
pub mod sink;
pub mod span;

pub use event::{Protocol, TimedEvent, TraceEvent};
pub use ledger::{DelayLedger, DelayStage, StageDelays};
pub use profile::Section;
pub use registry::{CounterId, GaugeId, HistogramId, MetricsSnapshot};
pub use report::ObsReport;
pub use span::{Span, SpanKind};

use registry::Registry;
use sink::TraceSink;
use std::borrow::Cow;
use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard};

struct Inner {
    registry: Mutex<Registry>,
    sink: Mutex<TraceSink>,
}

/// Unwraps a mutex guard; a poisoned lock means another thread panicked
/// mid-update, and continuing would record from inconsistent state.
fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("telemetry lock poisoned")
}

/// Cheap, cloneable telemetry handle. Clones share one registry and sink.
///
/// The default (and [`Telemetry::disabled`]) handle is the `NullSink` mode:
/// it allocates nothing and every record/emit call reduces to one branch.
///
/// The handle is `Send + Sync` (internals are `Arc<Mutex<..>>`) so shard
/// states that carry one can move across the worker threads of
/// `livescope-sim`'s sharded backend. Determinism is unaffected: each shard
/// buffers its trace locally and the merge happens single-threaded at epoch
/// barriers.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// The null handle: nothing is recorded, nothing is allocated.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Records events into a bounded in-memory buffer (oldest dropped
    /// beyond `capacity`) and metrics into a live registry.
    pub fn recording(capacity: usize) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                registry: Mutex::new(Registry::default()),
                sink: Mutex::new(TraceSink::memory(capacity)),
            })),
        }
    }

    /// Streams events as JSONL to `out` (one event object per line) and
    /// keeps metrics in a live registry.
    ///
    /// The writer must be `Send` because the handle itself is — use
    /// [`SharedBuffer`] to capture a trace in memory, or a `File`/`Vec<u8>`
    /// wrapper for disk capture.
    pub fn to_jsonl(out: Box<dyn Write + Send>) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                registry: Mutex::new(Registry::default()),
                sink: Mutex::new(TraceSink::jsonl(out)),
            })),
        }
    }

    /// Whether this handle records anything at all.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    // ---- registration (setup path; hashing/lookup allowed here) --------

    /// Registers (or re-finds) a counter. On a disabled handle the
    /// returned id is inert. The name may be a `&'static str` or a built
    /// `String`; the registry owns it, so re-registering frees the copy.
    pub fn counter(&self, name: impl Into<Cow<'static, str>>) -> CounterId {
        match &self.inner {
            Some(inner) => locked(&inner.registry).counter(name.into()),
            None => CounterId::INERT,
        }
    }

    /// Registers (or re-finds) a gauge.
    pub fn gauge(&self, name: impl Into<Cow<'static, str>>) -> GaugeId {
        match &self.inner {
            Some(inner) => locked(&inner.registry).gauge(name.into()),
            None => GaugeId::INERT,
        }
    }

    /// Registers (or re-finds) a log-bucketed histogram.
    pub fn histogram(&self, name: impl Into<Cow<'static, str>>) -> HistogramId {
        match &self.inner {
            Some(inner) => locked(&inner.registry).histogram(name.into()),
            None => HistogramId::INERT,
        }
    }

    // ---- hot path ------------------------------------------------------

    /// Adds to a counter. Array index + add; a branch when disabled.
    #[inline]
    pub fn add(&self, id: CounterId, n: u64) {
        if let Some(inner) = &self.inner {
            locked(&inner.registry).add(id, n);
        }
    }

    /// Sets a gauge to an absolute value.
    #[inline]
    pub fn set_gauge(&self, id: GaugeId, value: i64) {
        if let Some(inner) = &self.inner {
            locked(&inner.registry).set_gauge(id, value);
        }
    }

    /// Records a sample into a log-bucketed histogram.
    #[inline]
    pub fn record(&self, id: HistogramId, value: u64) {
        if let Some(inner) = &self.inner {
            locked(&inner.registry).record(id, value);
        }
    }

    /// Emits a structured event stamped with sim-time microseconds.
    #[inline]
    pub fn emit(&self, t_us: u64, event: TraceEvent) {
        if let Some(inner) = &self.inner {
            locked(&inner.sink).push(TimedEvent { t_us, event });
        }
    }

    /// Emits a batch of stamped events under a single sink lock.
    ///
    /// Equivalent to calling [`Telemetry::emit`] once per item, in
    /// iteration order, but amortizes the sink mutex over the whole
    /// batch — the fast path for barrier-style producers that buffer
    /// events and flush them in bulk.
    pub fn emit_batch(&self, events: impl IntoIterator<Item = (u64, TraceEvent)>) {
        if let Some(inner) = &self.inner {
            let mut sink = locked(&inner.sink);
            for (t_us, event) in events {
                sink.push(TimedEvent { t_us, event });
            }
        }
    }

    // ---- read-out ------------------------------------------------------

    /// Copies out the buffered events (memory sink only; empty otherwise).
    pub fn events(&self) -> Vec<TimedEvent> {
        match &self.inner {
            Some(inner) => locked(&inner.sink).buffered(),
            None => Vec::new(),
        }
    }

    /// How many events the bounded buffer discarded.
    pub fn dropped_events(&self) -> u64 {
        match &self.inner {
            Some(inner) => locked(&inner.sink).dropped(),
            None => 0,
        }
    }

    /// Point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(inner) => locked(&inner.registry).snapshot(),
            None => MetricsSnapshot::default(),
        }
    }

    /// Flushes a streaming sink (no-op for memory/disabled).
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            locked(&inner.sink).flush();
        }
    }
}

/// A `Write` target whose bytes stay readable after the telemetry handle
/// is done with it — the standard way to capture a JSONL trace in memory.
#[derive(Clone, Default)]
pub struct SharedBuffer(Arc<Mutex<Vec<u8>>>);

impl SharedBuffer {
    /// An empty shared buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies out everything written so far.
    pub fn contents(&self) -> Vec<u8> {
        locked(&self.0).clone()
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        locked(&self.0).extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        let c = t.counter("x");
        t.add(c, 5);
        t.emit(
            1,
            TraceEvent::PollMiss {
                broadcast: 1,
                pop: 8,
            },
        );
        assert!(!t.is_enabled());
        assert!(t.events().is_empty());
        assert_eq!(t.snapshot().counters.len(), 0);
    }

    #[test]
    fn clones_share_state() {
        let t = Telemetry::recording(16);
        let c = t.counter("shared.count");
        let t2 = t.clone();
        t2.add(c, 3);
        t.add(c, 4);
        assert_eq!(t.snapshot().counter("shared.count"), Some(7));
        t2.emit(
            9,
            TraceEvent::PollMiss {
                broadcast: 1,
                pop: 8,
            },
        );
        assert_eq!(t.events().len(), 1);
        assert_eq!(t.events()[0].t_us, 9);
    }

    #[test]
    fn built_names_dedupe_like_static_ones() {
        let t = Telemetry::recording(16);
        let a = t.histogram(format!("shard.{}.depth", 3));
        let b = t.histogram(format!("shard.{}.depth", 3));
        assert_eq!(a, b);
        assert_eq!(
            t.counter("static.count"),
            t.counter(String::from("static.count"))
        );
        let snap = t.snapshot();
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.counters.len(), 1);
    }

    #[test]
    fn bounded_buffer_drops_oldest() {
        let t = Telemetry::recording(2);
        for i in 0..5u64 {
            t.emit(
                i,
                TraceEvent::PollMiss {
                    broadcast: i,
                    pop: 0,
                },
            );
        }
        let events = t.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].t_us, 3);
        assert_eq!(events[1].t_us, 4);
        assert_eq!(t.dropped_events(), 3);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let buf = SharedBuffer::new();
        let t = Telemetry::to_jsonl(Box::new(buf.clone()));
        t.emit(
            1,
            TraceEvent::PollMiss {
                broadcast: 7,
                pop: 8,
            },
        );
        t.emit(
            2,
            TraceEvent::PollHit {
                broadcast: 7,
                pop: 8,
                entries: 3,
            },
        );
        t.flush();
        let text = String::from_utf8(buf.contents()).unwrap();
        assert_eq!(text.lines().count(), 2);
        let parsed = event::parse_jsonl(&text).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[1].t_us, 2);
    }
}
