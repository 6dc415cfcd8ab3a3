//! livescope-telemetry: deterministic observability for the simulated stack.
//!
//! Three instruments, one handle:
//!
//! 1. **Metrics registry** ([`registry`]) — counters and log-bucketed
//!    histograms behind pre-registered `Copy` handles. The hot
//!    path is an array index plus an add: no hashing, no globals, and with
//!    the sink disabled every call is a single branch on a `None`.
//! 2. **Structured event tracing** ([`event`], [`sink`]) — sim-time-stamped
//!    typed events ([`TraceEvent`]) emitted into a bounded in-memory ring,
//!    which [`event::write_jsonl`] renders and [`event::parse_jsonl_lossy`]
//!    reads back. All timestamps are `SimTime` microseconds, never wall
//!    clock, so a trace is bit-reproducible in `(config, seed)`.
//! 3. **One fold** ([`report`]) — [`ObsReport::derive`] is the only reader
//!    of a trace: per-kind counts, the paper's six-component delay
//!    breakdown (Fig 10/11, the [`ledger`] types) so analytic numbers can
//!    be cross-checked against what the state machines actually did,
//!    per-POP distributions, QoE cohorts, chunk-journey waterfalls and
//!    the span audit.
//!
//! The crate is foundation-level: it depends only on `serde_json` (for
//! trace parsing) and `livescope-analysis` (for the delay vocabulary,
//! which itself depends on no livescope crate), so `sim`, `cdn`,
//! `client`, and `crawler` can all depend on it without cycles.

#![deny(missing_docs)]

pub mod event;
pub mod ledger;
pub mod profile;
pub mod registry;
pub mod report;
pub mod sink;
pub mod span;

pub use event::{Protocol, TimedEvent, TraceEvent};
pub use ledger::DelayLedger;
pub use profile::Section;
pub use registry::{CounterId, HistogramId, MetricsSnapshot};
pub use report::ObsReport;
pub use span::{Span, SpanKind};

use registry::Registry;
use shared::{locked, Inner};
use sink::TraceSink;
use std::borrow::Cow;
use std::sync::Arc;

/// A handle's registry and sink behind their locks: the workspace's only
/// use of `Mutex`.
#[expect(
    clippy::disallowed_types,
    reason = "metrics commute, so any worker lane may add to a counter or histogram; the sink is written only by the owner thread"
)]
mod shared {
    use super::{Registry, TraceSink};
    use std::sync::{Arc, Mutex, MutexGuard};
    use std::thread::ThreadId;

    pub(crate) struct Inner {
        pub(crate) registry: Mutex<Registry>,
        pub(crate) sink: Mutex<TraceSink>,
        /// The thread that created the handle: the only one that may emit,
        /// since a trace's order does not commute across threads.
        owner: ThreadId,
    }

    impl Inner {
        pub(crate) fn new(sink: TraceSink) -> Arc<Inner> {
            Arc::new(Inner {
                registry: Mutex::new(Registry::default()),
                sink: Mutex::new(sink),
                owner: std::thread::current().id(),
            })
        }

        /// Panics unless the caller runs on the owner thread.
        #[track_caller]
        pub(crate) fn assert_owner(&self) {
            assert!(
                std::thread::current().id() == self.owner,
                "telemetry trace written off the thread that created the handle: \
                 a scheduler handler traces through EventCtx::emit, whose buffer \
                 the scheduler merges on its own thread"
            );
        }
    }

    /// Unwraps a mutex guard; a poisoned lock means another thread panicked
    /// mid-update, and continuing would record from inconsistent state.
    pub(crate) fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().expect("telemetry lock poisoned")
    }
}

/// Cheap, cloneable telemetry handle. Clones share one registry and sink.
///
/// The default (and [`Telemetry::disabled`]) handle is the `NullSink` mode:
/// it allocates nothing and every record/emit call reduces to one branch.
///
/// The handle is `Send + Sync` (internals are `Arc<Mutex<..>>`) so shard
/// states that carry one can move across the worker threads of
/// `livescope-sim`'s sharded backend, and any thread may add to a counter
/// or record into a histogram: those commute. Trace writes do not, so
/// [`Telemetry::emit`] and [`Telemetry::emit_batch`] panic when called
/// off the thread that created the handle. A scheduler handler traces
/// through `EventCtx::emit` instead: each shard buffers its events and
/// the merge happens single-threaded at epoch barriers. A direct emit
/// from a handler fails whenever the handler runs on a worker lane: at
/// two or more lanes, in any epoch of a world with two or more shards.
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
    /// beyond `capacity`) and metrics into a live registry. To capture a
    /// trace, size `capacity` above the run's event count, check
    /// [`Telemetry::dropped_events`] is 0 and render
    /// [`Telemetry::events`] with [`event::write_jsonl`].
    pub fn recording(capacity: usize) -> Self {
        Telemetry {
            inner: Some(Inner::new(TraceSink::new(capacity))),
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

    /// Records a sample into a log-bucketed histogram.
    #[inline]
    pub fn record(&self, id: HistogramId, value: u64) {
        if let Some(inner) = &self.inner {
            locked(&inner.registry).record(id, value);
        }
    }

    /// Emits a structured event stamped with sim-time microseconds.
    /// Panics off the owner thread.
    #[inline]
    #[track_caller]
    pub fn emit(&self, t_us: u64, event: TraceEvent) {
        if let Some(inner) = &self.inner {
            inner.assert_owner();
            locked(&inner.sink).push(TimedEvent { t_us, event });
        }
    }

    /// Emits a batch of stamped events under a single sink lock.
    ///
    /// Equivalent to calling [`Telemetry::emit`] once per item, in
    /// iteration order, but amortizes the sink mutex over the whole
    /// batch — the fast path for barrier-style producers that buffer
    /// events and flush them in bulk. Panics off the owner thread.
    #[track_caller]
    pub fn emit_batch(&self, events: impl IntoIterator<Item = (u64, TraceEvent)>) {
        if let Some(inner) = &self.inner {
            inner.assert_owner();
            let mut sink = locked(&inner.sink);
            for (t_us, event) in events {
                sink.push(TimedEvent { t_us, event });
            }
        }
    }

    // ---- read-out ------------------------------------------------------

    /// Copies out the buffered events, oldest first (empty when disabled).
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

    fn miss() -> TraceEvent {
        TraceEvent::PollMiss {
            broadcast: 1,
            pop: 8,
        }
    }

    /// Runs `f` on a spawned thread; returns its panic message, if any.
    fn panic_on_other_thread(f: impl FnOnce() + Send) -> Option<String> {
        std::thread::scope(|scope| scope.spawn(f).join())
            .err()
            .map(|payload| {
                payload
                    .downcast_ref::<&str>()
                    .map(|msg| msg.to_string())
                    .unwrap_or_default()
            })
    }

    #[test]
    fn trace_writes_off_the_owner_thread_panic() {
        let t = Telemetry::recording(16);
        let writes: [&(dyn Fn() + Sync); 2] =
            [&|| t.emit(1, miss()), &|| t.emit_batch([(1, miss())])];
        for write in writes {
            let msg = panic_on_other_thread(write).expect("off-owner write must panic");
            assert!(msg.contains("EventCtx::emit"), "{msg}");
        }
        // The owner thread still writes.
        t.emit(2, miss());
        assert_eq!(
            t.events(),
            [TimedEvent {
                t_us: 2,
                event: miss()
            }]
        );
    }

    #[test]
    fn metrics_count_from_any_thread() {
        let t = Telemetry::recording(16);
        let c = t.counter("lanes.count");
        let h = t.histogram("lanes.ns");
        assert_eq!(
            panic_on_other_thread(|| {
                t.add(c, 5);
                t.record(h, 70);
            }),
            None
        );
        let snap = t.snapshot();
        assert_eq!(snap.counter("lanes.count"), Some(5));
        assert_eq!(snap.histograms[0].1.count, 1);
        assert!(t.events().is_empty());
    }

    #[test]
    fn disabled_handle_writes_from_any_thread() {
        let t = Telemetry::disabled();
        assert_eq!(
            panic_on_other_thread(|| {
                t.emit(1, miss());
                t.emit_batch([(2, miss())]);
            }),
            None
        );
        assert!(t.events().is_empty());
    }
}
