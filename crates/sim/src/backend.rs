//! The event contract of the sharded kernel.
//!
//! Everything that runs on [`ShardedScheduler`] — the delay-breakdown
//! experiment on one shard, the celebrity fan-out on one shard per POP —
//! writes its events against two small traits instead of the concrete
//! scheduler type:
//!
//! * [`SchedulerBackend<S>`] is the *driver* view: schedule seed events,
//!   run, read the shard states back out.
//! * [`EventCtx<S>`] is the *event* view: what a firing event may do —
//!   look at the clock, draw from the shard's RNG pool, schedule
//!   follow-ups on its own shard, send mail to another shard, and emit
//!   trace events.
//!
//! Shard `i` sees the RNG pool `root.child_indexed("shard", i)`, so a
//! shard's draws do not depend on how many other shards exist.
//!
//! The closure-style [`Scheduler`] (one queue, events take
//! `&mut Scheduler`) is a separate, smaller kernel used by the crawler's
//! coverage model and [`Ticker`]; it does not implement these traits.
//! `tests/properties.rs` pins that both kernels fire a one-shard schedule
//! in the same `(time, seq)` order.
//!
//! [`Scheduler`]: crate::Scheduler
//! [`ShardedScheduler`]: crate::ShardedScheduler
//! [`Ticker`]: crate::Ticker

use livescope_telemetry::TraceEvent;

use crate::rng::RngPool;
use crate::time::{SimDuration, SimTime};

/// Identifies one shard (lane) of a sharded backend.
///
/// In the livescope workloads the shard key is a datacenter: each Wowza
/// ingest site or Fastly POP gets its own lane, following the paper's §5.3
/// observation that delay components decompose per datacenter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u16);

impl ShardId {
    /// The shard's position in the backend's state vector.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ShardId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard{}", self.0)
    }
}

/// A scheduled event: fired with the context view and `&mut` access
/// to its shard's state. `Send` so shards can run on worker threads.
pub type BackendEvent<S> = Box<dyn FnOnce(&mut dyn EventCtx<S>, &mut S) + Send>;

/// What a firing event is allowed to do.
///
/// Everything here is shard-local except [`EventCtx::send_to`], which is
/// the *only* way to reach another shard — the scheduler delivers it
/// through a mailbox at the next epoch barrier, never by direct mutation.
pub trait EventCtx<S> {
    /// Current simulated instant on this shard's clock.
    fn now(&self) -> SimTime;

    /// The shard this event is executing on.
    fn shard(&self) -> ShardId;

    /// This shard's deterministic RNG pool
    /// (`root.child_indexed("shard", i)`).
    fn pool(&self) -> RngPool;

    /// Schedules a follow-up on this shard at absolute time `at`
    /// (clamped to `now`).
    fn schedule_at(&mut self, at: SimTime, event: BackendEvent<S>);

    /// Schedules a follow-up on this shard after `delay`.
    fn schedule_in(&mut self, delay: SimDuration, event: BackendEvent<S>) {
        let at = self.now() + delay;
        self.schedule_at(at, event);
    }

    /// Sends an event to `dest`, requesting delivery at `at`.
    ///
    /// Sending to the executing shard is exactly [`EventCtx::schedule_at`].
    /// Sending to another shard goes through the mailbox: delivery is
    /// deferred to `max(at, next epoch barrier)`, so cross-shard causality
    /// never outruns the barrier. Panics if `dest` does not exist.
    fn send_to(&mut self, dest: ShardId, at: SimTime, event: BackendEvent<S>);

    /// Emits a trace event stamped with the shard clock. The event is
    /// buffered per shard and merged into the attached
    /// telemetry sink in `(time, shard_id, seq)` order at the next barrier.
    fn emit(&mut self, event: TraceEvent);

    /// Whether [`EventCtx::emit`] records anything (a telemetry sink is
    /// attached). An event may skip building trace payloads when it is
    /// false; it must not change anything else on that answer.
    fn is_tracing(&self) -> bool;
}

/// Driver-side interface of [`crate::ShardedScheduler`].
pub trait SchedulerBackend<S> {
    /// Number of shards.
    fn shard_count(&self) -> usize;

    /// The backend clock: the maximum time any shard has reached.
    fn now(&self) -> SimTime;

    /// Schedules a seed event on `shard` at absolute time `at`.
    fn schedule(&mut self, shard: ShardId, at: SimTime, event: BackendEvent<S>);

    /// Runs until no events remain. Returns the final instant.
    fn run(&mut self) -> SimTime;

    /// Runs events with firing time `<= horizon`; later events stay
    /// queued. Returns the final instant.
    fn run_until(&mut self, horizon: SimTime) -> SimTime;

    /// Shared access to one shard's state.
    fn state(&self, shard: ShardId) -> &S;

    /// Exclusive access to one shard's state (between runs).
    fn state_mut(&mut self, shard: ShardId) -> &mut S;

    /// Consumes the backend, returning shard states in shard order.
    fn into_states(self) -> Vec<S>
    where
        Self: Sized;

    /// Total events executed across all shards.
    fn events_fired(&self) -> u64;
}
