//! The event contract of the sharded kernel.
//!
//! Every simulation in the tree — the crawler's coverage model and
//! [`ticker`]s on one shard, the delay-breakdown experiment on one shard,
//! the celebrity fan-out on one shard per POP — runs on
//! [`ShardedScheduler`] and writes its events as [`BackendEvent`]s:
//!
//! * [`SchedulerBackend<S>`] is the *driver* view: schedule seed events,
//!   run, read the shard states back out.
//! * [`EventCtx`] is the *event* view: what a firing event may do — look
//!   at the clock, draw from the shard's RNG pool, schedule follow-ups on
//!   its own shard, send mail to another shard, and emit trace events.
//!
//! Shard `i` sees the RNG pool `root.child_indexed("shard", i)`, so a
//! shard's draws do not depend on how many other shards exist.
//!
//! [`ShardedScheduler`]: crate::ShardedScheduler
//! [`ticker`]: crate::process::ticker

use crate::sharded::EventCtx;
use crate::time::SimTime;

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
pub type BackendEvent<S> = Box<dyn FnOnce(&mut EventCtx<'_, S>, &mut S) + Send>;

/// Driver-side interface of [`crate::ShardedScheduler`].
pub trait SchedulerBackend<S> {
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

    /// Consumes the backend, returning shard states in shard order.
    fn into_states(self) -> Vec<S>
    where
        Self: Sized;

    /// Total events executed across all shards.
    fn events_fired(&self) -> u64;
}
