//! # livescope-sim — deterministic discrete-event simulation kernel
//!
//! Every experiment in the `livescope` workspace runs on this kernel. The
//! design goals mirror the measurement methodology of the IMC'16 paper this
//! workspace reproduces:
//!
//! * **Determinism.** A run is a pure function of `(initial state, seed)`.
//!   The event queue breaks timestamp ties by insertion sequence, and all
//!   randomness is drawn from named [`rng::RngPool`] streams forked from a
//!   single root seed, so adding a component never perturbs the draws seen
//!   by another.
//! * **Microsecond resolution.** The paper measures delays from tens of
//!   milliseconds (one video frame is 40 ms) up to tens of seconds, and the
//!   crawler polls every 100 ms; [`time::SimTime`] counts microseconds in a
//!   `u64`, giving ~584k years of range with no floating-point drift.
//! * **Simplicity over cleverness.** Following the smoltcp design ethos,
//!   each shard is a queue of boxed closures — per-epoch buckets sorted
//!   once, plus a binary heap for the current epoch — no macros, no
//!   unsafe.
//!
//! ## Quick tour
//!
//! ```
//! use livescope_sim::{RngPool, SchedulerBackend, ShardId, ShardedScheduler};
//! use livescope_sim::{SimDuration, SimTime};
//!
//! let log: Vec<u64> = Vec::new();
//! let mut sched = ShardedScheduler::new(RngPool::new(1), vec![log], SimDuration::from_secs(1));
//! sched.schedule(
//!     ShardId(0),
//!     SimTime::ZERO,
//!     Box::new(|ctx, _| {
//!         ctx.schedule_in(
//!             SimDuration::from_millis(40),
//!             Box::new(|ctx, log| log.push(ctx.now().as_micros())),
//!         );
//!     }),
//! );
//! sched.run();
//! assert_eq!(sched.into_states(), vec![vec![40_000]]);
//! ```
//!
//! ## One kernel
//!
//! [`ShardedScheduler`] runs every simulation in the tree, each written as
//! [`BackendEvent`]s that see their shard through an [`EventCtx`]: the
//! crawler's coverage model and [`ticker`]s on one shard, the
//! delay-breakdown experiment on one shard, the celebrity fan-out on one
//! shard per POP. It partitions the world into per-datacenter shards with
//! explicit mailboxes and epoch barriers (same seed ⇒ same trace bytes,
//! any lane count); one lane runs inline, more run on scoped worker
//! threads ([`run_parts`]). A one-shard run fires events in plain
//! `(time, seq)` order. See the [`sharded`] module docs for the lane model
//! and merge rules. The closure-style [`Scheduler`] is kept only for the
//! repository benchmark's single-queue rows and as the order oracle in
//! `tests/properties.rs`.
//!
//! [`ticker`]: process::ticker

#![deny(missing_docs)]

pub mod backend;
pub mod dist;
pub mod engine;
pub mod parts;
pub mod process;
mod queue;
pub mod rng;
pub mod sharded;
pub mod time;

pub use backend::{BackendEvent, SchedulerBackend, ShardId};
pub use engine::Scheduler;
pub use parts::run_parts;
pub use rng::RngPool;
pub use sharded::{EventCtx, ShardedScheduler};
pub use time::{SimDuration, SimTime};
