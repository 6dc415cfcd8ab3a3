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
//! * **Simplicity over cleverness.** Following the smoltcp design ethos, the
//!   kernel is a plain binary heap of boxed closures — no macros, no unsafe,
//!   no trait gymnastics.
//!
//! ## Quick tour
//!
//! ```
//! use livescope_sim::{Scheduler, time::SimDuration};
//!
//! let mut sched: Scheduler<Vec<u64>> = Scheduler::new();
//! sched.schedule_in(SimDuration::from_millis(40), |sched, log| {
//!     log.push(sched.now().as_micros());
//! });
//! let mut log = Vec::new();
//! sched.run(&mut log);
//! assert_eq!(log, vec![40_000]);
//! ```
//!
//! ## Two kernels, two jobs
//!
//! [`Scheduler`] is the closure-style single-queue kernel: events take
//! `&mut Scheduler`, and the crawler's coverage model and [`Ticker`] run
//! on it. [`ShardedScheduler`] runs everything written against
//! [`BackendEvent`] — the delay-breakdown experiment and the per-POP
//! fan-out. It partitions the world into per-datacenter shards with explicit
//! mailboxes and epoch barriers under the same determinism contract
//! (same seed ⇒ same trace bytes, any lane count); one lane runs inline,
//! more run on scoped worker threads ([`run_parts`]). A one-shard run
//! fires events in exactly the `(time, seq)` order [`Scheduler`] would.
//! See the [`sharded`] module docs for the lane model and merge rules.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod backend;
pub mod dist;
pub mod engine;
pub mod parts;
pub mod process;
pub mod rng;
pub mod sharded;
pub mod time;

pub use backend::{BackendEvent, EventCtx, SchedulerBackend, ShardId};
pub use engine::Scheduler;
pub use parts::run_parts;
pub use process::Ticker;
pub use rng::RngPool;
pub use sharded::ShardedScheduler;
pub use time::{SimDuration, SimTime};
