//! Periodic-process helper.
//!
//! Many livescope actors are periodic: the broadcaster emits a frame every
//! 40 ms, an HLS viewer polls every 2.8 s, the crawler refreshes the global
//! list every 5 s. [`ticker`] packages the recurring-event idiom so each
//! actor is written as a plain `FnMut` that can stop itself.

use crate::backend::BackendEvent;
use crate::sharded::EventCtx;
use crate::time::SimDuration;

/// What a periodic callback wants to happen next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tick {
    /// Fire again after the ticker's configured period.
    Again,
    /// Fire again after a custom delay (lets a poller re-arm with jittered
    /// or back-off intervals).
    AgainAfter(SimDuration),
    /// Stop; the callback is dropped.
    Stop,
}

/// A recurring event: fires `callback` every `period` until it returns
/// [`Tick::Stop`] or the run ends.
///
/// The first invocation happens wherever the returned event is scheduled
/// — `sched.schedule(shard, start, …)` from a driver,
/// `ctx.schedule_at(start, …)` from a handler — then every `period`, or
/// whatever [`Tick::AgainAfter`] requested, on the same shard.
///
/// # Panics
/// Panics if `period` is zero: a zero-period ticker would livelock the
/// event loop at a single instant.
pub fn ticker<S, F>(period: SimDuration, callback: F) -> BackendEvent<S>
where
    S: 'static,
    F: FnMut(&mut EventCtx<'_, S>, &mut S) -> Tick + Send + 'static,
{
    assert!(
        !period.is_zero(),
        "ticker: zero period would never advance time"
    );
    tick_event(period, callback)
}

fn tick_event<S, F>(period: SimDuration, mut callback: F) -> BackendEvent<S>
where
    S: 'static,
    F: FnMut(&mut EventCtx<'_, S>, &mut S) -> Tick + Send + 'static,
{
    Box::new(move |ctx, state| {
        let delay = match callback(ctx, state) {
            Tick::Again => period,
            // A zero re-arm delay is clamped to one microsecond for the
            // same livelock reason as the constructor assert.
            Tick::AgainAfter(delay) => delay.max(SimDuration::from_micros(1)),
            Tick::Stop => return,
        };
        let next = ctx.now() + delay;
        ctx.schedule_at(next, tick_event(period, callback));
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{SchedulerBackend, ShardId};
    use crate::rng::RngPool;
    use crate::sharded::ShardedScheduler;
    use crate::time::SimTime;

    /// Runs `event` from `start` on a one-shard scheduler over `state`.
    fn run_one<S: Send + 'static>(
        state: S,
        start: SimTime,
        event: BackendEvent<S>,
    ) -> (S, SimTime) {
        let mut s = ShardedScheduler::new(RngPool::new(1), vec![state], SimDuration::from_secs(1));
        s.schedule(ShardId(0), start, event);
        let end = s.run();
        (s.into_states().pop().expect("one shard"), end)
    }

    #[test]
    fn ticker_fires_periodically_until_stopped() {
        let tick = ticker(SimDuration::from_secs(2), |ctx, log: &mut Vec<u64>| {
            log.push(ctx.now().as_micros());
            if log.len() == 3 {
                Tick::Stop
            } else {
                Tick::Again
            }
        });
        let (log, _) = run_one(Vec::new(), SimTime::from_secs(1), tick);
        assert_eq!(log, vec![1_000_000, 3_000_000, 5_000_000]);
    }

    #[test]
    fn ticker_supports_custom_rearm() {
        let tick = ticker(SimDuration::from_secs(10), |ctx, log: &mut Vec<u64>| {
            log.push(ctx.now().as_micros());
            if log.len() >= 3 {
                Tick::Stop
            } else {
                Tick::AgainAfter(SimDuration::from_millis(100))
            }
        });
        let (log, _) = run_one(Vec::new(), SimTime::ZERO, tick);
        assert_eq!(log, vec![0, 100_000, 200_000]);
    }

    #[test]
    #[should_panic(expected = "zero period")]
    fn zero_period_panics() {
        let _ = ticker(SimDuration::ZERO, |_, _: &mut ()| Tick::Again);
    }

    #[test]
    fn zero_rearm_still_advances_time() {
        let tick = ticker(SimDuration::from_secs(1), |_, count: &mut u32| {
            *count += 1;
            if *count >= 5 {
                Tick::Stop
            } else {
                Tick::AgainAfter(SimDuration::ZERO)
            }
        });
        let (count, end) = run_one(0, SimTime::ZERO, tick);
        assert_eq!(count, 5);
        assert!(end > SimTime::ZERO, "clock must advance");
    }
}
