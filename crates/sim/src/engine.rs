//! The closure-style single-queue scheduler.
//!
//! Every simulation in the tree runs on [`ShardedScheduler`]; this kernel
//! stays only because the repository benchmark times it
//! (`Scheduler::{new, schedule_at, run}`), and `tests/properties.rs` uses
//! it as the oracle that a one-shard [`ShardedScheduler`] fires in plain
//! `(time, seq)` order.
//!
//! A [`Scheduler<S>`] owns simulated time and a priority queue of events.
//! Each event is a boxed `FnOnce(&mut Scheduler<S>, &mut S)`: when it fires
//! it may mutate the shared simulation state `S` and schedule further
//! events. Ties at the same instant fire in insertion order.
//!
//! [`ShardedScheduler`]: crate::ShardedScheduler

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{event_key, event_key_time, SimDuration, SimTime};

type EventFn<S> = Box<dyn FnOnce(&mut Scheduler<S>, &mut S)>;

struct Scheduled<S> {
    /// `(at, seq)` packed by [`event_key`].
    key: u128,
    run: EventFn<S>,
}

// The heap is a max-heap; invert the ordering to pop the earliest
// (time, seq) first.
impl<S> PartialEq for Scheduled<S> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<S> Eq for Scheduled<S> {}
impl<S> PartialOrd for Scheduled<S> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<S> Ord for Scheduled<S> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// Discrete-event scheduler parameterized over the simulation state type.
///
/// The state lives *outside* the scheduler and is passed into
/// [`Scheduler::run`]; this keeps the borrow checker happy when events need
/// `&mut` access to both the queue (to schedule follow-ups) and the world.
pub struct Scheduler<S> {
    now: SimTime,
    next_seq: u64,
    queue: BinaryHeap<Scheduled<S>>,
    fired: u64,
}

impl<S> Scheduler<S> {
    /// A fresh scheduler at time zero with an empty queue.
    #[allow(clippy::new_without_default)] // every remaining caller names `new`
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            next_seq: 0,
            queue: BinaryHeap::new(),
            fired: 0,
        }
    }

    /// Current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_fired(&self) -> u64 {
        self.fired
    }

    /// Schedules `event` to fire at the absolute instant `at`.
    ///
    /// Scheduling in the past is a logic error; the event is clamped to fire
    /// "now" rather than silently travelling backwards, because a backwards
    /// queue would corrupt every delay measurement downstream.
    pub fn schedule_at<F>(&mut self, at: SimTime, event: F)
    where
        F: FnOnce(&mut Scheduler<S>, &mut S) + 'static,
    {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Scheduled {
            key: event_key(at, seq),
            run: Box::new(event),
        });
    }

    /// Schedules `event` to fire `delay` after the current instant.
    pub fn schedule_in<F>(&mut self, delay: SimDuration, event: F)
    where
        F: FnOnce(&mut Scheduler<S>, &mut S) + 'static,
    {
        self.schedule_at(self.now + delay, event);
    }

    /// Runs events until the queue is empty. Returns the final instant.
    pub fn run(&mut self, state: &mut S) -> SimTime {
        while let Some(ev) = self.queue.pop() {
            let at = event_key_time(ev.key);
            debug_assert!(at >= self.now, "event queue went backwards");
            self.now = at;
            self.fired += 1;
            (ev.run)(self, state);
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut s: Scheduler<Vec<u32>> = Scheduler::new();
        s.schedule_at(SimTime::from_secs(3), |_, log| log.push(3));
        s.schedule_at(SimTime::from_secs(1), |_, log| log.push(1));
        s.schedule_at(SimTime::from_secs(2), |_, log| log.push(2));
        let mut log = Vec::new();
        s.run(&mut log);
        assert_eq!(log, vec![1, 2, 3]);
        assert_eq!(s.events_fired(), 3);
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let mut s: Scheduler<Vec<u32>> = Scheduler::new();
        let t = SimTime::from_secs(5);
        for i in 0..100 {
            s.schedule_at(t, move |_, log| log.push(i));
        }
        let mut log = Vec::new();
        s.run(&mut log);
        assert_eq!(log, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn queue_orders_like_time_then_seq_at_the_edges() {
        // Pop order of the packed key against the `(SimTime, u64)` tuple
        // it replaced, at the end of the clock and of the seq counter.
        let queued = |at: u64, seq: u64| Scheduled::<()> {
            key: event_key(SimTime::from_micros(at), seq),
            run: Box::new(|_, _| {}),
        };
        let edges = [0, 1, u64::MAX - 1, u64::MAX];
        let pairs: Vec<(u64, u64)> = edges
            .iter()
            .flat_map(|&at| edges.map(|seq| (at, seq)))
            .collect();
        for &a in &pairs {
            for &b in &pairs {
                // Max-heap order: the earlier pair is the greater element.
                assert_eq!(
                    queued(a.0, a.1).cmp(&queued(b.0, b.1)),
                    b.cmp(&a),
                    "{a:?} vs {b:?}"
                );
            }
        }
        // A run at the end of the clock with the seq counter near its end:
        // equal times fire in insertion order, and `MAX` is reachable.
        let mut s: Scheduler<Vec<u32>> = Scheduler::new();
        s.next_seq = u64::MAX - 4;
        let before_max = SimTime::from_micros(u64::MAX - 1);
        s.schedule_at(SimTime::MAX, |_, log| log.push(3));
        s.schedule_at(before_max, |_, log| log.push(1));
        s.schedule_at(SimTime::MAX, |_, log| log.push(4));
        s.schedule_at(before_max, |_, log| log.push(2));
        let mut log = Vec::new();
        assert_eq!(s.run(&mut log), SimTime::MAX);
        assert_eq!(log, vec![1, 2, 3, 4]);
    }

    #[test]
    fn events_can_schedule_events() {
        let mut s: Scheduler<Vec<u64>> = Scheduler::new();
        s.schedule_in(SimDuration::from_secs(1), |sched, log| {
            log.push(sched.now().as_micros());
            sched.schedule_in(SimDuration::from_secs(1), |sched, log| {
                log.push(sched.now().as_micros());
            });
        });
        let mut log = Vec::new();
        let end = s.run(&mut log);
        assert_eq!(log, vec![1_000_000, 2_000_000]);
        assert_eq!(end, SimTime::from_secs(2));
    }

    #[test]
    fn scheduling_in_the_past_clamps_to_now() {
        let mut s: Scheduler<Vec<u64>> = Scheduler::new();
        s.schedule_at(SimTime::from_secs(5), |sched, _log| {
            // This "past" event must fire at t=5, not t=1.
            sched.schedule_at(SimTime::from_secs(1), |sched, log| {
                log.push(sched.now().as_micros());
            });
        });
        let mut log = Vec::new();
        s.run(&mut log);
        assert_eq!(log, vec![5_000_000]);
    }
}
