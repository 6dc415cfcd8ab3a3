//! The event queue and scheduler.
//!
//! A [`Scheduler<S>`] owns simulated time and a priority queue of events.
//! Each event is a boxed `FnOnce(&mut Scheduler<S>, &mut S)`: when it fires
//! it may mutate the shared simulation state `S` and schedule further
//! events. Ties at the same instant fire in insertion order, which is what
//! makes runs reproducible bit-for-bit.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use livescope_telemetry::{CounterId, GaugeId, Telemetry, TraceEvent};

use crate::time::{event_key, event_key_time, SimDuration, SimTime};

/// How often (in fired events) the scheduler samples its queue depth into
/// telemetry. A power of two so the check is a mask.
const QUEUE_SAMPLE_EVERY: u64 = 1024;

type EventFn<S> = Box<dyn FnOnce(&mut Scheduler<S>, &mut S)>;

struct Scheduled<S> {
    /// `(at, seq)` packed by [`event_key`].
    key: u128,
    run: EventFn<S>,
}

impl<S> Scheduled<S> {
    fn at(&self) -> SimTime {
        event_key_time(self.key)
    }
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
    telemetry: Telemetry,
    c_fired: CounterId,
    g_queue_depth: GaugeId,
    #[cfg(feature = "profile")]
    h_event_wall_ns: livescope_telemetry::HistogramId,
}

impl<S> Default for Scheduler<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> Scheduler<S> {
    /// A fresh scheduler at time zero with an empty queue.
    ///
    /// Telemetry starts *inert*: the handle is
    /// [`Telemetry::disabled()`](livescope_telemetry::Telemetry::disabled)
    /// and every metric id is its type's `INERT` constant, so counting,
    /// gauge, and histogram calls are no-ops (not panics, not unattached
    /// registrations) until [`Scheduler::set_telemetry`] replaces them.
    /// `Default` is this constructor. The `inert_defaults_are_noops` test
    /// drives a run through the debug-assertion path to pin this down.
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            next_seq: 0,
            queue: BinaryHeap::new(),
            fired: 0,
            telemetry: Telemetry::disabled(),
            c_fired: CounterId::INERT,
            g_queue_depth: GaugeId::INERT,
            #[cfg(feature = "profile")]
            h_event_wall_ns: livescope_telemetry::HistogramId::INERT,
        }
    }

    /// Attaches a telemetry handle. The scheduler counts fired events,
    /// samples queue depth every `QUEUE_SAMPLE_EVERY` (1024) fires, and
    /// (with the `profile` feature) histograms wall-clock ns per event.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.c_fired = telemetry.counter("sim.events_fired");
        self.g_queue_depth = telemetry.gauge("sim.queue_depth");
        #[cfg(feature = "profile")]
        {
            self.h_event_wall_ns = telemetry.histogram("sim.event_wall_ns");
        }
        self.telemetry = telemetry.clone();
    }

    /// Current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_fired(&self) -> u64 {
        self.fired
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
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
        self.run_until(SimTime::MAX, state)
    }

    /// Runs events with firing time `<= horizon`. Events scheduled beyond
    /// the horizon stay queued; the clock stops at the last fired event (or
    /// stays put if nothing fired). Returns the final instant.
    pub fn run_until(&mut self, horizon: SimTime, state: &mut S) -> SimTime {
        while let Some(head) = self.queue.peek() {
            if head.at() > horizon {
                break;
            }
            let ev = self.queue.pop().expect("peeked element vanished");
            debug_assert!(ev.at() >= self.now, "event queue went backwards");
            self.now = ev.at();
            self.fired += 1;
            self.telemetry.add(self.c_fired, 1);
            #[cfg(feature = "profile")]
            let started = std::time::Instant::now();
            (ev.run)(self, state);
            #[cfg(feature = "profile")]
            self.telemetry
                .record(self.h_event_wall_ns, started.elapsed().as_nanos() as u64);
            if self.fired.is_multiple_of(QUEUE_SAMPLE_EVERY) && self.telemetry.is_enabled() {
                let depth = self.queue.len() as u64;
                self.telemetry.set_gauge(self.g_queue_depth, depth as i64);
                self.telemetry.emit(
                    self.now.as_micros(),
                    TraceEvent::QueueDepth {
                        depth,
                        fired: self.fired,
                    },
                );
            }
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
    fn inert_defaults_are_noops() {
        // `Scheduler::new()` (and `Default`) must leave telemetry fully
        // inert: with debug assertions on (as in this test build), every
        // counter add and gauge set — including the queue-depth sample
        // fired past QUEUE_SAMPLE_EVERY — must hit the INERT ids as silent
        // no-ops.
        let mut s: Scheduler<u64> = Scheduler::default();
        for i in 0..(QUEUE_SAMPLE_EVERY + 8) {
            s.schedule_at(SimTime::from_micros(i), |_, n| *n += 1);
        }
        let mut fired = 0u64;
        s.run(&mut fired);
        assert_eq!(fired, QUEUE_SAMPLE_EVERY + 8);
        // Nothing was recorded anywhere: attaching a real registry now
        // starts all scheduler metrics from zero.
        let telemetry = Telemetry::recording(16);
        s.set_telemetry(&telemetry);
        assert_eq!(telemetry.snapshot().counter("sim.events_fired"), Some(0));
        assert_eq!(telemetry.snapshot().gauge("sim.queue_depth"), Some(0));
    }

    #[test]
    fn telemetry_counts_fired_events() {
        let t = Telemetry::recording(64);
        let mut s: Scheduler<()> = Scheduler::new();
        s.set_telemetry(&t);
        s.schedule_at(SimTime::from_secs(1), |_, _| {});
        s.schedule_at(SimTime::from_secs(2), |_, _| {});
        s.run(&mut ());
        assert_eq!(t.snapshot().counter("sim.events_fired"), Some(2));
    }

    #[test]
    fn telemetry_samples_queue_depth() {
        let t = Telemetry::recording(1 << 14);
        let mut s: Scheduler<u64> = Scheduler::new();
        s.set_telemetry(&t);
        for i in 0..(2 * QUEUE_SAMPLE_EVERY + 1) {
            s.schedule_at(SimTime::from_secs(i), |_, n| *n += 1);
        }
        let mut n = 0u64;
        s.run(&mut n);
        let depth_events: Vec<_> = t
            .events()
            .into_iter()
            .filter(|e| matches!(e.event, TraceEvent::QueueDepth { .. }))
            .collect();
        assert_eq!(
            depth_events.len(),
            2,
            "one sample per {QUEUE_SAMPLE_EVERY} fires"
        );
        if let TraceEvent::QueueDepth { fired, .. } = depth_events[0].event {
            assert_eq!(fired, QUEUE_SAMPLE_EVERY);
        }
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut s: Scheduler<Vec<u32>> = Scheduler::new();
        s.schedule_at(SimTime::from_secs(1), |_, log| log.push(1));
        s.schedule_at(SimTime::from_secs(10), |_, log| log.push(10));
        let mut log = Vec::new();
        s.run_until(SimTime::from_secs(5), &mut log);
        assert_eq!(log, vec![1]);
        assert_eq!(s.pending(), 1);
        s.run(&mut log);
        assert_eq!(log, vec![1, 10]);
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
