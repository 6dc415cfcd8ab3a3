//! Multi-lane discrete-event backend with per-datacenter shards.
//!
//! # Lane model
//!
//! A [`ShardedScheduler<S>`] owns a fixed set of shards. Each shard is a
//! complete miniature scheduler: its own `(time, seq)`-ordered event
//! queue (an epoch-grid bucket queue, see below), its own clock, its own
//! deterministic RNG pool (`root.child_indexed("shard", i)`), its own
//! outgoing mailbox, and its own trace buffer. During an *epoch* — a
//! half-open window `[k·e, (k+1)·e)` on the simulated clock — every shard
//! runs its local events independently of every other shard; the only
//! cross-shard channel is the mailbox, and mailboxes are drained
//! exclusively at the *epoch barrier*.
//!
//! # The merge contract
//!
//! At each barrier, single-threaded code:
//!
//! 1. appends every outbox in shard order — each already in send order —
//!    and pushes the mail into the destination queues in that order, never
//!    in map or thread-completion order. A destination fires equal-time
//!    events in push order, so delivery follows
//!    `(delivery time, source shard, source seq)` with no sort;
//! 2. merges per-shard trace buffers into the attached telemetry sink in
//!    `(time, shard_id, seq)` order — a total order because `seq` is
//!    monotone per shard.
//!
//! Step 2 holds only if every trace event goes through
//! [`EventCtx::emit`]. A handler that writes to a telemetry handle
//! directly, whether captured or owned by its shard state, would order
//! the sink by thread timing. `Telemetry::emit` refuses that: it panics
//! off the thread that created the handle, and at two or more lanes every
//! handler runs on a worker thread, a lone due shard's sprint included.
//! So a traced run of a multi-shard world at lanes ≥ 2 is the check; each
//! such world needs one in its tests.
//!
//! Because every observable (event order within a shard, mail delivery
//! order, trace merge order, RNG streams) is derived from simulated time
//! and shard identity alone, the run is a pure function of
//! `(states, seed, epoch)`: the number of worker lanes — and, with more
//! than one, actual thread interleaving — cannot leak into the output.
//! Same seed ⇒ same trace bytes, any lane count.
//!
//! # Worker lanes
//!
//! `lanes` controls how many workers execute shards within an epoch
//! (shards are split into `lanes` contiguous chunks, one worker per
//! chunk). One lane runs every shard inline on the caller's thread in
//! shard order; more lanes get one scoped worker thread each
//! ([`run_parts`]), and a shard sprinting alone gets one of its own.
//! Every lane count produces identical output — the
//! determinism sweep in `tests/sharded_determinism.rs` asserts byte
//! equality across lane counts.
//!
//! # The queue
//!
//! A shard's queue is bucketed on the same epoch grid
//! (the crate-private `queue::EpochQueue`): events for later epochs are
//! appended unsorted to their epoch's bucket, and a bucket is sorted once,
//! by a stable radix sort, when its epoch becomes current. Pushes into the
//! current epoch go to a small `(time, seq)` heap beside it. In the
//! celebrity fan-out — epoch = poll interval — every push lands in a
//! later cell (`edge_fanout` counted no late push), so a push is an
//! append and a pop a cursor step.
//!
//! # Barrier cost
//!
//! The barrier itself is engineered to stay off the profile
//! (`handler.sharded.{lane_exec,mail_merge,trace_merge}_ns` measure it):
//! mail and trace merges reuse persistent scratch buffers instead of
//! allocating per epoch, mail is never sorted (outboxes appended in shard
//! order are already in delivery order), the trace sort is skipped when
//! at most one shard contributed (a single shard's buffer is already in
//! merged order), each epoch's merged trace block is handed to the
//! telemetry handle's ring in one batch and drained in the same step —
//! one sink lock per epoch rather than one per event, nothing held from
//! one barrier to the next, and memory bounded by a single epoch's
//! traffic (sound because epochs partition simulated time, so successive
//! blocks are already globally ordered), and when exactly one shard has
//! events due the scheduler *sprints*: it runs that shard across grid
//! cells without intermediate barriers until it drains or emits
//! cross-shard mail — the only thing a barrier exists to order.

use livescope_telemetry::{CounterId, GaugeId, Section, Telemetry, TraceEvent};

use crate::backend::{BackendEvent, SchedulerBackend, ShardId};
use crate::parts::run_parts;
use crate::queue::EpochQueue;
use crate::rng::RngPool;
use crate::time::{SimDuration, SimTime};

/// A cross-shard message awaiting the next epoch barrier.
struct Mail<S> {
    /// Requested delivery time (clamped to the barrier on delivery).
    at: SimTime,
    dest: u16,
    run: BackendEvent<S>,
}

/// Everything a shard owns besides its state: queue, clock, RNG, mailbox,
/// trace buffer, and counters.
struct LaneCore<S> {
    id: u16,
    shard_count: u16,
    now: SimTime,
    queue: EpochQueue<BackendEvent<S>>,
    pool: RngPool,
    outbox: Vec<Mail<S>>,
    sent: u64,
    tracing: bool,
    trace: Vec<(u64, u64, TraceEvent)>,
    emit_seq: u64,
    fired: u64,
    fired_epoch: u64,
}

impl<S> LaneCore<S> {
    fn push_local(&mut self, at: SimTime, run: BackendEvent<S>) {
        self.queue.push(at.max(self.now), run);
    }
}

struct ShardSlot<S> {
    core: LaneCore<S>,
    state: S,
}

impl<S> ShardSlot<S> {
    /// Fires the shard's next queued event: advances the shard clock to
    /// it, counts it, and runs it against the shard state. The caller has
    /// peeked that an event is due.
    #[inline]
    fn fire_next(&mut self) {
        let (at, run) = self.core.queue.pop().expect("peeked element vanished");
        debug_assert!(at >= self.core.now, "shard clock went backwards");
        self.core.now = at;
        self.core.fired += 1;
        self.core.fired_epoch += 1;
        let mut ctx = EventCtx {
            core: &mut self.core,
        };
        run(&mut ctx, &mut self.state);
    }
}

/// What a firing event is allowed to do: the view of its shard that
/// [`ShardedScheduler`] hands to every [`BackendEvent`].
///
/// Everything here is shard-local except [`EventCtx::send_to`], which is
/// the *only* way to reach another shard — the scheduler delivers it
/// through a mailbox at the next epoch barrier, never by direct mutation.
pub struct EventCtx<'a, S> {
    core: &'a mut LaneCore<S>,
}

impl<S> EventCtx<'_, S> {
    /// Current simulated instant on this shard's clock.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The shard this event is executing on.
    pub fn shard(&self) -> ShardId {
        ShardId(self.core.id)
    }

    /// This shard's deterministic RNG pool
    /// (`root.child_indexed("shard", i)`).
    pub fn pool(&self) -> RngPool {
        self.core.pool
    }

    /// Schedules a follow-up on this shard at absolute time `at`
    /// (clamped to `now`).
    pub fn schedule_at(&mut self, at: SimTime, event: BackendEvent<S>) {
        self.core.push_local(at, event);
    }

    /// Schedules a follow-up on this shard after `delay`.
    pub fn schedule_in(&mut self, delay: SimDuration, event: BackendEvent<S>) {
        let at = self.core.now + delay;
        self.core.push_local(at, event);
    }

    /// Sends an event to `dest`, requesting delivery at `at`.
    ///
    /// Sending to the executing shard is exactly [`EventCtx::schedule_at`].
    /// Sending to another shard goes through the mailbox: delivery is
    /// deferred to `max(at, next epoch barrier)`, so cross-shard causality
    /// never outruns the barrier. Panics if `dest` does not exist.
    pub fn send_to(&mut self, dest: ShardId, at: SimTime, event: BackendEvent<S>) {
        assert!(
            dest.0 < self.core.shard_count,
            "send_to nonexistent {dest} (shard_count {})",
            self.core.shard_count
        );
        if dest.0 == self.core.id {
            // Mail to yourself is an ordinary local event: no barrier
            // clamp, so a one-shard run fires in plain `(time, seq)` order.
            self.core.push_local(at, event);
            return;
        }
        self.core.sent += 1;
        self.core.outbox.push(Mail {
            at: at.max(self.core.now),
            dest: dest.0,
            run: event,
        });
    }

    /// Emits a trace event stamped with the shard clock. The event is
    /// buffered per shard and merged into the attached telemetry sink in
    /// `(time, shard_id, seq)` order at the next barrier.
    pub fn emit(&mut self, event: TraceEvent) {
        if self.core.tracing {
            let seq = self.core.emit_seq;
            self.core.emit_seq += 1;
            self.core
                .trace
                .push((self.core.now.as_micros(), seq, event));
        }
    }

    /// Whether [`EventCtx::emit`] records anything (a telemetry sink is
    /// attached). An event may skip building trace payloads when it is
    /// false; it must not change anything else on that answer.
    pub fn is_tracing(&self) -> bool {
        self.core.tracing
    }
}

/// Runs one shard's local events up to the barrier. The shard clock stops
/// at the last fired event (mail delivered at the barrier is clamped
/// forward on insertion, so a lagging clock is harmless). `inclusive` is
/// true only for the final partial epoch of a `run_until`, whose horizon
/// is inclusive.
fn run_shard<S>(slot: &mut ShardSlot<S>, barrier: SimTime, inclusive: bool) {
    loop {
        let due = matches!(slot.core.queue.peek_time(),
            Some(at) if at < barrier || (inclusive && at == barrier));
        if !due {
            break;
        }
        slot.fire_next();
    }
}

/// Runs one shard alone until it drains by `horizon` or emits cross-shard
/// mail, and returns the barrier to merge at: the horizon, or the one
/// closing the epoch cell of the mail-producing event.
#[inline]
fn sprint<S>(slot: &mut ShardSlot<S>, horizon: SimTime, epoch_us: u64) -> SimTime {
    loop {
        let due = matches!(slot.core.queue.peek_time(), Some(at) if at <= horizon);
        if !due {
            break;
        }
        slot.fire_next();
        if !slot.core.outbox.is_empty() {
            break;
        }
    }
    if slot.core.outbox.is_empty() {
        horizon
    } else {
        let k = slot.core.now.as_micros() / epoch_us;
        SimTime::from_micros((k + 1).saturating_mul(epoch_us)).min(horizon)
    }
}

/// Multi-lane deterministic discrete-event scheduler.
///
/// See the [module docs](self) for the lane model and merge contract. The
/// short version: shards only interact through epoch-barrier mailboxes, and
/// every merge is ordered by `(time, shard_id, seq)` — so the trace is a
/// pure function of `(states, seed, epoch)` regardless of `lanes` or
/// thread scheduling.
///
/// # Example
///
/// Two shards exchanging mail across a barrier:
///
/// ```
/// use livescope_sim::{RngPool, SchedulerBackend, ShardedScheduler, ShardId};
/// use livescope_sim::time::{SimDuration, SimTime};
///
/// let pool = RngPool::new(0xF1611);
/// let mut sched = ShardedScheduler::new(pool, vec![0u64, 0u64], SimDuration::from_secs(1));
/// sched.schedule(
///     ShardId(0),
///     SimTime::ZERO,
///     Box::new(|ctx, count| {
///         *count += 1;
///         // Delivered at the next epoch barrier (t = 1s).
///         ctx.send_to(ShardId(1), ctx.now(), Box::new(|_, count| *count += 10));
///     }),
/// );
/// let end = sched.run();
/// assert_eq!(end, SimTime::from_secs(1));
/// assert_eq!(sched.mail_delivered(), 1);
/// assert_eq!(sched.into_states(), vec![1, 10]);
/// ```
pub struct ShardedScheduler<S> {
    shards: Vec<ShardSlot<S>>,
    lanes: usize,
    epoch: SimDuration,
    now: SimTime,
    mail_delivered: u64,
    telemetry: Telemetry,
    c_fired: CounterId,
    c_mail: CounterId,
    c_epochs: CounterId,
    g_depth: GaugeId,
    shard_counters: Vec<(CounterId, CounterId)>,
    /// Persistent mail-merge scratch: reused across barriers so the
    /// steady state allocates nothing per epoch.
    mail_scratch: Vec<Mail<S>>,
    /// Per-epoch trace-merge scratch: each barrier gathers and sorts its
    /// block here, then hands it to the sink in one batch and drains it
    /// (keeping the capacity), so it is empty between barriers, memory
    /// stays bounded by one epoch's traffic and the sink lock is taken
    /// once per epoch, not per event.
    trace_pending: Vec<(u64, u16, u64, TraceEvent)>,
    /// Wall-clock profile sections (`handler.sharded.*_ns`); live exactly
    /// when the attached telemetry handle records. They time the phases
    /// of each epoch barrier: lane execution, the mailbox drain, and the
    /// trace merge.
    sec_lane_exec: Section,
    sec_mail_merge: Section,
    sec_trace_merge: Section,
}

impl<S: Send + 'static> ShardedScheduler<S> {
    /// Builds one shard per entry of `states`, each with the RNG pool
    /// `pool.child_indexed("shard", i)` and a clock at zero. `epoch` is the
    /// barrier spacing; it must be non-zero because barriers at a fixed
    /// grid are what bound cross-shard mail latency.
    ///
    /// The epoch length is part of the run's configuration: a cross-shard
    /// send is never delivered before the next barrier, so changing `epoch`
    /// legitimately changes mail delivery times (it does *not* change
    /// anything shard-local).
    pub fn new(pool: RngPool, states: Vec<S>, epoch: SimDuration) -> Self {
        assert!(!states.is_empty(), "need at least one shard");
        assert!(epoch > SimDuration::ZERO, "epoch must be non-zero");
        let shard_count = u16::try_from(states.len()).expect("at most 65536 shards");
        let shards = states
            .into_iter()
            .enumerate()
            .map(|(i, state)| ShardSlot {
                core: LaneCore {
                    id: i as u16,
                    shard_count,
                    now: SimTime::ZERO,
                    queue: EpochQueue::new(epoch.as_micros()),
                    pool: pool.child_indexed("shard", i as u64),
                    outbox: Vec::new(),
                    sent: 0,
                    tracing: false,
                    trace: Vec::new(),
                    emit_seq: 0,
                    fired: 0,
                    fired_epoch: 0,
                },
                state,
            })
            .collect();
        ShardedScheduler {
            shards,
            lanes: 1,
            epoch,
            now: SimTime::ZERO,
            mail_delivered: 0,
            telemetry: Telemetry::disabled(),
            c_fired: CounterId::INERT,
            c_mail: CounterId::INERT,
            c_epochs: CounterId::INERT,
            g_depth: GaugeId::INERT,
            shard_counters: Vec::new(),
            mail_scratch: Vec::new(),
            trace_pending: Vec::new(),
            sec_lane_exec: Section::default(),
            sec_mail_merge: Section::default(),
            sec_trace_merge: Section::default(),
        }
    }

    /// Sets the worker-lane count (clamped to ≥ 1). Shards are split into
    /// `lanes` contiguous chunks, one worker per chunk. Purely a
    /// throughput knob: output is identical for any value.
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes.max(1);
        self
    }

    /// Attaches telemetry. Counters are kept merged
    /// (`sim.sharded.events_fired`, `sim.sharded.mail_delivered`,
    /// `sim.sharded.epochs`, gauge `sim.sharded.queue_depth`) *and*
    /// per shard (`sim.shard.<i>.events_fired`, `sim.shard.<i>.mail_out`);
    /// trace events emitted by events via [`EventCtx::emit`] are merged
    /// into the sink at each barrier in `(time, shard_id, seq)` order.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.c_fired = telemetry.counter("sim.sharded.events_fired");
        self.c_mail = telemetry.counter("sim.sharded.mail_delivered");
        self.c_epochs = telemetry.counter("sim.sharded.epochs");
        self.g_depth = telemetry.gauge("sim.sharded.queue_depth");
        self.shard_counters = (0..self.shards.len())
            .map(|i| {
                (
                    telemetry.counter(format!("sim.shard.{i}.events_fired")),
                    telemetry.counter(format!("sim.shard.{i}.mail_out")),
                )
            })
            .collect();
        self.sec_lane_exec = Section::new(telemetry, "sharded", "lane_exec");
        self.sec_mail_merge = Section::new(telemetry, "sharded", "mail_merge");
        self.sec_trace_merge = Section::new(telemetry, "sharded", "trace_merge");
        let enabled = telemetry.is_enabled();
        for slot in &mut self.shards {
            slot.core.tracing = enabled;
        }
        self.telemetry = telemetry.clone();
    }

    /// Cross-shard messages delivered at barriers so far.
    pub fn mail_delivered(&self) -> u64 {
        self.mail_delivered
    }

    /// Events still queued across all shards.
    pub fn pending(&self) -> usize {
        self.shards.iter().map(|s| s.core.queue.len()).sum()
    }

    /// Runs all shards for the epoch ending at `barrier` in contiguous
    /// chunks, one per lane, then performs the single-threaded barrier
    /// merge. Shards cannot observe each other within an epoch, so chunk
    /// boundaries are unobservable.
    fn run_epoch(&mut self, barrier: SimTime, inclusive: bool) {
        let lanes = self.lanes.min(self.shards.len());
        let chunk = self.shards.len().div_ceil(lanes);
        self.sec_lane_exec.time(|| {
            run_parts(self.shards.chunks_mut(chunk).collect(), |bucket| {
                for slot in bucket {
                    run_shard(slot, barrier, inclusive);
                }
            })
        });
        self.barrier_merge(barrier);
    }

    /// The single-threaded barrier step: deliver mail in shard order, then
    /// send order (which fires in `(time, src shard, src seq)` order),
    /// merge traces in `(time, shard, seq)` order, roll up counters.
    fn barrier_merge(&mut self, barrier: SimTime) {
        // --- mail ---------------------------------------------------------
        // The sections borrow only their own fields, so the closures below
        // can borrow the rest of `self`.
        self.sec_mail_merge.time(|| {
            let mut mail = std::mem::take(&mut self.mail_scratch);
            for slot in &mut self.shards {
                mail.append(&mut slot.core.outbox);
            }
            // Shard order, then send order: `(src, src_seq)` order with no
            // sort. A destination fires equal-time events in push order and
            // unequal ones by time, so delivery is in `(max(at, barrier),
            // src, src_seq)` order by construction. Draining a hash map
            // here instead would be exactly the hash-order bug the
            // workspace's ban on `HashMap` exists to prevent.
            self.mail_delivered += mail.len() as u64;
            self.telemetry.add(self.c_mail, mail.len() as u64);
            for m in mail.drain(..) {
                let deliver_at = m.at.max(barrier);
                self.shards[m.dest as usize]
                    .core
                    .push_local(deliver_at, m.run);
            }
            self.mail_scratch = mail;
        });

        // --- traces -------------------------------------------------------
        self.sec_trace_merge.time(|| {
            if self.telemetry.is_enabled() {
                let mut contributors = 0usize;
                for slot in &mut self.shards {
                    if slot.core.trace.is_empty() {
                        continue;
                    }
                    contributors += 1;
                    let id = slot.core.id;
                    self.trace_pending.extend(
                        slot.core
                            .trace
                            .drain(..)
                            .map(|(t, seq, ev)| (t, id, seq, ev)),
                    );
                }
                // One contributor's buffer is already `(time, seq)`-sorted
                // (shard clocks and emit seqs are monotone), which with a
                // single shard id *is* the merge order — only a real merge
                // needs the sort.
                if contributors > 1 {
                    self.trace_pending
                        .sort_unstable_by_key(|(t, shard, seq, _)| (*t, *shard, *seq));
                }
                // Hand the whole epoch block to the sink under one lock and
                // drain it (capacity kept) — memory stays bounded by one
                // epoch's traffic, and no merged event outlives its
                // barrier. Blocks from successive barriers are globally
                // ordered: events run before a barrier carry timestamps no
                // later than any event still queued behind it.
                if !self.trace_pending.is_empty() {
                    self.telemetry
                        .emit_batch(self.trace_pending.drain(..).map(|(t, _, _, ev)| (t, ev)));
                }
            }
        });

        // --- counters -----------------------------------------------------
        self.telemetry.add(self.c_epochs, 1);
        let mut fired_total = 0;
        for (i, slot) in self.shards.iter_mut().enumerate() {
            fired_total += slot.core.fired_epoch;
            if let Some((c_fired, c_mail)) = self.shard_counters.get(i) {
                self.telemetry.add(*c_fired, slot.core.fired_epoch);
                self.telemetry.add(*c_mail, slot.core.sent);
                slot.core.sent = 0;
            }
            slot.core.fired_epoch = 0;
        }
        self.telemetry.add(self.c_fired, fired_total);
        self.telemetry
            .set_gauge(self.g_depth, self.pending() as i64);
    }

    /// Adaptive epoch length: when exactly one shard has events due by
    /// the horizon, barriers have nothing to order — no other shard can
    /// fire, so the only cross-shard channel is this shard's own outbox.
    /// Sprint it across grid cells without intermediate barriers until it
    /// drains (merge once at the horizon) or emits cross-shard mail.
    /// Stopping immediately after the first mail-producing event keeps
    /// delivery byte-identical to the fixed grid: the mail is released at
    /// the barrier closing the *sending event's* epoch cell — exactly
    /// where the non-sprinting scheduler would have released it.
    ///
    /// At two or more lanes the sprint runs on one scoped worker thread,
    /// as every multi-shard epoch does, so a handler that writes to a
    /// telemetry handle directly trips the owner-thread check whether or
    /// not its shard happens to run alone.
    fn run_sprint(&mut self, idx: usize, horizon: SimTime, epoch_us: u64) {
        let on_worker = self.lanes.min(self.shards.len()) >= 2;
        let barrier = self.sec_lane_exec.time(|| {
            let slot = &mut self.shards[idx];
            if on_worker {
                std::thread::scope(|scope| {
                    scope
                        .spawn(|| sprint(slot, horizon, epoch_us))
                        .join()
                        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                })
            } else {
                sprint(slot, horizon, epoch_us)
            }
        });
        self.barrier_merge(barrier);
    }
}

impl<S: Send + 'static> SchedulerBackend<S> for ShardedScheduler<S> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn schedule(&mut self, shard: ShardId, at: SimTime, event: BackendEvent<S>) {
        self.shards[shard.index()].core.push_local(at, event);
    }

    fn run(&mut self) -> SimTime {
        SchedulerBackend::run_until(self, SimTime::MAX)
    }

    fn run_until(&mut self, horizon: SimTime) -> SimTime {
        let epoch_us = self.epoch.as_micros().max(1);
        loop {
            // One scan: the earliest pending event and how many shards
            // have anything due by the horizon.
            let mut next = None::<SimTime>;
            let mut active = 0usize;
            let mut active_idx = 0usize;
            for (i, s) in self.shards.iter().enumerate() {
                if let Some(at) = s.core.queue.peek_time() {
                    if at <= horizon {
                        active += 1;
                        active_idx = i;
                    }
                    next = Some(next.map_or(at, |n: SimTime| n.min(at)));
                }
            }
            let Some(next) = next else { break };
            if next > horizon {
                break;
            }
            if active == 1 {
                // Adaptive epoch: a lone active shard sprints past grid
                // barriers (see `run_sprint` for the identity argument).
                self.run_sprint(active_idx, horizon, epoch_us);
            } else {
                // The barrier closing the epoch that contains `next`. The
                // final (partial) epoch ends exactly at the horizon and is
                // inclusive.
                let k = next.as_micros() / epoch_us;
                let candidate = SimTime::from_micros((k + 1).saturating_mul(epoch_us));
                let (barrier, inclusive) = if candidate >= horizon {
                    (horizon, true)
                } else {
                    (candidate, false)
                };
                self.run_epoch(barrier, inclusive);
            }
            // The backend clock is the max any shard reached: the time of
            // the last fired event — not the barrier, which may lie beyond
            // the final event.
            let reached = self.shards.iter().map(|s| s.core.now).max();
            self.now = self.now.max(reached.unwrap_or(SimTime::ZERO));
        }
        self.now
    }

    fn state(&self, shard: ShardId) -> &S {
        &self.shards[shard.index()].state
    }

    fn into_states(self) -> Vec<S> {
        self.shards.into_iter().map(|slot| slot.state).collect()
    }

    fn events_fired(&self) -> u64 {
        self.shards.iter().map(|s| s.core.fired).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn two_shards(epoch_s: u64) -> ShardedScheduler<Vec<(u64, String)>> {
        ShardedScheduler::new(
            RngPool::new(0xBEEF),
            vec![Vec::new(), Vec::new()],
            SimDuration::from_secs(epoch_s),
        )
    }

    #[test]
    fn local_events_fire_in_time_then_seq_order() {
        let mut s = two_shards(1);
        for (t, tag) in [(3u64, "c"), (1, "a"), (2, "b")] {
            s.schedule(
                ShardId(0),
                SimTime::from_secs(t),
                Box::new(move |ctx, log: &mut Vec<(u64, String)>| {
                    log.push((ctx.now().as_micros(), tag.to_string()));
                }),
            );
        }
        s.run();
        let log = &s.state(ShardId(0));
        let tags: Vec<&str> = log.iter().map(|(_, t)| t.as_str()).collect();
        assert_eq!(tags, vec!["a", "b", "c"]);
    }

    #[test]
    fn queue_orders_like_time_then_seq_at_the_edges() {
        // Both shards busy at the end of the clock (so the barrier path,
        // not the sprint, runs them): equal times fire in insertion order,
        // `MAX` is reachable, and "a" pushes "e" into the epoch already
        // being drained — the late heap — where it fires after the
        // bucketed ties. `queue::tests` pins the packed key at the edges.
        let mut s = two_shards(1);
        let before_max = SimTime::from_micros(u64::MAX - 1);
        let log = |tag: &'static str| -> BackendEvent<Vec<(u64, String)>> {
            Box::new(move |ctx, log| log.push((ctx.now().as_micros(), tag.to_string())))
        };
        for shard in [ShardId(0), ShardId(1)] {
            s.schedule(shard, SimTime::MAX, log("c"));
            s.schedule(
                shard,
                before_max,
                Box::new(move |ctx, trace: &mut Vec<(u64, String)>| {
                    trace.push((ctx.now().as_micros(), "a".to_string()));
                    ctx.schedule_at(SimTime::MAX, log("e"));
                }),
            );
            s.schedule(shard, SimTime::MAX, log("d"));
            s.schedule(shard, before_max, log("b"));
        }
        assert_eq!(s.run(), SimTime::MAX);
        for shard in [ShardId(0), ShardId(1)] {
            let tags: Vec<&str> = s.state(shard).iter().map(|(_, t)| t.as_str()).collect();
            assert_eq!(tags, vec!["a", "b", "c", "d", "e"], "{shard}");
        }
    }

    #[test]
    fn cross_shard_mail_is_deferred_to_the_barrier() {
        let mut s = two_shards(1);
        s.schedule(
            ShardId(0),
            SimTime::from_millis(100),
            Box::new(|ctx, _| {
                // Requested "now" (t=0.1s) but the barrier is at 1s.
                ctx.send_to(
                    ShardId(1),
                    ctx.now(),
                    Box::new(|ctx, log: &mut Vec<(u64, String)>| {
                        log.push((ctx.now().as_micros(), "mail".into()));
                    }),
                );
            }),
        );
        s.run();
        assert_eq!(s.state(ShardId(1)), &vec![(1_000_000, "mail".into())]);
        assert_eq!(s.mail_delivered(), 1);
    }

    #[test]
    fn future_mail_keeps_its_requested_time() {
        let mut s = two_shards(1);
        s.schedule(
            ShardId(0),
            SimTime::ZERO,
            Box::new(|ctx, _| {
                ctx.send_to(
                    ShardId(1),
                    SimTime::from_secs(5),
                    Box::new(|ctx, log: &mut Vec<(u64, String)>| {
                        log.push((ctx.now().as_micros(), "later".into()));
                    }),
                );
            }),
        );
        s.run();
        assert_eq!(s.state(ShardId(1))[0].0, 5_000_000);
    }

    #[test]
    fn send_to_own_shard_is_not_clamped() {
        let mut s = two_shards(10);
        s.schedule(
            ShardId(0),
            SimTime::from_millis(10),
            Box::new(|ctx, _| {
                ctx.send_to(
                    ShardId(0),
                    ctx.now() + SimDuration::from_millis(5),
                    Box::new(|ctx, log: &mut Vec<(u64, String)>| {
                        log.push((ctx.now().as_micros(), "self".into()));
                    }),
                );
            }),
        );
        s.run();
        assert_eq!(s.state(ShardId(0))[0].0, 15_000, "no barrier clamp");
    }

    #[test]
    fn mail_merges_in_time_src_seq_order_not_shard_order() {
        // Shard 1 sends before shard 0 within the same epoch; both ask for
        // the same delivery time. Tie broken by (src, src_seq): shard 0's
        // mail sorts first even though shard 1 sent earlier in sim time.
        let mut s = ShardedScheduler::new(
            RngPool::new(1),
            vec![Vec::new(), Vec::new(), Vec::<(u64, String)>::new()],
            SimDuration::from_secs(1),
        );
        for (src, t_ms, tag) in [(1u16, 10u64, "from1"), (0, 20, "from0")] {
            s.schedule(
                ShardId(src),
                SimTime::from_millis(t_ms),
                Box::new(move |ctx, _| {
                    ctx.send_to(
                        ShardId(2),
                        SimTime::ZERO,
                        Box::new(move |ctx, log: &mut Vec<(u64, String)>| {
                            log.push((ctx.now().as_micros(), tag.to_string()));
                        }),
                    );
                }),
            );
        }
        s.run();
        let tags: Vec<&str> = s
            .state(ShardId(2))
            .iter()
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(tags, vec!["from0", "from1"]);
    }

    #[test]
    fn shard_rng_streams_are_independent_of_shard_count() {
        let draw = |shards: usize| -> u64 {
            let mut s = ShardedScheduler::new(
                RngPool::new(42),
                vec![0u64; shards],
                SimDuration::from_secs(1),
            );
            s.schedule(
                ShardId(0),
                SimTime::ZERO,
                Box::new(|ctx, out: &mut u64| {
                    *out = ctx.pool().fork("jitter").gen();
                }),
            );
            s.run();
            *s.state(ShardId(0))
        };
        assert_eq!(
            draw(1),
            draw(6),
            "shard 0's stream must not depend on siblings"
        );
    }

    #[test]
    fn traces_merge_in_time_shard_seq_order() {
        let t = Telemetry::recording(64);
        let mut s =
            ShardedScheduler::new(RngPool::new(1), vec![(), (), ()], SimDuration::from_secs(1));
        s.set_telemetry(&t);
        // Emit from shards in reverse order at the same instant.
        for shard in [2u16, 1, 0] {
            s.schedule(
                ShardId(shard),
                SimTime::from_millis(500),
                Box::new(move |ctx, _| {
                    ctx.emit(TraceEvent::PollMiss {
                        broadcast: shard as u64,
                        pop: shard,
                    });
                }),
            );
        }
        s.run();
        let pops: Vec<u64> = t
            .events()
            .iter()
            .map(|e| match e.event {
                TraceEvent::PollMiss { broadcast, .. } => broadcast,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(pops, vec![0, 1, 2], "shard id breaks same-time ties");
    }

    #[test]
    #[should_panic(expected = "trace written off the thread that created the handle")]
    fn a_captured_handle_emitting_on_a_worker_lane_panics() {
        let t = Telemetry::recording(64);
        let mut s = two_shards(1).with_lanes(2);
        s.set_telemetry(&t);
        // Both shards are due in the same epoch, so each runs on its own
        // worker thread rather than sprinting on this one.
        for shard in [ShardId(0), ShardId(1)] {
            let direct = t.clone();
            s.schedule(
                shard,
                SimTime::ZERO,
                Box::new(move |ctx, _| {
                    direct.emit(
                        ctx.now().as_micros(),
                        TraceEvent::PollMiss {
                            broadcast: 1,
                            pop: ctx.shard().0,
                        },
                    );
                }),
            );
        }
        s.run();
    }

    #[test]
    #[should_panic(expected = "trace written off the thread that created the handle")]
    fn a_captured_handle_emitting_in_a_lone_sprint_at_two_lanes_panics() {
        let t = Telemetry::recording(64);
        let mut s = two_shards(1).with_lanes(2);
        s.set_telemetry(&t);
        // Only shard 1 has work, so the scheduler sprints it alone; at two
        // lanes that sprint still runs on a worker thread.
        let direct = t.clone();
        s.schedule(
            ShardId(1),
            SimTime::ZERO,
            Box::new(move |ctx, _| {
                direct.emit(
                    ctx.now().as_micros(),
                    TraceEvent::PollMiss {
                        broadcast: 1,
                        pop: ctx.shard().0,
                    },
                );
            }),
        );
        s.run();
    }

    #[test]
    fn run_until_is_inclusive_and_parks_at_horizon() {
        let mut s = two_shards(1);
        s.schedule(
            ShardId(0),
            SimTime::from_secs(5),
            Box::new(|ctx, log: &mut Vec<(u64, String)>| {
                log.push((ctx.now().as_micros(), "x".into()));
            }),
        );
        s.schedule(ShardId(0), SimTime::from_secs(9), Box::new(|_, _| {}));
        let end = SchedulerBackend::run_until(&mut s, SimTime::from_secs(5));
        assert_eq!(end, SimTime::from_secs(5));
        assert_eq!(s.state(ShardId(0)).len(), 1, "horizon is inclusive");
        assert_eq!(s.pending(), 1);
        s.run();
        assert_eq!(s.events_fired(), 2);
    }

    #[test]
    fn telemetry_counters_roll_up_per_shard_and_merged() {
        let t = Telemetry::recording(64);
        let mut s =
            ShardedScheduler::new(RngPool::new(3), vec![0u64, 0u64], SimDuration::from_secs(1));
        s.set_telemetry(&t);
        for shard in 0..2u16 {
            for i in 0..3u64 {
                s.schedule(
                    ShardId(shard),
                    SimTime::from_millis(i * 10),
                    Box::new(|_, n: &mut u64| *n += 1),
                );
            }
        }
        s.schedule(
            ShardId(0),
            SimTime::ZERO,
            Box::new(|ctx, _| {
                ctx.send_to(ShardId(1), SimTime::ZERO, Box::new(|_, _| {}));
            }),
        );
        s.run();
        let snap = t.snapshot();
        assert_eq!(snap.counter("sim.sharded.events_fired"), Some(8));
        assert_eq!(snap.counter("sim.shard.0.events_fired"), Some(4));
        assert_eq!(snap.counter("sim.shard.1.events_fired"), Some(4));
        assert_eq!(snap.counter("sim.shard.0.mail_out"), Some(1));
        assert_eq!(snap.counter("sim.sharded.mail_delivered"), Some(1));
        assert!(snap.counter("sim.sharded.epochs").unwrap() >= 1);
    }

    #[test]
    fn reattaching_telemetry_registers_one_pair_per_shard() {
        let t = Telemetry::recording(64);
        let mut s = two_shards(1);
        s.set_telemetry(&t);
        s.set_telemetry(&t);
        let snap = t.snapshot();
        let shard_counters: Vec<&str> = snap
            .counters
            .iter()
            .map(|(name, _)| name.as_str())
            .filter(|name| name.starts_with("sim.shard."))
            .collect();
        assert_eq!(
            shard_counters,
            [
                "sim.shard.0.events_fired",
                "sim.shard.0.mail_out",
                "sim.shard.1.events_fired",
                "sim.shard.1.mail_out",
            ]
        );
    }

    #[test]
    #[should_panic(expected = "send_to nonexistent")]
    fn send_to_out_of_range_shard_panics() {
        let mut s = two_shards(1);
        s.schedule(
            ShardId(0),
            SimTime::ZERO,
            Box::new(|ctx, _| {
                ctx.send_to(ShardId(9), SimTime::ZERO, Box::new(|_, _| {}));
            }),
        );
        s.run();
    }
}
