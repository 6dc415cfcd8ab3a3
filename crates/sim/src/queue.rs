//! A shard's event queue: an epoch-grid bucket queue.
//!
//! The sharded scheduler fires events in `(time, seq)` order, where `seq`
//! is push order. Most events a shard schedules land in a *later* epoch
//! cell of the scheduler's grid (a fan-out viewer re-polls one poll
//! interval, i.e. one epoch, ahead; `crates/sim/DESIGN.md` § "The shard
//! queue" has the measured shares), so the queue keeps those unsorted and
//! sorts each cell once:
//!
//! * **Later epochs** are buckets in a `BTreeMap` keyed by
//!   `at_us / epoch_us`: append-only vectors in push order, plus their
//!   minimum instant (which keeps [`EpochQueue::peek_time`] exact
//!   without sorting).
//! * **The current epoch** is the first bucket, sorted when the queue
//!   advances into it, then drained front to back. The sort is stable
//!   (an LSD radix sort on the offset from the epoch start; small
//!   buckets use `sort_by_key`), so equal instants keep push order —
//!   which is `seq` order.
//! * **Late pushes** — into the epoch being drained, or earlier — go to a
//!   small binary heap keyed by `(at, seq)`. A pop takes the earlier of
//!   the two heads; a tie goes to the bucket, because everything in it
//!   was pushed before anything late.
//!
//! Every bucket key is greater than the current epoch, and every late
//! event lies in the current epoch or before it, so the three parts never
//! interleave in time beyond that one two-way head comparison.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

use crate::time::{event_key, event_key_time, SimTime};

/// One bucketed event. For a boxed event this is 24 bytes: the `Option`
/// lives in the box's null niche. `None` is a slot already moved out (a
/// popped event, or a radix pass's source).
type Slot<E> = Option<(SimTime, E)>;

/// Radix digit width: 2,048 counters per pass, and two passes cover
/// epochs up to 4.19 s.
const DIGIT_BITS: u32 = 11;
const RADIX: usize = 1 << DIGIT_BITS;

/// Buckets up to this length are sorted by comparison. Measured on
/// boxed-event slots, the two sorts break even at 96–112 events; at 64
/// the radix passes' counter sweeps cost up to twice the sort.
const SMALL_BUCKET: usize = 96;

/// An unsorted later epoch: events in push order and their earliest
/// instant.
struct Bucket<E> {
    min: SimTime,
    slots: Vec<Slot<E>>,
}

/// An event pushed into the epoch already being drained.
struct Late<E> {
    /// `(at, seq)` packed by [`event_key`].
    key: u128,
    ev: E,
}

impl<E> Late<E> {
    fn at(&self) -> SimTime {
        event_key_time(self.key)
    }
}

// Max-heap; invert so the earliest (time, seq) pops first.
impl<E> PartialEq for Late<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Late<E> {}
impl<E> PartialOrd for Late<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Late<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// A priority queue popping in `(time, push order)` order, bucketed on a
/// grid of `epoch_us` (see the [module docs](self)).
pub(crate) struct EpochQueue<E> {
    epoch_us: u64,
    /// The epoch `current` holds; `None` until the first pop.
    epoch: Option<u64>,
    /// The sorted current epoch; `current[head..]` is still queued.
    current: Vec<Slot<E>>,
    head: usize,
    late: BinaryHeap<Late<E>>,
    /// Push order among late events (bucketed ones need none).
    late_seq: u64,
    later: BTreeMap<u64, Bucket<E>>,
    len: usize,
}

impl<E> EpochQueue<E> {
    /// An empty queue bucketed by `epoch_us` (clamped to ≥ 1).
    pub(crate) fn new(epoch_us: u64) -> Self {
        EpochQueue {
            epoch_us: epoch_us.max(1),
            epoch: None,
            current: Vec::new(),
            head: 0,
            late: BinaryHeap::new(),
            late_seq: 0,
            later: BTreeMap::new(),
            len: 0,
        }
    }

    /// Events queued.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Queues `ev` at `at`, after everything already queued at `at`.
    pub(crate) fn push(&mut self, at: SimTime, ev: E) {
        self.len += 1;
        let k = at.as_micros() / self.epoch_us;
        if self.epoch.is_some_and(|cur| k <= cur) {
            let key = event_key(at, self.late_seq);
            self.late_seq += 1;
            self.late.push(Late { key, ev });
            return;
        }
        // Pushes in time order hit the newest bucket: skip the search.
        if let Some(mut last) = self.later.last_entry() {
            if *last.key() == k {
                last.get_mut().push(at, ev);
                return;
            }
        }
        self.later
            .entry(k)
            .or_insert_with(|| Bucket {
                min: at,
                slots: Vec::new(),
            })
            .push(at, ev);
    }

    /// The instant of the next event [`EpochQueue::pop`] returns.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        let head = self.head_time();
        match self.late.peek() {
            None => head.or_else(|| self.later.first_key_value().map(|(_, b)| b.min)),
            Some(late) => Some(head.map_or(late.at(), |h| h.min(late.at()))),
        }
    }

    /// Removes and returns the earliest event; equal instants come out in
    /// push order.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, E)> {
        let take_late = match (self.head_time(), self.late.peek()) {
            (_, None) => false,
            (Some(h), Some(late)) => late.at() < h,
            (None, Some(_)) => true,
        };
        if take_late {
            self.len -= 1;
            return self.late.pop().map(|l| (l.at(), l.ev));
        }
        if self.head == self.current.len() {
            self.advance()?;
        }
        self.len -= 1;
        self.head += 1;
        self.current[self.head - 1].take()
    }

    fn head_time(&self) -> Option<SimTime> {
        self.current
            .get(self.head)
            .and_then(Option::as_ref)
            .map(|(at, _)| *at)
    }

    /// Makes the earliest later bucket current, sorting it. The drained
    /// current vector is the radix scratch.
    fn advance(&mut self) -> Option<()> {
        let (k, bucket) = self.later.pop_first()?;
        let mut slots = bucket.slots;
        let mut scratch = std::mem::take(&mut self.current);
        sort_bucket(&mut slots, &mut scratch, k * self.epoch_us);
        self.current = slots;
        self.head = 0;
        self.epoch = Some(k);
        Some(())
    }
}

impl<E> Bucket<E> {
    /// Appends one event.
    fn push(&mut self, at: SimTime, ev: E) {
        self.min = self.min.min(at);
        self.slots.push(Some((at, ev)));
    }
}

/// Stable sort of one bucket by instant. Every instant is at least
/// `start`, the bucket's epoch start, and the radix passes key on the
/// offset from it, so their count follows the largest offset (two for a
/// 2.8 s epoch). `scratch` is any vector of `None`s.
fn sort_bucket<E>(slots: &mut Vec<Slot<E>>, scratch: &mut Vec<Slot<E>>, start: u64) {
    let offset = |s: &Slot<E>| s.as_ref().map_or(0, |(at, _)| at.as_micros() - start);
    if slots.len() <= SMALL_BUCKET {
        slots.sort_by_key(offset);
        return;
    }
    let max = slots.iter().map(offset).max().unwrap_or(0);
    let passes = (u64::BITS - max.leading_zeros()).div_ceil(DIGIT_BITS);
    scratch.resize_with(slots.len(), || None);
    let mut in_slots = true;
    for pass in 0..passes {
        let shift = pass * DIGIT_BITS;
        let digit = |s: &Slot<E>| (offset(s) >> shift) as usize & (RADIX - 1);
        let (src, dst) = if in_slots {
            (&mut *slots, &mut *scratch)
        } else {
            (&mut *scratch, &mut *slots)
        };
        let mut next = [0usize; RADIX];
        for s in src.iter() {
            next[digit(s)] += 1;
        }
        if next[digit(&src[0])] == src.len() {
            // One digit value throughout: this pass is the identity.
            continue;
        }
        let mut sum = 0;
        for n in &mut next {
            (*n, sum) = (sum, sum + *n);
        }
        // `dst` is all `None`: a swap moves the slot with no drop check.
        for s in src.iter_mut() {
            let d = digit(s);
            std::mem::swap(&mut dst[next[d]], s);
            next[d] += 1;
        }
        in_slots = !in_slots;
    }
    if !in_slots {
        std::mem::swap(slots, scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;

    #[test]
    fn late_entries_order_like_time_then_seq_at_the_edges() {
        let late = |at: u64, seq: u64| Late {
            key: event_key(SimTime::from_micros(at), seq),
            ev: (),
        };
        let edges = [0, 1, u64::MAX - 1, u64::MAX];
        for a in edges.iter().flat_map(|&at| edges.map(|seq| (at, seq))) {
            for b in edges.iter().flat_map(|&at| edges.map(|seq| (at, seq))) {
                // Max-heap order: the earlier pair is the greater element.
                assert_eq!(late(a.0, a.1).cmp(&late(b.0, b.1)), b.cmp(&a));
            }
        }
    }

    #[test]
    fn a_bucketed_boxed_event_takes_24_bytes() {
        // The heap entry it replaced (`u128` key + box) took 32.
        let slot = std::mem::size_of::<Slot<crate::BackendEvent<u64>>>();
        assert_eq!(slot, 24);
    }

    #[test]
    fn radix_and_comparison_sorts_agree_on_both_sides_of_the_cut_over() {
        let epoch = 2_800_000u64;
        for len in [SMALL_BUCKET - 1, SMALL_BUCKET, SMALL_BUCKET + 1, 5_000] {
            // Few distinct instants, so most keys tie.
            let times: Vec<u64> = (0..len as u64)
                .map(|i| epoch + crate::rng::splitmix64(i) % 97 * 28_001)
                .collect();
            let mut slots: Vec<Slot<u64>> = times
                .iter()
                .enumerate()
                .map(|(i, &t)| Some((SimTime::from_micros(t), i as u64)))
                .collect();
            let mut expected = slots.clone();
            expected.sort_by_key(|s| s.map(|(at, _)| at));
            // A scratch of the wrong length, as a drained bucket leaves.
            let mut scratch = vec![None; 3];
            sort_bucket(&mut slots, &mut scratch, epoch);
            assert_eq!(slots, expected, "len {len}");
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Push one event per offset, each after the last popped instant.
        Push(Vec<u64>),
        Pop(usize),
    }

    fn offset() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0u64),
            0u64..8,
            0u64..3_000_000,
            0u64..40_000_000_000,
            Just(u64::MAX),
        ]
    }

    fn op() -> impl Strategy<Value = Op> {
        let few = || proptest::collection::vec(offset(), 0..12).prop_map(Op::Push);
        let pop = || (0usize..40).prop_map(Op::Pop);
        prop_oneof![
            few(),
            few(),
            // Bursts past the radix cut-over.
            proptest::collection::vec(offset(), SMALL_BUCKET..SMALL_BUCKET + 200)
                .prop_map(Op::Push),
            pop(),
            pop(),
        ]
    }

    proptest! {
        /// Against a `(time, seq)` binary heap over random interleavings:
        /// ties, pushes into the drained epoch, pushes behind an
        /// exhausted bucket, `SimTime::MAX`, a late seq near `u64::MAX`,
        /// and epochs from 1 µs to three hours.
        #[test]
        fn pops_like_a_time_seq_heap(
            epoch_us in prop_oneof![Just(1u64), Just(1_000_000), Just(2_800_000), Just(10_800_000_000)],
            late_seq in prop_oneof![Just(0u64), Just(u64::MAX - 100_000)],
            ops in proptest::collection::vec(op(), 1..40),
        ) {
            let mut queue = EpochQueue::new(epoch_us);
            queue.late_seq = late_seq;
            let mut oracle = BinaryHeap::new();
            let (mut now, mut pushed) = (SimTime::ZERO, 0u64);
            // Drain at the end so every pushed event is checked.
            for op in ops.into_iter().chain([Op::Pop(usize::MAX)]) {
                match op {
                    Op::Push(offsets) => {
                        for off in offsets {
                            let at = SimTime::from_micros(now.as_micros().saturating_add(off));
                            queue.push(at, pushed);
                            oracle.push(Reverse((at, pushed)));
                            pushed += 1;
                        }
                    }
                    Op::Pop(n) => {
                        for _ in 0..n {
                            prop_assert_eq!(queue.peek_time(), oracle.peek().map(|r| r.0 .0));
                            let got = queue.pop();
                            prop_assert_eq!(got, oracle.pop().map(|r| r.0));
                            match got {
                                Some((at, _)) => now = at,
                                None => break,
                            }
                        }
                    }
                }
                prop_assert_eq!(queue.len(), oracle.len());
            }
        }
    }
}
