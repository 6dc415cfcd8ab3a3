//! The trace sink: a bounded in-memory ring.

use crate::event::TimedEvent;
use std::collections::VecDeque;

/// Where emitted events go: a bounded ring buffer; once full the oldest
/// event is dropped and the drop counter incremented, so long runs stay
/// memory-bounded. [`crate::event::write_jsonl`] renders what it kept.
pub(crate) struct TraceSink {
    buf: VecDeque<TimedEvent>,
    capacity: usize,
    dropped: u64,
}

impl TraceSink {
    pub(crate) fn new(capacity: usize) -> Self {
        TraceSink {
            buf: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    pub(crate) fn push(&mut self, event: TimedEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event);
    }

    pub(crate) fn buffered(&self) -> Vec<TimedEvent> {
        self.buf.iter().cloned().collect()
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    fn ev(t: u64) -> TimedEvent {
        TimedEvent {
            t_us: t,
            event: TraceEvent::PollMiss {
                broadcast: 1,
                pop: 0,
            },
        }
    }

    #[test]
    fn zero_capacity_buffer_only_counts() {
        let mut sink = TraceSink::new(0);
        sink.push(ev(1));
        sink.push(ev(2));
        assert!(sink.buffered().is_empty());
        assert_eq!(sink.dropped(), 2);
    }

    #[test]
    fn ring_keeps_newest() {
        let mut sink = TraceSink::new(3);
        for t in 0..10 {
            sink.push(ev(t));
        }
        let kept: Vec<u64> = sink.buffered().iter().map(|e| e.t_us).collect();
        assert_eq!(kept, vec![7, 8, 9]);
        assert_eq!(sink.dropped(), 7);
    }
}
