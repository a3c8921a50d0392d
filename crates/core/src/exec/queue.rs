//! The discrete-event queue: completion events ordered by simulated time,
//! with a monotone sequence number breaking ties deterministically.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled completion: the run dispatched as sequence number `seq`
/// finishes at simulated time `time`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueuedEvent {
    /// Simulated finish time.
    pub(crate) time: f64,
    /// Dispatch sequence number — the deterministic tie-break: two runs
    /// finishing at the same instant resolve in dispatch order.
    pub(crate) seq: u64,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time.total_cmp(&other.time) == Ordering::Equal && self.seq == other.seq
    }
}

impl Eq for QueuedEvent {}

impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueuedEvent {
    /// Reversed comparison so `BinaryHeap` (a max-heap) pops the earliest
    /// time first, and the lowest sequence number on ties.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A min-queue of [`QueuedEvent`]s.
#[derive(Debug, Clone, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<QueuedEvent>,
}

impl EventQueue {
    /// An empty queue.
    pub(crate) fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules a completion.
    pub(crate) fn push(&mut self, time: f64, seq: u64) {
        self.heap.push(QueuedEvent { time, seq });
    }

    /// Pops the earliest completion (lowest time, then lowest seq).
    pub(crate) fn pop(&mut self) -> Option<QueuedEvent> {
        self.heap.pop()
    }

    /// The earliest scheduled completion without removing it — the
    /// open-loop engine compares it against the next job arrival to decide
    /// whether the clock advances to an arrival or a completion.
    pub(crate) fn peek(&self) -> Option<QueuedEvent> {
        self.heap.peek().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_with_seq_tie_break() {
        let mut q = EventQueue::new();
        q.push(3.0, 0);
        q.push(1.0, 3);
        q.push(1.0, 1);
        q.push(2.0, 2);
        assert_eq!(q.peek().map(|e| (e.time, e.seq)), Some((1.0, 1)));
        let order: Vec<(f64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time, e.seq))
            .collect();
        assert_eq!(order, vec![(1.0, 1), (1.0, 3), (2.0, 2), (3.0, 0)]);
        assert!(q.peek().is_none());
    }

    #[test]
    fn negative_zero_and_ordinary_zero_coexist() {
        // total_cmp orders -0.0 before 0.0; the queue must not panic or
        // lose events on such inputs.
        let mut q = EventQueue::new();
        q.push(0.0, 0);
        q.push(-0.0, 1);
        assert_eq!(q.pop().unwrap().seq, 1);
        assert_eq!(q.pop().unwrap().seq, 0);
        assert!(q.pop().is_none());
    }
}
