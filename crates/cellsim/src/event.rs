//! The discrete-event queue.
//!
//! Events are ordered by time (earliest first); ties are broken by a
//! monotonically increasing sequence number so insertion order is preserved
//! and the simulation stays deterministic.
//!
//! Only run-time events live here — departures and handoffs; arrivals,
//! utilisation ticks and faults are streamed from sorted buffers by the
//! engines.  Events are small `Copy` values carrying a dense [`CellIdx`]
//! plus the connection's user [`SlotId`] handle.  The queue's backing heap
//! keeps its capacity across [`EventQueue::clear`], so a warmed-up
//! simulator schedules and pops events without allocating.

use crate::geometry::CellIdx;
use crate::slab::SlotId;
use crate::SimTime;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What happens when an event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum EventKind {
    /// An admitted connection completes normally.
    Departure {
        /// Dense index of the cell scheduled to serve the connection at
        /// completion time (a stale index after an intervening handoff —
        /// the release simply misses and the event is a no-op).
        cell: CellIdx,
        /// The connection id.
        connection_id: u64,
        /// The connection's user-state slot (`None` in single-cell runs,
        /// which track no user kinematics).
        user: Option<SlotId>,
    },
    /// An on-going connection attempts to hand off between two cells.
    Handoff {
        /// Dense index of the cell the connection is leaving.
        from: CellIdx,
        /// Dense index of the cell the connection wants to enter.
        to: CellIdx,
        /// The connection id.
        connection_id: u64,
        /// The connection's user-state slot.
        user: SlotId,
    },
}

/// A timestamped event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Firing time in seconds.
    pub time: SimTime,
    /// Insertion sequence number (used for deterministic tie-breaking).
    pub sequence: u64,
    /// What to do.
    pub kind: EventKind,
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap, so invert: earliest time = greatest.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.sequence.cmp(&self.sequence))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered event queue.
#[derive(Debug, Clone, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    next_sequence: u64,
}

impl EventQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `kind` at `time` (non-finite or negative times are clamped
    /// to zero).
    pub fn schedule(&mut self, time: SimTime, kind: EventKind) {
        let time = if time.is_finite() { time.max(0.0) } else { 0.0 };
        let ev = Event {
            time,
            sequence: self.next_sequence,
            kind,
        };
        self.next_sequence += 1;
        self.heap.push(ev);
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// Peek at the earliest event without removing it.
    #[must_use]
    pub fn peek(&self) -> Option<&Event> {
        self.heap.peek()
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Ensure room for at least `additional` more events without further
    /// growth reallocations.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Capacity of the backing heap.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Remove every pending event, keeping the backing storage, and reset
    /// the sequence counter.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.next_sequence = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn departure(id: u64) -> EventKind {
        EventKind::Departure {
            cell: CellIdx(0),
            connection_id: id,
            user: None,
        }
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(10.0, departure(0));
        q.schedule(5.0, departure(1));
        q.schedule(7.5, departure(2));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().time, 5.0);
        assert_eq!(q.pop().unwrap().time, 7.5);
        assert_eq!(q.pop().unwrap().time, 10.0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_are_broken_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(1.0, departure(100));
        q.schedule(1.0, departure(200));
        q.schedule(1.0, departure(300));
        let ids: Vec<u64> = (0..3)
            .map(|_| match q.pop().unwrap().kind {
                EventKind::Departure { connection_id, .. } => connection_id,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![100, 200, 300]);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(3.0, departure(0));
        assert_eq!(q.peek().unwrap().time, 3.0);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn bad_times_are_clamped() {
        let mut q = EventQueue::new();
        q.schedule(-5.0, departure(0));
        q.schedule(f64::NAN, departure(1));
        assert_eq!(q.pop().unwrap().time, 0.0);
        assert_eq!(q.pop().unwrap().time, 0.0);
    }

    #[test]
    fn clear_empties_queue_and_keeps_capacity() {
        let mut q = EventQueue::new();
        for i in 0..64 {
            q.schedule(f64::from(i), departure(0));
        }
        let cap = q.capacity();
        q.clear();
        assert!(q.is_empty());
        assert!(q.capacity() >= cap, "clear must keep the backing storage");
        // Sequence numbers restart, so replays are bit-identical.
        q.schedule(1.0, departure(1));
        assert_eq!(q.pop().unwrap().sequence, 0);
    }

    #[test]
    fn events_are_small_copy_values() {
        // An event moves a few machine words through the heap.
        assert!(
            std::mem::size_of::<Event>() <= 48,
            "Event grew to {} bytes",
            std::mem::size_of::<Event>()
        );
        let e = Event {
            time: 4.0,
            sequence: 9,
            kind: EventKind::Handoff {
                from: CellIdx(0),
                to: CellIdx(1),
                connection_id: 9,
                user: {
                    let mut slab = crate::slab::Slab::new();
                    slab.insert(())
                },
            },
        };
        let copy = e; // Copy, not move
        assert_eq!(copy, e);
    }

    #[test]
    fn handoff_and_departure_events_carry_cells() {
        let mut q = EventQueue::new();
        let mut slab = crate::slab::Slab::new();
        let slot = slab.insert(());
        q.schedule(
            4.0,
            EventKind::Handoff {
                from: CellIdx(0),
                to: CellIdx(1),
                connection_id: 9,
                user: slot,
            },
        );
        q.schedule(
            2.0,
            EventKind::Departure {
                cell: CellIdx(0),
                connection_id: 3,
                user: None,
            },
        );
        match q.pop().unwrap().kind {
            EventKind::Departure { connection_id, .. } => assert_eq!(connection_id, 3),
            other => panic!("unexpected {other:?}"),
        }
        match q.pop().unwrap().kind {
            EventKind::Handoff {
                from,
                to,
                connection_id,
                ..
            } => {
                assert_eq!(from, CellIdx(0));
                assert_eq!(to, CellIdx(1));
                assert_eq!(connection_id, 9);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
