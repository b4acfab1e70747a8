//! A bounded multi-producer/multi-consumer priority job queue.
//!
//! The acceptor pushes with [`Queue::try_push`], which **never blocks**:
//! when the queue is at capacity (or closed) the item comes straight back
//! and the caller answers `503` — that is the whole backpressure story.
//! Workers block in [`Queue::pop`] until an item arrives or the queue is
//! closed *and* empty, so closing the queue drains everything already
//! accepted before the workers exit.
//!
//! Ordering: items pop lowest [`Queue::try_push_at`] class first, and
//! FIFO within a class (a monotonic sequence number breaks ties), so a
//! burst of small interactive jobs overtakes a backlog of giant sweeps
//! without ever reordering equals. [`Queue::try_push`] enqueues at
//! [`DEFAULT_PRIORITY`], preserving pure FIFO for callers that never use
//! classes — the connection queue — while the async job queue maps
//! client priority and job cost onto classes.

use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex, PoisonError};

/// The class [`Queue::try_push`] enqueues at.
pub const DEFAULT_PRIORITY: u8 = 128;

/// Bounded priority queue handing accepted work to the worker pool.
#[derive(Debug)]
pub struct Queue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct State<T> {
    items: BinaryHeap<Entry<T>>,
    seq: u64,
    closed: bool,
}

/// Heap entry ordered so the `BinaryHeap` max is the item that must pop
/// first: lowest priority class, then lowest (earliest) sequence number.
#[derive(Debug)]
struct Entry<T> {
    priority: u8,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed on both fields: the heap's max = smallest (class, seq).
        (other.priority, other.seq).cmp(&(self.priority, self.seq))
    }
}

impl<T> Queue<T> {
    /// A queue holding at most `capacity` items (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        Queue {
            state: Mutex::new(State {
                items: BinaryHeap::new(),
                seq: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        // A worker that panicked mid-`handle` has already released the
        // lock; the queue state itself is always consistent.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues at `DEFAULT_PRIORITY` without blocking. Returns the
    /// item when the queue is full or closed so the caller can answer it
    /// directly.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        self.try_push_at(DEFAULT_PRIORITY, item)
    }

    /// Enqueues into a priority class (lower pops sooner) without
    /// blocking. Returns the item when the queue is full or closed.
    pub fn try_push_at(&self, priority: u8, item: T) -> Result<(), T> {
        let mut st = self.lock();
        if st.closed || st.items.len() >= self.capacity {
            return Err(item);
        }
        let seq = st.seq;
        st.seq += 1;
        st.items.push(Entry {
            priority,
            seq,
            item,
        });
        drop(st);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until an item is available. Returns `None` once the queue
    /// is closed **and** drained — the worker-pool exit signal.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.lock();
        loop {
            if let Some(entry) = st.items.pop() {
                return Some(entry.item);
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: pushes start failing, and `pop` returns `None`
    /// once the backlog is drained.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Removes and returns everything still queued, in pop order (used
    /// to flush a closed queue when no workers exist to drain it).
    pub fn drain(&self) -> Vec<T> {
        let mut st = self.lock();
        let mut out = Vec::with_capacity(st.items.len());
        while let Some(entry) = st.items.pop() {
            out.push(entry.item);
        }
        out
    }

    /// Items currently waiting (the `/metrics` gauge).
    pub fn depth(&self) -> usize {
        self.lock().items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bounded_push_then_fifo_pop() {
        let q = Queue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok());
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn close_drains_backlog_then_releases_blocked_poppers() {
        let q = Arc::new(Queue::new(4));
        q.try_push(7).ok();
        q.close();
        assert_eq!(q.try_push(8), Err(8));
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), None);
        // A popper blocked before close() wakes up with None.
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop());
        assert_eq!(h.join().expect("popper"), None);
    }

    #[test]
    fn drain_flushes_a_closed_queue() {
        let q = Queue::new(3);
        q.try_push(1).ok();
        q.try_push(2).ok();
        q.close();
        assert_eq!(q.drain(), vec![1, 2]);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn capacity_zero_clamps_to_one() {
        let q = Queue::new(0);
        assert!(q.try_push(1).is_ok());
        assert_eq!(q.try_push(2), Err(2));
    }

    #[test]
    fn lower_classes_overtake_but_equals_stay_fifo() {
        let q = Queue::new(8);
        q.try_push_at(5, "sweep-a").ok();
        q.try_push_at(5, "sweep-b").ok();
        q.try_push_at(1, "interactive-a").ok();
        q.try_push_at(1, "interactive-b").ok();
        q.try_push_at(3, "medium").ok();
        assert_eq!(q.pop(), Some("interactive-a"));
        assert_eq!(q.pop(), Some("interactive-b"));
        assert_eq!(q.pop(), Some("medium"));
        // An interactive arrival mid-backlog still jumps the line.
        q.try_push_at(1, "late-interactive").ok();
        assert_eq!(q.pop(), Some("late-interactive"));
        assert_eq!(q.pop(), Some("sweep-a"));
        assert_eq!(q.pop(), Some("sweep-b"));
    }

    #[test]
    fn drain_returns_pop_order_across_classes() {
        let q = Queue::new(8);
        q.try_push_at(9, 1).ok();
        q.try_push_at(0, 2).ok();
        q.try_push_at(9, 3).ok();
        q.close();
        assert_eq!(q.drain(), vec![2, 1, 3]);
    }
}
