//! A bounded MPSC/MPMC queue with close semantics — the backpressure primitive of the
//! threaded runtime.
//!
//! Built on `Mutex<VecDeque>` + two condvars (std only; the container has no crates.io
//! access, so no crossbeam). The capacity bound is what makes backpressure *real*: a
//! full queue either rejects the push ([`BoundedQueue::try_push`], load shedding, the
//! rejection is the caller's to count) or blocks the producer
//! ([`BoundedQueue::push`], lossless producers). A consumer takes one item at a time
//! ([`BoundedQueue::pop`]) or a whole backlog under one lock
//! ([`BoundedQueue::pop_into`], how a runtime worker fills its batch). Closing the
//! queue wakes every waiter; consumers drain whatever is left before seeing
//! [`Pop::Closed`], which is exactly the graceful-shutdown drain the runtime needs.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Most slots a new queue reserves up front; deeper queues grow on demand.
const INITIAL_SLOTS: usize = 256;

/// Why a non-blocking push did not enqueue.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue was at capacity; the item is handed back.
    Full(T),
    /// The queue was closed; the item is handed back.
    Closed(T),
}

/// The outcome of a pop.
#[derive(Debug, PartialEq, Eq)]
pub enum Pop<T> {
    /// An item was dequeued.
    Item(T),
    /// The timeout elapsed with the queue open but empty.
    TimedOut,
    /// The queue is closed and fully drained.
    Closed,
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer queue with blocking and non-blocking operations.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    capacity: usize,
    state: Mutex<State<T>>,
    /// Signalled when an item is enqueued or the queue closes (consumers wait here).
    not_empty: Condvar,
    /// Signalled when an item is dequeued or the queue closes (producers wait here).
    not_full: Condvar,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items. Panics if `capacity` is zero — the
    /// runtime validates its configuration before constructing queues, so a zero here
    /// is a programming error. Storage starts at no more than 256 items and grows with
    /// the depth actually reached, so any capacity, `usize::MAX` included, is a bound
    /// and never an up-front allocation.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a bounded queue needs capacity >= 1");
        Self {
            capacity,
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity.min(INITIAL_SLOTS)),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock poisoned").items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueue without blocking. Returns the queue depth *after* the push (for depth
    /// telemetry), or the item wrapped in the reason it was not enqueued.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] when at capacity (the backpressure rejection),
    /// [`PushError::Closed`] after [`BoundedQueue::close`].
    pub fn try_push(&self, item: T) -> Result<usize, PushError<T>> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        state.items.push_back(item);
        let depth = state.items.len();
        drop(state);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Enqueue, blocking while the queue is full. Returns the depth after the push.
    ///
    /// # Errors
    ///
    /// Returns the item back if the queue closes while waiting (or was already closed).
    pub fn push(&self, item: T) -> Result<usize, PushError<T>> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        loop {
            if state.closed {
                return Err(PushError::Closed(item));
            }
            if state.items.len() < self.capacity {
                state.items.push_back(item);
                let depth = state.items.len();
                drop(state);
                self.not_empty.notify_one();
                return Ok(depth);
            }
            state = self.not_full.wait(state).expect("queue lock poisoned");
        }
    }

    /// Enqueue, blocking at most `timeout` while the queue is full. Returns the depth
    /// after the push. This is the dispatch primitive of the fault-tolerant router: a
    /// stalled shard whose queue has filled must surface as a timeout the retry policy
    /// can act on, never as an indefinite producer hang.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] when the timeout elapses with the queue still at capacity,
    /// [`PushError::Closed`] if the queue closes while waiting (or was already closed).
    pub(crate) fn push_timeout(&self, item: T, timeout: Duration) -> Result<usize, PushError<T>> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.state.lock().expect("queue lock poisoned");
        loop {
            if state.closed {
                return Err(PushError::Closed(item));
            }
            if state.items.len() < self.capacity {
                state.items.push_back(item);
                let depth = state.items.len();
                drop(state);
                self.not_empty.notify_one();
                return Ok(depth);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err(PushError::Full(item));
            }
            state = self
                .not_full
                .wait_timeout(state, deadline - now)
                .expect("queue lock poisoned")
                .0;
        }
    }

    /// Dequeue, blocking until an item arrives or the queue is closed *and* drained.
    pub fn pop(&self) -> Pop<T> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Pop::Item(item);
            }
            if state.closed {
                return Pop::Closed;
            }
            state = self.not_empty.wait(state).expect("queue lock poisoned");
        }
    }

    /// Dequeue with a timeout: an item if one arrives in time, [`Pop::TimedOut`] when
    /// the wait elapses, [`Pop::Closed`] once closed and drained.
    pub(crate) fn pop_timeout(&self, timeout: Duration) -> Pop<T> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.state.lock().expect("queue lock poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Pop::Item(item);
            }
            if state.closed {
                return Pop::Closed;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Pop::TimedOut;
            }
            let (next, result) = self
                .not_empty
                .wait_timeout(state, deadline - now)
                .expect("queue lock poisoned");
            state = next;
            if result.timed_out() && state.items.is_empty() && !state.closed {
                return Pop::TimedOut;
            }
        }
    }

    /// Move up to `max` queued items, oldest first, onto the end of `out` without
    /// blocking, under one lock; returns how many moved (0 on an empty queue, open or
    /// closed). `out` grows by what was queued, never by `max`. Freeing several slots
    /// wakes every producer blocked on a full queue, once.
    pub fn pop_into(&self, out: &mut Vec<T>, max: usize) -> usize {
        let mut state = self.state.lock().expect("queue lock poisoned");
        let moved = state.items.len().min(max);
        out.extend(state.items.drain(..moved));
        drop(state);
        if moved > 0 {
            self.not_full.notify_all();
        }
        moved
    }

    /// Close the queue: every pending and future push fails, consumers drain the
    /// remaining items and then see [`Pop::Closed`]. Idempotent.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("queue lock poisoned");
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Whether [`BoundedQueue::close`] has been called.
    pub(crate) fn is_closed(&self) -> bool {
        self.state.lock().expect("queue lock poisoned").closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn try_push_rejects_when_full_without_deadlocking() {
        let queue = BoundedQueue::new(2);
        assert_eq!(queue.try_push(1), Ok(1));
        assert_eq!(queue.try_push(2), Ok(2));
        // Full: the item comes back, nothing blocks.
        assert_eq!(queue.try_push(3), Err(PushError::Full(3)));
        assert_eq!(queue.len(), 2);
        // Draining one slot makes the next push land.
        assert_eq!(queue.pop(), Pop::Item(1));
        assert_eq!(queue.try_push(3), Ok(2));
        assert_eq!(queue.pop(), Pop::Item(2));
        assert_eq!(queue.pop(), Pop::Item(3));
        assert!(queue.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity >= 1")]
    fn zero_capacity_is_a_programming_error() {
        let _ = BoundedQueue::<u32>::new(0);
    }

    #[test]
    fn close_drains_then_reports_closed() {
        let queue = BoundedQueue::new(4);
        queue.try_push("a").unwrap();
        queue.try_push("b").unwrap();
        queue.close();
        assert!(queue.is_closed());
        assert_eq!(queue.try_push("c"), Err(PushError::Closed("c")));
        // Remaining items are still delivered before Closed.
        assert_eq!(queue.pop(), Pop::Item("a"));
        assert_eq!(queue.pop_timeout(Duration::from_millis(1)), Pop::Item("b"));
        assert_eq!(queue.pop(), Pop::Closed);
        assert_eq!(queue.pop_timeout(Duration::from_millis(1)), Pop::Closed);
    }

    #[test]
    fn pop_timeout_times_out_on_an_open_empty_queue() {
        let queue = BoundedQueue::<u32>::new(1);
        assert_eq!(queue.pop_timeout(Duration::from_millis(1)), Pop::TimedOut);
    }

    #[test]
    fn blocking_push_waits_for_space() {
        let queue = Arc::new(BoundedQueue::new(1));
        queue.try_push(0u32).unwrap();
        let producer = {
            let queue = queue.clone();
            std::thread::spawn(move || queue.push(1))
        };
        // Give the producer time to block on the full queue, then drain.
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(queue.pop(), Pop::Item(0));
        assert_eq!(producer.join().unwrap(), Ok(1));
        assert_eq!(queue.pop(), Pop::Item(1));
    }

    #[test]
    fn close_unblocks_a_stalled_producer() {
        let queue = Arc::new(BoundedQueue::new(1));
        queue.try_push(0u32).unwrap();
        let producer = {
            let queue = queue.clone();
            std::thread::spawn(move || queue.push(1))
        };
        std::thread::sleep(Duration::from_millis(5));
        queue.close();
        assert_eq!(producer.join().unwrap(), Err(PushError::Closed(1)));
    }

    #[test]
    fn close_unblocks_a_waiting_consumer() {
        let queue = Arc::new(BoundedQueue::<u32>::new(1));
        let consumer = {
            let queue = queue.clone();
            std::thread::spawn(move || queue.pop())
        };
        std::thread::sleep(Duration::from_millis(5));
        queue.close();
        assert_eq!(consumer.join().unwrap(), Pop::Closed);
    }

    #[test]
    fn close_wakes_every_producer_blocked_at_capacity() {
        // The close/drain edge case: several producers all blocked on a full queue must
        // every one wake with Closed (their items handed back), not hang forever on a
        // condvar nobody will signal again.
        let queue = Arc::new(BoundedQueue::new(1));
        queue.try_push(0u32).unwrap();
        let producers: Vec<_> = (1..=4u32)
            .map(|i| {
                let queue = queue.clone();
                std::thread::spawn(move || queue.push(i))
            })
            .collect();
        // Let them all reach the wait before closing.
        while queue.is_empty() {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(10));
        queue.close();
        for producer in producers {
            match producer.join().unwrap() {
                Err(PushError::Closed(item)) => assert!((1..=4).contains(&item)),
                other => panic!("blocked producer must see Closed, got {other:?}"),
            }
        }
        // The item enqueued before close still drains.
        assert_eq!(queue.pop(), Pop::Item(0));
        assert_eq!(queue.pop(), Pop::Closed);
    }

    #[test]
    fn pop_into_moves_at_most_max_in_fifo_order() {
        let queue = BoundedQueue::new(8);
        for item in 0..5u32 {
            queue.try_push(item).unwrap();
        }
        let mut out = vec![99];
        assert_eq!(queue.pop_into(&mut out, 3), 3);
        assert_eq!(out, vec![99, 0, 1, 2], "appended, oldest first");
        assert_eq!(queue.len(), 2);
        assert_eq!(queue.pop_into(&mut out, usize::MAX), 2);
        assert_eq!(out, vec![99, 0, 1, 2, 3, 4]);
        assert!(queue.is_empty());
    }

    #[test]
    fn pop_into_returns_zero_on_empty_and_closed_drained_queues() {
        let queue = BoundedQueue::<u32>::new(4);
        let mut out = Vec::new();
        assert_eq!(queue.pop_into(&mut out, 10), 0);
        queue.try_push(7).unwrap();
        queue.close();
        // A closed queue still hands over what it holds, then nothing.
        assert_eq!(queue.pop_into(&mut out, 10), 1);
        assert_eq!(queue.pop_into(&mut out, 10), 0);
        assert_eq!(out, vec![7]);
        assert_eq!(queue.pop(), Pop::Closed);
    }

    #[test]
    fn pop_into_wakes_every_producer_blocked_at_capacity() {
        let queue = Arc::new(BoundedQueue::new(2));
        queue.try_push(0u32).unwrap();
        queue.try_push(1).unwrap();
        let producers: Vec<_> = (2..=3u32)
            .map(|i| {
                let queue = queue.clone();
                std::thread::spawn(move || queue.push(i))
            })
            .collect();
        // Let both reach the wait on the full queue.
        std::thread::sleep(Duration::from_millis(20));
        let mut out = Vec::new();
        assert_eq!(queue.pop_into(&mut out, 2), 2);
        assert_eq!(out, vec![0, 1]);
        // One call freed both slots: both blocked pushes must land. A producer left
        // asleep is released by the close below, so a lost wake-up fails, not hangs.
        let waited = std::time::Instant::now();
        while queue.len() < 2 && waited.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let landed = queue.len();
        queue.close();
        for producer in producers {
            let _ = producer.join().unwrap();
        }
        assert_eq!(landed, 2, "one pop_into must wake every blocked producer");
        let mut items = Vec::new();
        queue.pop_into(&mut items, 10);
        items.sort_unstable();
        assert_eq!(items, vec![2, 3]);
    }

    #[test]
    fn a_huge_capacity_is_a_bound_not_an_allocation() {
        let queue = BoundedQueue::new(usize::MAX);
        assert_eq!(queue.capacity(), usize::MAX);
        assert_eq!(queue.try_push(1u32), Ok(1));
        assert_eq!(queue.pop(), Pop::Item(1));
    }

    #[test]
    fn try_push_after_close_never_succeeds() {
        let queue = BoundedQueue::new(2);
        queue.try_push(1u32).unwrap();
        queue.close();
        // Closed wins over Full and over free space alike — even after a full drain
        // reopens capacity, the queue stays closed to producers.
        assert_eq!(queue.try_push(2), Err(PushError::Closed(2)));
        assert_eq!(queue.pop(), Pop::Item(1));
        assert!(queue.is_empty());
        assert_eq!(queue.try_push(3), Err(PushError::Closed(3)));
        assert_eq!(queue.push(4), Err(PushError::Closed(4)));
        assert_eq!(
            queue.push_timeout(5, Duration::from_millis(1)),
            Err(PushError::Closed(5))
        );
    }

    #[test]
    fn push_timeout_returns_full_on_a_stalled_queue_and_closed_on_close() {
        let queue = Arc::new(BoundedQueue::new(1));
        queue.try_push(0u32).unwrap();
        // Nobody drains: the deadline elapses and the item comes back as Full.
        assert_eq!(
            queue.push_timeout(1, Duration::from_millis(2)),
            Err(PushError::Full(1))
        );
        // A drain within the deadline lets the push land.
        let producer = {
            let queue = queue.clone();
            std::thread::spawn(move || queue.push_timeout(2, Duration::from_millis(500)))
        };
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(queue.pop(), Pop::Item(0));
        assert_eq!(producer.join().unwrap(), Ok(1));
        // A close within the deadline surfaces as Closed, not a hang.
        let producer = {
            let queue = queue.clone();
            std::thread::spawn(move || queue.push_timeout(3, Duration::from_millis(500)))
        };
        std::thread::sleep(Duration::from_millis(5));
        queue.close();
        assert_eq!(producer.join().unwrap(), Err(PushError::Closed(3)));
    }
}
