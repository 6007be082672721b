//! A bounded MPMC queue for accepted connections: the backpressure
//! point between the accept loop and the worker pool.
//!
//! `try_push` never blocks — a full queue returns the item to the
//! caller so the accept loop can shed load with an immediate 503
//! instead of queueing unboundedly (memory growth) or blocking (accept
//! backlog growth, then kernel-level drops the metrics never see).
//! `pop` blocks until an item arrives or the queue is shut down *and*
//! drained, which is exactly the graceful-drain semantic: after
//! shutdown workers finish everything already accepted, then exit.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    shutdown: bool,
}

/// Fixed-capacity MPMC queue with shutdown-and-drain.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            state: Mutex::new(State { items: VecDeque::new(), shutdown: false }),
            available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Recover the state lock even if a holder panicked: every critical
    /// section here is a plain push/pop, which cannot tear the deque.
    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Non-blocking push. `Err(item)` hands the item back when the
    /// queue is full or shut down — the caller owns the shed decision.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut state = self.lock();
        if state.shutdown || state.items.len() >= self.capacity {
            return Err(item);
        }
        state.items.push_back(item);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Blocking pop. Returns `None` only after
    /// [`shutdown`](BoundedQueue::shutdown) once every queued item has
    /// been handed out.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.shutdown {
                return None;
            }
            state = self.available.wait(state).unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Stop accepting new items and wake every blocked `pop`. Already
    /// queued items are still drained.
    pub fn shutdown(&self) {
        self.lock().shutdown = true;
        self.available.notify_all();
    }

    /// Items currently queued.
    pub fn depth(&self) -> usize {
        self.lock().items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_is_fifo() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn full_queue_hands_the_item_back() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn shutdown_drains_then_returns_none() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.shutdown();
        assert_eq!(q.try_push(2), Err(2), "no new items after shutdown");
        assert_eq!(q.pop(), Some(1), "queued items still drain");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn shutdown_wakes_blocked_poppers() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop())
            })
            .collect();
        // Give the poppers a moment to block, then shut down.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.shutdown();
        for handle in handles {
            assert_eq!(handle.join().unwrap(), None);
        }
    }

    #[test]
    fn concurrent_producers_and_consumers_conserve_items() {
        let q = Arc::new(BoundedQueue::<u64>::new(8));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut sum = 0u64;
                    while let Some(v) = q.pop() {
                        sum += v;
                    }
                    sum
                })
            })
            .collect();
        let mut pushed = 0u64;
        for v in 1..=1000u64 {
            loop {
                if q.try_push(v).is_ok() {
                    pushed += v;
                    break;
                }
                std::thread::yield_now();
            }
        }
        q.shutdown();
        let consumed: u64 = consumers.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(consumed, pushed);
    }
}
