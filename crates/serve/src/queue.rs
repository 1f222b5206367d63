//! Bounded admission queue: the daemon's backpressure point.
//!
//! Connections push work; a fixed worker pool pops it.  The queue is the
//! only place requests wait, so bounding it bounds daemon memory and
//! gives a crisp shedding rule: a push against a full queue fails
//! *immediately* and the connection answers `overload` with a
//! `retry_after_ms` hint — the client retries, the daemon never stalls.
//!
//! Closing the queue stops admissions but lets workers drain what was
//! already accepted: every admitted request is answered even during
//! shutdown, which is what the "zero dropped requests" chaos invariant
//! leans on.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// A bounded MPMC queue with explicit shed-on-full and drain-on-close
/// semantics.
#[derive(Debug)]
pub struct AdmissionQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
}

#[derive(Debug)]
struct Inner<T> {
    items: VecDeque<T>,
    capacity: usize,
    closed: bool,
}

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the item comes back to the caller.
    Full(T),
    /// The queue is closed (shutdown in progress).
    Closed(T),
}

impl<T> AdmissionQueue<T> {
    /// Creates a queue admitting at most `capacity` items (clamped to at
    /// least one).
    pub fn new(capacity: usize) -> AdmissionQueue<T> {
        AdmissionQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                capacity: capacity.max(1),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Admits `item`, or returns it to the caller when the queue is full
    /// or closed.  Never blocks.
    pub fn push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= inner.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Takes the oldest admitted item, blocking while the queue is empty
    /// and open.  Returns `None` only once the queue is closed *and*
    /// drained — admitted work always reaches a worker.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).unwrap();
        }
    }

    /// Stops admissions and wakes every blocked popper.  Already-admitted
    /// items remain poppable.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.ready.notify_all();
    }

    /// Items currently waiting.
    pub fn depth(&self) -> usize {
        self.inner.lock().unwrap().items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_is_fifo() {
        let queue = AdmissionQueue::new(4);
        for i in 0..4 {
            queue.push(i).unwrap();
        }
        assert_eq!(queue.depth(), 4);
        for i in 0..4 {
            assert_eq!(queue.pop(), Some(i));
        }
    }

    #[test]
    fn full_queue_sheds_immediately_and_returns_the_item() {
        let queue = AdmissionQueue::new(2);
        queue.push("a").unwrap();
        queue.push("b").unwrap();
        assert_eq!(queue.push("c"), Err(PushError::Full("c")));
        // Draining one slot re-opens admission.
        assert_eq!(queue.pop(), Some("a"));
        queue.push("c").unwrap();
    }

    #[test]
    fn close_rejects_new_work_but_drains_admitted_work() {
        let queue = AdmissionQueue::new(4);
        queue.push(1).unwrap();
        queue.push(2).unwrap();
        queue.close();
        assert_eq!(queue.push(3), Err(PushError::Closed(3)));
        assert_eq!(queue.pop(), Some(1));
        assert_eq!(queue.pop(), Some(2));
        assert_eq!(queue.pop(), None);
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn blocked_poppers_wake_on_push_and_on_close() {
        let queue = Arc::new(AdmissionQueue::new(4));
        let popped: Vec<Option<u32>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let queue = Arc::clone(&queue);
                    scope.spawn(move || queue.pop())
                })
                .collect();
            queue.push(7).unwrap();
            queue.push(8).unwrap();
            queue.close();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut got: Vec<_> = popped.into_iter().flatten().collect();
        got.sort_unstable();
        assert_eq!(got, vec![7, 8]);
    }
}
