//! Bounded priority queue feeding the worker pool.
//!
//! Admission is strictly bounded: once `capacity` jobs are waiting,
//! [`BoundedQueue::push`] refuses with [`QueueFull`] and the HTTP layer
//! translates that into `429 Too Many Requests` + `Retry-After` instead of
//! buffering unboundedly. Within the bound, jobs pop highest-priority
//! first and FIFO within a priority level (a monotone sequence number
//! breaks ties, so equal-priority jobs can never starve each other).
//! Workers block in [`BoundedQueue::pop`] until a job arrives or
//! [`BoundedQueue::close`] ends the queue, and jobs admitted before the
//! close are still handed out.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Admission refused: the queue already holds `capacity` jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    /// The configured bound that was hit.
    pub capacity: usize,
}

impl fmt::Display for QueueFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job queue full ({} waiting)", self.capacity)
    }
}

impl std::error::Error for QueueFull {}

/// A job claimed from the queue, with the time it spent waiting.
#[derive(Debug, Clone, Copy)]
pub struct Popped {
    /// Registry id of the claimed job.
    pub job_id: u64,
    /// Priority it was enqueued with.
    pub priority: u8,
    /// Wall-clock time between admission and claim.
    pub waited: Duration,
}

struct Entry {
    priority: u8,
    seq: u64,
    job_id: u64,
    enqueued: Instant,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap: higher priority first, then older (smaller seq) first.
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Why taking the queue lock can fail.
const POISONED: &str = "a thread panicked while holding the queue lock";

struct Inner {
    heap: BinaryHeap<Entry>,
    next_seq: u64,
    closed: bool,
}

/// Bounded, blocking priority queue of job ids.
pub struct BoundedQueue {
    capacity: usize,
    inner: Mutex<Inner>,
    ready: Condvar,
}

impl BoundedQueue {
    /// Creates a queue admitting at most `capacity` waiting jobs.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                heap: BinaryHeap::new(),
                next_seq: 0,
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// The admission bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs currently waiting (excludes jobs already claimed by workers).
    pub fn depth(&self) -> usize {
        self.inner.lock().expect(POISONED).heap.len()
    }

    /// Admits a job; returns the queue depth *after* admission.
    ///
    /// # Errors
    ///
    /// [`QueueFull`] when the queue already holds `capacity` jobs.
    pub fn push(&self, job_id: u64, priority: u8) -> Result<usize, QueueFull> {
        let depth = {
            let mut inner = self.inner.lock().expect(POISONED);
            if inner.heap.len() >= self.capacity {
                return Err(QueueFull {
                    capacity: self.capacity,
                });
            }
            let seq = inner.next_seq;
            inner.next_seq += 1;
            inner.heap.push(Entry {
                priority,
                seq,
                job_id,
                enqueued: Instant::now(),
            });
            inner.heap.len()
        };
        self.ready.notify_one();
        Ok(depth)
    }

    /// Claims the highest-priority job, blocking until one arrives.
    /// Returns `None` only once the queue is closed and empty.
    pub fn pop(&self) -> Option<Popped> {
        let guard = self.inner.lock().expect(POISONED);
        let mut inner = self
            .ready
            .wait_while(guard, |inner| inner.heap.is_empty() && !inner.closed)
            .expect(POISONED);
        let entry = inner.heap.pop()?;
        Some(Popped {
            job_id: entry.job_id,
            priority: entry.priority,
            waited: entry.enqueued.elapsed(),
        })
    }

    /// Closes the queue and wakes every blocked [`pop`](Self::pop): jobs
    /// already waiting are still handed out, then `pop` returns `None`.
    pub fn close(&self) {
        self.inner.lock().expect(POISONED).closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn pops_highest_priority_first_fifo_within_a_level() {
        let q = BoundedQueue::new(8);
        q.push(1, 2).unwrap();
        q.push(2, 5).unwrap();
        q.push(3, 5).unwrap();
        q.push(4, 9).unwrap();
        let order: Vec<u64> = (0..4).map(|_| q.pop().unwrap().job_id).collect();
        assert_eq!(order, vec![4, 2, 3, 1]);
    }

    #[test]
    fn admission_is_bounded_and_reports_the_capacity() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.push(1, 0).unwrap(), 1);
        assert_eq!(q.push(2, 0).unwrap(), 2);
        assert_eq!(q.push(3, 0), Err(QueueFull { capacity: 2 }));
        // Draining one slot re-opens admission.
        q.pop().unwrap();
        assert!(q.push(3, 0).is_ok());
    }

    #[test]
    fn close_wakes_an_idle_pop_and_still_hands_out_admitted_jobs() {
        let q = Arc::new(BoundedQueue::new(2));
        let idle = {
            let q = q.clone();
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(
            idle.join().unwrap().is_none(),
            "close must wake an idle pop"
        );

        let q = BoundedQueue::new(2);
        q.push(1, 0).unwrap();
        q.push(2, 0).unwrap();
        q.close();
        assert_eq!(q.pop().map(|p| p.job_id), Some(1));
        assert_eq!(q.pop().map(|p| p.job_id), Some(2));
        assert!(q.pop().is_none());
    }

    #[test]
    fn blocked_pop_wakes_on_push() {
        let q = Arc::new(BoundedQueue::new(2));
        let q2 = q.clone();
        let handle = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        q.push(42, 1).unwrap();
        let popped = handle.join().unwrap().expect("push should wake the pop");
        assert_eq!(popped.job_id, 42);
        assert!(popped.waited <= Duration::from_secs(5));
    }
}
