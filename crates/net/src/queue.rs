//! The workspace's one backpressure policy: a bounded MPSC queue that
//! drops the *oldest* droppable entry on overflow instead of blocking
//! the producer.
//!
//! Both transports use it — per-peer outbound socket queues in
//! [`crate::socket`] and the runtime host's input queue in
//! vsr-runtime — so "what happens when a consumer can't keep up" has
//! exactly one answer: the newest message is admitted, the oldest
//! unprocessed one is dropped, the drop is counted, and the producer
//! (the runtime's host thread, holding protocol state) never stalls. Dropping old
//! mail is safe for the same reason the network may drop it: every
//! protocol interaction is covered by a retry timer, and retries carry
//! fresher state than the queue entry they replace.
//!
//! Entries pushed with [`push_critical`](BoundedQueue::push_critical)
//! (control items like shutdown, or client requests with a waiting
//! reply channel) are never evicted and may transiently exceed the
//! capacity — overflow policy applies only to traffic the protocol can
//! regenerate.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Why a receive returned no item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// No item arrived within the timeout; the queue is still open.
    TimedOut,
    /// The queue is closed and drained; no item will ever arrive.
    Closed,
}

struct State<T> {
    items: VecDeque<(T, bool)>, // (item, droppable)
    closed: bool,
}

/// Shared overflow accounting for a family of queues. Two outcomes,
/// two counters: an *eviction* admits the new item by dropping the
/// oldest droppable resident (lost-old), a *rejection* refuses the new
/// item because every resident is critical (lost-new). Conflating them
/// would hide which side of the queue is losing traffic — an operator
/// tuning capacity needs to know whether backpressure is shedding
/// stale retransmissions (benign) or refusing fresh work (not).
#[derive(Debug, Clone, Default)]
pub struct DropCounters {
    evictions: Arc<AtomicU64>,
    rejections: Arc<AtomicU64>,
}

impl DropCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        DropCounters::default()
    }

    /// Successful-eviction total (oldest droppable entry removed to
    /// admit a newer push).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Rejected-push total (queue full of critical entries; the new
    /// item was refused).
    pub fn rejections(&self) -> u64 {
        self.rejections.load(Ordering::Relaxed)
    }
}

/// A bounded multi-producer queue with drop-oldest overflow. See the
/// module docs for the policy rationale.
pub struct BoundedQueue<T> {
    capacity: usize,
    drops: DropCounters,
    state: Mutex<State<T>>,
    ready: Condvar,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` droppable entries (minimum
    /// 1). Overflow outcomes increment `drops` — pass counters shared
    /// with the harness's metrics so losses are observable, not silent.
    pub fn new(capacity: usize, drops: DropCounters) -> Arc<Self> {
        Arc::new(BoundedQueue {
            capacity: capacity.max(1),
            drops,
            state: Mutex::new(State { items: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // A panicking holder poisons the mutex; the queue state itself
        // is always consistent (every mutation is a single push/pop),
        // so continuing past poison is sound and keeps shutdown paths
        // working even after a thread dies.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueue a droppable item. Returns `false` if the item was *not*
    /// admitted (queue closed, or full of critical entries). When a
    /// full queue admits the item by evicting the oldest droppable
    /// entry, the eviction is counted and this still returns `true`.
    pub fn push(&self, item: T) -> bool {
        let mut s = self.lock();
        if s.closed {
            return false;
        }
        if s.items.len() >= self.capacity {
            match s.items.iter().position(|(_, droppable)| *droppable) {
                Some(oldest) => {
                    s.items.remove(oldest);
                    self.drops.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => {
                    // Every resident entry outranks this one: the new
                    // item is refused, which is a different loss than
                    // an eviction and counted separately.
                    self.drops.rejections.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
            }
        }
        s.items.push_back((item, true));
        drop(s);
        self.ready.notify_one();
        true
    }

    /// Enqueue an item the overflow policy must never evict. Critical
    /// items may transiently push the queue past its capacity; they
    /// are rare control messages, not traffic. Returns `false` only if
    /// the queue is closed.
    pub fn push_critical(&self, item: T) -> bool {
        let mut s = self.lock();
        if s.closed {
            return false;
        }
        s.items.push_back((item, false));
        drop(s);
        self.ready.notify_one();
        true
    }

    /// Dequeue, waiting up to `timeout`. A closed queue still drains
    /// its remaining items before reporting [`RecvError::Closed`].
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvError> {
        let s = self.lock();
        let (mut s, _wait) = self
            .ready
            .wait_timeout_while(s, timeout, |s| s.items.is_empty() && !s.closed)
            .unwrap_or_else(PoisonError::into_inner);
        match s.items.pop_front() {
            Some((item, _)) => Ok(item),
            None if s.closed => Err(RecvError::Closed),
            None => Err(RecvError::TimedOut),
        }
    }

    /// Dequeue without waiting.
    pub fn try_recv(&self) -> Option<T> {
        self.lock().items.pop_front().map(|(item, _)| item)
    }

    /// Entries currently queued.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Is the queue empty right now?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Close the queue: producers are refused from now on, consumers
    /// drain what remains and then see [`RecvError::Closed`].
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Evictions counted by this queue's shared counters (oldest
    /// droppable entry removed to admit a newer push).
    pub fn evicted_count(&self) -> u64 {
        self.drops.evictions()
    }

    /// Rejected pushes counted by this queue's shared counters (new
    /// item refused because every resident entry is critical).
    pub fn rejected_count(&self) -> u64 {
        self.drops.rejections()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(capacity: usize) -> Arc<BoundedQueue<u32>> {
        BoundedQueue::new(capacity, DropCounters::new())
    }

    #[test]
    fn fifo_within_capacity() {
        let q = q(4);
        for i in 0..4 {
            assert!(q.push(i));
        }
        for i in 0..4 {
            assert_eq!(q.recv_timeout(Duration::from_millis(10)), Ok(i));
        }
        assert_eq!(q.recv_timeout(Duration::from_millis(1)), Err(RecvError::TimedOut));
        assert_eq!(q.evicted_count(), 0);
        assert_eq!(q.rejected_count(), 0);
    }

    #[test]
    fn overflow_drops_oldest_droppable() {
        let q = q(2);
        assert!(q.push(1));
        assert!(q.push(2));
        assert!(q.push(3)); // evicts 1
        assert_eq!(q.evicted_count(), 1);
        assert_eq!(q.rejected_count(), 0, "an eviction is not a rejection");
        assert_eq!(q.try_recv(), Some(2));
        assert_eq!(q.try_recv(), Some(3));
    }

    #[test]
    fn critical_entries_survive_overflow() {
        let q = q(2);
        assert!(q.push_critical(10));
        assert!(q.push_critical(11));
        // Queue is at capacity with nothing evictable: the droppable
        // push is refused and counted as a rejection, not an eviction.
        assert!(!q.push(1));
        assert_eq!(q.rejected_count(), 1);
        assert_eq!(q.evicted_count(), 0, "nothing was evicted");
        // Critical pushes still land, past capacity.
        assert!(q.push_critical(12));
        assert_eq!(q.len(), 3);
        assert_eq!(q.try_recv(), Some(10));
        // Mixed: droppable 2 admitted by evicting nothing (len 2 == cap
        // after the pop? 11,12 remain → full; 11,12 are critical → refuse).
        assert!(!q.push(2));
        assert_eq!(q.rejected_count(), 2);
        assert_eq!(q.evicted_count(), 0);
    }

    #[test]
    fn eviction_skips_critical_head() {
        let q = q(2);
        assert!(q.push_critical(10));
        assert!(q.push(1));
        assert!(q.push(2)); // evicts 1, not the critical head
        assert_eq!(q.try_recv(), Some(10));
        assert_eq!(q.try_recv(), Some(2));
        assert_eq!(q.evicted_count(), 1);
        assert_eq!(q.rejected_count(), 0);
    }

    #[test]
    fn close_drains_then_reports_closed() {
        let q = q(4);
        assert!(q.push(1));
        q.close();
        assert!(!q.push(2), "closed queue refuses producers");
        assert!(!q.push_critical(3));
        assert_eq!(q.recv_timeout(Duration::from_millis(10)), Ok(1));
        assert_eq!(q.recv_timeout(Duration::from_millis(10)), Err(RecvError::Closed));
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the runtime's mailboxes are this queue shared across OS threads; this checks \
                  the wake"
    )]
    fn recv_wakes_on_cross_thread_push() {
        let q = q(4);
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            q2.push(7)
        });
        assert_eq!(q.recv_timeout(Duration::from_secs(5)), Ok(7));
        assert!(t.join().expect("pusher thread"));
    }

    #[test]
    fn shared_drop_counters_aggregate_across_queues() {
        let drops = DropCounters::new();
        let a: Arc<BoundedQueue<u32>> = BoundedQueue::new(1, drops.clone());
        let b: Arc<BoundedQueue<u32>> = BoundedQueue::new(1, drops.clone());
        assert!(a.push(1) && a.push(2));
        assert!(b.push(1) && b.push(2));
        assert_eq!(drops.evictions(), 2);
        // Rejections aggregate through the same shared handle: drain
        // each queue, fill it with a critical entry, then push.
        assert_eq!(a.try_recv(), Some(2));
        assert_eq!(b.try_recv(), Some(2));
        assert!(a.push_critical(9) && b.push_critical(9));
        assert!(!a.push(3));
        assert!(!b.push(3));
        assert_eq!(drops.rejections(), 2);
        assert_eq!(drops.evictions(), 2, "rejections did not bump evictions");
    }
}
