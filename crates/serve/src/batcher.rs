//! Dynamic request batching.
//!
//! The batched hot path (`Dlrm::predict_batch_into`, one register-tiled GEMM per layer
//! on the serving thread) amortizes weight traffic and dispatch over the batch, but live
//! traffic arrives one query at a time. The dynamic batcher buys batch efficiency at a
//! bounded latency price with the standard serving policy (as in clipper/triton-style
//! servers): coalesce queries until either **max_batch** requests are pending (size
//! flush) or the oldest pending request has waited **max_wait_us** (deadline flush).
//!
//! The batcher is clock-agnostic: callers pass arrival/poll timestamps in microseconds
//! on whatever clock they use. The replay driver feeds it virtual timestamps from the
//! traffic trace, which keeps batching decisions deterministic and testable — no
//! wall-clock flakiness in the flush tests. The threaded runtime adds one rule on a
//! clock that runs by itself: a worker with nothing to serve never waits for a
//! deadline, it [`drain`](DynamicBatcher::drain)s what is pending at once.

use crate::error::ServeError;

/// The coalescing policy: flush on size or on deadline, whichever comes first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPolicy {
    /// Maximum requests per batch (size flush threshold).
    pub max_batch: usize,
    /// Maximum time the oldest pending request may wait, in microseconds.
    pub max_wait_us: f64,
}

impl BatchPolicy {
    /// Build a policy.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] if `max_batch` is zero or `max_wait_us` is
    /// negative or not finite.
    pub fn new(max_batch: usize, max_wait_us: f64) -> Result<Self, ServeError> {
        if max_batch == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "batch policy needs max_batch >= 1".to_string(),
            });
        }
        if !max_wait_us.is_finite() || max_wait_us < 0.0 {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "batch policy needs a finite non-negative max_wait_us, got {max_wait_us}"
                ),
            });
        }
        Ok(Self {
            max_batch,
            max_wait_us,
        })
    }
}

/// Why a batch was flushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The batch reached `max_batch` requests.
    Size,
    /// The oldest pending request reached `max_wait_us`.
    Deadline,
    /// What was pending was flushed before either edge: at the end of the stream, or by
    /// an idle runtime worker.
    Drain,
}

/// A flushed batch: the requests in arrival order plus when and why the flush fired.
#[derive(Debug, Clone, PartialEq)]
pub struct FlushedBatch<T> {
    /// The coalesced requests, in arrival order.
    pub requests: Vec<T>,
    /// When the flush fired (microseconds, caller's clock): the filling request's
    /// arrival for a size flush, the deadline for a deadline flush, the drain time for
    /// a drain.
    pub trigger_us: f64,
    /// Which policy edge fired.
    pub reason: FlushReason,
}

impl<T> FlushedBatch<T> {
    /// Number of requests in the batch.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the batch is empty (never true for a batch the batcher emitted).
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

/// The dynamic batcher: one pending batch, flushed on size or deadline.
#[derive(Debug, Clone)]
pub struct DynamicBatcher<T> {
    policy: BatchPolicy,
    pending: Vec<T>,
    oldest_arrival_us: f64,
}

impl<T> DynamicBatcher<T> {
    /// Create an empty batcher with the given policy. Nothing is reserved: the pending
    /// batch grows with what is offered, so `max_batch` is a threshold, never an
    /// allocation (every flush hands its storage to the batch anyway).
    pub fn new(policy: BatchPolicy) -> Self {
        Self {
            policy,
            pending: Vec::new(),
            oldest_arrival_us: 0.0,
        }
    }

    /// The active policy.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// Number of requests currently pending.
    pub(crate) fn pending(&self) -> usize {
        self.pending.len()
    }

    /// The deadline of the pending batch (oldest arrival + max wait), if any requests
    /// are pending.
    pub(crate) fn deadline_us(&self) -> Option<f64> {
        if self.pending.is_empty() {
            None
        } else {
            Some(self.oldest_arrival_us + self.policy.max_wait_us)
        }
    }

    /// Flush the pending batch if its deadline has passed at `now_us`. Call this before
    /// offering a request that arrives at `now_us`, so an overdue batch is not grown
    /// past its deadline.
    pub fn poll(&mut self, now_us: f64) -> Option<FlushedBatch<T>> {
        match self.deadline_us() {
            Some(deadline) if deadline <= now_us => Some(FlushedBatch {
                requests: std::mem::take(&mut self.pending),
                trigger_us: deadline,
                reason: FlushReason::Deadline,
            }),
            _ => None,
        }
    }

    /// Enqueue a request arriving at `arrival_us`; flushes and returns the batch when it
    /// reaches the size threshold. Arrivals must be offered in non-decreasing time order.
    pub fn offer(&mut self, request: T, arrival_us: f64) -> Option<FlushedBatch<T>> {
        if self.pending.is_empty() {
            self.oldest_arrival_us = arrival_us;
        }
        self.pending.push(request);
        if self.pending.len() >= self.policy.max_batch {
            Some(FlushedBatch {
                requests: std::mem::take(&mut self.pending),
                trigger_us: arrival_us,
                reason: FlushReason::Size,
            })
        } else {
            None
        }
    }

    /// Flush what is pending at `now_us` (the batch's trigger time), whatever its size
    /// and deadline.
    pub fn drain(&mut self, now_us: f64) -> Option<FlushedBatch<T>> {
        if self.pending.is_empty() {
            None
        } else {
            Some(FlushedBatch {
                requests: std::mem::take(&mut self.pending),
                trigger_us: now_us,
                reason: FlushReason::Drain,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(max_batch: usize, max_wait_us: f64) -> BatchPolicy {
        BatchPolicy::new(max_batch, max_wait_us).unwrap()
    }

    #[test]
    fn policy_validation() {
        assert!(BatchPolicy::new(0, 100.0).is_err());
        assert!(BatchPolicy::new(8, -1.0).is_err());
        assert!(BatchPolicy::new(8, f64::NAN).is_err());
        assert!(BatchPolicy::new(8, 0.0).is_ok());
    }

    #[test]
    fn flushes_on_size_with_arrival_order_preserved() {
        let mut batcher = DynamicBatcher::new(policy(3, 1e9));
        assert!(batcher.offer(10, 0.0).is_none());
        assert!(batcher.offer(11, 1.0).is_none());
        assert_eq!(batcher.pending(), 2);
        let batch = batcher.offer(12, 2.0).expect("size flush");
        assert_eq!(batch.requests, vec![10, 11, 12]);
        assert_eq!(batch.reason, FlushReason::Size);
        assert_eq!(batch.trigger_us, 2.0);
        assert_eq!(batcher.pending(), 0);
        assert_eq!(batcher.deadline_us(), None);
    }

    #[test]
    fn flushes_on_deadline() {
        let mut batcher = DynamicBatcher::new(policy(100, 500.0));
        assert!(batcher.offer(1, 1000.0).is_none());
        assert!(batcher.offer(2, 1200.0).is_none());
        // Deadline tracks the OLDEST pending arrival.
        assert_eq!(batcher.deadline_us(), Some(1500.0));
        assert!(batcher.poll(1499.9).is_none());
        let batch = batcher.poll(1600.0).expect("deadline flush");
        assert_eq!(batch.requests, vec![1, 2]);
        assert_eq!(batch.reason, FlushReason::Deadline);
        assert_eq!(batch.trigger_us, 1500.0);
        assert!(
            batcher.poll(2000.0).is_none(),
            "nothing pending after the flush"
        );
    }

    #[test]
    fn deadline_resets_after_each_flush() {
        let mut batcher = DynamicBatcher::new(policy(2, 100.0));
        let first = batcher.offer(1, 0.0);
        assert!(first.is_none());
        let flushed = batcher.offer(2, 10.0).unwrap();
        assert_eq!(flushed.len(), 2);
        assert!(!flushed.is_empty());
        // A new batch starts its own deadline from its own oldest arrival.
        assert!(batcher.offer(3, 500.0).is_none());
        assert_eq!(batcher.deadline_us(), Some(600.0));
    }

    #[test]
    fn drain_returns_the_remainder() {
        let mut batcher = DynamicBatcher::new(policy(10, 1e6));
        assert!(batcher.drain(0.0).is_none());
        batcher.offer(7, 3.0);
        let batch = batcher.drain(9.0).expect("drain flush");
        assert_eq!(batch.requests, vec![7]);
        assert_eq!(batch.reason, FlushReason::Drain);
        assert_eq!(batch.trigger_us, 9.0);
    }

    #[test]
    fn max_batch_one_flushes_every_offer() {
        let mut batcher = DynamicBatcher::new(policy(1, 1e6));
        for i in 0..5 {
            let batch = batcher.offer(i, i as f64).expect("immediate flush");
            assert_eq!(batch.requests, vec![i]);
        }
    }
}
