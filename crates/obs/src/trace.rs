//! Per-job stage tracing.
//!
//! A [`JobTrace`] is a tiny `Arc` of atomic stage timestamps, cheap to
//! clone into every layer that touches a job. Each stage is marked at
//! most semantically once (first-write-wins, except the last-snapshot
//! mark which tracks the most recent snapshot), using a monotonic clock
//! anchored at trace creation. [`JobTrace::durations`] derives the
//! stage durations the serve stack reports:
//!
//! - `queue_wait`: submitted → dequeued by a worker
//! - `first_snapshot`: dequeued → first snapshot written to the sink
//! - `generation`: dequeued → last snapshot written to the sink
//! - `delivery`: last snapshot → result delivered to the ticket
//! - `total`: submitted → delivered
//!
//! A job takes, writes and marks each snapshot on its worker thread, so
//! `first_snapshot` and `generation` include the sink's encode and
//! write time as well as the decode.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stage timestamps are stored as nanoseconds-since-base **plus one**,
/// so `0` unambiguously means "not marked yet".
struct Inner {
    base: Instant,
    submitted: AtomicU64,
    dequeued: AtomicU64,
    first_snapshot: AtomicU64,
    last_snapshot: AtomicU64,
    delivered: AtomicU64,
}

/// Monotonic stage timestamps for one job. See the module docs.
#[derive(Clone)]
pub struct JobTrace {
    inner: Arc<Inner>,
}

impl Default for JobTrace {
    fn default() -> Self {
        JobTrace::new()
    }
}

impl std::fmt::Debug for JobTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobTrace").field("durations", &self.durations()).finish()
    }
}

fn now_ns(base: Instant) -> u64 {
    Instant::now().duration_since(base).as_nanos() as u64
}

fn mark_once(slot: &AtomicU64, base: Instant) {
    let _ = slot.compare_exchange(0, now_ns(base) + 1, Ordering::Relaxed, Ordering::Relaxed);
}

fn read(slot: &AtomicU64) -> Option<u64> {
    match slot.load(Ordering::Relaxed) {
        0 => None,
        v => Some(v - 1),
    }
}

impl JobTrace {
    /// A fresh trace with no stages marked; the clock starts now.
    pub fn new() -> JobTrace {
        JobTrace {
            inner: Arc::new(Inner {
                base: Instant::now(),
                submitted: AtomicU64::new(0),
                dequeued: AtomicU64::new(0),
                first_snapshot: AtomicU64::new(0),
                last_snapshot: AtomicU64::new(0),
                delivered: AtomicU64::new(0),
            }),
        }
    }

    /// The job was accepted into the queue.
    pub fn mark_submitted(&self) {
        mark_once(&self.inner.submitted, self.inner.base);
    }

    /// A worker popped the job off the queue.
    pub fn mark_dequeued(&self) {
        mark_once(&self.inner.dequeued, self.inner.base);
    }

    /// One snapshot was written to the job's sink: records the first
    /// occurrence for `first_snapshot` and keeps updating
    /// `last_snapshot`.
    pub fn mark_snapshot(&self) {
        let ns = now_ns(self.inner.base) + 1;
        let _ =
            self.inner.first_snapshot.compare_exchange(0, ns, Ordering::Relaxed, Ordering::Relaxed);
        self.inner.last_snapshot.store(ns, Ordering::Relaxed);
    }

    /// The finished result was handed to the reply channel.
    pub fn mark_delivered(&self) {
        mark_once(&self.inner.delivered, self.inner.base);
    }

    /// Derive stage durations from whatever stages have been marked.
    /// A duration is `None` until both of its endpoints exist; clock
    /// retrograde (impossible with `Instant`, but cheap to guard)
    /// saturates to zero.
    pub fn durations(&self) -> StageDurations {
        let sub = read(&self.inner.submitted);
        let deq = read(&self.inner.dequeued);
        let first = read(&self.inner.first_snapshot);
        let last = read(&self.inner.last_snapshot);
        let done = read(&self.inner.delivered);
        let span = |a: Option<u64>, b: Option<u64>| -> Option<Duration> {
            Some(Duration::from_nanos(b?.saturating_sub(a?)))
        };
        StageDurations {
            queue_wait: span(sub, deq),
            first_snapshot: span(deq, first),
            generation: span(deq, last),
            delivery: span(last, done),
            total: span(sub, done),
        }
    }
}

/// Derived per-stage durations of one job. All fields are `None` until
/// both endpoints of the stage have been marked (e.g. a cache hit that
/// replays zero snapshots never gets `first_snapshot`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageDurations {
    pub queue_wait: Option<Duration>,
    pub first_snapshot: Option<Duration>,
    pub generation: Option<Duration>,
    pub delivery: Option<Duration>,
    pub total: Option<Duration>,
}

impl StageDurations {
    /// Queue wait in whole milliseconds, if known.
    pub fn queue_wait_ms(&self) -> Option<u64> {
        self.queue_wait.map(|d| d.as_millis() as u64)
    }

    /// Generation (dequeue → last snapshot) in whole milliseconds.
    pub fn generation_ms(&self) -> Option<u64> {
        self.generation.map(|d| d.as_millis() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmarked_stages_stay_none() {
        let trace = JobTrace::new();
        assert_eq!(trace.durations(), StageDurations::default());
        trace.mark_submitted();
        let d = trace.durations();
        assert!(d.queue_wait.is_none() && d.total.is_none());
    }

    #[test]
    fn full_lifecycle_orders_durations() {
        let trace = JobTrace::new();
        trace.mark_submitted();
        std::thread::sleep(Duration::from_millis(2));
        trace.mark_dequeued();
        trace.mark_snapshot();
        std::thread::sleep(Duration::from_millis(2));
        trace.mark_snapshot();
        trace.mark_delivered();
        let d = trace.durations();
        assert!(d.queue_wait.unwrap() >= Duration::from_millis(2));
        assert!(d.first_snapshot.unwrap() <= d.generation.unwrap());
        assert!(d.total.unwrap() >= d.queue_wait.unwrap() + d.generation.unwrap());
        assert!(d.delivery.is_some());
    }

    #[test]
    fn marks_are_first_write_wins() {
        let trace = JobTrace::new();
        trace.mark_submitted();
        let before = trace.durations();
        std::thread::sleep(Duration::from_millis(2));
        trace.mark_submitted(); // ignored
        trace.mark_dequeued();
        trace.mark_delivered();
        let after = trace.durations();
        assert!(after.queue_wait.unwrap() >= Duration::from_millis(2), "{before:?} {after:?}");
    }

    #[test]
    fn clones_share_state() {
        let trace = JobTrace::new();
        let clone = trace.clone();
        clone.mark_submitted();
        clone.mark_dequeued();
        assert!(trace.durations().queue_wait.is_some());
    }
}
