//! Time and step budgets.
//!
//! Every engine in this crate is budgeted: real solvers time out, and the
//! paper's evaluation (Tables 2–3) depends on timeouts being observable.
//! A [`Budget`] combines a wall-clock deadline with a deterministic step
//! limit so tests can be time-independent.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A thread-safe cancellation handle: portfolio legs and scheduler lanes
/// hold each other's flags and cancel the losers as soon as a sound answer
/// lands. The flag records *when* cancellation was requested, so observers
/// can account for cancellation latency (time from the request to the
/// moment a lane actually stopped).
#[derive(Debug, Clone, Default)]
pub struct CancelFlag(Arc<CancelInner>);

#[derive(Debug, Default)]
struct CancelInner {
    cancelled: AtomicBool,
    at: OnceLock<Instant>,
}

impl CancelFlag {
    /// Creates an un-set flag.
    pub fn new() -> CancelFlag {
        CancelFlag::default()
    }

    /// Requests cancellation of every budget carrying this flag. The first
    /// call stamps the cancellation instant; repeated calls are no-ops.
    pub fn cancel(&self) {
        self.0.at.get_or_init(Instant::now);
        self.0.cancelled.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.cancelled.load(Ordering::Acquire)
    }

    /// The instant the first `cancel()` call was made, if any.
    pub fn cancelled_at(&self) -> Option<Instant> {
        if self.is_cancelled() {
            self.0.at.get().copied()
        } else {
            None
        }
    }

    /// Time elapsed since cancellation was requested — the cancellation
    /// latency as observed by a lane that is shutting down now.
    pub fn latency(&self) -> Option<Duration> {
        self.cancelled_at().map(|at| at.elapsed())
    }
}

/// A combined wall-clock and step budget.
///
/// # Examples
///
/// ```
/// use staub_solver::Budget;
/// use std::time::Duration;
///
/// let budget = Budget::new(Duration::from_millis(100), 10_000);
/// assert!(!budget.exhausted());
/// ```
#[derive(Debug, Clone)]
pub struct Budget {
    deadline: Instant,
    duration: Duration,
    steps_initial: u64,
    steps_left: std::cell::Cell<u64>,
    cancel: Option<CancelFlag>,
}

impl Budget {
    /// Creates a budget starting now.
    pub fn new(duration: Duration, steps: u64) -> Budget {
        Budget {
            deadline: Instant::now() + duration,
            duration,
            steps_initial: steps,
            steps_left: std::cell::Cell::new(steps),
            cancel: None,
        }
    }

    /// Creates a budget that can additionally be cancelled from another
    /// thread (see [`CancelFlag`]).
    pub fn with_cancel(duration: Duration, steps: u64, cancel: CancelFlag) -> Budget {
        Budget {
            cancel: Some(cancel),
            ..Budget::new(duration, steps)
        }
    }

    /// A budget that is effectively unlimited (for tests).
    pub fn unlimited() -> Budget {
        Budget::new(Duration::from_secs(3600), u64::MAX)
    }

    fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelFlag::is_cancelled)
    }

    /// Whether this budget was cooperatively cancelled (as opposed to
    /// running out of time or steps).
    pub fn is_cancelled(&self) -> bool {
        self.cancelled()
    }

    /// The cancellation flag attached to this budget, if any.
    pub fn cancel_flag(&self) -> Option<&CancelFlag> {
        self.cancel.as_ref()
    }

    /// The wall-clock duration this budget was created with.
    pub fn duration(&self) -> Duration {
        self.duration
    }

    /// Consumes `n` steps and reports whether the budget is now exhausted.
    ///
    /// Cancellation is seen on every call (one atomic load), so a cancelled
    /// engine stops at its next step. The wall clock is consulted only when
    /// the step count crosses a multiple of 4096, to keep the check cheap
    /// in inner loops.
    pub fn consume(&self, n: u64) -> bool {
        let left = self.steps_left.get();
        let new_left = left.saturating_sub(n);
        self.steps_left.set(new_left);
        if new_left == 0 || self.cancelled() {
            return true;
        }
        (left / 4096) != (new_left / 4096) && Instant::now() >= self.deadline
    }

    /// Returns `true` if any limit has been reached or the budget was
    /// cancelled.
    pub fn exhausted(&self) -> bool {
        self.steps_left.get() == 0 || self.cancelled() || Instant::now() >= self.deadline
    }

    /// Remaining steps (saturating).
    pub fn steps_left(&self) -> u64 {
        self.steps_left.get()
    }

    /// Steps consumed so far (the scheduler's per-lane accounting).
    pub fn steps_used(&self) -> u64 {
        self.steps_initial.saturating_sub(self.steps_left.get())
    }

    /// Creates a child budget with a fraction of the remaining steps and the
    /// same deadline. `num / den` of the remaining steps are allocated.
    pub fn fraction(&self, num: u64, den: u64) -> Budget {
        let steps = (self.steps_left.get() / den * num).max(1);
        Budget {
            deadline: self.deadline,
            duration: self.duration,
            steps_initial: steps,
            steps_left: std::cell::Cell::new(steps),
            cancel: self.cancel.clone(),
        }
    }
}

impl Default for Budget {
    /// One second and one million steps — a sensible interactive default.
    fn default() -> Budget {
        Budget::new(Duration::from_secs(1), 1_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_budget_exhausts() {
        let b = Budget::new(Duration::from_secs(3600), 10);
        assert!(!b.exhausted());
        assert!(!b.consume(5));
        assert!(b.consume(5));
        assert!(b.exhausted());
        assert_eq!(b.steps_left(), 0);
    }

    #[test]
    fn time_budget_exhausts() {
        let b = Budget::new(Duration::from_millis(0), u64::MAX);
        std::thread::sleep(Duration::from_millis(1));
        assert!(b.exhausted());
    }

    #[test]
    fn fraction_shares_deadline() {
        let b = Budget::new(Duration::from_secs(3600), 1000);
        let child = b.fraction(1, 2);
        assert_eq!(child.steps_left(), 500);
        assert!(!child.exhausted());
    }

    #[test]
    fn unlimited_is_not_exhausted() {
        assert!(!Budget::unlimited().exhausted());
    }

    #[test]
    fn cancellation_exhausts_immediately() {
        let flag = CancelFlag::new();
        let b = Budget::with_cancel(Duration::from_secs(3600), u64::MAX, flag.clone());
        assert!(!b.exhausted());
        flag.cancel();
        assert!(b.exhausted());
        // consume() sees the flag on its very first call, far from any
        // 4096-step clock boundary.
        let b2 = Budget::with_cancel(Duration::from_secs(3600), 10_000, flag);
        assert!(b2.consume(1), "the first step after cancel() sees the flag");
        assert_eq!(b2.steps_used(), 1);
    }

    #[test]
    fn cancellation_records_latency() {
        let flag = CancelFlag::new();
        assert!(flag.cancelled_at().is_none());
        assert!(flag.latency().is_none());
        flag.cancel();
        let at = flag.cancelled_at().expect("timestamp recorded");
        // Re-cancelling does not move the timestamp.
        flag.cancel();
        assert_eq!(flag.cancelled_at(), Some(at));
        assert!(flag.latency().expect("latency observable") < Duration::from_secs(1));
    }

    #[test]
    fn steps_used_accounting() {
        let b = Budget::new(Duration::from_secs(3600), 100);
        assert_eq!(b.steps_used(), 0);
        b.consume(30);
        assert_eq!(b.steps_used(), 30);
        b.consume(1000); // saturates at the budget
        assert_eq!(b.steps_used(), 100);
        let child = b.fraction(1, 2);
        assert_eq!(child.steps_used(), 0);
    }

    #[test]
    fn cancellation_crosses_threads() {
        let flag = CancelFlag::new();
        let b = Budget::with_cancel(Duration::from_secs(3600), u64::MAX, flag.clone());
        std::thread::scope(|scope| {
            scope.spawn(move || flag.cancel());
        });
        assert!(b.exhausted());
    }
}
