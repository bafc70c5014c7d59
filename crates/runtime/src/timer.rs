//! The deadline queue both `GroupCore` shells schedule into.
//!
//! The shard worker keeps layer timers in one, and the simulator keeps its
//! packet arrivals and layer timers in another, so both shells fire a
//! timer by the same rule: never before its deadline, and entries due at
//! the same instant in the order they were pushed. Deadlines are absolute
//! [`Time`] values on the shell's clock (monotonic or virtual).
//!
//! Each timer layer keeps at most one timer pending, so a shard holds a
//! handful of entries per group; an ordered map costs nothing that a
//! timer wheel's O(1) insert would win back, and it fires exactly.

use ensemble_util::Time;
use std::collections::BTreeMap;

/// Items keyed by `(deadline, push order)`.
pub struct DeadlineQueue<T> {
    entries: BTreeMap<(Time, u64), T>,
    next_seq: u64,
}

impl<T> Default for DeadlineQueue<T> {
    fn default() -> Self {
        DeadlineQueue {
            entries: BTreeMap::new(),
            next_seq: 0,
        }
    }
}

impl<T> DeadlineQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `item` at `at`. A deadline already past is due at once.
    pub fn push(&mut self, at: Time, item: T) {
        self.entries.insert((at, self.next_seq), item);
        self.next_seq += 1;
    }

    /// Removes and returns the earliest entry whose deadline is at or
    /// before `now`, with that deadline; `None` if nothing is due.
    pub fn pop_due(&mut self, now: Time) -> Option<(Time, T)> {
        let entry = self.entries.first_entry()?;
        if entry.key().0 > now {
            return None;
        }
        let ((at, _), item) = entry.remove_entry();
        Some((at, item))
    }

    /// The deadline of the earliest pending entry.
    pub fn peek_time(&self) -> Option<Time> {
        self.entries.first_key_value().map(|((at, _), _)| *at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensemble_util::Duration;

    fn t(us: u64) -> Time {
        Time(Duration::from_micros(us).nanos())
    }

    fn drain<T>(q: &mut DeadlineQueue<T>, now: Time) -> Vec<(Time, T)> {
        std::iter::from_fn(|| q.pop_due(now)).collect()
    }

    #[test]
    fn nothing_pops_before_its_deadline() {
        let mut q = DeadlineQueue::new();
        q.push(Time(262_143), "late");
        assert!(q.pop_due(Time(131_072)).is_none());
        assert!(q.pop_due(Time(262_142)).is_none());
        assert_eq!(q.pop_due(Time(262_143)), Some((Time(262_143), "late")));
        // A deadline pushed after the clock has moved on still waits for
        // itself, and is due the instant it comes.
        q.push(t(20), "next");
        assert!(q.pop_due(t(19)).is_none());
        assert_eq!(q.pop_due(t(20)), Some((t(20), "next")));
    }

    #[test]
    fn near_timer_fires_in_order() {
        let mut q = DeadlineQueue::new();
        q.push(t(500), "b");
        q.push(t(300), "a");
        q.push(t(900), "c");
        assert_eq!(drain(&mut q, t(600)), vec![(t(300), "a"), (t(500), "b")]);
        assert_eq!(q.peek_time(), Some(t(900)));
        assert_eq!(drain(&mut q, t(1000)), vec![(t(900), "c")]);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn clock_jump_fires_everything_due() {
        let mut q = DeadlineQueue::new();
        q.push(t(100), 1u32);
        q.push(t(40_000_000), 2u32);
        q.push(t(100_000), 3u32);
        q.push(t(90_000_000), 4u32);
        // Jump 60 s forward in one step.
        let fired: Vec<u32> = drain(&mut q, t(60_000_000))
            .into_iter()
            .map(|(_, x)| x)
            .collect();
        assert_eq!(fired, vec![1, 3, 2]);
        assert_eq!(q.peek_time(), Some(t(90_000_000)));
    }

    #[test]
    fn past_deadline_fires_immediately() {
        let mut q = DeadlineQueue::new();
        assert!(q.pop_due(t(1000)).is_none());
        q.push(t(10), "late");
        assert_eq!(q.pop_due(t(1000)), Some((t(10), "late")));
    }

    #[test]
    fn dense_timers_all_fire_once() {
        let mut q = DeadlineQueue::new();
        for i in 0..1000u64 {
            q.push(t(37 * (i + 1)), i);
        }
        let mut fired = Vec::new();
        let mut at = 0u64;
        while q.peek_time().is_some() {
            at += 500;
            for (deadline, i) in drain(&mut q, t(at)) {
                assert!(deadline <= t(at));
                fired.push(i);
            }
        }
        assert_eq!(fired, (0..1000).collect::<Vec<_>>());
    }
}
