//! Lock-free monotonic counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A lock-free monotonically increasing counter.
///
/// Cloning is cheap and shares the underlying cell, so the same counter
/// can be handed to many threads; increments use relaxed atomics (counts
/// are aggregates — no ordering is needed between them and other memory).
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A lock-free instantaneous value (a level, not a running total): the
/// owner [`Gauge::set`]s it whenever the measured quantity changes.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the current value.
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_holds_the_last_value() {
        let g = Gauge::default();
        let g2 = g.clone();
        g.set(7);
        g2.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn clones_share_state() {
        let c = Counter::new();
        let c2 = c.clone();
        c.inc();
        c2.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c2.get(), 5);
    }

    #[test]
    fn concurrent_increments_all_land() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }
}
