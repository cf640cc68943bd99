//! OS-noise and noisy-neighbor models.
//!
//! The MPI use case (§5.3 of the paper) studies run-to-run variability of
//! a tightly coupled application; its root causes are modeled here:
//!
//! * [`OsNoise`] — periodic OS daemons/interrupts that preempt a core for
//!   a fixed window every period (the classic fixed-work quantum model of
//!   OS-noise studies). Deterministic given its phase.
//! * [`NoisyNeighbor`] — a co-located tenant stealing a fraction of CPU
//!   and network capacity, the "consolidated infrastructure" effect that
//!   motivates bare-metal-as-a-service in §Toolkit.

use crate::time::Nanos;

/// Periodic noise: every `period`, the core is stolen for `duration`,
/// starting at `phase` past each period boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OsNoise {
    /// Interval between noise windows.
    pub period: Nanos,
    /// Length of each noise window.
    pub duration: Nanos,
    /// Offset of the window within each period.
    pub phase: Nanos,
}

impl OsNoise {
    /// A noise source; `duration` must be shorter than `period`.
    pub fn new(period: Nanos, duration: Nanos, phase: Nanos) -> Self {
        assert!(duration < period, "noise duty cycle must be < 1");
        OsNoise { period, duration, phase: Nanos(phase.0 % period.0) }
    }

    /// Long-run fraction of CPU stolen.
    pub fn duty_cycle(&self) -> f64 {
        self.duration.as_secs_f64() / self.period.as_secs_f64()
    }

    /// Is the core stolen at instant `t`?
    pub fn active_at(&self, t: Nanos) -> bool {
        let pos = (t.0 + self.period.0 - self.phase.0 % self.period.0) % self.period.0;
        pos < self.duration.0
    }

    /// Time at which `work` of useful compute, started at `start`,
    /// completes when this noise source preempts the core. Walks window
    /// by window; exact, not an average.
    pub fn finish(&self, start: Nanos, work: Nanos) -> Nanos {
        let mut t = start;
        let mut remaining = work;
        // If we start inside a noise window, skip to its end.
        loop {
            let pos = Nanos((t.0 + self.period.0 - self.phase.0 % self.period.0) % self.period.0);
            if pos < self.duration {
                t += self.duration - pos;
                continue;
            }
            // Useful time until the next window begins.
            let until_next = self.period - pos;
            if remaining <= until_next {
                return t + remaining;
            }
            remaining -= until_next;
            t += until_next + self.duration;
        }
    }
}

/// A co-located tenant stealing fixed shares of a node's resources.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoisyNeighbor {
    /// Fraction of CPU capacity stolen, in `[0, 1)`.
    pub cpu_share: f64,
    /// Fraction of NIC capacity stolen, in `[0, 1)`.
    pub net_share: f64,
}

impl NoisyNeighbor {
    /// A neighbor stealing the given shares.
    pub fn new(cpu_share: f64, net_share: f64) -> Self {
        assert!((0.0..1.0).contains(&cpu_share) && (0.0..1.0).contains(&net_share));
        NoisyNeighbor { cpu_share, net_share }
    }

    /// No neighbor (bare metal).
    pub fn none() -> Self {
        NoisyNeighbor { cpu_share: 0.0, net_share: 0.0 }
    }

    /// Inflate a compute duration by the stolen CPU share.
    pub fn inflate_compute(&self, d: Nanos) -> Nanos {
        d.scale(1.0 / (1.0 - self.cpu_share))
    }

    /// Inflate a network serialization duration by the stolen NIC share.
    pub fn inflate_network(&self, d: Nanos) -> Nanos {
        d.scale(1.0 / (1.0 - self.net_share))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noise() -> OsNoise {
        // 1 ms period, 100 us stolen, no phase.
        OsNoise::new(Nanos::from_millis(1), Nanos::from_micros(100), Nanos::ZERO)
    }

    #[test]
    fn duty_cycle() {
        assert!((noise().duty_cycle() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn active_windows() {
        let n = noise();
        assert!(n.active_at(Nanos::ZERO));
        assert!(n.active_at(Nanos::from_micros(99)));
        assert!(!n.active_at(Nanos::from_micros(100)));
        assert!(n.active_at(Nanos::from_millis(1)));
    }

    #[test]
    fn finish_with_no_interference_inside_one_window() {
        let n = noise();
        // Start right after the window; 500 us of work fits before the next.
        let start = Nanos::from_micros(100);
        assert_eq!(n.finish(start, Nanos::from_micros(500)), Nanos::from_micros(600));
    }

    #[test]
    fn finish_accounts_for_stolen_windows() {
        let n = noise();
        // 2701 us of work starting at 100us: crosses 3 noise windows
        // (at 1 ms, 2 ms and 3 ms), each stealing 100 us.
        let start = Nanos::from_micros(100);
        let done = n.finish(start, Nanos::from_micros(2701));
        assert_eq!(done, Nanos::from_micros(100 + 2701 + 300));
    }

    #[test]
    fn finish_exact_boundary_does_not_enter_next_window() {
        let n = noise();
        // Work that ends exactly when the next window begins pays nothing.
        let done = n.finish(Nanos::from_micros(100), Nanos::from_micros(2700));
        assert_eq!(done, Nanos::from_micros(100 + 2700 + 200));
    }

    #[test]
    fn finish_starting_inside_window_defers() {
        let n = noise();
        let done = n.finish(Nanos::from_micros(50), Nanos::from_micros(10));
        assert_eq!(done, Nanos::from_micros(110));
    }

    #[test]
    fn long_run_inflation_matches_duty_cycle() {
        let n = noise();
        let work = Nanos::from_secs(1);
        let done = n.finish(Nanos::ZERO, work);
        let inflation = done.as_secs_f64() / work.as_secs_f64();
        assert!((inflation - 1.0 / 0.9).abs() < 0.01, "inflation {inflation}");
    }

    #[test]
    fn neighbor_inflation() {
        let nb = NoisyNeighbor::new(0.5, 0.25);
        assert_eq!(nb.inflate_compute(Nanos(100)), Nanos(200));
        assert_eq!(nb.inflate_network(Nanos(300)), Nanos(400));
        let quiet = NoisyNeighbor::none();
        assert_eq!(quiet.inflate_compute(Nanos(100)), Nanos(100));
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// finish() is exact: total elapsed = work + stolen windows,
            /// and is monotone in work.
            #[test]
            fn finish_monotone_and_bounded(
                start in 0u64..10_000_000,
                w1 in 1u64..5_000_000,
                extra in 0u64..5_000_000,
            ) {
                let n = OsNoise::new(Nanos::from_millis(1), Nanos::from_micros(100), Nanos::from_micros(250));
                let f1 = n.finish(Nanos(start), Nanos(w1));
                let f2 = n.finish(Nanos(start), Nanos(w1 + extra));
                prop_assert!(f2 >= f1);
                // Elapsed at least the work, at most work/(1-duty) plus two windows.
                let elapsed = (f1 - Nanos(start)).as_secs_f64();
                let work = Nanos(w1).as_secs_f64();
                prop_assert!(elapsed >= work);
                prop_assert!(elapsed <= work / 0.9 + 0.0002, "elapsed {} work {}", elapsed, work);
            }
        }
    }
}
