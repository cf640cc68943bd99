//! Analytic queueing primitives.
//!
//! Rather than modeling every queue with explicit events, contended
//! devices (a NIC link, a disk, a pool of cores) are modeled analytically:
//! each device remembers when it next becomes free, and admitting work
//! returns the `(start, finish)` interval the work occupies. This is exact
//! for FIFO work-conserving servers and keeps simulations fast and
//! allocation-free on the hot path (perf-book guidance: no boxing per
//! operation).

use crate::time::Nanos;

/// A single FIFO server (one NIC direction, one disk head, one lock).
#[derive(Debug, Clone, Default)]
pub struct Serial {
    next_free: Nanos,
    last_arrival: Nanos,
    busy_total: Nanos,
    jobs: u64,
}

impl Serial {
    /// A server that is free from time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Admit a job arriving at `now` that needs `service` time. Returns
    /// the `(start, finish)` interval; the server is busy until `finish`.
    /// Exact for nondecreasing arrival times.
    pub fn admit(&mut self, now: Nanos, service: Nanos) -> (Nanos, Nanos) {
        let start = now.max(self.next_free);
        let finish = start + service;
        self.next_free = finish;
        self.last_arrival = self.last_arrival.max(now);
        self.busy_total += service;
        self.jobs += 1;
        (start, finish)
    }

    /// Admit a job whose arrival time may be *earlier* than previously
    /// admitted jobs (callers with independent virtual-time cursors, e.g.
    /// parallel make jobs sharing one NIC). For in-order arrivals this is
    /// exactly [`admit`](Self::admit); an out-of-order (past-time) arrival
    /// is assumed to have fit into an idle gap — it pays its own service
    /// time but neither waits behind nor delays future-time jobs. Without
    /// this, a single future-time admission would spuriously serialize
    /// every earlier-time caller behind it.
    pub fn admit_relaxed(&mut self, now: Nanos, service: Nanos) -> (Nanos, Nanos) {
        if now >= self.last_arrival {
            return self.admit(now, service);
        }
        self.busy_total += service;
        self.jobs += 1;
        (now, now + service)
    }

    /// When the server next becomes idle.
    pub fn next_free(&self) -> Nanos {
        self.next_free
    }

    /// Total busy time accumulated.
    pub fn busy_total(&self) -> Nanos {
        self.busy_total
    }

    /// Jobs admitted so far.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: Nanos) -> f64 {
        if horizon == Nanos::ZERO {
            return 0.0;
        }
        self.busy_total.as_secs_f64() / horizon.as_secs_f64()
    }
}

/// A pool of identical FIFO servers (cores); each job takes the server
/// that frees up first — the greedy list-scheduling policy.
#[derive(Debug, Clone)]
pub struct MultiServer {
    next_free: Vec<Nanos>,
    busy_total: Nanos,
    jobs: u64,
}

impl MultiServer {
    /// A pool with `servers` identical servers (at least 1).
    pub fn new(servers: usize) -> Self {
        assert!(servers >= 1, "MultiServer needs at least one server");
        MultiServer { next_free: vec![Nanos::ZERO; servers], busy_total: Nanos::ZERO, jobs: 0 }
    }

    /// Number of servers in the pool.
    pub fn servers(&self) -> usize {
        self.next_free.len()
    }

    /// Admit a job arriving at `now` needing `service` time on one server.
    /// Returns `(server index, start, finish)`.
    pub fn admit(&mut self, now: Nanos, service: Nanos) -> (usize, Nanos, Nanos) {
        // Pick the earliest-free server; ties resolve to the lowest index
        // so the schedule is deterministic.
        let (idx, free) = self
            .next_free
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|(i, t)| (*t, *i))
            .expect("non-empty pool");
        let start = now.max(free);
        let finish = start + service;
        self.next_free[idx] = finish;
        self.busy_total += service;
        self.jobs += 1;
        (idx, start, finish)
    }

    /// The time by which every server is idle.
    pub fn all_free(&self) -> Nanos {
        self.next_free.iter().copied().max().unwrap_or(Nanos::ZERO)
    }

    /// Total busy time across all servers.
    pub fn busy_total(&self) -> Nanos {
        self.busy_total
    }

    /// Jobs admitted so far.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Pool utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: Nanos) -> f64 {
        if horizon == Nanos::ZERO {
            return 0.0;
        }
        self.busy_total.as_secs_f64() / (horizon.as_secs_f64() * self.next_free.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_back_to_back_jobs_queue() {
        let mut s = Serial::new();
        let (a0, a1) = s.admit(Nanos(0), Nanos(100));
        let (b0, b1) = s.admit(Nanos(10), Nanos(50));
        assert_eq!((a0, a1), (Nanos(0), Nanos(100)));
        assert_eq!((b0, b1), (Nanos(100), Nanos(150)));
        assert_eq!(s.busy_total(), Nanos(150));
        assert_eq!(s.jobs(), 2);
    }

    #[test]
    fn serial_idle_gap_not_counted_busy() {
        let mut s = Serial::new();
        s.admit(Nanos(0), Nanos(10));
        let (start, _) = s.admit(Nanos(100), Nanos(10));
        assert_eq!(start, Nanos(100));
        assert_eq!(s.busy_total(), Nanos(20));
        assert!((s.utilization(Nanos(200)) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn multiserver_spreads_load() {
        let mut m = MultiServer::new(2);
        let (i0, s0, f0) = m.admit(Nanos(0), Nanos(100));
        let (i1, s1, f1) = m.admit(Nanos(0), Nanos(100));
        let (i2, s2, _) = m.admit(Nanos(0), Nanos(100));
        assert_eq!((i0, s0, f0), (0, Nanos(0), Nanos(100)));
        assert_eq!((i1, s1, f1), (1, Nanos(0), Nanos(100)));
        // Third job waits for the first server to free.
        assert_eq!(i2, 0);
        assert_eq!(s2, Nanos(100));
        assert_eq!(m.all_free(), Nanos(200));
    }

    #[test]
    fn multiserver_utilization() {
        let mut m = MultiServer::new(4);
        for _ in 0..4 {
            m.admit(Nanos(0), Nanos(100));
        }
        assert!((m.utilization(Nanos(100)) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_pool_panics() {
        let _ = MultiServer::new(0);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// FIFO invariants: starts are nondecreasing, never before
            /// arrival, and intervals never overlap.
            #[test]
            fn serial_fifo_invariants(jobs in proptest::collection::vec((0u64..1000, 1u64..100), 1..50)) {
                let mut arrivals: Vec<(u64, u64)> = jobs;
                arrivals.sort_by_key(|(a, _)| *a);
                let mut s = Serial::new();
                let mut prev_finish = Nanos::ZERO;
                for (arrive, service) in arrivals {
                    let (start, finish) = s.admit(Nanos(arrive), Nanos(service));
                    prop_assert!(start >= Nanos(arrive));
                    prop_assert!(start >= prev_finish);
                    prop_assert_eq!(finish, start + Nanos(service));
                    prev_finish = finish;
                }
            }

            /// A pool of N servers finishes a batch no later than a single
            /// server would, and total busy time is identical.
            #[test]
            fn multiserver_dominates_serial(services in proptest::collection::vec(1u64..200, 1..40)) {
                let mut one = MultiServer::new(1);
                let mut four = MultiServer::new(4);
                for &svc in &services {
                    one.admit(Nanos::ZERO, Nanos(svc));
                    four.admit(Nanos::ZERO, Nanos(svc));
                }
                prop_assert!(four.all_free() <= one.all_free());
                prop_assert_eq!(four.busy_total(), one.busy_total());
            }
        }
    }
}
