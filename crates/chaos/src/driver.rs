//! The chaos driver: applies a schedule to a fault plane as virtual
//! time advances.

use crate::schedule::{FaultKind, FaultSchedule};
use popper_sim::{FaultPlane, Nanos};

/// Applies a [`FaultSchedule`] to a [`FaultPlane`] event by event.
/// Experiments call [`advance`](ChaosDriver::advance) with their current
/// virtual time between workload steps; every due event mutates the
/// plane and emits a trace instant on the `chaos/faults` track.
#[derive(Debug, Clone)]
pub struct ChaosDriver {
    schedule: FaultSchedule,
    next: usize,
}

impl ChaosDriver {
    /// A driver over `schedule`. The plane's loss sampler is seeded from
    /// the schedule on the first `advance`.
    pub fn new(schedule: FaultSchedule) -> Self {
        ChaosDriver { schedule, next: 0 }
    }

    /// The schedule being driven.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }

    /// Number of events injected so far.
    pub fn injected(&self) -> usize {
        self.next
    }

    /// True once every event has fired.
    pub fn done(&self) -> bool {
        self.next >= self.schedule.events.len()
    }

    /// Apply every event due at or before `now`. Returns the labels of
    /// the events injected (empty when nothing was due).
    pub fn advance(&mut self, plane: &mut FaultPlane, now: Nanos) -> Vec<String> {
        if self.next == 0 {
            plane.set_seed(self.schedule.seed);
        }
        let tracer = popper_trace::current();
        let mut fired = Vec::new();
        while let Some(ev) = self.schedule.events.get(self.next) {
            if ev.at > now {
                break;
            }
            apply(&ev.kind, plane);
            if tracer.is_enabled() {
                tracer.instant_at("chaos", "chaos/faults", ev.kind.label(), ev.at.0);
            }
            fired.push(ev.kind.label());
            self.next += 1;
        }
        fired
    }
}

fn apply(kind: &FaultKind, plane: &mut FaultPlane) {
    // One lowering for both chaos paths: the driver applies the same
    // `PlaneCmd` the sharded fabric applies at its epoch barriers.
    plane.apply(&kind.to_cmd());
}

#[cfg(test)]
mod tests {
    use super::*;
    use popper_trace::{ClockDomain, TraceSink};

    #[test]
    fn advance_applies_due_events_in_order() {
        let s = FaultSchedule::named("node-crash", 4, 1).unwrap();
        let mut plane = FaultPlane::new(4);
        let mut d = ChaosDriver::new(s);
        assert!(d.advance(&mut plane, Nanos::from_millis(10)).is_empty());
        assert!(!plane.is_active());
        let fired = d.advance(&mut plane, Nanos::from_millis(50));
        assert_eq!(fired, vec!["crash node3".to_string()]);
        assert!(plane.is_crashed(3));
        let fired = d.advance(&mut plane, Nanos::from_millis(500));
        assert_eq!(fired, vec!["restart node3".to_string()]);
        assert!(!plane.is_crashed(3));
        assert!(d.done());
        assert_eq!(d.injected(), 2);
    }

    #[test]
    fn injections_emit_trace_instants() {
        let sink = TraceSink::new();
        let tracer = sink.tracer(ClockDomain::Virtual);
        popper_trace::with_current(tracer, || {
            let s = FaultSchedule::named("node-crash", 2, 1).unwrap();
            let mut plane = FaultPlane::new(2);
            let mut d = ChaosDriver::new(s);
            d.advance(&mut plane, Nanos::from_millis(200));
        });
        let events = sink.drain();
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.track == "chaos/faults"));
        assert!(events.iter().any(|e| e.name.contains("crash node1")));
        assert!(events.iter().any(|e| e.name.contains("restart node1")));
    }

    #[test]
    fn advance_seeds_the_plane() {
        let s = FaultSchedule { seed: 77, ..FaultSchedule::named("packet-loss", 3, 77).unwrap() };
        let mut plane = FaultPlane::new(3);
        let mut d = ChaosDriver::new(s);
        d.advance(&mut plane, Nanos::from_millis(25));
        assert!(plane.is_active());
        // Loss sampling now runs off the schedule seed deterministically.
        let a: Vec<u32> = (0..16).map(|_| plane.retransmits(0, 1)).collect();
        let mut plane2 = FaultPlane::new(3);
        let mut d2 =
            ChaosDriver::new(FaultSchedule::named("packet-loss", 3, 77).unwrap());
        d2.advance(&mut plane2, Nanos::from_millis(25));
        let b: Vec<u32> = (0..16).map(|_| plane2.retransmits(0, 1)).collect();
        assert_eq!(a, b);
    }
}
