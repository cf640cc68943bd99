//! Fault schedules: what breaks, and when.

use popper_format::{json, Value};
use popper_sim::rng::Rng;
use popper_sim::Nanos;

/// One kind of infrastructure fault (or repair).
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Node stops sending and receiving.
    Crash { node: usize },
    /// Crashed node comes back (its in-memory state is gone; layers
    /// with replicas rebuild it).
    Restart { node: usize },
    /// Split the cluster: `side` vs everyone else.
    Partition { side: Vec<usize> },
    /// Heal any partition.
    Heal,
    /// Packet loss on links touching `node`.
    Loss { node: usize, p: f64 },
    /// Packet loss on the directed link `from` → `to` only (asymmetric
    /// routes: acks flow, data doesn't).
    LossOneWay { from: usize, to: usize, p: f64 },
    /// Latency inflation on links touching `node`.
    Latency { node: usize, factor: f64 },
    /// Disk slowdown on `node`.
    DiskSlow { node: usize, factor: f64 },
    /// Clear loss/latency/disk degradation.
    ClearDegradation,
}

impl FaultKind {
    /// Lower this event to the fault-plane mutation it performs — the
    /// vocabulary [`popper_sim::FabricSim::set_fault_timeline`] takes,
    /// so sharded worlds can apply schedules at epoch barriers without
    /// the sim layer depending on this crate.
    pub fn to_cmd(&self) -> popper_sim::PlaneCmd {
        use popper_sim::PlaneCmd;
        match self {
            FaultKind::Crash { node } => PlaneCmd::Crash(*node),
            FaultKind::Restart { node } => PlaneCmd::Restart(*node),
            FaultKind::Partition { side } => PlaneCmd::Partition(side.clone()),
            FaultKind::Heal => PlaneCmd::HealPartition,
            FaultKind::Loss { node, p } => PlaneCmd::Loss { node: *node, p: *p },
            FaultKind::LossOneWay { from, to, p } => {
                PlaneCmd::LossOneWay { from: *from, to: *to, p: *p }
            }
            FaultKind::Latency { node, factor } => {
                PlaneCmd::Latency { node: *node, factor: *factor }
            }
            FaultKind::DiskSlow { node, factor } => {
                PlaneCmd::DiskSlow { node: *node, factor: *factor }
            }
            FaultKind::ClearDegradation => PlaneCmd::ClearDegradation,
        }
    }

    /// The node a schedule sort keys this event on: the affected node,
    /// the sending side for a one-way loss, the first member of a
    /// partition's side, and 0 for cluster-wide repairs.
    fn sort_node(&self) -> usize {
        match self {
            FaultKind::Crash { node }
            | FaultKind::Restart { node }
            | FaultKind::Loss { node, .. }
            | FaultKind::Latency { node, .. }
            | FaultKind::DiskSlow { node, .. } => *node,
            FaultKind::LossOneWay { from, .. } => *from,
            FaultKind::Partition { side } => side.first().copied().unwrap_or(0),
            FaultKind::Heal | FaultKind::ClearDegradation => 0,
        }
    }

    /// Declaration-order rank, the final sort tiebreaker (repairs rank
    /// after the faults they undo: `Heal` before `ClearDegradation`,
    /// both after same-instant injections on the same node).
    fn sort_rank(&self) -> u8 {
        match self {
            FaultKind::Crash { .. } => 0,
            FaultKind::Restart { .. } => 1,
            FaultKind::Partition { .. } => 2,
            FaultKind::Heal => 3,
            FaultKind::Loss { .. } => 4,
            FaultKind::LossOneWay { .. } => 5,
            FaultKind::Latency { .. } => 6,
            FaultKind::DiskSlow { .. } => 7,
            FaultKind::ClearDegradation => 8,
        }
    }

    /// The `kind:` string used in PML specs and `faults.json`.
    pub fn kind_name(&self) -> &'static str {
        match self {
            FaultKind::Crash { .. } => "crash",
            FaultKind::Restart { .. } => "restart",
            FaultKind::Partition { .. } => "partition",
            FaultKind::Heal => "heal",
            FaultKind::Loss { .. } => "loss",
            FaultKind::LossOneWay { .. } => "loss-oneway",
            FaultKind::Latency { .. } => "latency",
            FaultKind::DiskSlow { .. } => "disk-slow",
            FaultKind::ClearDegradation => "clear",
        }
    }
}

/// A fault at a point in virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: Nanos,
    /// What happens.
    pub kind: FaultKind,
}

/// A named, seeded, sorted schedule of fault events over a cluster of
/// `nodes` endpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    /// Schedule name (a built-in name, or `custom` for PML event lists).
    pub name: String,
    /// Seed for loss sampling and gremlin generation.
    pub seed: u64,
    /// Cluster size the schedule targets.
    pub nodes: usize,
    /// Events sorted by time (stable for equal times).
    pub events: Vec<FaultEvent>,
}

/// The most nodes a `faults:` spec may name. The built-in schedules
/// allocate one entry per node, so a larger count is refused before
/// anything is sized by it.
pub const MAX_FAULT_NODES: usize = 65_536;

/// The built-in schedule names accepted by `FaultSchedule::named` and
/// the `popper chaos --schedule` flag.
pub const BUILTIN_SCHEDULES: &[&str] =
    &["node-crash", "partition", "packet-loss", "slow-disk", "gremlin"];

impl FaultSchedule {
    /// A built-in schedule by name. Node 0 is assumed to be the client
    /// (FUSE mount / rank 0 home) and is never crashed.
    pub fn named(name: &str, nodes: usize, seed: u64) -> Result<FaultSchedule, String> {
        let ms = Nanos::from_millis;
        // The last node, or 0 for a single-node cluster. Node 0 is the
        // client, so multi-node schedules never crash it.
        let victim = nodes.saturating_sub(1);
        let events = match name {
            "node-crash" => vec![
                FaultEvent { at: ms(40), kind: FaultKind::Crash { node: victim } },
                FaultEvent { at: ms(120), kind: FaultKind::Restart { node: victim } },
            ],
            "partition" => vec![
                FaultEvent {
                    at: ms(30),
                    kind: FaultKind::Partition { side: (0..nodes.div_ceil(2)).collect() },
                },
                FaultEvent { at: ms(100), kind: FaultKind::Heal },
            ],
            "packet-loss" => {
                let mut ev: Vec<FaultEvent> = (1..nodes)
                    .map(|n| FaultEvent { at: ms(20), kind: FaultKind::Loss { node: n, p: 0.25 } })
                    .collect();
                ev.push(FaultEvent { at: ms(140), kind: FaultKind::ClearDegradation });
                ev
            }
            "slow-disk" => vec![
                FaultEvent { at: ms(10), kind: FaultKind::DiskSlow { node: 0, factor: 8.0 } },
                FaultEvent { at: ms(150), kind: FaultKind::ClearDegradation },
            ],
            "gremlin" => return Ok(FaultSchedule::gremlin(nodes, seed)),
            other => {
                return Err(format!(
                    "unknown fault schedule '{other}' (built-ins: {})",
                    BUILTIN_SCHEDULES.join(", ")
                ))
            }
        };
        Ok(FaultSchedule { name: name.to_string(), seed, nodes, events })
    }

    /// A seeded random schedule: a handful of crash/restart pairs,
    /// link degradations (including one-way link loss), and flapping
    /// partitions over a ~200 ms horizon. Node 0 never crashes; every
    /// crash is paired with a restart; every partition is healed (a
    /// flap's last event is a heal); degradation is cleared at the end,
    /// so the schedule always ends healthy.
    pub fn gremlin(nodes: usize, seed: u64) -> FaultSchedule {
        let mut rng = Rng::new(seed);
        let mut events = Vec::new();
        let faults = 2 + (rng.range(0..3u32) as usize);
        for _ in 0..faults {
            let at = Nanos::from_millis(10 + rng.range(0..120u64));
            match rng.range(0..6u32) {
                0 if nodes > 1 => {
                    let node = rng.range(1..nodes);
                    events.push(FaultEvent { at, kind: FaultKind::Crash { node } });
                    events.push(FaultEvent {
                        at: at + Nanos::from_millis(30 + rng.range(0..40u64)),
                        kind: FaultKind::Restart { node },
                    });
                }
                1 => {
                    let node = rng.range(0..nodes);
                    events.push(FaultEvent {
                        at,
                        kind: FaultKind::Loss { node, p: 0.1 + rng.f64() * 0.3 },
                    });
                }
                2 => {
                    let node = rng.range(0..nodes);
                    events.push(FaultEvent {
                        at,
                        kind: FaultKind::Latency { node, factor: 2.0 + rng.f64() * 6.0 },
                    });
                }
                3 if nodes > 1 => {
                    // One-way link loss: data path degraded, ack path
                    // clean (the asymmetric-route failure mode).
                    let from = rng.range(0..nodes);
                    let mut to = rng.range(0..nodes - 1);
                    if to >= from {
                        to += 1;
                    }
                    events.push(FaultEvent {
                        at,
                        kind: FaultKind::LossOneWay { from, to, p: 0.2 + rng.f64() * 0.5 },
                    });
                }
                4 if nodes > 1 => {
                    // Flapping partition: split, heal, re-partition on a
                    // schedule. The final event of the flap is a heal.
                    let side: Vec<usize> = (0..1 + rng.range(0..nodes)).collect();
                    let cycles = 2 + rng.range(0..2u32);
                    let mut t = at;
                    for _ in 0..cycles {
                        events.push(FaultEvent {
                            at: t,
                            kind: FaultKind::Partition { side: side.clone() },
                        });
                        t += Nanos::from_millis(5 + rng.range(0..15u64));
                        events.push(FaultEvent { at: t, kind: FaultKind::Heal });
                        t += Nanos::from_millis(5 + rng.range(0..15u64));
                    }
                }
                _ => {
                    let node = rng.range(0..nodes);
                    events.push(FaultEvent {
                        at,
                        kind: FaultKind::DiskSlow { node, factor: 2.0 + rng.f64() * 6.0 },
                    });
                }
            }
        }
        // Close the horizon healthy: heal any in-flight partition and
        // clear degradation strictly after the last scheduled fault.
        let end = events
            .iter()
            .map(|e| e.at)
            .max()
            .unwrap_or(Nanos::ZERO)
            .max(Nanos::from_millis(200));
        events.push(FaultEvent { at: end, kind: FaultKind::Heal });
        events.push(FaultEvent { at: end, kind: FaultKind::ClearDegradation });
        let mut s = FaultSchedule { name: "gremlin".to_string(), seed, nodes, events };
        s.sort();
        s
    }

    /// Decode a schedule from an experiment's `vars.pml` value. Returns
    /// `Ok(None)` when there is no `faults:` key. The spec is either
    ///
    /// ```text
    /// faults:
    ///   schedule: node-crash     # a built-in name
    ///   seed: 7
    /// ```
    ///
    /// or an explicit event list:
    ///
    /// ```text
    /// faults:
    ///   seed: 7
    ///   events:
    ///     - {at_ms: 40, kind: crash, node: 2}
    ///     - {at_ms: 90, kind: loss, node: 1, p: 0.2}
    ///     - {at_ms: 120, kind: restart, node: 2}
    /// ```
    ///
    /// The cluster size comes from `faults.nodes`, else the max of a
    /// top-level `nodes` list, else a top-level `nodes` number, else 8;
    /// more than [`MAX_FAULT_NODES`] is an error.
    pub fn from_vars(vars: &Value) -> Result<Option<FaultSchedule>, String> {
        let Some(spec) = vars.get("faults") else { return Ok(None) };
        let nodes = spec
            .get_num("nodes")
            .or_else(|| {
                vars.get_list("nodes").map(|l| {
                    l.iter().filter_map(Value::as_num).fold(0.0f64, f64::max)
                })
            })
            .or_else(|| vars.get_num("nodes"))
            .filter(|n| *n >= 1.0)
            .unwrap_or(8.0);
        if nodes > MAX_FAULT_NODES as f64 {
            return Err(format!("faults.nodes: {nodes} is more than the {MAX_FAULT_NODES} nodes a schedule can target"));
        }
        let nodes = nodes as usize;
        let seed = spec.get_num("seed").unwrap_or(1.0) as u64;
        if let Some(name) = spec.get_str("schedule") {
            return FaultSchedule::named(name, nodes, seed).map(Some);
        }
        let Some(list) = spec.get_list("events") else {
            return Err("faults: needs either 'schedule: <name>' or an 'events:' list".into());
        };
        let mut events = Vec::with_capacity(list.len());
        for (i, ev) in list.iter().enumerate() {
            events.push(decode_event(ev).map_err(|e| format!("faults.events[{i}]: {e}"))?);
        }
        let mut s = FaultSchedule { name: "custom".to_string(), seed, nodes, events };
        s.sort();
        Ok(Some(s))
    }

    /// Sort events by `(time, node, kind)` — a total, input-order-free
    /// key, so two events sharing a timestamp land in the same order no
    /// matter how the schedule was written or generated. Equal full
    /// keys (same instant, node and kind) keep insertion order (stable
    /// sort).
    fn sort(&mut self) {
        self.events.sort_by_key(|e| (e.at, e.kind.sort_node(), e.kind.sort_rank()));
    }

    /// The schedule lowered to the sim layer's `(time, PlaneCmd)`
    /// timeline, ready for
    /// [`popper_sim::FabricSim::set_fault_timeline`].
    pub fn plane_timeline(&self) -> Vec<(Nanos, popper_sim::PlaneCmd)> {
        self.events.iter().map(|e| (e.at, e.kind.to_cmd())).collect()
    }

    /// Time of the last event.
    pub fn horizon(&self) -> Nanos {
        self.events.last().map(|e| e.at).unwrap_or(Nanos::ZERO)
    }

    /// Number of crash events in the schedule — the fault-density
    /// input for layers that project the schedule onto their own
    /// failure domain (the CI farm turns this into a per-job
    /// worker-crash probability).
    pub fn crash_count(&self) -> usize {
        self.events.iter().filter(|e| matches!(e.kind, FaultKind::Crash { .. })).count()
    }

    /// The strongest disk-slowdown factor the schedule ever applies,
    /// if any (the farm projects this onto its shared artifact store
    /// as an ingest slowdown).
    pub fn max_disk_slow_factor(&self) -> Option<f64> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::DiskSlow { factor, .. } => Some(factor),
                _ => None,
            })
            .fold(None, |acc, f| Some(acc.map_or(f, |a: f64| a.max(f))))
    }

    /// Serialize to the deterministic `faults.json` artifact.
    pub fn to_json(&self) -> String {
        let mut doc = Value::empty_map();
        doc.insert("schedule", Value::Str(self.name.clone()));
        doc.insert("seed", Value::Num(self.seed as f64));
        doc.insert("nodes", Value::Num(self.nodes as f64));
        let events: Vec<Value> = self
            .events
            .iter()
            .map(|e| {
                let mut m = Value::empty_map();
                m.insert("at_ms", Value::Num(e.at.as_millis_f64()));
                m.insert("kind", Value::Str(e.kind.kind_name().to_string()));
                match &e.kind {
                    FaultKind::Crash { node } | FaultKind::Restart { node } => {
                        m.insert("node", Value::Num(*node as f64));
                    }
                    FaultKind::Partition { side } => {
                        m.insert(
                            "side",
                            Value::List(side.iter().map(|n| Value::Num(*n as f64)).collect()),
                        );
                    }
                    FaultKind::Loss { node, p } => {
                        m.insert("node", Value::Num(*node as f64));
                        m.insert("p", Value::Num(*p));
                    }
                    FaultKind::LossOneWay { from, to, p } => {
                        m.insert("from", Value::Num(*from as f64));
                        m.insert("to", Value::Num(*to as f64));
                        m.insert("p", Value::Num(*p));
                    }
                    FaultKind::Latency { node, factor } | FaultKind::DiskSlow { node, factor } => {
                        m.insert("node", Value::Num(*node as f64));
                        m.insert("factor", Value::Num(*factor));
                    }
                    FaultKind::Heal | FaultKind::ClearDegradation => {}
                }
                m
            })
            .collect();
        doc.insert("events", Value::List(events));
        json::to_string_pretty(&doc)
    }
}

fn decode_event(ev: &Value) -> Result<FaultEvent, String> {
    let at_ms = ev.get_num("at_ms").ok_or("missing at_ms")?;
    if at_ms < 0.0 {
        return Err("at_ms must be >= 0".into());
    }
    let at = Nanos::from_secs_f64(at_ms / 1e3);
    let kind = ev.get_str("kind").ok_or("missing kind")?;
    let node = || -> Result<usize, String> {
        ev.get_num("node").map(|n| n as usize).ok_or_else(|| format!("{kind} needs node"))
    };
    let kind = match kind {
        "crash" => FaultKind::Crash { node: node()? },
        "restart" => FaultKind::Restart { node: node()? },
        "partition" => {
            let side = ev
                .get_list("side")
                .ok_or("partition needs side")?
                .iter()
                .filter_map(Value::as_num)
                .map(|n| n as usize)
                .collect();
            FaultKind::Partition { side }
        }
        "heal" => FaultKind::Heal,
        "loss" => FaultKind::Loss { node: node()?, p: ev.get_num("p").ok_or("loss needs p")? },
        "loss-oneway" => FaultKind::LossOneWay {
            from: ev.get_num("from").map(|n| n as usize).ok_or("loss-oneway needs from")?,
            to: ev.get_num("to").map(|n| n as usize).ok_or("loss-oneway needs to")?,
            p: ev.get_num("p").ok_or("loss-oneway needs p")?,
        },
        "latency" => FaultKind::Latency {
            node: node()?,
            factor: ev.get_num("factor").ok_or("latency needs factor")?,
        },
        "disk-slow" => FaultKind::DiskSlow {
            node: node()?,
            factor: ev.get_num("factor").ok_or("disk-slow needs factor")?,
        },
        "clear" => FaultKind::ClearDegradation,
        other => return Err(format!("unknown fault kind '{other}'")),
    };
    Ok(FaultEvent { at, kind })
}

#[cfg(test)]
mod tests {
    use super::*;
    use popper_format::pml;

    #[test]
    fn builtins_resolve_and_sort() {
        for name in BUILTIN_SCHEDULES {
            let s = FaultSchedule::named(name, 8, 1).unwrap();
            assert_eq!(&s.name, name);
            assert!(!s.events.is_empty(), "{name} must have events");
            assert!(s.events.windows(2).all(|w| w[0].at <= w[1].at), "{name} sorted");
        }
        assert!(FaultSchedule::named("nope", 8, 1).is_err());
    }

    #[test]
    fn node_crash_pairs_crash_with_restart() {
        let s = FaultSchedule::named("node-crash", 4, 1).unwrap();
        assert_eq!(s.events[0].kind, FaultKind::Crash { node: 3 });
        assert_eq!(s.events[1].kind, FaultKind::Restart { node: 3 });
        assert_eq!(s.horizon(), Nanos::from_millis(120));
    }

    #[test]
    fn fault_density_projections() {
        let s = FaultSchedule::named("node-crash", 4, 1).unwrap();
        assert_eq!(s.crash_count(), 1);
        assert_eq!(s.max_disk_slow_factor(), None);
        let s = FaultSchedule::named("slow-disk", 4, 1).unwrap();
        assert_eq!(s.crash_count(), 0);
        assert_eq!(s.max_disk_slow_factor(), Some(8.0));
        // The max wins when several slowdowns are scheduled.
        let vars = pml::parse(
            "faults:\n  nodes: 4\n  events:\n    - {at_ms: 1, kind: disk-slow, node: 1, factor: 2.5}\n    - {at_ms: 2, kind: disk-slow, node: 2, factor: 6.0}\n    - {at_ms: 3, kind: crash, node: 3}\n",
        )
        .unwrap();
        let s = FaultSchedule::from_vars(&vars).unwrap().unwrap();
        assert_eq!(s.crash_count(), 1);
        assert_eq!(s.max_disk_slow_factor(), Some(6.0));
    }

    #[test]
    fn gremlin_is_seed_deterministic_and_spares_node0() {
        let a = FaultSchedule::gremlin(6, 42);
        let b = FaultSchedule::gremlin(6, 42);
        assert_eq!(a, b);
        assert_ne!(a, FaultSchedule::gremlin(6, 43));
        for e in &a.events {
            if let FaultKind::Crash { node } = e.kind {
                assert_ne!(node, 0, "gremlin must never crash the client");
            }
        }
        // Every crash has a matching restart.
        let crashes: Vec<usize> = a
            .events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::Crash { node } => Some(node),
                _ => None,
            })
            .collect();
        for n in crashes {
            assert!(a
                .events
                .iter()
                .any(|e| matches!(e.kind, FaultKind::Restart { node } if node == n)));
        }
    }

    #[test]
    fn one_way_loss_round_trips_through_events_spec() {
        let vars = pml::parse(
            "faults:\n  nodes: 4\n  events:\n    - {at_ms: 30, kind: loss-oneway, from: 2, to: 0, p: 0.4}\n",
        )
        .unwrap();
        let s = FaultSchedule::from_vars(&vars).unwrap().unwrap();
        assert_eq!(s.events[0].kind, FaultKind::LossOneWay { from: 2, to: 0, p: 0.4 });
        assert_eq!(s.events[0].kind.kind_name(), "loss-oneway");
        assert_eq!(s.events[0].kind.to_cmd().label(), "loss 2->0 p=0.4");
        let doc = json::parse(&s.to_json()).unwrap();
        let ev = &doc.get_list("events").unwrap()[0];
        assert_eq!(ev.get_num("from"), Some(2.0));
        assert_eq!(ev.get_num("to"), Some(0.0));
        assert_eq!(ev.get_num("p"), Some(0.4));
        // Missing direction fields are spec errors.
        assert!(FaultSchedule::from_vars(
            &pml::parse("faults: {events: [{at_ms: 1, kind: loss-oneway, from: 1, p: 0.2}]}\n")
                .unwrap()
        )
        .is_err());
    }

    #[test]
    fn gremlin_covers_oneway_loss_and_flapping_partitions() {
        // Over a pool of seeds the generator must exercise the new
        // arms: directed loss and partition flaps (≥ 2 cycles).
        let mut saw_oneway = false;
        let mut saw_flap = false;
        for seed in 0..64 {
            let s = FaultSchedule::gremlin(6, seed);
            saw_oneway |= s
                .events
                .iter()
                .any(|e| matches!(e.kind, FaultKind::LossOneWay { .. }));
            let partitions =
                s.events.iter().filter(|e| matches!(e.kind, FaultKind::Partition { .. })).count();
            saw_flap |= partitions >= 2;
        }
        assert!(saw_oneway, "some seed must generate one-way link loss");
        assert!(saw_flap, "some seed must generate a flapping partition");
    }

    #[test]
    fn gremlin_always_ends_healed() {
        use popper_sim::FaultPlane;
        for seed in 0..64 {
            let s = FaultSchedule::gremlin(6, seed);
            let mut plane = FaultPlane::new(6);
            for (at, cmd) in s.plane_timeline() {
                assert!(at <= s.horizon(), "seed {seed}: all events due by the horizon");
                plane.apply(&cmd);
            }
            assert!(!plane.is_active(), "seed {seed}: schedule must end healthy");
        }
    }

    #[test]
    fn from_vars_reads_builtin_spec() {
        let vars =
            pml::parse("nodes: [1, 2, 4]\nfaults:\n  schedule: node-crash\n  seed: 9\n").unwrap();
        let s = FaultSchedule::from_vars(&vars).unwrap().unwrap();
        assert_eq!(s.name, "node-crash");
        assert_eq!(s.seed, 9);
        assert_eq!(s.nodes, 4, "nodes from the max of the top-level list");
        assert_eq!(s.events[0].kind, FaultKind::Crash { node: 3 });
    }

    #[test]
    fn from_vars_reads_event_list() {
        let vars = pml::parse(
            "faults:\n  nodes: 4\n  events:\n    - {at_ms: 90, kind: loss, node: 1, p: 0.2}\n    - {at_ms: 40, kind: crash, node: 2}\n    - {at_ms: 120, kind: restart, node: 2}\n",
        )
        .unwrap();
        let s = FaultSchedule::from_vars(&vars).unwrap().unwrap();
        assert_eq!(s.name, "custom");
        // Sorted by time regardless of spec order.
        assert_eq!(s.events[0].kind, FaultKind::Crash { node: 2 });
        assert_eq!(s.events[1].kind, FaultKind::Loss { node: 1, p: 0.2 });
    }

    #[test]
    fn from_vars_absent_and_malformed() {
        assert_eq!(FaultSchedule::from_vars(&pml::parse("x: 1\n").unwrap()).unwrap(), None);
        assert!(FaultSchedule::from_vars(&pml::parse("faults: {seed: 1}\n").unwrap()).is_err());
        assert!(FaultSchedule::from_vars(
            &pml::parse("faults: {events: [{at_ms: 1, kind: warp}]}\n").unwrap()
        )
        .is_err());
        assert!(FaultSchedule::from_vars(
            &pml::parse("faults: {schedule: frob}\n").unwrap()
        )
        .is_err());
    }

    #[test]
    fn same_instant_events_sort_independently_of_insertion_order() {
        // Two events sharing a timestamp must land in the same order no
        // matter how the spec listed them: keyed on (time, node, kind).
        let forward = "faults:\n  nodes: 4\n  events:\n    - {at_ms: 50, kind: crash, node: 1}\n    - {at_ms: 50, kind: loss, node: 1, p: 0.2}\n    - {at_ms: 50, kind: crash, node: 3}\n    - {at_ms: 120, kind: restart, node: 1}\n    - {at_ms: 120, kind: restart, node: 3}\n";
        let reversed = "faults:\n  nodes: 4\n  events:\n    - {at_ms: 120, kind: restart, node: 3}\n    - {at_ms: 120, kind: restart, node: 1}\n    - {at_ms: 50, kind: crash, node: 3}\n    - {at_ms: 50, kind: loss, node: 1, p: 0.2}\n    - {at_ms: 50, kind: crash, node: 1}\n";
        let a = FaultSchedule::from_vars(&pml::parse(forward).unwrap()).unwrap().unwrap();
        let b = FaultSchedule::from_vars(&pml::parse(reversed).unwrap()).unwrap().unwrap();
        assert_eq!(a.events, b.events);
        // Node breaks the tie first, kind second (crash before loss on
        // the same node at the same instant).
        assert_eq!(a.events[0].kind, FaultKind::Crash { node: 1 });
        assert_eq!(a.events[1].kind, FaultKind::Loss { node: 1, p: 0.2 });
        assert_eq!(a.events[2].kind, FaultKind::Crash { node: 3 });
        // The identical byte stream feeds faults.json either way.
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn plane_timeline_lowers_every_event() {
        use popper_sim::PlaneCmd;
        let s = FaultSchedule::gremlin(6, 3);
        let timeline = s.plane_timeline();
        assert_eq!(timeline.len(), s.events.len());
        assert!(timeline.iter().any(|(_, c)| matches!(c, PlaneCmd::HealPartition)));
        for ((at, cmd), event) in timeline.iter().zip(&s.events) {
            assert_eq!((*at, cmd), (event.at, &event.kind.to_cmd()));
        }
    }

    #[test]
    fn faults_json_is_deterministic_and_parses() {
        let s = FaultSchedule::named("gremlin", 8, 5).unwrap();
        let a = s.to_json();
        assert_eq!(a, s.to_json());
        let doc = json::parse(&a).unwrap();
        assert_eq!(doc.get_str("schedule"), Some("gremlin"));
        assert_eq!(doc.get_num("nodes"), Some(8.0));
        assert!(!doc.get_list("events").unwrap().is_empty());
    }

    #[test]
    fn a_node_count_past_the_bound_is_refused() {
        for nodes in ["1e15", "65537", "1e400"] {
            for schedule in ["partition", "packet-loss", "gremlin"] {
                let vars = pml::parse(&format!("faults: {{schedule: {schedule}, nodes: {nodes}}}\n")).unwrap();
                let err = FaultSchedule::from_vars(&vars).unwrap_err();
                assert!(err.contains("faults.nodes"), "{schedule} {nodes}: {err}");
            }
        }
        let top_level = pml::parse("nodes: [1, 1e15]\nfaults: {schedule: partition}\n").unwrap();
        assert!(FaultSchedule::from_vars(&top_level).is_err());
        let at_bound = pml::parse("faults: {schedule: packet-loss, nodes: 65536}\n").unwrap();
        assert_eq!(FaultSchedule::from_vars(&at_bound).unwrap().unwrap().nodes, MAX_FAULT_NODES);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        const KEYS: &[&str] =
            &["schedule", "nodes", "seed", "at_ms", "kind", "node", "p", "factor", "from", "to", "side"];
        const NAMES: &[&str] = &[
            "node-crash", "partition", "packet-loss", "slow-disk", "gremlin", "crash", "restart",
            "heal", "loss", "loss-oneway", "latency", "disk-slow", "clear",
        ];

        /// A value: a schedule or event-kind name, a number, a list or
        /// a short arbitrary string.
        fn value() -> BoxedStrategy<String> {
            prop_oneof![
                (0..NAMES.len()).prop_map(|i| NAMES[i].to_string()),
                "-?[0-9]{1,6}\\.?[0-9]{0,3}",
                "[0-9]e[0-9]{1,3}",
                "\\[[0-9, ]{0,8}\\]",
                "\\PC{0,6}",
            ]
            .boxed()
        }

        /// `faults:` text: maybe a schedule, nodes and seed, and maybe
        /// events, each with a time, a kind and other keys.
        fn spec() -> BoxedStrategy<String> {
            let entry = || ((0..KEYS.len()), value()).prop_map(|(k, v)| format!(", {}: {v}", KEYS[k]));
            let event = (value(), value(), proptest::collection::vec(entry(), 0..3))
                .prop_map(|(at, kind, rest)| format!("    - {{at_ms: {at}, kind: {kind}{}}}\n", rest.concat()));
            let line = |key: &'static str| proptest::strategy::option_of(value()).prop_map(move |v| v.map(|v| format!("  {key}: {v}\n")));
            (line("schedule"), line("nodes"), line("seed"), proptest::collection::vec(event, 0..4))
                .prop_map(|(schedule, nodes, seed, events)| {
                    let events = if events.is_empty() { String::new() } else { format!("  events:\n{}", events.concat()) };
                    format!("faults:\n{}{}{}{events}", schedule.unwrap_or_default(), nodes.unwrap_or_default(), seed.unwrap_or_default())
                })
                .boxed()
        }

        proptest! {
            /// Any `faults:` text that parses as PML gives a schedule
            /// within the node bound or an error, never a panic.
            #[test]
            fn from_vars_never_panics(specs in proptest::collection::vec(spec(), 1..16)) {
                for text in &specs {
                    let Ok(vars) = pml::parse(text) else { continue };
                    if let Ok(Some(s)) = FaultSchedule::from_vars(&vars) {
                        prop_assert!(s.nodes >= 1 && s.nodes <= MAX_FAULT_NODES, "{} nodes", s.nodes);
                    }
                }
            }
        }
    }
}
