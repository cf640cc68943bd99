//! Platform performance models.
//!
//! A [`PlatformSpec`] describes a machine as a vector of per-resource
//! capabilities; a [`Demand`] describes a workload (or one work unit of
//! it) as a vector of resource consumptions. Executing a demand on a
//! platform costs the inner product of demands with the reciprocal
//! capabilities. This is the classical "machine characterization" model
//! from Saavedra-Barrera's CPU benchmarking work, which is exactly the
//! model the Torpor use case in the paper builds on: different workloads
//! observe *different* speedups between two machines because they stress
//! different resource dimensions.

use crate::time::Nanos;

/// The resource dimensions of the model. Used for reporting and for the
/// baseliner fingerprint; the timing math lives in [`PlatformSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceDim {
    /// Scalar integer ALU throughput.
    IntOps,
    /// Scalar floating-point throughput.
    FpOps,
    /// Vectorized floating-point throughput.
    SimdOps,
    /// Sequential memory bandwidth.
    MemBandwidth,
    /// Random-access memory latency (pointer chasing).
    MemLatency,
    /// Branch-misprediction penalty.
    Branch,
    /// System-call / privileged-operation cost.
    Syscall,
}

impl ResourceDim {
    /// All dimensions, in canonical order.
    pub const ALL: [ResourceDim; 7] = [
        ResourceDim::IntOps,
        ResourceDim::FpOps,
        ResourceDim::SimdOps,
        ResourceDim::MemBandwidth,
        ResourceDim::MemLatency,
        ResourceDim::Branch,
        ResourceDim::Syscall,
    ];

    /// Stable lowercase name used in fingerprints and result tables.
    pub fn name(self) -> &'static str {
        match self {
            ResourceDim::IntOps => "int_ops",
            ResourceDim::FpOps => "fp_ops",
            ResourceDim::SimdOps => "simd_ops",
            ResourceDim::MemBandwidth => "mem_bw",
            ResourceDim::MemLatency => "mem_lat",
            ResourceDim::Branch => "branch",
            ResourceDim::Syscall => "syscall",
        }
    }
}

/// What one execution of a workload consumes, per resource dimension.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Demand {
    /// Scalar integer operations.
    pub int_ops: f64,
    /// Scalar floating-point operations.
    pub fp_ops: f64,
    /// SIMD-vectorizable floating-point operations (counted as scalar ops;
    /// the platform divides by its lane count).
    pub simd_ops: f64,
    /// Bytes moved with streaming (sequential) access.
    pub mem_stream_bytes: f64,
    /// Cache-missing random memory accesses.
    pub mem_random_accesses: f64,
    /// Mispredicted branches.
    pub branch_misses: f64,
    /// System calls or equivalent privileged operations.
    pub syscalls: f64,
}

impl Demand {
    /// Component-wise sum.
    pub fn plus(&self, other: &Demand) -> Demand {
        Demand {
            int_ops: self.int_ops + other.int_ops,
            fp_ops: self.fp_ops + other.fp_ops,
            simd_ops: self.simd_ops + other.simd_ops,
            mem_stream_bytes: self.mem_stream_bytes + other.mem_stream_bytes,
            mem_random_accesses: self.mem_random_accesses + other.mem_random_accesses,
            branch_misses: self.branch_misses + other.branch_misses,
            syscalls: self.syscalls + other.syscalls,
        }
    }

    /// Scale every component.
    pub fn scaled(&self, k: f64) -> Demand {
        Demand {
            int_ops: self.int_ops * k,
            fp_ops: self.fp_ops * k,
            simd_ops: self.simd_ops * k,
            mem_stream_bytes: self.mem_stream_bytes * k,
            mem_random_accesses: self.mem_random_accesses * k,
            branch_misses: self.branch_misses * k,
            syscalls: self.syscalls * k,
        }
    }
}

/// A machine model: per-resource capabilities plus I/O devices and a
/// virtualization overhead ("hypervisor tax", §Common Practice of the
/// paper, citing Clark et al.'s Xen measurements).
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformSpec {
    /// Human-readable platform name ("xeon-2006", "cloudlab-c220g", …).
    pub name: String,
    /// Core clock, GHz.
    pub clock_ghz: f64,
    /// Sustained scalar-integer instructions per cycle.
    pub ipc_int: f64,
    /// Sustained scalar floating-point instructions per cycle.
    pub ipc_fp: f64,
    /// SIMD lanes of f64 per vector instruction.
    pub simd_lanes: f64,
    /// Sequential memory bandwidth, GiB/s.
    pub mem_bw_gib: f64,
    /// Random-access (cache-missing) latency, ns.
    pub mem_lat_ns: f64,
    /// Effective cost of one branch misprediction, ns.
    pub branch_miss_ns: f64,
    /// Cost of a system call, ns.
    pub syscall_ns: f64,
    /// Physical cores.
    pub cores: usize,
    /// Memory capacity, GiB (GassyFS aggregates this).
    pub mem_gib: f64,
    /// NIC one-way latency, ns.
    pub nic_lat_ns: f64,
    /// NIC bandwidth, Gbit/s.
    pub nic_gbit: f64,
    /// Storage random-access latency, ns (HDD seek vs SSD).
    pub disk_lat_ns: f64,
    /// Storage bandwidth, MiB/s.
    pub disk_mib: f64,
    /// Multiplier >= 1 applied to syscall and I/O costs when running under
    /// a hypervisor; 1.0 for bare metal (OS-level virtualization is
    /// modeled as 1.0 too — the paper stresses containers have no tax).
    pub hypervisor_tax: f64,
}

impl PlatformSpec {
    /// Time for one core to execute `demand`, with no contention.
    pub fn execute(&self, demand: &Demand) -> Nanos {
        Nanos::from_secs_f64(self.execute_secs(demand))
    }

    /// Same as [`execute`](Self::execute) but in fractional seconds, for
    /// analytic callers that subsequently scale the result.
    pub fn execute_secs(&self, demand: &Demand) -> f64 {
        let hz = self.clock_ghz * 1e9;
        let int_s = demand.int_ops / (hz * self.ipc_int);
        let fp_s = demand.fp_ops / (hz * self.ipc_fp);
        let simd_s = demand.simd_ops / (hz * self.ipc_fp * self.simd_lanes);
        let bw_s = demand.mem_stream_bytes / (self.mem_bw_gib * 1024.0 * 1024.0 * 1024.0);
        let lat_s = demand.mem_random_accesses * self.mem_lat_ns * 1e-9;
        let br_s = demand.branch_misses * self.branch_miss_ns * 1e-9;
        let sys_s = demand.syscalls * self.syscall_ns * 1e-9 * self.hypervisor_tax;
        int_s + fp_s + simd_s + bw_s + lat_s + br_s + sys_s
    }

    /// Speedup of `self` over `base` for `demand` (>1 means faster).
    pub fn speedup_over(&self, base: &PlatformSpec, demand: &Demand) -> f64 {
        base.execute_secs(demand) / self.execute_secs(demand)
    }

    /// Time for a disk transfer of `bytes` including one access latency.
    pub fn disk_io(&self, bytes: u64) -> Nanos {
        let xfer = bytes as f64 / (self.disk_mib * 1024.0 * 1024.0);
        Nanos::from_secs_f64(self.disk_lat_ns * 1e-9 * self.hypervisor_tax + xfer)
    }

    /// The baseliner-style fingerprint of this platform: the measured
    /// capability along every resource dimension, as `(name, value)` rows.
    /// Units are dimension-specific but stable, which is all a fingerprint
    /// comparison needs.
    pub fn fingerprint(&self) -> Vec<(&'static str, f64)> {
        vec![
            (ResourceDim::IntOps.name(), self.clock_ghz * self.ipc_int),
            (ResourceDim::FpOps.name(), self.clock_ghz * self.ipc_fp),
            (ResourceDim::SimdOps.name(), self.clock_ghz * self.ipc_fp * self.simd_lanes),
            (ResourceDim::MemBandwidth.name(), self.mem_bw_gib),
            (ResourceDim::MemLatency.name(), self.mem_lat_ns),
            (ResourceDim::Branch.name(), self.branch_miss_ns),
            (ResourceDim::Syscall.name(), self.syscall_ns * self.hypervisor_tax),
        ]
    }

    /// A copy of this platform running under a hypervisor with the given
    /// tax multiplier (e.g. 1.15 for a 15% syscall/I/O overhead).
    pub fn virtualized(&self, tax: f64, name: impl Into<String>) -> PlatformSpec {
        assert!(tax >= 1.0, "hypervisor tax must be >= 1");
        let mut p = self.clone();
        p.name = name.into();
        p.hypervisor_tax = tax;
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platforms;

    fn cpu_demand() -> Demand {
        Demand { int_ops: 1e9, ..Default::default() }
    }

    fn mem_demand() -> Demand {
        Demand { mem_random_accesses: 1e7, ..Default::default() }
    }

    #[test]
    fn execute_scales_linearly_with_demand() {
        let p = platforms::cloudlab_c220g();
        let one = p.execute_secs(&cpu_demand());
        let two = p.execute_secs(&cpu_demand().scaled(2.0));
        assert!((two / one - 2.0).abs() < 1e-9);
    }

    #[test]
    fn faster_platform_executes_faster() {
        let old = platforms::xeon_2006();
        let new = platforms::cloudlab_c220g();
        let d = cpu_demand();
        assert!(new.execute_secs(&d) < old.execute_secs(&d));
        assert!(new.speedup_over(&old, &d) > 1.0);
    }

    #[test]
    fn speedup_depends_on_workload_mix() {
        // The heart of the Torpor model: CPU-bound and latency-bound
        // workloads see different speedups between the same two machines.
        let old = platforms::xeon_2006();
        let new = platforms::cloudlab_c220g();
        let s_cpu = new.speedup_over(&old, &cpu_demand());
        let s_mem = new.speedup_over(&old, &mem_demand());
        assert!((s_cpu - s_mem).abs() > 0.2, "expected distinct speedups, got {s_cpu} vs {s_mem}");
    }

    #[test]
    fn demand_algebra() {
        let d = cpu_demand().plus(&mem_demand());
        assert_eq!(d.int_ops, 1e9);
        assert_eq!(d.mem_random_accesses, 1e7);
        let s = d.scaled(0.5);
        assert_eq!(s.int_ops, 5e8);
    }

    #[test]
    fn hypervisor_tax_hits_syscalls_only() {
        let bare = platforms::cloudlab_c220g();
        let vm = bare.virtualized(1.5, "vm");
        let cpu = cpu_demand();
        let sys = Demand { syscalls: 1e6, ..Default::default() };
        assert_eq!(bare.execute(&cpu), vm.execute(&cpu));
        let bare_s = bare.execute_secs(&sys);
        let vm_s = vm.execute_secs(&sys);
        assert!((vm_s / bare_s - 1.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "tax must be >= 1")]
    fn tax_below_one_panics() {
        let _ = platforms::cloudlab_c220g().virtualized(0.5, "bad");
    }

    #[test]
    fn disk_io_cost() {
        let p = platforms::cloudlab_c220g();
        let d = p.disk_io(4096);
        assert!(d > Nanos::ZERO);
    }

    #[test]
    fn fingerprint_covers_all_dims() {
        let fp = platforms::xeon_2006().fingerprint();
        assert_eq!(fp.len(), ResourceDim::ALL.len());
        for (dim, (name, value)) in ResourceDim::ALL.iter().zip(&fp) {
            assert_eq!(dim.name(), *name);
            assert!(*value > 0.0);
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Runtime is monotone in demand: adding work never makes a
            /// platform finish earlier.
            #[test]
            fn execute_is_monotone(
                a in 0.0f64..1e9, b in 0.0f64..1e9, c in 0.0f64..1e7, extra in 0.0f64..1e8
            ) {
                let p = platforms::cloudlab_c220g();
                let d1 = Demand { int_ops: a, fp_ops: b, mem_random_accesses: c, ..Default::default() };
                let d2 = Demand { int_ops: a + extra, ..d1 };
                prop_assert!(p.execute_secs(&d2) >= p.execute_secs(&d1));
            }

            /// Speedup of a platform over itself is exactly 1.
            #[test]
            fn self_speedup_is_one(a in 1.0f64..1e9, c in 1.0f64..1e6) {
                let p = platforms::xeon_2006();
                let d = Demand { int_ops: a, mem_random_accesses: c, ..Default::default() };
                prop_assert!((p.speedup_over(&p, &d) - 1.0).abs() < 1e-12);
            }
        }
    }
}
