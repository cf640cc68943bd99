//! The LULESH-like proxy application.
//!
//! LULESH is a shock-hydrodynamics mini-app: each rank owns a cube of
//! elements in a 3D domain decomposition; every timestep it computes
//! over its cells, exchanges halos with up to six face neighbors, and
//! joins a global `allreduce` to agree on the next timestep. That
//! compute / halo / collective loop is what this proxy reproduces — the
//! structure that makes the application exquisitely sensitive to a
//! single noisy node.

use crate::comm::MpiWorld;
use popper_sim::{Demand, Nanos};

/// Proxy configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct LuleshConfig {
    /// Ranks per dimension: the world has `px·py·pz` ranks (LULESH
    /// proper requires a cube number; we accept any box).
    pub grid: (usize, usize, usize),
    /// Elements per rank per dimension (`n³` cells per rank).
    pub elements_per_rank: usize,
    /// Timesteps.
    pub iterations: usize,
    /// Compute demand per element per step.
    pub demand_per_element: Demand,
    /// Bytes per face cell in a halo message.
    pub bytes_per_face_cell: u64,
}

impl LuleshConfig {
    /// The paper-scale run: 27 ranks (3³), 30³ elements each, 50 steps.
    pub fn paper() -> Self {
        LuleshConfig {
            grid: (3, 3, 3),
            elements_per_rank: 30,
            iterations: 50,
            demand_per_element: Demand {
                fp_ops: 180.0,
                simd_ops: 220.0,
                mem_stream_bytes: 640.0,
                mem_random_accesses: 2.0,
                ..Default::default()
            },
            bytes_per_face_cell: 64,
        }
    }

    /// A scaled-down variant for fast tests.
    pub fn small() -> Self {
        LuleshConfig { grid: (2, 2, 2), elements_per_rank: 10, iterations: 5, ..Self::paper() }
    }

    /// Total ranks.
    pub fn ranks(&self) -> usize {
        self.grid.0 * self.grid.1 * self.grid.2
    }

    /// The grid coordinates of a rank.
    #[cfg(test)]
    fn coords(&self, rank: usize) -> (usize, usize, usize) {
        let (px, py, _pz) = self.grid;
        (rank % px, (rank / px) % py, rank / (px * py))
    }

    fn rank_at(&self, x: usize, y: usize, z: usize) -> usize {
        let (px, py, _) = self.grid;
        x + y * px + z * px * py
    }

    /// The unique face-neighbor pairs `(a, b)` of the decomposition.
    pub fn neighbor_pairs(&self) -> Vec<(usize, usize)> {
        let (px, py, pz) = self.grid;
        let mut pairs = Vec::new();
        for z in 0..pz {
            for y in 0..py {
                for x in 0..px {
                    let r = self.rank_at(x, y, z);
                    if x + 1 < px {
                        pairs.push((r, self.rank_at(x + 1, y, z)));
                    }
                    if y + 1 < py {
                        pairs.push((r, self.rank_at(x, y + 1, z)));
                    }
                    if z + 1 < pz {
                        pairs.push((r, self.rank_at(x, y, z + 1)));
                    }
                }
            }
        }
        pairs
    }

    /// Halo message size: one face of `n²` cells.
    pub fn halo_bytes(&self) -> u64 {
        (self.elements_per_rank * self.elements_per_rank) as u64 * self.bytes_per_face_cell
    }
}

/// Result of one proxy run.
#[derive(Debug, Clone, PartialEq)]
pub struct LuleshResult {
    /// End-to-end virtual runtime.
    pub elapsed: Nanos,
    /// Mean fraction of time ranks spent inside MPI.
    pub mpi_fraction: f64,
    /// Per-rank `(app, mpi)` seconds, for attribution.
    pub per_rank: Vec<(f64, f64)>,
}

/// Run the proxy on an existing world (whose cluster may carry noise).
/// The world must have exactly `config.ranks()` ranks.
pub fn run(world: &mut MpiWorld, config: &LuleshConfig) -> LuleshResult {
    assert_eq!(world.size(), config.ranks(), "world size must match the decomposition");
    let cells = (config.elements_per_rank as f64).powi(3);
    let step_demand = config.demand_per_element.scaled(cells);
    let pairs = config.neighbor_pairs();
    let halo = config.halo_bytes();
    let exchange: Vec<(usize, usize, u64)> = pairs.iter().map(|&(a, b)| (a, b, halo)).collect();

    for _step in 0..config.iterations {
        for r in 0..world.size() {
            world.compute(r, &step_demand);
        }
        world.exchange(&exchange);
        // Global dt agreement: one f64.
        world.allreduce(8);
    }
    let per_rank = world
        .profile
        .ranks
        .iter()
        .map(|r| (r.app_time.as_secs_f64(), r.total_mpi().as_secs_f64()))
        .collect();
    LuleshResult {
        elapsed: world.elapsed(),
        mpi_fraction: world.profile.mean_mpi_fraction(),
        per_rank,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popper_sim::{platforms, Cluster};

    fn world_for(config: &LuleshConfig, nodes: usize) -> MpiWorld {
        MpiWorld::new(Cluster::new(platforms::hpc_node(), nodes), config.ranks())
    }

    #[test]
    fn decomposition_geometry() {
        let c = LuleshConfig::paper();
        assert_eq!(c.ranks(), 27);
        let pairs = c.neighbor_pairs();
        // 3 faces × 3×3 per direction × ... : for a 3³ grid, 2·3·9 = 54 pairs.
        assert_eq!(pairs.len(), 54);
        // Every pair is a face neighbor (Manhattan distance 1).
        for &(a, b) in &pairs {
            let (ax, ay, az) = c.coords(a);
            let (bx, by, bz) = c.coords(b);
            let dist = ax.abs_diff(bx) + ay.abs_diff(by) + az.abs_diff(bz);
            assert_eq!(dist, 1, "pair ({a},{b})");
        }
        // No duplicates.
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), pairs.len());
    }

    #[test]
    fn proxy_runs_and_reports() {
        let c = LuleshConfig::small();
        let mut w = world_for(&c, 4);
        let r = run(&mut w, &c);
        assert!(r.elapsed > Nanos::ZERO);
        assert!(r.mpi_fraction > 0.0 && r.mpi_fraction < 1.0);
        assert_eq!(r.per_rank.len(), c.ranks());
    }

    #[test]
    fn more_iterations_take_longer_linearly() {
        let mut c = LuleshConfig::small();
        c.iterations = 4;
        let mut w = world_for(&c, 4);
        let r4 = run(&mut w, &c);
        c.iterations = 8;
        let mut w = world_for(&c, 4);
        let r8 = run(&mut w, &c);
        let ratio = r8.elapsed.as_secs_f64() / r4.elapsed.as_secs_f64();
        assert!((ratio - 2.0).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn bigger_domains_shift_time_to_compute() {
        let mut c = LuleshConfig::small();
        c.elements_per_rank = 8;
        let mut w = world_for(&c, 4);
        let small = run(&mut w, &c);
        c.elements_per_rank = 24;
        let mut w = world_for(&c, 4);
        let big = run(&mut w, &c);
        assert!(
            big.mpi_fraction < small.mpi_fraction,
            "surface-to-volume: {} vs {}",
            big.mpi_fraction,
            small.mpi_fraction
        );
    }

    #[test]
    fn deterministic() {
        let c = LuleshConfig::small();
        let r1 = run(&mut world_for(&c, 4), &c);
        let r2 = run(&mut world_for(&c, 4), &c);
        assert_eq!(r1, r2);
    }
}
