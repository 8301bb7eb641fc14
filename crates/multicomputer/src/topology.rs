//! Interconnect topologies and shortest-path distances.
//!
//! The paper fixes four links per PE and proposes a mesh or a chordal-ring
//! variant (§3.2). [`Topology`] builds the adjacency structure and keeps
//! the all-pairs hop counts (BFS) the communication cost model consults.

use prisma_types::{MachineConfig, PeId, PrismaError, Result, TopologyKind};
use std::collections::VecDeque;

/// A concrete interconnect: all-pairs shortest-path hop counts.
#[derive(Debug, Clone)]
pub struct Topology {
    n: usize,
    /// `dist[src * n + dst]` — hop count of the shortest path; 1 exactly
    /// between linked PEs.
    dist: Vec<u32>,
}

impl Topology {
    /// Build the topology described by `config`.
    ///
    /// For [`TopologyKind::Mesh`] the PE count is arranged into the most
    /// square `rows × cols` grid; a perfect square (like the paper's 64 → 8×8)
    /// gives the canonical mesh.
    pub fn build(config: &MachineConfig) -> Result<Topology> {
        config.validate()?;
        let n = config.num_pes;
        let neighbors = match config.topology {
            TopologyKind::Mesh => mesh_neighbors(n),
            TopologyKind::ChordalRing { stride } => chordal_ring_neighbors(n, stride as usize)?,
            TopologyKind::FullyConnected => (0..n)
                .map(|i| {
                    (0..n)
                        .filter(|&j| j != i)
                        .map(PeId::from)
                        .collect::<Vec<_>>()
                })
                .collect(),
        };
        let dist = distances(n, &neighbors)?;
        Ok(Topology { n, dist })
    }

    /// Number of PEs.
    #[inline]
    pub fn num_pes(&self) -> usize {
        self.n
    }

    /// Shortest-path hop count between two PEs.
    #[inline]
    pub fn distance(&self, src: PeId, dst: PeId) -> u32 {
        self.dist[src.index() * self.n + dst.index()]
    }
}

/// Most-square factorization of `n` into `rows × cols` (rows ≤ cols).
fn mesh_dims(n: usize) -> (usize, usize) {
    let mut rows = (n as f64).sqrt() as usize;
    while rows > 1 && !n.is_multiple_of(rows) {
        rows -= 1;
    }
    (rows.max(1), n / rows.max(1))
}

fn mesh_neighbors(n: usize) -> Vec<Vec<PeId>> {
    let (rows, cols) = mesh_dims(n);
    let mut adj = vec![Vec::with_capacity(4); n];
    let id = |r: usize, c: usize| r * cols + c;
    for r in 0..rows {
        for c in 0..cols {
            let mut push = |rr: isize, cc: isize| {
                if rr >= 0 && (rr as usize) < rows && cc >= 0 && (cc as usize) < cols {
                    adj[id(r, c)].push(PeId::from(id(rr as usize, cc as usize)));
                }
            };
            push(r as isize - 1, c as isize);
            push(r as isize + 1, c as isize);
            push(r as isize, c as isize - 1);
            push(r as isize, c as isize + 1);
        }
    }
    adj
}

fn chordal_ring_neighbors(n: usize, stride: usize) -> Result<Vec<Vec<PeId>>> {
    if n < 3 {
        return Err(PrismaError::Config(
            "chordal ring needs at least 3 PEs".into(),
        ));
    }
    let mut adj = vec![Vec::with_capacity(4); n];
    for (i, nbrs) in adj.iter_mut().enumerate() {
        let mut add = |j: usize| {
            let p = PeId::from(j);
            if j != i && !nbrs.contains(&p) {
                nbrs.push(p);
            }
        };
        add((i + 1) % n);
        add((i + n - 1) % n);
        add((i + stride) % n);
        add((i + n - stride % n) % n);
    }
    Ok(adj)
}

/// All-pairs BFS producing the hop-count table.
fn distances(n: usize, adj: &[Vec<PeId>]) -> Result<Vec<u32>> {
    let mut dist = vec![u32::MAX; n * n];
    let mut queue = VecDeque::new();
    for src in 0..n {
        let row = src * n;
        dist[row + src] = 0;
        queue.clear();
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            for &vpe in &adj[u] {
                let v = vpe.index();
                if dist[row + v] == u32::MAX {
                    dist[row + v] = dist[row + u] + 1;
                    queue.push_back(v);
                }
            }
        }
        if dist[row..row + n].contains(&u32::MAX) {
            return Err(PrismaError::Config("topology is not connected".to_owned()));
        }
    }
    Ok(dist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prisma_types::TopologyKind;

    /// Closed-form properties of a topology the tests check against the
    /// paper (§3.2).
    impl Topology {
        /// Largest shortest-path distance in the network.
        fn diameter(&self) -> u32 {
            self.dist.iter().copied().max().unwrap_or(0)
        }

        /// Maximum link degree — must be ≤ 4 for the buildable
        /// topologies (paper: "four communication links" per PE).
        fn max_degree(&self) -> usize {
            self.dist
                .chunks(self.n)
                .map(|row| row.iter().filter(|&&d| d == 1).count())
                .max()
                .unwrap_or(0)
        }

        /// Mean shortest-path distance over all ordered pairs of distinct
        /// PEs — how many link-crossings an average packet consumes, and
        /// therefore where uniform-traffic throughput saturates.
        fn mean_distance(&self) -> f64 {
            if self.n < 2 {
                return 0.0;
            }
            let total: u64 = self.dist.iter().map(|&d| d as u64).sum();
            total as f64 / (self.n * (self.n - 1)) as f64
        }

        /// Total number of *directed* links (each undirected link counts
        /// twice, once per direction, matching the full-duplex links of
        /// the paper).
        fn num_directed_links(&self) -> usize {
            self.dist.iter().filter(|&&d| d == 1).count()
        }

        /// Analytic saturation throughput per PE under uniform random
        /// traffic, in packets per second: aggregate link capacity
        /// divided by the mean hop count a packet consumes, normalized
        /// per PE.
        fn uniform_saturation_pps(&self, link_pps: f64) -> f64 {
            let capacity = self.num_directed_links() as f64 * link_pps;
            capacity / self.mean_distance() / self.n as f64
        }
    }

    fn mesh64() -> Topology {
        Topology::build(&MachineConfig::paper_prototype()).unwrap()
    }

    fn ring64() -> Topology {
        let cfg = MachineConfig::paper_prototype()
            .with_topology(TopologyKind::ChordalRing { stride: 8 });
        Topology::build(&cfg).unwrap()
    }

    #[test]
    fn paper_mesh_is_8x8() {
        assert_eq!(mesh_dims(64), (8, 8));
        let t = mesh64();
        assert_eq!(t.num_pes(), 64);
        assert_eq!(t.max_degree(), 4, "paper allows only 4 links per PE");
        assert_eq!(t.diameter(), 14); // (8-1)+(8-1)
        // 2*rows*(cols-1) + 2*cols*(rows-1) directed links = 224
        assert_eq!(t.num_directed_links(), 224);
    }

    #[test]
    fn chordal_ring_has_degree_four_and_shorter_diameter_than_plain_ring() {
        let t = ring64();
        assert_eq!(t.max_degree(), 4);
        assert!(t.diameter() <= 8, "diameter {} too large", t.diameter());
    }

    #[test]
    fn mean_distance_of_8x8_mesh_matches_closed_form() {
        // Mean Manhattan distance on an m×m grid over ordered distinct
        // pairs: 2*m*(m^2-1)/3 / (m^2-1) ... computed directly instead:
        let t = mesh64();
        let mut total = 0u64;
        let mut pairs = 0u64;
        for a in 0..64 {
            for b in 0..64 {
                if a != b {
                    total += t.distance(PeId(a), PeId(b)) as u64;
                    pairs += 1;
                }
            }
        }
        let mean = total as f64 / pairs as f64;
        assert!((t.mean_distance() - mean).abs() < 1e-9);
        // 8x8 mesh mean distance is 16/3 ≈ 5.33 over all pairs incl. self;
        // over distinct pairs slightly higher.
        assert!(mean > 5.0 && mean < 5.6, "mean {mean}");
    }

    #[test]
    fn fully_connected_is_distance_one() {
        let cfg = MachineConfig::tiny().with_topology(TopologyKind::FullyConnected);
        let t = Topology::build(&cfg).unwrap();
        assert_eq!(t.diameter(), 1);
        assert_eq!(t.mean_distance(), 1.0);
    }

    #[test]
    fn saturation_estimate_is_near_20k_for_paper_machine() {
        // One 10 Mbit/s link moves 39062.5 packets of 256 bits per second.
        let link_pps = 10_000_000.0 / 256.0;
        let mesh = mesh64().uniform_saturation_pps(link_pps);
        let ring = ring64().uniform_saturation_pps(link_pps);
        // The paper reports "up to 20.000 packets per second per PE" from
        // simulation. The analytic bound assumes perfectly balanced links,
        // so it sits above that number but must share its order of
        // magnitude (the chordal ring's shorter mean distance puts its
        // ideal bound near 39k, the mesh near 26k).
        assert!(
            mesh > 15_000.0 && mesh < 45_000.0,
            "mesh saturation {mesh} out of the paper's ballpark"
        );
        assert!(
            ring > 15_000.0 && ring < 45_000.0,
            "ring saturation {ring} out of the paper's ballpark"
        );
    }

    #[test]
    fn disconnected_rejected() {
        // A 2-PE "chordal ring" degenerates; builder must reject stride 0
        // via config validation.
        let cfg = MachineConfig {
            num_pes: 2,
            topology: TopologyKind::ChordalRing { stride: 1 },
            ..MachineConfig::default()
        };
        assert!(Topology::build(&cfg).is_err());
    }

    #[test]
    fn nonsquare_mesh_still_connected() {
        let cfg = MachineConfig::default()
            .with_pes(12)
            .with_topology(TopologyKind::Mesh);
        let t = Topology::build(&cfg).unwrap();
        assert_eq!(mesh_dims(12), (3, 4));
        assert!(t.diameter() >= 1);
    }
}
