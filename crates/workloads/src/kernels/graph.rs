//! Graph-analytics kernels (GAPBS-style): BFS, PageRank, triangle counting
//! and connected components over synthetic Kronecker, road-grid, uniform
//! and Twitter-like graphs.
//!
//! The generators run the real traversal (BFS visits, label propagation,
//! adjacency intersection) over an in-memory CSR and emit the memory
//! accesses that traversal performs: sequential edge-list reads, random
//! per-vertex gathers, and pointer-dependent row lookups. Kronecker degree
//! skew produces the pronounced phase behaviour the paper's time-series
//! experiment (Figure 8, `tc-kron`) relies on.

use crate::rng::{unit_cut, SplitMix};
use camp_sim::{Op, Workload};

/// Synthetic graph topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphShape {
    /// RMAT/Kronecker graph: `2^scale` vertices, `degree` edges per vertex,
    /// heavy-tailed degrees.
    Kron {
        /// log2 of the vertex count.
        scale: u32,
        /// Average out-degree.
        degree: u32,
    },
    /// 2D road grid of `side x side` intersections (high locality, low
    /// degree).
    Road {
        /// Grid side length.
        side: u32,
    },
    /// Uniform random graph: `2^scale` vertices, `degree` edges per vertex.
    Urand {
        /// log2 of the vertex count.
        scale: u32,
        /// Average out-degree.
        degree: u32,
    },
    /// Twitter-like: Kronecker with stronger skew (hub-dominated).
    TwitterLike {
        /// log2 of the vertex count.
        scale: u32,
        /// Average out-degree.
        degree: u32,
    },
}

impl GraphShape {
    fn vertices(&self) -> u64 {
        match self {
            GraphShape::Kron { scale, .. }
            | GraphShape::Urand { scale, .. }
            | GraphShape::TwitterLike { scale, .. } => 1u64 << scale,
            GraphShape::Road { side } => (*side as u64) * (*side as u64),
        }
    }

    fn target_edges(&self) -> u64 {
        match self {
            GraphShape::Kron { degree, .. }
            | GraphShape::Urand { degree, .. }
            | GraphShape::TwitterLike { degree, .. } => self.vertices() * *degree as u64,
            GraphShape::Road { .. } => self.vertices() * 4,
        }
    }
}

/// Graph algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphAlgo {
    /// Breadth-first search from random sources.
    Bfs,
    /// PageRank power iterations.
    Pr,
    /// Triangle counting by adjacency intersection.
    Tc,
    /// Connected components by label propagation.
    Cc,
    /// Single-source shortest path (BFS with per-edge relaxation compute).
    Sssp,
}

/// Compressed sparse row adjacency built by the generator.
struct Csr {
    rowptr: Vec<u32>,
    edges: Vec<u32>,
}

impl Csr {
    fn vertices(&self) -> u32 {
        self.rowptr.len() as u32 - 1
    }

    fn neighbors(&self, u: u32) -> &[u32] {
        &self.edges[self.rowptr[u as usize] as usize..self.rowptr[u as usize + 1] as usize]
    }
}

/// A graph-analytics workload.
#[derive(Debug, Clone)]
pub struct GraphKernel {
    name: String,
    threads: u32,
    shape: GraphShape,
    algo: GraphAlgo,
    memory_ops: u64,
}

impl GraphKernel {
    /// Creates a graph workload emitting at most `memory_ops` memory
    /// operations.
    pub fn new(
        name: impl Into<String>,
        threads: u32,
        shape: GraphShape,
        algo: GraphAlgo,
        memory_ops: u64,
    ) -> Self {
        GraphKernel {
            name: name.into(),
            threads,
            shape,
            algo,
            memory_ops,
        }
    }

    fn build_graph(&self) -> Csr {
        let mut rng = SplitMix::from_name(&self.name);
        let v = self.shape.vertices() as u32;
        let e = self.shape.target_edges();
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(e as usize);
        match self.shape {
            GraphShape::Road { side } => {
                for y in 0..side {
                    for x in 0..side {
                        let u = y * side + x;
                        if x + 1 < side {
                            pairs.push((u, u + 1));
                            pairs.push((u + 1, u));
                        }
                        if y + 1 < side {
                            pairs.push((u, u + side));
                            pairs.push((u + side, u));
                        }
                    }
                }
            }
            GraphShape::Urand { scale, .. } => {
                for _ in 0..e {
                    pairs.push((rng.below(1 << scale) as u32, rng.below(1 << scale) as u32));
                }
            }
            GraphShape::Kron { scale, .. } | GraphShape::TwitterLike { scale, .. } => {
                let (a, b, c) = if matches!(self.shape, GraphShape::Kron { .. }) {
                    (0.57, 0.19, 0.19)
                } else {
                    (0.70, 0.15, 0.10)
                };
                // Quadrant per bit: `unit() < a` picks (0, 0), `< a + b`
                // (0, 1), `< a + b + c` (1, 0), else (1, 1). The same
                // comparisons on the 53-bit draw against integer cuts give
                // the same answers (see `unit_cut`), without branches.
                let (t1, t2, t3) = (unit_cut(a), unit_cut(a + b), unit_cut(a + b + c));
                for _ in 0..e {
                    let (mut u, mut vtx) = (0u32, 0u32);
                    for bit in (0..scale).rev() {
                        let k = rng.unit_bits();
                        let du = (k >= t2) as u32;
                        let dv = (((t1 <= k) & (k < t2)) | (k >= t3)) as u32;
                        u |= du << bit;
                        vtx |= dv << bit;
                    }
                    pairs.push((u, vtx));
                }
            }
        }
        // Counting sort into CSR.
        let mut rowptr = vec![0u32; v as usize + 1];
        for &(u, _) in &pairs {
            rowptr[u as usize + 1] += 1;
        }
        for i in 1..rowptr.len() {
            rowptr[i] += rowptr[i - 1];
        }
        let mut cursor = rowptr.clone();
        let mut edges = vec![0u32; pairs.len()];
        for &(u, w) in &pairs {
            edges[cursor[u as usize] as usize] = w;
            cursor[u as usize] += 1;
        }
        Csr { rowptr, edges }
    }

    /// Address-space layout: per-vertex data, then rowptr, then edge array.
    fn rank_addr(&self, u: u32) -> u64 {
        u as u64 * 8
    }

    fn rowptr_addr(&self, u: u32) -> u64 {
        self.shape.vertices() * 8 + u as u64 * 8
    }

    fn edge_addr(&self, e: u64) -> u64 {
        self.shape.vertices() * 16 + e * 4
    }

    fn visited_addr(&self, u: u32) -> u64 {
        self.shape.vertices() * 16 + self.shape.target_edges() * 4 + u as u64 * 8
    }

    fn generate(&self) -> Vec<Op> {
        let graph = self.build_graph();
        let mut ops = Vec::with_capacity((self.memory_ops + self.memory_ops / 4) as usize);
        let budget = self.memory_ops as usize;
        let mut rng = SplitMix::from_name(&self.name);
        match self.algo {
            GraphAlgo::Pr | GraphAlgo::Cc => self.gen_propagation(&graph, &mut ops, budget),
            GraphAlgo::Bfs => self.gen_bfs(&graph, &mut ops, budget, &mut rng, 0),
            GraphAlgo::Sssp => self.gen_bfs(&graph, &mut ops, budget, &mut rng, 3),
            GraphAlgo::Tc => self.gen_tc(&graph, &mut ops, budget),
        }
        ops
    }

    /// PageRank / label propagation: sequential rowptr+edge scans with a
    /// random gather per edge and a store per vertex.
    fn gen_propagation(&self, graph: &Csr, ops: &mut Vec<Op>, budget: usize) {
        let store = matches!(self.algo, GraphAlgo::Cc);
        'outer: loop {
            for u in 0..graph.vertices() {
                if ops.len() >= budget {
                    break 'outer;
                }
                ops.push(Op::load(self.rowptr_addr(u)));
                let start = graph.rowptr[u as usize] as u64;
                for (i, &nbr) in graph.neighbors(u).iter().enumerate() {
                    ops.push(Op::load(self.edge_addr(start + i as u64)));
                    ops.push(Op::load(self.rank_addr(nbr)));
                    ops.push(Op::compute(1));
                }
                if store {
                    ops.push(Op::store(self.visited_addr(u)));
                } else {
                    ops.push(Op::store(self.rank_addr(u)));
                }
            }
        }
    }

    /// BFS / SSSP: real frontier traversal; visited checks are random
    /// gathers, frontier pops depend on the previous level's data.
    fn gen_bfs(
        &self,
        graph: &Csr,
        ops: &mut Vec<Op>,
        budget: usize,
        rng: &mut SplitMix,
        relax_compute: u32,
    ) {
        let v = graph.vertices();
        let mut visited = vec![false; v as usize];
        let mut queue = std::collections::VecDeque::new();
        while ops.len() < budget {
            let u = match queue.pop_front() {
                Some(u) => u,
                None => {
                    // New random source (restart when components exhaust).
                    let mut src = rng.below(v as u64) as u32;
                    let mut tries = 0;
                    while visited[src as usize] && tries < 64 {
                        src = rng.below(v as u64) as u32;
                        tries += 1;
                    }
                    if visited[src as usize] {
                        visited.iter_mut().for_each(|f| *f = false);
                    }
                    src
                }
            };
            visited[u as usize] = true;
            // Pop = dependent load of the frontier entry.
            ops.push(Op::chase(self.visited_addr(u)));
            ops.push(Op::load(self.rowptr_addr(u)));
            let start = graph.rowptr[u as usize] as u64;
            for (i, &nbr) in graph.neighbors(u).iter().enumerate() {
                if ops.len() >= budget {
                    return;
                }
                ops.push(Op::load(self.edge_addr(start + i as u64)));
                ops.push(Op::load(self.visited_addr(nbr)));
                if relax_compute > 0 {
                    ops.push(Op::compute(relax_compute));
                }
                if !visited[nbr as usize] {
                    visited[nbr as usize] = true;
                    queue.push_back(nbr);
                    ops.push(Op::store(self.visited_addr(nbr)));
                }
            }
        }
    }

    /// Triangle counting: per edge (u, v), rowptr lookup for v is a
    /// dependent load, then both adjacency lists stream sequentially.
    fn gen_tc(&self, graph: &Csr, ops: &mut Vec<Op>, budget: usize) {
        'outer: for u in 0..graph.vertices() {
            let u_start = graph.rowptr[u as usize] as u64;
            let u_deg = graph.neighbors(u).len() as u64;
            for (i, &vtx) in graph.neighbors(u).iter().enumerate() {
                if vtx <= u {
                    continue;
                }
                if ops.len() >= budget {
                    break 'outer;
                }
                ops.push(Op::load(self.edge_addr(u_start + i as u64)));
                // Row lookup for v depends on the edge value.
                ops.push(Op::chase(self.rowptr_addr(vtx)));
                let v_start = graph.rowptr[vtx as usize] as u64;
                let v_deg = graph.neighbors(vtx).len() as u64;
                // Merge-intersect: stream both lists.
                let steps = (u_deg + v_deg).min(64);
                for s in 0..steps {
                    if ops.len() >= budget {
                        break 'outer;
                    }
                    if s % 2 == 0 {
                        ops.push(Op::load(self.edge_addr(u_start + (s / 2) % u_deg.max(1))));
                    } else {
                        ops.push(Op::load(self.edge_addr(v_start + (s / 2) % v_deg.max(1))));
                    }
                    ops.push(Op::compute(1));
                }
            }
        }
    }
}

impl Workload for GraphKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn threads(&self) -> u32 {
        self.threads
    }

    fn footprint_bytes(&self) -> u64 {
        // rank + rowptr + edges + visited.
        self.shape.vertices() * 24 + self.shape.target_edges() * 4
    }

    fn ops(&self) -> Box<dyn Iterator<Item = Op> + '_> {
        Box::new(self.generate().into_iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kron_small() -> GraphShape {
        GraphShape::Kron { scale: 10, degree: 8 }
    }

    #[test]
    fn csr_is_well_formed() {
        let w = GraphKernel::new("g", 1, kron_small(), GraphAlgo::Pr, 1000);
        let csr = w.build_graph();
        assert_eq!(csr.vertices(), 1024);
        assert_eq!(*csr.rowptr.last().unwrap() as usize, csr.edges.len());
        assert!(csr.edges.iter().all(|&e| e < 1024));
    }

    #[test]
    fn kron_degrees_are_skewed_road_is_not() {
        let kron = GraphKernel::new("k", 1, kron_small(), GraphAlgo::Pr, 10).build_graph();
        let max_deg = (0..kron.vertices()).map(|u| kron.neighbors(u).len()).max().unwrap();
        assert!(max_deg > 64, "kron hub degree {max_deg}");
        let road = GraphKernel::new("r", 1, GraphShape::Road { side: 32 }, GraphAlgo::Pr, 10)
            .build_graph();
        let max_deg = (0..road.vertices()).map(|u| road.neighbors(u).len()).max().unwrap();
        assert!(max_deg <= 4, "road degree {max_deg}");
    }

    #[test]
    fn ops_respect_budget_and_footprint() {
        for algo in [
            GraphAlgo::Bfs,
            GraphAlgo::Pr,
            GraphAlgo::Tc,
            GraphAlgo::Cc,
            GraphAlgo::Sssp,
        ] {
            let w = GraphKernel::new("b", 1, kron_small(), algo, 5_000);
            let mut memory = 0u64;
            for op in w.ops() {
                match op {
                    Op::Load { addr, .. } | Op::Store { addr } => {
                        memory += 1;
                        assert!(addr < w.footprint_bytes(), "{algo:?}: addr out of range");
                    }
                    _ => {}
                }
            }
            assert!(memory > 1_000, "{algo:?} produced only {memory} memory ops");
            assert!(memory <= 6_000, "{algo:?} exceeded budget: {memory}");
        }
    }

    #[test]
    fn bfs_visits_and_stores_frontier() {
        let w = GraphKernel::new("bfs", 1, kron_small(), GraphAlgo::Bfs, 5_000);
        let ops: Vec<Op> = w.ops().collect();
        assert!(ops.iter().any(|op| matches!(op, Op::Store { .. })));
        assert!(ops.iter().any(|op| matches!(op, Op::Load { dep: 1, .. })));
    }

    #[test]
    fn deterministic_across_calls() {
        let w = GraphKernel::new(
            "det",
            1,
            GraphShape::Urand { scale: 9, degree: 4 },
            GraphAlgo::Cc,
            2_000,
        );
        let a: Vec<Op> = w.ops().collect();
        let b: Vec<Op> = w.ops().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn twitter_like_is_more_skewed_than_kron() {
        let kron =
            GraphKernel::new("k2", 1, GraphShape::Kron { scale: 12, degree: 8 }, GraphAlgo::Pr, 10)
                .build_graph();
        let twit = GraphKernel::new(
            "t2",
            1,
            GraphShape::TwitterLike { scale: 12, degree: 8 },
            GraphAlgo::Pr,
            10,
        )
        .build_graph();
        let max = |g: &Csr| (0..g.vertices()).map(|u| g.neighbors(u).len()).max().unwrap();
        assert!(max(&twit) > max(&kron));
    }
}
