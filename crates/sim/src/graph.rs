//! Simulation DAGs.

use smpss::graph::record::GraphRecord;

/// One task instance in a simulation graph.
#[derive(Clone, Debug)]
pub struct SimNode {
    /// Task-type label (drives cost models and reporting).
    pub name: String,
    /// Execution cost in microseconds of virtual time.
    pub cost: f64,
    /// Scheduled through the high-priority list?
    pub high_priority: bool,
}

/// A DAG of task instances in spawn order: node `i` is the `i`-th task
/// the main thread creates, and every edge points from a lower to a
/// higher index (true for any graph a sequential spawner can produce).
#[derive(Clone, Debug, Default)]
pub struct SimGraph {
    pub(crate) nodes: Vec<SimNode>,
    /// Successor adjacency, parallel to `nodes`.
    pub(crate) succs: Vec<Vec<u32>>,
    /// In-degree, parallel to `nodes`.
    pub(crate) preds: Vec<u32>,
}

impl SimGraph {
    /// Convert a recorded runtime graph, assigning each task a cost via
    /// `cost` (µs).
    pub fn from_record(g: &GraphRecord, mut cost: impl FnMut(&str) -> f64) -> SimGraph {
        SimGraph::from_record_with(g, |_, name| cost(name))
    }

    /// Like [`from_record`](Self::from_record) but the cost function also
    /// sees the zero-based spawn index, for workloads whose task costs
    /// vary per instance (e.g. the N Queens subtree-exploration tasks).
    pub fn from_record_with(g: &GraphRecord, mut cost: impl FnMut(usize, &str) -> f64) -> SimGraph {
        let mut out = SimGraph::default();
        for (idx, n) in g.nodes().iter().enumerate() {
            out.push_node(SimNode {
                name: n.name.to_string(),
                cost: cost(idx, n.name),
                high_priority: n.high_priority,
            });
        }
        // Deduplicate multi-parameter edges: the scheduler counts one
        // dependency per producer/consumer *pair* release, and duplicate
        // edges would deadlock the simulated in-degrees.
        let mut seen = std::collections::HashSet::new();
        for &(f, t, _) in g.edges() {
            if seen.insert((f, t)) {
                out.push_edge(f.index(), t.index());
            }
        }
        out
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub fn edge_count(&self) -> usize {
        self.succs.iter().map(|s| s.len()).sum()
    }

    /// Total work (sum of costs), µs.
    pub fn total_work(&self) -> f64 {
        self.nodes.iter().map(|n| n.cost).sum()
    }

    /// Critical path length, µs (node costs only; overheads are the
    /// engine's business).
    pub fn critical_path(&self) -> f64 {
        let n = self.nodes.len();
        let mut dist = vec![0.0f64; n];
        let mut best = 0.0f64;
        for i in 0..n {
            let d = dist[i] + self.nodes[i].cost;
            best = best.max(d);
            for &s in &self.succs[i] {
                let s = s as usize;
                if dist[s] < d {
                    dist[s] = d;
                }
            }
        }
        best
    }

    fn push_node(&mut self, node: SimNode) -> usize {
        self.nodes.push(node);
        self.succs.push(Vec::new());
        self.preds.push(0);
        self.nodes.len() - 1
    }

    fn push_edge(&mut self, from: usize, to: usize) {
        assert!(from < to, "edges must follow spawn order ({from} -> {to})");
        self.succs[from].push(to as u32);
        self.preds[to] += 1;
    }
}

/// Imperative DAG construction for synthetic workloads (the fork-join
/// baselines of Figures 14–16, scheduler unit tests, ablations).
#[derive(Default)]
pub struct DagBuilder {
    g: SimGraph,
}

impl DagBuilder {
    pub fn new() -> Self {
        DagBuilder::default()
    }

    /// Add a task; returns its index. Tasks must be added in the order
    /// the (virtual) main program would spawn them.
    pub fn task(&mut self, name: &str, cost: f64) -> usize {
        self.g.push_node(SimNode {
            name: name.to_string(),
            cost,
            high_priority: false,
        })
    }

    /// Add a high-priority task.
    pub fn task_hp(&mut self, name: &str, cost: f64) -> usize {
        self.g.push_node(SimNode {
            name: name.to_string(),
            cost,
            high_priority: true,
        })
    }

    /// Add a dependency `from -> to` (from must be older).
    pub fn edge(&mut self, from: usize, to: usize) {
        self.g.push_edge(from, to);
    }

    /// Dependencies from many producers to one consumer.
    pub fn join(&mut self, froms: &[usize], to: usize) {
        for &f in froms {
            self.g.push_edge(f, to);
        }
    }

    pub fn build(self) -> SimGraph {
        self.g
    }
}

/// A linear chain of `n` unit-cost tasks (no parallelism at all).
pub fn chain(n: usize, cost: f64) -> SimGraph {
    let mut b = DagBuilder::new();
    let mut prev = None;
    for _ in 0..n {
        let t = b.task("link", cost);
        if let Some(p) = prev {
            b.edge(p, t);
        }
        prev = Some(t);
    }
    b.build()
}

/// `n` completely independent unit-cost tasks (embarrassing parallelism).
pub fn independent(n: usize, cost: f64) -> SimGraph {
    let mut b = DagBuilder::new();
    for _ in 0..n {
        b.task("indep", cost);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_metrics() {
        let mut b = DagBuilder::new();
        let a = b.task("a", 2.0);
        let c1 = b.task("b", 3.0);
        let c2 = b.task("b", 5.0);
        let d = b.task("c", 1.0);
        b.edge(a, c1);
        b.edge(a, c2);
        b.join(&[c1, c2], d);
        let g = b.build();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.total_work(), 11.0);
        assert_eq!(g.critical_path(), 2.0 + 5.0 + 1.0);
    }

    #[test]
    fn chain_has_no_parallelism() {
        let g = chain(10, 1.0);
        assert_eq!(g.total_work(), 10.0);
        assert_eq!(g.critical_path(), 10.0);
    }

    #[test]
    fn independent_is_flat() {
        let g = independent(10, 2.0);
        assert_eq!(g.critical_path(), 2.0);
    }

    #[test]
    #[should_panic(expected = "spawn order")]
    fn backward_edge_rejected() {
        let mut b = DagBuilder::new();
        let a = b.task("a", 1.0);
        let c = b.task("b", 1.0);
        b.edge(c, a);
    }

    #[test]
    fn from_record_dedups_edges() {
        use smpss::{task_def, Runtime};
        task_def! {
            fn two_param(input a: i32, input b: i32, output c: i32) { *c = *a + *b; }
        }
        let rt = Runtime::builder().threads(1).record_graph(true).build();
        let x = rt.data(1);
        let y = rt.data(0);
        {
            // Producer writing x twice-read by the consumer below.
            let mut sp = rt.task("prod");
            let mut w = sp.inout(&x);
            sp.submit(move || *w.get_mut() += 1);
        }
        two_param(&rt, &x, &x, &y); // two True edges from the same producer
        rt.barrier();
        let rec = rt.graph().unwrap();
        assert_eq!(rec.edge_count(), 2);
        let g = SimGraph::from_record(&rec, |_| 1.0);
        assert_eq!(g.edge_count(), 1, "sim graph must deduplicate pairs");
        assert_eq!(g.preds[1], 1);
    }
}
