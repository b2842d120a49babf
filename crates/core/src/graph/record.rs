//! Structural recording of the task graph.
//!
//! When [`record_graph`](crate::RuntimeBuilder::record_graph) is enabled, the
//! analyser records every node and every dependency edge *structurally* —
//! including edges whose producer had already finished (those never gate
//! scheduling, but they are part of the dataflow and appear in the paper's
//! Figure 5). The record is the exchange format consumed by `smpss-sim`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::ids::TaskId;

/// Kind of dependency edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Read-after-write. The only kind a renaming analyser produces (§III:
    /// "Due to renaming, the graph only contains true dependencies").
    True,
    /// Write-after-read (anti). Produced with renaming disabled and by the
    /// region analyser.
    Anti,
    /// Write-after-write (output). Produced with renaming disabled.
    Output,
}

/// Static information about one recorded node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeInfo {
    pub id: TaskId,
    pub name: &'static str,
    pub high_priority: bool,
}

/// A recorded task graph.
#[derive(Clone, Debug, Default)]
pub struct GraphRecord {
    nodes: Vec<NodeInfo>,
    edges: Vec<(TaskId, TaskId, EdgeKind)>,
}

impl GraphRecord {
    pub(crate) fn add_node(&mut self, info: NodeInfo) {
        debug_assert_eq!(
            info.id.0 as usize,
            self.nodes.len() + 1,
            "nodes must be recorded in invocation order"
        );
        self.nodes.push(info);
    }

    pub(crate) fn add_edge(&mut self, from: TaskId, to: TaskId, kind: EdgeKind) {
        debug_assert!(from < to, "edges must point forward in invocation order");
        self.edges.push((from, to, kind));
    }

    pub(crate) fn set_high_priority(&mut self, id: TaskId) {
        self.nodes[id.index()].high_priority = true;
    }

    /// Number of task instances ("the algorithm generates only 56 tasks" for
    /// the 6x6 Cholesky of Figure 5).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of recorded dependency edges (deduplicated pairs may repeat if
    /// two parameters induce the same pair; use [`unique_edge_count`](Self::unique_edge_count)
    /// for the set size).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of distinct `(from, to)` pairs.
    pub fn unique_edge_count(&self) -> usize {
        self.edges
            .iter()
            .map(|&(f, t, _)| (f, t))
            .collect::<BTreeSet<_>>()
            .len()
    }

    pub fn nodes(&self) -> &[NodeInfo] {
        &self.nodes
    }

    pub fn edges(&self) -> &[(TaskId, TaskId, EdgeKind)] {
        &self.edges
    }

    pub fn node(&self, id: TaskId) -> &NodeInfo {
        &self.nodes[id.index()]
    }

    /// Distinct predecessors of `id`.
    pub fn predecessors(&self, id: TaskId) -> BTreeSet<TaskId> {
        self.edges
            .iter()
            .filter(|&&(_, t, _)| t == id)
            .map(|&(f, _, _)| f)
            .collect()
    }

    /// Distinct successors of `id`.
    pub fn successors(&self, id: TaskId) -> BTreeSet<TaskId> {
        self.edges
            .iter()
            .filter(|&&(f, _, _)| f == id)
            .map(|&(_, t, _)| t)
            .collect()
    }

    /// Tasks with no predecessors (ready at spawn).
    pub fn roots(&self) -> Vec<TaskId> {
        let with_preds: BTreeSet<TaskId> = self.edges.iter().map(|&(_, t, _)| t).collect();
        self.nodes
            .iter()
            .map(|n| n.id)
            .filter(|id| !with_preds.contains(id))
            .collect()
    }

    /// Would `id` be ready once exactly the tasks in `finished` have
    /// completed? Used to check the paper's claim that "after running tasks
    /// 1 and 6, the runtime is able to start executing task 51".
    pub fn ready_after(&self, id: TaskId, finished: &BTreeSet<TaskId>) -> bool {
        self.predecessors(id).iter().all(|p| finished.contains(p))
    }

    /// Length of the longest path through the DAG where each node `n` costs
    /// `cost(n)`. Works because edges always point from earlier to later
    /// invocation ids, so ascending id order is a topological order.
    pub fn critical_path(&self, mut cost: impl FnMut(&NodeInfo) -> f64) -> f64 {
        let n = self.nodes.len();
        let mut dist = vec![0.0f64; n + 1];
        let mut preds: BTreeMap<TaskId, Vec<TaskId>> = BTreeMap::new();
        for &(f, t, _) in &self.edges {
            preds.entry(t).or_default().push(f);
        }
        let mut best = 0.0f64;
        for node in &self.nodes {
            let c = cost(node);
            let in_dist = preds
                .get(&node.id)
                .map(|ps| ps.iter().map(|p| dist[p.0 as usize]).fold(0.0, f64::max))
                .unwrap_or(0.0);
            dist[node.id.0 as usize] = in_dist + c;
            best = best.max(dist[node.id.0 as usize]);
        }
        best
    }

    /// Total work under the same cost model.
    pub fn total_work(&self, cost: impl FnMut(&NodeInfo) -> f64) -> f64 {
        self.nodes.iter().map(cost).sum()
    }

    /// Maximum achievable speedup (total work / critical path) — an upper
    /// bound on the parallelism the scheduler can extract from this graph.
    pub fn max_parallelism(&self, mut cost: impl FnMut(&NodeInfo) -> f64) -> f64 {
        let work = self.total_work(&mut cost);
        let span = self.critical_path(&mut cost);
        if span == 0.0 {
            0.0
        } else {
            work / span
        }
    }

    /// Number of tasks per distinct task name.
    pub fn histogram(&self) -> BTreeMap<&'static str, usize> {
        let mut h = BTreeMap::new();
        for n in &self.nodes {
            *h.entry(n.name).or_insert(0) += 1;
        }
        h
    }

    /// Graphviz DOT rendering, colouring nodes by task type like Figure 5
    /// ("Colors indicate the task type and edges indicate true
    /// dependencies").
    pub fn to_dot(&self) -> String {
        const PALETTE: &[&str] = &[
            "#8dd3c7", "#ffffb3", "#bebada", "#fb8072", "#80b1d3", "#fdb462", "#b3de69", "#fccde5",
        ];
        let mut colors: BTreeMap<&'static str, &str> = BTreeMap::new();
        for n in &self.nodes {
            let next = PALETTE[colors.len() % PALETTE.len()];
            colors.entry(n.name).or_insert(next);
        }
        let mut out = String::from("digraph tasks {\n  rankdir=TB;\n  node [style=filled];\n");
        for n in &self.nodes {
            let _ = writeln!(
                out,
                "  {} [label=\"{}\" fillcolor=\"{}\" tooltip=\"{}\"];",
                n.id, n.id, colors[n.name], n.name
            );
        }
        let mut seen = BTreeSet::new();
        for &(f, t, kind) in &self.edges {
            if seen.insert((f, t)) {
                let style = match kind {
                    EdgeKind::True => "solid",
                    EdgeKind::Anti => "dashed",
                    EdgeKind::Output => "dotted",
                };
                let _ = writeln!(out, "  {} -> {} [style={}];", f, t, style);
            }
        }
        out.push_str("}\n");
        out
    }

    /// Serialise to a line-oriented text format (one `node`/`edge` line
    /// per entry) for offline storage and the `graphdump` tool.
    pub fn to_text(&self) -> String {
        let mut out = String::from("# smpss graph v1\n");
        for n in &self.nodes {
            let _ = writeln!(
                out,
                "node {} {}{}",
                n.id,
                n.name,
                if n.high_priority { " hp" } else { "" }
            );
        }
        for &(f, t, kind) in &self.edges {
            let k = match kind {
                EdgeKind::True => "T",
                EdgeKind::Anti => "A",
                EdgeKind::Output => "O",
            };
            let _ = writeln!(out, "edge {f} {t} {k}");
        }
        out
    }

    /// Parse the [`to_text`](Self::to_text) format. Task names are
    /// interned for the lifetime of the process (`NodeInfo` keeps
    /// `&'static str` so live and loaded graphs share one type).
    pub fn from_text(text: &str) -> Result<GraphRecord, String> {
        fn intern(s: &str) -> &'static str {
            use std::collections::HashSet;
            use std::sync::OnceLock;
            static POOL: OnceLock<parking_lot::Mutex<HashSet<&'static str>>> = OnceLock::new();
            let pool = POOL.get_or_init(|| parking_lot::Mutex::new(HashSet::new()));
            let mut pool = pool.lock();
            if let Some(&hit) = pool.get(s) {
                return hit;
            }
            let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
            pool.insert(leaked);
            leaked
        }
        let mut g = GraphRecord::default();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("node") => {
                    let id: u64 = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| format!("line {}: bad node id", lineno + 1))?;
                    let name = parts
                        .next()
                        .ok_or_else(|| format!("line {}: missing node name", lineno + 1))?;
                    let hp = parts.next() == Some("hp");
                    g.add_node(NodeInfo {
                        id: TaskId(id),
                        name: intern(name),
                        high_priority: hp,
                    });
                }
                Some("edge") => {
                    let f: u64 = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| format!("line {}: bad edge source", lineno + 1))?;
                    let t: u64 = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| format!("line {}: bad edge target", lineno + 1))?;
                    let kind = match parts.next() {
                        Some("T") | None => EdgeKind::True,
                        Some("A") => EdgeKind::Anti,
                        Some("O") => EdgeKind::Output,
                        Some(other) => {
                            return Err(format!("line {}: bad edge kind {other}", lineno + 1))
                        }
                    };
                    g.edges.push((TaskId(f), TaskId(t), kind));
                }
                Some(other) => return Err(format!("line {}: unknown record {other}", lineno + 1)),
                None => unreachable!(),
            }
        }
        g.validate()?;
        Ok(g)
    }

    /// Check the record is a well-formed DAG in invocation order.
    pub fn validate(&self) -> Result<(), String> {
        for (i, n) in self.nodes.iter().enumerate() {
            if n.id.0 as usize != i + 1 {
                return Err(format!("node {} out of order at position {}", n.id, i));
            }
        }
        for &(f, t, _) in &self.edges {
            if f >= t {
                return Err(format!("edge {f} -> {t} does not point forward"));
            }
            if t.0 as usize > self.nodes.len() || f.0 == 0 {
                return Err(format!("edge {f} -> {t} references unknown node"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> GraphRecord {
        // 1 -> {2,3} -> 4
        let mut g = GraphRecord::default();
        for (i, name) in [(1, "a"), (2, "b"), (3, "b"), (4, "c")] {
            g.add_node(NodeInfo {
                id: TaskId(i),
                name,
                high_priority: false,
            });
        }
        g.add_edge(TaskId(1), TaskId(2), EdgeKind::True);
        g.add_edge(TaskId(1), TaskId(3), EdgeKind::True);
        g.add_edge(TaskId(2), TaskId(4), EdgeKind::True);
        g.add_edge(TaskId(3), TaskId(4), EdgeKind::True);
        g
    }

    #[test]
    fn counts_and_neighbours() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.unique_edge_count(), 4);
        assert_eq!(
            g.predecessors(TaskId(4)),
            [TaskId(2), TaskId(3)].into_iter().collect()
        );
        assert_eq!(
            g.successors(TaskId(1)),
            [TaskId(2), TaskId(3)].into_iter().collect()
        );
        assert_eq!(g.roots(), vec![TaskId(1)]);
        g.validate().unwrap();
    }

    #[test]
    fn ready_after_semantics() {
        let g = diamond();
        let done: BTreeSet<TaskId> = [TaskId(1)].into_iter().collect();
        assert!(g.ready_after(TaskId(2), &done));
        assert!(!g.ready_after(TaskId(4), &done));
        let done: BTreeSet<TaskId> = [TaskId(1), TaskId(2), TaskId(3)].into_iter().collect();
        assert!(g.ready_after(TaskId(4), &done));
    }

    #[test]
    fn critical_path_and_parallelism() {
        let g = diamond();
        // Unit costs: path 1-2-4 has length 3; work 4 => parallelism 4/3.
        assert_eq!(g.critical_path(|_| 1.0), 3.0);
        assert_eq!(g.total_work(|_| 1.0), 4.0);
        assert!((g.max_parallelism(|_| 1.0) - 4.0 / 3.0).abs() < 1e-12);
        // Weighted: node "b" costs 5.
        let cp = g.critical_path(|n| if n.name == "b" { 5.0 } else { 1.0 });
        assert_eq!(cp, 7.0);
    }

    #[test]
    fn histogram_counts_types() {
        let g = diamond();
        let h = g.histogram();
        assert_eq!(h["a"], 1);
        assert_eq!(h["b"], 2);
        assert_eq!(h["c"], 1);
    }

    #[test]
    fn dot_contains_nodes_and_styles() {
        let mut g = diamond();
        g.add_edge(TaskId(1), TaskId(4), EdgeKind::Anti);
        let dot = g.to_dot();
        assert!(dot.contains("digraph"));
        assert!(dot.contains("1 -> 2 [style=solid]"));
        assert!(dot.contains("1 -> 4 [style=dashed]"));
        assert!(dot.contains("tooltip=\"a\""));
    }

    #[test]
    fn validate_rejects_backward_edge() {
        let mut g = diamond();
        g.edges.push((TaskId(4), TaskId(1), EdgeKind::True));
        assert!(g.validate().is_err());
    }

    #[test]
    fn text_roundtrip() {
        let mut g = diamond();
        g.add_edge(TaskId(1), TaskId(4), EdgeKind::Anti);
        g.set_high_priority(TaskId(3));
        let text = g.to_text();
        let back = GraphRecord::from_text(&text).unwrap();
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(back.edge_count(), g.edge_count());
        assert_eq!(back.edges(), g.edges());
        assert!(back.node(TaskId(3)).high_priority);
        assert_eq!(back.node(TaskId(2)).name, "b");
        // Re-serialising the parsed graph is a fixpoint.
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(GraphRecord::from_text("node x y").is_err());
        assert!(GraphRecord::from_text("frobnicate 1 2").is_err());
        assert!(GraphRecord::from_text("node 1 a\nedge 1 1 T").is_err()); // not forward
        assert!(GraphRecord::from_text("node 1 a\nedge 1 2 Q").is_err());
        // Comments and blank lines are fine.
        let g = GraphRecord::from_text("# hello\n\nnode 1 a\n").unwrap();
        assert_eq!(g.node_count(), 1);
    }
}
