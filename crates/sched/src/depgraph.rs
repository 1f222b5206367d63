//! Dependence-graph construction for basic blocks.
//!
//! Edges always point from an earlier operation to a later one (program
//! order), so the graph is a DAG and index order is a topological order.
//! Latencies come from the MDES: flow dependences use the producer
//! class's destination latency, memory dependences its memory latency
//! (which models effects like the SuperSPARC's address-generation
//! interlock).

use mdes_core::CompiledMdes;

use crate::operation::Block;

/// Why two operations are ordered.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// Read-after-write through a register.
    Flow,
    /// Write-after-read through a register.
    Anti,
    /// Write-after-write through a register.
    Output,
    /// Ordering through memory.
    Mem,
    /// Ordering against a branch or serializing operation.
    Control,
}

/// A dependence edge `from → to` requiring
/// `cycle(to) ≥ cycle(from) + latency`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Index of the earlier operation.
    pub from: usize,
    /// Index of the later operation.
    pub to: usize,
    /// Minimum issue-cycle separation.
    pub latency: i32,
    /// Dependence kind.
    pub kind: DepKind,
}

/// The dependence DAG of one basic block.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DepGraph {
    /// Number of operations.
    pub num_ops: usize,
    /// Outgoing edges per operation.
    pub succs: Vec<Vec<Edge>>,
    /// Incoming edges per operation.
    pub preds: Vec<Vec<Edge>>,
}

impl DepGraph {
    /// Builds the dependence graph of `block` using latencies from `mdes`.
    ///
    /// Rules (conventional list-scheduler dependences):
    ///
    /// * flow (RAW): producer → consumer, latency from
    ///   [`CompiledMdes::flow_latency`] — a declared bypass exception or
    ///   the operand read/write-time default (producer's `dest` write
    ///   time minus consumer's `src` read time, clamped to 0);
    /// * anti (WAR): reader → writer, latency 0 (the writer may issue in
    ///   the reader's cycle);
    /// * output (WAW): writer → writer, latency 1;
    /// * memory: store → load/store with the store's `mem` latency
    ///   (min 1); load → store with latency 1 (conservative aliasing — the
    ///   workload generator does not carry symbolic addresses);
    /// * control: every operation → branch with latency 0 (nothing may
    ///   issue after the branch, which block construction puts last);
    ///   serializing operations order against everything on both sides.
    ///
    /// # Panics
    ///
    /// Panics if an operation references a class not present in `mdes`.
    pub fn build(block: &Block, mdes: &CompiledMdes) -> DepGraph {
        let n = block.ops.len();
        let mut graph = DepGraph {
            num_ops: n,
            succs: vec![Vec::new(); n],
            preds: vec![Vec::new(); n],
        };

        use std::collections::HashMap;
        let mut last_writer: HashMap<crate::operation::Reg, usize> = HashMap::new();
        let mut readers_since_write: HashMap<crate::operation::Reg, Vec<usize>> = HashMap::new();
        let mut last_store: Option<usize> = None;
        let mut loads_since_store: Vec<usize> = Vec::new();
        let mut last_barrier: Option<usize> = None;

        for (i, op) in block.ops.iter().enumerate() {
            let class = mdes.class(op.class);
            let flags = class.flags;

            // Register dependences.  Flow latency follows the operand
            // read/write-time model: the consumer reads its sources
            // `src` cycles after issue, so the required issue separation
            // is producer write time minus consumer read time.
            for src in op.srcs() {
                if let Some(&writer) = last_writer.get(src) {
                    let latency = mdes.flow_latency(block.ops[writer].class, op.class);
                    graph.add(writer, i, latency, DepKind::Flow);
                }
                readers_since_write.entry(*src).or_default().push(i);
            }
            for dest in op.dests() {
                if let Some(&writer) = last_writer.get(dest) {
                    graph.add(writer, i, 1, DepKind::Output);
                }
                if let Some(readers) = readers_since_write.get(dest) {
                    for &reader in readers {
                        if reader != i {
                            graph.add(reader, i, 0, DepKind::Anti);
                        }
                    }
                }
                readers_since_write.insert(*dest, Vec::new());
                last_writer.insert(*dest, i);
            }

            // Memory dependences.
            if flags.load {
                if let Some(store) = last_store {
                    let latency = mdes.class(block.ops[store].class).latency.mem.max(1);
                    graph.add(store, i, latency, DepKind::Mem);
                }
                loads_since_store.push(i);
            }
            if flags.store {
                if let Some(store) = last_store {
                    let latency = mdes.class(block.ops[store].class).latency.mem.max(1);
                    graph.add(store, i, latency, DepKind::Mem);
                }
                for &load in &loads_since_store {
                    graph.add(load, i, 1, DepKind::Mem);
                }
                loads_since_store.clear();
                last_store = Some(i);
            }

            // Control dependences.
            if let Some(barrier) = last_barrier {
                let latency = mdes.class(block.ops[barrier].class).latency.dest.max(1);
                graph.add(barrier, i, latency, DepKind::Control);
            }
            if flags.branch || flags.serial {
                for j in 0..i {
                    if !graph.succs[j].iter().any(|e| e.to == i) {
                        graph.add(j, i, 0, DepKind::Control);
                    }
                }
                last_barrier = Some(i);
            }
        }

        graph
    }

    fn add(&mut self, from: usize, to: usize, latency: i32, kind: DepKind) {
        debug_assert!(from < to, "dependence edges must follow program order");
        let edge = Edge {
            from,
            to,
            latency,
            kind,
        };
        self.succs[from].push(edge);
        self.preds[to].push(edge);
    }

    /// Critical-path height of every operation: the longest latency chain
    /// from the operation to any leaf.  The standard list-scheduling
    /// priority (greater = more urgent).
    pub fn heights(&self) -> Vec<i32> {
        let mut heights = vec![0i32; self.num_ops];
        for i in (0..self.num_ops).rev() {
            for edge in &self.succs[i] {
                heights[i] = heights[i].max(edge.latency + heights[edge.to]);
            }
        }
        heights
    }

    /// Total edge count.
    pub fn num_edges(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operation::{Op, Reg};
    use mdes_core::spec::{Constraint, Latency, MdesSpec, OpFlags, OrTree, TableOption};
    use mdes_core::usage::ResourceUsage;
    use mdes_core::{CompiledMdes, ResourceId, UsageEncoding};

    /// A toy machine: alu (lat 1), load (lat 2, mem 2), store, branch.
    fn toy_mdes() -> CompiledMdes {
        let mut spec = MdesSpec::new();
        let alu = spec.resources_mut().add("ALU").unwrap();
        let opt = spec.add_option(TableOption::new(vec![ResourceUsage::new(alu, 0)]));
        let tree = spec.add_or_tree(OrTree::new(vec![opt]));
        spec.add_class(
            "alu",
            Constraint::Or(tree),
            Latency::new(1),
            OpFlags::none(),
        )
        .unwrap();
        spec.add_class(
            "load",
            Constraint::Or(tree),
            Latency::with_mem(2, 2),
            OpFlags::load(),
        )
        .unwrap();
        spec.add_class(
            "store",
            Constraint::Or(tree),
            Latency::new(1),
            OpFlags::store(),
        )
        .unwrap();
        spec.add_class(
            "br",
            Constraint::Or(tree),
            Latency::new(1),
            OpFlags::branch(),
        )
        .unwrap();
        let _ = ResourceId::from_index(0);
        CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap()
    }

    fn class(mdes: &CompiledMdes, name: &str) -> mdes_core::ClassId {
        mdes.class_by_name(name).unwrap()
    }

    #[test]
    fn flow_dependence_uses_producer_latency() {
        let mdes = toy_mdes();
        let mut block = Block::new();
        block.push(Op::new(class(&mdes, "load"), vec![Reg(1)], vec![Reg(0)]));
        block.push(Op::new(class(&mdes, "alu"), vec![Reg(2)], vec![Reg(1)]));
        let graph = DepGraph::build(&block, &mdes);
        let edge = graph.succs[0]
            .iter()
            .find(|e| e.kind == DepKind::Flow)
            .unwrap();
        assert_eq!(edge.latency, 2);
        assert_eq!(edge.to, 1);
    }

    #[test]
    fn late_reading_consumer_cascades_to_zero_latency() {
        // A consumer with src == producer's dest can issue in the same
        // cycle — the SuperSPARC cascaded-IALU feature.
        let mut spec = MdesSpec::new();
        let alu = spec.resources_mut().add("ALU").unwrap();
        let opt = spec.add_option(TableOption::new(vec![ResourceUsage::new(alu, 0)]));
        let tree = spec.add_or_tree(OrTree::new(vec![opt]));
        spec.add_class(
            "alu",
            Constraint::Or(tree),
            Latency::new(1),
            OpFlags::none(),
        )
        .unwrap();
        spec.add_class(
            "cascade",
            Constraint::Or(tree),
            Latency::new(1).with_src(1),
            OpFlags::none(),
        )
        .unwrap();
        let mdes = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();

        let mut block = Block::new();
        block.push(Op::new(class(&mdes, "alu"), vec![Reg(1)], vec![Reg(0)]));
        block.push(Op::new(class(&mdes, "cascade"), vec![Reg(2)], vec![Reg(1)]));
        let graph = DepGraph::build(&block, &mdes);
        let edge = graph.succs[0]
            .iter()
            .find(|e| e.kind == DepKind::Flow)
            .unwrap();
        assert_eq!(edge.latency, 0, "cascaded consumer may issue same cycle");
    }

    #[test]
    fn anti_and_output_dependences() {
        let mdes = toy_mdes();
        let mut block = Block::new();
        block.push(Op::new(class(&mdes, "alu"), vec![Reg(1)], vec![Reg(0)])); // write r1
        block.push(Op::new(class(&mdes, "alu"), vec![Reg(2)], vec![Reg(1)])); // read r1
        block.push(Op::new(class(&mdes, "alu"), vec![Reg(1)], vec![Reg(3)])); // rewrite r1
        let graph = DepGraph::build(&block, &mdes);
        assert!(graph.succs[0]
            .iter()
            .any(|e| e.kind == DepKind::Output && e.to == 2 && e.latency == 1));
        assert!(graph.succs[1]
            .iter()
            .any(|e| e.kind == DepKind::Anti && e.to == 2 && e.latency == 0));
    }

    #[test]
    fn memory_dependences_are_conservative() {
        let mdes = toy_mdes();
        let mut block = Block::new();
        block.push(Op::new(class(&mdes, "store"), vec![], vec![Reg(0)]));
        block.push(Op::new(class(&mdes, "load"), vec![Reg(1)], vec![Reg(2)]));
        block.push(Op::new(class(&mdes, "store"), vec![], vec![Reg(3)]));
        let graph = DepGraph::build(&block, &mdes);
        // store0 → load1, store0 → store2, load1 → store2.
        assert!(graph.succs[0]
            .iter()
            .any(|e| e.kind == DepKind::Mem && e.to == 1));
        assert!(graph.succs[0]
            .iter()
            .any(|e| e.kind == DepKind::Mem && e.to == 2));
        assert!(graph.succs[1]
            .iter()
            .any(|e| e.kind == DepKind::Mem && e.to == 2));
    }

    #[test]
    fn branch_is_a_barrier_for_preceding_ops() {
        let mdes = toy_mdes();
        let mut block = Block::new();
        block.push(Op::new(class(&mdes, "alu"), vec![Reg(1)], vec![Reg(0)]));
        block.push(Op::new(class(&mdes, "alu"), vec![Reg(2)], vec![Reg(0)]));
        block.push(Op::new(class(&mdes, "br"), vec![], vec![Reg(1)]));
        let graph = DepGraph::build(&block, &mdes);
        // Both earlier ops are ordered before the branch.
        assert!(graph.preds[2].iter().any(|e| e.from == 0));
        assert!(graph.preds[2].iter().any(|e| e.from == 1));
    }

    #[test]
    fn heights_reflect_critical_path() {
        let mdes = toy_mdes();
        let mut block = Block::new();
        block.push(Op::new(class(&mdes, "load"), vec![Reg(1)], vec![Reg(0)])); // lat 2
        block.push(Op::new(class(&mdes, "alu"), vec![Reg(2)], vec![Reg(1)])); // lat 1
        block.push(Op::new(class(&mdes, "alu"), vec![Reg(3)], vec![Reg(2)]));
        let graph = DepGraph::build(&block, &mdes);
        let heights = graph.heights();
        assert_eq!(heights, vec![3, 1, 0]);
    }

    #[test]
    fn independent_ops_have_no_edges() {
        let mdes = toy_mdes();
        let mut block = Block::new();
        block.push(Op::new(class(&mdes, "alu"), vec![Reg(1)], vec![Reg(0)]));
        block.push(Op::new(class(&mdes, "alu"), vec![Reg(2)], vec![Reg(3)]));
        let graph = DepGraph::build(&block, &mdes);
        assert_eq!(graph.num_edges(), 0);
    }

    #[test]
    fn edges_always_point_forward() {
        let mdes = toy_mdes();
        let mut block = Block::new();
        for i in 0..6 {
            block.push(Op::new(
                class(&mdes, if i % 2 == 0 { "load" } else { "store" }),
                vec![Reg(i)],
                vec![Reg(i.wrapping_sub(1))],
            ));
        }
        let graph = DepGraph::build(&block, &mdes);
        for edges in &graph.succs {
            for edge in edges {
                assert!(edge.from < edge.to);
            }
        }
    }
}
