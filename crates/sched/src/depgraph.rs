//! Dependence-graph construction for basic blocks.
//!
//! Edges always point from an earlier operation to a later one (program
//! order), so the graph is a DAG and index order is a topological order.
//! Latencies come from the MDES: flow dependences use the producer
//! class's destination latency, memory dependences its memory latency
//! (which models effects like the SuperSPARC's address-generation
//! interlock).
//!
//! A graph is a handful of flat arrays: every operation's incoming edges
//! in one array and its outgoing edges in another, each sliced by
//! per-operation offsets, plus each operation's class and the
//! critical-path heights.  An [`Edge`] is 16 bytes: operation indices
//! are `u32`, since a block holds fewer than 2³¹ operations.  The builder's
//! register tables are flat too, numbered per block.  So
//! [`DepGraph::rebuild`] reuses a graph's storage for the next block, and
//! what a graph retains is bounded by the largest block it has held.

use mdes_core::{ClassId, CompiledMdes};

use crate::operation::{Block, Reg};

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
    pub from: u32,
    /// Index of the later operation.
    pub to: u32,
    /// Minimum issue-cycle separation.
    pub latency: i32,
    /// Dependence kind.
    pub kind: DepKind,
}

/// The dependence DAG of one basic block.
///
/// Operation `i`'s incoming edges are the slice of `preds` from
/// `pred_start[i]` to `pred_start[i + 1]`, in the order the builder found
/// them; its outgoing edges are the same slice of `succs` under
/// `succ_start`, ordered by successor and then in that order.
#[derive(Clone, Debug, Default)]
pub struct DepGraph {
    pred_start: Vec<usize>,
    preds: Vec<Edge>,
    succ_start: Vec<usize>,
    succs: Vec<Edge>,
    classes: Vec<ClassId>,
    heights: Vec<i32>,
    registers: Registers,
    /// Loads since the last store, while building.
    loads: Vec<usize>,
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
        let mut graph = DepGraph::default();
        graph.rebuild(block, mdes);
        graph
    }

    /// Rebuilds this graph in place as the dependence graph of `block`:
    /// the same graph [`DepGraph::build`] returns, in storage kept from
    /// earlier blocks.  Everything is reset on entry, so a graph left half
    /// built by a panic rebuilds like a fresh one.
    ///
    /// # Panics
    ///
    /// Panics if an operation references a class not present in `mdes`,
    /// or if the block holds 2³¹ operations or more.
    pub fn rebuild(&mut self, block: &Block, mdes: &CompiledMdes) {
        let n = block.ops.len();
        assert!(n < 1 << 31, "a block holds fewer than 2^31 operations");
        self.pred_start.clear();
        self.preds.clear();
        self.loads.clear();
        self.classes.clear();
        self.classes.extend(block.ops.iter().map(|op| op.class));
        self.registers.number(block);
        let mut last_store: Option<usize> = None;
        let mut last_barrier: Option<usize> = None;

        for (i, op) in block.ops.iter().enumerate() {
            let first = self.preds.len();
            self.pred_start.push(first);
            let class = mdes.class(op.class);
            let flags = class.flags;
            let mut add = |from: usize, latency: i32, kind: DepKind| {
                debug_assert!(from < i, "dependence edges must follow program order");
                self.preds.push(Edge {
                    from: from as u32,
                    to: i as u32,
                    latency,
                    kind,
                });
            };

            // Register dependences.  Flow latency follows the operand
            // read/write-time model: the consumer reads its sources
            // `src` cycles after issue, so the required issue separation
            // is producer write time minus consumer read time.
            for &src in op.srcs() {
                if let Some(writer) = self.registers.read(src) {
                    add(
                        writer,
                        mdes.flow_latency(block.ops[writer].class, op.class),
                        DepKind::Flow,
                    );
                }
            }
            for &dest in op.dests() {
                let (writer, readers) = self.registers.write(dest, i);
                if let Some(writer) = writer {
                    add(writer, 1, DepKind::Output);
                }
                for reader in readers.filter(|&reader| reader != i) {
                    add(reader, 0, DepKind::Anti);
                }
            }

            // Memory dependences.
            if flags.load {
                if let Some(store) = last_store {
                    let latency = mdes.class(block.ops[store].class).latency.mem.max(1);
                    add(store, latency, DepKind::Mem);
                }
                self.loads.push(i);
            }
            if flags.store {
                if let Some(store) = last_store {
                    let latency = mdes.class(block.ops[store].class).latency.mem.max(1);
                    add(store, latency, DepKind::Mem);
                }
                for &load in &self.loads {
                    add(load, 1, DepKind::Mem);
                }
                self.loads.clear();
                last_store = Some(i);
            }

            // Control dependences.
            if let Some(barrier) = last_barrier {
                let latency = mdes.class(block.ops[barrier].class).latency.dest.max(1);
                add(barrier, latency, DepKind::Control);
            }
            if flags.branch || flags.serial {
                for j in 0..i as u32 {
                    if !self.preds[first..].iter().any(|e| e.from == j) {
                        self.preds.push(Edge {
                            from: j,
                            to: i as u32,
                            latency: 0,
                            kind: DepKind::Control,
                        });
                    }
                }
                last_barrier = Some(i);
            }
        }
        self.pred_start.push(self.preds.len());
        self.index_successors();
        self.compute_heights();
    }

    /// Sorts the incoming edges into outgoing ones: a stable counting
    /// sort by `from`, so each operation's successors keep the order the
    /// builder found them in.
    fn index_successors(&mut self) {
        let n = self.num_ops();
        self.succ_start.clear();
        self.succ_start.resize(n + 1, 0);
        for edge in &self.preds {
            self.succ_start[edge.from as usize] += 1;
        }
        // Inclusive prefix sums: each operation's end offset ...
        let mut end = 0;
        for start in &mut self.succ_start[..n] {
            end += *start;
            *start = end;
        }
        self.succ_start[n] = end;
        // ... counted back down to its start by placing its edges last
        // to first.
        self.succs.clear();
        self.succs.extend_from_slice(&self.preds);
        for edge in self.preds.iter().rev() {
            let from = edge.from as usize;
            self.succ_start[from] -= 1;
            self.succs[self.succ_start[from]] = *edge;
        }
    }

    /// Critical-path height of every operation: the longest latency chain
    /// from the operation to any leaf.
    fn compute_heights(&mut self) {
        self.heights.clear();
        self.heights.resize(self.num_ops(), 0);
        for i in (0..self.num_ops()).rev() {
            let start = self.succ_start[i];
            for edge in &self.succs[start..self.succ_start[i + 1]] {
                self.heights[i] =
                    self.heights[i].max(edge.latency + self.heights[edge.to as usize]);
            }
        }
    }

    /// Number of operations.
    pub fn num_ops(&self) -> usize {
        self.classes.len()
    }

    /// The MDES class of operation `op`, as the block held it when the
    /// graph was built.
    ///
    /// # Panics
    ///
    /// Panics if `op` is out of range.
    pub fn class(&self, op: usize) -> ClassId {
        self.classes[op]
    }

    /// Incoming edges of operation `op`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is out of range.
    pub fn preds(&self, op: usize) -> &[Edge] {
        &self.preds[self.pred_start[op]..self.pred_start[op + 1]]
    }

    /// Outgoing edges of operation `op`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is out of range.
    pub fn succs(&self, op: usize) -> &[Edge] {
        &self.succs[self.succ_start[op]..self.succ_start[op + 1]]
    }

    /// Every edge, grouped by source operation: operation 0's
    /// [`DepGraph::succs`], then operation 1's, and so on.
    pub fn edges(&self) -> &[Edge] {
        &self.succs
    }

    /// Critical-path height of every operation: the longest latency chain
    /// from the operation to any leaf.  The standard list-scheduling
    /// priority (greater = more urgent).
    pub fn heights(&self) -> &[i32] {
        &self.heights
    }

    /// Total edge count.
    pub fn num_edges(&self) -> usize {
        self.succs.len()
    }
}

/// The builder's register tables for one block, numbered without hashing.
///
/// `keys` holds one entry per register operand, `register << 32 |
/// operation << 1 | is_destination`, sorted: each register's operands
/// form one run, in the order the builder visits them (an operation's
/// sources, then its destinations).  A register's state lives at the
/// index its run starts at.
#[derive(Clone, Debug, Default)]
struct Registers {
    keys: Vec<u64>,
    state: Vec<RegState>,
}

#[derive(Copy, Clone, Debug)]
struct RegState {
    /// The last operation that wrote the register.
    writer: Option<usize>,
    /// The key of the register's next operand to be visited.
    next: usize,
    /// The first key of the reads since the last write.
    reads_from: usize,
}

impl Registers {
    /// Numbers `block`'s register operands and resets every register.
    fn number(&mut self, block: &Block) {
        self.keys.clear();
        for (i, op) in block.ops.iter().enumerate() {
            let key = |reg: &Reg, dest: bool| {
                (u64::from(reg.0) << 32) | ((i as u64) << 1) | u64::from(dest)
            };
            self.keys
                .extend(op.srcs().iter().map(|reg| key(reg, false)));
            self.keys
                .extend(op.dests().iter().map(|reg| key(reg, true)));
        }
        self.keys.sort_unstable();
        self.state.clear();
        self.state.extend((0..self.keys.len()).map(|k| RegState {
            writer: None,
            next: k,
            reads_from: k,
        }));
    }

    /// Visits the next operand of `reg`: returns the register's state and
    /// the operand's key index.
    fn visit(&mut self, reg: Reg) -> (&mut RegState, usize) {
        let run = self
            .keys
            .partition_point(|&key| key >> 32 < u64::from(reg.0));
        let state = &mut self.state[run];
        state.next += 1;
        let key = state.next - 1;
        (state, key)
    }

    /// Records a read of `reg` and returns its last writer.
    fn read(&mut self, reg: Reg) -> Option<usize> {
        self.visit(reg).0.writer
    }

    /// Records operation `op`'s write of `reg`; returns the previous
    /// writer and the operations that read `reg` since, in program order.
    fn write(&mut self, reg: Reg, op: usize) -> (Option<usize>, impl Iterator<Item = usize> + '_) {
        let (state, key) = self.visit(reg);
        let writer = state.writer.replace(op);
        let reads = state.reads_from..key;
        state.reads_from = key + 1;
        let readers = self.keys[reads]
            .iter()
            .map(|&key| ((key as u32) >> 1) as usize);
        (writer, readers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operation::Op;
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
        let edge = graph
            .succs(0)
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
        let edge = graph
            .succs(0)
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
        assert!(graph
            .succs(0)
            .iter()
            .any(|e| e.kind == DepKind::Output && e.to == 2 && e.latency == 1));
        assert!(graph
            .succs(1)
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
        assert!(graph
            .succs(0)
            .iter()
            .any(|e| e.kind == DepKind::Mem && e.to == 1));
        assert!(graph
            .succs(0)
            .iter()
            .any(|e| e.kind == DepKind::Mem && e.to == 2));
        assert!(graph
            .succs(1)
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
        assert!(graph.preds(2).iter().any(|e| e.from == 0));
        assert!(graph.preds(2).iter().any(|e| e.from == 1));
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
        for edge in graph.edges() {
            assert!(edge.from < edge.to);
        }
    }
}
