//! The operation and basic-block model the schedulers consume.
//!
//! An operation is deliberately minimal: an MDES class (which carries the
//! resource constraint, latency and semantic flags) plus destination and
//! source registers.  Everything the scheduler needs to know about *how*
//! the operation executes lives in the machine description — that is the
//! point of the MDES model.

use std::fmt;

use mdes_core::ClassId;

/// A virtual or architectural register number.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Reg(pub u32);

/// One operation of a basic block.
///
/// A 24-byte `Copy` value: destinations and sources share one inline
/// array of [`Op::MAX_OPERANDS`] registers (destinations first), so
/// building, copying or dropping an operation never touches the heap.
/// Equality and `Debug` see only the class, destinations and sources.
#[derive(Copy, Clone)]
pub struct Op {
    /// MDES operation class.
    pub class: ClassId,
    /// How many leading entries of `regs` are destinations.
    num_dests: u8,
    /// How many leading entries of `regs` are operands at all.
    num_regs: u8,
    /// Destination registers, then source registers, then unused slots.
    regs: [Reg; Op::MAX_OPERANDS],
}

impl Op {
    /// Most operands (destinations plus sources) one operation holds.
    pub const MAX_OPERANDS: usize = 4;

    /// Creates an operation.
    ///
    /// # Panics
    ///
    /// Panics if `dests` and `srcs` hold more than [`Op::MAX_OPERANDS`]
    /// registers together.
    pub fn new(class: ClassId, dests: Vec<Reg>, srcs: Vec<Reg>) -> Op {
        Op::from_regs(class, &dests, &srcs)
    }

    /// Creates an operation from borrowed register lists; allocates
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if `dests` and `srcs` hold more than [`Op::MAX_OPERANDS`]
    /// registers together.
    pub fn from_regs(class: ClassId, dests: &[Reg], srcs: &[Reg]) -> Op {
        let num_regs = dests.len() + srcs.len();
        assert!(
            num_regs <= Op::MAX_OPERANDS,
            "an operation holds at most {} operands, got {num_regs}",
            Op::MAX_OPERANDS
        );
        let mut regs = [Reg(0); Op::MAX_OPERANDS];
        regs[..dests.len()].copy_from_slice(dests);
        regs[dests.len()..num_regs].copy_from_slice(srcs);
        Op {
            class,
            num_dests: dests.len() as u8,
            num_regs: num_regs as u8,
            regs,
        }
    }

    /// Destination registers (written).
    pub fn dests(&self) -> &[Reg] {
        &self.regs[..usize::from(self.num_dests)]
    }

    /// Source registers (read).
    pub fn srcs(&self) -> &[Reg] {
        &self.regs[usize::from(self.num_dests)..usize::from(self.num_regs)]
    }
}

impl PartialEq for Op {
    fn eq(&self, other: &Op) -> bool {
        self.class == other.class && self.dests() == other.dests() && self.srcs() == other.srcs()
    }
}

impl Eq for Op {}

impl fmt::Debug for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Op")
            .field("class", &self.class)
            .field("dests", &self.dests())
            .field("srcs", &self.srcs())
            .finish()
    }
}

/// A basic block: operations in original program order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Block {
    /// Operations in source order.
    pub ops: Vec<Op>,
}

impl Block {
    /// Creates an empty block.
    pub fn new() -> Block {
        Block::default()
    }

    /// Creates an empty block with room for `ops` operations, so a block
    /// built to a known length is one allocation.
    pub fn with_capacity(ops: usize) -> Block {
        Block {
            ops: Vec::with_capacity(ops),
        }
    }

    /// Appends an operation and returns its index.
    pub fn push(&mut self, op: Op) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the block has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl FromIterator<Op> for Block {
    fn from_iter<I: IntoIterator<Item = Op>>(iter: I) -> Block {
        Block {
            ops: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_push_returns_indices_in_order() {
        let class = ClassId::from_index(0);
        let mut block = Block::new();
        assert!(block.is_empty());
        let a = block.push(Op::new(class, vec![Reg(1)], vec![]));
        let b = block.push(Op::new(class, vec![Reg(2)], vec![Reg(1)]));
        assert_eq!((a, b), (0, 1));
        assert_eq!(block.len(), 2);
    }

    #[test]
    fn from_iterator_collects_ops() {
        let class = ClassId::from_index(0);
        let block: Block = (0..3)
            .map(|i| Op::new(class, vec![Reg(i)], vec![]))
            .collect();
        assert_eq!(block.len(), 3);
    }

    #[test]
    fn every_operand_split_round_trips() {
        let class = ClassId::from_index(3);
        let regs: Vec<Reg> = (10..10 + Op::MAX_OPERANDS as u32).map(Reg).collect();
        for total in 0..=Op::MAX_OPERANDS {
            for num_dests in 0..=total {
                let (dests, srcs) = regs[..total].split_at(num_dests);
                let op = Op::from_regs(class, dests, srcs);
                assert_eq!(op.class, class);
                assert_eq!(
                    (op.dests(), op.srcs()),
                    (dests, srcs),
                    "{total}/{num_dests}"
                );
                assert_eq!(op, Op::new(class, dests.to_vec(), srcs.to_vec()));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 4 operands, got 5")]
    fn five_operands_panic() {
        let class = ClassId::from_index(0);
        Op::new(class, vec![Reg(1), Reg(2)], vec![Reg(3), Reg(4), Reg(5)]);
    }

    #[test]
    fn equality_sees_class_dests_and_srcs_only() {
        let class = ClassId::from_index(0);
        let op = Op::new(class, vec![Reg(1)], vec![Reg(2), Reg(3)]);
        assert_eq!(op, Op::from_regs(class, &[Reg(1)], &[Reg(2), Reg(3)]));
        // The split point is part of equality: same registers, other roles.
        assert_ne!(op, Op::new(class, vec![Reg(1), Reg(2)], vec![Reg(3)]));
        assert_ne!(op, Op::new(class, vec![Reg(1)], vec![Reg(2)]));
        assert_ne!(
            op,
            Op::new(ClassId::from_index(1), vec![Reg(1)], vec![Reg(2), Reg(3)])
        );
        // Whatever an unused slot holds never shows.
        let mut stale = op;
        stale.regs[Op::MAX_OPERANDS - 1] = Reg(99);
        assert_eq!(stale, op);
        assert_eq!(format!("{stale:?}"), format!("{op:?}"));
        assert!(!format!("{stale:?}").contains("99"));
        assert!(Op::new(class, vec![], vec![]).srcs().is_empty());
    }
}
