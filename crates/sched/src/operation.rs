//! The operation and basic-block model the schedulers consume.
//!
//! An operation is deliberately minimal: an MDES class (which carries the
//! resource constraint, latency and semantic flags), destination and
//! source registers, and an optional mnemonic for diagnostics.  Everything
//! the scheduler needs to know about *how* the operation executes lives in
//! the machine description — that is the point of the MDES model.

use std::fmt;

use mdes_core::ClassId;

/// A virtual or architectural register number.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Reg(pub u32);

/// One operation of a basic block.
///
/// Stored compactly: destinations and sources share one boxed register
/// slice (destinations first), and the mnemonic is a `Box<str>`, so an
/// operation is 40 bytes plus at most two heap blocks — one when it has no
/// mnemonic, none when it also has no operands.
#[derive(Clone, PartialEq, Eq)]
pub struct Op {
    /// MDES operation class.
    pub class: ClassId,
    /// How many leading entries of `regs` are destinations.
    num_dests: u32,
    /// Destination registers, then source registers.
    regs: Box<[Reg]>,
    /// Mnemonic for diagnostics (does not affect scheduling).
    mnemonic: Box<str>,
}

impl Op {
    /// Creates an operation.
    pub fn new(class: ClassId, dests: Vec<Reg>, srcs: Vec<Reg>) -> Op {
        Op::from_regs(class, &dests, &srcs)
    }

    /// Creates an operation from borrowed register lists, with one
    /// exactly-sized allocation for the operands (none when both lists
    /// are empty).
    pub fn from_regs(class: ClassId, dests: &[Reg], srcs: &[Reg]) -> Op {
        Op {
            class,
            num_dests: dests.len() as u32,
            regs: dests.iter().chain(srcs).copied().collect(),
            mnemonic: Box::default(),
        }
    }

    /// Attaches a mnemonic for diagnostics.
    pub fn with_mnemonic(mut self, mnemonic: impl Into<String>) -> Op {
        self.mnemonic = mnemonic.into().into_boxed_str();
        self
    }

    /// Destination registers (written).
    pub fn dests(&self) -> &[Reg] {
        &self.regs[..self.num_dests as usize]
    }

    /// Source registers (read).
    pub fn srcs(&self) -> &[Reg] {
        &self.regs[self.num_dests as usize..]
    }

    /// Mnemonic for diagnostics; empty when none was attached.
    pub fn mnemonic(&self) -> &str {
        &self.mnemonic
    }
}

impl fmt::Debug for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Op")
            .field("class", &self.class)
            .field("dests", &self.dests())
            .field("srcs", &self.srcs())
            .field("mnemonic", &self.mnemonic())
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
    fn mnemonic_is_cosmetic() {
        let class = ClassId::from_index(0);
        let plain = Op::new(class, vec![], vec![Reg(0)]);
        let named = plain.clone().with_mnemonic("ld");
        assert_eq!(named.mnemonic(), "ld");
        assert_eq!(named.class, plain.class);
    }

    #[test]
    fn operands_split_back_into_dests_and_srcs() {
        let class = ClassId::from_index(0);
        let op = Op::new(class, vec![Reg(1)], vec![Reg(2), Reg(3)]);
        assert_eq!(op.dests(), &[Reg(1)]);
        assert_eq!(op.srcs(), &[Reg(2), Reg(3)]);
        assert_eq!(op, Op::from_regs(class, &[Reg(1)], &[Reg(2), Reg(3)]));
        // The split point is part of equality: same registers, other roles.
        assert_ne!(op, Op::new(class, vec![Reg(1), Reg(2)], vec![Reg(3)]));
        assert!(Op::new(class, vec![], vec![]).srcs().is_empty());
    }
}
