//! The dependence graph, rebuilt in place.  One graph is rebuilt over a
//! seeded stream of blocks that grow and shrink, on every served
//! machine; after each block every operation's incoming and outgoing
//! edges must equal, in order, those of a fresh [`DepGraph::build`] and
//! of the hashed builder the flat one replaced, kept here as the
//! reference for edge order, and its recorded class must be the block's.

use mdes_core::rng::Pcg32;
use mdes_core::{ClassId, CompiledMdes, UsageEncoding};
use mdes_machines::Machine;
use mdes_sched::{Block, DepGraph, DepKind, Edge, Op, Reg};

/// The builder `DepGraph`'s flat one replaced — per-operation edge lists
/// and hashed register maps — kept as the reference for edge order:
/// `(succs, preds)` per operation.
fn reference(block: &Block, mdes: &CompiledMdes) -> (Vec<Vec<Edge>>, Vec<Vec<Edge>>) {
    use std::collections::HashMap;
    type Lists = (Vec<Vec<Edge>>, Vec<Vec<Edge>>);
    fn push((succs, preds): &mut Lists, from: usize, to: usize, latency: i32, kind: DepKind) {
        let edge = Edge {
            from: from as u32,
            to: to as u32,
            latency,
            kind,
        };
        succs[from].push(edge);
        preds[to].push(edge);
    }
    let n = block.ops.len();
    let mut lists: Lists = (vec![Vec::new(); n], vec![Vec::new(); n]);
    let mut last_writer: HashMap<Reg, usize> = HashMap::new();
    let mut readers_since_write: HashMap<Reg, Vec<usize>> = HashMap::new();
    let (mut last_store, mut last_barrier) = (None::<usize>, None::<usize>);
    let mut loads_since_store: Vec<usize> = Vec::new();
    for (i, op) in block.ops.iter().enumerate() {
        let flags = mdes.class(op.class).flags;
        for src in op.srcs() {
            if let Some(&writer) = last_writer.get(src) {
                let latency = mdes.flow_latency(block.ops[writer].class, op.class);
                push(&mut lists, writer, i, latency, DepKind::Flow);
            }
            readers_since_write.entry(*src).or_default().push(i);
        }
        for dest in op.dests() {
            if let Some(&writer) = last_writer.get(dest) {
                push(&mut lists, writer, i, 1, DepKind::Output);
            }
            for &reader in readers_since_write.get(dest).into_iter().flatten() {
                if reader != i {
                    push(&mut lists, reader, i, 0, DepKind::Anti);
                }
            }
            readers_since_write.insert(*dest, Vec::new());
            last_writer.insert(*dest, i);
        }
        let mem = |store: usize| mdes.class(block.ops[store].class).latency.mem.max(1);
        if flags.load {
            if let Some(store) = last_store {
                push(&mut lists, store, i, mem(store), DepKind::Mem);
            }
            loads_since_store.push(i);
        }
        if flags.store {
            if let Some(store) = last_store {
                push(&mut lists, store, i, mem(store), DepKind::Mem);
            }
            for &load in &loads_since_store {
                push(&mut lists, load, i, 1, DepKind::Mem);
            }
            loads_since_store.clear();
            last_store = Some(i);
        }
        if let Some(barrier) = last_barrier {
            let latency = mdes.class(block.ops[barrier].class).latency.dest.max(1);
            push(&mut lists, barrier, i, latency, DepKind::Control);
        }
        if flags.branch || flags.serial {
            for j in 0..i {
                if !lists.0[j].iter().any(|e| e.to as usize == i) {
                    push(&mut lists, j, i, 0, DepKind::Control);
                }
            }
            last_barrier = Some(i);
        }
    }
    lists
}

/// A seeded block of `len` operations over every class of `mdes`
/// (branches and serializing operations anywhere), reading and
/// writing a small register pool, so every dependence rule fires —
/// sources repeated, and registers read and written by one operation.
fn random_block(mdes: &CompiledMdes, rng: &mut Pcg32, len: usize) -> Block {
    let classes = mdes.classes().len() as u32;
    let reg = |rng: &mut Pcg32| match rng.gen_range(8) {
        7 => Reg(u32::MAX - rng.gen_range(2)),
        r => Reg(r),
    };
    (0..len)
        .map(|_| {
            let class = ClassId::from_index(rng.gen_range(classes) as usize);
            let dests: Vec<Reg> = (0..rng.gen_range(2)).map(|_| reg(rng)).collect();
            let srcs: Vec<Reg> = (0..rng.gen_range(3)).map(|_| reg(rng)).collect();
            Op::new(class, dests, srcs)
        })
        .collect()
}

#[test]
fn a_rebuilt_graph_matches_a_fresh_build_and_the_reference_edge_for_edge() {
    let mut graph = DepGraph::default();
    let mut edges = 0;
    for (m, machine) in Machine::all().into_iter().enumerate() {
        let mdes = CompiledMdes::compile(&machine.spec(), UsageEncoding::BitVector).unwrap();
        let mut rng = Pcg32::new(42, m as u64);
        // Blocks grow to 120 operations, then shrink back to none.
        for step in 0..48usize {
            let len = 5 * step.min(47 - step) + rng.gen_range(5) as usize;
            let block = random_block(&mdes, &mut rng, len);
            if step % 7 == 3 {
                // A rebuild that panics half way leaves the graph
                // half built; the next rebuild must not notice.
                let mut broken = block.clone();
                broken.push(Op::new(ClassId::from_index(999), vec![], vec![]));
                broken.ops.extend_from_slice(&block.ops);
                let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    graph.rebuild(&broken, &mdes)
                }));
                assert!(panicked.is_err());
            }
            graph.rebuild(&block, &mdes);
            let fresh = DepGraph::build(&block, &mdes);
            let (succs, preds) = reference(&block, &mdes);
            assert_eq!(graph.num_ops(), len);
            for op in 0..len {
                assert_eq!(
                    graph.class(op),
                    block.ops[op].class,
                    "{machine:?} step {step}"
                );
                assert_eq!(graph.preds(op), fresh.preds(op), "{machine:?} step {step}");
                assert_eq!(graph.succs(op), fresh.succs(op), "{machine:?} step {step}");
                assert_eq!(graph.preds(op), &preds[op][..], "{machine:?} step {step}");
                assert_eq!(graph.succs(op), &succs[op][..], "{machine:?} step {step}");
            }
            let all: Vec<Edge> = succs.concat();
            assert_eq!(graph.edges(), &all[..], "{machine:?} step {step}");
            assert_eq!(graph.heights(), fresh.heights(), "{machine:?} step {step}");
            edges += graph.num_edges();
        }
    }
    assert!(
        edges > 10_000,
        "the stream exercises the builder: {edges} edges"
    );
}
