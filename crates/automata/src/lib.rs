//! Finite-state-automaton resource-conflict detection — the related-work
//! baseline (Proebsting & Fraser, POPL 1994; Müller, MICRO-26; Bala &
//! Rubin, MICRO-28; Section 10 of the paper).
//!
//! Instead of probing reservation tables, the scheduler walks an
//! automaton whose states encode the relevant window of the resource
//! usage map.  Issuing an operation or advancing one cycle is a single
//! table lookup (O(1) "checks"); the cost is the transition table itself,
//! which grows with machine flexibility — the trade-off the paper's
//! Section 10 discusses.  The automaton here is built *lazily* from the
//! compiled MDES (the practical variant Bala & Rubin advocate), and can
//! optionally be fully enumerated to measure table size.
//!
//! Each issue transition is computed by the reservation-table checker
//! itself (`Checker::try_reserve_into` at cycle 0 on the state's window),
//! so the automaton accepts exactly what the checker accepts, with the
//! same option selection, by construction.
//!
//! Two limitations the paper points out are visible in the API:
//!
//! * there is no `release`/unschedule operation — state transitions are
//!   one-way, so techniques like iterative modulo scheduling cannot be
//!   expressed (contrast `mdes_sched::modulo`);
//! * the chosen reservation option is not recoverable from a state.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//!
//! use mdes_core::{CompiledMdes, UsageEncoding};
//! use mdes_automata::Automaton;
//!
//! let spec = mdes_lang::compile("
//!     resource ALU;
//!     or_tree UseAlu = first_of({ ALU @ 0 });
//!     class alu { constraint = UseAlu; latency = 1; }
//! ").unwrap();
//! let mdes = Arc::new(CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap());
//! let mut fsa = Automaton::new(Arc::clone(&mdes));
//! let alu = mdes.class_by_name("alu").unwrap();
//!
//! let s0 = Automaton::START;
//! let s1 = fsa.issue(s0, alu).expect("ALU free");
//! assert!(fsa.issue(s1, alu).is_none(), "ALU busy this cycle");
//! let s2 = fsa.advance(s1);
//! assert!(fsa.issue(s2, alu).is_some(), "free again next cycle");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::Arc;

use mdes_core::{CheckStats, Checker, ClassId, CompiledMdes, RuMap};

/// A state id in the automaton.
pub type StateId = u32;

/// The lazily constructed conflict-detection automaton.  It shares the
/// description it walks, so it can outlive the scope that compiled it.
#[derive(Clone, Debug)]
pub struct Automaton {
    mdes: Arc<CompiledMdes>,
    /// Occupancy window per state: `window[k]` is the occupancy of
    /// absolute cycle `current + min_check_time + k`.
    windows: Vec<Vec<u64>>,
    index: HashMap<Vec<u64>, StateId>,
    /// Cached issue transitions: `(state, class) → Option<state>`.
    issue_cache: HashMap<(StateId, u32), Option<StateId>>,
    /// Cached cycle-advance transitions.
    advance_cache: HashMap<StateId, StateId>,
    /// The checker's counters and selection buffer, reused by every
    /// transition built (the counts are never reported).
    stats: CheckStats,
    selection: Vec<u32>,
}

impl Automaton {
    /// The empty-machine start state.
    pub const START: StateId = 0;

    /// Creates an automaton over `mdes` containing only the start state.
    pub fn new(mdes: Arc<CompiledMdes>) -> Automaton {
        let len = (mdes.max_check_time() - mdes.min_check_time() + 1).max(1) as usize;
        let empty = vec![0u64; len];
        let mut index = HashMap::new();
        index.insert(empty.clone(), 0);
        Automaton {
            mdes,
            windows: vec![empty],
            index,
            issue_cache: HashMap::new(),
            advance_cache: HashMap::new(),
            stats: CheckStats::new(),
            selection: Vec::new(),
        }
    }

    /// Number of materialized states.
    pub fn num_states(&self) -> usize {
        self.windows.len()
    }

    /// Estimated table bytes under the paper's 4-byte-word model: one
    /// word per (state, class) issue entry plus one per advance entry.
    pub fn table_bytes(&self) -> usize {
        self.num_states() * (self.mdes.classes().len() + 1) * 4
    }

    /// Attempts to issue one operation of `class` in the current cycle of
    /// `state`.  Returns the successor state, or `None` on a resource
    /// conflict.  The reservation-table checker makes the selection, so
    /// both detectors accept identical schedules.
    pub fn issue(&mut self, state: StateId, class: ClassId) -> Option<StateId> {
        let key = (state, class.index() as u32);
        if let Some(&cached) = self.issue_cache.get(&key) {
            return cached;
        }
        let result = self.compute_issue(state, class);
        self.issue_cache.insert(key, result);
        result
    }

    /// Advances one cycle: the oldest window slot expires, a fresh one
    /// appears.
    pub fn advance(&mut self, state: StateId) -> StateId {
        if let Some(&cached) = self.advance_cache.get(&state) {
            return cached;
        }
        let mut window = self.windows[state as usize].clone();
        window.rotate_left(1);
        let last = window.len() - 1;
        window[last] = 0;
        let next = self.intern(window);
        self.advance_cache.insert(state, next);
        next
    }

    // Cold: a cache miss, once per (state, class).  Inlined, the
    // checker walk would weigh on every cached `issue` lookup.
    #[cold]
    fn compute_issue(&mut self, state: StateId, class: ClassId) -> Option<StateId> {
        // The state's window as an RU map over the cycles an issue at
        // cycle 0 can touch.
        let (min, max) = (self.mdes.min_check_time(), self.mdes.max_check_time());
        let mut ru = RuMap::with_range(min, max);
        for (cycle, &word) in (min..).zip(&self.windows[state as usize]) {
            ru.reserve(cycle, word);
        }
        self.selection.clear();
        let accepted = Checker::new(&self.mdes).try_reserve_into(
            &mut ru,
            class,
            0,
            &mut self.stats,
            &mut self.selection,
        );
        accepted.then(|| self.intern((min..=max).map(|cycle| ru.word(cycle)).collect()))
    }

    fn intern(&mut self, window: Vec<u64>) -> StateId {
        if let Some(&id) = self.index.get(&window) {
            return id;
        }
        let id = self.windows.len() as StateId;
        self.index.insert(window.clone(), id);
        self.windows.push(window);
        id
    }

    /// Greedily packs a sequence of operations (given as classes, in
    /// issue order) onto consecutive cycles: each operation issues in the
    /// current cycle if the automaton accepts it, otherwise the cycle
    /// advances until it does.  Returns the total number of cycles used
    /// and the number of automaton transitions taken (the FSA's unit of
    /// work, each O(1)).
    ///
    /// This ignores data dependences — it measures pure resource packing
    /// — and is cross-validated against the reservation-table RU map in
    /// the integration tests.
    ///
    /// # Panics
    ///
    /// Panics if some class can never issue even on an empty machine.
    pub fn pack_in_order(&mut self, classes: &[ClassId]) -> (i32, usize) {
        let mut state = Automaton::START;
        let mut cycles = if classes.is_empty() { 0 } else { 1 };
        let mut transitions = 0usize;
        for &class in classes {
            let mut spins = 0;
            loop {
                transitions += 1;
                match self.issue(state, class) {
                    Some(next) => {
                        state = next;
                        break;
                    }
                    None => {
                        state = self.advance(state);
                        transitions += 1; // the advance lookup
                        cycles += 1;
                        spins += 1;
                        assert!(
                            spins < 1 << 12,
                            "class {class:?} can never issue on this machine"
                        );
                    }
                }
            }
        }
        (cycles, transitions)
    }

    /// Fully enumerates reachable states (breadth-first over every class
    /// issue and the cycle advance), stopping at `max_states`.  Returns
    /// `true` if closure was reached within the cap.
    pub fn build_full(&mut self, max_states: usize) -> bool {
        let classes: Vec<ClassId> = (0..self.mdes.classes().len())
            .map(ClassId::from_index)
            .collect();
        let mut frontier = 0usize;
        while frontier < self.windows.len() {
            if self.windows.len() > max_states {
                return false;
            }
            let state = frontier as StateId;
            for &class in &classes {
                self.issue(state, class);
            }
            self.advance(state);
            frontier += 1;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdes_core::{CheckStats, Checker, RuMap, UsageEncoding};

    fn compile(src: &str) -> Arc<CompiledMdes> {
        let spec = mdes_lang::compile(src).unwrap();
        Arc::new(CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap())
    }

    const TWO_ISSUE: &str = "
        resource Dec[2];
        resource M;
        or_tree AnyDec = first_of(for d in 0..2: { Dec[d] @ -1 });
        or_tree UseM = first_of({ M @ 0 });
        and_or_tree Load = all_of(UseM, AnyDec);
        and_or_tree Alu = all_of(AnyDec);
        class load { constraint = Load; latency = 2; flags = load; }
        class alu { constraint = Alu; latency = 1; }
    ";

    #[test]
    fn issue_respects_resource_limits() {
        let mdes = compile(TWO_ISSUE);
        let mut fsa = Automaton::new(Arc::clone(&mdes));
        let load = mdes.class_by_name("load").unwrap();
        let alu = mdes.class_by_name("alu").unwrap();

        let s1 = fsa.issue(Automaton::START, load).unwrap();
        // Second load conflicts on M; an ALU op still fits (decoder 1).
        assert!(fsa.issue(s1, load).is_none());
        let s2 = fsa.issue(s1, alu).unwrap();
        // Both decoders busy now.
        assert!(fsa.issue(s2, alu).is_none());
        // Next cycle everything clears.
        let s3 = fsa.advance(s2);
        assert!(fsa.issue(s3, load).is_some());
    }

    #[test]
    fn transitions_are_cached_and_states_interned() {
        let mdes = compile(TWO_ISSUE);
        let mut fsa = Automaton::new(Arc::clone(&mdes));
        let alu = mdes.class_by_name("alu").unwrap();
        let a = fsa.issue(Automaton::START, alu).unwrap();
        let b = fsa.issue(Automaton::START, alu).unwrap();
        assert_eq!(a, b);
        // advance from start loops back to start (empty window).
        assert_eq!(fsa.advance(Automaton::START), Automaton::START);
    }

    #[test]
    fn agrees_with_reservation_table_checker() {
        // Drive both detectors through the same issue/advance script and
        // require identical accept/reject decisions.
        let mdes = compile(TWO_ISSUE);
        let checker = Checker::new(&mdes);
        let mut fsa = Automaton::new(Arc::clone(&mdes));
        let load = mdes.class_by_name("load").unwrap();
        let alu = mdes.class_by_name("alu").unwrap();

        let script = [load, alu, load, alu, alu, load, load, alu];
        let mut ru = RuMap::new();
        let mut stats = CheckStats::new();
        let mut selected = Vec::new();
        let mut state = Automaton::START;
        let mut cycle = 0;
        for (i, &class) in script.iter().enumerate() {
            let table_ok =
                checker.try_reserve_into(&mut ru, class, cycle, &mut stats, &mut selected);
            let fsa_next = fsa.issue(state, class);
            assert_eq!(table_ok, fsa_next.is_some(), "divergence at step {i}");
            if let Some(next) = fsa_next {
                state = next;
            }
            if i % 3 == 2 {
                cycle += 1;
                state = fsa.advance(state);
            }
        }
    }

    #[test]
    fn full_enumeration_reaches_closure_on_small_machine() {
        let mdes = compile(TWO_ISSUE);
        let mut fsa = Automaton::new(Arc::clone(&mdes));
        assert!(fsa.build_full(10_000));
        // Window spans 2 cycles with 3 resources; closure is modest.
        assert!(fsa.num_states() > 3);
        assert!(fsa.num_states() < 200, "{} states", fsa.num_states());
        assert!(fsa.table_bytes() > 0);
    }

    #[test]
    fn enumeration_cap_is_honored() {
        let spec = mdes_machines::Machine::K5.spec();
        let compiled = CompiledMdes::compile(&spec, UsageEncoding::BitVector).unwrap();
        let mut fsa = Automaton::new(Arc::new(compiled));
        let closed = fsa.build_full(500);
        assert!(!closed, "K5 automaton should blow past 500 states");
        assert!(fsa.num_states() >= 500);
    }

    #[test]
    fn pack_in_order_counts_cycles_and_transitions() {
        let mdes = compile(TWO_ISSUE);
        let mut fsa = Automaton::new(Arc::clone(&mdes));
        let alu = mdes.class_by_name("alu").unwrap();
        // Four ALU ops on two decoders: 2 per cycle over 2 cycles.  Six
        // transitions: four accepting issues, one rejected issue, one
        // cycle advance.
        let (cycles, transitions) = fsa.pack_in_order(&[alu, alu, alu, alu]);
        assert_eq!(cycles, 2);
        assert_eq!(transitions, 6);
    }

    #[test]
    fn pack_of_nothing_is_zero_cycles() {
        let mdes = compile(TWO_ISSUE);
        let mut fsa = Automaton::new(Arc::clone(&mdes));
        assert_eq!(fsa.pack_in_order(&[]), (0, 0));
    }

    #[test]
    fn start_state_is_reusable_after_heavy_traffic() {
        let mdes = compile(TWO_ISSUE);
        let mut fsa = Automaton::new(Arc::clone(&mdes));
        let alu = mdes.class_by_name("alu").unwrap();
        let mut state = Automaton::START;
        for _ in 0..50 {
            while let Some(next) = fsa.issue(state, alu) {
                state = next;
            }
            state = fsa.advance(state);
        }
        // Draining for two cycles returns to the empty window = START.
        state = fsa.advance(state);
        assert_eq!(state, Automaton::START);
    }
}
