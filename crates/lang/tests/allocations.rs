//! Allocation gates for the HMDL front end.
//!
//! A counting global allocator (no dependencies) tallies heap
//! allocations per thread, so tests running in parallel do not see each
//! other's traffic.  The gates:
//!
//! * lexing allocates only its token buffer: tokens borrow their text,
//!   so a source costs the buffer's first allocation and its doublings;
//! * parsing and elaborating each bundled source make a pinned number of
//!   allocations: tokens and AST names borrow the source, and the spec
//!   owns each defined name once;
//! * a pass over the `build` benchmark's seed-1 corpus (the six bundled
//!   sources and 58 fleet machines printed as HMDL) stays under 9,000
//!   allocations for lexing, parsing and elaboration together.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mdes_lang::lexer::lex;
use mdes_lang::{elaborate, parse, print};
use mdes_machines::bundled_sources;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator may run while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees are exactly the ones `System` requires, and the
// only extra work is bumping a const-initialised thread-local counter,
// which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Allocations lexing, parsing (lexing excluded) and elaborating
/// `source` make.
fn front_end_allocations(source: &str) -> [u64; 3] {
    let (lexing, tokens) = allocations_in(|| lex(source).unwrap());
    let (parsing, program) = allocations_in(|| parse(source).unwrap());
    let (elaborating, spec) = allocations_in(|| elaborate(&program).unwrap());
    drop((tokens, spec));
    [lexing, parsing - lexing, elaborating]
}

/// `1 + ⌈log₂ tokens⌉`: the token buffer's first allocation and its
/// doublings.
fn buffer_bound(source: &str) -> u64 {
    let tokens = lex(source).unwrap().len() as u64;
    1 + u64::from(tokens.next_power_of_two().trailing_zeros())
}

#[test]
fn lexing_allocates_only_its_token_buffer() {
    for (name, source) in bundled_sources() {
        let [lexing, ..] = front_end_allocations(source);
        assert!(
            lexing <= buffer_bound(source),
            "{name}: {lexing} allocations, bound {}",
            buffer_bound(source)
        );
    }
}

/// `(source, parsing, elaborating)` allocations.
const PINNED: &[(&str, u64, u64)] = &[
    ("pa7100", 112, 191),
    ("pentium", 154, 221),
    ("supersparc", 153, 282),
    ("k5", 186, 299),
    ("pentiumpro", 81, 151),
    ("superspark_approx", 74, 175),
];

#[test]
fn parse_and_elaborate_allocations_are_pinned() {
    let sources = bundled_sources();
    let actual: Vec<(&str, u64, u64)> = sources
        .iter()
        .map(|(name, source)| {
            let [_, parsing, elaborating] = front_end_allocations(source);
            (name.as_str(), parsing, elaborating)
        })
        .collect();
    assert_eq!(actual, PINNED);
}

#[test]
fn a_corpus_pass_stays_under_nine_thousand_allocations() {
    let mut corpus: Vec<String> = bundled_sources()
        .into_iter()
        .map(|(_, source)| source.to_string())
        .collect();
    for machine in mdes_workload::fleet(1, 58) {
        corpus.push(print(&machine.spec).unwrap());
    }
    let mut totals = [0u64; 3];
    for source in &corpus {
        let counts = front_end_allocations(source);
        assert!(counts[0] <= buffer_bound(source));
        for (total, count) in totals.iter_mut().zip(counts) {
            *total += count;
        }
    }
    let total: u64 = totals.iter().sum();
    assert!(
        total <= 9_000,
        "lexing, parsing, elaborating: {totals:?} = {total}"
    );
}
