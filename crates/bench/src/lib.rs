//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation.
//!
//! * [`experiment`] — the grid of (machine × representation × stage ×
//!   encoding) cells every table and figure reads, each cell computed
//!   once, with Section 4's one schedule per machine asserted across it;
//! * [`tables`] — Tables 1–15 plus seven ablations (A–G);
//! * [`figures`] — Figures 1–6, and Figure 2's distribution as CSV;
//! * [`paper`] — reference values transcribed from the paper;
//! * [`report`] — plain-text table rendering.
//!
//! `mdesc tables [NAME|all]... [--ops N]` and `mdesc figures
//! [NAME|all]... [--ops N]` print them, each from one
//! [`experiment::Grid`]; [`tables::NAMES`] and [`figures::NAMES`] list
//! the names each takes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod figures;
pub mod paper;
pub mod report;
pub mod tables;

/// The names of a list of named renderers, in list order.
const fn names<R, const N: usize>(entries: &[(&'static str, R); N]) -> [&'static str; N] {
    let mut names = [""; N];
    let mut i = 0;
    while i < N {
        names[i] = entries[i].0;
        i += 1;
    }
    names
}
