//! The pieces of the end-to-end benchmark that carry its definitions:
//! percentiles, arrival schedules, the rate ladder's stop rule, span
//! self time, the expected-totals file, and the metric catalogue.  The
//! workloads themselves live in the `mdes-benchmark` binary.

#![forbid(unsafe_code)]

pub mod arrivals;
pub mod expected;
pub mod ladder;
pub mod report;
pub mod stats;
pub mod trace;
