//! Application layers built on data transposition (paper §4).
//!
//! * [`scheduler`] — task scheduling on heterogeneous systems: assign a
//!   job mix to a heterogeneous cluster using predicted performance.
//! * [`dse`] — fast design-space exploration: rank hypothetical design
//!   points for a new workload from a handful of simulated benchmarks.

pub mod dse;
pub mod scheduler;
