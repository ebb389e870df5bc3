//! # tempriv-bench — figure regeneration and validation harness
//!
//! Shared machinery for the Criterion benches and the `figures` binary:
//!
//! * [`harness`] — the interleaved timing loop, best-of-N times and
//!   paired overhead ratios behind `perf_baseline`'s overhead and scale
//!   benches,
//! * [`table`] — aligned-table printing and CSV export of result series,
//! * [`validation`] — the analytic-validation experiments (V1–V4 in
//!   DESIGN.md): bits-through-queues bound vs empirical MI, M/M/∞
//!   occupancy vs Poisson(ρ), drop-tail loss vs the Erlang formula, and
//!   Burke's theorem on simulated departures.
//!
//! The paper figures themselves (Figure 2a/2b, Figure 3) are produced by
//! the sweep functions in [`tempriv_core::experiment`]; this crate only
//! formats and records them.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod harness;
pub mod table;
pub mod validation;
