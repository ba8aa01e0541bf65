//! # spinn-bench — the experiment harness
//!
//! One module per experiment (E1–E13, E19, E20 plus ablations), each
//! regenerating a figure or quantitative claim of the paper. Every
//! module exposes `run(quick) -> String`, returning the table the
//! paper's claim implies; `src/bin/run_experiments.rs` prints them.
//! Nothing here writes a file: host performance is measured by the
//! standalone `benchmark/` package, and the claims that can be checked
//! exactly are unit tests (E19's delivery floors live in
//! `experiments::e19_resilience`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod figures;
pub mod resil;
