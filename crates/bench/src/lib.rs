//! # shbf-bench — the figure/table reproduction harness
//!
//! One module per figure or table of the paper's evaluation (§6), plus
//! ablations for design choices called out in DESIGN.md. Each module
//! exposes `run(&RunConfig)`; thin binaries in `src/bin/` drive them, and
//! `repro_all` runs the full evaluation.
//!
//! Conventions:
//!
//! * harness output is a printed table per figure panel (and optionally a
//!   CSV per panel under `--csv <dir>`), with the same series the paper
//!   plots;
//! * `--scale` shrinks the paper's workload sizes (default 0.1 — the
//!   paper's 1 M-element experiments run at 100 k);
//! * every run prints its seed and scale so results are reproducible.

#![forbid(unsafe_code)]

pub mod figs;
pub mod harness;
pub mod speed;

pub use harness::{RunConfig, Table};
