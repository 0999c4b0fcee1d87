#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Benchmark generation and design I/O — the substitute for the ISPD'18
//! and ISPD'19 contest benchmarks.
//!
//! The contest LEF/DEF tarballs are not redistributable, so this crate
//! generates synthetic designs that preserve the properties the paper's
//! experiments measure:
//!
//! * [`synthetic`] — the **Table-1 protocol**, reproduced verbatim from
//!   the paper: per net, three random g-cells inside a random box, with a
//!   uniform edge capacity,
//! * [`ispdlike`] — **ISPD-like designs**: clustered pins, macro-shaped
//!   capacity holes, congestion hotspots, pin-density load — the features
//!   that make congested contest cases hard,
//! * [`catalog`] — named testcases mirroring the paper's benchmark lists
//!   (`ispd18_test1..10`, `ispd18_5m`, … `ispd19_9m`) at laptop-friendly
//!   scale (per-case dimensions documented in `EXPERIMENTS.md`),
//! * [`mod@format`] — a plain-text design format with round-trip parsing.

pub mod catalog;
pub mod format;
pub mod ispdlike;
pub mod synthetic;

pub use catalog::{catalog_case, catalog_names, congested_cases, ispd18_cases, CatalogCase};
pub use format::{parse_design, write_design};
pub use ispdlike::{IspdLikeConfig, IspdLikeGenerator};
pub use synthetic::{table1_design, table1_rows, Table1Params};

/// Errors produced while generating or parsing designs.
#[derive(Debug)]
pub enum IoError {
    /// Underlying grid/design validation failure.
    Grid(dgr_grid::GridError),
    /// The text being parsed is not a valid design file.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Grid(e) => write!(f, "design validation failed: {e}"),
            IoError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Grid(e) => Some(e),
            IoError::Parse { .. } => None,
        }
    }
}

impl From<dgr_grid::GridError> for IoError {
    fn from(e: dgr_grid::GridError) -> Self {
        IoError::Grid(e)
    }
}
