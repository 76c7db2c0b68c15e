//! One runner per table and figure of the paper's evaluation.
//!
//! Each runner returns both a rendered [`Table`](crate::Table) (what
//! the `tables` binary prints) and structured data the integration
//! tests assert the paper's qualitative findings against.

pub mod ablation;
pub(crate) mod closedloop;
pub mod data;
pub mod enhance;
pub mod frontier;
pub mod macrob;
pub mod micro;
pub mod scale;
