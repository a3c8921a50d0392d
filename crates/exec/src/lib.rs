//! # easeml-exec — a re-export of [`easeml::exec`]
//!
//! The multi-device execution engine lives in `easeml-core` as the module
//! [`easeml::exec`]. This crate exists only because the end-to-end
//! benchmark under `perfbench/` still imports it by this name; once the
//! benchmark imports `easeml::exec`, the crate goes.

#![forbid(unsafe_code)]

pub use easeml::exec::*;
