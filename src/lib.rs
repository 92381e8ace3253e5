//! Workspace umbrella crate.
//!
//! Re-exports the public facade (`pgs-core`) so the examples and integration
//! tests at the repository root can simply `use pgs::prelude::*`.  Library
//! users should depend on `pgs-core` (or the individual sub-crates) directly.

#![deny(unsafe_code)]

pub use pgs_core::*;

/// The workspace version (all member crates share it).
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Compiles (and runs) the README's Rust snippets as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_exposed() {
        assert!(!super::VERSION.is_empty());
    }
}
