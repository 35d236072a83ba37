//! # varbench-lint — the workspace's tidy-style invariant checker
//!
//! The bit-identity guarantees this repo ships — seed-ordered results at
//! any thread count, the cache-key firewall, the zero-alloc
//! epoch loop — were conventions enforced by review. This crate makes
//! them machine-checked, the way `rust-lang/rust`'s `tidy` pass guards
//! that repo's conventions: a hand-rolled Rust lexer ([`lexer`]), a
//! small engine deriving scopes and suppression markers ([`engine`]),
//! a repo policy of allowlists ([`policy`]) and a catalogue of lints
//! with stable IDs ([`rules`]). The `varbench lint [--json] [PATHS…]`
//! CLI subcommand and `scripts/ci.sh` gate on it.
//!
//! | ID | name | invariant |
//! |---|---|---|
//! | L001 | map-iter-order | no `HashMap`/`HashSet` in library code |
//! | L002 | no-wallclock | `Instant`/`SystemTime` only in the timing module |
//! | L003 | unsafe-hygiene | `SAFETY:` comments + `#![forbid(unsafe_code)]` roots |
//! | L004 | cache-key-firewall | key segments formatted only in `cache.rs` |
//! | L005 | no-alloc-region | marked hot fns never allocate |
//! | L006 | no-fma-contraction | `mul_add` only in golden-tested kernels |
//!
//! Suppress a finding inline with a reasoned marker, on the offending
//! line or standing alone on the line above it:
//!
//! ```text
//! // lint:allow(L001): membership-only set, never iterated
//! ```
//!
//! The reason is mandatory; a bare marker suppresses nothing. Functions
//! whose body must stay allocation-free are marked with a `lint:
//! no-alloc` comment immediately above the `fn` (see L005).
//!
//! The crate is std-only with zero dependencies — it must keep building
//! when the code it polices does not.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod engine;
pub mod lexer;
pub mod policy;
pub mod rules;

pub use engine::{check_file, check_paths, find_workspace_root, Diagnostic};
pub use rules::{LintInfo, CATALOGUE};
