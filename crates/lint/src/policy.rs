//! Repo policy: which paths each lint applies to, and the explicit
//! allowlists. This is the one file to edit when registering a new
//! timing module or kernel file.
//!
//! Paths are repo-relative and `/`-separated (e.g.
//! `crates/pipeline/src/cache.rs`).

/// Files allowed to read wall-clock time (L002): the timing harness is
/// the *product* that measures time; everything else must be
/// deterministic in its inputs.
pub const WALLCLOCK_FILES: &[&str] = &["crates/bench/src/timing.rs"];

/// Crate roots exempt from the `#![forbid(unsafe_code)]` requirement
/// (L003), each entry carrying its justification. Currently empty: every
/// crate root in the workspace forbids unsafe code.
pub const UNSAFE_ROOT_ALLOWLIST: &[(&str, &str)] = &[];

/// The only file allowed to format cache-key segments (L004): the
/// canonical serialized form lives in `canonical()` and nowhere else.
pub const KEY_FORMAT_HOME: &str = "crates/pipeline/src/cache.rs";

/// Cache-key segment markers whose appearance in a string literal
/// outside [`KEY_FORMAT_HOME`] means someone is formatting keys ad hoc.
// lint:allow(L004): the firewall's own pattern table quotes the markers
pub const KEY_FORMAT_MARKERS: &[&str] = &["|var=", "|seed=", "|fp=", "varbench-cache"];

/// Golden-tested kernel files where `mul_add` is permitted (L006).
/// Everywhere else a fused multiply-add would change results vs the
/// separate multiply-and-add the artifacts were committed under.
pub const FMA_KERNEL_FILES: &[&str] =
    &["crates/linalg/src/ops.rs", "crates/linalg/src/cholesky.rs"];

/// Whether `path` is library source (the scope of L001/L002/L004/L006):
/// anything under a `src/` directory. Test targets, benches and examples
/// live outside `src/` by Cargo convention.
pub fn is_lib_source(path: &str) -> bool {
    (path.starts_with("src/") || path.contains("/src/")) && !is_test_path(path)
}

/// Whether `path` is test code wholesale: integration tests, benches,
/// and examples (compiled but never producing committed artifacts).
pub fn is_test_path(path: &str) -> bool {
    path.split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples")
}

/// Whether `path` is a crate root (lib, main, or a `src/bin` target) —
/// the files L003 requires to carry `#![forbid(unsafe_code)]`.
pub fn is_crate_root(path: &str) -> bool {
    if is_test_path(path) {
        return false;
    }
    path == "src/lib.rs"
        || path == "src/main.rs"
        || path.ends_with("/src/lib.rs")
        || path.ends_with("/src/main.rs")
        || path.contains("/src/bin/")
        || path.starts_with("src/bin/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_classification() {
        assert!(is_lib_source("src/lib.rs"));
        assert!(is_lib_source("crates/pipeline/src/cache.rs"));
        assert!(is_lib_source("crates/bench/src/bin/varbench.rs"));
        assert!(!is_lib_source("tests/determinism.rs"));
        assert!(!is_lib_source("crates/linalg/tests/property.rs"));
        assert!(!is_lib_source("crates/bench/benches/gemm.rs"));
        assert!(!is_lib_source("examples/quickstart.rs"));
    }

    #[test]
    fn crate_roots() {
        assert!(is_crate_root("src/lib.rs"));
        assert!(is_crate_root("crates/rng/src/lib.rs"));
        assert!(is_crate_root("crates/bench/src/bin/varbench.rs"));
        assert!(!is_crate_root("crates/rng/src/rng.rs"));
        assert!(!is_crate_root("crates/lint/tests/fixtures/src/lib.rs"));
    }
}
