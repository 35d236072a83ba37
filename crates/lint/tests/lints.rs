//! Expected-diagnostic tests: every lint in the catalogue has at least
//! one firing fixture and one exercised allow-marker path.
//!
//! Fixture files live under `tests/fixtures/` (a directory the repo
//! walker skips — they contain deliberate violations) and are checked
//! under *pretend* repo-relative paths, because most lints scope by
//! path: a fixture pretending to be `crates/fake/src/lib.rs` is library
//! code and a crate root; the same bytes under `tests/…` would be
//! exempt.

use std::path::Path;

/// Runs the catalogue over a fixture file with a pretend repo path and
/// returns `(line, lint_id)` pairs.
fn check_fixture(fixture: &str, pretend_path: &str) -> Vec<(u32, &'static str)> {
    let disk = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    let src = std::fs::read_to_string(&disk)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", disk.display()));
    varbench_lint::check_file(pretend_path, &src)
        .into_iter()
        .map(|d| (d.line, d.lint))
        .collect()
}

#[test]
fn l001_fires_and_allows() {
    let diags = check_fixture("l001_map_iter.rs", "crates/fake/src/maps.rs");
    assert_eq!(diags, vec![(2, "L001"), (3, "L001")]);
}

#[test]
fn l001_is_scoped_to_library_code() {
    // The same bytes under a tests/ path produce nothing.
    let diags = check_fixture("l001_map_iter.rs", "crates/fake/tests/maps.rs");
    assert_eq!(diags, vec![]);
}

#[test]
fn l002_fires_and_allows() {
    let diags = check_fixture("l002_wallclock.rs", "crates/fake/src/clock.rs");
    assert_eq!(diags, vec![(2, "L002"), (5, "L002"), (6, "L002")]);
}

#[test]
fn l002_registered_timing_module_is_exempt() {
    let diags = check_fixture("l002_wallclock.rs", "crates/bench/src/timing.rs");
    assert_eq!(diags, vec![]);
}

#[test]
fn l003_fires_and_allows() {
    let diags = check_fixture("l003_unsafe.rs", "crates/fake/src/lib.rs");
    assert_eq!(diags, vec![(1, "L003"), (7, "L003")]);
}

#[test]
fn l003_forbidding_root_is_clean() {
    let diags = check_fixture("l003_clean_root.rs", "crates/fake/src/lib.rs");
    assert_eq!(diags, vec![]);
}

#[test]
fn l003_non_root_files_skip_the_forbid_check() {
    // Same clean file as a non-root module: still clean, and no forbid
    // requirement applies.
    let diags = check_fixture("l003_clean_root.rs", "crates/fake/src/inner.rs");
    assert_eq!(diags, vec![]);
}

#[test]
fn l004_fires_and_allows() {
    let diags = check_fixture("l004_cache_key.rs", "crates/fake/src/keys.rs");
    assert_eq!(diags, vec![(4, "L004"), (8, "L004")]);
}

#[test]
fn l004_registered_sites_are_exempt() {
    // The key-format home is the one file allowed to render key segments.
    let diags = check_fixture("l004_cache_key.rs", "crates/pipeline/src/cache.rs");
    assert_eq!(diags, vec![]);
}

#[test]
fn l005_fires_and_allows() {
    let diags = check_fixture("l005_no_alloc.rs", "crates/fake/src/kernels.rs");
    assert_eq!(
        diags,
        vec![(5, "L005"), (6, "L005"), (7, "L005"), (8, "L005")]
    );
}

#[test]
fn l006_fires_and_allows() {
    let diags = check_fixture("l006_mul_add.rs", "crates/fake/src/math.rs");
    assert_eq!(diags, vec![(4, "L006")]);
}

#[test]
fn l006_kernel_files_are_exempt() {
    let diags = check_fixture("l006_mul_add.rs", "crates/linalg/src/ops.rs");
    assert_eq!(diags, vec![]);
}

#[test]
fn catalogue_ids_are_stable_and_sorted() {
    let ids: Vec<&str> = varbench_lint::CATALOGUE.iter().map(|l| l.id).collect();
    assert_eq!(ids, vec!["L001", "L002", "L003", "L004", "L005", "L006"]);
}
