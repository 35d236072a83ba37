//! The benchmark's output checks: a corrupted reference must surface as
//! failed ops, never as a passing run.
//!
//! Run with `CARGO_TARGET_DIR=.bench_build cargo test --release
//! --manifest-path perfbench/Cargo.toml` from the repository root. The
//! serve test needs the `varbench` binary that `perfbench/run.sh` builds
//! into the same target directory and is skipped, with a note, without
//! it.

use std::path::PathBuf;

use varbench_perfbench::clock::Tracer;
use varbench_perfbench::{reproduce, serve_warm, Env};

#[test]
fn reproduce_reports_a_corrupted_reference_as_failures() {
    let good = reproduce::reference();
    let run = reproduce::run(1, 0.0, &good, &Tracer::new(false));
    assert_eq!(run.ops.attempted(), 1);
    assert_eq!(run.ops.failed, 0, "the true reference passes");

    let bad = good.replacen("\"fig1\"", "\"fig0\"", 1);
    assert_ne!(bad, good);
    let run = reproduce::run(1, 0.0, &bad, &Tracer::new(false));
    assert_eq!(run.ops.failed, run.ops.attempted());
}

/// The `varbench` binary next to this test's target profile directory.
fn varbench_exe() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let path = exe.parent()?.parent()?.join("varbench");
    path.is_file().then_some(path)
}

#[test]
fn serve_warm_reports_a_corrupted_reference_as_failures() {
    let Some(exe) = varbench_exe() else {
        eprintln!("skipped: no varbench binary in the target directory (run perfbench/run.sh)");
        return;
    };
    let work = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../.bench_work")
        .join(format!("test-{}", std::process::id()));
    std::fs::create_dir_all(&work).expect("scratch directory");
    let env = Env {
        exe,
        work: work.clone(),
    };
    let mut refs = serve_warm::references();
    for r in &mut refs {
        r.push(' ');
    }
    let run = serve_warm::run(&env, 1, 0.2, &refs, &Tracer::new(false));
    let _ = std::fs::remove_dir_all(&work);
    assert!(run.ops.attempted() >= 1);
    assert_eq!(run.ops.failed, run.ops.attempted());
    assert!(
        run.problems.iter().any(|p| p.contains("prefill")),
        "the set-up prefill checks the same references: {:?}",
        run.problems
    );
}
