//! The JSON readers against torn and hostile bytes, and the writer
//! against the committed golden report.
//!
//! `Json::parse` and `timing::parse_snapshot` read bytes from the
//! network and from disk. Seeded truncations, byte mutations and splices
//! of three real documents (the golden `run all --test --json` report, a
//! study request body and `BENCH_10_quick.json`) must each give `Ok` or
//! `Err`, never a panic. What parses must also write back to an equal
//! value. Every case comes from `varbench_rng::sweep`, so a failure
//! names the case that reproduces it.

use varbench_bench::protocol::StudyRequest;
use varbench_bench::timing::{parse_snapshot, render_snapshot};
use varbench_core::json::Json;
use varbench_rng::sweep::sweep;

const STUDY_BODY: &str = concat!(
    r#"{"workload":"synthetic-ridge","effort":"test","sources":["data_split"],"#,
    r#""seeds":4,"base_seed":9007199254740993,"budget":2,"algo":"Bayes Opt","#,
    r#""gamma":0.75,"name":"my-study"}"#
);

fn repo_file(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn inputs() -> Vec<Vec<u8>> {
    vec![
        repo_file("tests/golden/run_all_test.json").into_bytes(),
        STUDY_BODY.as_bytes().to_vec(),
        repo_file("BENCH_10_quick.json").into_bytes(),
    ]
}

/// Feeds `bytes` to every reader. Each must answer rather than panic,
/// and whatever it accepts must survive a write and a second read.
fn read_all(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    if let Ok(doc) = Json::parse(&text) {
        assert_eq!(Json::parse(&doc.to_string()), Ok(doc.clone()), "{text}");
        let _ = StudyRequest::from_json(&doc);
    }
    if let Ok(results) = parse_snapshot(&text) {
        assert_eq!(parse_snapshot(&render_snapshot(&results)), Ok(results));
    }
}

#[test]
fn golden_report_re_renders_byte_for_byte() {
    let text = repo_file("tests/golden/run_all_test.json");
    assert_eq!(text.len(), 27_102);
    let doc = Json::parse(&text).expect("the golden report parses");
    assert_eq!(format!("{doc}\n"), text);
}

#[test]
fn unmodified_inputs_are_accepted() {
    let inputs = inputs();
    for input in &inputs {
        let text = std::str::from_utf8(input).expect("UTF-8");
        assert!(Json::parse(text).is_ok());
        read_all(input);
    }
    let body = Json::parse(STUDY_BODY).unwrap();
    let req = StudyRequest::from_json(&body).expect("a valid study request");
    assert_eq!(req.base_seed, Some(9_007_199_254_740_993));
    assert!(
        parse_snapshot(STUDY_BODY).is_err(),
        "an object is no snapshot"
    );
}

#[test]
fn truncated_inputs_never_panic() {
    let inputs = inputs();
    sweep("json_inputs_truncated", 300, |case| {
        let input = case.pick(&inputs);
        read_all(case.truncated(input));
    });
}

#[test]
fn mutated_inputs_never_panic() {
    // Bytes that steer the readers: structure, escapes, the number
    // grammar, literals, whitespace, control and non-UTF-8 bytes.
    const STEER: &[u8] = b"{}[],:\"\\/-+.eE0129untflr \n\t\x00\x1f\x7f\xc3\xff";
    let inputs = inputs();
    sweep("json_inputs_mutated", 300, |case| {
        let input = case.pick(&inputs);
        read_all(&case.mutated(input, STEER));
    });
}

#[test]
fn spliced_inputs_never_panic() {
    let inputs = inputs();
    sweep("json_inputs_spliced", 300, |case| {
        let (a, b) = (case.pick(&inputs), case.pick(&inputs));
        read_all(&case.spliced(a, b));
    });
}
