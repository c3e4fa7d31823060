//! End-to-end exit-code contract of the `dynlint` binary.

use std::process::Command;

fn dynlint(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dynlint"))
        .args(args)
        .output()
        .expect("spawn dynlint");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

#[test]
fn real_tree_is_clean() {
    let (ok, text) = dynlint(&[]);
    assert!(ok, "dynlint failed on the real tree:\n{text}");
    assert!(text.contains("0 error(s)"), "{text}");
}

#[test]
fn collective_mismatch_fixture_fails() {
    let (ok, text) = dynlint(&["--fixture", "collective-mismatch"]);
    assert!(!ok);
    assert!(text.contains("collective-mismatch"), "{text}");
}

#[test]
fn epoch_unsafe_fixture_fails() {
    let (ok, text) = dynlint(&["--fixture", "epoch-unsafe"]);
    assert!(!ok);
    assert!(text.contains("epoch-safety"), "{text}");
}

#[test]
fn unsafe_probe_fixture_fails() {
    let (ok, text) = dynlint(&["--fixture", "unsafe-probe"]);
    assert!(!ok);
    assert!(text.contains("analyzer:unsafe-probe-point"), "{text}");
}

#[test]
fn banned_source_fixture_fails() {
    let (ok, text) = dynlint(&["--fixture", "banned-source"]);
    assert!(!ok);
    assert!(text.contains("lint:instant-now"), "{text}");
}

#[test]
fn clock_under_lock_fixture_fails() {
    let (ok, text) = dynlint(&["--fixture", "clock-under-lock"]);
    assert!(!ok);
    assert!(text.contains("lint:clock-under-lock"), "{text}");
    assert!(text.contains("Proc::now"), "{text}");
}

#[test]
fn trace_readback_fixture_fails() {
    let (ok, text) = dynlint(&["--fixture", "trace-readback"]);
    assert!(!ok);
    assert!(text.contains("lint:trace-readback"), "{text}");
    assert!(text.contains("`build_trace`"), "{text}");
    // The same call inside the fixture's test module is not reported.
    assert!(text.contains("1 error(s)"), "{text}");
}

#[test]
fn image_construction_fixture_fails() {
    let (ok, text) = dynlint(&["--fixture", "image-construction"]);
    assert!(!ok);
    assert!(text.contains("lint:image-construction"), "{text}");
    assert!(text.contains("`Image::new`"), "{text}");
    // `process_images` itself and the fixture's test module are not reported.
    assert!(text.contains("1 error(s)"), "{text}");
}

#[test]
fn query_dense_state_fixture_fails() {
    let (ok, text) = dynlint(&["--fixture", "query-dense-state"]);
    assert!(!ok);
    assert!(text.contains("lint:query-dense-state"), "{text}");
    assert!(text.contains("`format!` inside `write_matrix`"), "{text}");
    // The `use`, the field and the `format!`; not the test module's tree.
    assert!(text.contains("3 error(s)"), "{text}");
}

#[test]
fn stale_allow_fixture_fails() {
    let (ok, text) = dynlint(&["--fixture", "stale-allow"]);
    assert!(!ok);
    assert!(text.contains("lint:stale-allow"), "{text}");
    assert!(text.contains("clean.rs thread-sleep"), "{text}");
    // The live entry next to it is not reported, and still suppresses.
    assert!(text.contains("1 error(s)"), "{text}");
}

#[test]
fn unknown_intrinsic_fixture_fails() {
    let (ok, text) = dynlint(&["--fixture", "unknown-intrinsic"]);
    assert!(!ok);
    assert!(text.contains("verify:unknown-intrinsic"), "{text}");
}

#[test]
fn branch_into_patch_fixture_fails() {
    let (ok, text) = dynlint(&["--fixture", "branch-into-patch"]);
    assert!(!ok);
    assert!(text.contains("analyzer:branch-into-patch"), "{text}");
}

#[test]
fn unknown_fixture_is_a_usage_error() {
    let (ok, text) = dynlint(&["--fixture", "nonesuch"]);
    assert!(!ok);
    assert!(text.contains("unknown fixture"), "{text}");
}
