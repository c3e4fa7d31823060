//! `dynlint` — the workspace's correctness gate.
//!
//! With no arguments it runs four passes over the real tree and exits
//! nonzero if any produces an error-severity finding:
//!
//! 1. the determinism source lint (plus the lock-discipline scan) over
//!    the simulation crates;
//! 2. the probe-safety analyzer over the four ASCI benchmark images
//!    (each app's `Dynamic`-policy subset as the probe plan);
//! 3. the snippet-program check over the standard VT snippet set
//!    (`VT_begin`, `VT_end`, configuration break) under both machine
//!    cost models;
//! 4. a happens-before smoke run: a small MPI job with the checker armed
//!    whose report must contain no errors.
//!
//! `--fixture <name>` instead runs a seeded negative — an input
//! deliberately constructed to trip one detector class — and therefore
//! exits nonzero. Fixtures: `collective-mismatch`, `epoch-unsafe`,
//! `unsafe-probe`, `banned-source`, `unknown-intrinsic`,
//! `branch-into-patch`, `clock-under-lock`, `trace-readback`,
//! `image-construction`, `query-dense-state`, `stale-allow`.

use std::path::Path;
use std::process::ExitCode;

use dynprof_check::analyzer::{analyze, Budget, ProbePlan};
use dynprof_check::hb::{self, Finding, Severity};
use dynprof_check::{lint, verify};
use dynprof_image::{BasicBlock, FunctionInfo, IntrinsicTable, SnippetProgram};
use dynprof_mpi::{launch, JobSpec};
use dynprof_sim::ProbeCosts;
use dynprof_sim::{Machine, Sim, SimTime};

/// Crates whose sources must stay deterministic.
const LINT_DIRS: &[&str] = &[
    "crates/analysis",
    "crates/sim",
    "crates/mpi",
    "crates/omp",
    "crates/vt",
    "crates/dpcl",
    "crates/image",
    "crates/apps",
    "crates/core",
    "crates/bench",
];

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let findings = match args.first().map(String::as_str) {
        None => real_tree(),
        Some("--fixture") => match args.get(1).map(String::as_str) {
            Some("collective-mismatch") => fixture_collective_mismatch(),
            Some("epoch-unsafe") => fixture_epoch_unsafe(),
            Some("unsafe-probe") => fixture_unsafe_probe(),
            Some("banned-source") => fixture_source("bad_instant.rs"),
            Some("unknown-intrinsic") => fixture_unknown_intrinsic(),
            Some("branch-into-patch") => fixture_branch_into_patch(),
            Some("clock-under-lock") => fixture_source("clock_under_lock.rs"),
            Some("trace-readback") => fixture_source("trace_readback/crates/apps/src/cli.rs"),
            Some("image-construction") => {
                fixture_source("image_construction/crates/core/src/session.rs")
            }
            Some("query-dense-state") => {
                fixture_source("query_dense_state/crates/analysis/src/comm.rs")
            }
            Some("stale-allow") => fixture_stale_allow(),
            other => {
                eprintln!("dynlint: unknown fixture {other:?}");
                return ExitCode::from(2);
            }
        },
        Some(other) => {
            eprintln!("dynlint: unknown argument {other:?} (try `--fixture <name>`)");
            return ExitCode::from(2);
        }
    };
    let mut errors = 0usize;
    let mut warnings = 0usize;
    for f in &findings {
        println!("{f}");
        match f.severity {
            Severity::Error => errors += 1,
            Severity::Warning => warnings += 1,
        }
    }
    println!("dynlint: {errors} error(s), {warnings} warning(s)");
    if errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

// -- the real tree ----------------------------------------------------------

fn real_tree() -> Vec<Finding> {
    let root = repo_root();
    let allow_text =
        std::fs::read_to_string(root.join("crates/check/dynlint.allow")).unwrap_or_default();
    let allow = lint::parse_allowlist(&allow_text);
    let mut findings = lint::lint_tree(root, LINT_DIRS, &allow);

    // Probe-safety: each benchmark's dynamic-policy plan against its
    // manifest.
    let apps: [(&str, Vec<FunctionInfo>, Vec<String>); 4] = [
        (
            "smg98",
            dynprof_apps::smg98_manifest(),
            dynprof_apps::smg98_subset(),
        ),
        (
            "sppm",
            dynprof_apps::sppm_manifest(),
            dynprof_apps::sppm_subset(),
        ),
        (
            "sweep3d",
            dynprof_apps::sweep3d_manifest(),
            dynprof_apps::sweep3d_subset(),
        ),
        (
            "umt98",
            dynprof_apps::umt98_manifest(),
            dynprof_apps::umt98_subset(),
        ),
    ];
    for (name, manifest, subset) in apps {
        findings.extend(analyze(
            name,
            &manifest,
            &ProbePlan::timer_pair(subset),
            &Budget::default(),
        ));
    }

    // Snippet-program verification: the standard VT snippet set must
    // verify clean under both machine cost models; a regression here
    // means the daemons would reject every install.
    findings.extend(verify::verify_standard_snippets(ProbeCosts::power3()));
    findings.extend(verify::verify_standard_snippets(ProbeCosts::pentium3()));

    findings.extend(smoke_run());
    findings
}

/// A 4-rank job doing matched collectives and point-to-point traffic; its
/// happens-before report must be error-free.
fn smoke_run() -> Vec<Finding> {
    let sim = Sim::virtual_time(Machine::test_machine(), 7);
    sim.enable_check();
    let handle = sim.check_handle();
    launch(&sim, JobSpec::new("smoke", 4), vec![], |p, c| {
        c.init(p);
        c.barrier(p);
        let total = c.allreduce(p, c.rank() as u64, |a, b| a + b);
        assert_eq!(total, 6);
        let _ = c.bcast(p, 0, (c.rank() == 0).then_some(total));
        c.barrier(p);
        c.finalize(p);
    });
    sim.run();
    handle.report().findings
}

// -- seeded negatives -------------------------------------------------------

/// Two ranks enter the same collective slot with different roots: the
/// collective-mismatch detector must flag it.
fn fixture_collective_mismatch() -> Vec<Finding> {
    let sim = Sim::virtual_time(Machine::test_machine(), 3);
    sim.enable_check();
    let handle = sim.check_handle();
    launch(&sim, JobSpec::new("bad", 2), vec![], |p, c| {
        c.init(p);
        // Every rank believes *it* is the broadcast root — the classic
        // mismatched-collective bug. Both act as root (send and return),
        // so the run terminates; the checker sees one collective slot
        // with two different roots.
        let me = c.rank();
        let _ = c.bcast(p, me, Some(me as u64));
        c.finalize(p);
    });
    sim.run();
    handle.report().findings
}

/// A configuration epoch applied on a process with no causal path from
/// the decision: the paper §5 safe-point invariant is violated.
fn fixture_epoch_unsafe() -> Vec<Finding> {
    let sim = Sim::virtual_time(Machine::test_machine(), 5);
    sim.enable_check();
    let handle = sim.check_handle();
    let lib = hb::unique_id();
    sim.spawn("decider", 0, move |p| {
        p.advance(SimTime::from_micros(1));
        hb::epoch_decision(p, lib, 0);
    });
    sim.spawn("applier", 1, move |p| {
        // Applies the epoch without ever having communicated with the
        // decider: nothing orders the apply after the decision.
        p.advance(SimTime::from_micros(2));
        hb::epoch_apply(p, lib, 0);
    });
    sim.run();
    handle.report().findings
}

/// A probe plan targeting a function too small to hold the patch.
fn fixture_unsafe_probe() -> Vec<Finding> {
    let manifest = vec![
        FunctionInfo::new("main").with_size(2048),
        FunctionInfo::new("leaf_stub").with_size(8),
    ];
    let plan = ProbePlan::timer_pair(vec!["leaf_stub".into()]);
    analyze("fixture", &manifest, &plan, &Budget::default())
}

/// A source file that breaks a source-lint rule: `bad_instant.rs` reads a
/// banned wall clock, `clock_under_lock.rs` takes the engine mutex inside
/// `Proc::now`.
fn fixture_source(file: &str) -> Vec<Finding> {
    let rel = format!("crates/check/fixtures/{file}");
    let path = repo_root().join(&rel);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    lint::lint_source(&rel, &src, &[])
}

/// A tree linted against an allowlist with an entry that excuses nothing
/// in it (`fixtures/stale_allow`): the dead exception is the error.
fn fixture_stale_allow() -> Vec<Finding> {
    let dir = "crates/check/fixtures/stale_allow";
    let allow_text = std::fs::read_to_string(repo_root().join(dir).join("dynlint.allow"))
        .unwrap_or_else(|e| panic!("fixture allowlist unreadable: {e}"));
    lint::lint_tree(repo_root(), &[dir], &lint::parse_allowlist(&allow_text))
}

/// A snippet program that calls past the end of its intrinsic table:
/// the daemons would reject it at install.
fn fixture_unknown_intrinsic() -> Vec<Finding> {
    let prog = SnippetProgram::new(
        "fixture_unknown_intrinsic",
        vec![7],
        IntrinsicTable::empty(),
    );
    verify::verify_program(&prog)
}

/// A probe plan targeting a function whose CFG branches back into the
/// bytes an entry patch would overwrite.
fn fixture_branch_into_patch() -> Vec<Finding> {
    let manifest = vec![
        FunctionInfo::new("main").with_size(2048),
        FunctionInfo::new("hot_loop")
            .with_size(512)
            .with_blocks(vec![
                BasicBlock::new(0, vec![64]),
                BasicBlock::new(64, vec![4, 128]),
            ]),
    ];
    let plan = ProbePlan::timer_pair(vec!["hot_loop".into()]);
    analyze("fixture", &manifest, &plan, &Budget::default())
}
