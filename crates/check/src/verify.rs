//! Snippet-program verification facade.
//!
//! The abstract interpreter itself lives in `dynprof_image::ir` (the DPCL
//! daemons must be able to call it, and `dpcl` cannot depend on this
//! crate). This module converts its [`VerifyReport`]s into the same
//! [`Finding`] currency the analyzer and happens-before layers speak, so
//! `dynlint` can surface snippet-IR rejections alongside every other
//! detector, and runs the verifier over the standard VT snippet set.

use dynprof_image::{SnippetProgram, VerifyError, VerifyReport};
use dynprof_sim::hb::{Finding, Severity};
use dynprof_sim::ProbeCosts;
use dynprof_vt::{
    configuration_break_snippet, vt_begin_snippet, vt_count_snippet, vt_end_snippet, VtConfig,
    VtFuncId, VtLib,
};

/// Stable detector name for each [`VerifyError`] variant.
fn detector_for(err: &VerifyError) -> &'static str {
    match err {
        VerifyError::OobWrite { .. } => "verify:oob-write",
        VerifyError::OobRead { .. } => "verify:oob-read",
        VerifyError::UnbalancedTimer { .. } => "verify:unbalanced-timer",
        VerifyError::EmitAfterStop => "verify:emit-after-stop",
        VerifyError::UnboundedLoop { .. } => "verify:unbounded-loop",
        VerifyError::RecursiveIntrinsic { .. } => "verify:recursive-intrinsic",
        VerifyError::UnknownIntrinsic { .. } => "verify:unknown-intrinsic",
    }
}

/// Convert one program's [`VerifyReport`] into findings (empty when the
/// program verified). `name` labels the program in messages.
pub fn report_findings(name: &str, report: &VerifyReport) -> Vec<Finding> {
    report
        .errors
        .iter()
        .map(|e| Finding {
            severity: Severity::Error,
            detector: detector_for(e),
            message: format!("snippet program {name:?}: {e}"),
        })
        .collect()
}

/// Run the abstract interpreter over `program` and report findings.
pub fn verify_program(program: &SnippetProgram) -> Vec<Finding> {
    report_findings(&program.name, &program.verify())
}

/// Verify the standard VT snippet set (`VT_begin`, `VT_end`, the counter
/// snippet, and the configuration-break marker) under `costs`.
pub fn verify_standard_snippets(costs: ProbeCosts) -> Vec<Finding> {
    let vt = VtLib::new("dynlint-verify", 1, VtConfig::default(), costs);
    [
        vt_begin_snippet(vt.clone(), VtFuncId(0)),
        vt_end_snippet(vt.clone(), VtFuncId(0)),
        vt_count_snippet().0,
        configuration_break_snippet(),
    ]
    .iter()
    .flat_map(|snippet| verify_program(&snippet.program))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynprof_image::{Expr, IntrinsicTable, Stmt};

    #[test]
    fn standard_snippet_set_verifies_clean() {
        assert!(verify_standard_snippets(ProbeCosts::power3()).is_empty());
        assert!(verify_standard_snippets(ProbeCosts::pentium3()).is_empty());
    }

    #[test]
    fn broken_program_maps_to_stable_detectors() {
        let prog = SnippetProgram::new(
            "bad",
            1,
            vec![
                Stmt::StopTimer,
                Stmt::Store {
                    slot: Expr::Const(9),
                    value: Expr::Const(1),
                },
            ],
            IntrinsicTable::empty(),
        );
        let findings = verify_program(&prog);
        assert!(findings
            .iter()
            .all(|f| f.severity == Severity::Error && f.message.contains("\"bad\"")));
        let detectors: Vec<&str> = findings.iter().map(|f| f.detector).collect();
        assert!(detectors.contains(&"verify:unbalanced-timer"));
        assert!(detectors.contains(&"verify:oob-write"));
    }
}
