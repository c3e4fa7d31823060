//! Snippet-program verification facade.
//!
//! The check itself lives in `dynprof_image::ir` (the DPCL daemons must
//! be able to call it, and `dpcl` cannot depend on this crate). This
//! module converts its [`VerifyError`]s into the same [`Finding`]
//! currency the analyzer and happens-before layers speak, so `dynlint`
//! can surface snippet-program rejections alongside every other
//! detector, and runs the check over the standard VT snippet set.

use dynprof_image::{SnippetProgram, VerifyError};
use dynprof_sim::hb::{Finding, Severity};
use dynprof_sim::ProbeCosts;
use dynprof_vt::{
    configuration_break_snippet, vt_begin_snippet, vt_end_snippet, VtConfig, VtFuncId, VtLib,
};

/// Stable detector name for each [`VerifyError`] variant.
fn detector_for(err: &VerifyError) -> &'static str {
    match err {
        VerifyError::UnknownIntrinsic { .. } => "verify:unknown-intrinsic",
    }
}

/// Verify `program` and report its rejection as a finding (none when the
/// program verified).
pub fn verify_program(program: &SnippetProgram) -> Vec<Finding> {
    program
        .verify()
        .err()
        .map(|e| Finding {
            severity: Severity::Error,
            detector: detector_for(&e),
            message: format!("snippet program {:?}: {e}", program.name),
        })
        .into_iter()
        .collect()
}

/// Verify the standard VT snippet set (`VT_begin`, `VT_end` and the
/// configuration-break marker) under `costs`.
pub fn verify_standard_snippets(costs: ProbeCosts) -> Vec<Finding> {
    let vt = VtLib::new("dynlint-verify", 1, VtConfig::default(), costs);
    [
        vt_begin_snippet(vt.clone(), VtFuncId(0)),
        vt_end_snippet(vt.clone(), VtFuncId(0)),
        configuration_break_snippet(),
    ]
    .iter()
    .flat_map(|snippet| verify_program(&snippet.program))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynprof_image::IntrinsicTable;

    #[test]
    fn standard_snippet_set_verifies_clean() {
        assert!(verify_standard_snippets(ProbeCosts::power3()).is_empty());
        assert!(verify_standard_snippets(ProbeCosts::pentium3()).is_empty());
    }

    #[test]
    fn broken_program_maps_to_stable_detectors() {
        let prog = SnippetProgram::new("bad", vec![7], IntrinsicTable::empty());
        let findings = verify_program(&prog);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].severity, Severity::Error);
        assert_eq!(findings[0].detector, "verify:unknown-intrinsic");
        assert!(findings[0].message.contains("\"bad\""), "{findings:?}");
    }
}
