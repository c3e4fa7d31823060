// Seeded negative for `dynlint --fixture trace-readback`. NOT compiled:
// this file exists only to be linted, under a path that ends like the
// real `crates/apps/src/cli.rs`. It is `run_cli` as it was before the
// capture sink: the session ran to the end, then the whole trace was
// read back out of the library to be profiled and written.

pub fn run_cli(args: &CliArgs) -> Result<CliOutput, String> {
    let report = run_session(&app, cfg);
    let trace = report.vt.build_trace();
    write_outputs(&trace)
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_test_may_read_the_trace_back() {
        let trace = report.vt.build_trace();
        assert!(!trace.events.is_empty());
    }
}
