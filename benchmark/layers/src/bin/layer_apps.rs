//! Level 1 of the traced run: one session through the product's own
//! `cli::run_cli` and `cli::write_outputs`, exactly as `dynprof`'s `main`
//! calls them, in a fresh process so that it starts as cold as the child
//! does. With `--obs-on` the program's observation is on; the runner starts
//! this driver both ways and reads the tracing overhead off the pair.

#[path = "../app.rs"]
mod app;

use benchmark::layer::{Report, Shape};
use benchmark::workloads::SCRIPT;
use dynprof_apps::cli::{run_cli, write_outputs, CliArgs};
use dynprof_obs as obs;

fn main() {
    let shape = Shape::from_args();
    let obs_on = std::env::args().any(|a| a == "--obs-on");
    let mut report = Report::new("apps");

    let file = |name: &str| shape.dir.join(name).display().to_string();
    std::fs::write(file("script.dp"), SCRIPT).expect("writing the script");
    let mut argv = vec![
        file("script.dp"),
        file("apps.summary.txt"),
        file("apps.timefile.txt"),
        shape.app.clone(),
        format!("cpus={}", shape.cpus),
        format!("policy={}", shape.policy),
        format!("seed={}", shape.seed),
        format!("trace={}", file("apps.vgvs")),
    ];
    if let Some(scale) = shape.scale {
        argv.push(format!("scale={scale}"));
    }
    let args = CliArgs::parse(&argv).expect("the runner passes a valid command line");

    obs::set_enabled(obs_on);
    let ((run_cli_s, write_s, drop_s), total_s) = report.spans.span("apps", "session", |spans| {
        let (out, run_cli_s) = spans.span("apps", "run_cli", |_| run_cli(&args).expect("run_cli"));
        let (_, write_s) = spans.span("apps", "write_outputs", |_| {
            write_outputs(&args, &out).expect("write_outputs")
        });
        // `main` drops the outputs before it returns: part of the child's
        // wall time, in neither call above.
        let (_, drop_s) = spans.span("apps", "drop_outputs", |_| drop(out));
        (run_cli_s, write_s, drop_s)
    });
    obs::set_enabled(false);
    // Values named like a metric are that metric; the rest are the
    // runner's working numbers.
    report.value("apps.run_cli_s", run_cli_s);
    report.value("apps.write_outputs_s", write_s);
    report.value("drop_outputs_s", drop_s);
    report.value("session_s", total_s);

    // What `run_cli` spends constructing the application, on its own.
    let (_, build_app_s) = report.spans.span("apps", "build_app", |_| {
        drop(app::build(&shape, shape.cpus))
    });
    report.value("apps.build_app_s", build_app_s);
    report.emit();
}
