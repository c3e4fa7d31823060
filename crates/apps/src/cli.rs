//! The dynprof command-line tool (paper §3.3).
//!
//! The paper's invocation is
//!
//! ```text
//! dynprof <stdinfile> <stdoutfile> <timefile> <target> <params> <poe params>
//! ```
//!
//! Ours mirrors it against the simulated machine:
//!
//! ```text
//! dynprof <script|-> <stdout-file|-> <timefile|-> <app> [key=value ...]
//!
//!   app        smg98 | sppm | sweep3d | umt98
//!   cpus=N     processor count                      (default 4)
//!   scale=X    workload scale factor                (default test scale)
//!   machine=M  ibm | ia32 | test                    (default ibm)
//!   seed=N     simulation seed                      (default 42)
//!   policy=P   dynamic | full | full-off | subset | none (default dynamic)
//!   trace=F    also capture the trace to F, a chunk-indexed `VGVS` store
//!   rotate=B   roll the store into F.0000.vgvs, … segments of B bytes
//!   keep=N     with rotate: retain only the newest N segments
//! ```
//!
//! The script file holds Table-1 commands (`insert-file subset`, `start`,
//! `wait 2`, `remove ...`, `quit`); `-` reads it from stdin.
//!
//! An invocation never holds its trace in memory: [`run_cli`] installs a
//! capture sink on the session's trace library, and every event goes, as
//! it happens, into its rank's lane: the rank's share of the summary's
//! `ProfileBuilder` and — with `trace=` — its open chunk of a store
//! opened before the session starts. The summary is rendered from that
//! builder and the store's footer sealed last, so a run that dies midway
//! leaves a salvageable store (DESIGN §14, §17).

use std::io::Read;
use std::sync::{Arc, Mutex};

use dynprof_analysis::store::{
    RetentionPolicy, RotatingWriter, RotationPolicy, SegmentStats, StoreOptions,
};
use dynprof_analysis::ProfileBuilder;
use dynprof_core::{try_run_session, AppSpec, Command, SessionConfig, SessionReport};
use dynprof_sim::{Machine, SimTime};
use dynprof_vt::{ControllerConfig, Event, EventSink, Lane, Policy, VtFuncId};

use crate::workload::Outputs;

/// Parsed CLI invocation.
#[derive(Clone, Debug)]
pub struct CliArgs {
    /// Script path (`-` = stdin).
    pub script: String,
    /// Session-summary output path (`-` = stdout).
    pub stdout_file: String,
    /// Timefile output path (`-` = stdout).
    pub timefile: String,
    /// Target application name.
    pub app: String,
    /// Processor count.
    pub cpus: usize,
    /// Workload scale (1.0 = paper scale).
    pub scale: f64,
    /// Machine model name.
    pub machine: String,
    /// Simulation seed.
    pub seed: u64,
    /// Instrumentation policy.
    pub policy: Policy,
    /// Optional trace-store (`VGVS`) output path.
    pub trace: Option<String>,
    /// Overhead budget (percent) for closed-loop adaptive
    /// instrumentation; `None` = no controller.
    pub budget: Option<f64>,
    /// Redundancy-suppression floor in microseconds (0 = off).
    pub floor_us: u64,
    /// Rotate the trace store into segments of at most this many bytes
    /// (`None` = single file). Requires `trace`.
    pub rotate_bytes: Option<u64>,
    /// Keep only the newest N segments when rotating (`None` = all).
    /// Requires `rotate_bytes`.
    pub keep_segments: Option<usize>,
}

/// Everything one invocation produced.
pub struct CliOutput {
    /// The session report.
    pub report: SessionReport,
    /// The rendered summary (what goes to the stdout file).
    pub summary: String,
    /// The rendered timefile.
    pub timefile: String,
    /// Application outputs (numerics).
    pub outputs: Arc<Outputs>,
    /// What a `rotate=` capture left on disk (also reported on stderr).
    pub segments: Option<SegmentStats>,
    /// Why the `trace=` store could not be completed, if it could not
    /// (the capture's deferred I/O error; what reached the disk before it
    /// salvages). [`write_outputs`] reports it after the other outputs.
    pub trace_error: Option<String>,
}

/// The usage text.
pub const USAGE: &str = "\
usage: dynprof <script|-> <stdout-file|-> <timefile|-> <app> [key=value ...]
  app:      smg98 | sppm | sweep3d | umt98
  options:  cpus=N scale=X machine=ibm|ia32|test seed=N
            policy=dynamic|full|full-off|subset|none
            trace=FILE (capture the trace to a chunk-indexed VGVS store)
            rotate=BYTES (with trace: roll into FILE.0000.vgvs, ... segments)
            keep=N (with rotate: retain only the newest N segments)
            budget=PCT (adaptive: keep probe overhead under PCT%)
            floor=US (suppress entry/exit pairs shorter than US microseconds)
";

impl CliArgs {
    /// Parse an argument vector (without the program name).
    pub fn parse(args: &[String]) -> Result<CliArgs, String> {
        if args.len() < 4 {
            return Err(format!("expected at least 4 arguments\n{USAGE}"));
        }
        let mut out = CliArgs {
            script: args[0].clone(),
            stdout_file: args[1].clone(),
            timefile: args[2].clone(),
            app: args[3].clone(),
            cpus: 4,
            scale: f64::NAN, // NaN = use the app's test() scale
            machine: "ibm".into(),
            seed: 42,
            policy: Policy::Dynamic,
            trace: None,
            budget: None,
            floor_us: 0,
            rotate_bytes: None,
            keep_segments: None,
        };
        for kv in &args[4..] {
            let (k, v) = kv
                .split_once('=')
                .ok_or_else(|| format!("bad option {kv:?} (expected key=value)\n{USAGE}"))?;
            match k {
                "cpus" => out.cpus = v.parse().map_err(|_| format!("bad cpus {v:?}"))?,
                "scale" => out.scale = v.parse().map_err(|_| format!("bad scale {v:?}"))?,
                "machine" => out.machine = v.to_string(),
                "seed" => out.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?,
                "policy" => {
                    out.policy = Policy::parse(v).ok_or_else(|| format!("unknown policy {v:?}"))?
                }
                "trace" => out.trace = Some(v.to_string()),
                "budget" => {
                    let pct: f64 = v.parse().map_err(|_| format!("bad budget {v:?}"))?;
                    if pct.is_nan() || pct < 0.0 {
                        return Err(format!("bad budget {v:?} (percent, >= 0)"));
                    }
                    out.budget = Some(pct);
                }
                "floor" => out.floor_us = v.parse().map_err(|_| format!("bad floor {v:?}"))?,
                "rotate" => {
                    let n: u64 = v.parse().map_err(|_| format!("bad rotate {v:?}"))?;
                    if n == 0 {
                        return Err(format!("bad rotate {v:?} (bytes, > 0)"));
                    }
                    out.rotate_bytes = Some(n);
                }
                "keep" => {
                    let n: usize = v.parse().map_err(|_| format!("bad keep {v:?}"))?;
                    if n == 0 {
                        return Err(format!("bad keep {v:?} (segments, > 0)"));
                    }
                    out.keep_segments = Some(n);
                }
                other => return Err(format!("unknown option {other:?}\n{USAGE}")),
            }
        }
        if out.rotate_bytes.is_some() && out.trace.is_none() {
            return Err(format!("rotate= needs a trace=FILE to rotate\n{USAGE}"));
        }
        if out.keep_segments.is_some() && out.rotate_bytes.is_none() {
            return Err(format!(
                "keep= only applies to a rotating capture (rotate=BYTES)\n{USAGE}"
            ));
        }
        Ok(out)
    }

    /// The machine model.
    pub fn machine_model(&self) -> Result<Machine, String> {
        Ok(match self.machine.as_str() {
            "ibm" => Machine::ibm_power3_colony(),
            "ia32" => Machine::ia32_pentium3_cluster(),
            "test" => Machine::test_machine(),
            other => return Err(format!("unknown machine {other:?} (ibm|ia32|test)")),
        })
    }
}

fn build_app(args: &CliArgs) -> Result<(AppSpec, Arc<Outputs>), String> {
    let scaled = !args.scale.is_nan();
    macro_rules! app {
        ($params:ty, $ctor:path) => {{
            let mut p = if scaled {
                <$params>::paper()
            } else {
                <$params>::test()
            };
            if scaled {
                p.scale = args.scale;
            }
            let o = Arc::clone(&p.outputs);
            (($ctor)(args.cpus, p), o)
        }};
    }
    Ok(match args.app.as_str() {
        "smg98" => app!(crate::Smg98Params, crate::smg98),
        "sppm" => app!(crate::SppmParams, crate::sppm),
        "sweep3d" => app!(crate::Sweep3dParams, crate::sweep3d),
        "umt98" => app!(crate::Umt98Params, crate::umt98),
        other => return Err(format!("unknown application {other:?}")),
    })
}

fn read_script(path: &str) -> Result<Vec<Command>, String> {
    let text = if path == "-" {
        let mut s = String::new();
        std::io::stdin()
            .read_to_string(&mut s)
            .map_err(|e| format!("reading stdin: {e}"))?;
        s
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("reading {path:?}: {e}"))?
    };
    Command::parse_script(&text).map_err(|e| format!("script {path:?}: {e}"))
}

/// Open the store `args` asks for (if any) for `program`: one file, or
/// with `rotate=` a family of segments sealed at the byte cap, the oldest
/// pruned per `keep=N`, readable as one store via `SegmentSet`.
fn open_trace(args: &CliArgs, program: &str) -> Result<Option<Box<RotatingWriter>>, String> {
    let Some(path) = &args.trace else {
        return Ok(None);
    };
    let rotation = RotationPolicy {
        max_bytes: args.rotate_bytes,
        max_events: None,
    };
    let retention = RetentionPolicy {
        keep_last: args.keep_segments,
    };
    RotatingWriter::create(path, program, StoreOptions::default(), rotation, retention)
        .map(|w| Some(Box::new(w)))
        .map_err(|e| format!("creating store {path:?}: {e}"))
}

/// The session's capture sink: the summary's profile and, with `trace=`,
/// the store. A rank's lane is the pair of theirs.
pub struct Capture {
    /// What the summary's function table is rendered from.
    pub profile: ProfileBuilder,
    /// The `trace=` store, if one was asked for; boxed, so an untraced
    /// session does not carry the writer.
    pub store: Option<Box<RotatingWriter>>,
}

impl EventSink for Capture {
    fn funcdef(&mut self, id: VtFuncId, name: &str) {
        self.profile.funcdef(id, name);
        self.store.funcdef(id, name);
    }

    fn lane(&mut self, rank: u32) -> Box<dyn Lane> {
        Box::new(CaptureLane {
            profile: self.profile.lane(rank),
            store: self.store.lane(rank),
        })
    }
}

struct CaptureLane {
    profile: Box<dyn Lane>,
    store: Box<dyn Lane>,
}

impl Lane for CaptureLane {
    fn push(&mut self, ev: &Event) -> bool {
        // Only a store can refuse (at a rotation cap); ask it first so a
        // refused event is not profiled twice.
        self.store.push(ev) && self.profile.push(ev)
    }

    fn switch(&mut self) {
        self.store.switch();
    }

    fn close(self: Box<Self>) {
        self.profile.close();
        self.store.close();
    }
}

/// Run one dynprof invocation. Reads the script and, with `trace=`,
/// creates and writes the trace store while the session runs; callers
/// write the text outputs (see [`write_outputs`]).
pub fn run_cli(args: &CliArgs) -> Result<CliOutput, String> {
    let (app, outputs) = build_app(args)?;
    let script = read_script(&args.script)?;
    let machine = args.machine_model()?;
    let mut cfg = SessionConfig::new(machine, args.policy).with_seed(args.seed);
    cfg.check_memory(args.cpus).map_err(|e| e.to_string())?;
    if args.policy == Policy::Dynamic {
        cfg = cfg.with_script(script);
    }
    if let Some(pct) = args.budget {
        cfg = cfg.with_adaptive(ControllerConfig::budget(pct));
    }
    if args.floor_us > 0 {
        cfg = cfg.with_suppress_floor(SimTime::from_micros(args.floor_us));
    }
    let capture = Arc::new(Mutex::new(Some(Capture {
        profile: ProfileBuilder::new(Vec::new(), Default::default()),
        store: open_trace(args, &app.name)?,
    })));
    let report = try_run_session(&app, cfg.with_capture(Arc::clone(&capture) as _))
        .map_err(|e| e.to_string())?;
    // The library keeps its handle on the slot; the sink comes back out.
    let Capture { profile, store } = capture
        .lock()
        .expect("a panicking sink would have failed the session")
        .take()
        .expect("nobody else empties the slot");

    let mut summary = String::new();
    summary.push_str(&format!(
        "dynprof: {} on {} CPUs, policy {}, machine {}\n",
        args.app, args.cpus, args.policy, args.machine
    ));
    summary.push_str(&format!("application time : {}\n", report.app_time));
    summary.push_str(&format!("create time      : {}\n", report.create_time));
    summary.push_str(&format!("instrument time  : {}\n", report.instrument_time));
    summary.push_str(&format!(
        "probe pairs      : {}\n",
        report.probe_pairs_installed
    ));
    summary.push_str(&format!(
        "trace volume     : {} bytes\n",
        report.trace_bytes
    ));
    if let Some(ctrl) = &report.controller {
        let series = ctrl.measured_series();
        summary.push_str(&format!(
            "overhead budget  : {:.2}% ({} confsync rounds, final overhead {:.2}%, {} probes off)\n",
            args.budget.unwrap_or(f64::INFINITY),
            series.len(),
            series.last().copied().unwrap_or(0.0),
            ctrl.deactivated_now().len(),
        ));
    }
    if args.floor_us > 0 {
        let suppressed: u64 = (0..app.mode.processes())
            .map(|r| report.vt.suppressed_pairs(r))
            .sum();
        summary.push_str(&format!("suppressed pairs : {suppressed}\n"));
    }
    for w in &report.warnings {
        summary.push_str(&format!("warning          : {w}\n"));
    }
    summary.push('\n');
    // Accumulated while the session ran: a function table needs no
    // cross-rank order, so no trace was ever held for it.
    summary.push_str(&profile.finish().render_top(15));

    // Only now is the capture complete: flush the open chunks, seal the
    // footer.
    let mut segments = None;
    let trace_error = store.and_then(|w| match w.finish() {
        Ok(stats) => {
            if args.rotate_bytes.is_some() {
                eprintln!(
                    "dynprof: {} segments on disk ({} rotated, {} retired), {} bytes",
                    stats.segments.len(),
                    stats.rotated,
                    stats.deleted,
                    stats.bytes
                );
                segments = Some(stats);
            }
            None
        }
        Err(e) => {
            let path = args.trace.as_deref().unwrap_or_default();
            Some(format!("writing store {path:?}: {e}"))
        }
    });
    let timefile = report.timefile.render();
    Ok(CliOutput {
        report,
        summary,
        timefile,
        outputs,
        segments,
        trace_error,
    })
}

/// Write an invocation's text outputs to the requested destinations. The
/// trace store was written by [`run_cli`] as the session ran; if that
/// failed, this reports it once the summary and timefile are out.
pub fn write_outputs(args: &CliArgs, out: &CliOutput) -> Result<(), String> {
    let emit = |path: &str, text: &str| -> Result<(), String> {
        if path == "-" {
            print!("{text}");
            Ok(())
        } else {
            std::fs::write(path, text).map_err(|e| format!("writing {path:?}: {e}"))
        }
    };
    emit(&args.stdout_file, &out.summary)?;
    emit(&args.timefile, &out.timefile)?;
    out.trace_error.clone().map_or(Ok(()), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynprof_core::run_session;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_positional_and_options() {
        let a = CliArgs::parse(&strs(&[
            "script.dp",
            "-",
            "time.txt",
            "sweep3d",
            "cpus=8",
            "seed=7",
            "machine=test",
            "policy=full-off",
        ]))
        .unwrap();
        assert_eq!(a.script, "script.dp");
        assert_eq!(a.cpus, 8);
        assert_eq!(a.seed, 7);
        assert_eq!(a.machine, "test");
        assert_eq!(a.policy, Policy::FullOff);
        assert!(a.scale.is_nan());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(CliArgs::parse(&strs(&["a", "b", "c"])).is_err());
        assert!(CliArgs::parse(&strs(&["a", "b", "c", "smg98", "bogus"])).is_err());
        assert!(CliArgs::parse(&strs(&["a", "b", "c", "smg98", "cpus=x"])).is_err());
        assert!(CliArgs::parse(&strs(&["a", "b", "c", "smg98", "policy=nope"])).is_err());
        let a = CliArgs::parse(&strs(&["a", "b", "c", "smg98", "machine=vax"])).unwrap();
        assert!(a.machine_model().is_err());
    }

    #[test]
    fn parse_rejects_rotation_options_that_would_do_nothing() {
        let base = ["a", "b", "c", "smg98"];
        let with = |extra: &[&str]| CliArgs::parse(&strs(&[&base[..], extra].concat()));
        let err = with(&["keep=2"]).unwrap_err();
        assert!(err.contains("keep=") && err.contains("rotate="), "{err}");
        let err = with(&["trace=t.vgvs", "keep=2"]).unwrap_err();
        assert!(err.contains("rotate="), "{err}");
        let err = with(&["rotate=4096"]).unwrap_err();
        assert!(err.contains("trace="), "{err}");
        let err = with(&["rotate=4096", "keep=2"]).unwrap_err();
        assert!(err.contains("trace="), "{err}");
        let ok = with(&["trace=t.vgvs", "rotate=4096", "keep=2"]).unwrap();
        assert_eq!(ok.rotate_bytes, Some(4096));
        assert_eq!(ok.keep_segments, Some(2));
        assert!(with(&["trace=t.vgvs", "rotate=4096"]).is_ok());
    }

    /// `args` for a 2-rank sweep3d session driven by the default script,
    /// plus the script's path (for cleanup).
    fn sweep3d_args(tag: &str, extra: &[&str]) -> (CliArgs, std::path::PathBuf) {
        let dir = std::env::temp_dir().join("dynprof-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let script = dir.join(format!("{tag}-{}.dp", std::process::id()));
        std::fs::write(&script, "insert-file subset\nstart\nquit\n").unwrap();
        let mut argv = vec![
            script.to_str().unwrap(),
            "-",
            "-",
            "sweep3d",
            "cpus=2",
            "seed=5",
        ];
        argv.extend(extra);
        (CliArgs::parse(&strs(&argv)).unwrap(), script)
    }

    #[test]
    fn end_to_end_invocation() {
        let (args, script) = sweep3d_args("s", &[]);
        let out = run_cli(&args).unwrap();
        assert!(
            out.summary.contains("probe pairs      : 42"),
            "{}",
            out.summary
        );
        assert!(out.summary.contains("sweep"));
        assert!(out.timefile.contains("instrument"));
        assert!(out.trace_error.is_none());
        // The summary's table was accumulated while the session ran; the
        // library buffered nothing for it.
        assert!(out.report.vt.build_trace().events.is_empty());
        // It is the table a buffered run of the same session renders from
        // its merged, time-sorted trace.
        let (app, _) = build_app(&args).unwrap();
        let cfg = SessionConfig::new(args.machine_model().unwrap(), args.policy)
            .with_seed(args.seed)
            .with_script(SessionConfig::default_dynamic_script());
        let trace = run_session(&app, cfg).vt.build_trace();
        let table = dynprof_analysis::Profile::from_trace(&trace).render_top(15);
        assert!(table.lines().count() > 1, "{table}");
        assert!(out.summary.ends_with(&format!("\n\n{table}")));
        write_outputs(&args, &out).unwrap();
        std::fs::remove_file(&script).ok();
    }

    #[test]
    fn trace_option_streams_a_store_identical_to_the_buffered_flush() {
        let dir = std::env::temp_dir().join("dynprof-cli-test");
        // Whatever the extension says, `trace=` writes a VGVS store.
        let store = dir.join(format!("vs-{}.trace", std::process::id()));
        let trace_opt = format!("trace={}", store.display());
        let (args, script) = sweep3d_args("vs", &[&trace_opt]);
        let out = run_cli(&args).unwrap();
        write_outputs(&args, &out).unwrap();
        assert!(out.report.vt.build_trace().events.is_empty());

        // The reference: the same session buffered, flushed after the run.
        let (app, _) = build_app(&args).unwrap();
        let cfg = SessionConfig::new(args.machine_model().unwrap(), args.policy)
            .with_seed(args.seed)
            .with_script(SessionConfig::default_dynamic_script());
        let buffered = run_session(&app, cfg);
        let reference = dir.join(format!("vs-ref-{}.vgvs", std::process::id()));
        dynprof_analysis::store::write_store_from_vt(
            &buffered.vt,
            &reference,
            StoreOptions::default(),
        )
        .unwrap();
        assert_eq!(
            std::fs::read(&store).unwrap(),
            std::fs::read(&reference).unwrap()
        );
        let mut r = dynprof_analysis::store::StoreReader::open(&store).unwrap();
        assert_eq!(r.read_all().unwrap(), buffered.vt.build_trace());
        for p in [script, store, reference] {
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn unwritable_trace_path_fails_before_the_session_runs() {
        let (args, script) = sweep3d_args("nw", &["trace=/nonexistent-dir/x.vgvs"]);
        let err = run_cli(&args).err().expect("cannot create the store");
        assert!(err.contains("creating store"), "{err}");
        std::fs::remove_file(&script).ok();
    }

    #[test]
    fn adaptive_invocation_reports_controller_and_suppression() {
        let dir = std::env::temp_dir().join("dynprof-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let script = dir.join(format!("a-{}.dp", std::process::id()));
        std::fs::write(&script, "insert-file subset\nstart\nquit\n").unwrap();
        let args = CliArgs::parse(&strs(&[
            script.to_str().unwrap(),
            "-",
            "-",
            "sweep3d",
            "cpus=2",
            "seed=5",
            "machine=test",
            "budget=5",
            "floor=10",
        ]))
        .unwrap();
        assert_eq!(args.budget, Some(5.0));
        assert_eq!(args.floor_us, 10);
        let out = run_cli(&args).unwrap();
        // Same pins as the plain invocation: the adaptive knobs change
        // neither the install path nor the probe count.
        assert!(
            out.summary.contains("probe pairs      : 42"),
            "{}",
            out.summary
        );
        assert!(out.summary.contains("overhead budget  : 5.00%"));
        assert!(out.summary.contains("confsync rounds"));
        assert!(out.summary.contains("suppressed pairs :"));
        assert!(out.report.controller.is_some());
        // Bad values are rejected at parse time.
        assert!(CliArgs::parse(&strs(&["a", "b", "c", "smg98", "budget=-1"])).is_err());
        assert!(CliArgs::parse(&strs(&["a", "b", "c", "smg98", "budget=x"])).is_err());
        assert!(CliArgs::parse(&strs(&["a", "b", "c", "smg98", "floor=x"])).is_err());
        std::fs::remove_file(&script).ok();
    }

    #[test]
    fn static_policy_ignores_script_commands() {
        let dir = std::env::temp_dir().join("dynprof-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let script = dir.join(format!("n-{}.dp", std::process::id()));
        std::fs::write(&script, "start\n").unwrap();
        let args = CliArgs::parse(&strs(&[
            script.to_str().unwrap(),
            "-",
            "-",
            "smg98",
            "cpus=2",
            "policy=none",
        ]))
        .unwrap();
        let out = run_cli(&args).unwrap();
        assert_eq!(out.report.probe_pairs_installed, 0);
        std::fs::remove_file(&script).ok();
    }
}
