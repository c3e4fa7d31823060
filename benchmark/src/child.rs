//! Hermetic child processes timed from outside: wall time from just before
//! `exec` to reaped, and the kernel's own accounting (`wait4` rusage) for
//! peak RSS, CPU time and page faults.

use std::fs::File;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads child rusage through the 64-bit Linux wait4 ABI");

/// `struct timeval` of the 64-bit Linux ABI.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

impl Timeval {
    fn seconds(self) -> f64 {
        self.sec as f64 + self.usec as f64 * 1e-6
    }
}

/// `struct rusage` of the 64-bit Linux ABI (two timevals, fourteen longs).
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What one child cost and whether it succeeded.
#[derive(Clone, Copy, Debug)]
pub struct ChildRun {
    /// Wall time, spawn to reaped, in seconds.
    pub wall_s: f64,
    /// Exited normally with status 0.
    pub ok: bool,
    /// Peak resident set in MB (`ru_maxrss`, which Linux counts in KB).
    pub peak_rss_mb: f64,
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Minor page faults.
    pub minor_faults: u64,
}

/// Run `bin args...` in `cwd` with an empty environment, no stdin, stdout
/// to the file `stdout` and stderr to `stdout` + `.err`, and wait for it.
///
/// The environment is cleared so that no variable of the caller
/// (`DYNPROF_PROC_BACKEND`, `DYNPROF_CO_STACK_KB`, tolerance overrides)
/// can change what the program does. Output goes to files, not pipes: the
/// runner stays single-threaded and never holds a child's output in
/// memory — the kernel reports a child's peak RSS as no less than its
/// parent's at the fork, so the runner has to stay smaller than anything
/// it measures.
pub fn run(bin: &Path, args: &[String], cwd: &Path, stdout: &Path) -> Result<ChildRun, String> {
    let ctx = |what: &str, e: std::io::Error| format!("{what} {}: {e}", stdout.display());
    let out = File::create(stdout).map_err(|e| ctx("creating", e))?;
    let mut err_path = stdout.as_os_str().to_owned();
    err_path.push(".err");
    let err = File::create(&err_path).map_err(|e| ctx("creating stderr beside", e))?;

    let t0 = Instant::now();
    let child = Command::new(bin)
        .args(args)
        .env_clear()
        .current_dir(cwd)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    let mut status = 0i32;
    let mut ru = Rusage::default();
    // SAFETY: `status` and `ru` are valid for writes for the whole call and
    // `Rusage` matches the kernel's layout on the only target this
    // compiles for. The pid is our own unreaped child: `child` is never
    // waited on through std, and dropping it does not reap.
    let reaped = unsafe { wait4(child.id() as i32, &mut status, 0, &mut ru) };
    let wall_s = t0.elapsed().as_secs_f64();
    if reaped != child.id() as i32 {
        return Err(format!(
            "wait4({}) returned {reaped}: {}",
            child.id(),
            std::io::Error::last_os_error()
        ));
    }
    Ok(ChildRun {
        wall_s,
        // WIFEXITED && WEXITSTATUS == 0 is exactly status == 0.
        ok: status == 0,
        peak_rss_mb: ru.maxrss as f64 / 1024.0,
        user_s: ru.utime.seconds(),
        sys_s: ru.stime.seconds(),
        minor_faults: ru.minflt as u64,
    })
}
