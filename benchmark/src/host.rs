//! What the numbers were measured on: recorded in every result file so
//! two results from different hosts are never compared by accident.

use std::fs;
use std::path::Path;

use crate::json::Json;

/// The first `model name` of `/proc/cpuinfo`.
fn cpu_model() -> Option<String> {
    let text = fs::read_to_string("/proc/cpuinfo").ok()?;
    text.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
fn fs_type(path: &Path) -> Option<String> {
    let path = fs::canonicalize(path).ok()?;
    let text = fs::read_to_string("/proc/self/mountinfo").ok()?;
    text.lines()
        .filter_map(|l| {
            // `36 35 98:0 /mnt1 /mnt2 rw,noatime - ext3 /dev/root rw`
            let (left, right) = l.split_once(" - ")?;
            let mount = left.split(' ').nth(4)?;
            let ty = right.split(' ').next()?;
            path.starts_with(mount).then_some((mount.len(), ty))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, ty)| ty.to_string())
}

/// The runner's own peak RSS in MB (`VmHWM`). A child's `ru_maxrss` is
/// never reported below its parent's size at the fork, so this is the
/// floor under every RSS metric and must stay well below them.
pub fn runner_peak_rss_mb() -> Option<f64> {
    let text = fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The host fingerprint. `rustc` and `git_sha` are handed in by `run.sh`
/// (the runner starts no child but the program under test).
pub fn fingerprint(tmp: &Path, rustc: &str, git_sha: &str) -> Json {
    let unknown = || "unknown".to_string();
    Json::obj([
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("cpu_model", Json::str(cpu_model().unwrap_or_else(unknown))),
        ("rustc", Json::str(rustc)),
        ("git_sha", Json::str(git_sha)),
        // Children run with an empty environment, so nothing selects a
        // backend: the program's own platform default is in effect. The
        // traced run records which one that is (`layer_sim` asks the crate).
        (
            "proc_backend",
            Json::str("program default (environment cleared)"),
        ),
        ("tmp_fs", Json::str(fs_type(tmp).unwrap_or_else(unknown))),
    ])
}
