//! The `vgv` binary at its process boundary: what it does when its
//! standard output goes away or fills up.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

use dynprof_analysis::store::{StoreOptions, StoreWriter};
use dynprof_sim::SimTime;
use dynprof_vt::Event;

const RANKS: u32 = 160;

/// A store whose `comm` and `slice` reports are both far larger than a
/// pipe's buffer (64 KB): 160 ranks, each sending to its neighbour.
fn store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dynprof-vgv-cli");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}-{}.vgvs", std::process::id()));
    let mut w = StoreWriter::create(&path, "cli", StoreOptions::default()).unwrap();
    for rank in 0..RANKS {
        w.append(&Event::MpiCall {
            t: SimTime::from_micros(10),
            t_end: SimTime::from_micros(90),
            rank,
            op: 2,
            peer: ((rank + 1) % RANKS) as i32,
            bytes: 4_096,
        });
    }
    w.finish().unwrap();
    path
}

fn vgv(args: &[&str], stdout: Stdio) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_vgv"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(Stdio::piped())
        .spawn()
        .expect("vgv starts");
    // Close our end of a piped stdout without reading a byte: the report
    // outgrows the pipe, so the child must meet the closed pipe.
    drop(child.stdout.take());
    child.wait_with_output().expect("vgv exits")
}

fn slice_args(path: &str) -> [&str; 8] {
    // 160 rows of 1000 columns.
    [
        "slice", path, "--t0", "0", "--t1", "100us", "--width", "1000",
    ]
}

#[test]
fn a_closed_pipe_ends_the_report_quietly() {
    let path = store("pipe");
    let path_str = path.to_str().unwrap();
    for args in [&["comm", path_str][..], &slice_args(path_str)[..]] {
        let out = vgv(args, Stdio::piped());
        assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
        assert!(out.stderr.is_empty(), "{args:?}: no message, no backtrace");
    }
    std::fs::remove_file(&path).ok();
}

#[cfg(target_os = "linux")]
#[test]
fn a_full_device_is_a_typed_error() {
    let path = store("full");
    let path_str = path.to_str().unwrap();
    for args in [&["comm", path_str][..], &slice_args(path_str)[..]] {
        let full = std::fs::OpenOptions::new()
            .write(true)
            .open("/dev/full")
            .expect("/dev/full opens");
        let out = vgv(args, Stdio::from(full));
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with(&format!("vgv: {path_str}: trace i/o error")),
            "{args:?}: {stderr}"
        );
        assert_eq!(
            stderr.lines().count(),
            1,
            "one line, no backtrace: {stderr}"
        );
    }
    std::fs::remove_file(&path).ok();
}
