//! Spawning the product's binaries and measuring them from outside:
//! wall time around spawn-to-exit, CPU time and peak memory from the
//! kernel's accounting of the child.

use std::fs::File;
use std::io;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// What the kernel and the clock say about one finished child.
#[derive(Debug, Clone, Copy)]
pub struct ChildRun {
    pub success: bool,
    pub wall_s: f64,
    pub user_s: f64,
    pub sys_s: f64,
    pub peak_rss_mb: f64,
}

/// A command for a product binary with every inherited `SWPF_*` variable
/// removed, so the caller's shell cannot change what is measured.
#[must_use]
pub fn product_command(bin: &Path) -> Command {
    let mut cmd = Command::new(bin);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("SWPF_") {
            cmd.env_remove(key);
        }
    }
    cmd
}

/// Run `cmd` to completion with stdout and stderr sent to the given
/// files, and report its resource use.
///
/// # Errors
/// If the files cannot be created, the child cannot be spawned, or
/// waiting for it fails.
pub fn run_child(cmd: &mut Command, stdout: &Path, stderr: &Path) -> io::Result<ChildRun> {
    cmd.stdin(Stdio::null())
        .stdout(File::create(stdout)?)
        .stderr(File::create(stderr)?);
    let start = Instant::now();
    let child = cmd.spawn()?;
    let (status, usage) = wait4_child(child.id())?;
    let wall_s = start.elapsed().as_secs_f64();
    let seconds = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    Ok(ChildRun {
        success: status == 0,
        wall_s,
        user_s: seconds(usage.utime),
        sys_s: seconds(usage.stime),
        // Linux reports `ru_maxrss` in KiB.
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
    })
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen
/// `long`s of which only `ru_maxrss` is read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Reap child `pid` and return its raw wait status and resource use.
/// `std::process::Child::wait` discards the `rusage`, and the standard
/// library offers no other way to read a child's peak memory.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn wait4_child(pid: u32) -> io::Result<(i32, Rusage)> {
    let pid = i32::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable, and `Rusage`
        // has the size and layout of the C `struct rusage` on 64-bit
        // Linux (144 bytes, checked by a test); `wait4` writes only
        // through these two pointers. `pid` is a child this process
        // spawned and has not yet waited for.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            return Ok((status, usage));
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn wait4_child(_pid: u32) -> io::Result<(i32, Rusage)> {
    Err(io::Error::other(
        "child resource accounting is implemented for 64-bit Linux only",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rusage_has_the_c_layout() {
        assert_eq!(std::mem::size_of::<Rusage>(), 144);
    }

    #[test]
    fn reports_exit_status_and_resource_use() {
        let dir = std::env::temp_dir().join(format!("swpf-benchmark-spawn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let (out, err) = (dir.join("out"), dir.join("err"));
        let ok = run_child(Command::new("sh").args(["-c", "echo hi"]), &out, &err).expect("runs");
        assert!(ok.success && ok.wall_s > 0.0 && ok.peak_rss_mb > 0.0);
        assert_eq!(std::fs::read_to_string(&out).expect("stdout file"), "hi\n");
        let bad = run_child(Command::new("sh").args(["-c", "exit 3"]), &out, &err).expect("runs");
        assert!(!bad.success);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn product_commands_drop_inherited_swpf_variables() {
        // Not set through `std::env::set_var`: tests share the process.
        let cmd = product_command(Path::new("true"));
        for (key, value) in cmd.get_envs() {
            assert!(key.to_string_lossy().starts_with("SWPF_") && value.is_none());
        }
    }
}
