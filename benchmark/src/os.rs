//! What the ledger needs from the operating system: the process CPU
//! clock, the peak resident set, an address-space limit, and a memory-backed
//! place for the wire plane's data directories.
//!
//! No `libc` crate is vendored, so the two C calls are declared by hand;
//! both have `/proc` fallbacks or fail soft.

use std::fs;
use std::path::{Path, PathBuf};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Rlimit {
    cur: u64,
    max: u64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// Linux `RLIMIT_AS`.
const RLIMIT_AS: i32 = 9;

/// CPU seconds (user + system) this process has consumed.
///
/// CPU time, not wall time: the box has two cores and other tenants, and a
/// single-threaded run that is descheduled for a while did not get slower.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux ABI) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        return ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9;
    }
    proc_stat_cpu_seconds().expect("no process CPU clock: clock_gettime and /proc/self/stat failed")
}

/// `utime + stime` from `/proc/self/stat`, at the usual 100 ticks/s.
fn proc_stat_cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // Field 2 (comm) may contain spaces; everything after its closing
    // parenthesis is space-separated, starting at field 3.
    let rest = stat.get(stat.rfind(')')? + 2..)?;
    let mut fields = rest.split(' ');
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Caps this process's address space, so a runaway allocation (see the
/// README's known hazards) fails this workload instead of the machine.
/// Returns whether the limit was installed.
pub fn limit_address_space(bytes: u64) -> bool {
    let lim = Rlimit { cur: bytes, max: bytes };
    // SAFETY: `lim` is a valid `struct rlimit` (two 64-bit fields on
    // 64-bit Linux) that outlives the call; the kernel only reads it.
    unsafe { setrlimit(RLIMIT_AS, &lim) == 0 }
}

/// The memory-backed filesystem the data directories go on.
const TMPFS: &str = "/dev/shm";
/// Least capacity of [`TMPFS`] worth using: a run keeps ~100 MiB live.
const TMPFS_MIN_BYTES: u64 = 1 << 30;
const SCRATCH_PREFIX: &str = "rsoc-benchmark-";

/// A directory for one process's data directories, removed on drop.
pub struct Scratch {
    path: PathBuf,
    /// Whether the directory is memory-backed. On a disk, `persist` pays
    /// for device writes (every snapshot is `sync_all`ed), which this
    /// machine charges to the process as CPU time, twofold run to run.
    pub on_tmpfs: bool,
}

impl Scratch {
    /// `/dev/shm/rsoc-benchmark-<pid>` when `/dev/shm` is a tmpfs of at
    /// least [`TMPFS_MIN_BYTES`], else `<fallback>/data-<pid>`.
    pub fn create(fallback: &Path) -> std::io::Result<Scratch> {
        let pid = std::process::id();
        if tmpfs_is_usable() {
            remove_stale_scratch();
            let path = Path::new(TMPFS).join(format!("{SCRATCH_PREFIX}{pid}"));
            if fs::create_dir_all(&path).is_ok() {
                return Ok(Scratch { path, on_tmpfs: true });
            }
        }
        let path = fallback.join(format!("data-{pid}"));
        fs::create_dir_all(&path)?;
        Ok(Scratch { path, on_tmpfs: false })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// Whether `/proc/mounts` lists [`TMPFS`] as a tmpfs without a `size=`
/// option below [`TMPFS_MIN_BYTES`] (containers often mount 64 MiB).
fn tmpfs_is_usable() -> bool {
    let Ok(mounts) = fs::read_to_string("/proc/mounts") else { return false };
    let options = mounts.lines().rev().find_map(|line| {
        let mut fields = line.split(' ');
        let (_, at, kind, options) =
            (fields.next()?, fields.next()?, fields.next()?, fields.next()?);
        (at == TMPFS && kind == "tmpfs").then_some(options)
    });
    let Some(options) = options else { return false };
    match options.split(',').find_map(|o| o.strip_prefix("size=")) {
        None => true,
        Some(size) => {
            let digits = size.trim_end_matches(|c: char| c.is_ascii_alphabetic());
            let unit = match size[digits.len()..].to_ascii_lowercase().as_str() {
                "" => 1u64,
                "k" => 1 << 10,
                "m" => 1 << 20,
                "g" => 1 << 30,
                _ => return false,
            };
            digits.parse::<u64>().is_ok_and(|n| n.saturating_mul(unit) >= TMPFS_MIN_BYTES)
        }
    }
}

/// Removes scratch directories whose process is gone (a run that was
/// killed could not clean up, and tmpfs files hold memory).
fn remove_stale_scratch() {
    let Ok(entries) = fs::read_dir(TMPFS) else { return };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let pid = name.to_str().and_then(|n| n.strip_prefix(SCRATCH_PREFIX));
        if pid.is_some_and(|pid| !Path::new("/proc").join(pid).exists()) {
            let _ = fs::remove_dir_all(entry.path());
        }
    }
}
