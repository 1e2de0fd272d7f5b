//! Runs `spo` as a child process: wall time from spawn to reap, exit
//! code, stdout, and the child's peak resident set size (from `wait4`).

use std::io::Read;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// `struct rusage` of 64-bit Linux: two timevals (four longs), then 14
/// longs of which the first is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    _times: [i64; 4],
    maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

pub struct Exit {
    /// Exit code, or 128 + signal number for a killed child.
    pub code: i32,
    pub maxrss_kib: i64,
}

/// Reaps `child` and returns its exit code and resource usage.
pub fn reap(child: Child) -> std::io::Result<Exit> {
    let mut status = 0i32;
    let mut ru = Rusage::default();
    loop {
        // SAFETY: `status` and `ru` are valid, exclusively borrowed
        // out-parameters of the layout the kernel writes.
        let r = unsafe { wait4(child.id() as i32, &mut status, 0, &mut ru) };
        if r >= 0 {
            break;
        }
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        128 + (status & 0x7f)
    };
    Ok(Exit {
        code,
        maxrss_kib: ru.maxrss,
    })
}

pub struct Run {
    pub exit: Exit,
    pub stdout: Vec<u8>,
    pub ms: f64,
}

/// Runs `spo args…` to completion with stdout piped back and stderr
/// written to `stderr` (kept for diagnosing a failed op).
pub fn run(spo: &Path, args: &[&str], stderr: &Path) -> std::io::Result<Run> {
    let err = std::fs::File::create(stderr)?;
    let t0 = Instant::now();
    let mut child = Command::new(spo)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(err)
        .spawn()?;
    let mut stdout = Vec::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout);
    let exit = reap(child)?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    read?;
    Ok(Run { exit, stdout, ms })
}

/// The first lines of a failed op's stderr, for its failure record.
pub fn stderr_excerpt(stderr: &Path) -> String {
    let text = std::fs::read_to_string(stderr).unwrap_or_default();
    text.lines().take(3).collect::<Vec<_>>().join(" | ")
}

/// The host's CPU time counters: `(steal, total)` in clock ticks, summed
/// over all CPUs, from the aggregate `cpu` line of `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    parse_cpu_line(stat.lines().next()?)
}

fn parse_cpu_line(line: &str) -> Option<(u64, u64)> {
    let mut fields = line.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user and nice.
    let ticks: Vec<u64> = fields
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (ticks.len() == 8).then(|| (ticks[7], ticks.iter().sum()))
}

/// Share of the CPU time the hypervisor stole between two `cpu_ticks`
/// readings; `None` when either is missing or no time passed.
pub fn steal_ratio(start: Option<(u64, u64)>, end: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (start?, end?);
    (t1 > t0).then(|| s1.saturating_sub(s0) as f64 / (t1 - t0) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_comes_from_the_eighth_counter() {
        let a = parse_cpu_line("cpu  100 0 50 800 10 0 5 35 7 0").unwrap();
        assert_eq!(a, (35, 1000));
        let b = parse_cpu_line("cpu  150 0 60 1550 10 0 5 225").unwrap();
        assert_eq!(steal_ratio(Some(a), Some(b)), Some(0.19));
        assert_eq!(parse_cpu_line("cpu0 1 2 3 4 5 6 7 8"), None);
        assert_eq!(steal_ratio(Some(a), Some(a)), None);
    }
}
