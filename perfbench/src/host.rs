//! Host fingerprint and process accounting read from `/proc`.

use std::path::Path;

/// Linux reports `utime`/`stime` in clock ticks of `USER_HZ`, which is
/// 100 on every mainstream kernel build.
const TICKS_PER_S: f64 = 100.0;

/// Where and with what a result was produced.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_rev: String,
}

impl Fingerprint {
    /// Reads the fingerprint. `repo` is the checkout root; its git
    /// revision is read from `.git` directly (no subprocess), and reads
    /// `unknown` in a checkout without one.
    pub fn read(repo: &Path) -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            git_rev: git_rev(repo).unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

fn git_rev(repo: &Path) -> Option<String> {
    let git = repo.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// `utime + stime` in seconds from a `/proc/.../stat` file. Fields are
/// counted after the parenthesized command name, which may hold spaces.
fn stat_cpu_s(path: &str) -> f64 {
    let Ok(stat) = std::fs::read_to_string(path) else {
        return 0.0;
    };
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    // After ')': state is field 3, so utime (14) and stime (15) sit at
    // indices 11 and 12 of the remainder.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / TICKS_PER_S
}

/// CPU seconds used by the whole process so far, exited threads included.
pub fn process_cpu_s() -> f64 {
    stat_cpu_s("/proc/self/stat")
}

/// CPU seconds used by the calling thread so far.
pub fn thread_cpu_s() -> f64 {
    stat_cpu_s("/proc/thread-self/stat")
}

/// Peak resident set size (`VmHWM`) in MiB, less the buffers of the
/// benchmark's reference unit, which stay resident from the first set-up
/// on.
pub fn peak_rss_mb() -> f64 {
    peak_vm_hwm_mb() - crate::speed::RESIDENT_MB
}

fn peak_vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
