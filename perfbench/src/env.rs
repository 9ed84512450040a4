//! The environment header printed with every result, CPU pinning, and
//! the process's peak resident memory.

use std::path::Path;

/// Where and how a result was measured.
#[derive(Debug)]
pub struct Header {
    /// CPUs this process may run on (`nproc`).
    pub nproc: usize,
    /// The host CPU's model name.
    pub cpu_model: String,
    /// This process's CPU affinity list (`Cpus_allowed_list`).
    pub affinity: String,
    /// Revision of the measured checkout, or `unknown` outside git.
    pub git_rev: String,
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// Whether the per-layer (traced) pass ran.
    pub trace: bool,
}

impl Header {
    /// Captures the header for one run (after any pinning).
    pub fn capture(root: &Path, workload: &str, seed: u64, seconds: f64, trace: bool) -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|rest| rest.split_once(':'))
            .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string());
        let affinity = std::fs::read_to_string("/proc/self/status")
            .unwrap_or_default()
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            affinity,
            git_rev: git_rev(root).unwrap_or_else(|| "unknown".to_string()),
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
        }
    }

    /// One-line JSON rendering.
    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": \"{}\", \"affinity\": \"{}\", \
             \"git_rev\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
             \"trace\": {}}}",
            self.nproc,
            self.cpu_model.replace(['"', '\\'], ""),
            self.affinity,
            self.git_rev,
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace)
        )
    }
}

/// Reads the checkout's revision from `.git` without running git.
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_string()))
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins this process to the CPUs of `list` (`"0"`, `"0-1"`, `"0,2"`).
/// Call before spawning threads: threads inherit the mask.
pub fn pin(list: &str) -> Result<(), String> {
    let mut mask = [0u64; 16];
    for part in list.split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = match part.split_once('-') {
            Some((a, b)) => (a.trim().parse::<usize>(), b.trim().parse::<usize>()),
            None => (part.trim().parse::<usize>(), part.trim().parse::<usize>()),
        };
        let (Ok(lo), Ok(hi)) = (lo, hi) else {
            return Err(format!("bad CPU list {list:?}"));
        };
        if lo > hi || hi >= 64 * mask.len() {
            return Err(format!("bad CPU range {part:?}"));
        }
        for cpu in lo..=hi {
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
    }
    if mask.iter().all(|&w| w == 0) {
        return Err(format!("empty CPU list {list:?}"));
    }
    // SAFETY: `mask` is a live array of exactly `size_of_val(&mask)`
    // bytes for the duration of the call, and pid 0 names the calling
    // thread, so the kernel only reads memory this frame owns.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity({list}): {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// `(steal, total)` CPU ticks of the host since boot (`/proc/stat`);
/// zeros where the file is missing.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Resets the peak resident set size, so a second pass in the same
/// process reports its own peak. Best effort.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
