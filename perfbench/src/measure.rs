//! Measurement helpers: order statistics, process CPU and memory from
//! `/proc`, registry-snapshot deltas, and the provenance stamp.

use std::path::Path;
use std::process::Command;

use obs::json::Json;
use obs::metrics::{HistogramSnapshot, Snapshot};

/// The `q`-quantile of `sorted` by nearest rank (`None` when empty).
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of `values` (the mean of the middle two for an even count),
/// or 0 when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The median of `values`, or NaN when empty: for a figure that must have
/// been measured, so an empty sample shows as a missing metric.
#[must_use]
pub fn median_or_nan(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        median(values)
    }
}

/// The arithmetic mean, or 0 when empty.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Process CPU time (user + system, all threads) in milliseconds, from
/// `/proc/self/stat` (clock ticks at the Linux default of 100 Hz).
#[must_use]
pub fn process_cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // The command name may hold spaces; fields resume after its `)`.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 3 of stat(5), utime 14, stime 15.
    let ticks = |i: usize| fields.get(i - 3).and_then(|f| f.parse::<f64>().ok());
    match (ticks(14), ticks(15)) {
        (Some(u), Some(s)) => (u + s) * 10.0,
        _ => f64::NAN,
    }
}

/// CPU time of the calling thread in milliseconds at nanosecond
/// resolution, from the time on CPU in `/proc/thread-self/schedstat`; the
/// process's CPU time ([`process_cpu_ms`]) where that file is missing.
#[must_use]
pub fn thread_cpu_ms() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or_else(process_cpu_ms, |ns| ns / 1e6)
}

/// The CPUs this process may run on, from `Cpus_allowed_list` in
/// `/proc/self/status` (`0-1`, `0,2-3`, ...).
#[must_use]
pub fn allowed_cpus() -> Vec<usize> {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return Vec::new();
    };
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let mut ends = part.split('-').map(|v| v.trim().parse::<usize>());
        match (ends.next(), ends.next()) {
            (Some(Ok(a)), None) => cpus.push(a),
            (Some(Ok(a)), Some(Ok(b))) => cpus.extend(a..=b),
            _ => return Vec::new(),
        }
    }
    cpus
}

/// Pins the calling thread, and every thread it starts afterwards, to the
/// lowest CPU it may run on, and returns that CPU.
///
/// # Errors
///
/// When the allowed CPUs cannot be read or the kernel refuses the mask.
#[allow(unsafe_code)]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let cpu = *allowed_cpus()
        .first()
        .ok_or("cannot read Cpus_allowed_list from /proc/self/status")?;
    // glibc's `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    *mask
        .get_mut(cpu / 64)
        .ok_or_else(|| format!("CPU {cpu} is beyond a 1024-CPU mask"))? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of `size_of_val(&mask)`
    // bytes that the call only reads; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(cpu)
    } else {
        Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// Machine-wide CPU time so far as `(busy, steal)` jiffies from the
/// `cpu` line of `/proc/stat`. Steal is time the hypervisor ran someone
/// else while this machine's CPUs wanted to run: it shows when a noisy
/// neighbour, not the code, slowed a run.
#[must_use]
pub fn machine_cpu_jiffies() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal
    let busy = [0, 1, 2, 5, 6].iter().filter_map(|&i| fields.get(i)).sum();
    (busy, fields.get(7).copied().unwrap_or(0))
}

/// Steal as a share of busy plus stolen time between two
/// [`machine_cpu_jiffies`] readings.
#[must_use]
pub fn steal_frac(before: (u64, u64), after: (u64, u64)) -> f64 {
    let busy = after.0.saturating_sub(before.0) as f64;
    let steal = after.1.saturating_sub(before.1) as f64;
    ratio(steal, busy + steal)
}

/// The process's peak resident set (`VmHWM`) in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What a counter family grew by between two snapshots.
#[must_use]
pub fn counter_delta(before: &Snapshot, after: &Snapshot, name: &str) -> f64 {
    let a = after.scalar_total(name).unwrap_or(0);
    let b = before.scalar_total(name).unwrap_or(0);
    a.saturating_sub(b) as f64
}

/// The observations a histogram family gained between two snapshots
/// (bucket-wise difference of the merged series).
#[must_use]
pub fn histogram_delta(before: &Snapshot, after: &Snapshot, name: &str) -> HistogramSnapshot {
    let a = after.histogram_total(name).unwrap_or_default();
    let b = before.histogram_total(name).unwrap_or_default();
    let buckets: Vec<(usize, u64)> = a
        .buckets
        .iter()
        .filter_map(|&(idx, c)| {
            let old = b
                .buckets
                .iter()
                .find(|&&(i, _)| i == idx)
                .map_or(0, |&(_, c)| c);
            let d = c.saturating_sub(old);
            (d > 0).then_some((idx, d))
        })
        .collect();
    HistogramSnapshot {
        count: buckets.iter().map(|&(_, c)| c).sum(),
        sum: a.sum.wrapping_sub(b.sum),
        max: a.max,
        buckets,
    }
}

/// A histogram quantile as `f64`, 0 when the histogram is empty.
#[must_use]
pub fn hist_q(h: &HistogramSnapshot, q: f64) -> f64 {
    h.quantile(q).map_or(0.0, |v| v as f64)
}

/// Where and on what a result was measured: the fields a later run needs
/// to tell whether two results are comparable. `nproc` is the number of
/// CPUs the process had before it pinned itself to one.
#[must_use]
pub fn provenance(workload: &str, seed: u64, args: &[String], nproc: usize) -> Json {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let rustc = command_line(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_string());
    // Only the checkout's own repository: never one found above it.
    let commit = command_line("git", &["--git-dir=.git", "rev-parse", "HEAD"]);
    Json::Obj(vec![
        ("workload".into(), Json::str(workload)),
        ("seed".into(), Json::num(seed)),
        (
            "args".into(),
            Json::Arr(args.iter().map(|a| Json::str(a.as_str())).collect()),
        ),
        ("nproc".into(), Json::num(nproc as u64)),
        (
            "cpus_used".into(),
            Json::Arr(
                allowed_cpus()
                    .into_iter()
                    .map(|c| Json::num(c as u64))
                    .collect(),
            ),
        ),
        ("kernel".into(), Json::str(kernel)),
        ("cpu".into(), Json::str(cpu)),
        ("rustc".into(), Json::str(rustc)),
        ("git_commit".into(), commit.map_or(Json::Null, Json::str)),
        (
            "source_fnv64".into(),
            Json::str(format!("{:016x}", source_fingerprint(Path::new(".")))),
        ),
    ])
}

/// The first line a command prints, if it runs and succeeds.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

/// FNV-1a over the path and bytes of every source file the benchmark
/// builds (the workspace manifest, `src/`, `crates/`, `perfbench/src/`),
/// in sorted path order. It identifies the code measured where no git
/// commit is available, as in an exported checkout.
#[must_use]
pub fn source_fingerprint(root: &Path) -> u64 {
    let mut files = Vec::new();
    for top in [
        "Cargo.toml",
        "src",
        "crates",
        "perfbench/src",
        "perfbench/Cargo.toml",
    ] {
        collect_files(&root.join(top), &mut files);
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in files {
        feed(f.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(&f) {
            feed(&bytes);
        }
    }
    h
}

fn collect_files(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path.to_path_buf());
        }
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for e in entries.flatten() {
            collect_files(&e.path(), out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), Some(2.0));
        assert_eq!(quantile(&v, 0.99), Some(4.0));
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn proc_readings_are_positive() {
        assert!(process_cpu_ms() >= 0.0);
        assert!(thread_cpu_ms() > 0.0);
        assert!(!allowed_cpus().is_empty());
        assert!(peak_rss_mb() > 0.0);
    }
}
