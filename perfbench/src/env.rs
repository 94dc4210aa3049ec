//! The machine fingerprint every result is stamped with, and peak RSS.

use std::path::Path;
use std::process::Command;

/// What a result depends on besides the code: two results compare only
/// when these match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub nproc: usize,
    pub kernel: String,
    pub cpu: String,
    pub store_fs: String,
    pub rustc: String,
    pub commit: String,
}

impl Fingerprint {
    /// Reads the fingerprint of this machine for stores under `store_root`.
    pub fn collect(store_root: &Path) -> Fingerprint {
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel: read_trimmed("/proc/sys/kernel/osrelease"),
            cpu: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|s| {
                    s.lines()
                        .find(|l| l.starts_with("model name"))
                        .and_then(|l| l.split(':').nth(1))
                        .map(|m| m.trim().to_string())
                })
                .unwrap_or_else(|| "unknown".into()),
            store_fs: fs_type(store_root),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            commit: Command::new("git")
                .args(["rev-parse", "HEAD"])
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .unwrap_or_else(|| "none".into()),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"kernel\": {}, \"cpu\": {}, \"store_fs\": {}, \"rustc\": {}, \"commit\": {}}}",
            self.nproc,
            json_str(&self.kernel),
            json_str(&self.cpu),
            json_str(&self.store_fs),
            json_str(&self.rustc),
            json_str(&self.commit)
        )
    }
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`).
fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
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

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
