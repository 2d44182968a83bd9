//! What a result records about where it was measured.

use std::fs;
use std::path::Path;

/// Host facts captured when a run starts.
#[derive(Debug, Clone)]
pub struct Host {
    /// Cores available to this process.
    pub cores: usize,
    /// One-minute load average at start, when the kernel reports it.
    pub load_1m: Option<f64>,
    /// The checked-out commit, when the tree is a git checkout.
    pub commit: Option<String>,
}

impl Host {
    /// Captures the host; the commit is read from the workspace `root`.
    pub fn capture(root: &Path) -> Host {
        Host {
            cores: std::thread::available_parallelism().map_or(1, usize::from),
            load_1m: fs::read_to_string("/proc/loadavg")
                .ok()
                .and_then(|text| text.split_whitespace().next()?.parse().ok()),
            commit: git_head(root),
        }
    }
}

fn git_head(root: &Path) -> Option<String> {
    let head = fs::read_to_string(root.join(".git/HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => fs::read_to_string(root.join(".git").join(reference))
            .ok()
            .map(|id| id.trim().to_owned()),
        None => Some(head.to_owned()),
    }
}

/// Peak resident set size of this process so far, MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
