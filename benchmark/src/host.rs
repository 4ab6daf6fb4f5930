//! The host fingerprint printed with every record, and the process's peak memory.

use std::path::Path;

use crate::json::Json;

/// What a measurement ran on: enough to tell two records from different hosts,
/// builds or commits apart.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// CPU model name (`/proc/cpuinfo`).
    pub cpu: String,
    /// L2 size of CPU 0, as the kernel reports it.
    pub l2: String,
    /// L3 size of CPU 0, as the kernel reports it.
    pub l3: String,
    /// The checked-out commit, when the tree is a git checkout.
    pub rev: String,
    /// Vector extensions the binary was compiled for (the effect of `target-cpu`).
    pub target_features: String,
}

impl Host {
    /// Probes the running host; fields that cannot be read say `unknown`.
    pub fn probe() -> Host {
        let unknown = || "unknown".to_owned();
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(unknown);
        let cache = |index: u32| {
            std::fs::read_to_string(format!(
                "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
            ))
            .map_or_else(|_| unknown(), |s| s.trim().to_owned())
        };
        Host {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            cpu,
            l2: cache(2),
            l3: cache(3),
            rev: git_rev(Path::new(".git")).unwrap_or_else(unknown),
            target_features: target_features(),
        }
    }

    /// The one-line form printed before the metrics.
    pub fn line(&self) -> String {
        format!(
            "host nproc={} cpu=\"{}\" l2={} l3={} rev={} target_features={}",
            self.nproc, self.cpu, self.l2, self.l3, self.rev, self.target_features
        )
    }

    /// The record form.
    pub fn json(&self) -> Json {
        Json::obj()
            .with("nproc", Json::Int(self.nproc as u64))
            .with("cpu", Json::Str(self.cpu.clone()))
            .with("l2", Json::Str(self.l2.clone()))
            .with("l3", Json::Str(self.l3.clone()))
            .with("rev", Json::Str(self.rev.clone()))
            .with("target_features", Json::Str(self.target_features.clone()))
    }
}

/// Resolves `HEAD` of the git directory without running git (benchmark checkouts
/// are usually not repositories at all).
fn git_rev(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(rev) = std::fs::read_to_string(git_dir.join(reference)) {
        return Some(rev.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, name)| *name == reference)
        .map(|(rev, _)| rev.to_owned())
}

fn target_features() -> String {
    let features = [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("avx512bw", cfg!(target_feature = "avx512bw")),
        ("avx512vnni", cfg!(target_feature = "avx512vnni")),
        ("neon", cfg!(target_feature = "neon")),
    ];
    let on: Vec<&str> = features
        .iter()
        .filter(|(_, enabled)| *enabled)
        .map(|(name, _)| *name)
        .collect();
    if on.is_empty() {
        "baseline".to_owned()
    } else {
        on.join(",")
    }
}

/// The process's peak resident set (`VmHWM`) in MB, or `None` where the kernel does
/// not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn git_rev_follows_refs_and_packed_refs() {
        let dir = std::env::temp_dir().join(format!("radar_benchmark_git_{}", std::process::id()));
        std::fs::create_dir_all(dir.join("refs/heads")).expect("temp dir is writable");
        std::fs::write(dir.join("HEAD"), "ref: refs/heads/main\n").expect("write HEAD");
        std::fs::write(
            dir.join("packed-refs"),
            "# pack-refs\nabc123 refs/heads/main\n",
        )
        .expect("write packed-refs");
        assert_eq!(git_rev(&dir).as_deref(), Some("abc123"));
        std::fs::write(dir.join("refs/heads/main"), "def456\n").expect("write ref");
        assert_eq!(git_rev(&dir).as_deref(), Some("def456"));
        std::fs::write(dir.join("HEAD"), "0123abcd\n").expect("write detached HEAD");
        assert_eq!(git_rev(&dir).as_deref(), Some("0123abcd"));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(git_rev(&dir), None);
    }

    #[test]
    fn probe_fills_every_field() {
        let host = Host::probe();
        assert!(host.nproc >= 1);
        assert!(!host.line().is_empty());
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        }
    }
}
