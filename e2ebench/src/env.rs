//! Run provenance (seed, parallelism, compiler, source revision) and
//! process resource readings.

use std::path::Path;
use std::process::Command;

/// Everything a run records about where and how it ran.
pub struct Provenance {
    /// `std::thread::available_parallelism`, or 0 when unknown.
    pub available_parallelism: usize,
    /// Output of `nproc`, or `unknown`.
    pub nproc: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// `git rev-parse HEAD`, or `none` outside a git checkout.
    pub commit: String,
    /// FNV-1a digest of every source file under `crates/` and `src/`, so
    /// a checkout without git history still identifies its code.
    pub source_digest: String,
}

/// Collect the provenance of this run (reads only inside the checkout).
pub fn provenance() -> Provenance {
    let run = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|s| s.trim().to_string())
    };
    let mut files = Vec::new();
    for dir in ["crates", "src"] {
        collect_files(Path::new(dir), &mut files);
    }
    files.sort();
    let mut digest = Fnv::new();
    for file in &files {
        if let Ok(bytes) = std::fs::read(file) {
            digest.write(file.to_string_lossy().as_bytes());
            digest.write(&bytes);
        }
    }
    Provenance {
        available_parallelism: std::thread::available_parallelism().map_or(0, |n| n.get()),
        nproc: run("nproc", &[]).unwrap_or_else(|| "unknown".to_string()),
        rustc: env!("E2EBENCH_RUSTC_VERSION"),
        commit: run("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none".to_string()),
        source_digest: format!("{:016x}", digest.finish()),
    }
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// 64-bit FNV-1a, the digest of every result the benchmark compares.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// A fresh digest.
    pub fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    /// Fold `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a string, formatted as 16 hex digits.
pub fn digest_str(text: &str) -> String {
    let mut fnv = Fnv::new();
    fnv.write(text.as_bytes());
    format!("{:016x}", fnv.finish())
}
