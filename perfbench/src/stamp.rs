//! The host and build stamp every record carries, and the process's peak
//! resident set.

use std::process::Command;

use crate::workloads::Ctx;

/// Worker threads: one per CPU this process may use.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The thermal kernel the integrator dispatches to.
fn kernel() -> &'static str {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if dimetrodon_thermal::simd::avx2_active() {
        return "avx2";
    }
    "scalar"
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

#[derive(Debug)]
pub struct Stamp {
    pub nproc: usize,
    pub workers: usize,
    pub features: &'static str,
    pub kernel: &'static str,
    pub rustc: String,
    pub commit: String,
    pub seed: u64,
}

impl Stamp {
    pub fn take(ctx: &Ctx, seed: u64) -> Stamp {
        let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
        Stamp {
            nproc: workers(),
            workers: ctx.workers,
            features: if cfg!(feature = "simd") {
                "simd"
            } else {
                "default"
            },
            kernel: kernel(),
            rustc: command_line(&rustc, &["--version"]),
            commit: command_line("git", &["rev-parse", "HEAD"]),
            seed,
        }
    }

    pub fn line(&self) -> String {
        format!(
            "nproc={} workers={} features={} kernel={} rustc=\"{}\" commit={} seed={}",
            self.nproc,
            self.workers,
            self.features,
            self.kernel,
            self.rustc,
            self.commit,
            self.seed
        )
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"workers\": {}, \"features\": \"{}\", \"kernel\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\", \"seed\": {}}}",
            self.nproc, self.workers, self.features, self.kernel, self.rustc, self.commit, self.seed
        )
    }
}

/// Resets this process's peak resident set to its current one, so the
/// next [`peak_rss_mb`] covers only what runs in between. Returns whether
/// the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set (VmHWM) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
