//! What the benchmark learns about the machine it runs on: the fingerprint
//! printed with every run, and the process's peak resident memory.

use crate::json::Obj;

/// CPU model, core count, compiler and commit, as one JSON object.
pub fn fingerprint() -> String {
    Obj::new()
        .str("cpu_model", &cpu_model())
        .int("nproc", nproc() as u64)
        .str("rustc", env!("PERFBENCH_RUSTC_VERSION"))
        .str("git_commit", &git_commit())
        .finish()
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU brand string, read with `cpuid` (no file access).
#[cfg(target_arch = "x86_64")]
#[allow(unused_unsafe)]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // SAFETY: `cpuid` is available on every x86_64 processor.
    let max_leaf = unsafe { __cpuid(0x8000_0000) }.eax;
    if max_leaf < 0x8000_0004 {
        return "unknown".to_string();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        // SAFETY: the leaf is within the range the processor reported.
        let r = unsafe { __cpuid(leaf) };
        for word in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    format!("unknown ({})", std::env::consts::ARCH)
}

/// The commit checked out at the working directory, read from `.git`
/// without running git; checkouts exported without history say so.
fn git_commit() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown (not a git checkout)".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(commit) = std::fs::read_to_string(format!(".git/{reference}")) {
        return commit.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (commit, name) = line.split_once(' ')?;
                (name == reference).then(|| commit.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process so far, in MiB: the kernel's
/// high-water mark for this address space. (`getrusage` would not do: on
/// Linux its maximum survives `execve`, so a child of a larger process such
/// as `cargo run` reports its parent's peak.)
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(f64::NAN)
}
