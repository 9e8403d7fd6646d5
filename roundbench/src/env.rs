//! The environment every result is recorded with. Results whose NTT
//! backend or allocator differ measure different programs and must not
//! be compared (`spread.py --against` refuses them).

use std::fs;
use std::path::Path;

use rhychee_fhe::ckks::ntt;
use rhychee_telemetry as telemetry;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `env {...}` line printed before the metrics.
pub fn line(degree: usize) -> String {
    let backend_env = std::env::var("RHYCHEE_NTT_BACKEND").unwrap_or_default();
    format!(
        "env {{\"nproc\": {}, \"ntt_backend\": \"{}\", \"rhychee_ntt_backend\": \"{}\", \
         \"parallelism\": {}, \"commit\": \"{}\", \"tracking_alloc\": {}, \"telemetry\": {}}}",
        nproc(),
        ntt::active_kernel().name(),
        backend_env.escape_default(),
        degree,
        commit(),
        telemetry::alloc::installed(),
        telemetry::enabled(),
    )
}

/// The checked-out commit, read from `.git` in the working directory;
/// `unknown` outside a git checkout.
fn commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn rss_peak_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
