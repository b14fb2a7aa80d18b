//! # virtclust-bench
//!
//! Shared plumbing for the benchmark harness binaries that regenerate every
//! table and figure of Cai et al., IPDPS 2008 (see `src/bin/`).
//!
//! Binaries honour two environment variables:
//!
//! * `VIRTCLUST_UOPS` — micro-ops simulated per (point × configuration)
//!   cell (default per binary; the paper's PinPoints slices are 10 M
//!   instructions — scale this up for higher fidelity, down for speed);
//! * `VIRTCLUST_THREADS` — worker threads (default: all CPUs).
//!
//! Every binary prints its result and also writes it under `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;
use std::time::Duration;

use virtclust_core::{fault, ResilientOptions};
use virtclust_uarch::MachineConfig;

/// Map a `--clusters` argument to the paper machine preset: 2 (Table 2
/// baseline), 4 (Sec. 5.4 scaling) or 8 (the ROADMAP sweep extrapolation —
/// location/wakeup masks beyond 4 bits). `None` for anything else; the
/// single mapping every harness binary shares.
pub fn cluster_preset(clusters: usize) -> Option<MachineConfig> {
    match clusters {
        2 => Some(MachineConfig::paper_2cluster()),
        4 => Some(MachineConfig::paper_4cluster()),
        8 => Some(MachineConfig::paper_8cluster()),
        _ => None,
    }
}

/// Micro-op budget per simulation cell: `VIRTCLUST_UOPS` or `default`.
pub fn uop_budget(default: u64) -> u64 {
    match std::env::var("VIRTCLUST_UOPS") {
        Ok(v) => v.replace('_', "").parse().unwrap_or_else(|_| {
            eprintln!("warning: unparsable VIRTCLUST_UOPS={v}, using {default}");
            default
        }),
        Err(_) => default,
    }
}

/// Worker threads for the evaluation matrix: `VIRTCLUST_THREADS` or 0
/// (= one per CPU).
pub fn threads() -> usize {
    std::env::var("VIRTCLUST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Resilience flags shared by the batch binaries (`probe_ipc --json`,
/// `trace_replay batch`).
#[derive(Debug, Default)]
pub struct Resilience {
    /// Retry/deadline options assembled from the flags.
    pub opts: ResilientOptions,
    /// Any of `--retries/--deadline-ms/--chaos` was given explicitly.
    pub flags: bool,
    /// `VIRTCLUST_FAILPOINTS` armed the registry (no flag needed).
    pub env_armed: bool,
}

impl Resilience {
    /// Whether a failed cell is an expected, reported outcome (degraded
    /// completion, exit 0) rather than a fatal error.
    pub fn active(&self) -> bool {
        self.flags || self.env_armed
    }
}

/// Parse `--retries N`, `--deadline-ms MS` and `--chaos SCHEDULE` from
/// `argv`, and arm the failpoint registry from `--chaos` and/or
/// `VIRTCLUST_FAILPOINTS` (process-wide — the whole process is the chaos
/// experiment). Malformed values are an `Err` naming the flag.
pub fn try_resilience_from_args(argv: &[String]) -> Result<Resilience, String> {
    let value_of = |flag: &str| -> Result<Option<&String>, String> {
        match argv.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => argv
                .get(i + 1)
                .map(Some)
                .ok_or_else(|| format!("{flag} needs a value")),
        }
    };
    let mut r = Resilience::default();
    if let Some(v) = value_of("--retries")? {
        r.opts.retry.max_retries = v
            .parse()
            .map_err(|_| format!("--retries must be a count, got {v}"))?;
        r.flags = true;
    }
    if let Some(v) = value_of("--deadline-ms")? {
        let ms: u64 = v
            .parse()
            .map_err(|_| format!("--deadline-ms must be milliseconds, got {v}"))?;
        r.opts.deadline = Some(Duration::from_millis(ms));
        r.flags = true;
    }
    if let Some(v) = value_of("--chaos")? {
        let schedule = fault::FaultSchedule::parse(v).map_err(|e| format!("--chaos: {e}"))?;
        fault::arm_global(&schedule);
        r.flags = true;
    } else {
        r.env_armed = fault::arm_from_env()
            .map_err(|e| format!("VIRTCLUST_FAILPOINTS: {e}"))?
            .is_some();
    }
    Ok(r)
}

/// [`try_resilience_from_args`], exiting with a usage error on malformed
/// values (`bin` names the binary in the diagnostic).
pub fn resilience_from_args(argv: &[String], bin: &str) -> Resilience {
    try_resilience_from_args(argv).unwrap_or_else(|e| {
        eprintln!("{bin}: {e}");
        std::process::exit(2);
    })
}

/// Locate the workspace `results/` directory (next to the workspace root's
/// Cargo.toml), creating it if needed.
pub fn results_dir() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop(); // crates/
    dir.pop(); // workspace root
    dir.push("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Write `content` to `results/<name>`, returning the path.
pub fn write_result(name: &str, content: &str) -> PathBuf {
    let path = results_dir().join(name);
    std::fs::write(&path, content).expect("write result file");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_defaults_when_env_unset() {
        std::env::remove_var("VIRTCLUST_UOPS");
        assert_eq!(uop_budget(1234), 1234);
    }

    #[test]
    fn write_result_roundtrips() {
        let path = write_result("selftest.txt", "hello\n");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "hello\n");
        std::fs::remove_file(path).ok();
    }
}
