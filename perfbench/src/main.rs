//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload svc_burst --seed 1 --seconds 55 --trace 0
//! ```
//!
//! Workloads (see `perfbench/README.md` for the traffic table):
//!
//! * `svc_burst` — an in-process evaluation server on a Unix socket, fed
//!   bursts of the service job mix as fast as it takes them, each timed
//!   to its last result (the service's capacity);
//! * `table3_matrix` — every Fig. 5 suite point × the Table 3 schemes on
//!   the 2/4/8-cluster presets, straight through the batch engine.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` the same run is followed by a replay of its jobs
//! through each layer's public functions, timed by spans kept in this
//! program, and the line carries the per-layer metrics instead. Every
//! run checks its outputs; a failed check prints one line naming the
//! workload and the check to stderr and exits 1.

mod heap;
mod layers;
mod matrix;
mod mix;
mod service;
mod stats;

use std::path::{Path, PathBuf};
use std::time::Instant;

use stats::Metrics;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Seed used when `--seed` is not given. Seed 2 is held out for claims.
const DEFAULT_SEED: u64 = 1;
/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 11;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SvcBurst,
    Table3Matrix,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "svc_burst" => Some(Workload::SvcBurst),
            "table3_matrix" => Some(Workload::Table3Matrix),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SvcBurst => "svc_burst",
            Workload::Table3Matrix => "table3_matrix",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run hands back: counts, metrics and human-readable
/// notes printed above the result line.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub notes: Vec<String>,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload svc_burst|table3_matrix \
         [--seed N] [--seconds S] [--trace 0|1]"
    );
    std::process::exit(2);
}

fn bad<T>(flag: &str, value: &str) -> T {
    usage(&format!("{flag}: cannot parse '{value}'"))
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 55.0, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).unwrap_or_else(|| bad(flag, value)))
            }
            "--seed" => seed = value.parse().unwrap_or_else(|_| bad(flag, value)),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .unwrap_or_else(|| bad(flag, value));
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(flag, value),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed,
        seconds,
        trace,
    }
}

/// Run `f` `SETUPS` times, keeping the last result; returns it with the
/// median set-up time in seconds. `teardown` disposes of the others.
pub fn repeated_setup<T>(
    mut f: impl FnMut(usize) -> Result<T, String>,
    mut teardown: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for k in 0..SETUPS {
        if let Some(prev) = last.take() {
            teardown(prev)?;
        }
        let t0 = Instant::now();
        last = Some(f(k)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    let last = last.expect("SETUPS > 0");
    Ok((last, stats::median(&mut times)))
}

/// A fresh scratch directory under the working directory (the checkout),
/// removed when the run ends.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create() -> Result<ScratchDir, String> {
        let rel = PathBuf::from(format!(".perfbench-run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&rel);
        std::fs::create_dir(&rel).map_err(|e| format!("create {}: {e}", rel.display()))?;
        Ok(ScratchDir(rel))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let dir = ScratchDir::create()?;
    match args.workload {
        Workload::SvcBurst => service::run(args, dir.path()),
        Workload::Table3Matrix => matrix::run(args),
    }
}

fn main() {
    let args = parse_args();
    match run(&args) {
        Ok(outcome) => {
            for note in &outcome.notes {
                println!("{}: {note}", args.workload.name());
            }
            println!(
                "{}",
                outcome
                    .metrics
                    .result_json(outcome.attempted, outcome.failed)
            );
        }
        Err(check) => {
            eprintln!("perfbench: {}: check failed: {check}", args.workload.name());
            std::process::exit(1);
        }
    }
}
