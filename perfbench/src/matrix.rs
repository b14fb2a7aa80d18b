//! `table3_matrix`: every Fig. 5 suite point × the Table 3 schemes on the
//! 2-, 4- and 8-cluster presets, 20 000 micro-ops per cell, straight
//! through `EvalDriver::run_resilient` (no service).
//!
//! A pass runs every cell exactly once, one `run_resilient` call per
//! preset on a fresh driver, in seeded order; passes repeat until
//! `--seconds` have elapsed. Simulation dominates every cell and no
//! prepared-program key repeats within a pass.

use std::time::{Duration, Instant};

use virtclust_bench::cluster_preset;
use virtclust_core::{run_point, Configuration, EvalDriver, EvalJob, ResilientOptions};
use virtclust_sim::SimStats;
use virtclust_svc::stats_digest;
use virtclust_uarch::MachineConfig;
use virtclust_workloads::spec2000_points;

use crate::layers::{self, Input, RunFigures};
use crate::mix::{self, Rng};
use crate::service::WORKERS;
use crate::stats::{self, BestTimes, Metrics, WindowPercentiles};
use crate::{heap, repeated_setup, Args, Outcome};

const CELL_UOPS: u64 = 20_000;
const PRESETS: [u32; 3] = [2, 4, 8];
/// Cells re-run on a fresh machine with `run_point` after the timed
/// passes: `(clusters, point, index into Configuration::table3())`.
const FRESH_CHECKS: [(u32, &str, usize); 6] = [
    (2, "gzip-1", 0),
    (2, "mcf", 3),
    (4, "galgel", 4),
    (4, "swim", 2),
    (8, "art-1", 1),
    (8, "equake", 4),
];

fn preset(clusters: u32) -> MachineConfig {
    cluster_preset(clusters as usize).expect("PRESETS are paper presets")
}

/// One preset's share of a pass: its machine, its cells in run order and
/// each cell's canonical index (`point × 5 + scheme`).
struct Group {
    clusters: u32,
    machine: MachineConfig,
    jobs: Vec<EvalJob>,
    canon: Vec<usize>,
}

fn run_group(
    g: &Group,
    jobs: &[EvalJob],
) -> Result<(Vec<SimStats>, virtclust_core::BatchReport), String> {
    let (outcomes, report) = EvalDriver::new(&g.machine).threads(WORKERS).run_resilient(
        jobs,
        &ResilientOptions::new(),
        |_, _| {},
    );
    let stats = outcomes
        .into_iter()
        .enumerate()
        .map(|(i, o)| {
            o.stats
                .map_err(|e| format!("{}: {e}", jobs[i].label(g.clusters)))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((stats, report))
}

/// Build the seeded cell order and warm up one cell per preset × scheme.
fn setup(seed: u64) -> Result<Vec<Group>, String> {
    let points = spec2000_points();
    let table3 = Configuration::table3();
    let mut rng = Rng::new(seed);
    let mut clusters = PRESETS;
    rng.shuffle(&mut clusters);
    let mut groups = Vec::new();
    for c in clusters {
        let mut order: Vec<usize> = (0..points.len() * table3.len()).collect();
        rng.shuffle(&mut order);
        let jobs = order
            .iter()
            .map(|&ci| EvalJob::Point {
                point: points[ci / table3.len()].clone(),
                config: table3[ci % table3.len()],
                uops: CELL_UOPS,
            })
            .collect();
        groups.push(Group {
            clusters: c,
            machine: preset(c),
            jobs,
            canon: order,
        });
    }
    for g in &groups {
        let warm: Vec<EvalJob> = (0..table3.len())
            .map(|s| EvalJob::Point {
                point: points[0].clone(),
                config: table3[s],
                uops: CELL_UOPS,
            })
            .collect();
        run_group(g, &warm)?;
    }
    Ok(groups)
}

/// FNV-1a over the cell digests in canonical order (presets ascending).
fn matrix_digest(cells: &[Vec<u64>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for d in cells.iter().flatten() {
        for b in d.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (groups, setup_s) = repeated_setup(|_| setup(args.seed), |_| Ok(()))?;
    let cells = groups[0].jobs.len();
    // Per preset (ascending cluster count), per canonical cell.
    let slot = |c: u32| PRESETS.iter().position(|&p| p == c).expect("known preset");

    let mut timed = Duration::ZERO;
    let mut rates = Vec::new();
    let mut passes = 0u64;
    let mut first_digest = None;
    let mut cell_run = WindowPercentiles::default();
    let mut cell_best = BestTimes::default();
    // Peak live heap per window, median over the windows.
    let mut peaks = Vec::new();
    let (mut busy, mut budget) = (0.0, 0.0);
    let mut last: Vec<Vec<Option<SimStats>>> = vec![vec![None; cells]; PRESETS.len()];
    let start = Instant::now();
    loop {
        let mut digests = vec![vec![0u64; cells]; PRESETS.len()];
        let mut pass_time = Duration::ZERO;
        let mut committed = 0u64;
        let mut run_ms = Vec::with_capacity(cells * PRESETS.len());
        heap::reset_peak();
        for g in &groups {
            let t = Instant::now();
            let (stats, report) = run_group(g, &g.jobs)?;
            pass_time += t.elapsed();
            // Checks and bookkeeping, outside the timed sum.
            let m = &report.metrics;
            busy += m.jobs.iter().map(|j| j.run.as_secs_f64()).sum::<f64>();
            budget += m.wall.as_secs_f64() * m.workers as f64;
            run_ms.extend(m.jobs.iter().map(|j| j.run.as_secs_f64() * 1e3));
            for (j, &ci) in m.jobs.iter().zip(&g.canon) {
                cell_best.add((g.clusters, ci), j.run.as_secs_f64() * 1e3);
            }
            for (i, s) in stats.into_iter().enumerate() {
                if s.committed_uops != CELL_UOPS {
                    return Err(format!(
                        "{} committed {} of {CELL_UOPS} uops",
                        g.jobs[i].label(g.clusters),
                        s.committed_uops
                    ));
                }
                committed += s.committed_uops;
                digests[slot(g.clusters)][g.canon[i]] = stats_digest(&s);
                last[slot(g.clusters)][g.canon[i]] = Some(s);
            }
        }
        timed += pass_time;
        cell_run.add(run_ms);
        peaks.push(heap::peak_mb());
        rates.push(committed as f64 / pass_time.as_secs_f64());
        passes += 1;
        let digest = matrix_digest(&digests);
        if *first_digest.get_or_insert(digest) != digest {
            return Err(format!(
                "pass {passes} matrix digest {digest:016x} differs from pass 1"
            ));
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let matrix_digest = first_digest.expect("at least one pass");
    let peak_heap = stats::median(&mut peaks);

    let points = spec2000_points();
    let table3 = Configuration::table3();
    for (c, name, s) in FRESH_CHECKS {
        let pi = points
            .iter()
            .position(|p| p.name == name)
            .ok_or_else(|| format!("no suite point {name}"))?;
        let fresh = run_point(&points[pi], &table3[s], &preset(c), CELL_UOPS);
        if last[slot(c)][pi * table3.len() + s].as_ref() != Some(&fresh) {
            return Err(format!(
                "{name} × {} at {c} clusters differs from a fresh-machine run_point",
                table3[s].name(c)
            ));
        }
    }

    // The median pass, so a pass that shared the host with a noisy
    // neighbour does not set the figure.
    let uops_per_s = stats::median(&mut rates);
    let (lo, hi) = (rates[0], rates[rates.len() - 1]);
    let notes = vec![
        format!(
            "{passes} passes × {} cells × {CELL_UOPS} uops in {:.3} s timed, median pass {uops_per_s:.0} uops/s (range {lo:.0}-{hi:.0}); every cell committed its budget; matrix digest {matrix_digest:016x} in every pass; {} cells == fresh run_point",
            cells * PRESETS.len(),
            timed.as_secs_f64(),
            FRESH_CHECKS.len()
        ),
        cell_run.note("cell time on a worker", "pass", "passes"),
        cell_best.note("cell time on a worker"),
    ];

    let mut metrics = Metrics::default();
    if !args.trace {
        metrics.push("uops_per_s", uops_per_s, "uops/s");
        metrics.push("job_best_p50_ms", cell_best.percentile(0.5), "ms");
        metrics.push("job_best_p90_ms", cell_best.percentile(0.9), "ms");
        metrics.push("setup_s", setup_s, "s");
        metrics.push("peak_heap_mb", peak_heap, "MiB");
    } else {
        let machines: Vec<MachineConfig> = groups.iter().map(|g| g.machine.clone()).collect();
        let mut replay = Vec::with_capacity(cells * groups.len());
        for (m, g) in groups.iter().enumerate() {
            for (job, &ci) in g.jobs.iter().zip(&g.canon) {
                let expected = last[slot(g.clusters)][ci].as_ref().map_or(0, stats_digest);
                replay.push((Input::Direct(job.clone()), m, expected));
            }
        }
        let mut reuse = mix::Reuse::new();
        for g in &groups {
            for &ci in &g.canon {
                reuse.add((g.clusters, ci));
            }
        }
        metrics = layers::replay(&replay, &machines, reuse.frac())?;
        RunFigures {
            worker_util: busy / budget,
            cell_ms: (cell_run.median_p50(), cell_run.median_p99()),
            ..RunFigures::default()
        }
        .push_into(&mut metrics);
    }
    Ok(Outcome {
        attempted: passes * (cells * PRESETS.len()) as u64,
        failed: 0,
        metrics,
        notes,
    })
}
