//! `svc_burst`: an in-process evaluation server on a Unix socket, fed the
//! seeded service mix over one connection by two client threads (a sender
//! and a receiver).
//!
//! Each burst is sent as fast as the socket takes it and its clock stops
//! at its last result. Admission bounds sit above the burst size, so a
//! `Busy` bounce is a failure, not backpressure. A burst is reduced to a
//! few figures as soon as it ends and its jobs are dropped, so what the
//! process keeps does not grow with the number of bursts.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use virtclust_core::{EvalDriver, EvalJob, ResilientOptions};
use virtclust_obs::Log2Hist;
use virtclust_svc::{
    resolve_spec, stats_digest, Client, Priority, Server, ServerBuilder, ServerMsg, Submit,
    SvcStats, WireResult,
};
use virtclust_uarch::MachineConfig;

use crate::layers::{self, Input, RunFigures};
use crate::mix::{self, Rng, Spec};
use crate::stats::{self, BestTimes, Metrics, WindowPercentiles};
use crate::{heap, repeated_setup, Args, Outcome};

/// Each burst holds this many jobs (about two seconds on a 2-CPU host);
/// bursts repeat until `--seconds` have passed. The reported rate is the
/// median burst's, which keeps a burst that shared the host with a noisy
/// neighbour from setting the figure.
const BURST_JOBS: usize = 3_000;
/// Server worker threads (the host's `nproc`).
pub const WORKERS: usize = 2;
/// Warm-up jobs use tickets from here up, apart from the timed ones.
const WARM_TICKETS: u64 = 1 << 40;
/// Jobs the traced replay takes from the head of the first burst.
const REPLAY_JOBS: usize = 1_500;

/// A started server with a connected client and its schedule generator.
struct Rig {
    server: Server,
    tx: Client,
    rx: Client,
    rng: Rng,
    next_ticket: u64,
    warm: Vec<Spec>,
}

fn io_err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Wait for `n` tickets to resolve on `rx`, passing each result to `on`.
fn collect(
    rx: &mut Client,
    n: usize,
    mut on: impl FnMut(WireResult) -> Result<(), String>,
) -> Result<u64, String> {
    let mut accepted = 0;
    let mut resolved = 0;
    while resolved < n {
        match rx.recv().map_err(io_err("receive"))? {
            Some(ServerMsg::Accepted { .. }) => accepted += 1,
            Some(ServerMsg::Busy { ticket, reason }) => {
                return Err(format!("ticket {ticket} bounced Busy ({reason})"));
            }
            Some(ServerMsg::Result(r)) => {
                resolved += 1;
                on(r)?;
            }
            Some(ServerMsg::Stats(_)) => {}
            None => return Err("server closed the connection early".into()),
        }
    }
    Ok(accepted)
}

/// Start a server, connect and run the warm-up pass.
fn setup(args: &Args, corpus: &Path, sock: &Path) -> Result<Rig, String> {
    let bound = BURST_JOBS + 1_024;
    let mut server = ServerBuilder::new(&MachineConfig::paper_2cluster())
        .threads(WORKERS)
        .queue_cap(bound)
        .client_quota(bound)
        .start();
    server.serve_unix(sock).map_err(io_err("serve_unix"))?;
    // The handshake returns only after the reactor has sent its preamble,
    // so the server is ready once this returns; no sleep is involved.
    let client = Client::connect_unix(sock).map_err(io_err("connect"))?;
    let (mut tx, mut rx) = client.split().map_err(io_err("split"))?;

    let mut rng = Rng::new(args.seed);
    let warm = mix::every_key(&mut rng);
    // Warm-up: every prepared-program key once, so each worker has run
    // every code path and the first timed jobs pay no cold start.
    for (i, s) in warm.iter().enumerate() {
        let submit = Submit {
            ticket: WARM_TICKETS + i as u64,
            priority: Priority::Normal,
            deadline_ms: 0,
            spec: s.to_wire(corpus),
        };
        tx.submit(&submit).map_err(io_err("submit"))?;
    }
    collect(&mut rx, warm.len(), |r| {
        r.outcome
            .map(drop)
            .map_err(|e| format!("warm-up ticket {}: {e}", r.ticket))
    })?;
    Ok(Rig {
        server,
        tx,
        rx,
        rng,
        next_ticket: 0,
        warm,
    })
}

/// Stop the server over the wire and wait for it; returns its final
/// statistics.
fn teardown(rig: Rig) -> Result<SvcStats, String> {
    let Rig {
        server,
        mut tx,
        mut rx,
        ..
    } = rig;
    tx.shutdown().map_err(io_err("shutdown"))?;
    // The server flushes and closes; end of stream confirms it drained.
    while rx.recv().map_err(io_err("await shutdown"))?.is_some() {}
    server.join().map_err(io_err("join server"))
}

/// One job's result as the client saw it.
struct Done {
    at: Duration,
    committed: u64,
    digest: u64,
    wall_us: u64,
}

/// One burst: its jobs, their results in ticket order and how many
/// Accepted frames came back.
struct Burst {
    specs: Vec<Spec>,
    done: Vec<Done>,
    accepted: u64,
}

impl Burst {
    /// From the burst's start to its last result.
    fn len(&self) -> Duration {
        self.done.iter().map(|d| d.at).max().unwrap_or_default()
    }
}

/// Draw the next `BURST_JOBS` jobs of the seeded schedule, send them as
/// fast as the socket takes them and wait for all their results.
fn burst(rig: &mut Rig, corpus: &Path) -> Result<Burst, String> {
    let specs = mix::service_schedule(&mut rig.rng, BURST_JOBS);
    let first = rig.next_ticket;
    rig.next_ticket += BURST_JOBS as u64;
    let submits: Vec<Submit> = specs
        .iter()
        .zip(first..)
        .map(|(s, ticket)| Submit {
            ticket,
            priority: Priority::Normal,
            deadline_ms: 0,
            spec: s.to_wire(corpus),
        })
        .collect();
    let mut done: Vec<Option<Done>> = (0..BURST_JOBS).map(|_| None).collect();
    let t0 = Instant::now();
    let accepted = std::thread::scope(|scope| {
        let tx = &mut rig.tx;
        let submits = &submits;
        let sender = scope.spawn(move || -> Result<(), String> {
            for s in submits {
                tx.submit(s).map_err(io_err("submit"))?;
            }
            Ok(())
        });
        let received = collect(&mut rig.rx, BURST_JOBS, |r| {
            let at = t0.elapsed();
            let slot = r
                .ticket
                .checked_sub(first)
                .and_then(|j| usize::try_from(j).ok())
                .and_then(|j| done.get_mut(j))
                .ok_or_else(|| format!("result for unexpected ticket {}", r.ticket))?;
            if slot.is_some() {
                return Err(format!("second result for ticket {}", r.ticket));
            }
            let stats = r
                .outcome
                .map_err(|e| format!("ticket {} failed: {e}", r.ticket))?;
            *slot = Some(Done {
                at,
                committed: stats.committed_uops,
                digest: stats.digest,
                wall_us: r.wall_us,
            });
            Ok(())
        });
        sender
            .join()
            .map_err(|_| "sender thread panicked".to_string())??;
        received
    })?;
    Ok(Burst {
        specs,
        done: done
            .into_iter()
            .map(|d| d.expect("collect resolved every ticket"))
            .collect(),
        accepted,
    })
}

/// Expected `(digest, committed µops)` of each spec, from a direct
/// `run_resilient` of the resolved specs.
fn direct_results(specs: &[Spec], corpus: &Path) -> Result<HashMap<Spec, (u64, u64)>, String> {
    let jobs = specs
        .iter()
        .map(|s| resolve_spec(&s.to_wire(corpus)))
        .collect::<Result<Vec<EvalJob>, String>>()?;
    let (outcomes, report) = EvalDriver::new(&MachineConfig::paper_2cluster())
        .threads(WORKERS)
        .run_resilient(&jobs, &ResilientOptions::new(), |_, _| {});
    if report.degraded() {
        return Err(format!(
            "direct run_resilient degraded: {}",
            report.summary()
        ));
    }
    specs
        .iter()
        .zip(&outcomes)
        .map(|(s, o)| {
            let stats = o
                .stats
                .as_ref()
                .map_err(|e| format!("direct run of {s:?}: {e}"))?;
            Ok((*s, (stats_digest(stats), stats.committed_uops)))
        })
        .collect()
}

/// The queue-wait buckets `(lower bound µs, count)` recorded between two
/// snapshots of one cumulative histogram: the timed window without the
/// warm-up.
fn window_buckets(before: &Log2Hist, after: &Log2Hist) -> Vec<(u64, u64)> {
    let earlier: HashMap<u64, u64> = before.nonzero_buckets().into_iter().collect();
    after
        .nonzero_buckets()
        .into_iter()
        .map(|(lb, n)| (lb, n - earlier.get(&lb).copied().unwrap_or(0)))
        .collect()
}

/// `Log2Hist::percentile` over bucket counts: the lower bound of the
/// bucket holding the `ceil(q * count)`-th observation; 0 when empty.
fn log2_percentile(buckets: &[(u64, u64)], q: f64) -> u64 {
    let total: u64 = buckets.iter().map(|b| b.1).sum();
    let rank = ((q * total as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for &(lb, n) in buckets {
        seen += n;
        if seen >= rank {
            return lb;
        }
    }
    0
}

pub fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let corpus = std::env::current_dir()
        .map_err(io_err("current dir"))?
        .join(dir);
    mix::write_corpus(&corpus).map_err(io_err("write corpus"))?;

    let (mut rig, setup_s) = repeated_setup(
        |k| setup(args, &corpus, &dir.join(format!("svc{k}.sock"))),
        |rig| teardown(rig).map(drop),
    )?;
    let normal = Priority::Normal as usize;
    let waits_before = rig.server.queue_wait_hists()[normal].clone();

    // Per burst: its rate and its job-time percentiles. Across bursts:
    // the result each distinct spec produced (every later job of the spec
    // must match it; the direct check below covers the rest) and its
    // fastest run.
    let mut rates = Vec::new();
    // Peak live heap per window, median over the windows.
    let mut peaks = Vec::new();
    let mut job_run = WindowPercentiles::default();
    let mut job_best = BestTimes::default();
    let mut observed: HashMap<Spec, (u64, u64)> = HashMap::new();
    let mut reuse = mix::Reuse::new();
    let (mut jobs, mut accepted, mut busy_us) = (0u64, 0u64, 0u64);
    let mut total_len = 0.0;
    let mut replay_specs = Vec::new();
    let start = Instant::now();
    loop {
        heap::reset_peak();
        let b = burst(&mut rig, &corpus)?;
        peaks.push(heap::peak_mb());
        // Reduce and check the burst, then drop it.
        let len = b.len().as_secs_f64();
        total_len += len;
        accepted += b.accepted;
        rates.push(b.done.iter().map(|d| d.committed).sum::<u64>() as f64 / len);
        job_run.add(b.done.iter().map(|d| d.wall_us as f64 / 1e3).collect());
        busy_us += b.done.iter().map(|d| d.wall_us).sum::<u64>();
        for (s, d) in b.specs.iter().zip(&b.done) {
            let first = *observed.entry(*s).or_insert((d.digest, d.committed));
            if first != (d.digest, d.committed) {
                return Err(format!(
                    "ticket {jobs} ({s:?}): digest {:016x} / {} uops differs from an earlier job of the same spec ({:016x} / {} uops)",
                    d.digest, d.committed, first.0, first.1
                ));
            }
            job_best.add(*s, d.wall_us as f64 / 1e3);
            jobs += 1;
            reuse.add(s.program_key());
        }
        if replay_specs.is_empty() {
            replay_specs = b.specs[..REPLAY_JOBS].to_vec();
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let peak_heap = stats::median(&mut peaks);
    let waits_after = rig.server.queue_wait_hists()[normal].clone();

    // Checks, outside the timed window.
    if accepted != jobs {
        return Err(format!("{accepted} Accepted frames for {jobs} submits"));
    }
    let warm_jobs = rig.warm.len() as u64;
    let final_stats = teardown(rig)?;
    let expected_accepted = jobs + warm_jobs;
    if final_stats.accepted != expected_accepted
        || final_stats.completed != final_stats.accepted
        || final_stats.rejected != 0
    {
        return Err(format!(
            "server accounting: accepted {} completed {} rejected {} (expected {expected_accepted} accepted, all completed)",
            final_stats.accepted, final_stats.completed, final_stats.rejected
        ));
    }
    let mut distinct: Vec<Spec> = observed.keys().copied().collect();
    distinct.sort_by_key(|s| format!("{s:?}"));
    let direct = direct_results(&distinct, &corpus)?;
    for s in &distinct {
        let (served, want) = (observed[s], direct[s]);
        if served != want {
            return Err(format!(
                "{s:?}: service digest {:016x} / {} uops != direct run_resilient {:016x} / {} uops",
                served.0, served.1, want.0, want.1
            ));
        }
    }

    let uops_per_s = stats::median(&mut rates);
    let (lo, hi) = (rates[0], rates[rates.len() - 1]);
    let notes = vec![
        format!(
            "{jobs} jobs ({} distinct specs) in {} bursts of {BURST_JOBS} over {total_len:.3} s, median burst {uops_per_s:.0} uops/s (range {lo:.0}-{hi:.0}); every digest == direct run_resilient; accounting exact ({} accepted = completed, 0 busy, 0 failed)",
            distinct.len(),
            rates.len(),
            final_stats.accepted
        ),
        job_run.note("job time on a worker", "burst", "bursts"),
        job_best.note("job time on a worker"),
    ];

    let mut metrics = Metrics::default();
    if !args.trace {
        metrics.push("uops_per_s", uops_per_s, "uops/s");
        metrics.push("job_best_p50_ms", job_best.percentile(0.5), "ms");
        metrics.push("job_best_p90_ms", job_best.percentile(0.9), "ms");
        metrics.push("setup_s", setup_s, "s");
        metrics.push("peak_heap_mb", peak_heap, "MiB");
    } else {
        let replay: Vec<(Input, usize, u64)> = replay_specs
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let submit = Submit {
                    ticket: i as u64,
                    priority: Priority::Normal,
                    deadline_ms: 0,
                    spec: s.to_wire(&corpus),
                };
                (Input::Wire(submit), 0, direct[s].0)
            })
            .collect();
        metrics = layers::replay(&replay, &[MachineConfig::paper_2cluster()], reuse.frac())?;
        let window = window_buckets(&waits_before, &waits_after);
        RunFigures {
            worker_util: busy_us as f64 / 1e6 / (WORKERS as f64 * total_len),
            cell_ms: (job_run.median_p50(), job_run.median_p99()),
            queue_wait_ms: (
                log2_percentile(&window, 0.5) as f64 / 1e3,
                log2_percentile(&window, 0.99) as f64 / 1e3,
            ),
        }
        .push_into(&mut metrics);
    }
    Ok(Outcome {
        attempted: jobs,
        failed: 0,
        metrics,
        notes,
    })
}
