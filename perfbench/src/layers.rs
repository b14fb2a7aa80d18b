//! The traced replay: re-run a workload's jobs one at a time through each
//! layer's public functions, with a span around every call into a layer,
//! and reduce the spans to the per-layer metrics.
//!
//! Spans live in this program, not in the layers: a span is `(job id,
//! layer, start, end)`, and every span other than a `Job` span was caused
//! by the `Job` span of the same id. The replay mirrors what one batch
//! worker does per job (frame and resolve for service jobs, program
//! build, software pass, trace preparation, simulate, digest and result
//! frame) and every replayed job's digest must equal the one the real run
//! produced, so the decomposition cannot drift from the engine's path.
//! Every job is replayed twice, with spans off and on; the wall-time
//! difference is the tracing overhead.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fs::File;
use std::hint::black_box;
use std::io::BufReader;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use virtclust_core::{Configuration, EvalJob};
use virtclust_sim::{RunLimits, SimSession, SimStats};
use virtclust_svc::wire::{
    decode_client, decode_server, encode_client, encode_server, split_frame,
};
use virtclust_svc::{
    resolve_spec, stats_digest, ClientMsg, ServerMsg, Submit, WireResult, WireStats,
};
use virtclust_trace::TraceReader;
use virtclust_uarch::{MachineConfig, Program, TraceSource};
use virtclust_workloads::TraceExpander;

use crate::mix::Kind;
use crate::stats::{median, Metrics};

/// A layer boundary the replay times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    /// The whole job (parent of every other span of the job).
    Job,
    /// svc: encode the submit frame, split it off the byte stream, decode.
    FrameSubmit,
    /// svc: `resolve_spec`.
    Resolve,
    /// workloads: program build (a point's generator; the clone of an
    /// imported kernel or a trace's embedded program).
    Build,
    /// compiler: `SoftwarePass::apply`.
    Pass,
    /// trace: `TraceReader::open` (first job on a file only).
    TraceOpen,
    /// trace: install the annotated program and rewind.
    TracePrep,
    /// sim: `SimSession::simulate`, pulling from the expander or reader.
    Simulate,
    /// svc: `stats_digest`.
    Digest,
    /// svc: encode the result frame, split it, decode.
    FrameResult,
}

struct Span {
    job: u32,
    layer: Layer,
    start: Instant,
    end: Instant,
}

impl Span {
    fn ns(&self) -> f64 {
        (self.end - self.start).as_nanos() as f64
    }
}

/// Records spans when on; when off, runs the timed closures bare.
struct Tracer {
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    fn begin(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    fn end(&mut self, job: u32, layer: Layer, start: Option<Instant>) {
        if let Some(start) = start {
            let end = Instant::now();
            self.spans.push(Span {
                job,
                layer,
                start,
                end,
            });
        }
    }

    fn span<R>(&mut self, job: u32, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start = self.begin();
        let r = f();
        self.end(job, layer, start);
        r
    }
}

/// One job to replay: a wire submit (service workloads, which enter
/// through the svc layers) or an engine job (the matrix, which does not).
pub enum Input {
    Wire(Submit),
    Direct(EvalJob),
}

/// What the replay learned about one job.
struct Facts {
    kind: Kind,
    config: Configuration,
    clusters: u32,
    committed: u64,
    cycles: u64,
    copies: u64,
    skipped: u64,
    digest: u64,
}

/// One replay worker: a session per machine preset and an open reader per
/// trace file, reused across jobs like a batch worker's.
struct Replayer<'a> {
    machines: &'a [MachineConfig],
    sessions: Vec<SimSession>,
    traces: HashMap<PathBuf, (TraceReader<BufReader<File>>, Program)>,
}

fn frame_submit(submit: &Submit) -> Result<Submit, String> {
    let mut buf = Vec::with_capacity(64);
    encode_client(&mut buf, &ClientMsg::Submit(submit.clone())).map_err(|e| e.to_string())?;
    match split_frame(&buf).map_err(|e| e.to_string())? {
        Some((ty, body, used)) if used == buf.len() => {
            match decode_client(ty, &body).map_err(|e| e.to_string())? {
                Some(ClientMsg::Submit(s)) => Ok(s),
                other => Err(format!("submit frame decoded as {other:?}")),
            }
        }
        _ => Err("submit frame did not split whole".into()),
    }
}

fn frame_result(result: WireResult) -> Result<(), String> {
    let msg = ServerMsg::Result(result);
    let mut buf = Vec::with_capacity(64);
    encode_server(&mut buf, &msg).map_err(|e| e.to_string())?;
    match split_frame(&buf).map_err(|e| e.to_string())? {
        Some((ty, body, used)) if used == buf.len() => {
            match decode_server(ty, &body).map_err(|e| e.to_string())? {
                Some(decoded) if decoded == msg => Ok(()),
                other => Err(format!("result frame decoded as {other:?}")),
            }
        }
        _ => Err("result frame did not split whole".into()),
    }
}

impl Replayer<'_> {
    fn job(&mut self, t: &mut Tracer, id: u32, input: &Input, m: usize) -> Result<Facts, String> {
        let job_start = t.begin();
        let resolved;
        let (job, wire) = match input {
            Input::Wire(submit) => {
                let decoded = t.span(id, Layer::FrameSubmit, || frame_submit(submit))?;
                resolved = t.span(id, Layer::Resolve, || resolve_spec(&decoded.spec))?;
                (&resolved, Some(decoded.ticket))
            }
            Input::Direct(job) => (job, None),
        };
        let machine = &self.machines[m];
        let session = &mut self.sessions[m];
        let clusters = machine.num_clusters as u32;
        let config = *job.config();
        let pass = config.software_pass(clusters);
        let mut policy = config.make_policy();
        let (kind, stats) = match job {
            EvalJob::Point { point, uops, .. } => {
                let mut program = t.span(id, Layer::Build, || point.build_program());
                t.span(id, Layer::Pass, || {
                    pass.apply(&mut program, &machine.latencies)
                });
                let stats = t.span(id, Layer::Simulate, || {
                    let mut trace = point.expander(&program);
                    session.simulate(
                        machine,
                        &mut trace,
                        policy.as_mut(),
                        &RunLimits::uops(*uops),
                    )
                });
                (Kind::Point, stats)
            }
            EvalJob::Kernel {
                program,
                params,
                seed,
                uops,
                ..
            } => {
                let mut program = t.span(id, Layer::Build, || program.clone());
                t.span(id, Layer::Pass, || {
                    pass.apply(&mut program, &machine.latencies)
                });
                let stats = t.span(id, Layer::Simulate, || {
                    let mut trace = TraceExpander::new(&program, params, *seed);
                    session.simulate(
                        machine,
                        &mut trace,
                        policy.as_mut(),
                        &RunLimits::uops(*uops),
                    )
                });
                (Kind::Kernel, stats)
            }
            EvalJob::Trace { path, limits, .. } => {
                if !self.traces.contains_key(path) {
                    let reader = t
                        .span(id, Layer::TraceOpen, || TraceReader::open(path))
                        .map_err(|e| format!("open {}: {e}", path.display()))?;
                    let pristine = reader.program().clone();
                    self.traces.insert(path.clone(), (reader, pristine));
                }
                let (reader, pristine) = self.traces.get_mut(path).expect("inserted above");
                let mut program = t.span(id, Layer::Build, || pristine.clone());
                t.span(id, Layer::Pass, || {
                    pass.apply(&mut program, &machine.latencies)
                });
                t.span(id, Layer::TracePrep, || {
                    reader.set_program(program).and_then(|()| reader.rewind())
                })
                .map_err(|e| format!("prepare {}: {e}", path.display()))?;
                let stats = t.span(id, Layer::Simulate, || {
                    session.simulate(machine, reader, policy.as_mut(), limits)
                });
                if let Some(e) = reader.take_error() {
                    return Err(format!("replay {}: {e}", path.display()));
                }
                (Kind::Trace, stats)
            }
        };
        let skipped = session.skip_diag().cycles;
        let wire_digest = wire
            .map(|ticket| {
                let digest = t.span(id, Layer::Digest, || stats_digest(&stats));
                t.span(id, Layer::FrameResult, || {
                    frame_result(wire_result(ticket, &stats, digest))
                })
                .map(|()| digest)
            })
            .transpose()?;
        t.end(id, Layer::Job, job_start);
        Ok(Facts {
            kind,
            config,
            clusters,
            committed: stats.committed_uops,
            cycles: stats.cycles,
            copies: stats.copies_generated,
            skipped,
            // The matrix path computes no digest: take it outside the span.
            digest: wire_digest.unwrap_or_else(|| stats_digest(&stats)),
        })
    }
}

fn wire_result(ticket: u64, stats: &SimStats, digest: u64) -> WireResult {
    WireResult {
        ticket,
        wall_us: 0,
        outcome: Ok(WireStats {
            cycles: stats.cycles,
            committed_uops: stats.committed_uops,
            copies: stats.copies_generated,
            digest,
        }),
    }
}

/// Replay `jobs` (`(input, machine index, expected digest)`) in order on
/// one replay worker, each job twice: with spans off and with spans on,
/// alternating which goes first. A second whole pass ran up to a quarter
/// slower than the first whatever it traced, so the two runs of a job
/// share a worker and a moment instead. Returns the traced runs' facts
/// and spans and the summed untraced and traced walls.
fn replay_both(
    jobs: &[(Input, usize, u64)],
    machines: &[MachineConfig],
) -> Result<(Vec<Facts>, Vec<Span>, Duration, Duration), String> {
    let mut worker = Replayer {
        machines,
        sessions: machines.iter().map(SimSession::new).collect(),
        traces: HashMap::new(),
    };
    let mut bare = Tracer {
        on: false,
        spans: Vec::new(),
    };
    let mut traced = Tracer {
        on: true,
        spans: Vec::with_capacity(jobs.len() * 10),
    };
    let (mut bare_wall, mut traced_wall) = (Duration::ZERO, Duration::ZERO);
    let mut facts = Vec::with_capacity(jobs.len());
    for (id, (input, m, expected)) in jobs.iter().enumerate() {
        let mut run = |t: &mut Tracer, wall: &mut Duration| -> Result<Facts, String> {
            let t0 = Instant::now();
            let f = worker.job(t, id as u32, input, *m)?;
            *wall += t0.elapsed();
            if f.digest != *expected {
                return Err(format!(
                    "replayed job {id} digest {:016x} != run digest {expected:016x}",
                    f.digest
                ));
            }
            Ok(f)
        };
        let f = if id % 2 == 0 {
            run(&mut bare, &mut bare_wall)?;
            run(&mut traced, &mut traced_wall)?
        } else {
            let f = run(&mut traced, &mut traced_wall)?;
            run(&mut bare, &mut bare_wall)?;
            f
        };
        facts.push(f);
    }
    Ok((facts, traced.spans, bare_wall, traced_wall))
}

/// Median duration (in `unit_ns` units) of `layer` spans over the jobs
/// `keep` selects; 0 when none.
fn median_span(
    spans: &[Span],
    facts: &[Facts],
    layer: Layer,
    unit_ns: f64,
    keep: impl Fn(&Facts) -> bool,
) -> f64 {
    let mut v: Vec<f64> = spans
        .iter()
        .filter(|s| s.layer == layer && keep(&facts[s.job as usize]))
        .map(|s| s.ns() / unit_ns)
        .collect();
    median(&mut v)
}

/// The engine job an input stands for (a wire submit resolved as the
/// server would).
fn engine_job(input: &Input) -> Result<Cow<'_, EvalJob>, String> {
    match input {
        Input::Wire(s) => resolve_spec(&s.spec).map(Cow::Owned),
        Input::Direct(job) => Ok(Cow::Borrowed(job)),
    }
}

/// Drain each distinct suite point's expander for its job's budget, with
/// nothing downstream: ns per expanded micro-op.
fn expand_ns_per_uop(jobs: &[Cow<'_, EvalJob>]) -> f64 {
    let mut seen = std::collections::HashSet::new();
    let (mut ns, mut n) = (0.0, 0u64);
    for job in jobs {
        let EvalJob::Point { point, uops, .. } = job.as_ref() else {
            continue;
        };
        if !seen.insert(point.name.clone()) {
            continue;
        }
        let program = point.build_program();
        let mut expander = point.expander(&program);
        let t0 = Instant::now();
        let mut got = 0;
        while got < *uops {
            match expander.next_uop() {
                Some(u) => {
                    black_box(u);
                    got += 1;
                }
                None => break,
            }
        }
        ns += t0.elapsed().as_nanos() as f64;
        n += got;
    }
    if n == 0 {
        0.0
    } else {
        ns / n as f64
    }
}

/// Per codec (`vct`, `vctb`): median open time (µs) and median decode
/// cost (ns per record, reader drained alone) over the trace files.
fn trace_costs(paths: &[PathBuf]) -> Result<[(f64, f64); 2], String> {
    const REPS: usize = 5;
    let mut out = [(0.0, 0.0); 2];
    for (i, ext) in ["vct", "vctb"].into_iter().enumerate() {
        let mut open_us = Vec::new();
        let mut decode_ns = Vec::new();
        for path in paths
            .iter()
            .filter(|p| p.extension().is_some_and(|e| e == ext))
        {
            let err = |e: virtclust_trace::TraceError| format!("{}: {e}", path.display());
            for _ in 0..REPS {
                let t0 = Instant::now();
                let mut reader = TraceReader::open(path).map_err(err)?;
                open_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
                let t1 = Instant::now();
                let mut records = 0u64;
                while let Some(u) = reader.next_record().map_err(err)? {
                    black_box(u);
                    records += 1;
                }
                decode_ns.push(t1.elapsed().as_nanos() as f64 / records.max(1) as f64);
            }
        }
        out[i] = (median(&mut open_us), median(&mut decode_ns));
    }
    Ok(out)
}

const MODEL_SCHEMES: [(&str, Configuration); 5] = [
    ("op", Configuration::Op),
    ("1c", Configuration::OneCluster),
    ("ob", Configuration::Ob),
    ("rhop", Configuration::Rhop),
    ("vc", Configuration::Vc { num_vcs: 2 }),
];

/// Replay `jobs` untraced and traced, check every digest, and return
/// the replay's per-layer metrics. `reuse_frac` is the traffic's
/// prepared-program reuse, computed by the caller over the whole run.
pub fn replay(
    jobs: &[(Input, usize, u64)],
    machines: &[MachineConfig],
    reuse_frac: f64,
) -> Result<Metrics, String> {
    let (facts, spans, bare_wall, traced_wall) = replay_both(jobs, machines)?;

    let sum = |layer: Layer| -> f64 {
        spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(Span::ns)
            .sum()
    };
    let job_ns = sum(Layer::Job);
    let children: f64 = spans
        .iter()
        .filter(|s| s.layer != Layer::Job)
        .map(Span::ns)
        .sum();

    let mut m = Metrics::default();
    for (name, pick) in [
        ("ob", Configuration::Ob),
        ("rhop", Configuration::Rhop),
        ("vc", Configuration::Vc { num_vcs: 2 }),
    ] {
        let v = median_span(&spans, &facts, Layer::Pass, 1e3, |f| {
            std::mem::discriminant(&f.config) == std::mem::discriminant(&pick)
        });
        m.push(format!("compiler.pass_us.{name}"), v, "us");
    }
    m.push(
        "compiler.prepare_share",
        (sum(Layer::Build) + sum(Layer::Pass)) / job_ns,
        "frac",
    );
    m.push("compiler.reuse_frac", reuse_frac, "frac");
    m.push(
        "workloads.build_us",
        median_span(&spans, &facts, Layer::Build, 1e3, |f| f.kind == Kind::Point),
        "us",
    );

    let mut stepped_total = 0u64;
    for c in [2u32, 4, 8] {
        let (mut ns, mut stepped) = (0.0, 0u64);
        for s in spans.iter().filter(|s| s.layer == Layer::Simulate) {
            let f = &facts[s.job as usize];
            if f.clusters == c {
                ns += s.ns();
                stepped += f.cycles - f.skipped;
            }
        }
        stepped_total += stepped;
        let v = if stepped == 0 {
            0.0
        } else {
            ns / stepped as f64
        };
        m.push(format!("sim.ns_per_stepped_cycle.c{c}"), v, "ns");
    }
    m.push("sim.simulate_share", sum(Layer::Simulate) / job_ns, "frac");
    m.push("sim.stepped_cycles", stepped_total as f64, "count");
    m.push(
        "sim.skipped_cycles",
        facts.iter().map(|f| f.skipped).sum::<u64>() as f64,
        "count",
    );

    for (name, kind) in [
        ("point", Kind::Point),
        ("kernel", Kind::Kernel),
        ("trace", Kind::Trace),
    ] {
        let v = median_span(&spans, &facts, Layer::Resolve, 1e3, |f| f.kind == kind);
        m.push(format!("svc.resolve_us.{name}"), v, "us");
    }
    m.push(
        "svc.frame_ns.submit",
        median_span(&spans, &facts, Layer::FrameSubmit, 1.0, |_| true),
        "ns",
    );
    m.push(
        "svc.frame_ns.result",
        median_span(&spans, &facts, Layer::FrameResult, 1.0, |_| true),
        "ns",
    );
    m.push(
        "svc.digest_us",
        median_span(&spans, &facts, Layer::Digest, 1e3, |_| true),
        "us",
    );

    let engine_jobs = jobs
        .iter()
        .map(|(input, _, _)| engine_job(input))
        .collect::<Result<Vec<_>, String>>()?;
    let mut trace_paths: Vec<PathBuf> = engine_jobs
        .iter()
        .filter_map(|job| match job.as_ref() {
            EvalJob::Trace { path, .. } => Some(path.clone()),
            _ => None,
        })
        .collect();
    trace_paths.sort();
    trace_paths.dedup();
    let costs = trace_costs(&trace_paths)?;
    m.push(
        "workloads.expand_ns_per_uop",
        expand_ns_per_uop(&engine_jobs),
        "ns",
    );
    for (i, codec) in ["vct", "vctb"].into_iter().enumerate() {
        m.push(format!("trace.open_us.{codec}"), costs[i].0, "us");
    }
    for (i, codec) in ["vct", "vctb"].into_iter().enumerate() {
        m.push(format!("trace.decode_ns_per_uop.{codec}"), costs[i].1, "ns");
    }

    for (name, config) in MODEL_SCHEMES {
        let (committed, cycles) = model_sums(&facts, config, |f| f.cycles);
        m.push(format!("model.ipc.{name}"), committed / cycles, "uop/cycle");
    }
    for (name, config) in MODEL_SCHEMES {
        let (committed, copies) = model_sums(&facts, config, |f| f.copies);
        m.push(
            format!("model.copies_per_kuop.{name}"),
            copies * 1e3 / committed,
            "count/kuop",
        );
    }

    m.push("bench.span_coverage", children / job_ns, "frac");
    m.push(
        "bench.trace_overhead_frac",
        traced_wall.as_secs_f64() / bare_wall.as_secs_f64() - 1.0,
        "frac",
    );
    m.push("bench.replay_jobs", jobs.len() as f64, "count");
    Ok(m)
}

/// `(Σ committed, Σ field)` over the 2-cluster jobs of `config`.
fn model_sums(facts: &[Facts], config: Configuration, field: impl Fn(&Facts) -> u64) -> (f64, f64) {
    facts
        .iter()
        .filter(|f| f.clusters == 2 && f.config == config)
        .fold((0.0, 0.0), |(a, b), f| {
            (a + f.committed as f64, b + field(f) as f64)
        })
}

/// Figures the timed run itself yields for the per-layer set; fields a
/// workload has no such layer for stay 0.
#[derive(Default)]
pub struct RunFigures {
    /// Worker-busy time over workers × window.
    pub worker_util: f64,
    /// Per-job time on a worker, ms: p50 and p99 per window, median over
    /// the windows.
    pub cell_ms: (f64, f64),
    /// Normal-priority queue wait p50/p99 in ms: log2-bucket lower bounds,
    /// as `Server::queue_wait_hists` reports them.
    pub queue_wait_ms: (f64, f64),
}

impl RunFigures {
    pub fn push_into(self, m: &mut Metrics) {
        m.push("core.worker_util", self.worker_util, "frac");
        m.push("core.cell_ms.p50", self.cell_ms.0, "ms");
        m.push("core.cell_ms.p99", self.cell_ms.1, "ms");
        m.push(
            "svc.queue_wait_ms.normal.p50",
            self.queue_wait_ms.0,
            "ms_log2_lb",
        );
        m.push(
            "svc.queue_wait_ms.normal.p99",
            self.queue_wait_ms.1,
            "ms_log2_lb",
        );
    }
}
