//! Seeded job schedules and the on-disk corpus the service jobs read.
//!
//! The program under test only ever sees the wire specs generated here:
//! which suite point, scheme, kernel, kernel seed or trace file each job
//! uses, and in which order, is drawn from the workload seed.

use std::collections::HashSet;
use std::hash::Hash;
use std::path::Path;

use virtclust_svc::JobSpec;

/// The service mix's suite points (the `loadgen` set).
pub const POINTS: [&str; 12] = [
    "gzip-1", "gcc-1", "mcf", "crafty", "eon-1", "vpr-2", "galgel", "swim", "mesa", "art-1",
    "sixtrack", "equake",
];
/// Wire names of the Table 3 schemes on the 2-cluster preset, in
/// `Configuration::table3()` order.
pub const SCHEMES: [&str; 5] = ["OP", "1C", "OB", "RHOP", "VC2"];
/// Stored traces replayed by trace jobs (three text, one binary).
pub const TRACES: [&str; 4] = ["smoke8.vct", "dotprod.vct", "gzip-1.vct", "galgel.vctb"];
/// Kernel files expanded by kernel jobs.
pub const KERNELS: [&str; 2] = ["dotprod.kernel", "smoke8.kernel"];
/// Kernel expansion seeds are drawn from `0..KERNEL_SEEDS`.
pub const KERNEL_SEEDS: u8 = 16;
/// Micro-op budget of every service job (trace jobs stop at the end of
/// their stream when it is shorter).
pub const JOB_UOPS: u64 = 2_000;

/// The committed corpus, embedded at build time so the benchmark finds it
/// whatever its working directory is.
const CORPUS: [(&str, &[u8]); 6] = [
    (
        "smoke8.vct",
        include_bytes!("../../results/traces/smoke8.vct"),
    ),
    (
        "dotprod.vct",
        include_bytes!("../../results/traces/dotprod.vct"),
    ),
    (
        "gzip-1.vct",
        include_bytes!("../../results/traces/gzip-1.vct"),
    ),
    (
        "galgel.vctb",
        include_bytes!("../../results/traces/galgel.vctb"),
    ),
    (
        "dotprod.kernel",
        include_bytes!("../../results/traces/dotprod.kernel"),
    ),
    (
        "smoke8.kernel",
        include_bytes!("../../results/traces/smoke8.kernel"),
    ),
];

/// Write the corpus into `dir`.
pub fn write_corpus(dir: &Path) -> std::io::Result<()> {
    for (name, bytes) in CORPUS {
        std::fs::write(dir.join(name), bytes)?;
    }
    Ok(())
}

/// SplitMix64: a small, fixed generator, so a seed means the same
/// schedule on every commit.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n is tiny, so the modulo bias is immaterial
    /// and, more to the point, fixed).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// One service job, by index into the tables above.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Spec {
    Point { point: u8, scheme: u8 },
    Kernel { kernel: u8, seed: u8, scheme: u8 },
    Trace { trace: u8, scheme: u8 },
}

/// The job kinds, for per-kind metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    Point,
    Kernel,
    Trace,
}

impl Spec {
    pub fn scheme(self) -> usize {
        match self {
            Spec::Point { scheme, .. }
            | Spec::Kernel { scheme, .. }
            | Spec::Trace { scheme, .. } => scheme as usize,
        }
    }

    /// The prepared-program key: what a compile-time pass result depends
    /// on (source and scheme; the cluster count and latencies are fixed
    /// per workload). A kernel's expansion seed is not part of it.
    pub fn program_key(self) -> (Kind, u8, u8) {
        match self {
            Spec::Point { point, scheme } => (Kind::Point, point, scheme),
            Spec::Kernel { kernel, scheme, .. } => (Kind::Kernel, kernel, scheme),
            Spec::Trace { trace, scheme } => (Kind::Trace, trace, scheme),
        }
    }

    /// The wire spec, with corpus paths under `corpus`.
    pub fn to_wire(self, corpus: &Path) -> JobSpec {
        let path = |name: &str| corpus.join(name).to_string_lossy().into_owned();
        let scheme = SCHEMES[self.scheme()].to_string();
        match self {
            Spec::Point { point, .. } => JobSpec::Point {
                name: POINTS[point as usize].to_string(),
                scheme,
                uops: JOB_UOPS,
            },
            Spec::Kernel { kernel, seed, .. } => JobSpec::Kernel {
                path: path(KERNELS[kernel as usize]),
                seed: u64::from(seed),
                scheme,
                uops: JOB_UOPS,
            },
            Spec::Trace { trace, .. } => JobSpec::Trace {
                path: path(TRACES[trace as usize]),
                scheme,
                max_uops: JOB_UOPS,
            },
        }
    }
}

/// `n` jobs of the service mix: every block of ten holds exactly eight
/// suite points, one kernel expansion and one trace replay, in seeded
/// order; point, scheme, kernel, kernel seed and trace are uniform draws.
pub fn service_schedule(rng: &mut Rng, n: usize) -> Vec<Spec> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut block = [Kind::Point; 10];
        block[8] = Kind::Kernel;
        block[9] = Kind::Trace;
        rng.shuffle(&mut block);
        for kind in block {
            let scheme = rng.below(SCHEMES.len()) as u8;
            out.push(match kind {
                Kind::Point => Spec::Point {
                    point: rng.below(POINTS.len()) as u8,
                    scheme,
                },
                Kind::Kernel => Spec::Kernel {
                    kernel: rng.below(KERNELS.len()) as u8,
                    seed: rng.below(KERNEL_SEEDS as usize) as u8,
                    scheme,
                },
                Kind::Trace => Spec::Trace {
                    trace: rng.below(TRACES.len()) as u8,
                    scheme,
                },
            });
        }
    }
    out.truncate(n);
    out
}

/// One job per prepared-program key of the service mix (90 keys), in
/// seeded order: the warm-up pass.
pub fn every_key(rng: &mut Rng) -> Vec<Spec> {
    let mut out = Vec::new();
    for scheme in 0..SCHEMES.len() as u8 {
        out.extend((0..POINTS.len() as u8).map(|point| Spec::Point { point, scheme }));
        out.extend((0..TRACES.len() as u8).map(|trace| Spec::Trace { trace, scheme }));
        out.extend((0..KERNELS.len() as u8).map(|kernel| Spec::Kernel {
            kernel,
            seed: 0,
            scheme,
        }));
    }
    rng.shuffle(&mut out);
    out
}

/// Counts the jobs whose prepared-program key repeats an earlier job's:
/// the hit-rate ceiling of a prepared-program cache on this traffic.
pub struct Reuse<K> {
    seen: HashSet<K>,
    jobs: u64,
    repeats: u64,
}

impl<K: Hash + Eq> Reuse<K> {
    pub fn new() -> Self {
        Reuse {
            seen: HashSet::new(),
            jobs: 0,
            repeats: 0,
        }
    }

    pub fn add(&mut self, key: K) {
        self.jobs += 1;
        self.repeats += u64::from(!self.seen.insert(key));
    }

    /// Share of the jobs so far that repeat a key; 0 before any job.
    pub fn frac(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.repeats as f64 / self.jobs as f64
        }
    }
}
