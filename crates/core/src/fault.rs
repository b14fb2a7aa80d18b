//! Deterministic fault injection: a zero-dependency failpoint registry.
//!
//! The batch engine's fault-tolerance machinery (panic isolation, retries,
//! error classification — see [`crate::batch`]) is testable by
//! construction: every seam where the engine touches the outside world is
//! a named **failpoint site** ([`SITES`]) that can be armed with a
//! deterministic, serializable [`FaultSchedule`]. A schedule says *which
//! site* fails, *with what fault* ([`FaultKind`]) and *when*
//! ([`Trigger`]): the Nth hit, every Kth hit, or a seeded per-hit
//! probability. Because the schedule is data (its `Display` form parses
//! back via [`FaultSchedule::parse`]), a chaos test that finds a bug can
//! print the exact schedule that reproduces it.
//!
//! ```text
//! VIRTCLUST_FAILPOINTS="trace.open=io@2,job.run=panic@5"
//! ```
//!
//! arms the process-wide registry from the environment: the second
//! `trace.open` hit fails with a transient I/O error, and the fifth
//! `job.run` hit panics. Syntax per entry: `site=kind@N` (the Nth hit,
//! once), `site=kind%K` (every Kth hit), `site=kind~P:S` (probability `P`
//! per hit, xorshift-seeded with `S` — deterministic per site).
//! Kinds: `io` (transient I/O error — retryable), `corrupt` (permanent
//! data error — not retryable), `panic`.
//!
//! **Disarmed cost is one relaxed atomic load** ([`fire`] checks a global
//! flag before anything else), so production runs pay nothing and the
//! fault-free path stays bit-identical — the golden-stats and
//! skip-vs-step CI gates run with the registry compiled in and disarmed.

use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

use virtclust_trace::TraceError;

/// Failpoint site: opening (and parsing) a trace file.
pub const TRACE_OPEN: &str = "trace.open";
/// Failpoint site: rewinding a trace reader before a replayed cell.
pub const TRACE_REWIND: &str = "trace.rewind";
/// Failpoint site: swapping the annotated program into a trace reader.
pub const TRACE_SET_PROGRAM: &str = "trace.set_program";
/// Failpoint site: the top of every batch job (any [`crate::EvalJob`]
/// kind) — the place to inject job-granular panics and errors.
pub const JOB_RUN: &str = "job.run";
/// Failpoint site: per-attempt worker-state preparation (session reset /
/// quarantine rebuild) — injecting here exercises double-fault handling.
pub const SESSION_RESET: &str = "session.reset";

/// Every named failpoint site, for schedule validation and enumeration.
pub const SITES: [&str; 5] = [
    TRACE_OPEN,
    TRACE_REWIND,
    TRACE_SET_PROGRAM,
    JOB_RUN,
    SESSION_RESET,
];

/// What an armed failpoint injects when its trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A transient I/O error (`io::ErrorKind::Interrupted`) — classified
    /// retryable by [`TraceError::is_transient`].
    Io,
    /// A permanent data error ([`TraceError::Corrupt`]) — not retryable.
    Corrupt,
    /// A panic (`panic!` with a message naming the site and hit number).
    Panic,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Io => write!(f, "io"),
            FaultKind::Corrupt => write!(f, "corrupt"),
            FaultKind::Panic => write!(f, "panic"),
        }
    }
}

/// When an armed failpoint fires, as a function of the site's hit count
/// (1-based) — deterministic for a fixed schedule and hit order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fire on exactly the `N`th hit (once).
    Nth(u64),
    /// Fire on every `K`th hit (hits `K`, `2K`, `3K`, …).
    Every(u64),
    /// Fire with probability `p` per hit, decided by a per-site xorshift
    /// RNG seeded with `seed` — the same schedule replays the same
    /// hit-by-hit decisions.
    Prob {
        /// Per-hit fire probability in `[0, 1]`.
        p: f64,
        /// RNG seed (site-local stream).
        seed: u64,
    },
}

/// One armed failpoint: what to inject and when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// The fault to inject.
    pub kind: FaultKind,
    /// When to inject it.
    pub trigger: Trigger,
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.trigger {
            Trigger::Nth(n) => write!(f, "{}@{n}", self.kind),
            Trigger::Every(k) => write!(f, "{}%{k}", self.kind),
            Trigger::Prob { p, seed } => write!(f, "{}~{p}:{seed}", self.kind),
        }
    }
}

/// A serializable set of `(site, spec)` entries — the unit chaos tests
/// arm, print and replay. `Display` and [`FaultSchedule::parse`] round
/// trip.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSchedule {
    entries: Vec<(String, FaultSpec)>,
}

impl FaultSchedule {
    /// Empty schedule (arming it disarms nothing but fires nothing).
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Add an entry (builder style). Unknown sites are rejected by
    /// [`FaultSchedule::parse`] but allowed here for forward
    /// compatibility of programmatic schedules.
    #[must_use]
    pub fn with(mut self, site: &str, spec: FaultSpec) -> Self {
        self.entries.push((site.to_string(), spec));
        self
    }

    /// The `(site, spec)` entries in insertion order.
    pub fn entries(&self) -> &[(String, FaultSpec)] {
        &self.entries
    }

    /// Whether the schedule has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Parse the `site=kind@N,site=kind%K,site=kind~P:S` form (the
    /// `VIRTCLUST_FAILPOINTS` syntax). Whitespace around entries is
    /// ignored; an empty string parses to the empty schedule. Sites must
    /// be in [`SITES`]; `N`/`K` must be ≥ 1; `P` must be in `[0, 1]`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut schedule = FaultSchedule::new();
        for raw in s.split(',') {
            let entry = raw.trim();
            if entry.is_empty() {
                continue;
            }
            let (site, rest) = entry
                .split_once('=')
                .ok_or_else(|| format!("failpoint entry `{entry}` is missing `=`"))?;
            let site = site.trim();
            if !SITES.contains(&site) {
                return Err(format!(
                    "unknown failpoint site `{site}` (known: {})",
                    SITES.join(", ")
                ));
            }
            let spec = Self::parse_spec(rest.trim())
                .map_err(|e| format!("failpoint entry `{entry}`: {e}"))?;
            schedule.entries.push((site.to_string(), spec));
        }
        Ok(schedule)
    }

    fn parse_spec(s: &str) -> Result<FaultSpec, String> {
        let (kind_str, trigger) = if let Some((k, n)) = s.split_once('@') {
            let n: u64 = n.parse().map_err(|_| format!("bad hit count `{n}`"))?;
            if n == 0 {
                return Err("hit counts are 1-based; `@0` never fires".into());
            }
            (k, Trigger::Nth(n))
        } else if let Some((k, every)) = s.split_once('%') {
            let every: u64 = every.parse().map_err(|_| format!("bad period `{every}`"))?;
            if every == 0 {
                return Err("`%0` is not a period".into());
            }
            (k, Trigger::Every(every))
        } else if let Some((k, prob)) = s.split_once('~') {
            let (p, seed) = prob
                .split_once(':')
                .ok_or_else(|| format!("`~{prob}` is missing its `:seed`"))?;
            let p: f64 = p.parse().map_err(|_| format!("bad probability `{p}`"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("probability {p} outside [0, 1]"));
            }
            let seed: u64 = seed.parse().map_err(|_| format!("bad seed `{seed}`"))?;
            (k, Trigger::Prob { p, seed })
        } else {
            return Err(format!("`{s}` has no trigger (`@N`, `%K` or `~P:S`)"));
        };
        let kind = match kind_str.trim() {
            "io" => FaultKind::Io,
            "corrupt" => FaultKind::Corrupt,
            "panic" => FaultKind::Panic,
            other => return Err(format!("unknown fault kind `{other}`")),
        };
        Ok(FaultSpec { kind, trigger })
    }

    /// Parse `VIRTCLUST_FAILPOINTS`, if set. `Ok(None)` when unset or
    /// empty.
    pub fn from_env() -> Result<Option<Self>, String> {
        match std::env::var("VIRTCLUST_FAILPOINTS") {
            Ok(v) if !v.trim().is_empty() => Self::parse(&v).map(Some),
            _ => Ok(None),
        }
    }
}

impl fmt::Display for FaultSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (site, spec)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{site}={spec}")?;
        }
        Ok(())
    }
}

/// Per-site armed state: the spec plus the deterministic evaluation
/// state (hit counter, RNG).
#[derive(Debug)]
struct SiteState {
    site: String,
    spec: FaultSpec,
    hits: u64,
    rng: u64,
}

impl SiteState {
    /// Evaluate one hit; returns the fault to inject, if the trigger
    /// fires, plus the (1-based) hit number for the injected message.
    fn hit(&mut self) -> Option<(FaultKind, u64)> {
        self.hits += 1;
        let fire = match self.spec.trigger {
            Trigger::Nth(n) => self.hits == n,
            Trigger::Every(k) => self.hits.is_multiple_of(k),
            Trigger::Prob { p, .. } => {
                // xorshift64*: deterministic per-site stream.
                self.rng ^= self.rng << 13;
                self.rng ^= self.rng >> 7;
                self.rng ^= self.rng << 17;
                let unit = (self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64
                    / (1u64 << 53) as f64;
                unit < p
            }
        };
        fire.then_some((self.spec.kind, self.hits))
    }
}

/// Global registry. `ARMED` is the disarmed-path gate: one relaxed load.
static ARMED: AtomicBool = AtomicBool::new(false);
/// When set (env/CLI arming), every thread sees the schedule. When clear
/// (scoped test arming), only threads that opted in via [`participate`]
/// do — so chaos tests cannot trip unrelated tests running concurrently
/// in the same process.
static GLOBAL_SCOPE: AtomicBool = AtomicBool::new(false);
static REGISTRY: Mutex<Vec<SiteState>> = Mutex::new(Vec::new());
static INJECTED: Mutex<u64> = Mutex::new(0);

thread_local! {
    static PARTICIPATES: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Serializes chaos tests (and any other scoped arming) so concurrent
/// tests in one process cannot observe each other's schedules.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn lock<T>(m: &'static Mutex<T>) -> MutexGuard<'static, T> {
    // Poison-tolerant by design: injected panics run concurrently with
    // registry reads, and a poisoned registry is still structurally valid.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Arm the registry with `schedule` in **thread-scoped** mode, replacing
/// any previous one: only threads that [`participate`] (and batch workers
/// they spawn — the engine propagates participation) evaluate the
/// schedule. Hit counters and RNGs start fresh. Prefer
/// [`ScopedFaults::arm`] in tests — it also handles participation and
/// serialization.
pub fn arm(schedule: &FaultSchedule) {
    arm_with_scope(schedule, false);
}

/// Arm the registry with `schedule` for **every** thread in the process —
/// the CLI/env form (`VIRTCLUST_FAILPOINTS`, `--chaos`), where the whole
/// process is the chaos experiment.
pub fn arm_global(schedule: &FaultSchedule) {
    arm_with_scope(schedule, true);
}

fn arm_with_scope(schedule: &FaultSchedule, global: bool) {
    let mut reg = lock(&REGISTRY);
    reg.clear();
    for (site, spec) in schedule.entries() {
        let seed = match spec.trigger {
            Trigger::Prob { seed, .. } => seed | 1, // xorshift needs ≠ 0
            _ => 1,
        };
        reg.push(SiteState {
            site: site.clone(),
            spec: *spec,
            hits: 0,
            rng: seed,
        });
    }
    *lock(&INJECTED) = 0;
    GLOBAL_SCOPE.store(global, Ordering::Relaxed);
    ARMED.store(!reg.is_empty(), Ordering::Relaxed);
}

/// Arm globally from `VIRTCLUST_FAILPOINTS`, if set. Returns the parsed
/// schedule when one was armed. CLIs call this once at startup.
pub fn arm_from_env() -> Result<Option<FaultSchedule>, String> {
    let schedule = FaultSchedule::from_env()?;
    if let Some(s) = &schedule {
        arm_global(s);
    }
    Ok(schedule)
}

/// Disarm every failpoint. The next [`fire`] is back to one relaxed load.
pub fn disarm() {
    ARMED.store(false, Ordering::Relaxed);
    GLOBAL_SCOPE.store(false, Ordering::Relaxed);
    lock(&REGISTRY).clear();
}

/// Whether any failpoint is armed.
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Whether the *current thread* would evaluate an armed schedule: true
/// under global arming, or when this thread opted in.
pub fn participating() -> bool {
    GLOBAL_SCOPE.load(Ordering::Relaxed) || PARTICIPATES.with(|p| p.get())
}

/// Opt the current thread in or out of a thread-scoped schedule. The
/// batch engine calls this on worker threads with the spawning thread's
/// [`participating`] value, so a chaos test's workers see its schedule
/// while unrelated concurrent work does not.
pub fn participate(yes: bool) {
    PARTICIPATES.with(|p| p.set(yes));
}

/// Total faults injected since the registry was last armed (all sites,
/// all kinds — including panics).
pub fn injected_count() -> u64 {
    *lock(&INJECTED)
}

/// Evaluate the failpoint at `site`.
///
/// Disarmed (the common case): **one relaxed atomic load**, then
/// `Ok(())`. Armed: counts the hit and, when the trigger fires, injects
/// the scheduled fault — `Err` with a transient I/O [`TraceError`]
/// (`FaultKind::Io`), `Err` with a permanent [`TraceError::Corrupt`]
/// (`FaultKind::Corrupt`), or a `panic!` naming the site and hit number
/// (`FaultKind::Panic`).
#[inline]
pub fn fire(site: &str) -> Result<(), TraceError> {
    if !ARMED.load(Ordering::Relaxed) {
        return Ok(());
    }
    fire_armed(site)
}

#[cold]
fn fire_armed(site: &str) -> Result<(), TraceError> {
    if !participating() {
        return Ok(());
    }
    let fired = {
        let mut reg = lock(&REGISTRY);
        let Some(state) = reg.iter_mut().find(|s| s.site == site) else {
            return Ok(());
        };
        state.hit()
    };
    let Some((kind, hit)) = fired else {
        return Ok(());
    };
    *lock(&INJECTED) += 1;
    match kind {
        FaultKind::Io => Err(TraceError::Io(io::Error::new(
            io::ErrorKind::Interrupted,
            format!("injected transient i/o fault at {site} (hit {hit})"),
        ))),
        FaultKind::Corrupt => Err(TraceError::Corrupt(format!(
            "injected permanent fault at {site} (hit {hit})"
        ))),
        FaultKind::Panic => panic!("injected panic at {site} (hit {hit})"),
    }
}

/// RAII scoped arming for tests: holds a process-wide exclusivity lock
/// (so chaos tests serialize instead of corrupting each other's
/// schedules), arms on construction, disarms on drop.
#[must_use = "dropping the guard disarms the schedule immediately"]
pub struct ScopedFaults {
    _excl: MutexGuard<'static, ()>,
}

impl ScopedFaults {
    /// Take the exclusivity lock, arm `schedule` thread-scoped, and opt
    /// the current thread in.
    pub fn arm(schedule: &FaultSchedule) -> Self {
        let excl = EXCLUSIVE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        arm(schedule);
        participate(true);
        ScopedFaults { _excl: excl }
    }
}

impl Drop for ScopedFaults {
    fn drop(&mut self) {
        participate(false);
        disarm();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(kind: FaultKind, trigger: Trigger) -> FaultSpec {
        FaultSpec { kind, trigger }
    }

    #[test]
    fn schedule_display_parse_round_trips() {
        let s = FaultSchedule::new()
            .with(TRACE_OPEN, spec(FaultKind::Io, Trigger::Nth(2)))
            .with(JOB_RUN, spec(FaultKind::Panic, Trigger::Every(5)))
            .with(
                TRACE_REWIND,
                spec(FaultKind::Corrupt, Trigger::Prob { p: 0.25, seed: 9 }),
            );
        let text = s.to_string();
        assert_eq!(
            text,
            "trace.open=io@2,job.run=panic%5,trace.rewind=corrupt~0.25:9"
        );
        assert_eq!(FaultSchedule::parse(&text).unwrap(), s);
    }

    #[test]
    fn parse_matches_the_issue_env_example() {
        let s = FaultSchedule::parse("trace.open=io@2,job.run=panic@5").unwrap();
        assert_eq!(s.entries().len(), 2);
        assert_eq!(
            s.entries()[0],
            (TRACE_OPEN.to_string(), spec(FaultKind::Io, Trigger::Nth(2)))
        );
        assert_eq!(
            s.entries()[1],
            (JOB_RUN.to_string(), spec(FaultKind::Panic, Trigger::Nth(5)))
        );
    }

    #[test]
    fn parse_rejects_unknown_sites_kinds_and_degenerate_triggers() {
        assert!(FaultSchedule::parse("bogus.site=io@1").is_err());
        assert!(FaultSchedule::parse("job.run=meteor@1").is_err());
        assert!(FaultSchedule::parse("job.run=io@0").is_err());
        assert!(FaultSchedule::parse("job.run=io%0").is_err());
        assert!(FaultSchedule::parse("job.run=io~1.5:1").is_err());
        assert!(FaultSchedule::parse("job.run=io~0.5").is_err(), "no seed");
        assert!(FaultSchedule::parse("job.run=io").is_err(), "no trigger");
        assert!(FaultSchedule::parse("job.run").is_err(), "no =");
        assert_eq!(FaultSchedule::parse("").unwrap(), FaultSchedule::new());
    }

    #[test]
    fn nth_trigger_fires_exactly_once_and_is_transient() {
        let _guard = ScopedFaults::arm(
            &FaultSchedule::new().with(TRACE_OPEN, spec(FaultKind::Io, Trigger::Nth(2))),
        );
        assert!(fire(TRACE_OPEN).is_ok(), "hit 1 passes");
        let err = fire(TRACE_OPEN).expect_err("hit 2 fails");
        assert!(
            err.is_transient(),
            "injected io faults are transient: {err}"
        );
        assert!(err.to_string().contains("trace.open"), "{err}");
        assert!(fire(TRACE_OPEN).is_ok(), "hit 3 passes again");
        assert!(fire(TRACE_REWIND).is_ok(), "other sites never fire");
        assert_eq!(injected_count(), 1);
    }

    #[test]
    fn every_trigger_fires_periodically_and_corrupt_is_permanent() {
        let _guard = ScopedFaults::arm(
            &FaultSchedule::new().with(JOB_RUN, spec(FaultKind::Corrupt, Trigger::Every(3))),
        );
        let outcomes: Vec<bool> = (0..9).map(|_| fire(JOB_RUN).is_err()).collect();
        assert_eq!(
            outcomes,
            [false, false, true, false, false, true, false, false, true]
        );
        let err = {
            // Re-arm to get a fresh counter, then step to the firing hit.
            arm(&FaultSchedule::new().with(JOB_RUN, spec(FaultKind::Corrupt, Trigger::Every(1))));
            fire(JOB_RUN).expect_err("every-1 fires immediately")
        };
        assert!(!err.is_transient(), "corrupt faults are permanent: {err}");
    }

    #[test]
    fn prob_trigger_is_deterministic_for_a_seed() {
        let schedule = FaultSchedule::new().with(
            SESSION_RESET,
            spec(FaultKind::Io, Trigger::Prob { p: 0.5, seed: 42 }),
        );
        let run = || -> Vec<bool> {
            let _guard = ScopedFaults::arm(&schedule);
            (0..64).map(|_| fire(SESSION_RESET).is_err()).collect()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same hit-by-hit decisions");
        let fired = a.iter().filter(|&&f| f).count();
        assert!(
            (8..=56).contains(&fired),
            "p=0.5 over 64 hits fired {fired} times — degenerate RNG"
        );
    }

    #[test]
    fn scoped_arming_is_invisible_to_non_participating_threads() {
        let _guard = ScopedFaults::arm(
            &FaultSchedule::new().with(JOB_RUN, spec(FaultKind::Io, Trigger::Every(1))),
        );
        assert!(fire(JOB_RUN).is_err(), "the arming thread participates");
        let outsider = std::thread::spawn(|| fire(JOB_RUN).is_ok()).join().unwrap();
        assert!(outsider, "other threads never see a thread-scoped schedule");
        let insider = std::thread::spawn(|| {
            participate(true);
            fire(JOB_RUN).is_err()
        })
        .join()
        .unwrap();
        assert!(insider, "threads that opt in do");
    }

    #[test]
    fn env_style_global_arming_reaches_every_thread() {
        // The empty scoped guard only serializes against other fault tests.
        let _guard = ScopedFaults::arm(&FaultSchedule::new());
        arm_global(&FaultSchedule::new().with(JOB_RUN, spec(FaultKind::Io, Trigger::Every(1))));
        let outsider = std::thread::spawn(|| fire(JOB_RUN).is_err())
            .join()
            .unwrap();
        assert!(
            outsider,
            "global arming reaches threads that never opted in"
        );
    }

    #[test]
    fn disarmed_registry_never_fires() {
        // Holding the guard (empty schedule = disarmed) keeps concurrent
        // fault tests from re-arming under us.
        let _guard = ScopedFaults::arm(&FaultSchedule::new());
        for site in SITES {
            assert!(fire(site).is_ok());
        }
        assert!(!armed());
    }

    #[test]
    #[should_panic(expected = "injected panic at job.run (hit 1)")]
    fn panic_kind_panics_with_site_and_hit() {
        let _guard = ScopedFaults::arm(
            &FaultSchedule::new().with(JOB_RUN, spec(FaultKind::Panic, Trigger::Nth(1))),
        );
        let _ = fire(JOB_RUN);
    }
}
