//! The cycle-level clustered out-of-order machine (Fig. 1 of the paper).
//!
//! ```text
//!        ┌──────────────────────────────────────────────┐
//!        │        monolithic front-end                  │
//!        │  trace cache → fetch → decode/rename/steer   │
//!        └───────┬───────────────┬──────────────────────┘
//!                ▼               ▼
//!        ┌──────────────┐ ┌──────────────┐
//!        │  cluster 0   │ │  cluster 1   │   … (per cluster: INT/FP/COPY
//!        │ IQs RF FUs   │◄┤ IQs RF FUs   │      issue queues, register
//!        └──────┬───────┘ └──────┬───────┘      files, functional units)
//!               │    point-to-point copy links
//!               ▼                ▼
//!        ┌──────────────────────────────┐
//!        │ unified LSQ + L1D + L2 + mem │
//!        └──────────────────────────────┘
//! ```
//!
//! One [`SimSession::step`] is one cycle — or, when the machine is
//! provably idle, one *span* of cycles skipped in O(1) with bit-identical
//! statistics. Stage order within a cycle (standard reverse-pipeline
//! update): completion events → commit → store drain → memory stage →
//! issue → dispatch/steer → fetch.
//!
//! The pipeline itself lives in [`crate::session::SimSession`], which owns
//! all heap state and can be reset and reused across runs. This module
//! holds the run-length limits and [`simulate`], the one-off run over a
//! fresh session. Batch workloads (many cells, one process) should hold a
//! `SimSession` and call [`SimSession::simulate`] per cell instead.

use virtclust_uarch::{MachineConfig, TraceSource};

use crate::session::SimSession;
use crate::stats::SimStats;
use crate::steering::SteeringPolicy;

/// Run-length limits for a simulation.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunLimits {
    /// Stop fetching after this many trace micro-ops (then drain).
    pub max_uops: Option<u64>,
    /// Hard cycle limit (simulation aborts cleanly when reached).
    pub max_cycles: Option<u64>,
}

impl RunLimits {
    /// Limit by micro-op count only.
    pub fn uops(n: u64) -> Self {
        RunLimits {
            max_uops: Some(n),
            max_cycles: None,
        }
    }

    /// No limits: run the whole trace.
    pub fn unlimited() -> Self {
        RunLimits::default()
    }
}

/// Simulate `trace` on the machine described by `cfg` under `policy`.
///
/// This is the main entry point of the crate for one-off runs. For many
/// runs in one process, hold a [`SimSession`] and call
/// [`SimSession::simulate`] per run — bit-identical results, without the
/// per-run allocation cost.
pub fn simulate(
    cfg: &MachineConfig,
    trace: &mut dyn TraceSource,
    policy: &mut dyn SteeringPolicy,
    limits: &RunLimits,
) -> SimStats {
    SimSession::new(cfg).run(trace, policy, limits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steering::{SteerDecision, SteerView};
    use virtclust_uarch::{ArchReg, DynUop, Region, RegionBuilder, SliceTrace};

    /// Steer everything to cluster 0.
    struct ToZero;
    impl SteeringPolicy for ToZero {
        fn name(&self) -> String {
            "to-zero".into()
        }
        fn steer(&mut self, _uop: &DynUop, _view: &SteerView<'_>) -> SteerDecision {
            SteerDecision::Cluster(0)
        }
    }

    /// Round-robin per uop (maximally copy-happy).
    struct RoundRobin(u8);
    impl SteeringPolicy for RoundRobin {
        fn name(&self) -> String {
            "round-robin".into()
        }
        fn steer(&mut self, _uop: &DynUop, view: &SteerView<'_>) -> SteerDecision {
            let c = self.0;
            self.0 = (self.0 + 1) % view.num_clusters() as u8;
            SteerDecision::Cluster(c)
        }
        fn reset(&mut self) {
            self.0 = 0;
        }
    }

    fn r(i: u8) -> ArchReg {
        ArchReg::int(i)
    }

    fn expand(region: &Region, iters: usize) -> Vec<DynUop> {
        let mut uops = Vec::new();
        let mut seq = 0;
        for _ in 0..iters {
            seq = virtclust_uarch::trace::expand_region(
                region,
                seq,
                &mut uops,
                |s, _| 0x1000 + (s % 64) * 8,
                |_, _| true,
            );
        }
        uops
    }

    fn alu_chain_region(len: usize) -> Region {
        let mut b = RegionBuilder::new(0, "chain");
        for _ in 0..len {
            b = b.alu(r(1), &[r(1)]);
        }
        b.build()
    }

    #[test]
    fn single_dependent_chain_runs_at_ipc_one_ish() {
        let region = alu_chain_region(8);
        let uops = expand(&region, 100);
        let total = uops.len() as u64;
        let mut trace = SliceTrace::new(&uops);
        let stats = simulate(
            &MachineConfig::default(),
            &mut trace,
            &mut ToZero,
            &RunLimits::unlimited(),
        );
        assert_eq!(stats.committed_uops, total);
        assert_eq!(stats.copies_generated, 0, "everything in one cluster");
        // A fully serial chain commits ~1 uop/cycle at best.
        assert!(stats.ipc() <= 1.05, "ipc={}", stats.ipc());
        assert!(stats.ipc() > 0.5, "ipc={}", stats.ipc());
    }

    #[test]
    fn independent_chains_to_one_cluster_limited_by_issue_width() {
        // 5 independent chains; one cluster can only issue 2 INT/cycle.
        let mut b = RegionBuilder::new(0, "par5");
        for reg in 1..=5u8 {
            b = b.alu(r(reg), &[r(reg)]);
        }
        let region = b.build();
        let uops = expand(&region, 200);
        let mut trace = SliceTrace::new(&uops);
        let one = simulate(
            &MachineConfig::default(),
            &mut trace,
            &mut ToZero,
            &RunLimits::unlimited(),
        );
        assert!(
            one.ipc() <= 2.05,
            "single cluster INT issue width is 2, ipc={}",
            one.ipc()
        );

        // Round-robin over 2 clusters with 5 (odd) uops per iteration makes
        // every chain alternate clusters each iteration, forcing copies,
        // but the program still completes identically.
        let mut trace = SliceTrace::new(&uops);
        let two = simulate(
            &MachineConfig::default(),
            &mut trace,
            &mut RoundRobin(0),
            &RunLimits::unlimited(),
        );
        assert_eq!(two.committed_uops, one.committed_uops);
        assert!(
            two.copies_generated > 0,
            "round robin over odd stride must copy"
        );
    }

    #[test]
    fn copies_are_generated_and_delivered_exactly() {
        let region = alu_chain_region(4);
        let uops = expand(&region, 50);
        let mut trace = SliceTrace::new(&uops);
        let stats = simulate(
            &MachineConfig::default(),
            &mut trace,
            &mut RoundRobin(0),
            &RunLimits::unlimited(),
        );
        // A serial chain bouncing between clusters needs one copy per hop.
        assert!(stats.copies_generated > 0);
        assert_eq!(
            stats.copies_generated, stats.copies_delivered,
            "all generated copies must eventually be delivered"
        );
    }

    #[test]
    fn loads_and_stores_complete_and_hit_cache() {
        let region = RegionBuilder::new(0, "mem")
            .alu(r(1), &[r(1)])
            .load(r(2), r(1))
            .store(r(1), r(2))
            .build();
        let uops = expand(&region, 100);
        let total = uops.len() as u64;
        let mut trace = SliceTrace::new(&uops);
        let stats = simulate(
            &MachineConfig::default(),
            &mut trace,
            &mut ToZero,
            &RunLimits::unlimited(),
        );
        assert_eq!(stats.committed_uops, total);
        assert!(stats.l1_hits + stats.l1_misses + stats.store_forwards > 0);
        // Working set is 64 lines -> overwhelmingly hits after warmup.
        assert!(stats.l1_hit_rate() > 0.5 || stats.store_forwards > 50);
    }

    #[test]
    fn branch_mispredicts_cost_cycles() {
        // Branch outcome alternates with a LCG pattern -> mispredicts.
        let region = RegionBuilder::new(0, "br")
            .alu(r(1), &[r(1)])
            .branch(r(1))
            .build();
        let mut uops = Vec::new();
        let mut seq = 0;
        let mut x = 1u64;
        for _ in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let taken = (x >> 62) & 1 == 1;
            seq = virtclust_uarch::trace::expand_region(
                &region,
                seq,
                &mut uops,
                |_, _| 0,
                |_, _| taken,
            );
        }
        let mut trace = SliceTrace::new(&uops);
        let noisy = simulate(
            &MachineConfig::default(),
            &mut trace,
            &mut ToZero,
            &RunLimits::unlimited(),
        );
        assert!(noisy.branches == 500);
        assert!(
            noisy.mispredicts > 50,
            "random-ish stream should mispredict"
        );

        // Same region, always-taken -> almost no mispredicts, fewer cycles.
        let mut uops2 = Vec::new();
        let mut seq = 0;
        for _ in 0..500 {
            seq = virtclust_uarch::trace::expand_region(
                &region,
                seq,
                &mut uops2,
                |_, _| 0,
                |_, _| true,
            );
        }
        let mut trace = SliceTrace::new(&uops2);
        let clean = simulate(
            &MachineConfig::default(),
            &mut trace,
            &mut ToZero,
            &RunLimits::unlimited(),
        );
        assert!(clean.mispredicts < 20);
        assert!(clean.cycles < noisy.cycles);
    }

    #[test]
    fn determinism_same_inputs_same_stats() {
        let region = alu_chain_region(5);
        let uops = expand(&region, 80);
        let run = || {
            let mut trace = SliceTrace::new(&uops);
            simulate(
                &MachineConfig::default(),
                &mut trace,
                &mut RoundRobin(0),
                &RunLimits::unlimited(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn max_uops_limit_truncates() {
        let region = alu_chain_region(4);
        let uops = expand(&region, 100);
        let mut trace = SliceTrace::new(&uops);
        let stats = simulate(
            &MachineConfig::default(),
            &mut trace,
            &mut ToZero,
            &RunLimits::uops(40),
        );
        assert_eq!(stats.committed_uops, 40);
    }

    #[test]
    fn max_cycles_limit_stops_cleanly() {
        let region = alu_chain_region(4);
        let uops = expand(&region, 1000);
        let mut trace = SliceTrace::new(&uops);
        let stats = simulate(
            &MachineConfig::default(),
            &mut trace,
            &mut ToZero,
            &RunLimits {
                max_uops: None,
                max_cycles: Some(50),
            },
        );
        assert_eq!(stats.cycles, 50);
        assert!(stats.committed_uops < 1000);
    }

    #[test]
    fn four_cluster_machine_runs() {
        let region = alu_chain_region(6);
        let uops = expand(&region, 60);
        let mut trace = SliceTrace::new(&uops);
        let stats = simulate(
            &MachineConfig::paper_4cluster(),
            &mut trace,
            &mut RoundRobin(0),
            &RunLimits::unlimited(),
        );
        assert_eq!(stats.committed_uops, uops.len() as u64);
        assert_eq!(stats.clusters.len(), 4);
        assert_eq!(stats.copies_generated, stats.copies_delivered);
    }

    #[test]
    fn empty_trace_finishes_immediately() {
        let uops: Vec<DynUop> = Vec::new();
        let mut trace = SliceTrace::new(&uops);
        let stats = simulate(
            &MachineConfig::default(),
            &mut trace,
            &mut ToZero,
            &RunLimits::unlimited(),
        );
        assert_eq!(stats.committed_uops, 0);
        assert!(stats.cycles <= 2);
    }

    #[test]
    fn single_stepped_session_is_reusable_for_a_full_run() {
        let region = alu_chain_region(4);
        let uops = expand(&region, 30);
        let cfg = MachineConfig::default();
        // Single-step part of a run… (a step advances at least one cycle;
        // idle-span skipping may cover more)
        let mut session = SimSession::new(&cfg);
        let mut trace = SliceTrace::new(&uops);
        let mut policy = ToZero;
        for _ in 0..10 {
            session.step(&mut trace, &mut policy, &RunLimits::unlimited());
        }
        assert!(session.cycle() >= 10);
        session.set_cycle_skipping(false);
        let at = session.cycle();
        session.step(&mut trace, &mut policy, &RunLimits::unlimited());
        assert_eq!(session.cycle(), at + 1, "strict stepping when forced off");
        // …then reuse the same session's allocations for a full fresh run.
        let mut trace = SliceTrace::new(&uops);
        let reused = session.simulate(&cfg, &mut trace, &mut ToZero, &RunLimits::unlimited());
        let mut trace = SliceTrace::new(&uops);
        let fresh = simulate(&cfg, &mut trace, &mut ToZero, &RunLimits::unlimited());
        assert_eq!(reused, fresh);
    }
}
