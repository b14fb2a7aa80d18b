//! Regenerates the **Sec. 2.1 motivation**: sequential vs parallel
//! (renaming-style) hardware steering.
//!
//! Part 1 replays the paper's three-instruction example exactly
//! (I1: R1←R1+R2; I2: R3←Load(R1); I3: R4←Load(R3) with R1/R2/R3 pre-placed)
//! and shows the 2-copy difference. Part 2 sweeps the whole suite to show
//! the aggregate cost of steering with stale bundle-entry information —
//! the complexity-vs-performance dilemma the hybrid scheme resolves.

use virtclust_bench::{threads, uop_budget, write_result};
use virtclust_core::{run_matrix, Configuration};
use virtclust_sim::{RunLimits, SimSession};
use virtclust_steer::OccupancyAware;
use virtclust_uarch::{ArchReg, MachineConfig, RegionBuilder, SliceTrace};
use virtclust_workloads::spec2000_points;

fn sec21_example() -> String {
    let r = ArchReg::int;
    let region = RegionBuilder::new(0, "sec2.1")
        .alu(r(1), &[r(1), r(2)])
        .load(r(3), r(1))
        .load(r(4), r(3))
        .build();
    let mut uops = Vec::new();
    virtclust_uarch::trace::expand_region(&region, 0, &mut uops, |_, _| 0x100, |_, _| true);

    let mut out = String::from("| steering | copies generated |\n|---|---|\n");
    for (label, mut policy) in [
        ("sequential (OP)", OccupancyAware::new()),
        ("parallel (stale)", OccupancyAware::parallel()),
    ] {
        let mut trace = SliceTrace::new(&uops);
        let mut m = SimSession::new(&MachineConfig::paper_2cluster());
        m.place_register(r(1), 1);
        m.place_register(r(2), 0);
        m.place_register(r(3), 0);
        let stats = m.run(&mut trace, &mut policy, &RunLimits::unlimited());
        out.push_str(&format!("| {label} | {} |\n", stats.copies_generated));
    }
    out.push_str(
        "\nThe difference is the paper's \"two copies\": with stale locations, I2 and I3\n\
         chase out-of-date operand positions (the common input copy of I1 appears in both).\n",
    );
    out
}

fn main() {
    println!("## Sec. 2.1 — sequential vs parallel steering\n");
    let example = sec21_example();
    println!("{example}");

    let uops = uop_budget(60_000);
    let machine = MachineConfig::paper_2cluster();
    let points = spec2000_points();
    let configs = vec![Configuration::Op, Configuration::OpParallel];
    eprintln!("motivation: sweeping the suite ({uops} uops/cell)...");
    let matrix = run_matrix(&machine, &configs, &points, uops, threads());

    let mut sweep = String::from("| point | OP copies/kuop | parallel copies/kuop | parallel slowdown % |\n|---|---|---|---|\n");
    let (mut slow_sum, mut n) = (0.0, 0);
    for (pi, point) in matrix.points.iter().enumerate() {
        let seq = matrix.cell(pi, 0);
        let par = matrix.cell(pi, 1);
        let slow = (par.cycles as f64 / seq.cycles as f64 - 1.0) * 100.0;
        slow_sum += slow;
        n += 1;
        sweep.push_str(&format!(
            "| {} | {:.1} | {:.1} | {:.2} |\n",
            point.name,
            seq.copies_per_kuop(),
            par.copies_per_kuop(),
            slow
        ));
    }
    sweep.push_str(&format!(
        "\nMean slowdown of parallel (stale-information) steering: {:.2}%\n",
        slow_sum / n as f64
    ));
    println!("{sweep}");

    let out = format!("## Sec. 2.1 example\n\n{example}\n## Suite sweep\n\n{sweep}");
    let path = write_result("motivation_seq_vs_parallel.md", &out);
    eprintln!("wrote {}", path.display());
}
