//! Figure 5 bench: co-simulating the CORDIC divider across every
//! (iterations, P) design point. The *application* cycle counts printed
//! by `tables --fig5` are deterministic; this bench measures how fast the
//! co-simulation environment explores each design point — the whole value
//! proposition of the paper.

use softsim_bench::measure::{bench_main, cosim_run, Arm};
use softsim_bench::workloads;

fn main() {
    let mut arms: Vec<(String, Arm)> = Vec::new();
    for iters in workloads::CORDIC_ITERS {
        for p in std::iter::once(0usize).chain(workloads::CORDIC_PS) {
            let make = move || workloads::cordic_cosim(iters, (p > 0).then_some(p));
            arms.push((
                format!("fig5_cordic_cosim/iters{iters}_P{p}"),
                Box::new(move || cosim_run(make)),
            ));
        }
    }
    bench_main(5, arms);
}
