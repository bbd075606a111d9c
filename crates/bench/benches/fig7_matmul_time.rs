//! Figure 7 bench: co-simulating block matrix multiplication across the
//! (N, block-size) design space of the paper's second application.

use softsim_bench::measure::{bench_main, cosim_run, Arm};
use softsim_bench::workloads;

fn main() {
    let mut arms: Vec<(String, Arm)> = Vec::new();
    // N = 32 takes seconds per iteration; bench the small/medium points.
    for n in [4usize, 8, 16] {
        for nb in [0usize, 2, 4] {
            if nb != 0 && n % nb != 0 {
                continue;
            }
            let make = move || workloads::matmul_cosim(n, (nb > 0).then_some(nb));
            arms.push((
                format!("fig7_matmul_cosim/N{n}_blk{nb}"),
                Box::new(move || cosim_run(make)),
            ));
        }
    }
    bench_main(5, arms);
}
