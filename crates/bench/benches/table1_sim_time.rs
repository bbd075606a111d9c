//! Table I (simulation-time columns) bench: the same simulated workload
//! through the high-level co-simulator and through the low-level
//! event-driven RTL baseline. The ratio of the two reproduces the paper's
//! headline 5.6×–19.4× simulation speedups.

use softsim_bench::measure::{bench_main, cosim_run, rtl_run, Arm};
use softsim_bench::workloads;

fn main() {
    let mut arms: Vec<(String, Arm)> = Vec::new();
    for p in workloads::CORDIC_PS {
        arms.push((
            format!("table1_sim_time/cosim_cordic24/P{p}"),
            Box::new(move || cosim_run(|| workloads::cordic_cosim_long(24, Some(p)))),
        ));
        arms.push((
            format!("table1_sim_time/rtl_cordic24/P{p}"),
            Box::new(move || rtl_run(|| workloads::cordic_rtl_long(24, Some(p)))),
        ));
    }
    let n = workloads::MATMUL_TABLE_N;
    for nb in [2usize, 4] {
        arms.push((
            format!("table1_sim_time/cosim_matmul16/blk{nb}"),
            Box::new(move || cosim_run(|| workloads::matmul_cosim(n, Some(nb)))),
        ));
        arms.push((
            format!("table1_sim_time/rtl_matmul16/blk{nb}"),
            Box::new(move || rtl_run(|| workloads::matmul_rtl_sys(n, Some(nb)))),
        ));
    }
    bench_main(5, arms);
}
