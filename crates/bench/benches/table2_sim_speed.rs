//! Table II bench: raw per-cycle speed of each component simulator —
//! instruction-set simulator alone, block simulator alone, the combined
//! co-simulation and the RTL baseline (the paper's 1.9e5 / 1.4e4 / 2.3e3
//! cycles-per-second ordering).

use softsim_bench::measure::{bench_main, blocks_run, cosim_run, iss_run, rtl_run, Arm};
use softsim_bench::workloads;

fn main() {
    // Instruction simulator alone: pure-software CORDIC image.
    let img = workloads::cordic_sw_image(24);
    let arms: Vec<(String, Arm)> = vec![
        ("table2_sim_speed/iss_alone".into(), Box::new(|| iss_run(&img, false))),
        // Block simulator alone: the 4-PE pipeline, 100k clocks.
        (
            "table2_sim_speed/blocks_alone".into(),
            Box::new(|| blocks_run(softsim_apps::cordic::hardware::cordic_graph(4), 100_000)),
        ),
        // Full co-simulation and the RTL baseline on the same workload.
        (
            "table2_sim_speed/cosim".into(),
            Box::new(|| cosim_run(|| workloads::cordic_cosim_long(24, Some(4)))),
        ),
        (
            "table2_sim_speed/rtl_baseline".into(),
            Box::new(|| rtl_run(|| workloads::cordic_rtl_long(24, Some(4)))),
        ),
    ];
    bench_main(10, arms);
}
