//! Microbenchmarks of the simulation substrates themselves: per-cycle
//! cost of the block-graph scheduler as the pipeline deepens, and
//! per-event cost of the discrete-event kernel — the "analysis of
//! simulation performance" behind the paper's Table II (the co-simulation
//! speed is set by its slowest component, and the RTL baseline pays per
//! event and per delta cycle).

use softsim_apps::cordic::hardware::cordic_graph;
use softsim_bench::measure::{bench_main, blocks_run, time_run, Arm};
use softsim_rtl::{clock, Kernel};

const CYCLES: u64 = 50_000;

/// A kernel with a chain of `n` combinational processes toggled by a
/// clock: measures event dispatch + delta-cycle propagation cost.
fn comb_chain(n: usize) -> Kernel {
    let mut k = Kernel::new();
    let clk = clock(&mut k, 20);
    let mut sigs = vec![k.signal("s0", 32)];
    for i in 1..=n {
        sigs.push(k.signal(format!("s{i}"), 32));
    }
    // Driver: increment s0 every rising edge.
    let s0 = sigs[0];
    k.process("drv", &[clk.clk], move |ctx| {
        if ctx.rising(clk.clk) {
            let v = ctx.get(s0).wrapping_add(1);
            ctx.set(s0, v);
        }
    });
    for i in 0..n {
        let (a, y) = (sigs[i], sigs[i + 1]);
        k.process(format!("p{i}"), &[a], move |ctx| {
            let v = ctx.get(a).wrapping_add(1);
            ctx.set(y, v);
        });
    }
    k
}

fn main() {
    let mut arms: Vec<(String, Arm)> = Vec::new();
    for p in [1usize, 4, 8, 16] {
        arms.push((
            format!("block_scheduler/cordic_pipeline/{p}"),
            Box::new(move || blocks_run(cordic_graph(p), CYCLES)),
        ));
    }
    for n in [4usize, 16, 64] {
        arms.push((
            format!("event_kernel/comb_chain/{n}"),
            Box::new(move || {
                time_run(
                    || comb_chain(n),
                    |k| {
                        k.run_until(CYCLES * 20);
                        k.stats().events
                    },
                )
            }),
        ));
    }
    bench_main(5, arms);
}
