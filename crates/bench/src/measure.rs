//! Wall-clock measurement of the simulators, for the simulation-time and
//! simulation-speed comparisons (Table I right columns, Table II).

use softsim_blocks::{Fix, FixFmt, Graph};
use softsim_bus::FslBank;
use softsim_cosim::{CoSim, CoSimStop};
use softsim_isa::Image;
use softsim_iss::{Cpu, StopReason};
use softsim_rtl::{RtlStop, SocRtl};
use std::time::{Duration, Instant};

/// A wall-clock measurement of one simulation run.
#[derive(Debug, Clone, Copy)]
pub struct SimTiming {
    /// Wall-clock time spent simulating.
    pub wall: Duration,
    /// Clock cycles simulated.
    pub sim_cycles: u64,
}

impl SimTiming {
    /// Simulated clock cycles per wall-clock second — Table II's metric.
    pub fn cycles_per_sec(&self) -> f64 {
        self.sim_cycles as f64 / self.wall.as_secs_f64().max(1e-12)
    }

    /// Wall seconds.
    pub fn seconds(&self) -> f64 {
        self.wall.as_secs_f64()
    }
}

/// Runs a co-simulation to completion `repeats` times, timing the whole.
pub fn time_cosim(mut make: impl FnMut() -> CoSim, repeats: u32) -> SimTiming {
    let mut cycles = 0;
    let start = Instant::now();
    for _ in 0..repeats {
        let mut sim = make();
        let stop = sim.run(u64::MAX / 2);
        assert_eq!(stop, CoSimStop::Halted, "workload must halt");
        cycles += sim.cpu_stats().cycles;
    }
    SimTiming { wall: start.elapsed(), sim_cycles: cycles }
}

/// Runs a low-level RTL simulation to completion `repeats` times.
pub fn time_rtl(mut make: impl FnMut() -> SocRtl, repeats: u32) -> SimTiming {
    let mut cycles = 0;
    let start = Instant::now();
    for _ in 0..repeats {
        let mut soc = make();
        let stop = soc.run(u64::MAX / 4);
        assert_eq!(stop, RtlStop::Halted, "workload must halt");
        cycles += soc.cpu_cycles();
    }
    SimTiming { wall: start.elapsed(), sim_cycles: cycles }
}

/// Times the instruction-set simulator alone (Table II row 1): the pure
/// software image with no hardware attached.
pub fn time_iss_alone(image: &Image, repeats: u32) -> SimTiming {
    let mut cycles = 0;
    let start = Instant::now();
    for _ in 0..repeats {
        let mut cpu = Cpu::with_default_memory(image);
        let mut fsl = FslBank::default();
        let stop = cpu.run(&mut fsl, u64::MAX / 2);
        assert_eq!(stop, StopReason::Halted);
        cycles += cpu.stats().cycles;
    }
    SimTiming { wall: start.elapsed(), sim_cycles: cycles }
}

/// Times the block simulator alone (Table II row 2): the peripheral graph
/// driven with a continuous input stream for `cycles` clocks.
///
/// # Panics
/// Panics if the graph lacks the `fsl0_data` / `fsl0_valid` /
/// `fsl0_ctrl` input gateways every FSL peripheral has.
pub fn time_blocks_alone(mut graph: Graph, cycles: u64) -> SimTiming {
    let data = Fix::from_int(0x1234, FixFmt::INT32);
    let on = Fix::from_int(1, FixFmt::BOOL);
    let off = Fix::zero(FixFmt::BOOL);
    // Gateways are resolved once, outside the timed loop, like the
    // co-simulator's own FSL gateways.
    let handle = |name| graph.input_handle(name).expect("FSL peripheral input gateway");
    let (data_in, valid_in, ctrl_in) =
        (handle("fsl0_data"), handle("fsl0_valid"), handle("fsl0_ctrl"));
    let start = Instant::now();
    for i in 0..cycles {
        // Alternate data/idle to exercise realistic activity.
        graph.set_input_fast(data_in, data);
        graph.set_input_fast(valid_in, if i % 3 != 0 { on } else { off });
        graph.set_input_fast(ctrl_in, off);
        graph.step();
    }
    SimTiming { wall: start.elapsed(), sim_cycles: cycles }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn cosim_timing_counts_cycles() {
        let t = time_cosim(|| workloads::cordic_cosim(8, Some(4)), 2);
        assert!(t.sim_cycles > 100);
        assert!(t.cycles_per_sec() > 0.0);
    }

    #[test]
    fn rtl_timing_counts_cycles() {
        let t = time_rtl(|| workloads::cordic_rtl(8, Some(2)), 1);
        assert!(t.sim_cycles > 100);
    }

    #[test]
    fn iss_alone_is_fastest_component() {
        // Table II's ordering: instruction simulator ≫ block simulator
        // (per simulated cycle), both ≫ RTL. Checked loosely here with
        // tiny runs; the bench harness measures it properly.
        let img = workloads::cordic_sw_image(24);
        let iss = time_iss_alone(&img, 5);
        let rtl = time_rtl(|| workloads::cordic_rtl(24, None), 1);
        assert!(
            iss.cycles_per_sec() > rtl.cycles_per_sec(),
            "ISS {} c/s vs RTL {} c/s",
            iss.cycles_per_sec(),
            rtl.cycles_per_sec()
        );
    }
}
