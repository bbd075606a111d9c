//! Wall-clock measurement: the one sampler behind every timing number
//! in this crate — Table I's simulation times, Table II's simulator
//! speeds, the wall-clock BENCH records (0003, 0004, 0009, 0010), the
//! `cargo bench` targets and the `trace_overhead` guards.
//!
//! It has three parts:
//! * [`time_run`] times one run. The subject is built *outside* the
//!   timed region, so assembly, graph construction and RTL elaboration
//!   never count as simulation time; [`cosim_run`], [`rtl_run`],
//!   [`iss_run`] and [`blocks_run`] apply it to each simulator.
//! * [`sample`] times several arms against each other: one untimed
//!   warm-up run per arm, then `rounds` rounds in which the arm that
//!   goes first rotates (A,B then B,A), so drift, frequency scaling and
//!   cache state favour no arm.
//! * [`Stats`] summarizes one arm: its sorted samples, median, min,
//!   quartiles and sample count.

use crate::record::Obj;
use softsim_blocks::{Fix, FixFmt, Graph};
use softsim_bus::FslBank;
use softsim_cosim::{CoSim, CoSimStop};
use softsim_isa::Image;
use softsim_iss::{Cpu, StopReason};
use softsim_rtl::{RtlStop, SocRtl};
use std::time::{Duration, Instant};

/// A wall-clock measurement of one run.
#[derive(Debug, Clone, Copy)]
pub struct SimTiming {
    /// Wall-clock time of the timed region.
    pub wall: Duration,
    /// Clock cycles simulated (arms that time whole jobs — campaigns,
    /// service bursts — count their jobs or trials here instead).
    pub sim_cycles: u64,
}

/// Times one run: `setup` builds the subject before the clock starts,
/// `body` runs it and returns the cycles it simulated, and the subject
/// is dropped after the clock stops.
pub fn time_run<S>(setup: impl FnOnce() -> S, body: impl FnOnce(&mut S) -> u64) -> SimTiming {
    let mut subject = setup();
    let start = Instant::now();
    let sim_cycles = body(&mut subject);
    SimTiming { wall: start.elapsed(), sim_cycles }
}

/// Times one co-simulation run to completion.
pub fn cosim_run(make: impl FnOnce() -> CoSim) -> SimTiming {
    time_run(make, |sim| {
        assert_eq!(sim.run(u64::MAX / 2), CoSimStop::Halted, "workload must halt");
        sim.cpu_stats().cycles
    })
}

/// Times one low-level RTL simulation run to completion.
pub fn rtl_run(make: impl FnOnce() -> SocRtl) -> SimTiming {
    time_run(make, |soc| {
        assert_eq!(soc.run(u64::MAX / 4), RtlStop::Halted, "workload must halt");
        soc.cpu_cycles()
    })
}

/// Times the instruction-set simulator alone (Table II row 1) on one
/// run of the pure software `image`, with no hardware attached and
/// translated basic-block execution on or off.
pub fn iss_run(image: &Image, translate: bool) -> SimTiming {
    let setup = || {
        let mut cpu = Cpu::with_default_memory(image);
        cpu.set_translation(translate);
        (cpu, FslBank::default())
    };
    time_run(setup, |(cpu, fsl)| {
        assert_eq!(cpu.run(fsl, u64::MAX / 2), StopReason::Halted);
        cpu.stats().cycles
    })
}

/// Times the block simulator alone (Table II row 2): the peripheral
/// graph driven with a continuous input stream for `cycles` clocks.
///
/// # Panics
/// Panics if the graph lacks the `fsl0_data` / `fsl0_valid` /
/// `fsl0_ctrl` input gateways every FSL peripheral has.
pub fn blocks_run(graph: Graph, cycles: u64) -> SimTiming {
    let data = Fix::from_int(0x1234, FixFmt::INT32);
    let on = Fix::from_int(1, FixFmt::BOOL);
    let off = Fix::zero(FixFmt::BOOL);
    // Gateways are resolved in set-up, like the co-simulator's own FSL
    // gateways.
    let setup = || {
        let handle = |name| graph.input_handle(name).expect("FSL peripheral input gateway");
        let handles = (handle("fsl0_data"), handle("fsl0_valid"), handle("fsl0_ctrl"));
        (graph, handles)
    };
    time_run(setup, |(graph, (data_in, valid_in, ctrl_in))| {
        for i in 0..cycles {
            // Alternate data/idle to exercise realistic activity.
            graph.set_input_fast(*data_in, data);
            graph.set_input_fast(*valid_in, if i % 3 != 0 { on } else { off });
            graph.set_input_fast(*ctrl_in, off);
            graph.step();
        }
        cycles
    })
}

/// Samples `arms` against each other: each arm runs once untimed (the
/// warm-up: pages in code and data, fills allocator pools), then
/// `rounds` times, with the arm that goes first rotating each round.
/// Returns one [`Stats`] per arm, in arm order.
///
/// # Panics
/// Panics if `rounds` is 0, or if an arm simulates a different number
/// of cycles on a repeat run (a nondeterministic workload).
pub fn sample<const N: usize>(
    rounds: u32,
    mut arms: [&mut dyn FnMut() -> SimTiming; N],
) -> [Stats; N] {
    let cycles: [u64; N] = std::array::from_fn(|i| arms[i]().sim_cycles);
    let mut walls: [Vec<Duration>; N] = std::array::from_fn(|_| Vec::new());
    for round in 0..rounds as usize {
        for i in (0..N).map(|k| (round + k) % N) {
            let t = arms[i]();
            assert_eq!(t.sim_cycles, cycles[i], "arm {i} did different work on a repeat run");
            walls[i].push(t.wall);
        }
    }
    std::array::from_fn(|i| Stats::new(std::mem::take(&mut walls[i]), cycles[i]))
}

/// A boxed arm, for tables of arms built in a loop.
pub type Arm<'a> = Box<dyn FnMut() -> SimTiming + 'a>;

/// Runs a `cargo bench` target: samples each named arm on its own, for
/// `rounds` rounds (3 with `--quick`), skipping arms whose name does not
/// contain the positional filter argument, and prints its statistics.
pub fn bench_main(rounds: u32, arms: Vec<(String, Arm<'_>)>) {
    let (mut rounds, mut filter) = (rounds, None);
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => rounds = 3,
            s if s.starts_with("--") => {}
            s => filter = Some(s.to_string()),
        }
    }
    let mut timed = 0;
    for (name, mut arm) in arms {
        if filter.as_ref().is_some_and(|f| !name.contains(f.as_str())) {
            continue;
        }
        let [s] = sample(rounds, [&mut *arm]);
        let (q1, q3) = s.quartiles();
        println!(
            "{name:<44} median {:>12?}  min {:>12?}  q1 {q1:>12?}  q3 {q3:>12?}",
            s.median(),
            s.min()
        );
        timed += 1;
    }
    println!("{timed} benchmark(s) timed, {rounds} samples each");
}

/// The timed samples of one arm.
#[derive(Debug, Clone, PartialEq)]
pub struct Stats {
    /// Wall time of each timed run, sorted ascending.
    samples: Vec<Duration>,
    /// Cycles (or jobs) one run simulated.
    sim_cycles: u64,
}

impl Stats {
    fn new(mut samples: Vec<Duration>, sim_cycles: u64) -> Stats {
        assert!(!samples.is_empty(), "a sample needs at least one round");
        samples.sort();
        Stats { samples, sim_cycles }
    }

    /// The timed wall times, sorted ascending.
    pub fn samples(&self) -> &[Duration] {
        &self.samples
    }

    /// Number of timed runs (the warm-up is not one of them).
    pub fn n(&self) -> usize {
        self.samples.len()
    }

    /// Fastest run.
    pub fn min(&self) -> Duration {
        self.samples[0]
    }

    /// Median run (the mean of the middle two for an even count).
    pub fn median(&self) -> Duration {
        self.quantile(0.5)
    }

    /// First and third quartiles.
    pub fn quartiles(&self) -> (Duration, Duration) {
        (self.quantile(0.25), self.quantile(0.75))
    }

    /// The `p`-quantile, interpolated linearly between the samples on
    /// either side of rank `p * (n - 1)`.
    fn quantile(&self, p: f64) -> Duration {
        let rank = p * (self.samples.len() - 1) as f64;
        let (lo, frac) = (rank.floor() as usize, rank.fract());
        let hi = (lo + 1).min(self.samples.len() - 1);
        self.samples[lo] + (self.samples[hi] - self.samples[lo]).mul_f64(frac)
    }

    /// Median wall seconds.
    pub fn seconds(&self) -> f64 {
        self.median().as_secs_f64()
    }

    /// Cycles (or jobs) one run simulated.
    pub fn sim_cycles(&self) -> u64 {
        self.sim_cycles
    }

    /// Simulated cycles (or jobs) per median wall second — Table II's
    /// metric.
    pub fn cycles_per_sec(&self) -> f64 {
        self.rate(self.median())
    }

    /// [`Stats::cycles_per_sec`] at the third and first wall quartiles:
    /// the rate's own quartiles, low then high.
    pub fn rate_quartiles(&self) -> (f64, f64) {
        let (q1, q3) = self.quartiles();
        (self.rate(q3), self.rate(q1))
    }

    fn rate(&self, wall: Duration) -> f64 {
        self.sim_cycles as f64 / wall.as_secs_f64().max(1e-12)
    }

    /// `obj` with the sample count and the wall-time quartiles appended
    /// — the spread every timing object in a BENCH record carries.
    pub fn spread(&self, obj: Obj) -> Obj {
        let (q1, q3) = self.quartiles();
        obj.field("samples", self.n())
            .field("wall_q1_seconds", q1.as_secs_f64())
            .field("wall_q3_seconds", q3.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use std::cell::RefCell;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn set_up_is_not_timed() {
        let mut arm = || time_run(|| std::thread::sleep(ms(60)), |_| 1);
        let [s] = sample(2, [&mut arm]);
        assert!(s.median() < ms(50), "set-up leaked into the timed region: {:?}", s.median());
    }

    #[test]
    fn arm_order_rotates_each_round_after_one_uncounted_warm_up() {
        let log = RefCell::new(String::new());
        // Each arm's first call (its warm-up) reports an hour; no timed
        // sample may include it.
        let arm = |name: char| {
            let log = &log;
            move || {
                log.borrow_mut().push(name);
                let first = log.borrow().matches(name).count() == 1;
                SimTiming { wall: if first { ms(3_600_000) } else { ms(1) }, sim_cycles: 7 }
            }
        };
        let (mut a, mut b) = (arm('A'), arm('B'));
        let [sa, sb] = sample(4, [&mut a, &mut b]);
        // Warm-ups, then A,B / B,A / A,B / B,A.
        assert_eq!(log.into_inner(), "ABABBAABBA");
        for s in [&sa, &sb] {
            assert_eq!(s.n(), 4);
            assert_eq!(s.samples(), [ms(1); 4]);
            assert_eq!(s.sim_cycles(), 7);
        }
    }

    #[test]
    fn median_min_and_quartiles_on_fixed_durations() {
        let s = Stats::new([7, 1, 10, 4, 2, 9, 3, 8, 6, 5].map(ms).to_vec(), 1000);
        assert_eq!(s.n(), 10);
        assert_eq!(s.min(), ms(1));
        assert_eq!(s.median(), Duration::from_micros(5500));
        assert_eq!(s.quartiles(), (Duration::from_micros(3250), Duration::from_micros(7750)));
        assert!((s.cycles_per_sec() - 1000.0 / 0.0055).abs() < 1e-6);
        let odd = Stats::new([5, 1, 3, 2, 4].map(ms).to_vec(), 1);
        assert_eq!((odd.median(), odd.quartiles()), (ms(3), (ms(2), ms(4))));
        let one = Stats::new(vec![ms(9)], 1);
        assert_eq!((one.min(), one.median(), one.quartiles()), (ms(9), ms(9), (ms(9), ms(9))));
    }

    #[test]
    fn cosim_timing_counts_cycles() {
        let t = cosim_run(|| workloads::cordic_cosim(8, Some(4)));
        assert!(t.sim_cycles > 100);
    }

    #[test]
    fn rtl_timing_counts_cycles() {
        let t = rtl_run(|| workloads::cordic_rtl(8, Some(2)));
        assert!(t.sim_cycles > 100);
    }

    #[test]
    fn iss_alone_is_fastest_component() {
        // Table II's ordering: instruction simulator ≫ block simulator
        // (per simulated cycle), both ≫ RTL. Checked loosely here with
        // tiny runs; the bench targets measure it properly.
        let img = workloads::cordic_sw_image(24);
        let mut iss = || iss_run(&img, false);
        let mut rtl = || rtl_run(|| workloads::cordic_rtl(24, None));
        let [iss, rtl] = sample(1, [&mut iss, &mut rtl]);
        assert!(
            iss.cycles_per_sec() > rtl.cycles_per_sec(),
            "ISS {} c/s vs RTL {} c/s",
            iss.cycles_per_sec(),
            rtl.cycles_per_sec()
        );
    }
}
