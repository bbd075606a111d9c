//! Host-speed calibration.
//!
//! The host this benchmark runs on shares its cores: for stretches of
//! seconds to minutes the same simulation runs up to ~60% slower, and
//! the slowdown hits every interpreter-like workload alike. The
//! benchmark therefore times a fixed calibration kernel beside the
//! operations and reports end-to-end times at a *reference host speed*:
//! each operation's wall time is scaled by [`REF_NS`] ÷ the kernel's
//! current time. The kernel is this file's own code — a graph of boxed
//! nodes whose inputs are gathered into a scratch buffer and which are
//! stepped through dynamic dispatch, the shape of the simulator's hot
//! loops — so a change to the simulator never moves the yardstick. (A
//! bytecode-interpreter kernel and a multiply chain were tried as well;
//! they slow down less than the simulator under contention.)

use crate::stats::median;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Calibration kernel time, in ns, that defines the reference host
/// speed: what the kernel takes on an uncontended core of the host the
/// benchmark was written on (a 2-vCPU Xeon guest, nominal 2.1 GHz). On
/// such a core reported times equal wall times.
pub const REF_NS: f64 = 550_000.0;

/// Minimum operation time between two calibration samples.
const EVERY: Duration = Duration::from_millis(40);

/// How long a new calibrator samples before the first measurement.
const WARM: Duration = Duration::from_millis(150);

/// Samples around an instant whose median sets its scale factor.
const NEAR: usize = 4;

trait Node {
    fn eval(&mut self, ins: &[u64]) -> u64;
}

struct Accumulator(u64);

impl Node for Accumulator {
    fn eval(&mut self, ins: &[u64]) -> u64 {
        self.0 = self.0.rotate_left(5) ^ ins[0].wrapping_add(ins[1]);
        self.0
    }
}

struct Delay {
    taps: [u64; 6],
    k: usize,
}

impl Node for Delay {
    fn eval(&mut self, ins: &[u64]) -> u64 {
        let v = if ins[0] & 1 == 0 { ins[1] >> 1 } else { ins[0].wrapping_sub(ins[1]) };
        self.taps[self.k] = v;
        self.k = (self.k + 1) % self.taps.len();
        self.taps[(self.k + 3) % self.taps.len()]
    }
}

/// The calibration kernel with its state, built once.
pub struct Kernel {
    nodes: Vec<Box<dyn Node>>,
    wires: Vec<[usize; 2]>,
}

impl Kernel {
    fn new() -> Kernel {
        let nodes = (0..12u64)
            .map(|i| -> Box<dyn Node> {
                if i % 3 == 0 {
                    Box::new(Accumulator(i))
                } else {
                    Box::new(Delay { taps: [i; 6], k: 0 })
                }
            })
            .collect();
        let wires = (0..12).map(|i| [(i + 11) % 12, (i * 5 + 3) % 12]).collect();
        Kernel { nodes, wires }
    }

    fn step_graph(&mut self, steps: u64) -> u64 {
        let mut vals = vec![1u64; self.nodes.len()];
        let mut scratch: Vec<u64> = Vec::with_capacity(2);
        for t in 0..steps {
            vals[0] ^= t;
            for (i, n) in self.nodes.iter_mut().enumerate() {
                scratch.clear();
                scratch.extend(self.wires[i].iter().map(|&w| vals[w]));
                vals[i] = n.eval(&scratch);
            }
        }
        vals.iter().sum()
    }

    /// Runs the kernel once; returns its wall time in ns.
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        black_box(self.step_graph(black_box(8_000)));
        start.elapsed().as_secs_f64() * 1e9
    }
}

/// Calibration samples taken beside the operations, with their times.
pub struct Calibrator {
    kernel: Kernel,
    since: Duration,
    /// Every sample taken: when it ended and how long it took (ns).
    pub samples: Vec<(Instant, f64)>,
}

impl Calibrator {
    /// A calibrator primed by sampling for [`WARM`], which also brings
    /// an idle core up to speed before anything is timed.
    pub fn new() -> Calibrator {
        let mut c =
            Calibrator { kernel: Kernel::new(), since: Duration::ZERO, samples: Vec::new() };
        let start = Instant::now();
        while start.elapsed() < WARM {
            c.sample();
        }
        c
    }

    /// Takes one sample.
    pub fn sample(&mut self) {
        let t = self.kernel.sample();
        self.samples.push((Instant::now(), t));
        self.since = Duration::ZERO;
    }

    /// Samples again once [`EVERY`] of operation time has passed since
    /// the last sample; call after each operation.
    pub fn tick(&mut self, op_time: Duration) {
        self.since += op_time;
        if self.since >= EVERY {
            self.sample();
        }
    }

    /// Scale from wall time to reference-speed time at instant `t`: the
    /// median of the [`NEAR`] samples nearest `t`, half before and half
    /// after it where they exist — so an operation is scaled by the
    /// host speed measured around it, not only before it.
    pub fn factor_at(&self, t: Instant) -> f64 {
        let j = self.samples.partition_point(|(end, _)| *end <= t);
        let lo = j.saturating_sub(NEAR / 2);
        let hi = (lo + NEAR).min(self.samples.len());
        let lo = hi.saturating_sub(NEAR);
        let near: Vec<f64> = self.samples[lo..hi].iter().map(|&(_, ns)| ns).collect();
        REF_NS / median(&near)
    }
}
