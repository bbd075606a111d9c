//! The design points the workloads run: seeded inputs, program and
//! peripheral construction, the reference results every run is checked
//! against, and single runs on the co-simulator and on the RTL model.

use crate::spans::Tracer;
use crate::stats::SplitMix;
use softsim_apps::cordic::reference::{divide_fix, iterate, to_fix, ONE};
use softsim_apps::cordic::software::{
    effective_iterations, hw_program_repeated, sw_program_repeated, CordicBatch, SwStyle,
};
use softsim_apps::matmul::reference::{multiply, Matrix};
use softsim_apps::{cordic, matmul};
use softsim_blocks::Graph;
use softsim_cosim::{CoSim, CoSimState, CoSimStop, Peripheral};
use softsim_isa::asm::assemble;
use softsim_isa::Image;
use softsim_rtl::{RtlStop, SocRtl};
use std::time::Duration;

/// Cycle budget of a single run; every design halts far below it.
const RUN_LIMIT: u64 = 20_000_000;

/// CORDIC pairs per batch: 2·8 result words exactly fill the 16-deep
/// return FIFO, as the accelerated program requires.
const CORDIC_PAIRS: usize = 8;

/// Every input a workload needs, generated from one seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// CORDIC `(a, b)` pairs (Q8.24) inside the convergence domain.
    pub cordic: CordicBatch,
    /// `Matrix::test_pattern` seeds of the two matmul operands.
    pub matrix_seeds: (u32, u32),
    /// Seed of the fault-injection plan.
    pub plan_seed: u64,
}

impl Inputs {
    /// The inputs for `seed`: divisors `a` in [1, 3), quotients `b / a`
    /// in [-0.9, 1.9) — inside linear CORDIC's |b/a| < 2 domain.
    pub fn generate(seed: u64) -> Inputs {
        let mut rng = SplitMix::new(seed);
        let pairs: Vec<(i32, i32)> = (0..CORDIC_PAIRS)
            .map(|_| {
                let a = rng.uniform(1.0, 3.0);
                let ratio = rng.uniform(-0.9, 1.9);
                (to_fix(a), to_fix(a * ratio))
            })
            .collect();
        let matrix_seeds = (rng.next_u64() as u32, rng.next_u64() as u32);
        Inputs { cordic: CordicBatch::new(&pairs), matrix_seeds, plan_seed: rng.next_u64() }
    }

    fn matrices(&self, n: usize) -> (Matrix, Matrix) {
        (Matrix::test_pattern(n, self.matrix_seeds.0), Matrix::test_pattern(n, self.matrix_seeds.1))
    }
}

/// A design point: one program, optionally with its hardware peripheral.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    /// CORDIC divider on a `p`-PE pipeline, the batch run `reps` times.
    CordicHw { p: usize, iters: u32, reps: u32 },
    /// Pure-software CORDIC (compiled style), the batch run `reps` times.
    CordicSw { iters: u32, reps: u32 },
    /// Block matmul of `n × n` matrices on an `nb × nb` block unit.
    MatmulHw { n: usize, nb: usize },
    /// Pure-software matmul of `n × n` matrices.
    MatmulSw { n: usize },
}

impl Design {
    /// Short name used in metric names (`cordic_p4`, `matmul_nb2`, …).
    pub fn name(&self) -> String {
        match *self {
            Design::CordicHw { p, .. } => format!("cordic_p{p}"),
            Design::CordicSw { .. } => "cordic_sw".to_string(),
            Design::MatmulHw { nb, .. } => format!("matmul_nb{nb}"),
            Design::MatmulSw { .. } => "matmul_sw".to_string(),
        }
    }

    /// The application the design belongs to (`cordic` or `matmul`).
    pub fn app(&self) -> &'static str {
        match self {
            Design::CordicHw { .. } | Design::CordicSw { .. } => "cordic",
            Design::MatmulHw { .. } | Design::MatmulSw { .. } => "matmul",
        }
    }

    /// The program text for `inp`.
    pub fn source(&self, inp: &Inputs) -> String {
        match *self {
            Design::CordicHw { p, iters, reps } => hw_program_repeated(&inp.cordic, iters, p, reps),
            Design::CordicSw { iters, reps } => {
                sw_program_repeated(&inp.cordic, iters, SwStyle::Compiled, reps)
            }
            Design::MatmulHw { n, nb } => {
                let (a, b) = inp.matrices(n);
                matmul::software::hw_program(&a, &b, nb)
            }
            Design::MatmulSw { n } => {
                let (a, b) = inp.matrices(n);
                matmul::software::sw_program(&a, &b)
            }
        }
    }

    /// The hardware peripheral (graph built and compiled), if any.
    pub fn peripheral(&self) -> Option<Peripheral> {
        match *self {
            Design::CordicHw { p, .. } => Some(cordic::hardware::cordic_peripheral(p)),
            Design::MatmulHw { nb, .. } => Some(matmul::hardware::matmul_peripheral(nb)),
            _ => None,
        }
    }

    /// A fresh compiled peripheral graph, for graph-alone replays.
    pub fn graph(&self) -> Option<Graph> {
        match *self {
            Design::CordicHw { p, .. } => Some(cordic::hardware::cordic_graph(p)),
            Design::MatmulHw { nb, .. } => Some(matmul::hardware::matmul_graph(nb)),
            _ => None,
        }
    }

    fn result_label(&self) -> &'static str {
        match self {
            Design::CordicHw { .. } | Design::CordicSw { .. } => cordic::software::RESULT_LABEL,
            Design::MatmulHw { .. } | Design::MatmulSw { .. } => matmul::software::RESULT_LABEL,
        }
    }

    /// The result words the reference models give for `inp`.
    fn expected(&self, inp: &Inputs) -> Vec<u32> {
        let pairs = inp.cordic.a.iter().zip(&inp.cordic.b);
        match *self {
            Design::CordicHw { p, iters, reps: 1 } => {
                let iters = effective_iterations(iters, p);
                pairs.map(|(&a, &b)| divide_fix(a, b, iters) as u32).collect()
            }
            Design::CordicHw { p, iters, reps } => {
                let iters = effective_iterations(iters, p);
                pairs.map(|(&a, &b)| repeated_quotient(a, b, iters, reps) as u32).collect()
            }
            Design::CordicSw { iters, .. } => {
                pairs.map(|(&a, &b)| divide_fix(a, b, iters) as u32).collect()
            }
            Design::MatmulHw { n, .. } | Design::MatmulSw { n } => {
                let (a, b) = inp.matrices(n);
                multiply(&a, &b).data.iter().map(|&v| v as u32).collect()
            }
        }
    }

    /// A fresh RTL system running `image`.
    pub fn rtl(&self, image: &Image) -> SocRtl {
        match *self {
            Design::CordicHw { p, .. } => cordic::rtl::build_cordic_rtl(image, p),
            Design::MatmulHw { nb, .. } => matmul::rtl::build_matmul_rtl(image, nb),
            _ => SocRtl::new(image),
        }
    }
}

/// The accelerated program's quotient after `reps` repetitions: each
/// repetition restarts the iteration schedule from the previous
/// repetition's `Y` residual and `Z` quotient — [`divide_fix`]'s loop,
/// built from the same [`iterate`] step, run `reps` times.
fn repeated_quotient(a: i32, b: i32, iters: u32, reps: u32) -> i32 {
    let (mut y, mut z) = (b, 0i32);
    for _ in 0..reps {
        let (mut xs, mut c) = (a, ONE);
        for _ in 0..iters {
            (xs, y, z) = iterate(xs, y, z, c);
            c >>= 1;
        }
    }
    z
}

/// A design assembled and attached, ready to run from its initial state.
pub struct Built {
    /// The design point.
    pub design: Design,
    /// Its name (cached for metric names and spans).
    pub name: String,
    /// The assembled program.
    pub image: Image,
    /// The co-simulator.
    pub sim: CoSim,
    /// The co-simulator's state before the first cycle.
    pub initial: CoSimState,
    /// Byte address of the result words.
    pub result_base: u32,
    /// Reference result words.
    pub expected: Vec<u32>,
}

/// What one run produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Simulated cycles to the halt.
    pub cycles: u64,
    /// True when the run halted and every result word matched.
    pub exact: bool,
    /// Wall time of the run call alone.
    pub wall: Duration,
}

impl Built {
    /// Assembles `design` for `inp` and attaches its peripheral, with a
    /// span around each step.
    pub fn new(design: Design, inp: &Inputs, tr: &mut Tracer) -> Built {
        let name = design.name();
        let src = design.source(inp);
        let s = tr.begin("assemble", &name, u64::MAX);
        let image = assemble(&src).expect("generated programs assemble");
        tr.end(s);
        let s = tr.begin("peripheral_build", &name, u64::MAX);
        let peripheral = design.peripheral();
        tr.end(s);
        let sim = match peripheral {
            Some(p) => CoSim::with_peripheral(&image, p),
            None => CoSim::software_only(&image),
        };
        let s = tr.begin("CoSim::save_state", &name, u64::MAX);
        let initial = sim.save_state();
        tr.end(s);
        let result_base = image.symbol(design.result_label()).expect("result label");
        let expected = design.expected(inp);
        Built { design, name, image, sim, initial, result_base, expected }
    }

    /// Restores the initial state and runs to the halt, with spans
    /// around both calls.
    pub fn run(&mut self, tr: &mut Tracer, op: u64) -> RunResult {
        let s = tr.begin("CoSim::load_state", &self.name, op);
        self.sim.load_state(&self.initial);
        tr.end(s);
        let s = tr.begin("CoSim::run", &self.name, op);
        let start = std::time::Instant::now();
        let stop = self.sim.run(RUN_LIMIT);
        let wall = start.elapsed();
        tr.end(s);
        let exact = stop == CoSimStop::Halted
            && self.words_match(|a| self.sim.cpu().mem().read_u32(a).ok());
        RunResult { cycles: self.sim.cpu_stats().cycles, exact, wall }
    }

    /// Runs the design on a freshly built RTL system; only
    /// `SocRtl::run` is timed.
    pub fn run_rtl(&self, tr: &mut Tracer, op: u64) -> RunResult {
        let mut soc = self.design.rtl(&self.image);
        let s = tr.begin("SocRtl::run", &self.name, op);
        let start = std::time::Instant::now();
        let stop = soc.run(RUN_LIMIT);
        let wall = start.elapsed();
        tr.end(s);
        let exact = stop == RtlStop::Halted && self.words_match(|a| Some(soc.mem_word(a)));
        RunResult { cycles: soc.cpu_cycles(), exact, wall }
    }

    fn words_match(&self, read: impl Fn(u32) -> Option<u32>) -> bool {
        self.expected
            .iter()
            .enumerate()
            .all(|(i, &w)| read(self.result_base + 4 * i as u32) == Some(w))
    }
}
