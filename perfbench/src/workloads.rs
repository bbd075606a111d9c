//! The three closed-loop workloads. Each runs one operation at a time
//! on one thread; between operations it may run untimed checking work
//! (the RTL runs), which never counts toward an operation's time.

use crate::design::{Built, Design, Inputs, RunResult};
use crate::spans::Tracer;
use crate::stats::{median, ns};
use softsim_cosim::CoSim;
use softsim_resilience::{
    random_plan_hardware, run_campaign, run_recovery_campaign, CampaignConfig, Injection, Outcome,
    RecoveryOutcome, RecoveryPolicy,
};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["dse_hw", "dse_sw", "fault_recovery"];

/// The hardware partitions of the paper's design-space sweeps: CORDIC
/// at P ∈ {2, 4, 6, 8} (24 iterations, batch ×40) and block matmul at
/// n = 16 with 2×2 and 4×4 blocks.
pub fn hw_designs() -> Vec<Design> {
    let mut d: Vec<Design> =
        [2, 4, 6, 8].iter().map(|&p| Design::CordicHw { p, iters: 24, reps: 40 }).collect();
    d.extend([2, 4].iter().map(|&nb| Design::MatmulHw { n: 16, nb }));
    d
}

/// The pure-software partitions of the same two applications.
pub fn sw_designs() -> Vec<Design> {
    vec![Design::CordicSw { iters: 24, reps: 40 }, Design::MatmulSw { n: 16 }]
}

/// The fault-injection targets: CORDIC P = 2 over 8 iterations and
/// matmul n = 4 with 2×2 blocks.
pub fn fault_designs() -> Vec<Design> {
    vec![Design::CordicHw { p: 2, iters: 8, reps: 1 }, Design::MatmulHw { n: 4, nb: 2 }]
}

/// Plan entries (one injection per target each) in one pass of the
/// fault plan. About one injection in 300 leaves the supervisor
/// unrecoverable after a ~40 ms trial that runs to its work budget; a
/// plan this long holds enough of them that their share of a run's time
/// (and the run's peak memory, which such a trial sets) no longer
/// depends on the seed.
pub const PLAN_TRIALS: usize = 4096;

/// The supervisor policy of the recovery benches: 256-cycle checkpoint
/// cadence and signature windows, a 2000-cycle watchdog.
pub fn report_policy() -> RecoveryPolicy {
    RecoveryPolicy { checkpoint_every: 256, watchdog_threshold: 2_000, ..RecoveryPolicy::default() }
}

/// Exactness bookkeeping shared by every workload. A mismatch marks the
/// current operation failed; it never panics.
#[derive(Debug, Default)]
pub struct Check {
    /// Operations with at least one mismatch.
    pub failed_ops: u64,
    /// Largest |co-sim − RTL| simulated-cycle difference seen.
    pub cycle_error: u64,
    /// Checks outside operations that failed (set-up, replays).
    pub other_failures: u64,
    current: bool,
}

impl Check {
    /// Records a failed check on the current operation.
    pub fn fail(&mut self) {
        self.current = true;
    }

    /// Requires `ok`.
    pub fn require(&mut self, ok: bool) {
        if !ok {
            self.fail();
        }
    }

    /// Requires co-simulated and RTL cycles to agree.
    pub fn cycles(&mut self, cosim: u64, rtl: u64) {
        let diff = cosim.abs_diff(rtl);
        self.cycle_error = self.cycle_error.max(diff);
        self.require(diff == 0);
    }

    /// Closes the current operation.
    pub fn end_op(&mut self) {
        if std::mem::take(&mut self.current) {
            self.failed_ops += 1;
        }
    }

    /// Closes a check made outside any operation.
    pub fn end_other(&mut self) {
        if std::mem::take(&mut self.current) {
            self.other_failures += 1;
        }
    }
}

/// A workload the measuring loop can run.
pub trait Workload {
    /// Untimed checks before measuring: the RTL runs that fix the
    /// cycle oracle.
    fn warm_up(&mut self, tr: &mut Tracer, chk: &mut Check);
    /// One operation; returns the cycles it simulated.
    fn op(&mut self, tr: &mut Tracer, op: u64, chk: &mut Check) -> u64;
    /// Untimed work run after operation `op` (RTL runs).
    fn between(&mut self, tr: &mut Tracer, op: u64, chk: &mut Check);
    /// RTL host time per simulated cycle ÷ co-simulation host time per
    /// simulated cycle, over the same design points, from this run.
    fn rtl_speedup(&self) -> f64;
}

/// Per-design wall-time samples, ns per simulated cycle.
#[derive(Default, Clone)]
struct Samples {
    cosim: Vec<f64>,
    rtl: Vec<f64>,
    cycles: u64,
}

/// Σ w·rtl ÷ Σ w·cosim over design points, `w` being each point's
/// simulated cycles per operation and each time the point's median.
fn weighted_speedup(points: &[Samples]) -> f64 {
    let (mut rtl, mut cosim) = (0.0, 0.0);
    for s in points.iter().filter(|s| !s.rtl.is_empty() && !s.cosim.is_empty()) {
        rtl += s.cycles as f64 * median(&s.rtl);
        cosim += s.cycles as f64 * median(&s.cosim);
    }
    rtl / cosim
}

fn per_cycle(r: &RunResult) -> f64 {
    ns(r.wall) / r.cycles.max(1) as f64
}

/// One RTL run is interleaved after every this many `dse_hw` ops,
/// round robin over the designs.
const HW_RTL_EVERY: u64 = 2;

/// `dse_hw`: one op co-simulates every hardware partition once.
pub struct DseHw {
    /// The built design points.
    pub designs: Vec<Built>,
    rtl_cycles: Vec<u64>,
    samples: Vec<Samples>,
}

impl DseHw {
    /// Builds every design point (the timed set-up).
    pub fn setup(inp: &Inputs, tr: &mut Tracer) -> DseHw {
        let designs: Vec<Built> =
            hw_designs().into_iter().map(|d| Built::new(d, inp, tr)).collect();
        let n = designs.len();
        DseHw { designs, rtl_cycles: vec![0; n], samples: vec![Samples::default(); n] }
    }
}

impl Workload for DseHw {
    fn warm_up(&mut self, tr: &mut Tracer, chk: &mut Check) {
        for (i, b) in self.designs.iter().enumerate() {
            let r = b.run_rtl(tr, u64::MAX);
            chk.require(r.exact);
            self.rtl_cycles[i] = r.cycles;
        }
        chk.end_other();
    }

    fn op(&mut self, tr: &mut Tracer, op: u64, chk: &mut Check) -> u64 {
        let mut cycles = 0;
        for (i, b) in self.designs.iter_mut().enumerate() {
            let r = b.run(tr, op);
            chk.require(r.exact);
            chk.cycles(r.cycles, self.rtl_cycles[i]);
            self.samples[i].cosim.push(per_cycle(&r));
            self.samples[i].cycles = r.cycles;
            cycles += r.cycles;
        }
        cycles
    }

    fn between(&mut self, tr: &mut Tracer, op: u64, chk: &mut Check) {
        if op % HW_RTL_EVERY != HW_RTL_EVERY - 1 {
            return;
        }
        let i = (op / HW_RTL_EVERY) as usize % self.designs.len();
        let r = self.designs[i].run_rtl(tr, op);
        chk.require(r.exact);
        chk.cycles(self.samples[i].cycles, r.cycles);
        self.samples[i].rtl.push(per_cycle(&r));
    }

    fn rtl_speedup(&self) -> f64 {
        weighted_speedup(&self.samples)
    }
}

/// RTL runs of the software partitions are long; one is interleaved
/// after every this many `dse_sw` ops.
const SW_RTL_EVERY: u64 = 12;

/// `dse_sw`: one op co-simulates every software partition twice, once
/// interpreted and once with translated blocks.
pub struct DseSw {
    /// `(interpreted, translated)` builds per design.
    pub designs: Vec<(Built, Built)>,
    rtl_cycles: Vec<u64>,
    samples: Vec<Samples>,
}

impl DseSw {
    /// Builds both execution modes of every software partition.
    pub fn setup(inp: &Inputs, tr: &mut Tracer) -> DseSw {
        let designs: Vec<(Built, Built)> = sw_designs()
            .into_iter()
            .map(|d| {
                let interp = Built::new(d, inp, tr);
                let mut translated = Built::new(d, inp, tr);
                translated.sim.set_translation(true);
                (interp, translated)
            })
            .collect();
        let n = designs.len();
        // Samples: interpreted points first, then translated ones.
        DseSw { designs, rtl_cycles: vec![0; n], samples: vec![Samples::default(); 2 * n] }
    }
}

impl Workload for DseSw {
    fn warm_up(&mut self, tr: &mut Tracer, chk: &mut Check) {
        for (i, (b, _)) in self.designs.iter().enumerate() {
            let r = b.run_rtl(tr, u64::MAX);
            chk.require(r.exact);
            self.rtl_cycles[i] = r.cycles;
        }
        chk.end_other();
    }

    fn op(&mut self, tr: &mut Tracer, op: u64, chk: &mut Check) -> u64 {
        let n = self.designs.len();
        let mut cycles = 0;
        for (i, (interp, translated)) in self.designs.iter_mut().enumerate() {
            for (k, b) in [interp, translated].into_iter().enumerate() {
                let r = b.run(tr, op);
                chk.require(r.exact);
                chk.cycles(r.cycles, self.rtl_cycles[i]);
                let s = &mut self.samples[k * n + i];
                s.cosim.push(per_cycle(&r));
                s.cycles = r.cycles;
                cycles += r.cycles;
            }
        }
        cycles
    }

    fn between(&mut self, tr: &mut Tracer, op: u64, chk: &mut Check) {
        if op % SW_RTL_EVERY != SW_RTL_EVERY - 1 {
            return;
        }
        let n = self.designs.len();
        let i = (op / SW_RTL_EVERY) as usize % n;
        let r = self.designs[i].0.run_rtl(tr, op);
        chk.require(r.exact);
        chk.cycles(r.cycles, self.rtl_cycles[i]);
        let v = per_cycle(&r);
        self.samples[i].rtl.push(v);
        self.samples[n + i].rtl.push(v);
    }

    fn rtl_speedup(&self) -> f64 {
        weighted_speedup(&self.samples)
    }
}

/// One fault-injection target with its plan and references.
pub struct FaultApp {
    /// The target, built once: program, co-simulator, reference words.
    pub built: Built,
    /// Fault-free cycles to the halt.
    pub golden_cycles: u64,
    /// The seeded injection plan.
    pub plan: Vec<Injection>,
    /// Outcome of each injection the first time it ran.
    first: Vec<Option<(String, String)>>,
}

impl FaultApp {
    /// Builds the target and runs it fault-free (the run's result is
    /// checked by every later golden run); the injection window spans
    /// the last nine tenths of that run.
    fn new(design: Design, inp: &Inputs, seed: u64, tr: &mut Tracer) -> FaultApp {
        let mut built = Built::new(design, inp, tr);
        let golden_cycles = built.run(tr, u64::MAX).cycles;
        let s = tr.begin("random_plan_hardware", &built.name, u64::MAX);
        let plan = random_plan_hardware(
            seed,
            PLAN_TRIALS,
            (golden_cycles / 10, golden_cycles),
            built.image.bytes().len() as u32,
            &[0],
        );
        tr.end(s);
        FaultApp { built, golden_cycles, first: vec![None; plan.len()], plan }
    }

    /// A fresh co-simulator (peripheral built and compiled anew).
    pub fn sim(&self, tr: &mut Tracer, op: u64) -> CoSim {
        let s = tr.begin("peripheral_build", &self.built.name, op);
        let p = self.built.design.peripheral().expect("fault targets have peripherals");
        tr.end(s);
        CoSim::with_peripheral(&self.built.image, p)
    }

    /// The result words a run left in memory.
    pub fn observe(&self) -> impl Fn(&CoSim) -> Vec<u32> {
        let (base, n) = (self.built.result_base, self.built.expected.len());
        move |sim: &CoSim| {
            (0..n).map(|i| sim.cpu().mem().read_u32(base + 4 * i as u32).unwrap_or(0)).collect()
        }
    }
}

/// What one fault trial produced.
#[derive(Debug, Clone)]
pub struct TrialResult {
    /// Unsupervised classification.
    pub outcome: Outcome,
    /// Supervised classification.
    pub recovery: RecoveryOutcome,
    /// Cycles simulated by the unsupervised campaign call (golden +
    /// trial).
    pub campaign_cycles: u64,
    /// Cycles simulated by the supervised call (golden + trial work).
    pub recovery_cycles: u64,
    /// Fast-forward jumps taken by the unsupervised call's simulator.
    pub ff_engagements: u64,
    /// Cycles those jumps covered.
    pub ff_skipped: u64,
    /// Wall time of `run_campaign`, ns.
    pub campaign_ns: f64,
    /// Wall time of `run_recovery_campaign`, ns.
    pub recovery_ns: f64,
}

/// Runs injection `idx` of `app` once unsupervised and once supervised,
/// each on a fresh co-simulator, checking golden results, golden cycles
/// and that the injection's outcomes repeat.
pub fn fault_trial(
    app: &mut FaultApp,
    idx: usize,
    tr: &mut Tracer,
    op: u64,
    chk: &mut Check,
) -> TrialResult {
    let inj = [app.plan[idx]];
    let observe = app.observe();

    let name = &app.built.name;
    let mut sim = app.sim(tr, op);
    let s = tr.begin("run_campaign", name, op);
    let start = std::time::Instant::now();
    let report = run_campaign(&mut sim, &inj, &observe, CampaignConfig::default());
    let campaign_ns = ns(start.elapsed());
    tr.end(s);

    let mut sim2 = app.sim(tr, op);
    let s = tr.begin("run_recovery_campaign", name, op);
    let start = std::time::Instant::now();
    let rec = run_recovery_campaign(&mut sim2, &inj, &observe, report_policy());
    let recovery_ns = ns(start.elapsed());
    tr.end(s);

    let expected = &app.built.expected;
    chk.require(report.golden_observed == *expected && rec.golden_observed == *expected);
    chk.cycles(report.golden_cycles, app.golden_cycles);
    chk.cycles(rec.golden_cycles, app.golden_cycles);
    let trial = &report.trials[0];
    let rtrial = &rec.trials[0];
    chk.require(trial.outcome.is_design_outcome());
    chk.require(!matches!(rtrial.outcome, RecoveryOutcome::HarnessError { .. }));
    let labels = (trial.outcome.label().to_string(), rtrial.outcome.label().to_string());
    match &app.first[idx] {
        Some(seen) => chk.require(*seen == labels),
        None => app.first[idx] = Some(labels),
    }
    TrialResult {
        outcome: trial.outcome.clone(),
        recovery: rtrial.outcome.clone(),
        campaign_cycles: report.golden_cycles + trial.cpu_stats.cycles,
        recovery_cycles: rec.golden_cycles + rtrial.work_cycles,
        ff_engagements: sim.ff_engagements(),
        ff_skipped: sim.ff_skipped_cycles(),
        campaign_ns,
        recovery_ns,
    }
}

/// A co-simulated and an RTL golden run are interleaved after every
/// this many `fault_recovery` ops, alternating between the targets.
const FAULT_RTL_EVERY: u64 = 8;

/// `fault_recovery`: one op is one trial — entry `k` of the seeded plan,
/// which holds one injection per target; each is run unsupervised and
/// then supervised. Ops walk the plan in order, wrapping around. (Pairing
/// the targets in one op keeps the op-time distribution unimodal, so its
/// median does not sit between two targets' clusters.)
pub struct FaultRecovery {
    /// The two targets.
    pub apps: Vec<FaultApp>,
    samples: Vec<Samples>,
}

impl FaultRecovery {
    /// Assembles both targets, runs their golden runs and draws the
    /// plans (the timed set-up).
    pub fn setup(inp: &Inputs, tr: &mut Tracer) -> FaultRecovery {
        let apps: Vec<FaultApp> = fault_designs()
            .into_iter()
            .enumerate()
            .map(|(i, d)| FaultApp::new(d, inp, inp.plan_seed.wrapping_add(i as u64), tr))
            .collect();
        let samples = vec![Samples::default(); apps.len()];
        FaultRecovery { apps, samples }
    }

    /// The fault-free run of target `i` on the co-simulator and on the
    /// RTL model, back to back, each checked and timed per cycle.
    fn golden_pair(&mut self, i: usize, tr: &mut Tracer, op: u64, chk: &mut Check) {
        let app = &mut self.apps[i];
        let r = app.built.run(tr, op);
        chk.require(r.exact);
        chk.cycles(r.cycles, app.golden_cycles);
        let rtl = app.built.run_rtl(tr, op);
        chk.require(rtl.exact);
        chk.cycles(app.golden_cycles, rtl.cycles);
        let s = &mut self.samples[i];
        s.cosim.push(per_cycle(&r));
        s.rtl.push(per_cycle(&rtl));
        s.cycles = app.golden_cycles;
    }
}

impl Workload for FaultRecovery {
    fn warm_up(&mut self, tr: &mut Tracer, chk: &mut Check) {
        for i in 0..self.apps.len() {
            self.golden_pair(i, tr, u64::MAX, chk);
        }
        chk.end_other();
    }

    fn op(&mut self, tr: &mut Tracer, op: u64, chk: &mut Check) -> u64 {
        let mut cycles = 0;
        for app in &mut self.apps {
            let idx = op as usize % app.plan.len();
            let t = fault_trial(app, idx, tr, op, chk);
            cycles += t.campaign_cycles + t.recovery_cycles;
        }
        cycles
    }

    fn between(&mut self, tr: &mut Tracer, op: u64, chk: &mut Check) {
        if op % FAULT_RTL_EVERY == FAULT_RTL_EVERY - 1 {
            let i = (op / FAULT_RTL_EVERY) as usize % self.apps.len();
            self.golden_pair(i, tr, op, chk);
        }
    }

    fn rtl_speedup(&self) -> f64 {
        weighted_speedup(&self.samples)
    }
}
