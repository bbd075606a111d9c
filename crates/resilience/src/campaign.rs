//! The fault-campaign runner.
//!
//! A campaign replays a co-simulation once fault-free (the *golden*
//! run) and then once per scheduled injection, each trial restored from
//! the same initial checkpoint so every run starts from byte-identical
//! state. Outcomes follow the standard SEU classification: *masked*
//! (program halts with the golden observables), *SDC* (silent data
//! corruption — halts with different observables), *deadlock* (the
//! liveness watchdog fired, or the padded cycle budget expired), and
//! *fault* (the processor trapped).
//!
//! Two further outcomes make long campaigns robust rather than brittle:
//! *budget* (an explicit per-trial cycle or wall-clock budget cancelled
//! a runaway trial — graceful degradation instead of an unbounded run)
//! and *harness-error* (the harness itself panicked inside the trial;
//! the panic is caught, optionally retried with exponential backoff,
//! and recorded — one bad trial can no longer poison a campaign or
//! tear down a worker thread).

use crate::durable::JournalError;
use crate::engine::{run_borrowed, sealed::Sealed, TrialKind};
use crate::inject::{Injection, Injector};
use softsim_cosim::{CoSim, CoSimState, CoSimStop};
use softsim_iss::CpuStats;
use softsim_metrics::telemetry::SpanRecord;
use std::time::{Duration, Instant};

/// SEU outcome classification of one fault-injection trial.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Outcome {
    /// The program halted and the observed results match the golden run.
    Masked,
    /// Silent data corruption: halted, but the observables differ.
    Sdc,
    /// The watchdog detected a deadlock or livelock, or the padded cycle
    /// budget expired (classified together — the stored stop keeps the
    /// precise cause, including which FSL the processor was stuck on).
    Deadlock,
    /// The processor raised an architectural fault.
    Fault,
    /// An explicit per-trial budget — [`CampaignConfig::trial_cycle_budget`]
    /// or [`CampaignConfig::trial_wall_budget`] — cancelled the trial
    /// before the padded campaign budget would have. The design was
    /// still running; the harness chose to stop it.
    Budget,
    /// The harness itself panicked while running the trial (not the
    /// design under test — the simulated program trapping is
    /// [`Outcome::Fault`]). The panic was caught, the configured
    /// retries were exhausted, and the trial was abandoned; sibling
    /// trials are unaffected.
    HarnessError {
        /// The panic payload, when it was a string (the common case).
        panic_msg: String,
    },
}

impl Outcome {
    /// Short lower-case label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Masked => "masked",
            Outcome::Sdc => "sdc",
            Outcome::Deadlock => "deadlock",
            Outcome::Fault => "fault",
            Outcome::Budget => "budget",
            Outcome::HarnessError { .. } => "harness-error",
        }
    }

    /// True for the four SEU design classifications (everything except
    /// the harness-side [`Outcome::Budget`] / [`Outcome::HarnessError`]).
    pub fn is_design_outcome(&self) -> bool {
        !matches!(self, Outcome::Budget | Outcome::HarnessError { .. })
    }
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The record of one injection trial.
#[derive(Debug, Clone, PartialEq)]
pub struct Trial {
    /// The scheduled fault.
    pub injection: Injection,
    /// Whether the fault actually changed state (vacuous hits — r0,
    /// empty FIFO slots — still run to completion and classify, almost
    /// always as masked).
    pub applied: bool,
    /// How the run ended.
    pub stop: CoSimStop,
    /// Outcome classification.
    pub outcome: Outcome,
    /// Harness retries this trial consumed (0 for the normal
    /// first-attempt success; panicking trials count every retry
    /// whether or not one eventually succeeded).
    pub retries: u32,
    /// Processor statistics at the end of the trial.
    pub cpu_stats: CpuStats,
    /// Hardware statistics at the end of the trial.
    pub hw_stats: softsim_cosim::HwStats,
}

/// Campaign tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Liveness-watchdog threshold armed for every trial (cycles with no
    /// retired instruction and no FIFO traffic).
    pub watchdog_threshold: u64,
    /// Trial cycle budget = `golden_cycles * budget_factor +
    /// budget_floor`. The padding guarantees a fault can only exceed the
    /// budget by stopping progress, which the watchdog reports first —
    /// so trials never end in an ambiguous bare `CycleLimit`.
    pub budget_factor: u64,
    /// Additive part of the trial cycle budget.
    pub budget_floor: u64,
    /// Arm stall fast-forwarding on the simulator for the golden run and
    /// every trial (see [`CoSim::set_fast_forward`]). Statistics and
    /// classifications are bit-identical either way; deadlock-bound
    /// trials just stop burning one step per watchdog cycle. On by
    /// default.
    pub fast_forward: bool,
    /// Explicit per-trial cycle budget, counted from the injection
    /// point. A trial still running this many cycles after its fault
    /// was applied is cancelled and classified [`Outcome::Budget`]
    /// (deterministically — the cap composes with the watchdog and the
    /// padded budget, whichever fires first wins). `None` (the default)
    /// keeps the legacy behavior: only the padded budget bounds a
    /// trial, and its expiry still classifies as [`Outcome::Deadlock`].
    pub trial_cycle_budget: Option<u64>,
    /// Wall-clock budget per trial, measured from the injection point.
    /// Runaway trials are cancelled into [`Outcome::Budget`] at the
    /// next execution-slice boundary. Inherently machine-dependent —
    /// leave `None` (the default) for byte-reproducible reports; the
    /// deterministic alternative is [`CampaignConfig::trial_cycle_budget`].
    pub trial_wall_budget: Option<Duration>,
    /// Harness-panic retries per trial before the trial is abandoned as
    /// [`Outcome::HarnessError`]. Retries target *transient* harness
    /// failures; a deterministic panic (e.g.
    /// [`crate::FaultKind::HarnessPanic`]) fails every attempt and is
    /// abandoned after this many extra tries.
    pub max_trial_retries: u32,
    /// Base delay of the bounded exponential backoff between harness
    /// retries (doubled per attempt). `Duration::ZERO` (the default)
    /// retries immediately.
    pub retry_backoff: Duration,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            watchdog_threshold: 10_000,
            budget_factor: 4,
            budget_floor: 50_000,
            fast_forward: true,
            trial_cycle_budget: None,
            trial_wall_budget: None,
            max_trial_retries: 1,
            retry_backoff: Duration::ZERO,
        }
    }
}

/// Coverage accounting of a campaign — the honest-partial-results view
/// a durable (resumable) run reports. Derived entirely from the trial
/// records, so a resumed report and an uninterrupted one always agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Coverage {
    /// Trials with a design classification (masked / SDC / deadlock /
    /// fault).
    pub completed: usize,
    /// Trials an explicit cycle or wall-clock budget cancelled.
    pub budget: usize,
    /// Trials abandoned after harness panics exhausted their retries.
    pub abandoned: usize,
    /// Trials that consumed at least one harness retry (whatever their
    /// final outcome).
    pub retried: usize,
    /// Total harness retry attempts consumed across all trials (a
    /// trial retried twice contributes 2 here but 1 to `retried`).
    /// Deterministic — the wall-clock cost of those retries is
    /// telemetry, not report data (see `softsim_metrics::telemetry`).
    pub retry_attempts: usize,
}

/// The result of a whole campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Cycles the golden (fault-free) run took to halt.
    pub golden_cycles: u64,
    /// Observables of the golden run.
    pub golden_observed: Vec<u32>,
    /// One record per scheduled injection, schedule order.
    pub trials: Vec<Trial>,
}

impl CampaignReport {
    /// Trial counts as `(masked, sdc, deadlock, fault)` — the four SEU
    /// design classes. Harness-side outcomes ([`Outcome::Budget`],
    /// [`Outcome::HarnessError`]) are not design classes and are
    /// reported by [`CampaignReport::coverage`] instead.
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for t in &self.trials {
            match t.outcome {
                Outcome::Masked => c.0 += 1,
                Outcome::Sdc => c.1 += 1,
                Outcome::Deadlock => c.2 += 1,
                Outcome::Fault => c.3 += 1,
                Outcome::Budget | Outcome::HarnessError { .. } => {}
            }
        }
        c
    }

    /// Completed / budget-cancelled / abandoned / retried accounting.
    pub fn coverage(&self) -> Coverage {
        let mut c = Coverage::default();
        for t in &self.trials {
            match t.outcome {
                Outcome::Budget => c.budget += 1,
                Outcome::HarnessError { .. } => c.abandoned += 1,
                _ => c.completed += 1,
            }
            if t.retries > 0 {
                c.retried += 1;
            }
            c.retry_attempts += t.retries as usize;
        }
        c
    }

    /// Plain-text summary table of the campaign.
    pub fn text(&self, title: &str) -> String {
        use std::fmt::Write;
        let (masked, sdc, deadlock, fault) = self.counts();
        let cov = self.coverage();
        let total = self.trials.len().max(1);
        let pct = |n: usize| 100.0 * n as f64 / total as f64;
        let mut s = String::new();
        let _ = writeln!(s, "fault campaign: {title}");
        let _ = writeln!(
            s,
            "  golden run: {} cycles, {} result words",
            self.golden_cycles,
            self.golden_observed.len()
        );
        let _ = writeln!(s, "  trials: {}", self.trials.len());
        let _ = writeln!(s, "    masked:   {masked:5}  ({:5.1}%)", pct(masked));
        let _ = writeln!(s, "    sdc:      {sdc:5}  ({:5.1}%)", pct(sdc));
        let _ = writeln!(s, "    deadlock: {deadlock:5}  ({:5.1}%)", pct(deadlock));
        let _ = writeln!(s, "    fault:    {fault:5}  ({:5.1}%)", pct(fault));
        if cov.budget > 0 {
            let _ = writeln!(s, "    budget:   {:5}  ({:5.1}%)", cov.budget, pct(cov.budget));
        }
        if cov.abandoned > 0 {
            let _ = writeln!(s, "    harness:  {:5}  ({:5.1}%)", cov.abandoned, pct(cov.abandoned));
        }
        let _ = writeln!(
            s,
            "  coverage: {} completed, {} budget-cancelled, {} abandoned, {} retried ({} retry attempts)",
            cov.completed, cov.budget, cov.abandoned, cov.retried, cov.retry_attempts
        );
        s
    }
}

/// Runs a fault-injection campaign serially on the caller's simulator.
///
/// `sim` is the system under test, positioned at its initial state (it
/// is checkpointed immediately, and restored from that checkpoint for
/// the golden run and before every trial). `observe` extracts the
/// workload's observable result words from a finished run — typically
/// the output buffer in local memory.
///
/// Every trial: restore the initial checkpoint, step to the injection
/// cycle, apply the fault, arm the watchdog, run under the padded
/// budget, classify. A trial that panics the harness is caught and
/// classified [`Outcome::HarnessError`] — subsequent trials still run.
/// The whole procedure is deterministic (wall-clock budgets aside): an
/// identical `sim`, `plan` and `observe` produce a byte-identical
/// report, equal to [`crate::CampaignRun::run`]'s at any worker count.
/// On return `sim` is back at its initial state, watchdog cleared, with
/// its prior fast-forward flag.
///
/// # Panics
/// Panics if the golden run does not halt within the configured budget
/// floor times the factor (the workload must terminate fault-free).
pub fn run_campaign(
    sim: &mut CoSim,
    plan: &[Injection],
    observe: impl Fn(&CoSim) -> Vec<u32>,
    config: CampaignConfig,
) -> CampaignReport {
    run_borrowed(config, sim, plan, &observe)
}

/// The golden reference of an unsupervised campaign: the initial
/// checkpoint, the fault-free run's halt cycle and observables, and the
/// padded per-trial cycle budget derived from them.
#[derive(Debug, Clone)]
pub struct CampaignGolden {
    initial: CoSimState,
    initial_cycles: u64,
    cycles: u64,
    observed: Vec<u32>,
    budget: u64,
}

impl Sealed for CampaignConfig {}

impl TrialKind for CampaignConfig {
    type Golden = CampaignGolden;
    type Trial = Trial;
    type Report = CampaignReport;
    const JOURNAL_KIND: u8 = crate::durable::KIND_CAMPAIGN;

    fn fast_forward(&self) -> Option<bool> {
        Some(self.fast_forward)
    }

    fn harness_retries(&self) -> (u32, Duration) {
        (self.max_trial_retries, self.retry_backoff)
    }

    fn golden(&self, sim: &mut CoSim, observe: &dyn Fn(&CoSim) -> Vec<u32>) -> CampaignGolden {
        let initial = sim.save_state();
        let initial_cycles = sim.cpu().stats().cycles;
        let stop = sim.run(self.budget_floor * self.budget_factor.max(1));
        assert_eq!(stop, CoSimStop::Halted, "golden run must halt, got: {stop}");
        let cycles = sim.cpu().stats().cycles;
        let budget = cycles * self.budget_factor + self.budget_floor;
        CampaignGolden { initial, initial_cycles, cycles, observed: observe(sim), budget }
    }

    fn initial(golden: &CampaignGolden) -> &CoSimState {
        &golden.initial
    }

    fn golden_work(golden: &CampaignGolden) -> u64 {
        golden.cycles.saturating_sub(golden.initial_cycles)
    }

    fn trial(
        &self,
        sim: &mut CoSim,
        golden: &CampaignGolden,
        injection: Injection,
        observe: &dyn Fn(&CoSim) -> Vec<u32>,
        retries: u32,
    ) -> Trial {
        Trial { retries, ..run_trial(sim, golden, injection, observe, *self) }
    }

    fn abandoned(injection: Injection, panic_msg: String, retries: u32) -> Trial {
        Trial {
            injection,
            applied: false,
            stop: CoSimStop::CycleLimit { blocked: None },
            outcome: Outcome::HarnessError { panic_msg },
            retries,
            cpu_stats: CpuStats::default(),
            hw_stats: softsim_cosim::HwStats::default(),
        }
    }

    fn span(golden: &CampaignGolden, trial: &Trial, retry_wall: Duration, rec: &mut SpanRecord) {
        // Cycles *executed*: the final counter less the checkpoint's.
        rec.sim_cycles = trial.cpu_stats.cycles.saturating_sub(golden.initial_cycles);
        rec.retries = trial.retries as u64;
        rec.retry_wall = retry_wall;
        rec.budget_cancelled = matches!(trial.outcome, Outcome::Budget) as u64;
        rec.abandoned = matches!(trial.outcome, Outcome::HarnessError { .. }) as u64;
    }

    fn plan_hash(&self, plan: &[Injection], golden: &CampaignGolden) -> u64 {
        crate::durable::campaign_plan_hash(plan, *self, golden.cycles, &golden.observed)
    }

    fn encode(trial: &Trial, out: &mut Vec<u8>) {
        crate::durable::put_trial(out, trial);
    }

    fn decode(bytes: &[u8]) -> Result<Trial, JournalError> {
        crate::durable::decode_trial(bytes)
    }

    fn report(golden: CampaignGolden, trials: Vec<Trial>) -> CampaignReport {
        CampaignReport { golden_cycles: golden.cycles, golden_observed: golden.observed, trials }
    }
}

/// Execution-slice width (cycles) used when a wall-clock deadline is
/// armed: the deadline is checked between slices, so a runaway trial is
/// cancelled within one slice of the deadline. Slicing is invisible to
/// the simulation (`run(a)` then `run(b)` is bit-identical to
/// `run(a + b)`), so arming a wall budget never changes what a trial
/// that finishes in time computes.
const WALL_SLICE: u64 = 16_384;

/// One injection trial: restore the initial checkpoint, run to the
/// injection cycle (a fault this early is impossible fault-free, but
/// cheap to guard), apply the fault, arm the watchdog, run under the
/// padded budget — tightened by the explicit per-trial budgets when
/// configured — and classify.
fn run_trial(
    sim: &mut CoSim,
    golden: &CampaignGolden,
    injection: Injection,
    observe: &dyn Fn(&CoSim) -> Vec<u32>,
    config: CampaignConfig,
) -> Trial {
    let budget = golden.budget;
    sim.load_state(&golden.initial);
    // The pre-injection prefix must replay the golden prefix exactly, so
    // no watchdog (the previous trial's stays armed across restore) and
    // a budget that stops precisely at the injection cycle.
    sim.clear_watchdog();
    let pre_budget = injection.cycle.saturating_sub(sim.cpu().stats().cycles);
    let early_stop = match sim.run(pre_budget) {
        CoSimStop::CycleLimit { .. } => None,
        stop => Some(stop),
    };
    let (applied, stop, budget_cancelled) = match early_stop {
        Some(stop) => (false, stop, false),
        None => {
            let applied = Injector::apply(sim, injection.kind);
            sim.set_watchdog(config.watchdog_threshold);
            let deadline = config.trial_wall_budget.map(|d| Instant::now() + d);
            // Absolute-cycle cap: the padded campaign budget, tightened
            // by the explicit per-trial budget counted from injection.
            let cap = match config.trial_cycle_budget {
                Some(tcb) => budget.min(sim.cpu().stats().cycles.saturating_add(tcb)),
                None => budget,
            };
            let (stop, cancelled) = run_capped(sim, cap, cap < budget, deadline);
            (applied, stop, cancelled)
        }
    };
    let outcome = match &stop {
        CoSimStop::Halted if observe(sim) == golden.observed => Outcome::Masked,
        CoSimStop::Halted => Outcome::Sdc,
        CoSimStop::CycleLimit { .. } if budget_cancelled => Outcome::Budget,
        CoSimStop::Deadlock { .. } | CoSimStop::CycleLimit { .. } => Outcome::Deadlock,
        CoSimStop::Fault(_) => Outcome::Fault,
    };
    Trial {
        injection,
        applied,
        stop,
        outcome,
        retries: 0,
        cpu_stats: sim.cpu().stats(),
        hw_stats: sim.hw_stats(),
    }
}

/// Runs `sim` to the absolute cycle `cap`, checking an optional
/// wall-clock `deadline` between [`WALL_SLICE`]-cycle slices. Returns
/// the stop plus whether an explicit budget (cycle cap tighter than the
/// padded campaign budget, flagged by `cap_is_trial_budget`, or the
/// wall deadline) cancelled the run.
fn run_capped(
    sim: &mut CoSim,
    cap: u64,
    cap_is_trial_budget: bool,
    deadline: Option<Instant>,
) -> (CoSimStop, bool) {
    loop {
        // The deadline is checked before each slice as well as after it,
        // so a trial whose wall budget has already expired — including
        // one about to fast-forward a stall the watchdog would later
        // diagnose — is cancelled as a budget hit at the slice boundary.
        // A stop the simulator reaches *inside* a slice (halt, diagnosed
        // deadlock, fault) still wins over a deadline that expires
        // during that same slice.
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return (CoSimStop::CycleLimit { blocked: None }, true);
        }
        let now = sim.cpu().stats().cycles;
        if now >= cap {
            return (CoSimStop::CycleLimit { blocked: None }, cap_is_trial_budget);
        }
        let slice = match deadline {
            Some(_) => (cap - now).min(WALL_SLICE),
            None => cap - now,
        };
        match sim.run(slice) {
            CoSimStop::CycleLimit { blocked } => {
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    return (CoSimStop::CycleLimit { blocked }, true);
                }
                if sim.cpu().stats().cycles >= cap {
                    return (CoSimStop::CycleLimit { blocked }, cap_is_trial_budget);
                }
            }
            stop => return (stop, false),
        }
    }
}
