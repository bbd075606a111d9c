//! The campaign engine: the one golden → chunk → guarded trial →
//! plan-order merge loop behind every way of running a campaign.
//!
//! A campaign is a [`TrialKind`] (what a golden run and a trial are —
//! [`CampaignConfig`](crate::CampaignConfig) for unsupervised fault
//! classification, [`RecoveryPolicy`](crate::RecoveryPolicy) for
//! supervised rollback recovery) run under a [`CampaignRun`] (how it is
//! executed — worker threads, harness telemetry, a crash-resumable
//! journal). Every combination goes through the same steps:
//!
//! 1. the golden run, once, on the calling thread;
//! 2. on journaled runs, the journal is opened (resumed trials are
//!    loaded instead of re-run) and only the pending trials are
//!    announced to telemetry;
//! 3. the pending trials are split into contiguous chunks, one per
//!    worker, and each trial runs under `catch_unwind` with the kind's
//!    harness-retry budget — a panicking trial is classified, never
//!    fatal, and a parallel worker rebuilds its simulator after one;
//! 4. results merge in plan order, so the report — and on one worker
//!    the journal bytes — do not depend on the worker count, on
//!    telemetry, or on where a previous run was interrupted.
//!
//! [`crate::run_campaign`] and [`crate::run_recovery_campaign`] are the
//! borrowed-simulator form: trials run serially on the caller's thread
//! and simulator, which is restored to its initial state afterwards.

use crate::durable::{DurabilityStatus, Journal, JournalError};
use crate::inject::Injection;
use softsim_cosim::{CoSim, CoSimState};
use softsim_metrics::telemetry::{SpanKind, SpanRecord, Telemetry};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

pub(crate) mod sealed {
    /// Restricts [`super::TrialKind`] to the campaign kinds of this
    /// crate: the engine's determinism contract depends on them.
    pub trait Sealed {}
}

/// One kind of fault campaign: its golden run, its trial, its `SSJL`
/// journal codec and how its trials assemble into a report.
/// Implemented by [`CampaignConfig`](crate::CampaignConfig) and
/// [`RecoveryPolicy`](crate::RecoveryPolicy); sealed.
pub trait TrialKind: sealed::Sealed + Copy + Send + Sync {
    /// The fault-free reference every trial is judged against.
    type Golden: Sync;
    /// The record of one trial.
    type Trial: Clone + Send + Sync;
    /// The merged campaign report.
    type Report;
    /// Header `kind` byte of this kind's journals.
    const JOURNAL_KIND: u8;

    /// The stall fast-forwarding flag this kind arms on every simulator
    /// it runs, or `None` when it leaves the simulator's flag alone.
    fn fast_forward(&self) -> Option<bool>;
    /// Harness-panic retries per trial, and the base of the doubling
    /// backoff between them.
    fn harness_retries(&self) -> (u32, Duration);
    /// Runs the golden reference on `sim`, positioned at its initial
    /// state.
    fn golden(&self, sim: &mut CoSim, observe: &dyn Fn(&CoSim) -> Vec<u32>) -> Self::Golden;
    /// The checkpoint every trial starts from.
    fn initial(golden: &Self::Golden) -> &CoSimState;
    /// Simulated cycles the golden span reports.
    fn golden_work(golden: &Self::Golden) -> u64;
    /// One unguarded trial; `retries` harness retries preceded it.
    fn trial(
        &self,
        sim: &mut CoSim,
        golden: &Self::Golden,
        injection: Injection,
        observe: &dyn Fn(&CoSim) -> Vec<u32>,
        retries: u32,
    ) -> Self::Trial;
    /// The record of a trial abandoned after `retries` harness retries.
    fn abandoned(injection: Injection, panic_msg: String, retries: u32) -> Self::Trial;
    /// Fills the kind-specific fields of a trial span; `retry_wall` is
    /// the wall time spent after the first attempt.
    fn span(golden: &Self::Golden, trial: &Self::Trial, retry_wall: Duration, rec: &mut SpanRecord);
    /// FNV-1a digest of the campaign's deterministic identity: the
    /// classification-relevant knobs, the plan and the golden reference.
    fn plan_hash(&self, plan: &[Injection], golden: &Self::Golden) -> u64;
    /// Appends the journal encoding of `trial` to `out`.
    fn encode(trial: &Self::Trial, out: &mut Vec<u8>);
    /// Decodes one journal encoding, which must span all of `bytes`.
    fn decode(bytes: &[u8]) -> Result<Self::Trial, JournalError>;
    /// Assembles the report from the golden reference and the trials in
    /// plan order.
    fn report(golden: Self::Golden, trials: Vec<Self::Trial>) -> Self::Report;
}

/// The journal of a [`CampaignRun`]: every completed trial is appended
/// to the `SSJL` file at `path` (see [`crate::durable`]).
#[derive(Debug, Clone, Copy)]
pub struct JournalOptions<'a> {
    /// The journal file.
    pub path: &'a Path,
    /// Load the trials a previous run journaled at `path` instead of
    /// re-running them (after validating the plan hash; a torn tail is
    /// dropped and re-run). `false` always starts fresh, truncating any
    /// existing file; `true` with no existing journal is also a fresh
    /// start.
    pub resume: bool,
    /// Injects a journal-append failure (tests and fault-shim callers;
    /// `None` in production). A failed append never fails the campaign:
    /// the run finishes non-durable, see [`DurabilityStatus`].
    pub append_fault: Option<crate::AppendFaultPlan>,
}

/// How to execute a campaign: the one entry point for every combination
/// of worker threads, harness telemetry and journaling.
///
/// The report is byte-identical for every choice of these fields; on
/// one worker so are the journal bytes (parallel workers append in
/// completion order, which resume does not care about).
#[derive(Debug, Clone, Copy, Default)]
pub struct CampaignRun<'a> {
    /// Worker threads (0 is treated as 1). Each builds its own
    /// simulator; trials are split into contiguous chunks in plan order.
    pub workers: usize,
    /// Harness telemetry: a golden span, one trial span per executed
    /// trial, one journal-append span per record, one campaign span.
    pub telemetry: Option<&'a Telemetry>,
    /// Journal every completed trial, optionally resuming an earlier
    /// run. Only journaled runs read [`crate::durable::ABORT_ENV`].
    pub journal: Option<JournalOptions<'a>>,
}

impl CampaignRun<'_> {
    /// Runs the campaign `kind` over `plan`.
    ///
    /// `make_sim` builds a fresh co-simulator at its initial state: one
    /// for the golden run, one per worker, and a replacement whenever a
    /// trial panics (a [`CoSim`] holds non-`Send` observers, so
    /// simulators cannot migrate across threads). `observe` extracts
    /// the workload's observable result words from a finished run.
    ///
    /// Returns the report and how durable the run was (`durable` is
    /// `false` on unjournaled runs and after a failed append; print its
    /// `warning`, if any). Errors are journal failures only: I/O, a
    /// journal for a different campaign, or an invalid
    /// [`crate::durable::ABORT_ENV`].
    ///
    /// # Panics
    /// Panics if the golden run does not halt within the kind's budget.
    pub fn run<K: TrialKind>(
        &self,
        kind: K,
        make_sim: impl Fn() -> CoSim + Sync,
        plan: &[Injection],
        observe: impl Fn(&CoSim) -> Vec<u32> + Sync,
    ) -> Result<(K::Report, DurabilityStatus), JournalError> {
        let mut engine = Engine::start(kind, &mut make_sim(), plan, &observe, self.telemetry);
        if let Some(opts) = &self.journal {
            engine.open_journal(opts)?;
        }
        if let Some(t) = self.telemetry {
            t.expect_trials(engine.pending.len() as u64);
        }
        let chunk = engine.pending.len().div_ceil(self.workers.max(1)).max(1);
        let mut fresh = vec![None; engine.pending.len()];
        std::thread::scope(|scope| {
            let chunks = engine.pending.chunks(chunk).zip(fresh.chunks_mut(chunk));
            for (worker, (indices, out)) in chunks.enumerate() {
                let (engine, make_sim, observe) = (&engine, &make_sim, &observe);
                scope.spawn(move || {
                    let mut sim = make_sim();
                    prepare(&engine.kind, &mut sim);
                    engine.drain(&mut sim, Some(make_sim), observe, worker as u32, indices, out);
                });
            }
        });
        Ok(engine.finish(fresh))
    }
}

/// The borrowed-simulator form behind [`crate::run_campaign`] and
/// [`crate::run_recovery_campaign`]: serial, on the caller's thread and
/// simulator, unjournaled and uninstrumented. On return `sim` is back
/// at its initial state with the watchdog cleared and its prior
/// fast-forward flag.
pub(crate) fn run_borrowed<K: TrialKind>(
    kind: K,
    sim: &mut CoSim,
    plan: &[Injection],
    observe: &dyn Fn(&CoSim) -> Vec<u32>,
) -> K::Report {
    let prev_fast_forward = sim.fast_forward();
    let engine = Engine::start(kind, sim, plan, observe, None);
    let mut fresh = vec![None; engine.pending.len()];
    engine.drain(sim, None, observe, 0, &engine.pending, &mut fresh);
    sim.load_state(K::initial(&engine.golden));
    sim.clear_watchdog();
    sim.set_fast_forward(prev_fast_forward);
    engine.finish(fresh).0
}

/// Arms `kind`'s fast-forward flag on a simulator about to run it.
fn prepare<K: TrialKind>(kind: &K, sim: &mut CoSim) {
    if let Some(ff) = kind.fast_forward() {
        sim.set_fast_forward(ff);
    }
}

/// One slot per plan entry (or per pending trial), filled as trials
/// complete.
pub(crate) type Slots<T> = Vec<Option<T>>;

/// Best-effort string rendering of a caught panic payload.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One campaign in flight: everything the workers share.
struct Engine<'e, K: TrialKind> {
    kind: K,
    plan: &'e [Injection],
    golden: K::Golden,
    /// One slot per plan entry, filled where a resumed journal already
    /// held the trial.
    done: Slots<K::Trial>,
    /// Plan indices still to run, ascending.
    pending: Vec<u32>,
    telemetry: Option<&'e Telemetry>,
    journal: Option<Journal>,
    started: Option<Instant>,
}

impl<'e, K: TrialKind> Engine<'e, K> {
    /// Golden run on `sim`; every trial is pending.
    fn start(
        kind: K,
        sim: &mut CoSim,
        plan: &'e [Injection],
        observe: &dyn Fn(&CoSim) -> Vec<u32>,
        telemetry: Option<&'e Telemetry>,
    ) -> Self {
        let started = telemetry.map(|_| Instant::now());
        prepare(&kind, sim);
        let golden = kind.golden(sim, observe);
        if let (Some(t), Some(start)) = (telemetry, started) {
            let mut rec = SpanRecord::new(SpanKind::Golden, 0, start.elapsed());
            rec.sim_cycles = K::golden_work(&golden);
            t.record(rec);
        }
        let (done, pending) = (vec![None; plan.len()], (0..plan.len() as u32).collect());
        Engine { kind, plan, golden, done, pending, telemetry, journal: None, started }
    }

    /// Opens the journal (keyed by the plan hash); on resume, the trials
    /// it already holds leave `pending` for `done`.
    fn open_journal(&mut self, opts: &JournalOptions) -> Result<(), JournalError> {
        let hash = self.kind.plan_hash(self.plan, &self.golden);
        let (journal, done) = Journal::open::<K>(opts, hash, self.plan.len())?;
        self.pending.retain(|&i| done[i as usize].is_none());
        self.done = done;
        self.journal = Some(journal);
        Ok(())
    }

    /// One worker's share: runs the trials at `indices` in order on
    /// `sim`, journaling each, and fills `out` to match.
    fn drain(
        &self,
        sim: &mut CoSim,
        rebuild: Option<&dyn Fn() -> CoSim>,
        observe: &dyn Fn(&CoSim) -> Vec<u32>,
        worker: u32,
        indices: &[u32],
        out: &mut [Option<K::Trial>],
    ) {
        for (slot, &index) in out.iter_mut().zip(indices) {
            let trial = self.guarded(sim, rebuild, self.plan[index as usize], observe, worker);
            if let Some(journal) = &self.journal {
                let mut payload = index.to_le_bytes().to_vec();
                K::encode(&trial, &mut payload);
                journal.append(&payload, self.telemetry, worker);
            }
            *slot = Some(trial);
        }
    }

    /// One trial under `catch_unwind`: a panicking attempt is retried
    /// with the kind's budget and doubling backoff, then abandoned.
    /// `rebuild` (the parallel form's `make_sim`) replaces a simulator
    /// the panic may have left inconsistent; the borrowed form relies
    /// on the next trial's checkpoint restore.
    fn guarded(
        &self,
        sim: &mut CoSim,
        rebuild: Option<&dyn Fn() -> CoSim>,
        injection: Injection,
        observe: &dyn Fn(&CoSim) -> Vec<u32>,
        worker: u32,
    ) -> K::Trial {
        let start = self.telemetry.map(|_| Instant::now());
        let (ff0, ffc0) = (sim.ff_engagements(), sim.ff_skipped_cycles());
        let (max_retries, backoff) = self.kind.harness_retries();
        let mut first_attempt_end: Option<Instant> = None;
        let mut attempt = 0u32;
        let trial = loop {
            let result = catch_unwind(AssertUnwindSafe(|| {
                self.kind.trial(sim, &self.golden, injection, observe, attempt)
            }));
            if start.is_some() && first_attempt_end.is_none() {
                first_attempt_end = Some(Instant::now());
            }
            match result {
                Ok(trial) => break trial,
                Err(payload) => {
                    let panic_msg = panic_message(payload);
                    if let Some(make) = rebuild {
                        *sim = make();
                        prepare(&self.kind, sim);
                    }
                    if attempt >= max_retries {
                        break K::abandoned(injection, panic_msg, attempt);
                    }
                    let wait = backoff.saturating_mul(1u32 << attempt.min(16));
                    if !wait.is_zero() {
                        std::thread::sleep(wait);
                    }
                    attempt += 1;
                }
            }
        };
        if let (Some(t), Some(start), Some(first)) = (self.telemetry, start, first_attempt_end) {
            let mut rec = SpanRecord::new(SpanKind::Trial, worker, start.elapsed());
            let retry_wall = if attempt > 0 { first.elapsed() } else { Duration::ZERO };
            K::span(&self.golden, &trial, retry_wall, &mut rec);
            // Deltas against this worker's simulator (saturating: a
            // rebuild after a panic resets the counters).
            rec.ff_engagements = sim.ff_engagements().saturating_sub(ff0);
            rec.ff_skipped_cycles = sim.ff_skipped_cycles().saturating_sub(ffc0);
            t.record(rec);
        }
        trial
    }

    /// Merges the fresh trials into their plan slots, closes the
    /// campaign span and assembles the report.
    fn finish(self, fresh: Slots<K::Trial>) -> (K::Report, DurabilityStatus) {
        let mut slots = self.done;
        for (&index, trial) in self.pending.iter().zip(fresh) {
            slots[index as usize] = trial;
        }
        let trials = slots.into_iter().map(|t| t.expect("worker filled every slot")).collect();
        if let (Some(t), Some(start)) = (self.telemetry, self.started) {
            t.record(SpanRecord::new(SpanKind::Campaign, 0, start.elapsed()));
        }
        let status = match &self.journal {
            Some(journal) => journal.status(),
            None => DurabilityStatus { durable: false, appended: 0, warning: None },
        };
        (K::report(self.golden, trials), status)
    }
}
