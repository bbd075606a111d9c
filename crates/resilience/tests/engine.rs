//! The campaign engine's equivalence table: every way of running a
//! campaign — the borrowed-simulator serial form, 1/2/5 workers,
//! telemetry off and on, unjournaled, journaled fresh, and resumed from
//! an interrupted journal — gives the same report and, where a journal
//! is written, the same journal bytes, for both campaign kinds. With
//! telemetry on, the span rollups reconcile exactly with the report.

mod common;

use common::{
    canonical, fsl_sim, mixed_plan_with_panic, observe, quick_config, record_offset, scratch,
    HEADER_LEN,
};
use softsim_cosim::CoSim;
use softsim_metrics::telemetry::{Telemetry, TelemetryConfig};
use softsim_resilience::{
    run_campaign, run_recovery_campaign, CampaignConfig, CampaignReport, CampaignRun, Injection,
    JournalOptions, RecoveryPolicy, RecoveryReport, TrialKind,
};
use std::fmt::Debug;

/// What the table needs of a campaign kind beyond the engine's trait.
trait Kind: TrialKind<Report: PartialEq + Debug> {
    fn make() -> Self;
    /// The borrowed-simulator form.
    fn borrowed(self, sim: &mut CoSim, plan: &[Injection]) -> Self::Report;
    fn text(report: &Self::Report) -> String;
    fn golden_cycles(report: &Self::Report) -> u64;
    /// Simulated cycles the span of trial `i` reports.
    fn trial_work(report: &Self::Report, i: usize) -> u64;
}

impl Kind for CampaignConfig {
    fn make() -> Self {
        quick_config()
    }
    fn borrowed(self, sim: &mut CoSim, plan: &[Injection]) -> CampaignReport {
        run_campaign(sim, plan, observe, self)
    }
    fn text(report: &CampaignReport) -> String {
        report.text("fsl round trip")
    }
    fn golden_cycles(report: &CampaignReport) -> u64 {
        report.golden_cycles
    }
    fn trial_work(report: &CampaignReport, i: usize) -> u64 {
        report.trials[i].cpu_stats.cycles
    }
}

impl Kind for RecoveryPolicy {
    fn make() -> Self {
        RecoveryPolicy::default()
    }
    fn borrowed(self, sim: &mut CoSim, plan: &[Injection]) -> RecoveryReport {
        run_recovery_campaign(sim, plan, observe, self)
    }
    fn text(report: &RecoveryReport) -> String {
        report.text("fsl round trip")
    }
    fn golden_cycles(report: &RecoveryReport) -> u64 {
        report.golden_cycles
    }
    fn trial_work(report: &RecoveryReport, i: usize) -> u64 {
        // Rollback replays included: the honest measure of effort.
        report.trials[i].work_cycles
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Journal {
    Off,
    Fresh,
    /// Resumed from the reference journal cut as given.
    Resumed(Cut),
}

/// Where an interrupted journal was cut before the resume.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Cut {
    /// Three complete records plus three bytes of the fourth.
    TornTail,
    /// The header alone: a crash before the first record.
    HeaderOnly,
    /// Nothing: every record on file, so the resume re-runs nothing and
    /// leaves the journal alone.
    Complete,
}

impl Cut {
    /// (bytes kept, complete records kept) of a full journal.
    fn apply(self, full: &[u8], trials: usize) -> (usize, usize) {
        match self {
            Cut::TornTail => (record_offset(full, 3) + 3, 3),
            Cut::HeaderOnly => (HEADER_LEN, 0),
            Cut::Complete => (full.len(), trials),
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Row {
    /// `None`: the borrowed-simulator form.
    workers: Option<usize>,
    telemetry: bool,
    journal: Journal,
}

fn rows() -> Vec<Row> {
    let mut rows = vec![Row { workers: None, telemetry: false, journal: Journal::Off }];
    for workers in [1, 2, 5] {
        for telemetry in [false, true] {
            for journal in [Journal::Off, Journal::Fresh, Journal::Resumed(Cut::TornTail)] {
                rows.push(Row { workers: Some(workers), telemetry, journal });
            }
        }
        for cut in [Cut::HeaderOnly, Cut::Complete] {
            let journal = Journal::Resumed(cut);
            rows.push(Row { workers: Some(workers), telemetry: false, journal });
        }
    }
    rows
}

/// Runs every row for kind `K` against the borrowed serial report and
/// the fresh one-worker journal.
fn check_kind<K: Kind>(name: &str) {
    let plan = mixed_plan_with_panic();
    let kind = K::make();
    let reference = kind.borrowed(&mut fsl_sim(), &plan);
    let path = scratch("engine", name);
    let journal = |resume| Some(JournalOptions { path: &path, resume, append_fault: None });
    CampaignRun { workers: 1, telemetry: None, journal: journal(false) }
        .run(kind, fsl_sim, &plan, observe)
        .expect("journal I/O");
    let reference_journal = std::fs::read(&path).expect("journal readable");

    for row in rows() {
        let t = Telemetry::new(TelemetryConfig::default());
        let telemetry = row.telemetry.then_some(&t);
        // Trials already on file, and the valid journal prefix they span.
        let (done, good_before) = match row.journal {
            Journal::Off => (0, 0),
            Journal::Fresh => (0, HEADER_LEN),
            Journal::Resumed(cut) => {
                let (keep, done) = cut.apply(&reference_journal, plan.len());
                std::fs::write(&path, &reference_journal[..keep]).expect("journal writable");
                (done, record_offset(&reference_journal, done))
            }
        };
        let report = match row.workers {
            None => kind.borrowed(&mut fsl_sim(), &plan),
            Some(workers) => {
                let journal = match row.journal {
                    Journal::Off => None,
                    Journal::Fresh => journal(false),
                    Journal::Resumed(_) => journal(true),
                };
                let run = CampaignRun { workers, telemetry, journal };
                let (report, status) = run.run(kind, fsl_sim, &plan, observe).expect("journal I/O");
                assert_eq!(status.durable, journal.is_some(), "{name} {row:?}");
                report
            }
        };
        assert_eq!(report, reference, "{name} {row:?}");
        assert_eq!(K::text(&report), K::text(&reference), "{name} {row:?}");

        let bytes = (row.journal != Journal::Off).then(|| std::fs::read(&path).unwrap());
        if let Some(bytes) = &bytes {
            if row.workers == Some(1) || done == plan.len() {
                assert_eq!(bytes, &reference_journal, "{name} {row:?}: journal bytes");
            } else {
                // Parallel workers append in completion order.
                assert_eq!(canonical(bytes), reference_journal, "{name} {row:?}: journal records");
            }
        }
        if row.telemetry {
            // Only the executed trials — the ones not on file — show up
            // as spans, and the rollups reconcile with the report.
            let executed = done..plan.len();
            assert_eq!(t.trial_count(), executed.len() as u64, "{name} {row:?}: trial spans");
            let work: u64 = executed.map(|i| K::trial_work(&report, i)).sum();
            assert_eq!(t.trial_cycles(), work, "{name} {row:?}: trial sim-cycles");
            assert_eq!(t.golden_cycles(), K::golden_cycles(&report), "{name} {row:?}");
            if let Some(bytes) = &bytes {
                // Journal-append spans account for every byte appended.
                let appended = (bytes.len() - good_before) as u64;
                assert_eq!(t.journal_bytes(), appended, "{name} {row:?}: journal bytes");
            }
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn every_way_of_running_a_campaign_gives_the_same_report_and_journal() {
    check_kind::<CampaignConfig>("campaign");
    check_kind::<RecoveryPolicy>("recovery");
}
