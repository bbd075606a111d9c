//! Integration tests for harness telemetry: the span rollups of an
//! instrumented campaign reconcile exactly with what the report says
//! happened, and the exposition reflects the run. Report and journal
//! byte-identity with telemetry on, at 1/2/5 workers and on resume, is
//! a row set of the engine's equivalence table (`tests/engine.rs`).

mod common;

use common::{fsl_sim, mixed_plan_with_panic, observe, quick_config};
use softsim_metrics::telemetry::{SpanKind, Telemetry, TelemetryConfig};
use softsim_resilience::{CampaignReport, CampaignRun};

/// The mixed plan run on `workers` threads with telemetry into `t`.
fn instrumented(t: &Telemetry, workers: usize) -> CampaignReport {
    let run = CampaignRun { workers, telemetry: Some(t), journal: None };
    let plan = mixed_plan_with_panic();
    run.run(quick_config(), fsl_sim, &plan, observe).expect("an unjournaled campaign does no I/O").0
}

#[test]
fn campaign_span_rollups_reconcile_with_the_report() {
    let t = Telemetry::new(TelemetryConfig::default());
    let report = instrumented(&t, 1);

    // Exactly one trial span per injection; sim-cycle rollup equals the
    // report's per-trial cycle sum, and the golden span carries the
    // golden run's cycles.
    assert_eq!(t.trial_count(), report.trials.len() as u64);
    let report_cycles: u64 = report.trials.iter().map(|tr| tr.cpu_stats.cycles).sum();
    assert_eq!(t.trial_cycles(), report_cycles, "trial sim-cycles reconcile exactly");
    assert_eq!(t.golden_cycles(), report.golden_cycles, "golden sim-cycles reconcile exactly");

    // Retry attempts roll up from the same per-trial counter the
    // deterministic coverage line prints.
    let report_retries: u64 = report.trials.iter().map(|tr| tr.retries as u64).sum();
    assert_eq!(t.retries(), report_retries);
    assert_eq!(report.coverage().retry_attempts, report_retries as usize);
    assert!(t.retries() >= 1, "the deliberate panic forces at least one retry");
    assert!(t.retry_wall() > std::time::Duration::ZERO, "retries cost measurable wall time");

    // Worker rollups cover every recorded sim-cycle.
    let worker_cycles: u64 = t.worker_stats().iter().map(|w| w.cycles).sum();
    assert_eq!(worker_cycles, t.trial_cycles() + t.golden_cycles());
}

#[test]
fn parallel_worker_rollups_cover_all_trials() {
    let t = Telemetry::new(TelemetryConfig::default());
    let report = instrumented(&t, 3);
    let workers = t.worker_stats();
    assert!(workers.len() >= 2, "three chunks spread over at least two worker slots");
    let span_total: u64 = workers.iter().map(|w| w.spans).sum();
    // Golden + one span per trial (abandoned ones included); the
    // campaign span is an aggregate, not worker occupancy.
    assert_eq!(span_total, 1 + report.trials.len() as u64);
    let worker_cycles: u64 = workers.iter().map(|w| w.cycles).sum();
    let report_cycles: u64 = report.trials.iter().map(|tr| tr.cpu_stats.cycles).sum();
    assert_eq!(worker_cycles, report_cycles + report.golden_cycles);
}

#[test]
fn exposition_reflects_the_run_and_escapes_correctly() {
    let plan = mixed_plan_with_panic();
    let t = Telemetry::new(TelemetryConfig::default());
    instrumented(&t, 1);

    let prom = t.to_prometheus();
    assert!(prom.contains(&format!(
        "softsim_harness_spans_total{{kind=\"{}\"}} {}",
        SpanKind::Trial.label(),
        plan.len()
    )));
    assert!(prom.contains("softsim_harness_trial_wall_seconds_bucket"));
    assert!(prom.contains("le=\"+Inf\""));
    assert!(prom.contains(&format!("softsim_harness_trials_expected {}", plan.len())));

    let json = t.to_json();
    let v = softsim_trace::json::parse(&json).expect("telemetry JSON parses");
    assert_eq!(v.get("trials").and_then(|c| c.as_f64()), Some(plan.len() as f64));
    assert_eq!(v.get("retries").and_then(|c| c.as_f64()), Some(t.retries() as f64));
}
