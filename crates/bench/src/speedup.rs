//! The `BENCH_0004` speedup record: stall fast-forwarding and the
//! parallel sweep engine against the plain serial baseline.
//!
//! Three runs of the same 120-trial CORDIC fault campaign — serial with
//! fast-forwarding off, serial with fast-forwarding on, and the
//! parallel runner (fast-forwarding on) — are timed wall-clock and
//! asserted to produce byte-identical reports, so every speedup in the
//! JSON is backed by an equivalence check, not just a stopwatch. The
//! same triple is timed on the FSL-stall-heavy stuck-flag campaign
//! (every trial deadlocks, the case fast-forwarding exists for), and a
//! final section times the Figure 5 DSE sweep serial vs parallel. The
//! numbers are machine-dependent (like `BENCH_0003.json`); the report
//! equality is not.

use crate::faults::{
    cordic_campaign_with, cordic_plan, cordic_stuck_campaign, cordic_stuck_plan, default_workers,
    run_cordic, REPORT_SEED, REPORT_TRIALS,
};
use crate::record::{obj, Gate, Record};
use crate::tables::figure5_with;
use softsim_resilience::{CampaignConfig, CampaignReport, CampaignRun, Injection};
use std::time::Instant;

/// Wall-clock seconds `f` takes, with its result.
fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let r = f();
    (start.elapsed().as_secs_f64(), r)
}

/// `plan` over the CORDIC divider on `workers` threads.
fn parallel(plan: &[Injection], workers: usize) -> CampaignReport {
    let run = CampaignRun { workers, ..CampaignRun::default() };
    run_cordic(plan, CampaignConfig::default(), &run)
        .expect("an unjournaled campaign does no I/O")
        .0
}

/// The machine-readable `BENCH_0004` record.
///
/// # Panics
/// Panics if the three campaign runs or the two sweep runs disagree on
/// any result — wall-clock without equivalence is meaningless here.
pub fn speedup_json() -> Record {
    let workers = default_workers();
    let stepped = CampaignConfig { fast_forward: false, ..CampaignConfig::default() };
    let (serial_s, serial) = timed(|| cordic_campaign_with(REPORT_SEED, REPORT_TRIALS, stepped));
    let (ff_s, ff) =
        timed(|| cordic_campaign_with(REPORT_SEED, REPORT_TRIALS, CampaignConfig::default()));
    let (par_s, par) = timed(|| parallel(&cordic_plan(REPORT_SEED, REPORT_TRIALS), workers));
    assert_eq!(serial, ff, "fast-forwarding must not change the campaign report");
    assert_eq!(serial, par, "the parallel runner must not change the campaign report");

    let (stuck_serial_s, stuck_serial) = timed(|| cordic_stuck_campaign(REPORT_TRIALS, stepped));
    let (stuck_ff_s, stuck_ff) =
        timed(|| cordic_stuck_campaign(REPORT_TRIALS, CampaignConfig::default()));
    let (stuck_par_s, stuck_par) = timed(|| parallel(&cordic_stuck_plan(REPORT_TRIALS), workers));
    assert_eq!(stuck_serial, stuck_ff, "fast-forwarding must not change the stuck-fault report");
    assert_eq!(
        stuck_serial, stuck_par,
        "the parallel runner must not change the stuck-fault report"
    );

    let (sweep_serial_s, sweep_serial) = timed(|| figure5_with(1));
    let (sweep_par_s, sweep_par) = timed(|| figure5_with(workers));
    let sweep_cycles: Vec<u64> = sweep_serial.iter().map(|q| q.cycles).collect();
    assert_eq!(
        sweep_cycles,
        sweep_par.iter().map(|q| q.cycles).collect::<Vec<u64>>(),
        "the parallel sweep must reproduce the serial cycle counts"
    );

    let ratio = |base: f64, opt: f64| base / opt.max(1e-12);
    let wall = |seconds: f64| obj! { "wall_seconds" => seconds };
    let campaign = |workload: &str, serial: f64, ff: f64, par: f64| {
        obj! {
            "workload" => workload, "trials" => REPORT_TRIALS,
            "serial" => wall(serial), "fast_forward" => wall(ff), "parallel" => wall(par),
            "speedup_fast_forward" => ratio(serial, ff), "speedup_parallel" => ratio(serial, par),
            "reports_identical" => true,
        }
    };
    let stall_workload = "cordic stuck-flag campaign (every trial deadlocks)";
    let fields = obj! {
        "workers" => workers,
        "campaign" => campaign("cordic fault campaign", serial_s, ff_s, par_s),
        "stall_campaign" => campaign(stall_workload, stuck_serial_s, stuck_ff_s, stuck_par_s),
        "sweep" => obj! {
            "workload" => "figure5 cordic DSE grid", "points" => sweep_cycles.len(),
            "serial" => wall(sweep_serial_s), "parallel" => wall(sweep_par_s),
            "speedup" => ratio(sweep_serial_s, sweep_par_s), "points_identical" => true,
        },
    };
    let description =
        "stall fast-forwarding + parallel sweep engine wall-clock vs the serial stepped baseline";
    Record::new("BENCH_0004", description, fields)
        .series("fast_forward_speedup_stall", ratio(stuck_serial_s, stuck_ff_s), Gate::Floor(0.8))
        .series("fast_forward_speedup_campaign", ratio(serial_s, ff_s), Gate::Info)
        .series("parallel_speedup_stall", ratio(stuck_serial_s, stuck_par_s), Gate::Info)
}

#[cfg(test)]
mod tests {
    #[test]
    fn speedup_json_is_well_formed_with_required_keys() {
        let doc = super::speedup_json().doc();
        for section in ["campaign", "stall_campaign"] {
            let campaign = doc.get(section).unwrap();
            for key in ["serial", "fast_forward", "parallel"] {
                let wall = campaign.get(key).unwrap().get("wall_seconds").unwrap();
                assert!(wall.as_f64().unwrap() >= 0.0);
            }
            assert!(campaign.get("speedup_fast_forward").unwrap().as_f64().unwrap() > 0.0);
            assert!(campaign.get("speedup_parallel").unwrap().as_f64().unwrap() > 0.0);
        }
        let sweep = doc.get("sweep").unwrap();
        assert!(sweep.get("points").unwrap().as_f64().unwrap() > 0.0);
        assert!(sweep.get("speedup").unwrap().as_f64().unwrap() > 0.0);
    }
}
