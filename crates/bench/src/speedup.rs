//! The `BENCH_0004` speedup record: stall fast-forwarding and the
//! parallel sweep engine against the plain serial baseline.
//!
//! Three runs of the same 120-trial CORDIC fault campaign — serial with
//! fast-forwarding off, serial with fast-forwarding on, and the
//! parallel runner (fast-forwarding on) — are first asserted to produce
//! byte-identical reports, so every speedup in the JSON is backed by an
//! equivalence check, not just a stopwatch, and then sampled against
//! each other ([`crate::measure::sample`]). The same triple is timed on
//! the FSL-stall-heavy stuck-flag campaign (every trial deadlocks, the
//! case fast-forwarding exists for), and a final section times the
//! Figure 5 DSE sweep serial vs parallel. The numbers are
//! machine-dependent (like `BENCH_0003.json`); the report equality is
//! not.

use crate::faults::{
    cordic_campaign_with, cordic_plan, cordic_stuck_campaign, cordic_stuck_plan, default_workers,
    run_cordic, REPORT_SEED, REPORT_TRIALS,
};
use crate::measure::{sample, time_run, SimTiming, Stats};
use crate::record::{obj, Gate, Record};
use crate::tables::figure5_with;
use softsim_resilience::{CampaignConfig, CampaignReport, CampaignRun, Injection};

/// `plan` over the CORDIC divider on `workers` threads.
fn parallel(plan: &[Injection], workers: usize) -> CampaignReport {
    let run = CampaignRun { workers, ..CampaignRun::default() };
    run_cordic(plan, CampaignConfig::default(), &run)
        .expect("an unjournaled campaign does no I/O")
        .0
}

/// Asserts the serial stepped, fast-forwarded and parallel runs of one
/// campaign report identically, then samples the three against each
/// other for `rounds` rounds.
fn campaign_triple(
    rounds: u32,
    what: &str,
    serial: impl Fn() -> CampaignReport,
    ff: impl Fn() -> CampaignReport,
    par: impl Fn() -> CampaignReport,
) -> [Stats; 3] {
    let reference = serial();
    assert_eq!(reference, ff(), "fast-forwarding must not change the {what} report");
    assert_eq!(reference, par(), "the parallel runner must not change the {what} report");
    let timed =
        |campaign: &dyn Fn() -> CampaignReport| time_run(|| (), |_| campaign().trials.len() as u64);
    let (mut a, mut b, mut c) = (|| timed(&serial), || timed(&ff), || timed(&par));
    sample(rounds, [&mut a, &mut b, &mut c])
}

/// The machine-readable `BENCH_0004` record, each timing sampled for
/// `rounds` rounds.
///
/// # Panics
/// Panics if the three campaign runs or the two sweep runs disagree on
/// any result — wall-clock without equivalence is meaningless here.
pub fn speedup_json(rounds: u32) -> Record {
    let workers = default_workers();
    let stepped = CampaignConfig { fast_forward: false, ..CampaignConfig::default() };
    let [serial, ff, par] = campaign_triple(
        rounds,
        "campaign",
        || cordic_campaign_with(REPORT_SEED, REPORT_TRIALS, stepped),
        || cordic_campaign_with(REPORT_SEED, REPORT_TRIALS, CampaignConfig::default()),
        || parallel(&cordic_plan(REPORT_SEED, REPORT_TRIALS), workers),
    );
    let [stuck_serial, stuck_ff, stuck_par] = campaign_triple(
        rounds,
        "stuck-fault",
        || cordic_stuck_campaign(REPORT_TRIALS, stepped),
        || cordic_stuck_campaign(REPORT_TRIALS, CampaignConfig::default()),
        || parallel(&cordic_stuck_plan(REPORT_TRIALS), workers),
    );

    let sweep_cycles: Vec<u64> = figure5_with(1).iter().map(|q| q.cycles).collect();
    assert_eq!(
        sweep_cycles,
        figure5_with(workers).iter().map(|q| q.cycles).collect::<Vec<u64>>(),
        "the parallel sweep must reproduce the serial cycle counts"
    );
    let sweep = |workers: usize| {
        move || -> SimTiming { time_run(|| (), |_| figure5_with(workers).len() as u64) }
    };
    let [sweep_serial, sweep_par] = sample(rounds, [&mut sweep(1), &mut sweep(workers)]);

    let ratio = |base: &Stats, opt: &Stats| base.seconds() / opt.seconds().max(1e-12);
    let wall = |s: &Stats| s.spread(obj! { "wall_seconds" => s.seconds() });
    let campaign = |workload: &str, serial: &Stats, ff: &Stats, par: &Stats| {
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
        "campaign" => campaign("cordic fault campaign", &serial, &ff, &par),
        "stall_campaign" => campaign(stall_workload, &stuck_serial, &stuck_ff, &stuck_par),
        "sweep" => obj! {
            "workload" => "figure5 cordic DSE grid", "points" => sweep_cycles.len(),
            "serial" => wall(&sweep_serial), "parallel" => wall(&sweep_par),
            "speedup" => ratio(&sweep_serial, &sweep_par), "points_identical" => true,
        },
    };
    let description =
        "stall fast-forwarding + parallel sweep engine wall-clock vs the serial stepped baseline";
    Record::new("BENCH_0004", description, fields)
        .series("fast_forward_speedup_stall", ratio(&stuck_serial, &stuck_ff), Gate::Floor(0.8))
        .series("fast_forward_speedup_campaign", ratio(&serial, &ff), Gate::Info)
        .series("parallel_speedup_stall", ratio(&stuck_serial, &stuck_par), Gate::Info)
}

#[cfg(test)]
mod tests {
    #[test]
    fn speedup_json_is_well_formed_with_required_keys() {
        let record = super::speedup_json(1);
        crate::record::tests::assert_covers_committed(&record, "BENCH_0004.json");
        let doc = record.doc();
        for section in ["campaign", "stall_campaign"] {
            let campaign = doc.get(section).unwrap();
            for key in ["serial", "fast_forward", "parallel"] {
                let timing = campaign.get(key).unwrap();
                assert!(timing.get("wall_seconds").unwrap().as_f64().unwrap() >= 0.0);
                assert_eq!(timing.get("samples").unwrap().as_f64().unwrap(), 1.0);
            }
            assert!(campaign.get("speedup_fast_forward").unwrap().as_f64().unwrap() > 0.0);
            assert!(campaign.get("speedup_parallel").unwrap().as_f64().unwrap() > 0.0);
        }
        let sweep = doc.get("sweep").unwrap();
        assert!(sweep.get("points").unwrap().as_f64().unwrap() > 0.0);
        assert!(sweep.get("speedup").unwrap().as_f64().unwrap() > 0.0);
    }
}
