//! Tracing-overhead guard: the observability layer must be free when it
//! is off. The untraced configuration (no sink attached — the default
//! for every workload in the repo) runs the Table II ISS workload
//! against the instrumented-but-null configuration (a `NullSink`
//! attached, every event constructed and dispatched) and asserts the
//! untraced path is not measurably slower — within 2% of the null-sink
//! path even though it does strictly less work.
//!
//! The metrics layer rides the same plumbing, so the guard extends to
//! it: a configuration with a `MetricsCollector` instantiated but *not*
//! attached (metrics off — the default) must also stay within 2% of the
//! null-sink path. The new metric-feeding events (register writebacks,
//! bus transfers, block activity) sit behind the same single tracing
//! guard, so metrics-off costs nothing the guard would catch.
//!
//! The FSL hardening layer gets the same treatment: with the SEC-DED
//! codec disabled (the default), every push/pop pays one predictable
//! branch on the codec flag and nothing else, so a full ECC-off
//! co-simulation does strictly less work than the identical ECC-on run
//! and must not be measurably slower than it — hardening you did not
//! ask for is free.
//!
//! The guest profiler follows the same contract: with profiling off
//! (the default — `CoSim::set_profiling` never called or called with
//! `false`), no sink is wired and stall fast-forwarding stays engaged,
//! so a profiler-off co-simulation does strictly less work than the
//! identical profiler-on run and must stay within 2% of it.
//!
//! Harness telemetry gets the same contract: a plain campaign
//! (telemetry off — every `Option<&Telemetry>` is `None`, one
//! predictable branch per trial) sweeps the same seeded plan as an
//! instrumented run that additionally records a span per trial into an
//! in-memory telemetry aggregator. The off run does strictly less work
//! and must stay within 2% of the on run, and the two reports are
//! asserted byte-identical first.
//!
//! Campaign journaling gets the same guard: a plain in-memory campaign
//! (journaling off — the default `run_campaign` path) sweeps the same
//! seeded plan as the durable journaled runner, which additionally
//! encodes and appends every trial to an `SSJL` journal. The plain run
//! does strictly less work and must stay within 2% of the journaled
//! one — durability costs nothing when you do not ask for it — and the
//! two reports are asserted byte-identical first.
//!
//! The simulation service is the last guard: running a campaign
//! directly (serve off — the default for everything else in the repo)
//! must stay within 2% of submitting the identical campaign through an
//! in-process `softsim_serve::Server` (cache bypassed, non-durable),
//! whose admission queue, worker hand-off and result plumbing wrap the
//! same simulation. The served report is asserted equal to the direct
//! run's first, line for line.
//!
//! Each guard samples its off and on arms against each other with
//! `softsim_bench::measure::sample`: one warm-up run each, then 15
//! rounds whose order alternates (off,on then on,off), so neither side
//! always runs right after the other — or right after another guard's
//! campaign — and frequency scaling and cache warm-up hit both equally.
//! Minima are compared (minimum wall time is the standard low-noise
//! estimator for same-machine A/B timing).

use softsim_bench::durable::{durable_cordic_campaign, journaled};
use softsim_bench::faults::{cordic_campaign, REPORT_SEED};
use softsim_bench::measure::{cosim_run, iss_run, sample, time_run, Arm, SimTiming};
use softsim_bus::FslBank;
use softsim_cosim::{CoSim, CoSimStop};
use softsim_iss::{Cpu, StopReason};
use softsim_metrics::telemetry::{Telemetry, TelemetryConfig};
use softsim_metrics::MetricsCollector;
use softsim_resilience::{CampaignReport, CampaignRun};
use softsim_trace::{shared, NullSink};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;

const SAMPLES: u32 = 15;

fn run_null_traced(img: &softsim_isa::Image) -> SimTiming {
    let setup = || {
        let mut cpu = Cpu::with_default_memory(img);
        let mut fsl = FslBank::default();
        let sink = shared(Rc::new(RefCell::new(NullSink)));
        cpu.attach_trace(sink.clone());
        fsl.attach_trace(sink);
        (cpu, fsl)
    };
    time_run(setup, |(cpu, fsl)| {
        assert_eq!(cpu.run(fsl, u64::MAX / 2), StopReason::Halted);
        cpu.stats().cycles
    })
}

fn run_metrics_off(img: &softsim_isa::Image) -> SimTiming {
    // Metrics off: the collector exists (registry built, windows ready)
    // but no sink is attached, so the hot path is identical to the
    // untraced configuration — one predictable branch per emit site.
    let setup = || (MetricsCollector::new(256), Cpu::with_default_memory(img), FslBank::default());
    time_run(setup, |(collector, cpu, fsl)| {
        assert_eq!(cpu.run(fsl, u64::MAX / 2), StopReason::Halted);
        black_box(collector);
        cpu.stats().cycles
    })
}

/// The FSL-heavy hardware-accelerated workload: every batch word
/// crosses the codec-guarded push/pop paths in both directions.
fn cordic_p4() -> CoSim {
    softsim_bench::workloads::cordic_cosim_long(24, Some(4))
}

fn run_cosim_ecc(ecc: bool) -> SimTiming {
    cosim_run(|| {
        let mut sim = cordic_p4();
        sim.set_fsl_ecc(ecc);
        sim
    })
}

fn run_cosim_profiling(on: bool) -> SimTiming {
    // Profiler off is the default; on attaches the per-PC collector and
    // (like any sink) disengages stall fast-forwarding, so the off
    // configuration does strictly less work than the on one.
    cosim_run(|| {
        let mut sim = cordic_p4();
        sim.set_profiling(on);
        sim
    })
}

/// Times a whole campaign; the plan is built inside the timed region
/// on both sides of every campaign guard, so ratios isolate the delta.
fn run_campaign(campaign: impl FnOnce() -> CampaignReport) -> SimTiming {
    time_run(|| (), |_| campaign().trials.len() as u64)
}

/// Journaling and telemetry off: the default in-memory campaign over
/// the durable bench's seeded plan.
fn plain_campaign() -> CampaignReport {
    cordic_campaign(REPORT_SEED, softsim_bench::durable::DURABLE_TRIALS)
}

fn run_campaign_telemetry() -> SimTiming {
    // Telemetry on, in-memory only: spans aggregate under a mutex, no
    // heartbeat or snapshot I/O. The report must equal the plain run's.
    time_run(
        || Telemetry::new(TelemetryConfig::default()),
        |t| {
            let run = CampaignRun { workers: 1, telemetry: Some(t), journal: None };
            durable_cordic_campaign(&run).trials.len() as u64
        },
    )
}

const SERVE_SEED: u64 = 0x00FF_10AD;
const SERVE_TRIALS: u32 = 12;

fn serve_spec() -> softsim_serve::JobSpec {
    softsim_serve::JobSpec {
        kind: softsim_serve::JobKind::Campaign,
        workload: softsim_serve::Workload::Cordic { iterations: 8, p: 2 },
        seed: SERVE_SEED,
        trials: SERVE_TRIALS,
        durable: false,
        use_cache: false,
        ..softsim_serve::JobSpec::default()
    }
}

fn serve_off_campaign() -> CampaignReport {
    // Serve off: the same plan, simulator and runner the service's
    // catalog wires up, invoked directly with no queue, no worker
    // hand-off and no result plumbing.
    use softsim_serve::catalog;
    let spec = serve_spec();
    let plan = catalog::campaign_plan(spec.workload, spec.seed, spec.trials);
    let (base, n) = catalog::observe_window(spec.workload);
    let config = softsim_resilience::CampaignConfig {
        fast_forward: true,
        ..softsim_resilience::CampaignConfig::default()
    };
    let run = CampaignRun { workers: 1, ..CampaignRun::default() };
    run.run(
        config,
        || catalog::build_sim(spec.workload, false),
        &plan,
        move |s| catalog::observe_words(s, base, n),
    )
    .expect("an unjournaled campaign does no I/O")
    .0
}

fn run_serve_on(server: &softsim_serve::Server) -> SimTiming {
    time_run(
        || (),
        |_| {
            let result = server.run(serve_spec()).expect("campaign admitted");
            assert_eq!(result.state, softsim_serve::JobState::Done);
            result.report.len() as u64
        },
    )
}

fn main() {
    let img = softsim_bench::workloads::cordic_sw_image(24);
    let journal =
        std::env::temp_dir().join(format!("softsim_overhead_{}.ssjl", std::process::id()));
    // The journaled report must be the plain report, byte for byte —
    // the overhead comparison is only meaningful between equal runs.
    assert_eq!(
        plain_campaign(),
        durable_cordic_campaign(&journaled(&journal, false, 1, None)),
        "plain and journaled campaigns must agree bit for bit"
    );
    // The served campaign must be the direct campaign, line for line —
    // the service wraps the simulation, it must never change it.
    let serve_server = softsim_serve::Server::start(softsim_serve::ServeConfig {
        workers: 1,
        spool: std::env::temp_dir().join(format!("softsim_overhead_serve_{}", std::process::id())),
        ..softsim_serve::ServeConfig::default()
    })
    .expect("serve starts");
    {
        let served = serve_server.run(serve_spec()).expect("served campaign");
        let direct = serve_off_campaign();
        let mut expected = format!(
            "campaign cordic iters=8 p=2 seed={SERVE_SEED:#x} trials={SERVE_TRIALS} \
             golden_cycles={}\n",
            direct.golden_cycles
        );
        let cov = direct.coverage();
        expected.push_str(&format!(
            "coverage completed={} budget={} abandoned={} retried={}\n",
            cov.completed, cov.budget, cov.abandoned, cov.retried
        ));
        for (i, t) in direct.trials.iter().enumerate() {
            expected.push_str(&format!(
                "trial {i}: cycle={} outcome={}\n",
                t.injection.cycle,
                t.outcome.label()
            ));
        }
        assert_eq!(
            served.report, expected,
            "served campaign must match the direct run line for line"
        );
    }
    // The profiler-on arm must really profile, reconciling exactly with
    // the CPU's cycle counter.
    {
        let mut sim = cordic_p4();
        sim.set_profiling(true);
        assert_eq!(sim.run(u64::MAX / 2), CoSimStop::Halted);
        let profile = sim.guest_profile().expect("profiling on");
        assert_eq!(profile.total_cycles(), sim.cpu_stats().cycles);
    }
    // Same for the instrumented run — telemetry must never leak into
    // the deterministic report.
    {
        let t = Telemetry::new(TelemetryConfig::default());
        assert_eq!(
            plain_campaign(),
            durable_cordic_campaign(&CampaignRun {
                workers: 1,
                telemetry: Some(&t),
                journal: None
            }),
            "plain and instrumented campaigns must agree bit for bit"
        );
    }

    // (guard, off label, on label, off arm, on arm). The untraced and
    // metrics-off paths do strictly less work than the null-sink path;
    // every other off path does strictly less work than its on path.
    let guards: Vec<(&str, &str, &str, Arm, Arm)> = vec![
        (
            "trace",
            "untraced",
            "null-sink",
            Box::new(|| iss_run(&img, false)),
            Box::new(|| run_null_traced(&img)),
        ),
        (
            "metrics",
            "metrics-off",
            "null-sink",
            Box::new(|| run_metrics_off(&img)),
            Box::new(|| run_null_traced(&img)),
        ),
        (
            "hardening",
            "ecc-off",
            "ecc-on",
            Box::new(|| run_cosim_ecc(false)),
            Box::new(|| run_cosim_ecc(true)),
        ),
        (
            "profiler",
            "profiler-off",
            "profiler-on",
            Box::new(|| run_cosim_profiling(false)),
            Box::new(|| run_cosim_profiling(true)),
        ),
        (
            "telemetry",
            "telemetry-off",
            "telemetry-on",
            Box::new(|| run_campaign(plain_campaign)),
            Box::new(run_campaign_telemetry),
        ),
        (
            "journaling",
            "journaling-off",
            "journaled",
            Box::new(|| run_campaign(plain_campaign)),
            Box::new(|| {
                run_campaign(|| durable_cordic_campaign(&journaled(&journal, false, 1, None)))
            }),
        ),
        (
            "serve",
            "serve-off",
            "served",
            Box::new(|| run_campaign(serve_off_campaign)),
            Box::new(|| run_serve_on(&serve_server)),
        ),
    ];
    for (guard, off_label, on_label, mut off, mut on) in guards {
        let [off, on] = sample(SAMPLES, [&mut *off, &mut *on]);
        let (best_off, best_on) = (off.min(), on.min());
        let ratio = best_off.as_secs_f64() / best_on.as_secs_f64();
        println!(
            "{guard} overhead guard: {off_label} {best_off:?}, {on_label} {best_on:?}, \
             off/on ratio {ratio:.4}"
        );
        assert!(
            ratio <= 1.02,
            "{off_label} path must stay within 2% of the {on_label} path \
             ({off_label} {best_off:?} vs {on_label} {best_on:?}, ratio {ratio:.4})"
        );
        println!("ok: {off_label} overhead within 2%");
    }
    let _ = std::fs::remove_file(&journal);
}
