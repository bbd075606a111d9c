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
//! Samples are interleaved (A,B,A,B,...) so frequency scaling and cache
//! warm-up hit both configurations equally, and minima are compared
//! (minimum wall time is the standard low-noise estimator for
//! same-machine A/B timing).

use softsim_bench::durable::{durable_cordic_campaign, journaled};
use softsim_bus::FslBank;
use softsim_cosim::CoSimStop;
use softsim_iss::{Cpu, StopReason};
use softsim_metrics::MetricsCollector;
use softsim_resilience::CampaignRun;
use softsim_trace::{shared, NullSink};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

const SAMPLES: usize = 15;

fn run_untraced(img: &softsim_isa::Image) -> Duration {
    let mut cpu = Cpu::with_default_memory(img);
    let mut fsl = FslBank::default();
    let start = Instant::now();
    assert_eq!(cpu.run(&mut fsl, u64::MAX / 2), StopReason::Halted);
    let wall = start.elapsed();
    black_box(cpu.stats().cycles);
    wall
}

fn run_null_traced(img: &softsim_isa::Image) -> Duration {
    let mut cpu = Cpu::with_default_memory(img);
    let mut fsl = FslBank::default();
    let sink = shared(Rc::new(RefCell::new(NullSink)));
    cpu.attach_trace(sink.clone());
    fsl.attach_trace(sink);
    let start = Instant::now();
    assert_eq!(cpu.run(&mut fsl, u64::MAX / 2), StopReason::Halted);
    let wall = start.elapsed();
    black_box(cpu.stats().cycles);
    wall
}

fn run_metrics_off(img: &softsim_isa::Image) -> Duration {
    // Metrics off: the collector exists (registry built, windows ready)
    // but no sink is attached, so the hot path is identical to the
    // untraced configuration — one predictable branch per emit site.
    let collector = MetricsCollector::new(256);
    let mut cpu = Cpu::with_default_memory(img);
    let mut fsl = FslBank::default();
    let start = Instant::now();
    assert_eq!(cpu.run(&mut fsl, u64::MAX / 2), StopReason::Halted);
    let wall = start.elapsed();
    black_box(cpu.stats().cycles);
    black_box(collector.to_prometheus().len());
    wall
}

fn run_cosim_ecc(ecc: bool) -> Duration {
    // The FSL-heavy hardware-accelerated workload: every batch word
    // crosses the codec-guarded push/pop paths in both directions.
    let mut sim = softsim_bench::workloads::cordic_cosim_long(24, Some(4));
    sim.set_fsl_ecc(ecc);
    let start = Instant::now();
    assert_eq!(sim.run(u64::MAX / 2), CoSimStop::Halted);
    let wall = start.elapsed();
    black_box(sim.cpu_stats().cycles);
    wall
}

fn run_cosim_profiling(on: bool) -> Duration {
    // Profiler off is the default; on attaches the per-PC collector and
    // (like any sink) disengages stall fast-forwarding, so the off
    // configuration does strictly less work than the on one.
    let mut sim = softsim_bench::workloads::cordic_cosim_long(24, Some(4));
    sim.set_profiling(on);
    let start = Instant::now();
    assert_eq!(sim.run(u64::MAX / 2), CoSimStop::Halted);
    let wall = start.elapsed();
    black_box(sim.cpu_stats().cycles);
    if on {
        black_box(sim.guest_profile().expect("profiling on").total_cycles());
    }
    wall
}

fn run_campaign_plain() -> Duration {
    // Journaling off: the default in-memory campaign over the durable
    // bench's seeded plan. Plan construction is included on both sides,
    // so the ratio isolates the journaling delta.
    use softsim_bench::faults::{cordic_campaign, REPORT_SEED};
    let start = Instant::now();
    let report = cordic_campaign(REPORT_SEED, softsim_bench::durable::DURABLE_TRIALS);
    let wall = start.elapsed();
    black_box(report.trials.len());
    wall
}

fn run_campaign_telemetry() -> Duration {
    // Telemetry on, in-memory only: spans aggregate under a mutex, no
    // heartbeat or snapshot I/O. The report must equal the plain run's.
    use softsim_metrics::telemetry::{Telemetry, TelemetryConfig};
    let t = Telemetry::new(TelemetryConfig::default());
    let start = Instant::now();
    let report =
        durable_cordic_campaign(&CampaignRun { workers: 1, telemetry: Some(&t), journal: None });
    let wall = start.elapsed();
    black_box(report.trials.len());
    black_box(t.trial_cycles());
    wall
}

fn run_campaign_journaled(journal: &std::path::Path) -> Duration {
    let start = Instant::now();
    let report = durable_cordic_campaign(&journaled(journal, false, 1, None));
    let wall = start.elapsed();
    black_box(report.trials.len());
    wall
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

fn serve_off_campaign() -> softsim_resilience::CampaignReport {
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

fn run_serve_off() -> Duration {
    let start = Instant::now();
    let report = serve_off_campaign();
    let wall = start.elapsed();
    black_box(report.trials.len());
    wall
}

fn run_serve_on(server: &softsim_serve::Server) -> Duration {
    let start = Instant::now();
    let result = server.run(serve_spec()).expect("campaign admitted");
    let wall = start.elapsed();
    assert_eq!(result.state, softsim_serve::JobState::Done);
    black_box(result.report.len());
    wall
}

fn main() {
    let img = softsim_bench::workloads::cordic_sw_image(24);
    let journal =
        std::env::temp_dir().join(format!("softsim_overhead_{}.ssjl", std::process::id()));
    // Warm-up all paths.
    run_untraced(&img);
    run_null_traced(&img);
    run_metrics_off(&img);
    run_cosim_ecc(false);
    run_cosim_ecc(true);
    run_cosim_profiling(false);
    run_cosim_profiling(true);
    run_campaign_plain();
    run_campaign_telemetry();
    run_campaign_journaled(&journal);
    // The journaled report must be the plain report, byte for byte —
    // the overhead comparison is only meaningful between equal runs.
    assert_eq!(
        softsim_bench::faults::cordic_campaign(
            softsim_bench::faults::REPORT_SEED,
            softsim_bench::durable::DURABLE_TRIALS,
        ),
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
    // Same for the instrumented run — telemetry must never leak into
    // the deterministic report.
    {
        use softsim_metrics::telemetry::{Telemetry, TelemetryConfig};
        let t = Telemetry::new(TelemetryConfig::default());
        assert_eq!(
            softsim_bench::faults::cordic_campaign(
                softsim_bench::faults::REPORT_SEED,
                softsim_bench::durable::DURABLE_TRIALS,
            ),
            durable_cordic_campaign(&CampaignRun {
                workers: 1,
                telemetry: Some(&t),
                journal: None
            }),
            "plain and instrumented campaigns must agree bit for bit"
        );
    }
    let mut untraced = Vec::with_capacity(SAMPLES);
    let mut nulled = Vec::with_capacity(SAMPLES);
    let mut metrics_off = Vec::with_capacity(SAMPLES);
    let mut ecc_off = Vec::with_capacity(SAMPLES);
    let mut ecc_on = Vec::with_capacity(SAMPLES);
    let mut prof_off = Vec::with_capacity(SAMPLES);
    let mut prof_on = Vec::with_capacity(SAMPLES);
    let mut journal_off = Vec::with_capacity(SAMPLES);
    let mut journal_on = Vec::with_capacity(SAMPLES);
    let mut telemetry_on = Vec::with_capacity(SAMPLES);
    let mut serve_off = Vec::with_capacity(SAMPLES);
    let mut serve_on = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        untraced.push(run_untraced(&img));
        nulled.push(run_null_traced(&img));
        metrics_off.push(run_metrics_off(&img));
        ecc_off.push(run_cosim_ecc(false));
        ecc_on.push(run_cosim_ecc(true));
        prof_off.push(run_cosim_profiling(false));
        prof_on.push(run_cosim_profiling(true));
        journal_off.push(run_campaign_plain());
        telemetry_on.push(run_campaign_telemetry());
        journal_on.push(run_campaign_journaled(&journal));
        serve_off.push(run_serve_off());
        serve_on.push(run_serve_on(&serve_server));
    }
    let _ = std::fs::remove_file(&journal);
    let best_untraced = *untraced.iter().min().unwrap();
    let best_nulled = *nulled.iter().min().unwrap();
    let best_metrics_off = *metrics_off.iter().min().unwrap();
    let ratio = best_untraced.as_secs_f64() / best_nulled.as_secs_f64();
    println!(
        "trace overhead guard: untraced {best_untraced:?}, null-sink {best_nulled:?}, \
         untraced/null ratio {ratio:.4}"
    );
    assert!(
        ratio <= 1.02,
        "tracing-off path must stay within 2% of the null-sink path \
         (untraced {best_untraced:?} vs null {best_nulled:?}, ratio {ratio:.4})"
    );
    println!("ok: tracing-off overhead within 2%");
    let ratio = best_metrics_off.as_secs_f64() / best_nulled.as_secs_f64();
    println!(
        "metrics overhead guard: metrics-off {best_metrics_off:?}, null-sink {best_nulled:?}, \
         metrics-off/null ratio {ratio:.4}"
    );
    assert!(
        ratio <= 1.02,
        "metrics-off path must stay within 2% of the null-sink path \
         (metrics-off {best_metrics_off:?} vs null {best_nulled:?}, ratio {ratio:.4})"
    );
    println!("ok: metrics-off overhead within 2%");
    let best_ecc_off = *ecc_off.iter().min().unwrap();
    let best_ecc_on = *ecc_on.iter().min().unwrap();
    let ratio = best_ecc_off.as_secs_f64() / best_ecc_on.as_secs_f64();
    println!(
        "hardening overhead guard: ecc-off {best_ecc_off:?}, ecc-on {best_ecc_on:?}, \
         off/on ratio {ratio:.4}"
    );
    assert!(
        ratio <= 1.02,
        "hardening-off co-simulation must stay within 2% of the ECC-on run \
         (ecc-off {best_ecc_off:?} vs ecc-on {best_ecc_on:?}, ratio {ratio:.4})"
    );
    println!("ok: hardening-off overhead within 2%");
    let best_prof_off = *prof_off.iter().min().unwrap();
    let best_prof_on = *prof_on.iter().min().unwrap();
    let ratio = best_prof_off.as_secs_f64() / best_prof_on.as_secs_f64();
    println!(
        "profiler overhead guard: profiler-off {best_prof_off:?}, profiler-on {best_prof_on:?}, \
         off/on ratio {ratio:.4}"
    );
    assert!(
        ratio <= 1.02,
        "profiler-off co-simulation must stay within 2% of the profiler-on run \
         (off {best_prof_off:?} vs on {best_prof_on:?}, ratio {ratio:.4})"
    );
    println!("ok: profiler-off overhead within 2%");
    let best_journal_off = *journal_off.iter().min().unwrap();
    let best_telemetry_on = *telemetry_on.iter().min().unwrap();
    let ratio = best_journal_off.as_secs_f64() / best_telemetry_on.as_secs_f64();
    println!(
        "telemetry overhead guard: telemetry-off {best_journal_off:?}, \
         telemetry-on {best_telemetry_on:?}, off/on ratio {ratio:.4}"
    );
    assert!(
        ratio <= 1.02,
        "telemetry-off campaign must stay within 2% of the instrumented run \
         (off {best_journal_off:?} vs on {best_telemetry_on:?}, ratio {ratio:.4})"
    );
    println!("ok: telemetry-off overhead within 2%");
    let best_journal_on = *journal_on.iter().min().unwrap();
    let ratio = best_journal_off.as_secs_f64() / best_journal_on.as_secs_f64();
    println!(
        "journaling overhead guard: journaling-off {best_journal_off:?}, \
         journaled {best_journal_on:?}, off/on ratio {ratio:.4}"
    );
    assert!(
        ratio <= 1.02,
        "journaling-off campaign must stay within 2% of the journaled run \
         (off {best_journal_off:?} vs journaled {best_journal_on:?}, ratio {ratio:.4})"
    );
    println!("ok: journaling-off overhead within 2%");
    let best_serve_off = *serve_off.iter().min().unwrap();
    let best_serve_on = *serve_on.iter().min().unwrap();
    let ratio = best_serve_off.as_secs_f64() / best_serve_on.as_secs_f64();
    println!(
        "serve overhead guard: serve-off {best_serve_off:?}, served {best_serve_on:?}, \
         off/on ratio {ratio:.4}"
    );
    assert!(
        ratio <= 1.02,
        "direct campaign must stay within 2% of the served run \
         (off {best_serve_off:?} vs served {best_serve_on:?}, ratio {ratio:.4})"
    );
    println!("ok: serve-off overhead within 2%");
}
