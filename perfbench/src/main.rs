//! End-to-end and per-layer benchmark of the softsim co-simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dse_hw|dse_sw|fault_recovery> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one closed-loop workload on one thread, one
//! operation in flight at a time, for `--seconds` seconds after a
//! repeated set-up and a warm-up. Every operation's outputs are checked
//! against the reference models and the RTL model. The last line of
//! standard output is one JSON object: with `--trace 0` it carries the
//! end-to-end metrics, with `--trace 1` the per-layer metrics of a
//! separate traced run, whose spans are written to `perfbench/out/`.
//! See `perfbench/README.md` for the metric map.

mod calib;
mod design;
mod layers;
mod replay;
mod spans;
mod stats;
mod workloads;

use calib::Calibrator;
use design::Inputs;
use spans::Tracer;
use stats::{median, ns, peak_rss_mb, quantile};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use workloads::{Check, DseHw, DseSw, FaultRecovery, Workload, NAMES};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// Operations measured even when `--seconds` runs out first, so the
/// percentiles always rest on enough samples.
const MIN_OPS: u64 = 30;

/// Metrics in the order they were added, each with its unit.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds one metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            // JSON has no NaN or infinity; a metric that is not finite
            // is reported as null and fails the run's `correct` flag.
            let v = if value.is_finite() { format!("{value}") } else { "null".to_string() };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        out.push('}');
        out
    }

    fn all_finite(&self) -> bool {
        self.0.iter().all(|(_, v, _)| v.is_finite())
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0, false);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !NAMES.contains(&workload.as_str()) {
            return Err(format!("unknown workload `{workload}` (one of {})", NAMES.join(", ")));
        }
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds} out of range (0, 600]"));
        }
        Ok(Args { workload, seed, seconds, trace })
    }
}

/// Builds the workload `SETUP_REPS` times, keeping the last build, and
/// returns it with the median set-up time in reference-speed seconds.
fn setup(
    args: &Args,
    inp: &Inputs,
    tr: &mut Tracer,
    cal: &mut Calibrator,
) -> (Box<dyn Workload>, f64, Check) {
    let mut times = Vec::new();
    let mut built: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let s = tr.begin("setup", &args.workload, u64::MAX);
        let start = Instant::now();
        built = Some(match args.workload.as_str() {
            "dse_hw" => Box::new(DseHw::setup(inp, tr)),
            "dse_sw" => Box::new(DseSw::setup(inp, tr)),
            _ => Box::new(FaultRecovery::setup(inp, tr)),
        });
        let took = start.elapsed();
        tr.end(s);
        cal.sample();
        times.push((start, took));
    }
    let times: Vec<f64> =
        times.iter().map(|&(t, took)| took.as_secs_f64() * cal.factor_at(t)).collect();
    let mut wl = built.expect("at least one set-up");
    let mut chk = Check::default();
    wl.warm_up(tr, &mut chk);
    (wl, median(&times), chk)
}

/// The measured loop's results. Times are at reference host speed
/// (see [`calib`]) except the traced/untraced pairs, which compare
/// neighbouring ops and stay wall times.
#[derive(Default)]
struct Measured {
    op_ms: Vec<f64>,
    /// Per-op times with spans on / off (traced run only).
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    op_time: Duration,
    sim_cycles: u64,
    ops: u64,
}

/// Runs operations until `seconds` have passed (and at least
/// [`MIN_OPS`]); with `alternate`, spans are recorded on half the ops.
fn measure(
    wl: &mut dyn Workload,
    seconds: f64,
    alternate: bool,
    tr: &mut Tracer,
    chk: &mut Check,
    cal: &mut Calibrator,
) -> Measured {
    let mut m = Measured::default();
    // One untimed op lets lazy set-up and caches settle.
    wl.op(tr, 0, chk);
    chk.end_other();
    cal.sample();
    // Raw per-op records, scaled once the samples after them exist.
    let mut raw: Vec<(Instant, Duration)> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline || m.ops < MIN_OPS {
        let op = m.ops;
        // Spans go on for two ops, off for the next two: every pair has
        // one op right after an interleaved RTL run whatever its cadence
        // (`dse_hw` runs one after every second op), so neither side
        // collects the ops that follow one.
        let traced = alternate && (op / 2) % 2 == 0;
        if alternate {
            tr.set_on(traced);
        }
        let s = tr.begin("op", "", op);
        let start = Instant::now();
        let cycles = wl.op(tr, op, chk);
        let took = start.elapsed();
        tr.end(s);
        cal.tick(took);
        wl.between(tr, op, chk);
        chk.end_op();
        raw.push((start + took / 2, took));
        if alternate {
            let ms = ns(took) / 1e6;
            if traced { &mut m.traced_ms } else { &mut m.untraced_ms }.push(ms);
        }
        m.sim_cycles += cycles;
        m.ops += 1;
    }
    cal.sample();
    for (mid, took) in raw {
        let scaled = took.mul_f64(cal.factor_at(mid));
        m.op_ms.push(ns(scaled) / 1e6);
        m.op_time += scaled;
    }
    if alternate {
        tr.set_on(true);
    }
    m
}

fn run(args: &Args) -> (bool, u64, u64, Metrics) {
    let inp = Inputs::generate(args.seed);
    let mut tr = Tracer::new(args.trace);
    let mut cal = Calibrator::new();
    let (mut wl, setup_s, mut chk) = setup(args, &inp, &mut tr, &mut cal);
    let mut m = Metrics::default();
    if args.trace {
        layers::probe_all(&inp, &mut tr, &mut chk, &mut m);
        let run = measure(wl.as_mut(), args.seconds, true, &mut tr, &mut chk, &mut cal);
        let (traced, untraced) = (median(&run.traced_ms), median(&run.untraced_ms));
        m.push("bench.untraced_op_ms", untraced, "ms");
        m.push("bench.trace_overhead", 100.0 * (traced - untraced) / untraced, "%");
        let own = tr.self_ns();
        let op_self: Vec<f64> = tr
            .spans()
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == "op")
            .map(|(_, &o)| o as f64 / 1e3)
            .collect();
        m.push("bench.op_self_us.p50", median(&op_self), "us");
        let cal_ns: Vec<f64> = cal.samples.iter().map(|&(_, ns)| ns).collect();
        m.push("bench.calibration_us", median(&cal_ns) / 1e3, "us");
        m.push("check.cycle_error", chk.cycle_error as f64, "count");
        write_spans(args, &tr);
        let ok = chk.failed_ops == 0 && chk.other_failures == 0 && m.all_finite();
        return (ok, run.ops, chk.failed_ops, m);
    }
    let run = measure(wl.as_mut(), args.seconds, false, &mut tr, &mut chk, &mut cal);
    let secs = run.op_time.as_secs_f64();
    m.push("ops_per_s", run.ops as f64 / secs, "1/s");
    m.push("sim_cycles_per_s", run.sim_cycles as f64 / secs, "cycles/s");
    m.push("op_ms.p50", quantile(&run.op_ms, 0.5), "ms");
    m.push("op_ms.p90", quantile(&run.op_ms, 0.9), "ms");
    m.push("setup_s", setup_s, "s");
    m.push("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB");
    m.push("rtl_speedup", wl.rtl_speedup(), "ratio");
    let ok = chk.failed_ops == 0 && chk.other_failures == 0 && m.all_finite();
    (ok, run.ops, chk.failed_ops, m)
}

/// Writes the recorded spans to `perfbench/out/` (relative to the
/// working directory). A failure to write is reported, not fatal.
fn write_spans(args: &Args, tr: &Tracer) {
    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    let result = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, tr.to_json()));
    match result {
        Ok(()) => eprintln!("perfbench: {} spans written to {}", tr.spans().len(), path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let (correct, attempted, failed, metrics) = run(&args);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    );
}
