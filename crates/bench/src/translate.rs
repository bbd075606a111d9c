//! The `BENCH_0009` translated-execution record: the basic-block ISS
//! fast path against the stepped interpreter.
//!
//! Two compute-heavy software workloads — the pure-software block
//! matmul image on the bare ISS, and the repeated-batch software CORDIC
//! program under the co-simulation engine — are each run to completion
//! with translation off and with translation on, the two sampled
//! against each other ([`crate::measure::sample`]: interleaved, set-up
//! untimed).
//! Before any number is recorded, one run of each variant is compared
//! on every architectural observable (statistics, registers, full
//! simulation state), so every speedup in the JSON is backed by an
//! equivalence check, not just a stopwatch. The throughputs are
//! machine-dependent (like `BENCH_0003.json`); the result equality and
//! the CI floor (translated ≥ 2x interpreted on these workloads) are
//! not.

use crate::measure::{cosim_run, iss_run, sample, Stats};
use crate::record::{obj, Gate, Record};
use crate::workloads;
use softsim_bus::FslBank;
use softsim_cosim::{CoSim, CoSimStop};
use softsim_isa::Image;
use softsim_iss::{Cpu, StopReason};

/// Rounds of each timed ISS sample.
const ISS_ROUNDS: u32 = 20;

/// Rounds of each timed co-simulation sample.
const COSIM_ROUNDS: u32 = 8;

/// Runs `image` on the bare ISS interpreted and translated, asserting
/// bit-identical results, and returns the shared cycle count.
fn assert_iss_equivalent(image: &Image) -> u64 {
    let run = |translate: bool| {
        let mut cpu = Cpu::with_default_memory(image);
        cpu.set_translation(translate);
        let mut fsl = FslBank::default();
        assert_eq!(cpu.run(&mut fsl, u64::MAX / 2), StopReason::Halted);
        let regs: Vec<u32> = (0..32).map(|r| cpu.reg(softsim_isa::Reg::new(r))).collect();
        (cpu.stats(), cpu.pc(), cpu.carry(), regs, cpu.translation_stats().block_dispatches)
    };
    let interp = run(false);
    let xlate = run(true);
    assert_eq!(
        (&interp.0, interp.1, interp.2, &interp.3),
        (&xlate.0, xlate.1, xlate.2, &xlate.3),
        "translation must not change the ISS run"
    );
    assert!(xlate.4 > 0, "the fast path never engaged on the ISS workload");
    interp.0.cycles
}

/// Runs the co-simulation workload interpreted and translated,
/// asserting bit-identical results, and returns the shared cycle count.
fn assert_cosim_equivalent(make: impl Fn() -> CoSim) -> u64 {
    let run = |translate: bool| {
        let mut sim = make();
        sim.set_translation(translate);
        assert_eq!(sim.run(u64::MAX / 2), CoSimStop::Halted);
        let dispatches = sim.cpu().translation_stats().block_dispatches;
        (sim.cpu_stats(), sim.hw_stats(), sim.save_state(), dispatches)
    };
    let interp = run(false);
    let xlate = run(true);
    assert_eq!(
        (&interp.0, &interp.1, &interp.2),
        (&xlate.0, &xlate.1, &xlate.2),
        "translation must not change the co-simulation run"
    );
    assert!(xlate.3 > 0, "the fast path never engaged on the co-sim workload");
    interp.0.cycles
}

/// The machine-readable `BENCH_0009` record.
///
/// # Panics
/// Panics if any translated run differs from its interpreted twin on
/// any observable — wall-clock without equivalence is meaningless here.
pub fn translate_json() -> Record {
    // ISS alone: the paper's Table II row 1 workload family, software
    // block matmul at the headline size.
    let iss_image = workloads::matmul_image(workloads::MATMUL_TABLE_N, None);
    let iss_cycles = assert_iss_equivalent(&iss_image);
    let mut interp = || iss_run(&iss_image, false);
    let mut xlate = || iss_run(&iss_image, true);
    let [iss_interp, iss_xlate] = sample(ISS_ROUNDS, [&mut interp, &mut xlate]);

    // Co-simulation: the long software CORDIC batch (no peripheral —
    // the CPU is the bottleneck, which is what translation targets).
    let make = || workloads::cordic_cosim_long(24, None);
    let cosim_cycles = assert_cosim_equivalent(make);
    let mut interp = || cosim_run(make);
    let mut xlate = || {
        cosim_run(|| {
            let mut sim = make();
            sim.set_translation(true);
            sim
        })
    };
    let [cosim_interp, cosim_xlate] = sample(COSIM_ROUNDS, [&mut interp, &mut xlate]);

    let iss_speedup = iss_xlate.cycles_per_sec() / iss_interp.cycles_per_sec().max(1e-12);
    let cosim_speedup = cosim_xlate.cycles_per_sec() / cosim_interp.cycles_per_sec().max(1e-12);
    let best_speedup = iss_speedup.max(cosim_speedup);
    let side = |s: &Stats| {
        s.spread(obj! { "wall_seconds" => s.seconds(), "cycles_per_sec" => s.cycles_per_sec() })
    };
    let iss_workload = format!("matmul N={} software image, ISS alone", workloads::MATMUL_TABLE_N);
    let cosim_workload =
        format!("cordic 24-iteration software batch x{}, co-simulation", workloads::TIMING_REPS);
    let fields = obj! {
        "iss" => obj! {
            "workload" => iss_workload, "cycles_per_run" => iss_cycles, "repeats" => ISS_ROUNDS,
            "interpreter" => side(&iss_interp), "translated" => side(&iss_xlate),
            "speedup" => iss_speedup, "results_identical" => true,
        },
        "cosim" => obj! {
            "workload" => cosim_workload, "cycles_per_run" => cosim_cycles,
            "repeats" => COSIM_ROUNDS,
            "interpreter" => side(&cosim_interp), "translated" => side(&cosim_xlate),
            "speedup" => cosim_speedup, "results_identical" => true,
        },
        "best_speedup" => best_speedup,
    };
    let description =
        "translated basic-block execution vs the stepped interpreter, equivalence-checked";
    Record::new("BENCH_0009", description, fields)
        .series("translated_cycles_per_sec", iss_xlate.cycles_per_sec(), Gate::Floor(0.8))
        .series("translate_speedup", best_speedup, Gate::Info)
}

#[cfg(test)]
mod tests {
    #[test]
    fn translate_json_is_well_formed_with_required_keys() {
        let record = super::translate_json();
        crate::record::tests::assert_covers_committed(&record, "BENCH_0009.json");
        let doc = record.doc();
        for section in ["iss", "cosim"] {
            let s = doc.get(section).unwrap();
            for key in ["interpreter", "translated"] {
                let side = s.get(key).unwrap();
                assert!(side.get("wall_seconds").unwrap().as_f64().unwrap() >= 0.0);
                assert!(side.get("cycles_per_sec").unwrap().as_f64().unwrap() > 0.0);
                let samples = side.get("samples").unwrap().as_f64().unwrap();
                assert_eq!(samples, s.get("repeats").unwrap().as_f64().unwrap());
            }
            assert!(s.get("speedup").unwrap().as_f64().unwrap() > 0.0);
            assert!(s.get("cycles_per_run").unwrap().as_f64().unwrap() > 0.0);
        }
        assert!(doc.get("best_speedup").unwrap().as_f64().unwrap() > 0.0);
    }
}
