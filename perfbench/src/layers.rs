//! The traced run's layer probes. Every probe times calls into one
//! crate's public functions from outside, with a span around each call,
//! and checks that what it timed reproduced the co-simulation exactly.

use crate::design::{Built, Design, Inputs};
use crate::replay::{cpu_alone, graph_alone, GatewayLog, Gateways};
use crate::spans::Tracer;
use crate::stats::{median, ns, quantile, timed};
use crate::workloads::{
    fault_designs, fault_trial, hw_designs, report_policy, sw_designs, Check, FaultRecovery,
};
use crate::Metrics;
use softsim_bus::fsl::CHANNELS;
use softsim_bus::FslBank;
use softsim_isa::asm::assemble;
use softsim_resilience::{Outcome, RecoveryOutcome, Supervisor};
use softsim_trace::shared;
use std::cell::RefCell;
use std::rc::Rc;

/// Repetitions of each timed probe; the median is reported.
const ROUNDS: usize = 5;

/// Repetitions of the state save/restore micro-probes.
const STATE_ROUNDS: usize = 101;

/// Plan entries per target whose outcomes the traced run counts.
const PROBE_TRIALS: usize = 512;

/// Runs every layer probe and adds its metrics to `m`.
pub fn probe_all(inp: &Inputs, tr: &mut Tracer, chk: &mut Check, m: &mut Metrics) {
    setup_layers(inp, tr, m);
    hw_split(inp, tr, chk, m);
    sw_modes(inp, tr, chk, m);
    resilience(inp, tr, chk, m);
}

/// `isa.assemble_ms` and `blocks.compile_ms`: the assembler over every
/// program the workloads run, and graph construction plus `compile()`
/// over every peripheral they attach.
fn setup_layers(inp: &Inputs, tr: &mut Tracer, m: &mut Metrics) {
    let designs: Vec<Design> =
        hw_designs().into_iter().chain(sw_designs()).chain(fault_designs()).collect();
    let sources: Vec<(String, String)> =
        designs.iter().map(|d| (d.name(), d.source(inp))).collect();
    let mut asm_ms = Vec::new();
    let mut compile_ms = Vec::new();
    for _ in 0..ROUNDS {
        let (_, t) = timed(|| {
            for (name, src) in &sources {
                let s = tr.begin("assemble", name, u64::MAX);
                std::hint::black_box(assemble(src).expect("generated programs assemble"));
                tr.end(s);
            }
        });
        asm_ms.push(ns(t) / 1e6);
        let (_, t) = timed(|| {
            for d in &designs {
                let s = tr.begin("peripheral_build", &d.name(), u64::MAX);
                std::hint::black_box(d.peripheral());
                tr.end(s);
            }
        });
        compile_ms.push(ns(t) / 1e6);
    }
    m.push("isa.assemble_ms", median(&asm_ms), "ms");
    m.push("blocks.compile_ms", median(&compile_ms), "ms");
}

/// The layer split of every hardware partition: the co-simulation run,
/// the graph-alone replay and the CPU-alone replay, interleaved round by
/// round, plus the RTL run and the run's counts.
fn hw_split(inp: &Inputs, tr: &mut Tracer, chk: &mut Check, m: &mut Metrics) {
    let (mut graph_ns, mut node_cycles) = (0.0, 0.0);
    for d in hw_designs() {
        let mut b = Built::new(d, inp, tr);
        let name = b.name.clone();

        // Record the gateway stream of one traced run.
        let log = Rc::new(RefCell::new(GatewayLog::default()));
        b.sim.attach_trace(shared(log.clone()));
        let traced = b.run(tr, u64::MAX);
        b.sim.detach_trace();
        let stats = b.sim.cpu_stats();
        let hw = b.sim.hw_stats();
        let graph_cycles = b.sim.peripherals()[0].graph().cycles();
        let (words, rejections) = fsl_counts(b.sim.fsl());
        let log = log.borrow();
        chk.require(traced.exact && log.consistent() && hw.output_overflows == 0);
        chk.require(graph_cycles == stats.cycles);

        let mut g = d.graph().expect("hardware partition has a graph");
        let gw = Gateways::resolve(&g);
        let g0 = g.save_state();
        let nodes = g.len();
        let (mut cosim, mut graph, mut cpu) = (Vec::new(), Vec::new(), Vec::new());
        // Self time per round: the three timings of one round run back to
        // back, so their difference is not skewed by the host's speed
        // changing between rounds.
        let mut own = Vec::new();
        for _ in 0..ROUNDS {
            let r = b.run(tr, u64::MAX);
            chk.require(r.exact && r.cycles == stats.cycles);
            let core_ns = ns(r.wall) / r.cycles as f64;

            let s = tr.begin("Graph::step", &name, u64::MAX);
            let (t, same) = graph_alone(&mut g, &gw, &g0, &log.words, graph_cycles);
            tr.end(s);
            chk.require(same && g.cycles() == graph_cycles);
            let blocks_ns = ns(t) / graph_cycles as f64;

            let s = tr.begin("Cpu::tick", &name, u64::MAX);
            let (t, replayed, same) = cpu_alone(&b.image, &log.words, stats.cycles + 1);
            tr.end(s);
            chk.require(
                same && replayed.cycles == stats.cycles
                    && replayed.instructions == stats.instructions,
            );
            let iss_ns = ns(t) / stats.cycles as f64;
            cosim.push(core_ns);
            graph.push(blocks_ns);
            cpu.push(iss_ns);
            own.push(core_ns - blocks_ns - iss_ns);
        }
        let mut rtl = Vec::new();
        for _ in 0..2 {
            let r = b.run_rtl(tr, u64::MAX);
            chk.cycles(stats.cycles, r.cycles);
            chk.require(r.exact);
            rtl.push(ns(r.wall) / r.cycles as f64);
        }
        chk.end_other();

        let (core, blocks, iss) = (median(&cosim), median(&graph), median(&cpu));
        graph_ns += blocks * graph_cycles as f64;
        node_cycles += (nodes as u64 * graph_cycles) as f64;
        m.push(&format!("blocks.ns_per_cycle.{name}"), blocks, "ns/cycle");
        m.push(&format!("blocks.nodes.{name}"), nodes as f64, "count");
        m.push(&format!("iss.ns_per_cycle.{name}"), iss, "ns/cycle");
        m.push(&format!("core.ns_per_cycle.{name}"), core, "ns/cycle");
        m.push(&format!("core.self_ns_per_cycle.{name}"), median(&own), "ns/cycle");
        m.push(&format!("rtl.ns_per_cycle.{name}"), median(&rtl), "ns/cycle");
        m.push(&format!("iss.cycles.{name}"), stats.cycles as f64, "count");
        m.push(&format!("iss.instructions.{name}"), stats.instructions as f64, "count");
        m.push(&format!("iss.fsl_stall_cycles.{name}"), stats.fsl_stalls() as f64, "count");
        m.push(&format!("bus.words.{name}"), words as f64, "count");
        m.push(&format!("bus.rejections.{name}"), rejections as f64, "count");
        m.push(
            &format!("bus.useful_ratio.{name}"),
            words as f64 / (words + rejections) as f64,
            "ratio",
        );
    }
    m.push("blocks.ns_per_node_cycle", graph_ns / node_cycles, "ns");
}

/// Successful FSL transfers and rejected attempts over every channel,
/// both directions.
fn fsl_counts(fsl: &FslBank) -> (u64, u64) {
    let (mut words, mut rejections) = (0, 0);
    for ch in 0..CHANNELS {
        for s in [fsl.to_hw_ref(ch).stats(), fsl.from_hw_ref(ch).stats()] {
            words += s.pushes + s.pops;
            rejections += s.full_rejections + s.empty_rejections;
        }
    }
    (words, rejections)
}

/// The software partitions interpreted and translated, their counts,
/// the translator's dispatch statistics, and their RTL runs.
fn sw_modes(inp: &Inputs, tr: &mut Tracer, chk: &mut Check, m: &mut Metrics) {
    let mut invalidations = 0;
    for d in sw_designs() {
        let (name, app) = (d.name(), d.app());
        let mut interp = Built::new(d, inp, tr);
        let mut translated = Built::new(d, inp, tr);
        translated.sim.set_translation(true);
        let (mut ti, mut tt) = (Vec::new(), Vec::new());
        let mut cycles = 0;
        let mut per_run = Default::default();
        for _ in 0..ROUNDS {
            let r = interp.run(tr, u64::MAX);
            chk.require(r.exact);
            ti.push(ns(r.wall) / r.cycles as f64);
            cycles = r.cycles;
            let before = translated.sim.cpu().translation_stats();
            let r = translated.run(tr, u64::MAX);
            chk.require(r.exact && r.cycles == cycles);
            tt.push(ns(r.wall) / r.cycles as f64);
            let after = translated.sim.cpu().translation_stats();
            per_run = (
                after.block_dispatches - before.block_dispatches,
                after.translated_instructions - before.translated_instructions,
                after.invalidations - before.invalidations,
            );
        }
        let stats = interp.sim.cpu_stats();
        chk.require(translated.sim.cpu_stats() == stats);
        let rtl = interp.run_rtl(tr, u64::MAX);
        chk.require(rtl.exact);
        chk.cycles(cycles, rtl.cycles);
        chk.end_other();
        let (dispatches, insts, inval): (u64, u64, u64) = per_run;
        invalidations += inval;
        m.push(&format!("iss.interp_ns_per_cycle.{app}"), median(&ti), "ns/cycle");
        m.push(&format!("iss.translated_ns_per_cycle.{app}"), median(&tt), "ns/cycle");
        m.push(&format!("iss.translate.dispatches.{app}"), dispatches as f64, "count");
        m.push(
            &format!("iss.translate.insts_per_dispatch.{app}"),
            insts as f64 / dispatches.max(1) as f64,
            "ratio",
        );
        m.push(&format!("iss.cycles.{name}"), stats.cycles as f64, "count");
        m.push(&format!("iss.instructions.{name}"), stats.instructions as f64, "count");
        m.push(&format!("rtl.ns_per_cycle.{name}"), ns(rtl.wall) / rtl.cycles as f64, "ns/cycle");
    }
    m.push("iss.translate.invalidations", invalidations as f64, "count");
}

/// Checkpoint save/restore, golden capture, and the first
/// [`PROBE_TRIALS`] entries of both fault plans with outcome, rollback
/// and fast-forward counts.
fn resilience(inp: &Inputs, tr: &mut Tracer, chk: &mut Check, m: &mut Metrics) {
    let mut fr = FaultRecovery::setup(inp, tr);
    let mut golden_ms = 0.0;
    for app in &fr.apps {
        let mut sim = app.sim(tr, u64::MAX);
        sim.run(app.golden_cycles / 2);
        let (mut save, mut load) = (Vec::new(), Vec::new());
        let state = sim.save_state();
        for _ in 0..STATE_ROUNDS {
            let s = tr.begin("CoSim::save_state", &app.built.name, u64::MAX);
            let (st, t) = timed(|| sim.save_state());
            tr.end(s);
            save.push(ns(t) / 1e3);
            let s = tr.begin("CoSim::load_state", &app.built.name, u64::MAX);
            let (_, t) = timed(|| sim.load_state(&st));
            tr.end(s);
            load.push(ns(t) / 1e3);
            chk.require(st == state);
        }
        let app_name = app.built.design.app();
        m.push(&format!("resilience.save_state_us.{app_name}"), median(&save), "us");
        m.push(&format!("resilience.load_state_us.{app_name}"), median(&load), "us");

        let supervisor = Supervisor::new(report_policy());
        let mut golden = Vec::new();
        for _ in 0..ROUNDS {
            let mut sim = app.sim(tr, u64::MAX);
            let s = tr.begin("Supervisor::capture_golden", &app.built.name, u64::MAX);
            let (g, t) = timed(|| supervisor.capture_golden(&mut sim, app.observe()));
            tr.end(s);
            chk.require(g.observed == app.built.expected);
            chk.cycles(g.cycles, app.golden_cycles);
            golden.push(ns(t) / 1e6);
        }
        golden_ms += median(&golden);
        chk.end_other();
    }
    m.push("resilience.golden_ms", golden_ms, "ms");

    let (mut campaign_ms, mut recovery_ms) = (Vec::new(), Vec::new());
    let mut outcomes = [0u64; 4];
    let mut recovery = [0u64; 3];
    let (mut rollbacks, mut replayed) = (0u64, 0u64);
    let (mut ff, mut skipped, mut campaign_cycles) = (0u64, 0u64, 0u64);
    for i in 0..fr.apps.len() {
        for idx in 0..PROBE_TRIALS {
            let t = fault_trial(&mut fr.apps[i], idx, tr, u64::MAX, chk);
            chk.end_other();
            campaign_ms.push(t.campaign_ns / 1e6);
            recovery_ms.push(t.recovery_ns / 1e6);
            match t.outcome {
                Outcome::Masked => outcomes[0] += 1,
                Outcome::Sdc => outcomes[1] += 1,
                Outcome::Deadlock => outcomes[2] += 1,
                Outcome::Fault => outcomes[3] += 1,
                _ => {}
            }
            match t.recovery {
                RecoveryOutcome::Clean => recovery[0] += 1,
                RecoveryOutcome::Recovered { recovery_cycles, retries, .. } => {
                    recovery[1] += 1;
                    rollbacks += retries as u64;
                    replayed += recovery_cycles;
                }
                _ => recovery[2] += 1,
            }
            ff += t.ff_engagements;
            skipped += t.ff_skipped;
            campaign_cycles += t.campaign_cycles;
        }
    }
    m.push("resilience.trial_ms.campaign.p50", quantile(&campaign_ms, 0.5), "ms");
    m.push("resilience.trial_ms.recovery.p50", quantile(&recovery_ms, 0.5), "ms");
    for (k, v) in ["masked", "sdc", "deadlock", "fault"].iter().zip(outcomes) {
        m.push(&format!("resilience.outcomes.{k}"), v as f64, "count");
    }
    for (k, v) in ["clean", "recovered", "unrecoverable"].iter().zip(recovery) {
        m.push(&format!("resilience.recovery.{k}"), v as f64, "count");
    }
    m.push("resilience.rollbacks", rollbacks as f64, "count");
    m.push("resilience.replayed_cycles", replayed as f64, "count");
    m.push("core.ff_engagements", ff as f64, "count");
    m.push("core.ff_base_cycles", campaign_cycles as f64, "count");
    m.push("core.ff_skipped_share", skipped as f64 / campaign_cycles as f64, "ratio");
}
