//! The guest-program hotspot record (`BENCH_0006`).
//!
//! Profiles the canonical workloads through the `softsim-profile`
//! pipeline — per-PC attribution, basic-block rollup, partition advice —
//! and renders both the deterministic text section of
//! `tables_output.txt` and the machine-readable `BENCH_0006.json`.
//! Every number is cycle-exact: profiles reconcile against the ISS's
//! own counters before anything is emitted, and the record is
//! byte-reproducible on any machine and any worker count (the runs are
//! swept with [`crate::sweep::parallel_map`], which merges in input
//! order).

use crate::record::{obj, Gate, Obj, Record};
use crate::sweep::{default_workers, parallel_map};
use crate::workloads;
use softsim_cosim::{CoSim, CoSimStop, PAPER_CLOCK_HZ};
use softsim_profile::{advise, GuestReport, OffloadCandidate};
use std::fmt::Write as _;

/// Hot blocks reported per workload.
pub const HOT_BLOCKS_PER_WORKLOAD: usize = 5;

/// Offload candidates reported per workload.
pub const ADVICE_PER_WORKLOAD: usize = 3;

/// One hot basic block of a profiled workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotBlock {
    /// Deterministic block name (`region` or `region+0xOFF`).
    pub name: String,
    /// Enclosing label region.
    pub region: String,
    /// First instruction address.
    pub start: u32,
    /// One past the last instruction address.
    pub end: u32,
    /// Cycles spent in the block (stalls included).
    pub cycles: u64,
    /// Times the block was entered.
    pub visits: u64,
    /// FSL read + write stall cycles inside the block.
    pub fsl_stalls: u64,
}

/// The profile of one canonical workload.
#[derive(Debug, Clone, PartialEq)]
pub struct HotspotRow {
    /// Workload name (stable record key).
    pub name: &'static str,
    /// Total application cycles (reconciled against [`CoSim`]'s CPU
    /// counters).
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Discovered basic blocks in the image.
    pub blocks: usize,
    /// The hottest blocks, most cycles first.
    pub hot: Vec<HotBlock>,
    /// The partition advisor's top candidates, best score first.
    pub advice: Vec<OffloadCandidate>,
}

/// The profiled workload grid: the paper's two applications, each in
/// its pure-software and FSL-accelerated form.
#[derive(Debug, Clone, Copy)]
enum Spec {
    CordicSw(u32),
    CordicHw(u32, usize),
    MatmulSw(usize),
    MatmulHw(usize, usize),
}

fn spec_grid() -> Vec<Spec> {
    vec![Spec::CordicSw(24), Spec::CordicHw(24, 4), Spec::MatmulSw(16), Spec::MatmulHw(16, 4)]
}

fn run_spec(spec: Spec) -> HotspotRow {
    let (name, image, mut sim) = match spec {
        Spec::CordicSw(iters) => {
            let image = workloads::cordic_sw_image(iters);
            let sim = CoSim::software_only(&image);
            ("cordic_24iter_sw", image, sim)
        }
        Spec::CordicHw(iters, p) => {
            let image = workloads::cordic_hw_image(iters, p);
            let sim = CoSim::with_peripheral(&image, workloads::cordic_peripheral(p));
            ("cordic_24iter_p4", image, sim)
        }
        Spec::MatmulSw(n) => {
            let image = workloads::matmul_image(n, None);
            let sim = CoSim::software_only(&image);
            ("matmul_16x16_sw", image, sim)
        }
        Spec::MatmulHw(n, nb) => {
            let image = workloads::matmul_image(n, Some(nb));
            let sim = CoSim::with_peripheral(
                &image,
                softsim_apps::matmul::hardware::matmul_peripheral(nb),
            );
            ("matmul_16x16_nb4", image, sim)
        }
    };
    sim.set_profiling(true);
    assert_eq!(sim.run(u64::MAX / 2), CoSimStop::Halted, "{name} must halt");
    let profile = sim.guest_profile().expect("profiling on");
    let stats = sim.cpu_stats();
    assert_eq!(profile.total_cycles(), stats.cycles, "{name}: profile must reconcile");
    assert_eq!(profile.total_retires(), stats.instructions);
    let report = GuestReport::build(&image, &profile);
    assert_eq!(report.unmapped_cycles(), 0, "{name}: every cycle maps to a block");
    let hot = report
        .hot_blocks(HOT_BLOCKS_PER_WORKLOAD)
        .into_iter()
        .map(|b| HotBlock {
            name: b.name.clone(),
            region: b.block.region.clone(),
            start: b.block.start,
            end: b.block.end,
            cycles: b.cycles,
            visits: b.visits,
            fsl_stalls: b.read_stalls + b.write_stalls,
        })
        .collect();
    let mut advice = advise(&report);
    advice.truncate(ADVICE_PER_WORKLOAD);
    HotspotRow {
        name,
        cycles: stats.cycles,
        instructions: stats.instructions,
        blocks: report.blocks().len(),
        hot,
        advice,
    }
}

/// Profiles every canonical workload, swept on the default worker pool.
pub fn hotspot_rows() -> Vec<HotspotRow> {
    hotspot_rows_with(default_workers())
}

/// [`hotspot_rows`] with an explicit worker count; results are
/// identical for every count (CI byte-diffs the record to prove it).
pub fn hotspot_rows_with(workers: usize) -> Vec<HotspotRow> {
    parallel_map(spec_grid(), workers, run_spec)
}

/// Formats the hotspot profiles as deterministic text (the
/// `tables_output.txt` section).
pub fn hotspots_text() -> String {
    let mut out = String::from(
        "Hotspots: guest-program profiles (per-PC attribution rolled up\n\
         onto basic blocks; partition advisor score = cycles - 2*comm_words)\n",
    );
    for row in hotspot_rows() {
        let _ = writeln!(
            out,
            "\n{}: {} cycles ({:.2} us), {} instructions, {} blocks",
            row.name,
            row.cycles,
            row.cycles as f64 / PAPER_CLOCK_HZ * 1e6,
            row.instructions,
            row.blocks
        );
        let _ = writeln!(
            out,
            "  {:<16} {:>8}..{:<8} {:>9} {:>7} {:>10}",
            "hot block", "start", "end", "cycles", "visits", "fsl_stalls"
        );
        for b in &row.hot {
            let _ = writeln!(
                out,
                "  {:<16} {:>8x}..{:<8x} {:>9} {:>7} {:>10}",
                b.name, b.start, b.end, b.cycles, b.visits, b.fsl_stalls
            );
        }
        let _ = writeln!(out, "  offload advice (top {}):", row.advice.len());
        for c in &row.advice {
            let _ = writeln!(
                out,
                "    {:<12} score {:>8}  ({} cycles, {} comm words, {:.1} nJ)",
                c.region, c.score, c.cycles, c.comm_words, c.software_nj
            );
        }
    }
    out
}

/// The machine-readable `BENCH_0006` record. Every number is
/// cycle-exact and machine-independent, so — like `BENCH_0005` — the
/// committed file is byte-reproducible; CI re-derives it across
/// `SOFTSIM_SWEEP_WORKERS` values and byte-diffs.
pub fn hotspots_json() -> Record {
    let rows = hotspot_rows();
    let block = |b: &HotBlock| {
        obj! {
            "name" => &b.name, "region" => &b.region, "start" => b.start, "end" => b.end,
            "cycles" => b.cycles, "visits" => b.visits, "fsl_stalls" => b.fsl_stalls,
        }
    };
    let advice = |c: &OffloadCandidate| {
        obj! {
            "region" => &c.region, "start" => c.start, "cycles" => c.cycles, "visits" => c.visits,
            "comm_words" => c.comm_words, "est_comm_cycles" => c.est_comm_cycles,
            "score" => c.score, "software_nj" => c.software_nj,
            "est_extra_slices" => c.est_extra_slices,
        }
    };
    let workloads: Vec<Obj> = rows
        .iter()
        .map(|row| {
            obj! {
                "name" => row.name, "cycles" => row.cycles, "instructions" => row.instructions,
                "blocks" => row.blocks,
                "hot_blocks" => row.hot.iter().map(block).collect::<Vec<_>>(),
                "advice" => row.advice.iter().map(advice).collect::<Vec<_>>(),
            }
        })
        .collect();
    let total_cycles: f64 = rows.iter().map(|row| row.cycles as f64).sum();
    let fields = obj! {
        "clock_hz" => PAPER_CLOCK_HZ, "hot_blocks_per_workload" => HOT_BLOCKS_PER_WORKLOAD,
        "workloads" => workloads,
    };
    Record::new("BENCH_0006", "guest-program hotspot profiles and partition advice", fields).series(
        "hotspot_total_cycles",
        total_cycles,
        Gate::Info,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cordic_sw_hot_block_is_the_inner_loop() {
        let rows = hotspot_rows_with(1);
        let sw = rows.iter().find(|r| r.name == "cordic_24iter_sw").unwrap();
        assert_eq!(
            sw.hot[0].region, "join",
            "the compiled CORDIC kernel's hottest block is the inner-loop tail"
        );
        assert!(
            ["iter", "ypos", "join"].contains(&sw.advice[0].region.as_str()),
            "advisor must point at the inner loop, got {}",
            sw.advice[0].region
        );
        // The pure-software matmul burns everything in the k-loop; the
        // accelerated build's residue is the FSL marshalling itself.
        let mm_sw = rows.iter().find(|r| r.name == "matmul_16x16_sw").unwrap();
        assert_eq!(mm_sw.hot[0].region, "kloop");
        let mm_hw = rows.iter().find(|r| r.name == "matmul_16x16_nb4").unwrap();
        assert!(
            mm_hw.hot[0].region.starts_with("fsl_"),
            "after offload the hot path is communication, got {}",
            mm_hw.hot[0].region
        );
    }

    #[test]
    fn record_is_identical_across_worker_counts() {
        let serial = hotspot_rows_with(1);
        for workers in [2, 3, 8] {
            assert_eq!(serial, hotspot_rows_with(workers), "workers={workers}");
        }
    }

    #[test]
    fn hotspots_json_is_well_formed_with_required_keys() {
        let doc = hotspots_json().doc();
        let workloads = doc.get("workloads").unwrap().as_array().unwrap();
        assert_eq!(workloads.len(), 4, "two CORDIC + two matmul configurations");
        for w in workloads {
            assert!(w.get("cycles").unwrap().as_f64().unwrap() > 0.0);
            let hot = w.get("hot_blocks").unwrap().as_array().unwrap();
            assert!(!hot.is_empty() && hot.len() <= HOT_BLOCKS_PER_WORKLOAD);
            for b in hot {
                assert!(b.get("cycles").unwrap().as_f64().unwrap() > 0.0);
            }
            for c in w.get("advice").unwrap().as_array().unwrap() {
                assert!(c.get("software_nj").unwrap().as_f64().unwrap() >= 0.0);
            }
        }
    }
}
