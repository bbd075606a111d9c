//! The shared fixture of the resilience integration tests: a tiny FSL
//! round-trip workload and a deterministic fault plan over it.

#![allow(dead_code)]

use softsim_blocks::library::{AddSub, AddSubOp, Constant, Delay, Register};
use softsim_blocks::{FixFmt, Graph};
use softsim_cosim::{CoSim, FslFromHw, FslToHw, Peripheral};
use softsim_isa::asm::assemble;
use softsim_isa::reg::r;
use softsim_resilience::{CampaignConfig, FaultKind, Injection};
use std::path::PathBuf;

/// Journal header length of the `SSJL` format.
pub const HEADER_LEN: usize = 25;

/// A peripheral that adds 100 to every word on FSL0, one cycle later.
fn adder_peripheral() -> Peripheral {
    let mut g = Graph::new();
    let data = g.gateway_in("fsl0_data", FixFmt::INT32);
    let valid = g.gateway_in("fsl0_valid", FixFmt::BOOL);
    let hundred = g.add("hundred", Constant::int(100, FixFmt::INT32));
    let add = g.add("add", AddSub::new(AddSubOp::Add, FixFmt::INT32));
    let rdata = g.add("rdata", Register::zeroed(FixFmt::INT32));
    let rvalid = g.add("rvalid", Delay::new(FixFmt::BOOL, 1));
    g.connect(data, 0, add, 0).unwrap();
    g.connect(hundred, 0, add, 1).unwrap();
    g.connect(add, 0, rdata, 0).unwrap();
    g.connect(valid, 0, rdata, 1).unwrap();
    g.connect(valid, 0, rvalid, 0).unwrap();
    g.gateway_out("fsl0_out_data", rdata, 0);
    g.gateway_out("fsl0_out_valid", rvalid, 0);
    g.compile().unwrap();
    Peripheral::new(g, vec![FslToHw::standard(0).without_control()], vec![FslFromHw::standard(0)])
}

/// An FSL round-trip workload: send 4 words, read 4 results, sum them
/// into `r6`. Blocks on `get`, so stuck-flag faults deadlock it and
/// stall fast-forwarding has something to skip.
pub fn fsl_sim() -> CoSim {
    let image = assemble(
        "addik r3, r0, 0\n\
         addik r5, r0, 4\n\
         send: put r3, rfsl0\n\
         addik r3, r3, 1\n\
         addik r5, r5, -1\n\
         bnei r5, send\n\
         addik r5, r0, 4\n\
         addik r6, r0, 0\n\
         recv: get r4, rfsl0\n\
         addk r6, r6, r4\n\
         addik r5, r5, -1\n\
         bnei r5, recv\n\
         halt\n",
    )
    .unwrap();
    CoSim::with_peripheral(&image, adder_peripheral())
}

pub fn observe(sim: &CoSim) -> Vec<u32> {
    vec![sim.cpu().reg(r(6))]
}

/// A short watchdog so deadlocked trials diagnose quickly.
pub fn quick_config() -> CampaignConfig {
    CampaignConfig { watchdog_threshold: 2_000, ..CampaignConfig::default() }
}

/// A small deterministic plan mixing benign flips with one guaranteed
/// deadlock (stuck `exists` flag under a blocking `get` loop).
pub fn mixed_plan() -> Vec<Injection> {
    vec![
        Injection { cycle: 3, kind: FaultKind::RegBitFlip { reg: 3, bit: 0 } },
        Injection { cycle: 5, kind: FaultKind::MemBitFlip { addr: 0x40, bit: 7 } },
        Injection { cycle: 8, kind: FaultKind::StuckEmpty { channel: 0 } },
        Injection { cycle: 10, kind: FaultKind::RegBitFlip { reg: 6, bit: 2 } },
        Injection {
            cycle: 12,
            kind: FaultKind::FifoDrop { dir: softsim_trace::FifoDir::ToHw, channel: 0 },
        },
        Injection { cycle: 14, kind: FaultKind::RegBitFlip { reg: 5, bit: 0 } },
        Injection { cycle: 16, kind: FaultKind::MemBitFlip { addr: 0x80, bit: 0 } },
        Injection { cycle: 18, kind: FaultKind::RegBitFlip { reg: 4, bit: 4 } },
    ]
}

/// [`mixed_plan`] plus one deliberate harness panic at index 2, so the
/// retry and abandoned paths have something to count.
pub fn mixed_plan_with_panic() -> Vec<Injection> {
    let mut plan = mixed_plan();
    plan.insert(2, Injection { cycle: 6, kind: FaultKind::HarnessPanic });
    plan
}

/// A scratch journal path unique to this process, test file and `tag`.
pub fn scratch(file: &str, tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("softsim_{file}_{tag}_{}.ssjl", std::process::id()))
}

fn le32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Byte offset where record `n` (0-based) of a journal starts; the
/// journal's length when it has exactly `n` records.
pub fn record_offset(journal: &[u8], n: usize) -> usize {
    let mut pos = HEADER_LEN;
    for _ in 0..n {
        pos += 8 + le32(&journal[pos..]) as usize;
    }
    pos
}

/// A journal in canonical form: the header, then the record frames
/// sorted by trial index. Parallel workers append in completion order,
/// so two journals of the same campaign agree byte for byte only in this
/// form — unless both were written by one worker, in plan order.
pub fn canonical(journal: &[u8]) -> Vec<u8> {
    let mut frames = Vec::new();
    let mut pos = HEADER_LEN;
    while pos < journal.len() {
        let end = pos + 8 + le32(&journal[pos..]) as usize;
        frames.push((le32(&journal[pos + 4..]), &journal[pos..end]));
        pos = end;
    }
    frames.sort_by_key(|&(index, _)| index);
    let mut out = journal[..HEADER_LEN].to_vec();
    for (_, frame) in frames {
        out.extend_from_slice(frame);
    }
    out
}
