//! Layer-alone replays of a recorded co-simulation run.
//!
//! One traced co-simulation run records every word that crossed a
//! gateway, with its cycle, channel and control bit. The stream is then
//! replayed twice, each time against one layer alone:
//!
//! * the peripheral block graph, driven through
//!   `Graph::set_input_fast` / `Graph::step` exactly as the co-simulator
//!   drives it, with no processor attached;
//! * the processor, ticked through `Cpu::tick` while the benchmark pops
//!   the words the graph consumed and pushes the words it produced at
//!   their recorded cycles, with no graph attached.
//!
//! Each replay must reproduce the recorded run exactly — gateway output
//! words, cycle and instruction counts — or its timing is void.

use softsim_blocks::block::bit;
use softsim_blocks::graph::{GraphState, InputHandle, OutputHandle};
use softsim_blocks::{Fix, FixFmt, Graph};
use softsim_bus::{FslBank, FslWord};
use softsim_isa::Image;
use softsim_iss::{Cpu, CpuStats, Event};
use softsim_trace::{FifoDir, TraceEvent, TraceSink};
use std::time::{Duration, Instant};

/// One word that crossed a gateway.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatewayWord {
    /// Cycle of the transfer.
    pub cycle: u64,
    /// Processor → hardware when true.
    pub to_hw: bool,
    /// FSL channel.
    pub channel: u8,
    /// Payload.
    pub data: u32,
    /// Control bit.
    pub control: bool,
}

/// Trace sink keeping the gateway side of the FSL traffic: pops from
/// processor → hardware FIFOs and pushes into hardware → processor
/// FIFOs are exactly the gateway transfers. The co-simulator's own
/// `GatewayWord` events are kept too, as a cross-check.
#[derive(Default)]
pub struct GatewayLog {
    /// Transfers seen at the FIFOs, in order.
    pub words: Vec<GatewayWord>,
    /// `(cycle, to_hw, data)` of every `GatewayWord` event.
    pub gateway_events: Vec<(u64, bool, u32)>,
}

impl TraceSink for GatewayLog {
    fn event(&mut self, e: &TraceEvent) {
        match *e {
            TraceEvent::FifoPop { cycle, dir: FifoDir::ToHw, channel, data, control, .. } => {
                self.words.push(GatewayWord { cycle, to_hw: true, channel, data, control })
            }
            TraceEvent::FifoPush {
                cycle, dir: FifoDir::FromHw, channel, data, control, ..
            } => self.words.push(GatewayWord { cycle, to_hw: false, channel, data, control }),
            TraceEvent::GatewayWord { cycle, to_hw, data, .. } => {
                self.gateway_events.push((cycle, to_hw, data))
            }
            _ => {}
        }
    }
}

impl GatewayLog {
    /// True when the FIFO-side stream and the co-simulator's gateway
    /// events describe the same transfers.
    pub fn consistent(&self) -> bool {
        self.words.len() == self.gateway_events.len()
            && self
                .words
                .iter()
                .zip(&self.gateway_events)
                .all(|(w, &(c, t, d))| w.cycle == c && w.to_hw == t && w.data == d)
    }
}

/// Graph handles of the standard channel-0 gateways.
pub struct Gateways {
    data: InputHandle,
    valid: InputHandle,
    ctrl: InputHandle,
    out_data: OutputHandle,
    out_valid: OutputHandle,
}

impl Gateways {
    /// Resolves the channel-0 gateway names once, outside any timed loop.
    pub fn resolve(g: &Graph) -> Gateways {
        let i = |n: &str| g.input_handle(n).expect("standard gateway-in");
        let o = |n: &str| g.output_handle(n).expect("standard gateway-out");
        Gateways {
            data: i("fsl0_data"),
            valid: i("fsl0_valid"),
            ctrl: i("fsl0_ctrl"),
            out_data: o("fsl0_out_data"),
            out_valid: o("fsl0_out_valid"),
        }
    }
}

/// Replays `stream` into the graph alone for `cycles` cycles from
/// `initial`. Returns the wall time of the stepping loop and whether
/// the graph produced exactly the recorded output words at exactly the
/// recorded cycles.
pub fn graph_alone(
    g: &mut Graph,
    gw: &Gateways,
    initial: &GraphState,
    stream: &[GatewayWord],
    cycles: u64,
) -> (Duration, bool) {
    g.load_state(initial);
    let inputs: Vec<&GatewayWord> = stream.iter().filter(|w| w.to_hw).collect();
    let expected: Vec<(u64, u32)> =
        stream.iter().filter(|w| !w.to_hw).map(|w| (w.cycle, w.data)).collect();
    let mut produced: Vec<(u64, u32)> = Vec::with_capacity(expected.len());
    let idle = Fix::from_bits(0, FixFmt::INT32);
    let mut next = 0;
    let start = Instant::now();
    for c in 0..cycles {
        let (data, valid, ctrl) = match inputs.get(next) {
            Some(w) if w.cycle == c => {
                next += 1;
                (Fix::from_bits(w.data as u64, FixFmt::INT32), true, w.control)
            }
            _ => (idle, false, false),
        };
        g.set_input_fast(gw.data, data);
        g.set_input_fast(gw.valid, bit(valid));
        g.set_input_fast(gw.ctrl, bit(ctrl));
        g.step();
        if !g.output_fast(gw.out_valid).is_zero() {
            produced.push((c, g.output_fast(gw.out_data).to_bits() as u32));
        }
    }
    let wall = start.elapsed();
    (wall, next == inputs.len() && produced == expected)
}

/// Replays `stream` against the processor alone: ticks a fresh CPU on
/// `image` and, after each cycle, pops the words the graph consumed and
/// pushes the words it produced at that cycle. Returns the wall time of
/// the ticking loop, the final statistics, and whether every popped
/// word matched the recording and the program halted.
pub fn cpu_alone(image: &Image, stream: &[GatewayWord], limit: u64) -> (Duration, CpuStats, bool) {
    let mut cpu = Cpu::with_default_memory(image);
    let mut fsl = FslBank::default();
    let mut next = 0;
    let mut exact = true;
    let mut halted = false;
    let start = Instant::now();
    while cpu.stats().cycles < limit {
        let cycle = cpu.stats().cycles;
        let event = cpu.tick(&mut fsl);
        while let Some(w) = stream.get(next).filter(|w| w.cycle == cycle) {
            let ch = w.channel as usize;
            if w.to_hw {
                let word = fsl.to_hw(ch).try_pop();
                exact &= word == Some(FslWord { data: w.data, control: w.control });
            } else {
                exact &= fsl.from_hw(ch).try_push(FslWord { data: w.data, control: w.control });
            }
            next += 1;
        }
        if event.is_halt() {
            halted = true;
            break;
        }
        if let Event::Fault(_) = event {
            break;
        }
    }
    let wall = start.elapsed();
    (wall, cpu.stats(), exact && halted && next == stream.len())
}
