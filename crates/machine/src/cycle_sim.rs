//! Cycle-level greedy issue simulator.
//!
//! The analytic bound of [`crate::throughput`] assumes a perfect scheduler.
//! Real out-of-order cores come close to it on dependency-free code, but they
//! schedule greedily with a finite reservation-station window and an in-order
//! front-end.  This module simulates exactly that: it is the "native
//! execution" back-end of the reproduction, producing IPC numbers that are
//! realistic (slightly below the analytic optimum on some mixes) and
//! therefore give the inference pipeline the same kind of imperfect data the
//! paper's measurements did.
//!
//! The model per cycle:
//!
//! 1. **Fetch/decode**: up to `front_end.instructions_per_cycle` instructions
//!    are taken from the kernel body (repeated round-robin) and their µOPs
//!    are placed in the scheduler window, as long as there is room.
//! 2. **Dispatch**: every port picks, among ready µOPs that list it, the one
//!    that entered the window first (oldest-first), unless the port is still
//!    busy with a previous non-pipelined µOP.
//!
//! There are no dependencies and no memory system — microkernels are
//! dependency-free and L1-resident by construction (Sec. III-A of the paper).
//!
//! # The scheduler window
//!
//! The window is not a list of µOPs but one FIFO of sequence numbers per
//! *µOP kind* — a distinct (port set, port occupancy) pair of the kernel —
//! plus a count of the µOPs it holds.  µOPs are numbered in the order they
//! enter the window, so each FIFO is sorted, and every µOP of a kind lists
//! the same ports.  The oldest µOP a free port `p` can take is therefore
//! the smallest FIFO front among the kinds that list `p`: exactly the µOP
//! a scan of the whole window for the oldest compatible entry would pick,
//! so the simulated IPC does not depend on the representation.  A port's
//! kind list and each kind's occupancy are computed once per call, so one
//! cycle costs O(ports × kinds per port), whatever the window size — a
//! kernel has a handful of kinds where a full window holds ~100 µOPs.

use crate::disjunctive::DisjunctiveMapping;
use palmed_isa::Microkernel;
use std::collections::VecDeque;

/// Configuration of the cycle-level simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationConfig {
    /// Number of warm-up cycles excluded from the measurement.
    pub warmup_cycles: u64,
    /// Number of measured cycles.
    pub measured_cycles: u64,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig { warmup_cycles: 200, measured_cycles: 2_000 }
    }
}

/// Result of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationResult {
    /// Measured instructions per cycle.
    pub ipc: f64,
    /// Instructions retired during the measured window.
    pub instructions_retired: u64,
    /// Cycles in the measured window.
    pub cycles: u64,
}

/// Simulates the steady-state execution of `kernel` and returns its IPC.
pub fn simulate_ipc(
    mapping: &DisjunctiveMapping,
    kernel: &Microkernel,
    config: &SimulationConfig,
) -> SimulationResult {
    if kernel.is_empty() {
        return SimulationResult { ipc: 0.0, instructions_retired: 0, cycles: 0 };
    }
    let machine = mapping.machine();
    let num_ports = machine.num_ports;
    let window = machine.scheduler_window.max(1);
    let fe_insts = machine.front_end.instructions_per_cycle;
    let fe_uops = machine.front_end.uops_per_cycle;

    // Flatten the kernel body: one entry per instruction instance, each with
    // the kinds of its µOPs.  A kind is a (port mask, cycles the port stays
    // busy) pair, stored once in `kinds`.
    let mut kinds: Vec<(u32, u64)> = Vec::new();
    let mut body: Vec<Vec<usize>> = Vec::new();
    for (inst, count) in kernel.iter() {
        let uops: Vec<usize> = mapping
            .uops(inst)
            .iter()
            .map(|u| {
                let kind = (u.ports.mask(), u.inverse_throughput.ceil() as u64);
                kinds.iter().position(|&k| k == kind).unwrap_or_else(|| {
                    kinds.push(kind);
                    kinds.len() - 1
                })
            })
            .collect();
        body.extend(std::iter::repeat_n(uops, count as usize));
    }
    let port_kinds: Vec<Vec<usize>> = (0..num_ports)
        .map(|port| (0..kinds.len()).filter(|&k| kinds[k].0 & (1 << port) != 0).collect())
        .collect();

    // The scheduler window: per kind, the sequence numbers of its waiting
    // µOPs, oldest first.
    let mut waiting: Vec<VecDeque<u64>> = vec![VecDeque::new(); kinds.len()];
    let mut occupancy = 0usize;
    let mut port_busy_until = vec![0u64; num_ports];
    let mut next_instruction = 0usize; // index into body (wraps)
    let mut sequence = 0u64;
    // Fractional front-end credit accumulators support non-integer widths.
    let mut fetch_credit = 0.0f64;
    let mut uop_credit = 0.0f64;

    let mut measured_instructions = 0u64;
    // An instruction is "retired" for IPC purposes when fetched; since there
    // are no dependencies, every fetched instruction completes a bounded
    // number of cycles later, so in steady state fetch rate == retire rate.
    let total_cycles = config.warmup_cycles + config.measured_cycles;

    for cycle in 0..total_cycles {
        // Fetch.
        fetch_credit = (fetch_credit + fe_insts).min(fe_insts.max(1.0) * 2.0);
        if fe_uops.is_finite() {
            uop_credit = (uop_credit + fe_uops).min(fe_uops * 2.0);
        }
        loop {
            let uops = &body[next_instruction];
            let uop_cost = uops.len() as f64;
            if fetch_credit < 1.0 {
                break;
            }
            if fe_uops.is_finite() && uop_credit < uop_cost {
                break;
            }
            if occupancy + uops.len() > window {
                break;
            }
            for &kind in uops {
                waiting[kind].push_back(sequence);
                sequence += 1;
            }
            occupancy += uops.len();
            fetch_credit -= 1.0;
            if fe_uops.is_finite() {
                uop_credit -= uop_cost;
            }
            next_instruction = (next_instruction + 1) % body.len();
            if cycle >= config.warmup_cycles {
                measured_instructions += 1;
            }
        }

        // Dispatch: each free port takes the oldest compatible waiting µOP.
        for (port, busy_until) in port_busy_until.iter_mut().enumerate() {
            if *busy_until > cycle {
                continue;
            }
            let oldest = port_kinds[port]
                .iter()
                .filter_map(|&kind| waiting[kind].front().map(|&seq| (seq, kind)))
                .min();
            if let Some((_, kind)) = oldest {
                waiting[kind].pop_front();
                occupancy -= 1;
                *busy_until = cycle + kinds[kind].1;
            }
        }
    }

    let cycles = config.measured_cycles.max(1);
    SimulationResult {
        ipc: measured_instructions as f64 / cycles as f64,
        instructions_retired: measured_instructions,
        cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disjunctive::{FrontEnd, MachineDescription};
    use crate::port::{MicroOp, PortSet};
    use crate::{presets, throughput};
    use palmed_isa::{ExecClass, InstDesc, InstructionSet, InventoryConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    /// The window as a list of `(kind, sequence)` µOPs, each free port
    /// scanning all of it for the oldest compatible one.  Also reports
    /// whether the window was ever full.
    fn scan_reference(
        mapping: &DisjunctiveMapping,
        kernel: &Microkernel,
        config: &SimulationConfig,
    ) -> (SimulationResult, bool) {
        if kernel.is_empty() {
            return (SimulationResult { ipc: 0.0, instructions_retired: 0, cycles: 0 }, false);
        }
        let machine = mapping.machine();
        let num_ports = machine.num_ports;
        let window = machine.scheduler_window.max(1);
        let fe_insts = machine.front_end.instructions_per_cycle;
        let fe_uops = machine.front_end.uops_per_cycle;
        let mut body: Vec<Vec<usize>> = Vec::new();
        let mut uop_ports: Vec<(u32, f64)> = Vec::new();
        for (inst, count) in kernel.iter() {
            let mut kinds = Vec::new();
            for u in mapping.uops(inst) {
                kinds.push(uop_ports.len());
                uop_ports.push((u.ports.mask(), u.inverse_throughput));
            }
            for _ in 0..count {
                body.push(kinds.clone());
            }
        }
        let mut pending: Vec<(usize, u64)> = Vec::new();
        let mut port_busy_until = vec![0u64; num_ports];
        let (mut next_instruction, mut sequence) = (0usize, 0u64);
        let (mut fetch_credit, mut uop_credit) = (0.0f64, 0.0f64);
        let mut measured_instructions = 0u64;
        let mut filled = false;
        for cycle in 0..config.warmup_cycles + config.measured_cycles {
            fetch_credit = (fetch_credit + fe_insts).min(fe_insts.max(1.0) * 2.0);
            if fe_uops.is_finite() {
                uop_credit = (uop_credit + fe_uops).min(fe_uops * 2.0);
            }
            loop {
                let kinds = &body[next_instruction];
                let uop_cost = kinds.len() as f64;
                if fetch_credit < 1.0
                    || (fe_uops.is_finite() && uop_credit < uop_cost)
                    || pending.len() + kinds.len() > window
                {
                    break;
                }
                for &kind in kinds {
                    pending.push((kind, sequence));
                    sequence += 1;
                }
                fetch_credit -= 1.0;
                if fe_uops.is_finite() {
                    uop_credit -= uop_cost;
                }
                next_instruction = (next_instruction + 1) % body.len();
                if cycle >= config.warmup_cycles {
                    measured_instructions += 1;
                }
            }
            filled |= pending.len() == window;
            for (port, busy_until) in port_busy_until.iter_mut().enumerate() {
                if *busy_until > cycle {
                    continue;
                }
                let mut chosen: Option<usize> = None;
                for (idx, &(kind, seq)) in pending.iter().enumerate() {
                    if uop_ports[kind].0 & (1 << port) != 0
                        && chosen.is_none_or(|c| seq < pending[c].1)
                    {
                        chosen = Some(idx);
                    }
                }
                if let Some(idx) = chosen {
                    let (kind, _) = pending.swap_remove(idx);
                    *busy_until = cycle + uop_ports[kind].1.ceil() as u64;
                }
            }
        }
        let cycles = config.measured_cycles.max(1);
        let result = SimulationResult {
            ipc: measured_instructions as f64 / cycles as f64,
            instructions_retired: measured_instructions,
            cycles,
        };
        (result, filled)
    }

    fn machine_and_insts() -> (DisjunctiveMapping, Arc<InstructionSet>) {
        let insts = Arc::new(InstructionSet::from_descs([
            InstDesc::new("ADD", ExecClass::IntAlu),
            InstDesc::new("BSR", ExecClass::IntAluRestricted),
            InstDesc::new("IDIV", ExecClass::IntDiv),
            InstDesc::new("ST", ExecClass::Store),
        ]));
        let mut m = MachineDescription::new("sim-test", 4, FrontEnd::instructions_only(4.0));
        m.define_class(ExecClass::IntAlu, vec![MicroOp::pipelined(PortSet::from_ports([0, 1]))]);
        m.define_class(
            ExecClass::IntAluRestricted,
            vec![MicroOp::pipelined(PortSet::from_ports([1]))],
        );
        m.define_class(
            ExecClass::IntDiv,
            vec![MicroOp::non_pipelined(PortSet::from_ports([0]), 6.0)],
        );
        m.define_class(
            ExecClass::Store,
            vec![
                MicroOp::pipelined(PortSet::from_ports([3])),
                MicroOp::pipelined(PortSet::from_ports([2])),
            ],
        );
        (Arc::new(m).bind(Arc::clone(&insts)), insts)
    }

    #[test]
    fn empty_kernel_gives_zero() {
        let (map, _) = machine_and_insts();
        let r = simulate_ipc(&map, &Microkernel::new(), &SimulationConfig::default());
        assert_eq!(r.ipc, 0.0);
    }

    #[test]
    fn single_alu_instruction_reaches_port_bound() {
        let (map, insts) = machine_and_insts();
        let add = insts.find("ADD").unwrap();
        let k = Microkernel::single(add).scaled(8);
        let r = simulate_ipc(&map, &k, &SimulationConfig::default());
        assert!((r.ipc - 2.0).abs() < 0.05, "ipc = {}", r.ipc);
    }

    #[test]
    fn simulation_stays_close_to_analytic_bound() {
        let (map, insts) = machine_and_insts();
        let add = insts.find("ADD").unwrap();
        let bsr = insts.find("BSR").unwrap();
        let st = insts.find("ST").unwrap();
        let kernels = [
            Microkernel::pair(add, 2, bsr, 1),
            Microkernel::pair(add, 1, bsr, 2),
            Microkernel::from_counts([(add, 2), (st, 1), (bsr, 1)]),
        ];
        for k in kernels {
            let analytic = throughput::ipc(&map, &k);
            let simulated = simulate_ipc(&map, &k, &SimulationConfig::default()).ipc;
            assert!(simulated <= analytic + 0.05, "sim {simulated} > analytic {analytic} for {k}");
            assert!(
                simulated >= analytic * 0.85,
                "sim {simulated} way below analytic {analytic} for {k}"
            );
        }
    }

    #[test]
    fn non_pipelined_divider_is_respected() {
        let (map, insts) = machine_and_insts();
        let idiv = insts.find("IDIV").unwrap();
        let k = Microkernel::single(idiv).scaled(2);
        let r = simulate_ipc(&map, &k, &SimulationConfig::default());
        assert!((r.ipc - 1.0 / 6.0).abs() < 0.02, "ipc = {}", r.ipc);
    }

    #[test]
    fn front_end_width_caps_simulated_ipc() {
        let (map, insts) = machine_and_insts();
        let add = insts.find("ADD").unwrap();
        let st = insts.find("ST").unwrap();
        let bsr = insts.find("BSR").unwrap();
        // Plenty of port parallelism: ALU on {0,1}, store on {2},{3}, BSR on {1}.
        let k = Microkernel::from_counts([(add, 2), (st, 2), (bsr, 1)]);
        let r = simulate_ipc(&map, &k, &SimulationConfig::default());
        assert!(r.ipc <= 4.0 + 1e-9);
    }

    #[test]
    fn fifo_dispatch_matches_the_window_scan_bit_for_bit() {
        let quick = InventoryConfig::small();
        let machines = [
            presets::skl_sp(&quick).mapping_arc(),
            presets::zen1(&quick).mapping_arc(),
            Arc::new(machine_and_insts().0),
        ];
        let configs = [
            SimulationConfig { warmup_cycles: 100, measured_cycles: 1_000 },
            SimulationConfig::default(),
            SimulationConfig { warmup_cycles: 0, measured_cycles: 37 },
        ];
        let mut rng = StdRng::seed_from_u64(15);
        let mut filled_windows = 0;
        for mapping in &machines {
            let ids: Vec<_> = mapping.instructions().ids().collect();
            for config in &configs {
                for _ in 0..8 {
                    let mut kernel = Microkernel::new();
                    for _ in 0..rng.gen_range(1..7) {
                        kernel.add(ids[rng.gen_range(0..ids.len())], rng.gen_range(1..61));
                    }
                    let fast = simulate_ipc(mapping, &kernel, config);
                    let (slow, filled) = scan_reference(mapping, &kernel, config);
                    assert_eq!(fast.ipc.to_bits(), slow.ipc.to_bits(), "{kernel} {config:?}");
                    assert_eq!(fast.instructions_retired, slow.instructions_retired);
                    assert_eq!(fast.cycles, slow.cycles);
                    filled_windows += usize::from(filled);
                }
            }
        }
        assert!(filled_windows >= 24, "only {filled_windows} kernels filled the window");
    }
}
