//! Sections: the RDU's unit of graph loading and execution.

use crate::chip::{RduCompilerParams, RduSpec};
use serde::{Deserialize, Serialize};

/// PCU assignment of one operator inside a section (drives the paper's
/// operator-level load-imbalance metric).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpAssignment {
    /// Operator name.
    pub name: String,
    /// FLOPs per section invocation attributable to the operator.
    pub flops: f64,
    /// PCUs assigned by the compiler template.
    pub pcus: u64,
}

impl OpAssignment {
    /// Operator processing rate per invocation (higher = finishes its
    /// share sooner); the scale-free throughput used by Eq. 3.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.flops > 0.0 {
            self.pcus as f64 / self.flops
        } else {
            f64::INFINITY
        }
    }
}

/// One section: a subgraph loaded onto the fabric and invoked one or more
/// times per training step.
///
/// A section may stand for a *run* of `copies` identical sections that
/// execute back to back: O3 repeats one decoder program, so its decoder
/// sections are one run per phase. Every per-invocation field below
/// describes one copy. Float sums over a schedule add each copy's value
/// `copies` times in schedule order, never `copies × value`, so they equal
/// those of the one-section-per-copy list bit for bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Section {
    /// Section name, e.g. `"o3.decoders.fwd"` or `"op.l0.qkv_proj.fwd"`.
    pub name: String,
    /// Identical copies of the section, run back to back (1 everywhere
    /// except O3's decoder runs).
    pub copies: u64,
    /// Times each copy executes per training step.
    pub invocations: u64,
    /// FLOPs per invocation of one copy.
    pub flops_per_invocation: f64,
    /// Weight bytes read from DDR per invocation.
    pub weight_bytes: u64,
    /// Boundary tensor bytes read from DDR per invocation (inputs plus,
    /// for backward sections, the stored forward activations).
    pub input_bytes: u64,
    /// Boundary tensor bytes written to DDR per invocation.
    pub output_bytes: u64,
    /// PCUs allocated.
    pub pcus: u64,
    /// PMUs allocated.
    pub pmus: u64,
    /// Whether the section must be re-loaded onto the fabric for every
    /// invocation (O0's per-operator sections alternate through the layer
    /// program, evicting each other).
    pub reload_per_invocation: bool,
    /// Per-operator PCU assignments (operator-level LI).
    pub ops: Vec<OpAssignment>,
}

impl Section {
    /// DDR traffic of one invocation of one copy, bytes.
    #[must_use]
    pub fn ddr_bytes_per_invocation(&self) -> u64 {
        self.weight_bytes + self.input_bytes + self.output_bytes
    }

    /// DDR traffic of the whole run per step (every copy), bytes.
    #[must_use]
    pub fn ddr_bytes_per_step(&self) -> u64 {
        self.ddr_bytes_per_invocation() * self.invocations * self.copies
    }

    /// FLOPs of the whole run per step (every copy). A product, so it may
    /// differ in the last bits from a per-copy sum; schedule arithmetic
    /// adds [`Section::flops_per_copy`] once per copy instead.
    #[must_use]
    pub fn flops_per_step(&self) -> f64 {
        self.flops_per_copy() * self.copies as f64
    }

    /// FLOPs of one copy per step.
    #[must_use]
    pub fn flops_per_copy(&self) -> f64 {
        self.flops_per_invocation * self.invocations as f64
    }
}

/// Assign PCUs to the ops of a section with the conservative √FLOPs
/// template, then size the section's PCU/PMU claims.
///
/// Each op is a `(name, flops)` pair — the resolved operator name (borrowed
/// from the graph's interner) and its FLOPs for one invocation.
///
/// The template under-provisions large operators relative to their work
/// (a real compiler schedules tiles over time rather than space), which is
/// exactly why measured RDU allocation stays below ~60% in the paper.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn assign_units(
    name: &str,
    ops: &[(&str, f64)],
    invocations: u64,
    weight_bytes: u64,
    input_bytes: u64,
    output_bytes: u64,
    spec: &RduSpec,
    params: &RduCompilerParams,
) -> Section {
    let budget = spec.pcu_count().min(params.max_pcus_per_section);
    // Section sizing: the conservative √FLOPs template sets the section's
    // total PCU claim (the flops entry is the work of ONE invocation;
    // per-layer sections pass the layer-0 template ops).
    let sqrt_total: f64 = ops
        .iter()
        .map(|(_, flops)| flops.max(0.0).sqrt() / params.sqrt_flops_per_pcu)
        .sum();
    let floor = params.min_pcus_per_op * ops.len() as u64;
    let total_pcus = (sqrt_total.round() as u64).clamp(floor.min(budget), budget);

    // Within the section, PCUs are spread proportionally to FLOPs but in
    // coarse quanta (a PCU group is the schedulable unit) — the rounding
    // is what produces the operator-level load imbalance of Fig. 8, and
    // its relative error shrinks as hidden size grows (Fig. 8(b)).
    let quantum = params.pcu_quantum.max(1);
    let flops_total: f64 = ops.iter().map(|(_, flops)| flops.max(0.0)).sum();
    let assignments: Vec<OpAssignment> = ops
        .iter()
        .map(|(op_name, flops)| {
            let share = if flops_total > 0.0 {
                total_pcus as f64 * flops.max(0.0) / flops_total
            } else {
                total_pcus as f64 / ops.len() as f64
            };
            let quantized = ((share / quantum as f64).round() as u64) * quantum;
            OpAssignment {
                name: (*op_name).to_owned(),
                flops: *flops,
                pcus: quantized.max(params.min_pcus_per_op),
            }
        })
        .collect();
    let pcus: u64 = assignments.iter().map(|a| a.pcus).sum::<u64>().min(budget);

    let working = weight_bytes + input_bytes + output_bytes;
    let pmus = ((working as f64 / params.working_bytes_per_pmu).ceil() as u64)
        .max(params.min_pmus_per_section)
        .min(spec.pmu_count());

    let flops_per_invocation: f64 = assignments.iter().map(|a| a.flops).sum();
    Section {
        name: name.to_owned(),
        copies: 1,
        invocations,
        flops_per_invocation,
        weight_bytes,
        input_bytes,
        output_bytes,
        pcus,
        pmus,
        reload_per_invocation: false,
        ops: assignments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assign(ops: &[(&str, f64)]) -> Section {
        assign_units(
            "s",
            ops,
            1,
            1 << 20,
            1 << 18,
            1 << 18,
            &RduSpec::sn30(),
            &RduCompilerParams::default(),
        )
    }

    #[test]
    fn section_sizing_is_sublinear() {
        // Section totals follow the √FLOPs template: 100× the work buys
        // only ~10× the PCUs.
        let s_small = assign(&[("small", 1e9)]);
        let s_big = assign(&[("big", 1e11)]);
        let ratio = s_big.pcus as f64 / s_small.pcus as f64;
        assert!((7.0..14.0).contains(&ratio), "{ratio}");
    }

    #[test]
    fn intra_section_split_is_proportional() {
        let s = assign(&[("small", 1e10), ("big", 3e10)]);
        let ratio = s.ops[1].pcus as f64 / s.ops[0].pcus as f64;
        assert!((2.0..4.5).contains(&ratio), "{ratio}");
    }

    #[test]
    fn min_pcus_enforced() {
        let s = assign(&[("tiny", 1.0)]);
        // The floor is min_pcus, possibly rounded up to one quantum.
        assert!(
            s.ops[0].pcus >= 4 && s.ops[0].pcus <= 8,
            "{}",
            s.ops[0].pcus
        );
    }

    #[test]
    fn oversubscription_scales_down() {
        let names: Vec<String> = (0..8).map(|i| format!("h{i}")).collect();
        let huge: Vec<(&str, f64)> = names.iter().map(|n| (n.as_str(), 1e13)).collect();
        let s = assign(&huge);
        assert!(s.pcus <= 640);
    }

    #[test]
    fn pmus_track_working_set() {
        let small = assign_units(
            "s",
            &[("o", 1e9)],
            1,
            1 << 20,
            0,
            0,
            &RduSpec::sn30(),
            &RduCompilerParams::default(),
        );
        let large = assign_units(
            "l",
            &[("o", 1e9)],
            1,
            200 << 20,
            0,
            0,
            &RduSpec::sn30(),
            &RduCompilerParams::default(),
        );
        assert!(large.pmus > small.pmus);
        assert!(large.pmus <= 640);
    }

    #[test]
    fn ddr_accounting() {
        let s = assign_units(
            "s",
            &[("o", 1e9)],
            3,
            100,
            10,
            20,
            &RduSpec::sn30(),
            &RduCompilerParams::default(),
        );
        assert_eq!(s.ddr_bytes_per_invocation(), 130);
        assert_eq!(s.ddr_bytes_per_step(), 390);
        let run = Section { copies: 4, ..s };
        assert_eq!(run.ddr_bytes_per_invocation(), 130);
        assert_eq!(run.ddr_bytes_per_step(), 4 * 390);
        assert_eq!(run.flops_per_step(), 4.0 * run.flops_per_copy());
    }

    #[test]
    fn zero_flop_ops_have_infinite_throughput() {
        let s = assign(&[("z", 0.0)]);
        assert!(s.ops[0].throughput().is_infinite());
    }
}
