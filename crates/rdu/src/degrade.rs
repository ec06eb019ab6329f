//! Fault remapping: re-partitioning sections over surviving PCU/PMU tiles.
//!
//! The RDU's sectioned execution makes remapping comparatively cheap: a
//! failed tile (or a fraction of the PCU/PMU population) shrinks the fabric
//! the partitioner may target, so SambaFlow re-compiles every section
//! against the surviving unit counts. DDR-link degradation is the harsher
//! fault — the chip is memory-bound in the paper's roofline, so lost DDR
//! bandwidth translates almost directly into lost throughput.

use crate::chip::RduSpec;
use crate::Rdu;
use dabench_core::{
    Degradable, DegradedProfile, FaultKind, FaultSet, Platform, PlatformError, RecoveryCost,
};
use dabench_model::TrainingWorkload;

/// Coarse wall-clock cost of re-compiling one section, seconds.
pub(crate) const RECOMPILE_S_PER_SECTION: f64 = 8.0;

/// Build the surviving hardware description under `faults`.
///
/// Tile faults remove whole PCU+PMU tiles; unit faults thin the
/// populations inside the remaining tiles; link faults scale the DDR and
/// intra-node bandwidths.
///
/// # Errors
///
/// [`PlatformError::DeviceFault`] when no tiles, PCUs or PMUs survive.
pub fn degraded_spec(spec: &RduSpec, faults: &FaultSet) -> Result<RduSpec, PlatformError> {
    let tile_loss = faults.dead_unit_fraction("tile");
    let pcu_loss = faults.dead_unit_fraction("pcu");
    let pmu_loss = faults.dead_unit_fraction("pmu");
    let link = faults.link_retained_fraction();

    let tiles = ((spec.tiles as f64) * (1.0 - tile_loss)).floor() as u64;
    let pcus_per_tile = ((spec.pcus_per_tile as f64) * (1.0 - pcu_loss)).floor() as u64;
    let pmus_per_tile = ((spec.pmus_per_tile as f64) * (1.0 - pmu_loss)).floor() as u64;
    if tiles == 0 || pcus_per_tile == 0 || pmus_per_tile == 0 {
        return Err(PlatformError::DeviceFault {
            unit: "tile".to_owned(),
            detail: format!(
                "no usable fabric left: {tiles} tiles x {pcus_per_tile} PCUs x \
                 {pmus_per_tile} PMUs survive"
            ),
        });
    }

    let mut out = spec.clone();
    out.tiles = tiles;
    out.pcus_per_tile = pcus_per_tile;
    out.pmus_per_tile = pmus_per_tile;
    out.ddr_bw_bytes_per_s *= link;
    out.intra_node_bw_bytes_per_s *= link;
    Ok(out)
}

impl Degradable for Rdu {
    fn fault_kind(&self) -> FaultKind {
        FaultKind::TiledFabric
    }

    fn degrade(
        &self,
        workload: &TrainingWorkload,
        faults: &FaultSet,
    ) -> Result<DegradedProfile, PlatformError> {
        let healthy = self.profile(workload)?;
        if faults.is_empty() {
            return Ok(DegradedProfile {
                degraded: healthy.clone(),
                healthy,
                recovery_cost: RecoveryCost::default(),
            });
        }

        let spec = degraded_spec(self.rdu_spec(), faults)?;
        // The section ceiling can never exceed the surviving fabric.
        let mut params = self.compiler_params().clone();
        params.max_pcus_per_section = params.max_pcus_per_section.min(spec.pcu_count());
        let degraded = Rdu::new(spec, params, self.mode()).profile(workload)?;

        let sections: u64 = degraded.sections.iter().map(|s| s.copies).sum();
        let recovery_cost = RecoveryCost::of(faults, sections as f64 * RECOMPILE_S_PER_SECTION);
        Ok(DegradedProfile {
            healthy,
            degraded,
            recovery_cost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompilationMode;
    use dabench_core::Fault;
    use dabench_model::{ModelConfig, Precision};

    fn w() -> TrainingWorkload {
        TrainingWorkload::new(ModelConfig::gpt2_probe(768, 12), 8, 1024, Precision::Bf16)
    }

    fn units(kind: &str, fraction: f64) -> Fault {
        Fault::DeadUnits {
            kind: kind.to_owned(),
            fraction,
        }
    }

    #[test]
    fn lost_tile_degrades_throughput() {
        let rdu = Rdu::with_mode(CompilationMode::O1);
        let faults = FaultSet::new(vec![units("tile", 0.25)]);
        let d = rdu.degrade(&w(), &faults).unwrap();
        assert!(d.degraded.throughput_tokens_per_s <= d.healthy.throughput_tokens_per_s);
        assert!(d.degraded.throughput_tokens_per_s > 0.0);
        assert!(d.recovery_cost.remap_time_s > 0.0);
    }

    #[test]
    fn ddr_link_degradation_hits_memory_bound_chip_hard() {
        let rdu = Rdu::with_mode(CompilationMode::O3);
        let faults = FaultSet::new(vec![Fault::LinkDegraded {
            retained_fraction: 0.5,
        }]);
        let d = rdu.degrade(&w(), &faults).unwrap();
        let retention = d.throughput_retention();
        // Memory-bound sections roughly track the DDR bandwidth cut.
        assert!(retention < 0.85, "{retention}");
    }

    #[test]
    fn pcu_fraction_thins_sections() {
        let rdu = Rdu::with_mode(CompilationMode::O1);
        let faults = FaultSet::new(vec![units("pcu", 0.3)]);
        let d = rdu.degrade(&w(), &faults).unwrap();
        let healthy_max = d
            .healthy
            .sections
            .iter()
            .flat_map(|s| s.unit_usage.iter())
            .filter(|(k, _, _)| k == "pcu")
            .map(|&(_, used, _)| used)
            .max()
            .unwrap();
        let degraded_max = d
            .degraded
            .sections
            .iter()
            .flat_map(|s| s.unit_usage.iter())
            .filter(|(k, _, _)| k == "pcu")
            .map(|&(_, used, _)| used)
            .max()
            .unwrap();
        assert!(degraded_max <= healthy_max);
        assert!(degraded_max <= degraded_spec(rdu.rdu_spec(), &faults).unwrap().pcu_count());
    }

    #[test]
    fn total_fabric_loss_is_a_device_fault() {
        let rdu = Rdu::default();
        let faults = FaultSet::new(vec![units("tile", 1.0)]);
        assert!(matches!(
            rdu.degrade(&w(), &faults),
            Err(PlatformError::DeviceFault { .. })
        ));
    }

    #[test]
    fn empty_fault_set_is_identity() {
        let rdu = Rdu::default();
        let d = rdu.degrade(&w(), &FaultSet::default()).unwrap();
        assert_eq!(d.healthy, d.degraded);
    }
}
