//! Constructing hardware variants of trained software models.

use ahw_crossbar::{map_model, CrossbarConfig, MappingReport};
use ahw_nn::archs::ModelSpec;
use ahw_nn::{NnError, Sequential};
use ahw_sram::{BitErrorInjector, BitErrorModel, HybridMemoryConfig};
use ahw_tensor::Workspace;
use std::sync::Arc;

/// One site of a noise plan: which activation memory gets which hybrid
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedSite {
    /// Index into [`ModelSpec::sites`].
    pub site_index: usize,
    /// The hybrid memory operating point for that site.
    pub config: HybridMemoryConfig,
}

/// A complete bit-error noise plan — the machine-readable form of one row of
/// the paper's Table I / Table II. Sites not listed stay homogeneous (`H`).
#[derive(Debug, Clone, PartialEq)]
pub struct NoisePlan {
    /// Supply voltage shared by the plan (the tables use one `Vdd` per row).
    pub vdd: f32,
    /// The noise-injected sites and their configurations.
    pub sites: Vec<PlannedSite>,
}

impl NoisePlan {
    /// An empty plan (every site homogeneous — the baseline model).
    pub fn baseline(vdd: f32) -> Self {
        NoisePlan {
            vdd,
            sites: Vec::new(),
        }
    }

    /// Renders the plan as the paper's table row: one entry per model site,
    /// `H` for homogeneous sites, `8T/6T` ratios for planned ones.
    pub fn table_row(&self, spec: &ModelSpec) -> Vec<String> {
        let mut row = vec!["H".to_string(); spec.sites.len()];
        for planned in &self.sites {
            if let Some(cell) = row.get_mut(planned.site_index) {
                *cell = planned.config.word().ratio_label();
            }
        }
        row
    }
}

/// Clones the spec's model with the plan's [`BitErrorInjector`]s installed
/// at their sites — the deployable "hardware" model of Section III-A.
///
/// `seed` differentiates noise streams between experiment repetitions; each
/// site derives its own stream from it.
///
/// # Errors
///
/// Returns [`NnError::InvalidSite`] for an out-of-range site index.
pub fn apply_noise_plan(
    spec: &ModelSpec,
    plan: &NoisePlan,
    seed: u64,
) -> Result<Sequential, NnError> {
    let model = BitErrorModel::srinivasan22nm();
    let mut hardware = spec.model.clone();
    for planned in &plan.sites {
        let site = spec.sites.get(planned.site_index).ok_or_else(|| {
            NnError::InvalidSite(format!(
                "site index {} out of range ({} sites)",
                planned.site_index,
                spec.sites.len()
            ))
        })?;
        let injector = BitErrorInjector::new(
            planned.config,
            &model,
            seed ^ (planned.site_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        hardware.set_hook(site.site, Some(Arc::new(injector)))?;
    }
    Ok(hardware)
}

/// The weights-ablation counterpart of [`apply_noise_plan`]: instead of
/// hooking activation memories, the plan's hybrid configurations corrupt the
/// *parameter* memories of the layers feeding each site (one store/load
/// round trip through the hybrid memory at model-load time).
///
/// The paper reports this variant is the weaker defense (§III-A);
/// `exp_fig5 --noise-target weights` reproduces that comparison.
///
/// # Errors
///
/// Returns [`NnError::InvalidSite`] for an out-of-range site index.
pub fn apply_weight_noise_plan(
    spec: &ModelSpec,
    plan: &NoisePlan,
    seed: u64,
) -> Result<Sequential, NnError> {
    let model = BitErrorModel::srinivasan22nm();
    for planned in &plan.sites {
        if planned.site_index >= spec.sites.len() {
            return Err(NnError::InvalidSite(format!(
                "site index {} out of range ({} sites)",
                planned.site_index,
                spec.sites.len()
            )));
        }
    }
    let mut hardware = spec.model.clone();
    // which top-level layers actually own weights (activation sites often
    // live on ReLU/pool layers, whose parameters sit a couple of layers
    // earlier in the stack)
    let mut weighted_layers: Vec<usize> = Vec::new();
    hardware.visit_weights(|layer, _| {
        if weighted_layers.last() != Some(&layer) {
            weighted_layers.push(layer);
        }
        Ok::<_, NnError>(())
    })?;
    // corrupt the parameters feeding each planned site: the nearest
    // weight-bearing layer at or before the site's layer; one arena serves
    // the round-trip scratch of every site (the persistent weight is a
    // fresh clone, the scratch goes back to the arena)
    let mut ws = Workspace::new();
    for planned in &plan.sites {
        let site = &spec.sites[planned.site_index];
        let Some(&target) = weighted_layers
            .iter()
            .rev()
            .find(|&&l| l <= site.site.layer)
        else {
            continue;
        };
        let injector = BitErrorInjector::new(
            planned.config,
            &model,
            seed ^ (planned.site_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        hardware.visit_weights(|layer, tensor| {
            if layer == target {
                let noisy = injector.corrupt_into(tensor, &mut ws);
                *tensor = noisy.clone();
                ws.recycle_tensor(noisy);
            }
            Ok::<_, NnError>(())
        })?;
    }
    Ok(hardware)
}

/// Clones a model and rewrites its weights with their crossbar-effective
/// versions — the "hardware" model of Section III-B.
///
/// # Errors
///
/// Propagates mapping failures as [`NnError::BadConfig`] (the crossbar error
/// is embedded in the message).
pub fn crossbar_variant(
    software: &Sequential,
    config: &CrossbarConfig,
) -> Result<(Sequential, MappingReport), NnError> {
    let mut hardware = software.clone();
    let report = map_model(&mut hardware, config)
        .map_err(|e| NnError::BadConfig(format!("crossbar mapping failed: {e}")))?;
    Ok((hardware, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahw_nn::{archs, Mode};
    use ahw_sram::HybridWordConfig;
    use ahw_tensor::rng::{normal, seeded};

    fn spec() -> ModelSpec {
        archs::vgg8(10, 0.0625, &mut seeded(1)).unwrap()
    }

    fn plan(site: usize) -> NoisePlan {
        NoisePlan {
            vdd: 0.62,
            sites: vec![PlannedSite {
                site_index: site,
                config: HybridMemoryConfig::new(HybridWordConfig::new(2, 6).unwrap(), 0.62)
                    .unwrap(),
            }],
        }
    }

    #[test]
    fn noise_plan_changes_inference() {
        let mut spec = spec();
        let mut noisy = apply_noise_plan(&spec, &plan(0), 7).unwrap();
        let x = normal(&[2, 3, 32, 32], 0.5, 0.2, &mut seeded(2));
        let clean_out = spec.model.forward(&x, Mode::Eval).unwrap();
        let noisy_out = noisy.forward(&x, Mode::Eval).unwrap();
        assert_ne!(clean_out, noisy_out);
    }

    #[test]
    fn baseline_plan_is_identity() {
        let mut spec = spec();
        let mut same = apply_noise_plan(&spec, &NoisePlan::baseline(0.68), 7).unwrap();
        let x = normal(&[1, 3, 32, 32], 0.5, 0.2, &mut seeded(3));
        assert_eq!(
            spec.model.forward(&x, Mode::Eval).unwrap(),
            same.forward(&x, Mode::Eval).unwrap()
        );
    }

    #[test]
    fn bad_site_index_rejected() {
        let spec = spec();
        assert!(matches!(
            apply_noise_plan(&spec, &plan(999), 7),
            Err(NnError::InvalidSite(_))
        ));
    }

    #[test]
    fn table_row_marks_homogeneous_sites() {
        let spec = spec();
        let row = plan(2).table_row(&spec);
        assert_eq!(row.len(), spec.sites.len());
        assert_eq!(row[2], "2/6");
        assert!(row.iter().enumerate().all(|(i, c)| i == 2 || c == "H"));
    }

    #[test]
    fn weight_noise_plan_corrupts_upstream_parameters() {
        let mut spec = spec();
        // site 0 is the ReLU after the first conv; the corrupted weights are
        // the conv's
        let mut noisy = apply_weight_noise_plan(&spec, &plan(0), 7).unwrap();
        let x = normal(&[1, 3, 32, 32], 0.5, 0.2, &mut seeded(5));
        assert_ne!(
            spec.model.forward(&x, Mode::Eval).unwrap(),
            noisy.forward(&x, Mode::Eval).unwrap()
        );
        // deterministic in the seed
        let mut again = apply_weight_noise_plan(&spec, &plan(0), 7).unwrap();
        assert_eq!(
            noisy.forward(&x, Mode::Eval).unwrap(),
            again.forward(&x, Mode::Eval).unwrap()
        );
    }

    #[test]
    fn weight_noise_is_static_across_forwards() {
        // unlike activation noise, parameter corruption happens once at load
        let spec = spec();
        let mut noisy = apply_weight_noise_plan(&spec, &plan(1), 3).unwrap();
        let x = normal(&[1, 3, 32, 32], 0.5, 0.2, &mut seeded(6));
        let a = noisy.forward(&x, Mode::Eval).unwrap();
        let b = noisy.forward(&x, Mode::Eval).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn weight_noise_rejects_bad_site() {
        let spec = spec();
        assert!(apply_weight_noise_plan(&spec, &plan(999), 7).is_err());
    }

    #[test]
    fn crossbar_variant_maps_all_matrices() {
        let mut spec = spec();
        let (mut hardware, report) =
            crossbar_variant(&spec.model, &CrossbarConfig::paper_default(16)).unwrap();
        assert_eq!(report.matrices, 8); // 6 convs + 2 linears
        let x = normal(&[1, 3, 32, 32], 0.5, 0.2, &mut seeded(4));
        assert_ne!(
            spec.model.forward(&x, Mode::Eval).unwrap(),
            hardware.forward(&x, Mode::Eval).unwrap()
        );
    }
}
