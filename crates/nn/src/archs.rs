//! Network builders: the four architectures the paper evaluates (VGG8,
//! VGG16, VGG19, ResNet18), CIFAR-sized (3×32×32 inputs).
//!
//! Every builder takes a *width multiplier*: the paper's full-width networks
//! (64…512 channels) are impractical to train on a CPU in minutes, so the
//! experiment binaries default to 1/16 width (1/8 with `--full`). The
//! topology — layer counts, pooling positions, shortcut structure, i.e.
//! everything the noise-injection methodology and the crossbar tiling
//! interact with — is unchanged (see DESIGN.md §3).

use crate::block::BasicBlock;
use crate::layer::HookSlot;
use crate::layers::{AvgPool2d, BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d, ReLU};
use crate::sequential::{Sequential, Site};
use crate::NnError;
use ahw_tensor::rng::Rng;

/// What kind of activation memory a noise site represents — the row labels
/// of the paper's Tables I and II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteKind {
    /// A convolution layer's post-activation output.
    Conv,
    /// A pooling layer output (`P` in Table I).
    Pool,
    /// A residual shortcut branch (`S` in Table II).
    Shortcut,
}

/// One activation-memory location eligible for bit-error noise injection.
#[derive(Debug, Clone)]
pub struct NoiseSite {
    /// Where to install the hook.
    pub site: Site,
    /// The kind of activation stored there.
    pub kind: SiteKind,
    /// Paper-style label, e.g. `"4"`, `"5 (P)"`, `"2 (S)"`.
    pub label: String,
}

/// A built model together with its noise-site map and a human-readable name.
#[derive(Debug, Clone)]
pub struct ModelSpec {
    /// The network.
    pub model: Sequential,
    /// Activation-memory sites in paper order.
    pub sites: Vec<NoiseSite>,
    /// Architecture name (`"vgg19"` …).
    pub name: String,
    /// Number of classes the head predicts.
    pub num_classes: usize,
}

fn scaled(channels: usize, width: f32) -> usize {
    ((channels as f32 * width).round() as usize).max(2)
}

/// One VGG "conv unit": conv3×3 + batch-norm + ReLU. Returns the index of
/// the ReLU (the unit's activation-memory site).
fn push_conv_unit<R: Rng>(
    model: &mut Sequential,
    in_ch: usize,
    out_ch: usize,
    rng: &mut R,
) -> Result<usize, NnError> {
    model.push(Conv2d::new(in_ch, out_ch, 3, 1, 1, rng)?);
    model.push(BatchNorm2d::new(out_ch));
    model.push(ReLU::new());
    Ok(model.len() - 1)
}

/// Elements of a VGG feature configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VggItem {
    Conv(usize),
    Pool,
}

fn build_vgg<R: Rng>(
    name: &str,
    cfg: &[VggItem],
    hidden: usize,
    num_classes: usize,
    width: f32,
    rng: &mut R,
) -> Result<ModelSpec, NnError> {
    let mut model = Sequential::new();
    let mut sites = Vec::new();
    let mut in_ch = 3usize;
    let mut spatial = 32usize;
    for (label, item) in cfg.iter().enumerate() {
        match item {
            VggItem::Conv(c) => {
                let out_ch = scaled(*c, width);
                let relu_idx = push_conv_unit(&mut model, in_ch, out_ch, rng)?;
                sites.push(NoiseSite {
                    site: Site::output(relu_idx),
                    kind: SiteKind::Conv,
                    label: label.to_string(),
                });
                in_ch = out_ch;
            }
            VggItem::Pool => {
                model.push(MaxPool2d::new(2, 2));
                spatial /= 2;
                sites.push(NoiseSite {
                    site: Site::output(model.len() - 1),
                    kind: SiteKind::Pool,
                    label: format!("{label} (P)"),
                });
            }
        }
    }
    model.push(Flatten::new());
    let feat = in_ch * spatial * spatial;
    // keep the classifier hidden layer at least as wide as the class count:
    // a width-scaled 32-unit bottleneck cannot separate 100 classes
    let hidden = scaled(hidden, width).max(num_classes.min(256));
    model.push(Linear::new(feat, hidden, rng)?);
    model.push(ReLU::new());
    model.push(Linear::new(hidden, num_classes, rng)?);
    Ok(ModelSpec {
        model,
        sites,
        name: name.to_string(),
        num_classes,
    })
}

/// VGG8: six 3×3 conv units in three pooled stages plus a two-layer
/// classifier head (the paper's CIFAR-10 crossbar workload).
///
/// # Errors
///
/// Returns [`NnError::BadConfig`] if a scaled dimension degenerates.
pub fn vgg8<R: Rng>(num_classes: usize, width: f32, rng: &mut R) -> Result<ModelSpec, NnError> {
    use VggItem::{Conv, Pool};
    build_vgg(
        "vgg8",
        &[
            Conv(64),
            Conv(64),
            Pool,
            Conv(128),
            Conv(128),
            Pool,
            Conv(256),
            Conv(256),
            Pool,
        ],
        512,
        num_classes,
        width,
        rng,
    )
}

/// VGG16: thirteen conv units in five pooled stages (the paper's CIFAR-100
/// crossbar workload).
///
/// # Errors
///
/// Returns [`NnError::BadConfig`] if a scaled dimension degenerates.
pub fn vgg16<R: Rng>(num_classes: usize, width: f32, rng: &mut R) -> Result<ModelSpec, NnError> {
    use VggItem::{Conv, Pool};
    build_vgg(
        "vgg16",
        &[
            Conv(64),
            Conv(64),
            Pool,
            Conv(128),
            Conv(128),
            Pool,
            Conv(256),
            Conv(256),
            Conv(256),
            Pool,
            Conv(512),
            Conv(512),
            Conv(512),
            Pool,
            Conv(512),
            Conv(512),
            Conv(512),
            Pool,
        ],
        512,
        num_classes,
        width,
        rng,
    )
}

/// VGG19: sixteen conv units in five pooled stages, matching the layer/pool
/// indexing of the paper's Table I (sites 0…20 with `P` at 2, 5, 10, 15, 20).
///
/// # Errors
///
/// Returns [`NnError::BadConfig`] if a scaled dimension degenerates.
pub fn vgg19<R: Rng>(num_classes: usize, width: f32, rng: &mut R) -> Result<ModelSpec, NnError> {
    use VggItem::{Conv, Pool};
    build_vgg(
        "vgg19",
        &[
            Conv(64),
            Conv(64),
            Pool,
            Conv(128),
            Conv(128),
            Pool,
            Conv(256),
            Conv(256),
            Conv(256),
            Conv(256),
            Pool,
            Conv(512),
            Conv(512),
            Conv(512),
            Conv(512),
            Pool,
            Conv(512),
            Conv(512),
            Conv(512),
            Conv(512),
            Pool,
        ],
        512,
        num_classes,
        width,
        rng,
    )
}

/// CIFAR-style ResNet18: a 3×3 stem plus eight [`BasicBlock`]s in four
/// stages, global average pooling and a linear head.
///
/// The noise-site list matches Table II's indexing: three sites per block —
/// first conv activation, block output activation, and the shortcut branch
/// (`S`) — for 24 sites total.
///
/// # Errors
///
/// Returns [`NnError::BadConfig`] if a scaled dimension degenerates.
pub fn resnet18<R: Rng>(num_classes: usize, width: f32, rng: &mut R) -> Result<ModelSpec, NnError> {
    let mut model = Sequential::new();
    let stem = scaled(64, width);
    model.push(Conv2d::new(3, stem, 3, 1, 1, rng)?);
    model.push(BatchNorm2d::new(stem));
    model.push(ReLU::new());

    let mut sites = Vec::new();
    let mut in_ch = stem;
    let mut label = 0usize;
    let stages: [(usize, usize); 4] = [(64, 1), (128, 2), (256, 2), (512, 2)];
    for (stage, (channels, first_stride)) in stages.into_iter().enumerate() {
        for b in 0..2 {
            // the final stage feeds the classifier after global pooling;
            // floor it near the class count so many-class heads are not
            // bottlenecked by aggressive width scaling
            let mut out_ch = scaled(channels, width);
            if stage == 3 {
                out_ch = out_ch.max((num_classes / 2).min(128));
            }
            let stride = if b == 0 { first_stride } else { 1 };
            model.push(BasicBlock::new(in_ch, out_ch, stride, rng)?);
            let layer = model.len() - 1;
            sites.push(NoiseSite {
                site: Site {
                    layer,
                    slot: HookSlot::BlockConv1,
                },
                kind: SiteKind::Conv,
                label: label.to_string(),
            });
            sites.push(NoiseSite {
                site: Site {
                    layer,
                    slot: HookSlot::Output,
                },
                kind: SiteKind::Conv,
                label: (label + 1).to_string(),
            });
            sites.push(NoiseSite {
                site: Site {
                    layer,
                    slot: HookSlot::BlockShortcut,
                },
                kind: SiteKind::Shortcut,
                label: format!("{} (S)", label + 2),
            });
            label += 3;
            in_ch = out_ch;
        }
    }
    model.push(AvgPool2d::new(4, 4));
    model.push(Flatten::new());
    model.push(Linear::new(in_ch, num_classes, rng)?);
    Ok(ModelSpec {
        model,
        sites,
        name: "resnet18".to_string(),
        num_classes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mode;
    use ahw_tensor::rng::{normal, seeded};
    use ahw_tensor::Tensor;

    fn probe(spec: &mut ModelSpec, n: usize) -> Tensor {
        let x = normal(&[n, 3, 32, 32], 0.0, 1.0, &mut seeded(42));
        spec.model.forward(&x, Mode::Eval).unwrap()
    }

    #[test]
    fn vgg8_shapes_and_sites() {
        let mut spec = vgg8(10, 0.125, &mut seeded(1)).unwrap();
        let y = probe(&mut spec, 2);
        assert_eq!(y.dims(), &[2, 10]);
        // 6 convs + 3 pools = 9 sites
        assert_eq!(spec.sites.len(), 9);
        assert_eq!(
            spec.sites
                .iter()
                .filter(|s| s.kind == SiteKind::Pool)
                .count(),
            3
        );
    }

    #[test]
    fn vgg16_has_13_conv_sites() {
        let spec = vgg16(100, 0.125, &mut seeded(2)).unwrap();
        assert_eq!(
            spec.sites
                .iter()
                .filter(|s| s.kind == SiteKind::Conv)
                .count(),
            13
        );
        assert_eq!(spec.sites.len(), 18);
    }

    #[test]
    fn vgg19_site_labels_match_table1() {
        let mut spec = vgg19(10, 0.125, &mut seeded(3)).unwrap();
        // Table I: sites 0..=20 with P at 2, 5, 10, 15, 20
        assert_eq!(spec.sites.len(), 21);
        let pool_labels: Vec<&str> = spec
            .sites
            .iter()
            .filter(|s| s.kind == SiteKind::Pool)
            .map(|s| s.label.as_str())
            .collect();
        assert_eq!(
            pool_labels,
            vec!["2 (P)", "5 (P)", "10 (P)", "15 (P)", "20 (P)"]
        );
        let y = probe(&mut spec, 1);
        assert_eq!(y.dims(), &[1, 10]);
    }

    #[test]
    fn resnet18_site_labels_match_table2() {
        let mut spec = resnet18(10, 0.125, &mut seeded(4)).unwrap();
        assert_eq!(spec.sites.len(), 24);
        let shortcut_labels: Vec<&str> = spec
            .sites
            .iter()
            .filter(|s| s.kind == SiteKind::Shortcut)
            .map(|s| s.label.as_str())
            .collect();
        assert_eq!(shortcut_labels.len(), 8);
        assert_eq!(shortcut_labels[0], "2 (S)");
        assert_eq!(shortcut_labels[7], "23 (S)");
        let y = probe(&mut spec, 2);
        assert_eq!(y.dims(), &[2, 10]);
    }

    #[test]
    fn width_scales_parameter_count() {
        let mut narrow = vgg8(10, 0.0625, &mut seeded(5)).unwrap();
        let mut wide = vgg8(10, 0.25, &mut seeded(5)).unwrap();
        assert!(wide.model.param_count() > narrow.model.param_count() * 4);
    }

    #[test]
    fn all_sites_accept_hooks() {
        use crate::layer::ActivationHook;
        use std::sync::Arc;
        struct Identity;
        impl ActivationHook for Identity {
            fn apply(&self, x: &Tensor, _ws: &mut ahw_tensor::Workspace) -> Tensor {
                x.clone()
            }
        }
        for spec in [
            vgg8(10, 0.0625, &mut seeded(6)).unwrap(),
            resnet18(10, 0.0625, &mut seeded(7)).unwrap(),
        ] {
            let mut model = spec.model;
            for site in &spec.sites {
                model
                    .set_hook(site.site, Some(Arc::new(Identity)))
                    .unwrap_or_else(|e| panic!("site {:?}: {e}", site.site));
            }
        }
    }

    #[test]
    fn gradients_flow_to_input_through_resnet() {
        let mut spec = resnet18(10, 0.0625, &mut seeded(8)).unwrap();
        let x = normal(&[2, 3, 32, 32], 0.0, 1.0, &mut seeded(9));
        let (loss, dx) = spec.model.input_gradient(&x, &[1, 2]).unwrap();
        assert!(loss.is_finite());
        assert_eq!(dx.dims(), x.dims());
        assert!(dx.norm() > 0.0);
    }
}
