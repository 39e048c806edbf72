use crate::layer::{ActivationHook, HookCell, HookSlot, Layer, Mode};
use crate::layers::{BatchNorm2d, Conv2d, ReLU, ReluMask};
use crate::{NnError, Param};
use ahw_tensor::rng::Rng;
use ahw_tensor::{Tensor, Workspace};
use std::sync::Arc;

/// A ResNet basic block:
/// `y = relu( bn2(conv2(relu(bn1(conv1(x))))) + shortcut(x) )`.
///
/// The shortcut is the identity when shape is preserved, otherwise a
/// 1×1 strided convolution + batch-norm (the standard "option B" downsample).
///
/// Hook slots map to the paper's Table II sites:
/// [`HookSlot::BlockConv1`] after the first intra-block activation,
/// [`HookSlot::Output`] after the block's final activation, and
/// [`HookSlot::BlockShortcut`] on the shortcut branch (`S` columns).
#[derive(Clone)]
pub struct BasicBlock {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    relu1: ReLU,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    shortcut: Option<(Conv2d, BatchNorm2d)>,
    hook_conv1: HookCell,
    hook_shortcut: HookCell,
    hook_out: HookCell,
    /// the final activation and its mask cache
    relu_out: ReluMask,
    in_channels: usize,
    out_channels: usize,
    stride: usize,
}

impl std::fmt::Debug for BasicBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BasicBlock")
            .field("in_channels", &self.in_channels)
            .field("out_channels", &self.out_channels)
            .field("stride", &self.stride)
            .field("downsample", &self.shortcut.is_some())
            .finish_non_exhaustive()
    }
}

impl BasicBlock {
    /// Creates a basic block. A projection shortcut is inserted when
    /// `stride != 1` or the channel count changes.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for zero channels or stride.
    pub fn new<R: Rng>(
        in_channels: usize,
        out_channels: usize,
        stride: usize,
        rng: &mut R,
    ) -> Result<Self, NnError> {
        let conv1 = Conv2d::new(in_channels, out_channels, 3, stride, 1, rng)?;
        let conv2 = Conv2d::new(out_channels, out_channels, 3, 1, 1, rng)?;
        let shortcut = if stride != 1 || in_channels != out_channels {
            Some((
                Conv2d::new(in_channels, out_channels, 1, stride, 0, rng)?,
                BatchNorm2d::new(out_channels),
            ))
        } else {
            None
        };
        Ok(BasicBlock {
            conv1,
            bn1: BatchNorm2d::new(out_channels),
            relu1: ReLU::new(),
            conv2,
            bn2: BatchNorm2d::new(out_channels),
            shortcut,
            hook_conv1: HookCell::default(),
            hook_shortcut: HookCell::default(),
            hook_out: HookCell::default(),
            relu_out: ReluMask::default(),
            in_channels,
            out_channels,
            stride,
        })
    }

    /// Whether the block uses a projection (1×1 conv) shortcut.
    pub fn has_projection(&self) -> bool {
        self.shortcut.is_some()
    }
}

impl Layer for BasicBlock {
    fn forward_ws(
        &mut self,
        x: &Tensor,
        mode: Mode,
        ws: &mut Workspace,
    ) -> Result<Tensor, NnError> {
        let h = self.conv1.forward_ws(x, mode, ws)?;
        let h2 = self.bn1.forward_ws(&h, mode, ws)?;
        ws.recycle_tensor(h);
        let h3 = self.relu1.forward_ws(&h2, mode, ws)?;
        ws.recycle_tensor(h2);
        let h3 = self.hook_conv1.apply(h3, ws);
        let a1 = self.conv2.forward_ws(&h3, mode, ws)?;
        ws.recycle_tensor(h3);
        let a = self.bn2.forward_ws(&a1, mode, ws)?;
        ws.recycle_tensor(a1);
        let s = match &mut self.shortcut {
            Some((conv, bn)) => {
                let s1 = conv.forward_ws(x, mode, ws)?;
                let s2 = bn.forward_ws(&s1, mode, ws)?;
                ws.recycle_tensor(s1);
                s2
            }
            None => {
                let mut b = ws.take(x.len());
                b.copy_from_slice(x.as_slice());
                Tensor::from_vec(b, x.dims())?
            }
        };
        let s = self.hook_shortcut.apply(s, ws);
        // in-place `a += 1.0·s` matches `a.add(&s)` bit-for-bit
        let mut pre = a;
        pre.add_scaled(&s, 1.0)?;
        ws.recycle_tensor(s);
        let y = self.relu_out.forward(&pre, ws);
        ws.recycle_tensor(pre);
        Ok(self.hook_out.apply(y?, ws))
    }

    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Result<Tensor, NnError> {
        let dpre = self.relu_out.backward(grad_out, ws).map_err(|e| match e {
            NnError::NoForwardCache { .. } => NnError::NoForwardCache {
                layer: self.describe(),
            },
            e => e,
        })?;
        // main branch
        let da = self.bn2.backward_ws(&dpre, ws)?;
        let dh = self.conv2.backward_ws(&da, ws)?;
        ws.recycle_tensor(da);
        let dh2 = self.relu1.backward_ws(&dh, ws)?;
        ws.recycle_tensor(dh);
        let dh3 = self.bn1.backward_ws(&dh2, ws)?;
        ws.recycle_tensor(dh2);
        let mut dx_main = self.conv1.backward_ws(&dh3, ws)?;
        ws.recycle_tensor(dh3);
        // shortcut branch
        let dx_short = match &mut self.shortcut {
            Some((conv, bn)) => {
                let ds = bn.backward_ws(&dpre, ws)?;
                let d = conv.backward_ws(&ds, ws)?;
                ws.recycle_tensor(ds);
                ws.recycle_tensor(dpre);
                d
            }
            None => dpre,
        };
        // in-place `dx_main += 1.0·dx_short` matches `add` bit-for-bit
        dx_main.add_scaled(&dx_short, 1.0)?;
        ws.recycle_tensor(dx_short);
        Ok(dx_main)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv1.visit_params(f);
        self.bn1.visit_params(f);
        self.conv2.visit_params(f);
        self.bn2.visit_params(f);
        if let Some((conv, bn)) = &mut self.shortcut {
            conv.visit_params(f);
            bn.visit_params(f);
        }
    }

    fn visit_state(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Tensor)) {
        self.conv1.visit_state(&format!("{prefix}.conv1"), f);
        self.bn1.visit_state(&format!("{prefix}.bn1"), f);
        self.conv2.visit_state(&format!("{prefix}.conv2"), f);
        self.bn2.visit_state(&format!("{prefix}.bn2"), f);
        if let Some((conv, bn)) = &mut self.shortcut {
            conv.visit_state(&format!("{prefix}.shortcut.conv"), f);
            bn.visit_state(&format!("{prefix}.shortcut.bn"), f);
        }
    }

    fn set_hook(
        &mut self,
        slot: HookSlot,
        hook: Option<Arc<dyn ActivationHook>>,
    ) -> Result<(), NnError> {
        match slot {
            HookSlot::Output => self.hook_out.set(hook),
            HookSlot::BlockConv1 => self.hook_conv1.set(hook),
            HookSlot::BlockShortcut => self.hook_shortcut.set(hook),
        }
        Ok(())
    }

    fn describe(&self) -> String {
        format!(
            "basic_block({}->{}, s{}{})",
            self.in_channels,
            self.out_channels,
            self.stride,
            if self.shortcut.is_some() {
                ", proj"
            } else {
                ""
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahw_tensor::rng::{normal, seeded};

    #[test]
    fn identity_block_preserves_shape() {
        let mut rng = seeded(1);
        let mut block = BasicBlock::new(4, 4, 1, &mut rng).unwrap();
        assert!(!block.has_projection());
        let x = normal(&[2, 4, 8, 8], 0.0, 1.0, &mut rng);
        let y = block.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), x.dims());
    }

    #[test]
    fn downsample_block_halves_spatial() {
        let mut rng = seeded(2);
        let mut block = BasicBlock::new(4, 8, 2, &mut rng).unwrap();
        assert!(block.has_projection());
        let x = normal(&[1, 4, 8, 8], 0.0, 1.0, &mut rng);
        let y = block.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[1, 8, 4, 4]);
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = seeded(3);
        let mut block = BasicBlock::new(2, 2, 1, &mut rng).unwrap();
        let x = normal(&[1, 2, 4, 4], 0.0, 1.0, &mut rng);
        let dy = normal(&[1, 2, 4, 4], 0.0, 1.0, &mut rng);
        // eval mode so batch-norm is a fixed affine map
        block.forward(&x, Mode::Eval).unwrap();
        let dx = block.backward(&dy).unwrap();
        let eps = 1e-2;
        for idx in [0, 9, 17, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let lp: f32 = block
                .forward(&xp, Mode::Eval)
                .unwrap()
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            let lm: f32 = block
                .forward(&xm, Mode::Eval)
                .unwrap()
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - dx.as_slice()[idx]).abs() < 3e-2,
                "idx {idx}: {fd} vs {}",
                dx.as_slice()[idx]
            );
        }
    }

    #[test]
    fn backward_rejects_misshaped_grad() {
        let mut rng = seeded(6);
        let mut block = BasicBlock::new(2, 2, 1, &mut rng).unwrap();
        let mut ws = ahw_tensor::Workspace::new();
        let x = normal(&[2, 2, 4, 4], 0.0, 1.0, &mut rng);
        let y = block.forward_ws(&x, Mode::Eval, &mut ws).unwrap();
        ws.recycle_tensor(y);
        assert!(matches!(
            block.backward_ws(&Tensor::zeros(&[1, 2, 4, 4]), &mut ws),
            Err(NnError::Tensor(
                ahw_tensor::TensorError::ShapeMismatch { .. }
            ))
        ));
    }

    #[test]
    fn all_three_hook_slots_accepted() {
        struct Zero;
        impl ActivationHook for Zero {
            fn apply(&self, x: &Tensor, _ws: &mut Workspace) -> Tensor {
                Tensor::zeros(x.dims())
            }
        }
        let mut rng = seeded(4);
        let mut block = BasicBlock::new(2, 2, 1, &mut rng).unwrap();
        for slot in [
            HookSlot::BlockConv1,
            HookSlot::BlockShortcut,
            HookSlot::Output,
        ] {
            block.set_hook(slot, Some(Arc::new(Zero))).unwrap();
        }
        // output hook zeroes everything
        let x = normal(&[1, 2, 4, 4], 0.0, 1.0, &mut rng);
        let y = block.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.sum(), 0.0);
    }

    #[test]
    fn param_count_identity_vs_projection() {
        let mut rng = seeded(5);
        let mut ident = BasicBlock::new(4, 4, 1, &mut rng).unwrap();
        let mut proj = BasicBlock::new(4, 8, 2, &mut rng).unwrap();
        let count = |b: &mut BasicBlock| {
            let mut n = 0;
            b.visit_params(&mut |p| n += p.len());
            n
        };
        assert!(count(&mut proj) > count(&mut ident));
    }
}
