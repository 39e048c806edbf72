use crate::{NnError, Param};
use ahw_tensor::{Tensor, Workspace};
use std::sync::Arc;

/// How a forward pass runs, and so what the backward after it computes.
///
/// `Train` normalizes batch norm with batch statistics (updating the running
/// estimates), and the following backward accumulates every parameter
/// gradient as well as returning `dL/dx`. `Eval` uses the running
/// statistics, and the following backward computes only `dL/dx`, touching no
/// parameter gradient. Adversarial-attack gradients are taken in `Eval`
/// mode, matching how the deployed (hardware) network behaves; the mode is
/// the only switch for parameter gradients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Batch statistics; running stats are updated; the backward
    /// accumulates parameter gradients.
    Train,
    /// Running statistics; nothing is updated, not even by the backward.
    #[default]
    Eval,
}

/// An inference-time transform applied to a layer's output activations.
///
/// This is the seam where hardware noise enters a network: the hybrid 8T-6T
/// SRAM substrate implements `ActivationHook` with stochastic bit-error
/// injection, and the defense baselines implement it with deterministic
/// quantization. Hooks are applied during *forward* passes only; `backward`
/// treats them as identity (straight-through), matching the paper's protocol
/// of excluding bit-error noise from the attacker's gradient computation.
pub trait ActivationHook: Send + Sync {
    /// Transforms an activation tensor. Scratch and output buffers may be
    /// checked out of `ws`; the returned tensor's storage then belongs to
    /// the caller, which recycles it downstream, so a hooked shape-stable
    /// loop stays allocation-free in steady state.
    fn apply(&self, x: &Tensor, ws: &mut Workspace) -> Tensor;

    /// Human-readable description for experiment logs.
    fn describe(&self) -> String {
        "hook".to_string()
    }
}

/// A hook slot within a layer. Plain layers only expose [`HookSlot::Output`];
/// residual blocks additionally expose their first convolution's activation
/// and the shortcut path (the `S` sites of the paper's Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HookSlot {
    /// The layer's (or block's) final output.
    Output,
    /// After the first convolution + activation inside a residual block.
    BlockConv1,
    /// After the shortcut branch inside a residual block.
    BlockShortcut,
}

/// One hook slot: the installed [`ActivationHook`], if any. Plain layers
/// keep their [`HookSlot::Output`] slot in one and hand it out through
/// [`Layer::output_hook`].
#[derive(Clone, Default)]
pub struct HookCell(Option<Arc<dyn ActivationHook>>);

impl HookCell {
    /// Installs (or clears, with `None`) the hook.
    pub fn set(&mut self, hook: Option<Arc<dyn ActivationHook>>) {
        self.0 = hook;
    }

    /// Applies the hook to an owned activation, or passes it through when
    /// the slot is empty. The hook draws its output from `ws` and the
    /// pre-hook tensor (itself a `ws` buffer) is recycled, so a hooked
    /// forward keeps the zero-alloc steady state.
    pub fn apply(&self, x: Tensor, ws: &mut Workspace) -> Tensor {
        match &self.0 {
            Some(h) => {
                let y = h.apply(&x, ws);
                ws.recycle_tensor(x);
                y
            }
            None => x,
        }
    }
}

/// Boxed cloning for layers, provided for every `Layer + Clone` type.
pub trait CloneLayer {
    /// Clones the layer into a boxed trait object.
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl<L: Layer + Clone + 'static> CloneLayer for L {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// A differentiable network component.
///
/// Every layer has exactly one implementation: the arena-backed
/// [`forward_ws`](Layer::forward_ws) / [`backward_ws`](Layer::backward_ws)
/// pair. Outputs, gradients and scratch come from the caller's
/// [`Workspace`], so a shape-stable loop reuses the same buffers on every
/// call.
///
/// The forward's [`Mode`] decides what the backward computes: after a
/// `Train` forward it also accumulates parameter gradients, after an `Eval`
/// forward it leaves them untouched. There is no other switch.
///
/// A forward keeps only what its backward reads; `backward_ws` consumes
/// it, returns `dL/dinput` and recycles any arena buffer it held into
/// `ws`. Only parameter gradients read activations, so an `Eval` forward
/// leaves no arena buffer behind:
///
/// | layer | kept after `Eval` | also kept after `Train` |
/// |---|---|---|
/// | `Conv2d` | geometry, batch size | im2col panels (arena) |
/// | `Linear` | nothing | input copy (arena) |
/// | `BatchNorm2d` | input shape | x̂ (arena), batch 1/σ |
/// | `ReLU` | sign mask, shape | — |
/// | `MaxPool2d` | argmax indices, input shape | — |
/// | `AvgPool2d`, `Flatten` | input shape | — |
///
/// A `BasicBlock` keeps what its layers keep plus its closing ReLU's mask.
/// The mask and index vectors belong to the layer and every forward
/// re-fills them in place, so a steady-state loop reallocates neither. An
/// `Eval` batch-norm backward re-derives γ/σ from the running variance,
/// which no `Eval` forward changes.
///
/// [`forward`](Layer::forward) and [`backward`](Layer::backward) are the
/// same code over a throwaway arena, for one-off calls and tests.
pub trait Layer: CloneLayer + Send + Sync {
    /// Forward pass that keeps what a following
    /// [`backward_ws`](Layer::backward_ws) reads, and nothing else (see the
    /// trait docs). The returned tensor's storage comes from `ws`; recycle
    /// it when done to keep the loop allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] if the input shape is incompatible.
    fn forward_ws(&mut self, x: &Tensor, mode: Mode, ws: &mut Workspace)
        -> Result<Tensor, NnError>;

    /// Backward pass: consumes the cache from the last
    /// [`forward_ws`](Layer::forward_ws), accumulates parameter gradients if
    /// that forward ran in [`Mode::Train`], and returns `dL/dinput` in a
    /// `ws` buffer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardCache`] if no forward pass preceded, or
    /// a shape mismatch if `grad_out` does not match the forward's output.
    fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Result<Tensor, NnError>;

    /// [`forward_ws`](Layer::forward_ws) over a throwaway arena.
    ///
    /// # Errors
    ///
    /// As [`forward_ws`](Layer::forward_ws).
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor, NnError> {
        self.forward_ws(x, mode, &mut Workspace::new())
    }

    /// [`backward_ws`](Layer::backward_ws) over a throwaway arena.
    ///
    /// # Errors
    ///
    /// As [`backward_ws`](Layer::backward_ws).
    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        self.backward_ws(grad_out, &mut Workspace::new())
    }

    /// Visits every trainable parameter.
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    /// Visits every persistent tensor (parameters *and* buffers such as
    /// batch-norm running statistics) with a name under `prefix`, for
    /// checkpointing.
    fn visit_state(&mut self, _prefix: &str, _f: &mut dyn FnMut(&str, &mut Tensor)) {}

    /// The layer's [`HookSlot::Output`] slot, or `None` for a layer
    /// without one.
    fn output_hook(&mut self) -> Option<&mut HookCell> {
        None
    }

    /// Installs (or clears) an activation hook. The provided body serves
    /// the [`output_hook`](Layer::output_hook) slot.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSite`] if the layer does not have `slot`.
    fn set_hook(
        &mut self,
        slot: HookSlot,
        hook: Option<Arc<dyn ActivationHook>>,
    ) -> Result<(), NnError> {
        match (slot, self.output_hook()) {
            (HookSlot::Output, Some(cell)) => {
                cell.set(hook);
                Ok(())
            }
            _ => Err(NnError::InvalidSite(format!(
                "{} has no hook slot {slot:?}",
                self.describe()
            ))),
        }
    }

    /// Short human-readable description (e.g. `conv2d(16->32,k3,s1,p1)`).
    fn describe(&self) -> String;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The shape-mismatch error a backward pass returns for a `grad_out` that
/// does not match the forward's output.
pub(crate) fn grad_shape_error(op: &'static str, grad_out: &Tensor, expected: &[usize]) -> NnError {
    NnError::Tensor(ahw_tensor::TensorError::ShapeMismatch {
        op,
        lhs: grad_out.dims().to_vec(),
        rhs: expected.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Doubler;
    impl ActivationHook for Doubler {
        fn apply(&self, x: &Tensor, _ws: &mut Workspace) -> Tensor {
            x.scale(2.0)
        }
    }

    #[test]
    fn empty_hook_cell_is_identity() {
        let x = Tensor::from_slice(&[1.0, 2.0]);
        let mut ws = Workspace::new();
        assert_eq!(HookCell::default().apply(x.clone(), &mut ws), x);
        assert_eq!(
            ws.resident_bytes(),
            0,
            "unhooked input must not be recycled"
        );
    }

    #[test]
    fn hook_cell_invokes_transform_and_recycles_input() {
        let mut cell = HookCell::default();
        cell.set(Some(Arc::new(Doubler)));
        let x = Tensor::from_slice(&[1.0, 2.0]);
        let mut ws = Workspace::new();
        let y = cell.apply(x, &mut ws);
        assert_eq!(y.as_slice(), &[2.0, 4.0]);
        assert_eq!(ws.resident_bytes(), 8, "pre-hook tensor not recycled");
    }

    #[test]
    fn default_mode_is_eval() {
        assert_eq!(Mode::default(), Mode::Eval);
    }
}
