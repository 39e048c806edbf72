use crate::layer::{ActivationHook, HookSlot, Layer, Mode};
use crate::util::ErrCell;
use crate::{NnError, Param, PlanCache};
use ahw_tensor::{ops, pool, Tensor, Workspace};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Addresses one hook location in a [`Sequential`] model: the `layer`-th
/// top-level layer, at one of its [`HookSlot`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Site {
    /// Index into the model's top-level layer list.
    pub layer: usize,
    /// Slot within that layer.
    pub slot: HookSlot,
}

impl Site {
    /// The [`HookSlot::Output`] site of layer `layer`.
    pub fn output(layer: usize) -> Self {
        Site {
            layer,
            slot: HookSlot::Output,
        }
    }
}

/// An ordered stack of layers forming a network.
///
/// `Sequential` is the model type used throughout the workspace: the VGG
/// and ResNet builders produce one, the trainer optimizes one, attacks
/// differentiate through one, and the hardware substrates transform one
/// (by installing hooks or swapping layers for crossbar-mapped versions).
///
/// ```
/// use ahw_nn::{Sequential, Mode};
/// use ahw_nn::layers::{Linear, ReLU};
/// use ahw_tensor::{rng, Tensor};
///
/// # fn main() -> Result<(), ahw_nn::NnError> {
/// let mut rng = rng::seeded(0);
/// let mut model = Sequential::new();
/// model.push(Linear::new(4, 8, &mut rng)?);
/// model.push(ReLU::new());
/// model.push(Linear::new(8, 2, &mut rng)?);
/// let logits = model.forward(&Tensor::zeros(&[1, 4]), Mode::Eval)?;
/// assert_eq!(logits.dims(), &[1, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let descriptions: Vec<String> = self.layers.iter().map(|l| l.describe()).collect();
        f.debug_struct("Sequential")
            .field("layers", &descriptions)
            .finish()
    }
}

impl Sequential {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer.
    pub fn push<L: Layer + 'static>(&mut self, layer: L) {
        self.layers.push(Box::new(layer));
    }

    /// Appends an already-boxed layer.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of top-level layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Borrow of the `i`-th layer.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn layer(&self, i: usize) -> &dyn Layer {
        self.layers[i].as_ref()
    }

    /// Mutable borrow of the `i`-th layer.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn layer_mut(&mut self, i: usize) -> &mut Box<dyn Layer> {
        &mut self.layers[i]
    }

    /// Splits the model at top-level index `at`: `self` keeps layers
    /// `0..at` and the returned model holds layers `at..`, hooks included.
    /// A forward pass is a plain loop over the layers, so running the two
    /// halves one after the other gives the whole model's outputs bit for
    /// bit.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSite`] if `at` is past the end; `self` is
    /// then unchanged.
    pub fn split_off(&mut self, at: usize) -> Result<Sequential, NnError> {
        if at > self.layers.len() {
            return Err(NnError::InvalidSite(format!(
                "split index {at} out of range ({} layers)",
                self.layers.len()
            )));
        }
        Ok(Sequential {
            layers: self.layers.split_off(at),
        })
    }

    /// Caching forward pass through every layer:
    /// [`forward_ws`](Sequential::forward_ws) over a throwaway arena.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error.
    pub fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor, NnError> {
        self.forward_ws(x, mode, &mut Workspace::new())
    }

    /// Backward pass returning `dL/dinput`:
    /// [`backward_ws`](Sequential::backward_ws) over a throwaway arena.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardCache`] if [`forward`](Sequential::forward)
    /// did not precede.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        self.backward_ws(grad_out.clone(), &mut Workspace::new())
    }

    /// Workspace-backed forward pass: every intermediate activation is
    /// drawn from `ws` and recycled as soon as the next layer consumes it.
    /// The returned tensor's storage also comes from `ws` — recycle it
    /// when done to keep the steady state allocation-free.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error.
    pub fn forward_ws(
        &mut self,
        x: &Tensor,
        mode: Mode,
        ws: &mut Workspace,
    ) -> Result<Tensor, NnError> {
        let mut cur: Option<Tensor> = None;
        for layer in &mut self.layers {
            let next = match &cur {
                Some(t) => layer.forward_ws(t, mode, ws)?,
                None => layer.forward_ws(x, mode, ws)?,
            };
            if let Some(prev) = cur.take() {
                ws.recycle_tensor(prev);
            }
            cur = Some(next);
        }
        match cur {
            Some(t) => Ok(t),
            None => Ok(x.clone()),
        }
    }

    /// Workspace-backed backward pass. Takes `grad_out` by value so its
    /// storage (typically a workspace buffer) can be recycled once the
    /// last layer consumes it; the returned gradient's storage comes
    /// from `ws`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardCache`] if a forward pass did not
    /// precede.
    pub fn backward_ws(&mut self, grad_out: Tensor, ws: &mut Workspace) -> Result<Tensor, NnError> {
        let mut cur = grad_out;
        for layer in self.layers.iter_mut().rev() {
            let next = layer.backward_ws(&cur, ws)?;
            ws.recycle_tensor(cur);
            cur = next;
        }
        Ok(cur)
    }

    /// Caching forward pass through the plan cache's arena. Notes the
    /// batch geometry for the plan-hit telemetry and reuses all scratch
    /// buffers parked by earlier runs at the same geometry.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error.
    pub fn forward_planned(
        &mut self,
        x: &Tensor,
        mode: Mode,
        cache: &mut PlanCache,
    ) -> Result<Tensor, NnError> {
        cache.note(x.dims());
        self.forward_ws(x, mode, cache.workspace())
    }

    /// Predicted class index per row, running through the plan cache's
    /// arena (eval mode); allocation-free in the steady state apart from
    /// the returned vector.
    ///
    /// # Errors
    ///
    /// Propagates layer errors.
    pub fn predict_planned(
        &mut self,
        x: &Tensor,
        cache: &mut PlanCache,
    ) -> Result<Vec<usize>, NnError> {
        let logits = self.forward_planned(x, Mode::Eval, cache)?;
        let preds = logits
            .as_slice()
            .chunks(logits.dims()[1])
            .map(argmax)
            .collect();
        cache.workspace().recycle_tensor(logits);
        Ok(preds)
    }

    /// Mean cross-entropy loss and the gradient of the loss with respect to
    /// the *input*, computed in [`Mode::Eval`], so no parameter gradient is
    /// touched — this is the attack primitive (`∇ₓ L(θ, x, y)`) of a frozen
    /// model. Every activation, gradient, and conv scratch buffer comes from
    /// the plan cache's arena; the returned gradient's storage is
    /// workspace-backed — recycle it into `cache.workspace()` when finished
    /// with it.
    ///
    /// # Errors
    ///
    /// Propagates layer and loss errors.
    pub fn input_gradient_planned(
        &mut self,
        x: &Tensor,
        labels: &[usize],
        cache: &mut PlanCache,
    ) -> Result<(f32, Tensor), NnError> {
        cache.note(x.dims());
        let ws = cache.workspace();
        let logits = self.forward_ws(x, Mode::Eval, ws)?;
        let loss_grad = cross_entropy_ws(&logits, labels, ws);
        ws.recycle_tensor(logits);
        let (loss, dlogits) = loss_grad?;
        let dx = self.backward_ws(dlogits, ws)?;
        Ok((loss, dx))
    }

    /// Visits every trainable parameter of every layer.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    /// Visits every persistent tensor with a hierarchical name.
    pub fn visit_state(&mut self, f: &mut dyn FnMut(&str, &mut Tensor)) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            layer.visit_state(&format!("layers.{i}"), f);
        }
    }

    /// Visits every conv/linear weight matrix — the rank-2 `.weight`
    /// tensors of [`visit_state`](Sequential::visit_state), `BasicBlock`
    /// convolutions and shortcuts included — in `visit_state` order, with
    /// the index of the top-level layer that owns it. This is the one place
    /// that decides which tensors are weight matrices. Stops at, and
    /// returns, the first error `f` returns.
    ///
    /// # Errors
    ///
    /// Returns the first error of `f`.
    pub fn visit_weights<E>(
        &mut self,
        mut f: impl FnMut(usize, &mut Tensor) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut result = Ok(());
        for (i, layer) in self.layers.iter_mut().enumerate() {
            // only the `.weight` suffix matters here, so no prefix is built
            layer.visit_state("", &mut |name, t| {
                if result.is_ok() && name.ends_with(".weight") && t.rank() == 2 {
                    result = f(i, t);
                }
            });
        }
        result
    }

    /// Total number of trainable scalar parameters.
    pub fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }

    /// Zeroes every accumulated gradient.
    pub fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Installs (or clears, with `None`) an activation hook at `site`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSite`] if the site does not exist.
    pub fn set_hook(
        &mut self,
        site: Site,
        hook: Option<Arc<dyn ActivationHook>>,
    ) -> Result<(), NnError> {
        let layer = self.layers.get_mut(site.layer).ok_or_else(|| {
            NnError::InvalidSite(format!("layer index {} out of range", site.layer))
        })?;
        layer.set_hook(site.slot, hook)
    }

    /// A human-readable architecture summary: one line per layer with its
    /// description and parameter count, plus a total.
    ///
    /// ```
    /// use ahw_nn::{Sequential, layers::Linear};
    /// use ahw_tensor::rng;
    ///
    /// # fn main() -> Result<(), ahw_nn::NnError> {
    /// let mut m = Sequential::new();
    /// m.push(Linear::new(4, 2, &mut rng::seeded(0))?);
    /// assert!(m.summary().contains("linear(4->2)"));
    /// assert!(m.summary().contains("total: 10 parameters"));
    /// # Ok(())
    /// # }
    /// ```
    pub fn summary(&mut self) -> String {
        let mut out = String::new();
        let mut total = 0usize;
        for i in 0..self.layers.len() {
            let mut count = 0usize;
            self.layers[i].visit_params(&mut |p| count += p.len());
            out.push_str(&format!(
                "{i:>3}  {:<40} {:>10}\n",
                self.layers[i].describe(),
                count
            ));
            total += count;
        }
        out.push_str(&format!("total: {total} parameters\n"));
        out
    }

    /// [`input_gradient_planned`](Sequential::input_gradient_planned)
    /// through a fresh plan cache.
    ///
    /// # Errors
    ///
    /// Propagates layer and loss errors.
    pub fn input_gradient(
        &mut self,
        x: &Tensor,
        labels: &[usize],
    ) -> Result<(f32, Tensor), NnError> {
        self.input_gradient_planned(x, labels, &mut PlanCache::new())
    }

    /// Predicted class index for every row of a batch (eval mode):
    /// [`predict_planned`](Sequential::predict_planned) through a fresh plan
    /// cache.
    ///
    /// # Errors
    ///
    /// Propagates layer errors.
    pub fn predict(&mut self, x: &Tensor) -> Result<Vec<usize>, NnError> {
        self.predict_planned(x, &mut PlanCache::new())
    }

    /// Classification accuracy over `(images, labels)`, evaluated in
    /// parallel chunks of `batch` items.
    ///
    /// # Errors
    ///
    /// Propagates the layer error of the first failing chunk; returns
    /// [`NnError::BadConfig`] if lengths disagree or `batch` is zero.
    pub fn accuracy(
        &self,
        images: &Tensor,
        labels: &[usize],
        batch: usize,
    ) -> Result<f32, NnError> {
        if batch == 0 {
            return Err(NnError::BadConfig("batch must be non-zero".into()));
        }
        let n = images.dims()[0];
        if labels.len() != n {
            return Err(NnError::BadConfig(format!(
                "{} labels for {} images",
                labels.len(),
                n
            )));
        }
        if n == 0 {
            return Ok(0.0);
        }
        let item = images.len() / n;
        let chunks: Vec<(usize, usize)> = (0..n)
            .step_by(batch)
            .map(|lo| (lo, (lo + batch).min(n)))
            .collect();
        let xv = images.as_slice();
        let dims = images.dims();
        // integer counts commute, so any chunk schedule gives the same total;
        // each pool range predicts through its own model clone and arena
        let correct = AtomicUsize::new(0);
        let err = ErrCell::<NnError>::new();
        pool::parallel_for_ranges(chunks.len(), 1, |r| {
            let mut model = self.clone();
            let mut plan = PlanCache::new();
            for ci in r {
                let (lo, hi) = chunks[ci];
                err.run(ci, || {
                    let mut bd = dims.to_vec();
                    bd[0] = hi - lo;
                    let mut xbuf = plan.workspace().take((hi - lo) * item);
                    xbuf.copy_from_slice(&xv[lo * item..hi * item]);
                    let xb = Tensor::from_vec(xbuf, &bd)?;
                    let preds = model.predict_planned(&xb, &mut plan);
                    plan.workspace().recycle_tensor(xb);
                    let c = preds?
                        .iter()
                        .zip(&labels[lo..hi])
                        .filter(|(p, l)| p == l)
                        .count();
                    correct.fetch_add(c, Ordering::Relaxed);
                    Ok(())
                });
            }
        });
        err.into_result()?;
        Ok(correct.into_inner() as f32 / n as f32)
    }
}

/// Index of the first maximum of `row` (0 for an all-NaN or empty row).
pub(crate) fn argmax(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        .fold((0usize, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
            if v > bv {
                (i, v)
            } else {
                (bi, bv)
            }
        })
        .0
}

/// Mean cross-entropy of rank-2 `logits` against `labels` and its gradient
/// with respect to the logits, the gradient in a `ws` buffer.
pub(crate) fn cross_entropy_ws(
    logits: &Tensor,
    labels: &[usize],
    ws: &mut Workspace,
) -> Result<(f32, Tensor), NnError> {
    if logits.rank() != 2 {
        return Err(NnError::Tensor(ahw_tensor::TensorError::RankMismatch {
            op: "cross_entropy",
            expected: 2,
            actual: logits.rank(),
        }));
    }
    let mut grad = ws.take(logits.len());
    match ops::cross_entropy_with_grad_slices(
        logits.as_slice(),
        labels,
        logits.dims()[1],
        &mut grad,
    ) {
        Ok(loss) => Ok((loss, Tensor::from_vec(grad, logits.dims())?)),
        Err(e) => {
            ws.recycle(grad);
            Err(e.into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, ReLU};
    use ahw_tensor::rng::{normal, seeded};

    fn tiny_model(seed: u64) -> Sequential {
        let mut rng = seeded(seed);
        let mut m = Sequential::new();
        m.push(Linear::new(3, 8, &mut rng).unwrap());
        m.push(ReLU::new());
        m.push(Linear::new(8, 2, &mut rng).unwrap());
        m
    }

    #[test]
    fn forward_chains_layers() {
        let mut m = tiny_model(1);
        let y = m.forward(&Tensor::zeros(&[4, 3]), Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[4, 2]);
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut m = tiny_model(2);
        let x = normal(&[2, 3], 0.0, 1.0, &mut seeded(3));
        let labels = [0usize, 1];
        let (_, dx) = m.input_gradient(&x, &labels).unwrap();
        let eps = 1e-3;
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let lp = {
                let logits = m.forward(&xp, Mode::Eval).unwrap();
                ops::cross_entropy_with_grad(&logits, &labels).unwrap().0
            };
            let lm = {
                let logits = m.forward(&xm, Mode::Eval).unwrap();
                ops::cross_entropy_with_grad(&logits, &labels).unwrap().0
            };
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - dx.as_slice()[idx]).abs() < 1e-2,
                "idx {idx}: {fd} vs {}",
                dx.as_slice()[idx]
            );
        }
    }

    #[test]
    fn input_gradient_leaves_param_grads_untouched() {
        use crate::layers::{BatchNorm2d, Conv2d, Flatten};
        use crate::BasicBlock;
        let mut rng = seeded(40);
        let mut bn = Sequential::new();
        bn.push(Conv2d::new(2, 4, 3, 1, 1, &mut rng).unwrap());
        bn.push(BatchNorm2d::new(4));
        bn.push(ReLU::new());
        bn.push(Flatten::new());
        bn.push(Linear::new(4 * 4 * 4, 3, &mut rng).unwrap());
        let mut res = Sequential::new();
        res.push(BasicBlock::new(2, 4, 2, &mut rng).unwrap());
        res.push(Flatten::new());
        res.push(Linear::new(4 * 2 * 2, 3, &mut rng).unwrap());
        let x = normal(&[2, 2, 4, 4], 0.0, 1.0, &mut seeded(41));
        let cases = [
            (tiny_model(4), normal(&[2, 3], 0.0, 1.0, &mut seeded(5))),
            (bn, x.clone()),
            (res, x),
        ];
        for (i, (mut m, x)) in cases.into_iter().enumerate() {
            let (_, dx) = m.input_gradient(&x, &[0, 1]).unwrap();
            assert_ne!(dx.norm(), 0.0, "case {i}: no input gradient");
            m.visit_params(&mut |p| {
                assert!(
                    p.grad.as_slice().iter().all(|&g| g == 0.0),
                    "case {i}: a {:?} gradient moved",
                    p.value.dims()
                );
            });
        }
    }

    #[test]
    fn predict_and_accuracy_agree() {
        let mut m = tiny_model(6);
        let x = normal(&[10, 3], 0.0, 1.0, &mut seeded(7));
        let preds = m.predict(&x).unwrap();
        let acc = m.accuracy(&x, &preds, 3).unwrap();
        assert_eq!(acc, 1.0);
    }

    #[test]
    fn accuracy_validates_arguments() {
        let m = tiny_model(8);
        let x = Tensor::zeros(&[2, 3]);
        assert!(m.accuracy(&x, &[0], 4).is_err());
        assert!(m.accuracy(&x, &[0, 1], 0).is_err());
    }

    #[test]
    fn set_hook_rejects_bad_site() {
        let mut m = tiny_model(9);
        assert!(m.set_hook(Site::output(99), None).is_err());
        assert!(m
            .set_hook(
                Site {
                    layer: 0,
                    slot: HookSlot::BlockConv1
                },
                None
            )
            .is_err());
        assert!(m.set_hook(Site::output(1), None).is_ok());
    }

    #[test]
    fn split_halves_chain_to_the_whole_forward() {
        use crate::layer::ActivationHook;
        use crate::layers::{BatchNorm2d, Conv2d, Flatten, MaxPool2d};
        use crate::BasicBlock;
        struct Negate;
        impl ActivationHook for Negate {
            fn apply(&self, x: &Tensor, _ws: &mut Workspace) -> Tensor {
                x.scale(-1.0)
            }
        }
        let mut rng = seeded(70);
        let mut m = Sequential::new();
        m.push(Conv2d::new(2, 4, 3, 1, 1, &mut rng).unwrap());
        m.push(BatchNorm2d::new(4));
        m.push(ReLU::new());
        m.push(BasicBlock::new(4, 4, 2, &mut rng).unwrap());
        m.push(MaxPool2d::new(2, 2));
        m.push(Flatten::new());
        m.push(Linear::new(4 * 2 * 2, 3, &mut rng).unwrap());
        for site in [
            Site::output(2),
            Site {
                layer: 3,
                slot: HookSlot::BlockConv1,
            },
            Site {
                layer: 3,
                slot: HookSlot::BlockShortcut,
            },
            Site::output(4),
        ] {
            m.set_hook(site, Some(Arc::new(Negate))).unwrap();
        }
        let x = normal(&[3, 2, 8, 8], 0.0, 1.0, &mut seeded(71));
        let bits = |t: &Tensor| -> Vec<u32> { t.as_slice().iter().map(|v| v.to_bits()).collect() };
        let whole = m.forward(&x, Mode::Eval).unwrap();
        for at in 0..=m.len() {
            let mut head = m.clone();
            let mut tail = head.split_off(at).unwrap();
            assert_eq!((head.len(), tail.len()), (at, m.len() - at));
            let mid = head.forward(&x, Mode::Eval).unwrap();
            let out = tail.forward(&mid, Mode::Eval).unwrap();
            assert_eq!(out.dims(), whole.dims(), "split at {at}");
            assert_eq!(bits(&out), bits(&whole), "split at {at}");
        }
        let mut past = m.clone();
        assert!(matches!(
            past.split_off(m.len() + 1),
            Err(NnError::InvalidSite(_))
        ));
        assert_eq!(past.len(), m.len(), "a failed split keeps every layer");
    }

    #[test]
    fn param_count_is_sum_of_layers() {
        let mut m = tiny_model(10);
        assert_eq!(m.param_count(), 3 * 8 + 8 + 8 * 2 + 2);
    }

    #[test]
    fn clone_is_deep() {
        let mut m = tiny_model(11);
        let mut c = m.clone();
        let x = normal(&[1, 3], 0.0, 1.0, &mut seeded(12));
        // mutate original's params
        m.visit_params(&mut |p| p.value.map_in_place(|v| v + 1.0));
        let ym = m.forward(&x, Mode::Eval).unwrap();
        let yc = c.forward(&x, Mode::Eval).unwrap();
        assert_ne!(ym, yc);
    }

    #[test]
    fn weight_walk_visits_the_weight_matrices_of_visit_state() {
        let mut rng = seeded(50);
        let specs = [
            crate::archs::vgg8(10, 0.0625, &mut rng).unwrap(),
            crate::archs::resnet18(10, 0.0625, &mut rng).unwrap(),
        ];
        for (arch, mut spec) in ["vgg8", "resnet18"].into_iter().zip(specs) {
            let mut names = Vec::new();
            let mut expected = Vec::new();
            spec.model.visit_state(&mut |name, t| {
                if name.ends_with(".weight") && t.rank() == 2 {
                    let layer: usize = name.split('.').nth(1).unwrap().parse().unwrap();
                    names.push(name.to_string());
                    expected.push((layer, t.as_slice().as_ptr()));
                }
            });
            let mut walked = Vec::new();
            spec.model
                .visit_weights(|layer, t| {
                    walked.push((layer, t.as_slice().as_ptr()));
                    Ok::<_, NnError>(())
                })
                .unwrap();
            assert_eq!(walked, expected, "{arch}");
            let shortcuts = names.iter().filter(|n| n.contains(".shortcut.")).count();
            assert_eq!(shortcuts > 0, arch == "resnet18", "{arch}: {names:?}");
            // the first error stops the walk and is returned
            let mut calls = 0;
            let stopped = spec.model.visit_weights(|_, _| {
                calls += 1;
                if calls == 2 {
                    Err(calls)
                } else {
                    Ok(())
                }
            });
            assert_eq!((stopped, calls), (Err(2), 2), "{arch}");
        }
    }

    fn conv_model(seed: u64) -> Sequential {
        use crate::layers::{Conv2d, Flatten, MaxPool2d};
        let mut rng = seeded(seed);
        let mut m = Sequential::new();
        m.push(Conv2d::new(2, 4, 3, 1, 1, &mut rng).unwrap());
        m.push(ReLU::new());
        m.push(MaxPool2d::new(2, 2));
        m.push(Flatten::new());
        m.push(Linear::new(4 * 3 * 3, 3, &mut rng).unwrap());
        m
    }

    #[test]
    fn planned_rounds_on_recycled_buffers_are_bit_identical() {
        // later rounds run entirely on buffers earlier rounds recycled, so a
        // read of stale arena contents would change the bits
        let mut m = conv_model(20);
        let mut cache = PlanCache::new();
        let labels = [0usize, 2, 1, 0];
        let x = normal(&[4, 2, 6, 6], 0.0, 1.0, &mut seeded(30));
        let bits = |t: &Tensor| -> Vec<u32> { t.as_slice().iter().map(|v| v.to_bits()).collect() };
        let (l0, g0) = m.input_gradient(&x, &labels).unwrap();
        let p0 = m.predict(&x).unwrap();
        for round in 0..3 {
            let (l, g) = m.input_gradient_planned(&x, &labels, &mut cache).unwrap();
            assert_eq!(l.to_bits(), l0.to_bits(), "round {round}: loss differs");
            assert_eq!(bits(&g), bits(&g0), "round {round}: grad differs");
            cache.workspace().recycle_tensor(g);
            assert_eq!(m.predict_planned(&x, &mut cache).unwrap(), p0);
        }
        // one geometry, so every round after the first was a plan-cache hit
        assert_eq!(cache.compiled_geometries(), 1);
    }

    #[test]
    fn eval_forward_leaves_no_buffer_outstanding() {
        use crate::layers::{BatchNorm2d, Conv2d, Flatten, MaxPool2d};
        use crate::BasicBlock;
        let mut rng = seeded(60);
        let mut bn = Sequential::new();
        bn.push(Conv2d::new(2, 4, 3, 1, 1, &mut rng).unwrap());
        bn.push(BatchNorm2d::new(4));
        bn.push(ReLU::new());
        bn.push(MaxPool2d::new(2, 2));
        bn.push(Flatten::new());
        bn.push(Linear::new(4 * 2 * 2, 3, &mut rng).unwrap());
        // a projection block and an identity block
        let mut res = Sequential::new();
        res.push(BasicBlock::new(2, 4, 2, &mut rng).unwrap());
        res.push(BasicBlock::new(4, 4, 1, &mut rng).unwrap());
        res.push(Flatten::new());
        res.push(Linear::new(4 * 2 * 2, 3, &mut rng).unwrap());
        let x = normal(&[3, 2, 4, 4], 0.0, 1.0, &mut seeded(61));
        for (name, mut m) in [("conv-bn", bn), ("residual", res)] {
            let mut cache = PlanCache::new();
            m.predict_planned(&x, &mut cache).unwrap();
            assert_eq!(cache.workspace().outstanding(), 0, "{name}");
        }
    }

    #[test]
    fn planned_steady_state_leaves_no_outstanding_buffers() {
        let mut m = conv_model(23);
        let mut cache = PlanCache::new();
        let x = normal(&[3, 2, 6, 6], 0.0, 1.0, &mut seeded(24));
        let labels = [1usize, 0, 2];
        for _ in 0..2 {
            let (_, g) = m.input_gradient_planned(&x, &labels, &mut cache).unwrap();
            cache.workspace().recycle_tensor(g);
        }
        assert_eq!(cache.workspace().outstanding(), 0);
    }
}
