//! Model checkpointing on top of [`ahw_tensor::io`] bundles.

use crate::{NnError, Sequential};
use ahw_tensor::{io as tio, Tensor};
use std::path::Path;

/// Saves every persistent tensor of `model` (parameters and buffers such as
/// batch-norm running statistics) to `path`.
///
/// # Errors
///
/// Returns [`NnError::Tensor`] on filesystem failure.
pub fn save_model<P: AsRef<Path>>(model: &mut Sequential, path: P) -> Result<(), NnError> {
    let mut entries: Vec<(String, Tensor)> = Vec::new();
    model.visit_state(&mut |name, tensor| entries.push((name.to_string(), tensor.clone())));
    tio::save_bundle(path, &entries)?;
    Ok(())
}

/// Loads a checkpoint produced by [`save_model`] into an architecturally
/// identical model (same layers in the same order).
///
/// # Errors
///
/// Returns [`NnError::CheckpointMismatch`] if names, count or shapes differ
/// from what the model expects, and [`NnError::Tensor`] on I/O failure.
pub fn load_model<P: AsRef<Path>>(model: &mut Sequential, path: P) -> Result<(), NnError> {
    let entries = tio::load_bundle(path)?;
    let mut idx = 0usize;
    let mut error: Option<NnError> = None;
    model.visit_state(&mut |name, tensor| {
        if error.is_some() {
            return;
        }
        match entries.get(idx) {
            None => {
                error = Some(NnError::CheckpointMismatch(format!(
                    "checkpoint has {} tensors but model wants more (at {name})",
                    entries.len()
                )));
            }
            Some((ename, etensor)) => {
                if ename != name {
                    error = Some(NnError::CheckpointMismatch(format!(
                        "entry {idx}: checkpoint has {ename}, model wants {name}"
                    )));
                } else if etensor.dims() != tensor.dims() {
                    error = Some(NnError::CheckpointMismatch(format!(
                        "{name}: checkpoint shape {:?} vs model shape {:?}",
                        etensor.dims(),
                        tensor.dims()
                    )));
                } else {
                    *tensor = etensor.clone();
                }
            }
        }
        idx += 1;
    });
    if let Some(e) = error {
        return Err(e);
    }
    if idx != entries.len() {
        return Err(NnError::CheckpointMismatch(format!(
            "checkpoint has {} tensors, model consumed {idx}",
            entries.len()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Flatten;
    use crate::layers::{BatchNorm2d, Conv2d, Linear, ReLU};
    use crate::Mode;
    use ahw_tensor::rng::{normal, seeded};

    fn model(seed: u64) -> Sequential {
        let mut rng = seeded(seed);
        let mut m = Sequential::new();
        m.push(Conv2d::new(1, 2, 3, 1, 1, &mut rng).unwrap());
        m.push(BatchNorm2d::new(2));
        m.push(ReLU::new());
        m.push(Flatten::new());
        m.push(Linear::new(2 * 4 * 4, 3, &mut rng).unwrap());
        m
    }

    #[test]
    fn save_load_round_trip_preserves_outputs() {
        let dir = std::env::temp_dir().join("ahw_nn_io");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ahwb");

        let mut a = model(1);
        // push some training through so batch-norm stats are non-trivial
        let x = normal(&[4, 1, 4, 4], 0.0, 1.0, &mut seeded(2));
        a.forward(&x, Mode::Train).unwrap();
        save_model(&mut a, &path).unwrap();

        let mut b = model(99); // different init
        load_model(&mut b, &path).unwrap();
        let probe = normal(&[2, 1, 4, 4], 0.0, 1.0, &mut seeded(3));
        assert_eq!(
            a.forward(&probe, Mode::Eval).unwrap(),
            b.forward(&probe, Mode::Eval).unwrap()
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_rejects_architecture_mismatch() {
        let dir = std::env::temp_dir().join("ahw_nn_io");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mismatch.ahwb");
        let mut a = model(4);
        save_model(&mut a, &path).unwrap();

        let mut rng = seeded(5);
        let mut small = Sequential::new();
        small.push(Linear::new(4, 2, &mut rng).unwrap());
        assert!(matches!(
            load_model(&mut small, &path),
            Err(NnError::CheckpointMismatch(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
