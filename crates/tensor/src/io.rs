//! Binary tensor serialization.
//!
//! A deliberately tiny, versioned, little-endian format (the offline crate
//! mirror provides no serde *format* crate, so the workspace carries its
//! own). Two layers:
//!
//! * [`write_tensor`] / [`read_tensor`] — one tensor on any `Write`/`Read`.
//! * [`save_bundle`] / [`load_bundle`] — an ordered, named collection of
//!   tensors (a model checkpoint) on disk.
//!
//! Layout of a bundle:
//!
//! ```text
//! b"AHWB" | u32 version | u32 count | count × entry
//! entry = u32 name_len | name bytes | tensor
//! tensor = u32 rank | rank × u64 dim | volume × f32
//! ```

use crate::{Tensor, TensorError};
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"AHWB";
const VERSION: u32 = 1;

fn write_u32<W: Write>(w: &mut W, v: u32) -> Result<(), TensorError> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, TensorError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, TensorError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Writes one tensor (shape header + raw little-endian `f32`s).
///
/// # Errors
///
/// Propagates I/O failures as [`TensorError::Io`].
pub fn write_tensor<W: Write>(w: &mut W, t: &Tensor) -> Result<(), TensorError> {
    write_u32(w, t.rank() as u32)?;
    for &d in t.dims() {
        w.write_all(&(d as u64).to_le_bytes())?;
    }
    let mut bytes = Vec::with_capacity(t.len() * 4);
    for v in t.as_slice() {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    w.write_all(&bytes)?;
    Ok(())
}

/// Reads one tensor written by [`write_tensor`]. Memory grows only with
/// the bytes actually read, so a corrupt header cannot make it allocate
/// what the input does not hold.
///
/// # Errors
///
/// Returns [`TensorError::Io`] on truncated input or an implausible header
/// (rank > 8 or 2³² or more elements — both far beyond anything this
/// workspace produces — are treated as corruption).
pub fn read_tensor<R: Read>(r: &mut R) -> Result<Tensor, TensorError> {
    let rank = read_u32(r)?;
    if rank > 8 {
        return Err(TensorError::Io(format!("implausible tensor rank {rank}")));
    }
    let mut dims = Vec::with_capacity(rank as usize);
    let mut volume: u64 = 1;
    for _ in 0..rank {
        let d = read_u64(r)?;
        volume = volume.saturating_mul(d.max(1));
        dims.push(d as usize);
    }
    if volume > u32::MAX as u64 {
        return Err(TensorError::Io(format!(
            "implausible tensor volume {volume}"
        )));
    }
    let len = 4 * dims.iter().product::<usize>();
    let mut bytes = Vec::new();
    r.by_ref().take(len as u64).read_to_end(&mut bytes)?;
    if bytes.len() != len {
        return Err(TensorError::Io(format!(
            "tensor data truncated: {} of {len} bytes",
            bytes.len()
        )));
    }
    let data = bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    Tensor::from_vec(data, &dims)
}

/// Writes an ordered, named collection of tensors to `path`.
///
/// # Errors
///
/// Returns [`TensorError::Io`] on filesystem failures or a name longer than
/// `u32::MAX` bytes.
pub fn save_bundle<P: AsRef<Path>>(
    path: P,
    entries: &[(String, Tensor)],
) -> Result<(), TensorError> {
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    w.write_all(MAGIC)?;
    write_u32(&mut w, VERSION)?;
    write_u32(&mut w, entries.len() as u32)?;
    for (name, tensor) in entries {
        write_u32(&mut w, name.len() as u32)?;
        w.write_all(name.as_bytes())?;
        write_tensor(&mut w, tensor)?;
    }
    w.flush()?;
    Ok(())
}

/// Loads a bundle written by [`save_bundle`], preserving order.
///
/// # Errors
///
/// Returns [`TensorError::Io`] on a bad magic, unsupported version, corrupt
/// header, or filesystem failure.
pub fn load_bundle<P: AsRef<Path>>(path: P) -> Result<Vec<(String, Tensor)>, TensorError> {
    let file = std::fs::File::open(path)?;
    let mut r = std::io::BufReader::new(file);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(TensorError::Io("bad magic, not an AHWB bundle".into()));
    }
    let version = read_u32(&mut r)?;
    if version != VERSION {
        return Err(TensorError::Io(format!(
            "unsupported bundle version {version}"
        )));
    }
    let count = read_u32(&mut r)?;
    // no capacity from the header: a corrupt count must not allocate
    let mut entries = Vec::new();
    for _ in 0..count {
        let name_len = read_u32(&mut r)? as usize;
        if name_len > 1 << 16 {
            return Err(TensorError::Io(format!(
                "implausible entry name length {name_len}"
            )));
        }
        let mut name = vec![0u8; name_len];
        r.read_exact(&mut name)?;
        let name = String::from_utf8(name)
            .map_err(|e| TensorError::Io(format!("entry name not utf-8: {e}")))?;
        entries.push((name, read_tensor(&mut r)?));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;

    #[test]
    fn tensor_round_trips_through_memory() {
        let t = rng::normal(&[3, 4, 5], 0.0, 1.0, &mut rng::seeded(1));
        let mut buf = Vec::new();
        write_tensor(&mut buf, &t).unwrap();
        let back = read_tensor(&mut buf.as_slice()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn scalar_and_empty_round_trip() {
        for t in [
            Tensor::full(&[], 3.5),
            Tensor::zeros(&[0]),
            Tensor::zeros(&[2, 0, 3]),
        ] {
            let mut buf = Vec::new();
            write_tensor(&mut buf, &t).unwrap();
            assert_eq!(read_tensor(&mut buf.as_slice()).unwrap(), t);
        }
    }

    #[test]
    fn truncated_input_is_io_error() {
        let t = Tensor::ones(&[10]);
        let mut buf = Vec::new();
        write_tensor(&mut buf, &t).unwrap();
        buf.truncate(buf.len() - 1);
        assert!(matches!(
            read_tensor(&mut buf.as_slice()),
            Err(TensorError::Io(_))
        ));
    }

    #[test]
    fn implausible_rank_rejected() {
        let buf = 1000u32.to_le_bytes().to_vec();
        assert!(read_tensor(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn bundle_round_trips_on_disk() {
        let dir = std::env::temp_dir().join("ahw_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bundle.ahwb");
        let entries = vec![
            (
                "conv1.weight".to_string(),
                rng::normal(&[4, 3, 3, 3], 0.0, 1.0, &mut rng::seeded(2)),
            ),
            ("conv1.bias".to_string(), Tensor::zeros(&[4])),
            (
                "fc.weight".to_string(),
                rng::uniform(&[10, 4], -1.0, 1.0, &mut rng::seeded(3)),
            ),
        ];
        save_bundle(&path, &entries).unwrap();
        let back = load_bundle(&path).unwrap();
        assert_eq!(entries, back);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_rejected() {
        let dir = std::env::temp_dir().join("ahw_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("notabundle.bin");
        std::fs::write(&path, b"JUNKJUNKJUNK").unwrap();
        let err = load_bundle(&path).unwrap_err();
        assert!(err.to_string().contains("magic"));
        std::fs::remove_file(&path).unwrap();
    }
}
