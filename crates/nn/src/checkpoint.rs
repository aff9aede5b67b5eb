//! Checkpointing: serialize network weights to a compact self-describing
//! byte format.
//!
//! Checkpoints are `mrsch_snapshot` frames (magic `MRS2`, version,
//! length framing, trailing FNV checksum) carrying a parameter-shape
//! fingerprint and a flat little-endian `f32` dump. Architectures are
//! *not* stored — a checkpoint can only be loaded into a network with
//! the identical layer structure, which the fingerprint verifies.

use crate::net::Sequential;
use bytes::Bytes;
use mrsch_snapshot::{frame, unframe, CodecError, Reader, Writer};

/// Frame magic of the checkpoint format.
pub const MAGIC: [u8; 4] = *b"MRS2";
/// Newest checkpoint format version this build reads and writes.
pub const VERSION: u16 = 1;

/// Errors produced when loading a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Data does not start with [`MAGIC`].
    BadMagic,
    /// Buffer ended before the declared payload.
    Truncated,
    /// The frame failed codec validation (checksum mismatch, trailing
    /// bytes, unsupported version, ...).
    Corrupt(CodecError),
    /// The checkpoint's shape fingerprint does not match the target
    /// network's architecture.
    ShapeMismatch {
        /// Fingerprint stored in the checkpoint.
        expected: u64,
        /// Fingerprint of the network being loaded into.
        actual: u64,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not an MRSch checkpoint (bad magic)"),
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::Corrupt(e) => write!(f, "corrupt checkpoint: {e}"),
            CheckpointError::ShapeMismatch { expected, actual } => write!(
                f,
                "checkpoint fingerprint {expected:#x} does not match network {actual:#x}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::BadMagic { .. } => CheckpointError::BadMagic,
            CodecError::Truncated { .. } => CheckpointError::Truncated,
            other => CheckpointError::Corrupt(other),
        }
    }
}

use mrsch_linalg::Matrix;

/// FNV-1a fingerprint over a sequence of parameter shapes.
fn shape_fingerprint(
    visit: &mut impl FnMut(&mut dyn FnMut(&mut Matrix, &mut Matrix)),
) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    visit(&mut |p, _| {
        mix(p.rows() as u64);
        mix(p.cols() as u64);
    });
    h
}

/// Serialize parameters reachable through a visitor (model-agnostic).
pub fn save_visitor(
    mut visit: impl FnMut(&mut dyn FnMut(&mut Matrix, &mut Matrix)),
) -> Bytes {
    let fp = shape_fingerprint(&mut visit);
    let mut count = 0usize;
    visit(&mut |p, _| count += p.len());
    let mut w = Writer::with_capacity(8 + 8 + count * 4);
    w.put_u64(fp);
    w.put_u64(count as u64);
    visit(&mut |p, _| {
        for &v in p.as_slice() {
            w.put_f32(v);
        }
    });
    Bytes::from(frame(MAGIC, VERSION, &w.into_bytes()))
}

/// Load parameters through a visitor; the target model must have the
/// identical parameter-shape sequence.
pub fn load_visitor(
    mut visit: impl FnMut(&mut dyn FnMut(&mut Matrix, &mut Matrix)),
    data: &[u8],
) -> Result<(), CheckpointError> {
    let (_version, payload) = unframe(MAGIC, data)?;
    let mut r = Reader::new(payload);
    let expected = r.get_u64().map_err(|_| CheckpointError::Truncated)?;
    let actual = shape_fingerprint(&mut visit);
    if expected != actual {
        return Err(CheckpointError::ShapeMismatch { expected, actual });
    }
    let count = r.get_u64().map_err(|_| CheckpointError::Truncated)? as usize;
    if r.remaining() < count.saturating_mul(4) {
        return Err(CheckpointError::Truncated);
    }
    let mut err = None;
    visit(&mut |p, _| {
        if err.is_some() {
            return;
        }
        for v in p.as_mut_slice() {
            match r.get_f32() {
                Ok(x) => *v = x,
                Err(_) => {
                    err = Some(CheckpointError::Truncated);
                    return;
                }
            }
        }
    });
    if let Some(e) = err {
        return Err(e);
    }
    // The dump must end exactly at the declared count.
    r.expect_end().map_err(CheckpointError::from)
}

/// Serialize the network's parameters.
pub fn save(net: &mut Sequential) -> Bytes {
    save_visitor(|f| net.visit_params(&mut |p, g| f(p, g)))
}

/// Load parameters into a network with the same architecture.
pub fn load(net: &mut Sequential, data: &[u8]) -> Result<(), CheckpointError> {
    load_visitor(|f| net.visit_params(&mut |p, g| f(p, g)), data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Activation;
    use mrsch_linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_net(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new()
            .dense(4, 8, &mut rng)
            .activation(Activation::LeakyRelu(0.01))
            .dense(8, 2, &mut rng)
    }

    #[test]
    fn save_load_roundtrip_preserves_outputs() {
        let mut a = sample_net(1);
        let mut b = sample_net(2);
        let x = Matrix::filled(3, 4, 0.7);
        assert_ne!(a.forward(&x), b.forward(&x));
        let ckpt = save(&mut a);
        load(&mut b, &ckpt).unwrap();
        assert_eq!(a.forward(&x), b.forward(&x));
    }

    #[test]
    fn current_format_is_a_checksummed_frame() {
        let mut a = sample_net(1);
        let ckpt = save(&mut a);
        assert_eq!(&ckpt[..4], &MAGIC, "MRS2-framed");
        // A flipped weight bit is caught by the frame checksum.
        let mut corrupt = ckpt.to_vec();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x01;
        assert!(
            matches!(load(&mut a, &corrupt), Err(CheckpointError::Corrupt(_))),
            "bit flip detected"
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let mut net = sample_net(1);
        assert_eq!(load(&mut net, b"nope"), Err(CheckpointError::BadMagic));
        // An unframed `MRS1` blob (fingerprint + count + dump, no
        // checksum) is not a checkpoint either.
        let framed = save(&mut net);
        let (_version, payload) = unframe(MAGIC, &framed).unwrap();
        let unframed = [&b"MRS1"[..], payload].concat();
        assert_eq!(load(&mut net, &unframed), Err(CheckpointError::BadMagic));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut a = sample_net(1);
        let mut rng = StdRng::seed_from_u64(3);
        let mut different = Sequential::new().dense(4, 9, &mut rng);
        let ckpt = save(&mut a);
        match load(&mut different, &ckpt) {
            Err(CheckpointError::ShapeMismatch { .. }) => {}
            other => panic!("expected ShapeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncated_rejected() {
        let mut a = sample_net(1);
        let ckpt = save(&mut a);
        let cut = &ckpt[..ckpt.len() - 5];
        assert_eq!(load(&mut a, cut), Err(CheckpointError::Truncated));
    }

    #[test]
    fn checkpoint_is_deterministic() {
        let mut a = sample_net(7);
        let c1 = save(&mut a);
        let c2 = save(&mut a);
        assert_eq!(c1, c2);
    }
}
