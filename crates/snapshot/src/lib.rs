//! `mrsch-snapshot` — a compact, self-describing little-endian binary
//! codec for checkpoint/restart payloads.
//!
//! The vendored `serde` facade is a no-op (its derives satisfy trait
//! bounds but serialize nothing), which blocked mid-run simulator
//! snapshots since PR 2. This crate is the real serialization layer:
//! a derive-free [`Encode`]/[`Decode`] pair over an explicit [`Writer`]/
//! [`Reader`], plus a *frame* container every persisted artifact shares:
//!
//! ```text
//! +-------+---------+-------------+-----------------+----------+
//! | magic | version |  payload    |    payload      | checksum |
//! | 4 B   | u16 LE  |  len u64 LE |    bytes        | u64 LE   |
//! +-------+---------+-------------+-----------------+----------+
//!                                  <- FNV-1a-64 over everything ->
//!                                     before the checksum field
//! ```
//!
//! Within a payload every field is little-endian and length-framed where
//! variable-sized (`Vec`/`String` carry a `u64` element count; `Option`
//! a one-byte tag), so payloads are self-describing enough to skip and
//! validate without a schema registry. Floating-point values round-trip
//! as exact IEEE-754 bit patterns — a decoded snapshot continues
//! *bit-identically*, which is the acceptance contract of the simulator
//! checkpoint layer built on top (`mrsim::snapshot`).
//!
//! Decoding never panics: every read is bounds-checked first and
//! truncated or corrupted input surfaces as a typed [`CodecError`]
//! (property-tested in `tests/prop_codec.rs`, including bit-flip and
//! truncation attacks).

use std::fmt;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of a byte string — the frame checksum (and the
/// same function `mrsch_nn::checkpoint` fingerprints shapes with).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Typed decode failures. Every malformed input maps to one of these —
/// the decoder never panics, whatever the bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The frame does not start with the expected magic.
    BadMagic {
        /// Magic the caller expected.
        expected: [u8; 4],
        /// Magic actually present (zero-padded if the input was shorter).
        found: [u8; 4],
    },
    /// The frame's format version is newer than this decoder understands.
    UnsupportedVersion {
        /// Version found in the frame header.
        version: u16,
        /// Newest version this decoder supports.
        supported: u16,
    },
    /// The input ended before a fixed-size field could be read.
    Truncated {
        /// Bytes the next read needed.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// The trailing FNV-1a checksum does not match the frame contents.
    ChecksumMismatch {
        /// Checksum recorded in the frame.
        expected: u64,
        /// Checksum recomputed over the received bytes.
        actual: u64,
    },
    /// Bytes remain after the frame (or payload) should have ended.
    TrailingBytes {
        /// Number of unexpected trailing bytes.
        remaining: usize,
    },
    /// A field's bytes decoded to an invalid value (bad bool/Option tag,
    /// invalid UTF-8, unknown enum discriminant, out-of-range index).
    Malformed(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic { expected, found } => write!(
                f,
                "bad magic: expected {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found)
            ),
            CodecError::UnsupportedVersion { version, supported } => {
                write!(f, "unsupported format version {version} (decoder supports <= {supported})")
            }
            CodecError::Truncated { needed, remaining } => {
                write!(f, "truncated input: needed {needed} bytes, {remaining} remaining")
            }
            CodecError::ChecksumMismatch { expected, actual } => {
                write!(f, "checksum mismatch: frame says {expected:#018x}, got {actual:#018x}")
            }
            CodecError::TrailingBytes { remaining } => {
                write!(f, "{remaining} unexpected trailing bytes")
            }
            CodecError::Malformed(what) => write!(f, "malformed field: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only little-endian byte sink. Encoding is infallible.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writer with pre-reserved capacity (snapshotting large state).
    pub fn with_capacity(cap: usize) -> Self {
        Self { buf: Vec::with_capacity(cap) }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append raw bytes verbatim (no length prefix).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i64`, little-endian two's complement.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f32` as its exact IEEE-754 bit pattern.
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Append an `f64` as its exact IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// Bounds-checked little-endian byte source. Every read validates the
/// remaining length first and returns [`CodecError::Truncated`] instead
/// of panicking.
#[derive(Clone, Copy, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Reader over a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless the input is fully consumed — the "no trailing
    /// garbage" check run after decoding a complete payload.
    pub fn expect_end(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes { remaining: self.remaining() })
        }
    }

    /// Take the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated { needed: n, remaining: self.remaining() });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("take(2)")))
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("take(4)")))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("take(8)")))
    }

    /// Read a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("take(8)")))
    }

    /// Read an `f32` from its bit pattern.
    pub fn get_f32(&mut self) -> Result<f32, CodecError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Read an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }
}

/// Types that serialize themselves onto a [`Writer`]. Infallible.
pub trait Encode {
    /// Append this value's encoding.
    fn encode(&self, w: &mut Writer);

    /// Convenience: encode into a fresh byte vector.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }
}

/// Types that parse themselves from a [`Reader`], returning typed errors
/// (never panicking) on malformed input.
pub trait Decode: Sized {
    /// Parse one value, consuming exactly its encoding.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

macro_rules! impl_scalar {
    ($ty:ty, $put:ident, $get:ident) => {
        impl Encode for $ty {
            fn encode(&self, w: &mut Writer) {
                w.$put(*self);
            }
        }
        impl Decode for $ty {
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                r.$get()
            }
        }
    };
}

impl_scalar!(u8, put_u8, get_u8);
impl_scalar!(u16, put_u16, get_u16);
impl_scalar!(u32, put_u32, get_u32);
impl_scalar!(u64, put_u64, get_u64);
impl_scalar!(i64, put_i64, get_i64);
impl_scalar!(f32, put_f32, get_f32);
impl_scalar!(f64, put_f64, get_f64);

impl Encode for bool {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self as u8);
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Malformed("bool tag not 0/1")),
        }
    }
}

impl Encode for usize {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self as u64);
    }
}

impl Decode for usize {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        usize::try_from(r.get_u64()?).map_err(|_| CodecError::Malformed("usize out of range"))
    }
}

impl Encode for String {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.len() as u64);
        w.put_raw(self.as_bytes());
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = decode_len(r)?;
        let bytes = r.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Malformed("string not UTF-8"))
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(CodecError::Malformed("Option tag not 0/1")),
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.encode(w);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = decode_len(r)?;
        // Cap the pre-allocation by what could possibly remain: a
        // corrupted length then fails element-by-element with a typed
        // error instead of attempting a giant allocation up front.
        let mut out = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

/// Read a `u64` length prefix and narrow it to `usize`.
fn decode_len(r: &mut Reader<'_>) -> Result<usize, CodecError> {
    usize::try_from(r.get_u64()?).map_err(|_| CodecError::Malformed("length out of range"))
}

/// Size of the frame header (magic + version + payload length).
const HEADER_LEN: usize = 4 + 2 + 8;
/// Size of the trailing checksum.
const CHECKSUM_LEN: usize = 8;

/// Wrap a payload in the standard frame: magic, version, length-framed
/// payload, trailing FNV-1a-64 checksum over everything before it.
pub fn frame(magic: [u8; 4], version: u16, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + CHECKSUM_LEN);
    out.extend_from_slice(&magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let checksum = fnv1a64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Validate and open a frame: checks magic, length, and checksum, and
/// returns `(version, payload)`. Rejects trailing bytes after the frame.
pub fn unframe(expected_magic: [u8; 4], buf: &[u8]) -> Result<(u16, &[u8]), CodecError> {
    if buf.len() < 4 {
        let mut found = [0u8; 4];
        found[..buf.len()].copy_from_slice(buf);
        return Err(CodecError::BadMagic { expected: expected_magic, found });
    }
    let found: [u8; 4] = buf[..4].try_into().expect("4-byte slice");
    if found != expected_magic {
        return Err(CodecError::BadMagic { expected: expected_magic, found });
    }
    if buf.len() < HEADER_LEN + CHECKSUM_LEN {
        return Err(CodecError::Truncated {
            needed: HEADER_LEN + CHECKSUM_LEN,
            remaining: buf.len(),
        });
    }
    let version = u16::from_le_bytes(buf[4..6].try_into().expect("2-byte slice"));
    let payload_len = u64::from_le_bytes(buf[6..HEADER_LEN].try_into().expect("8-byte slice"));
    let payload_len = usize::try_from(payload_len)
        .map_err(|_| CodecError::Malformed("payload length out of range"))?;
    let total = HEADER_LEN
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(CHECKSUM_LEN))
        .ok_or(CodecError::Malformed("payload length out of range"))?;
    if buf.len() < total {
        return Err(CodecError::Truncated { needed: total, remaining: buf.len() });
    }
    if buf.len() > total {
        return Err(CodecError::TrailingBytes { remaining: buf.len() - total });
    }
    let body = &buf[..HEADER_LEN + payload_len];
    let expected =
        u64::from_le_bytes(buf[total - CHECKSUM_LEN..total].try_into().expect("8-byte slice"));
    let actual = fnv1a64(body);
    if expected != actual {
        return Err(CodecError::ChecksumMismatch { expected, actual });
    }
    Ok((version, &buf[HEADER_LEN..HEADER_LEN + payload_len]))
}

/// Open a frame and decode one value spanning the whole payload.
/// `max_version` rejects frames newer than the caller understands.
pub fn decode_framed<T: Decode>(
    expected_magic: [u8; 4],
    max_version: u16,
    buf: &[u8],
) -> Result<(u16, T), CodecError> {
    let (version, payload) = unframe(expected_magic, buf)?;
    if version > max_version {
        return Err(CodecError::UnsupportedVersion { version, supported: max_version });
    }
    let mut r = Reader::new(payload);
    let value = T::decode(&mut r)?;
    r.expect_end()?;
    Ok((version, value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip_exactly() {
        let mut w = Writer::new();
        0xABu8.encode(&mut w);
        0xBEEFu16.encode(&mut w);
        0xDEAD_BEEFu32.encode(&mut w);
        u64::MAX.encode(&mut w);
        (-42i64).encode(&mut w);
        1.5f32.encode(&mut w);
        std::f64::consts::PI.encode(&mut w);
        true.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(u8::decode(&mut r).unwrap(), 0xAB);
        assert_eq!(u16::decode(&mut r).unwrap(), 0xBEEF);
        assert_eq!(u32::decode(&mut r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(u64::decode(&mut r).unwrap(), u64::MAX);
        assert_eq!(i64::decode(&mut r).unwrap(), -42);
        assert_eq!(f32::decode(&mut r).unwrap(), 1.5);
        assert_eq!(f64::decode(&mut r).unwrap(), std::f64::consts::PI);
        assert!(bool::decode(&mut r).unwrap());
        r.expect_end().unwrap();
    }

    #[test]
    fn nan_bit_patterns_survive() {
        // Bit-identical continuation needs exact f64 bits, NaNs included.
        let weird = f64::from_bits(0x7ff8_0000_dead_beef);
        let bytes = weird.encode_to_vec();
        let got = f64::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(got.to_bits(), weird.to_bits());
    }

    #[test]
    fn containers_round_trip() {
        let v: Vec<Option<(u64, String)>> =
            vec![None, Some((7, "hello".to_string())), Some((0, String::new()))];
        let bytes = v.encode_to_vec();
        let mut r = Reader::new(&bytes);
        assert_eq!(Vec::<Option<(u64, String)>>::decode(&mut r).unwrap(), v);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncated_reads_are_typed_errors() {
        let bytes = 0x1234_5678_9abc_def0u64.encode_to_vec();
        for cut in 0..bytes.len() {
            let err = u64::decode(&mut Reader::new(&bytes[..cut])).unwrap_err();
            assert_eq!(err, CodecError::Truncated { needed: 8, remaining: cut });
        }
    }

    #[test]
    fn invalid_tags_are_malformed_not_panics() {
        assert!(matches!(
            bool::decode(&mut Reader::new(&[2])).unwrap_err(),
            CodecError::Malformed(_)
        ));
        assert!(matches!(
            Option::<u8>::decode(&mut Reader::new(&[9, 0])).unwrap_err(),
            CodecError::Malformed(_)
        ));
        // Length prefix claims 4 bytes of string but only 2 follow.
        let mut w = Writer::new();
        w.put_u64(4);
        w.put_raw(b"ab");
        assert!(matches!(
            String::decode(&mut Reader::new(&w.into_bytes())).unwrap_err(),
            CodecError::Truncated { .. }
        ));
        // Non-UTF-8 string bytes.
        let mut w = Writer::new();
        w.put_u64(2);
        w.put_raw(&[0xFF, 0xFE]);
        assert!(matches!(
            String::decode(&mut Reader::new(&w.into_bytes())).unwrap_err(),
            CodecError::Malformed(_)
        ));
    }

    #[test]
    fn huge_length_prefix_does_not_allocate() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX / 2);
        let bytes = w.into_bytes();
        let err = Vec::<u64>::decode(&mut Reader::new(&bytes)).unwrap_err();
        assert!(matches!(err, CodecError::Truncated { .. }));
    }

    #[test]
    fn frame_round_trips_and_validates() {
        let mut w = Writer::new();
        vec![1u64, 2, 3].encode(&mut w);
        let framed = frame(*b"TEST", 3, &w.into_bytes());
        let (version, payload) = decode_framed::<Vec<u64>>(*b"TEST", 3, &framed).unwrap();
        assert_eq!(version, 3);
        assert_eq!(payload, vec![1, 2, 3]);
    }

    #[test]
    fn frame_rejects_wrong_magic() {
        let framed = frame(*b"AAAA", 1, b"x");
        assert_eq!(
            unframe(*b"BBBB", &framed).unwrap_err(),
            CodecError::BadMagic { expected: *b"BBBB", found: *b"AAAA" }
        );
    }

    #[test]
    fn frame_rejects_newer_version() {
        let framed = frame(*b"TEST", 9, &2u64.encode_to_vec());
        assert_eq!(
            decode_framed::<u64>(*b"TEST", 3, &framed).unwrap_err(),
            CodecError::UnsupportedVersion { version: 9, supported: 3 }
        );
    }

    #[test]
    fn frame_detects_any_single_bit_flip() {
        let framed = frame(*b"TEST", 1, b"payload bytes here");
        for byte in 0..framed.len() {
            for bit in 0..8u8 {
                let mut corrupted = framed.clone();
                corrupted[byte] ^= 1 << bit;
                assert!(
                    unframe(*b"TEST", &corrupted).is_err(),
                    "flip at byte {byte} bit {bit} must not pass validation"
                );
            }
        }
    }

    #[test]
    fn frame_detects_truncation_and_trailing_garbage() {
        let framed = frame(*b"TEST", 1, b"abc");
        for cut in 0..framed.len() {
            assert!(unframe(*b"TEST", &framed[..cut]).is_err(), "cut at {cut}");
        }
        let mut extended = framed.clone();
        extended.push(0);
        assert_eq!(
            unframe(*b"TEST", &extended).unwrap_err(),
            CodecError::TrailingBytes { remaining: 1 }
        );
    }

    #[test]
    fn error_display_is_informative() {
        let err = CodecError::Truncated { needed: 8, remaining: 3 };
        assert!(err.to_string().contains("needed 8"));
        let err = CodecError::BadMagic { expected: *b"AAAA", found: *b"BBBB" };
        assert!(err.to_string().contains("AAAA"));
    }
}
