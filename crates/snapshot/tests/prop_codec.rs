//! Property tests pinning the codec's two core contracts.
//!
//! 1. **Round-trip**: any value written through [`Encode`] decodes back
//!    bit-identically through [`Decode`] — including `f32`/`f64` NaN
//!    payloads (floats travel as raw bits) and multi-byte UTF-8.
//! 2. **Totality on garbage**: decoding never panics, whatever the
//!    bytes. Every prefix of a valid frame is rejected with a typed
//!    [`CodecError`], every single-bit flip anywhere in a frame is
//!    detected (the trailing FNV checksum covers the whole header, so
//!    even version/length corruption cannot slip through), and a length
//!    prefix claiming terabytes fails element-by-element instead of
//!    attempting the allocation.

use mrsch_snapshot::{
    decode_framed, frame, unframe, CodecError, Decode, Encode, Reader, Writer,
};
use proptest::prelude::*;

const MAGIC: [u8; 4] = *b"PTST";

/// Strategy for arbitrary (possibly multi-byte, possibly empty) strings:
/// random code points, surrogates replaced so every draw is a valid
/// `char`.
fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(0u32..0x11_0000, 0..24)
        .prop_map(|cps| cps.into_iter().map(|c| char::from_u32(c).unwrap_or('\u{FFFD}')).collect())
}

proptest! {
    #[test]
    fn scalars_round_trip(
        a in 0u8..=u8::MAX,
        b in 0u16..=u16::MAX,
        c in 0u32..=u32::MAX,
        d in 0u64..=u64::MAX,
        e in i64::MIN..=i64::MAX,
        f in prop::bool::ANY,
    ) {
        let mut w = Writer::new();
        a.encode(&mut w);
        b.encode(&mut w);
        c.encode(&mut w);
        d.encode(&mut w);
        e.encode(&mut w);
        f.encode(&mut w);
        (d as usize).encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        prop_assert_eq!(u8::decode(&mut r).unwrap(), a);
        prop_assert_eq!(u16::decode(&mut r).unwrap(), b);
        prop_assert_eq!(u32::decode(&mut r).unwrap(), c);
        prop_assert_eq!(u64::decode(&mut r).unwrap(), d);
        prop_assert_eq!(i64::decode(&mut r).unwrap(), e);
        prop_assert_eq!(bool::decode(&mut r).unwrap(), f);
        prop_assert_eq!(usize::decode(&mut r).unwrap(), d as usize);
        prop_assert!(r.expect_end().is_ok());
    }

    /// Floats round-trip as raw bits: NaN payloads, signed zeros, and
    /// infinities all survive (the strategies draw *bit patterns*, so
    /// every representable value comes up, not just numeric ones).
    #[test]
    fn floats_round_trip_bit_exactly(
        fbits in 0u32..=u32::MAX,
        dbits in 0u64..=u64::MAX,
    ) {
        let (f, d) = (f32::from_bits(fbits), f64::from_bits(dbits));
        let mut w = Writer::new();
        f.encode(&mut w);
        d.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        prop_assert_eq!(f32::decode(&mut r).unwrap().to_bits(), fbits);
        prop_assert_eq!(f64::decode(&mut r).unwrap().to_bits(), dbits);
    }

    #[test]
    fn containers_round_trip(
        xs in prop::collection::vec(0u64..=u64::MAX, 0..32),
        opt_some in prop::bool::ANY,
        opt_val in 0u32..=u32::MAX,
        s in arb_string(),
    ) {
        let opt = opt_some.then_some(opt_val);
        let pair = (xs.clone(), s.clone());
        let mut w = Writer::new();
        xs.encode(&mut w);
        opt.encode(&mut w);
        s.encode(&mut w);
        pair.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        prop_assert_eq!(Vec::<u64>::decode(&mut r).unwrap(), xs);
        prop_assert_eq!(Option::<u32>::decode(&mut r).unwrap(), opt);
        prop_assert_eq!(String::decode(&mut r).unwrap(), s);
        prop_assert_eq!(<(Vec<u64>, String)>::decode(&mut r).unwrap(), pair);
        prop_assert!(r.expect_end().is_ok());
    }

    #[test]
    fn frames_round_trip(
        payload in prop::collection::vec(0u8..=u8::MAX, 0..64),
        version in 0u16..=u16::MAX,
    ) {
        let framed = frame(MAGIC, version, &payload);
        let (v, p) = unframe(MAGIC, &framed).unwrap();
        prop_assert_eq!(v, version);
        prop_assert_eq!(p, &payload[..]);
        // A different expected magic is rejected up front.
        prop_assert!(matches!(
            unframe(*b"XXXX", &framed),
            Err(CodecError::BadMagic { .. })
        ));
    }

    /// Every strict prefix of a valid frame is rejected with a typed
    /// error — exhaustively, not just at sampled cut points.
    #[test]
    fn every_truncation_is_a_typed_error(
        payload in prop::collection::vec(0u8..=u8::MAX, 0..48),
        version in 0u16..=u16::MAX,
    ) {
        let framed = frame(MAGIC, version, &payload);
        for cut in 0..framed.len() {
            match unframe(MAGIC, &framed[..cut]) {
                Err(CodecError::BadMagic { .. }) | Err(CodecError::Truncated { .. }) => {}
                other => {
                    return Err(TestCaseError::fail(format!(
                        "prefix of {cut}/{} bytes gave {other:?}",
                        framed.len()
                    )))
                }
            }
        }
    }

    /// Every single-bit flip anywhere in a frame is detected: the
    /// checksum covers the entire header and payload, so version and
    /// length corruption cannot slip through either.
    #[test]
    fn every_bit_flip_is_detected(
        payload in prop::collection::vec(0u8..=u8::MAX, 0..40),
        version in 0u16..=u16::MAX,
    ) {
        let framed = frame(MAGIC, version, &payload);
        for byte in 0..framed.len() {
            for bit in 0..8u8 {
                let mut corrupt = framed.clone();
                corrupt[byte] ^= 1 << bit;
                if unframe(MAGIC, &corrupt).is_ok() {
                    return Err(TestCaseError::fail(format!(
                        "flip of bit {bit} in byte {byte} went undetected"
                    )));
                }
            }
        }
    }

    /// Decoding structured types out of arbitrary bytes returns `Ok` or
    /// a typed error — never a panic, never a runaway allocation.
    #[test]
    fn decoding_garbage_never_panics(noise in prop::collection::vec(0u8..=u8::MAX, 0..64)) {
        let _ = decode_framed::<Vec<u64>>(MAGIC, u16::MAX, &noise);
        let _ = unframe(MAGIC, &noise);
        let mut r = Reader::new(&noise);
        let _ = Vec::<String>::decode(&mut r);
        let mut r = Reader::new(&noise);
        let _ = Vec::<(u64, Option<String>)>::decode(&mut r);
        let mut r = Reader::new(&noise);
        let _ = String::decode(&mut r);
    }

    /// A length prefix claiming up to `u64::MAX` elements on a tiny
    /// buffer fails with `Truncated`, proving the pre-allocation cap
    /// (`n.min(remaining)`) turned the lie into a cheap typed error.
    #[test]
    fn huge_length_claims_fail_without_allocating(
        claimed in 1u64..=u64::MAX,
        tail in prop::collection::vec(0u8..=u8::MAX, 0..7),
    ) {
        let mut w = Writer::new();
        w.put_u64(claimed);
        w.put_raw(&tail);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        // Fewer than 8 trailing bytes can't hold even one u64 element,
        // so any claimed length >= 1 must come up short.
        prop_assert!(matches!(
            Vec::<u64>::decode(&mut r),
            Err(CodecError::Truncated { .. })
        ));
    }
}
