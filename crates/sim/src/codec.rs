//! Binary wire format helpers.
//!
//! Protocol messages are encoded to real byte buffers before crossing the
//! simulated network so that (i) byte accounting is exact and (ii) the codec
//! path is exercised exactly as a networked implementation would exercise
//! it. The format is little-endian and length-prefixed; it deliberately
//! mirrors the flat layouts a ZeroMQ + protobuf stack would produce, without
//! pulling in a serialization framework.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// Error returned when a buffer does not contain a well-formed message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes remained than the decoder needed.
    Truncated { needed: usize, remaining: usize },
    /// A tag byte did not correspond to any known variant.
    UnknownTag(u8),
    /// A length field exceeded a sanity bound.
    LengthOutOfRange(u64),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, remaining } => {
                write!(f, "truncated message: needed {needed} bytes, {remaining} remain")
            }
            CodecError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            CodecError::LengthOutOfRange(l) => write!(f, "length field out of range: {l}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Largest element count we accept in a length-prefixed vector. Prevents a
/// corrupt length field from causing an enormous allocation.
pub const MAX_VEC_LEN: u64 = 1 << 32;

/// Types that can cross the simulated network.
pub trait WireEncode: Sized {
    /// Exact number of bytes [`encode`](Self::encode) will append.
    fn encoded_len(&self) -> usize;
    /// Append the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);
    /// Decode a value from the front of `buf`, consuming its bytes.
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError>;

    /// Encode into a fresh, exactly-sized buffer.
    fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.encode(&mut buf);
        debug_assert_eq!(buf.len(), self.encoded_len(), "encoded_len mismatch");
        buf.freeze()
    }
}

#[inline]
fn need(buf: &Bytes, n: usize) -> Result<(), CodecError> {
    if buf.remaining() < n {
        Err(CodecError::Truncated { needed: n, remaining: buf.remaining() })
    } else {
        Ok(())
    }
}

/// Read a `u8`.
#[inline]
pub fn get_u8(buf: &mut Bytes) -> Result<u8, CodecError> {
    need(buf, 1)?;
    Ok(buf.get_u8())
}

/// Read a little-endian `u16`.
#[inline]
pub fn get_u16(buf: &mut Bytes) -> Result<u16, CodecError> {
    need(buf, 2)?;
    Ok(buf.get_u16_le())
}

/// Read a little-endian `u32`.
#[inline]
pub fn get_u32(buf: &mut Bytes) -> Result<u32, CodecError> {
    need(buf, 4)?;
    Ok(buf.get_u32_le())
}

/// Read a little-endian `u64`.
#[inline]
pub fn get_u64(buf: &mut Bytes) -> Result<u64, CodecError> {
    need(buf, 8)?;
    Ok(buf.get_u64_le())
}

/// Read a little-endian `f32`.
#[inline]
pub fn get_f32(buf: &mut Bytes) -> Result<f32, CodecError> {
    need(buf, 4)?;
    Ok(buf.get_f32_le())
}

/// Encoded size of a `u64` slice (length prefix + elements).
#[inline]
pub fn u64_slice_len(s: &[u64]) -> usize {
    4 + 8 * s.len()
}

/// Append a length-prefixed `u64` slice.
pub fn put_u64_slice(buf: &mut BytesMut, s: &[u64]) {
    buf.put_u32_le(s.len() as u32);
    for v in s {
        buf.put_u64_le(*v);
    }
}

/// Read a length-prefixed `u64` vector.
pub fn get_u64_vec(buf: &mut Bytes) -> Result<Vec<u64>, CodecError> {
    let n = get_u32(buf)? as u64;
    if n > MAX_VEC_LEN {
        return Err(CodecError::LengthOutOfRange(n));
    }
    let n = n as usize;
    need(buf, 8 * n)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(buf.get_u64_le());
    }
    Ok(out)
}

/// Encoded size of an `f32` slice (length prefix + elements).
#[inline]
pub fn f32_slice_len(s: &[f32]) -> usize {
    4 + 4 * s.len()
}

/// Append a length-prefixed `f32` slice.
pub fn put_f32_slice(buf: &mut BytesMut, s: &[f32]) {
    buf.put_u32_le(s.len() as u32);
    for v in s {
        buf.put_f32_le(*v);
    }
}

/// Read a length-prefixed `f32` vector.
pub fn get_f32_vec(buf: &mut Bytes) -> Result<Vec<f32>, CodecError> {
    let n = get_u32(buf)? as u64;
    if n > MAX_VEC_LEN {
        return Err(CodecError::LengthOutOfRange(n));
    }
    let n = n as usize;
    need(buf, 4 * n)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(buf.get_f32_le());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Sample {
        id: u64,
        keys: Vec<u64>,
        values: Vec<f32>,
        flag: u8,
    }

    impl WireEncode for Sample {
        fn encoded_len(&self) -> usize {
            8 + u64_slice_len(&self.keys) + f32_slice_len(&self.values) + 1
        }
        fn encode(&self, buf: &mut BytesMut) {
            buf.put_u64_le(self.id);
            put_u64_slice(buf, &self.keys);
            put_f32_slice(buf, &self.values);
            buf.put_u8(self.flag);
        }
        fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
            Ok(Sample {
                id: get_u64(buf)?,
                keys: get_u64_vec(buf)?,
                values: get_f32_vec(buf)?,
                flag: get_u8(buf)?,
            })
        }
    }

    #[test]
    fn roundtrip_basic() {
        let s = Sample { id: 42, keys: vec![1, 2, 3], values: vec![0.5, -1.0], flag: 7 };
        let mut bytes = s.to_bytes();
        assert_eq!(bytes.len(), s.encoded_len());
        let back = Sample::decode(&mut bytes).unwrap();
        assert_eq!(back, s);
        assert!(bytes.is_empty(), "decode must consume exactly the encoding");
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let s = Sample { id: 1, keys: vec![9; 10], values: vec![1.0; 10], flag: 0 };
        let full = s.to_bytes();
        for cut in 0..full.len() {
            let mut partial = full.slice(..cut);
            assert!(Sample::decode(&mut partial).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn hostile_length_field_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(u32::MAX); // claims ~4 billion elements
        let mut b = buf.freeze();
        // Not enough payload follows, so decoding must fail without trying
        // to allocate the claimed length.
        assert!(get_u64_vec(&mut b).is_err());
    }

    proptest! {
        #[test]
        fn roundtrip_prop(
            id in any::<u64>(),
            keys in proptest::collection::vec(any::<u64>(), 0..200),
            values in proptest::collection::vec(any::<f32>().prop_filter("finite", |f| f.is_finite()), 0..200),
            flag in any::<u8>(),
        ) {
            let s = Sample { id, keys, values, flag };
            let mut bytes = s.to_bytes();
            prop_assert_eq!(bytes.len(), s.encoded_len());
            let back = Sample::decode(&mut bytes).unwrap();
            prop_assert_eq!(back, s);
            prop_assert!(bytes.is_empty());
        }
    }
}
