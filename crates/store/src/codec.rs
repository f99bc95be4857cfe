//! Little-endian byte codec for snapshot segments.
//!
//! Deliberately tiny: fixed-width integers, `f64` via `to_bits` (so
//! round-trips are bit-exact, NaN payloads included), and
//! `u32`-length-prefixed UTF-8 strings. Decoding is `Result`-based and
//! never panics on malformed input — a corrupt segment that somehow
//! slips past the checksums still degrades into a [`CodecError`], which
//! the recovery path treats the same as a checksum failure.

use std::fmt;

/// A decode failure: truncated input, bad UTF-8, or an unknown tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The reader ran past the end of the segment.
    Truncated,
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
    /// An enum tag byte had no corresponding variant.
    BadTag(&'static str, u8),
    /// A structural invariant failed (e.g. matrix dims vs score count).
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => f.write_str("segment truncated mid-value"),
            CodecError::BadUtf8 => f.write_str("length-prefixed string is not UTF-8"),
            CodecError::BadTag(what, tag) => write!(f, "unknown {what} tag {tag}"),
            CodecError::Invalid(what) => write!(f, "structural invariant violated: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only little-endian writer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `f64` as its IEEE-754 bit pattern (bit-exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Write a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Write raw bytes with a `u32` length prefix.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }

    /// Write an unsigned integer in LEB128 (7 bits per byte, low bits
    /// first): small counts and element ids take one or two bytes.
    pub fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Write a run of `f64`s bit-exactly, with runs of `0.0` (bit
    /// pattern zero) stored as their length: alternating varint counts
    /// of zeros and of the explicit values that follow them.
    pub fn f64s(&mut self, values: &[f64]) {
        self.varint(values.len() as u64);
        let mut i = 0;
        while i < values.len() {
            let zeros = values[i..].iter().take_while(|v| v.to_bits() == 0).count();
            i += zeros;
            let explicit = values[i..].iter().take_while(|v| v.to_bits() != 0).count();
            self.varint(zeros as u64);
            self.varint(explicit as u64);
            for v in &values[i..i + explicit] {
                self.f64(*v);
            }
            i += explicit;
        }
    }
}

/// Cursor-based little-endian reader over a segment.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True once every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a bool (any non-zero byte is true).
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        Ok(self.u8()? != 0)
    }

    /// Read a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
    }

    /// Read a `u32`-length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Read a [`ByteWriter::varint`].
    pub fn varint(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            v |= u64::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                return Ok(v);
            }
        }
        Err(CodecError::Invalid("varint longer than 64 bits"))
    }

    /// Read [`ByteWriter::f64s`] values.
    pub fn f64s(&mut self) -> Result<Vec<f64>, CodecError> {
        let n = self.varint()? as usize;
        let mut out = Vec::with_capacity(n.min(self.remaining() * 8));
        while out.len() < n {
            let zeros = self.varint()? as usize;
            let explicit = self.varint()? as usize;
            if zeros + explicit == 0 || out.len() + zeros + explicit > n {
                return Err(CodecError::Invalid("f64 run overruns its count"));
            }
            out.resize(out.len() + zeros, 0.0);
            for _ in 0..explicit {
                out.push(self.f64()?);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn varints_and_sparse_f64s_round_trip() {
        let mut w = super::ByteWriter::new();
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            w.varint(v);
        }
        let values = [0.0, 0.0, 1.5, -0.0, 0.0, f64::MIN_POSITIVE, 0.0];
        w.f64s(&values);
        w.f64s(&[]);
        let bytes = w.into_bytes();
        let mut r = super::ByteReader::new(&bytes);
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            assert_eq!(r.varint().unwrap(), v);
        }
        let back = r.f64s().unwrap();
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&values));
        assert!(r.f64s().unwrap().is_empty());
        assert!(r.is_exhausted());
    }

    use super::*;

    #[test]
    fn scalar_round_trips_are_exact() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX);
        w.f64(-0.0);
        w.f64(f64::from_bits(0x7ff8_0000_0000_0001)); // NaN with payload
        w.bool(true);
        w.str("naïve ascii");
        w.bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64().unwrap().to_bits(), 0x7ff8_0000_0000_0001);
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "naïve ascii");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        let mut w = ByteWriter::new();
        w.str("hello");
        let bytes = w.into_bytes();
        // Drop the last byte: the length prefix now overruns the buffer.
        let mut r = ByteReader::new(&bytes[..bytes.len() - 1]);
        assert_eq!(r.str(), Err(CodecError::Truncated));
    }

    #[test]
    fn bad_utf8_is_reported() {
        let mut w = ByteWriter::new();
        w.bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.str(), Err(CodecError::BadUtf8));
    }
}
