//! A small, versioned, CRC-checked binary format for persisting filters.
//!
//! Layout of a blob produced by [`Writer`]:
//!
//! ```text
//! +----------+---------+---------+----------------+---------+
//! | magic u32| ver u16 | kind u16| body bytes ... | crc u32 |
//! +----------+---------+---------+----------------+---------+
//! ```
//!
//! All integers are little-endian. The CRC-32 covers magic, version, kind and
//! body. Each structure (ShBF_M, BF, …) registers its own `kind` tag and
//! encodes parameters + arrays into the body; [`Reader`] verifies magic,
//! version, kind and CRC before any field is interpreted, so a corrupted or
//! truncated blob is rejected instead of yielding a silently wrong filter.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::bitarray::BitArray;
use crate::counters::CounterArray;
use crate::crc::crc32;

/// Magic bytes `"SHBF"` as a little-endian u32.
pub const MAGIC: u32 = u32::from_le_bytes(*b"SHBF");
/// Current format version.
pub const VERSION: u16 = 1;

/// Errors from decoding a serialized blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The blob does not start with the `SHBF` magic.
    BadMagic(u32),
    /// The format version is unsupported.
    BadVersion(u16),
    /// The blob encodes a different structure kind than requested.
    WrongKind {
        /// Kind tag found in the blob.
        found: u16,
        /// Kind tag the caller expected.
        expected: u16,
    },
    /// The CRC-32 did not match — the blob is corrupt or truncated.
    ChecksumMismatch {
        /// Checksum stored in the blob.
        stored: u32,
        /// Checksum computed over the payload.
        computed: u32,
    },
    /// The blob ended before a field could be read.
    UnexpectedEof,
    /// A decoded field had an invalid value.
    InvalidField(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic(m) => write!(f, "bad magic {m:#010x}, expected SHBF"),
            CodecError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            CodecError::WrongKind { found, expected } => {
                write!(
                    f,
                    "blob kind {found} does not match expected kind {expected}"
                )
            }
            CodecError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            CodecError::UnexpectedEof => write!(f, "unexpected end of blob"),
            CodecError::InvalidField(name) => write!(f, "invalid field: {name}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Serializer for one blob.
pub struct Writer {
    buf: BytesMut,
}

impl Writer {
    /// Starts a blob of the given structure `kind`.
    pub fn new(kind: u16) -> Self {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u32_le(MAGIC);
        buf.put_u16_le(VERSION);
        buf.put_u16_le(kind);
        Writer { buf }
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.put_u8(v);
        self
    }

    /// Appends a `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.put_u16_le(v);
        self
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.put_u32_le(v);
        self
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.put_u64_le(v);
        self
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.buf.put_u64_le(v.len() as u64);
        self.buf.put_slice(v);
        self
    }

    /// Appends a length-prefixed `u64` slice.
    pub fn words(&mut self, v: &[u64]) -> &mut Self {
        self.buf.put_u64_le(v.len() as u64);
        for &w in v {
            self.buf.put_u64_le(w);
        }
        self
    }

    /// Appends a [`BitArray`] (bit length + words).
    pub fn bit_array(&mut self, b: &BitArray) -> &mut Self {
        self.buf.put_u64_le(b.len() as u64);
        self.words(b.as_words())
    }

    /// Appends a [`CounterArray`] (len, width, words).
    pub fn counter_array(&mut self, c: &CounterArray) -> &mut Self {
        self.buf.put_u64_le(c.len() as u64);
        self.buf.put_u32_le(c.width());
        self.words(c.as_words())
    }

    /// Appends the CRC footer and returns the finished blob.
    pub fn finish(self) -> Bytes {
        let mut buf = self.buf;
        let crc = crc32(&buf);
        buf.put_u32_le(crc);
        buf.freeze()
    }
}

/// Deserializer for one blob.
#[derive(Debug)]
pub struct Reader<'a> {
    body: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Validates magic, version, kind and CRC, and positions the reader at
    /// the start of the body.
    pub fn new(blob: &'a [u8], expected_kind: u16) -> Result<Self, CodecError> {
        if blob.len() < 8 + 4 {
            return Err(CodecError::UnexpectedEof);
        }
        let (payload, crc_bytes) = blob.split_at(blob.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().unwrap());
        let computed = crc32(payload);
        if stored != computed {
            return Err(CodecError::ChecksumMismatch { stored, computed });
        }
        let mut header = payload;
        let magic = header.get_u32_le();
        if magic != MAGIC {
            return Err(CodecError::BadMagic(magic));
        }
        let version = header.get_u16_le();
        if version != VERSION {
            return Err(CodecError::BadVersion(version));
        }
        let kind = header.get_u16_le();
        if kind != expected_kind {
            return Err(CodecError::WrongKind {
                found: kind,
                expected: expected_kind,
            });
        }
        Ok(Reader { body: header })
    }

    fn need(&self, n: usize) -> Result<(), CodecError> {
        if self.body.len() < n {
            Err(CodecError::UnexpectedEof)
        } else {
            Ok(())
        }
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        self.need(1)?;
        Ok(self.body.get_u8())
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        self.need(2)?;
        Ok(self.body.get_u16_le())
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.need(4)?;
        Ok(self.body.get_u32_le())
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.need(8)?;
        Ok(self.body.get_u64_le())
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let len = self.u64()? as usize;
        self.need(len)?;
        let out = self.body[..len].to_vec();
        self.body.advance(len);
        Ok(out)
    }

    /// Reads a length-prefixed `u64` slice.
    pub fn words(&mut self) -> Result<Vec<u64>, CodecError> {
        let len = self.u64()? as usize;
        self.need(
            len.checked_mul(8)
                .ok_or(CodecError::InvalidField("words len"))?,
        )?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.body.get_u64_le());
        }
        Ok(out)
    }

    /// Reads a [`BitArray`].
    pub fn bit_array(&mut self) -> Result<BitArray, CodecError> {
        let len_bits = self.u64()? as usize;
        let words = self.words()?;
        if words.len() != len_bits.div_ceil(64) {
            return Err(CodecError::InvalidField("bit array word count"));
        }
        if !len_bits.is_multiple_of(64) {
            if let Some(last) = words.last() {
                if last >> (len_bits % 64) != 0 {
                    return Err(CodecError::InvalidField("bit array dirty tail"));
                }
            }
        }
        Ok(BitArray::from_words(words, len_bits))
    }

    /// Reads a [`CounterArray`].
    pub fn counter_array(&mut self) -> Result<CounterArray, CodecError> {
        let len = self.u64()? as usize;
        let width = self.u32()?;
        if !(1..=32).contains(&width) {
            return Err(CodecError::InvalidField("counter width"));
        }
        let words = self.words()?;
        let bits = len.checked_mul(width as usize);
        if bits.map(|b| b.div_ceil(64)) != Some(words.len()) {
            return Err(CodecError::InvalidField("counter array word count"));
        }
        Ok(CounterArray::from_words(words, len, width))
    }

    /// Ensures the body has been fully consumed.
    pub fn expect_end(&self) -> Result<(), CodecError> {
        if self.body.is_empty() {
            Ok(())
        } else {
            Err(CodecError::InvalidField("trailing bytes"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = Writer::new(7);
        w.u8(1).u16(2).u32(3).u64(4).bytes(b"hello");
        let blob = w.finish();
        let mut r = Reader::new(&blob, 7).unwrap();
        assert_eq!(r.u8().unwrap(), 1);
        assert_eq!(r.u16().unwrap(), 2);
        assert_eq!(r.u32().unwrap(), 3);
        assert_eq!(r.u64().unwrap(), 4);
        assert_eq!(r.bytes().unwrap(), b"hello");
        r.expect_end().unwrap();
    }

    #[test]
    fn bit_array_roundtrip() {
        let mut b = BitArray::new(1000);
        b.set(0);
        b.set(999);
        b.set(333);
        let mut w = Writer::new(1);
        w.bit_array(&b);
        let blob = w.finish();
        let mut r = Reader::new(&blob, 1).unwrap();
        let back = r.bit_array().unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn counter_array_roundtrip() {
        let mut c = CounterArray::new(77, 6);
        c.set(0, 63);
        c.set(76, 1);
        let mut w = Writer::new(2);
        w.counter_array(&c);
        let blob = w.finish();
        let mut r = Reader::new(&blob, 2).unwrap();
        let back = r.counter_array().unwrap();
        assert_eq!(back.get(0), 63);
        assert_eq!(back.get(76), 1);
        assert_eq!(back.len(), 77);
        assert_eq!(back.width(), 6);
    }

    #[test]
    fn counter_array_length_overflow_is_an_error() {
        // len × width overflows usize: refused, not wrapped or panicked.
        let mut w = Writer::new(2);
        w.u64(u64::MAX / 2).u32(4).words(&[0]);
        let blob = w.finish();
        let mut r = Reader::new(&blob, 2).unwrap();
        assert_eq!(
            r.counter_array().unwrap_err(),
            CodecError::InvalidField("counter array word count")
        );
    }

    #[test]
    fn corruption_is_detected() {
        let mut w = Writer::new(3);
        w.u64(0xDEAD_BEEF);
        let blob = w.finish();
        for i in 0..blob.len() {
            let mut bad = blob.to_vec();
            bad[i] ^= 0x40;
            let err = Reader::new(&bad, 3).unwrap_err();
            assert!(
                matches!(
                    err,
                    CodecError::ChecksumMismatch { .. }
                        | CodecError::BadMagic(_)
                        | CodecError::BadVersion(_)
                ),
                "byte {i}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = Writer::new(3);
        w.u64(1).u64(2).u64(3);
        let blob = w.finish();
        for cut in 0..blob.len() {
            assert!(
                Reader::new(&blob[..cut], 3).is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn wrong_kind_rejected() {
        let blob = Writer::new(5).finish();
        assert_eq!(
            Reader::new(&blob, 6).unwrap_err(),
            CodecError::WrongKind {
                found: 5,
                expected: 6
            }
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut w = Writer::new(5);
        w.u64(1);
        let blob = w.finish();
        let mut r = Reader::new(&blob, 5).unwrap();
        assert!(r.expect_end().is_err());
        r.u64().unwrap();
        assert!(r.expect_end().is_ok());
    }
}
