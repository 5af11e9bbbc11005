//! MSB-first bit-at-a-time writer and reader.
//!
//! Nothing on the coding path uses these: the bitplane coder slices and
//! scatters whole words ([`crate::bitslice`]) and the entropy coders keep
//! their own bit accumulators. They are the obviously-correct referee those
//! word paths are tested against — `bitslice`'s slicing tests and `ipcomp`'s
//! bit-at-a-time bitplane coder compare their bytes with what these pack.

use crate::{CodecError, Result};

/// Append-only bit writer. Bits are packed MSB-first within each byte.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Number of valid bits in the last byte of `buf` (0 means the last byte is full
    /// or the buffer is empty).
    partial_bits: u8,
}

impl BitWriter {
    /// Create an empty writer with capacity for roughly `bits` bits.
    pub fn with_capacity_bits(bits: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bits.div_ceil(8)),
            partial_bits: 0,
        }
    }

    /// Write a single bit (`true` = 1).
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        if self.partial_bits == 0 {
            self.buf.push(0);
        }
        let last = self.buf.last_mut().expect("buffer non-empty");
        if bit {
            *last |= 1 << (7 - self.partial_bits);
        }
        self.partial_bits = (self.partial_bits + 1) % 8;
    }

    /// Finish writing and return the backing buffer (final byte zero-padded).
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bit reader matching [`BitWriter`]'s MSB-first packing.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    pos_bits: usize,
}

impl<'a> BitReader<'a> {
    /// Create a reader over a byte buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos_bits: 0 }
    }

    /// Read one bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool> {
        let byte_idx = self.pos_bits / 8;
        if byte_idx >= self.buf.len() {
            return Err(CodecError::UnexpectedEof);
        }
        let bit_idx = 7 - (self.pos_bits % 8) as u32;
        self.pos_bits += 1;
        Ok((self.buf[byte_idx] >> bit_idx) & 1 == 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pack(bits: &[bool]) -> Vec<u8> {
        let mut w = BitWriter::default();
        for &b in bits {
            w.write_bit(b);
        }
        w.into_bytes()
    }

    #[test]
    fn single_bits_roundtrip() {
        let bits = [true, false, true, true, false, false, true, false, true];
        let bytes = pack(&bits);
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        for &b in &bits {
            assert_eq!(r.read_bit().unwrap(), b);
        }
    }

    #[test]
    fn reading_past_end_errors() {
        let bytes = pack(&[true, false, true]);
        let mut r = BitReader::new(&bytes);
        // The final byte is padded, so 8 bits are readable, the 9th is not.
        for _ in 0..8 {
            r.read_bit().unwrap();
        }
        assert_eq!(r.read_bit(), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn msb_first_packing_layout() {
        // 1,0,1 packed MSB-first => 1010_0000.
        assert_eq!(pack(&[true, false, true]), vec![0b1010_0000]);
    }
}
