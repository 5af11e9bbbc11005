//! Bit-level and lossless coding substrate.
//!
//! The IPComp pipeline (paper Sec. 4) ends every level in a sequence of generic coding
//! stages: quantized integers are mapped to **negabinary**, sliced into bitplanes,
//! predictively XOR-coded, and the resulting bit/byte streams are compressed with a
//! lossless backend (the paper uses zstd; this workspace substitutes the [`lzr`]
//! LZ77 + entropy-coding backend, whose module docs say what it keeps of zstd).
//! The SZ3 baseline additionally needs a classical **Huffman** entropy stage
//! over quantization codes.
//!
//! Everything here is self-contained and allocation-conscious:
//!
//! * [`bitstream`] — MSB-first bit writer/reader over byte buffers, with
//!   word-level (`u64`) fast paths for the bitplane coder.
//! * [`bitslice`] — 64×64 bit-matrix transposition for word-parallel bitplane
//!   slicing and scattering.
//! * [`negabinary`] — base(−2) integer representation (paper Sec. 4.4.2).
//! * [`zigzag`] — sign folding used by the baseline coders.
//! * [`varint`] — LEB128 variable-length integers for headers.
//! * [`huffman`] — canonical Huffman coder over `u32` symbols.
//! * [`rans`] — 4-way interleaved byte rANS with 12-bit normalized tables.
//! * [`lzr`] — LZ77-style match finder + rANS/Huffman entropy stage (zstd
//!   stand-in).
//! * [`byteio`] — little-endian scalar/slice serialization helpers.

#![warn(clippy::undocumented_unsafe_blocks)]

pub mod bitslice;
pub mod bitstream;
pub mod byteio;
pub mod huffman;
pub mod lzr;
pub mod negabinary;
pub mod rans;
pub mod varint;
pub mod zigzag;

pub use bitstream::{BitReader, BitWriter};
pub use huffman::{huffman_decode, huffman_encode};
pub use lzr::{lzr_compress, lzr_decompress};
pub use negabinary::{from_negabinary, to_negabinary};
pub use rans::{rans_decode_bytes, rans_encode_bytes};
pub use zigzag::{zigzag_decode, zigzag_encode};

/// Exclusive upper bound on the slice one entropy-coder call accepts. The byte
/// histogram counts in `u32` lanes and the LZR match table stores `u32`
/// position stamps, so both are exact below it and neither is allowed to wrap.
pub(crate) const MAX_INPUT_LEN: usize = u32::MAX as usize;

/// Refuse a slice of [`MAX_INPUT_LEN`] bytes or more. An `assert!`, not a
/// `debug_assert!`: release builds are where a wrapped count would go unseen.
#[inline]
pub(crate) fn assert_input_len(len: usize) {
    assert!(
        len < MAX_INPUT_LEN,
        "entropy coder input of {len} bytes is at or over the {MAX_INPUT_LEN}-byte (4 GiB) \
         limit of its u32 counters; split it into chunks"
    );
}

/// Errors produced while decoding compressed byte streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before a complete value could be decoded.
    UnexpectedEof,
    /// A header or table contained an invalid value.
    Corrupt(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of compressed stream"),
            CodecError::Corrupt(msg) => write!(f, "corrupt compressed stream: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Convenience alias for codec results.
pub type Result<T> = std::result::Result<T, CodecError>;
