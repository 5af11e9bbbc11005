//! Canonical Huffman coding over bytes.
//!
//! The SZ3 and MGARD stand-ins (paper Sec. 6.1.3) entropy-code their
//! quantization codes with this byte coder before the final lossless pass,
//! and the LZR backend codes a token stream with it (mode 1) where it beats
//! rANS and the store threshold. The encoder builds a classical
//! frequency-sorted tree, converts it to canonical form (codes assigned by
//! non-decreasing length, then symbol order) and serializes only the
//! `(symbol, length)` table, so the decoder can rebuild the exact same
//! codebook.

use crate::rans::histogram;
use crate::varint::{read_varint, varint_len, write_varint};
use crate::{CodecError, Result};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Longest code a stream may declare. The decoder's 64-bit window resolves a
/// code of up to 56 bits after any refill. No writer comes close: a depth-`d`
/// Huffman tree needs a total weight of at least `F(d + 2)` (Fibonacci), the
/// histogram refuses inputs of 4 GiB or more, and `F(48) > 2³²`, so no stream
/// ever written holds a code longer than 45 bits.
const MAX_CODE_LEN: u8 = 56;

/// Canonical code lengths of a byte histogram, as `(symbol, length)` pairs
/// sorted by symbol. Zero or one present symbol are the degenerate cases (the
/// single symbol gets a 1-bit code).
///
/// Leaves enter the arena in ascending symbol order and the heap is keyed on
/// `(frequency, node index)`, which is what makes equal-frequency ties break
/// identically on every run.
fn byte_code_lengths(hist: &[u64; 256]) -> Vec<(u8, u8)> {
    let symbols: Vec<(u8, u64)> = (0..=u8::MAX)
        .zip(hist.iter().copied())
        .filter(|&(_, f)| f > 0)
        .collect();
    if symbols.is_empty() {
        return Vec::new();
    }
    if let [(sym, _)] = symbols[..] {
        return vec![(sym, 1)];
    }

    // Node arena: leaves first, then internal nodes.
    #[derive(Clone, Copy)]
    struct Node {
        freq: u64,
        left: usize,
        right: usize,
        symbol: u8,
    }
    const NONE: usize = usize::MAX;

    let mut nodes: Vec<Node> = Vec::with_capacity(symbols.len() * 2);
    for &(sym, freq) in &symbols {
        nodes.push(Node {
            freq,
            left: NONE,
            right: NONE,
            symbol: sym,
        });
    }

    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| Reverse((n.freq, i)))
        .collect();

    while heap.len() > 1 {
        let Reverse((f1, i1)) = heap.pop().expect("heap has >= 2 items");
        let Reverse((f2, i2)) = heap.pop().expect("heap has >= 2 items");
        let parent = nodes.len();
        nodes.push(Node {
            freq: f1 + f2,
            left: i1,
            right: i2,
            symbol: 0,
        });
        heap.push(Reverse((f1 + f2, parent)));
    }
    let root = heap.pop().expect("single root").0 .1;

    // Depth-first traversal to assign lengths.
    let mut lengths: Vec<(u8, u8)> = Vec::with_capacity(symbols.len());
    let mut stack = vec![(root, 0u8)];
    while let Some((idx, depth)) = stack.pop() {
        let n = nodes[idx];
        if n.left == NONE {
            lengths.push((n.symbol, depth.max(1)));
        } else {
            stack.push((n.left, depth + 1));
            stack.push((n.right, depth + 1));
        }
    }
    lengths.sort_unstable();
    lengths
}

/// Canonical `(code, length)` of every symbol in `lengths`, indexed by symbol.
fn canonical_codes(lengths: &[(u8, u8)]) -> [(u64, u32); 256] {
    let mut entries: Vec<(u8, u8)> = lengths.iter().map(|&(s, l)| (l, s)).collect();
    entries.sort_unstable();
    let mut codes = [(0u64, 0u32); 256];
    let mut code = 0u64;
    let mut prev_len = 0u8;
    for (len, sym) in entries {
        code <<= len - prev_len;
        codes[sym as usize] = (code, len as u32);
        code += 1;
        prev_len = len;
    }
    codes
}

/// Canonical decoding tables: a direct-lookup table resolving all codes up to
/// [`CanonicalDecoder::TABLE_BITS`] bits in one peek, plus the
/// first-code/offset arrays that resolve longer codes with integer compares
/// (no hashing anywhere on the per-symbol path).
struct CanonicalDecoder {
    /// `lut[peeked] = (symbol, code_len)`; `code_len == 0` marks "longer than
    /// TABLE_BITS, take the slow path".
    lut: Vec<(u8, u8)>,
    /// Symbols sorted by (code length, symbol) — canonical code order.
    symbols: Vec<u8>,
    /// Per code length `l`: the first canonical code of that length.
    first_code: [u64; MAX_CODE_LEN as usize + 1],
    /// Per code length `l`: index into `symbols` of that first code.
    first_index: [usize; MAX_CODE_LEN as usize + 1],
    /// Per code length `l`: number of codes of that length.
    count: [usize; MAX_CODE_LEN as usize + 1],
    max_len: u8,
}

impl CanonicalDecoder {
    const TABLE_BITS: u32 = 12;

    /// Build the decoding tables, rejecting tables that violate the canonical
    /// (Kraft) constraint — headers are untrusted bytes, and an oversubscribed
    /// length table would otherwise push the code counter past `2^len` and out
    /// of the lookup table. Lengths are `1..=MAX_CODE_LEN` (the parser checks),
    /// so no shift below overflows.
    fn new(lengths: &[(u8, u8)]) -> Result<Self> {
        // Canonical order: by (length, symbol), matching `canonical_codes`.
        let mut entries: Vec<(u8, u8)> = lengths.iter().map(|&(s, l)| (l, s)).collect();
        entries.sort_unstable();
        let mut symbols = Vec::with_capacity(entries.len());
        let mut first_code = [0u64; MAX_CODE_LEN as usize + 1];
        let mut first_index = [0usize; MAX_CODE_LEN as usize + 1];
        let mut count = [0usize; MAX_CODE_LEN as usize + 1];
        let mut max_len = 0u8;
        let mut lut = vec![(0u8, 0u8); 1usize << Self::TABLE_BITS];
        let mut code = 0u64;
        let mut prev_len = 0u8;
        for (i, &(len, sym)) in entries.iter().enumerate() {
            code <<= len - prev_len;
            if code >> len != 0 {
                return Err(CodecError::Corrupt("oversubscribed Huffman code table"));
            }
            if count[len as usize] == 0 {
                first_code[len as usize] = code;
                first_index[len as usize] = i;
            }
            count[len as usize] += 1;
            if (len as u32) <= Self::TABLE_BITS {
                // Every TABLE_BITS-wide window starting with this code decodes
                // to `sym`.
                let shift = Self::TABLE_BITS - len as u32;
                let base = (code << shift) as usize;
                for slot in &mut lut[base..base + (1usize << shift)] {
                    *slot = (sym, len);
                }
            }
            symbols.push(sym);
            max_len = max_len.max(len);
            code += 1;
            prev_len = len;
        }
        Ok(Self {
            lut,
            symbols,
            first_code,
            first_index,
            count,
            max_len,
        })
    }

    /// Decode `n` symbols from `payload`, feeding each to `emit`.
    ///
    /// Runs on a local MSB-aligned 64-bit buffer: the top `have` bits of `acc`
    /// are the next stream bits, refilled a byte at a time and consumed with one
    /// shift per symbol — no per-bit reads and no hashing. A refill leaves more
    /// than 56 bits whenever unread bytes remain, so every code (at most
    /// [`MAX_CODE_LEN`] bits) resolves in the window.
    fn decode_all(&self, payload: &[u8], n: usize, mut emit: impl FnMut(u8)) -> Result<()> {
        // Register-resident MSB-aligned bit buffer: the top `have` bits of
        // `acc` are the next stream bits. The refill ORs a whole 8-byte load
        // below the valid region but only *accounts* for whole bytes; the
        // surplus sub-byte bits are real stream bits that the next refill ORs
        // again to the same positions (OR is idempotent), which keeps the
        // per-symbol critical path free of load latency.
        let total_bits = payload.len() * 8;
        let mut consumed = 0usize;
        let mut byte_pos = 0usize;
        let mut acc: u64 = 0;
        let mut have: u32 = 0;
        for _ in 0..n {
            if have <= 56 {
                if byte_pos + 8 <= payload.len() {
                    let bytes: [u8; 8] = payload[byte_pos..byte_pos + 8]
                        .try_into()
                        .expect("8-byte slice");
                    acc |= u64::from_be_bytes(bytes) >> have;
                    let take = (64 - have) >> 3;
                    byte_pos += take as usize;
                    have += take * 8;
                } else {
                    while have <= 56 && byte_pos < payload.len() {
                        acc |= (payload[byte_pos] as u64) << (56 - have);
                        byte_pos += 1;
                        have += 8;
                    }
                }
            }
            let (mut sym, mut len) = {
                let (s, l) = self.lut[(acc >> (64 - Self::TABLE_BITS)) as usize];
                (s, l as u32)
            };
            if len == 0 {
                // The code is longer than the lookup window; extend it with
                // canonical first-code compares on the same buffered window.
                let mut l = Self::TABLE_BITS + 1;
                loop {
                    if l > self.max_len as u32 {
                        return Err(CodecError::Corrupt("code not found in table"));
                    }
                    let code = acc >> (64 - l);
                    let li = l as usize;
                    if self.count[li] > 0 {
                        let offset = code.wrapping_sub(self.first_code[li]);
                        if offset < self.count[li] as u64 {
                            sym = self.symbols[self.first_index[li] + offset as usize];
                            len = l;
                            break;
                        }
                    }
                    l += 1;
                }
            }
            consumed += len as usize;
            if consumed > total_bits {
                return Err(CodecError::UnexpectedEof);
            }
            // `len ≤ 56 < have` whenever unread bytes remain; at the stream end
            // the EOF check above bounds `len` by the exact remainder.
            acc <<= len;
            have = have.saturating_sub(len);
            emit(sym);
        }
        Ok(())
    }
}

/// Parsed self-describing header: `(n_symbols, (symbol, length) table, payload)`.
type ParsedHeader<'a> = (usize, Vec<(u8, u8)>, &'a [u8]);

/// Parse the header [`huffman_encode_bytes`] writes.
fn parse_header(buf: &[u8]) -> Result<ParsedHeader<'_>> {
    let mut pos = 0usize;
    let n_symbols = read_varint(buf, &mut pos)? as usize;
    let table_len = read_varint(buf, &mut pos)? as usize;
    // Every code is at least one bit, so a symbol count that outruns the
    // entire buffer's bit count is corrupt; checking here keeps the output
    // preallocation bounded by the input size.
    if n_symbols / 8 > buf.len() {
        return Err(CodecError::Corrupt("symbol count exceeds payload bits"));
    }
    if n_symbols > 0 && table_len == 0 {
        return Err(CodecError::Corrupt(
            "empty code table for non-empty payload",
        ));
    }
    // Each table entry consumes at least two bytes, so a table_len larger than
    // the buffer is corrupt; checking first keeps the preallocation bounded.
    if table_len > buf.len() {
        return Err(CodecError::UnexpectedEof);
    }
    let mut lengths: Vec<(u8, u8)> = Vec::with_capacity(table_len);
    for _ in 0..table_len {
        let sym = u8::try_from(read_varint(buf, &mut pos)?)
            .map_err(|_| CodecError::Corrupt("byte symbol out of range"))?;
        let len = *buf.get(pos).ok_or(CodecError::UnexpectedEof)?;
        pos += 1;
        if len == 0 || len > MAX_CODE_LEN {
            return Err(CodecError::Corrupt("invalid code length"));
        }
        lengths.push((sym, len));
    }
    let payload_len = read_varint(buf, &mut pos)? as usize;
    let payload = buf
        .get(pos..pos.saturating_add(payload_len))
        .ok_or(CodecError::UnexpectedEof)?;
    Ok((n_symbols, lengths, payload))
}

/// Smallest stream [`huffman_encode_bytes`] can emit for `n ≥ 1` bytes with
/// `present` distinct symbols, which lets a caller holding a size limit at or
/// under it skip the sizing (and, with `present = 1`, the histogram):
/// symbol-count varint (≥ 1) + table-length varint (≥ 1) + payload-length
/// varint (≥ 1) = 3, plus a `(symbol varint, length byte)` entry per present
/// symbol (≥ 2 each), plus the payload at one bit or more per coded byte.
pub(crate) const fn min_byte_stream_len(n: usize, present: usize) -> usize {
    3 + 2 * present + n.div_ceil(8)
}

/// A byte-Huffman code built and sized from a histogram alone: header plus
/// `Σ freq(s) · len(s)` payload bits are known before a single bit is packed,
/// so a caller can compare the exact size against other coders and then
/// [`encode`](Self::encode) with the same lengths instead of rebuilding them.
pub(crate) struct SizedByteCode {
    lengths: Vec<(u8, u8)>,
    header_len: usize,
    payload_len: usize,
}

impl SizedByteCode {
    /// Code for the `n` bytes counted in `hist`.
    pub(crate) fn new(n: usize, hist: &[u64; 256]) -> Self {
        let lengths = byte_code_lengths(hist);
        debug_assert!(lengths.iter().all(|&(_, len)| len <= MAX_CODE_LEN));
        let payload_bits: u64 = lengths
            .iter()
            .map(|&(sym, len)| hist[sym as usize] * len as u64)
            .sum();
        let payload_len = (payload_bits as usize).div_ceil(8);
        let header_len = varint_len(n as u64)
            + varint_len(lengths.len() as u64)
            + lengths
                .iter()
                .map(|&(sym, _)| varint_len(sym as u64) + 1)
                .sum::<usize>()
            + varint_len(payload_len as u64);
        Self {
            lengths,
            header_len,
            payload_len,
        }
    }

    /// Exact length of the stream [`encode`](Self::encode) writes.
    pub(crate) fn encoded_len(&self) -> usize {
        self.header_len + self.payload_len
    }

    /// Pack `bytes` — the buffer the histogram was counted over — through a
    /// dense per-byte code table into a local 64-bit accumulator: roughly one
    /// shift/or and an amortized byte push per symbol.
    pub(crate) fn encode(&self, bytes: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        write_varint(&mut out, bytes.len() as u64);
        write_varint(&mut out, self.lengths.len() as u64);
        for &(sym, len) in &self.lengths {
            write_varint(&mut out, sym as u64);
            out.push(len);
        }
        write_varint(&mut out, self.payload_len as u64);

        let codes = canonical_codes(&self.lengths);
        let payload_start = out.len();
        let mut acc: u64 = 0;
        let mut fill: u32 = 0;
        for &b in bytes {
            // `fill < 8` and `len ≤ 56`: the append never shifts bits out.
            let (bits, len) = codes[b as usize];
            acc = (acc << len) | bits;
            fill += len;
            while fill >= 8 {
                fill -= 8;
                out.push((acc >> fill) as u8);
            }
        }
        if fill > 0 {
            out.push((acc << (8 - fill)) as u8);
        }
        debug_assert_eq!(out.len() - payload_start, self.payload_len);
        out
    }
}

/// Encode a byte slice into a self-describing buffer: the symbol count, the
/// canonical `(symbol, length)` table, then the bit-packed payload.
pub fn huffman_encode_bytes(bytes: &[u8]) -> Vec<u8> {
    SizedByteCode::new(bytes.len(), &histogram(bytes)).encode(bytes)
}

/// Decode a buffer produced by [`huffman_encode_bytes`].
pub fn huffman_decode_bytes(buf: &[u8]) -> Result<Vec<u8>> {
    huffman_decode_bytes_capped(buf, usize::MAX)
}

/// [`huffman_decode_bytes`] that additionally rejects streams declaring more
/// than `max_symbols` symbols, for callers decoding untrusted bytes.
pub fn huffman_decode_bytes_capped(buf: &[u8], max_symbols: usize) -> Result<Vec<u8>> {
    let (n_symbols, lengths, payload) = parse_header(buf)?;
    if n_symbols > max_symbols {
        return Err(CodecError::Corrupt("symbol count exceeds cap"));
    }
    let decoder = CanonicalDecoder::new(&lengths)?;
    let mut out = Vec::with_capacity(n_symbols);
    decoder.decode_all(payload, n_symbols, |sym| out.push(sym))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let enc = huffman_encode_bytes(data);
        assert_eq!(huffman_decode_bytes(&enc).unwrap(), data);
        enc
    }

    #[test]
    fn roundtrip_simple() {
        roundtrip(&[1, 2, 2, 3, 3, 3, 3, 7, 7, 1, 0]);
    }

    #[test]
    fn roundtrip_empty() {
        roundtrip(&[]);
    }

    #[test]
    fn roundtrip_single_distinct_symbol() {
        // 1000 symbols at 1 bit each + table should be far smaller than raw.
        assert!(roundtrip(&[42u8; 1000]).len() < 200);
    }

    #[test]
    fn skewed_distribution_compresses() {
        // 90% zeros: entropy ~0.47 bits/symbol, so the encoded size must be well
        // below one byte per symbol.
        let mut data = vec![0u8; 9000];
        data.extend(std::iter::repeat_n(5u8, 1000));
        let enc = roundtrip(&data);
        assert!(enc.len() < 10_000 / 4, "encoded {} bytes", enc.len());
    }

    #[test]
    fn oversubscribed_code_table_is_rejected_not_panicking() {
        // Hand-crafted header: 1 symbol to decode, table declaring THREE codes
        // of length 1 (only two can exist). Must return Corrupt, not panic.
        let crafted = [1u8, 3, 0, 1, 1, 1, 2, 1, 1, 0];
        assert!(matches!(
            huffman_decode_bytes(&crafted),
            Err(CodecError::Corrupt(_))
        ));
        // Oversubscription at a longer length (five 2-bit codes).
        let mut crafted = vec![1u8, 5];
        for sym in 0u8..5 {
            crafted.extend_from_slice(&[sym, 2]);
        }
        crafted.extend_from_slice(&[1, 0]);
        assert!(matches!(
            huffman_decode_bytes(&crafted),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn roundtrip_large_alphabet() {
        // Every byte value, at frequencies spread over three orders of
        // magnitude: codes from 2 up to well past the 12-bit lookup window.
        let data: Vec<u8> = (0..5000u32).map(|i| ((i * i) % 1031 % 256) as u8).collect();
        roundtrip(&data);
        let mut data: Vec<u8> = (0..=255u8).collect();
        for (k, b) in (0..16u8).enumerate() {
            data.extend(std::iter::repeat_n(b, 1 << k.min(14)));
        }
        roundtrip(&data);
    }

    #[test]
    fn byte_helpers_roundtrip() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        roundtrip(&data);
    }

    #[test]
    fn truncated_stream_errors() {
        let data = [1u8, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        let enc = huffman_encode_bytes(&data);
        let truncated = &enc[..enc.len() - 2];
        assert!(huffman_decode_bytes(truncated).is_err());
    }

    #[test]
    fn deterministic_output() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 17) as u8).collect();
        assert_eq!(huffman_encode_bytes(&data), huffman_encode_bytes(&data));
    }

    /// What [`SizedByteCode`] predicts for `data`, before any bit is packed.
    fn sized_len(data: &[u8]) -> usize {
        SizedByteCode::new(data.len(), &histogram(data)).encoded_len()
    }

    #[test]
    fn encoded_bytes_size_is_exact() {
        for data in [
            Vec::new(),
            vec![42u8; 777],
            (0..=255u8).cycle().take(3000).collect::<Vec<u8>>(),
            (0..4000u32).map(|i| (i % 5) as u8).collect(),
        ] {
            assert_eq!(sized_len(&data), huffman_encode_bytes(&data).len());
        }
    }

    #[test]
    fn smallest_byte_stream_is_the_documented_floor() {
        // Tight where it can be: symbols under 128, one-bit codes.
        for data in [vec![0u8], vec![7u8; 8], vec![127u8; 3]] {
            assert_eq!(
                huffman_encode_bytes(&data).len(),
                min_byte_stream_len(data.len(), 1)
            );
        }
        assert_eq!(
            huffman_encode_bytes(&[1, 2, 1, 2]).len(),
            min_byte_stream_len(4, 2)
        );
        // And a floor everywhere else.
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(31);
        for case in 0..300usize {
            let alphabet = 1 + case % 40;
            let data: Vec<u8> = (0..1 + case)
                .map(|_| rng.gen_range(0..alphabet) as u8 * 6)
                .collect();
            let present = histogram(&data).iter().filter(|&&c| c > 0).count();
            assert!(sized_len(&data) >= min_byte_stream_len(data.len(), present));
        }
    }

    #[test]
    fn longest_code_of_a_fibonacci_histogram_under_4_gib() {
        // F(1..=45) totals 2 971 215 072 bytes, under the histogram's 4 GiB
        // limit, and is the deepest tree such a total allows.
        let mut hist = [0u64; 256];
        let (mut a, mut b) = (1u64, 1u64);
        for slot in &mut hist[..45] {
            *slot = a;
            (a, b) = (b, a + b);
        }
        assert_eq!(hist.iter().sum::<u64>(), 2_971_215_072);
        let longest = byte_code_lengths(&hist).iter().map(|&(_, len)| len).max();
        assert_eq!(longest, Some(44));
        assert!(longest.unwrap() <= MAX_CODE_LEN);
        assert!(byte_code_lengths(&[0u64; 256]).is_empty());
    }

    #[test]
    fn symbol_count_cap_and_bit_bound_enforced() {
        let data = vec![3u8; 500];
        let enc = huffman_encode_bytes(&data);
        assert_eq!(huffman_decode_bytes_capped(&enc, 500).unwrap(), data);
        assert!(matches!(
            huffman_decode_bytes_capped(&enc, 499),
            Err(CodecError::Corrupt(_))
        ));
        // A header declaring more symbols than the buffer has bits is corrupt
        // before any allocation happens.
        let mut bomb = Vec::new();
        write_varint(&mut bomb, 1 << 50);
        write_varint(&mut bomb, 1);
        bomb.extend_from_slice(&[7, 1, 1, 0]);
        assert!(matches!(
            huffman_decode_bytes(&bomb),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn code_lengths_over_56_bits_are_refused_at_parse_time() {
        // Kraft-valid tables (one 1-bit code, one longer): 56 bits still
        // parses, 57 is refused before any payload bit is read.
        for (len, ok) in [(56u8, true), (57, false), (64, false)] {
            let crafted = [1u8, 2, 0, 1, 1, len, 1, 0];
            let got = huffman_decode_bytes(&crafted);
            assert_eq!(got.is_ok(), ok, "len={len}: {got:?}");
            if !ok {
                assert_eq!(got, Err(CodecError::Corrupt("invalid code length")));
            }
        }
    }
}
