//! Interleaved range asymmetric numeral system (rANS) coding over bytes.
//!
//! This is LZR's main entropy coder, in the FSE/zstd lineage: symbol
//! probabilities are normalized to a 12-bit table ([`SCALE_BITS`]), and four
//! word-renormalized 64-bit rANS states are interleaved so the per-symbol
//! dependency chains of consecutive symbols overlap in the pipeline. Symbols
//! cost fractional bits (`log2(4096/freq)`), which matters for the heavily
//! skewed token histograms predictive bitplane coding produces, and decode
//! is one table lookup, one multiply and a branch-free slot arithmetic step
//! per symbol.
//!
//! The encoder walks the input backwards (rANS is last-in-first-out),
//! collecting renorm words into a `u32` list that is assembled in reverse
//! at the end, so the decoder streams strictly forward. Two
//! implementation choices keep the per-symbol critical path short:
//!
//! * **64-bit states, 32-bit renormalization.** States live in
//!   `[2³¹, 2⁶³)` and refill a whole `u32` at a time. One refill always
//!   suffices, so renormalization is a single well-predicted branch per
//!   symbol — not the classic byte-at-a-time loop whose data-dependent trip
//!   count mispredicts constantly.
//! * **Reciprocal division.** The encoder's `x / freq` uses a precomputed
//!   fixed-point reciprocal (the widening-multiply construction of ryg's
//!   `rans_byte`, scaled from 32- to 64-bit states), exact over the whole
//!   state interval for every legal frequency.
//!
//! ## Stream format
//!
//! ```text
//! varint n            -- number of symbols
//! (if n > 0)
//! varint n_present    -- distinct symbols in the table (1..=256)
//! n_present × { u8 symbol, varint freq }   -- ascending symbols, Σfreq = 4096
//! varint payload_len
//! payload             -- 32 bytes of initial state (4 × u64 BE), then u32 renorm words
//! ```
//!
//! ## Integrity
//!
//! Decoding is hardened against corrupt headers: frequency tables that do not
//! sum to exactly 4096 are rejected, the symbol count can be capped by the
//! caller ([`rans_decode_bytes_capped`]) so a corrupt count cannot force a
//! huge allocation, and after the last symbol all four states must have
//! returned to their initial value with the payload fully consumed — a check
//! that catches virtually every payload bit flip.

use crate::varint::{read_varint, varint_len, write_varint};
use crate::{CodecError, Result};

/// Probabilities are normalized to sum to `1 << SCALE_BITS`.
pub const SCALE_BITS: u32 = 12;
const SCALE: u32 = 1 << SCALE_BITS;
/// Lower bound of the renormalization interval; states live in `[L, L << 32)`.
const RANS_L: u64 = 1 << 31;

/// Per-symbol encoder constants. `x / freq` on the hot path is computed as
/// `(x · rcp_freq) >> rcp_shift` in 128-bit arithmetic — ryg's `rans_byte`
/// reciprocal construction widened from 32- to 64-bit states, exact for
/// `x < 2^63` (the states never exceed `L << 32 = 2^63`).
#[derive(Clone, Copy, Default)]
struct EncSymbol {
    rcp_freq: u64,
    rcp_shift: u32,
    bias: u32,
    cmpl_freq: u32,
    x_max: u64,
}

impl EncSymbol {
    fn new(start: u32, freq: u32) -> Self {
        debug_assert!(freq > 0 && freq <= SCALE);
        let (rcp_freq, rcp_shift, bias) = if freq < 2 {
            // freq = 1: q = x·(2⁶⁴−1) >> 64 = x − 1 for 0 < x < 2⁶⁴, and
            // x + start + SCALE − 1 + (x−1)(SCALE−1) = (x << SCALE_BITS) + start.
            (u64::MAX, 0, start + SCALE - 1)
        } else {
            // shift = ceil(log2 freq); rcp = ceil(2^(shift+63) / freq) fits a
            // u64 because freq > 2^(shift−1).
            let mut shift = 0u32;
            while freq > (1u32 << shift) {
                shift += 1;
            }
            let rcp = (1u128 << (shift + 63)).div_ceil(freq as u128) as u64;
            (rcp, shift - 1, start)
        };
        Self {
            rcp_freq,
            rcp_shift: rcp_shift + 64,
            bias,
            cmpl_freq: SCALE - freq,
            x_max: ((RANS_L >> SCALE_BITS) << 32) * freq as u64,
        }
    }

    /// Encode one symbol into state `x`, pushing the renorm word (if any)
    /// onto `words`. One `u32` emit always restores `x < x_max` (x < 2^63
    /// and x_max ≥ 2^51), so renormalization is a single branch. The caller
    /// assembles the payload by walking the list in reverse push order and
    /// writing each word big-endian, so the hot loop touches only the words
    /// actually emitted: no pre-zeroed 4·n scratch buffer and no
    /// whole-payload reversal pass.
    #[inline(always)]
    fn encode_push(&self, x: u64, words: &mut Vec<u32>) -> u64 {
        let mut x = x;
        if x >= self.x_max {
            words.push(x as u32);
            x >>= 32;
        }
        let q = ((x as u128 * self.rcp_freq as u128) >> self.rcp_shift) as u64;
        x + self.bias as u64 + q * self.cmpl_freq as u64
    }
}

/// Byte histogram with the counting loop split over four lanes: a run of
/// one repeated symbol makes the naive `hist[b] += 1` loop a serial chain
/// of store-forwarded increments to one slot, and heavily skewed inputs
/// are exactly what the predictive bitplane stage feeds this coder.
///
/// The lanes count in `u32`, so the slice must be under `MAX_INPUT_LEN`
/// bytes — checked here, in every build profile, because this is where
/// bytes enter both byte coders.
pub(crate) fn histogram(bytes: &[u8]) -> [u64; 256] {
    crate::assert_input_len(bytes.len());
    let mut lanes = [[0u32; 256]; 4];
    let mut it = bytes.chunks_exact(4);
    for q in &mut it {
        lanes[0][q[0] as usize] += 1;
        lanes[1][q[1] as usize] += 1;
        lanes[2][q[2] as usize] += 1;
        lanes[3][q[3] as usize] += 1;
    }
    for &b in it.remainder() {
        lanes[0][b as usize] += 1;
    }
    let mut hist = [0u64; 256];
    for s in 0..256 {
        hist[s] = lanes.iter().map(|l| u64::from(l[s])).sum();
    }
    hist
}

/// Normalize a byte histogram to frequencies summing to exactly [`SCALE`],
/// with every present symbol keeping a frequency of at least 1. Returns
/// `None` for an empty histogram.
fn normalize_freqs(hist: &[u64; 256]) -> Option<[u32; 256]> {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return None;
    }
    let mut freqs = [0u32; 256];
    let mut sum = 0u64;
    for s in 0..256 {
        if hist[s] > 0 {
            let f = ((hist[s] as u128 * SCALE as u128) / total as u128) as u32;
            freqs[s] = f.max(1);
            sum += freqs[s] as u64;
        }
    }
    // Fix the rounding drift: steal from (or grant to) the symbols that can
    // best absorb it. Both loops are deterministic (ties break on the lowest
    // symbol) and bounded by the number of present symbols.
    while sum > SCALE as u64 {
        let s = (0..256)
            .filter(|&s| freqs[s] > 1)
            .max_by_key(|&s| freqs[s])
            .expect("sum > SCALE implies a shrinkable frequency");
        freqs[s] -= 1;
        sum -= 1;
    }
    if sum < SCALE as u64 {
        let s = (0..256)
            .max_by_key(|&s| hist[s])
            .expect("non-empty histogram");
        freqs[s] += (SCALE as u64 - sum) as u32;
    }
    Some(freqs)
}

/// `log2(x)` for `x ≥ 1` in Q8 fixed point, *underestimated* by at most
/// 0.086 bits (the linear-in-mantissa approximation). Integer-only so the
/// size estimate it feeds is bit-identical across platforms.
fn log2_q8(x: u32) -> u32 {
    debug_assert!(x >= 1);
    let e = 31 - x.leading_zeros();
    let frac = if e >= 8 {
        (x >> (e - 8)) - 256
    } else {
        (x << (8 - e)) - 256
    };
    (e << 8) + frac
}

/// Exact header length plus a deterministic *over*-estimate of the payload
/// length (the Q8 log underestimates `log2 f`, so the per-symbol bit cost is
/// overestimated), used to skip hopeless encodes early.
fn estimated_size(hist: &[u64; 256], freqs: &[u32; 256], n: usize) -> usize {
    let mut header = varint_len(n as u64);
    let mut n_present = 0u64;
    let mut bits_q8 = 0u64;
    for s in 0..256 {
        if freqs[s] > 0 {
            n_present += 1;
            header += 1 + varint_len(freqs[s] as u64);
            let cost_q8 = (SCALE_BITS << 8) - log2_q8(freqs[s]);
            bits_q8 += hist[s] * cost_q8 as u64;
        }
    }
    header += varint_len(n_present);
    let payload = (bits_q8 as usize).div_ceil(8 * 256) + 32;
    header + varint_len(payload as u64) + payload
}

/// Smallest stream [`rans_encode_counted_under`] can emit for an input with
/// `present` distinct symbols, which lets a caller holding a size limit at or
/// under it skip the encode (and, with `present = 1`, the histogram):
/// symbol-count varint (≥ 1) + table-size varint (≥ 1) + payload-length
/// varint (≥ 1) + the 32-byte state flush = 35, plus the frequency table at a
/// symbol byte and a frequency varint per present symbol — `2 · present`,
/// except that a lone symbol's frequency is 4096, a two-byte varint, so 3.
pub(crate) const fn min_stream_len(present: usize) -> usize {
    35 + if present < 2 { 3 } else { 2 * present }
}

/// Encode the non-empty `bytes`, whose [`histogram`] the caller holds, with
/// 4-way interleaved rANS into a self-describing buffer, but only if the
/// encoded size ends up strictly smaller than `limit`; `None` otherwise. A
/// histogram-only size estimate rejects clearly incompressible input before
/// any encoding work; the final decision is made on the exact encoded size.
pub(crate) fn rans_encode_counted_under(
    bytes: &[u8],
    hist: &[u64; 256],
    limit: usize,
) -> Option<Vec<u8>> {
    let n = bytes.len();
    let freqs = normalize_freqs(hist).expect("n > 0");
    if limit != usize::MAX {
        // The estimate overshoots the true size by at most ~1.1% + rounding,
        // so anything beyond that margin cannot come in under the limit.
        let est = estimated_size(hist, &freqs, n);
        if est > limit + limit / 16 + 16 {
            return None;
        }
    }

    // Cumulative starts + encoder tables.
    let mut syms = [EncSymbol::default(); 256];
    let mut start = 0u32;
    for s in 0..256 {
        if freqs[s] > 0 {
            syms[s] = EncSymbol::new(start, freqs[s]);
            start += freqs[s];
        }
    }
    debug_assert_eq!(start, SCALE);

    // Header.
    let mut out = Vec::with_capacity(n / 2 + 64);
    write_varint(&mut out, n as u64);
    let n_present = freqs.iter().filter(|&&f| f > 0).count();
    write_varint(&mut out, n_present as u64);
    for s in 0..256u32 {
        if freqs[s as usize] > 0 {
            out.push(s as u8);
            write_varint(&mut out, freqs[s as usize] as u64);
        }
    }

    // Payload: symbol i is coded by state i & 3, walking from the last
    // symbol to the first; each renorm emit pushes one u32 onto `words`.
    // Compressible input emits far fewer than one word per symbol, so the
    // hot loop only ever touches live words — unlike a pre-sized `4n + 32`
    // byte scratch buffer, whose zeroing memset alone costs ~4× the input
    // size. The four states live in locals so their dependency chains stay
    // independent in the pipeline.
    let mut words: Vec<u32> = Vec::with_capacity(n / 2 + 8);
    let mut states = [RANS_L; 4];
    let (main, tail) = bytes.split_at(n & !3);
    // Trailing 0–3 symbols first (they are encoded last-to-first); `main`'s
    // length is a multiple of 4, so global index `main.len() + j` has state
    // `j & 3`.
    for (j, &b) in tail.iter().enumerate().rev() {
        states[j & 3] = syms[b as usize].encode_push(states[j & 3], &mut words);
    }
    let mut x0 = states[0];
    let mut x1 = states[1];
    let mut x2 = states[2];
    let mut x3 = states[3];
    for quad in main.rchunks_exact(4) {
        x3 = syms[quad[3] as usize].encode_push(x3, &mut words);
        x2 = syms[quad[2] as usize].encode_push(x2, &mut words);
        x1 = syms[quad[1] as usize].encode_push(x1, &mut words);
        x0 = syms[quad[0] as usize].encode_push(x0, &mut words);
    }
    // Assemble decoder-forward: the 32-byte state flush (the decoder reads
    // state 0 as 8 big-endian bytes first, then states 1, 2, 3), followed
    // by the renorm words in *reverse* push order, each big-endian.
    let payload_len = 32 + 4 * words.len();
    write_varint(&mut out, payload_len as u64);
    out.reserve(payload_len);
    for x in [x0, x1, x2, x3] {
        out.extend_from_slice(&x.to_be_bytes());
    }
    for &w in words.iter().rev() {
        out.extend_from_slice(&w.to_be_bytes());
    }
    (out.len() < limit).then_some(out)
}

/// Decode a buffer produced by [`rans_encode_counted_under`], rejecting
/// streams that declare more than `max_symbols` symbols before allocating
/// anything: a low-entropy table legitimately lets a tiny payload expand to
/// an arbitrarily large output, so a corrupt count must not force an
/// out-of-memory condition.
pub(crate) fn rans_decode_bytes_capped(buf: &[u8], max_symbols: usize) -> Result<Vec<u8>> {
    let mut pos = 0usize;
    let n = read_varint(buf, &mut pos)? as usize;
    if n > max_symbols {
        return Err(CodecError::Corrupt("rANS symbol count exceeds cap"));
    }
    if n == 0 {
        return Ok(Vec::new());
    }
    let n_present = read_varint(buf, &mut pos)? as usize;
    if n_present == 0 || n_present > 256 {
        return Err(CodecError::Corrupt("invalid rANS table size"));
    }
    // Frequency table → slot-to-symbol map + per-symbol (start, freq).
    let mut freq = [0u32; 256];
    let mut cum = [0u32; 256];
    let mut sym_of_slot = [0u8; SCALE as usize];
    let mut start = 0u32;
    let mut prev_sym: i32 = -1;
    for _ in 0..n_present {
        let sym = *buf.get(pos).ok_or(CodecError::UnexpectedEof)?;
        pos += 1;
        if (sym as i32) <= prev_sym {
            return Err(CodecError::Corrupt("rANS table symbols not ascending"));
        }
        prev_sym = sym as i32;
        let f = read_varint(buf, &mut pos)?;
        if f == 0 || f > SCALE as u64 || start as u64 + f > SCALE as u64 {
            return Err(CodecError::Corrupt("rANS frequency out of range"));
        }
        let f = f as u32;
        freq[sym as usize] = f;
        cum[sym as usize] = start;
        for slot in &mut sym_of_slot[start as usize..(start + f) as usize] {
            *slot = sym;
        }
        start += f;
    }
    if start != SCALE {
        return Err(CodecError::Corrupt("rANS frequencies do not sum to 4096"));
    }
    let payload_len = read_varint(buf, &mut pos)? as usize;
    let payload = buf
        .get(pos..pos.saturating_add(payload_len))
        .ok_or(CodecError::UnexpectedEof)?;
    if payload.len() < 32 {
        return Err(CodecError::UnexpectedEof);
    }
    // One packed entry per slot — `sym | (freq−1) << 8 | (slot − cum) << 20` —
    // so the decode step is a single 16 KiB-table load plus one multiply.
    // `freq − 1` fits 12 bits (4096 only occurs with every slot owned by one
    // symbol), and `slot − cum` is the offset inside the symbol's range.
    let mut slot_tab = [0u32; SCALE as usize];
    for (slot, entry) in slot_tab.iter_mut().enumerate() {
        let sym = sym_of_slot[slot];
        let bias = slot as u32 - cum[sym as usize];
        *entry = sym as u32 | ((freq[sym as usize] - 1) << 8) | (bias << 20);
    }
    let mut x0 = u64::from_be_bytes(payload[0..8].try_into().expect("8 bytes"));
    let mut x1 = u64::from_be_bytes(payload[8..16].try_into().expect("8 bytes"));
    let mut x2 = u64::from_be_bytes(payload[16..24].try_into().expect("8 bytes"));
    let mut x3 = u64::from_be_bytes(payload[24..32].try_into().expect("8 bytes"));
    let mut rp = 32usize;

    let mut out = vec![0u8; n];
    let mask = (SCALE - 1) as u64;

    // Decode transform + renormalization for one state: table load, one
    // multiply, and a single refill branch (the transform keeps `x ≥ 2^19`,
    // so one u32 refill always restores `x ≥ L`).
    macro_rules! step {
        ($x:ident, $read:expr) => {{
            let e = slot_tab[($x & mask) as usize];
            $x = ((((e >> 8) & 0xFFF) + 1) as u64) * ($x >> SCALE_BITS) + (e >> 20) as u64;
            if $x < RANS_L {
                $x = ($x << 32) | $read as u64;
                rp += 4;
            }
            e as u8
        }};
    }

    // Fast path: while ≥ 16 renorm bytes remain, a whole quad runs branch
    // free. The four decode transforms are independent, and each state's
    // refill becomes a speculative (always in-bounds) read plus a
    // conditional-move select — refills are data-dependent and mispredict
    // badly as branches. The output buffer is pre-sized so the stores are
    // plain indexed writes.
    macro_rules! fast_step {
        ($x:ident, $slot:expr) => {{
            let e = slot_tab[($x & mask) as usize];
            $x = ((((e >> 8) & 0xFFF) + 1) as u64) * ($x >> SCALE_BITS) + (e >> 20) as u64;
            out[$slot] = e as u8;
        }};
    }
    macro_rules! fast_renorm {
        ($x:ident) => {{
            let need = $x < RANS_L;
            let w = u32::from_be_bytes(payload[rp..rp + 4].try_into().expect("4 bytes"));
            let refilled = ($x << 32) | w as u64;
            $x = if need { refilled } else { $x };
            rp += 4 * need as usize;
        }};
    }
    let mut i = 0usize;
    while i + 4 <= n && rp + 16 <= payload.len() {
        fast_step!(x0, i);
        fast_step!(x1, i + 1);
        fast_step!(x2, i + 2);
        fast_step!(x3, i + 3);
        fast_renorm!(x0);
        fast_renorm!(x1);
        fast_renorm!(x2);
        fast_renorm!(x3);
        i += 4;
    }
    let read_checked = |rp: usize| -> Result<u32> {
        Ok(u32::from_be_bytes(
            payload
                .get(rp..rp + 4)
                .ok_or(CodecError::UnexpectedEof)?
                .try_into()
                .expect("4 bytes"),
        ))
    };
    while i < n {
        out[i] = match i & 3 {
            0 => step!(x0, read_checked(rp)?),
            1 => step!(x1, read_checked(rp)?),
            2 => step!(x2, read_checked(rp)?),
            _ => step!(x3, read_checked(rp)?),
        };
        i += 1;
    }
    // The encoder started every state at RANS_L and the byte stream must be
    // exactly spent; anything else means the stream was tampered with.
    if x0 != RANS_L || x1 != RANS_L || x2 != RANS_L || x3 != RANS_L || rp != payload.len() {
        return Err(CodecError::Corrupt("rANS stream failed integrity check"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::huffman::{huffman_decode_bytes, huffman_encode_bytes};
    use rand::{Rng, SeedableRng};

    /// Unbounded encode; an empty input is the one-byte stream `[0]`.
    fn encode(bytes: &[u8]) -> Vec<u8> {
        if bytes.is_empty() {
            return vec![0];
        }
        rans_encode_counted_under(bytes, &histogram(bytes), usize::MAX)
            .expect("unbounded encode always succeeds")
    }

    fn decode(buf: &[u8]) -> Result<Vec<u8>> {
        rans_decode_bytes_capped(buf, usize::MAX)
    }

    fn roundtrip(data: &[u8]) {
        let enc = encode(data);
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn roundtrip_edge_cases() {
        roundtrip(&[]);
        roundtrip(&[0]);
        roundtrip(&[255]);
        roundtrip(&[7; 1]);
        roundtrip(&[1, 2]);
        roundtrip(&[9; 3]);
    }

    #[test]
    fn smallest_stream_is_the_documented_floor() {
        // Tight for a lone symbol (while the count fits one varint byte).
        for data in [vec![0u8], vec![255u8; 3], vec![42u8; 127]] {
            assert_eq!(encode(&data).len(), min_stream_len(1));
        }
        // And a floor everywhere else.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(13);
        for case in 0..300usize {
            let alphabet = 1 + case % 40;
            let data: Vec<u8> = (0..1 + case)
                .map(|_| rng.gen_range(0..alphabet) as u8 * 5)
                .collect();
            let present = histogram(&data).iter().filter(|&&c| c > 0).count();
            assert!(encode(&data).len() >= min_stream_len(present));
        }
    }

    #[test]
    fn roundtrip_single_symbol_run() {
        // freq = 4096 for one symbol: zero bits per symbol, payload is just
        // the four flushed states.
        let data = vec![42u8; 100_000];
        let enc = encode(&data);
        assert!(
            enc.len() < 48,
            "degenerate run must be ~header-only: {}",
            enc.len()
        );
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn roundtrip_uniform_random() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let data: Vec<u8> = (0..60_000).map(|_| rng.gen()).collect();
        roundtrip(&data);
    }

    #[test]
    fn roundtrip_all_symbols() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        roundtrip(&data);
    }

    #[test]
    fn skewed_distribution_beats_huffman() {
        // 97% zeros: entropy ≈ 0.24 bits/symbol. Huffman floors at 1 bit per
        // symbol; rANS must land well under that.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                if rng.gen_bool(0.97) {
                    0
                } else {
                    rng.gen_range(1..5)
                }
            })
            .collect();
        let rans = encode(&data);
        let huff = huffman_encode_bytes(&data);
        assert!(
            rans.len() < huff.len() * 2 / 3,
            "rans {} vs huffman {}",
            rans.len(),
            huff.len()
        );
        assert_eq!(decode(&rans).unwrap(), data);
    }

    #[test]
    fn encode_under_rejects_incompressible_and_accepts_skewed() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let random: Vec<u8> = (0..10_000).map(|_| rng.gen()).collect();
        let limit = random.len() - random.len() / 8;
        assert!(rans_encode_counted_under(&random, &histogram(&random), limit).is_none());

        let skewed = vec![1u8; 10_000];
        let enc =
            rans_encode_counted_under(&skewed, &histogram(&skewed), 5_000).expect("compressible");
        assert!(enc.len() < 5_000);
        assert_eq!(decode(&enc).unwrap(), skewed);
    }

    #[test]
    fn truncated_stream_errors() {
        let data: Vec<u8> = (0..2000u32).map(|i| (i % 17) as u8).collect();
        let enc = encode(&data);
        for cut in [1, 5, enc.len() / 2, enc.len() - 1] {
            assert!(decode(&enc[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn payload_bit_flips_are_detected() {
        let data: Vec<u8> = (0..4000u32).map(|i| (i % 7) as u8).collect();
        let enc = encode(&data);
        let mut flipped_undetected = 0usize;
        for pos in 0..enc.len() {
            let mut bad = enc.clone();
            bad[pos] ^= 0x10;
            match decode(&bad) {
                Err(_) => {}
                Ok(out) => {
                    // A flip in the symbol-count varint can legally describe a
                    // shorter stream; everything else must either error or
                    // produce different bytes, never panic.
                    if out == data {
                        flipped_undetected += 1;
                    }
                }
            }
        }
        assert_eq!(flipped_undetected, 0, "some corruption decoded identically");
    }

    #[test]
    fn symbol_count_cap_blocks_allocation_bombs() {
        // Degenerate table: one symbol at freq 4096 → a 16-byte stream can
        // claim terabytes of output.
        let mut bomb = Vec::new();
        write_varint(&mut bomb, 1 << 42);
        write_varint(&mut bomb, 1);
        bomb.push(0);
        write_varint(&mut bomb, SCALE as u64);
        write_varint(&mut bomb, 32);
        for _ in 0..4 {
            bomb.extend_from_slice(&RANS_L.to_be_bytes());
        }
        assert!(matches!(
            rans_decode_bytes_capped(&bomb, 1 << 20),
            Err(CodecError::Corrupt(_))
        ));
        // Under the cap the same degenerate stream is legal.
        let n = 1 << 10;
        let data = vec![0u8; n];
        let enc = encode(&data);
        assert_eq!(rans_decode_bytes_capped(&enc, n).unwrap(), data);
        assert!(rans_decode_bytes_capped(&enc, n - 1).is_err());
    }

    #[test]
    fn bad_tables_rejected() {
        // Frequencies that do not sum to 4096.
        let mut bad = Vec::new();
        write_varint(&mut bad, 4);
        write_varint(&mut bad, 2);
        bad.push(0);
        write_varint(&mut bad, 100);
        bad.push(1);
        write_varint(&mut bad, 100);
        write_varint(&mut bad, 8);
        bad.extend_from_slice(&[0u8; 8]);
        assert!(matches!(decode(&bad), Err(CodecError::Corrupt(_))));

        // Non-ascending symbols.
        let mut bad = Vec::new();
        write_varint(&mut bad, 4);
        write_varint(&mut bad, 2);
        bad.push(5);
        write_varint(&mut bad, 2048);
        bad.push(5);
        write_varint(&mut bad, 2048);
        write_varint(&mut bad, 8);
        bad.extend_from_slice(&[0u8; 8]);
        assert!(matches!(decode(&bad), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn encoded_streams_match_golden_digests() {
        // Pins the serialized stream on every distribution shape (empty,
        // tails of 1–3, single symbol, all symbols, dense, skewed). The
        // digests were minted while the build-forward-then-reverse encoder
        // this writer replaced was still in tree and byte-identical to it;
        // containers written since then hold exactly these streams.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
        let mut cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![0],
            vec![1, 2],
            vec![9; 3],
            vec![42; 10_000],
            (0..=255u8).cycle().take(10_001).collect(),
        ];
        cases.push((0..30_000).map(|_| rng.gen()).collect());
        cases.push(
            (0..30_000)
                .map(|_| {
                    if rng.gen_bool(0.95) {
                        0
                    } else {
                        rng.gen_range(1..8)
                    }
                })
                .collect(),
        );
        let fnv1a = |bytes: &[u8]| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
        };
        let golden: [(usize, u64); 8] = [
            (1, 0xaf63_bd4c_8601_b7df),
            (38, 0x27af_17f2_eeaa_aae7),
            (41, 0x9eff_e09e_8071_15a6),
            (38, 0xeebd_d337_e559_2500),
            (39, 0xf1b5_f224_0f9e_f79c),
            (10627, 0xc44b_4572_ee5f_e286),
            (30649, 0xbc24_1fb0_36a5_9727),
            (1619, 0x5969_fe34_e25a_3e62),
        ];
        for (data, want) in cases.iter().zip(golden) {
            let enc = encode(data);
            assert_eq!((enc.len(), fnv1a(&enc)), want, "len={}", data.len());
        }
    }

    #[test]
    fn deterministic_output() {
        let data: Vec<u8> = (0..5000u32).map(|i| (i * 31 % 200) as u8).collect();
        assert_eq!(encode(&data), encode(&data));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Roundtrip over arbitrary byte vectors, including empty input.
        #[test]
        fn prop_roundtrip(data in proptest::collection::vec(proptest::any::<u8>(), 0..2000)) {
            let enc = encode(&data);
            proptest::prop_assert_eq!(decode(&enc).unwrap(), data);
        }

        /// Roundtrip equality against the Huffman path on skewed distributions:
        /// both entropy stages must reproduce the identical original bytes.
        #[test]
        fn prop_matches_huffman_roundtrip(
            data in proptest::collection::vec(0u8..4, 0..3000),
            spice in proptest::collection::vec(proptest::any::<u8>(), 0..50),
        ) {
            let mut data = data;
            data.extend_from_slice(&spice);
            let via_rans = decode(&encode(&data)).unwrap();
            let via_huffman = huffman_decode_bytes(&huffman_encode_bytes(&data)).unwrap();
            proptest::prop_assert_eq!(&via_rans, &via_huffman);
            proptest::prop_assert_eq!(via_rans, data);
        }

        /// Degenerate single-symbol distributions of every symbol value.
        #[test]
        fn prop_degenerate_runs(sym in proptest::any::<u8>(), len in 0usize..5000) {
            let data = vec![sym; len];
            let enc = encode(&data);
            proptest::prop_assert_eq!(decode(&enc).unwrap(), data);
        }
    }
}
