//! LZR: the workspace's zstd stand-in — an LZ77-style match finder followed by a
//! table-driven entropy stage (interleaved rANS, with canonical Huffman kept as
//! a compatibility fallback).
//!
//! The IPComp paper feeds its predictively coded bitplanes (and SZ3 feeds its Huffman
//! output) into zstd, which contributes two things: repeated-pattern elimination and
//! entropy coding. LZR reproduces both roles with a greedy single-head hash-table LZ77 pass
//! (min match 4, 64 KiB window) whose token stream is then entropy coded. The exact
//! ratios differ from zstd, but the *relative* behaviour the paper argues about —
//! predictive bitplane coding preserving byte-level repetition better than Huffman
//! coding does — is preserved because both effects are still exploited.
//!
//! Token stream format (before the entropy stage):
//! `[literal_len varint][literal bytes][match_len varint][match_dist varint]`
//! repeated; a `match_len` of 0 terminates the stream (and carries no distance).
//!
//! ## Entropy-stage dispatch
//!
//! The container byte after the length varint selects how the body was coded:
//! `0` = stored token stream, `1` = canonical Huffman over tokens (the
//! original entropy stage), `2` = interleaved rANS over
//! tokens (`crate::rans`), `3` = rANS over the *raw input bytes*, `4` = the
//! raw input bytes verbatim. Modes 3 and 4 are chosen when the match finder
//! comes up empty: decode then skips the detokenization pass entirely — the
//! entropy decoder's output (or a straight copy) is the final data. The
//! encoder picks per buffer using exact pre-sized logic: the
//! Huffman size is computed from the histogram without packing a bit, rANS is
//! attempted only when its deterministic estimate can beat both that and the
//! store threshold, and the stored fallback keeps the historical rule that
//! entropy coding must shrink tokens by at least 1/8 (12.5%) to be worth a
//! decode pass — the same speed-for-marginal-ratio policy zstd applies to raw
//! blocks.
//!
//! ### Dispatch floors
//!
//! The tiled container calls this codec on chunks of a few dozen bytes, so
//! the dispatch proves its cheap answers instead of computing them. With
//! `n` bytes to code and a store threshold of `n − n/8`, a coder whose
//! *smallest possible* stream is already at or over the threshold cannot be
//! chosen, whatever the data:
//!
//! * a rANS stream is at least 35 bytes of varints and state flush plus two
//!   bytes per present symbol — 38 with one (`crate::rans`, `min_stream_len`);
//! * a byte-Huffman stream is at least 3 bytes of varints plus two bytes per
//!   present symbol plus `⌈n/8⌉` payload bytes — 6 at its smallest
//!   ([`crate::huffman`], `min_byte_stream_len`).
//!
//! Both floors are tested twice: with one present symbol before the data is
//! looked at (raw input up to 43 bytes is stored, mode 4; a token stream up to
//! 6 bytes — every all-zero chunk — is stored, mode 0; neither builds a
//! histogram), then with the number of symbols the histogram found (a
//! 96-byte chunk of dense low-order plane bits has ~80, and `35 + 2·80` is far
//! over its threshold of 84). Only buffers that pass get Huffman sized and
//! rANS estimated, from that same histogram. The floors are early returns in
//! the one dispatch, not a second implementation: on either side of each the
//! output is what sizing all three coders would have chosen.
//!
//! ## Match-table reuse
//!
//! The match finder's 64 K-entry hash table is per thread and is **not**
//! cleared between calls. Each call claims the next window of `u32` stamps
//! `[base, base + len)` and stores position `i` as `base + i`, so the
//! invariant is *entry < `base` ⇔ absent*: whatever earlier inputs left
//! behind reads as an empty slot, the candidates — hence the tokens — are
//! exactly those of a freshly filled table, and one call costs O(input)
//! rather than O(table). The table is zeroed only when a window would pass
//! `u32::MAX`, once per ~4 GiB of input on a thread, and inputs shorter than
//! the minimum match never touch it. That is also why one call accepts less
//! than 4 GiB: [`lzr_compress`] refuses more by name instead of wrapping.

use crate::huffman::{huffman_decode_bytes_capped, min_byte_stream_len, SizedByteCode};
use crate::rans::{histogram, min_stream_len, rans_decode_bytes_capped, rans_encode_counted_under};
use crate::varint::{read_varint, write_varint};
use crate::{CodecError, Result};
use std::cell::RefCell;

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 1 << 16;
const WINDOW: usize = 1 << 16;
const HASH_BITS: u32 = 16;

/// Skip-step escalation shift of the tokenizer's empty-match path: the scan
/// step widens by one byte for every `2^shift` consecutive misses. 5 (one
/// step per 32 misses) skims incompressible stretches — dense low-order
/// bitplanes are essentially random bits — roughly twice as fast as the
/// version-1 writer's 6, at a ratio cost measured in hundredths of a percent.
const SKIP_SHIFT: u32 = 5;

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Length of the match between `input[candidate..]` and `input[i..]`, or 0
/// when the candidate lies beyond the window.
#[inline]
fn match_len_at(input: &[u8], candidate: usize, i: usize) -> usize {
    if i - candidate > WINDOW {
        return 0;
    }
    let max_len = (input.len() - i).min(MAX_MATCH);
    let mut l = 0usize;
    while l < max_len && input[candidate + l] == input[i + l] {
        l += 1;
    }
    l
}

/// The match finder's hash table, one per thread and reused by every call on
/// it (see the module docs, "Match-table reuse").
struct MatchTable {
    /// Per 4-byte hash, `base + position` of its latest occurrence in the
    /// input whose window holds that stamp; below the current `base` = absent.
    head: Vec<u32>,
    /// Stamp of position 0 of the next input. Every entry is below it.
    next_base: u32,
}

impl MatchTable {
    fn new() -> Self {
        Self {
            // Zeroed entries sit below the first base, 1: a new table is empty.
            head: vec![0; 1 << HASH_BITS],
            next_base: 1,
        }
    }

    /// Claim the stamps `[base, base + len)` for one input and return `base`.
    /// Only when the window would pass `u32::MAX` — once per ~4 GiB of input
    /// on this thread — is the table zeroed and the numbering restarted.
    fn claim(&mut self, len: usize) -> u32 {
        let len = u32::try_from(len).expect("lzr_compress checked the input length");
        if len > u32::MAX - self.next_base {
            self.head.fill(0);
            self.next_base = 1;
        }
        let base = self.next_base;
        self.next_base = base + len;
        base
    }
}

thread_local! {
    static MATCH_TABLE: RefCell<MatchTable> = RefCell::new(MatchTable::new());
}

/// Produce the raw LZ77 token stream for `input` (no entropy stage).
fn lz_tokenize(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let mut literal_start = 0usize;
    // Inputs too short to hold a match never touch the table.
    if input.len() >= MIN_MATCH {
        MATCH_TABLE.with(|table| {
            let table = &mut *table.borrow_mut();
            let base = table.claim(input.len());
            literal_start = scan_matches(input, &mut table.head, base, &mut out);
        });
    }

    // Trailing literals + terminator.
    write_varint(&mut out, (input.len() - literal_start) as u64);
    out.extend_from_slice(&input[literal_start..]);
    write_varint(&mut out, 0); // match_len = 0 terminator
    out
}

/// The greedy match scan: append every `[literals][match]` token group to
/// `out` and return where the trailing literals start. `head` entries are
/// stamps relative to `base` (entry < `base` ⇔ absent).
fn scan_matches(input: &[u8], head: &mut [u32], base: u32, out: &mut Vec<u8>) -> usize {
    // In-window stamps never overflow: `MatchTable::claim` reserved
    // `[base, base + input.len())`.
    let stamp = |i: usize| base + i as u32;
    let mut literal_start = 0usize;
    let mut i = 0usize;

    // LZ4-style acceleration: every `2^SKIP_SHIFT` consecutive positions
    // without a match widen the scan step by one byte, so incompressible
    // stretches (dense low-order bitplanes are essentially random bits) are
    // skimmed instead of hashed byte by byte. A hit resets the step to 1.
    let mut misses = 0usize;

    while i + MIN_MATCH <= input.len() {
        let h = hash4(&input[i..]);
        let seen = head[h];
        head[h] = stamp(i);
        let match_len = if seen < base {
            0
        } else {
            match_len_at(input, (seen - base) as usize, i)
        };

        if match_len >= MIN_MATCH {
            let dist = i - (seen - base) as usize;
            write_varint(out, (i - literal_start) as u64);
            out.extend_from_slice(&input[literal_start..i]);
            write_varint(out, match_len as u64);
            write_varint(out, dist as u64);
            // Insert hash entries for a few positions inside the match so later
            // matches can refer into it, then skip ahead.
            let end = i + match_len;
            let mut j = i + 1;
            while j + MIN_MATCH <= input.len() && j < end && j < i + 16 {
                head[hash4(&input[j..])] = stamp(j);
                j += 1;
            }
            i = end;
            literal_start = i;
            misses = 0;
        } else {
            misses += 1;
            i += 1 + (misses >> SKIP_SHIFT);
        }
    }
    literal_start
}

/// Reverse of [`lz_tokenize`]. `expected_len` is the declared output size:
/// the expansion is rejected as soon as it would overrun it, so a corrupt
/// match length cannot balloon the output buffer.
fn lz_detokenize(tokens: &[u8], expected_len: usize) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(expected_len.min(tokens.len().saturating_mul(8).max(64)));
    let mut pos = 0usize;
    loop {
        let lit_len = read_varint(tokens, &mut pos)? as usize;
        let lits = tokens
            .get(pos..pos.saturating_add(lit_len))
            .ok_or(CodecError::UnexpectedEof)?;
        if lit_len > expected_len - out.len() {
            return Err(CodecError::Corrupt("LZR literals overrun declared length"));
        }
        out.extend_from_slice(lits);
        pos += lit_len;
        let match_len = read_varint(tokens, &mut pos)? as usize;
        if match_len == 0 {
            return Ok(out);
        }
        if match_len > expected_len - out.len() {
            return Err(CodecError::Corrupt("LZR match overruns declared length"));
        }
        let dist = read_varint(tokens, &mut pos)? as usize;
        if dist == 0 || dist > out.len() {
            return Err(CodecError::Corrupt("match distance out of range"));
        }
        let start = out.len() - dist;
        // Bulk copy instead of a per-byte loop. Overlapping matches (dist <
        // match_len, e.g. the dist=1 runs that encode zero-filled bitplanes)
        // are expanded by doubling: each pass copies everything written since
        // `start`, so the copied span grows geometrically.
        let mut remaining = match_len;
        while remaining > 0 {
            let avail = out.len() - start;
            let take = avail.min(remaining);
            out.extend_from_within(start..start + take);
            remaining -= take;
        }
    }
}

/// Entropy-stage selection for one buffer — the token stream, or the raw
/// input when matching bought nothing: `Some((mode, stream))` when a coder
/// gets strictly under the store threshold, `None` when the buffer is stored.
/// `huffman_mode` is the mode byte of a Huffman stream where the container
/// has one (token streams); for raw input Huffman only bounds rANS.
///
/// The store threshold keeps the historical 1/8 rule. A coder whose smallest
/// possible stream is already at or over it is settled without running: for
/// one present symbol before looking at the data, then for the number the
/// histogram found. Past that, the one histogram serves every answer —
/// Huffman's exact size, the rANS estimate and encode (rANS must undercut
/// both the threshold and Huffman), and the Huffman encode if that wins.
fn entropy_stage(data: &[u8], rans_mode: u8, huffman_mode: Option<u8>) -> Option<(u8, Vec<u8>)> {
    let n = data.len();
    let threshold = n - n / 8;
    // `(rANS, Huffman)` can still get under the threshold. Empty `data` has
    // threshold 0, under every stream's length.
    let can_fit = |present: usize| {
        (
            threshold > min_stream_len(present),
            huffman_mode.is_some() && threshold > min_byte_stream_len(n, present),
        )
    };
    if can_fit(1) == (false, false) {
        return None;
    }
    let hist = histogram(data);
    let (rans_can_fit, huffman_can_fit) = can_fit(hist.iter().filter(|&&c| c > 0).count());
    if !rans_can_fit && !huffman_can_fit {
        return None;
    }
    let code = SizedByteCode::new(n, &hist);
    if rans_can_fit {
        let limit = threshold.min(code.encoded_len());
        if let Some(encoded) = rans_encode_counted_under(data, &hist, limit) {
            return Some((rans_mode, encoded));
        }
    }
    let mode = huffman_mode?;
    (code.encoded_len() < threshold).then(|| (mode, code.encode(data)))
}

/// Compress a byte buffer with the LZR backend (LZ77 + rANS/Huffman).
///
/// The output is self-describing and starts with the original length so that
/// [`lzr_decompress`] can pre-allocate and validate.
///
/// # Panics
///
/// If `input` is 4 GiB (`u32::MAX` bytes) or longer: match positions and
/// byte counts are kept in `u32` and refuse to wrap silently. Chunk the data.
pub fn lzr_compress(input: &[u8]) -> Vec<u8> {
    crate::assert_input_len(input.len());
    let tokens = lz_tokenize(input);
    // When matching bought nothing (the token stream is no shorter than the
    // input), drop the token framing: entropy-code the raw bytes if that
    // pays (mode 3), otherwise store them verbatim (mode 4). Either way
    // decode skips detokenization — the entropy decoder's output (or a plain
    // copy) is the final data.
    let raw = tokens.len() > input.len();
    let coded = if raw {
        entropy_stage(input, 3, None)
    } else {
        entropy_stage(&tokens, 2, Some(1))
    };
    let (mode, body): (u8, &[u8]) = match &coded {
        Some((mode, encoded)) => (*mode, encoded),
        None if raw => (4, input),
        None => (0, &tokens),
    };
    let mut out = Vec::with_capacity(body.len() + 10);
    write_varint(&mut out, input.len() as u64);
    out.push(mode);
    out.extend_from_slice(body);
    out
}

/// Decompress a buffer produced by [`lzr_compress`].
///
/// This trusts the declared output length (a corrupt stream can make it
/// allocate up to that much); when decoding untrusted bytes prefer
/// [`lzr_decompress_bounded`], which rejects any stream whose declared length
/// exceeds what the caller knows the output must be.
pub fn lzr_decompress(input: &[u8]) -> Result<Vec<u8>> {
    lzr_decompress_bounded(input, usize::MAX)
}

/// [`lzr_decompress`] with an output-size cap: every allocation on the decode
/// path — token buffer, entropy symbol count, output expansion — is bounded
/// by `max_len`, so a corrupt length field costs a small error, not an OOM.
pub fn lzr_decompress_bounded(input: &[u8], max_len: usize) -> Result<Vec<u8>> {
    let mut pos = 0usize;
    let original_len = read_varint(input, &mut pos)? as usize;
    if original_len > max_len {
        return Err(CodecError::Corrupt("LZR declared length exceeds bound"));
    }
    let mode = *input.get(pos).ok_or(CodecError::UnexpectedEof)?;
    pos += 1;
    let body = &input[pos..];
    // The tokenizer never expands its input by more than ~3.3× (literal bytes
    // are bounded by the output, and every match token spends ≥ 4 output
    // bytes to buy at most 11 varint bytes), so any token stream longer than
    // this is corrupt regardless of content.
    let token_cap = original_len.saturating_mul(4).saturating_add(64);
    // Stored-mode bodies are detokenized in place — no defensive copy.
    let decoded;
    let tokens: &[u8] = match mode {
        4 => {
            // Raw stored bytes: the body is the data.
            if body.len() != original_len {
                return Err(CodecError::Corrupt("LZR length mismatch"));
            }
            return Ok(body.to_vec());
        }
        3 => {
            // Raw-byte rANS: the entropy decoder's output is the final data.
            let out = rans_decode_bytes_capped(body, original_len)?;
            if out.len() != original_len {
                return Err(CodecError::Corrupt("LZR length mismatch"));
            }
            return Ok(out);
        }
        2 => {
            decoded = rans_decode_bytes_capped(body, token_cap)?;
            &decoded
        }
        1 => {
            decoded = huffman_decode_bytes_capped(body, token_cap)?;
            &decoded
        }
        0 => body,
        _ => return Err(CodecError::Corrupt("unknown LZR container mode")),
    };
    let out = lz_detokenize(tokens, original_len)?;
    if out.len() != original_len {
        return Err(CodecError::Corrupt("LZR length mismatch"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::huffman::huffman_encode_bytes;
    use proptest::Strategy;
    use rand::{Rng, SeedableRng};

    /// Oracle for [`lz_tokenize`]: the straight-line tokenizer it replaced,
    /// with a fresh `usize::MAX`-filled table per call.
    fn lz_tokenize_fresh_table(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        let mut head = vec![usize::MAX; 1 << HASH_BITS];
        let mut literal_start = 0usize;
        let mut i = 0usize;
        let mut misses = 0usize;
        while i + MIN_MATCH <= input.len() {
            let h = hash4(&input[i..]);
            let candidate = head[h];
            head[h] = i;
            let match_len = if candidate == usize::MAX {
                0
            } else {
                match_len_at(input, candidate, i)
            };
            if match_len >= MIN_MATCH {
                let dist = i - candidate;
                write_varint(&mut out, (i - literal_start) as u64);
                out.extend_from_slice(&input[literal_start..i]);
                write_varint(&mut out, match_len as u64);
                write_varint(&mut out, dist as u64);
                let end = i + match_len;
                let mut j = i + 1;
                while j + MIN_MATCH <= input.len() && j < end && j < i + 16 {
                    head[hash4(&input[j..])] = j;
                    j += 1;
                }
                i = end;
                literal_start = i;
                misses = 0;
            } else {
                misses += 1;
                i += 1 + (misses >> SKIP_SHIFT);
            }
        }
        write_varint(&mut out, (input.len() - literal_start) as u64);
        out.extend_from_slice(&input[literal_start..]);
        write_varint(&mut out, 0);
        out
    }

    /// Oracle for [`lzr_compress`]: the dispatch it replaced, which sizes
    /// Huffman, attempts rANS and attempts Huffman on every buffer — each from
    /// its own histogram — and never reasons about floors.
    fn lzr_compress_all_three(input: &[u8]) -> Vec<u8> {
        let tokens = lz_tokenize_fresh_table(input);
        let raw = tokens.len() > input.len();
        let data = if raw { input } else { &tokens[..] };
        let threshold = data.len() - data.len() / 8;
        let huffman = huffman_encode_bytes(data);
        let limit = threshold.min(huffman.len());
        let rans = (!data.is_empty())
            .then(|| rans_encode_counted_under(data, &histogram(data), limit))
            .flatten();
        let (mode, body) = match rans {
            Some(encoded) => (if raw { 3 } else { 2 }, encoded),
            None if raw => (4, input.to_vec()),
            None if huffman.len() < threshold => (1, huffman),
            None => (0, tokens),
        };
        let mut out = Vec::new();
        write_varint(&mut out, input.len() as u64);
        out.push(mode);
        out.extend_from_slice(&body);
        out
    }

    fn mode_of(stream: &[u8]) -> u8 {
        let mut pos = 0usize;
        read_varint(stream, &mut pos).unwrap();
        stream[pos]
    }

    /// Deterministic corpus behind the golden digests: seven content kinds,
    /// each a 1 MiB buffer whose prefixes give every tested length. Between
    /// them they reach all five container modes.
    fn golden_corpus() -> Vec<(&'static str, Vec<u8>)> {
        const N: usize = 1 << 20;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2025);
        let skewed: Vec<u8> = (0..N)
            .map(|_| {
                if rng.gen_bool(0.9) {
                    0
                } else {
                    rng.gen_range(1..16)
                }
            })
            .collect();
        let random: Vec<u8> = (0..N).map(|_| rng.gen()).collect();
        // Skew without repetition: the match finder comes up empty and the
        // raw bytes are entropy coded (mode 3).
        let dense: Vec<u8> = (0..N)
            .map(|_| {
                let r: f64 = rng.gen();
                (r * r * r * 32.0) as u8 ^ (rng.gen::<u8>() & 1)
            })
            .collect();
        vec![
            ("zero", vec![0u8; N]),
            ("constant", vec![0xA5u8; N]),
            (
                "sparse",
                (0..N)
                    .map(|i| if i % 8 == 3 { 1u8 << ((i / 8) % 8) } else { 0 })
                    .collect(),
            ),
            (
                "period3",
                (0..N).map(|i| [0x11u8, 0x7f, 0xc3][i % 3]).collect(),
            ),
            ("skewed", skewed),
            ("random", random),
            ("dense", dense),
        ]
    }

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    /// `(total bytes, digest)` over the streams of lengths 0..=130, each
    /// folded in as its `u32` length followed by its bytes.
    type SmallDigest = (usize, u64);
    /// `(stream length, digest)` at 4 KiB, 64 KiB and 1 MiB.
    type LargeDigests = [(usize, u64); 3];

    #[test]
    fn compressed_streams_match_golden_digests() {
        // Minted at the commit before the match table became per-thread and
        // the dispatch learned its floors (fresh 512 KB table per call, all
        // three coders sized on every buffer): containers written by either
        // side hold exactly these streams.
        let golden: [(&str, SmallDigest, LargeDigests); 7] = [
            (
                "zero",
                (1032, 0xe1d8_d105_1dc4_44d0),
                [
                    (10, 0x112c_a18f_4be9_78af),
                    (12, 0x2a52_16e7_77ef_d3ea),
                    (63, 0x3d16_233b_9468_a4dc),
                ],
            ),
            (
                "constant",
                (1032, 0x8a4a_6f50_2044_82a8),
                [
                    (10, 0xe32c_d2b2_da20_7596),
                    (12, 0xa21d_63c1_020e_3dc9),
                    (66, 0xdd8a_c213_5385_c718),
                ],
            ),
            (
                "sparse",
                (4968, 0xcbc7_87b6_7d9b_ca21),
                [
                    (54, 0xca13_c491_77cc_e6f6),
                    (65, 0x1f9f_3d37_80bd_2b78),
                    (89, 0xe257_1dc7_29eb_c91e),
                ],
            ),
            (
                "period3",
                (1277, 0x958a_4a9e_6fa2_3909),
                [
                    (12, 0xa6c9_36fb_91f7_68a6),
                    (14, 0x52ef_ce9a_3b9c_79b1),
                    (73, 0xbe13_6a18_30dc_9732),
                ],
            ),
            (
                "skewed",
                (6026, 0xc1e5_5e35_692f_ac5d),
                [
                    (1404, 0xbe9d_f223_50d6_129f),
                    (16685, 0x3768_492a_3935_00f3),
                    (260578, 0xae78_6f99_803f_8bb8),
                ],
            ),
            (
                "random",
                (8780, 0xd080_ba2e_f59f_e87a),
                [
                    (4099, 0x063e_5b6c_9d5c_a618),
                    (65540, 0x6007_d836_8668_3e3f),
                    (1_048_580, 0xd095_d781_ccb4_34f6),
                ],
            ),
            (
                "dense",
                (8780, 0xbc21_7ae7_1d89_b881),
                [
                    (2725, 0x1f3c_fda1_d953_86f0),
                    (34617, 0x3aa5_6b33_6bb8_5714),
                    (552_693, 0x7e65_f328_6654_4fdf),
                ],
            ),
        ];
        let mut modes = [false; 5];
        for ((name, buf), (want_name, want_small, want_large)) in
            golden_corpus().into_iter().zip(golden)
        {
            assert_eq!(name, want_name);
            let mut small = (0usize, FNV_OFFSET);
            for n in 0..=130usize {
                let enc = lzr_compress(&buf[..n]);
                // The oracle names the first diverging length; the digest
                // below is what ties both to the parent's bytes.
                assert_eq!(enc, lzr_compress_all_three(&buf[..n]), "{name} len={n}");
                modes[mode_of(&enc) as usize] = true;
                small.0 += enc.len();
                small.1 = fnv1a(small.1, &(enc.len() as u32).to_le_bytes());
                small.1 = fnv1a(small.1, &enc);
            }
            assert_eq!(small, want_small, "{name} lengths 0..=130");
            for (n, want) in [4096usize, 65536, 1 << 20].into_iter().zip(want_large) {
                let enc = lzr_compress(&buf[..n]);
                assert_eq!((enc.len(), fnv1a(FNV_OFFSET, &enc)), want, "{name} len={n}");
                assert_eq!(lzr_decompress(&enc).unwrap(), &buf[..n]);
                modes[mode_of(&enc) as usize] = true;
            }
        }
        assert_eq!(modes, [true; 5], "corpus reaches every container mode");
    }

    #[test]
    fn forged_huffman_table_with_a_57_bit_code_is_refused() {
        // A mode-1 stream whose table declares a code longer than any writer
        // can produce: refused at parse time, not decoded bit by bit.
        let mut huffman = Vec::new();
        write_varint(&mut huffman, 1); // one symbol
        write_varint(&mut huffman, 2); // two table entries
        huffman.extend_from_slice(&[0, 1, 1, 57]);
        write_varint(&mut huffman, 8);
        huffman.extend_from_slice(&[0; 8]);
        let mut stream = Vec::new();
        write_varint(&mut stream, 1);
        stream.push(1);
        stream.extend_from_slice(&huffman);
        assert_eq!(
            lzr_decompress_bounded(&stream, 1 << 10),
            Err(CodecError::Corrupt("invalid code length"))
        );
    }

    #[test]
    fn table_survives_the_stamp_wrap() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(41);
        let inputs: Vec<Vec<u8>> = (0..12)
            .map(|k| (0..20 + 7 * k).map(|_| rng.gen_range(0u8..3)).collect())
            .collect();
        for input in &inputs {
            assert_eq!(lz_tokenize(input), lz_tokenize_fresh_table(input));
        }
        // Park the numbering a few bytes under u32::MAX: the first inputs
        // still fit their window, the next one forces the zero-and-restart,
        // and the stale high stamps it leaves behind must read as absent.
        MATCH_TABLE.with(|t| t.borrow_mut().next_base = u32::MAX - 60);
        for input in &inputs {
            assert_eq!(lz_tokenize(input), lz_tokenize_fresh_table(input));
        }
        let restarted = MATCH_TABLE.with(|t| t.borrow().next_base);
        assert!(restarted < 1 << 16, "numbering restarted: {restarted}");
        // The last window that fits ends exactly at u32::MAX.
        MATCH_TABLE.with(|t| t.borrow_mut().next_base = u32::MAX - inputs[3].len() as u32);
        assert_eq!(lz_tokenize(&inputs[3]), lz_tokenize_fresh_table(&inputs[3]));
        assert_eq!(MATCH_TABLE.with(|t| t.borrow().next_base), u32::MAX);
        assert_eq!(lz_tokenize(&inputs[4]), lz_tokenize_fresh_table(&inputs[4]));
        assert_eq!(
            MATCH_TABLE.with(|t| t.borrow().next_base),
            1 + inputs[4].len() as u32
        );
    }

    #[test]
    fn short_inputs_never_touch_the_table() {
        let before = MATCH_TABLE.with(|t| t.borrow().next_base);
        for data in [&[][..], &[1u8][..], &[1, 2, 3][..]] {
            assert_eq!(lz_tokenize(data), lz_tokenize_fresh_table(data));
        }
        assert_eq!(MATCH_TABLE.with(|t| t.borrow().next_base), before);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "4 GiB")]
    fn input_at_the_u32_limit_is_refused_by_name() {
        crate::assert_input_len(u32::MAX as usize);
    }

    #[test]
    fn dispatch_floors_agree_with_sizing_all_three() {
        // Every length on both sides of each floor, for the shapes tiny
        // bitplane chunks take: match-free bytes over alphabets of every size
        // (raw branch, rANS floor per present-symbol count) and a literal
        // prefix of every length ahead of a zero run (token branch, Huffman
        // and rANS floors; prefix 0 is the all-zero input).
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(23);
        let mut inputs: Vec<Vec<u8>> = Vec::new();
        for len in 0..=130usize {
            inputs.push(vec![0u8; len]);
            for alphabet in [4usize, 8, 12, 16, 20, 24, 32, 256] {
                inputs.push((0..len).map(|_| rng.gen_range(0..alphabet) as u8).collect());
            }
        }
        for prefix in 0..=64usize {
            for alphabet in [2u8, 16, 255] {
                for run in [40usize, 200] {
                    let mut v: Vec<u8> = (0..prefix).map(|_| rng.gen_range(1..=alphabet)).collect();
                    v.resize(prefix + run, 0);
                    inputs.push(v);
                }
            }
        }
        // (raw branch?, rANS floor?, floor taken at one present symbol?,
        // threshold − floor) for every threshold at a floor or one over it.
        let mut seen = std::collections::BTreeSet::new();
        for input in &inputs {
            let got = lzr_compress(input);
            assert_eq!(got, lzr_compress_all_three(input), "len={}", input.len());
            assert_eq!(lzr_decompress(&got).unwrap(), *input);
            let tokens = lz_tokenize_fresh_table(input);
            let raw = tokens.len() > input.len();
            let data = if raw { input } else { &tokens };
            let n = data.len();
            let threshold = n - n / 8;
            let present = histogram(data).iter().filter(|&&c| c > 0).count();
            for (blind, present) in [(true, 1), (false, present)] {
                for (rans, floor) in [
                    (true, min_stream_len(present)),
                    (false, min_byte_stream_len(n, present)),
                ] {
                    if threshold == floor || threshold == floor + 1 {
                        seen.insert((raw, rans, blind, threshold - floor));
                    }
                }
            }
        }
        for (raw, rans) in [(true, true), (false, true), (false, false)] {
            for blind in [true, false] {
                for over in [0, 1] {
                    let case = (raw, rans, blind, over);
                    assert!(seen.contains(&case), "no input at {case:?}");
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// The reused table yields the fresh-table tokens whatever unrelated
        /// inputs dirtied it before — in either order, and on a thread whose
        /// table is new.
        #[test]
        fn prop_reused_table_matches_fresh_table(
            inputs in proptest::collection::vec(
                // One-, two- and eight-bit alphabets: long matches, short
                // matches and (almost) none.
                (0usize..3, proptest::collection::vec(proptest::any::<u8>(), 0..700))
                    .prop_map(|(kind, bytes)| -> Vec<u8> {
                        bytes.iter().map(|b| b & [0x01, 0x03, 0xFF][kind]).collect()
                    }),
                1..6,
            ),
        ) {
            let want: Vec<Vec<u8>> = inputs.iter().map(|x| lz_tokenize_fresh_table(x)).collect();
            for (x, w) in inputs.iter().zip(&want) {
                proptest::prop_assert_eq!(&lz_tokenize(x), w);
            }
            for (x, w) in inputs.iter().zip(&want).rev() {
                proptest::prop_assert_eq!(&lz_tokenize(x), w);
            }
            let elsewhere: Vec<Vec<u8>> = std::thread::scope(|s| {
                s.spawn(|| inputs.iter().rev().map(|x| lz_tokenize(x)).collect())
                    .join()
                    .expect("tokenizer thread")
            });
            for (got, w) in elsewhere.iter().zip(want.iter().rev()) {
                proptest::prop_assert_eq!(got, w);
            }
        }
    }

    #[test]
    fn roundtrip_empty_and_tiny() {
        for data in [&[][..], &[1u8][..], &[1, 2, 3][..]] {
            let enc = lzr_compress(data);
            assert_eq!(lzr_decompress(&enc).unwrap(), data);
        }
    }

    #[test]
    fn roundtrip_repetitive_and_compresses() {
        let data: Vec<u8> = b"scientific data reduction "
            .iter()
            .copied()
            .cycle()
            .take(100_000)
            .collect();
        let enc = lzr_compress(&data);
        assert_eq!(lzr_decompress(&enc).unwrap(), data);
        assert!(
            enc.len() < data.len() / 10,
            "repetitive data should compress >10x, got {} -> {}",
            data.len(),
            enc.len()
        );
    }

    #[test]
    fn roundtrip_all_zero() {
        let data = vec![0u8; 1 << 18];
        let enc = lzr_compress(&data);
        assert!(enc.len() < 2048);
        assert_eq!(lzr_decompress(&enc).unwrap(), data);
    }

    #[test]
    fn roundtrip_random_bytes() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let data: Vec<u8> = (0..50_000).map(|_| rng.gen()).collect();
        let enc = lzr_compress(&data);
        assert_eq!(lzr_decompress(&enc).unwrap(), data);
        // Random data cannot shrink, but expansion must stay modest.
        assert!(enc.len() < data.len() + data.len() / 8 + 64);
    }

    #[test]
    fn roundtrip_structured_floats() {
        // Bit patterns of a smooth field: typical compressor intermediate data.
        let values: Vec<f64> = (0..20_000).map(|i| (i as f64 * 0.001).sin()).collect();
        let data: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let enc = lzr_compress(&data);
        assert_eq!(lzr_decompress(&enc).unwrap(), data);
    }

    #[test]
    fn overlapping_match_copies_correctly() {
        // "aaaaa..." forces dist=1 matches that overlap the output being built.
        let data = vec![b'a'; 1000];
        let enc = lzr_compress(&data);
        assert_eq!(lzr_decompress(&enc).unwrap(), data);
    }

    #[test]
    fn compressible_streams_pick_rans() {
        // Mild skew that still dodges long matches: the entropy stage (not the
        // match finder) must be doing the work, and rANS should win it.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let data: Vec<u8> = (0..40_000)
            .map(|_| {
                let r: f64 = rng.gen();
                (r * r * r * 32.0) as u8 ^ (rng.gen::<u8>() & 1)
            })
            .collect();
        let enc = lzr_compress(&data);
        let mut pos = 0usize;
        read_varint(&enc, &mut pos).unwrap();
        assert!(
            enc[pos] == 2 || enc[pos] == 3,
            "skewed input should entropy-code as rANS, got mode {}",
            enc[pos]
        );
        assert_eq!(lzr_decompress(&enc).unwrap(), data);
    }

    #[test]
    fn corrupt_stream_detected() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let mut enc = lzr_compress(&data);
        let mid = enc.len() / 2;
        enc[mid] ^= 0xFF;
        // Either an error or a wrong-length result; it must not panic.
        if let Ok(out) = lzr_decompress(&enc) {
            assert_ne!(out, data)
        }
    }

    #[test]
    fn truncated_stream_errors() {
        let data = vec![42u8; 10_000];
        let enc = lzr_compress(&data);
        assert!(lzr_decompress(&enc[..4]).is_err());
    }

    #[test]
    fn bounded_decode_rejects_oversized_length_claims() {
        let data = vec![5u8; 4096];
        let enc = lzr_compress(&data);
        assert_eq!(lzr_decompress_bounded(&enc, 4096).unwrap(), data);
        assert!(matches!(
            lzr_decompress_bounded(&enc, 4095),
            Err(CodecError::Corrupt(_))
        ));
        // A forged huge length varint errors instead of allocating.
        let mut forged = Vec::new();
        write_varint(&mut forged, u64::MAX / 2);
        forged.push(0);
        forged.extend_from_slice(&[0, 0]);
        assert!(lzr_decompress_bounded(&forged, 1 << 20).is_err());
    }

    #[test]
    fn corrupt_match_length_cannot_balloon_output() {
        // Hand-built stored-mode stream: declares 100 output bytes but asks a
        // match to expand far beyond them.
        let mut tokens = Vec::new();
        write_varint(&mut tokens, 4);
        tokens.extend_from_slice(&[1, 2, 3, 4]);
        write_varint(&mut tokens, 1 << 40); // absurd match length
        write_varint(&mut tokens, 2);
        let mut stream = Vec::new();
        write_varint(&mut stream, 100);
        stream.push(0);
        stream.extend_from_slice(&tokens);
        assert!(matches!(
            lzr_decompress(&stream),
            Err(CodecError::Corrupt(_))
        ));
    }
}
