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
//! `0` = stored token stream, `1` = canonical Huffman over tokens (the PR 1
//! stage, still read for version-1 containers), `2` = interleaved rANS over
//! tokens ([`crate::rans`]), `3` = rANS over the *raw input bytes*, `4` = the
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

use crate::huffman::{
    huffman_decode_bytes_capped, huffman_encode_bytes_under, huffman_encoded_bytes_size,
};
use crate::rans::{rans_decode_bytes_capped, rans_encode_bytes_under};
use crate::varint::{read_varint, write_varint};
use crate::{CodecError, Result};

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
/// when the candidate is unusable (absent or beyond the window).
#[inline]
fn match_len_at(input: &[u8], candidate: usize, i: usize) -> usize {
    if candidate == usize::MAX || i - candidate > WINDOW {
        return 0;
    }
    let max_len = (input.len() - i).min(MAX_MATCH);
    let mut l = 0usize;
    while l < max_len && input[candidate + l] == input[i + l] {
        l += 1;
    }
    l
}

/// Produce the raw LZ77 token stream for `input` (no entropy stage).
fn lz_tokenize(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut literal_start = 0usize;
    let mut i = 0usize;

    // LZ4-style acceleration: every `2^SKIP_SHIFT` consecutive positions
    // without a match widen the scan step by one byte, so incompressible
    // stretches (dense low-order bitplanes are essentially random bits) are
    // skimmed instead of hashed byte by byte. A hit resets the step to 1.
    let mut misses = 0usize;

    while i + MIN_MATCH <= input.len() {
        let h = hash4(&input[i..]);
        let candidate = head[h];
        head[h] = i;
        let match_len = match_len_at(input, candidate, i);

        if match_len >= MIN_MATCH {
            let dist = i - candidate;
            write_varint(&mut out, (i - literal_start) as u64);
            out.extend_from_slice(&input[literal_start..i]);
            write_varint(&mut out, match_len as u64);
            write_varint(&mut out, dist as u64);
            // Insert hash entries for a few positions inside the match so later
            // matches can refer into it, then skip ahead.
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

    // Trailing literals + terminator.
    write_varint(&mut out, (input.len() - literal_start) as u64);
    out.extend_from_slice(&input[literal_start..]);
    write_varint(&mut out, 0); // match_len = 0 terminator
    out
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

/// Entropy-stage selection: `(mode byte, encoded bytes)` for a token stream.
///
/// All three candidates are sized before any expensive work: the store
/// threshold keeps the historical 1/8 rule, Huffman's exact size comes from
/// the histogram alone, and rANS runs only when its estimate can undercut the
/// better of the two (its final size check is exact).
fn entropy_stage(tokens: Vec<u8>) -> (u8, Vec<u8>) {
    let threshold = tokens.len() - tokens.len() / 8;
    let huffman_size = huffman_encoded_bytes_size(&tokens);
    if let Some(encoded) = rans_encode_bytes_under(&tokens, threshold.min(huffman_size)) {
        return (2, encoded);
    }
    if let Some(encoded) = huffman_encode_bytes_under(&tokens, threshold) {
        return (1, encoded);
    }
    (0, tokens)
}

/// Compress a byte buffer with the LZR backend (LZ77 + rANS/Huffman).
///
/// The output is self-describing and starts with the original length so that
/// [`lzr_decompress`] can pre-allocate and validate.
pub fn lzr_compress(input: &[u8]) -> Vec<u8> {
    let tokens = lz_tokenize(input);
    // When matching bought nothing (the token stream is no shorter than the
    // input), drop the token framing: entropy-code the raw bytes if that
    // pays (mode 3), otherwise store them verbatim (mode 4). Either way
    // decode skips detokenization — the entropy decoder's output (or a plain
    // copy) is the final data.
    let (mode, body) = if tokens.len() > input.len() {
        let threshold = input.len() - input.len() / 8;
        match rans_encode_bytes_under(input, threshold.min(huffman_encoded_bytes_size(input))) {
            Some(encoded) => (3u8, encoded),
            None => (4u8, input.to_vec()),
        }
    } else {
        entropy_stage(tokens)
    };
    let mut out = Vec::with_capacity(body.len() + 10);
    write_varint(&mut out, input.len() as u64);
    out.push(mode);
    out.extend_from_slice(&body);
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
    use rand::{Rng, SeedableRng};

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
        let data = crate::byteio::f64_slice_to_bytes(&values);
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
