//! Word-parallel bitplane slicing via 64×64 bit-matrix transposition, plus
//! plane-count-specialized scatter kernels for the decode path.
//!
//! The bitplane coder views a batch of `u64` code words as a bit matrix: row `i`
//! is coefficient `i`, column `p` is bitplane `p`. Slicing planes out of that
//! matrix one bit at a time costs O(n · planes) shift/mask/branch operations; a
//! 64×64 bit transpose does the same job 64 coefficients at a time with
//! word-wide XORs, turning plane extraction into a handful of operations per
//! *word* instead of per *bit*.
//!
//! # Scatter kernels
//!
//! The decode direction — scattering packed plane byte streams back into
//! per-coefficient accumulator words — historically reused the same full
//! 64×64 transpose per 64-coefficient block *regardless of how many planes
//! were actually loaded*, which made the scatter stage the decode bottleneck
//! (a coarse retrieval loading 8 of 48 planes still paid for 64). The
//! [`scatter_planes`] entry point instead dispatches on the live plane count:
//!
//! * **1–8, 9–16, 17–32 planes** — the grouped kernel processes live planes
//!   in groups of 8 through an 8×8 byte-matrix transpose
//!   (Hacker's Delight §7-2), touching only live plane words and skipping
//!   all-zero groups (sparse high planes cost almost nothing).
//! * **33–64 planes** — the full 64×64 transpose, which is already
//!   near-optimal when most rows are live.
//! * An **AVX2 variant** of the grouped kernel (bit-expand via
//!   `shuffle`/`cmpeq`, byte-widen via `cvtepu8_epi64`) is compiled on every
//!   x86_64 build and selected at runtime when the CPU reports AVX2; the
//!   portable kernels remain compiled and tested unconditionally and are the
//!   only path on other architectures.
//!
//! Conventions used throughout:
//!
//! * **Coefficient words** store plane `p` of a coefficient at bit `p`
//!   (least-significant bit = plane 0), exactly as produced by
//!   [`crate::negabinary::to_negabinary`].
//! * **Plane words** pack 64 coefficients MSB-first: coefficient `i` of the
//!   block sits at bit `63 - i`, so `u64::to_be_bytes` yields the byte layout of
//!   [`crate::bitstream::BitWriter`] (coefficient `8k` at the MSB of byte `k`).
//!   Within the transposed block, plane `p` lives at row [`plane_row`]`(p)`.
//! * **Packed plane bytes** are the serialized form of plane words: byte `k`
//!   covers coefficients `8k..8k+8`, coefficient `8k` at the byte's MSB.

/// Row index of plane `p` in the output of [`transpose_64x64`] when the input
/// rows are coefficient words in block order.
#[inline(always)]
pub const fn plane_row(p: usize) -> usize {
    63 - p
}

/// In-place 64×64 bit-matrix transpose (Hacker's Delight §7-3, widened to 64).
///
/// Treating element `(r, c)` as bit `63 - c` of `a[r]`, the array is replaced by
/// its transpose: afterwards bit `63 - c` of `a[r]` equals bit `63 - r` of the
/// original `a[c]`. The operation is an involution.
#[inline]
pub fn transpose_64x64(a: &mut [u64; 64]) {
    let mut j: u32 = 32;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k: usize = 0;
        while k < 64 {
            let t = (a[k] ^ (a[k + j as usize] >> j)) & m;
            a[k] ^= t;
            a[k + j as usize] ^= t << j;
            k = (k + j as usize + 1) & !(j as usize);
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Slice packed coefficient words into per-plane MSB-first byte streams.
///
/// Returns `num_planes` buffers of `ceil(words.len() / 8)` bytes; buffer `p`
/// holds bit `p` of every coefficient in order, bit-identical to writing those
/// bits one at a time through [`crate::bitstream::BitWriter`] (including the
/// zero padding of the final byte).
///
/// The per-block 64×64 transpose dispatches to an AVX2 variant under the
/// same runtime detection as the scatter kernels; output bytes are identical
/// on every path.
pub fn slice_planes(words: &[u64], num_planes: usize) -> Vec<Vec<u8>> {
    assert!(num_planes <= 64, "a u64 word has at most 64 planes");
    let n = words.len();
    let plane_len = n.div_ceil(8);
    let mut planes = vec![vec![0u8; plane_len]; num_planes];
    let use_avx2 = avx2_available();
    for (b, block) in words.chunks(64).enumerate() {
        let mut m = [0u64; 64];
        m[..block.len()].copy_from_slice(block);
        #[cfg(target_arch = "x86_64")]
        if use_avx2 {
            // SAFETY: AVX2 support verified by `avx2_available`.
            unsafe { avx2::transpose_64x64_avx2(&mut m) };
        } else {
            transpose_64x64(&mut m);
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = use_avx2;
            transpose_64x64(&mut m);
        }
        let base = b * 8;
        let nbytes = (plane_len - base).min(8);
        for (p, plane) in planes.iter_mut().enumerate() {
            let bytes = m[plane_row(p)].to_be_bytes();
            plane[base..base + nbytes].copy_from_slice(&bytes[..nbytes]);
        }
    }
    planes
}

// ---- encode-side gather kernels ---------------------------------------------

/// Extract planes `[plane_lo, plane_lo + count)` of packed coefficient words
/// as per-plane packed words: `out[j][b]` holds plane `plane_lo + j` of
/// coefficients `64b..64b+64`, coefficient `i` of the block at bit
/// `63 - (i % 64)` (the [`PlaneBlock::plane`] convention).
///
/// This is the few-planes gather the decode pipeline's refinement prefix
/// extraction needs: where a full [`PlaneBlock::gather`] transpose pays for
/// all 64 planes, this touches only the requested ones — a direct bit loop
/// portably, a shift + `movemask` sweep under AVX2 (runtime-detected;
/// bit-identical by the shared tests).
pub fn gather_plane_words(words: &[u64], plane_lo: usize, count: usize) -> Vec<Vec<u64>> {
    assert!(plane_lo + count <= 64, "plane range exceeds a 64-bit word");
    let n_blocks = words.len().div_ceil(64);
    let mut out = vec![vec![0u64; n_blocks]; count];
    if count == 0 || words.is_empty() {
        return out;
    }
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 support verified by `avx2_available`.
        unsafe { avx2::gather_plane_words_avx2(words, plane_lo, &mut out) };
        return out;
    }
    gather_plane_words_portable(words, plane_lo, &mut out);
    out
}

/// Portable gather: one bit test per (word, plane).
fn gather_plane_words_portable(words: &[u64], plane_lo: usize, out: &mut [Vec<u64>]) {
    for (b, block) in words.chunks(64).enumerate() {
        for (i, &w) in block.iter().enumerate() {
            for (j, plane) in out.iter_mut().enumerate() {
                plane[b] |= ((w >> (plane_lo + j)) & 1) << (63 - i);
            }
        }
    }
}

/// One 64-coefficient block in plane-major form, for word-parallel per-plane
/// arithmetic (XOR prediction and the like) before scattering back.
#[derive(Debug, Clone)]
pub struct PlaneBlock {
    /// `rows[plane_row(p)]` holds plane `p`; coefficient `i` sits at bit `63-i`.
    rows: [u64; 64],
    /// Number of valid coefficients in this block (1..=64).
    len: usize,
}

impl PlaneBlock {
    /// Gather a block of up to 64 coefficient words into plane-major form.
    pub fn gather(block: &[u64]) -> Self {
        assert!(!block.is_empty() && block.len() <= 64);
        let mut rows = [0u64; 64];
        rows[..block.len()].copy_from_slice(block);
        transpose_64x64(&mut rows);
        Self {
            rows,
            len: block.len(),
        }
    }

    /// Plane `p` of the block as a packed word (coefficient `i` at bit `63-i`).
    #[inline(always)]
    pub fn plane(&self, p: usize) -> u64 {
        self.rows[plane_row(p)]
    }

    /// Scatter the block back into coefficient words.
    pub fn scatter(mut self, block: &mut [u64]) {
        assert_eq!(block.len(), self.len);
        transpose_64x64(&mut self.rows);
        block.copy_from_slice(&self.rows[..self.len]);
    }
}

// ---- plane-count-specialized scatter kernels --------------------------------

/// Whether this CPU supports the AVX2 kernels (x86_64 only).
fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Scatter packed plane byte streams into coefficient accumulator words.
///
/// `planes[j]` holds the packed bytes of plane `plane_lo + j` for this span of
/// coefficients (byte `k` covers coefficients `8k..8k+8`, coefficient `8k` at
/// the MSB); each stream must hold at least `out.len().div_ceil(8)` bytes.
/// Bit `plane_lo + j` of `out[i]` is OR-ed with coefficient `i`'s bit of
/// plane `j` — identical to gathering the block, OR-ing rows, and
/// re-transposing, but the kernel is chosen by live plane count (see module
/// docs) instead of always paying the full 64×64 transpose.
///
/// # Panics
///
/// Panics if `plane_lo + planes.len() > 64` or a plane stream is shorter than
/// the span requires.
pub fn scatter_planes(planes: &[&[u8]], plane_lo: usize, out: &mut [u64]) {
    assert!(
        plane_lo + planes.len() <= 64,
        "plane range exceeds a 64-bit word"
    );
    if planes.is_empty() || out.is_empty() {
        return;
    }
    let need = out.len().div_ceil(8);
    for p in planes {
        assert!(
            p.len() >= need,
            "plane stream shorter than coefficient span"
        );
    }
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 support verified by `avx2_available`.
        unsafe { avx2::scatter_planes_avx2(planes, plane_lo, out) };
        return;
    }
    scatter_planes_portable(planes, plane_lo, out)
}

/// Portable dispatch: grouped kernel while ≤ 32 planes are live (1–8, 9–16,
/// 17–32 plane buckets are 1, 2, and 4 group passes), full transpose above
/// that — with most rows live the dense kernel's fixed cost wins.
fn scatter_planes_portable(planes: &[&[u8]], plane_lo: usize, out: &mut [u64]) {
    if planes.len() <= 32 {
        scatter_planes_grouped(planes, plane_lo, out);
    } else {
        scatter_planes_generic(planes, plane_lo, out);
    }
}

/// The dense scatter: gather every block's live planes into a 64×64 matrix
/// and transpose, whatever the live count. Also the oracle the specialized
/// kernels are tested against.
fn scatter_planes_generic(planes: &[&[u8]], plane_lo: usize, out: &mut [u64]) {
    for (b, block) in out.chunks_mut(64).enumerate() {
        let base = b * 8;
        let mut rows = [0u64; 64];
        for (j, p) in planes.iter().enumerate() {
            rows[plane_row(plane_lo + j)] = load_word_be(p, base);
        }
        transpose_64x64(&mut rows);
        for (word, row) in block.iter_mut().zip(rows.iter()) {
            *word |= row;
        }
    }
}

/// Load up to 8 packed plane bytes starting at `base` as an MSB-first word,
/// zero-padding past the end of the stream (ragged final block).
#[inline(always)]
fn load_word_be(p: &[u8], base: usize) -> u64 {
    if p.len() >= base + 8 {
        u64::from_be_bytes(p[base..base + 8].try_into().expect("8-byte slice"))
    } else if base >= p.len() {
        0
    } else {
        let mut bytes = [0u8; 8];
        bytes[..p.len() - base].copy_from_slice(&p[base..]);
        u64::from_be_bytes(bytes)
    }
}

/// 8×8 bit-matrix transpose (Hacker's Delight §7-2): viewing `x` as 8 rows of
/// 8 bits, row `r` in byte `7 - r` (MSB byte = row 0) and column `c` at bit
/// `7 - c` within its byte, the result is the transposed matrix.
#[inline(always)]
fn transpose8(mut x: u64) -> u64 {
    let mut t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^= t ^ (t << 28);
    x
}

/// Grouped portable kernel: live planes in groups of 8, one 8×8 transpose per
/// group per 8 coefficients. All-zero groups (common in sparse high planes)
/// skip the transpose and the output writes entirely. Groups iterate *inside*
/// the coefficient loop so each accumulator word is touched exactly once.
fn scatter_planes_grouped(planes: &[&[u8]], plane_lo: usize, out: &mut [u64]) {
    let n_groups = planes.len().div_ceil(8);
    for (i, chunk) in out.chunks_mut(8).enumerate() {
        for g in 0..n_groups {
            let group = &planes[g * 8..(g * 8 + 8).min(planes.len())];
            // Row 7-j (byte j) holds plane j, so the transposed byte for
            // coefficient t carries plane j at bit j.
            let mut x = 0u64;
            for (j, p) in group.iter().enumerate() {
                x |= (p[i] as u64) << (8 * j);
            }
            if x == 0 {
                continue;
            }
            let y = transpose8(x);
            let shift = plane_lo + g * 8;
            for (t, word) in chunk.iter_mut().enumerate() {
                *word |= ((y >> (8 * (7 - t))) & 0xFF) << shift;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2 grouped scatter: expand each live plane's bits into a lane-per-
    //! coefficient byte mask (`shuffle_epi8` + `cmpeq_epi8`), OR the group's
    //! planes together at their in-byte bit positions, then widen the 32
    //! coefficient bytes to `u64` lanes (`cvtepu8_epi64`) and OR them into
    //! the accumulators at the group's plane shift.
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// Callers outside this module verify AVX2 at runtime: calling a
    /// `#[target_feature]` fn from code without the feature is `unsafe`.
    #[target_feature(enable = "avx2")]
    pub(super) fn scatter_planes_avx2(planes: &[&[u8]], plane_lo: usize, out: &mut [u64]) {
        // Byte lane l of a 256-bit vector wants byte l/8 of the group's
        // 4-byte coefficient window; shuffle_epi8 indexes within 128-bit
        // halves, so the second half selects bytes 2 and 3.
        let idx = _mm256_setr_epi8(
            0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, //
            2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3,
        );
        // Lane l selects bit 7 - (l % 8): packed plane bytes are MSB-first.
        let bits = {
            let one_byte: [i8; 8] = [1 << 7, 1 << 6, 1 << 5, 1 << 4, 1 << 3, 1 << 2, 1 << 1, 1];
            let mut pattern = [0i8; 32];
            for (l, b) in pattern.iter_mut().enumerate() {
                *b = one_byte[l % 8];
            }
            // SAFETY: `pattern` is 32 bytes, and `loadu` takes any alignment.
            unsafe { _mm256_loadu_si256(pattern.as_ptr() as *const __m256i) }
        };
        let n = out.len();
        let full_spans = n / 32;
        let n_groups = planes.len().div_ceil(8);
        for s in 0..full_spans {
            let byte_base = s * 4;
            for g in 0..n_groups {
                let group = &planes[g * 8..(g * 8 + 8).min(planes.len())];
                let mut acc = _mm256_setzero_si256();
                let mut any = 0u32;
                for (j, p) in group.iter().enumerate() {
                    let w = u32::from_le_bytes(
                        p[byte_base..byte_base + 4].try_into().expect("4 bytes"),
                    );
                    any |= w;
                    if w == 0 {
                        continue;
                    }
                    let v = _mm256_set1_epi32(w as i32);
                    let spread = _mm256_shuffle_epi8(v, idx);
                    let m = _mm256_cmpeq_epi8(_mm256_and_si256(spread, bits), bits);
                    let plane_bit = _mm256_set1_epi8((1u8 << j) as i8);
                    acc = _mm256_or_si256(acc, _mm256_and_si256(m, plane_bit));
                }
                if any == 0 {
                    continue;
                }
                // Widen the 32 coefficient bytes to u64 lanes and OR into the
                // accumulators at this group's plane shift (a runtime value,
                // so the shift count travels through an xmm register).
                let shift = _mm_cvtsi32_si128((plane_lo + g * 8) as i32);
                let mut lanes = [0u8; 32];
                // SAFETY: `lanes` is 32 bytes, and `storeu` takes any alignment.
                unsafe { _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc) };
                let base = s * 32;
                for q in 0..8 {
                    let four =
                        i32::from_le_bytes(lanes[q * 4..q * 4 + 4].try_into().expect("4 bytes"));
                    let quad = _mm_cvtsi32_si128(four);
                    let wide = _mm256_sll_epi64(_mm256_cvtepu8_epi64(quad), shift);
                    let dst = out[base + q * 4..].as_mut_ptr() as *mut __m256i;
                    // SAFETY: words `base + q·4 .. base + q·4 + 4` lie inside
                    // the span's 32, which `full_spans` keeps inside `out`.
                    unsafe {
                        _mm256_storeu_si256(dst, _mm256_or_si256(_mm256_loadu_si256(dst), wide));
                    }
                }
            }
        }
        // Ragged tail (< 32 coefficients): portable grouped kernel on the
        // remaining bytes.
        let done = full_spans * 32;
        if done < n {
            let tail: Vec<&[u8]> = planes.iter().map(|p| &p[done / 8..]).collect();
            super::scatter_planes_grouped(&tail, plane_lo, &mut out[done..]);
        }
    }

    /// Bit-reversal of a 4-bit value: `movemask` yields lane 0 at bit 0, but
    /// packed plane words want coefficient 0 at the high end.
    const REV4: [u64; 16] = [
        0b0000, 0b1000, 0b0100, 0b1100, 0b0010, 0b1010, 0b0110, 0b1110, //
        0b0001, 0b1001, 0b0101, 0b1101, 0b0011, 0b1011, 0b0111, 0b1111,
    ];

    /// AVX2 gather: shift plane `p` into each lane's sign bit, then a
    /// `movemask_pd` harvests 4 coefficients' bits per instruction. The
    /// coefficient loop is outside the plane loop so each 4-word vector is
    /// loaded once and swept across all requested planes.
    ///
    /// Callers outside this module verify AVX2 at runtime, as for
    /// [`scatter_planes_avx2`].
    #[target_feature(enable = "avx2")]
    pub(super) fn gather_plane_words_avx2(words: &[u64], plane_lo: usize, out: &mut [Vec<u64>]) {
        for (b, block) in words.chunks(64).enumerate() {
            let full = block.len() / 4;
            for g in 0..full {
                // SAFETY: words `4g .. 4g + 4` lie inside `block`, as
                // `g < full = block.len() / 4`.
                let v = unsafe { _mm256_loadu_si256(block.as_ptr().add(g * 4) as *const __m256i) };
                let hi = 63 - 4 * g; // coefficient 4g sits at bit 63 - 4g
                for (j, plane) in out.iter_mut().enumerate() {
                    let shift = _mm_cvtsi32_si128((63 - (plane_lo + j)) as i32);
                    let m = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_sll_epi64(v, shift)));
                    plane[b] |= REV4[m as usize] << (hi - 3);
                }
            }
            // Ragged block tail (< 4 words): portable bit loop.
            for (i, &w) in block.iter().enumerate().skip(full * 4) {
                for (j, plane) in out.iter_mut().enumerate() {
                    plane[b] |= ((w >> (plane_lo + j)) & 1) << (63 - i);
                }
            }
        }
    }

    /// AVX2 64×64 bit-matrix transpose: the four wide rounds (`j` = 32, 16,
    /// 8, 4) pair rows four at a time with 256-bit shift/mask/XOR; the two
    /// narrow rounds (`j` = 2, 1) run the scalar recurrence. Bit-identical to
    /// [`super::transpose_64x64`] (pure bit movement).
    ///
    /// Callers outside this module verify AVX2 at runtime, as for
    /// [`scatter_planes_avx2`].
    #[target_feature(enable = "avx2")]
    pub(super) fn transpose_64x64_avx2(a: &mut [u64; 64]) {
        const ROUNDS: [(u32, u64); 4] = [
            (32, 0x0000_0000_FFFF_FFFF),
            (16, 0x0000_FFFF_0000_FFFF),
            (8, 0x00FF_00FF_00FF_00FF),
            (4, 0x0F0F_0F0F_0F0F_0F0F),
        ];
        for (j, m) in ROUNDS {
            let mask = _mm256_set1_epi64x(m as i64);
            let jc = _mm_cvtsi32_si128(j as i32);
            let mut k = 0usize;
            while k < 64 {
                if k & (j as usize) == 0 {
                    // SAFETY: `k` is a multiple of 4 with bit `j` clear and
                    // `j ≥ 4` a power of two, so rows `k .. k + 4` and
                    // `k + j .. k + j + 4` both lie inside the 64 rows.
                    unsafe {
                        let pa = a.as_mut_ptr().add(k) as *mut __m256i;
                        let pb = a.as_mut_ptr().add(k + j as usize) as *mut __m256i;
                        let va = _mm256_loadu_si256(pa);
                        let vb = _mm256_loadu_si256(pb);
                        let t =
                            _mm256_and_si256(_mm256_xor_si256(va, _mm256_srl_epi64(vb, jc)), mask);
                        _mm256_storeu_si256(pa, _mm256_xor_si256(va, t));
                        _mm256_storeu_si256(pb, _mm256_xor_si256(vb, _mm256_sll_epi64(t, jc)));
                    }
                }
                k += 4;
            }
        }
        for (j, m) in [(2u32, 0x3333_3333_3333_3333u64), (1, 0x5555_5555_5555_5555)] {
            let mut k = 0usize;
            while k < 64 {
                let t = (a[k] ^ (a[k + j as usize] >> j)) & m;
                a[k] ^= t;
                a[k + j as usize] ^= t << j;
                k = (k + j as usize + 1) & !(j as usize);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::BitWriter;

    fn reference_bit(words: &[u64], p: usize, i: usize) -> bool {
        (words[i] >> p) & 1 == 1
    }

    #[test]
    fn transpose_is_involution_and_moves_single_bits() {
        let mut a = [0u64; 64];
        a[5] = 1 << 62; // element (5, 1)
        a[63] = 1; // element (63, 63)
        let orig = a;
        transpose_64x64(&mut a);
        assert_eq!(a[1], 1 << (63 - 5), "element (5,1) -> (1,5)");
        assert_eq!(a[63], 1 << 0, "element (63,63) stays");
        transpose_64x64(&mut a);
        assert_eq!(a, orig);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // (r, c) matrix indices are the point
    fn transpose_matches_naive_on_pseudorandom_matrix() {
        let mut a = [0u64; 64];
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        for row in a.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *row = x;
        }
        let orig = a;
        transpose_64x64(&mut a);
        for r in 0..64 {
            for c in 0..64 {
                let got = (a[r] >> (63 - c)) & 1;
                let want = (orig[c] >> (63 - r)) & 1;
                assert_eq!(got, want, "({r},{c})");
            }
        }
    }

    #[test]
    fn slice_planes_matches_bitwriter_exactly() {
        // Cover multiple blocks plus a ragged tail that is not byte-aligned.
        for n in [1usize, 7, 8, 63, 64, 65, 130, 200] {
            let words: Vec<u64> = (0..n)
                .map(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64) << 40)
                .collect();
            let planes = slice_planes(&words, 64);
            for (p, plane) in planes.iter().enumerate() {
                let mut w = BitWriter::with_capacity_bits(n);
                for i in 0..n {
                    w.write_bit(reference_bit(&words, p, i));
                }
                assert_eq!(plane, &w.into_bytes(), "n={n} p={p}");
            }
        }
    }

    /// Bit-at-a-time reference for every scatter kernel: OR plane `lo + j`'s
    /// packed bit `i` into bit `lo + j` of `out[i]`.
    fn scatter_reference(planes: &[&[u8]], plane_lo: usize, out: &mut [u64]) {
        for (j, p) in planes.iter().enumerate() {
            for (i, w) in out.iter_mut().enumerate() {
                let bit = (p[i / 8] >> (7 - (i % 8))) & 1;
                *w |= (bit as u64) << (plane_lo + j);
            }
        }
    }

    /// Deterministic packed plane streams with mixed density (low planes
    /// dense, high planes sparse — the shape real negabinary levels have).
    fn sample_planes(n_planes: usize, n_bytes: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut x = seed | 1;
        (0..n_planes)
            .map(|p| {
                (0..n_bytes)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        // Thin out high planes so the zero-group skip paths run.
                        if p > 8 && !x.is_multiple_of(7) {
                            0
                        } else {
                            (x >> 32) as u8
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn scatter_kernels_agree_with_reference_at_every_plane_count() {
        // Sweep the kernel buckets (1–8, 9–16, 17–32, 33–64), plane offsets,
        // and ragged coefficient counts, comparing every implementation.
        for &n in &[1usize, 7, 8, 31, 32, 64, 65, 100, 256, 500, 515] {
            let n_bytes = n.div_ceil(8);
            for &count in &[1usize, 2, 5, 8, 9, 16, 17, 29, 32, 33, 48, 64] {
                for &lo in &[0usize, 1, 13, 40] {
                    if lo + count > 64 {
                        continue;
                    }
                    let streams = sample_planes(count, n_bytes, (n * 31 + count) as u64);
                    let planes: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
                    let mut want = vec![0u64; n];
                    scatter_reference(&planes, lo, &mut want);

                    let mut generic = vec![0u64; n];
                    scatter_planes_generic(&planes, lo, &mut generic);
                    assert_eq!(generic, want, "generic n={n} count={count} lo={lo}");

                    let mut grouped = vec![0u64; n];
                    scatter_planes_grouped(&planes, lo, &mut grouped);
                    assert_eq!(grouped, want, "grouped n={n} count={count} lo={lo}");

                    #[cfg(target_arch = "x86_64")]
                    if std::arch::is_x86_feature_detected!("avx2") {
                        let mut simd = vec![0u64; n];
                        // SAFETY: AVX2 presence verified above.
                        unsafe { avx2::scatter_planes_avx2(&planes, lo, &mut simd) };
                        assert_eq!(simd, want, "avx2 n={n} count={count} lo={lo}");
                    }
                }
            }
        }
    }

    #[test]
    fn scatter_accumulates_on_top_of_loaded_planes() {
        // Two scatter calls into the same accumulators (refinement order:
        // high planes, then low) must land exactly like one combined call.
        let n = 200usize;
        let streams = sample_planes(12, n.div_ceil(8), 99);
        let planes: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
        let mut combined = vec![0u64; n];
        scatter_planes(&planes, 3, &mut combined);
        let mut staged = vec![0u64; n];
        scatter_planes(&planes[6..], 3 + 6, &mut staged);
        scatter_planes(&planes[..6], 3, &mut staged);
        assert_eq!(staged, combined);
    }

    #[test]
    fn scatter_matches_plane_block_roundtrip() {
        // The kernels must reproduce the gather/transpose path bit for bit.
        let words: Vec<u64> = (0..130)
            .map(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let sliced = slice_planes(&words, 64);
        let planes: Vec<&[u8]> = sliced.iter().map(Vec::as_slice).collect();
        let mut out = vec![0u64; words.len()];
        scatter_planes(&planes, 0, &mut out);
        assert_eq!(out, words);
    }

    #[test]
    fn auto_scatter_matches_generic_and_portable_oracles() {
        let n = 777usize;
        for &count in &[20usize, 40] {
            let streams = sample_planes(count, n.div_ceil(8), 7);
            let planes: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
            let mut auto = vec![0u64; n];
            scatter_planes(&planes, 5, &mut auto);
            let mut generic = vec![0u64; n];
            scatter_planes_generic(&planes, 5, &mut generic);
            let mut portable = vec![0u64; n];
            scatter_planes_portable(&planes, 5, &mut portable);
            assert_eq!(auto, generic, "count={count}");
            assert_eq!(auto, portable, "count={count}");
        }
    }

    #[test]
    fn gather_plane_words_matches_plane_block_on_every_range() {
        // The PlaneBlock transpose is the reference for the few-planes
        // gather, across ragged block sizes and plane offsets, on both
        // implementations.
        for &n in &[1usize, 3, 4, 7, 63, 64, 65, 130, 257, 500] {
            let words: Vec<u64> = (0..n)
                .map(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64) << 17)
                .collect();
            for &(lo, count) in &[(0usize, 1usize), (5, 2), (13, 3), (40, 4), (62, 2), (0, 64)] {
                if lo + count > 64 {
                    continue;
                }
                let mut want = vec![vec![0u64; n.div_ceil(64)]; count];
                for (b, block) in words.chunks(64).enumerate() {
                    let pb = PlaneBlock::gather(block);
                    for (j, plane) in want.iter_mut().enumerate() {
                        plane[b] = pb.plane(lo + j);
                    }
                }
                let mut portable = vec![vec![0u64; n.div_ceil(64)]; count];
                gather_plane_words_portable(&words, lo, &mut portable);
                assert_eq!(portable, want, "portable n={n} lo={lo} count={count}");

                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("avx2") {
                    let mut simd = vec![vec![0u64; n.div_ceil(64)]; count];
                    // SAFETY: AVX2 presence verified above.
                    unsafe { avx2::gather_plane_words_avx2(&words, lo, &mut simd) };
                    assert_eq!(simd, want, "avx2 n={n} lo={lo} count={count}");
                }
            }
        }
    }

    #[test]
    fn auto_gather_matches_portable_oracles() {
        let words: Vec<u64> = (0..300)
            .map(|i| (i as u64).wrapping_mul(0xD134_2543_DE82_EF95))
            .collect();
        let n_blocks = words.len().div_ceil(64);
        let mut portable = vec![vec![0u64; n_blocks]; 3];
        gather_plane_words_portable(&words, 10, &mut portable);
        assert_eq!(gather_plane_words(&words, 10, 3), portable);
        // `slice_planes` against the scalar transpose, block by block.
        let planes = slice_planes(&words, 48);
        for (b, block) in words.chunks(64).enumerate() {
            let scalar = PlaneBlock::gather(block);
            for (p, plane) in planes.iter().enumerate() {
                let want = scalar.plane(p).to_be_bytes();
                let got = &plane[b * 8..(b * 8 + 8).min(plane.len())];
                assert_eq!(got, &want[..got.len()], "block {b} plane {p}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_transpose_matches_scalar() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let mut a = [0u64; 64];
        let mut x = 0xDEAD_BEEF_0BAD_F00Du64;
        for row in a.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *row = x;
        }
        let mut scalar = a;
        transpose_64x64(&mut scalar);
        // SAFETY: AVX2 presence verified above.
        unsafe { avx2::transpose_64x64_avx2(&mut a) };
        assert_eq!(a, scalar);
        // Involution through the AVX2 path too.
        // SAFETY: AVX2 presence verified above.
        unsafe { avx2::transpose_64x64_avx2(&mut a) };
        transpose_64x64(&mut scalar);
        assert_eq!(a, scalar);
    }

    #[test]
    fn plane_block_roundtrips_and_exposes_planes() {
        let words: Vec<u64> = (0..50).map(|i| (i as u64) << (i % 60)).collect();
        let block = PlaneBlock::gather(&words);
        for p in 0..64 {
            let w = block.plane(p);
            for (i, &src) in words.iter().enumerate() {
                assert_eq!(
                    (w >> (63 - i)) & 1,
                    (src >> p) & 1,
                    "plane {p} coefficient {i}"
                );
            }
        }
        let mut out = vec![0u64; 50];
        block.scatter(&mut out);
        assert_eq!(out, words);
    }
}
