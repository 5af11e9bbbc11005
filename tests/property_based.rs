//! Property-based tests on the core invariants of the compression pipeline.
//!
//! These complement the per-module unit tests by sampling the input space broadly:
//! random field shapes, roughnesses, error bounds, and retrieval targets.

use ipcomp_suite::codecs::huffman::{huffman_decode_bytes, huffman_encode_bytes};
use ipcomp_suite::codecs::negabinary::{
    from_negabinary, negabinary_uncertainty, to_negabinary, truncate_negabinary,
};
use ipcomp_suite::codecs::{lzr_compress, lzr_decompress, zigzag_decode, zigzag_encode};
use ipcomp_suite::core::{compress, Config, Interpolation, ProgressiveDecoder, RetrievalRequest};
use ipcomp_suite::metrics::linf_error;
use ipcomp_suite::tensor::{ArrayD, Shape};
use proptest::prelude::*;

/// Strategy: a random smooth-ish 3-D field with dims in [4, 20].
fn arb_field() -> impl Strategy<Value = ArrayD<f64>> {
    (
        (4usize..=16, 4usize..=20, 4usize..=20),
        0.05f64..1.0,
        -5.0f64..5.0,
        any::<u64>(),
    )
        .prop_map(|((d0, d1, d2), roughness, offset, seed)| {
            let shape = Shape::d3(d0, d1, d2);
            // Deterministic pseudo-random smooth field from the seed.
            ArrayD::from_fn(shape, |c| {
                let x = c[0] as f64 * roughness + (seed % 97) as f64 * 0.01;
                let y = c[1] as f64 * roughness * 0.7;
                let z = c[2] as f64 * roughness * 1.3;
                offset + (x).sin() * 2.0 + (y + z).cos() + (x * y * 0.05).sin() * 0.5
            })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Compressing and fully decompressing any field honours the error bound, with
    /// both interpolation methods.
    #[test]
    fn compression_respects_error_bound(
        field in arb_field(),
        rel_eb in 1e-8f64..1e-2,
        cubic in any::<bool>(),
    ) {
        let range = field.value_range().max(1e-12);
        let eb = rel_eb * range;
        let config = Config {
            interpolation: if cubic { Interpolation::Cubic } else { Interpolation::Linear },
            ..Config::default()
        };
        let compressed = compress(&field, eb, &config).unwrap();
        let out = compressed.decompress().unwrap();
        let err = linf_error(field.as_slice(), out.as_slice());
        prop_assert!(err <= eb * (1.0 + 1e-9), "err {} > eb {}", err, eb);
    }

    /// Any error-bound retrieval target looser than the compression bound is met,
    /// and the optimizer's own error prediction is an upper bound on reality.
    #[test]
    fn retrieval_targets_are_met(
        field in arb_field(),
        target_exp in 1i32..6,
    ) {
        let range = field.value_range().max(1e-12);
        let eb = 1e-8 * range;
        let target = 10f64.powi(-target_exp) * range;
        let compressed = compress(&field, eb, &Config::default()).unwrap();
        let mut dec = ProgressiveDecoder::new(&compressed);
        let plan = dec.plan(RetrievalRequest::ErrorBound(target)).unwrap();
        let out = dec.retrieve_with_plan(&plan).unwrap();
        let err = linf_error(field.as_slice(), out.data.as_slice());
        prop_assert!(err <= target * (1.0 + 1e-9), "err {} > target {}", err, target);
        prop_assert!(err <= out.error_bound * (1.0 + 1e-9), "err {} > predicted bound {}", err, out.error_bound);
    }

    /// Size-budget plans never load more than the budget allows (beyond the
    /// mandatory base data).
    #[test]
    fn size_budget_plans_respect_budget(
        field in arb_field(),
        fraction in 0.05f64..1.0,
    ) {
        let eb = 1e-7 * field.value_range().max(1e-12);
        let compressed = compress(&field, eb, &Config::default()).unwrap();
        let budget = (compressed.total_bytes() as f64 * fraction) as usize;
        let plan = ProgressiveDecoder::new(&compressed)
            .plan(RetrievalRequest::SizeBudget(budget))
            .unwrap();
        let total = compressed.base_bytes() + plan.payload_bytes;
        prop_assert!(total <= budget.max(compressed.base_bytes()), "{} > {}", total, budget);
    }

    /// Incremental refinement (Algorithm 2) reaches the same result as a
    /// from-scratch reconstruction at the final fidelity.
    #[test]
    fn incremental_refinement_matches_direct(
        field in arb_field(),
        mid_exp in 2i32..5,
    ) {
        let range = field.value_range().max(1e-12);
        let eb = 1e-8 * range;
        let compressed = compress(&field, eb, &Config::default()).unwrap();
        let mid = 10f64.powi(-mid_exp) * range;

        let mut staged = ProgressiveDecoder::new(&compressed);
        staged.retrieve(RetrievalRequest::ErrorBound(mid)).unwrap();
        let refined = staged.retrieve(RetrievalRequest::Full).unwrap();

        let direct = compressed.decompress().unwrap();
        let diff = linf_error(refined.data.as_slice(), direct.as_slice());
        prop_assert!(diff < 1e-9, "staged vs direct differ by {}", diff);
    }

    /// Negabinary mapping is a bijection and truncation error obeys the closed-form
    /// uncertainty bound from the paper.
    #[test]
    fn negabinary_roundtrip_and_truncation_bound(v in -1_000_000_000i64..1_000_000_000, d in 0u32..20) {
        prop_assert_eq!(from_negabinary(to_negabinary(v)), v);
        let nb = to_negabinary(v);
        let kept = from_negabinary(truncate_negabinary(nb, d));
        let loss = (v - kept).unsigned_abs();
        prop_assert!(loss <= negabinary_uncertainty(d));
    }

    /// Zigzag is a bijection.
    #[test]
    fn zigzag_roundtrip(v in any::<i64>()) {
        prop_assert_eq!(zigzag_decode(zigzag_encode(v)), v);
    }

    /// The lossless backend is actually lossless for arbitrary byte strings.
    #[test]
    fn lossless_backends_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        prop_assert_eq!(lzr_decompress(&lzr_compress(&data)).unwrap(), data);
    }

    /// Huffman coding over arbitrary byte strings is lossless.
    #[test]
    fn huffman_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        prop_assert_eq!(huffman_decode_bytes(&huffman_encode_bytes(&data)).unwrap(), data);
    }
}
