//! Compressor configuration.

/// Interpolation formula used by the multilevel predictor (paper Sec. 4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Interpolation {
    /// Two-point average: `y_i = (x_{i-s} + x_{i+s}) / 2`. `L∞(P) = 1`.
    Linear,
    /// Four-point cubic spline:
    /// `y_i = -1/16·x_{i-3s} + 9/16·x_{i-s} + 9/16·x_{i+s} - 1/16·x_{i+3s}`.
    /// `L∞(P) = 1.25`.
    #[default]
    Cubic,
}

impl Interpolation {
    /// The operator's L∞ norm, used by the optimizer's error-propagation bound
    /// (Theorem 1: p = 1 for linear, p = 1.25 for cubic).
    pub fn linf_norm(&self) -> f64 {
        match self {
            Interpolation::Linear => 1.0,
            Interpolation::Cubic => 1.25,
        }
    }

    /// Stable on-disk identifier.
    pub fn id(&self) -> u8 {
        match self {
            Interpolation::Linear => 0,
            Interpolation::Cubic => 1,
        }
    }

    /// Inverse of [`Interpolation::id`].
    pub fn from_id(id: u8) -> Option<Self> {
        match id {
            0 => Some(Interpolation::Linear),
            1 => Some(Interpolation::Cubic),
            _ => None,
        }
    }
}

/// Configuration of the IPComp compressor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Config {
    /// Interpolation formula for the multilevel predictor.
    pub interpolation: Interpolation,
    /// Number of finest levels encoded progressively as bitplanes (`L_p` in
    /// Algorithm 1). Coarser levels (and the anchor grid) are always loaded in full;
    /// they hold a negligible fraction of the data but seed the prediction. `None`
    /// means "all levels progressive".
    pub progressive_levels: Option<u32>,
    /// Apply the 2-bit-prefix predictive XOR coding to bitplanes before the lossless
    /// backend (paper Sec. 4.4.1). Disabling it is only useful for the ablation
    /// study.
    pub predictive_coding: bool,
    /// Number of prefix bits used by the predictive coder (paper Table 2 evaluates
    /// 1–3; 2 is the default and the best performer).
    pub prefix_bits: u8,
    /// Run per-level bitplane encoding on the rayon thread pool.
    pub parallel_encoding: bool,
    /// Packed plane bytes per entropy chunk (must be a multiple of 8).
    /// Smaller chunks stream and parallelize at finer granularity for a small
    /// ratio cost; `0` stores one monolithic block per plane.
    pub chunk_bytes: usize,
    /// Spatial precinct extents (per dimension, in domain coordinates, of
    /// the finest level; a coarser level's are scaled by its lattice stride).
    /// `Some` switches the container to the version-3 layout: every level's
    /// coefficients are stored precinct-major and entropy chunks are cut on
    /// precinct boundaries, enabling region-of-interest retrieval that only
    /// touches the chunks intersecting a bounding box (plus the cascade
    /// halo). Only the first `ndim` entries are used; each must be ≥ 1.
    /// `None` (default) keeps the byte-granular version-2 chunk layout.
    pub precincts: Option<[usize; ipc_tensor::MAX_DIMS]>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            interpolation: Interpolation::Cubic,
            progressive_levels: None,
            predictive_coding: true,
            prefix_bits: 2,
            parallel_encoding: true,
            chunk_bytes: crate::bitplane::CHUNK_BYTES,
            precincts: None,
        }
    }
}

impl Config {
    /// Default configuration with linear interpolation.
    pub fn linear() -> Self {
        Self {
            interpolation: Interpolation::Linear,
            ..Self::default()
        }
    }

    /// Default configuration with cubic interpolation.
    pub fn cubic() -> Self {
        Self::default()
    }

    /// Default configuration with a spatial precinct grid (version-3 layout).
    /// `extents` gives the precinct size along each dimension; missing
    /// trailing dimensions reuse the last extent given.
    pub fn with_precincts(extents: &[usize]) -> Self {
        assert!(
            !extents.is_empty() && extents.len() <= ipc_tensor::MAX_DIMS,
            "between 1 and {} precinct extents required",
            ipc_tensor::MAX_DIMS
        );
        let last = *extents.last().expect("non-empty");
        let mut e = [last; ipc_tensor::MAX_DIMS];
        e[..extents.len()].copy_from_slice(extents);
        Self {
            precincts: Some(e),
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolation_norms_match_paper() {
        assert_eq!(Interpolation::Linear.linf_norm(), 1.0);
        assert_eq!(Interpolation::Cubic.linf_norm(), 1.25);
    }

    #[test]
    fn interpolation_id_roundtrip() {
        for m in [Interpolation::Linear, Interpolation::Cubic] {
            assert_eq!(Interpolation::from_id(m.id()), Some(m));
        }
        assert_eq!(Interpolation::from_id(99), None);
    }

    #[test]
    fn default_config_uses_cubic_and_two_prefix_bits() {
        let c = Config::default();
        assert_eq!(c.interpolation, Interpolation::Cubic);
        assert_eq!(c.prefix_bits, 2);
        assert!(c.predictive_coding);
    }
}
