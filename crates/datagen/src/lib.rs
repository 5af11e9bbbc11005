//! Synthetic scientific dataset generators and post-analysis operators.
//!
//! The paper evaluates on six SDRBench fields from four domains (Table 3):
//! turbulence (Density, Pressure, VelocityX), seismic wave propagation (Wave),
//! weather (SpeedX) and combustion (CH4). Those archives are not redistributable
//! here, so this crate generates synthetic stand-ins that reproduce the properties
//! the compressors are sensitive to: spatial smoothness / spectral decay, value
//! range and sign structure, oscillatory vs. front-like morphology.
//!
//! * [`Dataset`] — the six evaluation fields, with paper shapes and scaled default
//!   shapes.
//! * [`generate`] / [`Dataset::generate`] — deterministic, seeded field synthesis.
//! * [`analysis`] — Curl / Laplacian / gradient operators used by the Fig. 11
//!   post-analysis experiment.

pub mod analysis;
pub mod fields;
pub mod sequence;

pub use analysis::{curl_magnitude, gradient, laplacian};
pub use fields::FieldRecipe;
pub use sequence::{generate_sequence, relative_step_delta, SequenceRecipe};

use ipc_tensor::{ArrayD, Shape};

/// The six evaluation datasets of the paper (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Mass per unit volume in a turbulence simulation (Miranda).
    Density,
    /// Thermodynamic pressure in a turbulence simulation (Miranda).
    Pressure,
    /// X-direction velocity in a turbulence simulation (Miranda).
    VelocityX,
    /// Wavefield evolution in a seismic simulation (RTM).
    Wave,
    /// X-direction wind speed in a weather simulation (SCALE-LETKF).
    SpeedX,
    /// CH4 mass fraction in a combustion simulation (S3D).
    Ch4,
}

impl Dataset {
    /// All six datasets in the order used by the paper's figures.
    pub const ALL: [Dataset; 6] = [
        Dataset::Density,
        Dataset::Pressure,
        Dataset::VelocityX,
        Dataset::Wave,
        Dataset::SpeedX,
        Dataset::Ch4,
    ];

    /// Human-readable name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Density => "Density",
            Dataset::Pressure => "Pressure",
            Dataset::VelocityX => "VelocityX",
            Dataset::Wave => "Wave",
            Dataset::SpeedX => "SpeedX",
            Dataset::Ch4 => "CH4",
        }
    }

    /// Scientific domain, as listed in Table 3.
    pub fn domain(&self) -> &'static str {
        match self {
            Dataset::Density | Dataset::Pressure | Dataset::VelocityX => "turbulence",
            Dataset::Wave => "seismic",
            Dataset::SpeedX => "weather",
            Dataset::Ch4 => "combustion",
        }
    }

    /// The full-size shape used in the paper (64-bit floats).
    pub fn paper_shape(&self) -> Shape {
        match self {
            Dataset::Density | Dataset::Pressure | Dataset::VelocityX => Shape::d3(256, 384, 384),
            Dataset::Wave => Shape::d3(1008, 1008, 352),
            Dataset::SpeedX => Shape::d3(100, 500, 500),
            Dataset::Ch4 => Shape::d3(500, 500, 500),
        }
    }

    /// A scaled-down shape with the same aspect ratio, suitable for tests and
    /// laptop-scale benchmark runs (~0.3–1.3 M elements per field).
    pub fn default_shape(&self) -> Shape {
        match self {
            Dataset::Density | Dataset::Pressure | Dataset::VelocityX => Shape::d3(64, 96, 96),
            Dataset::Wave => Shape::d3(126, 126, 44),
            Dataset::SpeedX => Shape::d3(25, 125, 125),
            Dataset::Ch4 => Shape::d3(80, 80, 80),
        }
    }

    /// A small shape (~50–90 k elements) for quick benchmark-harness runs.
    pub fn small_shape(&self) -> Shape {
        match self {
            Dataset::Density | Dataset::Pressure | Dataset::VelocityX => Shape::d3(32, 48, 48),
            Dataset::Wave => Shape::d3(63, 63, 22),
            Dataset::SpeedX => Shape::d3(13, 63, 63),
            Dataset::Ch4 => Shape::d3(40, 40, 40),
        }
    }

    /// A very small shape for unit tests.
    pub fn tiny_shape(&self) -> Shape {
        match self {
            Dataset::SpeedX => Shape::d3(8, 24, 24),
            _ => Shape::d3(16, 20, 20),
        }
    }

    /// The synthesis recipe standing in for the real archive.
    pub fn recipe(&self) -> FieldRecipe {
        match self {
            Dataset::Density => FieldRecipe::Turbulence {
                spectral_slope: 1.8,
                modes: 48,
                positive: true,
                seed_offset: 11,
            },
            Dataset::Pressure => FieldRecipe::Turbulence {
                spectral_slope: 2.4,
                modes: 40,
                positive: true,
                seed_offset: 23,
            },
            Dataset::VelocityX => FieldRecipe::Turbulence {
                spectral_slope: 1.67,
                modes: 56,
                positive: false,
                seed_offset: 37,
            },
            Dataset::Wave => FieldRecipe::WaveField {
                packets: 24,
                base_frequency: 14.0,
                seed_offset: 41,
            },
            Dataset::SpeedX => FieldRecipe::LayeredWind {
                jet_strength: 28.0,
                perturbation_modes: 32,
                seed_offset: 53,
            },
            Dataset::Ch4 => FieldRecipe::ReactionFront {
                front_count: 3,
                sharpness: 18.0,
                seed_offset: 67,
            },
        }
    }

    /// Generate this dataset at `shape` with deterministic seed `seed`.
    pub fn generate(&self, shape: &Shape, seed: u64) -> ArrayD<f64> {
        fields::synthesize(self.recipe(), shape, seed)
    }

    /// Generate this dataset at its scaled default shape.
    pub fn generate_default(&self, seed: u64) -> ArrayD<f64> {
        self.generate(&self.default_shape(), seed)
    }

    /// Generate this dataset at its tiny unit-test shape.
    pub fn generate_tiny(&self, seed: u64) -> ArrayD<f64> {
        self.generate(&self.tiny_shape(), seed)
    }
}

/// Generate a dataset field (free-function form of [`Dataset::generate`]).
pub fn generate(dataset: Dataset, shape: &Shape, seed: u64) -> ArrayD<f64> {
    dataset.generate(shape, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_datasets_generate_finite_values() {
        for ds in Dataset::ALL {
            let f = ds.generate_tiny(1);
            assert_eq!(f.shape(), &ds.tiny_shape());
            assert!(
                f.as_slice().iter().all(|v| v.is_finite()),
                "{} produced non-finite values",
                ds.name()
            );
            assert!(f.value_range() > 0.0, "{} is constant", ds.name());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for ds in Dataset::ALL {
            let a = ds.generate_tiny(42);
            let b = ds.generate_tiny(42);
            assert_eq!(a.as_slice(), b.as_slice(), "{}", ds.name());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Dataset::Density.generate_tiny(1);
        let b = Dataset::Density.generate_tiny(2);
        assert_ne!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn density_and_pressure_are_positive() {
        for ds in [Dataset::Density, Dataset::Pressure, Dataset::Ch4] {
            let f = ds.generate_tiny(3);
            assert!(
                f.as_slice().iter().all(|&v| v >= 0.0),
                "{} should be non-negative",
                ds.name()
            );
        }
    }

    #[test]
    fn velocity_is_roughly_zero_mean() {
        let f = Dataset::VelocityX.generate_tiny(4);
        let mean: f64 = f.as_slice().iter().sum::<f64>() / f.len() as f64;
        let range = f.value_range();
        assert!(mean.abs() < 0.25 * range, "mean {mean} range {range}");
    }

    #[test]
    fn paper_shapes_match_table3() {
        assert_eq!(Dataset::Density.paper_shape().dims(), &[256, 384, 384]);
        assert_eq!(Dataset::Wave.paper_shape().dims(), &[1008, 1008, 352]);
        assert_eq!(Dataset::SpeedX.paper_shape().dims(), &[100, 500, 500]);
        assert_eq!(Dataset::Ch4.paper_shape().dims(), &[500, 500, 500]);
    }

    #[test]
    fn fields_are_spatially_smooth() {
        // Neighbouring values should be far closer than the global range —
        // this is the property interpolation-based compressors exploit.
        for ds in Dataset::ALL {
            let f = ds.generate_tiny(5);
            let dims = f.shape().dims().to_vec();
            let range = f.value_range();
            let mut max_step = 0.0f64;
            for i in 0..dims[0] {
                for j in 0..dims[1] {
                    for k in 1..dims[2] {
                        let d = (f[[i, j, k]] - f[[i, j, k - 1]]).abs();
                        max_step = max_step.max(d);
                    }
                }
            }
            assert!(
                max_step < 0.8 * range,
                "{}: max step {max_step} vs range {range}",
                ds.name()
            );
        }
    }
}
