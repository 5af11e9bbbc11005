//! Shared infrastructure for the benchmark harness.
//!
//! Every table and figure of the paper's evaluation section has a dedicated binary in
//! `src/bin/`, named after the figure or table it reproduces; this library holds what
//! they share: dataset preparation at a chosen scale, the compressor roster, timing,
//! and plain-text table output that mirrors the rows/series of the paper.

use ipc_datagen::Dataset;
use ipc_tensor::{ArrayD, Shape};
use std::time::Instant;

pub use ipc_baselines::{
    IpCompScheme, Mgard, MultiFidelity, Pmgard, ProgressiveArchive, ProgressiveScheme, Residual,
    Retrieved, Sperr, Sz3, Zfp,
};

/// Grid-size scale for harness runs, selected with the `IPC_SCALE` environment
/// variable (`tiny`, `small`, `default`, `paper`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Unit-test sizes (~6 k elements); seconds per figure.
    Tiny,
    /// ~50–90 k elements per field; the default for `cargo run` harness binaries.
    Small,
    /// ~0.3–1.3 M elements per field; minutes per figure.
    Default,
    /// The paper's full SDRBench shapes; hours per figure.
    Paper,
}

impl Scale {
    /// Read the scale from `IPC_SCALE` (defaults to [`Scale::Small`]).
    pub fn from_env() -> Self {
        match std::env::var("IPC_SCALE")
            .unwrap_or_default()
            .to_lowercase()
            .as_str()
        {
            "tiny" => Scale::Tiny,
            "default" | "medium" => Scale::Default,
            "paper" | "full" => Scale::Paper,
            _ => Scale::Small,
        }
    }

    /// The shape this scale uses for a dataset.
    pub fn shape(&self, dataset: Dataset) -> Shape {
        match self {
            Scale::Tiny => dataset.tiny_shape(),
            Scale::Small => dataset.small_shape(),
            Scale::Default => dataset.default_shape(),
            Scale::Paper => dataset.paper_shape(),
        }
    }
}

/// A named field ready for compression experiments.
pub struct Workload {
    /// Which paper dataset this stands in for.
    pub dataset: Dataset,
    /// The synthesized field.
    pub data: ArrayD<f64>,
    /// Value range (used for relative error bounds, as in the paper).
    pub range: f64,
}

/// Generate all six evaluation datasets at the given scale (seed fixed for
/// reproducibility across runs).
pub fn workloads(scale: Scale) -> Vec<Workload> {
    Dataset::ALL
        .iter()
        .map(|&dataset| {
            let data = dataset.generate(&scale.shape(dataset), 2025);
            let range = data.value_range();
            Workload {
                dataset,
                data,
                range,
            }
        })
        .collect()
}

/// A single dataset workload (used by figures that only need one field).
pub fn workload(dataset: Dataset, scale: Scale) -> Workload {
    let data = dataset.generate(&scale.shape(dataset), 2025);
    let range = data.value_range();
    Workload {
        dataset,
        data,
        range,
    }
}

/// The progressive compressor roster of the paper's main evaluation
/// (IPComp + SZ3-M + SZ3-R + ZFP-R + PMGARD).
pub fn progressive_schemes() -> Vec<Box<dyn ProgressiveScheme>> {
    vec![
        Box::new(IpCompScheme::default()),
        Box::new(MultiFidelity::paper(Sz3::default(), "SZ3-M")),
        Box::new(Residual::paper(Sz3::default(), "SZ3-R")),
        Box::new(Residual::paper(Zfp, "ZFP-R")),
        Box::new(Pmgard),
    ]
}

/// The extended roster used by the speed study (Fig. 8), which also includes
/// SPERR-R.
pub fn speed_schemes() -> Vec<Box<dyn ProgressiveScheme>> {
    let mut v = progressive_schemes();
    v.push(Box::new(Residual::paper(Sperr, "SPERR-R")));
    v
}

/// Time a closure, returning its result and the elapsed seconds.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Print a table row with fixed-width columns (plain text, figure-friendly).
pub fn print_row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("{}", line.join("  "));
}

/// Print a header row followed by a separator.
pub fn print_header(cells: &[&str], widths: &[usize]) {
    print_row(
        &cells.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        widths,
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    println!("{}", "-".repeat(total));
}

/// Format a float with engineering-friendly precision.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 || v.abs() < 0.01 {
        format!("{v:.3e}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_cover_all_datasets() {
        let w = workloads(Scale::Tiny);
        assert_eq!(w.len(), 6);
        assert!(w.iter().all(|x| x.range > 0.0));
    }

    #[test]
    fn scheme_rosters_match_paper() {
        let names: Vec<&str> = progressive_schemes().iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["IPComp", "SZ3-M", "SZ3-R", "ZFP-R", "PMGARD"]);
        let speed: Vec<&str> = speed_schemes().iter().map(|s| s.name()).collect();
        assert!(speed.contains(&"SPERR-R"));
    }

    #[test]
    fn scale_shapes_are_ordered_by_size() {
        for ds in Dataset::ALL {
            assert!(Scale::Tiny.shape(ds).len() < Scale::Small.shape(ds).len());
            assert!(Scale::Small.shape(ds).len() < Scale::Default.shape(ds).len());
            assert!(Scale::Default.shape(ds).len() < Scale::Paper.shape(ds).len());
        }
    }

    #[test]
    fn timing_reports_positive_duration() {
        let (v, secs) = time(|| (0..10_000).sum::<u64>());
        assert_eq!(v, 49_995_000);
        assert!(secs >= 0.0);
    }

    #[test]
    fn formatting_is_compact() {
        assert_eq!(fmt(0.0), "0");
        assert!(fmt(1234.5).contains('e'));
        assert!(!fmt(12.345).contains('e'));
    }
}
