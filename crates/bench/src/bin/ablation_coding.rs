//! Ablation: the coding stage's design choices.
//!
//! * negabinary vs sign-magnitude truncation uncertainty (paper Sec. 4.4.2),
//! * predictive coding on/off and prefix length (paper Table 2 / Sec. 4.4.1),
//! * linear vs cubic interpolation,
//!
//! measured as end-to-end compressed size on the Density field.

use ipc_bench::{workload, Scale};
use ipc_codecs::negabinary::{negabinary_uncertainty, sign_magnitude_uncertainty};
use ipc_datagen::Dataset;
use ipcomp::{compress, Config, Interpolation};

fn main() {
    let scale = Scale::from_env();
    let w = workload(Dataset::Density, scale);
    let eb = 1e-6 * w.range;
    let original = w.data.len() * 8;

    println!("Ablation A: truncation uncertainty (code units) when discarding d low bitplanes\n");
    let widths = [6, 14, 16, 10];
    ipc_bench::print_header(&["d", "negabinary", "sign-magnitude", "ratio"], &widths);
    for d in [1u32, 2, 4, 8, 12, 16] {
        let nb = negabinary_uncertainty(d) as f64;
        let sm = sign_magnitude_uncertainty(d) as f64;
        ipc_bench::print_row(
            &[
                d.to_string(),
                format!("{nb:.0}"),
                format!("{sm:.0}"),
                format!("{:.3}", nb / sm),
            ],
            &widths,
        );
    }

    println!("\nAblation B: end-to-end compressed size on Density (eb = 1e-6 x range, scale = {scale:?})\n");
    let widths = [34, 12, 8];
    ipc_bench::print_header(&["Configuration", "Bytes", "CR"], &widths);
    let configs: Vec<(&str, Config)> = vec![
        ("cubic + predictive(2)", Config::default()),
        (
            "cubic, no predictive coding",
            Config {
                predictive_coding: false,
                ..Config::default()
            },
        ),
        (
            "cubic + predictive(1)",
            Config {
                prefix_bits: 1,
                ..Config::default()
            },
        ),
        (
            "cubic + predictive(3)",
            Config {
                prefix_bits: 3,
                ..Config::default()
            },
        ),
        ("linear + predictive(2)", Config::linear()),
    ];
    for (label, config) in configs {
        let c = compress(&w.data, eb, &config).expect("compression succeeds");
        let bytes = c.total_bytes();
        ipc_bench::print_row(
            &[
                label.to_string(),
                bytes.to_string(),
                format!("{:.2}", original as f64 / bytes as f64),
            ],
            &widths,
        );
    }

    println!("\nAblation C: interpolation norm used by the optimizer");
    println!(
        "  linear L_inf(P) = {}, cubic L_inf(P) = {}",
        Interpolation::Linear.linf_norm(),
        Interpolation::Cubic.linf_norm()
    );
}
