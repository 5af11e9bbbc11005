//! Criterion micro-benchmark: the write path's predict → quantize sweep over
//! a 96×104×104 Density field (the `compress_v2` workload's shape), on the
//! point-wise referee (`process_level_pointwise`: one branchy prediction and
//! one bounds-checked store per point — how `compress` ran before it moved
//! onto the cascade's run kernels) and on the run kernels (`process_level`),
//! with the same quantize / record / reconstruct closure on both.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ipc_datagen::Dataset;
use ipc_tensor::Shape;
use ipcomp::interp::{num_levels, process_anchors, process_level, process_level_pointwise};
use ipcomp::quantize::{dequantize, quantize};
use ipcomp::Interpolation;

fn bench_encode_sweep(c: &mut Criterion) {
    let shape = Shape::d3(96, 104, 104);
    let data = Dataset::Density.generate(&shape, 1);
    let orig = data.as_slice();
    let eb = 1e-7 * data.value_range();
    let mut group = c.benchmark_group("encode_sweep");
    group.sample_size(10);
    group.throughput(Throughput::Elements(orig.len() as u64));
    // One macro body for both sides: the sweeps differ only in the function
    // that drives the closure.
    macro_rules! sweep_with {
        ($name:literal, $level_fn:path) => {
            group.bench_function($name, |b| {
                b.iter(|| {
                    let mut work = vec![0.0f64; orig.len()];
                    process_anchors(&shape, &mut work, |off, pred| {
                        pred + dequantize(quantize(orig[off] - pred, eb), eb)
                    });
                    let mut codes = Vec::with_capacity(orig.len());
                    for level in (1..=num_levels(&shape)).rev() {
                        $level_fn(
                            &shape,
                            level,
                            Interpolation::Cubic,
                            &mut work,
                            |off, pred| {
                                let q = quantize(orig[off] - pred, eb);
                                codes.push(q);
                                pred + dequantize(q, eb)
                            },
                        );
                    }
                    (work, codes)
                })
            });
        };
    }
    sweep_with!("referee", process_level_pointwise);
    sweep_with!("run_kernels", process_level);
    group.finish();
}

criterion_group!(benches, bench_encode_sweep);
criterion_main!(benches);
