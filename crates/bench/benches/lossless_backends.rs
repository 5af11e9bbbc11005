//! Criterion micro-benchmark: the lossless backends (Huffman, LZR) that close
//! every compression pipeline in the workspace.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ipc_codecs::{huffman_encode, lzr_compress, lzr_decompress};

fn quantization_like_bytes(n: usize) -> Vec<u8> {
    (0..n)
        .map(|i| {
            let phase = (i as f64 * 0.001).sin();
            if phase.abs() < 0.7 {
                0
            } else {
                ((phase * 120.0) as i64 & 0xFF) as u8
            }
        })
        .collect()
}

fn bench_lossless(c: &mut Criterion) {
    let bytes = quantization_like_bytes(1 << 20);
    let symbols: Vec<u32> = bytes.iter().map(|&b| b as u32).collect();
    let compressed = lzr_compress(&bytes);

    let mut group = c.benchmark_group("lossless_backends");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("lzr_compress", |b| b.iter(|| lzr_compress(&bytes)));
    group.bench_function("lzr_decompress", |b| {
        b.iter(|| lzr_decompress(&compressed).unwrap())
    });
    group.bench_function("huffman_encode", |b| b.iter(|| huffman_encode(&symbols)));

    // The per-call floor: precinct-sized chunks, where a call's fixed cost
    // (not its throughput) is what the tiled encoder pays 58 k times a field.
    // Cut where the generator turns from zeros to dense values, so the bytes
    // are bitplane-like sparse and not one run.
    let dense_from = bytes.iter().position(|&b| b != 0).expect("dense stretch");
    for len in [24usize, 96, 4096] {
        let chunk = &bytes[dense_from.saturating_sub(len / 2)..][..len];
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_function(format!("lzr_compress_{len}B"), |b| {
            b.iter(|| lzr_compress(chunk))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lossless);
criterion_main!(benches);
