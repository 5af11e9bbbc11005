//! The statistics every reported timing goes through.

/// Median of `values` (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of `values`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Distance between the first and third quartile as a share of the median —
/// the spread the driver gates on (`statistics.quantiles(values, n=4)`,
/// exclusive method). Fewer than four values fall back to `(max−min)/median`.
pub fn iqr_share(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let med = median(&v);
    if v.len() < 2 || med == 0.0 {
        return 0.0;
    }
    if v.len() < 4 {
        return (v[v.len() - 1] - v[0]) / med.abs();
    }
    let quantile = |k: usize| {
        let pos = k as f64 * (v.len() + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = (pos - j as f64).clamp(0.0, 1.0);
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (quantile(3) - quantile(1)) / med.abs()
}

/// One timed operation as the statistic sees it.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Timing {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-6
    }
}

/// The block-trimmed summary of one timed phase.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSummary {
    /// Median latency over every op in the fastest half of the blocks.
    pub op_p50_ms: f64,
    /// Ops completed per second over the same blocks.
    pub ops_per_s: f64,
    /// Slowest ÷ fastest block median over *all* blocks: the noise gauge.
    pub block_spread: f64,
    /// Slowest ÷ fastest block median over the kept blocks only.
    pub kept_spread: f64,
    pub blocks: usize,
    pub kept_ops: usize,
}

/// Number of equal blocks a phase of `ops` operations is cut into: ten, or
/// fewer when that would leave a block under two ops.
pub fn block_count(ops: usize) -> usize {
    (ops / 2).clamp(1, 10)
}

/// Cut `ops` (in completion order) into [`block_count`] equal consecutive
/// blocks, rank the blocks by their own median latency and summarise the
/// fastest half (rounded up). This trims the multi-second slow phases a
/// shared box shows without discarding the tail inside the kept blocks.
///
/// `concurrent` selects how a block's wall time is measured: the sum of op
/// latencies for a depth-1 closed loop (harness work between ops such as
/// output hashing is not the program's), first-submit to last-completion
/// when several ops are in flight.
pub fn fastest_blocks(ops: &[Timing], concurrent: bool) -> BlockSummary {
    assert!(!ops.is_empty(), "a timed phase needs at least one op");
    let n_blocks = block_count(ops.len());
    let mut blocks: Vec<(f64, &[Timing])> = (0..n_blocks)
        .map(|b| {
            let slice = &ops[b * ops.len() / n_blocks..(b + 1) * ops.len() / n_blocks];
            let lat: Vec<f64> = slice.iter().map(Timing::ms).collect();
            (median(&lat), slice)
        })
        .collect();
    blocks.sort_by(|a, b| a.0.total_cmp(&b.0));
    let keep = n_blocks.div_ceil(2);
    let kept = &blocks[..keep];
    let lat: Vec<f64> = kept
        .iter()
        .flat_map(|(_, s)| s.iter().map(Timing::ms))
        .collect();
    let wall_s: f64 = kept
        .iter()
        .map(|(_, s)| {
            if concurrent {
                let first = s.iter().map(|t| t.start_ns).min().unwrap_or(0);
                let last = s.iter().map(|t| t.end_ns).max().unwrap_or(0);
                (last - first) as f64 * 1e-9
            } else {
                s.iter().map(Timing::ms).sum::<f64>() * 1e-3
            }
        })
        .sum();
    BlockSummary {
        op_p50_ms: median(&lat),
        ops_per_s: lat.len() as f64 / wall_s.max(1e-12),
        block_spread: blocks[n_blocks - 1].0 / blocks[0].0.max(1e-12),
        kept_spread: kept[keep - 1].0 / kept[0].0.max(1e-12),
        blocks: n_blocks,
        kept_ops: lat.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timings(ms: &[f64]) -> Vec<Timing> {
        let mut t = 0u64;
        ms.iter()
            .map(|&m| {
                let start_ns = t;
                t += (m * 1e6) as u64;
                Timing {
                    start_ns,
                    end_ns: t,
                }
            })
            .collect()
    }

    #[test]
    fn median_and_percentile_use_the_documented_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.90), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn iqr_share_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0, 5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn fastest_blocks_trim_a_slow_phase() {
        // 100 ops at 10 ms with a 30-op stall at 50 ms in the middle: the
        // slow blocks rank last and are dropped, so the summary is 10 ms.
        let mut ms = vec![10.0; 100];
        for slot in &mut ms[40..70] {
            *slot = 50.0;
        }
        let s = fastest_blocks(&timings(&ms), false);
        assert_eq!(s.blocks, 10);
        assert_eq!(s.kept_ops, 50);
        assert!((s.op_p50_ms - 10.0).abs() < 1e-9);
        assert!((s.ops_per_s - 100.0).abs() < 1e-6);
        assert!((s.block_spread - 5.0).abs() < 1e-9);
        assert!((s.kept_spread - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ops_per_s_sees_tails_the_median_does_not() {
        // Every block has the same median but one op in ten is slow.
        let ms: Vec<f64> = (0..100)
            .map(|i| if i % 10 == 9 { 110.0 } else { 10.0 })
            .collect();
        let s = fastest_blocks(&timings(&ms), false);
        assert!((s.op_p50_ms - 10.0).abs() < 1e-9);
        assert!((s.ops_per_s - 50.0).abs() < 1e-6, "{}", s.ops_per_s);
    }

    #[test]
    fn short_phases_use_fewer_blocks() {
        assert_eq!(block_count(5), 2);
        assert_eq!(block_count(1), 1);
        assert_eq!(block_count(19), 9);
        assert_eq!(block_count(2000), 10);
        let s = fastest_blocks(&timings(&[1.0, 2.0, 3.0, 4.0, 5.0]), false);
        assert_eq!((s.blocks, s.kept_ops), (2, 2));
    }
}
