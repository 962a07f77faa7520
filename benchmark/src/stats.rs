//! The estimators: nearest-rank percentiles, the quiet pool, and the
//! quartile rule the acceptance driver uses.

/// One timed slice of the cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Which slice of the cycle this is (`0..segments_per_cycle`).
    /// Segments at the same position did identical work.
    pub position: u32,
    /// Operations in the slice.
    pub ops: u32,
    /// Wall time of the slice.
    pub ns: u64,
    /// Time spent inside `Dht` calls (traced runs; 0 otherwise).
    pub dht_ns: u64,
}

impl Segment {
    fn ns_per_op(&self) -> f64 {
        self.ns as f64 / f64::from(self.ops.max(1))
    }
}

/// The nearest-rank percentile of an ascending slice: the smallest value
/// with at least `p` percent of the sample at or below it.
///
/// # Panics
///
/// Panics on an empty slice or `p` outside `0..=100`.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentile a sample supports: p99 when at least ten samples
/// lie beyond it, otherwise the highest rank that still has ten samples
/// beyond it (the maximum for samples of ten or fewer). Returns the value
/// and the percentile actually used.
pub fn supported_tail<T: Copy>(sorted: &[T]) -> (T, f64) {
    assert!(!sorted.is_empty(), "tail of an empty sample");
    let n = sorted.len();
    let p99_rank = (0.99 * n as f64).ceil() as usize;
    let rank = if n - p99_rank >= 10 {
        p99_rank
    } else {
        n.saturating_sub(10).max(1)
    };
    let rank = if n <= 10 { n } else { rank };
    (sorted[rank - 1], 100.0 * rank as f64 / n as f64)
}

/// Indices of the quiet pool: for each cycle position, the fifth
/// (rounded up) of its segments with the smallest time per op.
///
/// Host interference only ever slows a segment down, so the fast tail of
/// identical-work segments estimates the uncontended program. Selecting
/// per position keeps every part of the cycle equally represented, so the
/// pool's mean is a whole-cycle mean rather than the mean of whichever
/// slice happens to hold the cheapest work.
pub fn quiet_pool(segments: &[Segment]) -> Vec<usize> {
    let positions = segments
        .iter()
        .map(|s| s.position)
        .max()
        .map_or(0, |p| p + 1);
    let mut pool = Vec::new();
    for position in 0..positions {
        let mut at: Vec<usize> = (0..segments.len())
            .filter(|&i| segments[i].position == position)
            .collect();
        at.sort_by(|&a, &b| {
            segments[a]
                .ns_per_op()
                .total_cmp(&segments[b].ns_per_op())
                .then(a.cmp(&b))
        });
        at.truncate(at.len().div_ceil(5));
        pool.extend(at);
    }
    pool.sort_unstable();
    pool
}

/// Mean nanoseconds per op over the pooled segments.
pub fn pooled_ns_per_op(segments: &[Segment], pool: &[usize]) -> f64 {
    let ns: u64 = pool.iter().map(|&i| segments[i].ns).sum();
    let ops: u64 = pool.iter().map(|&i| u64::from(segments[i].ops)).sum();
    ns as f64 / ops.max(1) as f64
}

/// The uncontended floor of a replayed cycle, in nanoseconds per op: for
/// each position of the cycle, the smallest latency that position ever
/// showed; then the mean over positions. `latencies_ns[k]` belongs to
/// position `k % cycle_len`.
///
/// Interference hits single ops (a delayed wake-up, a descheduled
/// thread), so discarding it op by op keeps far more of a disturbed run
/// than discarding whole segments does. It is a floor, not a mean: it
/// falls slowly as more cycles are replayed, so compare it only between
/// runs of the same length.
pub fn position_floor_ns(latencies_ns: &[u32], cycle_len: usize) -> f64 {
    assert!(cycle_len > 0, "a cycle has at least one op");
    let positions = cycle_len.min(latencies_ns.len());
    let total: u64 = (0..positions)
        .map(|position| {
            let floor = latencies_ns.iter().skip(position).step_by(cycle_len).min();
            u64::from(*floor.expect("every counted position ran at least once"))
        })
        .sum();
    total as f64 / positions.max(1) as f64
}

/// The quiet-pool mean, in nanoseconds per call, of `batches` batches of
/// `calls` calls each; `batch` runs one batch and returns the nanoseconds
/// it timed (so it can leave preparation outside the clock). Used for the
/// per-layer micro timings.
pub fn quiet_ns_per_call(batches: usize, calls: u32, mut batch: impl FnMut() -> u64) -> f64 {
    let segments: Vec<Segment> = (0..batches)
        .map(|_| Segment {
            position: 0,
            ops: calls,
            ns: batch(),
            dht_ns: 0,
        })
        .collect();
    pooled_ns_per_op(&segments, &quiet_pool(&segments))
}

/// The median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartile cut points as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method) — the rule the acceptance driver applies.
///
/// # Panics
///
/// Panics on fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the spread the
/// acceptance driver compares with a metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_matches_the_textbook_cases() {
        let v = [15, 20, 35, 40, 50];
        assert_eq!(percentile(&v, 5.0), 15);
        assert_eq!(percentile(&v, 30.0), 20);
        assert_eq!(percentile(&v, 40.0), 20);
        assert_eq!(percentile(&v, 50.0), 35);
        assert_eq!(percentile(&v, 100.0), 50);
        assert_eq!(percentile(&v, 0.0), 15);
        let hundred: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 99.0), 99);
        assert_eq!(percentile(&hundred, 50.0), 50);
    }

    #[test]
    fn tail_is_p99_only_with_ten_samples_beyond_it() {
        let big: Vec<u32> = (1..=2000).collect();
        assert_eq!(supported_tail(&big), (1980, 99.0));
        // 600 samples: p99 would leave 6 beyond it; rank 590 leaves 10.
        let mid: Vec<u32> = (1..=600).collect();
        let (value, p) = supported_tail(&mid);
        assert_eq!(value, 590);
        assert!((p - 98.333).abs() < 0.01);
        let tiny = [3, 9];
        assert_eq!(supported_tail(&tiny).0, 9);
    }

    fn seg(position: u32, ns: u64) -> Segment {
        Segment {
            position,
            ops: 10,
            ns,
            dht_ns: 0,
        }
    }

    #[test]
    fn quiet_pool_takes_the_fastest_fifth_of_each_position() {
        // Position 0 is intrinsically cheaper than position 1; a global
        // fastest-fifth would never pick a position-1 segment.
        let mut segments = Vec::new();
        for cycle in 0..10u64 {
            segments.push(seg(0, 100 + cycle));
            segments.push(seg(1, 500 - cycle));
        }
        let pool = quiet_pool(&segments);
        assert_eq!(pool, vec![0, 2, 17, 19]);
        assert_eq!(
            pooled_ns_per_op(&segments, &pool),
            (100 + 101 + 492 + 491) as f64 / 40.0
        );
        // One segment is its own pool; six segments pool two.
        assert_eq!(quiet_pool(&[seg(0, 7)]), vec![0]);
        let six: Vec<Segment> = [9, 3, 8, 1, 7, 6].iter().map(|&ns| seg(0, ns)).collect();
        assert_eq!(quiet_pool(&six), vec![1, 3]);
        assert!(quiet_pool(&[]).is_empty());
    }

    #[test]
    fn position_floor_is_the_mean_of_each_positions_minimum() {
        // Three positions, three and a bit cycles.
        let latencies = [10, 50, 90, 12, 40, 95, 30, 45, 80, 11];
        assert_eq!(
            position_floor_ns(&latencies, 3),
            (10 + 40 + 80) as f64 / 3.0
        );
        // Fewer ops than a cycle: only the positions that ran count.
        assert_eq!(position_floor_ns(&[7, 9], 5), 8.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((iqr_share(&ten) - 1.0).abs() < 1e-12);
    }
}
