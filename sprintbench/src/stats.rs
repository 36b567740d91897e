//! Order statistics and the report digest helper.

/// Nearest-rank percentile of `samples` (`q` in `(0, 1]`): the value at
/// rank `ceil(q * n)`, clamped to `1..=n`. Sorts in place with a total
/// order. Returns `None` for an empty slice.
pub fn nearest_rank(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(samples[rank - 1])
}

/// Median of `samples` (nearest rank at one half).
pub fn median(samples: &mut [f64]) -> Option<f64> {
    nearest_rank(samples, 0.5)
}

/// Host times of a stream of calls, summarised in fixed-size chunks of
/// consecutive calls: each chunk's p50 and p99.9 are kept, and the run
/// reports their medians over chunks. Memory stays constant however many
/// calls a run makes (so the harness does not leak into `peak_rss_mb`),
/// and a stretch of calls disturbed by the host moves one chunk, not the
/// result.
#[derive(Debug)]
pub struct StepTimes {
    chunk: Vec<f64>,
    p50_us: Vec<f64>,
    p999_us: Vec<f64>,
    calls: u64,
    total_ns: u128,
}

/// Calls per chunk: enough that p99.9 has 16 samples beyond it.
pub const CHUNK: usize = 16_384;

impl Default for StepTimes {
    fn default() -> Self {
        Self {
            chunk: Vec::with_capacity(CHUNK),
            p50_us: Vec::new(),
            p999_us: Vec::new(),
            calls: 0,
            total_ns: 0,
        }
    }
}

impl StepTimes {
    /// Records one call's duration.
    pub fn push(&mut self, elapsed: std::time::Duration) {
        self.calls += 1;
        self.total_ns += elapsed.as_nanos();
        self.chunk.push(elapsed.as_nanos() as f64 * 1e-3);
        if self.chunk.len() == CHUNK {
            self.close_chunk();
        }
    }

    fn close_chunk(&mut self) {
        if let (Some(p50), Some(p999)) = (
            nearest_rank(&mut self.chunk, 0.5),
            nearest_rank(&mut self.chunk, 0.999),
        ) {
            self.p50_us.push(p50);
            self.p999_us.push(p999);
        }
        self.chunk.clear();
    }

    /// Calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Sum of every call, seconds.
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }

    /// Median over chunks of the chunk p50, microseconds. A trailing
    /// partial chunk counts only when no chunk has filled.
    pub fn p50_us(&mut self) -> f64 {
        self.summary().0
    }

    /// Median over chunks of the chunk p99.9, microseconds.
    pub fn p999_us(&mut self) -> f64 {
        self.summary().1
    }

    fn summary(&mut self) -> (f64, f64) {
        if self.p50_us.is_empty() {
            self.close_chunk();
        }
        (
            median(&mut self.p50_us.clone()).unwrap_or(f64::NAN),
            median(&mut self.p999_us.clone()).unwrap_or(f64::NAN),
        )
    }

    /// Calls and chunks seen, for the report.
    pub fn describe(&self) -> String {
        format!(
            "{} calls in {} chunks of {CHUNK}",
            self.calls,
            self.p50_us.len()
        )
    }
}

/// FNV-1a over 64-bit words — the same fold the library's report
/// digests use, for the workloads whose reports carry no digest.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word in.
    pub fn eat(&mut self, bits: u64) {
        self.0 ^= bits;
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        // 1..=10: p50 is rank 5, p90 rank 9, p99 and p100 rank 10.
        let mut v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(nearest_rank(&mut v, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&mut v, 0.9), Some(9.0));
        assert_eq!(nearest_rank(&mut v, 0.99), Some(10.0));
        assert_eq!(nearest_rank(&mut v, 1.0), Some(10.0));
        // A tiny quantile still picks the first rank, never rank 0.
        assert_eq!(nearest_rank(&mut v, 1e-9), Some(1.0));
        assert_eq!(nearest_rank(&mut [], 0.5), None);
    }

    #[test]
    fn p999_needs_a_thousand_samples_to_leave_the_maximum() {
        let mut v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(nearest_rank(&mut v, 0.999), Some(1998.0));
        let mut small: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(nearest_rank(&mut small, 0.999), Some(500.0));
    }

    #[test]
    fn a_partial_chunk_counts_only_alone() {
        let mut t = StepTimes::default();
        for us in [3u64, 1, 2] {
            t.push(std::time::Duration::from_micros(us));
        }
        assert_eq!(t.calls(), 3);
        assert_eq!(t.p50_us(), 2.0);
        assert_eq!(t.p999_us(), 3.0);
        assert!((t.total_s() - 6e-6).abs() < 1e-15);
    }

    #[test]
    fn chunk_percentiles_are_combined_by_median() {
        let mut t = StepTimes::default();
        // Three full chunks at 10, 30 and 20 us plus a trailing partial
        // chunk of slow calls, which must not count.
        for base in [10u64, 30, 20] {
            for _ in 0..CHUNK {
                t.push(std::time::Duration::from_micros(base));
            }
        }
        for _ in 0..100 {
            t.push(std::time::Duration::from_millis(5));
        }
        assert_eq!(t.p50_us(), 20.0);
        assert_eq!(t.p999_us(), 20.0);
        assert_eq!(t.calls(), 3 * CHUNK as u64 + 100);
        assert!(t
            .describe()
            .starts_with(&format!("{} calls in 3 chunks", 3 * CHUNK + 100)));
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv::default();
        a.eat(1);
        a.eat(2);
        let mut b = Fnv::default();
        b.eat(2);
        b.eat(1);
        assert_ne!(a.finish(), b.finish());
    }
}
