//! Summary statistics and the metric report: the percentile rule, failure shares, and
//! the metric-name charset the report promises.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MARGIN: usize = 10;

/// A latency distribution reduced to what the report prints: the median, the tail
/// percentile the sample count supports, and the count itself.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median (upper median for an even count).
    pub p50: f64,
    /// The nearest-rank 90th percentile.
    pub p90: f64,
    /// The percentile `tail` reports: 99 when at least 1000 samples back it, else the
    /// highest percentile with [`TAIL_MARGIN`] samples beyond it.
    pub tail_pct: f64,
    /// The tail value.
    pub tail: f64,
}

/// Nearest-rank index of the tail sample in an ascending sample of `n`: the p99 rank
/// when at least [`TAIL_MARGIN`] samples lie beyond it, otherwise the highest rank that
/// still leaves that many beyond (the maximum, when the sample is that small).
pub fn tail_index(n: usize) -> usize {
    assert!(n > 0, "no samples");
    // ceil(0.99 n) - 1, the nearest-rank p99, in integer arithmetic.
    let p99 = (99 * n).div_ceil(100) - 1;
    if n <= TAIL_MARGIN {
        return n - 1;
    }
    p99.min(n - TAIL_MARGIN - 1)
}

/// Summarise `samples` (any order).  `None` for an empty sample.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let t = tail_index(n);
    Some(Summary {
        n,
        p50: sorted[n / 2],
        p90: sorted[(9 * n).div_ceil(10) - 1],
        tail_pct: 100.0 * (t + 1) as f64 / n as f64,
        tail: sorted[t],
    })
}

/// The median of `values` (upper median for an even count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).map_or(0.0, |s| s.p50)
}

/// The arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Operations per second of request time, as the median over consecutive blocks of
/// `block` latencies (in ms, in the order sent) of each block's count over its summed
/// latency.  A stall on a shared host spoils one block, not the whole figure, while
/// the op mix inside a block still counts, so a heavier tail still lowers it.  With
/// fewer than `block` samples the whole sample is one block; 0 for an empty one.
pub fn block_rate(latencies_ms: &[f64], block: usize) -> f64 {
    assert!(block > 0, "empty blocks");
    let rate = |chunk: &[f64]| chunk.len() as f64 / (chunk.iter().sum::<f64>() / 1e3);
    if latencies_ms.is_empty() {
        return 0.0;
    }
    if latencies_ms.len() < block {
        return rate(latencies_ms);
    }
    let rates: Vec<f64> = latencies_ms.chunks_exact(block).map(rate).collect();
    median(&rates)
}

/// How one attempted operation ended, for the failure count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ending {
    /// A 2xx reply whose every per-request outcome is a definite answer.
    Ok,
    /// A 2xx reply carrying at least one typed per-request error (budget, deadline…).
    TypedError,
    /// A non-2xx reply (429/503 shedding included).
    Status(u16),
    /// No reply: connect, write or read failed.
    Transport,
}

/// Failures over attempts: everything but [`Ending::Ok`] fails.  0 when nothing was
/// attempted.
pub fn failed_share(endings: &[Ending]) -> f64 {
    if endings.is_empty() {
        return 0.0;
    }
    failed_count(endings) as f64 / endings.len() as f64
}

/// The number of failed endings.
pub fn failed_count(endings: &[Ending]) -> usize {
    endings.iter().filter(|e| **e != Ending::Ok).count()
}

/// Replies the server shed under admission pressure (`429`/`503`).
pub fn shed_count(endings: &[Ending]) -> usize {
    endings
        .iter()
        .filter(|e| matches!(e, Ending::Status(429 | 503)))
        .count()
}

/// A metric name the report may print: 1–64 characters of `[A-Za-z0-9_.-]`, starting
/// with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The metric name (see [`valid_metric_name`]).
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// An ordered metric report that refuses names outside the promised charset and
/// duplicates.
#[derive(Clone, Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    /// Add one metric.
    ///
    /// # Panics
    ///
    /// On an invalid or repeated name: the names are fixed in this program, so either
    /// is a bug in the benchmark, not a property of the input.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_metric_name(&name), "invalid metric name {name:?}");
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name:?} reported twice"
        );
        self.metrics.push(Metric { name, value, unit });
    }

    /// The metrics, in the order pushed.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_p99_only_with_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990 (index 989), exactly ten beyond.
        assert_eq!(tail_index(1000), 989);
        assert_eq!(1000 - 1 - tail_index(1000), TAIL_MARGIN);
        // 2000 samples: p99 index 1979, twenty beyond.
        assert_eq!(tail_index(2000), 1979);
        // Fewer than 1000: the highest rank with ten beyond.
        assert_eq!(tail_index(500), 489);
        assert_eq!(500 - 1 - tail_index(500), TAIL_MARGIN);
        // Too few for any margin: the maximum.
        assert_eq!(tail_index(5), 4);
        assert_eq!(tail_index(1), 0);
        for n in 1..3000 {
            let t = tail_index(n);
            assert!(t < n);
            if n > TAIL_MARGIN {
                assert!(n - 1 - t >= TAIL_MARGIN, "n = {n}");
            }
        }
    }

    #[test]
    fn summary_reports_median_tail_and_percentile() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = summarize(&samples).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 501.0);
        assert_eq!(s.p90, 900.0);
        assert_eq!(s.tail, 990.0);
        assert!((s.tail_pct - 99.0).abs() < 1e-9);
        let small: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = summarize(&small).unwrap();
        assert_eq!(s.tail, 190.0, "ten samples beyond: 191..=200");
        assert!((s.tail_pct - 95.0).abs() < 1e-9);
        assert_eq!(summarize(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn block_rate_is_the_median_block_and_shrugs_off_one_stall() {
        // Four blocks of two 10 ms ops (100/s) and one block holding a 1 s stall.
        let mut ms = vec![10.0; 8];
        ms.extend([10.0, 1000.0]);
        assert!((block_rate(&ms, 2) - 100.0).abs() < 1e-9);
        // A mean over the whole run would be charged the stall.
        let mean_rate = ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3);
        assert!(mean_rate < 10.0);
        // The mix inside a block still counts: 5 ms + 15 ms is 100/s.
        assert!((block_rate(&[5.0, 15.0, 5.0, 15.0], 2) - 100.0).abs() < 1e-9);
        // A trailing partial block is left out; a short sample is one block.
        assert!((block_rate(&[10.0, 10.0, 1000.0], 2) - 100.0).abs() < 1e-9);
        assert!((block_rate(&[4.0], 2) - 250.0).abs() < 1e-9);
        assert_eq!(block_rate(&[], 2), 0.0);
    }

    #[test]
    fn failed_share_counts_every_non_ok_ending() {
        let endings = [
            Ending::Ok,
            Ending::TypedError,
            Ending::Status(429),
            Ending::Status(503),
            Ending::Status(500),
            Ending::Transport,
            Ending::Ok,
            Ending::Ok,
        ];
        assert_eq!(failed_count(&endings), 5);
        assert!((failed_share(&endings) - 5.0 / 8.0).abs() < 1e-12);
        assert_eq!(shed_count(&endings), 2);
        assert_eq!(failed_share(&[Ending::Ok; 4]), 0.0);
        assert_eq!(failed_share(&[]), 0.0);
    }

    #[test]
    fn metric_names_keep_to_the_charset() {
        for ok in [
            "p50_ms",
            "setup_s",
            "engine.memo_hit_ratio",
            "strategy.per-shard",
            "9lives",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "-dash",
            "has space",
            "slash/name",
            "ünïcode",
            "p99%",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn report_refuses_bad_names() {
        Report::default().push("bad name", 1.0, "ms");
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn report_refuses_duplicates() {
        let mut r = Report::default();
        r.push("a", 1.0, "ms");
        r.push("a", 2.0, "ms");
    }
}
