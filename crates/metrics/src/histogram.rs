//! One tiny fixed-bucket latency histogram: log2 nanosecond buckets, cheap
//! to record into, percentile-extractable, `Copy` so stats snapshots stay
//! plain data.
//!
//! The engine (`EngineStats::queue_wait`, cache-build latency), the serving
//! layer (wire-level request latency) and the bench harness all record into
//! this one type, so percentile arithmetic and bucket layout cannot drift
//! between layers.  Bucket `i` covers durations below `2^i` ns (the last
//! bucket is open-ended), so the whole range from sub-microsecond to
//! ~9 minutes fits in 40 counters and a percentile is never off by more
//! than a factor of two — plenty for p50/p99/p999 trend gates.

use std::time::Duration;

/// Number of log2 buckets; `2^39` ns ≈ 9.2 minutes.
pub(crate) const HISTOGRAM_BUCKETS: usize = 40;

/// Escapes a label value per the Prometheus text exposition format:
/// backslash, double quote and a literal newline become `\\`, `\"` and
/// `\n`.  Label *names* and metric names are static literals enforced by
/// hj-lint, so only values need escaping.
pub(crate) fn escape_label_value(v: &str) -> std::borrow::Cow<'_, str> {
    if !v.contains(['\\', '"', '\n']) {
        return std::borrow::Cow::Borrowed(v);
    }
    let mut out = String::with_capacity(v.len() + 2);
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    std::borrow::Cow::Owned(out)
}

/// A log2-bucketed duration histogram (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// A histogram rebuilt from raw bucket counters (the inverse of
    /// [`buckets`](Self::buckets)); the sample count is the bucket sum.
    pub(crate) fn from_buckets(buckets: [u64; HISTOGRAM_BUCKETS]) -> Self {
        let count = buckets.iter().sum();
        LatencyHistogram { buckets, count }
    }

    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        let bucket = (64 - ns.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[bucket] += 1;
        self.count += 1;
    }

    /// Recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
    }

    /// The raw bucket counters; bucket `i` counts durations in
    /// `[2^(i-1), 2^i)` ns (bucket 0: `[0, 1]` ns, the last bucket is
    /// open-ended).
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// The bucket-wise difference `self - earlier`, saturating at zero:
    /// the observations recorded *between* two snapshots of one growing
    /// histogram.  The windowed-rate derivation uses this to turn lifetime
    /// queue-wait histograms into per-window quantiles.
    pub fn delta_since(&self, earlier: &LatencyHistogram) -> LatencyHistogram {
        LatencyHistogram::from_buckets(std::array::from_fn(|i| {
            self.buckets[i].saturating_sub(earlier.buckets[i])
        }))
    }

    /// An upper bound (ns) on the `q`-quantile (`q` in `[0, 1]`), `None`
    /// while the histogram is empty.  Accurate to its bucket's factor-of-two
    /// width.
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // The rank is 1-based and rounded up: q = 1.0 returns the bucket of
        // the largest recorded sample.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(1u64 << i);
            }
        }
        unreachable!("count > 0 but no bucket reached the rank");
    }

    /// [`quantile_ns`](Self::quantile_ns) as a [`Duration`], `None` while
    /// the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        self.quantile_ns(q).map(Duration::from_nanos)
    }

    /// [`quantile_ns`](Self::quantile_ns) in fractional milliseconds.
    pub fn quantile_ms(&self, q: f64) -> Option<f64> {
        self.quantile_ns(q).map(|ns| ns as f64 / 1e6)
    }

    /// Renders the histogram in Prometheus text exposition format:
    /// cumulative `<name>_bucket{le="..."}` lines (bucket bounds in
    /// nanoseconds), then `<name>_sum` and `<name>_count`.
    ///
    /// `labels` are `(key, value)` pairs prepended inside every brace set.
    /// The `_sum` line is an upper-bound estimate (each sample counted at
    /// its bucket's upper bound), consistent with the factor-of-two
    /// accuracy of the whole histogram.
    pub fn render(&self, name: &str, labels: &[(&str, &str)]) -> String {
        let prefix: String = labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\",", escape_label_value(v)))
            .collect();
        let plain = if labels.is_empty() {
            String::new()
        } else {
            let inner: Vec<String> = labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        };
        let mut out = String::new();
        let mut cumulative = 0u64;
        let mut sum_estimate = 0u128;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            sum_estimate += n as u128 * (1u128 << i);
            // Only emit buckets that move the cumulative count, plus the
            // mandatory +Inf line below, to keep the exposition compact.
            if n > 0 {
                out.push_str(&format!(
                    "{name}_bucket{{{prefix}le=\"{}\"}} {cumulative}\n",
                    1u64 << i
                ));
            }
        }
        out.push_str(&format!(
            "{name}_bucket{{{prefix}le=\"+Inf\"}} {}\n",
            self.count
        ));
        out.push_str(&format!("{name}_sum{plain} {sum_estimate}\n"));
        out.push_str(&format!("{name}_count{plain} {}\n", self.count));
        out
    }
}

/// The exact `q`-quantile of a sample set (`q` in `[0, 1]`), `None` when
/// empty.  Sorts `samples` in place and picks the ceil-rank element — the
/// same 1-based convention as [`LatencyHistogram::quantile_ns`], so the
/// bench harness and the histogram report the same statistic.
pub fn exact_quantile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let q = q.clamp(0.0, 1.0);
    let rank = ((q * samples.len() as f64).ceil() as usize).max(1);
    Some(samples[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_ns(0.5), None);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn quantiles_bound_the_recorded_values() {
        let mut h = LatencyHistogram::new();
        for ns in [100, 200, 400, 800, 100_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 5);
        let p50 = h.quantile_ns(0.5).unwrap();
        assert!((200..=512).contains(&p50), "p50 bound {p50}");
        let p100 = h.quantile_ns(1.0).unwrap();
        assert!(
            p100 >= 100_000,
            "max bound {p100} must cover the largest sample"
        );
        // Every quantile bound is within 2x of a recorded value.
        assert!(p100 <= 2 * 131_072);
    }

    #[test]
    fn zero_and_huge_values_land_in_terminal_buckets() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[HISTOGRAM_BUCKETS - 1], 1);
        assert!(h.quantile_ns(1.0).unwrap() >= 1u64 << 39);
    }

    #[test]
    fn delta_since_isolates_the_window() {
        let mut earlier = LatencyHistogram::new();
        earlier.record(1_000);
        let mut later = earlier;
        later.record(1_000);
        later.record(2_000_000);
        let delta = later.delta_since(&earlier);
        assert_eq!(delta.count(), 2);
        assert!(delta.quantile_ns(1.0).unwrap() >= 2_000_000);
        // Reversed pair saturates to empty instead of wrapping.
        assert_eq!(earlier.delta_since(&later).count(), 0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(1_000);
        b.record(1_000);
        b.record(2_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!(a.quantile_ns(1.0).unwrap() >= 2_000_000);
    }

    #[test]
    fn quantile_ms_converts() {
        let mut h = LatencyHistogram::new();
        h.record(4_000_000); // 4 ms -> bucket bound 2^22 ns ≈ 4.19 ms
        let ms = h.quantile_ms(0.99).unwrap();
        assert!(ms > 3.9 && ms < 8.5, "{ms}");
        let d = h.quantile(0.99).unwrap();
        assert_eq!(d.as_nanos() as u64, h.quantile_ns(0.99).unwrap());
    }

    #[test]
    fn from_buckets_round_trips() {
        let mut h = LatencyHistogram::new();
        h.record(5);
        h.record(5_000);
        let rebuilt = LatencyHistogram::from_buckets(*h.buckets());
        assert_eq!(rebuilt, h);
    }

    #[test]
    fn render_is_cumulative_and_labelled() {
        let mut h = LatencyHistogram::new();
        h.record(3); // bucket 2, bound 4
        h.record(1_000); // bucket 10, bound 1024
        let text = h.render("hj_test_ns", &[("worker", "3")]);
        assert!(text.contains("hj_test_ns_bucket{worker=\"3\",le=\"4\"} 1\n"));
        assert!(text.contains("hj_test_ns_bucket{worker=\"3\",le=\"1024\"} 2\n"));
        assert!(text.contains("hj_test_ns_bucket{worker=\"3\",le=\"+Inf\"} 2\n"));
        assert!(text.contains("hj_test_ns_count{worker=\"3\"} 2\n"));
        // Unlabelled render has no empty brace sets on _sum/_count.
        let plain = h.render("hj_test_ns", &[]);
        assert!(plain.contains("hj_test_ns_count 2\n"));
        assert!(plain.contains("hj_test_ns_bucket{le=\"+Inf\"} 2\n"));
    }

    #[test]
    fn render_escapes_hostile_label_values() {
        let mut h = LatencyHistogram::new();
        h.record(1_000);
        let text = h.render("hj_test_ns", &[("table", "a\\b\"c\nd")]);
        assert!(
            text.contains("hj_test_ns_bucket{table=\"a\\\\b\\\"c\\nd\",le=\"+Inf\"} 1\n"),
            "unescaped bucket line: {text:?}"
        );
        assert!(
            text.contains("hj_test_ns_count{table=\"a\\\\b\\\"c\\nd\"} 1\n"),
            "unescaped count line: {text:?}"
        );
    }

    #[test]
    fn exact_quantile_matches_hand_derivation() {
        assert_eq!(exact_quantile(&mut [], 0.5), None);
        let mut one = [7.0];
        assert_eq!(exact_quantile(&mut one, 0.5), Some(7.0));
        let mut samples = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(exact_quantile(&mut samples, 0.5), Some(3.0));
        assert_eq!(exact_quantile(&mut samples, 1.0), Some(5.0));
        assert_eq!(exact_quantile(&mut samples, 0.0), Some(1.0));
        // p99 of 100 evenly spaced samples is the 99th element.
        let mut hundred: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(exact_quantile(&mut hundred, 0.99), Some(99.0));
    }
}
