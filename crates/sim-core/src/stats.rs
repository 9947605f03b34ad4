//! Percentile summaries, latency histograms and table rendering.
//!
//! The experiment harnesses report means, tail percentiles (SLA analysis
//! uses the fraction of requests under 200 ms and the p99 latency) and
//! aligned text tables mirroring the paper's tables. Everything here is
//! dependency-free and deterministic.

use std::fmt::Write as _;

/// A sample reservoir for percentile queries.
///
/// Keeps every observation (the experiments produce at most a few million
/// latency samples, well within memory) and sorts lazily on query.
#[derive(Debug, Clone, Default)]
pub struct Percentiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Percentiles {
    /// Creates an empty reservoir.
    pub fn new() -> Self {
        Percentiles {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True when no observations are recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile data"));
            self.sorted = true;
        }
    }

    /// The `q`-quantile (`q ∈ [0, 1]`) by nearest-rank; `None` when empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.samples.len() as f64).ceil() as usize).clamp(1, self.samples.len());
        Some(self.samples[rank - 1])
    }

    /// Median (p50).
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Largest observation.
    pub fn max(&mut self) -> Option<f64> {
        self.ensure_sorted();
        self.samples.last().copied()
    }

    /// Fraction of observations `<= threshold` (0 when empty).
    ///
    /// This is the paper's SLA metric: "more than 99 % of the web search
    /// requests were serviced within 200 ms".
    pub fn fraction_at_most(&mut self, threshold: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let idx = self.samples.partition_point(|&x| x <= threshold);
        idx as f64 / self.samples.len() as f64
    }
}

/// Sub-buckets per octave of [`LatencyHistogram`]: 64 gives a relative
/// quantile error of at most 1/64 ≈ 1.6 % above the exact range.
const HIST_SUB_BUCKETS: u64 = 64;
/// log2 of [`HIST_SUB_BUCKETS`].
const HIST_SUB_SHIFT: u32 = 6;
/// Number of octave groups above the exact range for full `u64` coverage:
/// values with bit length 7..=64 (58 groups).
const HIST_OCTAVES: usize = 58;
/// Total bucket count: the exact range `0..64` plus the octave groups.
const HIST_BUCKETS: usize = HIST_SUB_BUCKETS as usize * (HIST_OCTAVES + 1);

/// A log-bucketed latency histogram (HDR-histogram style).
///
/// Designed for the request-level QoS pipeline: millions of latency samples
/// per run, recorded in integer milliseconds with **O(1)** push and O(1)
/// memory, merged across worker threads with **bit-identical** results
/// (all state is `u64` counters, so merging is exact, associative and
/// commutative — the order worker shards are folded in cannot change the
/// report).
///
/// Values `0..64` ms get exact unit buckets; above that, each power-of-two
/// octave splits into 64 sub-buckets, so a quantile query returns the
/// bucket's upper bound — at most one bucket width (≤ 1/64 relative)
/// above the exact order statistic. The property tests in this module pin
/// that bound against the exact [`Percentiles`] reservoir.
///
/// ```
/// use dds_sim_core::stats::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for ms in [12, 40, 40, 90, 1500] {
///     h.record(ms);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.quantile(0.5), Some(40.0));
/// assert!(h.quantile(1.0).unwrap() >= 1500.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LatencyHistogram {
    /// Bucket counts, allocated lazily up to the highest bucket touched.
    counts: Vec<u64>,
    total: u64,
    /// Exact sum of recorded values (u64 ms — keeps the mean merge-exact).
    sum: u64,
    min: u64,
    max: u64,
}

/// Bucket index of a value in milliseconds.
fn hist_bucket(ms: u64) -> usize {
    if ms < HIST_SUB_BUCKETS {
        return ms as usize;
    }
    // Bit length k ≥ 7: keep the top 6 bits after the leading one.
    let k = 63 - ms.leading_zeros();
    let offset = (ms >> (k - HIST_SUB_SHIFT)) - HIST_SUB_BUCKETS;
    (HIST_SUB_BUCKETS + (k - HIST_SUB_SHIFT) as u64 * HIST_SUB_BUCKETS + offset) as usize
}

/// Inclusive upper bound of a bucket, in milliseconds.
fn hist_bucket_high(index: usize) -> u64 {
    let index = index as u64;
    if index < HIST_SUB_BUCKETS {
        return index;
    }
    let group = (index - HIST_SUB_BUCKETS) / HIST_SUB_BUCKETS;
    let offset = (index - HIST_SUB_BUCKETS) % HIST_SUB_BUCKETS;
    let low = (HIST_SUB_BUCKETS + offset) << group;
    low + ((1u64 << group) - 1)
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: Vec::new(),
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one latency sample in milliseconds. O(1).
    pub fn record(&mut self, ms: u64) {
        let b = hist_bucket(ms);
        debug_assert!(b < HIST_BUCKETS);
        if b >= self.counts.len() {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.total += 1;
        self.sum += ms;
        self.min = self.min.min(ms);
        self.max = self.max.max(ms);
    }

    /// Records `n` identical latency samples in one O(1) bump — the
    /// fleet's streaming QoS charges a whole epoch of steady requests
    /// (all at the mean service time) without touching each one.
    /// Equivalent to calling [`LatencyHistogram::record`] `n` times.
    pub fn record_n(&mut self, ms: u64, n: u64) {
        if n == 0 {
            return;
        }
        let b = hist_bucket(ms);
        debug_assert!(b < HIST_BUCKETS);
        if b >= self.counts.len() {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += n;
        self.total += n;
        self.sum += ms * n;
        self.min = self.min.min(ms);
        self.max = self.max.max(ms);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest recorded value (exact), `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest recorded value (exact), `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Exact arithmetic mean in milliseconds (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The `q`-quantile (`q ∈ [0, 1]`, nearest-rank) as the containing
    /// bucket's upper bound, clamped into the exact `[min, max]` range;
    /// `None` when empty. At most one bucket width (≤ 1/64 relative)
    /// above the exact order statistic.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some((hist_bucket_high(i).clamp(self.min, self.max)) as f64);
            }
        }
        unreachable!("total is the sum of the bucket counts");
    }

    /// Width in milliseconds of the bucket containing `ms` — the quantile
    /// error bound at that value.
    pub fn bucket_width(ms: u64) -> u64 {
        if ms < HIST_SUB_BUCKETS {
            1
        } else {
            1u64 << (63 - ms.leading_zeros() - HIST_SUB_SHIFT)
        }
    }

    /// Merges another histogram into this one. Pure `u64` additions:
    /// exact, associative and commutative, so folding worker shards in
    /// any order yields bit-identical state.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A simple aligned text table with CSV export, used by the experiment
/// binaries to print paper-style tables.
#[derive(Debug, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; the row is padded/truncated to the header width.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders an aligned, boxed text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let sep_len: usize = widths.iter().sum::<usize>() + 3 * widths.len() + 1;
        let sep = "-".repeat(sep_len);
        let render_row = |cells: &[String], out: &mut String| {
            out.push('|');
            for (cell, w) in cells.iter().zip(&widths) {
                let _ = write!(out, " {cell:>w$} |");
            }
            out.push('\n');
        };
        out.push_str(&sep);
        out.push('\n');
        render_row(&self.header, &mut out);
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            render_row(row, &mut out);
        }
        out.push_str(&sep);
        out.push('\n');
        out
    }

    /// Renders RFC-4180-ish CSV (quotes cells containing separators).
    pub fn to_csv(&self) -> String {
        let esc = |s: &String| {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        let mut out = String::new();
        out.push_str(&self.header.iter().map(esc).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(esc).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats a fraction as a percentage with the given number of decimals.
pub fn pct(x: f64, decimals: usize) -> String {
    format!("{:.*}", decimals, x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn histogram_record_n_equals_n_records() {
        let mut bulk = LatencyHistogram::new();
        bulk.record_n(60, 1000);
        bulk.record_n(900, 3);
        bulk.record_n(12, 0); // no-op
        let mut seq = LatencyHistogram::new();
        for _ in 0..1000 {
            seq.record(60);
        }
        for _ in 0..3 {
            seq.record(900);
        }
        assert_eq!(bulk, seq);
        assert_eq!(bulk.count(), 1003);
        assert_eq!(bulk.min(), Some(60));
        assert_eq!(bulk.max(), Some(900));
    }

    #[test]
    fn percentile_nearest_rank() {
        let mut p = Percentiles::new();
        for x in 1..=100 {
            p.push(x as f64);
        }
        assert_eq!(p.quantile(0.5), Some(50.0));
        assert_eq!(p.quantile(0.99), Some(99.0));
        assert_eq!(p.quantile(1.0), Some(100.0));
        assert_eq!(p.quantile(0.0), Some(1.0), "q=0 clamps to first sample");
        assert_eq!(p.max(), Some(100.0));
    }

    #[test]
    fn empty_percentiles() {
        let mut p = Percentiles::new();
        assert_eq!(p.quantile(0.5), None);
        assert_eq!(p.fraction_at_most(10.0), 0.0);
        assert!(p.is_empty());
        // Every query on an empty reservoir is total — no panics, no NaNs.
        assert_eq!(p.quantile(0.0), None);
        assert_eq!(p.quantile(1.0), None);
        assert_eq!(p.median(), None);
        assert_eq!(p.max(), None);
        assert_eq!(p.mean(), 0.0);
        assert_eq!(p.count(), 0);
    }

    #[test]
    fn single_sample_quantiles() {
        let mut p = Percentiles::new();
        p.push(7.5);
        // Nearest-rank on one sample: every quantile is that sample, and
        // out-of-range q clamps instead of indexing out of bounds.
        for q in [-1.0, 0.0, 0.25, 0.5, 1.0, 2.0] {
            assert_eq!(p.quantile(q), Some(7.5), "q = {q}");
        }
        assert_eq!(p.max(), Some(7.5));
    }

    #[test]
    fn fraction_at_most_counts_inclusive() {
        let mut p = Percentiles::new();
        for x in [100.0, 150.0, 200.0, 900.0] {
            p.push(x);
        }
        assert!((p.fraction_at_most(200.0) - 0.75).abs() < 1e-12);
        assert!((p.fraction_at_most(99.0) - 0.0).abs() < 1e-12);
        assert!((p.fraction_at_most(1e9) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn table_renders_aligned_and_csv() {
        let mut t = TextTable::new(vec!["Algorithm", "P2", "Global"]);
        t.row(vec!["Drowsy-DC", "0", "66"]);
        t.row(vec!["Neat", "89", "49"]);
        let rendered = t.render();
        assert!(rendered.contains("| Algorithm |"));
        assert!(rendered.contains("| Drowsy-DC |"));
        let csv = t.to_csv();
        assert_eq!(csv.lines().next().unwrap(), "Algorithm,P2,Global");
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = TextTable::new(vec!["a"]);
        t.row(vec!["x,y"]);
        t.row(vec!["he said \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"he said \"\"hi\"\"\""));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
        assert_eq!(t.len(), 1);
        let csv = t.to_csv();
        assert_eq!(csv.lines().nth(1).unwrap(), "only-one,");
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.6634, 1), "66.3");
        assert_eq!(pct(0.5, 0), "50");
    }

    #[test]
    fn percentile_sorting_is_memoized_across_queries() {
        // Regression: quantile()/max()/fraction_at_most() must sort at
        // most once per mutation — repeated queries are O(1) lookups on
        // the memoized sorted buffer, invalidated only by push().
        let mut p = Percentiles::new();
        for x in [9.0, 1.0, 5.0, 3.0] {
            p.push(x);
        }
        assert!(!p.sorted, "pushes leave the buffer unsorted");
        assert_eq!(p.quantile(0.5), Some(3.0));
        assert!(p.sorted, "first query sorts and memoizes");
        // Subsequent queries observe the memoized state (no re-sort).
        assert_eq!(p.quantile(0.99), Some(9.0));
        assert_eq!(p.max(), Some(9.0));
        assert!((p.fraction_at_most(5.0) - 0.75).abs() < 1e-12);
        assert!(p.sorted, "queries never invalidate the sorted state");
        assert!(p.samples.windows(2).all(|w| w[0] <= w[1]));
        // A push invalidates; the next query re-sorts exactly once.
        p.push(2.0);
        assert!(!p.sorted, "push invalidates the memoized order");
        assert_eq!(p.quantile(0.0), Some(1.0));
        assert!(p.sorted);
    }

    #[test]
    fn histogram_basics_and_exact_low_range() {
        let mut h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
        for ms in 0..64u64 {
            h.record(ms);
        }
        // Values below 64 ms live in exact unit buckets: quantiles are exact.
        assert_eq!(h.count(), 64);
        assert_eq!(h.quantile(0.5), Some(31.0));
        assert_eq!(h.quantile(1.0), Some(63.0));
        assert_eq!(h.quantile(0.0), Some(0.0));
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(63));
        assert!((h.mean() - 31.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_bucket_scheme_is_monotone_and_tight() {
        // Bucket index is monotone in the value, the upper bound is
        // inclusive-tight, and the width bound holds across octaves.
        let mut prev = 0usize;
        for ms in [
            0u64,
            1,
            63,
            64,
            65,
            127,
            128,
            200,
            799,
            800,
            1500,
            1501,
            65_535,
            65_536,
            u32::MAX as u64,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let b = hist_bucket(ms);
            assert!(b >= prev, "bucket index must be monotone at {ms}");
            assert!(b < HIST_BUCKETS, "bucket {b} out of range at {ms}");
            let high = hist_bucket_high(b);
            assert!(high >= ms, "upper bound covers the value at {ms}");
            assert!(
                high - ms < LatencyHistogram::bucket_width(ms),
                "bound within one bucket width at {ms}"
            );
            prev = b;
        }
        // Exact range: width 1. First octave: width 2. And so on.
        assert_eq!(LatencyHistogram::bucket_width(63), 1);
        assert_eq!(LatencyHistogram::bucket_width(64), 1);
        assert_eq!(LatencyHistogram::bucket_width(128), 2);
        assert_eq!(LatencyHistogram::bucket_width(1500), 16);
    }

    #[test]
    fn histogram_quantile_error_is_bounded_by_bucket_width() {
        let mut h = LatencyHistogram::new();
        let mut p = Percentiles::new();
        for i in 0..5000u64 {
            let v = (i * i) % 40_000; // spread over several octaves
            h.record(v);
            p.push(v as f64);
        }
        for q in [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            let exact = p.quantile(q).unwrap();
            let approx = h.quantile(q).unwrap();
            let width = LatencyHistogram::bucket_width(exact as u64) as f64;
            assert!(
                approx >= exact && approx - exact < width,
                "q={q}: approx {approx} vs exact {exact} (width {width})"
            );
        }
    }

    #[test]
    fn histogram_merge_matches_sequential_bitwise() {
        let mut whole = LatencyHistogram::new();
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for i in 0..1000u64 {
            let v = (i * 37) % 9000;
            whole.record(v);
            if i < 400 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, whole, "merge equals the sequential build exactly");
        // Commutativity up to the trailing-zero tail of the counts Vec:
        // merging a longer histogram into a shorter one grows the buffer,
        // so compare the semantic state.
        assert_eq!(ba.count(), ab.count());
        assert_eq!(ba.quantile(0.99), ab.quantile(0.99));
        assert_eq!((ba.min(), ba.max()), (ab.min(), ab.max()));
    }

    proptest! {
        #[test]
        fn histogram_tracks_exact_percentiles(
            xs in proptest::collection::vec(0u64..2_000_000, 1..400),
            q in 0.0f64..1.0,
        ) {
            let mut h = LatencyHistogram::new();
            let mut p = Percentiles::new();
            for &x in &xs {
                h.record(x);
                p.push(x as f64);
            }
            let exact = p.quantile(q).unwrap();
            let approx = h.quantile(q).unwrap();
            let width = LatencyHistogram::bucket_width(exact as u64) as f64;
            prop_assert!(approx >= exact);
            prop_assert!(approx - exact < width);
            prop_assert!(approx <= h.max().unwrap() as f64);
            prop_assert_eq!(h.count() as usize, xs.len());
        }

        #[test]
        fn histogram_merge_is_associative_and_commutative(
            xs in proptest::collection::vec(0u64..100_000, 0..120),
            ys in proptest::collection::vec(0u64..100_000, 0..120),
            zs in proptest::collection::vec(0u64..100_000, 0..120),
        ) {
            let build = |vals: &[u64]| {
                let mut h = LatencyHistogram::new();
                for &v in vals {
                    h.record(v);
                }
                h
            };
            let (a, b, c) = (build(&xs), build(&ys), build(&zs));
            // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            prop_assert_eq!(&left, &right);
            // a ⊕ b == b ⊕ a, compared on the semantic state (the counts
            // Vec may differ in trailing-zero length).
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert_eq!(ab.count(), ba.count());
            prop_assert_eq!(ab.min(), ba.min());
            prop_assert_eq!(ab.max(), ba.max());
            for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
                prop_assert_eq!(ab.quantile(q), ba.quantile(q));
            }
        }
    }

    proptest! {
        #[test]
        fn quantiles_are_monotone(
            mut xs in proptest::collection::vec(-1e6f64..1e6, 1..300),
            q1 in 0.0f64..1.0,
            q2 in 0.0f64..1.0,
        ) {
            let mut p = Percentiles::new();
            for &x in &xs {
                p.push(x);
            }
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            let a = p.quantile(lo).unwrap();
            let b = p.quantile(hi).unwrap();
            prop_assert!(a <= b);
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            prop_assert!(a >= xs[0] && b <= xs[xs.len() - 1]);
        }
    }
}
