//! Log-linear histograms over `u64` values (latencies in ns, byte
//! counts), recordable lock-free from any thread.
//!
//! Bucketing follows the HdrHistogram idea at fixed, coarse resolution:
//! values below [`LINEAR_MAX`] get their own bucket; above that, each
//! power-of-two octave is split into [`SUB_BUCKETS`] linear sub-buckets,
//! bounding the relative quantile error at `1/SUB_BUCKETS` (6.25%) while
//! keeping the whole table a fixed 976-slot array of atomics — no
//! allocation, no locking, three relaxed atomic ops per `record`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Values below this are bucketed exactly.
const LINEAR_MAX: u64 = 16;
/// Linear sub-buckets per octave above `LINEAR_MAX`.
const SUB_BUCKETS: u64 = 16;
/// log2 of `LINEAR_MAX` (== log2 of `SUB_BUCKETS`).
const LINEAR_BITS: u32 = 4;
/// Total bucket count: 16 exact + 60 octaves × 16 sub-buckets.
const NUM_BUCKETS: usize = (LINEAR_MAX + (64 - LINEAR_BITS as u64) * SUB_BUCKETS) as usize;

/// Map a value to its bucket index.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros(); // >= LINEAR_BITS
        let octave = (msb - LINEAR_BITS) as u64;
        let sub = (v >> (msb - LINEAR_BITS)) & (SUB_BUCKETS - 1);
        (LINEAR_MAX + octave * SUB_BUCKETS + sub) as usize
    }
}

/// Lowest value mapping to bucket `idx` (inverse of [`bucket_index`]).
fn bucket_low(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < LINEAR_MAX {
        idx
    } else {
        let octave = (idx - LINEAR_MAX) / SUB_BUCKETS;
        let sub = (idx - LINEAR_MAX) % SUB_BUCKETS;
        (LINEAR_MAX + sub) << octave
    }
}

/// Midpoint of bucket `idx`, the value quantiles report.
fn bucket_mid(idx: usize) -> u64 {
    let low = bucket_low(idx);
    let width = if (idx as u64) < LINEAR_MAX { 1 } else { 1u64 << ((idx as u64 - LINEAR_MAX) / SUB_BUCKETS) };
    low + (width - 1) / 2
}

/// A fixed-size, lock-free log-linear histogram.
pub struct Histogram {
    buckets: Box<[AtomicU64; NUM_BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        // `AtomicU64` is not Copy; build the array in place.
        let buckets: Box<[AtomicU64; NUM_BUCKETS]> = (0..NUM_BUCKETS)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice()
            .try_into()
            .unwrap_or_else(|_| unreachable!("length fixed"));
        Histogram { buckets, count: AtomicU64::new(0), sum: AtomicU64::new(0), max: AtomicU64::new(0) }
    }

    /// Record one value. Lock-free: three relaxed adds plus a
    /// `fetch_max`; safe from any number of threads.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Fold `other` into `self` bucket-wise. Because both sides share
    /// the same fixed bucket layout, merging never re-buckets a value:
    /// the merged quantiles carry exactly the same ≤ 1/16 relative
    /// error as if every value had been recorded into one histogram,
    /// and `count`/`sum`/`max` combine losslessly. This is how per-host
    /// (or per-epoch) histograms roll up into a cluster-wide view.
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum.fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max.fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value (exact).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Recorded values *strictly above* `threshold`, counted at bucket
    /// granularity: every bucket whose entire range lies above the
    /// threshold's own bucket. Values sharing the threshold's bucket
    /// are not counted — the answer under-reports by at most the one
    /// ambiguous bucket, i.e. the same ≤ 1/16 relative blur every
    /// quantile here carries. This is the burn-rate primitive: the SLO
    /// engine divides it by [`Histogram::count`] to get the fraction of
    /// samples that blew a latency objective.
    pub fn count_over(&self, threshold: u64) -> u64 {
        self.buckets[bucket_index(threshold) + 1..]
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// [`Histogram::count_over`] as a fraction of everything recorded;
    /// 0.0 when empty.
    pub fn fraction_over(&self, threshold: u64) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        self.count_over(threshold) as f64 / count as f64
    }

    /// Serialize for the fabric: a sparse big-endian layout —
    /// `count, sum, max, n, then n × (bucket index u16, bucket count
    /// u64)` in strictly ascending index order. Registries are mostly
    /// empty (a latency series touches a handful of octaves), so the
    /// wire cost is tens of bytes, not the 976-slot table.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&self.count().to_be_bytes());
        out.extend_from_slice(&self.sum().to_be_bytes());
        out.extend_from_slice(&self.max.load(Ordering::Relaxed).to_be_bytes());
        let nonzero: Vec<(u16, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i as u16, n))
            })
            .collect();
        out.extend_from_slice(&(nonzero.len() as u32).to_be_bytes());
        for (idx, n) in nonzero {
            out.extend_from_slice(&idx.to_be_bytes());
            out.extend_from_slice(&n.to_be_bytes());
        }
        out
    }

    /// Parse untrusted fabric bytes back into a histogram. `None` on
    /// anything malformed — truncation, trailing bytes, an index out of
    /// the fixed table, indices out of ascending order, a zero bucket
    /// count, or a `count` header that disagrees with the bucket sum —
    /// the same hardening discipline as the migration wire messages.
    pub fn decode(bytes: &[u8]) -> Option<Histogram> {
        fn take_u64(b: &[u8], at: &mut usize) -> Option<u64> {
            let v = u64::from_be_bytes(b.get(*at..*at + 8)?.try_into().ok()?);
            *at += 8;
            Some(v)
        }
        let mut at = 0usize;
        let count = take_u64(bytes, &mut at)?;
        let sum = take_u64(bytes, &mut at)?;
        let max = take_u64(bytes, &mut at)?;
        let n = u32::from_be_bytes(bytes.get(at..at + 4)?.try_into().ok()?) as usize;
        at += 4;
        if n > NUM_BUCKETS {
            return None;
        }
        let h = Histogram::new();
        let mut total = 0u64;
        let mut prev: Option<u16> = None;
        for _ in 0..n {
            let idx = u16::from_be_bytes(bytes.get(at..at + 2)?.try_into().ok()?);
            at += 2;
            let cnt = take_u64(bytes, &mut at)?;
            if idx as usize >= NUM_BUCKETS || cnt == 0 || prev.is_some_and(|p| idx <= p) {
                return None;
            }
            prev = Some(idx);
            h.buckets[idx as usize].store(cnt, Ordering::Relaxed);
            total = total.checked_add(cnt)?;
        }
        if at != bytes.len() || total != count {
            return None;
        }
        h.count.store(count, Ordering::Relaxed);
        h.sum.store(sum, Ordering::Relaxed);
        h.max.store(max, Ordering::Relaxed);
        Some(h)
    }

    /// The bucket-wise difference `self − prev`, for turning cumulative
    /// scrapes into per-window deltas. `None` if any bucket (or the
    /// count/sum) went backwards — a registry is monotone, so that
    /// means the host restarted and the caller should treat the fresh
    /// scrape as a full delta. The delta's `max` is inherited from
    /// `self` (the epoch max): a histogram cannot say which window its
    /// maximum landed in, only that it happened by now.
    pub fn delta_since(&self, prev: &Histogram) -> Option<Histogram> {
        let out = Histogram::new();
        for (i, (mine, theirs)) in self.buckets.iter().zip(prev.buckets.iter()).enumerate() {
            let (a, b) = (mine.load(Ordering::Relaxed), theirs.load(Ordering::Relaxed));
            out.buckets[i].store(a.checked_sub(b)?, Ordering::Relaxed);
        }
        out.count
            .store(self.count().checked_sub(prev.count())?, Ordering::Relaxed);
        out.sum.store(self.sum().checked_sub(prev.sum())?, Ordering::Relaxed);
        out.max.store(self.max.load(Ordering::Relaxed), Ordering::Relaxed);
        Some(out)
    }

    /// Freeze the histogram into a summary. Quantiles are bucket
    /// midpoints (relative error ≤ 1/16 above the linear range), clamped
    /// to the exact `max`: a bucket's midpoint can lie above every value
    /// recorded in it, and a summary must never report a quantile larger
    /// than its maximum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let sum = self.sum.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        let mut quantiles = [0u64; 4];
        if count > 0 {
            // One walk over the buckets resolves every quantile; the
            // ranks ascend with the quantiles, so they resolve in order.
            let ranks = [0.50, 0.90, 0.99, 0.999].map(|q| ((q * count as f64).ceil() as u64).max(1));
            let mut seen = 0u64;
            let mut next = 0usize;
            for (idx, b) in self.buckets.iter().enumerate() {
                seen += b.load(Ordering::Relaxed);
                while next < ranks.len() && seen >= ranks[next] {
                    quantiles[next] = bucket_mid(idx).min(max);
                    next += 1;
                }
                if next == ranks.len() {
                    break;
                }
            }
        }
        let [p50, p90, p99, p999] = quantiles;
        HistogramSnapshot {
            count,
            sum,
            mean: if count == 0 { 0.0 } else { sum as f64 / count as f64 },
            p50,
            p90,
            p99,
            p999,
            max,
        }
    }
}

/// A frozen view of a [`Histogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (bucket midpoint).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Largest recorded value (exact).
    pub max: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..LINEAR_MAX {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_low(v as usize), v);
            assert_eq!(bucket_mid(v as usize), v);
        }
    }

    #[test]
    fn bucket_bounds_are_monotonic_and_tight() {
        let mut prev = 0;
        for idx in 1..NUM_BUCKETS {
            let low = bucket_low(idx);
            assert!(low > prev, "bucket {idx} low {low} <= {prev}");
            assert_eq!(bucket_index(low), idx, "low of bucket {idx} maps back");
            prev = low;
        }
        // The top bucket still covers u64::MAX.
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn relative_error_bounded() {
        for v in [17u64, 100, 999, 4096, 1_000_000, 123_456_789, u64::MAX / 3] {
            let mid = bucket_mid(bucket_index(v));
            let err = (mid as f64 - v as f64).abs() / v as f64;
            assert!(err <= 1.0 / SUB_BUCKETS as f64 + 1e-9, "v={v} mid={mid} err={err}");
        }
    }

    #[test]
    fn quantiles_never_exceed_max() {
        fn check(h: &Histogram, what: &str) {
            let s = h.snapshot();
            assert!(
                s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.p999 && s.p999 <= s.max,
                "{what}: {s:?}"
            );
        }
        // A bucket midpoint above the one value recorded in it: 8192
        // and 30000 used to summarise as p50 8447 and 30207.
        for v in [0u64, 1, 15, 16, 17, 100, 8192, 30_000, 1 << 40, u64::MAX] {
            let h = Histogram::new();
            h.record(v);
            check(&h, &format!("single {v}"));
        }
        // Seeded random mixes across magnitudes (xorshift64).
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for round in 0..64 {
            let h = Histogram::new();
            for _ in 0..1 + round * 7 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                h.record(x >> (x % 64));
            }
            check(&h, &format!("random round {round}"));
        }
    }

    #[test]
    fn quantiles_of_uniform_range() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10_000);
        assert_eq!(s.max, 10_000);
        let tol = |q: f64, got: u64| {
            let want = q * 10_000.0;
            assert!(
                (got as f64 - want).abs() / want <= 0.08,
                "q{q}: got {got}, want ~{want}"
            );
        };
        tol(0.50, s.p50);
        tol(0.90, s.p90);
        tol(0.99, s.p99);
        tol(0.999, s.p999);
        assert!((s.mean - 5000.5).abs() < 1.0);
    }

    #[test]
    fn merge_conserves_count_sum_and_max() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in 1..=5_000u64 {
            a.record(v);
        }
        for v in 5_001..=10_000u64 {
            b.record(v * 3);
        }
        let (ca, sa) = (a.count(), a.sum());
        let (cb, sb) = (b.count(), b.sum());
        a.merge(&b);
        let s = a.snapshot();
        assert_eq!(s.count, ca + cb);
        assert_eq!(s.sum, sa + sb);
        assert_eq!(s.max, 30_000);
        // Merging an empty histogram is the identity.
        a.merge(&Histogram::new());
        assert_eq!(a.snapshot(), s);
    }

    #[test]
    fn merged_quantiles_match_single_histogram() {
        // Merge must be indistinguishable from having recorded every
        // value into one histogram: the bucket layout is shared, so
        // the snapshots agree bit-for-bit.
        let split_a = Histogram::new();
        let split_b = Histogram::new();
        let whole = Histogram::new();
        for i in 0..20_000u64 {
            let v = (i * 2_654_435_761) % 1_000_000 + 1; // scattered values
            whole.record(v);
            if i % 2 == 0 { split_a.record(v) } else { split_b.record(v) }
        }
        split_a.merge(&split_b);
        assert_eq!(split_a.snapshot(), whole.snapshot());
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s, HistogramSnapshot::default());
    }

    #[test]
    fn wire_roundtrip_is_bit_identical() {
        let h = Histogram::new();
        for i in 0..5_000u64 {
            h.record((i * 2_654_435_761) % 3_000_000);
        }
        let bytes = h.encode();
        // Sparse: a few dozen populated buckets, not the whole table.
        assert!(bytes.len() < NUM_BUCKETS * 2, "encoding must be sparse");
        let back = Histogram::decode(&bytes).expect("own encoding decodes");
        assert_eq!(back.snapshot(), h.snapshot());
        assert_eq!(back.encode(), bytes, "re-encoding is stable");
        // Empty histogram round-trips too.
        let empty = Histogram::decode(&Histogram::new().encode()).unwrap();
        assert_eq!(empty.snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn decode_rejects_malformed_wire_bytes() {
        let h = Histogram::new();
        for v in [1, 40, 40, 9_000, 1 << 40] {
            h.record(v);
        }
        let good = h.encode();
        assert!(Histogram::decode(&good).is_some());
        // Truncated at every length.
        for cut in 0..good.len() {
            assert!(Histogram::decode(&good[..cut]).is_none(), "cut {cut}");
        }
        // Trailing garbage.
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(Histogram::decode(&trailing).is_none());
        // Count header disagreeing with the bucket sum.
        let mut lying = good.clone();
        lying[7] ^= 1;
        assert!(Histogram::decode(&lying).is_none());
        // Bucket index out of the fixed table: forge a single-entry
        // body with idx = NUM_BUCKETS.
        let mut forged = Vec::new();
        forged.extend_from_slice(&1u64.to_be_bytes());
        forged.extend_from_slice(&5u64.to_be_bytes());
        forged.extend_from_slice(&5u64.to_be_bytes());
        forged.extend_from_slice(&1u32.to_be_bytes());
        forged.extend_from_slice(&(NUM_BUCKETS as u16).to_be_bytes());
        forged.extend_from_slice(&1u64.to_be_bytes());
        assert!(Histogram::decode(&forged).is_none());
        // Out-of-order (duplicate) indices.
        let mut dup = Vec::new();
        dup.extend_from_slice(&2u64.to_be_bytes());
        dup.extend_from_slice(&10u64.to_be_bytes());
        dup.extend_from_slice(&5u64.to_be_bytes());
        dup.extend_from_slice(&2u32.to_be_bytes());
        for _ in 0..2 {
            dup.extend_from_slice(&3u16.to_be_bytes());
            dup.extend_from_slice(&1u64.to_be_bytes());
        }
        assert!(Histogram::decode(&dup).is_none());
    }

    #[test]
    fn delta_since_recovers_the_increment() {
        let prev = Histogram::new();
        for v in [5, 900, 70_000] {
            prev.record(v);
        }
        let now = Histogram::decode(&prev.encode()).unwrap();
        let fresh = Histogram::new();
        for v in [6, 901, 2_000_000] {
            now.record(v);
            fresh.record(v);
        }
        let delta = now.delta_since(&prev).expect("monotone registries diff");
        assert_eq!(delta.count(), 3);
        assert_eq!(delta.sum(), fresh.sum());
        // The delta's max is the epoch max — documented approximation.
        assert_eq!(delta.max(), 2_000_000);
        // Quantile structure matches the true increment bucket-for-bucket.
        assert_eq!(delta.snapshot().p99, fresh.snapshot().p99);
        // A shrunken "current" (host restart) refuses to diff.
        assert!(prev.delta_since(&now).is_none());
    }

    #[test]
    fn count_over_supports_burn_fractions() {
        let h = Histogram::new();
        for _ in 0..990 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(50_000_000);
        }
        // Everything above threshold sits far above its bucket, so the
        // bucket-granular count is exact here.
        assert_eq!(h.count_over(1_000_000), 10);
        let f = h.fraction_over(1_000_000);
        assert!((f - 0.01).abs() < 1e-9, "burn fraction {f}");
        assert_eq!(Histogram::new().fraction_over(5).to_bits(), 0f64.to_bits());
    }

    #[test]
    fn concurrent_records_conserve_count() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1000 + i % 97);
                    }
                })
            })
            .collect();
        for j in handles {
            j.join().unwrap();
        }
        assert_eq!(h.count(), 80_000);
        assert_eq!(h.snapshot().count, 80_000);
    }
}
