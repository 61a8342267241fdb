//! Property suite for the histogram merge laws and quantile guarantees.
//!
//! The laws that make per-worker histograms safely mergeable into
//! cluster-wide rollups, pinned over random value multisets:
//!
//! 1. **Union** — `merge(a, b)` equals recording the union of both
//!    recordings into one histogram.
//! 2. **Commutativity / associativity** — merge order and grouping never
//!    change the result (with the empty histogram as identity).
//! 3. **Quantile monotonicity** — `quantile(p)` is non-decreasing in `p`.
//! 4. **Error bound** — every quantile under-reports the exact
//!    nearest-rank value by less than 2⁻⁴ relative error, and `count`,
//!    `sum`, `min`, `max` are exact.
//! 5. **Totality on decoded parts** — `from_parts` builds a histogram
//!    whose quantiles, mean and merges never panic, even when the parts
//!    disagree: repeated bucket indices whose counts overflow, bucket
//!    totals that miss `count`, or `min > max` (what a racy live snapshot
//!    can produce). Such parts are accepted, not rejected, because
//!    periodic snapshots are legitimately inconsistent cuts.
//!
//! ci.sh re-runs this suite at PROPTEST_CASES=256.

use proptest::prelude::*;

use slb_telemetry::{bucket_floor, bucket_index, LogHistogram, MetricsSnapshot, NUM_BUCKETS};

fn hist_of(values: &[u64]) -> LogHistogram {
    let mut hist = LogHistogram::new();
    for &v in values {
        hist.record(v);
    }
    hist
}

/// Everything a report summary asks of a decoded histogram; must not panic.
fn exercise(hist: &LogHistogram) {
    let mut last = 0u64;
    for p in [0.0, 0.5, 0.95, 0.99, 1.0] {
        let q = hist.quantile(p);
        assert!(q >= last, "quantile regressed at p={p}: {q} < {last}");
        last = q;
    }
    let _ = hist.mean();
    let mut doubled = hist.clone();
    doubled.merge(hist);
    let _ = doubled.quantile(0.5);
    assert!(doubled.count() >= hist.count());
}

#[test]
fn duplicated_bucket_counts_saturate_instead_of_overflowing() {
    let hist = LogHistogram::from_parts(&[(7, u64::MAX), (7, 2), (900, 5)], 3, 21, 7, 7);
    assert_eq!(hist.nonzero_buckets(), vec![(7, u64::MAX), (900, 5)]);
    assert_eq!(hist.quantile(0.5), 7);
    exercise(&hist);
    let everywhere =
        LogHistogram::from_parts(&[(3, u64::MAX), (4, u64::MAX)], u64::MAX, u128::MAX, 3, 4);
    assert_eq!(everywhere.quantile(0.0), 3);
    // The top rank lies past the saturated running total: report the max.
    assert_eq!(everywhere.quantile(1.0), 4);
    exercise(&everywhere);
}

#[test]
fn inverted_min_max_summarizes_without_panicking() {
    // A live snapshot can load `count` before the first `fetch_min` /
    // `fetch_max` lands: min still u64::MAX, max still 0.
    let hist = LogHistogram::from_parts(&[(20, 4)], 4, 100, u64::MAX, 0);
    assert_eq!(hist.quantile(0.5), 0, "capped at the recorded max");
    exercise(&hist);
}

proptest! {
    // 64 cases locally; ci.sh raises this via PROPTEST_CASES.
    #![proptest_config(ProptestConfig::with_cases_env(64))]

    #[test]
    fn merge_is_union(
        a in proptest::collection::vec(any::<u64>(), 0..200),
        b in proptest::collection::vec(any::<u64>(), 0..200),
    ) {
        let mut merged = hist_of(&a);
        merged.merge(&hist_of(&b));
        let union: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        prop_assert_eq!(merged, hist_of(&union));
    }

    #[test]
    fn merge_commutes_and_associates(
        a in proptest::collection::vec(any::<u64>(), 0..120),
        b in proptest::collection::vec(any::<u64>(), 0..120),
        c in proptest::collection::vec(any::<u64>(), 0..120),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        // Commutativity.
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba);
        // Associativity.
        let mut ab_c = ab;
        ab_c.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut a_bc = ha.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);
        // Identity.
        let mut with_empty = ha.clone();
        with_empty.merge(&LogHistogram::new());
        prop_assert_eq!(&with_empty, &ha);
    }

    #[test]
    fn quantiles_are_monotone_in_p(
        values in proptest::collection::vec(any::<u64>(), 1..300),
        cuts in proptest::collection::vec(0.0f64..1.0, 2..12),
    ) {
        let hist = hist_of(&values);
        let mut ps = cuts.clone();
        ps.sort_by(|x, y| x.partial_cmp(y).expect("no NaN in 0..=1"));
        let mut last = 0u64;
        for p in ps {
            let q = hist.quantile(p);
            prop_assert!(q >= last, "quantile regressed at p={}: {} < {}", p, q, last);
            last = q;
        }
    }

    #[test]
    fn quantiles_underreport_within_the_bound(
        values in proptest::collection::vec(any::<u64>(), 1..400),
        p in 0.0f64..1.0,
    ) {
        let hist = hist_of(&values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        // The exact nearest-rank value, matching LatencySummary's
        // convention.
        let rank = (((sorted.len() - 1) as f64) * p).round() as usize;
        let exact = sorted[rank];
        let got = hist.quantile(p);
        prop_assert!(got <= exact, "quantile must never over-report: {} > {}", got, exact);
        // Under-report bounded by one bucket width: exact < got·(1+2⁻⁴),
        // with +1 absorbing the integer floor for tiny values.
        prop_assert!(
            (exact as f64) < (got as f64) * (1.0 + 1.0 / 16.0) + 1.0,
            "p{}: reported {} vs exact {} exceeds the 6.25% bound", p, got, exact
        );
        // Scalars are exact regardless of bucketing.
        prop_assert_eq!(hist.count(), values.len() as u64);
        prop_assert_eq!(hist.sum(), values.iter().map(|&v| v as u128).sum::<u128>());
        prop_assert_eq!(hist.min(), *sorted.first().expect("non-empty"));
        prop_assert_eq!(hist.max(), *sorted.last().expect("non-empty"));
    }

    #[test]
    fn bucket_floor_is_a_fixed_point(index in 0usize..NUM_BUCKETS) {
        // Re-recording a histogram's representative values must land in
        // identical buckets.
        prop_assert_eq!(bucket_index(bucket_floor(index)), index);
    }

    #[test]
    fn bucket_index_is_monotone_and_floor_bounds(value in any::<u64>()) {
        let index = bucket_index(value);
        prop_assert!(index < NUM_BUCKETS);
        prop_assert!(bucket_floor(index) <= value);
        if index + 1 < NUM_BUCKETS {
            prop_assert!(value < bucket_floor(index + 1));
        }
    }

    #[test]
    fn from_parts_is_total_on_arbitrary_parts(
        indices in proptest::collection::vec(0u32..1_000, 0..20),
        counts in proptest::collection::vec(any::<u64>(), 0..20),
        count in any::<u64>(),
        sum_lo in any::<u64>(),
        sum_hi in any::<u64>(),
        min in any::<u64>(),
        max in any::<u64>(),
    ) {
        let mut buckets: Vec<(u32, u64)> = indices.iter().copied().zip(counts.iter().copied()).collect();
        // Repeat every pair so duplicated indices are always exercised.
        buckets.extend(buckets.clone());
        let sum = (u128::from(sum_hi) << 64) | u128::from(sum_lo);
        exercise(&LogHistogram::from_parts(&buckets, count, sum, min, max));
    }

    #[test]
    fn snapshot_latency_round_trips_through_sparse_buckets(
        values in proptest::collection::vec(any::<u64>(), 0..200),
    ) {
        let hist = hist_of(&values);
        let mut snapshot = MetricsSnapshot::default();
        snapshot.set_latency(&hist);
        if u64::try_from(hist.sum()).is_ok() {
            prop_assert_eq!(snapshot.latency_histogram(), hist);
        }
    }
}
