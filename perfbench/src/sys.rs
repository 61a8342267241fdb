//! Process counters and the small statistics the benchmark reports.

use slb_telemetry::{bucket_floor, LogHistogram};

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime_sec: i64,
    utime_usec: i64,
    stime_sec: i64,
    stime_usec: i64,
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage_self() -> Rusage {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `Rusage` whose layout matches the
    // kernel's `struct rusage` on 64-bit Linux (all fields are 64-bit), and
    // `getrusage` writes exactly one such struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    usage
}

/// User plus system CPU time of the whole process so far, in seconds.
pub fn cpu_seconds() -> f64 {
    let u = rusage_self();
    (u.utime_sec + u.stime_sec) as f64 + (u.utime_usec + u.stime_usec) as f64 / 1e6
}

/// Peak resident set size of the process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    rusage_self().maxrss_kib as f64 / 1024.0
}

/// The `q`-quantile of `values`, interpolating linearly between the two
/// nearest order statistics.
///
/// # Panics
/// Panics on an empty slice or a `q` outside `[0, 1]`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = q * (sorted.len() - 1) as f64;
    let low = at.floor() as usize;
    let high = at.ceil() as usize;
    sorted[low] + (at - low as f64) * (sorted[high] - sorted[low])
}

/// Median of `values`.
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `p`-quantile of a log-bucketed histogram, interpolated linearly
/// inside the bucket that holds the rank. The histogram's own `quantile`
/// reports bucket floors, which step by up to 1/16 of an octave; the
/// interpolation keeps a run-to-run comparison from jumping a whole step
/// on a one-sample change.
pub fn interpolated_quantile(hist: &LogHistogram, p: f64) -> f64 {
    let total = hist.count();
    if total == 0 {
        return 0.0;
    }
    let rank = p * total as f64;
    let mut seen = 0u64;
    for (index, count) in hist.nonzero_buckets() {
        let index = index as usize;
        if (seen + count) as f64 >= rank {
            let low = bucket_floor(index) as f64;
            let high = bucket_floor(index + 1) as f64;
            let within = (rank - seen as f64) / count as f64;
            return low + within * (high - low);
        }
        seen += count;
    }
    hist.max() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.75), 4.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.75), 1.75);
    }

    #[test]
    fn interpolated_quantile_stays_inside_the_bucket() {
        let mut hist = LogHistogram::new();
        for v in 1_000..2_000u64 {
            hist.record(v);
        }
        let p50 = interpolated_quantile(&hist, 0.5);
        assert!((1_400.0..1_600.0).contains(&p50), "{p50}");
        assert!(interpolated_quantile(&hist, 0.99) <= 2_048.0);
    }

    #[test]
    fn process_counters_move() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_seconds() > before, "{x}");
        assert!(peak_rss_mb() > 0.0);
    }
}
