//! Pins the routing decisions of the head-aware schemes across changes.
//!
//! The differential suites compare merged window counts, which are correct
//! under *any* routing, and `batch_equivalence` compares two paths of the
//! same build. Neither notices a change that moves tuples to different
//! workers, e.g. a SpaceSaving eviction tie-break or a head-threshold
//! rounding change. This suite fingerprints the complete `route_batch`
//! output of D-C, W-C and RR on seeded Zipf streams, the final head
//! generation and the final SpaceSaving counters against checked-in
//! constants. The counters catch eviction-order changes that happen not to
//! move any tuple on these streams.
//!
//! A deliberate routing change must re-pin these constants and say why;
//! `--nocapture` prints the current rows.

use slb_core::{HeadAwarePartitioner, PartitionConfig, Partitioner};

const KEYS: usize = 10_000;
const TUPLES: usize = 200_000;
const BATCH: usize = 256;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `TUPLES` keys drawn from Zipf(`z`) over `KEYS` ranks by inverse CDF;
/// key `r` is rank `r`.
fn zipf_stream(z: f64, seed: u64) -> Vec<u64> {
    let mut cdf = Vec::with_capacity(KEYS);
    let mut acc = 0.0;
    for rank in 1..=KEYS {
        acc += (rank as f64).powf(-z);
        cdf.push(acc);
    }
    let mut state = seed;
    (0..TUPLES)
        .map(|_| {
            let u = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64 * acc;
            cdf.partition_point(|&c| c <= u).min(KEYS - 1) as u64
        })
        .collect()
}

/// FNV-1a over the little-endian bytes of `words`, in order.
fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Routes the stream in `BATCH`-sized chunks and returns the fingerprint of
/// all decisions, the final head generation and the fingerprint of the
/// final (key, count, error) counters in key order.
fn route(scheme: &str, n: usize, z: f64) -> (u64, u64, u64) {
    let cfg = PartitionConfig::new(n).with_seed(0x5eed ^ n as u64);
    let mut p = match scheme {
        "D-C" => HeadAwarePartitioner::d_choices(&cfg),
        "W-C" => HeadAwarePartitioner::w_choices(&cfg),
        "RR" => HeadAwarePartitioner::round_robin(&cfg),
        other => panic!("unknown scheme {other}"),
    };
    let keys = zipf_stream(z, (z * 10.0) as u64 * 1_000 + n as u64);
    let mut all = Vec::with_capacity(keys.len());
    let mut out = Vec::new();
    for chunk in keys.chunks(BATCH) {
        p.route_batch(chunk, &mut out);
        all.extend_from_slice(&out);
    }
    let mut counters: Vec<_> = p.head().sketch().counters().collect();
    counters.sort_by_key(|c| c.key);
    let sketch = fingerprint(counters.iter().flat_map(|c| [c.key, c.count, c.error]));
    let routes = fingerprint(all.iter().map(|&w| w as u64));
    (routes, p.head().generation(), sketch)
}

/// (scheme, n, z, route fingerprint, final head generation, counters
/// fingerprint).
const GOLDEN: &[(&str, usize, f64, u64, u64, u64)] = &[
    ("D-C", 8, 1.4, 0x2e0f4b267d1d3e05, 36, 0x96423aaa3efa440b),
    ("D-C", 8, 2.0, 0xb746ff715c11b2a5, 55, 0xa0bbf2e2f81034d2),
    ("D-C", 50, 1.4, 0x83965c2a8a453944, 43, 0x2fdc9f8d0bcadd9b),
    ("D-C", 50, 2.0, 0xe75f86abafd31bb8, 79, 0x9afb2c7d9c9ef6f5),
    ("W-C", 8, 1.4, 0xbf81527420ee64a5, 36, 0x96423aaa3efa440b),
    ("W-C", 8, 2.0, 0xb746ff715c11b2a5, 55, 0xa0bbf2e2f81034d2),
    ("W-C", 50, 1.4, 0xeb6a52acbd8b71bb, 43, 0x2fdc9f8d0bcadd9b),
    ("W-C", 50, 2.0, 0x95d25195764b88da, 79, 0x9afb2c7d9c9ef6f5),
    ("RR", 8, 1.4, 0xb8cf8606d69c00a1, 36, 0x96423aaa3efa440b),
    ("RR", 8, 2.0, 0x7b33e2343100d980, 55, 0xa0bbf2e2f81034d2),
    ("RR", 50, 1.4, 0x738ee458cada95f3, 43, 0x2fdc9f8d0bcadd9b),
    ("RR", 50, 2.0, 0x0a3b2707d7e41daa, 79, 0x9afb2c7d9c9ef6f5),
];

#[test]
fn head_aware_routing_matches_the_pinned_fingerprints() {
    let mut mismatches = Vec::new();
    for &(scheme, n, z, want_routes, want_generation, want_sketch) in GOLDEN {
        let (routes, generation, sketch) = route(scheme, n, z);
        println!("    (\"{scheme}\", {n}, {z:?}, {routes:#018x}, {generation}, {sketch:#018x}),");
        if (routes, generation, sketch) != (want_routes, want_generation, want_sketch) {
            mismatches.push(format!(
                "{scheme} n={n} z={z}: routes {routes:#018x} generation {generation} \
                 counters {sketch:#018x}, pinned {want_routes:#018x} generation \
                 {want_generation} counters {want_sketch:#018x}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "routing changed:\n{}",
        mismatches.join("\n")
    );
}
