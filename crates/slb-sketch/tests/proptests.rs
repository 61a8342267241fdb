//! Property-based tests for the heavy-hitter substrate.
//!
//! These check the published guarantees of each summary on arbitrary streams
//! rather than hand-picked ones:
//! * SpaceSaving: estimates are upper bounds, errors bounded by m/k, and
//!   every φ-heavy key is monitored for k ≥ 1/φ.
//! * SpaceSaving eviction order: step for step equal to a naive reference
//!   model, ties included.
//! * Merge: merged estimates dominate the true counts of the combined stream.

use proptest::prelude::*;
use std::collections::HashMap;

use slb_sketch::{
    merge::{merge_space_saving, merged_space_saving},
    ExactCounter, FrequencyEstimator, SpaceSaving,
};

/// A skew-friendly stream strategy: keys drawn from a small universe with a
/// bias toward low key identifiers, lengths up to a few thousand.
fn stream_strategy() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        prop_oneof![
            3 => 0u64..5,      // hot keys
            2 => 5u64..50,     // warm keys
            1 => 50u64..5_000, // cold tail
        ],
        1..3_000,
    )
}

fn exact(stream: &[u64]) -> HashMap<u64, u64> {
    let mut m = HashMap::new();
    for &k in stream {
        *m.entry(k).or_insert(0u64) += 1;
    }
    m
}

/// A naive SpaceSaving: a flat list scanned on every update. It evicts the
/// minimum count and, among equal minimum counts, the key that most recently
/// arrived at that count.
struct ReferenceSpaceSaving {
    capacity: usize,
    clock: u64,
    /// (key, count, error, clock value when the key reached `count`).
    entries: Vec<(u64, u64, u64, u64)>,
}

impl ReferenceSpaceSaving {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            clock: 0,
            entries: Vec::new(),
        }
    }

    /// Returns the key's (before, after) estimates and the evicted key.
    fn observe(&mut self, key: u64) -> ((u64, u64), Option<u64>) {
        self.clock += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == key) {
            e.1 += 1;
            e.3 = self.clock;
            return ((e.1 - 1, e.1), None);
        }
        if self.entries.len() < self.capacity {
            self.entries.push((key, 1, 0, self.clock));
            return ((0, 1), None);
        }
        let victim = self
            .entries
            .iter_mut()
            .min_by_key(|e| (e.1, std::cmp::Reverse(e.3)))
            .expect("a full summary has entries");
        let evicted = victim.0;
        let min = victim.1;
        *victim = (key, min + 1, min, self.clock);
        ((0, min + 1), Some(evicted))
    }

    fn counters(&self) -> Vec<(u64, u64, u64)> {
        let mut v: Vec<_> = self.entries.iter().map(|e| (e.0, e.1, e.2)).collect();
        v.sort_unstable();
        v
    }
}

fn sorted_counters(ss: &SpaceSaving<u64>) -> Vec<(u64, u64, u64)> {
    let mut v: Vec<_> = ss.counters().map(|c| (c.key, c.count, c.error)).collect();
    v.sort_unstable();
    v
}

proptest! {
    // 64 cases locally; ci.sh raises this via PROPTEST_CASES.
    #![proptest_config(ProptestConfig::with_cases_env(64))]

    #[test]
    fn space_saving_guarantees(stream in stream_strategy(), capacity in 1usize..200) {
        let truth = exact(&stream);
        let mut ss = SpaceSaving::new(capacity);
        for k in &stream {
            ss.observe(k);
        }
        let m = stream.len() as u64;
        prop_assert_eq!(ss.total(), m);
        prop_assert!(ss.len() <= capacity);
        for c in ss.counters() {
            let t = truth.get(&c.key).copied().unwrap_or(0);
            prop_assert!(c.count >= t, "estimate below truth");
            prop_assert!(c.count - c.error <= t, "guaranteed count above truth");
            prop_assert!(c.error <= m / capacity as u64 + 1, "error bound violated");
        }
        // Completeness: every key with count > m/capacity is monitored.
        for (k, &t) in &truth {
            if t > m / capacity as u64 {
                prop_assert!(ss.get(k).is_some(), "heavy key {} lost", k);
            }
        }
    }

    #[test]
    fn exact_counter_matches_hashmap(stream in stream_strategy()) {
        let truth = exact(&stream);
        let mut ec = ExactCounter::new();
        for k in &stream {
            ec.observe(k);
        }
        prop_assert_eq!(ec.distinct(), truth.len());
        for (k, &t) in &truth {
            prop_assert_eq!(ec.estimate(k), t);
        }
    }

    #[test]
    fn merged_summaries_dominate_combined_truth(
        stream_a in stream_strategy(),
        stream_b in stream_strategy(),
        capacity in 4usize..100,
    ) {
        let mut truth = exact(&stream_a);
        for (k, v) in exact(&stream_b) {
            *truth.entry(k).or_insert(0) += v;
        }
        let mut a = SpaceSaving::new(capacity);
        for k in &stream_a {
            a.observe(k);
        }
        let mut b = SpaceSaving::new(capacity);
        for k in &stream_b {
            b.observe(k);
        }
        let merged = merge_space_saving(&[&a, &b], capacity);
        prop_assert_eq!(merged.total, (stream_a.len() + stream_b.len()) as u64);
        for c in &merged.counters {
            let t = truth.get(&c.key).copied().unwrap_or(0);
            prop_assert!(c.count >= t, "merged estimate below combined truth");
        }
    }

    /// `from_counters` must rebuild a summary exactly: same total, same
    /// counters, same min_count, and the rebuilt structure must keep
    /// observing with unchanged semantics (checked against the original
    /// continuing in lockstep).
    #[test]
    fn from_counters_round_trips_and_stays_live(
        stream in stream_strategy(),
        extra in stream_strategy(),
        capacity in 1usize..100,
    ) {
        let mut original = SpaceSaving::new(capacity);
        for k in &stream {
            original.observe(k);
        }
        let mut rebuilt = SpaceSaving::from_counters(capacity, original.total(), original.counters());
        prop_assert_eq!(rebuilt.total(), original.total());
        prop_assert_eq!(rebuilt.len(), original.len());
        prop_assert_eq!(rebuilt.min_count(), original.min_count());
        for c in original.counters() {
            let r = rebuilt.get(&c.key);
            prop_assert!(r.is_some(), "key {} lost in round trip", c.key);
            let r = r.unwrap();
            prop_assert_eq!(r.count, c.count);
            prop_assert_eq!(r.error, c.error);
        }
        // Same continuation stream → same estimates and same total, proving
        // the rebuilt bucket structure is a faithful Stream-Summary.
        for k in &extra {
            original.observe(k);
            rebuilt.observe(k);
            prop_assert_eq!(rebuilt.estimate(k), original.estimate(k));
        }
        prop_assert_eq!(rebuilt.total(), original.total());
    }

    /// The pairwise summary merge (`merged_space_saving`, the windowed
    /// top-k merge path): totals are additive, merged estimates dominate
    /// the combined truth, and while both inputs stay below capacity the
    /// merge is the exact sum of per-key counts.
    #[test]
    fn merged_space_saving_is_exact_below_capacity_and_sound_above(
        stream_a in stream_strategy(),
        stream_b in stream_strategy(),
        capacity in 1usize..100,
    ) {
        let mut truth = exact(&stream_a);
        for (k, v) in exact(&stream_b) {
            *truth.entry(k).or_insert(0) += v;
        }
        let mut a = SpaceSaving::new(capacity);
        for k in &stream_a {
            a.observe(k);
        }
        let mut b = SpaceSaving::new(capacity);
        for k in &stream_b {
            b.observe(k);
        }
        let merged = merged_space_saving(&a, &b, capacity);
        prop_assert_eq!(merged.total(), (stream_a.len() + stream_b.len()) as u64);
        for c in merged.counters() {
            let t = truth.get(&c.key).copied().unwrap_or(0);
            prop_assert!(c.count >= t, "merged estimate below combined truth");
        }
        let no_evictions =
            exact(&stream_a).len() <= capacity && exact(&stream_b).len() <= capacity;
        if no_evictions && truth.len() <= capacity {
            // Exact regime: no evictions in the inputs, no truncation in
            // the merge → the merged summary IS the combined exact count.
            prop_assert_eq!(merged.len(), truth.len());
            for (k, &t) in &truth {
                prop_assert_eq!(merged.estimate(k), t, "exact-regime estimate diverged");
                prop_assert_eq!(merged.guaranteed_count(k), t);
            }
        }
    }

    /// `SpaceSaving` makes exactly the reference model's decisions: the same
    /// estimates, the same monitored (key, count, error) set and the same
    /// evicted key after every update. Few keys over a tiny capacity make
    /// ties at the minimum count the common case.
    #[test]
    fn space_saving_evicts_like_the_reference_model(
        stream in proptest::collection::vec(0u64..16, 1..400),
        keys in 1u64..17,
        capacity in 1usize..9,
    ) {
        let mut ss = SpaceSaving::new(capacity);
        let mut model = ReferenceSpaceSaving::new(capacity);
        for (step, &raw) in stream.iter().enumerate() {
            let key = raw % keys;
            let before = sorted_counters(&ss);
            let counts = ss.observe_counts(&key);
            let (want_counts, want_evicted) = model.observe(key);
            let after = sorted_counters(&ss);
            let evicted = before
                .iter()
                .map(|c| c.0)
                .find(|k| after.iter().all(|c| c.0 != *k));
            prop_assert_eq!(counts, want_counts, "step {} key {}", step, key);
            prop_assert_eq!(evicted, want_evicted, "step {} key {}", step, key);
            prop_assert_eq!(&after, &model.counters(), "step {} key {}", step, key);
            prop_assert_eq!(ss.min_count(), if model.entries.len() < capacity {
                0
            } else {
                model.entries.iter().map(|e| e.1).min().unwrap_or(0)
            });
        }
    }
}
