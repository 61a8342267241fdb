//! The correctness gate: every run's merged windows against the exact
//! single-threaded reference.
//!
//! Runs are compared through per-window fingerprints, so the exact
//! reference is computed once per invocation and a timed run's process
//! never holds it: the peak RSS the benchmark reports is the engine's. A
//! mismatch is explained with the engine's own `diff_windows` on the full
//! maps, printing the first divergent window and key.

use std::collections::BTreeMap;

use slb_engine::{diff_windows, WindowId};
use slb_hash::splitmix::splitmix64;

use crate::workload::Windows;

/// Per-window `(distinct keys, order-independent hash of the counts)`.
pub type Fingerprints = BTreeMap<WindowId, (usize, u64)>;

/// Fingerprints every window of `windows`.
pub fn fingerprints(windows: &Windows) -> Fingerprints {
    windows
        .iter()
        .map(|(&window, counts)| {
            let hash = counts.iter().fold(0u64, |acc, (&key, &count)| {
                acc.wrapping_add(splitmix64(key ^ splitmix64(count)))
            });
            (window, (counts.len(), hash))
        })
        .collect()
}

/// Windows of `expected` that `got` lacks or gets wrong, plus windows
/// `got` has that `expected` does not.
pub fn wrong_windows(got: &Fingerprints, expected: &Fingerprints) -> u64 {
    let missing_or_wrong = expected
        .iter()
        .filter(|(window, fp)| got.get(window) != Some(fp))
        .count();
    let unexpected = got.keys().filter(|w| !expected.contains_key(w)).count();
    (missing_or_wrong + unexpected) as u64
}

/// Tallies windows checked and windows wrong over every engine run and
/// replay of one benchmark invocation.
#[derive(Debug, Default)]
pub struct Gate {
    /// Windows expected, summed over every checked run.
    pub attempted: u64,
    /// Windows wrong, summed over every checked run.
    pub failed: u64,
    /// Other correctness failures (nondeterministic exact metrics, a gate
    /// that cannot see a perturbation).
    pub faults: Vec<String>,
}

impl Gate {
    /// Checks one run's fingerprints; returns the windows it got wrong.
    pub fn check(&mut self, got: &Fingerprints, expected: &Fingerprints) -> u64 {
        let wrong = wrong_windows(got, expected);
        self.attempted += expected.len() as u64;
        self.failed += wrong;
        wrong
    }

    /// Checks a full output, printing the first divergence on a mismatch.
    pub fn check_full(&mut self, label: &str, got: &Windows, expected: &Windows) {
        if self.check(&fingerprints(got), &fingerprints(expected)) > 0 {
            explain(label, got, expected);
        }
    }

    /// Records a correctness failure that is not a wrong window.
    pub fn fault(&mut self, message: String) {
        println!("FAULT: {message}");
        self.faults.push(message);
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.faults.is_empty()
    }

    /// Proves the gate is live: a copy of the reference's first window with
    /// one count bumped must be flagged by both the fingerprint comparison
    /// and `diff_windows`. Records a fault if either misses it.
    pub fn self_test(&mut self, reference: &Windows) {
        let Some((&window, counts)) = reference.iter().next() else {
            self.fault("self-test: the reference has no windows".into());
            return;
        };
        let expected: Windows = [(window, counts.clone())].into_iter().collect();
        let perturbed = perturb(&expected);
        let flagged = wrong_windows(&fingerprints(&perturbed), &fingerprints(&expected)) == 1;
        let explained = diff_windows(&perturbed, &expected).is_some();
        if !(flagged && explained) {
            self.fault("self-test: the gate missed a perturbed window".into());
        }
    }
}

/// A copy of `windows` with one count of its first window raised by one.
fn perturb(windows: &Windows) -> Windows {
    let mut out = windows.clone();
    if let Some(counts) = out.values_mut().next() {
        if let Some(count) = counts.values_mut().next() {
            *count += 1;
        }
    }
    out
}

/// Prints the first divergence between `got` and `expected`.
pub fn explain(label: &str, got: &Windows, expected: &Windows) {
    if let Some(message) = diff_windows(got, expected) {
        println!("MISMATCH {label}: {message}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Windows {
        let mut windows = Windows::new();
        windows.insert(0, [(1, 3), (2, 1)].into_iter().collect());
        windows.insert(1, [(7, 2)].into_iter().collect());
        windows
    }

    #[test]
    fn identical_maps_pass() {
        let mut gate = Gate::default();
        gate.check_full("same", &sample(), &sample());
        assert_eq!((gate.attempted, gate.failed), (2, 0));
        assert!(gate.correct());
    }

    #[test]
    fn a_perturbed_count_fails_the_gate() {
        let mut gate = Gate::default();
        gate.check_full("perturbed", &perturb(&sample()), &sample());
        assert_eq!((gate.attempted, gate.failed), (2, 1));
        assert!(!gate.correct());
    }

    #[test]
    fn missing_and_extra_windows_count_as_wrong() {
        let mut short = sample();
        short.remove(&1);
        assert_eq!(
            wrong_windows(&fingerprints(&short), &fingerprints(&sample())),
            1
        );
        let mut long = sample();
        long.insert(9, [(4, 1)].into_iter().collect());
        assert_eq!(
            wrong_windows(&fingerprints(&long), &fingerprints(&sample())),
            1
        );
    }

    #[test]
    fn self_test_passes_on_a_live_gate() {
        let mut gate = Gate::default();
        gate.self_test(&sample());
        assert!(gate.correct(), "{:?}", gate.faults);
    }
}
