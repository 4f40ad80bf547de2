//! Correctness scoring and the simulated-statistics digest.

use mtf_sim::SimStats;

/// Items of `expected` that did not arrive intact and in order.
///
/// An item counts as delivered when it is part of the longest common
/// subsequence of `expected` and `delivered`; everything else — lost,
/// corrupted, reordered — fails, and so does each delivery beyond the
/// expected count (a duplicate). The count is capped at `expected.len()`,
/// the number of operations attempted. Scoring never panics, so a faulty
/// run raises the failed count instead of aborting the benchmark.
pub fn item_failures(expected: &[u64], delivered: &[u64]) -> u64 {
    if expected == delivered {
        return 0;
    }
    let lcs = lcs_len(expected, delivered);
    let failed = (expected.len() - lcs) + delivered.len().saturating_sub(expected.len());
    failed.min(expected.len()) as u64
}

fn lcs_len(a: &[u64], b: &[u64]) -> usize {
    let mut prev = vec![0usize; b.len() + 1];
    let mut row = vec![0usize; b.len() + 1];
    for &x in a {
        for (j, &y) in b.iter().enumerate() {
            row[j + 1] = if x == y {
                prev[j] + 1
            } else {
                row[j].max(prev[j + 1])
            };
        }
        std::mem::swap(&mut prev, &mut row);
    }
    prev[b.len()]
}

/// An FNV-1a digest over what a run simulated. Two runs of the same code
/// at the same seed must feed it the same words in the same order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// Folds every [`SimStats`] counter in.
    pub fn stats(&mut self, s: &SimStats) {
        for w in [
            s.events_processed,
            s.peak_queue_depth as u64,
            s.coalesced_wakes,
            s.delta_pushes,
            s.peak_delta_depth as u64,
            s.wheel_cascades,
            s.overflow_events,
            s.compiled_edge_evals,
            s.compiled_gate_evals,
        ] {
            self.word(w);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Relative-and-absolute closeness with the tolerance
/// `scripts/golden_diff.py` applies by default (`math.isclose` with
/// `rel_tol = abs_tol = 1e-6`).
pub fn golden_close(golden: f64, actual: f64) -> bool {
    const TOL: f64 = 1e-6;
    (golden - actual).abs() <= (TOL * golden.abs().max(actual.abs())).max(TOL)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intact_stream_has_no_failures() {
        let items: Vec<u64> = (0..50).collect();
        assert_eq!(item_failures(&items, &items), 0);
    }

    #[test]
    fn each_fault_costs_one_item() {
        let items: Vec<u64> = (0..50).collect();
        let mut dropped = items.clone();
        dropped.remove(10);
        assert_eq!(item_failures(&items, &dropped), 1);
        let mut corrupted = items.clone();
        corrupted[20] ^= 1 << 7;
        assert_eq!(item_failures(&items, &corrupted), 1);
        let mut duplicated = items.clone();
        duplicated.insert(5, 5);
        assert_eq!(item_failures(&items, &duplicated), 1);
        let mut swapped = items.clone();
        swapped.swap(3, 4);
        assert_eq!(item_failures(&items, &swapped), 1);
        assert_eq!(item_failures(&items, &[]), 50);
        assert_eq!(item_failures(&items, &[99; 200]), 50);
    }

    #[test]
    fn digest_depends_on_order() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.word(1);
        a.word(2);
        b.word(2);
        b.word(1);
        assert_ne!(a, b);
    }

    #[test]
    fn golden_tolerance_matches_isclose() {
        assert!(golden_close(516.2622612287042, 516.2622612287042));
        assert!(golden_close(516.2622612, 516.2622613));
        assert!(!golden_close(516.26, 516.27));
        assert!(golden_close(0.0, 5e-7));
    }
}
