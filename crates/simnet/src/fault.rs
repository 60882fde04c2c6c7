//! Fault injection: packet drop, corruption and duplication.
//!
//! Mirrors the fault-injection options the smoltcp examples expose
//! (`--drop-chance`, `--corrupt-chance`): adverse network conditions are a
//! first-class, configurable part of the fabric so protocol code is tested
//! under loss and noise, not just the happy path.

use rand::rngs::StdRng;
use rand::RngExt;

/// Fault-injection configuration applied to every datagram in transit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability in `[0, 1]` that a datagram is silently dropped.
    pub(crate) drop_chance: f64,
    /// Probability in `[0, 1]` that one payload octet is flipped.
    pub(crate) corrupt_chance: f64,
    /// Probability in `[0, 1]` that a datagram is delivered twice.
    pub(crate) duplicate_chance: f64,
    /// Datagrams with payloads larger than this are dropped (0 = no limit).
    pub(crate) size_limit: usize,
    /// Schedule faults per `(src, dst)` flow instead of from the fabric's
    /// global RNG stream: the n-th datagram of a flow always meets the same
    /// fate for a given fabric seed, no matter how traffic on *other* flows
    /// interleaves. This makes loss patterns comparable across runs that
    /// differ only in retry policy — a retransmission draws a fresh
    /// per-flow decision without shifting any other flow's lottery.
    pub(crate) per_flow: bool,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            drop_chance: 0.0,
            corrupt_chance: 0.0,
            duplicate_chance: 0.0,
            size_limit: 0,
            per_flow: false,
        }
    }
}

impl FaultPlan {
    /// A perfectly reliable network.
    pub fn reliable() -> Self {
        FaultPlan::default()
    }

    /// A mildly lossy network (1% drop), useful for retry-path tests.
    pub fn lossy(drop_chance: f64) -> Self {
        FaultPlan {
            drop_chance,
            ..FaultPlan::default()
        }
    }

    /// Switch this plan to per-flow fault scheduling: the n-th datagram of
    /// a `(src, dst)` flow always meets the same fate for a given fabric
    /// seed, however traffic on other flows interleaves.
    pub fn scheduled_per_flow(mut self) -> Self {
        self.per_flow = true;
        self
    }

    /// What should happen to one datagram.
    pub(crate) fn decide(&self, rng: &mut StdRng, payload_len: usize) -> FaultDecision {
        if self.size_limit != 0 && payload_len > self.size_limit {
            return FaultDecision::Drop;
        }
        if self.drop_chance > 0.0 && rng.random_bool(self.drop_chance.clamp(0.0, 1.0)) {
            return FaultDecision::Drop;
        }
        let corrupt = self.corrupt_chance > 0.0
            && payload_len > 0
            && rng.random_bool(self.corrupt_chance.clamp(0.0, 1.0));
        let duplicate =
            self.duplicate_chance > 0.0 && rng.random_bool(self.duplicate_chance.clamp(0.0, 1.0));
        FaultDecision::Deliver { corrupt, duplicate }
    }

    /// Flip one random bit in `payload` (no-op on empty payloads).
    pub(crate) fn corrupt(rng: &mut StdRng, payload: &mut [u8]) {
        if payload.is_empty() {
            return;
        }
        let idx = rng.random_range(0..payload.len());
        let bit = rng.random_range(0..8u8);
        payload[idx] ^= 1 << bit;
    }
}

/// Outcome of fault evaluation for one datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultDecision {
    /// Drop silently.
    Drop,
    /// Deliver, possibly corrupted and/or duplicated.
    Deliver {
        /// Flip one payload bit before delivery.
        corrupt: bool,
        /// Deliver a second copy.
        duplicate: bool,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn reliable_always_delivers() {
        let mut rng = StdRng::seed_from_u64(1);
        let plan = FaultPlan::reliable();
        for _ in 0..100 {
            assert_eq!(
                plan.decide(&mut rng, 100),
                FaultDecision::Deliver {
                    corrupt: false,
                    duplicate: false
                }
            );
        }
    }

    #[test]
    fn full_drop_always_drops() {
        let mut rng = StdRng::seed_from_u64(2);
        let plan = FaultPlan::lossy(1.0);
        for _ in 0..100 {
            assert_eq!(plan.decide(&mut rng, 10), FaultDecision::Drop);
        }
    }

    #[test]
    fn partial_drop_rate_is_plausible() {
        let mut rng = StdRng::seed_from_u64(3);
        let plan = FaultPlan::lossy(0.3);
        let drops = (0..10_000)
            .filter(|_| plan.decide(&mut rng, 10) == FaultDecision::Drop)
            .count();
        assert!((2_500..3_500).contains(&drops), "drops = {drops}");
    }

    #[test]
    fn size_limit_drops_large() {
        let mut rng = StdRng::seed_from_u64(4);
        let plan = FaultPlan {
            size_limit: 512,
            ..FaultPlan::default()
        };
        assert_eq!(plan.decide(&mut rng, 513), FaultDecision::Drop);
        assert!(matches!(
            plan.decide(&mut rng, 512),
            FaultDecision::Deliver { .. }
        ));
    }

    #[test]
    fn corrupt_flips_exactly_one_bit() {
        let mut rng = StdRng::seed_from_u64(5);
        let original = vec![0u8; 32];
        let mut copy = original.clone();
        FaultPlan::corrupt(&mut rng, &mut copy);
        let flipped: u32 = original
            .iter()
            .zip(copy.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn corrupt_empty_payload_is_noop() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut empty: Vec<u8> = Vec::new();
        FaultPlan::corrupt(&mut rng, &mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let plan = FaultPlan {
            drop_chance: 0.5,
            corrupt_chance: 0.5,
            duplicate_chance: 0.5,
            ..FaultPlan::default()
        };
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..50)
                .map(|_| plan.decide(&mut rng, 10))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
