//! Fault injection: packet drop, corruption and duplication.
//!
//! Mirrors the fault-injection options the smoltcp examples expose
//! (`--drop-chance`, `--corrupt-chance`): adverse network conditions are a
//! first-class, configurable part of the fabric so protocol code is tested
//! under loss and noise, not just the happy path.

use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};

/// Fault-injection configuration applied to every datagram in transit.
///
/// Every fate is scheduled per `(src, dst)` flow: the n-th datagram of a
/// flow meets the same fate, and a corrupted one has the same bit flipped,
/// for a given fabric seed, however traffic on *other* flows interleaves.
/// So loss patterns are comparable across runs that differ only in retry
/// policy or shard layout — a retransmission draws a fresh per-flow
/// decision without shifting any other flow's lottery.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Probability in `[0, 1]` that a datagram is silently dropped.
    pub(crate) drop_chance: f64,
    /// Probability in `[0, 1]` that one payload bit is flipped.
    pub(crate) corrupt_chance: f64,
    /// Probability in `[0, 1]` that a datagram is delivered twice.
    pub(crate) duplicate_chance: f64,
    /// Datagrams with payloads larger than this are dropped (0 = no limit).
    pub(crate) size_limit: usize,
}

impl FaultPlan {
    /// A perfectly reliable network.
    pub fn reliable() -> Self {
        FaultPlan::default()
    }

    /// A network that drops each datagram with probability `drop_chance`.
    pub fn lossy(drop_chance: f64) -> Self {
        FaultPlan {
            drop_chance,
            ..FaultPlan::default()
        }
    }

    /// Returns the plan unchanged: every plan is scheduled per flow. Kept
    /// so existing callers compile.
    pub fn scheduled_per_flow(self) -> Self {
        self
    }

    /// What should happen to one datagram. A corruption's bit (an index
    /// into the payload's bits) is the decision's last draw.
    pub(crate) fn decide(&self, rng: &mut impl RngCore, payload_len: usize) -> FaultDecision {
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
        FaultDecision::Deliver {
            corrupt: corrupt.then(|| rng.random_range(0..payload_len * 8)),
            duplicate,
        }
    }
}

/// `StdRng::seed_from_u64(seed)`'s draws, for one per-flow decision. Its
/// first output reads only SplitMix64 words 0 and 3 of the seed, so a
/// decision that draws once (most do) mixes two words and builds no
/// generator; a second draw expands the full state.
pub(crate) struct FlowDraws {
    pub(crate) seed: u64,
    pub(crate) drawn: bool,
    pub(crate) rng: Option<StdRng>,
}

impl RngCore for FlowDraws {
    fn next_u64(&mut self) -> u64 {
        let word = |k: u64| {
            let mut z = self
                .seed
                .wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        if !self.drawn && self.rng.is_none() {
            let (s0, s3) = (word(1), word(4));
            // An all-zero state is replaced on expansion: words 1 and 2 tell.
            if s0 | s3 != 0 {
                self.drawn = true;
                return s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
            }
        }
        let (seed, skip) = (self.seed, self.drawn);
        let mut expand = || {
            let mut rng = StdRng::seed_from_u64(seed);
            if skip {
                rng.next_u64();
            }
            rng
        };
        self.rng.get_or_insert_with(&mut expand).next_u64()
    }
}

/// Outcome of fault evaluation for one datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultDecision {
    /// Drop silently.
    Drop,
    /// Deliver, possibly corrupted and/or duplicated.
    Deliver {
        /// The payload bit to flip before delivery, if any.
        corrupt: Option<usize>,
        /// Deliver a second copy.
        duplicate: bool,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliable_always_delivers() {
        let mut rng = StdRng::seed_from_u64(1);
        let plan = FaultPlan::reliable();
        for _ in 0..100 {
            assert_eq!(
                plan.decide(&mut rng, 100),
                FaultDecision::Deliver {
                    corrupt: None,
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

    /// A corrupting plan names one bit inside the payload.
    fn corrupted_bit(seed: u64, len: usize) -> Option<usize> {
        let plan = FaultPlan {
            corrupt_chance: 1.0,
            ..FaultPlan::default()
        };
        match plan.decide(&mut StdRng::seed_from_u64(seed), len) {
            FaultDecision::Deliver { corrupt, .. } => corrupt,
            FaultDecision::Drop => panic!("nothing drops"),
        }
    }

    #[test]
    fn corrupt_flips_exactly_one_bit() {
        for seed in 0..64 {
            let original = vec![0u8; 32];
            let mut copy = original.clone();
            let bit = corrupted_bit(seed, copy.len()).expect("always corrupts");
            copy[bit / 8] ^= 1 << (bit % 8);
            let flipped: u32 = original
                .iter()
                .zip(copy.iter())
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            assert_eq!(flipped, 1);
        }
    }

    #[test]
    fn corrupt_empty_payload_is_noop() {
        assert_eq!(corrupted_bit(6, 0), None);
    }

    fn draws(seed: u64) -> FlowDraws {
        FlowDraws {
            seed,
            drawn: false,
            rng: None,
        }
    }

    #[test]
    fn flow_draws_are_the_generators_draws() {
        // Every chance non-zero in some plan, so first, second and third
        // draws all occur; each flow seed is a fresh generator, as a
        // per-flow decision is.
        let plans = [
            FaultPlan::lossy(0.2),
            FaultPlan::reliable(),
            FaultPlan {
                drop_chance: 0.3,
                corrupt_chance: 0.4,
                duplicate_chance: 0.5,
                ..FaultPlan::default()
            },
            FaultPlan {
                corrupt_chance: 0.5,
                duplicate_chance: 0.05,
                ..FaultPlan::default()
            },
        ];
        let mut seed = 0x0123_4567_89ab_cdefu64;
        for flow in 0..100_000u64 {
            seed = seed.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(flow);
            let plan = &plans[flow as usize % plans.len()];
            let len = (flow % 3) as usize * 40;
            assert_eq!(
                plan.decide(&mut draws(seed), len),
                plan.decide(&mut StdRng::seed_from_u64(seed), len),
                "flow {flow}, seed {seed:#x}"
            );
        }
        // Past the decision, the draws go on as the generator's.
        let (mut fast, mut full) = (draws(seed), StdRng::seed_from_u64(seed));
        for _ in 0..8 {
            assert_eq!(fast.next_u64(), full.next_u64());
        }
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
