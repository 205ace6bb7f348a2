//! Randomised property tests for the counter containers, driven by a
//! deterministic SplitMix64 generator (no external test dependencies).

use camp_pmu::{CounterSet, Event};

/// Minimal deterministic generator (SplitMix64).
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    fn event(&mut self) -> Event {
        let all = camp_pmu::event::ALL_EVENTS;
        all[self.below(all.len() as u64) as usize]
    }
}

/// Delta and merge are inverse-ish: merging deltas of successive snapshots
/// reconstructs the final snapshot.
#[test]
fn deltas_merge_back_to_totals() {
    for seed in 0..64u64 {
        let mut rng = Rng(seed);
        let len = rng.below(64) as usize;
        let mut cumulative = CounterSet::new();
        let mut reconstructed = CounterSet::new();
        let mut previous = CounterSet::new();
        for _ in 0..len {
            let event = rng.event();
            let amount = rng.below(1_000_000);
            cumulative.add(event, amount);
            let delta = cumulative.delta_since(&previous);
            reconstructed.merge(&delta);
            previous = cumulative.clone();
        }
        assert_eq!(reconstructed, cumulative, "seed {seed}");
    }
}

/// Saturating delta never underflows.
#[test]
fn delta_never_underflows() {
    let mut rng = Rng(1);
    for _ in 0..256 {
        let a = rng.next_u64();
        let b = rng.next_u64();
        let mut x = CounterSet::new();
        let mut y = CounterSet::new();
        x.set(Event::Cycles, a);
        y.set(Event::Cycles, b);
        let d = x.delta_since(&y);
        assert_eq!(d[Event::Cycles], a.saturating_sub(b));
    }
}
