//! Property suite for the max-min fair equilibrium solver.
//!
//! The build environment is offline, so instead of proptest these tests
//! drive randomized demand/capacity vectors from a small deterministic
//! splitmix64 generator: every case is reproducible from its printed
//! seed.

use pandia_sim::equilibrium::{solve, EntityDemand};

const CASES: u64 = 48;

/// Deterministic splitmix64 generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    /// Uniform integer in `[lo, hi]`.
    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// A random solver instance: a handful of entities with sparse demand
/// bundles over a random pool count, plus the capacity vector.
fn random_instance(rng: &mut Rng) -> (Vec<EntityDemand>, Vec<f64>) {
    let n_pools = rng.usize_in(2, 8);
    let n_entities = rng.usize_in(1, 10);
    let capacities: Vec<f64> = (0..n_pools).map(|_| rng.f64_in(0.5, 20.0)).collect();
    let entities = (0..n_entities)
        .map(|_| {
            let touched = rng.usize_in(1, n_pools);
            let mut demands = Vec::with_capacity(touched);
            for _ in 0..touched {
                demands.push((rng.usize_in(0, n_pools - 1), rng.f64_in(0.05, 6.0)));
            }
            EntityDemand { demands, max_rate: rng.f64_in(0.1, 3.0) }
        })
        .collect();
    (entities, capacities)
}

#[test]
fn no_pool_is_over_allocated() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let (entities, capacities) = random_instance(&mut rng);
        let alloc = solve(&entities, &capacities);
        for (r, (&load, &cap)) in alloc.loads.iter().zip(&capacities).enumerate() {
            assert!(
                load <= cap * (1.0 + 1e-6) + 1e-9,
                "pool {r} over-allocated: {load} > {cap} (seed {seed})"
            );
        }
        for (e, &rate) in alloc.rates.iter().enumerate() {
            assert!(rate >= 0.0, "entity {e} has negative rate {rate} (seed {seed})");
            assert!(
                rate <= entities[e].max_rate + 1e-9,
                "entity {e} exceeds its cap: {rate} > {} (seed {seed})",
                entities[e].max_rate
            );
        }
    }
}

#[test]
fn allocation_is_work_conserving() {
    // Progressive filling stops only when every entity is frozen: each is
    // either at its intrinsic cap or touches a saturated pool.
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let (entities, capacities) = random_instance(&mut rng);
        let alloc = solve(&entities, &capacities);
        let saturated: Vec<bool> = alloc
            .loads
            .iter()
            .zip(&capacities)
            .map(|(&load, &cap)| cap - load <= 1e-6 * cap.max(1.0))
            .collect();
        for (e, ent) in entities.iter().enumerate() {
            let capped = alloc.rates[e] >= ent.max_rate - 1e-9;
            let blocked = ent.demands.iter().any(|&(r, d)| d > 0.0 && saturated[r]);
            assert!(
                capped || blocked,
                "entity {e} is neither capped ({} < {}) nor blocked (seed {seed})",
                alloc.rates[e],
                ent.max_rate
            );
        }
    }
}

#[test]
fn added_demand_never_raises_other_rates() {
    // Monotonicity under added demand. With *sparse* bundles max-min
    // fairness is famously non-monotonic (a newcomer can saturate pool A
    // early, freeze A's users, and leave more of pool B's slope to a
    // third entity), so the property is asserted where it provably holds:
    // dense bundles, where every entity touches every pool and all rates
    // are `min(cap, common fill level)` — adding an entity only raises
    // every pool's consumption at each fill level, so the saturation
    // level, and with it every pre-existing rate, can only drop.
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let n_pools = rng.usize_in(2, 8);
        let capacities: Vec<f64> = (0..n_pools).map(|_| rng.f64_in(0.5, 20.0)).collect();
        let dense = |rng: &mut Rng| EntityDemand {
            demands: (0..n_pools).map(|r| (r, rng.f64_in(0.05, 6.0))).collect(),
            max_rate: rng.f64_in(0.1, 3.0),
        };
        let mut entities: Vec<EntityDemand> =
            (0..rng.usize_in(1, 10)).map(|_| dense(&mut rng)).collect();
        let before = solve(&entities, &capacities);
        entities.push(dense(&mut rng));
        let after = solve(&entities, &capacities);
        for (e, (&old, &new)) in before.rates.iter().zip(&after.rates).enumerate() {
            assert!(
                new <= old + 1e-9,
                "entity {e} sped up from {old} to {new} after contention grew (seed {seed})"
            );
        }
    }
}
