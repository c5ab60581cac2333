//! Max-min fair rate allocation over contended resources.
//!
//! Each runnable entity (workload thread, stressor, background spinner)
//! demands a fixed bundle of resources per unit of progress. Given resource
//! capacities, the solver finds the progressive-filling (max-min fair)
//! progress rates: all entities speed up together until some resource
//! saturates; entities bottlenecked there freeze and the rest keep rising,
//! until every entity is frozen by either a saturated resource or its own
//! intrinsic speed limit.
//!
//! This mirrors how hardware arbitrates contended bandwidth closely enough
//! for a ground-truth model, while being mechanically different from the
//! Pandia predictor's per-thread oversubscription factors.

/// One entity's demand bundle: sparse `(resource index, demand per unit of
/// progress)` pairs plus an intrinsic rate cap.
#[derive(Debug, Clone)]
pub struct EntityDemand {
    /// Sparse per-unit demands: `(resource index, amount per progress unit)`.
    pub demands: Vec<(usize, f64)>,
    /// Intrinsic maximum progress rate (dependency-limited speed).
    pub max_rate: f64,
}

/// Result of an equilibrium solve.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Progress rate per entity, same order as the input.
    pub rates: Vec<f64>,
    /// Total load placed on each resource by the solution.
    pub loads: Vec<f64>,
}

/// Solves the max-min fair allocation.
///
/// `capacities[r]` may be `f64::INFINITY`-like large values for resources
/// that never contend. Entities with empty demand bundles simply run at
/// their `max_rate`.
pub fn solve(entities: &[EntityDemand], capacities: &[f64]) -> Allocation {
    let n = entities.len();
    let m = capacities.len();
    let mut rates = vec![0.0; n];
    let mut loads = vec![0.0; m];
    if n == 0 {
        return Allocation { rates, loads };
    }

    let mut active: Vec<usize> = (0..n).filter(|&e| entities[e].max_rate > 0.0).collect();
    let mut residual: Vec<f64> = capacities.to_vec();
    // Track which resources have saturated so we can freeze their users.
    let mut saturated = vec![false; m];

    // Each iteration freezes at least one entity, so this terminates in at
    // most `n` rounds.
    while !active.is_empty() {
        // Slope of load increase per unit of common rate increase.
        let mut slope = vec![0.0; m];
        for &e in &active {
            for &(r, d) in &entities[e].demands {
                slope[r] += d;
            }
        }
        // Largest common increase before a capacity or a rate cap binds.
        let mut delta = f64::INFINITY;
        for (r, &s) in slope.iter().enumerate() {
            if s > 0.0 {
                delta = delta.min((residual[r].max(0.0)) / s);
            }
        }
        for &e in &active {
            delta = delta.min(entities[e].max_rate - rates[e]);
        }
        if !delta.is_finite() {
            // No binding constraint at all (can only happen with infinite
            // max rates, which callers do not construct). Bail out safely.
            break;
        }
        let delta = delta.max(0.0);
        for &e in &active {
            rates[e] += delta;
        }
        for (r, &s) in slope.iter().enumerate() {
            if s > 0.0 {
                residual[r] -= s * delta;
                if residual[r] <= 1e-9 * capacities[r].max(1.0) {
                    residual[r] = residual[r].max(0.0);
                    saturated[r] = true;
                }
            }
        }
        // Freeze entities at their cap or touching a saturated resource.
        active.retain(|&e| {
            if rates[e] >= entities[e].max_rate - 1e-12 {
                return false;
            }
            !entities[e].demands.iter().any(|&(r, d)| d > 0.0 && saturated[r])
        });
    }

    for (e, ent) in entities.iter().enumerate() {
        for &(r, d) in &ent.demands {
            loads[r] += rates[e] * d;
        }
    }
    Allocation { rates, loads }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ent(demands: Vec<(usize, f64)>, max_rate: f64) -> EntityDemand {
        EntityDemand { demands, max_rate }
    }

    #[test]
    fn uncontended_entities_run_at_max_rate() {
        let entities = vec![ent(vec![(0, 1.0)], 1.0), ent(vec![(1, 1.0)], 0.5)];
        let a = solve(&entities, &[10.0, 10.0]);
        assert_eq!(a.rates, vec![1.0, 0.5]);
        assert_eq!(a.loads, vec![1.0, 0.5]);
    }

    #[test]
    fn two_equal_entities_split_a_saturated_resource() {
        // Each wants 8 units/sec of a 10-capacity resource.
        let entities = vec![ent(vec![(0, 8.0)], 1.0), ent(vec![(0, 8.0)], 1.0)];
        let a = solve(&entities, &[10.0]);
        assert!((a.rates[0] - 0.625).abs() < 1e-9);
        assert!((a.rates[1] - 0.625).abs() < 1e-9);
        assert!((a.loads[0] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn max_min_fairness_gives_slack_to_light_users() {
        // Entity 0 uses only the contended resource heavily; entity 1
        // lightly (so it can reach max rate); capacity binds entity 0.
        let entities = vec![ent(vec![(0, 10.0)], 1.0), ent(vec![(0, 1.0)], 1.0)];
        let a = solve(&entities, &[6.0]);
        // Progressive filling: both rise to ~0.545 where 0 saturates...
        // entity 1 continues to its cap 1.0? No: entity 1 also uses the
        // saturated resource, so it freezes too. Both stop at 6/11.
        assert!((a.rates[0] - 6.0 / 11.0).abs() < 1e-9);
        assert!((a.rates[1] - 6.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_bottlenecks_freeze_independently() {
        // Entities 0,1 share resource 0; entity 2 alone on resource 1.
        let entities = vec![
            ent(vec![(0, 4.0)], 1.0),
            ent(vec![(0, 4.0)], 1.0),
            ent(vec![(1, 4.0)], 1.0),
        ];
        let a = solve(&entities, &[4.0, 8.0]);
        assert!((a.rates[0] - 0.5).abs() < 1e-9);
        assert!((a.rates[1] - 0.5).abs() < 1e-9);
        assert!((a.rates[2] - 1.0).abs() < 1e-9, "entity 2 unconstrained: {}", a.rates[2]);
    }

    #[test]
    fn multi_resource_entity_bound_by_tightest() {
        // Entity uses two resources; resource 1 is the bottleneck.
        let entities = vec![ent(vec![(0, 1.0), (1, 10.0)], 1.0)];
        let a = solve(&entities, &[100.0, 5.0]);
        assert!((a.rates[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn figure_7b_interconnect_example() {
        // Three threads of the worked example at utilization-scaled demand:
        // each puts 33.3 on both DRAM nodes and 33.3 on the shared
        // interconnect (its remote half), so the link of 50 sees 100 total
        // => rates scale by 1/2 (Figure 7's oversubscription factor 2.00).
        // Resources: 0=dram0(100), 1=dram1(100), 2=link(50).
        let per = 40.0 * 0.8333333;
        let mk = || ent(vec![(0, per), (1, per), (2, per)], 1.0);
        let entities = vec![mk(), mk(), mk()];
        let a = solve(&entities, &[100.0, 100.0, 50.0]);
        // Link load = 3 * per * rate = 50 => rate = 50 / (3 * 33.33) = 0.5.
        for r in &a.rates {
            assert!((r - 0.5).abs() < 1e-6, "rate {r}");
        }
        assert!((a.loads[2] - 50.0).abs() < 1e-6);
    }

    #[test]
    fn zero_max_rate_entities_get_nothing() {
        let entities = vec![ent(vec![(0, 1.0)], 0.0), ent(vec![(0, 1.0)], 1.0)];
        let a = solve(&entities, &[10.0]);
        assert_eq!(a.rates[0], 0.0);
        assert_eq!(a.rates[1], 1.0);
    }

    #[test]
    fn loads_never_exceed_capacity() {
        // Stress with many entities and random-ish demands.
        let entities: Vec<EntityDemand> = (0..50)
            .map(|i| {
                ent(
                    vec![(i % 5, 1.0 + (i % 3) as f64), ((i + 1) % 5, 0.5)],
                    0.5 + (i % 4) as f64 * 0.25,
                )
            })
            .collect();
        let caps = [7.0, 9.0, 11.0, 13.0, 15.0];
        let a = solve(&entities, &caps);
        for (r, &cap) in caps.iter().enumerate() {
            assert!(a.loads[r] <= cap * (1.0 + 1e-9), "resource {r} overloaded");
        }
        // Every entity gets a positive rate.
        assert!(a.rates.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn empty_input_is_fine() {
        let a = solve(&[], &[1.0]);
        assert!(a.rates.is_empty());
        assert_eq!(a.loads, vec![0.0]);
    }
}
