//! Differential oracle for the engine's incremental fast path.
//!
//! The incremental engine (`EngineConfig { incremental: true }`, the
//! default) must be bit-identical to the naive loop
//! (`EngineConfig { incremental: false }`) on *every* input the engine
//! accepts: results, counters, full `RunTrace` trees and errors, with and
//! without armed fault plans. The naive loop is the plain reference: every
//! segment recomputes its structure prologue (DVFS, spill, interference,
//! capacities, demand bundles), nothing is replayed from the segment memo,
//! and every equilibrium is solved from scratch. These sweeps drive both
//! modes over seeded randomized configurations — machines × workloads ×
//! placements × stressors × fault plans — and assert exact equality, so a
//! shortcut that goes stale or reorders arithmetic fails loudly with the
//! seed that exposed it.

use pandia_sim::engine::{
    run_multi_stats, run_multi_traced, EngineConfig, GroupInput, MultiRunInputs,
};
use pandia_sim::{Behavior, BurstProfile, FaultPlan, Scheduling};
use pandia_topology::{CtxId, DataPlacement, MachineSpec, Placement, StressKind, StressPin};

/// Minimal splitmix64 driver so the sweep is reproducible from one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn random_machine(rng: &mut Rng) -> MachineSpec {
    match rng.below(4) {
        0 => MachineSpec::x3_2(),
        1 => MachineSpec::x5_2(),
        2 => MachineSpec::x2_4(),
        _ => MachineSpec::toy(),
    }
}

fn random_behavior(rng: &mut Rng, i: usize) -> Behavior {
    let mut b = Behavior::compute(
        &format!("w{i}"),
        10.0 + rng.unit() * 50.0,
        0.5 + rng.unit() * 5.0,
    );
    if rng.unit() < 0.5 {
        b.seq_fraction = rng.unit() * 0.2;
    }
    if rng.unit() < 0.5 {
        b.comm_factor = rng.unit() * 0.03;
    }
    if rng.unit() < 0.5 {
        b.burst = BurstProfile::bursty(0.2 + rng.unit() * 0.6, 1.2 + rng.unit() * 1.5);
    }
    b.demand.l2 = rng.unit() * 3.0;
    b.demand.l3 = rng.unit() * 4.0;
    b.demand.dram = rng.unit() * 3.0;
    b.working_set_mib = rng.unit() * 80.0;
    match rng.below(5) {
        0 => b.data_placement = DataPlacement::Interleave,
        1 => b.data_placement = DataPlacement::ThreadLocal,
        2 => b.data_placement = DataPlacement::FirstTouch,
        _ => {}
    }
    if rng.unit() < 0.3 {
        b.scheduling = Scheduling::Partial { dynamic_fraction: rng.unit() };
    }
    b
}

fn random_placement(rng: &mut Rng, spec: &MachineSpec) -> Placement {
    let max = (spec.total_cores() * 2).clamp(1, 8);
    let n = 1 + rng.below(max);
    let attempt = if rng.unit() < 0.5 {
        Placement::spread(spec, n)
    } else {
        Placement::packed(spec, n)
    };
    attempt
        .or_else(|_| Placement::spread(spec, 1))
        .expect("one thread always places")
}

/// Runs the incremental engine and the naive loop and asserts their
/// `(results, trace)` pairs — or their errors — are exactly equal.
fn assert_incremental_matches_naive(
    inputs: &MultiRunInputs<'_>,
    base: &EngineConfig,
    label: &str,
) {
    let fast = run_multi_traced(inputs, &EngineConfig { incremental: true, ..base.clone() });
    let naive = run_multi_traced(inputs, &EngineConfig { incremental: false, ..base.clone() });
    match (fast, naive) {
        (Ok((fast_results, fast_trace)), Ok((naive_results, naive_trace))) => {
            assert_eq!(fast_results, naive_results, "{label}: results diverged");
            assert_eq!(fast_trace, naive_trace, "{label}: traces diverged");
        }
        (Err(fast_err), Err(naive_err)) => {
            assert_eq!(fast_err, naive_err, "{label}: errors diverged");
        }
        (fast, naive) => panic!(
            "{label}: one mode failed where the other succeeded: \
             incremental={fast:?} naive={naive:?}"
        ),
    }
}

#[test]
fn incremental_matches_naive_over_seeded_random_configs() {
    let mut rng = Rng(0xD1FF_0AC1E ^ 0x5EED);
    for case in 0..24u64 {
        let spec = random_machine(&mut rng);
        let n_groups = 1 + rng.below(2);
        let behaviors: Vec<Behavior> =
            (0..n_groups).map(|g| random_behavior(&mut rng, g)).collect();
        let placements: Vec<Placement> =
            (0..n_groups).map(|_| random_placement(&mut rng, &spec)).collect();
        let groups: Vec<GroupInput<'_>> = behaviors
            .iter()
            .zip(&placements)
            .map(|(b, p)| GroupInput { behavior: b, placement: p, data_placement: None })
            .collect();
        let stressors: Vec<StressPin> = if rng.unit() < 0.4 {
            let kind = if rng.unit() < 0.5 { StressKind::Cpu } else { StressKind::DramLocal };
            vec![StressPin { kind, ctx: CtxId(rng.below(spec.total_cores())) }]
        } else {
            Vec::new()
        };
        let inputs = MultiRunInputs {
            spec: &spec,
            groups: &groups,
            stressors: &stressors,
            fill_background: rng.unit() < 0.5,
            turbo: rng.unit() < 0.7,
            seed: 1000 + case,
        };
        assert_incremental_matches_naive(
            &inputs,
            &EngineConfig::default(),
            &format!("case {case}"),
        );
    }
}

#[test]
fn incremental_matches_naive_with_armed_fault_plans() {
    // Armed fault plans disable segment coalescing and gate per-segment
    // draws — observable state the fast path must thread through exactly,
    // including transient-fault errors and counter dropouts.
    let mut rng = Rng(0xFA_017);
    for case in 0..12u64 {
        let spec = random_machine(&mut rng);
        let behavior = random_behavior(&mut rng, case as usize);
        let placement = random_placement(&mut rng, &spec);
        let group = GroupInput { behavior: &behavior, placement: &placement, data_placement: None };
        let groups = [group];
        let inputs = MultiRunInputs {
            spec: &spec,
            groups: &groups,
            stressors: &[],
            fill_background: true,
            turbo: true,
            seed: 7000 + case,
        };
        let intensity = 0.2 + rng.unit() * 0.7;
        let config = EngineConfig {
            faults: FaultPlan::with_intensity(intensity),
            ..EngineConfig::default()
        };
        assert_incremental_matches_naive(&inputs, &config, &format!("fault case {case}"));
    }
}

#[test]
fn incremental_matches_naive_on_fault_boundary_plans() {
    // Fault-plan boundary cases: a zero-rate plan with extreme scale
    // knobs must inject nothing in either mode, and an armed plan must
    // disable the incremental path's segment coalescing.
    let spec = MachineSpec::x3_2();
    let mut b = Behavior::compute("boundary", 30.0, 4.0);
    b.burst = BurstProfile::bursty(0.4, 2.0);
    b.seq_fraction = 0.05;
    let p = Placement::packed(&spec, 4).expect("placement");
    let group = GroupInput { behavior: &b, placement: &p, data_placement: None };
    let groups = [group];
    let inputs = MultiRunInputs {
        spec: &spec,
        groups: &groups,
        stressors: &[],
        fill_background: true,
        turbo: true,
        seed: 99,
    };
    let zero_plan = FaultPlan {
        transient_rate: 0.0,
        dropout_rate: 0.0,
        interference_rate: 0.0,
        interference_scale: 1e9,
        high_noise_rate: 0.0,
        high_noise_factor: 1e9,
    };
    for (name, plan) in [
        ("none", FaultPlan::none()),
        ("zero-rate", zero_plan),
        ("armed", FaultPlan::with_intensity(0.5)),
    ] {
        let config = EngineConfig { faults: plan.clone(), ..EngineConfig::default() };
        assert_incremental_matches_naive(&inputs, &config, name);
        if !plan.is_none() {
            if let Ok((_, stats)) = run_multi_stats(&inputs, &config) {
                assert_eq!(
                    stats.segments_coalesced, 0,
                    "{name}: armed plan must disable coalescing"
                );
            }
        }
    }
}

#[test]
fn solve_counters_reconcile_between_incremental_and_naive() {
    // Every solver call lands in exactly one bucket — full/delta (solves),
    // skipped, or batched — and a coalesced segment replays
    // `relaxation_rounds` solves. So the naive path's total factors
    // exactly over the incremental path's counters. CI asserts the same
    // identity on the fig10 quick sweep; this is the seeded-sweep version.
    let mut rng = Rng(0x5EED_5041);
    let rounds = EngineConfig::default().relaxation_rounds as u64;
    for case in 0..10u64 {
        let spec = random_machine(&mut rng);
        let behavior = random_behavior(&mut rng, case as usize);
        let placement = random_placement(&mut rng, &spec);
        let group = GroupInput { behavior: &behavior, placement: &placement, data_placement: None };
        let groups = [group];
        let inputs = MultiRunInputs {
            spec: &spec,
            groups: &groups,
            stressors: &[],
            fill_background: true,
            turbo: true,
            seed: 3000 + case,
        };
        let (_, incr) = run_multi_stats(&inputs, &EngineConfig::default()).expect("run");
        let (_, naive) = run_multi_stats(
            &inputs,
            &EngineConfig { incremental: false, ..EngineConfig::default() },
        )
        .expect("run");
        assert_eq!(naive.segments, incr.segments, "case {case}: segment schedules differ");
        assert_eq!(naive.solves_skipped, 0, "case {case}");
        assert_eq!(naive.solves_batched, 0, "case {case}");
        assert_eq!(
            naive.solves,
            incr.solves
                + incr.solves_skipped
                + incr.solves_batched
                + rounds * incr.segments_coalesced,
            "case {case}: solve counters must reconcile (incr={incr:?} naive={naive:?})"
        );
    }
}
