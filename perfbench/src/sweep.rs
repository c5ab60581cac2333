//! The figure-sweep workload: the paper suite's measured-versus-predicted
//! curves on the 72-context X5-2 at two workers, over a seeded sample of
//! three placements per thread count (the fig10 path at `--quick`
//! density).

use std::sync::Arc;
use std::time::Instant;

use pandia_core::{ExecContext, PredictorConfig};
use pandia_harness::{runner::measure_curve_with, MachineContext, PlacementCurve};
use pandia_sim::SimMachine;
use pandia_topology::MachineSpec;

use crate::model::{
    canary, decide, mismatched_points, repeat_for, sample, timed_curve, Accuracy, Decisions,
    Digest, Res, Rng, SetUps, Slots, SLOT_DECIDE,
};
use crate::timed::{SimLog, TimedSim};
use crate::{Opts, Outcome};

/// Workload name (also salts the placement sample).
const NAME: &str = "sweep-x5-2";

/// Worker count of every fan-out.
const JOBS: usize = 2;

/// Placements of each thread count in the seeded sample: the `--quick`
/// density of the figure sweeps.
const PER_THREAD_COUNT: usize = 3;

/// Passes over the seed's own sample, which every run completes before
/// any fresh sample is drawn. The tail is read from these points, each at
/// the lowest of its timings: on a shared host about one point in a
/// hundred loses the processor for a few milliseconds, which would
/// otherwise be what the p99 tail reads.
const REPEAT_PASSES: usize = 2;

/// Worker count of the cross-checks: the sweep must be bit-identical at
/// jobs 1 and 2.
const CHECK_JOBS: usize = 1;

/// Curves re-measured through `runner::measure_curve_with` at
/// [`CHECK_JOBS`].
const CROSS_JOBS_CURVES: usize = 2;

/// Runs the sweep and checks its outputs.
pub fn run(opts: &Opts) -> Res<Outcome> {
    let mut out = Outcome::default();
    let log = Arc::new(SimLog::default());
    let spec = MachineSpec::x5_2();
    let specs = [spec.clone()];
    let workloads: Vec<_> = pandia_workloads::paper_suite()
        .into_iter()
        .filter(|w| !w.behavior.requires_avx || spec.has_avx)
        .collect();

    let setups = SetUps::new(&mut out, &specs, &workloads, &log)?;
    let prepared = &setups.prepared[0];
    let mut draws = Rng::new(opts.seed, NAME);
    let placements = sample(&prepared.placements, PER_THREAD_COUNT, &mut draws);
    out.detail("sample_placements", placements.len().to_string());
    out.detail("workloads", workloads.len().to_string());

    let platform = TimedSim::new(spec.clone(), log.clone());
    let mut decide_platform = platform.clone();
    let mut decisions = Decisions::new(workloads.len());
    // A slot of side work: set up again, then make every placement
    // decision back to back.
    let mut side = |out: &mut Outcome, decisions: &mut Decisions| -> Res<()> {
        setups.repeat(out)?;
        let (min_s, max) = SLOT_DECIDE;
        repeat_for(min_s, max, || {
            for (i, entry) in workloads.iter().enumerate() {
                let made = decide(
                    &mut decide_platform,
                    &prepared.description,
                    entry,
                    &placements,
                )?;
                decisions.record(out, i, made, &prepared.profiles[i]);
            }
            Ok(())
        })
    };

    // The measured window: whole curves, pass after pass, until
    // `--seconds` of curve time have been measured; the first
    // `REPEAT_PASSES` passes run the seed's sample and always complete
    // (one pass in a fixed unit of work). Each later pass draws a fresh
    // sample, so the window does not re-simulate one request set over and
    // over, and each curve gets a fresh context, so no prediction is
    // answered from an earlier curve. Side work runs between curves,
    // outside the timed curve walls.
    let window_s = opts.seconds as f64;
    let mut slots = Slots::new(opts);
    let mut curves: Vec<PlacementCurve> = Vec::with_capacity(workloads.len());
    let mut point_us: Vec<Vec<f64>> = Vec::with_capacity(workloads.len());
    let mut pass = 0;
    let mut pass_sample = placements.clone();
    'passes: loop {
        for (i, entry) in workloads.iter().enumerate() {
            if pass >= REPEAT_PASSES && out.window_s >= window_s {
                break 'passes;
            }
            let exec = ExecContext::new(JOBS);
            let curve_start = Instant::now();
            let timed = timed_curve(
                &exec,
                &platform,
                prepared,
                entry,
                &prepared.profiles[i],
                &pass_sample,
            )?;
            out.window_s += curve_start.elapsed().as_secs_f64();
            out.ops += timed.point_us.len() as u64;
            out.attempted += timed.curve.points.len() as u64;
            out.op_ms.extend(timed.point_us.iter().map(|us| us / 1e3));
            // The tail's sample is the repeated passes alone: its size is
            // fixed per seed, so the tail's percentile step does not move
            // with how many later points a fast or slow host fits in.
            if pass == 0 {
                point_us.push(timed.point_us);
                curves.push(timed.curve);
            } else if pass < REPEAT_PASSES {
                let bad = mismatched_points(&curves[i], &timed.curve);
                if bad > 0 {
                    out.fail(
                        bad as u64,
                        &format!("{}: two passes over one sample differ", entry.name),
                    );
                }
                for (low, again) in point_us[i].iter_mut().zip(&timed.point_us) {
                    *low = low.min(*again);
                }
            }
            if slots.due(out.window_s) {
                side(&mut out, &mut decisions)?;
                slots.take();
            }
        }
        pass += 1;
        if opts.fixed_work || (pass >= REPEAT_PASSES && out.window_s >= window_s) {
            break;
        }
        if pass >= REPEAT_PASSES {
            pass_sample = sample(&prepared.placements, PER_THREAD_COUNT, &mut draws);
        }
    }
    out.detail("passes_started", pass.to_string());
    out.op_tail_ms = Some(point_us.concat().iter().map(|us| us / 1e3).collect());
    while slots.left() {
        side(&mut out, &mut decisions)?;
        slots.take();
    }
    let decisions = decisions.finish(&mut out)?;

    out.snapshot_layers(&log);

    // Accuracy, and agreement between each decision and its curve.
    let mut accuracy = Accuracy::default();
    for (curve, best) in curves.iter().zip(&decisions) {
        accuracy.add(&mut out, curve, best);
    }
    accuracy.finish(&mut out);

    let mut digest = Digest::default();
    for curve in &curves {
        digest.curve(curve);
    }
    let seed = opts.seed.to_string();
    let points = curves.iter().map(|c| c.points.len() as u64).sum();
    out.check_digest("digest", NAME, &seed, &digest, points);

    // The same curves through the harness's own runner at the other
    // worker count must be bit-identical, and so must the canary.
    let mut canary_digest = Digest::default();
    let canary_points = canary(
        CHECK_JOBS,
        prepared,
        &workloads,
        &prepared.profiles,
        &mut canary_digest,
    )?;
    out.attempted += canary_points;
    out.check_digest("canary", NAME, "canary", &canary_digest, canary_points);
    let ctx = MachineContext {
        platform: SimMachine::new(spec.clone()),
        spec: spec.clone(),
        description: prepared.description.clone(),
    };
    let mut rng = Rng::new(opts.seed, "cross-jobs");
    for _ in 0..CROSS_JOBS_CURVES {
        let i = rng.below(workloads.len());
        let reference = measure_curve_with(
            &ExecContext::new(CHECK_JOBS),
            &ctx,
            &workloads[i].behavior,
            &prepared.profiles[i],
            &placements,
            &PredictorConfig::default(),
        )?;
        out.attempted += reference.points.len() as u64;
        let bad = mismatched_points(&curves[i], &reference);
        if bad > 0 {
            out.fail(
                bad as u64,
                &format!(
                    "{}: jobs {} and jobs {CHECK_JOBS} differ",
                    workloads[i].name, JOBS
                ),
            );
        }
    }
    out.detail(
        "cross_jobs_checked",
        format!("\"jobs {} vs {CHECK_JOBS}\"", JOBS),
    );
    Ok(out)
}
