//! The steps every workload shares: setting a machine up (description,
//! enumeration, profiling), drawing a seeded placement sample, timing
//! curve points, timing placement decisions, and digesting results.

use std::sync::Arc;
use std::time::Instant;

use pandia_core::{
    best_placement_with, describe_machine, ExecContext, MachineDescription, PandiaError,
    PlacementOutcome, PredictSession, PredictorConfig, WorkloadDescription, WorkloadProfiler,
};
use pandia_harness::{runner::measure_curve_with, CurvePoint, MachineContext, PlacementCurve};
use pandia_sim::SimMachine;
use pandia_topology::{
    CanonicalPlacement, HasShape, MachineSpec, PlacementEnumerator, Platform, RunRequest,
};
use pandia_workloads::WorkloadEntry;

use crate::stats::median;
use crate::timed::{SimLog, TimedSim};
use crate::{Opts, Outcome};

/// Result type of the benchmark's steps.
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Host time of each set-up step, in milliseconds.
#[derive(Debug, Default)]
pub struct SetupTimes {
    /// One entry per machine description generated.
    pub describe_ms: Vec<f64>,
    /// One entry per full placement enumeration.
    pub enumerate_ms: Vec<f64>,
    /// One entry per workload profiled.
    pub profile_ms: Vec<f64>,
}

/// A machine after set-up: described, its placement space enumerated,
/// and every workload profiled on it.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The simulated machine.
    pub spec: MachineSpec,
    /// The generated machine description.
    pub description: MachineDescription,
    /// Every canonical placement, in figure order.
    pub placements: Vec<CanonicalPlacement>,
    /// One profiled description per workload, in workload order.
    pub profiles: Vec<WorkloadDescription>,
}

/// Sets one machine up through a timed simulator.
fn prepare(
    spec: &MachineSpec,
    workloads: &[WorkloadEntry],
    log: &Arc<SimLog>,
    times: &mut SetupTimes,
) -> Res<Prepared> {
    let mut platform = TimedSim::new(spec.clone(), log.clone());
    let start = Instant::now();
    let description = describe_machine(&mut platform)?;
    times.describe_ms.push(ms_since(start));

    let start = Instant::now();
    let placements = PlacementEnumerator::new(spec).all();
    times.enumerate_ms.push(ms_since(start));

    let profiler = WorkloadProfiler::new(&description);
    let mut profiles = Vec::with_capacity(workloads.len());
    for w in workloads {
        let start = Instant::now();
        profiles.push(
            profiler
                .profile(&mut platform, &w.behavior, w.name)?
                .description,
        );
        times.profile_ms.push(ms_since(start));
    }
    Ok(Prepared {
        spec: spec.clone(),
        description,
        placements,
        profiles,
    })
}

/// Evenly spaced slots of side work in a measured window: repeated
/// set-ups and blocks of placement decisions, timed apart from the
/// window's operations. Spreading them over the window makes every figure
/// of a run sample the host over the same stretch of time, so a slow
/// moment of the host weighs on all of them alike.
#[derive(Debug)]
pub struct Slots {
    total: usize,
    done: usize,
    window_s: f64,
}

impl Slots {
    /// Slots per run: one in a fixed unit of work, ten otherwise. The
    /// host's speed moves within a second, so many short slots sample it
    /// better than a few long ones.
    pub fn new(opts: &Opts) -> Self {
        Self {
            total: if opts.fixed_work { 1 } else { 10 },
            done: 0,
            window_s: opts.seconds as f64,
        }
    }

    /// Whether the next slot is due once `measured_s` seconds of the
    /// window have been measured.
    pub fn due(&self, measured_s: f64) -> bool {
        self.left() && measured_s >= self.window_s * self.done as f64 / self.total as f64
    }

    /// Whether any slot is left.
    pub fn left(&self) -> bool {
        self.done < self.total
    }

    /// Marks a slot done.
    pub fn take(&mut self) {
        self.done += 1;
    }
}

/// Runs `step` once, then again until `min_s` seconds have passed or it
/// has run `max` times: a slot's repeats of millisecond-scale work, so a
/// momentary stall of the host moves no median.
pub fn repeat_for(min_s: f64, max: usize, mut step: impl FnMut() -> Res<()>) -> Res<()> {
    let start = Instant::now();
    for _ in 0..max {
        step()?;
        if start.elapsed().as_secs_f64() >= min_s {
            break;
        }
    }
    Ok(())
}

/// Host time one slot spends on repeated set-ups, and their most repeats.
const SLOT_SETUP: (f64, usize) = (0.3, 10);

/// Host time one slot spends on repeated blocks of decisions, and their
/// most repeats.
pub const SLOT_DECIDE: (f64, usize) = (0.5, 30);

/// Set-ups of every machine of a workload: the first one, whose results
/// the run uses, and repeats that must describe and profile exactly as
/// it did.
pub struct SetUps<'a> {
    specs: &'a [MachineSpec],
    workloads: &'a [WorkloadEntry],
    log: Arc<SimLog>,
    /// The first set-up's machines, in `specs` order.
    pub prepared: Vec<Prepared>,
}

impl<'a> SetUps<'a> {
    /// Sets every machine up once, timing it into `out`.
    pub fn new(
        out: &mut Outcome,
        specs: &'a [MachineSpec],
        workloads: &'a [WorkloadEntry],
        log: &Arc<SimLog>,
    ) -> Res<Self> {
        let mut setups = Self {
            specs,
            workloads,
            log: log.clone(),
            prepared: Vec::new(),
        };
        setups.prepared = setups.once(out)?;
        Ok(setups)
    }

    fn once(&self, out: &mut Outcome) -> Res<Vec<Prepared>> {
        let start = Instant::now();
        let prepared = self
            .specs
            .iter()
            .map(|spec| prepare(spec, self.workloads, &self.log, &mut out.setup_times))
            .collect::<Res<Vec<_>>>()?;
        out.setup_s.push(start.elapsed().as_secs_f64());
        out.attempted += 1;
        Ok(prepared)
    }

    /// One slot's repeats (see [`SLOT_SETUP`]), each checked against the
    /// first set-up.
    pub fn repeat(&self, out: &mut Outcome) -> Res<()> {
        let (min_s, max) = SLOT_SETUP;
        repeat_for(min_s, max, || {
            let again = self.once(out)?;
            let same = self
                .prepared
                .iter()
                .zip(&again)
                .all(|(a, b)| a.description == b.description && a.profiles == b.profiles);
            if !same {
                out.fail(1, "repeated set-up gave a different description or profile");
            }
            Ok(())
        })
    }
}

/// splitmix64: the generator the workspace's own seeded streams use.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, kept apart from other streams by `salt`.
    pub fn new(seed: u64, salt: &str) -> Self {
        Self(seed ^ fnv1a(salt.as_bytes()))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A seeded sample of `placements` (which must be in figure order) that
/// keeps at most `per_count` of each thread count, returned in figure
/// order.
pub fn sample(
    placements: &[CanonicalPlacement],
    per_count: usize,
    rng: &mut Rng,
) -> Vec<CanonicalPlacement> {
    let mut out = Vec::new();
    for group in placements.chunk_by(|a, b| a.total_threads() == b.total_threads()) {
        let keep = per_count.min(group.len());
        // Partial Fisher-Yates over indices, then back to figure order.
        let mut idx: Vec<usize> = (0..group.len()).collect();
        for i in 0..keep {
            let j = i + rng.below(group.len() - i);
            idx.swap(i, j);
        }
        let mut chosen = idx[..keep].to_vec();
        chosen.sort_unstable();
        out.extend(chosen.into_iter().map(|i| group[i].clone()));
    }
    out
}

/// One curve's points, each with the host time it took.
#[derive(Debug)]
pub struct TimedCurve {
    /// The measured-versus-predicted curve.
    pub curve: PlacementCurve,
    /// Host microseconds per point (ground-truth run plus prediction).
    pub point_us: Vec<f64>,
}

/// Measures and predicts `workload` at every placement, fanned across
/// `exec`'s workers. This is the loop of `runner::measure_curve_with`
/// (same requests, predictions and chunk plan) with each point timed and
/// the ground truth run through `platform`.
pub fn timed_curve(
    exec: &ExecContext,
    platform: &TimedSim,
    prepared: &Prepared,
    entry: &WorkloadEntry,
    workload: &WorkloadDescription,
    placements: &[CanonicalPlacement],
) -> Res<TimedCurve> {
    let config = PredictorConfig::default();
    let shape = prepared.description.shape();
    let session = PredictSession::new(exec, &prepared.description, workload, &config)?;
    let evaluated = exec.parallel_map_sized(
        placements,
        |canon| canon.total_threads() as f64,
        |canon| -> Result<(CurvePoint, f64), PandiaError> {
            let start = Instant::now();
            let placement = canon.instantiate(&shape)?;
            let mut sim = platform.clone();
            let measured = sim
                .run(&RunRequest::new(entry.behavior.clone(), placement.clone()))?
                .elapsed;
            let predicted = session.predict(&placement)?.predicted_time;
            let micros = start.elapsed().as_secs_f64() * 1e6;
            let point = CurvePoint {
                placement: canon.clone(),
                n_threads: placement.n_threads(),
                measured,
                predicted,
            };
            Ok((point, micros))
        },
    );
    let mut points = Vec::with_capacity(evaluated.len());
    let mut point_us = Vec::with_capacity(evaluated.len());
    for result in evaluated {
        let (point, micros) = result?;
        points.push(point);
        point_us.push(micros);
    }
    let curve = PlacementCurve {
        workload: workload.name.clone(),
        machine: prepared.description.machine.clone(),
        points,
    };
    Ok(TimedCurve { curve, point_us })
}

/// One placement decision: profile the workload, then search `candidates`
/// for the best predicted placement under a fresh execution context, so
/// the decision's predictions are cached apart from any curve's.
pub struct Decision {
    /// Host milliseconds for profiling plus search.
    pub ms: f64,
    /// The chosen placement.
    pub best: PlacementOutcome,
    /// The workload description the profile produced.
    pub profile: WorkloadDescription,
}

/// A run's placement decisions: a list of `n`, made in blocks of all `n`
/// back to back, so the first of a block pays for a cold cache and the
/// rest do not; each slot repeats the block (see [`SLOT_DECIDE`]). Every
/// repeat must choose what the first one chose.
pub struct Decisions {
    ms: Vec<Vec<f64>>,
    first: Vec<Option<PlacementOutcome>>,
}

impl Decisions {
    /// `n` decisions, none made yet.
    pub fn new(n: usize) -> Self {
        Self {
            ms: vec![Vec::new(); n],
            first: vec![None; n],
        }
    }

    /// Records decision `i`, checking its profile against `expected`.
    pub fn record(
        &mut self,
        out: &mut Outcome,
        i: usize,
        d: Decision,
        expected: &WorkloadDescription,
    ) {
        out.attempted += 1;
        self.ms[i].push(d.ms);
        if d.profile != *expected || self.first[i].as_ref().is_some_and(|f| *f != d.best) {
            out.fail(1, &format!("{}: decision is not repeatable", expected.name));
        }
        self.first[i].get_or_insert(d.best);
    }

    /// Each decision's median time goes to `out`; returns the choices.
    pub fn finish(self, out: &mut Outcome) -> Res<Vec<PlacementOutcome>> {
        out.decide_ms = self.ms.iter().map(|ms| median(ms)).collect();
        self.first
            .into_iter()
            .map(|f| f.ok_or_else(|| "a decision never ran".into()))
            .collect()
    }
}

/// Times one [`Decision`]. The search runs on one worker: a decision
/// takes milliseconds, and a fan-out that short would mostly time how long
/// the second worker waits for a processor.
pub fn decide(
    platform: &mut TimedSim,
    description: &MachineDescription,
    entry: &WorkloadEntry,
    candidates: &[CanonicalPlacement],
) -> Res<Decision> {
    let start = Instant::now();
    let profile = WorkloadProfiler::new(description)
        .profile(platform, &entry.behavior, entry.name)?
        .description;
    let exec = ExecContext::new(1);
    let best = best_placement_with(
        &exec,
        description,
        &profile,
        candidates,
        &PredictorConfig::default(),
    )?;
    Ok(Decision {
        ms: ms_since(start),
        best,
        profile,
    })
}

/// The best-placement gap of a decision (percent): how much slower the
/// chosen placement measured than the fastest measured point of `curve`.
/// `None` when the curve lacks the chosen placement.
fn decision_gap_pct(curve: &PlacementCurve, best: &PlacementOutcome) -> Option<f64> {
    let chosen = curve
        .points
        .iter()
        .find(|p| p.placement == best.placement)?;
    let fastest = curve.best_measured();
    Some(100.0 * (chosen.measured - fastest) / fastest)
}

/// Prediction accuracy over a run's decisions, each checked against the
/// measured curve over its candidates.
#[derive(Debug, Default)]
pub struct Accuracy {
    errors: Vec<f64>,
    gaps: Vec<f64>,
}

impl Accuracy {
    /// Scores one curve and the decision made over its placements; the
    /// decision must have chosen the curve's predicted best. A point's
    /// error is `error_stats`'s: the gap between its normalized measured
    /// and predicted performance, in percent of the measured. Errors are
    /// pooled over curves, because the median of a few dozen per-curve
    /// medians jumps from one curve to another with the seed's sample.
    pub fn add(&mut self, out: &mut Outcome, curve: &PlacementCurve, best: &PlacementOutcome) {
        let measured = curve.normalized_measured();
        let predicted = curve.normalized_predicted();
        self.errors.extend(
            measured
                .iter()
                .zip(&predicted)
                .map(|(m, p)| 100.0 * (p - m).abs() / m.max(1e-12)),
        );
        match decision_gap_pct(curve, best) {
            Some(gap) if best.predicted_time.to_bits() == curve.best_predicted().to_bits() => {
                self.gaps.push(gap)
            }
            _ => out.fail(
                1,
                &format!("{}: decision disagrees with its curve", curve.workload),
            ),
        }
    }

    /// The median error over every point of every curve, and the mean
    /// gap, go to `out`.
    pub fn finish(self, out: &mut Outcome) {
        out.median_error_pct = median(&self.errors);
        out.best_gap_pct = self.gaps.iter().sum::<f64>() / self.gaps.len().max(1) as f64;
    }
}

/// 64-bit FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut d = Digest::default();
    d.bytes(bytes);
    d.0
}

/// An incremental 64-bit FNV-1a digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds a curve in: its workload, and each point's placement and the
    /// exact bits of its measured and predicted times.
    pub fn curve(&mut self, curve: &PlacementCurve) {
        self.bytes(curve.workload.as_bytes());
        for p in &curve.points {
            for socket in &p.placement.sockets {
                self.bytes(socket);
                self.bytes(b"/");
            }
            self.bytes(&p.measured.to_bits().to_le_bytes());
            self.bytes(&p.predicted.to_bits().to_le_bytes());
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Points of two curves whose placement or bits differ (all of `b`'s
/// points when the lengths differ).
pub fn mismatched_points(a: &PlacementCurve, b: &PlacementCurve) -> usize {
    if a.points.len() != b.points.len() {
        return b.points.len().max(1);
    }
    a.points
        .iter()
        .zip(&b.points)
        .filter(|(x, y)| {
            x.placement != y.placement
                || x.measured.to_bits() != y.measured.to_bits()
                || x.predicted.to_bits() != y.predicted.to_bits()
        })
        .count()
}

/// The digest recorded for `(workload, key)` in `digests.tsv`, if any; a
/// key is a seed or `canary`.
pub fn recorded_digest(workload: &str, key: &str) -> Option<&'static str> {
    include_str!("../digests.tsv").lines().find_map(|line| {
        let mut cols = line.split('\t');
        let (w, k, d) = (cols.next()?, cols.next()?, cols.next()?);
        (w == workload && k == key).then_some(d.trim())
    })
}

/// Placements in a canary curve.
const CANARY_PLACEMENTS: usize = 12;

/// Folds the canary into `digest`: each workload's curve over a fixed
/// handful of placements that no seed changes, measured through
/// `runner::measure_curve_with` at `jobs` workers. Its digest is recorded
/// once per benchmark workload, so a run checks the model's output bits
/// whatever its seed. Returns the points measured.
pub fn canary(
    jobs: usize,
    prepared: &Prepared,
    workloads: &[WorkloadEntry],
    profiles: &[WorkloadDescription],
    digest: &mut Digest,
) -> Res<u64> {
    let one_each = sample(&prepared.placements, 1, &mut Rng::new(0, "canary"));
    let step = one_each.len().div_ceil(CANARY_PLACEMENTS);
    let placements: Vec<_> = one_each.into_iter().step_by(step).collect();
    let ctx = MachineContext {
        platform: SimMachine::new(prepared.spec.clone()),
        spec: prepared.spec.clone(),
        description: prepared.description.clone(),
    };
    let exec = ExecContext::new(jobs);
    let mut points = 0;
    for (entry, profile) in workloads.iter().zip(profiles) {
        let curve = measure_curve_with(
            &exec,
            &ctx,
            &entry.behavior,
            profile,
            &placements,
            &PredictorConfig::default(),
        )?;
        points += curve.points.len() as u64;
        digest.curve(&curve);
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_seeded_sorted_and_sized() {
        let spec = MachineSpec::x3_2();
        let all = PlacementEnumerator::new(&spec).all();
        let a = sample(&all, 3, &mut Rng::new(7, "x"));
        let b = sample(&all, 3, &mut Rng::new(7, "x"));
        let c = sample(&all, 3, &mut Rng::new(8, "x"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0].sort_key() <= w[1].sort_key()));
        let per_n = |s: &[CanonicalPlacement], n: usize| {
            s.iter().filter(|p| p.total_threads() == n).count()
        };
        for n in 1..=spec.total_contexts() {
            let available = per_n(&all, n);
            assert_eq!(per_n(&a, n), available.min(3), "thread count {n}");
        }
    }

    #[test]
    fn digest_sees_every_bit() {
        let point = |measured: f64| CurvePoint {
            placement: CanonicalPlacement {
                sockets: vec![vec![2, 1]],
            },
            n_threads: 3,
            measured,
            predicted: 1.0,
        };
        let curve = |m: f64| PlacementCurve {
            workload: "w".into(),
            machine: "m".into(),
            points: vec![point(m)],
        };
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.curve(&curve(2.0));
        b.curve(&curve(f64::from_bits(2.0_f64.to_bits() + 1)));
        assert_ne!(a.hex(), b.hex());
        assert_eq!(mismatched_points(&curve(2.0), &curve(2.0)), 0);
        assert_eq!(mismatched_points(&curve(2.0), &curve(3.0)), 1);
    }
}
