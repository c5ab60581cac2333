//! A [`Platform`] wrapper that times and counts every simulator run from
//! outside the simulator, including the runs made inside machine
//! description generation and workload profiling.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use pandia_sim::{Behavior, SimMachine};
use pandia_topology::{
    MachineSpec, MultiRunRequest, Platform, PlatformError, RunRequest, RunResult, StressKind,
};

/// Host time of every run made through the [`TimedSim`]s sharing it,
/// plus how many of those runs repeated an earlier request exactly.
#[derive(Debug, Default)]
pub struct SimLog {
    inner: Mutex<LogInner>,
}

#[derive(Debug, Default)]
struct LogInner {
    run_us: Vec<f64>,
    seen: HashSet<u64>,
    duplicates: u64,
}

/// What a [`SimLog`] holds at one moment.
#[derive(Debug, Clone, Default)]
pub struct SimTally {
    /// Host microseconds of each run, in completion order.
    pub run_us: Vec<f64>,
    /// Runs whose request (machine, workload, placement, stressors, flags
    /// and noise seed) had been simulated before.
    pub duplicates: u64,
}

impl SimLog {
    fn record(&self, micros: f64, key: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.run_us.push(micros);
        if !inner.seen.insert(key) {
            inner.duplicates += 1;
        }
    }

    /// A copy of the log so far.
    pub fn tally(&self) -> SimTally {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        SimTally {
            run_us: inner.run_us.clone(),
            duplicates: inner.duplicates,
        }
    }
}

/// The simulator behind a timing shim. Clones share the log, so the
/// per-worker platform clones of a parallel sweep all report into it.
#[derive(Debug, Clone)]
pub struct TimedSim {
    inner: SimMachine,
    log: Arc<SimLog>,
}

impl TimedSim {
    /// A fresh simulator of `spec` reporting into `log`.
    pub fn new(spec: MachineSpec, log: Arc<SimLog>) -> Self {
        Self {
            inner: SimMachine::new(spec),
            log,
        }
    }
}

fn hash_job(h: &mut DefaultHasher, workload: &Behavior, placement: &pandia_topology::Placement) {
    workload.name.hash(h);
    for ctx in placement.contexts() {
        ctx.0.hash(h);
    }
}

fn single_key(spec: &MachineSpec, req: &RunRequest<Behavior>) -> u64 {
    let mut h = DefaultHasher::new();
    spec.name.hash(&mut h);
    hash_job(&mut h, &req.workload, &req.placement);
    for pin in &req.stressors {
        (pin.kind, pin.ctx.0).hash(&mut h);
    }
    (req.fill_background, req.turbo, req.data_placement, req.seed).hash(&mut h);
    h.finish()
}

fn multi_key(spec: &MachineSpec, req: &MultiRunRequest<Behavior>) -> u64 {
    let mut h = DefaultHasher::new();
    spec.name.hash(&mut h);
    "multi".hash(&mut h);
    for job in &req.jobs {
        hash_job(&mut h, &job.workload, &job.placement);
        job.data_placement.hash(&mut h);
    }
    (req.fill_background, req.turbo, req.seed).hash(&mut h);
    h.finish()
}

impl Platform for TimedSim {
    type Workload = Behavior;

    fn spec(&self) -> &MachineSpec {
        self.inner.spec()
    }

    fn stress_workload(&self, kind: StressKind) -> Behavior {
        self.inner.stress_workload(kind)
    }

    fn run(&mut self, req: &RunRequest<Behavior>) -> Result<RunResult, PlatformError> {
        let start = Instant::now();
        let result = self.inner.run(req);
        let micros = start.elapsed().as_secs_f64() * 1e6;
        self.log.record(micros, single_key(self.inner.spec(), req));
        result
    }

    fn run_multi(
        &mut self,
        req: &MultiRunRequest<Behavior>,
    ) -> Result<Vec<RunResult>, PlatformError> {
        let start = Instant::now();
        let result = self.inner.run_multi(req);
        let micros = start.elapsed().as_secs_f64() * 1e6;
        self.log.record(micros, multi_key(self.inner.spec(), req));
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandia_topology::Placement;

    #[test]
    fn counts_runs_and_exact_repeats() {
        let log = Arc::new(SimLog::default());
        let spec = MachineSpec::toy();
        let mut sim = TimedSim::new(spec.clone(), log.clone());
        let mut clone = sim.clone();
        let behavior = pandia_workloads::by_name("EP").unwrap().behavior;
        let one = RunRequest::new(behavior.clone(), Placement::spread(&spec, 1).unwrap());
        let two = RunRequest::new(behavior, Placement::spread(&spec, 2).unwrap());
        sim.run(&one).unwrap();
        clone.run(&two).unwrap();
        clone.run(&one).unwrap();
        sim.run(&one.clone().with_seed(9)).unwrap();
        let tally = log.tally();
        assert_eq!((tally.run_us.len(), tally.duplicates), (4, 1));
        assert!(tally.run_us.iter().all(|&us| us > 0.0));
    }
}
