//! [`SimMachine`]: the simulator packaged as a [`Platform`].
//!
//! This is the boundary between the Pandia library and the ground truth.
//! Everything Pandia learns about a machine or a workload flows through
//! [`Platform::run`] on this type — execution time and counters only, never
//! the underlying [`Behavior`] parameters or the spec's capacity numbers.

use pandia_topology::{
    MachineSpec, MultiRunRequest, Platform, PlatformError, RunRequest, RunResult, StressKind,
};

use crate::{
    behavior::Behavior,
    engine::{self, EngineConfig, GroupInput, MultiRunInputs, RunInputs},
    stress,
};

/// Simulation configuration for a [`SimMachine`].
#[derive(Debug, Clone, PartialEq)]
#[derive(Default)]
pub struct SimConfig {
    /// Engine tunables (segmenting, relaxation, noise).
    pub engine: EngineConfig,
}


impl SimConfig {
    /// A configuration with measurement noise disabled, for tests that
    /// need exact reproducibility of analytic expectations.
    pub fn noiseless() -> Self {
        Self { engine: EngineConfig { noise_sigma: 0.0, ..EngineConfig::default() } }
    }

    /// Returns this configuration with the given fault-injection plan.
    pub fn with_faults(mut self, faults: crate::fault::FaultPlan) -> Self {
        self.engine.faults = faults;
        self
    }

    /// Returns this configuration with the engine's segment memo toggled.
    /// On by default; off runs the naive loop, the reference the memo is
    /// tested against.
    pub fn with_incremental(mut self, incremental: bool) -> Self {
        self.engine.incremental = incremental;
        self
    }
}

/// A simulated machine implementing the platform interface.
#[derive(Debug, Clone)]
pub struct SimMachine {
    spec: MachineSpec,
    config: SimConfig,
}

impl SimMachine {
    /// Creates a simulated machine for a spec with default configuration.
    pub fn new(spec: MachineSpec) -> Self {
        Self { spec, config: SimConfig::default() }
    }

    /// Creates a simulated machine with explicit configuration.
    pub fn with_config(spec: MachineSpec, config: SimConfig) -> Self {
        Self { spec, config }
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs a single workload while recording a per-segment trace.
    pub fn run_traced(
        &mut self,
        req: &RunRequest<Behavior>,
    ) -> Result<(RunResult, crate::trace::RunTrace), PlatformError> {
        let jobs = MultiRunRequest {
            jobs: vec![pandia_topology::JobRequest {
                workload: req.workload.clone(),
                placement: req.placement.clone(),
                data_placement: req.data_placement,
            }],
            fill_background: req.fill_background,
            turbo: req.turbo,
            seed: req.seed,
        };
        let (mut results, trace) = self.run_multi_traced(&jobs)?;
        let result = results.pop().ok_or_else(|| PlatformError::Internal {
            reason: "multi-run returned no result for a single job".into(),
        })?;
        Ok((result, trace))
    }

    /// Runs several workloads concurrently while recording a trace.
    pub fn run_multi_traced(
        &mut self,
        req: &MultiRunRequest<Behavior>,
    ) -> Result<(Vec<RunResult>, crate::trace::RunTrace), PlatformError> {
        self.validate_multi(req)?;
        let groups: Vec<GroupInput<'_>> = req
            .jobs
            .iter()
            .map(|job| GroupInput {
                behavior: &job.workload,
                placement: &job.placement,
                data_placement: job.data_placement,
            })
            .collect();
        let inputs = MultiRunInputs {
            spec: &self.spec,
            groups: &groups,
            stressors: &[],
            fill_background: req.fill_background,
            turbo: req.turbo,
            seed: req.seed,
        };
        engine::run_multi_traced(&inputs, &self.config.engine).map_err(PlatformError::from)
    }

    /// Runs several workloads concurrently, additionally returning the
    /// engine's [`crate::engine::SimStats`] so callers can assert on the
    /// segment memo and the solve count directly.
    pub fn run_multi_stats(
        &mut self,
        req: &MultiRunRequest<Behavior>,
    ) -> Result<(Vec<RunResult>, crate::engine::SimStats), PlatformError> {
        self.validate_multi(req)?;
        let groups: Vec<GroupInput<'_>> = req
            .jobs
            .iter()
            .map(|job| GroupInput {
                behavior: &job.workload,
                placement: &job.placement,
                data_placement: job.data_placement,
            })
            .collect();
        let inputs = MultiRunInputs {
            spec: &self.spec,
            groups: &groups,
            stressors: &[],
            fill_background: req.fill_background,
            turbo: req.turbo,
            seed: req.seed,
        };
        engine::run_multi_stats(&inputs, &self.config.engine).map_err(PlatformError::from)
    }

    fn validate_multi(&self, req: &MultiRunRequest<Behavior>) -> Result<(), PlatformError> {
        let mut used: Vec<bool> = vec![false; self.spec.total_contexts()];
        for job in &req.jobs {
            if job.workload.requires_avx && !self.spec.has_avx {
                return Err(PlatformError::Unsupported {
                    // lint: allow(H2): error path — the message is only built on rejection
                    reason: format!(
                        "{} requires AVX, which {} does not implement",
                        job.workload.name, self.spec.name
                    ),
                });
            }
            if let Err(e) = job.workload.validate() {
                return Err(PlatformError::Unsupported { reason: e });
            }
            for &ctx in job.placement.contexts() {
                if used[ctx.0] {
                    return Err(PlatformError::Placement(
                        pandia_topology::TopologyError::ContextOversubscribed { ctx: ctx.0 },
                    ));
                }
                used[ctx.0] = true;
            }
        }
        Ok(())
    }
}

impl Platform for SimMachine {
    type Workload = Behavior;

    fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    fn stress_workload(&self, kind: StressKind) -> Behavior {
        stress::behavior(&self.spec, kind)
    }

    fn run(&mut self, req: &RunRequest<Behavior>) -> Result<RunResult, PlatformError> {
        let _span = pandia_obs::span("sim", "run")
            .arg("workload", req.workload.name.as_str())
            .arg("threads", req.placement.contexts().len());
        pandia_obs::count("sim.runs", 1);
        if req.workload.requires_avx && !self.spec.has_avx {
            return Err(PlatformError::Unsupported {
                reason: format!(
                    "{} requires AVX, which {} does not implement",
                    req.workload.name, self.spec.name
                ),
            });
        }
        if let Err(e) = req.workload.validate() {
            return Err(PlatformError::Unsupported { reason: e });
        }
        // Stressors must not collide with workload threads or each other.
        let mut used: Vec<bool> = vec![false; self.spec.total_contexts()];
        for &ctx in req.placement.contexts() {
            used[ctx.0] = true;
        }
        for pin in &req.stressors {
            if pin.ctx.0 >= used.len() {
                return Err(PlatformError::Placement(
                    pandia_topology::TopologyError::ContextOutOfRange {
                        ctx: pin.ctx.0,
                        total: used.len(),
                    },
                ));
            }
            if used[pin.ctx.0] {
                return Err(PlatformError::StressorCollision { ctx: pin.ctx.0 });
            }
            used[pin.ctx.0] = true;
        }
        let inputs = RunInputs {
            spec: &self.spec,
            behavior: &req.workload,
            placement: &req.placement,
            stressors: &req.stressors,
            fill_background: req.fill_background,
            turbo: req.turbo,
            data_placement: req.data_placement,
            seed: req.seed,
        };
        engine::run(&inputs, &self.config.engine).map_err(PlatformError::from)
    }

    fn run_multi(
        &mut self,
        req: &MultiRunRequest<Behavior>,
    ) -> Result<Vec<RunResult>, PlatformError> {
        let _span = pandia_obs::span("sim", "run_multi").arg("jobs", req.jobs.len());
        pandia_obs::count("sim.multi_runs", 1);
        self.validate_multi(req)?;
        let groups: Vec<GroupInput<'_>> = req
            .jobs
            .iter()
            .map(|job| GroupInput {
                behavior: &job.workload,
                placement: &job.placement,
                data_placement: job.data_placement,
            })
            .collect();
        let inputs = MultiRunInputs {
            spec: &self.spec,
            groups: &groups,
            stressors: &[],
            fill_background: req.fill_background,
            turbo: req.turbo,
            seed: req.seed,
        };
        engine::run_multi(&inputs, &self.config.engine).map_err(PlatformError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandia_topology::{CtxId, Placement};

    #[test]
    fn platform_runs_a_behavior() {
        let mut m = SimMachine::with_config(MachineSpec::x3_2(), SimConfig::noiseless());
        let b = Behavior::compute("hello", 10.0, 1.0);
        let p = Placement::spread(m.spec(), 2).unwrap();
        let r = m.run(&RunRequest::new(b, p)).unwrap();
        assert!(r.elapsed > 0.0);
        assert_eq!(r.per_thread_busy.len(), 2);
    }

    #[test]
    fn avx_workload_rejected_on_westmere() {
        let mut m = SimMachine::new(MachineSpec::x2_4());
        let mut b = Behavior::compute("sortjoin", 10.0, 1.0);
        b.requires_avx = true;
        let p = Placement::spread(m.spec(), 1).unwrap();
        let err = m.run(&RunRequest::new(b.clone(), p.clone())).unwrap_err();
        assert!(matches!(err, PlatformError::Unsupported { .. }));
        // The same workload runs on a Haswell machine.
        let mut hsw = SimMachine::new(MachineSpec::x5_2());
        let p = Placement::spread(hsw.spec(), 1).unwrap();
        assert!(hsw.run(&RunRequest::new(b, p)).is_ok());
    }

    #[test]
    fn stressor_collision_detected() {
        let mut m = SimMachine::new(MachineSpec::x3_2());
        let b = Behavior::compute("w", 10.0, 1.0);
        let p = Placement::spread(m.spec(), 1).unwrap();
        let occupied = p.contexts()[0];
        let req = RunRequest::new(b, p).with_stressor(StressKind::Cpu, occupied);
        assert!(matches!(m.run(&req), Err(PlatformError::StressorCollision { .. })));
    }

    #[test]
    fn invalid_behavior_rejected() {
        let mut m = SimMachine::new(MachineSpec::x3_2());
        let mut b = Behavior::compute("bad", 10.0, 1.0);
        b.seq_fraction = 2.0;
        let p = Placement::spread(m.spec(), 1).unwrap();
        assert!(matches!(
            m.run(&RunRequest::new(b, p)),
            Err(PlatformError::Unsupported { .. })
        ));
    }

    #[test]
    fn out_of_range_stressor_rejected() {
        let mut m = SimMachine::new(MachineSpec::toy());
        let b = Behavior::compute("w", 5.0, 1.0);
        let p = Placement::spread(m.spec(), 1).unwrap();
        let req = RunRequest::new(b, p).with_stressor(StressKind::Cpu, CtxId(999));
        assert!(matches!(m.run(&req), Err(PlatformError::Placement(_))));
    }

    #[test]
    fn stress_workloads_are_available() {
        let m = SimMachine::new(MachineSpec::x5_2());
        for kind in StressKind::ALL {
            let b = m.stress_workload(kind);
            assert!(b.validate().is_ok());
        }
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use pandia_topology::Placement;

    #[test]
    fn traced_run_matches_untraced_result() {
        let spec = MachineSpec::x3_2();
        let mut m = SimMachine::new(spec.clone());
        let b = Behavior::compute("traced", 10.0, 2.0);
        let p = Placement::spread(&spec, 4).unwrap();
        let req = RunRequest::new(b, p).with_seed(5);
        let plain = m.run(&req).unwrap();
        let (traced, trace) = m.run_traced(&req).unwrap();
        assert_eq!(plain, traced, "tracing must not perturb the run");
        assert!(!trace.segments.is_empty());
        // Trace time approximates the (noise-free) elapsed time.
        assert!((trace.total_time() - traced.elapsed).abs() / traced.elapsed < 0.05);
    }

    #[test]
    fn trace_identifies_the_real_bottleneck() {
        let spec = MachineSpec::x3_2();
        let mut m = SimMachine::new(spec.clone());
        let mut b = Behavior::compute("hog", 15.0, 0.5);
        b.demand.dram = 9.0;
        b.data_placement = pandia_topology::DataPlacement::ThreadLocal;
        // 8 threads on one socket saturate its DRAM channels.
        let canon = pandia_topology::CanonicalPlacement::new(vec![vec![1; 8]]);
        let p = canon.instantiate(&spec).unwrap();
        let (_, trace) = m.run_traced(&RunRequest::new(b, p)).unwrap();
        match trace.dominant_bottleneck() {
            Some(pandia_topology::ResourceKind::Dram(_)) => {}
            other => panic!("expected a DRAM bottleneck, got {other:?}"),
        }
        assert!(trace.mean_peak_utilization() > 0.9);
    }

    #[test]
    fn multi_trace_shows_groups_finishing_at_different_times() {
        let spec = MachineSpec::x3_2();
        let mut m = SimMachine::new(spec.clone());
        let short = Behavior::compute("short", 5.0, 2.0);
        let long = Behavior::compute("long", 20.0, 2.0);
        let pa = Placement::new(&spec, vec![pandia_topology::CtxId(0)]).unwrap();
        let pb = Placement::new(&spec, vec![pandia_topology::CtxId(4)]).unwrap();
        let (results, trace) = m
            .run_multi_traced(&MultiRunRequest::new(vec![(short, pa), (long, pb)]))
            .unwrap();
        assert!(results[0].elapsed < results[1].elapsed);
        // The tail of the trace has group 0 at rate 0 while group 1 runs.
        let tail = trace.segments.last().unwrap();
        assert_eq!(tail.group_rates.len(), 2);
        assert!(tail.group_rates[0] < 1e-9);
        assert!(tail.group_rates[1] > 0.0);
    }
}
