//! The fluid execution engine.
//!
//! A run advances in *segments*. Within a segment every runnable entity
//! (workload thread or stress kernel) has a fixed effective demand bundle
//! (its per-unit demands, modulated by its burst phase and by cache-
//! overflow spill) and the progress rates come from the max-min fair
//! equilibrium of [`crate::equilibrium`]. Between segments, work advances,
//! threads finish or draw from the shared pool, burst phases are redrawn,
//! and the DVFS point and lock-queue state are updated.
//!
//! Synchronization ground truth:
//!
//! * a global critical-section lock is modeled as a hard fluid resource
//!   (at most one lock-second per second in total) *plus* an M/M/1-style
//!   queueing delay `ρ / (1 - ρ)` that stretches each thread's
//!   critical-section time as the lock approaches saturation;
//! * communication adds per-work-unit latency proportional to the number
//!   and activity of peers, weighted by the machine's inter-socket latency
//!   for peers on other sockets (the ground truth behind the paper's `os`).

use std::collections::{hash_map::Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use pandia_topology::{
    Counters, CoreId, CtxId, DataPlacement, MachineSpec, Placement, ResourceTable, RunResult,
    SocketId, StressPin,
};

use crate::{
    behavior::Behavior,
    cache::spill_fraction,
    dvfs::DvfsState,
    equilibrium::{self, EntityDemand},
    fault::{FaultPlan, SimError},
    rng,
    stress,
    trace::{RunTrace, TraceSegment},
};

/// Tunables of the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Fraction of the remaining runtime covered by each segment (smaller
    /// = finer burst interleaving, slower simulation).
    pub segment_fraction: f64,
    /// Minimum number of segments the bulk of the run is divided into.
    /// Burst phases are redrawn per segment, so this bounds the sampling
    /// error of bursty workloads' measured times and counters: segments
    /// are capped at `1/min_segments` of the initial time-to-finish
    /// estimate, keeping them equal-length until the geometric tail.
    pub min_segments: usize,
    /// Fixed-point rounds per segment for the lock-queue/communication
    /// feedback.
    pub relaxation_rounds: usize,
    /// Standard deviation of the multiplicative measurement noise.
    pub noise_sigma: f64,
    /// Lock utilization at which the queueing delay is clamped.
    pub max_lock_rho: f64,
    /// Hard cap on segments, as a runaway guard.
    pub max_segments: usize,
    /// Deterministic fault-injection schedule. The default plan injects
    /// nothing and is byte-identical to an engine without the fault layer.
    pub faults: FaultPlan,
    /// Enables the segment memo, the engine's one fast path: a segment
    /// whose full input triple — runnable set, burst multipliers,
    /// relaxation warm start — recurs bit for bit is replayed from the
    /// memo instead of recomputed (a fault plan disables replay).
    ///
    /// Replay is bit-identical to the naive loop. With the switch off the
    /// engine is that loop: every segment is computed in full, so tests
    /// can run both and assert equivalence. Both modes solve every
    /// relaxation round with [`equilibrium::solve`].
    pub incremental: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            segment_fraction: 0.12,
            min_segments: 150,
            relaxation_rounds: 2,
            noise_sigma: 0.004,
            max_lock_rho: 0.98,
            max_segments: 20_000,
            faults: FaultPlan::none(),
            incremental: true,
        }
    }
}

/// Segment and solve accounting for one engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Segments executed (replayed or fully computed).
    pub segments: u64,
    /// Segments replayed from the segment memo instead of being fully
    /// recomputed.
    pub segments_coalesced: u64,
    /// [`equilibrium::solve`] calls: one per relaxation round of every
    /// fully computed segment. A replayed segment solves nothing.
    pub solves: u64,
}

/// One memoized segment middle: everything the full per-segment
/// computation produces from its (runnable set, burst multipliers,
/// relaxation warm start) input triple. The exact key is kept alongside
/// the outputs: the memo is addressed by a 128-bit fingerprint, and each
/// probe verifies the resident key word for word, so a fingerprint
/// collision degrades to a recompute — never to a wrong replay.
struct CachedSegment {
    key: Vec<u64>,
    rates: Vec<f64>,
    group_rate: Vec<f64>,
    hottest: Option<(pandia_topology::ResourceKind, f64)>,
    spill_frac_socket: Vec<f64>,
}

/// Pass-through hasher for the segment memo: the map key *is* a 128-bit
/// fingerprint, already uniformly distributed, so rehashing it per probe
/// would be pure overhead. The two words are folded with a rotate so both
/// drive bucket selection. (Nothing ever iterates the memo, so the
/// unordered map cannot perturb results.)
#[derive(Default)]
struct FpHasher(u64);

impl Hasher for FpHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }
    fn write_u64(&mut self, i: u64) {
        self.0 = self.0.rotate_left(32) ^ i;
    }
}

/// 128-bit fingerprint of a memo key: two independent FNV-1a chains over
/// the words (the second pre-rotates each word so the chains never
/// collide together). One multiply per word per chain — this runs on
/// every segment, hit or miss, so it is the hot edge of the memo. It
/// only has to make collisions rare, not impossible — exactness comes
/// from the full-key verification on every probe.
fn seg_fingerprint(words: &[u64]) -> (u64, u64) {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut a = 0xCBF2_9CE4_8422_2325_u64;
    let mut b = 0x243F_6A88_85A3_08D3_u64;
    for &w in words {
        a = (a ^ w).wrapping_mul(FNV_PRIME);
        b = (b ^ w.rotate_left(32)).wrapping_mul(FNV_PRIME);
    }
    (a, b)
}

/// Everything the engine needs for one run.
#[derive(Debug)]
pub struct RunInputs<'a> {
    /// Machine being simulated.
    pub spec: &'a MachineSpec,
    /// Workload to execute.
    pub behavior: &'a Behavior,
    /// Workload thread pinning.
    pub placement: &'a Placement,
    /// Co-scheduled stress kernels.
    pub stressors: &'a [StressPin],
    /// Pin all sockets at the all-core frequency (profiling methodology).
    pub fill_background: bool,
    /// Turbo Boost enabled.
    pub turbo: bool,
    /// Data placement override.
    pub data_placement: Option<DataPlacement>,
    /// Noise/burst seed.
    pub seed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum EntityClass {
    /// Workload thread with the given thread index.
    Worker(usize),
    /// Infinite-work stress kernel.
    Stressor,
}

struct Entity {
    class: EntityClass,
    /// Owning workload group (`usize::MAX` for stressors).
    group: usize,
    core: CoreId,
    socket: SocketId,
    behavior: Behavior,
    /// Fraction of DRAM traffic destined to each socket.
    dram_split: Vec<f64>,
    /// Remaining statically assigned work (workers only).
    private_work: f64,
    /// Work completed so far (indexes the burst-phase sequence).
    work_done: f64,
    busy_time: f64,
    finished: bool,
}

impl Entity {
    fn is_worker(&self) -> bool {
        matches!(self.class, EntityClass::Worker(_))
    }
}

/// Computes each thread's DRAM traffic split across sockets.
fn dram_split(
    policy: DataPlacement,
    spec: &MachineSpec,
    own_socket: SocketId,
    threads_per_socket: &[usize],
    total_threads: usize,
) -> Vec<f64> {
    let s = spec.sockets;
    match policy {
        DataPlacement::Interleave => vec![1.0 / s as f64; s],
        DataPlacement::Node(k) => {
            let mut v = vec![0.0; s];
            v[k.min(s - 1)] = 1.0;
            v
        }
        DataPlacement::FirstTouch => {
            if total_threads == 0 {
                let mut v = vec![0.0; s];
                v[own_socket.0] = 1.0;
                return v;
            }
            threads_per_socket.iter().map(|&t| t as f64 / total_threads as f64).collect()
        }
        DataPlacement::ThreadLocal => {
            let mut v = vec![0.0; s];
            v[own_socket.0] = 1.0;
            v
        }
        DataPlacement::RemoteNeighbor => {
            let mut v = vec![0.0; s];
            v[(own_socket.0 + 1) % s] = 1.0;
            v
        }
    }
}

/// Burst-phase draw for an entity in a segment: a golden-ratio
/// low-discrepancy sequence with a per-entity random offset.
///
/// The sequence equidistributes each thread's duty cycle with `O(1/N)`
/// error over `N` segments, while phase *overlap* between threads still
/// varies with the seed. Phases modulate *instantaneous demand* only;
/// counters charge each completed work unit its average demand, as a
/// hardware counter would.
const PHI_CONJUGATE: f64 = 0.618_033_988_749_895;

/// Per-entity phase offset for the burst draw: a pure function of the
/// seed and entity index, hoisted out of the segment loop by the engine
/// (the per-segment draw is `(offset + segment · φ⁻¹).fract()`).
fn burst_offset(seed: u64, entity: usize) -> f64 {
    rng::unit_f64(rng::mix(seed, entity as u64, 0, 0xB))
}

/// Reference form of the per-segment burst draw. The segment loop uses
/// the hoisted-offset equivalent; a unit test pins the two together.
#[cfg(test)]
fn burst_draw(seed: u64, entity: usize, segment: usize) -> f64 {
    (burst_offset(seed, entity) + segment as f64 * PHI_CONJUGATE).fract()
}

/// One co-scheduled workload: a behavior plus its thread pinning.
#[derive(Debug)]
pub struct GroupInput<'a> {
    /// The workload to run.
    pub behavior: &'a Behavior,
    /// Its thread placement (must not overlap other groups).
    pub placement: &'a Placement,
    /// Data placement override for this group.
    pub data_placement: Option<DataPlacement>,
}

/// Everything the engine needs for a multi-workload run.
#[derive(Debug)]
pub struct MultiRunInputs<'a> {
    /// Machine being simulated.
    pub spec: &'a MachineSpec,
    /// The co-scheduled workloads.
    pub groups: &'a [GroupInput<'a>],
    /// Co-scheduled stress kernels.
    pub stressors: &'a [StressPin],
    /// Pin all sockets at the all-core frequency (profiling methodology).
    pub fill_background: bool,
    /// Turbo Boost enabled.
    pub turbo: bool,
    /// Noise/burst seed.
    pub seed: u64,
}

/// Executes one run and returns its measured result.
pub fn run(inputs: &RunInputs<'_>, config: &EngineConfig) -> Result<RunResult, SimError> {
    let group = GroupInput {
        behavior: inputs.behavior,
        placement: inputs.placement,
        data_placement: inputs.data_placement,
    };
    let multi = MultiRunInputs {
        spec: inputs.spec,
        groups: std::slice::from_ref(&group),
        stressors: inputs.stressors,
        fill_background: inputs.fill_background,
        turbo: inputs.turbo,
        seed: inputs.seed,
    };
    run_multi(&multi, config)?.pop().ok_or_else(|| SimError::Internal {
        reason: "one group in, no result out".into(),
    })
}

/// Per-group bookkeeping during a multi-workload run.
struct GroupState {
    total_work: f64,
    pool: f64,
    pool_capable: bool,
    workers: usize,
    counters: Counters,
    finish_time: Option<f64>,
}

/// Executes several workloads concurrently and returns one result per
/// group, in input order.
///
/// Groups share every machine resource but have independent critical
/// sections, work pools, counters, and completion times (a group's
/// entities go idle once its work is done, freeing resources for the
/// rest). This is the ground truth for the multi-workload co-scheduling
/// extension the paper's §8 anticipates.
pub fn run_multi(
    inputs: &MultiRunInputs<'_>,
    config: &EngineConfig,
) -> Result<Vec<RunResult>, SimError> {
    run_multi_impl(inputs, config, None).map(|(results, _)| results)
}

/// Like [`run_multi`], additionally recording a per-segment [`RunTrace`].
pub fn run_multi_traced(
    inputs: &MultiRunInputs<'_>,
    config: &EngineConfig,
) -> Result<(Vec<RunResult>, RunTrace), SimError> {
    let mut trace = RunTrace::default();
    let (results, _) = run_multi_impl(inputs, config, Some(&mut trace))?;
    Ok((results, trace))
}

/// Like [`run_multi`], additionally returning the run's [`SimStats`] so
/// tests and harnesses can assert on the segment memo and the solve count
/// directly.
pub fn run_multi_stats(
    inputs: &MultiRunInputs<'_>,
    config: &EngineConfig,
) -> Result<(Vec<RunResult>, SimStats), SimError> {
    run_multi_impl(inputs, config, None)
}

/// Structure-of-arrays image of the per-entity constants the segment
/// middle reads, plus the resource-id lookups the demand build needs —
/// all resolved once per run so the per-segment loops touch contiguous
/// arrays and never chase a `Behavior` struct or a `ResourceTable`
/// method. Pure reorganization of existing values: every number in here
/// is bitwise the field it mirrors.
struct SoaEntities {
    is_worker: Vec<bool>,
    group: Vec<usize>,
    core: Vec<usize>,
    socket: Vec<usize>,
    working_set_mib: Vec<f64>,
    seq_fraction: Vec<f64>,
    comm_factor: Vec<f64>,
    intra_socket_comm: Vec<f64>,
    d_instr: Vec<f64>,
    d_l1: Vec<f64>,
    d_l2: Vec<f64>,
    d_l3: Vec<f64>,
    d_dram: Vec<f64>,
    /// Flattened per-entity DRAM split, stride = sockets.
    dram_split: Vec<f64>,
    res_issue: Vec<usize>,
    res_l1: Vec<usize>,
    res_l2: Vec<usize>,
    res_l3_link: Vec<usize>,
    res_l3_agg: Vec<usize>,
    /// Owning socket per core id (machine-level).
    core_home: Vec<usize>,
    /// DRAM resource id per node (machine-level).
    res_dram: Vec<usize>,
    /// Interconnect link id for `(socket, node)`, stride = sockets
    /// (machine-level; `None` on the diagonal and on linkless machines).
    res_link: Vec<Option<usize>>,
    /// Nominal capacity per hardware resource, in table order: the
    /// per-segment refill is one `memcpy` of this plus DVFS/SMT scaling
    /// of the cores that are actually occupied. Idle cores keep their
    /// nominal capacities — their pools carry no demand, so the solve is
    /// bitwise unaffected.
    base_caps: Vec<f64>,
}

impl SoaEntities {
    fn build(entities: &[Entity], spec: &MachineSpec, table: &ResourceTable) -> Self {
        let s = spec.sockets;
        let mut soa = Self {
            is_worker: Vec::with_capacity(entities.len()),
            group: Vec::with_capacity(entities.len()),
            core: Vec::with_capacity(entities.len()),
            socket: Vec::with_capacity(entities.len()),
            working_set_mib: Vec::with_capacity(entities.len()),
            seq_fraction: Vec::with_capacity(entities.len()),
            comm_factor: Vec::with_capacity(entities.len()),
            intra_socket_comm: Vec::with_capacity(entities.len()),
            d_instr: Vec::with_capacity(entities.len()),
            d_l1: Vec::with_capacity(entities.len()),
            d_l2: Vec::with_capacity(entities.len()),
            d_l3: Vec::with_capacity(entities.len()),
            d_dram: Vec::with_capacity(entities.len()),
            dram_split: Vec::with_capacity(entities.len() * s),
            res_issue: Vec::with_capacity(entities.len()),
            res_l1: Vec::with_capacity(entities.len()),
            res_l2: Vec::with_capacity(entities.len()),
            res_l3_link: Vec::with_capacity(entities.len()),
            res_l3_agg: Vec::with_capacity(entities.len()),
            core_home: (0..spec.total_cores()).map(|c| spec.socket_of_core(CoreId(c)).0).collect(),
            res_dram: (0..s).map(|node| table.dram(SocketId(node)).0).collect(),
            res_link: Vec::with_capacity(s * s),
            base_caps: table.resources().iter().map(|r| r.capacity).collect(),
        };
        for from in 0..s {
            for to in 0..s {
                soa.res_link.push(
                    table.interconnect(SocketId(from), SocketId(to)).map(|id| id.0),
                );
            }
        }
        for e in entities {
            soa.is_worker.push(e.is_worker());
            soa.group.push(e.group);
            soa.core.push(e.core.0);
            soa.socket.push(e.socket.0);
            soa.working_set_mib.push(e.behavior.working_set_mib);
            soa.seq_fraction.push(e.behavior.seq_fraction);
            soa.comm_factor.push(e.behavior.comm_factor);
            soa.intra_socket_comm.push(e.behavior.intra_socket_comm);
            let d = e.behavior.demand;
            soa.d_instr.push(d.instr);
            soa.d_l1.push(d.l1);
            soa.d_l2.push(d.l2);
            soa.d_l3.push(d.l3);
            soa.d_dram.push(d.dram);
            for node in 0..s {
                soa.dram_split.push(e.dram_split.get(node).copied().unwrap_or(0.0));
            }
            soa.res_issue.push(table.core_issue(e.core).0);
            soa.res_l1.push(table.l1(e.core).0);
            soa.res_l2.push(table.l2(e.core).0);
            soa.res_l3_link.push(table.l3_link(e.core).0);
            soa.res_l3_agg.push(table.l3_aggregate(e.socket).0);
        }
        soa
    }
}

/// Per-segment working buffers for the SoA middle, allocated on first use
/// and reused across every subsequent segment of the run.
#[derive(Default)]
struct SegScratch {
    active_cores: Vec<usize>,
    core_occupancy: Vec<u32>,
    socket_ws: Vec<f64>,
    socket_residents: Vec<usize>,
    spill_frac_socket: Vec<f64>,
    interference: Vec<f64>,
    /// Runnable indices sharing each core, ascending (SMT interference).
    core_members: Vec<Vec<usize>>,
    /// Same-group worker runnable indices, ascending (communication).
    group_members: Vec<Vec<usize>>,
    /// `comm_factor · (intra_socket_comm · interconnect_latency)` per
    /// runnable thread — the same-socket per-peer term's constant part.
    cf_lat_intra: Vec<f64>,
    /// `comm_factor · (1.0 · interconnect_latency)` per runnable thread.
    cf_lat_cross: Vec<f64>,
    /// Per-(socket, peer) communication weight for the current round,
    /// stride = runnable count.
    peer_weight: Vec<f64>,
    instr_demands: Vec<f64>,
    rho: Vec<f64>,
    queue_delay: Vec<f64>,
    round_rates: Vec<f64>,
    last_loads: Vec<f64>,
    dvfs: DvfsState,
}

/// Sparse-demand push: zero-demand terms never enter the bundle.
fn push_demand(v: &mut Vec<(usize, f64)>, id: usize, amt: f64) {
    if amt > 0.0 {
        v.push((id, amt));
    }
}

fn run_multi_impl(
    inputs: &MultiRunInputs<'_>,
    config: &EngineConfig,
    mut trace: Option<&mut RunTrace>,
) -> Result<(Vec<RunResult>, SimStats), SimError> {
    // Transient faults kill the whole measurement window before any
    // result is produced; a retry with a fresh seed re-draws the schedule.
    if config.faults.transient_faults(inputs.seed) {
        if pandia_obs::enabled() {
            pandia_obs::count("sim.faults_injected", 1);
        }
        return Err(SimError::TransientFault { seed: inputs.seed });
    }
    let spec = inputs.spec;
    let n_groups = inputs.groups.len();
    let mut entities: Vec<Entity> = Vec::new();
    let mut groups: Vec<GroupState> = Vec::with_capacity(n_groups);

    for (g, group) in inputs.groups.iter().enumerate() {
        let behavior = group.behavior;
        let n_threads = group.placement.n_threads();
        let workers = behavior.workers_of(n_threads);
        let total_work = behavior.work_for_threads(workers);
        let policy = group.data_placement.unwrap_or(behavior.data_placement);
        let threads_per_socket = group.placement.threads_per_socket(spec);
        let dyn_frac = behavior.scheduling.dynamic_fraction();
        let static_share =
            if workers > 0 { total_work * (1.0 - dyn_frac) / workers as f64 } else { 0.0 };
        for (t, &ctx) in group.placement.contexts().iter().enumerate() {
            let socket = spec.socket_of_ctx(ctx);
            let is_active = t < workers;
            entities.push(Entity {
                class: EntityClass::Worker(t),
                group: g,
                core: spec.core_of_ctx(ctx),
                socket,
                // lint: allow(H2): one-time entity construction per run, not per step
                behavior: behavior.clone(),
                dram_split: dram_split(policy, spec, socket, &threads_per_socket, n_threads),
                private_work: if is_active { static_share } else { 0.0 },
                work_done: 0.0,
                busy_time: 0.0,
                finished: !is_active,
            });
        }
        groups.push(GroupState {
            total_work,
            pool: total_work * dyn_frac,
            pool_capable: dyn_frac > 0.0,
            workers,
            counters: Counters { dram_bytes: vec![0.0; spec.sockets], ..Counters::default() },
            finish_time: None,
        });
    }
    for pin in inputs.stressors {
        let ctx = pin.ctx;
        let socket = spec.socket_of_ctx(ctx);
        let sb = stress::behavior(spec, pin.kind);
        let split = dram_split(sb.data_placement, spec, socket, &[], 0);
        entities.push(Entity {
            class: EntityClass::Stressor,
            group: usize::MAX,
            core: spec.core_of_ctx(ctx),
            socket,
            behavior: sb,
            dram_split: split,
            private_work: 0.0,
            work_done: 0.0,
            busy_time: 0.0,
            finished: false,
        });
    }

    let table = ResourceTable::from_spec(spec);
    // One critical-section lock per group, appended after the hardware
    // resources.
    let lock_base = table.len();
    let n_resources = table.len() + n_groups;

    let mut elapsed = 0.0_f64;
    let mut prev_rates: Vec<f64> = vec![1.0; entities.len()];
    let mut segment: usize = 0;
    let mut quantum = f64::INFINITY;
    let mut capacities = vec![0.0_f64; n_resources];
    let mut demands: Vec<EntityDemand> = Vec::new();
    let mut runnable: Vec<usize> = Vec::new();
    let mut group_remaining = vec![0.0_f64; n_groups];
    let mut pool_draw = vec![0.0_f64; n_groups];
    let mut stats = SimStats::default();
    // SoA image of the entity constants plus reusable per-segment
    // buffers, built once per run.
    let soa = SoaEntities::build(&entities, spec, &table);
    let mut seg_scratch = SegScratch::default();

    // Segment coalescer. The expensive middle of a segment (DVFS, spill,
    // burst interference, demand build, relaxation, equilibrium) is a pure
    // function of three inputs: the runnable set, the per-entity burst
    // multipliers, and the previous segment's rates (the relaxation warm
    // start) — everything else it reads is constant for the whole run, and
    // it consumes no stateful RNG (the phase draw is a pure function of
    // seed, entity, and segment index). So fully computed segments are
    // memoized under exactly those inputs, bit for bit, and a segment
    // whose key recurs is *replayed* from the cache instead of recomputed.
    // A steady run (smooth profiles, stabilized rates) repeats one key
    // forever; a bursty run revisits its recurring phase patterns. Either
    // way replay is exact — the error bound of coalescing is zero — and
    // the `min_segments` sampling guarantee is untouched because segment
    // boundaries, lengths, and per-segment bookkeeping are all preserved.
    // A fault plan disables coalescing outright: its per-segment gates are
    // observable state a replay must not skip.
    //
    // The map is keyed by a 128-bit fingerprint of the key words (the
    // full key can run to a couple of kilobytes on a wide machine, and
    // comparing it at every probe step would cost more than some
    // middles); the exact key lives in the entry and is verified on
    // every hit.
    let coalescing_allowed = config.incremental && config.faults.is_none();
    let mut seg_cache: HashMap<(u64, u64), CachedSegment, BuildHasherDefault<FpHasher>> =
        HashMap::default();
    let mut seg_key: Vec<u64> = Vec::new();
    let mut multipliers: Vec<f64> = Vec::new();
    // Per-entity high-phase multiplier bits. `BurstProfile::multiplier`
    // is two-valued per entity (the high value inside the duty window,
    // the low value outside; smooth profiles collapse both to one), so a
    // segment's multiplier vector compresses to one bit per runnable
    // entity in the memo key — set ⇔ bitwise equal to the high value.
    let burst_hi: Vec<u64> = entities
        .iter()
        .map(|e| e.behavior.burst.multiplier(0.0).to_bits())
        .collect();
    // Burst-profile constants, hoisted out of the segment loop: the draw
    // offset depends only on (seed, entity), and a profile's duty plus
    // high/low multipliers are fixed for the run — `low_multiplier`
    // divides, so evaluating it per segment per entity was the single
    // most repeated piece of arithmetic in the engine. The per-segment
    // draw collapses to one multiply-add, a `fract`, and a compare.
    let burst_off: Vec<f64> =
        (0..entities.len()).map(|i| burst_offset(inputs.seed, i)).collect();
    let burst_duty: Vec<f64> = entities.iter().map(|e| e.behavior.burst.duty).collect();
    let burst_amp: Vec<f64> =
        entities.iter().map(|e| e.behavior.burst.effective_amplitude()).collect();
    let burst_lo: Vec<f64> = entities.iter().map(|e| e.behavior.burst.low_multiplier()).collect();
    // Backstop for degenerate runs whose key never recurs: stop inserting
    // (but keep probing) once the memo is clearly not paying for itself.
    const SEG_CACHE_CAP: usize = 4096;

    loop {
        // Remaining work per group (private shares plus pool).
        for (g, gs) in groups.iter().enumerate() {
            group_remaining[g] = gs.pool;
        }
        for e in &entities {
            if e.is_worker() {
                group_remaining[e.group] += e.private_work;
            }
        }
        // Which entities run this segment?
        runnable.clear();
        for (i, e) in entities.iter().enumerate() {
            let has_work = match e.class {
                EntityClass::Worker(_) => {
                    !e.finished
                        && (e.private_work > 0.0
                            || (groups[e.group].pool_capable && groups[e.group].pool > 0.0))
                }
                EntityClass::Stressor => true,
            };
            if has_work {
                runnable.push(i);
            }
        }
        let remaining: f64 = group_remaining.iter().sum();
        if remaining <= 0.0 || runnable.iter().all(|&i| !entities[i].is_worker()) {
            break;
        }
        if segment >= config.max_segments {
            break;
        }

        // Burst phase multipliers for this segment: a stateless O(n) draw,
        // shared by the memo key and the full computation. (The latency
        // interference from co-resident bursting peers is derived from
        // these below: thread i pays `smt_burst_collision * (m_j - 1)` per
        // work unit for every SMT sibling j currently in its high-demand
        // phase — the ground truth behind the paper's b, §2.3.)
        multipliers.clear();
        let seg_phase = segment as f64 * PHI_CONJUGATE;
        multipliers.extend(runnable.iter().map(|&i| {
            // Inlined `burst.multiplier(burst_draw(seed, i, segment))`
            // over the hoisted constants: identical arithmetic, with the
            // per-entity hash and the low-phase division paid once per
            // run instead of once per segment.
            if burst_duty[i] >= 1.0 {
                1.0
            } else if (burst_off[i] + seg_phase).fract() < burst_duty[i] {
                burst_amp[i]
            } else {
                burst_lo[i]
            }
        }));

        // Probe the segment memo under the middle's complete input set:
        // the runnable set, this segment's multipliers, and the relaxation
        // warm start (the previous segment's rates). The encoding is a
        // bijection of those inputs, kept tight because it is built and
        // fingerprinted on every segment: the leading count word implies
        // the runnable set outright when every entity is runnable (the
        // common case — indices are only spelled out for partial sets),
        // and the multipliers collapse to packed high-phase bits.
        let fp = if coalescing_allowed {
            seg_key.clear();
            seg_key.push(runnable.len() as u64);
            if runnable.len() < entities.len() {
                seg_key.extend(runnable.iter().map(|&i| i as u64));
            }
            let mut word = 0u64;
            let mut nbits = 0u32;
            for (k, &i) in runnable.iter().enumerate() {
                word = (word << 1) | u64::from(multipliers[k].to_bits() == burst_hi[i]);
                nbits += 1;
                if nbits == 64 {
                    seg_key.push(word);
                    word = 0;
                    nbits = 0;
                }
            }
            if nbits > 0 {
                seg_key.push(word);
            }
            seg_key.extend(runnable.iter().map(|&i| prev_rates[i].to_bits()));
            seg_fingerprint(&seg_key)
        } else {
            (0, 0)
        };

        let mut full_middle = || -> CachedSegment {
            let scratch = &mut seg_scratch;

            let nk = runnable.len();

            // DVFS point from the cores that are actually busy.
            scratch.core_occupancy.clear();
            scratch.core_occupancy.resize(spec.total_cores(), 0);
            for &i in &runnable {
                scratch.core_occupancy[soa.core[i]] += 1;
            }
            scratch.active_cores.clear();
            scratch.active_cores.resize(spec.sockets, 0);
            for (c, &occ) in scratch.core_occupancy.iter().enumerate() {
                if occ > 0 {
                    scratch.active_cores[soa.core_home[c]] += 1;
                }
            }
            scratch.dvfs.compute_into(
                spec,
                &scratch.active_cores,
                inputs.turbo,
                inputs.fill_background,
            );

            // Cache spill per socket from resident working sets.
            // Non-adaptive caches additionally thrash under many
            // concurrent streams: spilled traffic is amplified with
            // socket occupancy (conflict misses and dead-block
            // re-fetches). Adaptive insertion policies suppress this
            // — the paper's §2.2/§6.2 contrast.
            scratch.socket_ws.clear();
            scratch.socket_ws.resize(spec.sockets, 0.0);
            scratch.socket_residents.clear();
            scratch.socket_residents.resize(spec.sockets, 0);
            for &i in &runnable {
                scratch.socket_ws[soa.socket[i]] += soa.working_set_mib[i];
                scratch.socket_residents[soa.socket[i]] += 1;
            }
            scratch.spill_frac_socket.clear();
            for s in 0..spec.sockets {
                let spill =
                    spill_fraction(scratch.socket_ws[s], spec.l3_mib, spec.adaptive_llc);
                let thrash = if spec.adaptive_llc {
                    1.0
                } else {
                    1.0 + 0.35 * scratch.socket_residents[s].saturating_sub(1) as f64
                        / spec.cores_per_socket as f64
                };
                scratch.spill_frac_socket.push(spill * thrash);
            }

            // Latency interference from co-resident bursting peers,
            // walked per core: only SMT-shared cores produce
            // interference, and within a core the member list keeps
            // ascending runnable order, so each thread accumulates
            // its siblings' terms in runnable order.
            scratch.interference.clear();
            scratch.interference.resize(runnable.len(), 0.0);
            if spec.smt_burst_collision > 0.0 {
                scratch.core_members.resize_with(spec.total_cores(), Vec::new);
                for list in &mut scratch.core_members {
                    list.clear();
                }
                for (k, &i) in runnable.iter().enumerate() {
                    scratch.core_members[soa.core[i]].push(k);
                }
                for members in &scratch.core_members {
                    if members.len() < 2 {
                        continue;
                    }
                    for &k in members {
                        for &k2 in members {
                            if k2 != k {
                                scratch.interference[k] += (multipliers[k2] - 1.0).max(0.0)
                                    * spec.smt_burst_collision;
                            }
                        }
                    }
                }
            }

            // Capacities for this segment: one memcpy of the nominal
            // table, then DVFS/SMT scaling of occupied cores only. An
            // idle core's pools carry no demand this segment, so
            // leaving them nominal cannot move the solve.
            capacities[..soa.base_caps.len()].copy_from_slice(&soa.base_caps);
            for (c, &occ) in scratch.core_occupancy.iter().enumerate() {
                if occ == 0 {
                    continue;
                }
                let scale = scratch.dvfs.socket_scale[soa.core_home[c]];
                let smt = if occ >= 2 { spec.smt_frontend_factor } else { 1.0 };
                let issue = table.core_issue(CoreId(c));
                capacities[issue.0] = table.get(issue).capacity * scale * smt;
                let l1 = table.l1(CoreId(c));
                capacities[l1.0] = table.get(l1).capacity * scale;
                let l2 = table.l2(CoreId(c));
                capacities[l2.0] = table.get(l2).capacity * scale;
            }
            for g in 0..n_groups {
                capacities[lock_base + g] = 1.0;
            }

            // Build demand bundles (burst- and spill-adjusted) into
            // reused slots: the sparse buffers from previous segments
            // are cleared and refilled, never reallocated.
            demands.truncate(runnable.len());
            scratch.instr_demands.clear();
            for (k, &i) in runnable.iter().enumerate() {
                let m = multipliers[k];
                let spill_frac = scratch.spill_frac_socket[soa.socket[i]];
                let extra_dram = soa.d_l3[i] * spill_frac;
                if k == demands.len() {
                    // lint: allow(H2): first-touch slot growth; every later segment reuses the slot's buffer
                    demands.push(EntityDemand { demands: Vec::with_capacity(10), max_rate: 1.0 });
                }
                let slot = &mut demands[k];
                slot.max_rate = 1.0;
                let sparse = &mut slot.demands;
                sparse.clear();
                push_demand(sparse, soa.res_issue[i], soa.d_instr[i] * m);
                push_demand(sparse, soa.res_l1[i], soa.d_l1[i] * m);
                push_demand(sparse, soa.res_l2[i], soa.d_l2[i] * m);
                if soa.d_l3[i] > 0.0 {
                    push_demand(sparse, soa.res_l3_link[i], soa.d_l3[i] * m);
                    push_demand(sparse, soa.res_l3_agg[i], soa.d_l3[i] * m);
                }
                let dram_total = (soa.d_dram[i] + extra_dram) * m;
                if dram_total > 0.0 {
                    for node in 0..spec.sockets {
                        let frac = soa.dram_split[i * spec.sockets + node];
                        if frac <= 0.0 {
                            continue;
                        }
                        push_demand(sparse, soa.res_dram[node], dram_total * frac);
                        if node != soa.socket[i] {
                            if let Some(link) = soa.res_link[soa.socket[i] * spec.sockets + node]
                            {
                                push_demand(sparse, link, dram_total * frac);
                            }
                        }
                    }
                }
                if soa.is_worker[i] && soa.seq_fraction[i] > 0.0 {
                    sparse.push((lock_base + soa.group[i], soa.seq_fraction[i]));
                }
                scratch.instr_demands.push(soa.d_instr[i] * m);
            }

            // Communication constants per runnable thread, hoisted out
            // of the relaxation rounds: the `comm_factor · latency`
            // products are fixed for the segment (two per thread, for
            // same- and cross-socket peers — the same two multiplies
            // the per-pair form performs, in the same order), and the
            // same-group worker lists bound each thread's peer scan to
            // its actual peers in ascending runnable order.
            scratch.cf_lat_intra.clear();
            scratch.cf_lat_cross.clear();
            for &i in &runnable {
                let cf = soa.comm_factor[i];
                scratch
                    .cf_lat_intra
                    .push(cf * (soa.intra_socket_comm[i] * spec.interconnect_latency));
                scratch.cf_lat_cross.push(cf * (1.0 * spec.interconnect_latency));
            }
            scratch.group_members.resize_with(n_groups, Vec::new);
            for list in &mut scratch.group_members {
                list.clear();
            }
            for (k, &i) in runnable.iter().enumerate() {
                if soa.is_worker[i] {
                    scratch.group_members[soa.group[i]].push(k);
                }
            }

            // Relaxation rounds: lock queueing + communication latency
            // feed back into intrinsic rates. Each round's solve result
            // becomes the next round's warm start.
            scratch.round_rates.clear();
            scratch.round_rates.extend(runnable.iter().map(|&i| prev_rates[i]));
            scratch.last_loads.clear();
            for _ in 0..config.relaxation_rounds {
                scratch.rho.clear();
                scratch.rho.resize(n_groups, 0.0);
                for (k, &i) in runnable.iter().enumerate() {
                    if soa.is_worker[i] && soa.seq_fraction[i] > 0.0 {
                        scratch.rho[soa.group[i]] +=
                            scratch.round_rates[k] * soa.seq_fraction[i];
                    }
                }
                scratch.queue_delay.clear();
                scratch.queue_delay.extend(scratch.rho.iter().map(|&r| {
                    let r = r.min(config.max_lock_rho);
                    r / (1.0 - r)
                }));

                // Peer weights cached per (socket, peer): the weight
                // divides the peer's round rate by the *observer's*
                // socket scale, of which there are only `sockets`
                // distinct values — so the divisions drop from one
                // per pair to one per (socket, peer). Same
                // expression, same bits.
                scratch.peer_weight.clear();
                scratch.peer_weight.resize(spec.sockets * nk, 0.0);
                for s in 0..spec.sockets {
                    let scale = scratch.dvfs.socket_scale[s];
                    let row = &mut scratch.peer_weight[s * nk..(s + 1) * nk];
                    for (k2, slot) in row.iter_mut().enumerate() {
                        *slot = (scratch.round_rates[k2] / scale.max(1e-9)).min(1.0);
                    }
                }

                for (k, &i) in runnable.iter().enumerate() {
                    let scale = scratch.dvfs.socket_scale[soa.socket[i]];
                    let max_rate = if soa.is_worker[i] {
                        // Communication latency: per unit, pay for each
                        // active *same-group* peer weighted by its
                        // progress.
                        let mut comm = 0.0;
                        if soa.comm_factor[i] > 0.0 {
                            let base = soa.socket[i] * nk;
                            for &k2 in &scratch.group_members[soa.group[i]] {
                                if k2 == k {
                                    continue;
                                }
                                let j = runnable[k2];
                                let cf_lat = if soa.socket[j] == soa.socket[i] {
                                    scratch.cf_lat_intra[k]
                                } else {
                                    scratch.cf_lat_cross[k]
                                };
                                comm += cf_lat * scratch.peer_weight[base + k2];
                            }
                        }
                        let queue = soa.seq_fraction[i] * scratch.queue_delay[soa.group[i]];
                        scale / (1.0 + queue + comm + scratch.interference[k])
                    } else {
                        scale / (1.0 + scratch.interference[k])
                    };
                    // A single thread cannot sustain more than the ILP
                    // share of its core's issue width (SMT pairs jointly
                    // can, via the shared issue resource).
                    let max_rate = if scratch.instr_demands[k] > 0.0 {
                        let ilp_cap = spec.single_thread_ilp * spec.core_ipc_rate * scale
                            / scratch.instr_demands[k];
                        max_rate.min(ilp_cap)
                    } else {
                        max_rate
                    };
                    demands[k].max_rate = max_rate;
                }
                stats.solves += 1;
                let alloc = equilibrium::solve(&demands, &capacities);
                scratch.round_rates = alloc.rates;
                scratch.last_loads = alloc.loads;
            }

            let mut group_rate = vec![0.0_f64; n_groups];
            for (k, &i) in runnable.iter().enumerate() {
                if soa.is_worker[i] {
                    group_rate[soa.group[i]] += scratch.round_rates[k];
                }
            }

            let hottest = if trace.is_some() {
                // Hottest *hardware* resource this segment (locks excluded).
                scratch
                    .last_loads
                    .iter()
                    .take(table.len())
                    .enumerate()
                    .map(|(r, &load)| (r, load / capacities[r].max(1e-12)))
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .filter(|&(_, util)| util > 0.0)
                    .map(|(r, util)| {
                        (table.get(pandia_topology::ResourceId(r)).kind, util.min(1.0))
                    })
            } else {
                None
            };

            CachedSegment {
                // lint: allow(H2): the cache entry must own its key
                key: seg_key.clone(),
                // lint: allow(H2): the cache entry owns its rates; the scratch buffer is reused next segment
                rates: scratch.round_rates.clone(),
                group_rate,
                hottest,
                // lint: allow(H2): the cache entry owns its outputs; the scratch buffer is reused next segment
                spill_frac_socket: scratch.spill_frac_socket.clone(),
            }
        };

        // Replay the memoized middle on an exact key match; otherwise
        // compute it in full, moving the result into the cache (no
        // clones) when there is room. A fingerprint collision keeps the
        // incumbent entry and simply computes this segment fresh.
        let mut fresh: Option<CachedSegment> = None;
        let mut replayed = false;
        let seg: &CachedSegment = if coalescing_allowed {
            let at_cap = seg_cache.len() >= SEG_CACHE_CAP;
            match seg_cache.entry(fp) {
                Entry::Occupied(slot) if slot.get().key == seg_key => {
                    replayed = true;
                    slot.into_mut()
                }
                Entry::Occupied(_) => fresh.insert(full_middle()),
                Entry::Vacant(slot) if !at_cap => slot.insert(full_middle()),
                Entry::Vacant(_) => fresh.insert(full_middle()),
            }
        } else {
            fresh.insert(full_middle())
        };
        if replayed {
            stats.segments_coalesced += 1;
        }

        // Segment length: cover a fraction of the remaining runtime of the
        // group closest to finishing, so completion times stay sharp.
        let mut min_ttf = f64::INFINITY;
        let mut total_rate = 0.0;
        for (rem, rate) in group_remaining.iter().zip(&seg.group_rate) {
            if *rem > 0.0 && *rate > 1e-12 {
                min_ttf = min_ttf.min(rem / rate);
            }
            total_rate += rate;
        }
        if total_rate <= 1e-12 || !min_ttf.is_finite() {
            // Deadlock guard: nothing is progressing (should not happen).
            break;
        }
        // Segments are equal-length (a fixed quantum derived from the
        // first segment's time-to-finish estimate) until the geometric
        // tail takes over; once a group's residue is negligible, close it
        // out exactly.
        if segment == 0 {
            quantum = min_ttf / config.min_segments.max(1) as f64;
        }
        let closing = (0..n_groups).any(|g| {
            group_remaining[g] > 0.0
                && group_remaining[g] <= groups[g].total_work * 1e-3
                && seg.group_rate[g] > 1e-12
        });
        let dt = if closing {
            min_ttf
        } else {
            (min_ttf * config.segment_fraction).min(quantum)
        };

        if let Some(trace) = trace.as_deref_mut() {
            trace.segments.push(TraceSegment {
                start: elapsed,
                dt,
                // lint: allow(H2): opt-in trace path only; no allocation when tracing is off
                group_rates: seg.group_rate.clone(),
                hottest: seg.hottest,
                runnable: runnable.len(),
            });
        }

        // Progress work and accumulate counters.
        pool_draw.fill(0.0);
        for (k, &i) in runnable.iter().enumerate() {
            let e = &mut entities[i];
            if !e.is_worker() {
                continue;
            }
            let progress = seg.rates[k] * dt;
            let from_private = progress.min(e.private_work);
            e.private_work -= from_private;
            let from_pool =
                if groups[e.group].pool_capable { progress - from_private } else { 0.0 };
            pool_draw[e.group] += from_pool;
            e.busy_time += dt;

            // Counters charge each completed work unit its *average*
            // demand: bursts redistribute traffic in time, but the bytes a
            // unit of work needs are fixed, which is what a hardware
            // counter integrates.
            let moved = from_private + from_pool;
            e.work_done += moved;
            let d = e.behavior.demand;
            let counters = &mut groups[e.group].counters;
            counters.instructions += d.instr * moved;
            counters.l1_bytes += d.l1 * moved;
            counters.l2_bytes += d.l2 * moved;
            counters.l3_bytes += d.l3 * moved;
            let spill_frac = seg.spill_frac_socket[e.socket.0];
            let dram_total = (d.dram + d.l3 * spill_frac) * moved;
            for (node, &frac) in e.dram_split.iter().enumerate() {
                counters.dram_bytes[node] += dram_total * frac;
                if node != e.socket.0 {
                    counters.interconnect_bytes += dram_total * frac;
                }
            }
        }
        // Reconcile the shared pools: over-draw in the fluid model simply
        // means a pool drained partway through the segment.
        for (g, gs) in groups.iter_mut().enumerate() {
            gs.pool = (gs.pool - pool_draw[g]).max(0.0);
            if gs.pool <= 1e-12 {
                gs.pool = 0.0;
            }
        }
        // Mark finished workers and completed groups.
        for &i in &runnable {
            let e = &mut entities[i];
            if !e.is_worker() {
                continue;
            }
            let gs = &groups[e.group];
            if e.private_work <= 1e-12 && (gs.pool <= 1e-12 || !gs.pool_capable) {
                e.private_work = 0.0;
                e.finished = true;
            }
        }
        elapsed += dt;
        for (g, gs) in groups.iter_mut().enumerate() {
            if gs.finish_time.is_none() {
                let done = gs.workers == 0
                    || (gs.pool <= 0.0
                        && entities
                            .iter()
                            .filter(|e| e.is_worker() && e.group == g)
                            .all(|e| e.finished));
                if done {
                    gs.finish_time = Some(elapsed);
                }
            }
        }

        // Persist rates for the next segment's relaxation bootstrap.
        for (k, &i) in runnable.iter().enumerate() {
            prev_rates[i] = seg.rates[k];
        }
        segment += 1;
    }

    stats.segments = segment as u64;

    // Aggregate telemetry once per run, outside the segment loop, so the
    // hot path carries no per-segment instrumentation.
    if pandia_obs::enabled() {
        pandia_obs::count("sim.segments", segment as u64);
        pandia_obs::count("sim.segments_coalesced", stats.segments_coalesced);
        pandia_obs::count("sim.solves", stats.solves);
        pandia_obs::observe("sim.segments_per_run", segment as f64);
        pandia_obs::observe("sim.entities_per_run", entities.len() as f64);
    }

    // Assemble per-group results with seeded measurement noise plus any
    // injected measurement corruption. With the default (empty) fault
    // plan every injected factor is exactly 1.0 and no channel is zeroed,
    // so the arithmetic below is bit-identical to the fault-free engine.
    let faults = &config.faults;
    let mut faults_injected = 0u64;
    let results: Vec<RunResult> = inputs
        .groups
        .iter()
        .enumerate()
        .map(|(g, group)| {
            let gs = &groups[g];
            let placement_hash = group
                .placement
                .contexts()
                .iter()
                .fold(g as u64, |acc, c| rng::splitmix64(acc ^ (c.0 as u64 + 0x51)));
            let group_hash =
                rng::splitmix64(rng::hash_str(&group.behavior.name) ^ placement_hash);
            let noise_h = rng::mix(
                inputs.seed,
                rng::hash_str(&group.behavior.name),
                placement_hash,
                0xE,
            );
            let regime = faults.noise_regime_factor(inputs.seed, group_hash);
            let burst = faults.interference_multiplier(inputs.seed, group_hash);
            if regime > 1.0 {
                faults_injected += 1;
            }
            if burst > 1.0 {
                faults_injected += 1;
            }
            let noise = 1.0 + config.noise_sigma * regime * rng::gaussian_f64(noise_h);
            let raw = gs.finish_time.unwrap_or(elapsed);
            let group_elapsed = (raw * noise * burst).max(f64::MIN_POSITIVE);
            let per_thread_busy = entities
                .iter()
                .filter(|e| e.is_worker() && e.group == g)
                .map(|e| {
                    if group_elapsed > 0.0 {
                        (e.busy_time / group_elapsed).min(1.0)
                    } else {
                        0.0
                    }
                })
                .collect();
            let mut counters = gs.counters.clone();
            faults_injected +=
                apply_counter_dropout(faults, inputs.seed, group_hash, &mut counters);
            RunResult { elapsed: group_elapsed, counters, per_thread_busy }
        })
        .collect();
    if faults_injected > 0 && pandia_obs::enabled() {
        pandia_obs::count("sim.faults_injected", faults_injected);
    }
    Ok((results, stats))
}

/// Zeroes counter channels the fault plan drops for this run, returning
/// how many channels were lost. Channel indices are part of the
/// deterministic schedule (see [`crate::fault::DROPOUT_CHANNELS`]).
fn apply_counter_dropout(
    plan: &FaultPlan,
    seed: u64,
    group_hash: u64,
    counters: &mut Counters,
) -> u64 {
    if plan.dropout_rate <= 0.0 {
        return 0;
    }
    let mut dropped = 0;
    if plan.drops_channel(seed, group_hash, 0) {
        counters.instructions = 0.0;
        dropped += 1;
    }
    if plan.drops_channel(seed, group_hash, 1) {
        counters.l1_bytes = 0.0;
        dropped += 1;
    }
    if plan.drops_channel(seed, group_hash, 2) {
        counters.l2_bytes = 0.0;
        dropped += 1;
    }
    if plan.drops_channel(seed, group_hash, 3) {
        counters.l3_bytes = 0.0;
        dropped += 1;
    }
    if plan.drops_channel(seed, group_hash, 4) {
        for b in &mut counters.dram_bytes {
            *b = 0.0;
        }
        dropped += 1;
    }
    if plan.drops_channel(seed, group_hash, 5) {
        counters.interconnect_bytes = 0.0;
        dropped += 1;
    }
    dropped
}

// The dropout gates above must cover exactly the advertised channels.
const _: () = assert!(crate::fault::DROPOUT_CHANNELS == 6);

/// Convenience: the context a stress kernel would use to saturate a
/// resource "near" a given core (same core, next SMT slot when available).
pub fn sibling_ctx(spec: &MachineSpec, ctx: CtxId) -> Option<CtxId> {
    if spec.threads_per_core < 2 {
        return None;
    }
    let slot = ctx.0 % spec.threads_per_core;
    if slot + 1 < spec.threads_per_core {
        Some(CtxId(ctx.0 + 1))
    } else {
        Some(CtxId(ctx.0 - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandia_topology::{Placement, StressKind};

    /// The segment loop hoists the burst draw's per-entity offset and the
    /// profile's duty/high/low multipliers out of the loop; this pins the
    /// hoisted evaluation to the original per-segment computation bit for
    /// bit (including the low-phase division in `low_multiplier`).
    #[test]
    fn hoisted_burst_constants_match_per_segment_draws() {
        let profile = crate::behavior::BurstProfile::bursty(0.3, 2.5);
        for seed in [1u64, 42, 977] {
            for entity in 0..5usize {
                let off = burst_offset(seed, entity);
                for segment in 0..64usize {
                    let draw = burst_draw(seed, entity, segment);
                    let seg_phase = segment as f64 * PHI_CONJUGATE;
                    let hoisted = (off + seg_phase).fract();
                    assert_eq!(draw.to_bits(), hoisted.to_bits());
                    let want = profile.multiplier(draw);
                    let got = if profile.duty >= 1.0 {
                        1.0
                    } else if hoisted < profile.duty {
                        profile.effective_amplitude()
                    } else {
                        profile.low_multiplier()
                    };
                    assert_eq!(want.to_bits(), got.to_bits());
                }
            }
        }
    }

    fn run_simple(
        spec: &MachineSpec,
        behavior: &Behavior,
        placement: &Placement,
        seed: u64,
    ) -> RunResult {
        let inputs = RunInputs {
            spec,
            behavior,
            placement,
            stressors: &[],
            fill_background: true,
            turbo: true,
            data_placement: None,
            seed,
        };
        run(&inputs, &EngineConfig { noise_sigma: 0.0, ..EngineConfig::default() }).expect("fault-free run")
    }

    #[test]
    fn solo_compute_run_takes_total_work_over_scale() {
        let spec = MachineSpec::x5_2();
        // Modest demand: far from any capacity.
        let b = Behavior::compute("t", 50.0, 1.0);
        let p = Placement::spread(&spec, 1).unwrap();
        let r = run_simple(&spec, &b, &p, 1);
        // With fill_background the scale is all-core/nominal = 2.8/2.3.
        let expect = 50.0 / (2.8 / 2.3);
        assert!((r.elapsed - expect).abs() / expect < 0.01, "elapsed {}", r.elapsed);
        assert!((r.per_thread_busy[0] - 1.0).abs() < 1e-6);
        // Counters: instructions = work * rate demand.
        assert!((r.counters.instructions - 50.0).abs() < 0.5);
    }

    #[test]
    fn dynamic_scaling_is_near_linear_without_contention() {
        let spec = MachineSpec::x5_2();
        let b = Behavior::compute("lin", 100.0, 1.0);
        let t1 = run_simple(&spec, &b, &Placement::spread(&spec, 1).unwrap(), 2).elapsed;
        let t8 = run_simple(&spec, &b, &Placement::spread(&spec, 8).unwrap(), 2).elapsed;
        let speedup = t1 / t8;
        assert!((speedup - 8.0).abs() < 0.4, "speedup {speedup}");
    }

    #[test]
    fn critical_sections_limit_scaling() {
        let spec = MachineSpec::x5_2();
        let mut b = Behavior::compute("amdahl", 100.0, 1.0);
        b.seq_fraction = 0.10;
        let t1 = run_simple(&spec, &b, &Placement::spread(&spec, 1).unwrap(), 3).elapsed;
        let t16 = run_simple(&spec, &b, &Placement::spread(&spec, 16).unwrap(), 3).elapsed;
        let speedup = t1 / t16;
        // Hard Amdahl bound is 10; queueing keeps it clearly below 16 and
        // clearly above a serial run.
        assert!(speedup < 10.0, "speedup {speedup}");
        assert!(speedup > 3.0, "speedup {speedup}");
    }

    #[test]
    fn dram_saturation_caps_throughput() {
        let spec = MachineSpec::x5_2();
        let mut b = Behavior::compute("membound", 50.0, 0.5);
        b.demand.dram = 20.0;
        b.data_placement = DataPlacement::ThreadLocal;
        let t1 = run_simple(&spec, &b, &Placement::spread(&spec, 1).unwrap(), 4).elapsed;
        // 8 threads on one socket demand 160 GB/s of a 62 GB/s node.
        let canon =
            pandia_topology::CanonicalPlacement::new(vec![vec![1; 8]]);
        let p8 = canon.instantiate(&spec).unwrap();
        let t8 = run_simple(&spec, &b, &p8, 4).elapsed;
        let speedup = t1 / t8;
        assert!(speedup < 3.5, "bandwidth-bound speedup should cap: {speedup}");
        assert!(speedup > 2.0, "but should still beat serial: {speedup}");
    }

    use crate::behavior::Scheduling;

    #[test]
    fn static_scheduling_waits_for_stragglers() {
        let spec = MachineSpec::x5_2();
        // Two threads, one sharing a core with a CPU stressor.
        let base = Behavior::compute("straggler", 60.0, 6.0);
        let p = Placement::spread(&spec, 2).unwrap();
        let stress =
            [StressPin { kind: StressKind::Cpu, ctx: sibling_ctx(&spec, p.contexts()[0]).unwrap() }];
        let run_with = |sched| {
            let behavior = Behavior { scheduling: sched, ..base.clone() };
            let inputs = RunInputs {
                spec: &spec,
                behavior: &behavior,
                placement: &p,
                stressors: &stress,
                fill_background: true,
                turbo: true,
                data_placement: None,
                seed: 5,
            };
            run(&inputs, &EngineConfig { noise_sigma: 0.0, ..EngineConfig::default() }).expect("fault-free run")
        };
        let t_static = run_with(Scheduling::Static).elapsed;
        let t_dynamic = run_with(Scheduling::Dynamic).elapsed;
        assert!(
            t_static > t_dynamic * 1.1,
            "static {t_static} should trail dynamic {t_dynamic}"
        );
    }

    #[test]
    fn smt_sharing_is_slower_than_separate_cores() {
        let spec = MachineSpec::x5_2();
        // Instruction demand near the core limit.
        let b = Behavior::compute("cpu", 40.0, 8.0);
        let spread = Placement::spread(&spec, 2).unwrap();
        let packed = Placement::packed(&spec, 2).unwrap();
        let t_spread = run_simple(&spec, &b, &spread, 6).elapsed;
        let t_packed = run_simple(&spec, &b, &packed, 6).elapsed;
        assert!(
            t_packed > t_spread * 1.3,
            "SMT sharing {t_packed} vs separate cores {t_spread}"
        );
    }

    #[test]
    fn cross_socket_communication_costs_time() {
        let spec = MachineSpec::x5_2();
        let mut b = Behavior::compute("comm", 60.0, 1.0);
        b.comm_factor = 0.02;
        b.intra_socket_comm = 0.1;
        // 8 threads one socket vs 4+4 across sockets.
        let same = pandia_topology::CanonicalPlacement::new(vec![vec![1; 8]])
            .instantiate(&spec)
            .unwrap();
        let split = pandia_topology::CanonicalPlacement::new(vec![vec![1; 4], vec![1; 4]])
            .instantiate(&spec)
            .unwrap();
        let t_same = run_simple(&spec, &b, &same, 7).elapsed;
        let t_split = run_simple(&spec, &b, &split, 7).elapsed;
        assert!(t_split > t_same * 1.05, "split {t_split} vs same {t_same}");
    }

    #[test]
    fn equake_growth_hurts_large_thread_counts() {
        let spec = MachineSpec::x5_2();
        let mut b = Behavior::compute("equake", 60.0, 1.0);
        b.growth_per_thread = 0.03;
        let t1 = run_simple(&spec, &b, &Placement::spread(&spec, 1).unwrap(), 8).elapsed;
        let t36 = run_simple(&spec, &b, &Placement::spread(&spec, 36).unwrap(), 8).elapsed;
        let speedup = t1 / t36;
        // Work more than doubles at 36 threads; speedup well below 36.
        assert!(speedup < 36.0 / 2.0, "speedup {speedup}");
    }

    #[test]
    fn inactive_threads_do_no_work() {
        let spec = MachineSpec::x5_2();
        let mut b = Behavior::compute("npo1", 30.0, 1.0);
        b.active_threads = Some(1);
        let p = Placement::spread(&spec, 4).unwrap();
        let r = run_simple(&spec, &b, &p, 9);
        assert!((r.per_thread_busy[0] - 1.0).abs() < 1e-6);
        for t in 1..4 {
            assert_eq!(r.per_thread_busy[t], 0.0);
        }
        // Time matches a solo run.
        let solo = run_simple(&spec, &b, &Placement::spread(&spec, 1).unwrap(), 9);
        assert!((r.elapsed - solo.elapsed).abs() / solo.elapsed < 0.02);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let spec = MachineSpec::x3_2();
        // High enough instruction demand that overlapping burst phases on
        // shared cores actually contend (and thus depend on the seed).
        let mut b = Behavior::compute("det", 40.0, 5.0);
        b.burst = crate::behavior::BurstProfile::bursty(0.4, 2.0);
        let p = Placement::packed(&spec, 6).unwrap();
        let a = run_simple(&spec, &b, &p, 42);
        let b2 = run_simple(&spec, &b, &p, 42);
        assert_eq!(a.elapsed, b2.elapsed);
        assert_eq!(a.counters, b2.counters);
        let c = run_simple(&spec, &b, &p, 43);
        assert_ne!(a.elapsed, c.elapsed);
    }

    #[test]
    fn counters_account_for_all_work() {
        let spec = MachineSpec::x3_2();
        let mut b = Behavior::compute("cnt", 25.0, 1.5);
        b.demand.l2 = 3.0;
        b.demand.dram = 2.0;
        let p = Placement::spread(&spec, 4).unwrap();
        let r = run_simple(&spec, &b, &p, 10);
        assert!((r.counters.instructions - 25.0 * 1.5).abs() < 0.4);
        assert!((r.counters.l2_bytes - 25.0 * 3.0).abs() < 0.8);
        let dram_total: f64 = r.counters.dram_bytes.iter().sum();
        assert!((dram_total - 25.0 * 2.0).abs() < 0.6);
    }

    #[test]
    fn interleaved_data_crosses_interconnect() {
        let spec = MachineSpec::x3_2();
        let mut b = Behavior::compute("remote", 20.0, 0.5);
        b.demand.dram = 4.0;
        b.data_placement = DataPlacement::Interleave;
        let p = Placement::spread(&spec, 1).unwrap();
        let r = run_simple(&spec, &b, &p, 11);
        // Half the traffic goes to the remote socket and crosses the link.
        let dram_total: f64 = r.counters.dram_bytes.iter().sum();
        assert!((r.counters.interconnect_bytes / dram_total - 0.5).abs() < 0.05);
    }

    #[test]
    fn sibling_ctx_pairs_within_core() {
        let spec = MachineSpec::x5_2();
        assert_eq!(sibling_ctx(&spec, CtxId(0)), Some(CtxId(1)));
        assert_eq!(sibling_ctx(&spec, CtxId(1)), Some(CtxId(0)));
        assert_eq!(sibling_ctx(&spec, CtxId(7)), Some(CtxId(6)));
        let toy = MachineSpec::toy();
        assert_eq!(sibling_ctx(&toy, CtxId(0)), None);
    }

    #[test]
    fn lock_saturation_bounds_speedup_at_inverse_seq() {
        let spec = MachineSpec::x5_2();
        let mut b = Behavior::compute("locky", 80.0, 0.5);
        b.seq_fraction = 0.25; // hard bound: speedup <= 4
        let t1 = run_simple(&spec, &b, &Placement::spread(&spec, 1).unwrap(), 21).elapsed;
        let t36 = run_simple(&spec, &b, &Placement::spread(&spec, 36).unwrap(), 21).elapsed;
        let speedup = t1 / t36;
        assert!(speedup <= 4.0 + 0.1, "lock-bound speedup {speedup}");
        assert!(speedup > 2.0, "still parallelizes some: {speedup}");
    }

    #[test]
    fn node_bound_data_loads_one_memory_node() {
        let spec = MachineSpec::x3_2();
        let mut b = Behavior::compute("node0", 20.0, 0.2);
        b.demand.dram = 5.0;
        b.data_placement = DataPlacement::Node(1);
        let p = Placement::spread(&spec, 2).unwrap();
        let r = run_simple(&spec, &b, &p, 22);
        assert!(r.counters.dram_bytes[0] < 1e-9);
        assert!(r.counters.dram_bytes[1] > 0.0);
        // Threads sit on socket 0, data on node 1: everything crosses.
        assert!((r.counters.interconnect_bytes - r.counters.dram_bytes[1]).abs() < 1e-6);
    }

    #[test]
    fn first_touch_spreads_data_with_the_threads() {
        let spec = MachineSpec::x3_2();
        let mut b = Behavior::compute("ft", 20.0, 0.2);
        b.demand.dram = 5.0;
        b.data_placement = DataPlacement::FirstTouch;
        // 3 threads on socket 0, 1 on socket 1 => 75/25 data split.
        let canon = pandia_topology::CanonicalPlacement::new(vec![vec![1, 1, 1], vec![1]]);
        let p = canon.instantiate(&spec).unwrap();
        let r = run_simple(&spec, &b, &p, 23);
        let total: f64 = r.counters.dram_bytes.iter().sum();
        let share0 = r.counters.dram_bytes[0] / total;
        assert!((share0 - 0.75).abs() < 0.02, "share0 = {share0}");
    }

    #[test]
    fn non_adaptive_thrash_amplifies_spilled_traffic() {
        // Same workload/placement on an adaptive vs a cliff machine: the
        // cliff machine moves more DRAM bytes once several threads share
        // the socket.
        let mut b = Behavior::compute("spilly", 30.0, 0.5);
        b.demand.l3 = 5.0;
        b.demand.dram = 1.0;
        b.working_set_mib = 40.0;
        let mut adaptive = MachineSpec::x2_4();
        adaptive.adaptive_llc = true;
        let cliff = MachineSpec::x2_4();
        let p = Placement::spread(&cliff, 8).unwrap();
        let r_adaptive = run_simple(&adaptive, &b, &p, 24);
        let r_cliff = run_simple(&cliff, &b, &p, 24);
        let dram_a: f64 = r_adaptive.counters.dram_bytes.iter().sum();
        let dram_c: f64 = r_cliff.counters.dram_bytes.iter().sum();
        assert!(
            dram_c > 1.3 * dram_a,
            "cliff machine should thrash: adaptive {dram_a} vs cliff {dram_c}"
        );
    }

    #[test]
    fn burst_amplitude_saturating_capacity_slows_the_run() {
        // A workload whose high phase exceeds DRAM capacity runs slower
        // than its smooth-demand twin, even at two threads.
        let spec = MachineSpec::x3_2();
        let mut smooth = Behavior::compute("smooth", 30.0, 0.2);
        smooth.demand.dram = 30.0;
        smooth.data_placement = DataPlacement::ThreadLocal;
        let mut bursty = smooth.clone();
        bursty.name = "burstyx".into();
        bursty.burst = crate::behavior::BurstProfile::bursty(0.4, 2.4); // high phase: 72 GB/s > 48
        let p = Placement::spread(&spec, 1).unwrap();
        let t_smooth = run_simple(&spec, &smooth, &p, 25).elapsed;
        let t_bursty = run_simple(&spec, &bursty, &p, 25).elapsed;
        assert!(
            t_bursty > t_smooth * 1.05,
            "bursty {t_bursty} should trail smooth {t_smooth}"
        );
    }

    #[test]
    fn stressors_slow_the_workload_but_not_its_counters() {
        let spec = MachineSpec::x3_2();
        let b = Behavior::compute("meek", 20.0, 6.0);
        let p = Placement::spread(&spec, 1).unwrap();
        let alone = run_simple(&spec, &b, &p, 26);
        let sibling = sibling_ctx(&spec, p.contexts()[0]).unwrap();
        let inputs = RunInputs {
            spec: &spec,
            behavior: &b,
            placement: &p,
            stressors: &[StressPin { kind: StressKind::Cpu, ctx: sibling }],
            fill_background: true,
            turbo: true,
            data_placement: None,
            seed: 26,
        };
        let stressed = run(&inputs, &EngineConfig { noise_sigma: 0.0, ..EngineConfig::default() }).expect("fault-free run");
        assert!(stressed.elapsed > alone.elapsed * 1.2, "SMT stressor slows the run");
        // Workload counters exclude the stressor's traffic.
        assert!(
            (stressed.counters.instructions - alone.counters.instructions).abs()
                / alone.counters.instructions
                < 0.02
        );
    }

    #[test]
    fn turbo_makes_small_counts_faster_without_background_fill() {
        let spec = MachineSpec::x5_2();
        let b = Behavior::compute("solo", 20.0, 6.0);
        let p = Placement::spread(&spec, 1).unwrap();
        let mk = |fill: bool, turbo: bool| {
            let inputs = RunInputs {
                spec: &spec,
                behavior: &b,
                placement: &p,
                stressors: &[],
                fill_background: fill,
                turbo,
                data_placement: None,
                seed: 27,
            };
            run(&inputs, &EngineConfig { noise_sigma: 0.0, ..EngineConfig::default() }).expect("fault-free run").elapsed
        };
        let idle_machine = mk(false, true);
        let filled = mk(true, true);
        let no_boost = mk(false, false);
        assert!(idle_machine < filled, "single-core boost beats all-core point");
        assert!(filled < no_boost, "all-core boost beats nominal");
    }

    #[test]
    fn partial_scheduling_interpolates_between_static_and_dynamic() {
        let spec = MachineSpec::x5_2();
        let base = Behavior::compute("partial", 60.0, 6.0);
        let p = Placement::spread(&spec, 2).unwrap();
        let stress =
            [StressPin { kind: StressKind::Cpu, ctx: sibling_ctx(&spec, p.contexts()[0]).unwrap() }];
        let time_for = |sched| {
            let behavior = Behavior { scheduling: sched, ..base.clone() };
            let inputs = RunInputs {
                spec: &spec,
                behavior: &behavior,
                placement: &p,
                stressors: &stress,
                fill_background: true,
                turbo: true,
                data_placement: None,
                seed: 28,
            };
            run(&inputs, &EngineConfig { noise_sigma: 0.0, ..EngineConfig::default() }).expect("fault-free run").elapsed
        };
        let t_static = time_for(Scheduling::Static);
        // Mostly-static: the slowed thread's private share dominates, so
        // the run lands between the extremes.
        let t_mostly_static = time_for(Scheduling::Partial { dynamic_fraction: 0.1 });
        let t_dynamic = time_for(Scheduling::Dynamic);
        assert!(
            t_dynamic < t_mostly_static && t_mostly_static < t_static,
            "{t_dynamic} < {t_mostly_static} < {t_static}"
        );
    }

    #[test]
    fn zero_rate_fault_plan_is_byte_identical() {
        // A plan whose rates are all zero must not perturb a run even when
        // its scale knobs are extreme: the draws are gated on the rates.
        let spec = MachineSpec::x3_2();
        let mut b = Behavior::compute("ident", 30.0, 4.0);
        b.burst = crate::behavior::BurstProfile::bursty(0.4, 2.0);
        let p = Placement::packed(&spec, 4).unwrap();
        let inputs = RunInputs {
            spec: &spec,
            behavior: &b,
            placement: &p,
            stressors: &[],
            fill_background: true,
            turbo: true,
            data_placement: None,
            seed: 99,
        };
        let clean = run(&inputs, &EngineConfig::default()).expect("fault-free run");
        let zero_plan = FaultPlan {
            transient_rate: 0.0,
            dropout_rate: 0.0,
            interference_rate: 0.0,
            interference_scale: 1e9,
            high_noise_rate: 0.0,
            high_noise_factor: 1e9,
        };
        let gated = run(
            &inputs,
            &EngineConfig { faults: zero_plan, ..EngineConfig::default() },
        )
        .expect("zero-rate plan injects nothing");
        assert_eq!(clean, gated);
    }

    #[test]
    fn fault_schedules_are_deterministic_and_seed_dependent() {
        let spec = MachineSpec::x3_2();
        let b = Behavior::compute("chaos", 10.0, 1.0);
        let p = Placement::spread(&spec, 2).unwrap();
        let config = EngineConfig {
            faults: FaultPlan::with_intensity(0.8),
            ..EngineConfig::default()
        };
        let mut transients = 0;
        let mut dropouts = 0;
        let mut bursts = 0;
        for seed in 0..60u64 {
            let inputs = RunInputs {
                spec: &spec,
                behavior: &b,
                placement: &p,
                stressors: &[],
                fill_background: true,
                turbo: true,
                data_placement: None,
                seed,
            };
            let first = run(&inputs, &config);
            let second = run(&inputs, &config);
            assert_eq!(first, second, "identical seeds must replay the schedule");
            match first {
                Err(SimError::TransientFault { seed: s }) => {
                    assert_eq!(s, seed);
                    transients += 1;
                }
                Err(other) => panic!("unexpected error: {other}"),
                Ok(r) => {
                    if r.counters.instructions == 0.0 {
                        dropouts += 1;
                    }
                    let clean = run(&inputs, &EngineConfig::default())
                        .expect("fault-free run");
                    if r.elapsed > clean.elapsed * 1.05 {
                        bursts += 1;
                    }
                }
            }
        }
        assert!(transients > 0, "no transient faults in 60 seeds");
        assert!(dropouts > 0, "no counter dropouts in 60 seeds");
        assert!(bursts > 0, "no interference bursts in 60 seeds");
    }

    #[test]
    fn incremental_path_is_bitwise_identical_to_naive() {
        // Smooth and bursty, lock-bound and comm-bound, with stressors:
        // the fast path must reproduce the naive loop bit for bit.
        let spec = MachineSpec::x3_2();
        let mut locky = Behavior::compute("locky", 50.0, 1.0);
        locky.seq_fraction = 0.1;
        let mut commy = Behavior::compute("commy", 40.0, 1.0);
        commy.comm_factor = 0.02;
        let mut bursty = Behavior::compute("bursty", 30.0, 4.0);
        bursty.burst = crate::behavior::BurstProfile::bursty(0.4, 2.0);
        for (b, seed) in [(&locky, 31u64), (&commy, 32), (&bursty, 33)] {
            let p = Placement::packed(&spec, 4).unwrap();
            let stress = [StressPin {
                kind: StressKind::Cpu,
                ctx: sibling_ctx(&spec, p.contexts()[3]).unwrap(),
            }];
            let inputs = RunInputs {
                spec: &spec,
                behavior: b,
                placement: &p,
                stressors: &stress,
                fill_background: true,
                turbo: true,
                data_placement: None,
                seed,
            };
            let fast = run(&inputs, &EngineConfig::default()).expect("fault-free run");
            let naive = run(
                &inputs,
                &EngineConfig { incremental: false, ..EngineConfig::default() },
            )
            .expect("fault-free run");
            assert_eq!(fast, naive, "{}: fast path diverged from naive", b.name);
        }
    }

    #[test]
    fn steady_runs_coalesce_segments() {
        let spec = MachineSpec::x3_2();
        let b = Behavior::compute("steady", 60.0, 1.0);
        let p = Placement::spread(&spec, 4).unwrap();
        let group = GroupInput { behavior: &b, placement: &p, data_placement: None };
        let inputs = MultiRunInputs {
            spec: &spec,
            groups: std::slice::from_ref(&group),
            stressors: &[],
            fill_background: true,
            turbo: true,
            seed: 44,
        };
        let (_, stats) = run_multi_stats(&inputs, &EngineConfig::default()).expect("run");
        assert!(stats.segments > 100, "expected a long run, got {stats:?}");
        assert!(
            stats.segments_coalesced > stats.segments / 2,
            "smooth run should mostly coalesce: {stats:?}"
        );

        // The escape hatch really disables the fast path.
        let (_, naive) = run_multi_stats(
            &inputs,
            &EngineConfig { incremental: false, ..EngineConfig::default() },
        )
        .expect("run");
        assert_eq!(naive.segments_coalesced, 0);
        assert_eq!(naive.segments, stats.segments, "segment count must not change");
    }

    #[test]
    fn bursty_runs_coalesce_recurring_phase_patterns() {
        // Burst phases are redrawn every segment, so consecutive segments
        // of a bursty run rarely match — but the (runnable, multipliers,
        // warm start) triple *recurs* once the rate dynamics settle into
        // the finitely many phase patterns, and each recurrence replays
        // from the memo. The naive run must agree bit for bit and report
        // an untouched segment schedule.
        let spec = MachineSpec::x3_2();
        let mut b = Behavior::compute("bursty", 40.0, 4.0);
        b.burst = crate::behavior::BurstProfile::bursty(0.4, 2.0);
        let p = Placement::packed(&spec, 4).unwrap();
        let group = GroupInput { behavior: &b, placement: &p, data_placement: None };
        let inputs = MultiRunInputs {
            spec: &spec,
            groups: std::slice::from_ref(&group),
            stressors: &[],
            fill_background: true,
            turbo: true,
            seed: 45,
        };
        let (fast, stats) = run_multi_stats(&inputs, &EngineConfig::default()).expect("run");
        assert!(
            stats.segments_coalesced > 0,
            "recurring burst patterns should replay from the memo: {stats:?}"
        );
        assert!(
            stats.segments_coalesced < stats.segments,
            "a bursty run cannot replay every segment: {stats:?}"
        );

        let (naive, naive_stats) = run_multi_stats(
            &inputs,
            &EngineConfig { incremental: false, ..EngineConfig::default() },
        )
        .expect("run");
        assert_eq!(fast, naive, "memoized segments diverged from the naive loop");
        assert_eq!(naive_stats.segments, stats.segments, "segment count must not change");
        assert_eq!(naive_stats.segments_coalesced, 0);
    }

    #[test]
    fn armed_fault_plan_disables_coalescing() {
        let spec = MachineSpec::x3_2();
        let b = Behavior::compute("chaosrun", 60.0, 1.0);
        let p = Placement::spread(&spec, 4).unwrap();
        let group = GroupInput { behavior: &b, placement: &p, data_placement: None };
        let inputs = MultiRunInputs {
            spec: &spec,
            groups: std::slice::from_ref(&group),
            stressors: &[],
            fill_background: true,
            turbo: true,
            seed: 44,
        };
        let config = EngineConfig {
            faults: FaultPlan::with_intensity(0.5),
            ..EngineConfig::default()
        };
        match run_multi_stats(&inputs, &config) {
            Ok((_, stats)) => assert_eq!(
                stats.segments_coalesced, 0,
                "coalescing must never skip over an armed fault plan: {stats:?}"
            ),
            Err(SimError::TransientFault { .. }) => {}
            Err(other) => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn remote_neighbor_wraps_around_socket_ring() {
        let spec = MachineSpec::x2_4();
        let mut b = Behavior::compute("ring", 10.0, 0.2);
        b.demand.dram = 3.0;
        b.data_placement = DataPlacement::RemoteNeighbor;
        // One thread on the last socket: its data lands on socket 0.
        let ctx = spec.ctx(pandia_topology::SocketId(3), 0, 0);
        let p = Placement::new(&spec, vec![ctx]).unwrap();
        let r = run_simple(&spec, &b, &p, 29);
        assert!(r.counters.dram_bytes[0] > 0.0);
        assert!(r.counters.dram_bytes[3] < 1e-9);
    }
}
