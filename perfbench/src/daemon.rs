//! The placement-service workload: rounds of short seeded event streams,
//! each applied to a fresh daemon over profiled X3-2 and X4-2 machines in
//! a closed loop with one client. Rounds come in blocks that hold one
//! stream of each peak-occupancy class (see [`peak_class`]). One
//! write-ahead journal spans the run, with `pandiad`'s default sync batch,
//! and a checkpoint is written at `pandiad`'s default cadence of events.
//! The timed operation is a job submission: the request whose answer is a
//! placement.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use pandia_core::ExecContext;
use pandia_daemon::{
    generate_events, write_checkpoint, Daemon, DaemonConfig, Event, JobStatus, Journal,
};
use pandia_topology::MachineSpec;

use crate::layers::Layers;
use crate::model::{
    canary, decide, repeat_for, sample, timed_curve, Accuracy, Decisions, Digest, Res, Rng, SetUps,
    Slots, SLOT_DECIDE,
};
use crate::stats::median;
use crate::timed::{SimLog, TimedSim};
use crate::{Opts, Outcome};

const NAME: &str = "daemon-x3x4";

/// Job classes, in catalog (sorted) order.
const CLASSES: [&str; 3] = ["CG", "EP", "FT"];

/// Events per round. Each round replays its own stream through a fresh
/// daemon, so a run averages the cold-start cost of many independent
/// streams; a stream's cost is dominated by the co-schedules it solves
/// for resident sets the daemon has not seen, which varies widely from
/// stream to stream.
const ROUND_EVENTS: usize = 8;

/// Rounds every run completes, whose transcripts are digested and
/// checked. A run stops only between blocks, so this and the round counts
/// below are whole blocks of [`PEAK_CLASSES`] rounds.
const CHECKED_ROUNDS: usize = 8;

/// Rounds whose submissions make the latency sample; every run completes
/// them. A fixed sample per seed keeps the tail on one percentile step
/// (p90 of about 500 submissions) however many rounds a fast or slow host
/// fits in the window.
const LATENCY_ROUNDS: usize = 100;

/// Rounds in the fixed unit of work of a traced run.
const FIXED_ROUNDS: usize = 40;

/// Peak-occupancy classes of a stream: at most 2, 3, 4, and 5 or more
/// jobs live at once.
const PEAK_CLASSES: usize = 4;

/// `pandiad`'s default journal batch: one `sync_data` per this many
/// appends.
const JOURNAL_SYNC_EVERY: usize = 16;

/// `pandiad`'s default checkpoint cadence, in events.
const CHECKPOINT_EVERY: u64 = 64;

fn machines() -> [MachineSpec; 2] {
    [MachineSpec::x3_2(), MachineSpec::x4_2()]
}

/// Runs the daemon workload and checks its outputs.
pub fn run(opts: &Opts) -> Res<Outcome> {
    let mut out = Outcome::default();
    let log = Arc::new(SimLog::default());
    let entries = CLASSES
        .iter()
        .map(|c| pandia_workloads::by_name(c).ok_or(format!("unknown class {c}")))
        .collect::<Result<Vec<_>, _>>()?;

    // Set-up: describe both machines and profile every class on each.
    let specs = machines();
    let setups = SetUps::new(&mut out, &specs, &entries, &log)?;
    let fleet = &setups.prepared;

    // Placement decisions for every class on every machine, each over a
    // seeded sample of the machine's placements.
    let samples: Vec<_> = fleet
        .iter()
        .map(|m| {
            let mut rng = Rng::new(opts.seed, &format!("{NAME}/{}", m.spec.name));
            sample(&m.placements, 3, &mut rng)
        })
        .collect();
    let platforms: Vec<_> = fleet
        .iter()
        .map(|m| TimedSim::new(m.spec.clone(), log.clone()))
        .collect();
    let mut decide_platforms = platforms.clone();
    let mut decisions = Decisions::new(fleet.len() * entries.len());
    // A slot of side work: set up again, then make every decision back to
    // back.
    let mut side = |out: &mut Outcome, decisions: &mut Decisions| -> Res<()> {
        setups.repeat(out)?;
        let (min_s, max) = SLOT_DECIDE;
        repeat_for(min_s, max, || {
            for (m, machine) in fleet.iter().enumerate() {
                for (i, entry) in entries.iter().enumerate() {
                    let made = decide(
                        &mut decide_platforms[m],
                        &machine.description,
                        entry,
                        &samples[m],
                    )?;
                    decisions.record(out, m * entries.len() + i, made, &machine.profiles[i]);
                }
            }
            Ok(())
        })
    };

    // The measured window: whole blocks of rounds, each round a fresh
    // daemon replaying its own seeded stream, with one client applying
    // each event after the previous one returns and journaling it first.
    // Building each round's daemon is left out of the window.
    let mut catalog = BTreeMap::new();
    for (i, class) in CLASSES.iter().enumerate() {
        let per_machine = fleet.iter().map(|m| m.profiles[i].clone()).collect();
        catalog.insert((*class).to_string(), per_machine);
    }
    let descriptions: Vec<_> = fleet.iter().map(|m| m.description.clone()).collect();
    std::fs::create_dir_all(&opts.scratch)?;
    let journal_path = opts.scratch.join("journal.jsonl");
    let checkpoint_path = opts.scratch.join("checkpoint.json");
    let mut digest = Digest::default();
    let mut tally = EventTally::default();
    let mut stream_seeds = Rng::new(opts.seed, NAME);
    let mut block = Vec::new();
    // One journal for the whole run, as one `pandiad` keeps; its records
    // carry a run-wide sequence number, and a checkpoint is written every
    // `CHECKPOINT_EVERY` events of the run.
    let mut journal = Journal::create(&journal_path, JOURNAL_SYNC_EVERY)?;
    let mut seq = 0u64;
    let window_s = opts.seconds as f64;
    let mut slots = Slots::new(opts);
    let mut rounds = 0;
    let mut job_ends = [0u64; 4];
    loop {
        if block.is_empty() {
            block = draw_block(&mut stream_seeds);
        }
        let (stream_seed, events) = block.pop().ok_or("empty block")?;
        let config = DaemonConfig {
            seed: stream_seed,
            exec: ExecContext::new(1),
            ..DaemonConfig::default()
        };
        let mut daemon = Daemon::new(descriptions.clone(), catalog.clone(), config)?;
        let round_start = Instant::now();
        for event in &events {
            let begin = Instant::now();
            journal.append(seq, event)?;
            let appended = Instant::now();
            daemon.apply(event)?;
            let micros = begin.elapsed().as_secs_f64() * 1e6;
            tally.append_us.push((appended - begin).as_secs_f64() * 1e6);
            tally.by_kind.entry(event.kind()).or_default().push(micros);
            if matches!(event, Event::Submit { .. }) {
                if rounds < LATENCY_ROUNDS {
                    out.op_ms.push(micros / 1e3);
                }
                out.ops += 1;
            }
            seq += 1;
            if seq.is_multiple_of(CHECKPOINT_EVERY) {
                tally.checkpoint(&mut daemon, &checkpoint_path)?;
            }
        }
        out.window_s += round_start.elapsed().as_secs_f64();
        out.attempted += events.len() as u64;
        let ends = reconcile(&mut out, &daemon, &events);
        for (total, n) in job_ends.iter_mut().zip(ends) {
            *total += n;
        }
        if rounds < CHECKED_ROUNDS {
            digest.bytes(daemon.transcript().as_bytes());
        }
        rounds += 1;
        if slots.due(out.window_s) {
            side(&mut out, &mut decisions)?;
            slots.take();
        }
        let done = if !block.is_empty() {
            false
        } else if opts.fixed_work {
            rounds >= FIXED_ROUNDS
        } else {
            rounds >= CHECKED_ROUNDS.max(LATENCY_ROUNDS) && out.window_s >= window_s
        };
        if done {
            break;
        }
    }
    journal.sync()?;
    out.detail("rounds", rounds.to_string());
    let [completed, failed, rejected, live] = job_ends;
    out.detail(
        "job_ends",
        format!(
            "{{\"completed\":{completed},\"failed\":{failed},\"rejected_or_shed\":{rejected},\"live\":{live}}}"
        ),
    );

    // The remaining slots, then each decision is checked against a
    // measured curve over the same seeded sample.
    while slots.left() {
        side(&mut out, &mut decisions)?;
        slots.take();
    }
    let chosen = decisions.finish(&mut out)?;
    let mut accuracy = Accuracy::default();
    for (d, best) in chosen.iter().enumerate() {
        let (m, i) = (d / entries.len(), d % entries.len());
        let machine = &fleet[m];
        let timed = timed_curve(
            &ExecContext::new(1),
            &platforms[m],
            machine,
            &entries[i],
            &machine.profiles[i],
            &samples[m],
        )?;
        let curve = timed.curve;
        out.attempted += curve.points.len() as u64;
        digest.curve(&curve);
        accuracy.add(&mut out, &curve, best);
    }
    accuracy.finish(&mut out);

    out.snapshot_layers(&log);
    tally.report(&mut out.layers);
    let checked_ops = (CHECKED_ROUNDS * ROUND_EVENTS + chosen.len()) as u64;
    out.check_digest("digest", NAME, &opts.seed.to_string(), &digest, checked_ops);

    // The canary: a stream and curves no seed changes, checked against
    // their recorded digest on every run.
    let mut canary_digest = Digest::default();
    let events = generate_events(0, ROUND_EVENTS, &CLASSES);
    let config = DaemonConfig {
        exec: ExecContext::new(1),
        ..DaemonConfig::default()
    };
    let mut daemon = Daemon::new(descriptions, catalog, config)?;
    for event in &events {
        daemon.apply(event)?;
    }
    reconcile(&mut out, &daemon, &events);
    canary_digest.bytes(daemon.transcript().as_bytes());
    let mut canary_ops = events.len() as u64;
    for machine in fleet {
        canary_ops += canary(2, machine, &entries, &machine.profiles, &mut canary_digest)?;
    }
    out.attempted += canary_ops;
    out.check_digest("canary", NAME, "canary", &canary_digest, canary_ops);
    let _ = std::fs::remove_file(&journal_path);
    let _ = std::fs::remove_file(&checkpoint_path);
    Ok(out)
}

/// A stream's peak-occupancy class: how many jobs it keeps live at once
/// at most (submitted and not yet completed), as an index into
/// 2-or-fewer, 3, 4, 5-or-more. A round's cost grows steeply with it,
/// because a co-schedule over more resident jobs evaluates more
/// candidates: on X3-2 + X4-2 a round of the lowest class takes about
/// 2% as long as one of the highest.
fn peak_class(events: &[Event]) -> usize {
    let (mut live, mut peak) = (0usize, 0usize);
    for event in events {
        match event {
            Event::Submit { .. } => live += 1,
            Event::Complete { .. } => live = live.saturating_sub(1),
            _ => {}
        }
        peak = peak.max(live);
    }
    peak.clamp(2, 5) - 2
}

/// Draws the next block of rounds: seeded streams, each kept only if no
/// earlier stream of the block has its peak-occupancy class, until the
/// block has one of each. The default mix puts 26, 24, 23 and 27% of
/// 8-event streams in the four classes, so a block matches the
/// generator's own mix to within 3 points, while the count of costly
/// rounds in a run no longer moves with the seed; that count alone spread
/// a run's throughput by about 0.18 across seeds. Rounds are popped from
/// the back, so a block runs in reverse draw order.
fn draw_block(rng: &mut Rng) -> Vec<(u64, Vec<Event>)> {
    let mut block = Vec::with_capacity(PEAK_CLASSES);
    let mut filled = [false; PEAK_CLASSES];
    while block.len() < PEAK_CLASSES {
        let seed = rng.next_u64();
        let events = generate_events(seed, ROUND_EVENTS, &CLASSES);
        let class = peak_class(&events);
        if !filled[class] {
            filled[class] = true;
            block.push((seed, events));
        }
    }
    block
}

/// Every submission must have ended completed, failed, rejected or shed,
/// or still be live, and the tallies must agree with the audit ledger.
/// Returns the completed, failed, rejected-or-shed and live counts.
fn reconcile(out: &mut Outcome, daemon: &Daemon, applied: &[Event]) -> [u64; 4] {
    let (mut completed, mut failed, mut rejected, mut live, mut unknown) = (0, 0, 0, 0, 0);
    for event in applied {
        if let Event::Submit { job, .. } = event {
            match daemon.job_status(job) {
                Some(JobStatus::Completed) => completed += 1,
                Some(JobStatus::Failed) => failed += 1,
                Some(JobStatus::Rejected) => rejected += 1,
                Some(JobStatus::Queued | JobStatus::Running) => live += 1,
                None => unknown += 1,
            }
        }
    }
    let audit = daemon.audit();
    let checks = [
        ("submissions the daemon never recorded", unknown, 0),
        ("completed jobs vs audit", completed, audit.completed),
        ("failed jobs vs audit", failed, audit.failed),
        (
            "rejected or shed jobs vs audit",
            rejected,
            audit.rejected + audit.shed,
        ),
        (
            "live jobs vs queue plus fleet",
            live,
            (daemon.queued() + daemon.running()) as u64,
        ),
        (
            "events applied vs audit",
            applied.len() as u64,
            audit.events,
        ),
    ];
    for (what, seen, expected) in checks {
        if seen != expected {
            out.fail(1, &format!("audit: {what}: {seen} != {expected}"));
        }
    }
    [completed, failed, rejected, live]
}

/// Per-event and durability timings across a run's rounds.
#[derive(Debug, Default)]
struct EventTally {
    by_kind: BTreeMap<&'static str, Vec<f64>>,
    append_us: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    checkpoint_bytes: Vec<f64>,
}

impl EventTally {
    /// Writes a checkpoint atomically, timing it.
    fn checkpoint(&mut self, daemon: &mut Daemon, path: &Path) -> Res<()> {
        let start = Instant::now();
        let seq = daemon.clock();
        let document = daemon.checkpoint();
        write_checkpoint(path, &document)?;
        daemon.note_checkpoint(seq);
        self.checkpoint_ms.push(start.elapsed().as_secs_f64() * 1e3);
        self.checkpoint_bytes.push(document.len() as f64);
        Ok(())
    }

    fn report(&self, layers: &mut Layers) {
        for kind in ["submit", "complete", "fail", "query"] {
            let sample = self.by_kind.get(kind).map_or(&[][..], Vec::as_slice);
            layers.latency(&format!("daemon.{kind}_"), "_us", sample);
        }
        layers.set("journal.append_p50_us", median(&self.append_us));
        layers.set("checkpoint.write_p50_ms", median(&self.checkpoint_ms));
        layers.set("checkpoint.bytes", median(&self.checkpoint_bytes));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submit(job: &str) -> Event {
        Event::Submit {
            job: job.into(),
            class: "EP".into(),
            priority: 0,
        }
    }

    fn complete(job: &str) -> Event {
        Event::Complete {
            job: job.into(),
            elapsed: None,
        }
    }

    #[test]
    fn peak_class_counts_jobs_live_at_once() {
        let two = [submit("a"), submit("b"), complete("a"), submit("c")];
        assert_eq!(peak_class(&two), 0);
        assert_eq!(peak_class(&two[..1]), 0);
        let four = [
            submit("a"),
            submit("b"),
            submit("c"),
            Event::Query,
            submit("d"),
        ];
        assert_eq!(peak_class(&four), 2);
        let six: Vec<_> = (0..6).map(|i| submit(&format!("j{i}"))).collect();
        assert_eq!(peak_class(&six), 3);
    }

    #[test]
    fn a_block_holds_one_seeded_stream_of_each_peak_class() {
        let mut rng = Rng::new(3, NAME);
        let first = draw_block(&mut rng);
        assert_eq!(first, draw_block(&mut Rng::new(3, NAME)));
        for block in std::iter::once(first).chain((0..20).map(|_| draw_block(&mut rng))) {
            let mut classes: Vec<_> = block.iter().map(|(_, e)| peak_class(e)).collect();
            classes.sort_unstable();
            assert_eq!(classes, [0, 1, 2, 3]);
            for (seed, events) in &block {
                assert_eq!(*events, generate_events(*seed, ROUND_EVENTS, &CLASSES));
            }
        }
    }
}
