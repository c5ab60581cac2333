//! `perfbench`: one run of one benchmark workload.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S [--trace 0|1] [--fixed-work]
//!           [--scratch DIR]
//! ```
//!
//! With `--trace 0` it measures for `S` seconds and prints every
//! end-to-end metric; with `--trace 1` it installs telemetry, does one
//! fixed unit of work (one sweep pass, or 40 daemon rounds)
//! and prints the per-layer metrics. `--fixed-work` does that same fixed
//! unit untraced, so a traced run's overhead can be measured against it.
//! The last stdout line is the JSON result; the line before it holds the
//! details (tail percentiles, ratio bases, digests).

mod daemon;
mod layers;
mod model;
mod stats;
mod sweep;
mod timed;

use std::path::PathBuf;
use std::process::ExitCode;

use layers::{Layers, LAYER_METRICS};
use model::{recorded_digest, Digest, SetupTimes};
use stats::{median, peak_rss_mb, summarize};
use timed::SimLog;

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: u64,
    /// Record telemetry and report per-layer metrics.
    pub trace: bool,
    /// Do one fixed unit of work instead of filling the window.
    pub fixed_work: bool,
    /// Directory for the daemon's journal and checkpoints.
    pub scratch: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        fixed_work: false,
        scratch: PathBuf::from(".bench_build/perfbench-scratch"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?,
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => match value()?.as_str() {
                "0" => opts.trace = false,
                "1" => opts.trace = true,
                other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
            },
            "--fixed-work" => opts.fixed_work = true,
            "--scratch" => opts.scratch = PathBuf::from(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if opts.trace {
        opts.fixed_work = true;
    }
    if opts.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(opts)
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (set-ups, decisions, curve points, events,
    /// cross-checked points).
    pub attempted: u64,
    /// Operations that errored or failed a check.
    pub failed: u64,
    /// Why each failure was counted.
    pub problems: Vec<String>,
    /// Seconds per set-up.
    pub setup_s: Vec<f64>,
    /// Host time of each set-up step.
    pub setup_times: SetupTimes,
    /// Milliseconds per placement decision (each decision's median over
    /// its repeats).
    pub decide_ms: Vec<f64>,
    /// Milliseconds per measured operation (curve point, or submission):
    /// the sample of `op_p50_ms`.
    pub op_ms: Vec<f64>,
    /// The sample of `op_tail_ms`, when it is not `op_ms`.
    pub op_tail_ms: Option<Vec<f64>>,
    /// Operations completed in the measured window.
    pub ops: u64,
    /// Seconds of measured work: the sum of the timed curves or rounds,
    /// leaving out the decisions made between them.
    pub window_s: f64,
    /// Median across curves of each curve's median prediction error.
    pub median_error_pct: f64,
    /// Mean across decisions of the best-placement gap.
    pub best_gap_pct: f64,
    /// Detail fields: key and JSON value.
    pub details: Vec<(String, String)>,
    /// Per-layer values (filled in traced runs).
    pub layers: Layers,
}

impl Outcome {
    /// Counts `n` failed operations.
    pub fn fail(&mut self, n: u64, why: &str) {
        self.failed += n;
        self.problems.push(why.to_string());
    }

    /// Adds a detail field; `json` must be a JSON value.
    pub fn detail(&mut self, key: &str, json: String) {
        self.details.push((key.to_string(), json));
    }

    /// Compares a digest with the one recorded under `key` (a seed, or
    /// `canary`); a mismatch fails all `ops` operations it covers. The
    /// detail line gets the digest as `<name>` and the outcome as
    /// `<name>_check`.
    pub fn check_digest(
        &mut self,
        name: &str,
        workload: &str,
        key: &str,
        digest: &Digest,
        ops: u64,
    ) {
        let hex = digest.hex();
        self.detail(name, format!("\"{hex}\""));
        let status = match recorded_digest(workload, key) {
            Some(recorded) if recorded == hex => "matches the recorded digest",
            Some(recorded) => {
                self.fail(
                    ops,
                    &format!("digest {hex} differs from recorded {recorded}"),
                );
                "differs from the recorded digest"
            }
            None => "no digest recorded",
        };
        self.detail(&format!("{name}_check"), format!("\"{status}\""));
    }

    /// Reads the per-layer figures at the end of the measured work.
    pub fn snapshot_layers(&mut self, log: &SimLog) {
        layers::snapshot(log, &mut self.layers);
        let t = &self.setup_times;
        for (name, sample) in [
            ("machine_gen.describe_ms", &t.describe_ms),
            ("topology.enumerate_ms", &t.enumerate_ms),
            ("profiler.profile_ms", &t.profile_ms),
        ] {
            self.layers.values.insert(name.to_string(), median(sample));
        }
    }
}

/// The benchmark's workloads.
const WORKLOADS: [&str; 2] = ["sweep-x5-2", "daemon-x3x4"];

fn run_workload(opts: &Opts) -> model::Res<Outcome> {
    match opts.workload.as_str() {
        "sweep-x5-2" => sweep::run(opts),
        "daemon-x3x4" => daemon::run(opts),
        other => Err(format!(
            "unknown workload '{other}' (one of {})",
            WORKLOADS.join(", ")
        )
        .into()),
    }
}

/// A JSON number: finite values as Rust prints them (shortest round-trip
/// form, all digits kept).
fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    format!(
        "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
        num(value)
    )
}

fn report(opts: &Opts, out: &mut Outcome) -> Result<String, String> {
    let mut metrics = Vec::new();
    if opts.trace {
        for (name, unit) in LAYER_METRICS {
            if *name == "trace.overhead_pct" {
                continue; // measured across three processes by run.py
            }
            let value = out.layers.values.get(*name).copied().unwrap_or(0.0);
            metrics.push(metric(name, value, unit));
        }
        let bases: Vec<String> = out
            .layers
            .bases
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        out.detail("bases", format!("{{{}}}", bases.join(",")));
    } else {
        let ops = summarize(&out.op_ms).ok_or("no operation was measured")?;
        let tail = match &out.op_tail_ms {
            Some(sample) => summarize(sample).ok_or("no operation was measured")?,
            None => ops,
        };
        let ok = out.attempted.saturating_sub(out.failed) as f64 / out.attempted.max(1) as f64;
        let rss = peak_rss_mb().ok_or("cannot read peak RSS from /proc/self/status")?;
        for (name, value, unit) in [
            ("setup_s", median(&out.setup_s), "s"),
            ("ops_per_s", out.ops as f64 / out.window_s, "1/s"),
            ("op_p50_ms", ops.p50, "ms"),
            ("op_tail_ms", tail.tail, "ms"),
            ("decide_p50_ms", median(&out.decide_ms), "ms"),
            ("median_error_pct", out.median_error_pct, "%"),
            ("peak_rss_mb", rss, "MB"),
            ("ok_frac", ok, "fraction"),
        ] {
            metrics.push(metric(name, value, unit));
        }
        out.detail("op_tail", layers::tail_base(Some(tail)));
        // Reported but unbounded: with a few dozen decisions its value
        // moves with the seed's sample by more than any allowed bound.
        out.detail(
            "best_gap_pct",
            format!("{{\"value\":{},\"unit\":\"%\"}}", num(out.best_gap_pct)),
        );
        out.detail("decisions", out.decide_ms.len().to_string());
        out.detail("setups", out.setup_s.len().to_string());
    }
    out.detail("measure_wall_s", num(out.window_s));
    out.detail("workload", format!("\"{}\"", opts.workload));
    out.detail("seed", opts.seed.to_string());
    let details: Vec<String> = out
        .details
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    println!("{{\"detail\":{{{}}}}}", details.join(","));
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.trace {
        pandia_obs::install_with_max_events(1 << 21);
    }
    let mut out = match run_workload(&opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload);
            return ExitCode::FAILURE;
        }
    };
    for problem in &out.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    match report(&opts, &mut out) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
