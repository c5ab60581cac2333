//! Per-layer figures of a traced run: the timing simulator's log, the
//! program's own counters, and the spans it records around each layer.

use std::collections::BTreeMap;

use pandia_obs::{ArgValue, MetricsSnapshot, SpanEvent};

use crate::stats::{summarize, Summary};
use crate::timed::SimLog;

/// Every per-layer metric a traced run prints, with its unit.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("sim.runs", "count"),
    ("sim.busy_s", "s"),
    ("sim.run_p50_us", "us"),
    ("sim.run_tail_us", "us"),
    ("sim.us_per_segment", "us"),
    ("sim.duplicate_runs", "count"),
    ("sim.coalesced_ratio", "ratio"),
    ("sim.solve_skip_ratio", "ratio"),
    ("sim.batched_ratio", "ratio"),
    ("predictor.calls", "count"),
    ("predictor.busy_s", "s"),
    ("predictor.p50_us", "us"),
    ("predictor.tail_us", "us"),
    ("predictor.cache_hit_ratio", "ratio"),
    ("predictor.joint_calls", "count"),
    ("predictor.joint_busy_s", "s"),
    ("predictor.joint_tail_ms", "ms"),
    ("coschedule.calls", "count"),
    ("coschedule.busy_s", "s"),
    ("coschedule.tail_ms", "ms"),
    ("fleet.skip_ratio", "ratio"),
    ("fleet.memo_evictions", "count"),
    ("journal.append_p50_us", "us"),
    ("checkpoint.write_p50_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("daemon.submit_p50_us", "us"),
    ("daemon.submit_tail_us", "us"),
    ("daemon.complete_p50_us", "us"),
    ("daemon.complete_tail_us", "us"),
    ("daemon.fail_p50_us", "us"),
    ("daemon.fail_tail_us", "us"),
    ("daemon.query_p50_us", "us"),
    ("daemon.query_tail_us", "us"),
    ("exec.efficiency", "ratio"),
    ("exec.idle_s", "s"),
    ("machine_gen.describe_ms", "ms"),
    ("topology.enumerate_ms", "ms"),
    ("profiler.profile_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer values gathered so far, and the base of every ratio and
/// tail among them.
#[derive(Debug, Default)]
pub struct Layers {
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
    /// JSON fragments describing each value's base, by metric name.
    pub bases: BTreeMap<String, String>,
}

impl Layers {
    /// Sets a value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Sets `num / den` (0 when `den` is 0) and records both.
    pub fn ratio(&mut self, name: &str, num: u64, den: u64) {
        let value = if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        };
        self.set(name, value);
        self.bases
            .insert(name.to_string(), format!("{{\"num\":{num},\"den\":{den}}}"));
    }

    /// Sets `<prefix>p50<suffix>` and `<prefix>tail<suffix>` from a
    /// sample already in the metric's unit, recording the tail's
    /// percentile and sample count.
    pub fn latency(&mut self, prefix: &str, suffix: &str, sample: &[f64]) {
        let (p50, tail) = (
            format!("{prefix}p50{suffix}"),
            format!("{prefix}tail{suffix}"),
        );
        let s = summarize(sample);
        self.set(&p50, s.map_or(0.0, |s| s.p50));
        self.tail(&tail, s);
    }

    /// Sets a tail value from a summary, recording its percentile.
    pub fn tail(&mut self, name: &str, s: Option<Summary>) {
        self.set(name, s.map_or(0.0, |s| s.tail));
        self.bases.insert(name.to_string(), tail_base(s));
    }
}

/// `{"pct":..,"samples":..,"beyond":..}` for a tail.
pub fn tail_base(s: Option<Summary>) -> String {
    match s {
        Some(s) => {
            format!(
                "{{\"pct\":{},\"samples\":{},\"beyond\":{}}}",
                s.tail_pct, s.samples, s.beyond
            )
        }
        None => "{\"pct\":null,\"samples\":0,\"beyond\":0}".to_string(),
    }
}

fn counter(snapshot: &MetricsSnapshot, name: &str) -> u64 {
    snapshot
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// Durations of the `cat`/`name` spans whose integer argument `key`
/// satisfies `keep` (a span without the argument counts as 1).
fn span_us(
    spans: &[SpanEvent],
    cat: &str,
    name: &str,
    key: &str,
    keep: fn(u64) -> bool,
) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.cat == cat && s.name == name && keep(int_arg(s, key)))
        .map(|s| s.dur_us)
        .collect()
}

fn int_arg(span: &SpanEvent, key: &str) -> u64 {
    span.args
        .iter()
        .find_map(|(k, v)| match v {
            ArgValue::U64(n) if k == key => Some(*n),
            _ => None,
        })
        .unwrap_or(1)
}

/// Reads the simulator log, and — when telemetry is installed — the
/// program's counters and spans, into `layers`.
pub fn snapshot(log: &SimLog, layers: &mut Layers) {
    let tally = log.tally();
    layers.set("sim.runs", tally.run_us.len() as f64);
    let sim_busy_us: f64 = tally.run_us.iter().sum();
    layers.set("sim.busy_s", sim_busy_us / 1e6);
    layers.latency("sim.run_", "_us", &tally.run_us);
    layers.set("sim.duplicate_runs", tally.duplicates as f64);
    layers.bases.insert(
        "sim.duplicate_runs".to_string(),
        format!("{{\"of_runs\":{}}}", tally.run_us.len()),
    );

    let Some(recorder) = pandia_obs::global() else {
        return;
    };
    let snap = recorder.metrics_snapshot();
    let spans = recorder.span_events();
    layers.bases.insert(
        "trace.spans".to_string(),
        format!(
            "{{\"recorded\":{},\"dropped\":{}}}",
            spans.len(),
            snap.dropped_spans
        ),
    );

    let segments = counter(&snap, "sim.segments");
    layers.set(
        "sim.us_per_segment",
        if segments == 0 {
            0.0
        } else {
            sim_busy_us / segments as f64
        },
    );
    layers.bases.insert(
        "sim.us_per_segment".to_string(),
        format!("{{\"busy_us\":{sim_busy_us},\"segments\":{segments}}}"),
    );
    layers.ratio(
        "sim.coalesced_ratio",
        counter(&snap, "sim.segments_coalesced"),
        segments,
    );
    let (solves, skipped) = (
        counter(&snap, "sim.solves"),
        counter(&snap, "sim.solves_skipped"),
    );
    layers.ratio("sim.solve_skip_ratio", skipped, solves + skipped);
    layers.ratio(
        "sim.batched_ratio",
        counter(&snap, "sim.solves_batched"),
        solves,
    );

    // Every prediction is a `predict_jobs` span; one job is a solo
    // prediction, more are a joint (co-scheduled) one.
    let predict = span_us(&spans, "predictor", "predict_jobs", "jobs", |jobs| {
        jobs == 1
    });
    layers.set("predictor.calls", predict.len() as f64);
    layers.set("predictor.busy_s", predict.iter().sum::<f64>() / 1e6);
    layers.latency("predictor.", "_us", &predict);
    let (hits, misses) = (
        counter(&snap, "predict.cache.hits"),
        counter(&snap, "predict.cache.misses"),
    );
    layers.ratio("predictor.cache_hit_ratio", hits, hits + misses);

    let joint = span_us(&spans, "predictor", "predict_jobs", "jobs", |jobs| jobs > 1);
    let coschedule = span_us(&spans, "coschedule", "schedule", "jobs", |_| true);
    for (prefix, us) in [("predictor.joint_", joint), ("coschedule.", coschedule)] {
        layers.set(&format!("{prefix}calls"), us.len() as f64);
        layers.set(&format!("{prefix}busy_s"), us.iter().sum::<f64>() / 1e6);
        let ms: Vec<f64> = us.iter().map(|u| u / 1e3).collect();
        layers.tail(&format!("{prefix}tail_ms"), summarize(&ms));
    }

    let (resolves, skips) = (
        counter(&snap, "fleet.resolves"),
        counter(&snap, "fleet.resolves_skipped"),
    );
    layers.ratio("fleet.skip_ratio", skips, resolves + skips);
    layers.set(
        "fleet.memo_evictions",
        counter(&snap, "fleet.memo_evictions") as f64,
    );

    // Fan-out efficiency: worker busy time over the worker-time each
    // fan-out held. A one-worker fan-out runs inline, busy throughout.
    let (mut busy_us, mut held_us) = (0.0, 0.0);
    for span in spans.iter().filter(|s| s.cat == "exec") {
        match span.name.as_str() {
            "parallel_map" => {
                let w = int_arg(span, "workers");
                held_us += w as f64 * span.dur_us;
                if w <= 1 {
                    busy_us += span.dur_us;
                }
            }
            "worker" => busy_us += span.dur_us,
            _ => {}
        }
    }
    layers.set(
        "exec.efficiency",
        if held_us > 0.0 {
            busy_us / held_us
        } else {
            0.0
        },
    );
    layers.set("exec.idle_s", (held_us - busy_us).max(0.0) / 1e6);
    layers.bases.insert(
        "exec.efficiency".to_string(),
        format!("{{\"busy_us\":{busy_us},\"held_us\":{held_us}}}"),
    );
}
