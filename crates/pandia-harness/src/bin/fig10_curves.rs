//! Figure 10: measured vs predicted performance for every workload on the
//! X5-2 (Figure 1 covers MD; this binary regenerates all 22 curves).
//!
//! `cargo run --release -p pandia-harness --bin fig10_curves -- [--quick]
//! [--jobs N] [--no-cache] [--naive-sim] [--quiet] [--trace-out FILE]
//! [--metrics-out FILE] [--events-out FILE] [--trace-buffer SPANS] [machine]`
//!
//! With `--events-out FILE` the span-event stream is appended after each
//! workload, so a long sweep is watchable in flight (`tail -f`); pair a
//! full-coverage `--trace-out` capture with `--trace-buffer SPANS` when
//! the sweep records more than the default 2^18 spans.
//!
//! `--naive-sim` disables the simulator's segment memo so CI can assert
//! the memo and the naive loop emit byte-identical results.

use std::time::Instant;

use pandia_harness::{
    experiments::{
        curves, exec_from_args, positional_args, quiet_from_args, report_exec,
        runnable_workloads, telemetry_from_args, Coverage,
    },
    metrics, report, MachineContext,
};
use pandia_sim::{SimConfig, SimMachine};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut telemetry = telemetry_from_args();
    let quiet = quiet_from_args();
    let coverage = Coverage::from_args();
    let exec = exec_from_args();
    let naive = std::env::args().any(|a| a == "--naive-sim");
    let machine = positional_args().into_iter().next().unwrap_or_else(|| "x5-2".into());
    let mut ctx = MachineContext::by_name(&machine)?;
    if naive {
        let config = SimConfig::default().with_incremental(false);
        ctx.platform = SimMachine::with_config(ctx.spec.clone(), config);
    }
    let placements = coverage.placements(&ctx);
    let workloads = runnable_workloads(&ctx, pandia_workloads::paper_suite());
    if !quiet {
        eprintln!(
            "{} workloads on {} over {} placements (jobs={})",
            workloads.len(),
            ctx.description.machine,
            placements.len(),
            exec.jobs()
        );
    }

    let start = Instant::now();
    let mut all_stats = Vec::new();
    for w in &workloads {
        let curve = curves::workload_curve_with(&exec, &ctx, w, &placements)?;
        let stats = metrics::error_stats(&curve);
        println!(
            "{:<10} mean {:>6.2}%  median {:>6.2}%  gap {:>6.2}%",
            w.name,
            stats.mean_error_pct,
            stats.median_error_pct,
            metrics::best_placement_gap(&curve)
        );
        report::write_result(
            &format!("fig10/{}_{}.csv", machine, w.name),
            &report::curve_csv(&curve),
        )?;
        all_stats.push(stats);
        // Keep the --events-out stream current so a long sweep can be
        // watched in flight, one workload at a time.
        telemetry.poll_events();
    }
    report_exec(&exec, "curves", start, quiet);
    let table = report::error_table(
        &format!("Figure 10 curves on {}", ctx.description.machine),
        &all_stats,
    );
    let path = report::write_result(&format!("fig10/{machine}_errors.txt"), &table)?;
    if !quiet {
        eprintln!("wrote {} and per-workload CSVs", path.display());
    }
    Ok(())
}
