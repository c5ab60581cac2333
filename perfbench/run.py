#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The script builds the `perfbench` package
(release, offline) into $CARGO_TARGET_DIR, default `.bench_build`, then:

* `--trace 0` runs the workload for S seconds and prints every
  end-to-end metric of BENCHMARK.json;
* `--trace 1` runs the workload's fixed unit of work three times, in
  separate processes: untraced, traced (telemetry cannot be switched off
  once installed), untraced again. It prints every per-layer metric,
  including `trace.overhead_pct`, the traced wall time over the mean of
  the untraced ones.

The last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it carries details
(tail percentiles and sample counts, ratio bases, digests). The exit code
is 0 when a result was printed, and non-zero, without a result, when the
build, a run, or the output's shape fails.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-x5-2", "daemon-x3x4")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    command = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    try:
        done = subprocess.run(command, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    binary = target_dir / "release" / "perfbench"
    if not binary.is_file():
        fail(f"build left no binary at {binary}")
    return binary


def run_child(binary, args, timeout):
    """Runs the binary; returns its detail line and result line, parsed."""
    try:
        done = subprocess.run(
            [str(binary), *args], cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, text=True
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}")
    if done.returncode != 0:
        fail(f"run exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError) as e:
        fail(f"unreadable output: {e}")
    return detail, result


def check_shape(result, expected):
    """The result must carry exactly the expected metrics, in their units."""
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result keys {sorted(result)}")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            fail(f"metric {name} has no numeric value")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    group = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[group]}

    target_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = ROOT / target_dir
    binary = build(target_dir)
    scratch = target_dir / f"perfbench-scratch-{os.getpid()}"
    common = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--scratch", str(scratch),
    ]
    try:
        if args.trace:
            # Untraced runs before and after the traced one, so a drift in
            # host speed during the three runs does not read as overhead.
            fixed = [*common, "--fixed-work"]
            timeout = RUN_TIMEOUT_S // 3
            before, untraced_a = run_child(binary, fixed, timeout)
            detail, result = run_child(binary, [*common, "--trace", "1"], timeout)
            after, untraced_b = run_child(binary, fixed, timeout)
            plain_s = (before["measure_wall_s"] + after["measure_wall_s"]) / 2
            overhead = 100.0 * (detail["measure_wall_s"] / plain_s - 1.0)
            result["metrics"]["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
            for untraced in (untraced_a, untraced_b):
                result["correct"] = result["correct"] and untraced["correct"]
                result["attempted"] += untraced["attempted"]
                result["failed"] += untraced["failed"]
            detail["untraced_measure_wall_s"] = [before["measure_wall_s"], after["measure_wall_s"]]
        else:
            detail, result = run_child(binary, [*common, "--trace", "0"], RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    check_shape(result, expected)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
