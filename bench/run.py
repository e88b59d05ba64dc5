"""Benchmark command for stochlim.

    python3 bench/run.py --workload exact|limit|cli --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's src/.  With --trace 0 the last line of standard output is
{"correct", "attempted", "failed", "metrics"} with the end-to-end
metrics; with --trace 1 the metrics are the per-layer ones.  A line
"raw: {...}" before it gives the same end-to-end figures without the
machine-speed correction of clock.py (setup_s is never corrected).  Exits
2 without a result when the checkout has no program, 1 when the workload
process fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402

# Set-up is timed in this many set-up-only processes before the measuring
# process and as many after it, and in the measuring process itself;
# setup_s is the median.  Spreading the samples over the run averages out
# the machine's speed changes of a few seconds.  setup_s is not rescaled
# by clock.py: the calibration pass does not see process start and
# imports, and rescaling widened its spread.
SETUP_EACH_SIDE = 3
# a run that has not ended by then is killed and fails
WORKER_TIMEOUT_S = 170


def _start(args: argparse.Namespace, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Start a workload process; return it with its set-up seconds, from
    just before the start to its "ready" line."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    if args.trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    seconds = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{args.workload} set-up failed")
    return proc, seconds


def _finish(proc: subprocess.Popen) -> dict:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("workload process timed out") from None
    lines = [line for line in out.splitlines() if line.startswith("result ")]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads(lines[-1][len("result ") :])


def _setup_only(args: argparse.Namespace) -> float:
    proc, seconds = _start(args, setup_only=True)
    try:
        proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process exited {proc.returncode}")
    return seconds


def end_to_end(setup: list[float], jobs: list[float], peak_mb: float) -> dict:
    tail = statistics.quantiles(jobs, n=100, method="inclusive")[wl.TAIL_PERCENTILE - 1]
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "jobs_per_s": {"value": len(jobs) / sum(jobs), "unit": "1/s"},
        "job_s.p50": {"value": statistics.median(jobs), "unit": "s"},
        "job_s.tail": {"value": tail, "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="stochlim benchmark")
    p.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "stochlim" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'stochlim'}", file=sys.stderr)
        return 2

    side = 0 if args.trace else SETUP_EACH_SIDE
    try:
        setup = [_setup_only(args) for _ in range(side)]
        proc, seconds = _start(args, setup_only=False)
        setup.append(seconds)
        result = _finish(proc)
        setup += [_setup_only(args) for _ in range(side)]
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    for problem in result["problems"]:
        print(f"failed: {problem}", file=sys.stderr)
    summary = {"correct": True, "attempted": result["attempted"], "failed": result["failed"]}
    if args.trace:
        trace = result["trace"]
        print("overhead: " + json.dumps(trace["overhead"]))
        print("absent: " + json.dumps(trace["absent"]))
        print("spans: " + trace["spans_file"])
        summary["metrics"] = trace["layers"]
    else:
        print("raw: " + json.dumps(
            end_to_end(setup, result["job_raw_s"], result["peak_rss_mb"])
        ))
        summary["metrics"] = end_to_end(setup, result["job_ref_s"], result["peak_rss_mb"])
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
