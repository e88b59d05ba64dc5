"""Steadiness check: repeated runs of every workload, with spreads.

    python3 bench/steady.py [--first-seed 1] [--against bench/out/steady-1.json] [--traced 2]

Runs bench/run.py ten times on every workload of BENCHMARK.json, one seed
per run, the workloads interleaved so that a slow spell of the machine
touches all of them.  For every end-to-end metric it prints the median,
the quartiles (statistics.quantiles, n=4) and their distance as a share
of the median, next to the metric's bound in BENCHMARK.json; a spread
above a third of the bound is marked WIDE.  --against compares the
medians with an earlier summary, as two sets of runs of the same code.
--traced N makes N traced runs of each workload with the first seed,
checks that their counts repeat exactly and prints the tracing overhead.
The summary is written to bench/out/steady-<first seed>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BOUNDS = {m["name"]: m for m in CONFIG["end_to_end"]}
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]
RUNS = 10


def one_run(workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(CONFIG["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1]), lines[:-1]


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def worse_by(name: str, old: float, new: float) -> float:
    """How much worse `new` is than `old`, as a share of `old`."""
    if BOUNDS[name]["better"] == "lower":
        return (new - old) / old
    return (old - new) / old


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--against", type=Path, help="an earlier summary to compare medians with")
    p.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    args = p.parse_args(argv)

    results: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    raws: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    for i in range(RUNS):
        for workload in WORKLOADS:
            summary, lines = one_run(workload, args.first_seed + i, 0)
            results[workload].append(summary)
            raws[workload].append(next(
                json.loads(line[len("raw: "):]) for line in lines if line.startswith("raw: ")
            ))
            print(f"{workload} seed {args.first_seed + i}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in summary["metrics"].items()
            ), flush=True)

    earlier = json.loads(args.against.read_text()) if args.against else None
    report: dict = {"runs": RUNS, "first_seed": args.first_seed, "workloads": {}}
    steady = True
    for workload, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        entry: dict = {"failed_shares": sorted(shares), "metrics": {}}
        print(f"\n{workload}: failed share {sorted(shares)}")
        for name in BOUNDS:
            stats = spread([r["metrics"][name]["value"] for r in runs])
            stats["raw"] = spread([r[name]["value"] for r in raws[workload]])
            bound = BOUNDS[name]["bound"]
            line = (
                f"  {name:12s} median {stats['median']:.4g}  q1 {stats['q1']:.4g}  "
                f"q3 {stats['q3']:.4g}  spread {stats['spread']:.3f}  bound {bound}  "
                f"(uncorrected: median {stats['raw']['median']:.4g}, spread {stats['raw']['spread']:.3f})"
            )
            if stats["spread"] > bound / 3:
                line += "  WIDE"
                steady = False
            if earlier is not None and workload in earlier["workloads"]:
                old = earlier["workloads"][workload]["metrics"][name]["median"]
                stats["worse_than_earlier"] = worse_by(name, old, stats["median"])
                line += f"  worse than earlier by {stats['worse_than_earlier']:+.3f}"
                if stats["worse_than_earlier"] > bound:
                    line += "  REGRESSED"
                    steady = False
            print(line)
            entry["metrics"][name] = stats
        report["workloads"][workload] = entry

    for workload in WORKLOADS if args.traced else []:
        traced = [one_run(workload, args.first_seed, 1) for _ in range(args.traced)]
        counts = [
            {k: v["value"] for k, v in s["metrics"].items() if not k.endswith("_s")}
            for s, _ in traced
        ]
        overheads = [
            json.loads(line[len("overhead: "):])["ratio"]
            for _, lines in traced for line in lines if line.startswith("overhead: ")
        ]
        same = all(c == counts[0] for c in counts)
        steady = steady and same
        report["workloads"][workload]["traced"] = {
            "counts_repeat": same, "overhead_ratios": overheads,
            "layers": traced[0][0]["metrics"],
        }
        print(f"\n{workload} traced: counts repeat {same}, overhead x{statistics.median(overheads):.2f}")

    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{args.first_seed}.json"
    path.write_text(json.dumps(report, indent=1))
    print(f"\nsummary: {path.relative_to(ROOT)}; {'steady' if steady else 'NOT steady'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
