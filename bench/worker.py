"""One workload process: set up, run whole rounds of jobs, report.

    python3 bench/worker.py --workload exact --seed 1 --seconds 30 [--trace] [--setup-only]

Started by run.py, which times set-up from this process's start to the
line "ready" on its standard output.  The result follows as one line
"result <json>".  Job times are wall times of the calls into the program
only; checks run between jobs, outside the timed regions.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import clock  # noqa: E402
import layers as tracing  # noqa: E402
import workloads as wl  # noqa: E402

# Jobs run both untraced and traced at the start of a traced run; the
# ratio of their times is the tracing overhead.
OVERHEAD_JOBS = 8
IMPORT_PROBES = 3
CLI_ENTRY = "import sys; from stochlim.cli import entry; sys.exit(entry())"


def load_library():
    """Import stochlim from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import stochlim

    origin = Path(stochlim.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"stochlim was imported from {origin}, not from {SRC}")
    return stochlim


def program_env() -> dict:
    """The caller's environment with this checkout's src/ on the path, as
    an installed stochlim would see it; no thread-count overrides."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Rounds:
    """Timed jobs of a run: whole rounds while the next round is predicted
    to end within the run's seconds, and at least one."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.ref: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.kept: list[tuple] = []  # (job, output) when checks run later

    def job(
        self,
        job,
        execute: Callable,
        check: Optional[Callable],
        tracer: Optional[tracing.Tracer] = None,
        totals: Optional[tracing.LayerTotals] = None,
    ) -> None:
        def body():
            if tracer is not None:
                tracer.active = True
            try:
                return execute(job), None
            except Exception as err:  # a crash in the program fails its job
                return None, f"{type(err).__name__}: {err}"
            finally:
                if tracer is not None:
                    tracer.active = False

        (out, error), raw, ref = clock.timed(body)
        if totals is not None:
            totals.add(tracer.collect(), ref / raw)
        self.raw.append(raw)
        self.ref.append(ref)
        self.attempted += 1
        if error is not None:
            self.fail(job, [error])
        elif check is None:
            self.kept.append((job, out))
        else:
            self.fail(job, check(job, out))

    def fail(self, job, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{job}: {'; '.join(problems)}")

    def run(self, jobs: list, seconds: float, **kw) -> None:
        start = time.perf_counter()
        rounds = 0
        while True:
            for job in jobs:
                self.job(job, **kw)
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed * (rounds + 1) / rounds > seconds:
                return


def import_seconds() -> float:
    """Median time to import stochlim.cli in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import stochlim.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_PROBES):
        proc, raw, ref = clock.timed(
            lambda: subprocess.run(
                [sys.executable, "-c", code], env=program_env(),
                capture_output=True, text=True, check=True,
            )
        )
        samples.append(float(proc.stdout) * ref / raw)
    return statistics.median(samples)


# --- the workloads ---------------------------------------------------------


class LibraryWorkload:
    """exact and limit: calls into the library in this process."""

    def __init__(self, name: str, seed: int) -> None:
        self.lib = load_library()
        lib = self.lib
        if name == "exact":
            self.jobs = [(i, p) for i, p in enumerate(wl.exact_patterns(seed))]
            self.execute = lambda job: wl.run_exact(lib, job[1], seed * 1000 + job[0])
            self.check = lambda job, out: wl.check_exact(job[1], out)
        else:
            self.jobs = [(i, p) for i, p in enumerate(wl.limit_patterns(seed))]
            self.execute = lambda job: wl.run_limit(lib, job[1])
            self.check = lambda job, out: wl.check_limit(lib, job[1], out)
        warm = (-1, wl.WARMUP_PATTERN[name])
        problems = self.check(warm, self.execute(warm))
        if problems:
            raise SystemExit(f"warm-up job failed: {problems}")

    def close(self) -> None:
        pass

    def finish(self, rounds: Rounds) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class CliWorkload:
    """cli: each job a fresh `stochlim` process, or, traced, an in-process
    replay of the same argv through stochlim.cli.main."""

    def __init__(self, seed: int, in_process: bool) -> None:
        OUT.mkdir(exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="cli-", dir=OUT)
        self.jobs = wl.cli_jobs(seed)
        for job in self.jobs:
            for path, text in job.files(self.tmp).items():
                Path(path).write_text(text, encoding="utf-8")
        self.env = program_env()
        self.lib = None
        self.check = None  # checks need the library: after the timed loop
        if in_process:
            self.lib = load_library()
            import stochlim.cli

            self.cli = stochlim.cli
        code, _ = self._invoke(list(wl.CLI_WARMUP_ARGV))
        if code != 0:
            raise SystemExit(f"warm-up invocation exited {code}")

    def _invoke(self, argv: list[str]) -> tuple[int, str]:
        if self.lib is None:
            proc = subprocess.run(
                [sys.executable, "-c", CLI_ENTRY, *argv],
                env=self.env, cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode not in (0, 1):
                sys.stderr.write(proc.stderr[-2000:])
            return proc.returncode, proc.stdout
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = self.cli.main(argv)
            except SystemExit as err:
                code = err.code if isinstance(err.code, int) else 2
        return code, buf.getvalue()

    def _run_job(self, job: wl.CliJob):
        csv_path = Path(job.csv_file(self.tmp))
        if job.csv:
            csv_path.unlink(missing_ok=True)
        code, stdout = self._invoke(job.argv(self.tmp))
        csv_text = csv_path.read_text(encoding="utf-8") if job.csv and csv_path.exists() else None
        return code, stdout, csv_text

    execute = _run_job

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def finish(self, rounds: Rounds) -> float:
        """Check the kept outputs against references computed now, outside
        the timed regions; return the largest child peak RSS."""
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        lib = self.lib or load_library()
        for job, (code, stdout, csv_text) in rounds.kept:
            rounds.fail(job, wl.check_cli(lib, job, code, stdout, csv_text))
        return peak


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    if args.workload == "cli":
        work = CliWorkload(args.seed, in_process=args.trace)
    else:
        work = LibraryWorkload(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        work.close()
        return 0

    rounds = Rounds()
    result: dict = {}
    try:
        if args.trace:
            baseline = Rounds()
            for job in work.jobs[:OVERHEAD_JOBS]:
                baseline.job(job, work.execute, work.check)
            tracer = tracing.Tracer()
            tracer.install()
            totals = tracing.LayerTotals()
            rounds.run(work.jobs, args.seconds, execute=work.execute, check=work.check,
                       tracer=tracer, totals=totals)
            tracer.uninstall()
            n = min(OVERHEAD_JOBS, len(work.jobs))
            untraced, traced = sum(baseline.ref[:n]), sum(rounds.ref[:n])
            layers = totals.metrics()
            layers["cli.import_s"] = {"value": import_seconds(), "unit": "s"}
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.write_text(json.dumps({
                "fields": ["id", "name", "start_s", "end_s", "parent"],
                "dropped": tracer.spans_dropped,
                "spans": tracing.span_records(tracer),
            }))
            result["trace"] = {
                "layers": layers,
                "absent": tracer.absent,
                "overhead": {
                    "jobs": n,
                    "untraced_jobs_per_s": n / untraced,
                    "traced_jobs_per_s": n / traced,
                    "ratio": traced / untraced,
                },
                "spans_file": str(spans_path.relative_to(ROOT)),
            }
        else:
            rounds.run(work.jobs, args.seconds, execute=work.execute, check=work.check)
        result["peak_rss_mb"] = work.finish(rounds)
    finally:
        work.close()
    result.update(
        attempted=rounds.attempted, failed=rounds.failed, problems=rounds.problems,
        job_raw_s=rounds.raw, job_ref_s=rounds.ref,
    )
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
