"""Tests of the benchmark itself:  python3 -m pytest -q bench

They check the benchmark's independent counts against brute force, that
a wrong output is counted as a failed job, that runs attempt whole
rounds, that tracing counts repeat and survive missing names, and that
the command fails without a program to measure.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from itertools import permutations, product
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return worker.load_library()


def _brute_pairings(pattern):
    creations = [i for i, e in enumerate(pattern) if e == 1]
    annihilations = [i for i, e in enumerate(pattern) if e == -1]
    for perm in permutations(annihilations):
        yield list(zip(creations, perm))


def _crossing(edges):
    arcs = [tuple(sorted(e)) for e in edges]
    return any(a < c < b < d for a, b in arcs for c, d in arcs)


@pytest.mark.parametrize("length", [2, 4, 6, 8])
def test_counts_match_brute_force(length):
    for pattern in wl.balanced(length):
        diagrams = list(_brute_pairings(pattern))
        assert wl.pairings(pattern) == len(diagrams)
        assert wl.non_crossing(pattern) == sum(not _crossing(d) for d in diagrams)
        assert wl.fock_surviving(pattern) == sum(all(c > a for c, a in d) for d in diagrams)


def _leftmost_contractions(pattern):
    total = 0
    options = [((1, False), (2, True)) if e == -1 else ((1, True), (2, False)) for e in pattern]
    for branch in product(*options):
        letters = list(branch)
        while True:
            sites = [i for i in range(len(letters) - 1) if not letters[i][1] and letters[i + 1][1]]
            if not sites or letters[sites[0]][0] != letters[sites[0] + 1][0]:
                break
            total += 1
            del letters[sites[0] : sites[0] + 2]
    return total


@pytest.mark.parametrize("length", [2, 4, 6, 8])
def test_species_steps_match_leftmost_reduction(length):
    for pattern in wl.balanced(length):
        assert wl.species_steps(pattern) == _leftmost_contractions(pattern)


def test_samples_are_seeded_and_stratified():
    assert wl.exact_patterns(3) == wl.exact_patterns(3)
    assert wl.exact_patterns(3) != wl.exact_patterns(4)
    for sample in (wl.exact_patterns(5), wl.limit_patterns(5), wl.cli_jobs(5)):
        assert len(sample) == len(set(sample)) == wl.ROUND_JOBS
    ordered = sorted(wl.balanced(wl.LIMIT_LENGTH), key=lambda p: (wl.species_steps(p), p))
    blocks = [len(ordered) * i // wl.ROUND_JOBS for i in range(wl.ROUND_JOBS + 1)]
    drawn = sorted(ordered.index(p) for p in wl.limit_patterns(7))
    assert all(a <= i < b for i, a, b in zip(drawn, blocks, blocks[1:]))
    assert {job.mode for job in wl.cli_jobs(1)} == set(wl.CLI_PLAN)
    assert sum(job.as_json for job in wl.cli_jobs(1)) == wl.ROUND_JOBS // 2


def test_wrong_exact_output_counts_as_failed(lib):
    pattern = (-1, -1, 1, 1)
    good = wl.run_exact(lib, pattern, 1)
    assert wl.check_exact(pattern, good) == []
    bad = wl.run_exact(lib, pattern, 1)
    bad.taken = lib.ScalarSum(bad.taken.terms[1:])
    rounds = worker.Rounds()
    outputs = iter([good, bad])
    rounds.run([pattern, pattern], 0, execute=lambda job: next(outputs),
               check=wl.check_exact)
    assert (rounds.attempted, rounds.failed) == (2, 1)
    assert "take_limit" in rounds.problems[0]


def test_wrong_limit_report_counts_as_failed(lib):
    pattern = (-1, 1, -1, 1)
    report = wl.run_limit(lib, pattern)
    assert wl.check_limit(lib, pattern, report) == []
    wrong = lib.EquivalenceReport(False, ("x",), ())
    assert wl.check_limit(lib, pattern, wrong) == ["limit and free paths differ"]


def test_wrong_cli_output_counts_as_failed(lib):
    job = wl.CliJob(index=0, mode="limit", state="gaussian", as_json=False,
                    pattern=(-1, 1, -1, 1))
    import stochlim.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = stochlim.cli.main(job.argv("unused"))
    stdout = buf.getvalue()
    assert wl.check_cli(lib, job, code, stdout, None) == []
    assert wl.check_cli(lib, job, code, stdout.replace("(2pi)^2", "(2pi)^3", 1), None)
    assert wl.check_cli(lib, job, 2, stdout, None) == ["exit code 2"]


def test_a_crash_counts_as_failed():
    def explode(job):
        raise RuntimeError("boom")

    rounds = worker.Rounds()
    rounds.run(["a"], 0, execute=explode, check=lambda job, out: [])
    assert (rounds.attempted, rounds.failed) == (1, 1)


def test_runs_attempt_whole_rounds():
    rounds = worker.Rounds()
    rounds.run(list(range(7)), 0.05, execute=lambda job: job, check=lambda job, out: [])
    assert rounds.attempted % 7 == 0 and rounds.attempted >= 7


def _traced_counts(lib, pattern):
    tracer = layers.Tracer()
    tracer.install()
    try:
        totals = layers.LayerTotals()
        tracer.active = True
        wl.run_exact(lib, pattern, 1)
        tracer.active = False
        totals.add(tracer.collect(), 1.0)
    finally:
        tracer.uninstall()
    return tracer, {
        k: v["value"] for k, v in totals.metrics().items() if not k.endswith("_s")
    }


def test_traced_counts_repeat_and_wrappers_come_off(lib):
    pattern = (-1, 1, -1, -1, 1, 1)
    original = lib.finite_lambda_correlator
    tracer, first = _traced_counts(lib, pattern)
    _, second = _traced_counts(lib, pattern)
    assert first == second
    assert tracer.absent == []
    # finite in the Fock and the Gaussian state, and limit_correlator
    assert first["diagrams.pairings"] == 3 * wl.pairings(pattern)
    assert first["symbols.sort_key_calls"] > 0
    assert lib.finite_lambda_correlator is original
    assert sys.modules["stochlim.cli"].finite_lambda_correlator is original


def test_missing_names_are_reported_absent(lib, monkeypatch):
    monkeypatch.setitem(layers.POINTS, "correlator", ("take_limit", "no_such_function"))
    monkeypatch.setitem(layers.POINTS, "nosuchmodule", ("f",))
    tracer = layers.Tracer()
    tracer.install()
    tracer.uninstall()
    assert "correlator.no_such_function" in tracer.absent
    assert "stochlim.nosuchmodule" in tracer.absent


def test_fails_without_a_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert json.loads((tmp_path / "BENCHMARK.json").read_text())["paths"] == ["bench"]
