"""Byte-identical CLI reports against committed digests.

Every entry of tests/golden/cli_digests.txt is the sha256 of the stdout
of one `stochlim` run, keyed by its argv written as JSON.  The runs cover
the text and `--json` reports of the symbolic modes in the Fock, Gaussian
and temperature states, plus job files with labels that are not `t`/`k`
names.  `--seed` and `quadrature` are left out: their floating-point
digits may differ between platforms.  The file is never rewritten by the
tests.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from stochlim.cli import main

DIGESTS = Path(__file__).parent / "golden" / "cli_digests.txt"

PATTERNS = [
    "a a+",
    "a+ a",
    "a a a+ a+",
    "a a+ a a+",
    "a a+ a+ a",
    "a a a+ a a+ a+",
    "a a a a+ a+ a+",
    "a a+ a a a+ a+ a a+",
    "a a a a+ a+ a a+ a+",
    "a a+ a+",
    "a a a+ a a+ a+ a a a+ a+",
]

STATES = {
    "fock": ["--state", "fock"],
    "gaussian": ["--state", "gaussian"],
    "temperature": ["--state", "temperature", "--beta", "2"],
}

MODES_BY_STATE = {
    "fock": ("finite", "limit", "free", "oracle-fock", "diagrams"),
    "gaussian": ("finite", "limit", "free", "oracle-double"),
    "temperature": ("finite", "limit", "free", "oracle-double"),
}


def _letters(spec: str) -> list[dict]:
    """'a:s17:q42 a+:u3:k07' -> letter objects of a job file."""
    out = []
    for token in spec.split():
        op, time, wave = token.split(":")
        out.append({"eps": -1 if op == "a" else 1, "time": time, "wave": wave})
    return out


# job files written into the test's directory; labels whose label order
# differs from their position, so delta chains pick a non-first label
JOBS = {
    "rainbow.json": {
        "schemaVersion": 1,
        "pattern": _letters("a:s17:q42 a:u3:k07 a+:s2:q5 a+:u30:k7"),
    },
    "mixed.json": {
        "schemaVersion": 1,
        "pattern": _letters("a:t9:k10 a+:t10:k9 a:t2:k20 a+:t1:k3 a:u1:q1 a+:u0:q0"),
    },
    "eight.json": {
        "schemaVersion": 1,
        "pattern": _letters(
            "a:s17:q42 a:s3:k07 a+:u3:q4 a:s30:k7 a+:t2:q40 a+:u30:k70 a:t1:s1 a+:t0:s0"
        ),
    },
}


def argvs() -> list[list[str]]:
    out = []
    for as_json in ([], ["--json"]):
        for state, flags in STATES.items():
            for mode in MODES_BY_STATE[state]:
                for pattern in PATTERNS:
                    out.append(["--mode", mode, "--pattern", pattern, *flags, *as_json])
                for name in JOBS:
                    out.append(["--mode", mode, "--job", "{dir}/" + name, *flags, *as_json])
            out.append(["--mode", "check-free", "--max-n", "6", *flags, *as_json])
    return out


def key(argv: list[str]) -> str:
    return json.dumps(argv)


def report(argv: list[str], directory: Path) -> tuple[int, str]:
    """Exit code and stdout of one in-process run."""
    for name, data in JOBS.items():
        path = directory / name
        if not path.exists():
            path.write_text(json.dumps(data))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([a.format(dir=directory) for a in argv])
    return code, out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def read_digests() -> dict[str, str]:
    out = {}
    for line in DIGESTS.read_text().splitlines():
        argv, sha = line.split("\t")
        out[argv] = sha
    return out


def test_digest_file_covers_every_run():
    assert list(read_digests()) == [key(a) for a in argvs()]


@pytest.mark.parametrize("state", list(STATES))
def test_golden_cli_reports(tmp_path, state):
    stored = read_digests()
    failures = []
    for argv in argvs():
        if STATES[state][1] not in argv:
            continue
        code, text = report(argv, tmp_path)
        if code != 0 or digest(text) != stored[key(argv)]:
            failures.append(f"{' '.join(argv)} (exit {code}):\n{text}")
    assert not failures, "CLI report changed:\n" + "\n\n".join(failures)
