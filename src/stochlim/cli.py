"""Command line driver.

Computes correlators of entangled creation/annihilation words, their
weak-coupling limit, the free master-field value, oracle recomputations,
diagram statistics and the oscillation-limit quadrature sweep.  Reports
are deterministic: the same job always produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

from . import quadrature as quadmod
from .correlator import (
    FOCK,
    GAUSSIAN,
    StateSpec,
    finite_lambda_correlator,
    limit_correlator,
    temperature,
)
from .diagrams import (
    count_fock_surviving,
    count_non_crossing,
    enumerate_pairings,
    is_non_crossing,
)
from .masterfield import check_free_equivalence, free_correlator
from .oracle import (
    Assignment,
    UnassignedSymbolError,
    doubled_normal_order,
    numeric_eval,
    qdef_normal_order,
    random_assignment,
    thermal_occupation,
)
from .scalars import ScalarSum
from .symbols import TimeLabel, WaveLabel
from .words import (
    Letter,
    OperatorWord,
    PatternError,
    balanced_patterns,
    format_pattern,
    parse_pattern,
    token_sign,
    word_from_pattern,
)

__all__ = ["main", "entry", "JobSpec"]

SCHEMA_VERSION = 1
JOB_KEYS = ("schemaVersion", "mode", "state", "beta", "pattern", "maxN")
STATES = ("fock", "gaussian", "temperature")


@dataclass
class JobSpec:
    mode: str
    word: Optional[OperatorWord]
    state: StateSpec
    max_n: int = 6
    numeric: Optional[Assignment] = None
    seed: Optional[int] = None
    as_json: bool = False
    csv_path: Optional[str] = None


class JobError(ValueError):
    pass


def _as(kind, value, what: str):
    """value as kind, never from a bool or a string: an int only from an integral
    number (not -1.5), a float only from a finite one; else a JobError naming what."""
    if not isinstance(value, bool):
        try:
            number = kind(value)
        except (TypeError, ValueError, OverflowError):  # int() of an infinity overflows
            pass
        else:
            if kind is int and number != value:
                raise JobError(f"{what} must be an integer, got {value!r}")
            if isinstance(value, str):  # float() parses "2", but a string is no number
                raise JobError(f"{what} must be a number, got {value!r}")
            if kind is int or math.isfinite(number):
                return number
            raise JobError(f"{what} must be a finite number, got {value!r}")
    raise JobError(f"{what} must be a number, got {value!r}")


def _state_from_args(name: str, beta) -> StateSpec:
    if name == "fock":
        return FOCK
    if name == "gaussian":
        return GAUSSIAN
    if name != "temperature":
        raise JobError(f"unknown state {name!r}")
    if beta is None:
        raise JobError("temperature state needs --beta")
    return temperature(_as(float, beta, "beta"))


# a job-file label name, one the report grammar reads back (',' and ' '
# separate labels there); the wave name p is reserved, since a wave p
# would render both its k.k and its k.p as p.p
_LABEL_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _word_from_job(pattern_entries) -> OperatorWord:
    if not isinstance(pattern_entries, list):
        raise JobError("job 'pattern' must be a list of letters")
    letters = []
    for i, entry in enumerate(pattern_entries, start=1):
        if isinstance(entry, str):
            entry = {"eps": token_sign(entry, i), "time": f"t{i}", "wave": f"k{i}"}
        if not isinstance(entry, dict):
            raise PatternError(f"expected 'a', 'a+' or an object, got {entry!r}", i)
        missing = [key for key in ("eps", "time", "wave") if key not in entry]
        if missing:
            raise PatternError(f"letter object lacks {', '.join(missing)}", i)
        if not all(isinstance(entry[key], str) and entry[key] for key in ("time", "wave")):
            raise PatternError("letter time and wave must be strings, not empty", i)
        for key in ("time", "wave"):
            if not _LABEL_NAME.fullmatch(entry[key]):
                raise PatternError(
                    f"letter {key} {entry[key]!r} is not a name of letters, digits"
                    " and _ that starts with a letter or _",
                    i,
                )
        if entry["wave"] == "p":
            raise PatternError("letter wave 'p' is reserved for the particle momentum", i)
        letters.append(
            Letter(
                _as(int, entry["eps"], "letter eps"),
                TimeLabel(entry["time"]),
                WaveLabel(entry["wave"]),
            )
        )
    return OperatorWord.build(letters)


def _read_json(path: str, what: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise JobError(f"cannot read {what} file {path}: {err.strerror}") from None
    if not isinstance(data, dict):
        raise JobError(f"{what} file {path} does not hold a JSON object")
    return data


def _load_numeric(path: str, state: StateSpec) -> Assignment:
    data = _read_json(path, "numeric")
    if "lambda" not in data:
        raise JobError(f"numeric file {path} has no 'lambda'")

    def numbers(key: str) -> dict[str, float]:
        section = data.get(key, {})
        if not isinstance(section, dict):
            raise JobError(f"numeric file {path}: '{key}' must be an object")
        return {
            k: _as(float, v, f"numeric file {path}: {key} {k!r}") for k, v in section.items()
        }

    dots = {}
    for key, value in numbers("dot").items():
        pair = tuple(part.strip() for part in key.split(","))
        if len(pair) != 2:
            raise JobError(f"numeric file {path}: dot key {key!r} is not two labels 'a,b'")
        dots[pair] = value
    omega = numbers("omega")
    if state.kind != "temperature":
        occupation = numbers("occupation")
    elif "occupation" in data:
        raise JobError(
            f"numeric file {path}: 'occupation' is derived from beta and omega"
            " in the temperature state"
        )
    else:
        for k, w in omega.items():
            if w <= 0:
                raise JobError(f"numeric file {path}: omega {k!r} must be positive")
        occupation = {k: thermal_occupation(state.beta, w) for k, w in omega.items()}
    return Assignment(
        lam=_as(float, data["lambda"], f"numeric file {path}: lambda"),
        times=numbers("times"),
        omega=omega,
        dot=dots,
        dot_p=numbers("dotP"),
        occupation=occupation,
    )


def build_job(args: argparse.Namespace) -> JobSpec:
    """Every job key takes the job file's value when it has one, else the flag's."""
    data = {}
    if args.job:
        data = _read_json(args.job, "job")
        unknown = sorted(set(data) - set(JOB_KEYS))
        if unknown:
            raise JobError(f"job file {args.job} has unknown keys {', '.join(unknown)}")
        if "schemaVersion" not in data:
            raise JobError(f"job file {args.job} has no 'schemaVersion'")
        version = data["schemaVersion"]
        if version != SCHEMA_VERSION:
            raise JobError(
                f"job schemaVersion {version!r} is not supported (expected {SCHEMA_VERSION})"
            )
    mode = data.get("mode", args.mode)
    state = _state_from_args(data.get("state", args.state), data.get("beta", args.beta))
    if "pattern" in data:
        word = _word_from_job(data["pattern"])
    elif args.pattern is not None:
        word = word_from_pattern(parse_pattern(args.pattern))
    else:
        word = None
    max_n = _as(int, data.get("maxN", args.max_n), "maxN")
    if not isinstance(mode, str) or mode not in MODES:
        raise JobError(f"unknown mode {mode!r}")
    spec = MODES[mode]
    if state.kind not in spec.states:
        raise JobError(f"{mode} requires a {' or '.join(spec.states)} state")
    if (word is not None) != spec.needs_word:
        raise JobError(f"mode {mode} {'needs --pattern' if spec.needs_word else 'takes no pattern'}")
    if word is not None and len(word) > spec.cap:
        raise JobError(f"pattern longer than the maximum of {spec.cap} letters for mode {mode}")
    numeric = _load_numeric(args.numeric, state) if args.numeric else None
    return JobSpec(
        mode=mode,
        word=word,
        state=state,
        max_n=max_n,
        numeric=numeric,
        seed=args.seed,
        as_json=args.json,
        csv_path=args.csv,
    )


def _sums(evaluate: Callable, fock_dual: Optional[Callable] = None) -> Callable:
    """The report of a mode whose result is the sum evaluate(word, state).
    With --seed in the Fock state, fock_dual(word, state) is evaluated at
    the same random numbers and printed beside it."""

    def report(job: JobSpec, lines: list[str], payload: dict) -> int:
        value = evaluate(job.word, job.state)
        lines.append("result:")
        lines.append(value.render())
        payload["result"] = {"sum": value.to_json(), "rendered": value.render()}
        assign, pool = job.numeric, [value]
        if assign is None and job.seed is not None:
            if fock_dual is not None and job.state.kind == "fock":
                pool.append(fock_dual(job.word, job.state))
            assign = random_assignment(pool, random.Random(job.seed), job.state)
        if assign is None:
            return 0
        try:
            v1, *dual = [numeric_eval(s, assign) for s in pool]
        except UnassignedSymbolError as err:
            if job.numeric is None:
                raise  # a random assignment covers every symbol it is given
            raise JobError(f"numeric file: {err}") from None
        if not dual:
            lines.append(f"numeric: {v1.real:.12e}{v1.imag:+.12e}j")
            payload["numeric"] = {"value": [v1.real, v1.imag]}
            return 0
        v2 = dual[0]
        lines.append(f"numeric (seed={job.seed}): {v1.real:.12e}{v1.imag:+.12e}j")
        lines.append(f"numeric (dual path):     {v2.real:.12e}{v2.imag:+.12e}j")
        lines.append(f"|difference| = {abs(v1 - v2):.3e}")
        payload["numeric"] = {
            "seed": job.seed,
            "value": [v1.real, v1.imag],
            "dual": [v2.real, v2.imag],
            "difference": abs(v1 - v2),
        }
        return 0

    return report


def _diagrams(job: JobSpec, lines: list[str], payload: dict) -> int:
    pattern = job.word.pattern
    diagrams = enumerate_pairings(pattern)
    result = {
        "pairings": len(diagrams),
        "nonCrossing": count_non_crossing(pattern),
        "fockSurviving": count_fock_surviving(pattern),
        "diagrams": [{"edges": str(d), "nonCrossing": is_non_crossing(d)} for d in diagrams],
    }
    lines.append(f"pairings: {result['pairings']}")
    lines.append(f"non-crossing: {result['nonCrossing']}")
    lines.append(f"fock-surviving: {result['fockSurviving']}")
    for d in result["diagrams"]:
        lines.append(f"{d['edges']} {'non-crossing' if d['nonCrossing'] else 'crossing'}")
    payload["result"] = result
    return 0


def _check_free(job: JobSpec, lines: list[str], payload: dict) -> int:
    cap = MODES[job.mode].cap
    if not 2 <= job.max_n <= cap:
        raise JobError(f"check-free maxN must be from 2 to {cap}, got {job.max_n}")
    lines.append(f"max-n: {job.max_n}")
    payload["maxN"] = job.max_n
    detail = []
    for n in range(2, job.max_n + 1, 2):
        for pattern in balanced_patterns(n):
            word = word_from_pattern(pattern)
            report = check_free_equivalence(word, job.state)
            tokens = format_pattern(pattern)
            status = "ok" if report.equal else "MISMATCH"
            lines.append(f"{status} {tokens}")
            entry = {"pattern": tokens, "equal": report.equal}
            detail.append(entry)
            if not report.equal:
                entry["onlyDiagram"] = list(report.only_diagram)
                entry["onlyFree"] = list(report.only_free)
                for t in report.only_diagram:
                    lines.append(f"  only diagram path: {t}")
                for t in report.only_free:
                    lines.append(f"  only free path:    {t}")
    mismatches = sum(not d["equal"] for d in detail)
    lines.append(f"checked: {len(detail)}  mismatches: {mismatches}")
    payload["result"] = {
        "checked": len(detail),
        "mismatches": mismatches,
        "patterns": detail,
    }
    return 0 if mismatches == 0 else 1


def _quadrature(job: JobSpec, lines: list[str], payload: dict) -> int:
    results = quadmod.quadrature_sweep()
    rows = quadmod.sweep_csv_rows(results)
    lines.extend(rows)
    errors = [r.abs_error for r in results]
    converging = all(b < a for a, b in zip(errors, errors[1:]))
    lines.append(f"converging: {'yes' if converging else 'no'}")
    payload["result"] = {
        "rows": [
            {
                "lambda": r.lam,
                "real": r.value.real,
                "imag": r.value.imag,
                "absError": r.abs_error,
            }
            for r in results
        ],
        "converging": converging,
    }
    if job.csv_path:
        try:
            with open(job.csv_path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(rows) + "\n")
        except OSError as err:
            raise JobError(f"cannot write csv file {job.csv_path}: {err.strerror}") from None
        lines.append(f"csv written: {job.csv_path}")
    return 0 if converging else 1


def _qdef(word: OperatorWord, state: StateSpec) -> ScalarSum:  # the Fock oracle takes no state
    return qdef_normal_order(word)


class Mode(NamedTuple):
    report: Callable[[JobSpec, list[str], dict], int]  # appends lines and payload; the exit code
    cap: int  # the most letters of its word; for check-free, the largest --max-n
    states: tuple[str, ...] = STATES
    needs_word: bool = True


# In --mode order.  The limit side runs in time proportional to its Catalan-many
# terms, the others have (N/2)! terms or rewrite nodes.  Evaluators look their
# function up when called, so wrappers set on module names (bench/layers.py) see it.
MODES = {
    "finite": Mode(_sums(lambda w, s: finite_lambda_correlator(w, s), _qdef), 12),
    "limit": Mode(_sums(lambda w, s: limit_correlator(w, s)), 16),
    "free": Mode(_sums(lambda w, s: free_correlator(w, s)), 16),
    "oracle-fock": Mode(_sums(_qdef, lambda w, s: finite_lambda_correlator(w, s)), 12, ("fock",)),
    "oracle-double": Mode(
        _sums(lambda w, s: doubled_normal_order(w, s)), 12, ("gaussian", "temperature")
    ),
    "check-free": Mode(_check_free, 16, needs_word=False),
    "diagrams": Mode(_diagrams, 12),
    "quadrature": Mode(_quadrature, 12, needs_word=False),
}


def run(job: JobSpec) -> tuple[list[str], dict, int]:
    lines = [f"mode: {job.mode}"]
    payload: dict = {"schemaVersion": SCHEMA_VERSION, "mode": job.mode}
    if job.word is not None:
        tokens = format_pattern(job.word.pattern)
        lines.append(f"pattern: {tokens}")
        payload["pattern"] = tokens
    lines.append(f"state: {job.state.kind}")
    payload["state"] = job.state.kind
    return lines, payload, MODES[job.mode].report(job, lines, payload)


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stochlim",
        description="correlators of entangled operators and their weak-coupling limit",
    )
    p.add_argument("--pattern", help="whitespace tokens: 'a' annihilation, 'a+' creation")
    p.add_argument("--state", choices=STATES, default="fock")
    p.add_argument("--beta", type=float, help="inverse temperature")
    p.add_argument("--mode", choices=list(MODES), default="finite")
    p.add_argument("--max-n", type=int, default=6, help="sweep bound for check-free")
    p.add_argument("--numeric", metavar="FILE", help="JSON numeric assignment")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--csv", metavar="PATH", help="CSV output for quadrature sweeps")
    p.add_argument("--seed", type=int, help="seed for a random numeric assignment")
    p.add_argument("--job", metavar="FILE", help="JSON job description")
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        job = build_job(args)
        lines, payload, code = run(job)
    except (JobError, PatternError, ValueError) as err:
        parser.exit(2, f"error: {err}\n")
    if job.as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
    return code


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so the flush at exit
        # cannot fail again, and exit as a process killed by SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    entry()
