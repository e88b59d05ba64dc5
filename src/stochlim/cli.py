"""Command line driver.

Computes correlators of entangled creation/annihilation words, their
weak-coupling limit, the free master-field value, oracle recomputations,
diagram statistics and the oscillation-limit quadrature sweep.  Reports
are deterministic: the same job always produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

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
)
from .scalars import ScalarSum
from .symbols import TimeLabel, WaveLabel
from .words import (
    Letter,
    OperatorWord,
    PatternError,
    balanced_patterns,
    parse_pattern,
    word_from_pattern,
)

__all__ = ["main", "entry", "JobSpec"]

SCHEMA_VERSION = 1
JOB_KEYS = ("schemaVersion", "mode", "state", "beta", "pattern", "maxN")
# Every mode and the most letters its word may have; for check-free, the
# largest --max-n.  The limit side runs in time proportional to its
# Catalan-many terms; the other modes have (N/2)! terms or rewrite nodes.
MAX_LETTERS = {
    "finite": 12,
    "limit": 16,
    "free": 16,
    "oracle-fock": 12,
    "oracle-double": 12,
    "check-free": 16,
    "diagrams": 12,
    "quadrature": 12,
}
MODES = tuple(MAX_LETTERS)


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
    """value converted by kind (int or float); a JobError naming what if
    it is not a number.  JSON true and false are not numbers."""
    if not isinstance(value, bool):
        try:
            return kind(value)
        except (TypeError, ValueError):
            pass
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


def _word_from_job(pattern_entries) -> OperatorWord:
    if not isinstance(pattern_entries, list):
        raise JobError("job 'pattern' must be a list of letters")
    letters = []
    for i, entry in enumerate(pattern_entries, start=1):
        if isinstance(entry, str):
            eps = -1 if entry == "a" else 1 if entry == "a+" else None
            if eps is None:
                raise PatternError(f"expected 'a' or 'a+', got {entry!r}", i)
            letters.append(Letter(eps, TimeLabel(f"t{i}"), WaveLabel(f"k{i}")))
        else:
            if not isinstance(entry, dict):
                raise PatternError(f"expected 'a', 'a+' or an object, got {entry!r}", i)
            missing = [key for key in ("eps", "time", "wave") if key not in entry]
            if missing:
                raise PatternError(f"letter object lacks {', '.join(missing)}", i)
            if not all(isinstance(entry[key], str) and entry[key] for key in ("time", "wave")):
                raise PatternError("letter time and wave must be strings, not empty", i)
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


def _load_numeric(path: str) -> Assignment:
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
    return Assignment(
        lam=_as(float, data["lambda"], f"numeric file {path}: lambda"),
        times=numbers("times"),
        omega=numbers("omega"),
        dot=dots,
        dot_p=numbers("dotP"),
        occupation=numbers("occupation"),
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
    if mode not in MODES:
        raise JobError(f"unknown mode {mode!r}")
    cap = MAX_LETTERS[mode]
    if word is not None and len(word) > cap:
        raise JobError(f"pattern longer than the maximum of {cap} letters for mode {mode}")
    if mode == "check-free" and not 2 <= max_n <= cap:
        raise JobError(f"check-free maxN must be from 2 to {cap}, got {max_n}")
    if mode == "oracle-fock" and state.kind != "fock":
        raise JobError("oracle-fock requires --state fock")
    if mode == "oracle-double" and state.kind == "fock":
        raise JobError("oracle-double requires a gaussian or temperature state")
    if mode in ("finite", "limit", "free", "oracle-fock", "oracle-double", "diagrams"):
        if word is None:
            raise JobError(f"mode {mode} needs --pattern")
    numeric = _load_numeric(args.numeric) if args.numeric else None
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


def _sum_result(job: JobSpec, value: ScalarSum, lines: list[str], payload: dict) -> None:
    lines.append("result:")
    lines.append(value.render())
    payload["result"] = {"sum": value.to_json(), "rendered": value.render()}
    assign = job.numeric
    if assign is None and job.seed is not None:
        pool = [value]
        dual = None
        if job.mode in ("finite", "oracle-fock") and job.state.kind == "fock":
            dual = (
                qdef_normal_order(job.word)
                if job.mode == "finite"
                else finite_lambda_correlator(job.word, job.state)
            )
            pool.append(dual)
        assign = random_assignment(pool, random.Random(job.seed), job.state)
        if dual is not None:
            v1 = numeric_eval(value, assign)
            v2 = numeric_eval(dual, assign)
            lines.append(f"numeric (seed={job.seed}): {v1.real:.12e}{v1.imag:+.12e}j")
            lines.append(f"numeric (dual path):     {v2.real:.12e}{v2.imag:+.12e}j")
            lines.append(f"|difference| = {abs(v1 - v2):.3e}")
            payload["numeric"] = {
                "seed": job.seed,
                "value": [v1.real, v1.imag],
                "dual": [v2.real, v2.imag],
                "difference": abs(v1 - v2),
            }
            return
    if assign is not None:
        try:
            v = numeric_eval(value, assign)
        except UnassignedSymbolError as err:
            if job.numeric is None:
                raise  # a random assignment covers every symbol it is given
            raise JobError(f"numeric file: {err}") from None
        lines.append(f"numeric: {v.real:.12e}{v.imag:+.12e}j")
        payload["numeric"] = {"value": [v.real, v.imag]}


def run(job: JobSpec) -> tuple[list[str], dict, int]:
    lines = [f"mode: {job.mode}"]
    payload: dict = {"schemaVersion": SCHEMA_VERSION, "mode": job.mode}
    if job.word is not None:
        tokens = " ".join("a" if e == -1 else "a+" for e in job.word.pattern)
        lines.append(f"pattern: {tokens}")
        payload["pattern"] = tokens
    lines.append(f"state: {job.state.kind}")
    payload["state"] = job.state.kind
    code = 0

    if job.mode == "finite":
        _sum_result(job, finite_lambda_correlator(job.word, job.state), lines, payload)
    elif job.mode == "limit":
        _sum_result(job, limit_correlator(job.word, job.state), lines, payload)
    elif job.mode == "free":
        _sum_result(job, free_correlator(job.word, job.state), lines, payload)
    elif job.mode == "oracle-fock":
        _sum_result(job, qdef_normal_order(job.word), lines, payload)
    elif job.mode == "oracle-double":
        _sum_result(job, doubled_normal_order(job.word, job.state), lines, payload)
    elif job.mode == "diagrams":
        pattern = job.word.pattern
        diagrams = enumerate_pairings(pattern)
        lines.append(f"pairings: {len(diagrams)}")
        lines.append(f"non-crossing: {count_non_crossing(pattern)}")
        lines.append(f"fock-surviving: {count_fock_surviving(pattern)}")
        detail = []
        for d in diagrams:
            tag = "non-crossing" if is_non_crossing(d) else "crossing"
            lines.append(f"{d} {tag}")
            detail.append({"edges": str(d), "nonCrossing": is_non_crossing(d)})
        payload["result"] = {
            "pairings": len(diagrams),
            "nonCrossing": count_non_crossing(pattern),
            "fockSurviving": count_fock_surviving(pattern),
            "diagrams": detail,
        }
    elif job.mode == "check-free":
        lines.append(f"max-n: {job.max_n}")
        payload["maxN"] = job.max_n
        mismatches = 0
        checked = 0
        detail = []
        for n in range(2, job.max_n + 1, 2):
            for pattern in balanced_patterns(n):
                word = word_from_pattern(pattern)
                report = check_free_equivalence(word, job.state)
                checked += 1
                tokens = " ".join("a" if e == -1 else "a+" for e in pattern)
                status = "ok" if report.equal else "MISMATCH"
                lines.append(f"{status} {tokens}")
                detail.append({"pattern": tokens, "equal": report.equal})
                if not report.equal:
                    mismatches += 1
                    for t in report.only_diagram:
                        lines.append(f"  only diagram path: {t}")
                    for t in report.only_free:
                        lines.append(f"  only free path:    {t}")
        lines.append(f"checked: {checked}  mismatches: {mismatches}")
        payload["result"] = {
            "checked": checked,
            "mismatches": mismatches,
            "patterns": detail,
        }
        code = 0 if mismatches == 0 else 1
    elif job.mode == "quadrature":
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
            with open(job.csv_path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(rows) + "\n")
            lines.append(f"csv written: {job.csv_path}")
        code = 0 if converging else 1
    return lines, payload, code


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stochlim",
        description="correlators of entangled operators and their weak-coupling limit",
    )
    p.add_argument("--pattern", help="whitespace tokens: 'a' annihilation, 'a+' creation")
    p.add_argument(
        "--state", choices=["fock", "gaussian", "temperature"], default="fock"
    )
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
    sys.exit(main())


if __name__ == "__main__":
    entry()
