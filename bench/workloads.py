"""Job lists, job bodies and output checks of the three workloads.

Nothing here imports stochlim: the library module is passed in as `lib`,
so the `cli` workload can time its subprocesses before the library is
loaded into its own process.  Every check compares a job's output with a
computation that does not share the path under test, or with a property
the method must have; none compares with a stored copy of an output.
A check returns the list of problems it found; an empty list passes.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional

WORKLOADS = ("exact", "limit", "cli")

# One round is 32 jobs in every workload, and job_s.tail is p68 on every
# workload: the highest percentile with at least ten jobs of a round
# beyond it.  Fixed, so the figure means the same thing when a faster
# program fits more rounds into a run.
ROUND_JOBS = 32
TAIL_PERCENTILE = 68

EXACT_LENGTH = 8
LIMIT_LENGTH = 10

# A small fixed warm-up job per workload, the same for every seed, so
# that setup_s does not depend on the seed.
WARMUP_PATTERN = {"exact": (-1, -1, 1, 1), "limit": (-1, 1, -1, 1)}
CLI_WARMUP_ARGV = ("--pattern", "a a+")

# Relative tolerance of the numeric dual-path comparison.
NUMERIC_RTOL = 1e-9


# --- independent combinatorics -------------------------------------------


def balanced(length: int) -> list[tuple[int, ...]]:
    """Every sign pattern of the given even length with equally many
    annihilations (-1) and creations (+1), in lexicographic order of the
    creation positions."""
    out = []
    for creations in combinations(range(length), length // 2):
        pattern = [-1] * length
        for i in creations:
            pattern[i] = 1
        out.append(tuple(pattern))
    return out


@lru_cache(maxsize=None)
def non_crossing(pattern: tuple[int, ...]) -> int:
    """Non-crossing pairings of creations with annihilations: the first
    letter pairs with an opposite letter j whose inside is balanced, and
    inside and outside are counted on their own (Catalan recursion)."""
    if not pattern:
        return 1
    total = 0
    depth = 0
    for j in range(1, len(pattern)):
        if pattern[j] == -pattern[0] and depth == 0:
            total += non_crossing(pattern[1:j]) * non_crossing(pattern[j + 1 :])
        depth += pattern[j]
    return total


def pairings(pattern: tuple[int, ...]) -> int:
    """All pairings of a balanced pattern: (N/2)!."""
    return math.factorial(len(pattern) // 2)


def fock_surviving(pattern: tuple[int, ...]) -> int:
    """Pairings in which every creation follows its annihilation: scanning
    left to right, each creation picks one of the annihilations still open."""
    total, open_ann = 1, 0
    for eps in pattern:
        if eps == -1:
            open_ann += 1
        else:
            total *= open_ann
            open_ann -= 1
    return total


def tokens(pattern: tuple[int, ...]) -> str:
    return " ".join("a" if eps == -1 else "a+" for eps in pattern)


# --- exact -----------------------------------------------------------------


def species_steps(pattern: tuple[int, ...]) -> int:
    """Contractions made when each of the 2^N species branches of the
    master-field word (b = b1 + b2+) is reduced leftmost-first until it
    is empty or stuck, counted on signs and species alone.  A proxy for
    the work of the free path: over the 252 patterns of length 10 it
    correlates 0.93 with measured `limit` job time, the output size 0.85.

    Leftmost-first reduction contracts a pair as soon as it becomes
    adjacent, so a left-to-right scan with a stack makes the same
    contractions; branches that share a stack are counted together."""
    n = len(pattern)
    states: dict[tuple, tuple[int, int]] = {(): (1, 0)}  # stack -> (branches, contractions)
    total = 0
    for i, eps in enumerate(pattern):
        following: dict[tuple, tuple[int, int]] = {}
        for stack, (count, steps) in states.items():
            for species in (1, 2):
                dag = (species == 2) != (eps == 1)
                if dag and stack and not stack[-1][1]:
                    if stack[-1][0] != species:  # cross-species: the branch dies
                        total += steps * 2 ** (n - i - 1)
                        continue
                    new, made = stack[:-1], count
                else:
                    new, made = stack + ((species, dag),), 0
                c, s = following.get(new, (0, 0))
                following[new] = (c + count, s + steps + made)
        states = following
    return total + sum(steps for _, steps in states.values())


def stratified(patterns: list[tuple[int, ...]], seed: int, cost) -> list[tuple[int, ...]]:
    """A seeded sample of ROUND_JOBS patterns, stratified by a cost proxy:
    the patterns sorted by `cost` are cut into ROUND_JOBS consecutive
    blocks and one pattern is drawn from each, in seeded order.  Every
    seed gets nearly the same mix of cheap and dear jobs, so the seed
    moves the figures little."""
    rng = random.Random(seed)
    ordered = sorted(patterns, key=lambda p: (cost(p), p))
    bounds = [len(ordered) * i // ROUND_JOBS for i in range(ROUND_JOBS + 1)]
    sample = [rng.choice(ordered[a:b]) for a, b in zip(bounds, bounds[1:])]
    rng.shuffle(sample)
    return sample


def exact_patterns(seed: int) -> list[tuple[int, ...]]:
    """32 of the 70 balanced patterns of length 8, stratified by output size."""
    return stratified(balanced(EXACT_LENGTH), seed, non_crossing)


@dataclass
class ExactOut:
    finite_fock: object
    qdef: object
    numeric: complex
    numeric_dual: complex
    finite_gauss: object
    doubled: object
    taken: object
    direct: object


def run_exact(lib, pattern: tuple[int, ...], job_seed: int) -> ExactOut:
    word = lib.word_from_pattern(pattern)
    finite_fock = lib.finite_lambda_correlator(word, lib.FOCK)
    qdef = lib.qdef_normal_order(word)
    assign = lib.random_assignment([finite_fock, qdef], random.Random(job_seed))
    numeric = lib.numeric_eval(finite_fock, assign)
    numeric_dual = lib.numeric_eval(qdef, assign)
    finite_gauss = lib.finite_lambda_correlator(word, lib.GAUSSIAN)
    doubled = lib.doubled_normal_order(word, lib.GAUSSIAN)
    taken = lib.take_limit(finite_gauss)
    direct = lib.limit_correlator(word, lib.GAUSSIAN)
    return ExactOut(
        finite_fock, qdef, numeric, numeric_dual, finite_gauss, doubled, taken, direct
    )


def _close(a: complex, b: complex) -> bool:
    return abs(a - b) <= NUMERIC_RTOL * max(1.0, abs(a), abs(b))


def check_exact(pattern: tuple[int, ...], out: ExactOut) -> list[str]:
    problems = []
    if out.finite_fock != out.qdef:
        problems.append("finite != qdef in the Fock state")
    if not _close(out.numeric, out.numeric_dual):
        problems.append(f"numeric dual path {out.numeric} != {out.numeric_dual}")
    if out.finite_gauss != out.doubled:
        problems.append("finite != doubled in the Gaussian state")
    if out.taken != out.direct:
        problems.append("take_limit(finite) != limit_correlator")
    if len(out.direct.terms) != non_crossing(pattern):
        problems.append(
            f"{len(out.direct.terms)} limit terms, {non_crossing(pattern)} non-crossing pairings"
        )
    return problems


# --- limit -----------------------------------------------------------------


def limit_patterns(seed: int) -> list[tuple[int, ...]]:
    """32 of the 252 balanced patterns of length 10, stratified by the
    work of the free path.  Job times range from 0.1 s to 1.2 s."""
    return stratified(balanced(LIMIT_LENGTH), seed, species_steps)


def run_limit(lib, pattern: tuple[int, ...]):
    return lib.check_free_equivalence(lib.word_from_pattern(pattern), lib.GAUSSIAN)


def check_limit(lib, pattern: tuple[int, ...], report) -> list[str]:
    """The report must say equal; the term count of the limit, computed
    again here outside the timed job, must be the non-crossing count."""
    problems = []
    if not report.equal:
        problems.append("limit and free paths differ")
    terms = len(lib.limit_correlator(lib.word_from_pattern(pattern), lib.GAUSSIAN).terms)
    if terms != non_crossing(pattern):
        problems.append(f"{terms} limit terms, {non_crossing(pattern)} non-crossing pairings")
    return problems


# --- cli -------------------------------------------------------------------

SUM_MODES = ("finite", "limit", "free", "oracle-fock", "oracle-double")
# One round: per mode, the (state, size) of each job, where size is the
# word length N, or --max-n for check-free.  Fixed, so that the seed moves
# only which words are drawn and the order, not how much work a round is.
# quadrature, and the CSV it writes, are a minority.
CLI_PLAN = {
    "finite": (("fock", 4), ("gaussian", 6), ("fock", 8), ("gaussian", 8)),
    "limit": (("fock", 4), ("gaussian", 6), ("temperature", 8), ("gaussian", 8)),
    "free": (("gaussian", 4), ("fock", 6), ("temperature", 8), ("gaussian", 8)),
    "oracle-fock": (("fock", 4), ("fock", 6), ("fock", 8), ("fock", 8)),
    "oracle-double": (("gaussian", 4), ("temperature", 6), ("gaussian", 8), ("gaussian", 6)),
    "diagrams": (("fock", 4), ("fock", 6), ("fock", 8), ("fock", 8)),
    "check-free": (("fock", 4), ("gaussian", 6), ("fock", 6), ("gaussian", 4)),
    "quadrature": (("fock", 0),) * 4,
}


@dataclass(frozen=True)
class CliJob:
    index: int
    mode: str
    state: str
    as_json: bool
    pattern: Optional[tuple[int, ...]] = None
    beta: Optional[float] = None
    max_n: Optional[int] = None
    seed: Optional[int] = None
    csv: bool = False
    # explicit (time, wave) label names, passed through a --job file
    labels: Optional[tuple[tuple[str, str], ...]] = None

    def job_file(self, tmp: str) -> str:
        return f"{tmp}/job-{self.index}.json"

    def csv_file(self, tmp: str) -> str:
        return f"{tmp}/sweep-{self.index}.csv"

    def files(self, tmp: str) -> dict[str, str]:
        """Input files the job reads, written during set-up."""
        if self.labels is None:
            return {}
        data = {
            "schemaVersion": 1,
            "mode": self.mode,
            "state": self.state,
            "pattern": [
                {"eps": eps, "time": t, "wave": k}
                for eps, (t, k) in zip(self.pattern, self.labels)
            ],
        }
        if self.beta is not None:
            data["beta"] = self.beta
        return {self.job_file(tmp): json.dumps(data)}

    def argv(self, tmp: str) -> list[str]:
        if self.labels is not None:
            args = ["--job", self.job_file(tmp)]
        else:
            args = ["--mode", self.mode, "--state", self.state]
            if self.beta is not None:
                args += ["--beta", repr(self.beta)]
            if self.pattern is not None:
                args += ["--pattern", tokens(self.pattern)]
        if self.max_n is not None:
            args += ["--max-n", str(self.max_n)]
        if self.seed is not None:
            args += ["--seed", str(self.seed)]
        if self.csv:
            args += ["--csv", self.csv_file(tmp)]
        if self.as_json:
            args.append("--json")
        return args


def cli_jobs(seed: int) -> list[CliJob]:
    """The 32 jobs of CLI_PLAN (N <= 8), half with --json.  The first
    finite and oracle-fock jobs add --seed; the last job of every
    sum-valued mode goes through a --job file with arbitrary label names."""
    rng = random.Random(seed)
    specs: list[dict] = []
    for mode, slots in CLI_PLAN.items():
        for k, (state, size) in enumerate(slots):
            spec: dict = {"mode": mode, "state": state, "as_json": len(specs) % 2 == 1}
            if state == "temperature":
                spec["beta"] = rng.choice((0.5, 1.0, 2.0))
            if mode == "check-free":
                spec["max_n"] = size
            elif mode == "quadrature":
                spec["csv"] = k < 2
            else:
                spec["pattern"] = rng.choice(balanced(size))
                if mode in ("finite", "oracle-fock") and k == 0:
                    spec["seed"] = rng.randrange(1, 1000)
                elif mode in SUM_MODES and k == len(slots) - 1:
                    names = rng.sample(range(1, 100), size)
                    spec["labels"] = tuple((f"s{n}", f"q{n}") for n in names)
            specs.append(spec)
    rng.shuffle(specs)
    return [CliJob(index=i, **spec) for i, spec in enumerate(specs)]


def cli_word(lib, job: CliJob):
    if job.labels is None:
        return lib.word_from_pattern(job.pattern)
    return lib.OperatorWord.build(
        lib.Letter(eps, lib.TimeLabel(t), lib.WaveLabel(k))
        for eps, (t, k) in zip(job.pattern, job.labels)
    )


def cli_state(lib, job: CliJob):
    if job.state == "fock":
        return lib.FOCK
    if job.state == "gaussian":
        return lib.GAUSSIAN
    return lib.temperature(job.beta)


def cli_reference(lib, job: CliJob):
    """The job's sum computed by a different path than its mode uses."""
    word, state = cli_word(lib, job), cli_state(lib, job)
    if job.mode == "finite":
        if state.kind == "fock":
            return lib.qdef_normal_order(word)
        return lib.doubled_normal_order(word, state)
    if job.mode == "limit":
        return lib.free_correlator(word, state)
    if job.mode == "free":
        return lib.limit_correlator(word, state)
    return lib.finite_lambda_correlator(word, state)


def _text_result(lines: list[str]) -> str:
    start = lines.index("result:") + 1
    end = next(
        (i for i in range(start, len(lines)) if lines[i].startswith("numeric")),
        len(lines),
    )
    return "\n".join(lines[start:end])


def _text_value(lines: list[str], prefix: str) -> str:
    return next(line for line in lines if line.startswith(prefix))[len(prefix) :].strip()


def _check_sum(lib, job: CliJob, stdout: str, reference) -> list[str]:
    problems = []
    if job.as_json:
        payload = json.loads(stdout)
        value = lib.ScalarSum.from_json(payload["result"]["sum"])
        if value != reference:
            problems.append(f"{job.mode} sum differs from the reference path")
        numeric = payload.get("numeric")
        if job.seed is not None and not _close(
            complex(*numeric["value"]), complex(*numeric["dual"])
        ):
            problems.append("numeric dual path disagrees")
    else:
        lines = stdout.splitlines()
        if _text_result(lines) != reference.render():
            problems.append(f"{job.mode} rendering differs from the reference path")
        if job.seed is not None:
            diff = float(_text_value(lines, "|difference| ="))
            value = complex(_text_value(lines, f"numeric (seed={job.seed}):"))
            if diff > NUMERIC_RTOL * max(1.0, abs(value)):
                problems.append("numeric dual path disagrees")
    return problems


def _check_diagrams(job: CliJob, stdout: str) -> list[str]:
    pattern = job.pattern
    want = (pairings(pattern), non_crossing(pattern), fock_surviving(pattern))
    if job.as_json:
        result = json.loads(stdout)["result"]
        got = (result["pairings"], result["nonCrossing"], result["fockSurviving"])
        listed = len(result["diagrams"])
        kept = sum(1 for d in result["diagrams"] if d["nonCrossing"])
    else:
        lines = stdout.splitlines()
        got = tuple(
            int(_text_value(lines, f"{key}:"))
            for key in ("pairings", "non-crossing", "fock-surviving")
        )
        listed = sum(1 for line in lines if line.startswith("("))
        kept = sum(1 for line in lines if line.endswith(" non-crossing"))
    if got != want or (listed, kept) != want[:2]:
        return [f"diagram counts {got}, listed {listed}/{kept}, expected {want}"]
    return []


def _check_free_sweep(job: CliJob, stdout: str) -> list[str]:
    expected = sum(math.comb(n, n // 2) for n in range(2, job.max_n + 1, 2))
    if job.as_json:
        result = json.loads(stdout)["result"]
        got = (result["checked"], result["mismatches"])
    else:
        last = stdout.splitlines()[-1].split()
        got = (int(last[1]), int(last[3]))
    if got != (expected, 0):
        return [f"check-free (checked, mismatches) = {got}, expected ({expected}, 0)"]
    return []


def _check_quadrature(job: CliJob, stdout: str, csv_text: Optional[str]) -> list[str]:
    if job.as_json:
        rows = [(r["real"], r["imag"]) for r in json.loads(stdout)["result"]["rows"]]
    else:
        lines = stdout.splitlines()
        start = lines.index("lambda,realPart,imagPart,absError") + 1
        rows = [tuple(float(x) for x in line.split(",")[1:3]) for line in lines[start:]
                if line[:1].isdigit()]
    target = 2 * math.pi  # 2pi f(0,0) for the gaussian test function
    errors = [abs(complex(re, im) - target) for re, im in rows]
    problems = []
    if len(errors) < 2 or any(b >= a for a, b in zip(errors, errors[1:])):
        problems.append(f"quadrature errors do not decrease: {errors}")
    elif errors[-1] > 1e-3 * target:
        problems.append(f"quadrature ends {errors[-1]} from 2pi")
    if job.csv:
        csv_rows = [] if csv_text is None else csv_text.splitlines()[1:]
        got = [tuple(float(x) for x in row.split(",")[1:3]) for row in csv_rows]
        if len(got) != len(rows) or not all(
            math.isclose(a, b, rel_tol=1e-11, abs_tol=1e-300)
            for g, r in zip(got, rows) for a, b in zip(g, r)
        ):
            problems.append("CSV rows differ from the report")
    return problems


def check_cli(lib, job: CliJob, code: int, stdout: str, csv_text: Optional[str]) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    try:
        if job.mode in SUM_MODES:
            return _check_sum(lib, job, stdout, cli_reference(lib, job))
        if job.mode == "diagrams":
            return _check_diagrams(job, stdout)
        if job.mode == "check-free":
            return _check_free_sweep(job, stdout)
        return _check_quadrature(job, stdout, csv_text)
    except (ValueError, KeyError, StopIteration, IndexError, TypeError) as err:
        return [f"unreadable {job.mode} output: {err!r}"]
