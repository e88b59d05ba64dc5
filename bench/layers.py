"""Per-layer tracing from outside the program.

Wraps the public functions and methods of each stochlim module listed in
POINTS, in every stochlim module namespace that holds them, and records
for each wrapped call its self time (its span minus the spans of wrapped
calls inside it), its call count, and a few work counts.  Spans (id,
name, start, end, parent) are kept in memory for the coarse points and
written out at the end; the hottest points (HOT) feed the sums only,
since a record per call would cost more than the call.  A name that a
later version of the program no longer has is listed in `absent`.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Callable

# module -> wrapped names: module-level functions, or Class.attr for
# methods, classmethods, staticmethods and properties.  `words` is left
# out: it only parses patterns, in microseconds per job.
POINTS = {
    "symbols": (
        "TimeLabel.sort_key",
        "WaveLabel.sort_key",
        "TimeComb.sort_key",
        "EnergyComb.sort_key",
        "TimeComb.make",
        "EnergyComb.make",
        "omega",
        "dot",
        "dot_p",
        "shift_p",
    ),
    "scalars": (
        "Monomial.build",
        "Monomial.__mul__",
        "ScalarSum.from_iter",
        "ScalarSum.render",
        "ScalarSum.to_json",
        "ScalarSum.from_json",
        "multiply",
        "q_factor",
        "apply_momentum_deltas",
    ),
    "diagrams": (
        "classify",
        "enumerate_pairings",
        "is_non_crossing",
        "count_non_crossing",
        "count_fock_surviving",
    ),
    "correlator": (
        "apply_state",
        "pairing_factor",
        "finite_lambda_correlator",
        "take_limit",
        "limit_correlator",
    ),
    "masterfield": (
        "expand_master_word",
        "free_correlator",
        "check_free_equivalence",
        "bosonic_double_check",
    ),
    "oracle": (
        "qdef_normal_order",
        "reorder_annihilators",
        "doubled_normal_order",
        "numeric_eval",
        "random_assignment",
    ),
    "quadrature": ("oscillation_quadrature", "quadrature_sweep", "sweep_csv_rows"),
    "cli": ("main",),
}

_SORT_KEYS = tuple(
    f"symbols.{c}.sort_key" for c in ("TimeLabel", "WaveLabel", "TimeComb", "EnergyComb")
)
HOT = frozenset(
    _SORT_KEYS
    + (
        "symbols.TimeComb.make",
        "symbols.EnergyComb.make",
        "symbols.omega",
        "symbols.dot",
        "symbols.dot_p",
        "symbols.shift_p",
        "scalars.Monomial.build",
        "scalars.Monomial.__mul__",
        "diagrams.classify",
        "diagrams.is_non_crossing",
    )
)
MAX_SPANS = 200_000

# Per-layer metrics: (name, unit, kind, sources).  Kinds: "self" sums the
# self time of the sources, "calls" their call counts, "count" a work
# counter, "ratio" counter[0] / counter[1].  Times and counts are per job.
LAYER_METRICS = (
    ("symbols.sort_key_s", "s/job", "self", _SORT_KEYS),
    ("symbols.sort_key_calls", "count/job", "calls", _SORT_KEYS),
    ("symbols.comb_make_s", "s/job", "self", ("symbols.TimeComb.make", "symbols.EnergyComb.make")),
    ("symbols.shift_p_calls", "count/job", "calls", ("symbols.shift_p",)),
    ("scalars.build_s", "s/job", "self", ("scalars.Monomial.build",)),
    ("scalars.build_calls", "count/job", "calls", ("scalars.Monomial.build",)),
    ("scalars.mul_s", "s/job", "self", ("scalars.Monomial.__mul__",)),
    ("scalars.mul_calls", "count/job", "calls", ("scalars.Monomial.__mul__",)),
    ("scalars.from_iter_s", "s/job", "self", ("scalars.ScalarSum.from_iter",)),
    ("scalars.from_iter_in", "count/job", "count", ("from_iter_in",)),
    ("scalars.merge_yield", "ratio", "ratio", ("from_iter_out", "from_iter_in")),
    ("scalars.unify_s", "s/job", "self", ("scalars.apply_momentum_deltas",)),
    ("scalars.render_s", "s/job", "self", ("scalars.ScalarSum.render", "scalars.ScalarSum.to_json")),
    ("diagrams.enumerate_s", "s/job", "self", ("diagrams.enumerate_pairings",)),
    ("diagrams.pairings", "count/job", "count", ("pairings",)),
    ("diagrams.classify_calls", "count/job", "calls", ("diagrams.classify",)),
    ("diagrams.classify_s", "s/job", "self", ("diagrams.classify",)),
    ("diagrams.noncrossing_yield", "ratio", "ratio", ("nc_kept", "nc_tested")),
    ("correlator.finite_s", "s/job", "self", ("correlator.finite_lambda_correlator",)),
    ("correlator.apply_state_s", "s/job", "self", ("correlator.apply_state",)),
    ("correlator.take_limit_s", "s/job", "self", ("correlator.take_limit",)),
    ("correlator.limit_s", "s/job", "self", ("correlator.limit_correlator",)),
    ("masterfield.free_s", "s/job", "self", ("masterfield.free_correlator", "masterfield.expand_master_word")),
    ("oracle.qdef_s", "s/job", "self", ("oracle.qdef_normal_order",)),
    ("oracle.double_s", "s/job", "self", ("oracle.doubled_normal_order",)),
    ("oracle.numeric_s", "s/job", "self", ("oracle.numeric_eval", "oracle.random_assignment")),
    ("quadrature.sweep_s", "s/job", "self", (
        "quadrature.quadrature_sweep", "quadrature.oscillation_quadrature", "quadrature.sweep_csv_rows",
    )),
    ("quadrature.integrand_evals", "count/job", "count", ("integrand_evals",)),
    ("cli.self_s", "s/job", "self", ("cli.main",)),
)


def _materialize(args: tuple) -> tuple:
    # from_iter(cls, monomials): build the list before the span opens, so
    # the generator's own work stays with the caller that wrote it
    return (args[0], list(args[1])) + args[2:]


def _count_merge(counts: Counter, args: tuple, result) -> None:
    counts["from_iter_in"] += len(args[1])
    counts["from_iter_out"] += len(result.terms)


def _count_pairings(counts: Counter, args: tuple, result) -> None:
    counts["pairings"] += len(result)


def _count_noncrossing(counts: Counter, args: tuple, result) -> None:
    counts["nc_tested"] += 1
    counts["nc_kept"] += bool(result)


HOOKS = {
    "scalars.ScalarSum.from_iter": (_materialize, _count_merge),
    "diagrams.enumerate_pairings": (None, _count_pairings),
    "diagrams.is_non_crossing": (None, _count_noncrossing),
}


class Tracer:
    """Self times, call counts and work counts of the wrapped points,
    gathered only while `active` is true."""

    def __init__(self) -> None:
        self.active = False
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.spans_dropped = 0
        self.absent: list[str] = []
        self._stack: list[list] = []  # [child seconds, nearest recorded span id]
        self._next_id = 1
        self._undo: list[Callable[[], None]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        prepare, observe = HOOKS.get(name, (None, None))
        record = name not in HOT
        tracer = self
        stack = self._stack
        self_s, calls, counts, spans = self.self_s, self.calls, self.counts, self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if prepare is not None:
                args = prepare(args)
            parent = stack[-1][1] if stack else 0
            span_id = parent
            if record:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                elapsed = t1 - t0
                self_s[name] += elapsed - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
                if record:
                    if len(spans) < MAX_SPANS:
                        spans.append((span_id, name, t0, t1, parent))
                    else:
                        tracer.spans_dropped += 1
            if observe is not None:
                observe(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _patch_function(self, mod_name: str, attr: str) -> bool:
        module = sys.modules[f"stochlim.{mod_name}"]
        original = getattr(module, attr, None)
        if not callable(original):
            return False
        wrapper = self._wrap(f"{mod_name}.{attr}", original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "stochlim" or name.startswith("stochlim.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append(lambda m=mod, k=key: setattr(m, k, original))
        return True

    def _patch_member(self, mod_name: str, cls_name: str, attr: str) -> bool:
        cls = getattr(sys.modules[f"stochlim.{mod_name}"], cls_name, None)
        raw = None if cls is None else cls.__dict__.get(attr)
        name = f"{mod_name}.{cls_name}.{attr}"
        if isinstance(raw, property):
            new = property(self._wrap(name, raw.fget))
        elif isinstance(raw, classmethod):
            new = classmethod(self._wrap(name, raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self._wrap(name, raw.__func__))
        elif callable(raw):
            new = self._wrap(name, raw)
        else:
            return False
        setattr(cls, attr, new)
        self._undo.append(lambda: setattr(cls, attr, raw))
        return True

    def _patch_integrands(self) -> None:
        module = sys.modules.get("stochlim.quadrature")
        table = getattr(module, "TEST_FUNCTIONS", None)
        if not isinstance(table, dict):
            self.absent.append("quadrature.TEST_FUNCTIONS")
            return
        tracer, counts = self, self.counts
        for key, fn in list(table.items()):
            def counted(*args, _fn=fn):
                if tracer.active:
                    counts["integrand_evals"] += 1
                return _fn(*args)

            table[key] = counted
            self._undo.append(lambda k=key, f=fn: table.__setitem__(k, f))

    def install(self) -> None:
        """Import the modules of POINTS and wrap every point."""
        for mod_name, names in POINTS.items():
            try:
                importlib.import_module(f"stochlim.{mod_name}")
            except ImportError:
                self.absent.append(f"stochlim.{mod_name}")
                continue
            for qualified in names:
                if "." in qualified:
                    ok = self._patch_member(mod_name, *qualified.split(".", 1))
                else:
                    ok = self._patch_function(mod_name, qualified)
                if not ok:
                    self.absent.append(f"{mod_name}.{qualified}")
        self._patch_integrands()

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reading ----------------------------------------------------------

    def collect(self) -> tuple[dict, dict, dict]:
        """Take and clear the self times, calls and counts gathered so far."""
        out = (dict(self.self_s), dict(self.calls), dict(self.counts))
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        return out


class LayerTotals:
    """Per-job self times (rescaled with the job's clock factor), calls and
    counts summed over the traced jobs of a run."""

    def __init__(self) -> None:
        self.jobs = 0
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def add(self, collected: tuple[dict, dict, dict], factor: float) -> None:
        self_s, calls, counts = collected
        self.jobs += 1
        for name, seconds in self_s.items():
            self.self_s[name] += seconds * factor
        self.calls.update(calls)
        self.counts.update(counts)

    def metrics(self) -> dict[str, dict]:
        """Every LAYER_METRICS entry; one whose sources the program lacks
        reads 0 (the tracer lists them in `absent`)."""
        jobs = max(self.jobs, 1)
        out = {}
        for name, unit, kind, sources in LAYER_METRICS:
            if kind == "self":
                value = sum(self.self_s[s] for s in sources) / jobs
            elif kind == "calls":
                value = sum(self.calls[s] for s in sources) / jobs
            elif kind == "count":
                value = self.counts[sources[0]] / jobs
            else:
                den = self.counts[sources[1]]
                value = self.counts[sources[0]] / den if den else 0.0
            out[name] = {"value": value, "unit": unit}
        return out


def span_records(tracer: Tracer) -> list[list]:
    """Spans as [id, name, start, end, parent], times from the earliest start."""
    base = min((s for _, _, s, _, _ in tracer.spans), default=0.0)
    return [[i, n, s - base, e - base, p] for i, n, s, e, p in tracer.spans]
