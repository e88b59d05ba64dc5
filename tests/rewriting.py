"""The specification, and the rewriting helpers the tests share.

The specification is `PATHS`, every sum path by name, and `EQUALITIES`,
every equality between paths; `sweep` checks its rows on a list of words.
The tests and CI read these rather than write a path or an equality.

The helpers: the full species expansion, the free path's rewrite step,
two drivers that `words.normal_order` does not offer, a site chooser and
every reduction order, products with a monomial through the canonical
kernel, the Fock vacuum's rule N = 0 applied to a finished sum, a word's
adjoint with a sum's complex conjugate, the written-out momentum shift
`shift_p` that `symbols.dispersion` is compared against, and the sparse
elimination that `correlator._absorb` is compared against."""

from fractions import Fraction
from itertools import product

from stochlim.correlator import (
    FOCK,
    GAUSSIAN,
    LimitStructureError,
    finite_lambda_correlator,
    limit_correlator,
    take_limit,
    temperature,
)
from stochlim.masterfield import _contract, free_correlator
from stochlim.oracle import doubled_normal_order, qdef_normal_order
from stochlim.scalars import Monomial, Piece, ScalarSum, wave_representatives
from stochlim.symbols import EnergyComb, basis_to_json, dot
from stochlim.words import (
    MasterLetter,
    OperatorWord,
    balanced_patterns,
    format_pattern,
    word_from_pattern,
)

STATES = {"fock": FOCK, "gaussian": GAUSSIAN, "temperature": temperature(1.0)}

# name -> the path's value of a word: the diagram sum at finite coupling,
# its direct limit and the free master field in each state, the q-deformed
# rewriting oracle in the Fock state and the doubled one in the others
PATHS = {
    **{
        f"{name}-{kind}": lambda word, path=path, state=state: path(word, state)
        for name, path in (
            ("finite", finite_lambda_correlator),
            ("limit", limit_correlator),
            ("free", free_correlator),
        )
        for kind, state in STATES.items()
    },
    "qdef-fock": qdef_normal_order,
    "doubled-gaussian": lambda word: doubled_normal_order(word, GAUSSIAN),
    "doubled-temperature": lambda word: doubled_normal_order(word, STATES["temperature"]),
}

# row -> (left side, right side), each the name of a path or take_limit(name):
# the exact sum equals its rewriting oracle, its limit term by term the
# direct limit, and that the free master field (Nica, Speicher, Lectures on
# the Combinatorics of Free Probability, CUP 2006, lectures 2 and 12)
EQUALITIES = {
    "finite=qdef-fock": ("finite-fock", "qdef-fock"),
    "finite=doubled-gaussian": ("finite-gaussian", "doubled-gaussian"),
    "finite=doubled-temperature": ("finite-temperature", "doubled-temperature"),
    **{
        f"take_limit(finite)=limit-{kind}": (f"take_limit(finite-{kind})", f"limit-{kind}")
        for kind in STATES
    },
    **{f"limit=free-{kind}": (f"limit-{kind}", f"free-{kind}") for kind in STATES},
}


def evaluate(side: str, word, memo: dict) -> ScalarSum:
    """One side of a row on word: the path of that name, or the limit of
    the path named inside take_limit(...).  `memo` holds the word's path
    values by name, so each path is built once per word."""
    name = side.removeprefix("take_limit(").removesuffix(")")
    value = memo.get(name)
    if value is None:
        value = memo[name] = PATHS[name](word)
    return value if name == side else take_limit(value)


def positional_words(max_n: int) -> list[OperatorWord]:
    """Every balanced pattern up to max_n letters, as words labelled t1..tN, k1..kN."""
    return [word_from_pattern(p) for n in range(2, max_n + 1, 2) for p in balanced_patterns(n)]


def sweep(rows, words) -> int:
    """Check each named row of `EQUALITIES` on every word, building each
    path once per word; print `MISMATCH <row> <pattern>` for each word
    where the two sides differ and return how many did."""
    mismatches = 0
    for word in words:
        memo: dict = {}
        for row in rows:
            left, right = EQUALITIES[row]
            if evaluate(left, word, memo) != evaluate(right, word, memo):
                mismatches += 1
                print("MISMATCH", row, format_pattern(word.pattern))
    return mismatches


def _free_step(letters: tuple[MasterLetter, ...], i: int, collected: tuple):
    """The rewrite step of a free contraction at i for `words.normal_order`,
    the reference for `masterfield.free_correlator`'s walk: one branch
    extending the collected factors by the contraction's four, with the
    Gaussian weights (the walk writes three in the Fock state, where
    `vacuum` is the reference), none across species, where the product is
    the zero operator."""
    if letters[i].species != letters[i + 1].species:
        return ()
    factors = _contract(letters[i], letters[i + 1], letters[:i], fock=False)
    return ((collected + tuple(factors), letters[:i] + letters[i + 2 :]),)


def species_product(word):
    """The full 2^N species expansion of b = b1 + b2+, dead branches kept."""
    return [
        tuple(
            MasterLetter(s, l.dag if s == 1 else not l.dag, l.time, l.wave)
            for s, l in zip(species, word.letters)
        )
        for species in product((1, 2), repeat=len(word))
    ]


def normal_order_at(letters, step, choose):
    """`words.normal_order` with the rewrite site taken by choose(sites)
    from the adjacent (annihilator, creator) sites, in order."""
    done = []
    stack = [((), tuple(letters))]
    while stack:
        collected, ls = stack.pop()
        sites = [i for i in range(len(ls) - 1) if not ls[i].dag and ls[i + 1].dag]
        if sites:
            stack.extend(step(ls, choose(sites), collected))
        elif not ls:
            done.append(collected)
    return done


def reduce_all_orders(letters: tuple[MasterLetter, ...]) -> set:
    """Outcomes of every reduction order, canonicalized; confluence means
    the returned set is a singleton."""
    outcomes: set[ScalarSum] = set()
    two_pi = len(letters) // 2

    def go(ls: tuple[MasterLetter, ...], collected: tuple) -> None:
        if not ls:
            outcomes.add(ScalarSum.from_iter([Monomial.build(two_pi=two_pi, factors=collected)]))
            return
        sites = [
            i for i in range(len(ls) - 1) if not ls[i].dag and ls[i + 1].dag
        ]
        if not sites:
            outcomes.add(ScalarSum.zero())
            return
        for site in sites:
            branches = _free_step(ls, site, collected)
            if not branches:
                outcomes.add(ScalarSum.zero())
            for factors, rest in branches:
                go(rest, factors)

    go(tuple(letters), ())
    return outcomes


def times(a: Monomial, b: Monomial) -> Monomial:
    """a * b: the powers of 2pi and lam added and the two monomials' fields
    joined as two pieces by `Monomial._canonical`, each oscillation row a
    contribution with coefficient 1, unified over both monomials' deltas."""
    pieces = [_piece(a, 1), _piece(b, 1)]
    rep = wave_representatives(a.delta_k + b.delta_k)
    return Monomial._canonical(a.two_pi + b.two_pi, a.lam + b.lam, pieces, rep)


def _piece(m: Monomial, c: int) -> Piece:
    """A monomial's fields as a piece, each oscillation row a (label, c, row)
    contribution."""
    return Piece(*m[2:])._replace(osc=[(label, c, e) for label, e in m.osc])


def sum_times(s: ScalarSum, m: Monomial) -> ScalarSum:
    """Every term of s times the monomial m."""
    return ScalarSum.make((times(a, m), c) for a, c in s.terms)


def vacuum(s: ScalarSum) -> ScalarSum:
    """The Fock state applied to a sum with the Gaussian weights: N(k) = 0,
    so every term with an N(k) factor drops and each N(k)+1 becomes 1."""
    return ScalarSum.make(
        (m._replace(m_factors=()), c)
        for m, c in s.terms
        if all(off == 1 for _, off in m.m_factors)
    )


def adjoint(word: OperatorWord) -> OperatorWord:
    """W+: the word reversed, each letter's sign flipped and its labels kept."""
    return OperatorWord.build(l._replace(eps=-l.eps) for l in reversed(word))


def conjugate(s: ScalarSum) -> ScalarSum:
    """The complex conjugate of a sum: every oscillation row negated, as a
    (label, -1, row) contribution to `Monomial._canonical`.  Every other
    factor and every coefficient is real."""

    def conj(m: Monomial) -> Monomial:
        return Monomial._canonical(m.two_pi, m.lam, [_piece(m, -1)])

    return ScalarSum.make((conj(m), c) for m, c in s.terms)


def shift_p(energy: EnergyComb, shifts) -> EnergyComb:
    """Substitute p -> p + sum(sign*k_j) over the (k_j, sign) pairs of shifts,
    written out: every c*(k.p) term adds c*sign*(k.k_j) per pair, merged
    once with the energy's own terms."""
    shifts = tuple(shifts)
    if any(sign not in (1, -1) for _, sign in shifts):
        raise ValueError("shift sign must be +1 or -1")
    extra = [
        (dot(basis.waves[0], j).terms[0][0], c * sign)
        for basis, c in energy.terms
        if basis_to_json(basis)[0] == "kp"
        for j, sign in shifts
    ]
    if not extra:
        return energy
    return EnergyComb.make(list(energy.terms) + extra)


def _eliminate(quotas, rows):
    """`_absorb` by sparse exact elimination, for quotas that share time
    labels: the same answer, and raises when the quota time combinations
    are linearly dependent.

    The matrix is kept sparse, one {column: coefficient} row per time
    label, and column r pivots in row r.  Quota coefficients are ints,
    mostly +-1, so a pivot row is divided only when its pivot is not 1,
    and a Fraction appears only when it is not -1 either.
    """
    labels = sorted(
        {l for q in quotas for l in q.support} | set(rows),
        key=lambda l: l.sort_key,
    )
    index = {l: i for i, l in enumerate(labels)}
    matrix: list[dict[int, int | Fraction]] = [{} for _ in labels]
    for j, q in enumerate(quotas):
        for l, c in q.terms:
            matrix[index[l]][j] = c
    rhs = [rows.get(l, EnergyComb.zero()) for l in labels]
    n = len(quotas)
    for r in range(n):
        pivot = next((i for i in range(r, len(labels)) if r in matrix[i]), None)
        if pivot is None:
            raise LimitStructureError("pairing quotas are linearly dependent")
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        rhs[r], rhs[pivot] = rhs[pivot], rhs[r]
        piv = matrix[r][r]
        if piv != 1:
            inv = -1 if piv == -1 else 1 / Fraction(piv)
            matrix[r] = {j: c * inv for j, c in matrix[r].items()}
            rhs[r] = rhs[r].scale(inv)
        row = matrix[r]
        for i, target in enumerate(matrix):
            f = target.get(r)
            if f is None or i == r:
                continue
            for j, c in row.items():
                v = target.get(j, 0) - f * c
                if v:
                    target[j] = v
                else:
                    del target[j]
            rhs[i] = rhs[i] + rhs[r].scale(-f)
    if any(not e.is_zero for e in rhs[n:]):
        return None
    return rhs[:n]
