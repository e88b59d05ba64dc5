"""Single-factor mutants: a one-line fault in one path's scalar, applied by
monkeypatching one module-level helper, must make a row of the
specification (`rewriting.EQUALITIES`) report a mismatch on the balanced
patterns up to N=8, where `test_paths_agree` sees none unmutated.

Three rows are swept: in the Gaussian state `finite` against the doubled
rewriting oracle and `limit` against the free master field, and in the
Fock state `finite` against the deformed rewriting oracle.  `MUTANTS`
lists, per fault, the rows that see it.  A fault in
`correlator` reaches both diagram sums, since they read one per-edge table,
so each row sees it through its independent side; a fault in
`masterfield` reaches the free path alone, and one in `oracle` its own
rewriting oracle alone.  Every path builds its energies with
`symbols.dispersion`, so a fault inside it reaches both sides of every row
and no row can see it; each module's call of it is mutated instead.
"""

import pytest

from stochlim import correlator, masterfield, oracle, symbols
from stochlim.scalars import MFactor

from rewriting import positional_words, sweep


def _flip_occupation(factors):
    """N(k)+1 written as N(k) and N(k) as N(k)+1."""
    return [f._replace(offset=1 - f.offset) if isinstance(f, MFactor) else f for f in factors]


def edges_occupation(monkeypatch):
    """`correlator._edges`: the occupation offset of every edge flipped."""
    edges = correlator._edges

    def mutant(letters, fock):
        table = edges(letters, fock)

        def edge(e):
            k, energy, time, own = table(e)
            return k, energy, time, tuple(_flip_occupation(own))

        return edge

    monkeypatch.setattr(correlator, "_edges", mutant)


def edge_energy_shift(monkeypatch):
    """`correlator._edge_energy`: the enclosing edges' shift with its sign
    flipped."""

    def mutant(table, edge, enclosing):
        k, energy, _, _ = table(edge)
        if not enclosing:
            return energy
        return symbols.dispersion(k, edge.delta, [(table(o)[0], -o.delta) for o in enclosing])

    monkeypatch.setattr(correlator, "_edge_energy", mutant)


def contract_occupation(monkeypatch):
    """`masterfield._contract`: the occupation weight of each contraction
    flipped, N+1 for species 2 and N for species 1."""
    contract = masterfield._contract

    def mutant(ann, cre, passed, fock):
        return _flip_occupation(contract(ann, cre, passed, fock))

    monkeypatch.setattr(masterfield, "_contract", mutant)


def pass_shift(monkeypatch):
    """`masterfield._PASS_SHIFT`: passing b1 shifts p by -k instead of +k."""
    monkeypatch.setitem(masterfield._PASS_SHIFT, (1, False), -1)


def bogoliubov_offset(monkeypatch):
    """`oracle._OFFSET`: the doubled oracle's weights swapped, N for species
    1 and N+1 for species 2."""
    monkeypatch.setattr(oracle, "_OFFSET", {1: 0, 2: 1})


def qdef_swap_sign(monkeypatch):
    """`oracle._qdef_step`: the swap exponent's energy negated, k.k' for
    -k.k'."""
    step = oracle._qdef_step

    def mutant(letters, i, collected):
        (swap, swapped), contraction = step(letters, i, collected)
        *kept, phase = swap
        return ((*kept, phase._replace(energy=-phase.energy)), swapped), contraction

    monkeypatch.setattr(oracle, "_qdef_step", mutant)


def _flipped_dispersion(k, sign, shifts=()):
    """`symbols.dispersion` with the sign of its k.k term flipped."""
    return symbols.dispersion(k, -sign, shifts)


def correlator_dispersion_sign(monkeypatch):
    """`correlator.dispersion`: every edge energy's k.k sign flipped."""
    monkeypatch.setattr(correlator, "dispersion", _flipped_dispersion)


def masterfield_dispersion_sign(monkeypatch):
    """`masterfield.dispersion`: every contraction energy's k.k sign flipped."""
    monkeypatch.setattr(masterfield, "dispersion", _flipped_dispersion)


def oracle_dispersion_sign(monkeypatch):
    """`oracle.dispersion`: the k.k sign of every letter's own energy flipped,
    in both rewriting oracles."""
    monkeypatch.setattr(oracle, "dispersion", _flipped_dispersion)


MUTANTS = {
    edges_occupation: ("finite=doubled-gaussian", "limit=free-gaussian"),
    edge_energy_shift: ("finite=doubled-gaussian", "limit=free-gaussian"),
    contract_occupation: ("limit=free-gaussian",),
    pass_shift: ("limit=free-gaussian",),
    bogoliubov_offset: ("finite=doubled-gaussian",),
    qdef_swap_sign: ("finite=qdef-fock",),
    correlator_dispersion_sign: (
        "finite=doubled-gaussian",
        "limit=free-gaussian",
        "finite=qdef-fock",
    ),
    masterfield_dispersion_sign: ("limit=free-gaussian",),
    oracle_dispersion_sign: ("finite=doubled-gaussian", "finite=qdef-fock"),
}


# ids name the row without its state: edges_occupation-finite_vs_doubled
@pytest.mark.parametrize(
    "mutant,row",
    [
        pytest.param(mutant, row, id=f"{mutant.__name__}-{row.split('-')[0].replace('=', '_vs_')}")
        for mutant, rows in MUTANTS.items()
        for row in rows
    ],
)
def test_sweep_reports_the_mutant(monkeypatch, mutant, row):
    mutant(monkeypatch)
    assert sweep([row], positional_words(8)) > 0
