"""Byte-identical canonical output against committed digests.

Every entry of tests/golden/digests.txt is the sha256 of a computed sum's
`render()`, a newline, and `json.dumps(to_json(), sort_keys=True)`, for
one (path, pattern) pair.  A change to the canonical-form kernel must
leave every digest unchanged; the file is never rewritten by the tests.
"""

import hashlib
import json
from pathlib import Path

import pytest

from stochlim.words import balanced_patterns, format_pattern, word_from_pattern

from rewriting import PATHS

DIGESTS = Path(__file__).parent / "golden" / "digests.txt"

# the paths of the digest file, in its order
NAMES = [f"{path}-{state}" for path in ("finite", "limit", "free") for state in ("fock", "gaussian")]
NAMES += ["qdef-fock", "doubled-gaussian"]

EIGHT_LETTER = [
    (-1, 1) * 4,
    (-1,) * 4 + (1,) * 4,
    (-1, -1, 1, -1, 1, 1, -1, 1),
    (-1, -1, 1, 1, -1, -1, 1, 1),
]


def cases() -> list[tuple[str, tuple[int, ...]]]:
    """(path, pattern) pairs in file order: every balanced pattern up to
    six letters and four eight-letter ones through every path, then every
    eight-letter pattern through both limit paths."""
    small = [p for n in (2, 4, 6) for p in balanced_patterns(n)] + EIGHT_LETTER
    out = [(path, p) for p in small for path in NAMES]
    out += [
        (path, p)
        for p in balanced_patterns(8)
        for path in ("limit-fock", "limit-gaussian")
        if p not in EIGHT_LETTER
    ]
    return out


def digest(value) -> str:
    text = value.render() + "\n" + json.dumps(value.to_json(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def read_digests() -> dict[tuple[str, str], str]:
    out = {}
    for line in DIGESTS.read_text().splitlines():
        path, pattern, sha = line.split("\t")
        out[(path, pattern)] = sha
    return out


def test_digest_file_covers_every_case():
    expected = [(path, format_pattern(p)) for path, p in cases()]
    assert list(read_digests()) == expected
    assert len(expected) == 388


@pytest.mark.parametrize("path", NAMES)
def test_golden_output(path):
    stored = read_digests()
    failures = []
    for name, pattern in cases():
        if name != path:
            continue
        value = PATHS[path](word_from_pattern(pattern))
        if digest(value) != stored[(path, format_pattern(pattern))]:
            failures.append(f"{path} [{format_pattern(pattern)}]:\n{value.render()}")
    assert not failures, "canonical output changed:\n" + "\n\n".join(failures)
