"""The orientation byte of format 3.

ORIENTED canonical bytes open, after the format byte, with ``<``, ``=``
or ``>``: how the model's annulus ends compare with the same ends
swapped.  Reversal flips it, so REVERSIBLE mode needs no search of the
reversal when it reads ``<``.
"""

import random

import pytest

from flowinv import isomorphism
from flowinv.isomorphism import (
    ORIENTED,
    REVERSIBLE,
    canonical_form,
    pair_isomorphic,
    reverse_pair,
)
from flowinv.enumeration import enumerate_pairs
from flowinv.reconstruction import realize_multigraph

from conftest import leaf_pair, three_centers_eight
from oracles import cycle_graph, random_relabel
from test_enumeration import SMALL_BOUNDS, _rebuilt
from test_isomorphism import GOLDEN_DIGESTS, SYMMETRIC, _disjoint_union, \
    _fixture_model

FLIPPED = {b"<": b">", b"=": b"=", b">": b"<"}


def _byte(p) -> bytes:
    """The orientation byte of a fresh copy of ``p``."""
    return canonical_form(_rebuilt(p), ORIENTED).blob[1:2]


@pytest.fixture(scope="module")
def models() -> dict:
    """Every valid fixture, every ORIENTED class at SMALL_BOUNDS, the
    realized stars, dipoles, cycles and bouquets, and three disjoint
    unions (one with a torus, one of a chiral model and its reversal)."""
    found = {name: _fixture_model(name) for name in sorted(GOLDEN_DIGESTS)}
    for b, bounds in enumerate(SMALL_BOUNDS):
        for i, p in enumerate(enumerate_pairs(bounds)):
            found[f"bounds{b}-class{i}"] = p
    for name, build in SYMMETRIC.items():
        found[name] = realize_multigraph(build())
    chiral = three_centers_eight()
    found["union-torus"] = _disjoint_union(
        chiral, leaf_pair("n", "b"), realize_multigraph(cycle_graph(5)),
        tori=1)
    found["union-mirror"] = _disjoint_union(chiral, reverse_pair(chiral))
    found["union-chiral"] = _disjoint_union(chiral, leaf_pair("c", "n"))
    return found


def test_every_byte_occurs(models):
    counts = {}
    for p in models.values():
        byte = _byte(p)
        counts[byte] = counts.get(byte, 0) + 1
    assert set(counts) == {b"<", b"=", b">"}


def test_byte_flips_under_reversal(models):
    """For the reversed pair, and for the reversal labeled in place."""
    for name, p in models.items():
        flipped = FLIPPED[_byte(p)]
        assert _byte(reverse_pair(p)) == flipped, name
        in_place = isomorphism._oriented_blob(_rebuilt(p), {}, True)
        assert in_place[1:2] == flipped, name


def test_equal_sign_when_isomorphic_to_reversal(models):
    symmetric = 0
    for name, p in models.items():
        if pair_isomorphic(p, reverse_pair(p)) is not None:
            assert _byte(p) == b"=", name
            symmetric += 1
    assert symmetric


def test_byte_unchanged_under_relabeling(models):
    rng = random.Random(41)
    for name, p in models.items():
        byte = _byte(p)
        for _ in range(2):
            assert _byte(random_relabel(p, rng)) == byte, name


def test_reversible_is_the_least_oriented_blob(models):
    for name, p in models.items():
        oriented = canonical_form(_rebuilt(p), ORIENTED).blob
        reversed_ = canonical_form(_rebuilt(reverse_pair(p)), ORIENTED).blob
        assert canonical_form(_rebuilt(p), REVERSIBLE).blob == \
            min(oriented, reversed_), name


@pytest.mark.parametrize("first", [ORIENTED, REVERSIBLE],
                         ids=["oriented-first", "reversible-first"])
def test_less_than_skips_the_reversed_search(models, first):
    """A ``<`` pair ends a REVERSIBLE call without the reversed bytes; any
    other pair searched its reversal and keeps them.  A ``>`` pair that
    REVERSIBLE mode sees first never searches itself."""
    decided = 0
    for name, p in models.items():
        q = _rebuilt(p)
        canonical_form(q, first)
        canonical_form(q, REVERSIBLE)
        byte = _byte(p)
        assert ("reversed_blob" in q.__dict__) == (byte != b"<"), name
        assert ("oriented_blob" in q.__dict__) == \
            (first is ORIENTED or byte != b">"), name
        decided += byte == b"<"
    assert decided
