"""The fraction-free integer kernel against the Fraction reference.

``reducibility.rref`` and ``cone._phase_one`` run on integer rows over one
common denominator. Every pivot choice is decided by exact signs and
comparisons, so both must return exactly what the textbook elimination and
simplex over ``Fraction`` entries (``tests/oracles.py``) return.
"""

import random
from fractions import Fraction

import pytest

from oracles import all_candidates, fraction_phase_one, fraction_rref
from affinecaps import rref, search
from affinecaps.cone import _phase_one, cone_trivial
from affinecaps.reducibility import _eliminate
from affinecaps.search import max_admissible_size


def assert_same_rref(matrix):
    got = rref(matrix)
    assert got == fraction_rref(matrix)
    assert all(type(v) is Fraction for row in got for v in row)


def assert_integer_phase_one(matrix, n_cols):
    """The objective row, basic values and denominator, checked to be Python ints."""
    obj, x, det = _phase_one(matrix, n_cols)
    assert det > 0 and all(type(v) is int for v in (*obj, *x, det))
    return obj, x, det


def assert_same_phase_one(matrix, n_cols):
    obj, x, det = assert_integer_phase_one(matrix, n_cols)
    if obj[-1] > 0:
        got = "infeasible", tuple(Fraction(v, det) + 1 for v in obj[n_cols:-1])
    else:
        got = "feasible", tuple(Fraction(v, det) for v in x)
    assert got == fraction_phase_one(matrix, n_cols)
    return got[0]


def test_random_sign_systems_match_the_fraction_reference():
    rng = random.Random(404)
    statuses = set()
    for _ in range(600):
        n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 10)
        matrix = [[rng.choice((-1, 0, 1)) for _ in range(n_cols)] for _ in range(n_rows)]
        assert_same_rref(matrix)
        statuses.add(assert_same_phase_one(matrix, n_cols))
    assert statuses == {"feasible", "infeasible"}


def test_sweep_cone_systems_match_the_fraction_reference(monkeypatch):
    systems = []

    def recording_cone_trivial(system):
        systems.append(system)
        return cone_trivial(system)

    cone_trivial = search.cone_trivial
    monkeypatch.setattr(search, "cone_trivial", recording_cone_trivial)
    monkeypatch.setattr(search, "candidates", all_candidates)  # every set with 0 and 1
    monkeypatch.setattr(search, "_first_image", lambda refutations, digits: None)  # no inheriting
    for p in (5, 7, 11, 13):
        max_admissible_size(p)
    assert len(systems) > 300
    for system in systems:
        assert_same_rref(system.matrix)
        assert_same_phase_one(system.matrix, system.n_cols)


def test_rref_of_fraction_rows_matches_the_fraction_reference():
    rng = random.Random(405)
    fractional = 0
    for _ in range(200):
        n_rows, n_cols = rng.randint(1, 5), rng.randint(2, 8)
        # a column subset of an echelon form gives rows of Fractions with
        # mixed denominators, which rref clears row by row
        echelon = rref([[rng.randint(-3, 3) for _ in range(n_cols)] for _ in range(n_rows)])
        fractional += any(v.denominator != 1 for row in echelon for v in row)
        keep = sorted(rng.sample(range(n_cols), rng.randint(1, n_cols - 1)))
        assert_same_rref([[row[j] for j in keep] for row in echelon])
        assert_same_rref([[Fraction(rng.randint(-6, 6), rng.randint(1, 6))
                           for _ in range(n_cols)] for _ in range(n_rows)])
    assert fractional > 50


def assert_python_ints(fractions):
    assert all(type(v.numerator) is int and type(v.denominator) is int for v in fractions)


@pytest.mark.parametrize("low", [2 ** 31, 2 ** 40, 2 ** 64])
def test_entries_past_31_bits_match_the_fraction_reference(low):
    # entries from 2**31 up overflow int64 products in the pivot, so the
    # kernel has to leave int64 before the first pivot (or never enter it)
    rng = random.Random(low)
    statuses = set()
    for _ in range(60):
        n_rows, n_cols = rng.randint(1, 5), rng.randint(1, 8)
        matrix = [[rng.choice((-1, 0, 1)) * rng.randint(low, 2 * low) for _ in range(n_cols)]
                  for _ in range(n_rows)]
        assert_same_rref(matrix)
        assert_python_ints(v for row in rref(matrix) for v in row)
        statuses.add(assert_same_phase_one(matrix, n_cols))
    assert statuses == {"feasible", "infeasible"}


def test_small_entries_that_grow_past_31_bits_match_the_fraction_reference():
    # the products of the entries of a dense 12 x 12 matrix of 5-bit entries
    # pass 31 bits within a few pivots
    rng = random.Random(407)
    for _ in range(20):
        matrix = [[rng.randint(-31, 31) for _ in range(13)] for _ in range(12)]
        assert_same_rref(matrix)
        assert_same_phase_one(matrix, 13)


def test_rref_of_fraction_rows_with_large_denominators_matches_the_fraction_reference():
    rng = random.Random(406)
    for _ in range(60):
        n_rows, n_cols = rng.randint(1, 5), rng.randint(2, 8)
        matrix = [[Fraction(rng.randint(-6, 6), rng.randint(1, 2 ** 40)) for _ in range(n_cols)]
                  for _ in range(n_rows)]
        assert_same_rref(matrix)
        assert_python_ints(v for row in rref(matrix) for v in row)


def test_no_numpy_scalar_leaves_the_kernel(monkeypatch):
    systems = []

    def recording_cone_trivial(system):
        systems.append(system)
        return cone_trivial(system)

    monkeypatch.setattr(search, "cone_trivial", recording_cone_trivial)
    monkeypatch.setattr(search, "candidates", all_candidates)  # every set with 0 and 1
    monkeypatch.setattr(search, "_first_image", lambda refutations, digits: None)  # no inheriting
    for p in (5, 7, 11, 13):
        max_admissible_size(p)
    assert len(systems) > 300
    witnesses = 0
    for system in systems:
        rows, det = _eliminate(system.matrix)
        assert type(det) is int and all(type(v) is int for row in rows for v in row)
        assert_python_ints(v for row in rref(system.matrix) for v in row)
        assert_integer_phase_one(system.matrix, system.n_cols)
        cert = cone_trivial(system)
        if cert.trivial:
            assert_python_ints(cert.dual)
        else:
            witnesses += 1
            assert all(type(v) is int for v in cert.witness)
    assert witnesses
