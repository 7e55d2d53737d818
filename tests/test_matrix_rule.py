"""The matrix rule eliminates once and then only deletes rows and columns.

``matrix_reduce`` must fire exactly the steps of the rule that recomputes the
echelon form of the survivors after every firing (``tests/oracles.py``), and
at every firing the rows it keeps, divided by their common denominator, must
be the reduced row echelon form of the surviving columns of the constraint
matrix (row operations commute with taking columns), up to trailing zero rows.
"""

import random
from fractions import Fraction

import golden as G
from oracles import all_candidates, fraction_rref, recomputing_matrix_reduce
from affinecaps import (
    build_constraint_system,
    digit_pair,
    enumerate_progressions,
    equation_classes,
    make_line_equation,
    matrix_reduce,
    reducibility,
)
from affinecaps.search import max_admissible_size


def representative_systems(pair):
    for b in equation_classes(pair.p).representatives:
        yield build_constraint_system(enumerate_progressions(pair, make_line_equation(pair.p, b)))


def sweep_pairs(p):
    """Every digit set with 0 and 1 of every level that the maximality sweep of p
    visits, not only the normal forms that it checks."""
    top = max_admissible_size(p).max_size + 1
    return [digit_pair(p, digits) for size in range(2, top + 1)
            for digits in all_candidates(p, size)]


def large_prime_pairs():
    rng = random.Random(606)
    pairs = [digit_pair(p, *G.PUBLISHED_PAIRS[p]) for p in (17, 23)]
    pairs.append(digit_pair(23, G.P23_DIGITS))
    for p in (17, 19, 23):
        for _ in range(10):
            digits = tuple(sorted(rng.sample(range(p), rng.randint(6, 9))))
            fixed = tuple(sorted(rng.sample(digits, rng.randint(3, len(digits)))))
            pairs.append(digit_pair(p, digits, fixed))
    return pairs


def watch_firings(monkeypatch):
    """Record the denominator of each elimination and the state after each firing."""
    dets, firings = [], []
    eliminate, fire_row = reducibility._eliminate, reducibility._fire_row

    def recording_eliminate(matrix):
        rows, det = eliminate(matrix)
        dets.append(det)
        return rows, det

    def recording_fire_row(work, surviving, i):
        fired = fire_row(work, surviving, i)
        if fired is not None:
            firings.append((dets[-1], fired[1], fired[2]))
        return fired

    monkeypatch.setattr(reducibility, "_eliminate", recording_eliminate)
    monkeypatch.setattr(reducibility, "_fire_row", recording_fire_row)
    return firings


def assert_rule_matches_the_recomputing_reference(system, firings):
    firings.clear()
    trace = matrix_reduce(system)
    assert trace == recomputing_matrix_reduce(system)
    assert len(firings) == len(trace.steps)
    for det, work, surviving in firings:
        expected = fraction_rref([[row[j] for j in surviving] for row in system.matrix])
        assert [[Fraction(v, det) for v in row] for row in work] == expected[:len(work)]
        assert not any(any(row) for row in expected[len(work):])
    return trace


def test_sweep_traces_match_the_recomputing_rule(monkeypatch):
    firings = watch_firings(monkeypatch)
    systems = steps = 0
    for p in (5, 7, 11, 13):
        for pair in sweep_pairs(p):
            for system in representative_systems(pair):
                steps += len(assert_rule_matches_the_recomputing_reference(system, firings).steps)
                systems += 1
    assert systems > 1200 and steps > 3900


def test_large_prime_traces_match_the_recomputing_rule(monkeypatch):
    firings = watch_firings(monkeypatch)
    verdicts = set()
    for pair in large_prime_pairs():
        for system in representative_systems(pair):
            verdicts.add(assert_rule_matches_the_recomputing_reference(system, firings).reduced)
    assert verdicts == {True, False}
