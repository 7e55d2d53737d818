import json
import random

import pytest

import golden as G
from oracles import mirror_partner, swap_partner
from affinecaps import (
    build_constraint_system,
    digit_pair,
    enumerate_progressions,
    make_line_equation,
)
from affinecaps.progressions import table_to_jsonable

SMALL_PRIMES = [5, 7, 11, 13, 17]


def table(p, digits, b, fixed=None):
    return enumerate_progressions(digit_pair(p, digits, fixed), make_line_equation(p, b))


def test_golden_lists():
    assert list(table(11, G.P11_DIGITS, 9).rows) == sorted(G.P11_TABLE_B9)
    assert list(table(11, G.P11_DIGITS, 8).rows) == sorted(G.P11_TABLE_B8)
    assert list(table(17, G.P17_DIGITS, 15).rows) == sorted(G.P17_TABLE_B15)
    assert list(table(17, G.P17_DIGITS, 14).rows) == sorted(G.P17_TABLE_B14)
    assert list(table(17, G.P17_DIGITS, 13).rows) == sorted(G.P17_TABLE_B13)
    assert list(table(23, G.P23_DIGITS, 21).rows) == G.P23_TABLE_B21


def test_an_equation_of_another_modulus_is_refused():
    with pytest.raises(ValueError, match="different moduli"):
        enumerate_progressions(digit_pair(11, G.P11_DIGITS), make_line_equation(13, 9))


def test_completeness_against_cubic_scan():
    rng = random.Random(777)
    for _ in range(40):
        p = rng.choice(SMALL_PRIMES)
        size = rng.randint(2, min(6, p - 1))
        digits = tuple(sorted(rng.sample(range(p), size)))
        b = rng.randint(1, p - 2)
        c = (-(b + 1)) % p
        brute = sorted(
            (x, y, z)
            for x in digits for y in digits for z in digits
            if (x + b * y + c * z) % p == 0 and not (x == y == z)
        )
        assert list(table(p, digits, b).rows) == brute


def test_progressions_have_distinct_components():
    # x = y, x = z or y = z forces the trivial solution for every valid b
    rng = random.Random(778)
    for _ in range(30):
        p = rng.choice(SMALL_PRIMES)
        digits = tuple(sorted(rng.sample(range(p), rng.randint(2, p - 1))))
        b = rng.randint(1, p - 2)
        for x, y, z in table(p, digits, b).rows:
            assert len({x, y, z}) == 3


def reversed_rows(t):
    return sorted((z, y, x) for (x, y, z) in t.rows)


def swapped_rows(t):
    return sorted((x, z, y) for (x, y, z) in t.rows)


def test_reverse_table_examples():
    t = table(11, G.P11_DIGITS, 9)  # c = 1, self-paired
    assert mirror_partner(t.equation) == 9
    assert reversed_rows(t) == list(t.rows)

    t8 = table(11, G.P11_DIGITS, 8)  # c = 2, inverse 6, partner 6*8 = 4 mod 11
    assert mirror_partner(t8.equation) == 4
    assert reversed_rows(t8) == list(table(11, G.P11_DIGITS, 4).rows)

    empty = table(5, (0, 1), 1)
    assert not empty.rows and not table(5, (0, 1), mirror_partner(empty.equation)).rows


def test_swap_table_examples():
    t8 = table(11, G.P11_DIGITS, 8)
    assert swap_partner(t8.equation) == 2
    assert swapped_rows(t8) == list(table(11, G.P11_DIGITS, 2).rows)

    t15 = table(17, G.P17_DIGITS, 15)
    assert swap_partner(t15.equation) == 1
    assert swapped_rows(t15) == list(table(17, G.P17_DIGITS, 1).rows)

    empty = table(5, (0, 1), 2)
    assert not table(5, (0, 1), swap_partner(empty.equation)).rows


def test_reverse_swap_preserve_cardinality_and_invert():
    # the equation-class moves of zp map each table onto the table of the
    # partner equation, and applying a move twice returns the equation
    rng = random.Random(779)
    for _ in range(30):
        p = rng.choice(SMALL_PRIMES)
        digits = tuple(sorted(rng.sample(range(p), rng.randint(3, min(6, p - 1)))))
        b = rng.randint(1, p - 2)
        t = table(p, digits, b)
        rev, sw = table(p, digits, mirror_partner(t.equation)), \
            table(p, digits, swap_partner(t.equation))
        assert len(rev.rows) == len(t.rows) == len(sw.rows)
        assert list(rev.rows) == reversed_rows(t) and reversed_rows(rev) == list(t.rows)
        assert list(sw.rows) == swapped_rows(t) and swapped_rows(sw) == list(t.rows)
        assert mirror_partner(rev.equation) == swap_partner(sw.equation) == b


def test_constraint_matrix_golden_p23():
    t = table(23, G.P23_DIGITS, 21)
    system = build_constraint_system(t)
    assert [list(row) for row in system.matrix] == G.P23_MATRIX
    assert system.row_labels == tuple(
        (pos, d) for pos in (2, 3) for d in G.P23_DIGITS
    )
    assert system.column_labels == tuple(G.P23_TABLE_B21)


def test_constraint_matrix_single_progression():
    # a table with exactly one progression and its leading digit fixed is
    # forced to the 2x1 matrix ((+1), (+1))
    t = table(11, (0, 1, 3), 2, fixed=(3,))
    assert t.rows == ((3, 0, 1),)
    system = build_constraint_system(t)
    assert [list(r) for r in system.matrix] == [[1], [1]]


def test_constraint_matrix_p11_subset_fixed():
    t = table(11, G.P11_DIGITS, 9, fixed=G.P11_FIXED)
    system = build_constraint_system(t)
    assert system.n_rows == 6 and system.n_cols == 4
    row_12_digit1 = system.matrix[system.row_labels.index((2, 1))]
    assert list(row_12_digit1) == [1, 0, 0, 0]


def test_entries_stay_within_unit_range():
    rng = random.Random(780)
    for _ in range(25):
        p = rng.choice(SMALL_PRIMES)
        digits = tuple(sorted(rng.sample(range(p), rng.randint(2, min(6, p - 1)))))
        fixed = tuple(sorted(rng.sample(digits, rng.randint(1, len(digits)))))
        b = rng.randint(1, p - 2)
        system = build_constraint_system(table(p, digits, b, fixed))
        assert all(v in (-1, 0, 1) for row in system.matrix for v in row)
        # row semantics: dot with all-ones chi counts position balance
        for (pos, d), row in zip(system.row_labels, system.matrix):
            lead = sum(1 for v in system.column_labels if v[0] == d)
            other = sum(1 for v in system.column_labels if v[pos - 1] == d)
            assert sum(row) == lead - other


def test_serialization_round_trip_is_canonical():
    t = table(11, G.P11_DIGITS, 9, fixed=G.P11_FIXED)
    blob = json.dumps(table_to_jsonable(t), sort_keys=True)
    assert json.loads(blob)["rows"] == [list(v) for v in t.rows]
