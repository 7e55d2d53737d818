import random

import pytest

import golden as G
from oracles import mirror_partner, searched_equation_classes, swap_partner
from affinecaps import (
    Prime,
    digit_pair,
    equation_classes,
    equation_str,
    make_line_equation,
    normalize_digit_set,
)
from affinecaps import zp
from affinecaps.zp import DigitSetPair, affine_image, is_prime

SMALL_PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]


def test_prime_validation():
    assert int(Prime(11)) == 11
    for bad in (4, 9, 15, 1, 0, -7, 2, 3):
        with pytest.raises(ValueError):
            Prime(bad)


def test_a_prime_is_passed_through_and_everything_else_checked(monkeypatch):
    calls = []
    monkeypatch.setattr(zp, "is_prime", lambda n: calls.append(n) or is_prime(n))
    p = Prime(2 ** 31 - 1)
    assert calls == [2 ** 31 - 1]
    assert Prime(p) is p
    assert make_line_equation(p, 5).p is p and digit_pair(p, (0, 1)).p is p
    assert calls == [2 ** 31 - 1]  # no second trial division
    assert type(Prime(11)) is Prime and calls[-1] == 11  # a plain int is checked
    for bad in (True, False, 9, 2 ** 31 - 3, 4):
        with pytest.raises(ValueError):
            Prime(bad)
    with pytest.raises(TypeError):
        Prime(11.0)


def test_is_prime_matches_trial_range():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    assert {n for n in range(50) if is_prime(n)} == known


def test_digit_pair_validation():
    pair = digit_pair(11, (5, 3, 0, 1, 4), (0, 1, 3))
    assert pair.digits == (0, 1, 3, 4, 5)
    assert pair.fixed == (0, 1, 3)
    with pytest.raises(ValueError):
        digit_pair(11, (0,))  # too small
    with pytest.raises(ValueError):
        digit_pair(11, (0, 1, 11))  # out of range
    with pytest.raises(ValueError):
        digit_pair(11, (0, 1, 3), (0, 2))  # fixed not a subset
    for digits, fixed in (((0, 3, 1), (0,)), ((0, 1, 3), (3, 0))):
        with pytest.raises(ValueError, match="ascending"):  # built without digit_pair
            DigitSetPair(Prime(11), digits, fixed)


def test_line_equation_examples():
    eq = make_line_equation(11, 9)
    assert eq.c == 1 and equation_str(eq) == "x + z = 2y"
    eq = make_line_equation(11, 8)
    assert eq.c == 2 and equation_str(eq) == "x + 2z = 3y"
    for bad in (0, 4):  # p=5 allows only b in {1, 2, 3}
        with pytest.raises(ValueError):
            make_line_equation(5, bad)


def test_equation_class_golden_lists():
    for p, classes_e in ((23, G.P23_CLASSES_E), (29, G.P29_CLASSES_E), (41, G.P41_CLASSES_E)):
        part = equation_classes(p)
        expect = sorted(G.classes_as_b_sets(classes_e, p), key=min)
        assert [frozenset(c) for c in part.classes] == expect


def test_equation_classes_p11():
    part = equation_classes(11)
    assert [set(c) for c in part.classes] == [{1, 5, 9}, {2, 3, 4, 6, 7, 8}]
    assert part.representatives == (1, 2)


def test_class_count_for_5_mod_6():
    for p in (5, 11, 17, 23, 29, 41):
        assert len(equation_classes(p).classes) == (p + 1) // 6


def test_classes_partition_b_range():
    for p in SMALL_PRIMES:
        part = equation_classes(p)
        flat = [b for cls in part.classes for b in cls]
        assert sorted(flat) == list(range(1, p - 1))
        assert part.representatives == tuple(cls[0] for cls in part.classes)


def test_swap_is_involution_and_mirror_cycles():
    for p in SMALL_PRIMES:
        for b in range(1, p - 1):
            eq = make_line_equation(p, b)
            partner = swap_partner(eq)
            assert swap_partner(make_line_equation(p, partner)) == b
            # both moves stay inside the same class
            part = equation_classes(p)
            cls = next(c for c in part.classes if b in c)
            assert mirror_partner(eq) in cls and partner in cls


def test_closed_form_classes_match_the_move_search():
    for p in filter(is_prime, range(5, 400)):
        assert equation_classes(p).classes == searched_equation_classes(p), p


def test_normalize_examples():
    assert normalize_digit_set((2, 5, 8), 11) == (0, 1, 2)
    assert normalize_digit_set((0, 1), 5) == (0, 1)
    assert normalize_digit_set((0, 1, 3), 5) == (0, 1, 2)


def test_normalize_idempotent_and_orbit_constant():
    rng = random.Random(20240)
    for _ in range(60):
        p = rng.choice(SMALL_PRIMES)
        size = rng.randint(2, min(6, p - 1))
        digits = tuple(sorted(rng.sample(range(p), size)))
        canon = normalize_digit_set(digits, p)
        assert normalize_digit_set(canon, p) == canon
        assert 0 in canon and 1 in canon
        a = rng.randint(1, p - 1)
        b = rng.randint(0, p - 1)
        assert normalize_digit_set(affine_image(digits, a, b, p), p) == canon
