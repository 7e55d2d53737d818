import random
from itertools import combinations

import pytest

from oracles import brute_normalize, cone_admissible
from affinecaps import digit_pair
from affinecaps.equivalence import (
    affine_equivalent,
    classify,
    difference_multiset,
    fingerprint,
)
from affinecaps.zp import affine_image, gap_sequence, normalize_digit_set


def test_difference_multiset_examples():
    assert difference_multiset((0, 1, 2, 3, 4), 11) == (1, 1, 1, 1, 7)
    assert difference_multiset((0, 1, 2, 3, 6), 11) == (1, 1, 1, 3, 5)
    assert difference_multiset((0, 1, 2), 5) == (1, 1, 3)
    assert difference_multiset((0, 1, 3), 5) == (1, 2, 2)
    assert difference_multiset((0, 1, 4), 5) == (1, 1, 3)
    assert difference_multiset((3,), 7) == (7,)


def test_difference_multiset_sums_to_p():
    rng = random.Random(5150)
    for _ in range(40):
        p = rng.choice((5, 7, 11, 13, 17))
        digits = tuple(sorted(rng.sample(range(p), rng.randint(1, p - 1))))
        gaps = difference_multiset(digits, p)
        assert sum(gaps) == p and len(gaps) == len(digits)
        shift = rng.randrange(p)
        translated = tuple(sorted((d + shift) % p for d in digits))
        assert difference_multiset(translated, p) == gaps


def test_multiplication_can_change_the_gap_multiset():
    # {0..4} and 3*{0..4} are affinely equivalent with different gap multisets,
    # so the raw multiset must never be used to refute equivalence on its own
    digits = (0, 1, 2, 3, 4)
    image = affine_image(digits, 3, 0, 11)
    assert affine_equivalent(digits, image, 11) is not None
    assert difference_multiset(digits, 11) != difference_multiset(image, 11)
    assert fingerprint(digits, 11) == fingerprint(image, 11)


def test_affine_equivalent_published_maps():
    # the maps x -> 3x + 2 and x -> x + 1 carry these sets onto {0, 1, 2}
    assert affine_image((0, 1, 3), 3, 2, 5) == (0, 1, 2)
    assert affine_image((0, 1, 4), 1, 1, 5) == (0, 1, 2)
    assert affine_equivalent((0, 1, 3), (0, 1, 2), 5) is not None
    assert affine_equivalent((0, 1, 4), (0, 1, 2), 5) is not None
    assert affine_equivalent((0, 1, 2, 3, 4), (0, 1, 2, 3, 6), 11) is None
    with pytest.raises(ValueError):
        affine_equivalent((0, 1), (0, 1, 2), 5)


def test_affine_equivalent_witness_is_valid():
    rng = random.Random(6001)
    for _ in range(40):
        p = rng.choice((5, 7, 11, 13))
        digits = tuple(sorted(rng.sample(range(p), rng.randint(2, 5))))
        image = affine_image(digits, rng.randint(1, p - 1), rng.randrange(p), p)
        witness = affine_equivalent(digits, image, p)
        assert witness is not None
        a, b = witness
        assert affine_image(digits, a, b, p) == image


def test_equivalence_relation_properties():
    rng = random.Random(6002)
    for _ in range(25):
        p = rng.choice((5, 7, 11))
        d1 = tuple(sorted(rng.sample(range(p), 3)))
        assert affine_equivalent(d1, d1, p) is not None  # reflexive
        d2 = affine_image(d1, rng.randint(1, p - 1), rng.randrange(p), p)
        assert affine_equivalent(d2, d1, p) is not None  # symmetric
        d3 = affine_image(d2, rng.randint(1, p - 1), rng.randrange(p), p)
        assert affine_equivalent(d1, d3, p) is not None  # transitive


def test_classify_p5_three_subsets():
    result = classify(list(combinations(range(5), 3)), 5)
    assert len(result.classes) == 1
    assert result.classes[0].representative == (0, 1, 2)


def test_classify_p11_sample():
    # four orbits: {0,1,2,3,4} ~ {0,1,2,6,7} via x -> 5x + 2 and
    # {0,1,2,6,8} ~ {0,1,2,8,9} via x -> 9x + 2; the others stay apart
    six = [
        (0, 1, 2, 3, 4), (0, 1, 2, 3, 6), (0, 1, 2, 3, 7),
        (0, 1, 2, 6, 7), (0, 1, 2, 6, 8), (0, 1, 2, 8, 9),
    ]
    assert affine_image((0, 1, 2, 3, 4), 5, 2, 11) == (0, 1, 2, 6, 7)
    assert affine_image((0, 1, 2, 6, 8), 9, 2, 11) == (0, 1, 2, 8, 9)
    result = classify(six, 11)
    assert len(result.classes) == 4
    grouped = {frozenset(cls.members) for cls in result.classes}
    assert frozenset({(0, 1, 2, 3, 4), (0, 1, 2, 6, 7)}) in grouped
    assert frozenset({(0, 1, 2, 6, 8), (0, 1, 2, 8, 9)}) in grouped
    for cls in result.classes:
        assert all(affine_equivalent(m, cls.representative, 11) is not None
                   for m in cls.members)


def test_classify_singleton():
    result = classify([(0, 1, 3)], 7)
    assert len(result.classes) == 1
    assert result.classes[0].members == ((0, 1, 3),)


def test_fingerprint_is_orbit_invariant_and_refutes():
    rng = random.Random(6003)
    for _ in range(50):
        p = rng.choice((7, 11, 13))
        d1 = tuple(sorted(rng.sample(range(p), rng.randint(2, 5))))
        img = affine_image(d1, rng.randint(1, p - 1), rng.randrange(p), p)
        assert fingerprint(d1, p) == fingerprint(img, p)
        d2 = tuple(sorted(rng.sample(range(p), len(d1))))
        if fingerprint(d1, p) != fingerprint(d2, p):
            assert affine_equivalent(d1, d2, p) is None


def test_affine_maps_preserve_admissibility():
    rng = random.Random(6004)
    done = 0
    while done < 10:
        p = rng.choice((5, 7, 11))
        digits = tuple(sorted(rng.sample(range(p), rng.randint(2, 4))))
        fixed = tuple(sorted(rng.sample(digits, rng.randint(0, len(digits)))))
        pair = digit_pair(p, digits, fixed)
        if not cone_admissible(pair):
            continue
        a, b = rng.randint(1, p - 1), rng.randrange(p)
        image = digit_pair(p, affine_image(digits, a, b, p),
                           affine_image(fixed, a, b, p) if fixed else ())
        assert cone_admissible(image)
        done += 1


def test_normal_form_matches_the_affine_map_scan():
    # every digit set containing 0 and 1 at p <= 13, except all of Z_p: the
    # least rotation of the gap sequences gives the least affine image, and
    # the fingerprint is its gap sequence, so equal fingerprints mean
    # affinely equivalent sets
    checked = 0
    for p in (5, 7, 11, 13):
        for size in range(2, p):
            for rest in combinations(range(2, p), size - 2):
                digits = (0, 1) + rest
                canon = brute_normalize(digits, p)
                assert normalize_digit_set(digits, p) == canon, (p, digits)
                assert fingerprint(digits, p) == gap_sequence(canon, p)
                checked += 1
    assert checked == 2596


def test_digits_outside_the_residues_are_rejected():
    with pytest.raises(ValueError):
        classify([(0, 1, 11)], 11)
    with pytest.raises(ValueError):
        normalize_digit_set((-1, 0, 1), 11)
    with pytest.raises(ValueError):
        fingerprint((), 11)
