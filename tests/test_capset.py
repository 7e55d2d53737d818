import math
import random
from itertools import permutations

import pytest

import golden as G
from oracles import cone_admissible, cone_certificates
from affinecaps import digit_pair
from affinecaps.capset import (
    CapPointSet,
    EnumerationTooLarge,
    bose_cap,
    bound_table,
    build_cap,
    collinear_triple_naive,
    eg_constant,
    read_points,
    size_estimate,
    verify_cap,
    write_points,
)

PAIR11 = digit_pair(11, G.P11_DIGITS, G.P11_FIXED)
PAIR17 = digit_pair(17, G.P17_DIGITS, G.P17_FIXED)


def test_exact_counts():
    assert size_estimate(PAIR11, 5).exact_count == 240
    assert size_estimate(PAIR11, 10).exact_count == 302400
    assert size_estimate(PAIR17, 7).exact_count == 10080
    pair23 = digit_pair(23, G.P23_DIGITS, G.P23_FIXED)
    assert size_estimate(pair23, 9).exact_count == 725760


def test_delta_and_constant():
    est = size_estimate(PAIR11, 5)
    assert est.delta == 3
    assert est.c_const == pytest.approx((5 / 2) ** 0.5 * (5 / (2 * math.pi)) ** 1.5)
    assert est.c_const == pytest.approx(1.1224, abs=1e-4)
    # pinning every digit still only constrains |D| - 1 frequencies
    full = size_estimate(digit_pair(11, G.P11_DIGITS), 5)
    assert full.delta == 4
    assert full.c_const == pytest.approx(5 ** 0.5 * (5 / (2 * math.pi)) ** 2)


def test_build_cap_matches_count_and_divisibility():
    cap = build_cap(PAIR11, 5)
    assert len(cap) == 240
    assert len(set(cap.points)) == 240
    assert list(cap.points) == sorted(cap.points)
    with pytest.raises(ValueError):
        build_cap(PAIR11, 7)  # 5 does not divide 7
    with pytest.raises(EnumerationTooLarge):
        build_cap(PAIR11, 10, max_points=1000)


def test_permutation_case():
    pair = digit_pair(7, (0, 2, 5))
    cap = build_cap(pair, 3)
    assert len(cap) == 6  # |D|! permutation vectors
    assert all(sorted(q) == [0, 2, 5] for q in cap.points)


def test_frequency_invariant():
    cap = build_cap(PAIR11, 5)
    for q in cap.points:
        assert all(q.count(d) == 1 for d in G.P11_FIXED)
        assert set(q) <= set(G.P11_DIGITS)


def test_verify_cap_small():
    assert verify_cap(build_cap(PAIR11, 5)).ok


def test_verify_cap_catches_corruption():
    cap = build_cap(PAIR11, 5)
    x, y = cap.points[0], cap.points[1]
    planted = tuple((2 * b - a) % 11 for a, b in zip(x, y))  # third point on the line
    check = verify_cap(list(cap.points[:60]) + [planted], 11)
    assert not check.ok
    u, v, w = check.violation
    assert collinear_triple_naive((u, v, w), 11).ok is False


def test_trivial_point_sets_pass():
    assert verify_cap([(0, 0), (1, 2)], 5).ok
    assert verify_cap([], 5).ok
    assert not verify_cap([(0, 0), (1, 1), (2, 2)], 5).ok


@pytest.mark.parametrize("points", [
    [(0, 1, 2), (0, 1, 13)],
    [(0, 1, 2), (0, 1, -1)],
    [(0, 1, 2), (0, 1)],
    [(0, 1), (1, 2), (3, 4, 5)],
])
def test_raw_points_outside_the_grid_are_rejected(points):
    for check in (verify_cap, collinear_triple_naive):
        with pytest.raises(ValueError):
            check(points, 11)


def assert_agrees_with_oracle(points, p=None):
    """verify_cap gives the oracle's verdict, and any triple it reports is
    three distinct collinear points of the set."""
    members = set(points.points if isinstance(points, CapPointSet) else points)
    p = points.p if p is None else p
    fast = verify_cap(points, p)
    assert fast.ok == collinear_triple_naive(points, p).ok
    if not fast.ok:
        triple = fast.violation
        assert len(set(triple)) == 3 and set(triple) <= members
        assert not collinear_triple_naive(triple, p).ok
    return fast


def test_pair_line_agrees_with_cubic_oracle():
    rng = random.Random(31415)
    for _ in range(12):
        p = rng.choice((5, 7, 11))
        n = rng.randint(2, 4)
        pts = {tuple(rng.randrange(p) for _ in range(n)) for _ in range(40)}
        assert_agrees_with_oracle(pts, p)


@pytest.mark.parametrize("p, n", [(5, 28), (3, 40)])
def test_wide_vectors_agree_with_cubic_oracle(p, n):
    assert p ** n > 2 ** 62  # too wide for an int64 base-p code
    rng = random.Random(2718 + p)
    for _ in range(4):
        pts = sorted({tuple(rng.randrange(p) for _ in range(n)) for _ in range(40)})
        assert assert_agrees_with_oracle(pts, p).ok
        x, y = rng.sample(pts, 2)
        planted = tuple((2 * b - a) % p for a, b in zip(x, y))
        assert not assert_agrees_with_oracle(pts + [planted], p).ok


def test_unclosed_cap_point_set_with_collinear_triple_is_rejected():
    # No point of the collinear triple is sorted, and the set is not closed
    # under coordinate permutations: only a full scan finds the triple.
    triple = ((1, 0, 0), (2, 0, 0), (3, 0, 0))
    pts = tuple(sorted(triple + ((0, 1, 2), (0, 1, 4))))
    fake = CapPointSet(5, 3, digit_pair(5, (0, 1, 2, 3)), pts)
    assert not assert_agrees_with_oracle(fake).ok


def test_permutation_closure_of_a_collinear_triple_is_rejected():
    p = 7
    x, d = (0, 1, 1, 4), (2, 0, 5, 1)
    triple = [tuple((a + t * b) % p for a, b in zip(x, d)) for t in range(3)]
    closure = sorted({q for t in triple for q in permutations(t)})
    assert not assert_agrees_with_oracle(closure, p).ok
    # without its sorted points the set is not closed, and a scan from the
    # sorted points alone would start nowhere
    unsorted = [q for q in closure if list(q) != sorted(q)]
    assert not assert_agrees_with_oracle(unsorted, p).ok


def test_built_caps_agree_with_cubic_oracle():
    rng = random.Random(4242)
    verdicts = set()
    checked = 0
    while checked < 12:
        p = rng.choice((5, 7))
        digits = tuple(sorted(rng.sample(range(p), rng.randint(2, 4))))
        fixed = tuple(sorted(rng.sample(digits, rng.randint(0, len(digits)))))
        pair = digit_pair(p, digits, fixed)
        for n in (len(digits), 2 * len(digits)):
            if 3 <= size_estimate(pair, n).exact_count <= 90:
                verdicts.add(assert_agrees_with_oracle(build_cap(pair, n)).ok)
                checked += 1
    assert verdicts == {True, False}


def test_conflicting_modulus_is_rejected():
    cap = build_cap(PAIR11, 5)
    with pytest.raises(ValueError):
        verify_cap(cap, 13)
    assert verify_cap(cap, 11).ok


def test_hand_built_cap_point_sets_are_checked_like_raw_points():
    pair = digit_pair(5, (0, 1, 2, 3))
    # a repeated point is one point, not a collinear triple
    doubled = CapPointSet(5, 2, pair, ((0, 1), (0, 2), (0, 2), (1, 0)))
    assert assert_agrees_with_oracle(doubled).ok
    for points in (((0, 1), (0, 7)), ((0, 1), (0, 2, 3))):
        with pytest.raises(ValueError):
            verify_cap(CapPointSet(5, 2, pair, points))


def test_bose_cap_small_primes():
    cap5 = bose_cap(5)
    assert len(cap5) == 25
    assert verify_cap(cap5, 5).ok
    cap7 = bose_cap(7)
    assert len(cap7) == 49
    assert verify_cap(cap7, 7).ok
    assert len(bose_cap(5, projective=True)) == 26
    with pytest.raises(ValueError):
        bose_cap(8)


def test_bose_irreducibility_choice():
    # x^2 + x + a irreducible needs 1 - 4a to be a non-square
    squares5 = {x * x % 5 for x in range(5)}
    assert (1 - 4 * 1) % 5 not in squares5  # a = 1 is picked for q = 5
    assert bose_cap(5)[0] is not None


def test_eg_constant_values():
    assert 3 * eg_constant(3) == pytest.approx(2.7551, abs=2e-4)
    assert eg_constant(101) == pytest.approx(0.8414, abs=0.02)


def test_eg_constant_grid_cross_check():
    # independent coarse evaluation at two resolutions
    for p in (3, 7, 23):
        expo = (p - 1) / 3
        vals = []
        for grid in (20011, 40009):
            best = min(
                (1 - t ** p) / ((1 - t) * t ** expo)
                for t in (i / grid for i in range(1, grid))
            )
            vals.append(best / p)
        assert eg_constant(p) == pytest.approx(vals[0], rel=1e-6)
        assert eg_constant(p) == pytest.approx(vals[1], rel=1e-6)


def test_eg_constant_decreasing():
    primes = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
    values = [eg_constant(p) for p in primes]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_bound_table_reference_rows():
    for p, (bose_v, product_v, new_bound) in G.BOUND_TABLE.items():
        row = bound_table(p)
        assert row.bose_bound == pytest.approx(bose_v, abs=1e-5)
        assert row.product_bound == pytest.approx(product_v, abs=1e-5)
        assert row.new_bound == new_bound
        assert row.mu == pytest.approx(math.log(new_bound) / math.log(p))
    for p, mu in G.MU_VALUES.items():
        assert bound_table(p).mu == pytest.approx(mu, abs=1e-5)


def test_asymptotic_ratio_approaches_constant():
    est = size_estimate(PAIR11, 40 * 5)
    n = 40 * 5
    ratio = math.exp(
        math.log(est.exact_count) + est.delta / 2 * math.log(n) - n * math.log(5)
    )
    assert abs(ratio - est.c_const) / est.c_const < 0.05


def test_count_agreement_random_instances():
    rng = random.Random(2024)
    for _ in range(15):
        p = rng.choice((5, 7, 11))
        size = rng.randint(2, 4)
        digits = tuple(sorted(rng.sample(range(p), size)))
        fixed = tuple(sorted(rng.sample(digits, rng.randint(0, size))))
        pair = digit_pair(p, digits, fixed)
        n = size * rng.randint(1, 2)
        if size_estimate(pair, n).exact_count > 200_000:
            continue
        assert len(build_cap(pair, n)) == size_estimate(pair, n).exact_count


def test_admissible_pairs_give_caps_at_small_dimensions():
    rng = random.Random(998)
    built = 0
    while built < 6:
        p = rng.choice((5, 7, 11))
        digits = tuple(sorted(rng.sample(range(p), rng.randint(2, 4))))
        fixed = tuple(sorted(rng.sample(digits, rng.randint(0, len(digits)))))
        pair = digit_pair(p, digits, fixed)
        if not cone_admissible(pair):
            continue
        for n in (len(digits), 2 * len(digits)):
            if size_estimate(pair, n).exact_count <= 3000:
                assert verify_cap(build_cap(pair, n)).ok
        built += 1


def test_cone_witness_yields_collinear_triple():
    # an inadmissible pair's refutation witness materializes as an actual
    # collinear triple inside the constructed point set
    from affinecaps import enumerate_progressions, make_line_equation
    from affinecaps.capset import collinear_witness_points

    rng = random.Random(999)
    built = 0
    while built < 8:
        p = rng.choice((7, 11, 13))
        digits = tuple(sorted(rng.sample(range(p), rng.randint(3, 5))))
        fixed = tuple(sorted(rng.sample(digits, rng.randint(1, len(digits)))))
        pair = digit_pair(p, digits, fixed)
        refuting = [(b, c) for b, c in cone_certificates(pair).items() if not c.trivial]
        if not refuting:
            continue
        b, cert = refuting[0]
        table = enumerate_progressions(pair, make_line_equation(p, b))
        n, x, y, z = collinear_witness_points(table, cert.witness)
        k = n // len(digits)
        for q in (x, y, z):
            assert len(q) == n and set(q) <= set(digits)
            assert all(q.count(d) == k for d in fixed)
        assert len({x, y, z}) == 3
        check = verify_cap([x, y, z], p)
        assert not check.ok
        built += 1


def test_point_file_round_trip(tmp_path):
    cap = build_cap(PAIR11, 5)
    path = tmp_path / "points.txt"
    write_points(cap, path)
    assert read_points(path) == cap.points
    first_line = path.read_text().splitlines()[0]
    assert first_line == " ".join(str(v) for v in cap.points[0])
