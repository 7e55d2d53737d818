import math
import random
import time
from itertools import permutations

import numpy as np
import pytest

import golden as G
from oracles import cone_admissible, cone_certificates, collinear_triple_naive
from affinecaps import capset, digit_pair
from affinecaps.zp import _inverses
from affinecaps.capset import (
    DEFAULT_ENUMERATION_CAP,
    CapPointSet,
    EnumerationTooLarge,
    _scan_bases,
    bound_table,
    build_cap,
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
    assert size_estimate(PAIR11, 15).exact_count > DEFAULT_ENUMERATION_CAP
    with pytest.raises(EnumerationTooLarge):
        build_cap(PAIR11, 15)


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
    [(0, 1, 2), (0, 1, 2 ** 64)],
    [0, 1, 2],
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


@pytest.mark.parametrize("p, n, parabola", [
    (1289, 3, False), (1291, 3, False), (46337, 2, False), (46349, 2, False),
    (181, 3, False), (191, 3, False), (181, 2, True), (191, 2, True),
], ids=["int32-n3", "int64-n3", "int32-n2", "int64-n2",
        "int16-n3", "int32-p191-n3", "int16-table", "int32-p191-table"])
def test_sets_on_both_sides_of_the_int32_switch_agree_with_cubic_oracle(p, n, parabola):
    # p^n lies just below 2^31 for the first prime of each n and just above
    # for the second, and p^2 lies just below 2^15 for 181, where the
    # residues are int16, and just above for 191. From x, the lead of y - x
    # is p - 1, whose inverse is p - 1, so the scan forms the products
    # +-(p - 1)^2. Thirty points take an inverse per lead; the parabola
    # {(t, t^2)}, which no line meets three times, has p points and takes
    # the table of p inverses.
    x = (0,) + (p - 1,) * (n - 1)
    y = (p - 1,) + (0,) * (n - 1)
    z = tuple((a + 2 * (b - a)) % p for a, b in zip(x, y))
    if parabola:
        pts = sorted({(t, t * t % p) for t in range(p)} - {x, y, z})
        assert len(pts) == p and verify_cap(pts, p).ok  # the oracle would take seconds
    else:
        rng = random.Random(p)
        pts = sorted({tuple(rng.randrange(p) for _ in range(n)) for _ in range(30)} - {x, y, z})
        assert assert_agrees_with_oracle(pts, p).ok
    assert not assert_agrees_with_oracle(pts + [x, y, z], p).ok


@pytest.mark.parametrize("p, n, count", [(181, 3, 181), (46337, 2, 600), (1291, 3, 1291),
                                          (181, 9, 120)],
                         ids=["int16-table", "int32-per-lead", "int64-table", "bytes-key"])
def test_blocks_of_bases_find_the_triple_of_a_scan_one_base_at_a_time(monkeypatch, p, n, count):
    # Points of the moment curve (t, t^2, ..., t^n) are a cap: three of them
    # are affinely independent (a Vandermonde determinant). So every
    # collinear triple holds the point planted on the line through two of
    # them, and its base, not the least point, sits inside a block. The set
    # spans several blocks at p = 46337 and 1291; 181^9 > 2^62 gives byte keys.
    rng = random.Random(p * n)
    curve = [tuple(pow(t, k, p) for k in range(1, n + 1)) for t in rng.sample(range(p), count)]
    for _ in range(4):
        x, y = rng.sample(sorted(curve)[1:], 2)
        c = rng.randrange(2, p)
        pts = curve + [tuple((a + c * (b - a)) % p for a, b in zip(x, y))]
        blocks = verify_cap(pts, p)
        assert not blocks.ok and blocks.violation[0] != min(pts)
        monkeypatch.setattr(capset, "_SCAN_BLOCK", 1)  # one base per block
        assert verify_cap(pts, p) == blocks
        monkeypatch.undo()


def unit_rows(n, *values):
    """The multiples v * e_i of the unit vectors for each v (v = 0 repeats the
    origin): a set closed under coordinate permutations."""
    return [tuple(v if k == i else 0 for k in range(n)) for v in values for i in range(n)]


NEARLY_CLOSED = [q for t in range(1, 4) for q in permutations((t, 0, 0)) if q != (0, 0, 2)]


@pytest.mark.parametrize("points, p, closed, ok", [
    (unit_rows(39, 0, 1), 3, True, True),
    (unit_rows(39, 0, 1, 2), 3, True, False),
    (unit_rows(40, 0, 1), 3, True, True),
    (unit_rows(40, 0, 1, 2), 3, True, False),
    (NEARLY_CLOSED, 5, False, False),
], ids=["code-key", "code-key-triple", "bytes-key", "bytes-key-triple", "one-row-short"])
def test_permutation_closure_is_counted_on_the_points(points, p, closed, ok):
    # 3^39 < 2^62 < 3^40, so the closure count keys the sorted rows by their
    # base-3 code at n = 39 and by their bytes at n = 40. Without (0, 0, 2)
    # the set is one point short of closed, and both its collinear triples,
    # on the first and the second axis, start from an unsorted point.
    points = sorted(set(points))
    arr = np.array(points, dtype=np.int64)
    bases = np.flatnonzero((np.sort(arr, axis=1) == arr).all(axis=1)) if closed \
        else np.arange(len(arr))
    assert _scan_bases(arr, p).tolist() == bases.tolist()
    assert assert_agrees_with_oracle(points, p).ok == ok


def test_a_few_points_at_a_large_prime_are_checked_without_a_table_of_p_inverses():
    p = 10_000_019
    started = time.perf_counter()
    assert not verify_cap([(0, 0, 0), (1, 2, 3), (2, 4, 6)], p).ok
    assert verify_cap([(0, 0, 0), (1, 2, 3), (2, 4, 7)], p).ok
    assert time.perf_counter() - started < 1


def test_leads_of_either_sign_are_inverted_up_to_the_largest_modulus():
    # below p points verify_cap inverts each base's leads, in (0, p), by powering;
    # the powering takes residues of either sign
    p = 2 ** 31 - 1
    rng = random.Random(271)
    leads = [1, -1, 2, -2, p - 1, 1 - p] + [rng.choice((1, -1)) * rng.randrange(1, p)
                                             for _ in range(200)]
    inverses = _inverses(np.array(leads, dtype=np.int64), p)
    assert all(0 < v < p and a * v % p == 1 for a, v in zip(leads, inverses.tolist()))


def test_sparse_sets_at_large_primes_agree_with_cubic_oracle():
    rng = random.Random(1009)
    verdicts = set()
    for p in (10_007, 1_000_003, 10_000_019):
        for n in (2, 3, 5):
            pts = sorted({tuple(rng.randrange(p) for _ in range(n)) for _ in range(30)})
            verdicts.add(assert_agrees_with_oracle(pts, p).ok)
            x, y = rng.sample(pts, 2)
            c = rng.randrange(2, p)
            planted = tuple((a + c * (b - a)) % p for a, b in zip(x, y))
            assert not assert_agrees_with_oracle(pts + [planted], p).ok
    assert verdicts == {True, False}


def test_unclosed_cap_point_set_with_collinear_triple_is_rejected():
    # No point of the collinear triple is sorted, and the set is not closed
    # under coordinate permutations: only a full scan finds the triple.
    triple = ((1, 0, 0), (2, 0, 0), (3, 0, 0))
    pts = tuple(sorted(triple + ((0, 1, 2), (0, 1, 4))))
    fake = CapPointSet(3, digit_pair(5, (0, 1, 2, 3)), pts)
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
    with pytest.raises(ValueError):  # a raw collection has no modulus of its own
        verify_cap(cap.points)
    assert verify_cap(cap, 11).ok


def test_hand_built_cap_point_sets_are_checked_like_raw_points():
    pair = digit_pair(5, (0, 1, 2, 3))
    # a repeated point is one point, not a collinear triple
    doubled = CapPointSet(2, pair, ((0, 1), (0, 2), (0, 2), (1, 0)))
    assert assert_agrees_with_oracle(doubled).ok
    for points in (((0, 1), (0, 7)), ((0, 1), (0, 2, 3))):
        with pytest.raises(ValueError):
            verify_cap(CapPointSet(2, pair, points))


def test_bose_cap_small_primes():
    # The quadric cap {(t^2 + st + as^2, s, t)} of q^2 points in AG(3, q),
    # with x^2 + x + a irreducible, that is 1 - 4a a non-square. It is not
    # closed under coordinate permutations, so every point is a scan base.
    for q in (5, 7):
        squares = {x * x % q for x in range(q)}
        a = next(a for a in range(q) if (1 - 4 * a) % q not in squares)
        cap = {((t * t + s * t + a * s * s) % q, s, t) for s in range(q) for t in range(q)}
        assert len(cap) == q * q
        assert any(pt[::-1] not in cap for pt in cap)
        assert verify_cap(cap, q).ok


def test_eg_constant_values():
    assert 3 * eg_constant(3) == pytest.approx(2.7551, abs=2e-4)
    assert eg_constant(101) == pytest.approx(0.8414, abs=0.02)


def test_eg_constant_grid_cross_check():
    # independent coarse evaluation at two resolutions
    for p in (3, 7, 23, 109):
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
    primes = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 109, 211, 1009]
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
        points = build_cap(pair, n).points
        assert len(points) == size_estimate(pair, n).exact_count
        assert all(a < b for a, b in zip(points, points[1:]))  # strictly sorted
        for q in points:
            assert set(q) <= set(digits)
            assert all(q.count(d) == n // size for d in fixed)


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
