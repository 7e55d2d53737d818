"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The p=23 maximality sweep
carries the `extended` marker.
"""

import json
import math
import random
import time
from itertools import combinations

import pytest

import golden as G
from oracles import (
    cone_admissible,
    cone_certificates,
    digit_reducible,
    integer_oracle,
    matrix_reducible,
    minimal_witnesses,
)
from affinecaps import (
    build_constraint_system,
    cone_trivial,
    digit_pair,
    digit_reduce,
    enumerate_progressions,
    equation_classes,
    make_line_equation,
    matrix_reduce,
    rref,
    verify_certificate,
)
from affinecaps.capset import (
    bound_table,
    build_cap,
    eg_constant,
    size_estimate,
    verify_cap,
)
from affinecaps.search import max_admissible_size, render_report, verify_report_payload
from affinecaps.zp import affine_image


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def test_criterion_01_golden_progression_lists():
    t0 = time.monotonic()
    cases = [
        (11, G.P11_DIGITS, 9, sorted(G.P11_TABLE_B9)),
        (11, G.P11_DIGITS, 8, sorted(G.P11_TABLE_B8)),
        (17, G.P17_DIGITS, 15, sorted(G.P17_TABLE_B15)),
        (17, G.P17_DIGITS, 14, sorted(G.P17_TABLE_B14)),
        (17, G.P17_DIGITS, 13, sorted(G.P17_TABLE_B13)),
        (23, G.P23_DIGITS, 21, G.P23_TABLE_B21),
    ]
    for p, digits, b, expected in cases:
        table = enumerate_progressions(digit_pair(p, digits),
                                       make_line_equation(p, b))
        assert list(table.rows) == expected, (p, b)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(1, f"6 published progression lists reproduced byte-exact ({elapsed:.2f}s)")


def test_criterion_02_golden_matrix_and_row_space():
    t0 = time.monotonic()
    pair = digit_pair(23, G.P23_DIGITS)
    table = enumerate_progressions(pair, make_line_equation(23, 21))
    system = build_constraint_system(table)
    assert [list(r) for r in system.matrix] == G.P23_MATRIX
    assert sum(1 for row in rref(G.P23_MATRIX) if any(row)) == 15  # rank
    # reduced echelon forms are canonical, so equality means equal row spaces
    assert rref(G.P23_MATRIX) == rref(G.P23_ECHELON)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(2, f"18x22 matrix entry-exact; published echelon form spans the "
              f"same rational row space, rank 15 ({elapsed:.2f}s)")


def test_criterion_03_reducibility_verdicts():
    t0 = time.monotonic()
    for p in (11, 17, 29, 41):
        assert digit_reducible(digit_pair(p, *G.PUBLISHED_PAIRS[p])), p
    assert matrix_reducible(digit_pair(23, G.P23_DIGITS))
    assert not matrix_reducible(digit_pair(17, G.P17_DIGITS, G.P17_FIXED))
    for fixed in combinations(G.P23_DIGITS, 7):
        pair = digit_pair(23, G.P23_DIGITS, fixed)
        assert not digit_reducible(pair)
        assert not matrix_reducible(pair)
    certs = cone_certificates(digit_pair(23, G.P23_DIGITS, G.P23_FIXED))
    assert len(certs) == 4
    assert all(cert.trivial for cert in certs.values())
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(3, f"digit-reducible 11/17/29/41; matrix-reducible 23 only with all "
              f"digits pinned; all 36 size-7 pinnings resist both reductions "
              f"yet certify via the cone ({elapsed:.2f}s)")


def test_criterion_04_equation_classes():
    t0 = time.monotonic()
    for p, classes_e in ((23, G.P23_CLASSES_E), (29, G.P29_CLASSES_E),
                         (41, G.P41_CLASSES_E)):
        part = equation_classes(p)
        expected = sorted(G.classes_as_b_sets(classes_e, p), key=min)
        assert [frozenset(c) for c in part.classes] == expected, p
    for p in (5, 11, 17, 23, 29, 41):
        assert len(equation_classes(p).classes) == (p + 1) // 6, p
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(4, f"published class lists reproduced for p=23/29/41; class count "
              f"(p+1)/6 for all p = 5 mod 6 up to 41 ({elapsed:.2f}s)")


def test_criterion_05_cap_construction_and_verification():
    pair11 = digit_pair(11, G.P11_DIGITS, G.P11_FIXED)
    t0 = time.monotonic()
    cap = build_cap(pair11, 5)
    assert len(cap) == 240
    assert verify_cap(cap).ok
    small = time.monotonic() - t0
    assert small < 1.0

    t0 = time.monotonic()
    cap10 = build_cap(pair11, 10)
    assert len(cap10) == 302400 == size_estimate(pair11, 10).exact_count
    assert verify_cap(cap10).ok
    mid = time.monotonic() - t0
    assert mid < 30.0

    pair17 = digit_pair(17, G.P17_DIGITS, G.P17_FIXED)
    t0 = time.monotonic()
    cap17 = build_cap(pair17, 7)
    assert len(cap17) == 10080
    assert verify_cap(cap17).ok
    big = time.monotonic() - t0
    assert big < 180.0

    x, y = cap.points[0], cap.points[1]
    planted = tuple((2 * b - a) % 11 for a, b in zip(x, y))
    broken = verify_cap(list(cap.points) + [planted], 11)
    assert not broken.ok and broken.violation is not None
    report(5, f"240-point cap verified ({small:.2f}s); 302400 points counted "
              f"and verified ({mid:.2f}s); 10080-point cap fully verified ({big:.1f}s); "
              f"corruption detected with witness triple")


def test_criterion_06_bound_table():
    for p, (bose_v, product_v, _) in G.BOUND_TABLE.items():
        row = bound_table(p)
        assert abs(row.bose_bound - bose_v) < 1e-5, p
        assert abs(row.product_bound - product_v) < 1e-5, p
    for p, mu in G.MU_VALUES.items():
        assert abs(bound_table(p).mu - mu) < 1e-5, p
    report(6, "both closed-form bound columns match to 5 decimals for all 11 "
              "listed primes; exponents match for p=11/17/23")


def test_criterion_07_maximality_small_primes():
    t0 = time.monotonic()
    r7 = max_admissible_size(7)
    e7 = time.monotonic() - t0
    assert r7.max_size == 3 and r7.maximality == "proven" and e7 < 60

    t0 = time.monotonic()
    r11 = max_admissible_size(11)
    e11 = time.monotonic() - t0
    assert r11.max_size == 5 and r11.maximality == "proven" and e11 < 300

    t0 = time.monotonic()
    r13 = max_admissible_size(13)
    e13 = time.monotonic() - t0
    assert r13.max_size == 4 and r13.maximality == "proven" and e13 < 900

    t0 = time.monotonic()
    r17 = max_admissible_size(17)
    e17 = time.monotonic() - t0
    assert r17.max_size == 7 and r17.maximality == "proven" and e17 < 7200
    report(7, f"max sizes proven: p=7 -> 3 ({e7:.2f}s), p=11 -> 5 ({e11:.2f}s), "
              f"p=13 -> 4 ({e13:.2f}s), p=17 -> 7 ({e17:.2f}s, "
              f"{r17.candidates_examined} candidates)")


@pytest.mark.extended
def test_criterion_07_extended_p23(tmp_path):
    t0 = time.monotonic()
    result = max_admissible_size(23, workers=1, checkpoint_path=tmp_path / "p23.jsonl")
    elapsed = time.monotonic() - t0
    assert result.max_size == 9 and result.maximality == "proven"
    assert elapsed < 60
    assert verify_report_payload(json.loads(render_report(result)))
    records = [json.loads(line) for line in (tmp_path / "p23.jsonl").read_text().splitlines()]
    assert any(rec["methods"] == [[rec.get("refuted_b"), "inherited"]] for rec in records)
    report(7, f"extended: p=23 -> 9 proven ({elapsed:.0f}s, "
              f"{result.candidates_examined} candidates)")


def test_criterion_08_certificate_soundness():
    """Fuzz: certificates always verify; cone verdicts against a complete oracle.

    The reference is ``minimal_witnesses``, the extreme rays of the cone by
    double description, which misses no witness of any size: the verdict must
    be trivial exactly when it finds none. The bound-3 box search sees only
    {0..3}^columns, so it is held to what it can show: a point in the box
    refutes triviality, and a minimal witness with entries at most 3 lies in
    the box. Nontrivial systems whose box is empty are counted.
    """
    rng = random.Random(8)
    t0 = time.monotonic()
    checked = skipped = 0
    n_trivial = box_empty = 0
    disagreements = []
    while checked + skipped < 1000:
        p = rng.choice((5, 7, 11, 13))
        digits = tuple(sorted(rng.sample(range(p), rng.randint(2, min(6, p - 1)))))
        fixed = tuple(sorted(rng.sample(digits, rng.randint(1, len(digits)))))
        b = rng.randint(1, p - 2)
        system = build_constraint_system(
            enumerate_progressions(digit_pair(p, digits, fixed),
                                   make_line_equation(p, b)))
        if 4 ** system.n_cols > 10 ** 7:
            skipped += 1
            continue
        cert = cone_trivial(system)
        assert verify_certificate(system, cert)  # 100% of certificates verify
        witnesses = minimal_witnesses(system.matrix, system.n_cols)
        for w in witnesses:
            assert any(w) and min(w) >= 0, (p, digits, fixed, b, w)
            assert all(sum(a * x for a, x in zip(row, w)) == 0
                       for row in system.matrix), (p, digits, fixed, b, w)
        if cert.trivial != (not witnesses):
            disagreements.append((p, digits, fixed, b, cert.kind, witnesses))
        found = integer_oracle(system, 3)
        if found is not None:
            assert not cert.trivial, (p, digits, fixed, b, found)
        if any(max(w) <= 3 for w in witnesses):
            assert found is not None, (p, digits, fixed, b, witnesses)
        n_trivial += cert.trivial
        box_empty += not cert.trivial and found is None
        checked += 1
    elapsed = time.monotonic() - t0
    assert checked + skipped == 1000
    assert not disagreements, (
        f"cone verdict disagrees with the complete oracle on "
        f"{len(disagreements)} of {checked} systems, e.g. (p, digits, fixed, "
        f"b, verdict, minimal witnesses) = {disagreements[0]}"
    )
    report(8, f"{checked} fuzzed systems: all certificates verify; verdicts "
              f"agree with the complete minimal-witness oracle "
              f"({n_trivial} trivial, {checked - n_trivial} nontrivial, "
              f"{box_empty} of them with an empty bound-3 box) ({elapsed:.1f}s)")


def test_criterion_09_cross_module_implications():
    rng = random.Random(161803)
    t0 = time.monotonic()
    for _ in range(500):
        p = rng.choice((5, 7, 11, 13, 17))
        digits = tuple(sorted(rng.sample(range(p), rng.randint(2, min(6, p - 1)))))
        fixed = tuple(sorted(rng.sample(digits, rng.randint(0, len(digits)))))
        pair = digit_pair(p, digits, fixed)
        verdicts = cone_certificates(pair)
        for b in equation_classes(p).representatives:
            table = enumerate_progressions(pair, make_line_equation(p, b))
            system = build_constraint_system(table)
            if digit_reduce(table).reduced or matrix_reduce(system).reduced:
                assert verdicts[b].trivial, (pair, b)
        if all(c.trivial for c in verdicts.values()):
            if len(fixed) < len(digits):
                extra = rng.choice([d for d in digits if d not in fixed])
                bigger = tuple(sorted(set(fixed) | {extra}))
                assert cone_admissible(digit_pair(p, digits, bigger))
            a, c = rng.randint(1, p - 1), rng.randrange(p)
            image = digit_pair(p, affine_image(digits, a, c, p),
                               affine_image(fixed, a, c, p) if fixed else ())
            assert cone_admissible(image)
    elapsed = time.monotonic() - t0
    report(9, f"500 random pairs: reduction success implies a trivial cone, "
              f"admissibility is monotone in the pinned digits and invariant "
              f"under affine maps ({elapsed:.1f}s)")


def test_criterion_10_analysis_constants():
    j101 = eg_constant(101)
    assert abs(j101 - 0.8414) < 0.02
    primes = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
              67, 71, 73, 79, 83, 89, 97, 101]
    values = [eg_constant(p) for p in primes]
    assert all(a > b for a, b in zip(values, values[1:]))

    pair = digit_pair(11, G.P11_DIGITS, G.P11_FIXED)
    n = 40 * len(G.P11_DIGITS)
    est = size_estimate(pair, n)
    ratio = math.exp(math.log(est.exact_count)
                     + est.delta / 2 * math.log(n) - n * math.log(5))
    rel = abs(ratio - est.c_const) / est.c_const
    assert rel < 0.05
    report(10, f"J(101) = {j101:.4f} (within 0.02 of the limit), J decreasing "
               f"over primes up to 101; count ratio at n=200 within "
               f"{100 * rel:.2f}% of the predicted constant")
