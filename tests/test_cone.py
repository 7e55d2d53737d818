import random
from fractions import Fraction

import pytest

import golden as G
from oracles import (
    InstanceTooLarge,
    all_candidates,
    cone_admissible,
    cone_certificates,
    integer_oracle,
    minimal_witnesses,
)
from traffic import pipeline_pairs
from affinecaps import (
    build_constraint_system,
    cone_trivial,
    digit_pair,
    digit_reduce,
    enumerate_progressions,
    equation_classes,
    make_line_equation,
    matrix_reduce,
    search,
    verify_certificate,
)
from affinecaps.cone import ConeCertificate, _row_sums
from affinecaps.progressions import ConstraintSystem


def synth(rows):
    """Wrap a raw coefficient matrix as a constraint system for cone tests."""
    n = len(rows[0]) if rows else 0
    return ConstraintSystem(
        tuple(tuple(r) for r in rows),
        tuple((2, i) for i in range(len(rows))),
        tuple((j, j, j) for j in range(n)),
    )


def system_for(p, digits, fixed, b):
    pair = digit_pair(p, digits, fixed)
    return build_constraint_system(enumerate_progressions(pair, make_line_equation(p, b)))


def test_single_positive_column_is_trivial():
    cert = cone_trivial(synth([[1]]))
    assert cert.trivial
    assert cert.dual == (Fraction(1),)
    assert verify_certificate(synth([[1]]), cert)


def test_balanced_pair_is_nontrivial():
    cert = cone_trivial(synth([[1, -1]]))
    assert not cert.trivial
    assert cert.witness == (1, 1)
    assert verify_certificate(synth([[1, -1]]), cert)


def test_verify_rejects_bad_witness():
    system = synth([[1, -1]])
    from affinecaps.cone import ConeCertificate

    assert not verify_certificate(system, ConeCertificate("nontrivial", witness=(1, 0)))
    assert not verify_certificate(system, ConeCertificate("nontrivial", witness=(0, 0)))
    with pytest.raises(ValueError):
        verify_certificate(system, ConeCertificate("nontrivial", witness=(1, 0, 0)))
    with pytest.raises(ValueError):
        verify_certificate(system, ConeCertificate("trivial", dual=(Fraction(1), Fraction(1))))
    # with no fixed digit there are columns but no rows, and the cone is the
    # whole orthant: no dual proves it trivial, the empty one included
    unpinned = system_for(11, (0, 1, 3, 4, 5), (), 9)
    assert unpinned.n_rows == 0 < unpinned.n_cols
    assert not verify_certificate(unpinned, ConeCertificate("trivial", dual=()))
    with pytest.raises(ValueError):
        verify_certificate(unpinned, ConeCertificate("trivial", dual=(Fraction(1),)))
    cert = cone_trivial(unpinned)
    assert not cert.trivial and verify_certificate(unpinned, cert)


def test_p23_published_pair_admissible_with_four_certificates():
    certs = cone_certificates(digit_pair(23, G.P23_DIGITS, G.P23_FIXED))
    assert list(certs) == [1, 2, 3, 4]
    for b, cert in certs.items():
        assert cert.trivial
        assert verify_certificate(system_for(23, G.P23_DIGITS, G.P23_FIXED, b), cert)


def test_all_published_pairs_admissible():
    for p, (digits, fixed) in G.PUBLISHED_PAIRS.items():
        assert cone_admissible(digit_pair(p, digits, fixed))


def test_p5_smallest_case_admissible():
    assert cone_admissible(digit_pair(5, (0, 1, 2)))


def test_p13_size5_samples_inadmissible():
    rng = random.Random(13)
    from itertools import combinations

    all_sets = [(0, 1) + rest for rest in combinations(range(2, 13), 3)]
    for digits in rng.sample(all_sets, 12):
        certs = cone_certificates(digit_pair(13, digits))
        refuting = {b: c for b, c in certs.items() if not c.trivial}
        assert refuting and all(
            verify_certificate(system_for(13, digits, digits, b), c)
            for b, c in refuting.items()
        )


def test_dual_normalization_and_witness_gcd():
    rng = random.Random(555)
    for _ in range(60):
        rows = [[rng.choice((-1, 0, 0, 1)) for _ in range(rng.randint(1, 6))]
                for _ in range(rng.randint(1, 4))]
        width = max(len(r) for r in rows)
        rows = [r + [0] * (width - len(r)) for r in rows]
        system = synth(rows)
        cert = cone_trivial(system)
        assert verify_certificate(system, cert)
        if cert.trivial and system.n_cols:
            products = [
                sum(Fraction(system.matrix[i][j]) * cert.dual[i]
                    for i in range(system.n_rows))
                for j in range(system.n_cols)
            ]
            assert min(products) == 1
            shrunk = tuple(v * Fraction(6, 7) for v in cert.dual)  # min(A^T y) = 6/7
            assert not verify_certificate(system, ConeCertificate("trivial", dual=shrunk))
        if not cert.trivial:
            from math import gcd

            assert gcd(*cert.witness) == 1
            assert all(isinstance(v, int) for v in cert.witness)


def test_integer_oracle_examples():
    assert integer_oracle(synth([[1, -1]]), 1) == (1, 1)
    assert integer_oracle(synth([[1]]), 3) is None
    system = system_for(11, G.P11_DIGITS, G.P11_FIXED, 9)
    assert integer_oracle(system, 2) is None
    with pytest.raises(InstanceTooLarge):
        integer_oracle(synth([[1] * 40]), 3)
    assert minimal_witnesses([[1, -1]], 2) == [(1, 1)]
    assert minimal_witnesses([[1]], 1) == []
    # every witness of this system needs an entry of 4, so the bound-3 box is
    # empty although the cone is nontrivial
    system = system_for(13, (1, 2, 5, 6, 7, 9), (1, 2, 6, 7), 6)
    assert system.n_cols == 8
    assert minimal_witnesses(system.matrix, system.n_cols) == [
        (2, 2, 4, 4, 1, 1, 0, 1), (2, 2, 4, 4, 1, 1, 1, 0)]
    assert integer_oracle(system, 3) is None
    assert integer_oracle(system, 4) is not None
    cert = cone_trivial(system)
    assert not cert.trivial and verify_certificate(system, cert)


def test_oracle_agreement_small_fuzz():
    # the complete oracle decides the verdict; the bound-3 box can only refute
    # triviality, and must find a point when some minimal witness fits in it
    rng = random.Random(808)
    for _ in range(200):
        n_cols = rng.randint(1, 5)
        n_rows = rng.randint(1, 4)
        rows = [[rng.choice((-1, 0, 0, 1)) for _ in range(n_cols)] for _ in range(n_rows)]
        system = synth(rows)
        cert = cone_trivial(system)
        witnesses = minimal_witnesses(rows, n_cols)
        assert cert.trivial == (not witnesses), rows
        found = integer_oracle(system, 3)
        if found is not None:
            assert not cert.trivial
        if any(max(w) <= 3 for w in witnesses):
            assert found is not None


def test_monotone_in_fixed_digits():
    rng = random.Random(909)
    for _ in range(25):
        p = rng.choice((5, 7, 11, 13))
        digits = tuple(sorted(rng.sample(range(p), rng.randint(2, min(5, p - 1)))))
        small = tuple(sorted(rng.sample(digits, rng.randint(0, len(digits)))))
        extra = tuple(sorted(set(small) | set(rng.sample(digits, rng.randint(0, len(digits))))))
        if cone_admissible(digit_pair(p, digits, small)):
            assert cone_admissible(digit_pair(p, digits, extra))


def test_reducibility_implies_cone_trivial():
    seen = set()
    for pair in pipeline_pairs():
        for b in equation_classes(pair.p).representatives:
            table = enumerate_progressions(pair, make_line_equation(pair.p, b))
            system = build_constraint_system(table)
            reduced = digit_reduce(table).reduced or matrix_reduce(system).reduced
            seen.add((reduced, cone_trivial(system).trivial))
    # never reduced on a nontrivial cone; every other combination occurs
    assert seen == {(True, True), (False, True), (False, False)}


def test_empty_fixed_set_detects_progressions():
    # with nothing pinned the cone is nontrivial as soon as any progression exists
    assert not cone_admissible(digit_pair(11, (0, 1, 3, 4, 5), ()))
    assert cone_admissible(digit_pair(5, (0, 1), ()))  # no progressions at all


def test_certificates_use_exact_rationals():
    cert = cone_trivial(system_for(23, G.P23_DIGITS, G.P23_FIXED, 1))
    assert cert.trivial
    assert all(isinstance(v, Fraction) for v in cert.dual)


def test_row_sums_over_the_support_equal_the_dense_sums(monkeypatch):
    # the cone systems of the sweeps with every set holding 0 and 1, at
    # their witnesses and at random sparse vectors
    systems = []

    def recording_cone_trivial(system):
        systems.append(system)
        return cone_trivial(system)

    monkeypatch.setattr(search, "cone_trivial", recording_cone_trivial)
    monkeypatch.setattr(search, "candidates", all_candidates)
    monkeypatch.setattr(search, "_first_image", lambda refutations, digits: None)
    for p in (5, 7, 11, 13):
        search.max_admissible_size(p)
    rng = random.Random(2803)
    witnesses = 0
    for system in systems:
        cert = cone_trivial(system)
        vectors = [[rng.choice((0, 0, 1, 3)) for _ in range(system.n_cols)]]
        if not cert.trivial:
            vectors.append(cert.witness)
            witnesses += 1
        for x in vectors:
            assert _row_sums(system, x) == [sum(a * v for a, v in zip(row, x))
                                            for row in system.matrix]
    assert len(systems) > 300 and witnesses
