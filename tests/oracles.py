"""Reference oracles for tests only.

``minimal_witnesses`` is a bound-free oracle for cone triviality. It lists
the extreme rays of the pointed cone {x >= 0 : A x = 0} by the integer double
description method (Motzkin, Raiffa, Thompson and Thrall, 1953). The extreme
rays of this cone are exactly its support-minimal elements, each unique up to
scale, so the primitive integer ray of every minimal support is returned. The
cone is trivial iff the list is empty, and every element of the cone is a
nonnegative combination of the listed rays, so no witness of any size is
missed. It uses Python ints only and shares no code with the simplex, the
RREF or the certificate checker of the package, so agreement with
``cone_trivial`` is an independent check.

The single-method pair verdicts (``cone_certificates``, ``cone_admissible``,
``digit_reducible``, ``matrix_reducible``, ``combined_reducible``) apply one
per-representative primitive of the package to every equation-class
representative. They never go through ``search.check_pair``, so a test can
compare their verdicts with each other and with the pipeline.

``brute_normalize`` scans all p(p-1) affine maps for the lexicographically
least image of a digit set, the reference for ``normalize_digit_set``.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from affinecaps import (
    build_constraint_system,
    cone_trivial,
    digit_reduce,
    enumerate_progressions,
    equation_classes,
    make_line_equation,
    matrix_reduce,
)
from affinecaps.zp import affine_image


def _primitive(v: list[int]) -> tuple[int, ...]:
    g = gcd(*v)
    return tuple(x // g for x in v)


def _support(v: Sequence[int]) -> int:
    return sum(1 << j for j, x in enumerate(v) if x)


def _support_minimal(rays: set[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """Keep the rays whose support strictly contains no other ray's support."""
    supports = {r: _support(r) for r in rays}
    return {
        r for r, s in supports.items()
        if not any(t != s and t & s == t for t in supports.values())
    }


def minimal_witnesses(matrix: Sequence[Sequence[int]],
                      n_cols: int) -> list[tuple[int, ...]]:
    """Extreme rays of {x >= 0 : A x = 0} as primitive integer vectors, sorted.

    Starts from the unit vectors (the rays of the orthant) and intersects with
    one hyperplane a.x = 0 per row: rays with a.r = 0 stay, and each pair with
    a.r_p > 0 > a.r_n gives (-a.r_n) r_p + (a.r_p) r_n, divided by its gcd.
    After each row only distinct, support-minimal rays are kept.
    """
    rays = {tuple(int(i == j) for i in range(n_cols)) for j in range(n_cols)}
    for row in matrix:
        dots = {r: sum(a * x for a, x in zip(row, r)) for r in rays}
        positive = [r for r, d in dots.items() if d > 0]
        negative = [r for r, d in dots.items() if d < 0]
        kept = {r for r, d in dots.items() if d == 0}
        for rp in positive:
            for rn in negative:
                kept.add(_primitive([-dots[rn] * x + dots[rp] * y
                                     for x, y in zip(rp, rn)]))
        rays = _support_minimal(kept)
    return sorted(rays)


def _system(pair, b):
    """Constraint system of the pair for the line equation with parameter b."""
    return build_constraint_system(enumerate_progressions(pair, make_line_equation(pair.p, b)))


def _digit_closes(pair, b) -> bool:
    return digit_reduce(pair, make_line_equation(pair.p, b)).reduced


def cone_certificates(pair):
    """Cone certificate of every equation-class representative b, keyed by b."""
    return {b: cone_trivial(_system(pair, b)) for b in equation_classes(pair.p).representatives}


def cone_admissible(pair) -> bool:
    return all(cert.trivial for cert in cone_certificates(pair).values())


def digit_reducible(pair) -> bool:
    return all(_digit_closes(pair, b) for b in equation_classes(pair.p).representatives)


def matrix_reducible(pair) -> bool:
    return all(matrix_reduce(_system(pair, b)).reduced
               for b in equation_classes(pair.p).representatives)


def combined_reducible(pair) -> bool:
    """Each representative yields to the digit rule or to the matrix rule."""
    return all(_digit_closes(pair, b) or matrix_reduce(_system(pair, b)).reduced
               for b in equation_classes(pair.p).representatives)


def brute_normalize(digits, p: int) -> tuple[int, ...]:
    """Lexicographically least image of the digit set over all affine maps."""
    return min(affine_image(digits, a, b, p) for a in range(1, p) for b in range(p))
