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

``matrix_first_check_pair`` is ``search.check_pair`` with the rules in
their earlier order, digit, then matrix, then cone, the reference for the
order that runs the cone before the matrix rule and records the same proofs.

``subset_minimize_fixed_digits`` runs ``search.check_pair`` on each fixed
set in turn, smallest first, and skips a set whose every digit the witness
of an earlier refuted set balances, read off ``balance_matrix``: the
reference for ``minimize_fixed_digits``, which enumerates each table once,
settles every fixed set through ``check_pair``'s loop without calling it,
and also skips the images of balanced sets under the digit set's affine
stabiliser. ``affine_stabiliser`` scans all p(p-1)
affine maps for those that map a digit set onto itself.

``brute_normalize`` scans all p(p-1) affine maps for the lexicographically
least image of a digit set, the reference for ``normalize_digit_set``, and
``affine_equivalent_scan`` scans them in (a, b) order for the first that
carries one digit set onto another, the reference for
``equivalence.affine_equivalent``.

``all_candidates`` is every ascending digit set of a size that contains 0
and 1, the full stream that ``search.candidates`` thins to one normal form
per affine orbit; a sweep run on it gives the reports and checkpoints of
the sweep before that change.

``mirror_partner`` and ``swap_partner`` are the two equation-class moves:
the b of the equation whose progressions are this one's reversed, and with
their last two entries swapped. ``searched_equation_classes`` closes each b
under them by breadth-first search, the reference for the closed-form
classes of ``equation_classes``.

``collinear_triple_naive`` tests every triple of points for linear
dependence of y - x and z - x, the cubic-time reference for ``verify_cap``.
It validates its input with the same ``capset._as_point_array``.

``balance_matrix`` builds the balance matrix of a digit set with every digit
pinned from its definition, with plain loops over D^3 and no code of the
package, the reference for the witnesses a sweep writes.

``integer_oracle`` searches the box {0, ..., bound}^cols for a nonzero
solution of A x = 0. It is incomplete (a witness may need a larger entry),
so it can only refute triviality; tests use it beside ``minimal_witnesses``.
It raises ``InstanceTooLarge`` past ``ENUMERATION_GUARD`` box points.

``fraction_rref`` and ``fraction_phase_one`` are the elimination and the
phase-one simplex carried out over ``Fraction`` entries, one division per
pivot. They are the references for the fraction-free integer kernel of the
package (``reducibility.rref``, ``cone._phase_one``), which must reproduce
them exactly: the same echelon form, and the same status and vector once
the integers of ``_phase_one`` are divided by its denominator.

``recomputing_matrix_reduce`` is the matrix rule that recomputes the echelon
form of the surviving columns with ``fraction_rref`` after every firing, the
reference for ``matrix_reduce``, which eliminates once and only deletes rows
and columns afterwards.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
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
from affinecaps.capset import CapCheck, _as_point_array
from affinecaps.reducibility import MatrixStep, ReductionTrace
from affinecaps.search import PairVerdict, RepOutcome, check_pair
from affinecaps.zp import LineEquation, Prime, affine_image, digit_pair


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
    return digit_reduce(enumerate_progressions(pair, make_line_equation(pair.p, b))).reduced


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


def matrix_first_check_pair(pair) -> PairVerdict:
    """Digit rule, then matrix rule, then cone per representative; stops at a refutation."""
    outcomes = []
    for b in equation_classes(pair.p).representatives:
        proof = digit_reduce(enumerate_progressions(pair, make_line_equation(pair.p, b)))
        if not proof.reduced:
            system = _system(pair, b)
            proof = matrix_reduce(system)
            if not proof.reduced:
                proof = cone_trivial(system)
        outcomes.append(RepOutcome(b, proof))
        if not outcomes[-1].trivial:
            break
    return PairVerdict(pair, tuple(outcomes))


def subset_minimize_fixed_digits(digits, p: int) -> PairVerdict:
    """Verdict for the first fixed set, smallest then least, that ``check_pair``
    finds admissible; ValueError when there is none."""
    digits = tuple(sorted(set(digits)))
    balanced: list[set[int]] = []
    for size in range(len(digits) + 1):
        for fixed in combinations(digits, size):
            if any(b.issuperset(fixed) for b in balanced):
                continue
            verdict = check_pair(digit_pair(p, digits, fixed))
            if verdict.admissible:
                return verdict
            refuting = verdict.outcomes[-1]
            sums = [sum(a * w for a, w in zip(row, refuting.proof.witness))
                    for row in balance_matrix(p, digits, refuting.b)]
            k = len(digits)
            balanced.append({d for i, d in enumerate(digits) if not sums[i] and not sums[k + i]})
    raise ValueError(f"digit set {digits} is not admissible mod {p}")


def affine_stabiliser(digits, p: int) -> set[tuple[int, int]]:
    """The maps x -> a*x + t, as (a, t), under which the digit set is its own image."""
    digits = tuple(sorted(digits))
    return {(a, t) for a in range(1, p) for t in range(p)
            if affine_image(digits, a, t, p) == digits}


def affine_equivalent_scan(digits1, digits2, p: int):
    """The first map (a, b) in lexicographic order with a*D1 + b = D2, or None."""
    d1, d2 = tuple(sorted(set(digits1))), tuple(sorted(set(digits2)))
    for a in range(1, p):
        for b in range(p):
            if affine_image(d1, a, b, p) == d2:
                return (a, b)
    return None


def brute_normalize(digits, p: int) -> tuple[int, ...]:
    """Lexicographically least image of the digit set over all affine maps."""
    return min(affine_image(digits, a, b, p) for a in range(1, p) for b in range(p))


def all_candidates(p: int, size: int):
    """All ascending digit sets of the given size containing 0 and 1."""
    p = Prime(p)
    if not 2 <= size <= p - 1:
        raise ValueError(f"size must lie in 2..{p - 1}, got {size}")
    return [(0, 1) + rest for rest in combinations(range(2, p), size - 2)]


def balance_matrix(p: int, digits, b: int) -> list[list[int]]:
    """The balance matrix of ``digits`` mod p at b, every digit pinned: a column per
    solution (x, y, z) in D^3 of x + by + cz = 0 with c = -1 - b, other than
    x = y = z, in lexicographic order, and a row per position 2 or 3 and digit d,
    whose entry is 1 when d is x alone, -1 when d is that position's alone, else 0."""
    c = (-1 - b) % p
    cols = sorted((x, y, z) for x in digits for y in digits for z in digits
                  if (x + b * y + c * z) % p == 0 and not x == y == z)
    return [[(v[0] == d) - (v[pos] == d) for v in cols] for pos in (1, 2) for d in digits]


def mirror_partner(eq: LineEquation) -> int:
    """b-value of the equation whose progressions are this one's, reversed."""
    return pow(eq.c, -1, eq.p) * eq.b % eq.p


def swap_partner(eq: LineEquation) -> int:
    """b-value of the equation whose progressions have the last two entries swapped."""
    return eq.c


def searched_equation_classes(p: int) -> tuple[tuple[int, ...], ...]:
    """The orbits of b in 1..p-2 under the two moves, ordered by least member."""
    seen: set[int] = set()
    classes: list[tuple[int, ...]] = []
    for b0 in range(1, p - 1):
        if b0 in seen:
            continue
        orbit = {b0}
        frontier = [b0]
        while frontier:
            eq = make_line_equation(p, frontier.pop())
            for nxt in (mirror_partner(eq), swap_partner(eq)):
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    return tuple(classes)


def _fraction_pivot(rows: list[list[Fraction]], r: int, col: int) -> None:
    """Gauss-Jordan pivot in place: make ``rows[r][col]`` 1, clear ``col`` elsewhere."""
    lead = rows[r][col]
    rows[r] = [v / lead for v in rows[r]]
    for i, row in enumerate(rows):
        if i != r and row[col] != 0:
            f = row[col]
            rows[i] = [a - f * b for a, b in zip(row, rows[r])]


def fraction_rref(matrix) -> list[list[Fraction]]:
    """Reduced row echelon form by Gauss-Jordan elimination over Fractions."""
    m = [[Fraction(v) for v in row] for row in matrix]
    if not m:
        return []
    n_rows, n_cols = len(m), len(m[0])
    piv_row = 0
    for col in range(n_cols):
        found = next((r for r in range(piv_row, n_rows) if m[r][col] != 0), None)
        if found is None:
            continue
        m[piv_row], m[found] = m[found], m[piv_row]
        _fraction_pivot(m, piv_row, col)
        piv_row += 1
        if piv_row == n_rows:
            break
    return m


def fraction_phase_one(a_rows, n_cols: int):
    """Phase-one simplex with Bland's rule over a Fraction tableau.

    Returns ("feasible", x) or ("infeasible", simplex multipliers,
    normalization row last), the Fractions that ``cone._phase_one`` holds
    as integers over one denominator.
    """
    m = len(a_rows) + 1
    tab = [[Fraction(v) for v in row] + [Fraction(0)] * (m + 1) for row in a_rows]
    tab.append([Fraction(1)] * n_cols + [Fraction(0)] * m + [Fraction(1)])
    for i in range(m):
        tab[i][n_cols + i] = Fraction(1)
    basis = [n_cols + i for i in range(m)]
    tab.append([sum(tab[i][j] for i in range(m)) for j in range(n_cols)]
               + [Fraction(0)] * m + [Fraction(1)])
    while True:
        obj = tab[m]
        enter = next((j for j in range(n_cols + m) if obj[j] > 0), None)
        if enter is None:
            break
        leave = best = None
        for i in range(m):
            coeff = tab[i][enter]
            if coeff > 0:
                ratio = tab[i][-1] / coeff
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        _fraction_pivot(tab, leave, enter)
        basis[leave] = enter
    if obj[-1] > 0:
        return "infeasible", tuple(obj[n_cols + i] + 1 for i in range(m))
    x = [Fraction(0)] * n_cols
    for i, var in enumerate(basis):
        if var < n_cols:
            x[var] = tab[i][-1]
    return "feasible", tuple(x)


def recomputing_matrix_reduce(system) -> ReductionTrace:
    """The matrix rule with a fresh Fraction RREF of the survivors after each step.

    Fires the lowest-index nonzero row whose entries share a sign, deletes
    its support and eliminates the remaining columns of the echelon form
    again, until no row fires or no column is left.
    """
    surviving = list(range(system.n_cols))
    work = fraction_rref(system.matrix)
    steps = []
    while surviving:
        fired = next((i for i, row in enumerate(work) if any(row)
                      and (all(v >= 0 for v in row) or all(v <= 0 for v in row))), None)
        if fired is None:
            break
        row = work[fired]
        steps.append(MatrixStep(fired, tuple(surviving[j] for j, v in enumerate(row) if v != 0)))
        keep = [j for j, v in enumerate(row) if v == 0]
        work = fraction_rref([[r[j] for j in keep] for r in work])
        surviving = [surviving[j] for j in keep]
    return ReductionTrace("matrix", tuple(steps), not surviving)


def collinear_triple_naive(points, p: int | None = None) -> CapCheck:
    """Cubic-time oracle: test linear dependence of y - x and z - x directly."""
    arr, p, _ = _as_point_array(points, p)
    pts = [tuple(q) for q in arr.tolist()]
    n_pts = len(pts)
    for i in range(n_pts):
        for j in range(i + 1, n_pts):
            u = tuple((a - b) % p for a, b in zip(pts[j], pts[i]))
            for k in range(j + 1, n_pts):
                v = tuple((a - b) % p for a, b in zip(pts[k], pts[i]))
                dependent = all(
                    (u[a] * v[b] - u[b] * v[a]) % p == 0
                    for a in range(len(u)) for b in range(a + 1, len(u))
                )
                if dependent:
                    return CapCheck(False, (pts[i], pts[j], pts[k]))
    return CapCheck(True)


class InstanceTooLarge(ValueError):
    """Raised when an exhaustive enumeration would exceed the guard bound."""


ENUMERATION_GUARD = 10**8


def integer_oracle(system, bound: int):
    """Exhaustive search for a witness with entries in {0, ..., bound}.

    Returns the lexicographically first nonzero solution of A x = 0, or None
    when no solution exists within the bound. Guarded against blow-up.
    """
    n = system.n_cols
    if (bound + 1) ** n > ENUMERATION_GUARD:
        raise InstanceTooLarge(f"(bound+1)^cols = {(bound + 1) ** n} exceeds guard")
    for x in product(range(bound + 1), repeat=n):
        if not any(x):
            continue
        if all(
            sum(system.matrix[i][j] * x[j] for j in range(n)) == 0
            for i in range(system.n_rows)
        ):
            return x
    return None
