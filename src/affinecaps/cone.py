"""Exact decision of whether {x >= 0 : A x = 0} is trivial, with certificates.

Admissibility of a digit-set pair asks for the non-existence of a nonzero
nonnegative integer solution of the balance equations. Because the system is
homogeneous, a nonzero nonnegative rational point scales to an integer one,
so the integer question is decided exactly by rational linear programming:
the cone is trivial iff {A x = 0, sum(x) = 1, x >= 0} is infeasible. A
phase-one simplex with Bland's rule always terminates and yields either a
feasible point (scaled to an integer witness) or simplex multipliers that
turn into a dual vector y with A^T y >= 1, which proves triviality by
0 = y^T A x >= sum(x) for any x >= 0 in the cone. The simplex runs on an
integer numpy tableau over one common denominator, pivoted by the
fraction-free ``reducibility.pivot``, which works in int64 while the entries
stay below 2**31 and in Python ints beyond. Bland's rule reads exact Python
ints out of the tableau, whose final integers hold both certificates, and
Fractions of Python ints appear only in a returned dual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .progressions import ConstraintSystem
from .reducibility import clear_denominators, pivot, tableau


@dataclass(frozen=True)
class ConeCertificate:
    """Verifiable proof object for a cone-triviality verdict.

    kind "trivial": ``dual`` has one rational entry per matrix row and
    satisfies A^T dual >= 1 componentwise (scaled so the minimum is exactly
    1). kind "nontrivial": ``witness`` is a nonzero nonnegative integer
    vector with A witness = 0 and gcd of entries 1.
    """

    kind: str
    dual: tuple[Fraction, ...] | None = None
    witness: tuple[int, ...] | None = None

    @property
    def trivial(self) -> bool:
        return self.kind == "trivial"


def _phase_one(a_rows: Sequence[Sequence[int]], n_cols: int):
    """Feasibility of {A x = 0, sum(x) = 1, x >= 0}, A integer, by exact phase-one simplex.

    Returns (obj, x, det), integers over the common denominator det > 0: the
    final objective row z_j - c_j (objective value last; infeasible iff
    obj[-1] > 0) and the original variables at the final basis. The simplex
    stops as soon as the objective reaches 0: the artificials are then all
    0, so every later pivot has ratio 0 and leaves x where it is.
    """
    m = len(a_rows) + 1
    # integer tableau over the common denominator det; columns: n_cols
    # original variables, m artificials, then the RHS; rows: the m
    # constraints, then the objective z_j - c_j for min sum(artificials)
    # with the objective value last
    rows = [list(row) + [0] * (m + 1) for row in a_rows]
    rows.append([1] * n_cols + [0] * m + [1])
    for i in range(m):
        rows[i][n_cols + i] = 1
    rows.append([sum(col) for col in zip(*rows)][:n_cols] + [0] * m + [1])
    tab = tableau(rows)
    basis = [n_cols + i for i in range(m)]
    det = 1

    while tab[m, -1]:
        entering = (tab[m, :-1] > 0).nonzero()[0]
        if not len(entering):
            break
        enter = int(entering[0])
        # Bland's ratio test: least rhs/coeff over positive coeffs, compared
        # by cross-multiplication, ties to the least basic variable
        coeffs, rhs = tab[:m, enter].tolist(), tab[:m, -1].tolist()
        leave = None
        for i, coeff in enumerate(coeffs):
            if coeff > 0 and (leave is None or (rhs[i] * coeffs[leave], basis[i])
                              < (rhs[leave] * coeff, basis[leave])):
                leave = i
        if leave is None:  # cannot happen: objective is bounded below by 0
            raise RuntimeError("phase-one objective unbounded")
        tab, det = pivot(tab, leave, enter, det)  # positive pivot keeps det > 0
        basis[leave] = enter

    x = [0] * n_cols
    for var, value in zip(basis, tab[:m, -1].tolist()):
        if var < n_cols:
            x[var] = value
    return tab[m].tolist(), x, det


def _col_sums(system: ConstraintSystem, y: Sequence[int]) -> list[int]:
    """The integer vector A^T y."""
    return [sum(system.matrix[i][j] * y[i] for i in range(system.n_rows))
            for j in range(system.n_cols)]


def _row_sums(system: ConstraintSystem, x: Sequence[int]) -> list[int]:
    """The integer vector A x, summed over the nonzero entries of x."""
    support = [(j, v) for j, v in enumerate(x) if v]
    return [sum(row[j] * v for j, v in support) for row in system.matrix]


def cone_trivial(system: ConstraintSystem) -> ConeCertificate:
    """Decide triviality of {x >= 0 : A x = 0} and return a certificate.

    Both are read off the final tableau: the witness is the feasible point
    over its gcd, the dual -u / s for u_i = r_i + det the numerator of the
    multiplier of row i, r_i the reduced cost of artificial i, and t that of
    the normalization row. Column j's reduced cost is r_j = u . a_j + t, so
    A^T (-u) = t - r_j >= t > 0, and s = t - max r_j makes min(A^T y) = 1.
    """
    n = system.n_cols
    obj, x, det = _phase_one(system.matrix, n)
    if obj[-1] > 0:
        *u, t = (r + det for r in obj[n:-1])
        assert t > 0
        s = t - max(obj[:n], default=0)
        return ConeCertificate("trivial", dual=tuple(Fraction(-v, s) for v in u))
    g = math.gcd(*x)
    return ConeCertificate("nontrivial", witness=tuple(v // g for v in x))


def verify_certificate(system: ConstraintSystem, cert: ConeCertificate) -> bool:
    """Re-check a certificate by direct multiplication.

    A dual y is checked as A^T Y >= L on the integers Y = y * L, with L the
    least common multiple of its denominators.
    """
    if cert.kind == "trivial":
        if cert.dual is None or len(cert.dual) != system.n_rows:
            raise ValueError("dual certificate has wrong dimension")
        y, denom = clear_denominators(cert.dual)
        return all(v >= denom for v in _col_sums(system, y))
    if cert.kind == "nontrivial":
        if cert.witness is None or len(cert.witness) != system.n_cols:
            raise ValueError("witness has wrong dimension")
        w = cert.witness
        if any(v < 0 for v in w) or not any(v > 0 for v in w):
            return False
        return not any(_row_sums(system, w))
    raise ValueError(f"unknown certificate kind {cert.kind!r}")


def certificate_to_jsonable(cert: ConeCertificate) -> dict:
    """Decimal-string encoding, lossless for arbitrary-precision values."""
    out: dict = {"kind": cert.kind}
    if cert.dual is not None:
        out["dual"] = [str(v) for v in cert.dual]
    if cert.witness is not None:
        out["witness"] = [str(v) for v in cert.witness]
    return out


def _parse_entries(values: list, parse) -> tuple:
    """Decimal strings or JSON integers; a float such as 1.9 is refused, not truncated."""
    if not all(type(v) is int or isinstance(v, str) for v in values):
        raise ValueError(f"cone certificate entries must be decimal strings or integers, "
                         f"got {values!r}")
    try:
        return tuple(parse(v) for v in values)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cone certificate entry is not a number: {exc}") from exc


def certificate_from_jsonable(data: dict) -> ConeCertificate:
    """Inverse of ``certificate_to_jsonable``; raises ValueError on a wrong shape."""
    if not isinstance(data, dict) or data.get("kind") not in ("trivial", "nontrivial") \
            or not all(isinstance(data.get(key, []), list) for key in ("dual", "witness")):
        raise ValueError("cone certificate must be an object of kind trivial or nontrivial "
                         "with list-valued dual/witness")
    dual = _parse_entries(data["dual"], Fraction) if "dual" in data else None
    witness = _parse_entries(data["witness"], int) if "witness" in data else None
    return ConeCertificate(data["kind"], dual=dual, witness=witness)
