"""Digit- and matrix-reduction: cheap sufficient tests for admissibility.

Both algorithms try to argue every weighted progression away. The digit rule
works on the progression triples directly; the matrix rule works on the
reduced row echelon form of the constraint matrix, deleting columns forced
to zero by single-signed rows. Either one reaching the empty state for every
equation-class representative certifies admissibility of the pair.

The matrix rule eliminates once. A row of a reduced row echelon form is zero
at every pivot column but its own, so deleting the support of a row deletes
exactly one pivot column and zeroes that row, while every other row keeps
its unit pivot in the same leading place: the echelon form minus that row
and those columns is the reduced row echelon form of the surviving columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Sequence

import numpy as np

from .progressions import ConstraintSystem, ProgressionTable, Triple, enumerate_progressions
from .zp import DigitSetPair, LineEquation


@dataclass(frozen=True)
class DigitStep:
    """One firing of the digit rule.

    ``digit`` was absent from ``position`` (1-based) in every remaining
    triple while still occurring elsewhere; all triples containing it
    anywhere were removed.
    """

    position: int
    digit: int
    removed: tuple[Triple, ...]


@dataclass(frozen=True)
class MatrixStep:
    """One firing of the matrix rule.

    ``row`` is the 0-based index of the single-signed row in the current
    echelon matrix; ``columns`` are the deleted columns as indices into the
    original constraint system.
    """

    row: int
    columns: tuple[int, ...]


@dataclass(frozen=True)
class ReductionTrace:
    kind: str  # "digit" | "matrix"
    steps: tuple
    reduced: bool

    @property
    def verdict(self) -> str:
        return "reduced-to-empty" if self.reduced else "stuck"


def _fire_digit(remaining: Sequence[Triple], position: int, digit: int):
    """One application of the digit rule at (position, digit).

    The rule applies when ``digit`` occurs in no remaining triple at
    ``position`` (1-based) but still occurs somewhere. Returns the step and
    the survivors, or None when the rule does not apply.
    """
    if digit in map(itemgetter(position - 1), remaining):
        return None
    removed = tuple([t for t in remaining if digit in t])
    if not removed:
        return None  # digit gone entirely: rule is vacuous
    return DigitStep(position, digit, removed), [t for t in remaining if digit not in t]


def _digit_rule(table: ProgressionTable, recorded=None) -> ReductionTrace:
    """The digit rule to a fixpoint, or until the iterator ``recorded`` runs out.

    A move is a position 1..3 and a fixed digit. Each firing is the first
    move that applies, position outer and digits ascending; when replaying,
    it is the next recorded move if that is a move and applies.
    """
    remaining, fixed, steps = table.rows, table.pair.fixed, []
    while remaining:
        if recorded is None:
            fired = next(filter(None, (_fire_digit(remaining, r, d)
                                       for r in (1, 2, 3) for d in fixed)), None)
        elif (move := next(recorded, None)) and move[0] in (1, 2, 3) and move[1] in fixed:
            fired = _fire_digit(remaining, *move)
        else:
            fired = None
        if fired is None:
            break
        step, remaining = fired
        steps.append(step)
    return ReductionTrace("digit", tuple(steps), not remaining)


def digit_reduce(table: ProgressionTable) -> ReductionTrace:
    """Run the digit rule to a fixpoint on the progressions of one equation."""
    return _digit_rule(table)


def clear_denominators(values: Sequence[int | Fraction]) -> tuple[list[int], int]:
    """The integers values * L and L, the least common multiple of the denominators."""
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


INT64_SAFE = 2 ** 31  # entries below this in absolute value pivot exactly in int64


def tableau(rows: Sequence[Sequence[int | Fraction]]) -> np.ndarray:
    """The rows, each cleared of denominators, as an integer tableau for ``pivot``.

    Clearing scales each row, which leaves its echelon form unchanged. Integer
    rows that fit int64 are taken as they are, any other rows as Python ints.
    """
    tab = np.array(rows)
    if tab.dtype == np.int64:  # integer rows: nothing to clear
        return tab
    return np.array([clear_denominators(row)[0] for row in rows], dtype=object)


def pivot(tab: np.ndarray, r: int, col: int, det: int) -> tuple[np.ndarray, int]:
    """Fraction-free Gauss-Jordan pivot on ``tab[r, col]``.

    The integer rows share the nonzero denominator ``det`` (1, or what the
    previous pivot returned): the tableau they stand for is tab / det. Every
    other row becomes (row * a - row[col] * tab[r]) / det with
    a = tab[r, col], an exact division (Bareiss, Math. Comp. 1968), so
    column ``col`` becomes a unit column and a is the new common
    denominator. Returns the updated tableau and a, a Python int.

    The update is made in place, without the multiply when a is 1 and
    without the division when det is 1. It is exact in int64 while every
    entry is below 2**31 in absolute value: both products are then below
    2**62 and their difference below 2**63. When an entry is not, the
    tableau becomes an array of Python ints (``dtype=object``) first and
    stays one; that copy is what is returned.
    """
    if tab.dtype != object and not -INT64_SAFE < tab.min() <= tab.max() < INT64_SAFE:
        tab = tab.astype(object)
    lead = tab[r].copy()
    a = int(lead[col])
    update = tab[:, col, None] * lead
    if a != 1:
        tab *= a
    tab -= update
    if det != 1:
        tab //= det
    tab[r] = lead
    return tab, a


def _eliminate(matrix: Sequence[Sequence[int | Fraction]]) -> tuple[list[list[int]], int]:
    """Fraction-free Gauss-Jordan elimination to reduced row echelon form.

    Returns integer rows and their common denominator ``det`` (nonzero, of
    either sign): rows / det is the reduced row echelon form.
    """
    det = 1
    if not len(matrix):
        return [], det
    m = tableau(matrix)
    n_rows, n_cols = m.shape
    piv_row = 0
    for col in range(n_cols):
        nonzero = m[piv_row:, col].nonzero()[0]
        if not len(nonzero):
            continue
        found = piv_row + int(nonzero[0])
        if found != piv_row:
            m[[piv_row, found]] = m[[found, piv_row]]
        m, det = pivot(m, piv_row, col, det)
        piv_row += 1
        if piv_row == n_rows:
            break
    return m.tolist(), det


def rref(matrix: Sequence[Sequence[int | Fraction]]) -> list[list[Fraction]]:
    """Reduced row echelon form over exact rationals."""
    m, det = _eliminate(matrix)
    return [[Fraction(v, det) for v in row] for row in m]


def _fire_row(work: list[list[int]], surviving: list[int], i: int):
    """One application of the matrix rule to row i of the echelon form.

    ``work`` is the RREF of the surviving columns times a nonzero common
    denominator, which keeps every support and sign. The rule applies when
    row i is nonzero and single-signed: its support is forced to 0 over the
    nonnegative orthant. That support holds one pivot column, row i's own,
    so ``work`` without row i and its support is again such a multiple of
    the RREF of the survivors. Returns the step (its columns as original
    indices), that matrix and the surviving original indices, or None when
    the rule does not apply.
    """
    row = work[i]
    if not any(row) or min(row) < 0 < max(row):
        return None
    keep = [j for j, v in enumerate(row) if not v]
    return (MatrixStep(i, tuple([surviving[j] for j, v in enumerate(row) if v])),
            [[r[j] for j in keep] for k, r in enumerate(work) if k != i],
            [surviving[j] for j in keep])


def _matrix_rule(system: ConstraintSystem, recorded=None) -> ReductionTrace:
    """The matrix rule until no row fires, or until the iterator ``recorded`` runs out.

    Each firing is the lowest-index row that applies; when replaying, it is
    the next recorded row if that is a row of the echelon form and applies.
    """
    surviving, steps = list(range(system.n_cols)), []
    work, _ = _eliminate(system.matrix)
    while surviving:
        if recorded is None:
            fired = next(filter(None, (_fire_row(work, surviving, i)
                                       for i in range(len(work)))), None)
        else:
            i = next(recorded, None)
            fired = _fire_row(work, surviving, i) if i in range(len(work)) else None
        if fired is None:
            break
        step, work, surviving = fired
        steps.append(step)
    return ReductionTrace("matrix", tuple(steps), not surviving)


def matrix_reduce(system: ConstraintSystem) -> ReductionTrace:
    """Run the column-deletion rule on the exact RREF of the matrix.

    Repeatedly fires the lowest-index nonzero row whose entries all share a
    sign and deletes its support: those variables are forced to 0 over the
    nonnegative orthant. The matrix is eliminated once (see the module notes).
    """
    return _matrix_rule(system)


def verify_digit_trace(pair: DigitSetPair, eq: LineEquation,
                       trace: ReductionTrace) -> bool:
    """Whether the digit rule, firing the trace's moves, records the same trace."""
    moves = [(s.position, s.digit) if isinstance(s, DigitStep) else None for s in trace.steps]
    return _digit_rule(enumerate_progressions(pair, eq), iter(moves)) == trace


def verify_matrix_trace(system: ConstraintSystem, trace: ReductionTrace) -> bool:
    """Whether the matrix rule, firing the trace's rows, records the same trace."""
    rows = [s.row if isinstance(s, MatrixStep) else None for s in trace.steps]
    return _matrix_rule(system, iter(rows)) == trace


def _ints(values, length: int | None = None) -> tuple[int, ...]:
    if not isinstance(values, list) or not all(type(v) is int for v in values) \
            or length not in (None, len(values)):
        raise ValueError(f"expected a list of integers, got {values!r}")
    return tuple(values)


def trace_from_jsonable(data: dict) -> ReductionTrace:
    """Inverse of ``trace_to_jsonable``; raises ValueError on a wrong shape."""
    try:
        steps: list = []
        for s in data["steps"]:
            if "digit" in s:
                position, digit = _ints([s["position"], s["digit"]])
                steps.append(DigitStep(position, digit,
                                       tuple(_ints(t, 3) for t in s["removed"])))
            else:
                (row,) = _ints([s["row"]])
                steps.append(MatrixStep(row, _ints(s["columns"])))
        verdict = data["verdict"]
        if verdict not in ("reduced-to-empty", "stuck"):
            raise ValueError(f"unknown reduction verdict {verdict!r}")
        return ReductionTrace(data["kind"], tuple(steps), verdict == "reduced-to-empty")
    except (TypeError, KeyError) as exc:
        raise ValueError(f"malformed reduction trace: {exc!r}") from exc


def trace_to_jsonable(trace: ReductionTrace) -> dict:
    steps: list[dict] = []
    for s in trace.steps:
        if isinstance(s, DigitStep):
            steps.append(
                {"position": s.position, "digit": s.digit,
                 "removed": [list(t) for t in s.removed]}
            )
        else:
            steps.append({"row": s.row, "columns": list(s.columns)})
    return {"kind": trace.kind, "verdict": trace.verdict, "steps": steps}


def render_trace(trace: ReductionTrace) -> str:
    """Human-readable narration of a reduction, one indented line per step."""
    lines = []
    for s in trace.steps:
        if isinstance(s, DigitStep):
            triples = ", ".join(str(t) for t in s.removed)
            lines.append(
                f"    digit {s.digit} never occurs at position {s.position}: "
                f"delete {triples}"
            )
        else:
            cols = ", ".join(str(c + 1) for c in s.columns)
            lines.append(
                f"    row {s.row + 1} of the echelon form is single-signed: "
                f"delete columns {cols}"
            )
    lines.append(f"    {trace.verdict}")
    return "\n".join(lines)
