"""Weighted-progression enumeration and the frequency-balance constraint matrix."""

from __future__ import annotations

from dataclasses import dataclass

from .zp import DigitSetPair, LineEquation

Triple = tuple[int, int, int]


@dataclass(frozen=True)
class ProgressionTable:
    """All non-trivial solutions (x, y, z) in D^3 of x + b*y + c*z = 0 (mod p).

    Rows are sorted lexicographically; the trivial solutions x = y = z are
    excluded. Column order used everywhere downstream is this row order.
    """

    pair: DigitSetPair
    equation: LineEquation
    rows: tuple[Triple, ...]


def enumerate_progressions(pair: DigitSetPair, eq: LineEquation) -> ProgressionTable:
    if pair.p != eq.p:
        raise ValueError("digit set and equation use different moduli")
    p = pair.p
    in_d = set(pair.digits)
    rows = []
    for y in pair.digits:
        for z in pair.digits:
            x = (-(eq.b * y + eq.c * z)) % p
            if x in in_d and not (x == y == z):
                rows.append((x, y, z))
    rows.sort()
    return ProgressionTable(pair, eq, tuple(rows))


@dataclass(frozen=True)
class ConstraintSystem:
    """Integer matrix of the per-digit frequency balance equations.

    One row per (compared position, fixed digit): the first block balances
    occurrences between positions 1 and 2, the second between positions 1
    and 3, each block with digits ascending. Entry in column v is +1 when
    the digit sits at position 1 only, -1 when at the compared position
    only, and 0 otherwise (equal occurrences on both sides cancel).
    """

    matrix: tuple[tuple[int, ...], ...]
    row_labels: tuple[tuple[int, int], ...]  # (compared position 2 or 3, digit)
    column_labels: tuple[Triple, ...]

    @property
    def n_rows(self) -> int:
        return len(self.matrix)

    @property
    def n_cols(self) -> int:
        return len(self.column_labels)


def build_constraint_system(table: ProgressionTable) -> ConstraintSystem:
    matrix = []
    labels = []
    for pos in (1, 2):  # triple index compared against position 0
        for d in table.pair.fixed:
            matrix.append(tuple([(v[0] == d) - (v[pos] == d) for v in table.rows]))
            labels.append((pos + 1, d))
    return ConstraintSystem(tuple(matrix), tuple(labels), table.rows)


def table_to_jsonable(table: ProgressionTable) -> dict:
    return {
        "p": int(table.pair.p),
        "digits": list(table.pair.digits),
        "fixed": list(table.pair.fixed),
        "b": table.equation.b,
        "c": table.equation.c,
        "rows": [list(v) for v in table.rows],
    }
