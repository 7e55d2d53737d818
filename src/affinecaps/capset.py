"""Cap construction, brute-force verification, exact counts and bound tables."""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from .zp import MODULUS_BOUND, DigitSetPair, _inverses, is_prime

DEFAULT_ENUMERATION_CAP = 1_000_000
_SCAN_BLOCK = 2 ** 17  # differences per block of collinearity scan bases


class EnumerationTooLarge(ValueError):
    """Raised when a cap would exceed DEFAULT_ENUMERATION_CAP points."""


@dataclass(frozen=True)
class CapPointSet:
    n: int
    pair: DigitSetPair
    points: tuple[tuple[int, ...], ...]  # lexicographically sorted

    @property
    def p(self) -> int:
        return self.pair.p

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class SizeEstimate:
    """Exact point count plus the parameters of its asymptotic form.

    The count grows like c * |D|^n / n^(delta/2) where delta counts the
    effectively constrained digits: pinning all |D| frequencies pins the
    last one automatically, hence the min with |D| - 1.
    """

    exact_count: int
    digits: int
    delta: int
    c_const: float


def size_estimate(pair: DigitSetPair, n: int) -> SizeEstimate:
    k, rem = divmod(n, len(pair.digits))
    if rem:
        raise ValueError(
            f"dimension {n} must be divisible by the digit-set size {len(pair.digits)}"
        )
    count = 1
    left = n
    for _ in pair.fixed:
        count *= math.comb(left, k)
        left -= k
    count *= (len(pair.digits) - len(pair.fixed)) ** left  # 0**0 == 1 covers D' = D
    size = len(pair.digits)
    delta = min(len(pair.fixed), size - 1)
    c = (1 - delta / size) ** -0.5 * (size / (2 * math.pi)) ** (delta / 2)
    return SizeEstimate(count, size, delta, c)


def build_cap(pair: DigitSetPair, n: int) -> CapPointSet:
    """Enumerate every allowed point: digits from D, pinned frequencies for D'.

    Positions are filled left to right, each trying the digits in ascending
    order under the frequencies still owed, so points come out sorted. The
    completions of a prefix depend only on its length and on what it still
    owes (``needs``, one count per fixed digit); they are shared between
    prefixes for the second half of the positions only, since sharing them
    for longer suffixes would hold about a copy of the cap per level.
    """
    est = size_estimate(pair, n)
    if est.exact_count > DEFAULT_ENUMERATION_CAP:
        raise EnumerationTooLarge(
            f"{est.exact_count} points exceed the enumeration cap {DEFAULT_ENUMERATION_CAP}"
        )
    index = {d: i for i, d in enumerate(pair.fixed)}

    def moves(left: int, needs: tuple[int, ...]):
        """Each digit allowed next, ascending, with what is owed after it."""
        for d in pair.digits:
            i = index.get(d)
            if i is None:
                if sum(needs) < left:
                    yield d, needs
            elif needs[i]:
                yield d, needs[:i] + (needs[i] - 1,) + needs[i + 1:]

    @cache
    def suffixes(left: int, needs: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        if not left:
            return ((),)
        return tuple((d,) + s for d, after in moves(left, needs)
                     for s in suffixes(left - 1, after))

    points: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], left: int, needs: tuple[int, ...]) -> None:
        if left <= n // 2:
            points.extend(prefix + s for s in suffixes(left, needs))
            return
        for d, after in moves(left, needs):
            extend(prefix + (d,), left - 1, after)

    extend((), n, (n // len(pair.digits),) * len(pair.fixed))
    return CapPointSet(n, pair, tuple(points))


@dataclass(frozen=True)
class CapCheck:
    ok: bool
    violation: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]] | None = None


def _as_point_array(points, p: int | None) -> tuple[np.ndarray, int, np.ndarray]:
    """Sorted distinct points as int64 rows, the modulus, and the first
    coordinate where each row differs from the next; points must be integer
    vectors in [0, p)^n.

    A CapPointSet is checked like a raw collection, since nothing stops one
    from being built by hand. Points that already come strictly increasing,
    as ``build_cap`` and ``read_points`` of its file give them, are not sorted
    again.
    """
    if isinstance(points, CapPointSet):
        if p is not None and operator.index(p) != points.p:
            raise ValueError(f"modulus {p} conflicts with the point set's p = {points.p}")
        points, p = points.points, points.p
    if p is None:
        raise ValueError("p is required for a raw point collection")
    p = operator.index(p)
    try:
        arr = np.array(list(points))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"points must be integer vectors of one dimension: {exc}") from exc
    if not arr.size:
        return np.empty((0, 0), np.int64), p, np.empty(0, np.intp)
    if arr.ndim != 2:
        raise ValueError("points must be integer vectors of one dimension")
    # bools, floats, strings and integers beyond uint64 (an object array) are refused
    if arr.dtype.kind not in "iu" or arr.min() < 0 or arr.max() >= p:
        raise ValueError(f"point coordinates must be integers in [0, {p})")
    arr = arr.astype(np.int64, copy=False)
    fc = (arr[1:] != arr[:-1]).argmax(axis=1)  # rows k and k + 1 differ first there
    k = np.arange(len(fc))
    if not (arr[k + 1, fc] > arr[k, fc]).all():
        arr = np.unique(arr, axis=0)
        fc = (arr[1:] != arr[:-1]).argmax(axis=1)
    return arr, p, fc


def _row_keys(p: int, n: int, dtype):
    """The function giving one key per point of an array that holds the n
    coordinates, residues mod p, along its first axis: the point's base-p
    code in ``dtype``, or its bytes when p^n would overflow int64. Equal
    points, and only they, get equal keys."""
    if p ** n > 2 ** 62:
        return lambda cols: np.ascontiguousarray(np.moveaxis(cols, 0, -1)).view(
            np.dtype((np.void, cols.dtype.itemsize * n)))[..., 0]
    powers = np.array([p ** i for i in range(n)], dtype=dtype)
    return lambda cols: np.einsum("i...,i->...", cols, powers)


def _scan_bases(arr: np.ndarray, p: int) -> np.ndarray:
    """Rows a collinearity scan must start from: the sorted rows if the rows
    are closed under coordinate permutations, else all of them.

    Groups the rows by the key of their sorted copy. The group of a sorted
    row r lies in the orbit of r, which has n! / prod(m!) points for the
    multiplicities m of the values in r, so the rows are closed exactly when
    every group has that many.
    """
    n = arr.shape[1]
    ordered = np.sort(arr, axis=1)
    _, first, counts = np.unique(_row_keys(p, n, np.int64)(ordered.T),
                                 return_index=True, return_counts=True)
    for row, count in zip(ordered[first].tolist(), counts.tolist()):
        orbit = math.factorial(n)
        for mult in Counter(row).values():
            orbit //= math.factorial(mult)
        if count != orbit:
            return np.arange(len(arr))
    return np.flatnonzero((ordered == arr).all(axis=1))


def verify_cap(points, p: int | None = None) -> CapCheck:
    """Check that no three points are collinear.

    Directions: for a base point x, scale each difference y - x mod p so
    that its first nonzero entry, its lead, is 1. Distinct x, y, z are
    collinear exactly when z - x = c (y - x) for some c, that is when y - x
    and z - x scale to the same direction. So the scan encodes the
    directions from x to the points after it as keys (``_row_keys``), sorts
    them and looks for a repeated key; a triple is found from its least
    point.

    Leads: the points are sorted, so the first coordinate where x differs
    from a later point y is the least of the first differing coordinates of
    the adjacent pairs from x to y (the common prefixes of sorted strings),
    and there y - x is positive. One running minimum per base gives them
    all; past a block's last base, each is the minimum of the base's own
    running minimum there and one running minimum shared by the block.

    Blocks: the bases are scanned a block at a time, against every point
    after the block's first base, with about ``_SCAN_BLOCK`` differences per
    block. The points at or before a later base of the block get distinct
    negative keys, which repeat nothing, so the first base of the block
    with a repeated key, its least repeated key and that key's first two
    points are those of a scan one base at a time. Byte keys are scanned
    one base at a time.

    Width: keys are int32 when p^max(n, 2) < 2^31 and int64 otherwise. The
    residues are int16 when p^2 < 2^15, where the differences, their
    products with inverses (within (p - 1)^2) and the floor-mod term fit,
    and have the keys' width otherwise.

    Orbits: coordinate permutations map lines to lines. If the set is
    closed under them, take the image of a collinear triple under all
    permutations and the least point of all those images: it is sorted
    (sorting a point makes it lexicographically least in its orbit), and
    its image triple lies in the set. So the sorted points are the only
    bases needed. Closure is counted on the points themselves (see
    ``_scan_bases``), never assumed from where they came from; otherwise
    every point is a base.

    The violation is three distinct points of the set that are collinear.
    """
    arr, p, first_change = _as_point_array(points, p)
    if not p < MODULUS_BOUND or not is_prime(p):
        raise ValueError(f"collinearity over Z_{p} needs a prime modulus below 2**31")
    if len(arr) <= 2:
        return CapCheck(True)
    n = arr.shape[1]
    wide = np.int32 if p ** max(n, 2) < 2 ** 31 else np.int64
    arr = arr.astype(np.int16 if p * p < 2 ** 15 else wide, copy=False)
    # inverses mod p, by powering: with at least p points a table of all of
    # them; with fewer, each base's leads, so the cost follows the points, not p
    table = _inverses(np.arange(p, dtype=arr.dtype), p) if p <= len(arr) else None
    key = _row_keys(p, n, wide)
    cols = np.ascontiguousarray(arr.T)  # one point per column
    budget = _SCAN_BLOCK // n if p ** n <= 2 ** 62 else 0  # points; 0 for byte keys
    index = np.arange(max(len(arr), budget))
    bases = _scan_bases(arr, p)
    bases, done = bases[bases < len(arr) - 2], 0  # a triple's least point has two after it
    while done < len(bases):
        i = bases[done]
        after = len(arr) - i - 1
        block = bases[done:done + max(1, budget // after)]
        done += len(block)
        diff = cols[:, None, i + 1:] - cols[:, block, None]  # (n, bases, after), in (-p, p)
        span = block[-1] - i + 1  # below after; no column past it is at or before a base
        own = index[:span] < (block - i)[:, None]  # at or before the row's base
        # each lead's column (n - 1 lies above every first change): a running minimum
        # over the span, past it the span's last one against one running minimum of
        # the rest; then its flat index
        flat = np.empty((len(block), after), first_change.dtype)
        np.minimum.accumulate(np.where(own, n - 1, first_change[i:i + span]), axis=1,
                              out=flat[:, :span])
        np.minimum(flat[:, span - 1:span], np.minimum.accumulate(first_change[i + span:]),
                   out=flat[:, span:])
        flat *= flat.size
        flat += index[:flat.size].reshape(flat.shape)
        lead = np.take(diff, flat)  # in (0, p) after the row's base
        dirs = diff * (_inverses(lead, p) if table is None else table[lead])
        dirs -= dirs // p * p  # mod p; numpy's % is several times slower than //
        keys = key(dirs)
        if len(block) > 1:
            np.copyto(keys[:, :span], -1 - index[:span], where=own)
        ordered = np.sort(keys, axis=1)
        repeats = np.flatnonzero(ordered[:, 1:] == ordered[:, :-1])
        if len(repeats):
            row, at = divmod(repeats[0], after - 1)
            j, k = np.flatnonzero(keys[row] == ordered[row, at])[:2]
            triple = arr[[block[row], i + 1 + j, i + 1 + k]].tolist()
            return CapCheck(False, tuple(tuple(q) for q in triple))
    return CapCheck(True)


def collinear_witness_points(table, witness):
    """Turn a nonzero cone witness into three collinear points of the set.

    Concatenates each progression as often as the witness says, then pads
    with constant coordinates until every pinned digit reaches the common
    frequency n/|D|. The balance equations make the three resulting vectors
    members of the construction, and every coordinate satisfies the line
    equation, so they witness that the pair is not admissible.
    Returns (n, x, y, z).
    """
    pair = table.pair
    if len(witness) != len(table.rows):
        raise ValueError("witness length does not match the progression table")
    if any(m < 0 for m in witness) or not any(witness):
        raise ValueError("need a nonzero nonnegative witness")
    cols = []
    for v, mult in zip(table.rows, witness):
        cols.extend([v] * mult)
    counts = {d: sum(1 for v in cols if v[0] == d) for d in pair.fixed}
    free = [d for d in pair.digits if d not in set(pair.fixed)]
    size = len(pair.digits)
    k = max(counts.values(), default=1)
    while True:
        n = size * k
        rest = n - len(cols) - sum(k - counts[d] for d in pair.fixed)
        if rest >= 0 and (rest == 0 or free):
            break
        k += 1
    for d in pair.fixed:
        cols.extend([(d, d, d)] * (k - counts[d]))
    if rest:
        cols.extend([(free[0],) * 3] * rest)
    x, y, z = (tuple(v[i] for v in cols) for i in range(3))
    return n, x, y, z


def eg_constant(p: int) -> float:
    """The base of the polynomial-method upper bound (J(p)*p)^n, divided by p.

    J(p) = (1/p) * min over 0 < t < 1 of (1 - t^p) / ((1 - t) * t^((p-1)/3)),
    minimized by golden-section search. The objective is the sum of
    t^(k - (p-1)/3) over k < p, which at t = e^s is a sum of exponentials
    and so convex in s: it has one minimum on (0, 1) and no other dip.
    """
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be a prime >= 3, got {p}")
    expo = (p - 1) / 3

    def f(t: float) -> float:
        return (1 - t ** p) / ((1 - t) * t ** expo)

    inv_phi = (math.sqrt(5) - 1) / 2
    a, b, c, d = 0.0, 1.0, 1 - inv_phi, inv_phi
    fc, fd = f(c), f(d)
    while b - a > 1e-10:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return f((a + b) / 2) / p


# Best known admissible digit-set sizes per modulus.
KNOWN_BEST_DIGIT_SET_SIZE = {
    5: 3, 7: 3, 11: 5, 13: 4, 17: 7, 19: 6,
    23: 9, 29: 10, 31: 8, 37: 10, 41: 12,
}


@dataclass(frozen=True)
class BoundTableRow:
    p: int
    bose_bound: float      # p^(2/3), from products of the dimension-3 cap
    product_bound: float   # (p^4 + p^2 - 1)^(1/6), from the dimension-6 cap
    new_bound: int         # best admissible digit-set size
    mu: float              # log_p(new_bound)


def bound_table(p: int) -> BoundTableRow:
    best_d_size = KNOWN_BEST_DIGIT_SET_SIZE.get(p)
    if best_d_size is None:
        raise ValueError(f"no known best digit-set size for p={p}")
    return BoundTableRow(
        p=p,
        bose_bound=p ** (2 / 3),
        product_bound=(p ** 4 + p ** 2 - 1) ** (1 / 6),
        new_bound=best_d_size,
        mu=math.log(best_d_size) / math.log(p),
    )


def write_points(points, path) -> None:
    """One point per line, digits space-separated, lexicographic order."""
    pts = points.points if isinstance(points, CapPointSet) else sorted(points)
    with open(path, "w") as fh:
        for q in pts:
            fh.write(" ".join(str(v) for v in q) + "\n")


def read_points(path) -> tuple[tuple[int, ...], ...]:
    pts = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            pts.append(tuple(int(v) for v in line.split()))
    return tuple(pts)
