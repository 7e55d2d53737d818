"""Cap construction, brute-force verification, exact counts and bound tables."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product
from pathlib import Path

import numpy as np

from .zp import DigitSetPair, Prime, is_prime

DEFAULT_ENUMERATION_CAP = 1_000_000


class EnumerationTooLarge(ValueError):
    """Raised when a cap would exceed the configured enumeration limit."""


@dataclass(frozen=True)
class CapPointSet:
    p: Prime
    n: int
    pair: DigitSetPair
    points: tuple[tuple[int, ...], ...]  # lexicographically sorted

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


def build_cap(pair: DigitSetPair, n: int,
              max_points: int = DEFAULT_ENUMERATION_CAP) -> CapPointSet:
    """Enumerate every allowed point: digits from D, pinned frequencies for D'."""
    est = size_estimate(pair, n)
    if est.exact_count > max_points:
        raise EnumerationTooLarge(
            f"{est.exact_count} points exceed the enumeration cap {max_points}"
        )
    k = n // len(pair.digits)
    free = [d for d in pair.digits if d not in set(pair.fixed)]
    points: list[tuple[int, ...]] = []
    vec = [0] * n

    def place(avail: tuple[int, ...], fi: int) -> None:
        if fi == len(pair.fixed):
            if not avail:
                points.append(tuple(vec))
                return
            for filling in product(free, repeat=len(avail)):
                for pos, d in zip(avail, filling):
                    vec[pos] = d
                points.append(tuple(vec))
            return
        d = pair.fixed[fi]
        for chosen in combinations(avail, k):
            for pos in chosen:
                vec[pos] = d
            rest = tuple(q for q in avail if q not in set(chosen))
            place(rest, fi + 1)

    place(tuple(range(n)), 0)
    points.sort()
    return CapPointSet(pair.p, n, pair, tuple(points))


@dataclass(frozen=True)
class CapCheck:
    ok: bool
    violation: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]] | None = None


def _as_point_array(points, p: int | None):
    """Sorted distinct points and the modulus; points must lie in [0, p)^n.

    A CapPointSet is checked like a raw collection, since nothing stops one
    from being built by hand.
    """
    if isinstance(points, CapPointSet):
        if p is not None and int(p) != points.p:
            raise ValueError(f"modulus {p} conflicts with the point set's p = {points.p}")
        points, p = points.points, points.p
    if p is None:
        raise ValueError("p is required for a raw point collection")
    p = int(p)
    pts = tuple(sorted(set(tuple(int(v) for v in q) for q in points)))
    if len({len(q) for q in pts}) > 1:
        raise ValueError("points must share one dimension")
    if any(not 0 <= v < p for q in pts for v in q):
        raise ValueError(f"point coordinates must lie in [0, {p})")
    return pts, p


def _scan_bases(arr: np.ndarray) -> np.ndarray:
    """Rows a collinearity scan must start from: the sorted rows if the rows
    are closed under coordinate permutations, else all of them.

    Groups the rows by their sorted copy. The group of a sorted row r lies
    in the orbit of r, which has n! / prod(m!) points for the
    multiplicities m of the values in r, so the rows are closed exactly when
    every group has that many.
    """
    n = arr.shape[1]
    sorted_rows, counts = np.unique(np.sort(arr, axis=1), axis=0, return_counts=True)
    for row, count in zip(sorted_rows.tolist(), counts.tolist()):
        orbit = math.factorial(n)
        for mult in Counter(row).values():
            orbit //= math.factorial(mult)
        if count != orbit:
            return np.arange(len(arr))
    return np.flatnonzero((arr[:, 1:] >= arr[:, :-1]).all(axis=1))


def verify_cap(points, p: int | None = None) -> CapCheck:
    """Check that no three points are collinear.

    Directions: for a base point x, scale each difference y - x mod p so
    that its first nonzero entry is 1. Distinct x, y, z are collinear
    exactly when z - x = c (y - x) for some c, that is when y - x and z - x
    scale to the same direction. So the scan encodes the directions from x
    to the points after it as keys, sorts them and looks for a repeated
    key; a triple is found from its least point. A key is the base-p code
    of the direction, or its row bytes when p^n would overflow int64.

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
    pts, p = _as_point_array(points, p)
    if not is_prime(p):
        raise ValueError(f"collinearity over Z_{p} needs a prime modulus")
    if len(pts) <= 2:
        return CapCheck(True)
    if p >= 2 ** 31:  # products of two residues must fit in int64
        raise ValueError(f"the collinearity scan needs p < 2**31, got {p}")
    arr = np.array(pts, dtype=np.int64)
    n = arr.shape[1]
    # inverses mod p; a negative residue -a indexes entry p - a
    inverse = np.zeros(p, dtype=np.int64)
    inverse[1:] = [pow(v, -1, p) for v in range(1, p)]
    wide = p ** n > 2 ** 62  # base-p codes would overflow int64
    powers = None if wide else np.array([p ** i for i in range(n)], dtype=np.int64)
    row_bytes = np.dtype((np.void, 8 * n))
    for i in _scan_bases(arr):
        diff = arr[i + 1:] - arr[i]  # entries in (-p, p)
        lead = diff[np.arange(len(diff)), (diff != 0).argmax(axis=1)]
        dirs = diff * inverse[lead][:, None]
        dirs -= dirs // p * p  # mod p; numpy's % is several times slower than //
        keys = dirs.view(row_bytes).ravel() if wide else dirs @ powers
        ordered = np.sort(keys)
        repeats = np.flatnonzero(ordered[1:] == ordered[:-1])
        if len(repeats):
            j, k = np.flatnonzero(keys == ordered[repeats[0]])[:2]
            return CapCheck(False, (pts[i], pts[i + 1 + j], pts[i + 1 + k]))
    return CapCheck(True)


def collinear_triple_naive(points, p: int | None = None) -> CapCheck:
    """Cubic-time oracle: test linear dependence of y - x and z - x directly."""
    pts, p = _as_point_array(points, p)
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


def bose_cap(q: int, projective: bool = False) -> tuple[tuple[int, ...], ...]:
    """The classical size-q^2 cap in dimension 3 built from a quadric.

    Uses the smallest a making x^2 + x + a irreducible over Z_q, i.e. with
    1 - 4a a non-square. The projective variant appends the extra point
    (1, 0, 0, 0) and homogenizes the affine points with a trailing 1.
    """
    if q < 3 or not is_prime(q):
        raise ValueError(f"q must be an odd prime, got {q}")
    squares = {(x * x) % q for x in range(q)}
    a = next(a for a in range(q) if (1 - 4 * a) % q not in squares)
    pts = [((t * t + s * t + a * s * s) % q, s, t) for s in range(q) for t in range(q)]
    if projective:
        return tuple(sorted([(w, s, t, 1) for (w, s, t) in pts] + [(1, 0, 0, 0)]))
    return tuple(sorted(pts))


def eg_constant(p: int) -> float:
    """The base of the polynomial-method upper bound (J(p)*p)^n, divided by p.

    J(p) = (1/p) * min over 0 < t < 1 of (1 - t^p) / ((1 - t) * t^((p-1)/3)),
    minimized by a coarse bracketing grid followed by golden-section search.
    """
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be a prime >= 3, got {p}")
    expo = (p - 1) / 3

    def f(t: float) -> float:
        return (1 - t ** p) / ((1 - t) * t ** expo)

    eps = 1e-9
    grid = 10_000
    lo, hi = eps, 1 - eps
    step = (hi - lo) / grid
    best_i = min(range(grid + 1), key=lambda i: f(lo + i * step))
    a = max(lo, lo + (best_i - 1) * step)
    b = min(hi, lo + (best_i + 1) * step)

    inv_phi = (math.sqrt(5) - 1) / 2
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > 1e-10 * max(abs(a), 1.0):
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


def bound_table(p: int, best_d_size: int | None = None) -> BoundTableRow:
    if best_d_size is None:
        best_d_size = KNOWN_BEST_DIGIT_SET_SIZE[p]
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
