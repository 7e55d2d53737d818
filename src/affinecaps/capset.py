"""Cap construction, brute-force verification, exact counts and bound tables."""

from __future__ import annotations

import math
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
    """Sorted distinct points and the modulus; raw points must lie in [0, p)^n."""
    if isinstance(points, CapPointSet):
        return points.points, int(points.p)
    if p is None:
        raise ValueError("p is required for a raw point collection")
    p = int(p)
    pts = tuple(sorted(set(tuple(int(v) for v in q) for q in points)))
    if len({len(q) for q in pts}) > 1:
        raise ValueError("points must share one dimension")
    if any(not 0 <= v < p for q in pts for v in q):
        raise ValueError(f"point coordinates must lie in [0, {p})")
    return pts, p


def verify_cap(points, p: int | None = None) -> CapCheck:
    """Check that no three points are collinear.

    For every pair of distinct points, walks the p - 2 remaining points of
    the affine line through them and reports any that belongs to the set.
    Vectorized over the partner point and the line parameter.
    """
    pts, p = _as_point_array(points, p)
    if not is_prime(p):
        raise ValueError(f"collinearity over Z_{p} needs a prime modulus")
    n_pts = len(pts)
    if n_pts <= 2:
        return CapCheck(True)
    n = len(pts[0])

    if p ** n > 2 ** 62:  # integer keys would overflow int64
        return _verify_cap_slow(pts, p)

    arr = np.array(pts, dtype=np.int64)
    powers = np.array([p ** i for i in range(n)], dtype=np.int64)
    keys = arr @ powers
    order = np.argsort(keys)
    sorted_keys = keys[order]
    ts = np.arange(2, p, dtype=np.int64)
    for i in range(n_pts - 1):
        base = arr[i]
        diff = (arr[i + 1:] - base) % p
        walked = (base[None, None, :] + ts[:, None, None] * diff[None, :, :]) % p
        walked_keys = walked @ powers
        pos = np.searchsorted(sorted_keys, walked_keys)
        pos[pos == n_pts] = 0
        hits = sorted_keys[pos] == walked_keys
        if hits.any():
            ti, ji = np.argwhere(hits)[0]
            third = tuple(int(v) for v in walked[ti, ji])
            return CapCheck(False, (pts[i], pts[i + 1 + int(ji)], third))
    return CapCheck(True)


def _verify_cap_slow(pts, p: int) -> CapCheck:
    index = set(pts)
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            for t in range(2, p):
                w = tuple((a + t * (b - a)) % p for a, b in zip(x, y))
                if w in index:
                    return CapCheck(False, (x, y, w))
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
