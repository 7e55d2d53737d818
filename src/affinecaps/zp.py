"""Residue arithmetic, digit sets and line-equation bookkeeping over Z_p."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import comb, gcd

import numpy as np


# Every modulus lies below this bound: trial division then takes at most
# about 23,000 steps, and a product of two residues fits in int64.
MODULUS_BOUND = 2 ** 31


def is_prime(n: int) -> bool:
    """Deterministic trial division; moduli are checked against MODULUS_BOUND first."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class Prime(int):
    """An odd prime modulus >= 5, validated at construction: a ``Prime`` is
    immutable, so one passed in is returned as it is, unchecked."""

    def __new__(cls, p: int) -> "Prime":
        if isinstance(p, Prime):
            return p
        p = operator.index(p)
        if not 5 <= p < MODULUS_BOUND or not is_prime(p):
            raise ValueError(f"modulus must be an odd prime in [5, 2**31), got {p}")
        return super().__new__(cls, p)


@dataclass(frozen=True)
class DigitSetPair:
    """A digit set together with the subset of digits whose frequency is pinned.

    ``digits`` are the residues allowed as coordinates; every digit in
    ``fixed`` must occur exactly n/|digits| times in each constructed point.
    """

    p: Prime
    digits: tuple[int, ...]
    fixed: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.digits) < 2:
            raise ValueError("need at least two digits")
        if list(self.digits) != sorted(set(self.digits)):
            raise ValueError("digits must be strictly ascending")
        if not all(0 <= d < self.p for d in self.digits):
            raise ValueError(f"digits must be residues in [0, {self.p})")
        if list(self.fixed) != sorted(set(self.fixed)):
            raise ValueError("fixed digits must be strictly ascending")
        if not set(self.fixed) <= set(self.digits):
            raise ValueError("fixed digits must be a subset of the digit set")


def digit_pair(p: int, digits, fixed=None) -> DigitSetPair:
    """Build a DigitSetPair from plain sequences; ``fixed`` defaults to all digits."""
    digits = tuple(sorted(set(map(operator.index, digits))))
    if fixed is None:
        fixed = digits
    return DigitSetPair(Prime(p), digits, tuple(sorted(set(map(operator.index, fixed)))))


@dataclass(frozen=True)
class LineEquation:
    """The line condition x + b*y + c*z = 0 with b + c = -1 (mod p).

    The coefficient of x is normalized to 1; b runs over {1, ..., p-2} since
    b = 0 and b = p-1 only say that the three points are distinct.
    """

    p: Prime
    b: int
    c: int


def make_line_equation(p: int, b: int) -> LineEquation:
    p, b = Prime(p), operator.index(b)
    if not 1 <= b <= p - 2:
        raise ValueError(f"b must lie in 1..{p - 2}, got {b} (degenerate equation)")
    return LineEquation(p, b, (-(b + 1)) % p)


def equation_str(eq: LineEquation) -> str:
    """Render as 'x + cz = (c+1)y', the form used when listing equation classes."""
    zc = "z" if eq.c == 1 else f"{eq.c}z"
    return f"x + {zc} = {eq.c + 1}y"


@dataclass(frozen=True)
class EquationClassPartition:
    """Partition of b in {1, ..., p-2} into classes of equivalent line equations.

    Classes are closed under the reverse and swap moves; only one
    representative per class (the smallest b) has to be checked.
    """

    p: Prime
    classes: tuple[tuple[int, ...], ...]

    @property
    def representatives(self) -> tuple[int, ...]:
        return tuple(cls[0] for cls in self.classes)


@lru_cache(maxsize=None)
def equation_classes(p: int) -> EquationClassPartition:
    """Group the p-2 line equations under the reverse/swap equivalence moves.

    The moves permute the coefficients (1, b, c) of x + b*y + c*z = 0 and
    rescale x's back to 1, so the class of b is {b, c, 1/b, 1/c, b/c, c/b}
    mod p. Classes are disjoint, so sorting them orders them by least member.
    """
    p = Prime(p)
    classes = set()
    for b in range(1, p - 1):
        c = -(b + 1) % p
        ib, ic = pow(b, -1, p), pow(c, -1, p)
        classes.add(tuple(sorted({b, c, ib, ic, b * ic % p, c * ib % p})))
    return EquationClassPartition(p, tuple(sorted(classes)))


def affine_image(digits, a: int, b: int, p: int) -> tuple[int, ...]:
    """Sorted image of a digit set under x -> a*x + b (a must be a unit)."""
    if a % p == 0:
        raise ValueError("affine map needs a nonzero multiplier")
    return tuple(sorted((a * d + b) % p for d in digits))


def _affine_maps(d1: tuple[int, ...], d2: tuple[int, ...], p: int) -> list[tuple[int, int]]:
    """The maps x -> a*x + t mod p, as ascending (a, t), that carry the ascending
    residues d1, two or more, onto the ascending residues d2.

    Such a map sends the two least digits e0 < e1 of d1 to two digits
    u != v of d2, and u, v fix it: a = (v - u) / (e1 - e0), t = u - a*e0.
    So the k(k - 1) choices of u, v are all the candidates.
    """
    e0, e1 = d1[:2]
    scale = pow(e1 - e0, -1, p)
    maps = []
    for u, v in permutations(d2, 2):
        a = (v - u) * scale % p
        t = (u - a * e0) % p
        if affine_image(d1, a, t, p) == d2:
            maps.append((a, t))
    return sorted(maps)


def gap_sequence(digits, p: int) -> tuple[int, ...]:
    """Circular gaps between consecutive digits, the wrap-around gap last.

    There is one gap per digit and they sum to p. The sequence fixes the set
    up to translation, and rotating it moves which digit comes first.
    """
    digits = sorted(set(digits))
    if not digits or digits[0] < 0 or digits[-1] >= p:
        raise ValueError(f"digits must be a nonempty set of residues in [0, {p}), "
                         f"got {digits}")
    gaps = [b - a for a, b in zip(digits, digits[1:])]
    gaps.append(p - digits[-1] + digits[0])
    return tuple(gaps)


# Entries of the image array one chunk of rows may hold: 2**16 int64, 512 KiB.
_CHUNK = 2 ** 16


def _inverses(a: np.ndarray, p: int) -> np.ndarray:
    """a**(p - 2) mod p elementwise, the inverses of the units a mod p, by repeated
    squaring; residues below 2**31 keep every product below 2**62."""
    result, e = np.ones_like(a), p - 2
    while e:
        if e & 1:
            result = result * a % p
        a, e = a * a % p, e >> 1
    return result


def _lex_least(images: np.ndarray) -> np.ndarray:
    """The lexicographically least row of each images[i], shape (c, m, k) -> (c, k),
    picked column by column among the rows still tied; m >= 1."""
    least = np.empty((images.shape[0], images.shape[2]), images.dtype)
    tied = np.ones(images.shape[:2], bool)
    for j in range(images.shape[2]):
        column = np.where(tied, images[:, :, j], np.iinfo(images.dtype).max)
        least[:, j] = low = column.min(axis=1)
        tied &= column == low[:, None]
    return least


def _least_images(rows: np.ndarray, p: int) -> np.ndarray:
    """The least affine image of each row of a 2-D integer array of ascending
    k-sets mod p, as int64.

    Once k >= 2 some image holds 0 and 1, so the least one does, and it is
    the least image under the k(k - 1) maps x -> (x - u) / (v - u) for
    digits u != v, which send u to 0 and v to 1. The images are formed,
    sorted along the last axis and the least picked. Rows are taken in
    chunks and the digits u in groups, so an image array holds about
    ``_CHUNK`` entries, and never more than k(k - 1) for one u.
    """
    n, k = rows.shape
    out = np.empty((n, k), np.int64)
    maps = max(1, k * (k - 1))
    step = max(1, _CHUNK // (maps * k))  # rows per chunk
    group = max(1, _CHUNK // (step * maps))  # digits u per group: all k unless a row is large
    for start in range(0, n, step):
        chunk = rows[start:start + step].astype(np.int64)
        least = np.zeros_like(chunk)  # one digit translates to 0
        if k >= 2:
            least[:, 1] = 1  # every image holds 0 and 1 and sorts them first
            best = []
            for first in range(0, k, group):
                us = np.arange(first, min(first + group, k))
                shifted = (chunk[:, None, :] - chunk[:, us, None]) % p  # [row, u, x] = x - u
                scale = _inverses(shifted[:, us[:, None] != np.arange(k)], p)  # 1 / (v - u)
                images = shifted[:, :, None, :] * scale.reshape(len(chunk), len(us), k - 1, 1) % p
                images = images.reshape(len(chunk), -1, k)
                images.sort(axis=-1)
                best.append(_lex_least(images[:, :, 2:]))
            least[:, 2:] = _lex_least(np.stack(best, axis=1))
        out[start:start + step] = least
    return out


def _normal_forms(sets, p: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """The normal form of each of the ascending digit sets of residues mod p, by
    one ``_least_images`` call per size."""
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for digits in set(sets):
        by_size.setdefault(len(digits), []).append(digits)
    forms = {}
    for group in by_size.values():
        least = _least_images(np.array(group, np.int64), p)
        forms.update(zip(group, zip(*least.T.tolist())))
    return forms


def normalize_digit_set(digits, p: int) -> tuple[int, ...]:
    """Lexicographically least affine image of the digit set: ``_least_images`` of one row.

    Once |digits| >= 2 the least image holds 0 and 1, so canonical
    representatives can be enumerated among sets containing both.
    """
    p = Prime(p)
    digits = sorted(set(digits))
    gap_sequence(digits, p)  # rejects an empty set and digits outside [0, p)
    return tuple(_least_images(np.array([digits], np.int64), p)[0].tolist())


def orbit_count(p: int, k: int) -> int:
    """The number of k-subsets of Z_p up to the maps x -> a*x + t, by Burnside's lemma.

    The identity fixes all C(p, k) subsets, and a translation other than the
    identity, one p-cycle, fixes only the empty set and Z_p. A map with
    a != 1 is conjugate by a translation to x -> a*x, which fixes 0 and
    permutes the other residues in cycles of length d = ord(a): it fixes the
    unions of cycles, with or without 0. The p maps of each such a, and the
    phi(d) units of each order d, are counted together.
    """
    p = Prime(p)
    if not 0 <= k <= p:
        raise ValueError(f"subset size must lie in 0..{p}, got {k}")
    fixed = comb(p, k) + (p - 1) * (k in (0, p))
    for d in range(2, p):
        if (p - 1) % d == 0:
            units_of_order_d = sum(1 for a in range(1, d) if gcd(a, d) == 1)
            cycles = (p - 1) // d
            fixed += p * units_of_order_d * sum(comb(cycles, j // d) for j in (k, k - 1)
                                                 if j % d == 0)
    return fixed // (p * (p - 1))
