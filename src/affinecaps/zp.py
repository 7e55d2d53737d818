"""Residue arithmetic, digit sets and line-equation bookkeeping over Z_p."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate


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
    """An odd prime modulus >= 5, validated at construction."""

    def __new__(cls, p: int) -> "Prime":
        p = int(p)
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
    digits = tuple(sorted(set(int(d) for d in digits)))
    if fixed is None:
        fixed = digits
    return DigitSetPair(Prime(p), digits, tuple(sorted(set(int(d) for d in fixed))))


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
    p = Prime(p)
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


def normalize_digit_set(digits, p: int) -> tuple[int, ...]:
    """Lexicographically least affine image of the digit set.

    An image containing 0 is the prefix sums of its gap sequence read from
    0, and lexicographic order on such images is order on the gap
    sequences, so the least image comes from the least rotation of the gap
    sequence of a*D over the units a. The minimum always contains 0 and 1
    once |digits| >= 2, so canonical representatives can be enumerated
    among sets containing both.
    """
    p = Prime(p)
    digits = tuple(sorted(set(digits)))
    gap_sequence(digits, p)  # rejects digits outside [0, p)
    least = min(
        min(gaps[i:] + gaps[:i] for i in range(len(gaps)))
        for gaps in (gap_sequence(affine_image(digits, a, 0, p), p) for a in range(1, p))
    )
    return tuple(accumulate(least[:-1], initial=0))
