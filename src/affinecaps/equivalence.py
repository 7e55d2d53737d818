"""Affine classification of digit sets by a complete gap fingerprint."""

from __future__ import annotations

from dataclasses import dataclass

from .zp import Prime, _normal_forms, affine_image, gap_sequence, normalize_digit_set


def difference_multiset(digits, p: int) -> tuple[int, ...]:
    """Sorted multiset of circular gaps between consecutive digits.

    Includes the wrap-around gap from the largest digit back to the
    smallest; entries sum to p and there is one per digit. Translations
    leave it unchanged, but multiplications generally reshuffle it, so a
    mismatch alone does not refute affine equivalence.
    """
    return tuple(sorted(gap_sequence(digits, Prime(p))))


def fingerprint(digits, p: int) -> tuple[int, ...]:
    """Gap sequence of the affine normal form: a complete affine invariant.

    Equal cyclic gap sequences fix a set up to translation, so two digit
    sets are affinely equivalent iff their fingerprints are equal.
    """
    return gap_sequence(normalize_digit_set(digits, p), p)


def affine_equivalent(digits1, digits2, p: int):
    """Witnessing map (a, b) with a*D1 + b = D2, or None.

    Scans all p(p-1) affine maps; returns the first witness in (a, b)
    lexicographic order.
    """
    p = Prime(p)
    d1 = tuple(sorted(set(digits1)))
    d2 = tuple(sorted(set(digits2)))
    if len(d1) != len(d2):
        raise ValueError("digit sets must have equal size")
    for a in range(1, p):
        for b in range(p):
            if affine_image(d1, a, b, p) == d2:
                return (a, b)
    return None


@dataclass(frozen=True)
class OrbitClass:
    representative: tuple[int, ...]  # canonical (lexicographically least) image
    members: tuple[tuple[int, ...], ...]
    fingerprint: tuple[int, ...]
    gap_multisets: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Classification:
    p: Prime
    classes: tuple[OrbitClass, ...]


def classify(digit_sets, p: int) -> Classification:
    """Partition digit sets into affine-orbit classes by their normal forms.

    Two sets are affinely equivalent iff their normal forms are equal, and
    the fingerprint is the gap sequence of the normal form, so the classes
    are those of ``fingerprint``. The distinct sets are checked by their gap
    multisets, then normalised in one ``zp._normal_forms`` call.
    """
    p = Prime(p)
    sets = [tuple(sorted(set(d))) for d in digit_sets]
    multisets = {d: difference_multiset(d, p) for d in sets}  # rejects non-residues
    normal = _normal_forms(sets, p)
    groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for d in sets:
        groups.setdefault(normal[d], []).append(d)
    classes = []
    for representative, group in groups.items():
        members = tuple(dict.fromkeys(group))
        classes.append(OrbitClass(
            representative=representative,
            members=members,
            fingerprint=gap_sequence(representative, p),
            gap_multisets=tuple(multisets[m] for m in members),
        ))
    classes.sort(key=lambda cls: (cls.representative, cls.members))
    return Classification(p, tuple(classes))


def classification_to_jsonable(result: Classification) -> dict:
    return {
        "p": int(result.p),
        "classes": [
            {
                "id": i,
                "representative": list(cls.representative),
                "members": [list(m) for m in cls.members],
                "fingerprint": list(cls.fingerprint),
                "gap_multisets": [list(g) for g in cls.gap_multisets],
            }
            for i, cls in enumerate(result.classes)
        ],
    }
