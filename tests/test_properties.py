"""Property tests: the orbit count, and the two symmetries the maximality sweep rests on.

The sweep checks one digit set per affine orbit, with every digit pinned,
and its report check counts orbits by Burnside's lemma. So three facts
must hold: ``orbit_count`` is the number of orbits, admissibility does not
change under x -> a*x + t, and pinning more digits never loses
admissibility.
"""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_normalize
from affinecaps import digit_pair
from affinecaps.search import check_pair
from affinecaps.zp import affine_image, orbit_count

# derandomized and without an example database, so every run draws the same examples
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def subset_sizes(draw):
    p = draw(st.sampled_from((5, 7, 11, 13)))
    return p, draw(st.integers(0, p))


@st.composite
def digit_sets(draw, primes=(7, 11, 13, 17), sizes=(3, 6)):
    p = draw(st.sampled_from(primes))
    digits = draw(st.sets(st.integers(0, p - 1), min_size=sizes[0], max_size=sizes[1]))
    return p, tuple(sorted(digits))


@settings(PROPERTY, max_examples=20)
@given(subset_sizes())
def test_orbit_count_is_the_number_of_affine_orbits(case):
    p, k = case
    assert orbit_count(p, k) == len({brute_normalize(s, p) for s in combinations(range(p), k)})


@PROPERTY
@given(digit_sets(), st.data())
def test_admissibility_is_invariant_under_affine_maps(case, data):
    p, digits = case
    a, t = data.draw(st.integers(1, p - 1)), data.draw(st.integers(0, p - 1))
    image = affine_image(digits, a, t, p)
    assert check_pair(digit_pair(p, digits)).admissible == \
        check_pair(digit_pair(p, image)).admissible


@PROPERTY
@given(digit_sets(sizes=(3, 7)), st.data())
def test_admissibility_is_monotone_in_the_pinned_digits(case, data):
    p, digits = case
    more = data.draw(st.sets(st.sampled_from(digits)))
    fewer = data.draw(st.sets(st.sampled_from(sorted(more)))) if more else set()
    if check_pair(digit_pair(p, digits, fewer)).admissible:
        assert check_pair(digit_pair(p, digits, more)).admissible
