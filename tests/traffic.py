"""The digit-set pairs that the pipeline tests run ``check_pair`` and its rules on.

Every candidate that the p = 5, 7, 11, 13 sweeps visit, the published pairs,
the p = 23 pair with every digit pinned, a p = 17 pair that the matrix
rule closes where the digit rule is stuck, and seeded random pairs at
p = 17, 19, 23 with |D| - 2 to |D| fixed digits.
"""

import random
from functools import cache

import golden as G
from test_matrix_rule import sweep_pairs
from affinecaps import digit_pair


@cache
def pipeline_pairs():
    pairs = [pair for p in (5, 7, 11, 13) for pair in sweep_pairs(p)]
    pairs += [digit_pair(p, *G.PUBLISHED_PAIRS[p]) for p in sorted(G.PUBLISHED_PAIRS)]
    pairs.append(digit_pair(23, G.P23_DIGITS))
    pairs.append(digit_pair(17, (0, 1, 3, 11, 14, 16), (0, 1, 14, 16)))  # matrix closes b=1
    rng = random.Random(1010)
    for p in (17, 19, 23):
        for _ in range(10):
            digits = rng.sample(range(p), rng.randint(6, 9))
            fixed = rng.sample(digits, len(digits) - rng.randint(0, 2))
            pairs.append(digit_pair(p, digits, fixed))
    return tuple(pairs)
