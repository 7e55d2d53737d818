import importlib.util
import json
import random
from fractions import Fraction
from pathlib import Path

import golden as G
from oracles import combined_reducible, digit_reducible, matrix_reducible
from affinecaps import (
    build_constraint_system,
    digit_pair,
    digit_reduce,
    enumerate_progressions,
    make_line_equation,
    matrix_reduce,
    rref,
)
from affinecaps.search import (
    certificate_payload,
    check_pair,
    store_certificate,
    verify_certificate_payload,
)
from affinecaps.reducibility import (
    DigitStep,
    MatrixStep,
    ReductionTrace,
    _fire_digit,
    verify_digit_trace,
    verify_matrix_trace,
)


def pair_for(p):
    digits, fixed = G.PUBLISHED_PAIRS[p]
    return digit_pair(p, digits, fixed)


def test_digit_trace_p11():
    pair = pair_for(11)
    trace = digit_reduce(enumerate_progressions(pair, make_line_equation(11, 9)))
    assert trace.reduced
    fired = [(s.position, s.digit, set(s.removed)) for s in trace.steps]
    assert fired == [
        (2, 1, {(1, 3, 5), (5, 3, 1)}),
        (2, 3, {(3, 4, 5), (5, 4, 3)}),
    ]


def test_digit_trace_p17_prefix():
    pair = pair_for(17)
    trace = digit_reduce(enumerate_progressions(pair, make_line_equation(17, 14)))
    assert trace.reduced
    fired = [(s.position, s.digit) for s in trace.steps]
    assert fired[:3] == [(1, 0), (2, 8), (2, 4)]


def test_empty_table_reduces_trivially():
    pair = digit_pair(5, (0, 1))
    trace = digit_reduce(enumerate_progressions(pair, make_line_equation(5, 1)))
    assert trace.reduced and not trace.steps


def test_digit_reducible_published_pairs():
    for p in (11, 17, 29, 41):
        assert digit_reducible(pair_for(p))


def test_digit_reducible_fails_for_p23():
    assert not digit_reducible(pair_for(23))
    assert not digit_reducible(digit_pair(23, G.P23_DIGITS))


def rank(matrix):
    return sum(1 for row in rref(matrix) if any(row))


def test_rref_basics():
    m = rref([[2, 4, 6], [1, 2, 4]])
    assert m == [[Fraction(1), Fraction(2), Fraction(0)],
                 [Fraction(0), Fraction(0), Fraction(1)]]
    assert rref(m) == m
    assert rank([[1, 2], [2, 4], [0, 1]]) == 2
    assert rref([]) == []


def test_rref_p23_rank_and_canonical_form():
    assert rank(G.P23_MATRIX) == 15
    # identical row space means identical reduced echelon form
    assert rref(G.P23_MATRIX) == rref(G.P23_ECHELON)


def test_matrix_reduce_p23_full_fixed():
    pair = digit_pair(23, G.P23_DIGITS)
    assert matrix_reducible(pair)
    table = enumerate_progressions(pair, make_line_equation(23, 21))
    trace = matrix_reduce(build_constraint_system(table))
    assert trace.reduced
    deleted = [c for s in trace.steps for c in s.columns]
    assert sorted(deleted) == list(range(22))


def test_matrix_reduce_not_for_p17():
    assert not matrix_reducible(pair_for(17))  # at least one representative resists


def test_matrix_reducible_p11():
    assert matrix_reducible(pair_for(11))


def test_zero_column_matrix_is_reduced():
    pair = digit_pair(5, (0, 1), (0, 1))
    system = build_constraint_system(enumerate_progressions(pair, make_line_equation(5, 1)))
    assert system.n_cols == 0
    trace = matrix_reduce(system)
    assert trace.reduced and not trace.steps


def test_combined_subsumes_both_methods():
    assert combined_reducible(pair_for(11))
    assert combined_reducible(digit_pair(23, G.P23_DIGITS))
    assert not combined_reducible(pair_for(23))  # |D'| = 7 resists both methods on some b


def test_pair_reducible_only_by_mixing_methods():
    # found by exhaustive search (no such pair exists for p <= 13, |D| <= 6):
    # representative b=1 yields only to the matrix rule, b=2 only to the
    # digit rule, so neither single method reduces the pair but the
    # combination does
    pair = digit_pair(17, (0, 1, 3, 11, 14, 16), (0, 1, 14, 16))
    assert not digit_reducible(pair)
    assert not matrix_reducible(pair)
    assert combined_reducible(pair)
    methods = {o.b: o.method for o in check_pair(pair).outcomes}
    assert methods[1] == "matrix" and methods[2] == "digit"


def test_trace_replay_digit_and_matrix():
    rng = random.Random(4242)
    for _ in range(30):
        p = rng.choice((5, 7, 11, 13))
        digits = tuple(sorted(rng.sample(range(p), rng.randint(2, min(5, p - 1)))))
        fixed = tuple(sorted(rng.sample(digits, rng.randint(1, len(digits)))))
        pair = digit_pair(p, digits, fixed)
        b = rng.randint(1, p - 2)
        eq = make_line_equation(p, b)
        dtrace = digit_reduce(enumerate_progressions(pair, eq))
        assert verify_digit_trace(pair, eq, dtrace)
        system = build_constraint_system(enumerate_progressions(pair, eq))
        mtrace = matrix_reduce(system)
        assert verify_matrix_trace(system, mtrace)


def test_tampered_traces_fail_replay():
    pair = pair_for(11)
    eq = make_line_equation(11, 9)
    trace = digit_reduce(enumerate_progressions(pair, eq))
    first = trace.steps[0]
    assert len(first.removed) == 2

    def replays(step, reduced=True):
        return verify_digit_trace(pair, eq, ReductionTrace(
            "digit", (step,) + trace.steps[1:], reduced))

    assert replays(first)
    assert not replays(DigitStep(2, 4, first.removed))  # wrong digit
    assert not verify_digit_trace(pair, eq, ReductionTrace("digit", trace.steps[:1], True))
    # the removed triples are listed as the rule removes them: in table order, once each
    assert not replays(DigitStep(first.position, first.digit, first.removed[::-1]))
    assert not replays(DigitStep(first.position, first.digit,
                                 first.removed + first.removed[:1]))
    for position in (0, 4, -1):  # position 0 or -1 would index a triple from the end
        assert not replays(DigitStep(position, first.digit, first.removed))
    assert not replays(MatrixStep(0, (0, 1)))
    assert not verify_digit_trace(pair, eq, ReductionTrace("matrix", trace.steps, True))
    system = p23_full_fixed_system()
    mtrace = matrix_reduce(system)
    assert not verify_matrix_trace(system, ReductionTrace(
        "matrix", (first,) + mtrace.steps[1:], True))
    assert not verify_matrix_trace(system, ReductionTrace(
        "matrix", mtrace.steps + (first,), True))


def _load_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_certificate_of_the_certify_benchmark_replays(tmp_path):
    """Every certificate the certify benchmark writes at seed 1 passes cert-verify."""
    stored = 0
    for p, digits, fixed in _load_workloads().Certify(1, tmp_path).pairs:
        pair = digit_pair(p, digits, fixed)
        for outcome in check_pair(pair).outcomes:
            name = store_certificate(certificate_payload(pair, outcome), tmp_path)
            assert verify_certificate_payload(
                json.loads((tmp_path / f"{name}.json").read_text())), (pair, outcome.b)
            stored += 1
    assert stored > 500


def digit_trace_in_order(pair, eq, order):
    """The digit rule run to a fixpoint, scanning (position, digit) in ``order``."""
    remaining = list(enumerate_progressions(pair, eq).rows)
    steps = []
    while remaining:
        fired = next(((r, d, f) for r, d in order
                      if (f := _fire_digit(remaining, r, d)) is not None), None)
        if fired is None:
            break
        _, _, (step, remaining) = fired
        steps.append(step)
    return ReductionTrace("digit", tuple(steps), not remaining)


def test_digit_verdict_is_scan_order_independent():
    rng = random.Random(97)
    for _ in range(40):
        p = rng.choice((5, 7, 11, 13))
        digits = tuple(sorted(rng.sample(range(p), rng.randint(2, min(5, p - 1)))))
        fixed = tuple(sorted(rng.sample(digits, rng.randint(1, len(digits)))))
        pair = digit_pair(p, digits, fixed)
        b = rng.randint(1, p - 2)
        eq = make_line_equation(p, b)
        base = digit_reduce(enumerate_progressions(pair, eq)).reduced
        order = [(r, d) for r in (1, 2, 3) for d in fixed]
        for _ in range(3):
            rng.shuffle(order)
            trace = digit_trace_in_order(pair, eq, order)
            assert trace.reduced == base
            assert verify_digit_trace(pair, eq, trace)  # any firing order replays


def test_matrix_deletions_are_sound():
    # every fired row is single-signed over the surviving columns
    pair = digit_pair(23, G.P23_DIGITS)
    system = build_constraint_system(
        enumerate_progressions(pair, make_line_equation(23, 21))
    )
    trace = matrix_reduce(system)
    assert verify_matrix_trace(system, trace)
    seen = set()
    for step in trace.steps:
        assert not (set(step.columns) & seen)
        seen.update(step.columns)


def p23_full_fixed_system():
    pair = digit_pair(23, G.P23_DIGITS)
    return build_constraint_system(enumerate_progressions(pair, make_line_equation(23, 21)))


def test_tampered_matrix_traces_fail_replay():
    system = p23_full_fixed_system()
    trace = matrix_reduce(system)
    assert trace.reduced and verify_matrix_trace(system, trace)
    echelon = rref(system.matrix)
    mixed = next(i for i, row in enumerate(echelon) if min(row) < 0 < max(row))
    zero = next(i for i, row in enumerate(echelon) if not any(row))
    first = trace.steps[0]

    def replays(*steps, reduced=True):
        return verify_matrix_trace(system, ReductionTrace(
            "matrix", tuple(steps) + trace.steps[1:], reduced))

    support = tuple(j for j, v in enumerate(echelon[mixed]) if v)
    assert not replays(MatrixStep(mixed, support))  # row is not single-signed
    assert not replays(MatrixStep(zero, ()))
    assert not replays(MatrixStep(zero, first.columns))
    for row in (-1, -len(echelon), len(echelon), len(echelon) + 5):
        assert not replays(MatrixStep(row, first.columns))
    assert not replays(MatrixStep(first.row, first.columns + (first.columns[0] + 1,)))
    assert not replays(MatrixStep(first.row, ()))
    long_step = next(s for s in trace.steps if len(s.columns) > 1)
    assert not verify_matrix_trace(system, ReductionTrace("matrix", tuple(
        MatrixStep(s.row, s.columns[::-1] if s is long_step else s.columns)
        for s in trace.steps), True))
    assert not verify_matrix_trace(system, ReductionTrace("matrix", trace.steps[:-1], True))
    assert verify_matrix_trace(system, ReductionTrace("matrix", trace.steps[:-1], False))
    assert not verify_matrix_trace(system, ReductionTrace("digit", trace.steps, True))
