"""Property tests: the orbit count, the normal-form kernel, the two symmetries the
maximality sweep rests on, the certificate JSON round trip and trace replay.

The sweep checks one digit set per affine orbit, with every digit pinned,
and its report check counts orbits by Burnside's lemma. So these facts
must hold: ``orbit_count`` is the number of orbits, the batched normal-form
kernel gives the least image of every row and ``candidates`` one set per
orbit, admissibility does not change under x -> a*x + t, and pinning more
digits never loses admissibility. Every document the package writes, a
certificate, a report or a checkpoint line, must be its sorted JSON on one
line, and a stored certificate must read back to its payload and
re-verify. A digit or matrix trace must replay, and a reduced one must
not replay once a step is dropped or a removed triple or column changed.
"""

import json
import math
import tempfile
from functools import partial
from itertools import combinations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_normalize
from affinecaps import digit_pair, search, zp
from affinecaps.progressions import build_constraint_system, enumerate_progressions
from affinecaps.reducibility import (
    DigitStep,
    MatrixStep,
    ReductionTrace,
    digit_reduce,
    matrix_reduce,
    verify_digit_trace,
    verify_matrix_trace,
)
from affinecaps.search import (
    Refutation,
    SearchReport,
    _Checkpoint,
    candidates,
    certificate_payload,
    check_pair,
    render_report,
    store_certificate,
    verify_certificate_payload,
)
from affinecaps.zp import affine_image, equation_classes, make_line_equation, orbit_count

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


@st.composite
def digit_set_batches(draw):
    """A prime and up to 60 digit sets of sizes 2..p-1, some of them repeated."""
    p = draw(st.sampled_from((5, 7, 11, 13)))
    distinct = draw(st.lists(st.sets(st.integers(0, p - 1), min_size=2, max_size=p - 1)
                             .map(lambda s: tuple(sorted(s))), min_size=1, max_size=30))
    return p, draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=60))


@PROPERTY
@given(digit_set_batches(), st.sampled_from((1, 200, zp._CHUNK)))
def test_the_batched_kernel_gives_each_rows_least_affine_image(case, chunk):
    p, batch = case
    with mock.patch.object(zp, "_CHUNK", chunk):  # 1: one row per chunk
        for size in {len(d) for d in batch}:
            rows = [d for d in batch if len(d) == size]
            least = zp._least_images(np.array(rows), p).tolist()
            assert [tuple(r) for r in least] == [brute_normalize(d, p) for d in rows]
        assert zp._normal_forms(batch, p) == {d: brute_normalize(d, p) for d in batch}


@pytest.mark.parametrize("p", [17, 19])
def test_candidates_has_one_set_per_affine_orbit(p):
    assert [len(candidates(p, k)) for k in range(2, p)] == \
        [orbit_count(p, k) for k in range(2, p)]


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


def _written_documents(pair, directory: Path) -> list[bytes]:
    """The bytes the package writes for ``pair``: its certificates, a report with it
    as the witness (and its refutation, if refuted) and its checkpoint line."""
    verdict = check_pair(pair)
    names = [store_certificate(certificate_payload(pair, o), directory) for o in verdict.outcomes]
    documents = [(directory / f"{name}.json").read_bytes() for name in names]
    last = verdict.outcomes[-1]
    refutations = () if verdict.admissible else (
        Refutation(pair.digits, last.b, last.proof.witness),)
    report = SearchReport(pair.p, verdict, 1, "not-attempted", refutations, False)
    documents.append(render_report(report).encode())
    checkpoint = directory / "checkpoint.jsonl"
    with mock.patch.object(search, "candidates", lambda p, size: (pair.digits,)):
        ckpt = _Checkpoint(checkpoint, pair.p, math.inf, math.inf)
        list(ckpt.level(len(pair.digits)))
        ckpt.close()
    documents.append(checkpoint.read_bytes())
    return documents


@PROPERTY
@given(digit_sets(primes=(7, 11, 13), sizes=(3, 6)), st.data())
def test_every_document_is_its_sorted_json_on_one_line(case, data):
    p, digits = case
    pair = digit_pair(p, digits, data.draw(st.sets(st.sampled_from(digits))))
    with tempfile.TemporaryDirectory() as directory:
        for document in _written_documents(pair, Path(directory)):
            assert document == (json.dumps(json.loads(document), sort_keys=True) + "\n").encode()


@PROPERTY
@given(digit_sets(primes=(7, 11, 13), sizes=(3, 6)), st.data())
def test_a_stored_certificate_reads_back_to_its_payload_and_verifies(case, data):
    p, digits = case
    pair = digit_pair(p, digits, data.draw(st.sets(st.sampled_from(digits))))
    with tempfile.TemporaryDirectory() as directory:
        for outcome in check_pair(pair).outcomes:
            payload = certificate_payload(pair, outcome)
            digest = store_certificate(payload, directory)
            stored = json.loads((Path(directory) / f"{digest}.json").read_text())
            assert stored == payload
            assert verify_certificate_payload(stored)


def _reduced_traces(pair):
    """(trace, replay) for every reduced digit and matrix trace of the pair that fires."""
    for b in equation_classes(pair.p).representatives:
        eq = make_line_equation(pair.p, b)
        table = enumerate_progressions(pair, eq)
        system = build_constraint_system(table)
        for trace, replay in ((digit_reduce(table), partial(verify_digit_trace, pair, eq)),
                              (matrix_reduce(system), partial(verify_matrix_trace, system))):
            assert replay(trace)
            if trace.reduced and trace.steps:
                yield trace, replay


def _changed(step):
    """The step with its first removed triple, or its first column, changed."""
    if isinstance(step, DigitStep):
        x, y, z = step.removed[0]
        return DigitStep(step.position, step.digit, ((x + 1, y, z),) + step.removed[1:])
    return MatrixStep(step.row, (step.columns[0] + 1,) + step.columns[1:])


@PROPERTY
@given(digit_sets(primes=(7, 11, 13), sizes=(3, 7)), st.data())
def test_a_trace_replays_and_no_longer_does_with_a_step_dropped_or_changed(case, data):
    p, digits = case
    pair = digit_pair(p, digits, data.draw(st.sets(st.sampled_from(digits))))
    for trace, replay in _reduced_traces(pair):
        for i, step in enumerate(trace.steps):
            for steps in (trace.steps[:i] + trace.steps[i + 1:],
                          trace.steps[:i] + (_changed(step),) + trace.steps[i + 1:]):
                assert not replay(ReductionTrace(trace.kind, steps, trace.reduced))
