import json
import multiprocessing
import os
import random
from itertools import combinations
from types import SimpleNamespace

import pytest

import golden as G
from oracles import all_candidates, cone_admissible, matrix_first_check_pair
from traffic import pipeline_pairs
from affinecaps import digit_pair, normalize_digit_set, search
from affinecaps.search import (
    SearchBudget,
    candidates,
    check_pair,
    max_admissible_size,
    minimize_fixed_digits,
    outcome_to_jsonable,
    render_report,
    store_certificate,
    verify_report_payload,
)
from affinecaps.zp import affine_image, orbit_count


def test_candidate_enumeration_counts():
    assert list(candidates(5, 3)) == [(0, 1, 2)]
    assert list(candidates(7, 4)) == [(0, 1, 2, 3), (0, 1, 2, 4)]
    for p in (5, 7, 11, 13):
        for size in range(2, p):
            assert len(candidates(p, size)) == orbit_count(p, size), (p, size)
    for size in (1, 7):
        with pytest.raises(ValueError):
            candidates(7, size)


def test_candidates_canonical_mode():
    for p in (5, 7, 11, 13):
        for size in range(2, p):
            full = all_candidates(p, size)
            # one member of every orbit, its normal form, in ascending order
            assert list(candidates(p, size)) == sorted({normalize_digit_set(d, p) for d in full})
            assert set(candidates(p, size)) <= set(full)


def test_check_pair_methods_published_pairs():
    for p in (11, 17, 29, 41):
        verdict = check_pair(digit_pair(p, *G.PUBLISHED_PAIRS[p]))
        assert verdict.admissible
        assert all(o.method == "digit" for o in verdict.outcomes)
    verdict23 = check_pair(digit_pair(23, G.P23_DIGITS, G.P23_FIXED))
    assert verdict23.admissible
    assert [(o.b, o.method) for o in verdict23.outcomes] == [
        (1, "digit"), (2, "cone"), (3, "matrix"), (4, "digit"),
    ]


def test_cone_before_matrix_records_the_proofs_of_matrix_before_cone():
    kinds = set()
    for pair in pipeline_pairs():
        verdict = check_pair(pair)
        assert verdict == matrix_first_check_pair(pair), pair
        kinds |= {(o.method, o.trivial) for o in verdict.outcomes}
    assert kinds == {("digit", True), ("matrix", True), ("cone", True), ("cone", False)}


def record_results(monkeypatch, *names):
    """Wrap each named function as ``search`` binds it to keep the result of every call."""
    results = {name: [] for name in names}
    for name in names:
        def recording(*args, _call=getattr(search, name), _results=results[name]):
            _results.append(_call(*args))
            return _results[-1]
        monkeypatch.setattr(search, name, recording)
    return results


def test_the_matrix_rule_runs_only_on_a_trivial_cone(monkeypatch):
    results = record_results(monkeypatch, "digit_reduce", "cone_trivial", "matrix_reduce")
    for p in (11, 13):
        max_admissible_size(p)
    stuck = sum(not trace.reduced for trace in results["digit_reduce"])
    assert len(results["cone_trivial"]) == stuck == 37
    assert results["matrix_reduce"] == []
    for calls in results.values():
        calls.clear()
    for p, (digits, fixed) in G.PUBLISHED_PAIRS.items():
        check_pair(digit_pair(p, digits, fixed))
    trivial = sum(cert.trivial for cert in results["cone_trivial"])
    assert len(results["matrix_reduce"]) == trivial == 2


def test_check_pair_inadmissible_short_circuits_with_witness():
    verdict = check_pair(digit_pair(13, (0, 1, 2, 3, 4)))
    assert not verdict.admissible
    last = verdict.outcomes[-1]
    assert last.method == "cone" and not last.trivial
    assert last.proof.witness == (1, 0, 1, 0, 1, 0)
    assert last.b == 3


def test_check_pair_empty_tables_trivially_admissible():
    verdict = check_pair(digit_pair(11, (0, 1)))
    assert verdict.admissible
    assert all(o.method == "digit" and not o.proof.steps for o in verdict.outcomes)


def test_sweep_p7():
    report = max_admissible_size(7)
    assert report.max_size == 3
    assert report.maximality == "proven"
    assert report.witness.pair.digits == (0, 1, 2)
    assert report.witness.pair.fixed == (0,)
    assert len(report.refutations) == 2  # both 4-digit orbits refuted
    for ref in report.refutations:
        assert any(v > 0 for v in ref.witness)
    assert not report.budget_exhausted


def test_sweep_size_range_caps_the_claim():
    # capping the range cannot manufacture a maximality proof
    report = max_admissible_size(11, max_size=3)
    assert report.max_size == 3
    assert report.maximality == "not-attempted"
    low = max_admissible_size(7, min_size=3)
    assert low.max_size == 3 and low.maximality == "proven"
    for min_size in (4, 6):  # every candidate of the first level is refuted
        none = max_admissible_size(7, min_size=min_size)
        assert none.max_size is None and none.witness is None
        assert none.maximality == "not-attempted" and none.refutations == ()


def test_sweep_budget_exhaustion_gives_partial_report():
    report = max_admissible_size(11, budget=SearchBudget(max_candidates=4))
    assert report.budget_exhausted
    assert report.maximality == "not-attempted"
    assert report.refutations == ()


def test_sweep_checkpoint_resume_byte_identical(tmp_path):
    ckpt = tmp_path / "resume.jsonl"
    partial = max_admissible_size(7, budget=SearchBudget(max_candidates=2),
                                  checkpoint_path=ckpt)
    assert partial.budget_exhausted
    lines = [json.loads(s) for s in ckpt.read_text().splitlines()]
    assert lines and all("digits" in rec for rec in lines)

    resumed = max_admissible_size(7, checkpoint_path=ckpt)
    fresh = max_admissible_size(7, checkpoint_path=tmp_path / "fresh.jsonl")
    assert render_report(resumed) == render_report(fresh)
    assert resumed.candidates_examined == fresh.candidates_examined


@pytest.mark.parametrize("written, read", [(7, 11), (11, 13)])
def test_a_checkpoint_of_another_modulus_is_refused_before_any_check(
        tmp_path, monkeypatch, written, read):
    ckpt = tmp_path / "sweep.jsonl"
    max_admissible_size(written, checkpoint_path=ckpt)
    kept = ckpt.read_bytes()
    monkeypatch.setattr(search, "check_pair", lambda pair: pytest.fail("a candidate was checked"))
    with pytest.raises(ValueError, match=f"mod {written}, not mod {read}"):
        max_admissible_size(read, checkpoint_path=ckpt, cert_dir=tmp_path / "certs")
    assert ckpt.read_bytes() == kept and not (tmp_path / "certs").exists()


def test_store_certificate_repairs_a_torn_file(tmp_path):
    payload = {"p": 7, "digits": [0, 1, 2], "method": "cone"}
    digest = store_certificate(payload, tmp_path)
    path = tmp_path / f"{digest}.json"
    whole = path.read_bytes()
    path.write_bytes(whole[:-20])  # a crash in the middle of the write
    assert store_certificate(payload, tmp_path) == digest
    assert path.read_bytes() == whole
    assert [f.name for f in tmp_path.iterdir()] == [path.name]  # no temporary left


def test_sweep_deterministic_reports():
    a = render_report(max_admissible_size(7))
    b = render_report(max_admissible_size(7))
    assert a == b


def test_sweep_worker_pool_matches_sequential():
    seq = render_report(max_admissible_size(7))
    par = render_report(max_admissible_size(7, workers=2))
    assert seq == par


def in_process_pool(monkeypatch, cpus):
    """Stand in for ``multiprocessing.Pool``; returns the pool sizes asked for and the
    candidates fed to the pool."""
    calls = SimpleNamespace(sizes=[], fed=[])

    class Pool:
        def __init__(self, processes):
            calls.sizes.append(processes)

        def map_async(self, work, items, chunksize):
            calls.fed.extend(items)
            return SimpleNamespace(get=lambda: [work(item) for item in items])

        def terminate(self):
            pass

        def join(self):
            pass

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(multiprocessing, "Pool", Pool)
    return calls


def test_sweep_lowers_workers_to_the_cpu_count(monkeypatch):
    pool = in_process_pool(monkeypatch, cpus=3)
    serial = render_report(max_admissible_size(7))
    assert render_report(max_admissible_size(7, workers=100_000)) == serial
    assert pool.sizes == [3]
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one worker, no pool
    assert render_report(max_admissible_size(7, workers=100_000)) == serial
    assert pool.sizes == [3]


def test_a_level_that_ends_early_stops_feeding_the_pool(monkeypatch):
    pool = in_process_pool(monkeypatch, cpus=2)
    report = max_admissible_size(17, workers=2, min_size=7, max_size=7)
    assert report.max_size == 7 and report.candidates_examined == 10
    # the batch of 8 being read and two more per worker, out of the level's 75 candidates
    assert pool.fed == list(candidates(17, 7))[:len(pool.fed)]
    assert report.candidates_examined <= len(pool.fed) < report.candidates_examined + 5 * 8


def test_a_resumed_sweep_writes_the_certificates_of_a_fresh_one(tmp_path):
    max_admissible_size(11, checkpoint_path=tmp_path / "resumed.jsonl")
    max_admissible_size(11, checkpoint_path=tmp_path / "resumed.jsonl",
                        cert_dir=tmp_path / "resumed")
    max_admissible_size(11, checkpoint_path=tmp_path / "fresh.jsonl", cert_dir=tmp_path / "fresh")
    names = sorted(f.name for f in (tmp_path / "fresh").iterdir())
    assert len(names) == 2  # the witness bundle, one per equation class
    assert sorted(f.name for f in (tmp_path / "resumed").iterdir()) == names
    assert (tmp_path / "resumed.jsonl").read_bytes() == (tmp_path / "fresh.jsonl").read_bytes()


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_verify_report_payload_accepts_the_sweep_reports(p):
    report = json.loads(render_report(max_admissible_size(p)))
    assert report["maximality"] == "proven" and report["refutations"]
    assert verify_report_payload(report)


def test_verify_report_payload_rejects_a_bundle_that_refutes_its_witness():
    # every representative of p = 7 is checked for (0, 1, 2, 3) before its refutation
    verdict = check_pair(digit_pair(7, (0, 1, 2, 3)))
    assert not verdict.admissible and verdict.outcomes[-1].method == "cone"
    assert [o.b for o in verdict.outcomes] == list(search.equation_classes(7).representatives)
    report = {"p": 7, "max_size": 4, "maximality": "not-attempted", "refutations": [],
              "witness": {"digits": [0, 1, 2, 3], "fixed": [0, 1, 2, 3],
                          "bundle": [outcome_to_jsonable(o) for o in verdict.outcomes]}}
    assert not verify_report_payload(report)


def refutation_of(p, digits) -> dict:
    refuting = check_pair(digit_pair(p, digits)).outcomes[-1]
    assert not refuting.trivial
    return {"digits": list(digits), "b": refuting.b,
            "witness": [str(v) for v in refuting.proof.witness]}


def test_verify_report_payload_needs_a_refutation_in_every_orbit():
    report = json.loads(render_report(max_admissible_size(11)))
    assert len(report["refutations"]) == orbit_count(11, 6) == 6
    # every member of an orbit may stand for it, and more than one may be listed
    first = report["refutations"][0]["digits"]
    other_member = affine_image(first, 3, 5, 11)
    assert other_member != tuple(first)
    report["refutations"].append(refutation_of(11, other_member))
    assert verify_report_payload(report)
    # a second member of one orbit in place of another orbit's refutation
    report["refutations"][1] = report["refutations"].pop()
    assert not verify_report_payload(report)
    # one orbit missing
    report = json.loads(render_report(max_admissible_size(11)))
    del report["refutations"][3]
    assert not verify_report_payload(report)
    # a refutation of a set of another size fills no orbit
    report["refutations"].append(refutation_of(11, (0, 1, 2, 3, 4, 5, 6)))
    assert not verify_report_payload(report)


def test_verify_report_payload_counts_a_repeated_witness_digit_once():
    # a forged claim of size 4 at p = 7: the size-3 witness with a digit repeated,
    # and a true refutation of every size-5 candidate
    report = json.loads(render_report(max_admissible_size(7)))
    report["witness"]["digits"] = [0, 1, 2, 2]
    report["max_size"] = 4
    report["refutations"] = []
    report["refutations"] = [refutation_of(7, digits) for digits in candidates(7, 5)]
    assert not verify_report_payload(report)


def test_verify_report_payload_accepts_a_partial_report_and_one_without_a_witness():
    assert verify_report_payload(json.loads(render_report(max_admissible_size(11, max_size=3))))
    assert verify_report_payload(json.loads(render_report(max_admissible_size(7, min_size=4))))


@pytest.mark.parametrize("kwargs", [
    {"min_size": 1}, {"min_size": 7}, {"min_size": 9}, {"max_size": 1},
    {"min_size": 4, "max_size": 3}, {"workers": 0}, {"workers": -1},
])
def test_sweep_rejects_bad_sizes_and_worker_counts_up_front(tmp_path, kwargs):
    ckpt = tmp_path / "sweep.jsonl"
    with pytest.raises(ValueError):
        max_admissible_size(7, checkpoint_path=ckpt, cert_dir=tmp_path / "certs", **kwargs)
    assert not ckpt.exists() and not (tmp_path / "certs").exists()


@pytest.mark.parametrize("budget", [
    SearchBudget(max_seconds=-1), SearchBudget(max_candidates=-1),
    SearchBudget(max_seconds=float("nan")), SearchBudget(max_seconds=5, max_candidates=-3),
])
def test_sweep_rejects_negative_budgets_up_front(tmp_path, budget):
    ckpt = tmp_path / "sweep.jsonl"
    with pytest.raises(ValueError):
        max_admissible_size(7, budget=budget, checkpoint_path=ckpt, cert_dir=tmp_path / "certs")
    assert not ckpt.exists() and not (tmp_path / "certs").exists()


def test_sweep_zero_budgets_give_an_empty_partial_report():
    for budget in (SearchBudget(max_seconds=0), SearchBudget(max_candidates=0)):
        report = max_admissible_size(7, budget=budget)
        assert report.budget_exhausted and report.candidates_examined == 0


def test_sweep_lowers_a_large_max_size_to_p_minus_1():
    assert render_report(max_admissible_size(7, max_size=100)) == \
        render_report(max_admissible_size(7))
    top_level = max_admissible_size(7, min_size=6, max_size=100)  # level 6 only
    assert top_level.candidates_examined == sum(1 for _ in candidates(7, 6))


def test_minimize_fixed_digits_p11():
    verdict = minimize_fixed_digits((0, 1, 3, 4, 5), 11)
    pair = verdict.pair
    assert pair.fixed == (0, 1, 3)
    assert verdict.admissible and verdict == check_pair(pair)
    assert len(pair.fixed) <= len(pair.digits) - 2


def test_minimize_requires_admissible_digits():
    with pytest.raises(ValueError):
        minimize_fixed_digits((0, 1, 2, 3, 4), 13)


def test_minimize_two_digit_set():
    pair = minimize_fixed_digits((0, 1), 7).pair
    assert pair.fixed == ()  # no progressions at all, nothing needs pinning


def test_monotone_refutation():
    # an inadmissible (D, D) stays inadmissible for every subset of fixed digits
    rng = random.Random(140)
    found = 0
    while found < 8:
        p = rng.choice((7, 11, 13))
        digits = tuple(sorted(rng.sample(range(p), rng.randint(3, 5))))
        if cone_admissible(digit_pair(p, digits)):
            continue
        for fixed in combinations(digits, rng.randint(0, len(digits) - 1)):
            assert not cone_admissible(digit_pair(p, digits, fixed))
        found += 1


def test_report_serialization_shape():
    report = max_admissible_size(7)
    blob = json.loads(render_report(report))
    assert blob["p"] == 7 and blob["max_size"] == 3
    assert blob["maximality"] == "proven"
    assert blob["witness"]["digits"] == [0, 1, 2]
    assert all(set(r) == {"digits", "b", "witness"} for r in blob["refutations"])
