import json
import multiprocessing
import os
import random
import threading
from itertools import combinations
from types import SimpleNamespace

import pytest

import golden as G
from oracles import (
    affine_stabiliser,
    all_candidates,
    balance_matrix,
    cone_admissible,
    matrix_first_check_pair,
    subset_minimize_fixed_digits,
)
from traffic import pipeline_pairs
from affinecaps import (
    Prime,
    build_constraint_system,
    cone_trivial,
    digit_pair,
    enumerate_progressions,
    equation_classes,
    make_line_equation,
    normalize_digit_set,
    search,
)
from affinecaps.capset import verify_cap
from affinecaps.search import (
    candidates,
    check_pair,
    max_admissible_size,
    minimize_fixed_digits,
    outcome_to_jsonable,
    render_report,
    store_certificate,
    verify_report_payload,
)
from affinecaps.zp import _affine_maps, affine_image, is_prime, orbit_count


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
    monkeypatch.setattr(search, "_first_image", lambda refutations, digits: None)  # no inheriting
    for p in (11, 13):
        max_admissible_size(p)
    stuck = sum(not trace.reduced for trace in results["digit_reduce"])
    assert len(results["cone_trivial"]) == stuck == 24
    assert results["matrix_reduce"] == []
    for calls in results.values():
        calls.clear()
    for p, (digits, fixed) in G.PUBLISHED_PAIRS.items():
        check_pair(digit_pair(p, digits, fixed))
    trivial = sum(cert.trivial for cert in results["cone_trivial"])
    assert len(results["matrix_reduce"]) == trivial == 2


def test_check_pair_enumerates_the_progressions_once_per_representative(monkeypatch):
    results = record_results(monkeypatch, "enumerate_progressions", "build_constraint_system")
    pairs = [digit_pair(p, digits, fixed) for p, (digits, fixed) in G.PUBLISHED_PAIRS.items()]
    for pair in pairs + [digit_pair(13, (0, 1, 2, 3, 4))]:
        for calls in results.values():
            calls.clear()
        verdict = check_pair(pair)
        tables = results["enumerate_progressions"]
        assert len(tables) == len(verdict.outcomes)
        # the cone and matrix rules see the very table the digit rule reduced
        assert all(any(system.column_labels is table.rows for table in tables)
                   for system in results["build_constraint_system"])
    assert not verdict.admissible and results["build_constraint_system"]


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


def test_every_sweep_starts_at_an_admissible_0_1():
    # the sweep's first level, {0, 1}, has no nontrivial progression for any
    # b, so it always yields a witness before a level can be fully refuted
    for p in filter(is_prime, range(5, 500)):
        verdict = check_pair(digit_pair(p, (0, 1)))
        assert verdict.admissible and len(verdict.outcomes) == len(
            equation_classes(p).representatives)
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
    with pytest.raises(TypeError):  # every sweep starts at size 2
        max_admissible_size(7, min_size=3)
    none = max_admissible_size(7, max_candidates=0)  # only a spent budget leaves no witness
    assert none.max_size is None and none.witness is None
    assert none.maximality == "not-attempted" and none.refutations == ()


def test_sweep_budget_exhaustion_gives_partial_report():
    report = max_admissible_size(11, max_candidates=4)
    assert report.budget_exhausted
    assert report.maximality == "not-attempted"
    assert report.refutations == ()


def test_sweep_checkpoint_resume_byte_identical(tmp_path):
    ckpt = tmp_path / "resume.jsonl"
    partial = max_admissible_size(7, max_candidates=2, checkpoint_path=ckpt)
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


def resume_with_tampered_best(tmp_path, tamper):
    """Resume the finished p = 7 sweep after ``tamper`` edits the stored record
    of its largest admissible set."""
    ckpt = tmp_path / "sweep.jsonl"
    max_admissible_size(7, checkpoint_path=ckpt)
    records = [json.loads(line) for line in ckpt.read_text().splitlines()]
    tamper(max((r for r in records if r["admissible"]), key=lambda r: r["size"]))
    ckpt.write_text("".join(json.dumps(r) + "\n" for r in records))
    return max_admissible_size(7, checkpoint_path=ckpt)


@pytest.mark.parametrize("call, error, match", [
    (lambda tmp: Prime(11.5), TypeError, None),
    (lambda tmp: max_admissible_size(7.5), TypeError, None),
    (lambda tmp: digit_pair(11, [0, 1.5, 3]), TypeError, None),
    (lambda tmp: digit_pair(11, [0, 1, 3], [0, 1.0]), TypeError, None),
    (lambda tmp: make_line_equation(11, 2.5), TypeError, None),
    (lambda tmp: verify_cap([(0, 1.5), (1, 2), (2, 2.9)], 11), ValueError, "integers"),
    (lambda tmp: verify_cap([("1", "2"), (1, 2)], 11), ValueError, "integers"),
    (lambda tmp: verify_cap([(True, False), (False, True)], 11), ValueError, "integers"),
    (lambda tmp: verify_cap([(0, 1), (1, 2)], 11.0), TypeError, None),
    (lambda tmp: resume_with_tampered_best(
        tmp, lambda rec: rec["digits"].append(float(rec["digits"].pop()))),
     ValueError, r"line \d+ is refused"),
    (lambda tmp: resume_with_tampered_best(tmp, lambda rec: rec.update(size=float(rec["size"]))),
     ValueError, r"line \d+ is refused"),
], ids=["prime", "sweep-modulus", "digit", "fixed-digit", "line-b", "float-point",
        "string-point", "bool-point", "cap-modulus", "checkpoint-digit", "checkpoint-size"])
def test_non_integer_input_is_refused_not_truncated(tmp_path, call, error, match):
    with pytest.raises(error, match=match):
        call(tmp_path)


def test_store_certificate_repairs_a_torn_file(tmp_path):
    payload = {"p": 7, "digits": [0, 1, 2], "method": "cone"}
    digest = store_certificate(payload, tmp_path)
    path = tmp_path / f"{digest}.json"
    whole = path.read_bytes()
    path.write_bytes(whole[:-20])  # a crash in the middle of the write
    assert store_certificate(payload, tmp_path) == digest
    assert path.read_bytes() == whole
    assert [f.name for f in tmp_path.iterdir()] == [path.name]  # no temporary left


@pytest.mark.parametrize("leftover", ["file", "symlink"])
def test_store_certificate_replaces_a_temporary_file_left_by_a_killed_process(tmp_path, leftover):
    payload = {"p": 7, "digits": [0, 1, 2], "method": "cone"}
    certs, elsewhere = tmp_path / "certs", tmp_path / "elsewhere"
    digest = store_certificate(payload, certs)
    stored = certs / f"{digest}.json"
    whole = stored.read_bytes()
    stored.unlink()  # killed before its rename
    stale = certs / f"{digest}.json.{os.getpid()}.{threading.get_ident()}.tmp"  # same name
    if leftover == "file":
        stale.write_text("torn")
    else:
        stale.symlink_to(elsewhere)
    assert store_certificate(payload, certs) == digest
    assert [f.name for f in certs.iterdir()] == [stored.name] and stored.read_bytes() == whole
    assert not elsewhere.exists()  # the write never follows a link


def test_store_certificate_leaves_an_identical_file_alone(tmp_path):
    payload = {"p": 7, "digits": [0, 1, 2], "method": "cone"}
    digest = store_certificate(payload, tmp_path)
    before = (tmp_path / f"{digest}.json").stat()
    assert store_certificate(payload, tmp_path) == digest
    after = (tmp_path / f"{digest}.json").stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


def test_sweep_deterministic_reports():
    a = render_report(max_admissible_size(7))
    b = render_report(max_admissible_size(7))
    assert a == b


def test_two_workers_write_the_bytes_of_one_and_start_no_process(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("the sweep started a process pool")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    outputs = {}
    for workers in (1, 2):
        checkpoint_path, cert_dir = tmp_path / f"w{workers}.jsonl", tmp_path / f"w{workers}"
        report = render_report(max_admissible_size(
            17, checkpoint_path=checkpoint_path, workers=workers, cert_dir=cert_dir))
        certificates = {f.name: f.read_bytes() for f in cert_dir.iterdir()}
        outputs[workers] = report, checkpoint_path.read_bytes(), certificates
    assert outputs[2] == outputs[1]


@pytest.mark.parametrize("p", [13, 17])
def test_every_inherited_witness_balances_an_independently_built_matrix(tmp_path, p):
    max_admissible_size(p, checkpoint_path=tmp_path / "sweep.jsonl")
    records = [json.loads(line) for line in (tmp_path / "sweep.jsonl").read_text().splitlines()]
    refuted = [rec for rec in records if not rec["admissible"]]
    inherited = [rec for rec in refuted if rec["methods"] == [[rec["refuted_b"], "inherited"]]]
    assert len(inherited) == {13: 8, 17: 102}[p]
    for rec in inherited:
        assert set(rec) == set(refuted[0])  # the shape of a computed record
        witness = [int(v) for v in rec["witness"]]
        matrix = balance_matrix(p, rec["digits"], rec["refuted_b"])
        assert len(witness) == len(matrix[0]) and min(witness) >= 0 and any(witness), rec
        assert all(sum(a * v for a, v in zip(row, witness)) == 0 for row in matrix), rec


def first_image_by_loops(refutations, digits):
    """``search._first_image`` by plain loops: kept supports in order, then the digits
    u and v, ascending, that the anchored digits 0 and 1 go to."""
    p, held = refutations.p, set(digits)
    for i, (_, support, _) in enumerate(refutations.kept):
        for u in digits:
            for v in digits:
                if u != v and all((u + (v - u) * e) % p in held for e in support):
                    return i, u, v
    return None


def assert_inherits_like_the_loops(refutations, digits):
    """Whether ``digits`` inherits; its record, if any, is checked against the oracle."""
    hit = search._first_image(refutations, digits)
    assert hit == first_image_by_loops(refutations, digits), digits
    if hit is None:
        return False
    rec = refutations.inherit(digits, *hit)
    b, witness = rec["refuted_b"], [int(v) for v in rec["witness"]]
    assert rec["methods"] == [[b, "inherited"]] and b == refutations.kept[hit[0]][0]
    matrix = balance_matrix(refutations.p, digits, b)
    assert len(witness) == len(matrix[0]) and min(witness) >= 0 and any(witness), digits
    assert all(sum(a * v for a, v in zip(row, witness)) == 0 for row in matrix), digits
    return True


@pytest.mark.parametrize("p", [17, 19])
def test_first_image_is_the_first_support_and_anchoring_found_by_loops(
        tmp_path, monkeypatch, p):
    # every refutation of the sweep computed by the simplex, and all of them kept,
    # those holding an image of one kept before them too
    monkeypatch.setattr(search, "_first_image", lambda refutations, digits: None)
    max_admissible_size(p, checkpoint_path=tmp_path / "sweep.jsonl")
    refutations = search._Refutations(p)
    for line in (tmp_path / "sweep.jsonl").read_text().splitlines():
        refutations.keep(json.loads(line))
    monkeypatch.undo()
    assert len(refutations.kept) > 20
    rng = random.Random(p)
    outcomes = [assert_inherits_like_the_loops(
        refutations, tuple(sorted(rng.sample(range(p), rng.randint(4, 9)))))
        for _ in range(300)]
    assert 30 < sum(outcomes) < 270


@pytest.mark.parametrize("p", [17, 19])
def test_keep_holds_the_supports_that_hold_no_image_of_one_kept_before(
        tmp_path, monkeypatch, p):
    # the simplex path's supports, every one kept, then filtered in order by the loops
    monkeypatch.setattr(search, "_first_image", lambda refutations, digits: None)
    max_admissible_size(p, checkpoint_path=tmp_path / "sweep.jsonl")
    records = [json.loads(line) for line in (tmp_path / "sweep.jsonl").read_text().splitlines()]
    every = search._Refutations(p)
    for rec in records:
        every.keep(rec)
    monkeypatch.undo()
    expected = []
    for entry in every.kept:
        if first_image_by_loops(SimpleNamespace(p=p, kept=expected), tuple(entry[1])) is None:
            expected.append(entry)
    refutations = search._Refutations(p)
    for rec in records:
        refutations.keep(rec)
    assert refutations.kept == expected and len(expected) < len(every.kept)


def test_keep_adds_no_support_for_an_admissible_or_inherited_record(tmp_path):
    max_admissible_size(17, checkpoint_path=tmp_path / "sweep.jsonl")
    records = [json.loads(line) for line in (tmp_path / "sweep.jsonl").read_text().splitlines()]
    settled = [rec for rec in records if rec["admissible"]
               or rec["methods"] == [[rec["refuted_b"], "inherited"]]]
    assert len(settled) > 90 and any(rec["admissible"] for rec in settled)
    refutations = search._Refutations(17)
    for rec in settled:
        refutations.keep(rec)
    assert refutations.kept == []


def test_a_refutation_is_inherited_mod_the_largest_prime_modulus():
    # the cube roots of unity {1, w, w^2} refute x + wy + w^2z = 0: its solutions
    # (1, w, w^2), (w, w^2, 1) and (w^2, 1, w) hold each root once in each position
    p = 2 ** 31 - 1
    b = pow(7, (p - 1) // 3, p)
    support = tuple(sorted({1, b, b * b % p}))
    table = enumerate_progressions(digit_pair(p, support), make_line_equation(p, b))
    witness = cone_trivial(build_constraint_system(table)).witness
    assert witness is not None and len(support) == 3
    refutations = search._Refutations(p)
    refutations.keep({"digits": list(support), "admissible": False, "refuted_b": b,
                      "methods": [[b, "cone"]], "witness": [str(v) for v in witness]})
    image = {(1234567891 * d + p - 5) % p for d in support}
    assert assert_inherits_like_the_loops(refutations, tuple(sorted(image | {17, 2 ** 30})))
    assert not assert_inherits_like_the_loops(refutations, tuple(sorted(image)[1:]) + (p - 1,))


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
              "budget_exhausted": False, "candidates_examined": 2,
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
    assert verify_report_payload(json.loads(render_report(max_admissible_size(7, max_candidates=0))))


@pytest.mark.parametrize("kwargs", [
    {"max_size": 1}, {"max_size": 0}, {"workers": 0}, {"workers": -1},
    {"max_size": float("nan")}, {"max_size": 5.5}, {"max_size": 5.0}, {"max_candidates": 2.5},
    {"max_candidates": True},
])
def test_sweep_rejects_bad_sizes_and_worker_counts_up_front(tmp_path, kwargs):
    ckpt = tmp_path / "sweep.jsonl"
    with pytest.raises(ValueError):
        max_admissible_size(7, checkpoint_path=ckpt, cert_dir=tmp_path / "certs", **kwargs)
    assert not ckpt.exists() and not (tmp_path / "certs").exists()


@pytest.mark.parametrize("budget", [
    {"max_seconds": -1}, {"max_candidates": -1},
    {"max_seconds": float("nan")}, {"max_seconds": 5, "max_candidates": -3},
])
def test_sweep_rejects_negative_budgets_up_front(tmp_path, budget):
    ckpt = tmp_path / "sweep.jsonl"
    with pytest.raises(ValueError):
        max_admissible_size(7, checkpoint_path=ckpt, cert_dir=tmp_path / "certs", **budget)
    assert not ckpt.exists() and not (tmp_path / "certs").exists()


def test_the_sweep_bounds_are_keywords_and_none_is_no_bound(tmp_path):
    with pytest.raises(TypeError):  # a positional budget cannot become checkpoint_path
        max_admissible_size(7, None)
    ckpt = tmp_path / "sweep.jsonl"
    for bound in ("max_size", "max_seconds", "max_candidates"):
        with pytest.raises(TypeError):  # math.inf, not None, is no bound
            max_admissible_size(7, checkpoint_path=ckpt, **{bound: None})
    assert not ckpt.exists()


def test_sweep_zero_budgets_give_an_empty_partial_report():
    for budget in ({"max_seconds": 0}, {"max_candidates": 0}):
        report = max_admissible_size(7, **budget)
        assert report.budget_exhausted and report.candidates_examined == 0


def test_sweep_lowers_a_large_max_size_to_p_minus_1(monkeypatch):
    unbounded = render_report(max_admissible_size(7))
    assert render_report(max_admissible_size(7, max_size=100)) == unbounded
    assert render_report(max_admissible_size(7, max_size=6)) == unbounded
    # a sweep that finds every level admissible ends at level p - 1, not at 100
    monkeypatch.setattr(search, "check_pair", lambda pair: search.PairVerdict(pair, ()))
    monkeypatch.setattr(search, "minimize_fixed_digits",
                        lambda digits, p: search.PairVerdict(digit_pair(p, digits), ()))
    full = max_admissible_size(7, max_size=100)
    assert full.max_size == 6 and full.candidates_examined == 5  # one per level 2..6


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


def _verdict_or_refusal(minimize, digits, p):
    """The verdict of ``minimize`` on the digits, or ValueError when it refuses them."""
    try:
        return minimize(digits, p)
    except ValueError:
        return ValueError


def test_minimize_fixed_digits_matches_the_subset_by_subset_reference():
    rng = random.Random(27)
    admissible = symmetric = 0
    for p in (7, 11, 13, 17, 19):
        # the normal forms with a map other than the identity, and seeded
        # random sets, of two digits and more
        sets = [d for k in range(2, 6) for d in candidates(p, k)
                if len(_affine_maps(d, d, p)) > 1]
        sets += [tuple(sorted(rng.sample(range(p), rng.randint(2, 6)))) for _ in range(12)]
        for digits in sets:
            expected = _verdict_or_refusal(subset_minimize_fixed_digits, digits, p)
            assert _verdict_or_refusal(minimize_fixed_digits, digits, p) == expected, (p, digits)
            admissible += expected is not ValueError
            symmetric += expected is not ValueError and len(_affine_maps(digits, digits, p)) > 1
    assert admissible >= 60 and symmetric >= 20


# the digit set each sweep proves maximal, by prime
SWEEP_WITNESSES = {11: (0, 1, 2, 3, 4), 13: (0, 1, 2, 3), 17: (0, 1, 2, 3, 4, 6, 10),
                   19: (0, 1, 2, 3, 7, 15), 23: (0, 1, 2, 3, 4, 5, 8, 12, 16)}


@pytest.mark.parametrize("p", sorted(SWEEP_WITNESSES))
def test_minimize_fixed_digits_enumerates_once_and_checks_no_pair(monkeypatch, p):
    digits = SWEEP_WITNESSES[p]
    expected = subset_minimize_fixed_digits(digits, p)
    results = record_results(monkeypatch, "check_pair", "enumerate_progressions")
    assert minimize_fixed_digits(digits, p) == expected
    assert results["check_pair"] == []
    assert len(results["enumerate_progressions"]) == len(equation_classes(p).representatives)


def test_stabiliser_is_the_scan_of_all_affine_maps():
    rng = random.Random(9)
    sizes = set()
    for p in (5, 7, 11, 13):
        for k in range(2, p):
            for digits in candidates(p, k):
                image = affine_image(digits, rng.randrange(1, p), rng.randrange(p), p)
                for d in (digits, image):
                    maps = _affine_maps(d, d, p)
                    assert len(maps) == len(set(maps)) and set(maps) == affine_stabiliser(d, p)
                    sizes.add(len(maps))
    assert {1, 2, 3} <= sizes


def test_check_pair_agrees_on_a_fixed_set_and_its_stabiliser_images():
    checked = 0
    for p in (7, 11, 13):
        for k in (3, 4, 5):
            for digits in candidates(p, k):
                for a, t in _affine_maps(digits, digits, p):
                    for size in range(k + 1):
                        for fixed in combinations(digits, size):
                            image = affine_image(fixed, a, t, p)
                            first = check_pair(digit_pair(p, digits, fixed)).outcomes
                            moved = check_pair(digit_pair(p, digits, image)).outcomes
                            assert [(o.b, o.trivial) for o in first] == \
                                [(o.b, o.trivial) for o in moved], (p, digits, fixed, image)
                            checked += fixed != image
    assert checked >= 100


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
